//! `perfbench` — the repository's benchmark: three workloads over the MLP
//! lifecycle (train, serve, refresh), exact end-to-end metrics from raw
//! samples, correctness checks on every run, and a separate traced run that
//! times each layer through its public calls. See `README.md` beside this
//! package for the workloads, the metric definitions and the noise budget.

pub mod corpus;
pub mod os;
pub mod plan;
pub mod rebuilt;
pub mod report;
pub mod speed;
pub mod stats;
pub mod trace;

use corpus::{fold_in_config, mlp_config, Corpus};
use mlp_core::engine::{response_determinism_hash, ProfileRequest, ProfileResponse, ServingEngine};
use mlp_core::{FoldInEngine, FoldInProfile, NewUserObservations, RankedCities};
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_social::UserId;
use os::{timed, Cost};
use plan::{Corrupt, Plan, Workload};
use report::{Metrics, Ops, END_TO_END, PER_LAYER};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::Trace;

/// What a finished run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// `Ok` only when every correctness check passed and no operation
    /// failed; the error says which check broke.
    pub verdict: Result<(), String>,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    pub ops: Ops,
    pub metrics: Metrics,
    /// Human-readable provenance and percentile lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The last line of standard output. A failed run reports no numbers.
    pub fn result_line(&self) -> String {
        let declared = if self.traced { PER_LAYER } else { END_TO_END };
        match self.verdict {
            Ok(()) => report::result_line(true, self.ops, &self.metrics.to_json(declared)),
            Err(_) => report::result_line(false, self.ops, "{}"),
        }
    }
}

/// Everything one run accumulates.
struct Run<'g> {
    gaz: &'g Gazetteer,
    plan: &'g Plan,
    ops: Ops,
    metrics: Metrics,
    lines: Vec<String>,
    /// Every machine speed measured by a thread that has ended.
    speeds: Vec<f64>,
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("correctness check failed: {}", what()))
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(dir: &Path) -> Result<Self, String> {
        fresh_dir(dir)?;
        Ok(Self(dir.to_path_buf()))
    }
}

/// Empties `dir`, creating it if needed.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs `plan` and collects its metrics, or the reason it failed.
pub fn run(plan: &Plan) -> Outcome {
    let gaz = Gazetteer::us_cities();
    let mut run = Run {
        gaz: &gaz,
        plan,
        ops: Ops::default(),
        metrics: Metrics::default(),
        lines: Vec::new(),
        speeds: Vec::new(),
    };
    let sched = os::ThreadSched::start();
    let ticks = os::CpuTicks::now();
    let verdict = Scratch::create(&plan.data_dir).and_then(|_scratch| {
        if plan.trace {
            run.traced()
        } else {
            run.untraced()
        }
    });
    sched.finish();
    let steal = ticks.zip(os::CpuTicks::now()).and_then(|(a, b)| b.steal_share_since(&a));
    let wait = os::sched_wait_share();
    run.speeds.extend(speed::take_seen());
    if !run.speeds.is_empty() {
        let q = |p| stats::percentile(&run.speeds, p).map_or(f64::NAN, |p| p.value);
        run.lines.push(format!(
            "# speed: {} reference runs, median {:.3}, p10 {:.3}, p90 {:.3} (1 = reference machine)",
            run.speeds.len(),
            stats::median(&run.speeds),
            q(0.1),
            q(0.9)
        ));
    }
    run.lines.push(format!(
        "# os: sched_wait_share={} steal_share={}",
        wait.map_or("null".into(), |v| format!("{v:.4}")),
        steal.map_or("null".into(), |v| format!("{v:.4}"))
    ));
    let verdict = verdict.and_then(|()| {
        if plan.trace {
            run.metrics.set_opt("os.sched_wait_share", wait);
            run.metrics.set_opt("os.steal_share", steal);
            run.metrics.check_complete(PER_LAYER)
        } else {
            run.metrics.set_opt("peak_rss_mb", os::peak_rss_mb());
            run.metrics.check_complete(END_TO_END)
        }
    });
    let verdict = verdict.and_then(|()| {
        ensure(run.ops.failed == 0, || {
            format!("{} of {} operations failed", run.ops.failed, run.ops.attempted)
        })
    });
    Outcome { verdict, traced: plan.trace, ops: run.ops, metrics: run.metrics, lines: run.lines }
}

/// What set-up leaves for the measured phases.
struct Setup<'g> {
    corpus: Corpus,
    /// The engine serve and refresh measure (none for train).
    engine: Option<ServingEngine<'g>>,
    artifact: PathBuf,
}

impl<'g> Run<'g> {
    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn artifact_path(&self) -> PathBuf {
        self.plan.data_dir.join("model.mlp")
    }

    fn open_durable(&mut self, path: &Path) -> Result<ServingEngine<'g>, String> {
        let open = ServingEngine::builder(self.gaz)
            .fold_in_config(fold_in_config())
            .from_artifact_file(path);
        self.ops.record("durable open", open)
    }

    fn train_engine(
        &mut self,
        corpus: &Corpus,
        sweeps: usize,
    ) -> Result<(ServingEngine<'g>, Cost), String> {
        let (engine, cost) = timed(|| {
            ServingEngine::builder(self.gaz)
                .mlp_config(mlp_config(sweeps, self.plan.seed))
                .fold_in_config(fold_in_config())
                .train(&corpus.train)
        });
        Ok((self.ops.record("train", engine)?, cost))
    }

    /// One set-up: generate the corpus; for serve and refresh also train a
    /// few-sweep posterior, write it to `artifact`, and open it mapped
    /// (durable for refresh). Returns the set-up and the training time
    /// inside it.
    fn setup(&mut self, artifact: PathBuf) -> Result<(Setup<'g>, Option<Cost>), String> {
        let corpus = Corpus::generate(self.gaz, self.plan);
        if self.plan.workload == Workload::Train {
            return Ok((Setup { corpus, engine: None, artifact }, None));
        }
        let (trained, train_s) = self.train_engine(&corpus, plan::SETUP_SWEEPS)?;
        self.ops.record("write artifact", trained.write_artifact(&artifact))?;
        drop(trained);
        let engine = if self.plan.workload == Workload::Refresh {
            self.open_durable(&artifact)?
        } else {
            let open = ServingEngine::builder(self.gaz)
                .fold_in_config(fold_in_config())
                .durable(false)
                .from_artifact_file(&artifact);
            self.ops.record("mapped open", open)?
        };
        Ok((Setup { corpus, engine: Some(engine), artifact }, Some(train_s)))
    }

    fn provenance(&mut self, corpus: &Corpus, engine: &ServingEngine<'_>, artifact: &Path) {
        let plan = self.plan;
        let ((mean_nb, max_nb), (mean_mn, max_mn)) = corpus.request_shape();
        let artifact_bytes = std::fs::metadata(artifact).map_or(0, |m| m.len());
        let fs = os::fs_type(&plan.data_dir).unwrap_or_else(|| "unknown".into());
        self.note(format!(
            "# provenance: workload={} seed={} seconds={} nproc={} clients={} sampler_threads=1 \
             fold_in_threads=1",
            plan.workload.name(),
            plan.seed,
            plan.seconds,
            os::nproc(),
            if plan.workload == Workload::Serve { plan::CLIENTS } else { 1 },
        ));
        let d = &corpus.data.dataset;
        self.note(format!(
            "# provenance: corpus users={} edges={} mentions={} | trained users={} unseen={} | \
             posterior users={} artifact_bytes={artifact_bytes}",
            d.num_users(),
            d.num_edges(),
            d.num_mentions(),
            corpus.train.num_users(),
            corpus.requests.len(),
            engine.snapshot().num_users(),
        ));
        self.note(format!(
            "# provenance: request shape neighbors mean={mean_nb:.2} max={max_nb} mentions \
             mean={mean_mn:.2} max={max_mn} | data_dir_fs={fs}"
        ));
        self.note(format!(
            "# provenance: sizes setup_reps={} setup_sweeps={} train_sweeps={} train_reps={} \
             serve_requests={} rounds={} serves_per_round={} batch={} reopens={} \
             checkpoints={} slices={}",
            plan.setup_reps,
            plan::SETUP_SWEEPS,
            plan.train_sweeps,
            plan.train_reps,
            plan.serve_requests,
            plan.rounds,
            plan::SERVES_PER_ROUND,
            plan::BATCH,
            plan::REOPENS,
            plan::CHECKPOINTS,
            plan.slices()
        ));
    }

    /// Sets a percentile metric from raw samples and prints it with its
    /// sample count.
    fn set_percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        q: f64,
    ) -> Result<f64, String> {
        let p = stats::percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        self.note(format!(
            "# {name} = {:.4} (p{} over {} samples, {} beyond)",
            p.value,
            q * 100.0,
            p.samples,
            p.beyond
        ));
        self.metrics.set(name, p.value);
        Ok(p.value)
    }

    /// [`Self::set_percentile`] over each operation's speed-scaled time on
    /// `clock` (in the metric's unit), noting the unscaled wall and
    /// on-CPU figures beside it.
    fn set_cost_percentile(
        &mut self,
        name: &'static str,
        costs: &[Cost],
        q: f64,
        scale: f64,
        clock: fn(&Cost) -> f64,
    ) -> Result<f64, String> {
        let scaled: Vec<f64> = costs.iter().map(|c| clock(c) * scale).collect();
        let value = self.set_percentile(name, &scaled, q)?;
        let of = |clock: fn(&Cost) -> f64| -> Result<f64, String> {
            let v: Vec<f64> = costs.iter().map(|c| clock(c) * scale).collect();
            Ok(stats::percentile(&v, q)?.value)
        };
        let (wall, cpu) = (of(|c| c.wall)?, of(|c| c.cpu)?);
        self.note(format!("#   {name} unscaled: wall {wall:.4}, thread CPU {cpu:.4}"));
        Ok(value)
    }

    /// Median speed-scaled wall time of a few repetitions, noting the
    /// unscaled figures beside it.
    fn set_median_cost(&mut self, name: &'static str, costs: &[Cost]) -> f64 {
        let of = |clock: fn(&Cost) -> f64| -> Vec<f64> { costs.iter().map(clock).collect() };
        let scaled = of(Cost::scaled);
        let value = stats::median(&scaled);
        self.metrics.set(name, value);
        self.note(format!(
            "# {name} = {value:.4} (median of {} repetitions {scaled:.3?}; unscaled: wall {:.4}, \
             thread CPU {:.4})",
            costs.len(),
            stats::median(&of(|c| c.wall)),
            stats::median(&of(|c| c.cpu))
        ));
        value
    }

    // ---------------------------------------------------------------
    // Untraced run: the end-to-end metrics.
    // ---------------------------------------------------------------

    /// The measured phases are cut into [`Plan::slices`] slices, and slice
    /// `k` runs the `k`-th part of every phase the workload measures — a
    /// training or a set-up repetition, its share of the serving, and its
    /// share of the refresh rounds and of the checkpoints. The host's speed
    /// drifts over seconds, so a metric whose samples all came from one
    /// contiguous stretch of a run read whatever that stretch saw;
    /// interleaved, every metric's samples spread over the whole run.
    fn untraced(&mut self) -> Result<(), String> {
        let plan = self.plan;
        let (mut setup_s, mut train_s) = (Vec::new(), Vec::new());
        // Train's set-up is only the corpus generation: its repetitions all
        // run first. Serve and refresh keep their first set-up and repeat
        // the others inside the slices.
        let upfront = if plan.workload == Workload::Train { plan.setup_reps.max(1) } else { 1 };
        let mut kept: Option<Setup<'g>> = None;
        for _ in 0..upfront {
            // Free the previous repetition (memory and files) untimed.
            drop(kept.take());
            fresh_dir(&plan.data_dir)?;
            let (setup, cost) = timed(|| self.setup(self.artifact_path()));
            let (setup, trained) = setup?;
            setup_s.push(cost);
            train_s.extend(trained);
            kept = Some(setup);
        }
        let Setup { corpus, engine, artifact } = kept.expect("at least one set-up");

        let slices = plan.slices();
        let rounds_of = |k| chunk(k, slices, plan.rounds);
        let serves = plan::SERVES_PER_ROUND;
        let (mut rounds, mut checkpoint_s) = (Rounds::default(), Vec::new());
        let durable = match plan.workload {
            Workload::Train => {
                let mut eval = Served::default();
                let (mut durable, mut first) = (None, None);
                for k in 0..slices {
                    let engine = self.training_rep(&corpus, k, &mut first, &mut train_s)?;
                    if durable.is_none() {
                        self.ops.record("write artifact", engine.write_artifact(&artifact))?;
                        self.provenance(&corpus, &engine, &artifact);
                        durable = Some(self.open_durable(&artifact)?);
                    }
                    let part = chunk(k, slices, corpus.requests.len());
                    self.evaluation_part(&corpus, &engine, part, &mut eval)?;
                    drop(engine);
                    let d = durable.as_ref().expect("opened in the first slice");
                    rounds.extend(self.rounds(&corpus, d, None, rounds_of(k), serves)?);
                    let n = chunk(k, slices, plan::CHECKPOINTS).len();
                    self.checkpoints(d, n, &mut checkpoint_s)?;
                }
                self.serve_metrics(&eval.lat, 1, eval.wall)?;
                self.unseen_accuracy(&corpus, &eval.homes);
                durable.expect("at least one slice")
            }
            Workload::Serve => {
                let engine = engine.expect("serve set-up opens an engine");
                self.provenance(&corpus, &engine, &artifact);
                // The tail's checkpoints replace the artifact file; the
                // serving engine keeps its mapping of the old one.
                let durable = self.open_durable(&artifact)?;
                let mut served = Served::default();
                for k in 0..slices {
                    if k > 0 {
                        self.repeat_setup(&mut setup_s, &mut train_s)?;
                    }
                    rounds.extend(self.rounds(&corpus, &durable, None, rounds_of(k), serves)?);
                    let n = chunk(k, slices, plan::CHECKPOINTS).len();
                    self.checkpoints(&durable, n, &mut checkpoint_s)?;
                    let part = chunk(k, slices, plan.serve_requests);
                    self.closed_loop_part(&corpus, &engine, part, &mut served)?;
                }
                self.closed_loop_check(&corpus, &engine, served)?;
                durable
            }
            Workload::Refresh => {
                let engine = engine.expect("refresh set-up opens an engine");
                self.provenance(&corpus, &engine, &artifact);
                for k in 0..slices {
                    if k > 0 {
                        self.repeat_setup(&mut setup_s, &mut train_s)?;
                    }
                    rounds.extend(self.rounds(&corpus, &engine, None, rounds_of(k), serves)?);
                    let n = chunk(k, slices, plan::CHECKPOINTS).len();
                    self.checkpoints(&engine, n, &mut checkpoint_s)?;
                }
                engine
            }
        };
        self.durability_phase(&corpus, rounds, checkpoint_s, durable, &artifact)?;
        self.set_median_cost("setup_s", &setup_s);
        self.set_median_cost("train_s", &train_s);
        Ok(())
    }

    /// One more timed set-up beside the kept one, in a directory of its
    /// own; it is dropped, untimed, as soon as it is measured.
    fn repeat_setup(
        &mut self,
        setup_s: &mut Vec<Cost>,
        train_s: &mut Vec<Cost>,
    ) -> Result<(), String> {
        let dir = self.plan.data_dir.join("setup");
        fresh_dir(&dir)?;
        let (setup, cost) = timed(|| self.setup(dir.join("model.mlp")));
        let (setup, trained) = setup?;
        setup_s.push(cost);
        train_s.extend(trained);
        drop(setup);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// The refresh rounds' metrics, then reopens and checkpoints: the
    /// refresh workload's main phase, and the other workloads' tail.
    fn durability_phase(
        &mut self,
        corpus: &Corpus,
        rounds: Rounds,
        checkpoints: Vec<Cost>,
        engine: ServingEngine<'g>,
        artifact: &Path,
    ) -> Result<(), String> {
        if self.plan.workload == Workload::Refresh {
            // Reads alternate with commits, so the serving time is the
            // reads' own wall time.
            let reading_s = rounds.serve.iter().map(|c| c.wall).sum();
            self.serve_metrics(&rounds.serve, 1, reading_s)?;
            let acc = corpus.acc_at_100(self.gaz, &rounds.absorbed);
            self.metrics.set("acc_at_100", acc);
            self.note(format!(
                "# acc_at_100 = {acc:.4} over {} absorbed users",
                rounds.absorbed.len()
            ));
        }
        self.set_cost_percentile("commit_p50_ms", &rounds.commit, 0.5, 1e3, Cost::scaled)?;
        // On the wall clock the p90 follows the hypervisor's steal rate.
        self.set_cost_percentile("commit_p90_ms", &rounds.commit, 0.9, 1e3, Cost::scaled_cpu)?;
        self.note(format!("# auto_checkpoints = {}", rounds.auto_checkpoints));
        self.reopen_and_checkpoint(corpus, engine, artifact, checkpoints, None)
    }

    /// `n` timed checkpoints of a durable engine.
    fn checkpoints(
        &mut self,
        engine: &ServingEngine<'_>,
        n: usize,
        costs: &mut Vec<Cost>,
    ) -> Result<(), String> {
        for _ in 0..n {
            let (done, cost) = timed(|| engine.checkpoint());
            ensure(self.ops.record("checkpoint", done)?, || {
                "checkpoint found no durable log".into()
            })?;
            costs.push(cost);
        }
        Ok(())
    }

    /// One of the train workload's cold trainings with the default
    /// configuration; every repetition must freeze the same bytes as the
    /// first (kept in `first`).
    fn training_rep(
        &mut self,
        corpus: &Corpus,
        rep: usize,
        first: &mut Option<Vec<u8>>,
        train_s: &mut Vec<Cost>,
    ) -> Result<ServingEngine<'g>, String> {
        let (engine, cost) = self.train_engine(corpus, self.plan.train_sweeps)?;
        train_s.push(cost);
        let mut bytes = self.ops.record("encode", engine.snapshot().try_encode())?.to_vec();
        if rep == 1 && self.plan.corrupt == Corrupt::TrainedPosterior {
            bytes[600] ^= 1;
        }
        match first {
            None => *first = Some(bytes),
            Some(f) => {
                ensure(*f == bytes, || format!("training repetition {rep} froze different bytes"))?
            }
        }
        Ok(engine)
    }

    /// Part `range` of the evaluation pass, which profiles every unseen
    /// user once, serially.
    fn evaluation_part(
        &mut self,
        corpus: &Corpus,
        engine: &ServingEngine<'_>,
        range: Range<usize>,
        out: &mut Served,
    ) -> Result<(), String> {
        let (start, gauge) = (Instant::now(), speed::spent());
        for i in range {
            let (r, cost) = timed(|| engine.profile(&corpus.requests[i]));
            out.lat.push(cost);
            out.homes.push((corpus.unseen_ids[i], self.ops.record("profile", r)?.ranked.home()));
        }
        out.wall += (start.elapsed() - (speed::spent() - gauge)).as_secs_f64();
        Ok(())
    }

    fn unseen_accuracy(&mut self, corpus: &Corpus, homes: &[(UserId, CityId)]) {
        let acc = corpus.acc_at_100(self.gaz, homes);
        self.metrics.set("acc_at_100", acc);
        self.note(format!("# acc_at_100 = {acc:.4} over {} unseen users", homes.len()));
    }

    /// Serving metrics from per-request costs. Throughput is requests
    /// completed over `serving_s`, the wall time the serving took, scaled
    /// by the requests' median speed.
    fn serve_metrics(
        &mut self,
        lat: &[Cost],
        clients: usize,
        serving_s: f64,
    ) -> Result<(), String> {
        let unscaled = lat.len() as f64 / serving_s;
        let speeds: Vec<f64> = lat.iter().map(|c| c.speed).collect();
        let qps = unscaled / stats::median(&speeds);
        self.metrics.set("serve_qps", qps);
        self.note(format!(
            "# serve_qps = {qps:.2} ({} requests in {serving_s:.3} s, {clients} client(s); \
             unscaled {unscaled:.2})",
            lat.len()
        ));
        self.set_cost_percentile("serve_p50_us", lat, 0.5, 1e6, Cost::scaled)?;
        // On the wall clock the p99 follows the hypervisor's steal rate.
        self.set_cost_percentile("serve_p99_us", lat, 0.99, 1e6, Cost::scaled_cpu)?;
        Ok(())
    }

    /// Part `range` of the serve workload's main phase: `clients`
    /// closed-loop threads drain request numbers `range` (request `i` is
    /// list entry `i mod len`) through `ServingEngine::profile`.
    fn closed_loop_part(
        &mut self,
        corpus: &Corpus,
        engine: &ServingEngine<'_>,
        range: Range<usize>,
        out: &mut Served,
    ) -> Result<(), String> {
        let total = range.end;
        let list = &corpus.requests;
        let next = AtomicUsize::new(range.start);
        #[derive(Default)]
        struct Client {
            lat: Vec<Cost>,
            first_pass: Vec<(usize, ProfileResponse)>,
            later: Vec<(usize, u64)>,
            ops: Ops,
            /// Wall time spent measuring the machine's speed.
            gauge: Duration,
            speeds: Vec<f64>,
        }
        let start = Instant::now();
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan::CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let sched = os::ThreadSched::start();
                        let mut c = Client::default();
                        let gauge = speed::spent();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            let (out, cost) = timed(|| engine.profile(&list[i % list.len()]));
                            if let Ok(resp) = c.ops.record("profile", out) {
                                c.lat.push(cost);
                                if i < list.len() {
                                    c.first_pass.push((i, resp));
                                } else {
                                    c.later.push((i, response_determinism_hash(&[resp])));
                                }
                            }
                        }
                        sched.finish();
                        c.gauge = speed::spent() - gauge;
                        c.speeds = speed::take_seen();
                        c
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("serving client panicked")).collect()
        });
        let mut serving = start.elapsed();
        for c in clients {
            // The clients measured the speed side by side: the loop lost
            // their mean gauge time.
            serving -= c.gauge / plan::CLIENTS as u32;
            self.speeds.extend(c.speeds);
            self.ops.absorb(c.ops);
            out.lat.extend(c.lat);
            out.first.extend(c.first_pass);
            out.later.extend(c.later);
        }
        out.wall += serving.as_secs_f64();
        Ok(())
    }

    /// The serve workload's metrics and checks once every part ran: the
    /// first-pass answers, put back in request order, must hash exactly
    /// like a serial `profile_each` of the same list, and every repeated
    /// request like its serial answer.
    fn closed_loop_check(
        &mut self,
        corpus: &Corpus,
        engine: &ServingEngine<'_>,
        served: Served,
    ) -> Result<(), String> {
        let list = &corpus.requests;
        self.serve_metrics(&served.lat, plan::CLIENTS, served.wall)?;
        let (mut first, later) = (served.first, served.later);
        first.sort_by_key(|(i, _)| *i);
        let mut answers: Vec<ProfileResponse> = first.into_iter().map(|(_, r)| r).collect();
        if self.plan.corrupt == Corrupt::ServedAnswer {
            let mut ranking = answers[0].ranked.as_slice().to_vec();
            ranking[0].1 *= 0.5;
            answers[0].ranked = RankedCities::from(FoldInProfile { profile: ranking });
        }

        let serial = self.ops.record("profile_each", engine.profile_each(list))?;
        ensure(answers.len() == serial.len(), || {
            format!("{} of {} first-pass answers", answers.len(), serial.len())
        })?;
        ensure(response_determinism_hash(&answers) == response_determinism_hash(&serial), || {
            "concurrent answers differ from a serial profile_each".into()
        })?;
        let per_request: Vec<u64> =
            serial.iter().map(|r| response_determinism_hash(std::slice::from_ref(r))).collect();
        ensure(later.iter().all(|&(i, h)| per_request[i % list.len()] == h), || {
            "a repeated request was answered differently".into()
        })?;
        let homes: Vec<_> =
            corpus.unseen_ids.iter().zip(&serial).map(|(&u, r)| (u, r.ranked.home())).collect();
        self.unseen_accuracy(corpus, &homes);
        Ok(())
    }

    /// Serve-then-refresh rounds `range` through the engine, `serves`
    /// reads each; with `rebuilt`, the same batches also go through the
    /// rebuilt writer path (traced).
    fn rounds(
        &mut self,
        corpus: &Corpus,
        engine: &ServingEngine<'_>,
        mut rebuilt: Option<(&mut rebuilt::Writer<'_>, &mut Trace)>,
        range: Range<usize>,
        serves: usize,
    ) -> Result<Rounds, String> {
        let mut out = Rounds::default();
        let (mut next_req, mut next_new) = (range.start * serves, range.start * plan::BATCH);
        for round in range {
            for _ in 0..serves {
                let request = &corpus.requests[next_req % corpus.requests.len()];
                let (r, cost) = timed(|| engine.profile(request));
                out.serve.push(cost);
                self.ops.record("profile", r)?;
                next_req += 1;
            }

            let picks: Vec<usize> =
                (next_new..next_new + plan::BATCH).map(|i| i % corpus.requests.len()).collect();
            next_new += plan::BATCH;
            let batch: Vec<ProfileRequest> =
                picks.iter().map(|&i| corpus.requests[i].clone()).collect();
            // The traced run feeds the same batch to the rebuilt writer, first
            // on odd rounds, so neither path always finds the caches warm.
            let rebuilt_first = round % 2 == 1;
            let mut rebuilt_homes = None;
            if let (true, Some((writer, trace))) = (rebuilt_first, rebuilt.as_mut()) {
                rebuilt_homes = Some(self.rebuilt_refresh(writer, trace, &batch)?);
            }
            let log_before = engine.log_bytes();
            let (report, cost) = timed(|| engine.refresh(&batch));
            out.commit.push(cost);
            let report = self.ops.record("refresh", report)?;
            if engine.log_bytes() < log_before {
                out.auto_checkpoints += 1;
            }
            let homes: Vec<CityId> = report.profiles.iter().map(|p| p.ranked.home()).collect();
            if let (false, Some((writer, trace))) = (rebuilt_first, rebuilt.as_mut()) {
                rebuilt_homes = Some(self.rebuilt_refresh(writer, trace, &batch)?);
            }
            if let Some(rebuilt_homes) = rebuilt_homes {
                ensure(rebuilt_homes == homes, || "rebuilt refresh answered differently".into())?;
            }
            out.absorbed.extend(picks.iter().map(|&i| corpus.unseen_ids[i]).zip(homes));
        }
        Ok(out)
    }

    fn rebuilt_refresh(
        &mut self,
        writer: &mut rebuilt::Writer<'_>,
        trace: &mut Trace,
        batch: &[ProfileRequest],
    ) -> Result<Vec<CityId>, String> {
        let obs: Vec<NewUserObservations> = batch.iter().map(|r| r.observations.clone()).collect();
        let profiles = self.ops.record("rebuilt refresh", writer.refresh(&obs, trace))?;
        Ok(profiles.iter().map(|p| p.home()).collect())
    }

    /// Checkpoints, commits [`plan::REPLAYED`] more batches (so every
    /// reopen replays that many WAL records, whatever the seed), drops the
    /// live engine, reopens it [`plan::REOPENS`] times — each reopened
    /// posterior must encode byte-identically to the live one — then
    /// checkpoints: [`plan::CHECKPOINTS`] times traced, once untraced,
    /// where `checkpoint` already holds the slices' checkpoint times.
    fn reopen_and_checkpoint(
        &mut self,
        corpus: &Corpus,
        engine: ServingEngine<'g>,
        artifact: &Path,
        mut checkpoint: Vec<Cost>,
        mut rebuilt: Option<(&mut rebuilt::Writer<'_>, &mut Trace, &mut Paired)>,
    ) -> Result<(), String> {
        let plan = self.plan;
        let (done, cost) = timed(|| engine.checkpoint());
        ensure(self.ops.record("checkpoint", done)?, || "checkpoint found no durable log".into())?;
        if let Some((writer, trace, paired)) = rebuilt.as_mut() {
            paired.untraced_ms += cost.wall * 1e3;
            self.ops.record("rebuilt checkpoint", writer.checkpoint(trace))?;
        }
        let writer = rebuilt.as_mut().map(|(w, t, _)| (&mut **w, &mut **t));
        let tail = plan.rounds..plan.rounds + plan::REPLAYED;
        let replay = self.rounds(corpus, &engine, writer, tail, 0)?;
        ensure(replay.auto_checkpoints == 0, || "the replayed commits auto-checkpointed".into())?;
        if let Some((_, _, paired)) = rebuilt.as_mut() {
            paired.untraced_ms += replay.commit.iter().map(|c| c.wall * 1e3).sum::<f64>();
        }
        let mut live = self.ops.record("encode", engine.snapshot().try_encode())?.to_vec();
        if plan.corrupt == Corrupt::LiveEncoding {
            live[600] ^= 1;
        }
        drop(engine);
        let mut reopen = Vec::new();
        let mut last = None;
        for _ in 0..plan::REOPENS {
            drop(last.take());
            let (reopened, cost) = timed(|| self.open_durable(artifact));
            let reopened = reopened?;
            reopen.push(cost);
            let bytes = self.ops.record("encode", reopened.snapshot().try_encode())?;
            ensure(bytes.as_slice() == live.as_slice(), || {
                "a reopened posterior differs from the live one".into()
            })?;
            if let Some((_, trace, paired)) = rebuilt.as_mut() {
                paired.untraced_ms += cost.wall * 1e3;
                let (engine2, replayed) = self
                    .ops
                    .record("rebuilt reopen", rebuilt::reopen(self.gaz, artifact, trace))?;
                let bytes = self.ops.record("encode", engine2.snapshot().try_encode())?;
                ensure(bytes.as_slice() == live.as_slice(), || {
                    "the rebuilt reopen differs from the live posterior".into()
                })?;
                paired.replayed = replayed;
            }
            last = Some(reopened);
        }
        let engine = last.ok_or("no reopen was planned")?;
        let replayed = engine.recovery_report().map_or(0, |r| r.replayed_records);
        self.note(format!("# reopen replayed {replayed} WAL records"));
        let closing = if rebuilt.is_some() { plan::CHECKPOINTS } else { 1 };
        for _ in 0..closing {
            let (done, cost) = timed(|| engine.checkpoint());
            let done = self.ops.record("checkpoint", done)?;
            checkpoint.push(cost);
            ensure(done, || "checkpoint found no durable log".into())?;
            if let Some((writer, trace, paired)) = rebuilt.as_mut() {
                paired.untraced_ms += cost.wall * 1e3;
                self.ops.record("rebuilt checkpoint", writer.checkpoint(trace))?;
            }
        }
        let on_disk = self.ops.record("read artifact", std::fs::read(artifact))?;
        ensure(on_disk == live, || {
            "the checkpointed artifact differs from the live posterior".into()
        })?;
        if let Some((writer, _, _)) = rebuilt.as_mut() {
            let rebuilt_bytes = self.ops.record("encode", writer.snapshot().try_encode())?;
            ensure(rebuilt_bytes.as_slice() == live.as_slice(), || {
                "the rebuilt writer's posterior differs from the engine's".into()
            })?;
        }
        if !plan.trace {
            self.set_cost_percentile("reopen_ms", &reopen, 0.5, 1e3, Cost::scaled)?;
            self.set_cost_percentile("checkpoint_ms", &checkpoint, 0.5, 1e3, Cost::scaled)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Traced run: the per-layer metrics.
    // ---------------------------------------------------------------

    fn traced(&mut self) -> Result<(), String> {
        let plan = self.plan;
        self.note(format!("# traced run: workload={} seed={}", plan.workload.name(), plan.seed));
        let mut trace = Trace::new();
        let mut paired = Paired::default();
        let corpus = Corpus::generate(self.gaz, plan);

        // Training: the engine path and the rebuilt path, alternating which
        // runs first, each pair freezing the same bytes.
        let sweeps =
            if plan.workload == Workload::Train { plan.train_sweeps } else { plan::SETUP_SWEEPS };
        let config = mlp_config(sweeps, plan.seed);
        let (mut engine_ms, mut kept, mut counts) = (Vec::new(), None, None);
        for pair in 0..plan::TRACE_TRAININGS {
            let early = if pair % 2 == 1 {
                Some(self.rebuilt_training(&corpus, &config, &mut trace)?)
            } else {
                None
            };
            drop(kept.take());
            let (engine, cost) = self.train_engine(&corpus, sweeps)?;
            engine_ms.push(cost.wall * 1e3);
            let (bytes, out) = match early {
                Some(done) => done,
                None => self.rebuilt_training(&corpus, &config, &mut trace)?,
            };
            let reference = self.ops.record("encode", engine.snapshot().try_encode())?;
            ensure(bytes.as_slice() == reference.as_slice(), || {
                "rebuilt training froze a different posterior than EngineBuilder::train".into()
            })?;
            kept = Some(engine);
            counts = Some(out);
        }
        let engine = kept.expect("at least one training pair");
        let counts = counts.expect("at least one training pair");
        self.training_layers(&trace, &counts, &engine_ms, &mut paired);

        let artifact = self.artifact_path();
        self.ops.record("write artifact", engine.write_artifact(&artifact))?;
        let serving = if plan.workload == Workload::Train {
            engine
        } else {
            drop(engine);
            let open = ServingEngine::builder(self.gaz)
                .fold_in_config(fold_in_config())
                .durable(false)
                .from_artifact_file(&artifact);
            self.ops.record("mapped open", open)?
        };
        self.provenance(&corpus, &serving, &artifact);
        self.serving_layers(&corpus, &serving, &mut trace, &mut paired)?;
        drop(serving);

        // Writer path: the engine on one copy of the artifact, the rebuilt
        // updater + log on another, fed the same batches.
        let twin = plan.data_dir.join("twin.mlp");
        self.ops.record("copy artifact", std::fs::copy(&artifact, &twin))?;
        let engine = self.open_durable(&artifact)?;
        let mut writer = self.ops.record("rebuilt open", rebuilt::Writer::open(self.gaz, &twin))?;
        let rounds = self.rounds(
            &corpus,
            &engine,
            Some((&mut writer, &mut trace)),
            0..plan.rounds,
            plan::SERVES_PER_ROUND,
        )?;
        self.writer_layers(&trace, &rounds, &writer, &mut paired)?;
        self.reopen_and_checkpoint(
            &corpus,
            engine,
            &artifact,
            Vec::new(),
            Some((&mut writer, &mut trace, &mut paired)),
        )?;
        self.reopen_layers(&trace, &paired);

        self.metrics.set("trace.untraced_ms", paired.untraced_ms);
        let traced_ms = paired_traced_total(&trace);
        self.metrics.set("trace.traced_ms", traced_ms);
        self.note(format!(
            "# tracing overhead: traced {traced_ms:.1} ms - untraced {:.1} ms = {:.1} ms ({} spans)",
            paired.untraced_ms,
            traced_ms - paired.untraced_ms,
            trace.spans().len()
        ));
        let out =
            plan.trace_dir.join(format!("trace-{}-seed{}.jsonl", plan.workload.name(), plan.seed));
        std::fs::create_dir_all(&plan.trace_dir).map_err(|e| format!("trace dir: {e}"))?;
        trace.write_jsonl(&out).map_err(|e| format!("write trace: {e}"))?;
        self.note(format!("# spans written to {}", out.display()));
        Ok(())
    }

    /// One traced training rebuild: its posterior's encoding and telemetry.
    fn rebuilt_training(
        &mut self,
        corpus: &Corpus,
        config: &mlp_core::MlpConfig,
        trace: &mut Trace,
    ) -> Result<(Vec<u8>, rebuilt::TrainOutput), String> {
        let out = rebuilt::train(self.gaz, &corpus.train, config, trace);
        let (engine, counts) = self.ops.record("rebuilt train", out)?;
        Ok((self.ops.record("encode", engine.snapshot().try_encode())?.to_vec(), counts))
    }

    fn training_layers(
        &mut self,
        trace: &Trace,
        counts: &rebuilt::TrainOutput,
        engine_ms: &[f64],
        paired: &mut Paired,
    ) {
        // Each layer's figure is the median over the rebuilds of its self
        // time under that rebuild's `train` root.
        let roots: Vec<_> = trace.ids_named("train").collect();
        let per_root = |f: &dyn Fn(&trace::Span, trace::SpanId) -> f64| -> f64 {
            let totals: Vec<f64> = roots
                .iter()
                .map(|&root| trace.children(root).map(|(id, s)| f(s, id)).sum())
                .collect();
            stats::median(&totals)
        };
        for (metric, span) in [
            ("social.adjacency_ms", "social.adjacency"),
            ("candidacy.build_ms", "candidacy.build"),
            ("fit.power_law_ms", "fit.power_law"),
            ("random_models.learn_ms", "random_models.learn"),
            ("sampler.init_ms", "sampler.init"),
            ("sampler.sweep_ms", "sampler.sweep"),
            ("model.theta_ms", "model.theta"),
            ("model.loglik_ms", "model.loglik"),
            ("model.map_extract_ms", "model.map_extract"),
            ("state.accumulate_ms", "state.accumulate"),
            ("snapshot.freeze_ms", "snapshot.freeze"),
            ("engine.adopt_ms", "engine.adopt"),
        ] {
            let ms = per_root(&|s, id| {
                if s.name == span {
                    trace.self_ns(id) as f64 / 1e6
                } else {
                    0.0
                }
            });
            self.metrics.set(metric, ms);
        }
        self.metrics.set("candidacy.mean_candidates", counts.mean_candidates);
        self.metrics.set("sampler.sweeps", counts.sweeps as f64);
        self.metrics.set("sampler.tokens", counts.tokens as f64);
        self.metrics.set("sampler.changed_share", counts.changed_share);
        // The ledger compares the fastest engine training with the fastest
        // rebuild: the host's slowdowns move single trainings by up to ±10%,
        // more than the glue the ledger looks for.
        let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
        let children_ms = fastest(&mut roots.iter().map(|&root| {
            trace.children(root).map(|(_, s)| s.duration_ns() as f64 / 1e6).sum::<f64>()
        }));
        let untraced_ms = fastest(&mut engine_ms.iter().copied());
        let unaccounted = untraced_ms - children_ms;
        self.metrics.set("train.unaccounted_ms", unaccounted);
        paired.untraced_ms += engine_ms.iter().sum::<f64>();
        self.note(format!(
            "# train ledger (fastest of {} pairs): untraced {untraced_ms:.1} ms = spans \
             {children_ms:.1} ms + unaccounted {unaccounted:.1} ms ({:.1}%)",
            engine_ms.len(),
            100.0 * unaccounted / untraced_ms
        ));
    }

    /// Per request: the engine's `profile` (untraced) and
    /// `FoldInEngine::fold_in` on the same request and snapshot (traced);
    /// both answers must agree.
    fn serving_layers(
        &mut self,
        corpus: &Corpus,
        engine: &ServingEngine<'_>,
        trace: &mut Trace,
        paired: &mut Paired,
    ) -> Result<(), String> {
        let handle = engine.snapshot();
        let fold_in = self.ops.record(
            "fold-in engine",
            FoldInEngine::new(handle.snapshot(), self.gaz, fold_in_config()),
        )?;
        let (mut profile_us, mut fold_us) = (Vec::new(), Vec::new());
        let (mut neighbors, mut mentions, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..plan::TRACE_REQUESTS {
            let req = &corpus.requests[i % corpus.requests.len()];
            let t = Instant::now();
            let out = engine.profile(req);
            profile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let resp = self.ops.record("profile", out)?;
            let folded = trace.time("infer.fold_in", || fold_in.fold_in(&req.observations));
            let folded = self.ops.record("fold_in", folded)?;
            fold_us.push(trace.spans().last().expect("fold_in span").duration_ns() as f64 / 1e3);
            ensure(folded.profile.as_slice() == resp.ranked.as_slice(), || {
                "fold_in and profile disagree".into()
            })?;
            neighbors.push(req.observations.neighbors.len() as f64);
            mentions.push(req.observations.mentions.len() as f64);
            candidates.push(resp.ranked.len() as f64);
        }
        paired.untraced_ms += profile_us.iter().sum::<f64>() / 1e3;
        let p50 = self.set_percentile("infer.fold_in_p50_us", &fold_us, 0.5)?;
        self.set_percentile("infer.fold_in_p99_us", &fold_us, 0.99)?;
        let profile_p50 = stats::percentile(&profile_us, 0.5)?.value;
        self.metrics.set("engine.overhead_us", profile_p50 - p50);
        self.metrics.set("request.neighbors", stats::mean(&neighbors));
        self.metrics.set("request.mentions", stats::mean(&mentions));
        self.metrics.set("request.candidates", stats::mean(&candidates));

        let batch = plan::ACQUIRE_BATCH;
        let acquire_ns: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(engine.snapshot());
                }
                t.elapsed().as_secs_f64() * 1e9 / batch as f64
            })
            .collect();
        self.metrics.set("engine.acquire_ns", stats::median(&acquire_ns));
        Ok(())
    }

    fn writer_layers(
        &mut self,
        trace: &Trace,
        rounds: &Rounds,
        writer: &rebuilt::Writer<'_>,
        paired: &mut Paired,
    ) -> Result<(), String> {
        for (metric, span) in [
            ("online.absorb_ms", "online.absorb"),
            ("online.commit_ms", "online.commit"),
            ("wal.append_ms", "wal.append"),
            ("snapshot.clone_ms", "snapshot.clone"),
        ] {
            self.metrics.set(metric, stats::median(&trace.durations_ms(span)));
        }
        self.metrics.set("wal.record_bytes", stats::median(&writer.record_bytes));
        self.metrics.set("engine.auto_checkpoints", rounds.auto_checkpoints as f64);
        ensure(writer.auto_checkpoints == rounds.auto_checkpoints, || {
            format!(
                "rebuilt writer checkpointed {} times, engine {}",
                writer.auto_checkpoints, rounds.auto_checkpoints
            )
        })?;
        let per_commit: Vec<f64> = trace
            .ids_named("refresh")
            .map(|id| trace.children(id).map(|(_, c)| c.duration_ns() as f64 / 1e6).sum())
            .collect();
        let commit_wall_ms: Vec<f64> = rounds.commit.iter().map(|c| c.wall * 1e3).collect();
        let engine_p50 = stats::percentile(&commit_wall_ms, 0.5)?.value;
        let spans_p50 = stats::percentile(&per_commit, 0.5)?.value;
        self.metrics.set("commit.unaccounted_ms", engine_p50 - spans_p50);
        self.note(format!(
            "# commit ledger: untraced p50 {engine_p50:.3} ms = spans p50 {spans_p50:.3} ms + unaccounted {:.3} ms ({:.1}%)",
            engine_p50 - spans_p50,
            100.0 * (engine_p50 - spans_p50) / engine_p50
        ));
        paired.untraced_ms += commit_wall_ms.iter().sum::<f64>();
        Ok(())
    }

    fn reopen_layers(&mut self, trace: &Trace, paired: &Paired) {
        self.metrics.set("snapshot.open_ms", stats::median(&trace.durations_ms("snapshot.open")));
        self.metrics.set("wal.recover_ms", stats::median(&trace.durations_ms("wal.recover")));
        self.metrics.set("wal.replayed_records", paired.replayed as f64);
        self.metrics
            .set("snapshot.encode_ms", stats::median(&trace.durations_ms("snapshot.encode")));
        self.metrics
            .set("wal.write_atomic_ms", stats::median(&trace.durations_ms("wal.write_atomic")));
    }
}

/// Engine-path totals matched against the traced rebuilds.
#[derive(Debug, Default)]
struct Paired {
    untraced_ms: f64,
    replayed: usize,
}

/// Σ of the rebuilt paths' root spans plus the fold-in spans: the traced
/// counterpart of [`Paired::untraced_ms`].
fn paired_traced_total(trace: &Trace) -> f64 {
    trace
        .spans()
        .iter()
        .filter(|s| {
            s.parent.is_none()
                && matches!(s.name, "train" | "infer.fold_in" | "refresh" | "reopen" | "checkpoint")
        })
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

#[derive(Debug, Default)]
struct Rounds {
    commit: Vec<Cost>,
    serve: Vec<Cost>,
    absorbed: Vec<(UserId, CityId)>,
    auto_checkpoints: usize,
}

impl Rounds {
    /// Appends the rounds that ran after these.
    fn extend(&mut self, later: Rounds) {
        self.commit.extend(later.commit);
        self.serve.extend(later.serve);
        self.absorbed.extend(later.absorbed);
        self.auto_checkpoints += later.auto_checkpoints;
    }
}

/// What the parts of a serving phase (the closed loop, or the evaluation
/// pass) collect.
#[derive(Default)]
struct Served {
    lat: Vec<Cost>,
    /// Wall time of the serving, the speed measurements left out.
    wall: f64,
    /// Evaluation pass: each unseen user's predicted home.
    homes: Vec<(UserId, CityId)>,
    /// Closed loop: the answers of the first pass over the list, by
    /// request number.
    first: Vec<(usize, ProfileResponse)>,
    /// Closed loop: hashes of the later answers, by request number.
    later: Vec<(usize, u64)>,
}

/// Part `k` of `parts` near-equal consecutive parts of `0..total`.
pub fn chunk(k: usize, parts: usize, total: usize) -> Range<usize> {
    total * k / parts..total * (k + 1) / parts
}

#[cfg(test)]
mod tests {
    use super::chunk;

    #[test]
    fn chunks_cover_the_range_in_order() {
        let parts: Vec<_> = (0..4).map(|k| chunk(k, 4, 10)).collect();
        assert_eq!(parts, [0..2, 2..5, 5..7, 7..10]);
        assert_eq!(chunk(0, 1, 7), 0..7);
    }
}
