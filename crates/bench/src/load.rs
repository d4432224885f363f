//! Closed-loop load generation against the serving engine.
//!
//! The paper's evaluation measures model quality; this module measures
//! the *serving* claims of the engine layer: sustained single-user QPS
//! under concurrent readers and tail latency while a background writer
//! churns refresh commits. The harness is closed-loop — each client
//! issues its next request only after the previous answer returns, so
//! reported QPS is a sustained rate, not an open-loop arrival fantasy.
//!
//! Three pieces:
//!
//! * [`LoadConfig`] / [`LoadConfig::parse_from`] — the `serve_load`
//!   binary's knobs (trained users, client count, duration, churn
//!   writer on/off, durable artifact, kill timer);
//! * [`run`] — trains a synthetic posterior, then races N clients, each
//!   calling [`ServingEngine::profile`], against an optional
//!   refresh-churn writer for the configured duration, folding every
//!   response time into a mergeable [`LatencyHistogram`]. With
//!   `--artifact` the engine is file-backed on the durable path (every
//!   churn commit fsync'd to the sidecar write-ahead log before
//!   publish), and `--kill-after S` aborts the process mid-churn — the
//!   crash half of the crash-recovery harness;
//! * [`recover`] — the verification half: reopens the artifact (replaying
//!   the committed log, truncating any torn tail) and proves the
//!   recovered posterior byte-identical — and bit-identically serving —
//!   versus an uninterrupted replay of the same churn waves.

use crate::{chain_config, Flags};
use mlp_core::engine::{response_determinism_hash, EngineError, ProfileRequest, ServingEngine};
use mlp_core::FoldInConfig;
use mlp_gazetteer::Gazetteer;
use mlp_geo::LatencyHistogram;
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::{GeneratedData, Generator, GeneratorConfig, UserId};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything the `serve_load` binary can vary.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Users trained into the base posterior.
    pub users: usize,
    /// Extra generated users reserved for the churn writer to absorb.
    pub churn_pool: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Wall-clock measurement window in seconds.
    pub seconds: f64,
    /// Master seed (training, request schedule, churn schedule).
    pub seed: u64,
    /// Fold-in worker threads. Only the churn writer's absorb batches can
    /// use more than one: a client's single-request `profile` runs inline.
    pub threads: usize,
    /// Whether the background writer churns refresh commits during the
    /// measurement window.
    pub churn: bool,
    /// Users absorbed per refresh commit.
    pub churn_batch: usize,
    /// Pause between churn commits (keeps the 1-writer box from starving
    /// readers; commits clone the posterior).
    pub churn_pause: Duration,
    /// Gibbs sweeps for the synthetic cold train.
    pub train_iters: usize,
    /// File-backed mode: the base artifact path. Trained and written on
    /// first use, then (re)opened on the durable path — churn commits
    /// are fsync'd to the sidecar `<artifact>.wal` before publish.
    pub artifact: Option<String>,
    /// Crash mode: abort the process (no unwinding, no flush) this many
    /// seconds into the measurement window.
    pub kill_after: Option<f64>,
    /// WAL auto-compaction threshold in bytes. Defaults to `u64::MAX`
    /// (off): crash verification replays the log against the *original*
    /// base artifact, so the crash run must not fold the log into it.
    pub compact_bytes: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            users: 400,
            churn_pool: 120,
            clients: 4,
            seconds: 5.0,
            seed: 2012,
            threads: 1,
            churn: true,
            churn_batch: 8,
            churn_pause: Duration::from_millis(25),
            train_iters: 8,
            artifact: None,
            kill_after: None,
            compact_bytes: u64::MAX,
        }
    }
}

impl LoadConfig {
    /// The CI smoke configuration: small corpus, two clients, a
    /// sub-second window — enough to prove the serving path moves under
    /// concurrent churn without eating CI minutes.
    pub fn smoke() -> Self {
        Self {
            users: 80,
            churn_pool: 24,
            clients: 2,
            seconds: 0.5,
            churn_batch: 4,
            train_iters: 4,
            ..Self::default()
        }
    }

    /// Parses `serve_load` flags (testable through
    /// [`crate::parse_args`]). `--smoke` applies the smoke preset before
    /// explicit overrides.
    pub fn parse_from(flags: &mut Flags) -> Result<(Self, LoadMode), String> {
        let mut out = Self::default();
        let mut mode = LoadMode::Measure;
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--smoke" => {
                    out = Self::smoke();
                    mode = LoadMode::Smoke;
                }
                "--recover" => mode = LoadMode::Recover,
                "--no-churn" => out.churn = false,
                "--users" => out.users = flags.num(&flag)?,
                "--churn-pool" => out.churn_pool = flags.num(&flag)?,
                "--clients" => out.clients = flags.num(&flag)?,
                "--seconds" => out.seconds = flags.num(&flag)?,
                "--seed" => out.seed = flags.num(&flag)?,
                "--threads" => out.threads = flags.num(&flag)?,
                "--churn-batch" => out.churn_batch = flags.num(&flag)?,
                "--artifact" => out.artifact = Some(flags.value(&flag)?),
                "--kill-after" => out.kill_after = Some(flags.num(&flag)?),
                "--compact-bytes" => out.compact_bytes = flags.num(&flag)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if mode == LoadMode::Recover && out.artifact.is_none() {
            return Err("--recover requires --artifact FILE".into());
        }
        Ok((out, mode))
    }

    /// One-line provenance banner.
    pub fn banner(&self) -> String {
        let mut line = format!(
            "# serve_load | users={} clients={} seconds={} seed={} threads={} churn={} \
             churn_batch={}",
            self.users,
            self.clients,
            self.seconds,
            self.seed,
            self.threads,
            if self.churn { "on" } else { "off" },
            self.churn_batch
        );
        if let Some(artifact) = &self.artifact {
            line.push_str(&format!(" artifact={artifact}"));
        }
        if let Some(after) = self.kill_after {
            line.push_str(&format!(" kill_after={after}"));
        }
        line
    }
}

/// What the `serve_load` binary was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Full measurement run, report to stdout.
    Measure,
    /// The CI gate: smoke preset + hard assertions on the report.
    Smoke,
    /// Crash-recovery verification: reopen `--artifact`, replay the
    /// committed write-ahead log, and prove the recovered state equal to
    /// an uninterrupted replay (see [`recover`]).
    Recover,
}

/// What a [`run`] measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests answered successfully across all clients.
    pub requests: u64,
    /// Requests answered with an error (must be zero on a healthy run).
    pub errors: u64,
    /// The actual measurement window.
    pub elapsed: Duration,
    /// Response-time distribution across all clients.
    pub latency: LatencyHistogram,
    /// Epochs the churn writer published during the window.
    pub epochs_published: u64,
    /// Refresh calls the churn writer completed.
    pub churn_refreshes: u64,
    /// Refresh calls that failed (must be zero on a healthy run).
    pub churn_errors: u64,
}

impl LoadReport {
    /// Sustained successful-request rate.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// A quantile in microseconds (`0.0` when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.latency.quantile(q).unwrap_or(0) as f64 / 1_000.0
    }

    /// The stdout/BENCHMARKS.md summary block.
    pub fn summary(&self) -> String {
        format!(
            "qps={:.1} requests={} errors={} elapsed={:.2}s\n\
             latency_us: p50={:.1} p90={:.1} p99={:.1} p999={:.1} max={:.1} mean={:.1}\n\
             churn: epochs_published={} refreshes={} errors={}",
            self.qps(),
            self.requests,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.quantile_us(0.5),
            self.quantile_us(0.9),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
            self.latency.max_nanos().unwrap_or(0) as f64 / 1_000.0,
            self.latency.mean_nanos().unwrap_or(0.0) / 1_000.0,
            self.epochs_published,
            self.churn_refreshes,
            self.churn_errors,
        )
    }
}

/// The synthetic corpus and the request/churn pools every mode derives
/// from a config — deterministic, so [`recover`] can rebuild the crash
/// run's churn schedule from the config alone.
///
/// The request pool re-serves the trained users' own observations as if
/// unseen; the churn pool holds the reserved tail users, absorbed
/// round-robin (a lap re-absorbs them as fresh posterior rows — harmless
/// for a load test, the posterior just keeps growing). Both pools keep
/// neighbor edges within the base posterior so requests remain valid no
/// matter how far churn has advanced.
fn corpus_and_pools(
    gaz: &Gazetteer,
    config: &LoadConfig,
) -> (GeneratedData, Vec<ProfileRequest>, Vec<ProfileRequest>) {
    let total_users = config.users + config.churn_pool;
    let data = Generator::new(
        gaz,
        GeneratorConfig { num_users: total_users, seed: config.seed, ..Default::default() },
    )
    .generate();
    let ids: Vec<UserId> = (0..config.users).map(|u| UserId(u as u32)).collect();
    let mut pool = ProfileRequest::batch_from_dataset(&data.dataset, &ids);
    for r in &mut pool {
        r.observations.neighbors.retain(|p| p.index() < config.users);
    }
    let churn_ids: Vec<UserId> = (config.users..total_users).map(|u| UserId(u as u32)).collect();
    let mut churn_pool = ProfileRequest::batch_from_dataset(&data.dataset, &churn_ids);
    for r in &mut churn_pool {
        r.observations.neighbors.retain(|p| p.index() < config.users);
    }
    (data, pool, churn_pool)
}

/// The fold-in configuration every mode shares (must be identical across
/// the crash run and the recovery verification for bit-equality).
fn fold_in_config(config: &LoadConfig) -> FoldInConfig {
    FoldInConfig { threads: config.threads.max(1), ..Default::default() }
}

/// Cold-trains the base posterior on the first `config.users` users.
fn cold_train<'a>(
    gaz: &'a Gazetteer,
    config: &LoadConfig,
    data: &GeneratedData,
) -> Result<ServingEngine<'a>, EngineError> {
    ServingEngine::builder(gaz)
        .mlp_config(chain_config(config.train_iters.max(2), config.seed))
        .fold_in_config(fold_in_config(config))
        .train(&data.dataset.prefix(config.users))
}

/// Opens the file-backed engine on the durable path, cold-training and
/// writing the base artifact first if the file does not exist yet.
/// Reopening an artifact a crash left behind recovers the committed log
/// on the way in.
fn open_durable<'a>(
    gaz: &'a Gazetteer,
    config: &LoadConfig,
    data: &GeneratedData,
    path: &str,
) -> Result<ServingEngine<'a>, EngineError> {
    if !Path::new(path).exists() {
        cold_train(gaz, config, data)?.write_artifact(path)?;
    }
    ServingEngine::builder(gaz)
        .fold_in_config(fold_in_config(config))
        .wal_compact_threshold(config.compact_bytes)
        .from_artifact_file(path)
}

/// Trains (or durably opens) a synthetic posterior and drives the closed
/// loop described in the [module docs](self). Returns after
/// `config.seconds` of wall clock (training time excluded) — unless
/// `config.kill_after` aborts the process first.
pub fn run(config: &LoadConfig) -> Result<LoadReport, EngineError> {
    let gaz = Gazetteer::us_cities();
    let (data, pool, churn_pool) = corpus_and_pools(&gaz, config);
    let engine = match config.artifact.as_deref() {
        Some(path) => open_durable(&gaz, config, &data, path)?,
        None => cold_train(&gaz, config, &data)?,
    };

    let stop = AtomicBool::new(false);
    let epoch_start = engine.epoch();

    // The crash under test: a detached timer that aborts the process
    // mid-churn — no unwinding, no destructors, no flush. Everything not
    // already fsync'd is lost, exactly like a kill -9.
    if let Some(after) = config.kill_after {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(after.max(0.0)));
            std::process::abort();
        });
    }

    let (per_client, churn_out) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..config.clients.max(1))
            .map(|c| {
                let (engine, pool, stop) = (&engine, &pool, &stop);
                scope.spawn(move || {
                    let mut rng = Pcg64::new(SplitMix64::derive(
                        config.seed,
                        0xC11E_0000_0000_0000 ^ c as u64,
                    ));
                    let mut latency = LatencyHistogram::new();
                    let (mut ok, mut errors) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let request = &pool[rng.next_bounded(pool.len())];
                        let begin = Instant::now();
                        let out = engine.profile(request);
                        latency.record_duration(begin.elapsed());
                        match out {
                            Ok(_) => ok += 1,
                            Err(_) => errors += 1,
                        }
                    }
                    (latency, ok, errors)
                })
            })
            .collect();

        let churn = config.churn.then(|| {
            let (engine, churn_pool, stop) = (&engine, &churn_pool, &stop);
            let batch = config.churn_batch.max(1);
            let pause = config.churn_pause;
            scope.spawn(move || {
                let (mut refreshes, mut errors) = (0u64, 0u64);
                let mut next = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let mut wave = Vec::with_capacity(batch);
                    for _ in 0..batch {
                        wave.push(churn_pool[next % churn_pool.len()].clone());
                        next += 1;
                    }
                    match engine.refresh(&wave) {
                        Ok(_) => refreshes += 1,
                        Err(_) => errors += 1,
                    }
                    std::thread::sleep(pause);
                }
                (refreshes, errors)
            })
        });

        std::thread::sleep(Duration::from_secs_f64(config.seconds.max(0.05)));
        stop.store(true, Ordering::Relaxed);
        let per_client: Vec<_> =
            clients.into_iter().map(|h| h.join().expect("load client")).collect();
        let churn_out = churn.map(|h| h.join().expect("churn writer"));
        (per_client, churn_out)
    });

    let mut latency = LatencyHistogram::new();
    let (mut requests, mut errors) = (0u64, 0u64);
    for (h, ok, err) in per_client {
        latency.merge(&h);
        requests += ok;
        errors += err;
    }
    let (churn_refreshes, churn_errors) = churn_out.unwrap_or((0, 0));
    Ok(LoadReport {
        requests,
        errors,
        elapsed: Duration::from_secs_f64(config.seconds.max(0.05)),
        latency,
        epochs_published: engine.epoch() - epoch_start,
        churn_refreshes,
        churn_errors,
    })
}

/// What [`recover`] verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverSummary {
    /// Committed delta records replayed from the write-ahead log.
    pub replayed_records: usize,
    /// Users those records appended past the base artifact.
    pub replayed_users: usize,
    /// Torn (uncommitted) tail bytes recovery truncated away.
    pub torn_bytes_dropped: u64,
    /// Whether a log bound to a different base was set aside.
    pub stale_log_set_aside: bool,
    /// Posterior user count after recovery.
    pub total_users: usize,
    /// Committed churn waves the crash run got through.
    pub waves: usize,
    /// The recovered engine's response fingerprint over the request pool
    /// (verified equal to the uninterrupted replay's).
    pub determinism_hash: u64,
}

impl RecoverSummary {
    /// One summary line.
    pub fn summary(&self) -> String {
        format!(
            "recover: replayed {} committed records ({} users, {} waves) torn_bytes={}{} \
             -> {} users, response_hash={:016x}",
            self.replayed_records,
            self.replayed_users,
            self.waves,
            self.torn_bytes_dropped,
            if self.stale_log_set_aside { " stale_log=set_aside" } else { "" },
            self.total_users,
            self.determinism_hash,
        )
    }
}

/// The verification half of the crash harness: reopens `config.artifact`
/// on the durable path (recovery-on-open replays every committed
/// write-ahead record and truncates any torn tail), then proves the
/// recovered engine equal to one that replayed the same churn waves
/// uninterrupted — byte-identical posterior encodings *and* bit-identical
/// serving over the request pool.
///
/// The ground truth is rebuildable because the churn schedule is
/// deterministic: waves of `churn_batch` requests taken round-robin from
/// the churn pool starting at index 0, and the number of committed waves
/// is recoverable from the user count the log replays to. Requires the
/// crash run to have left auto-compaction off (the default
/// `compact_bytes = u64::MAX`) so the on-disk base is still the artifact
/// the waves were committed against.
///
/// # Panics
/// Panics when no artifact is configured, when the recovered user count
/// is not a whole number of waves, or when either equality check fails —
/// the binary's fail-loud contract.
pub fn recover(config: &LoadConfig) -> Result<RecoverSummary, EngineError> {
    let path = config.artifact.as_deref().expect("recover requires an artifact path");
    let gaz = Gazetteer::us_cities();
    let (_, pool, churn_pool) = corpus_and_pools(&gaz, config);

    // Recovery under test: replay the committed log past the base.
    let recovered = ServingEngine::builder(&gaz)
        .fold_in_config(fold_in_config(config))
        .wal_compact_threshold(u64::MAX)
        .from_artifact_file(path)?;
    assert_eq!(recovered.epoch(), 0, "recovery must fold into epoch 0");
    let report = recovered.recovery_report().cloned().unwrap_or_default();

    // Ground truth: an uninterrupted in-memory replay of the same churn
    // waves over the same base artifact.
    let absorbed = recovered.snapshot().num_users() - config.users;
    let batch = config.churn_batch.max(1);
    assert_eq!(absorbed % batch, 0, "every committed record must be one full churn wave");
    let waves = absorbed / batch;
    let replay = ServingEngine::builder(&gaz)
        .fold_in_config(fold_in_config(config))
        .durable(false)
        .from_artifact_file(path)?;
    let mut next = 0usize;
    for _ in 0..waves {
        let wave: Vec<ProfileRequest> = (0..batch)
            .map(|_| {
                let r = churn_pool[next % churn_pool.len()].clone();
                next += 1;
                r
            })
            .collect();
        replay.refresh(&wave)?;
    }

    // The recovered posterior must be byte-identical to the replayed one…
    let recovered_bytes = recovered.snapshot().try_encode()?;
    let replayed_bytes = replay.snapshot().try_encode()?;
    assert_eq!(
        recovered_bytes.as_slice(),
        replayed_bytes.as_slice(),
        "recovered posterior must be byte-identical to an uninterrupted replay"
    );

    // …and must serve bit-identically.
    let recovered_hash = response_determinism_hash(&recovered.profile_batch(&pool)?);
    let replayed_hash = response_determinism_hash(&replay.profile_batch(&pool)?);
    assert_eq!(
        recovered_hash, replayed_hash,
        "recovered engine must serve bit-identically to an uninterrupted replay"
    );

    Ok(RecoverSummary {
        replayed_records: report.replayed_records,
        replayed_users: report.replayed_users,
        torn_bytes_dropped: report.torn_bytes_dropped,
        stale_log_set_aside: report.stale_log_moved_to.is_some(),
        total_users: recovered.snapshot().num_users(),
        waves,
        determinism_hash: recovered_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Option<(LoadConfig, LoadMode)>, String> {
        crate::parse_args(args.iter().map(|s| s.to_string()), LoadConfig::parse_from)
    }

    fn parse(args: &[&str]) -> (LoadConfig, LoadMode) {
        try_parse(args).unwrap().unwrap()
    }

    #[test]
    fn defaults_and_overrides() {
        let (c, mode) = parse(&[]);
        assert_eq!(mode, LoadMode::Measure);
        assert_eq!(c, LoadConfig::default());

        let (c, _) =
            parse(&["--users", "99", "--churn-pool", "33", "--seconds", "0.25", "--no-churn"]);
        assert_eq!(c.users, 99);
        assert_eq!(c.churn_pool, 33);
        assert_eq!(c.seconds, 0.25);
        assert!(!c.churn);
    }

    #[test]
    fn smoke_preset_then_override() {
        let (c, mode) = parse(&["--smoke", "--clients", "3"]);
        assert_eq!(mode, LoadMode::Smoke);
        assert_eq!(c.clients, 3, "explicit flag wins over the preset");
        assert_eq!(c.users, LoadConfig::smoke().users);
    }

    #[test]
    fn help_stops_parsing() {
        for flag in ["--help", "-h"] {
            assert_eq!(try_parse(&["--recover", flag, "--bogus"]), Ok(None));
        }
    }

    #[test]
    fn bad_flags_are_errors() {
        assert_eq!(try_parse(&["--bogus"]), Err("unknown flag --bogus".into()));
        assert!(try_parse(&["--seconds", "soon"]).unwrap_err().contains("bad value"));
    }

    #[test]
    fn crash_flags_parse() {
        let (c, mode) = parse(&[
            "--artifact",
            "/tmp/base.mlps",
            "--kill-after",
            "1.5",
            "--compact-bytes",
            "4096",
            "--recover",
        ]);
        assert_eq!(mode, LoadMode::Recover);
        assert_eq!(c.artifact.as_deref(), Some("/tmp/base.mlps"));
        assert_eq!(c.kill_after, Some(1.5));
        assert_eq!(c.compact_bytes, 4096);
        assert!(c.banner().contains("artifact=/tmp/base.mlps"));
        assert!(c.banner().contains("kill_after=1.5"));
    }

    #[test]
    fn recover_without_artifact_is_an_error() {
        assert_eq!(try_parse(&["--recover"]), Err("--recover requires --artifact FILE".into()));
    }

    #[test]
    fn tiny_run_serves_without_errors() {
        // A deliberately minuscule closed loop — one client, no churn,
        // 50ms — proving the harness wiring end to end in debug CI time.
        let config = LoadConfig {
            users: 40,
            churn_pool: 8,
            clients: 1,
            seconds: 0.05,
            churn: false,
            train_iters: 2,
            ..LoadConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.errors, 0);
        assert!(report.requests > 0, "a 50ms window must serve something");
        assert_eq!(report.latency.count(), report.requests);
        assert!(report.summary().contains("qps="));
    }

    #[test]
    fn durable_run_then_recover_verifies_the_log() {
        // The uninterrupted version of the crash harness: a short durable
        // churn run leaves its committed waves in the sidecar log, and
        // `recover` must replay them to a posterior byte-identical to an
        // uninterrupted in-memory replay. (The killed version of this
        // round trip lives in the crash-recovery integration tests and
        // the CI smoke job — a unit test cannot abort its own process.)
        let dir = std::env::temp_dir().join(format!("mlp-load-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("base.mlps");
        let config = LoadConfig {
            users: 40,
            churn_pool: 8,
            clients: 1,
            seconds: 0.2,
            churn: true,
            churn_batch: 2,
            churn_pause: Duration::from_millis(2),
            train_iters: 2,
            artifact: Some(artifact.to_string_lossy().into_owned()),
            ..LoadConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.churn_errors, 0);
        assert!(report.churn_refreshes > 0, "a 200ms window must commit at least one wave");

        let summary = recover(&config).unwrap();
        assert_eq!(summary.replayed_records, summary.waves);
        assert_eq!(summary.total_users, config.users + summary.waves * config.churn_batch);
        assert_eq!(summary.torn_bytes_dropped, 0, "a clean shutdown leaves no torn tail");
        assert!(summary.summary().contains("recover: replayed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
