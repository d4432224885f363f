//! The engine's pipelines rebuilt from each layer's public calls, with a
//! span around every call — what the traced run times.
//!
//! Each rebuild must produce the same bytes as the engine path it mirrors
//! (the caller checks), which proves the spans time the same work.

use crate::corpus::fold_in_config;
use crate::trace::Trace;
use mlp_core::engine::{ServingEngine, DEFAULT_WAL_COMPACT_THRESHOLD};
use mlp_core::parallel::parallel_sweep;
use mlp_core::sampler::GibbsSampler;
use mlp_core::{
    artifact_fingerprint, fit_power_law_from_labels, write_atomic, Candidacy, DeltaWal,
    EdgeAssignment, FoldInProfile, Integrity, MentionAssignment, MlpConfig, NewUserObservations,
    OnlineUpdater, PosteriorSnapshot, RandomModels, StalenessPolicy,
};
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_social::{Adjacency, Dataset, UserId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What the training rebuild reports besides its spans.
#[derive(Debug, Default)]
pub struct TrainOutput {
    pub mean_candidates: f64,
    pub sweeps: usize,
    /// Relationship variables resampled per sweep (edges + mentions).
    pub tokens: usize,
    /// Changed variables over all sweeps, divided by tokens × sweeps.
    pub changed_share: f64,
    /// The MAP edge and mention assignments.
    pub assignments: (Vec<EdgeAssignment>, Vec<MentionAssignment>),
}

/// `EngineBuilder::train` rebuilt from the layers' public calls
/// (`Adjacency`, `Candidacy`, `RandomModels`, `GibbsSampler`,
/// `parallel_sweep`, `PosteriorSnapshot::freeze`, adopt) plus a copy of the
/// MAP extraction made from public parts ([`map_assignments`], pinned
/// against `Mlp::run` in `tests/tiny.rs`), one span per call under a
/// `train` root.
pub fn train<'g>(
    gaz: &'g Gazetteer,
    dataset: &Dataset,
    config: &MlpConfig,
    trace: &mut Trace,
) -> Result<(ServingEngine<'g>, TrainOutput), String> {
    assert!(!config.gibbs_em, "the rebuild mirrors the single-round chain");
    let root = trace.open("train");
    let mut config = config.clone();
    trace.time("model.validate", || {
        config.validate().map_err(err("config"))?;
        dataset.validate(gaz.num_cities(), gaz.num_venues()).map_err(err("dataset"))
    })?;
    if config.fit_power_law_from_data {
        if let Some(fit) = trace.time("fit.power_law", || fit_power_law_from_labels(gaz, dataset)) {
            config.power_law = fit;
        }
    }
    let adj = trace.time("social.adjacency", || Adjacency::build(dataset));
    let candidacy = trace.time("candidacy.build", || Candidacy::build(gaz, dataset, &adj, &config));
    let random =
        trace.time("random_models.learn", || RandomModels::learn(dataset, gaz.num_venues()));
    let mut sampler = trace
        .time("sampler.init", || GibbsSampler::new(gaz, dataset, &candidacy, &random, &config));

    let n = dataset.num_users();
    let homes = |s: &GibbsSampler<'_>| -> Vec<CityId> {
        (0..n).map(|u| s.estimate_theta(UserId(u as u32))[0].0).collect()
    };
    let mut prev_homes = trace.time("model.theta", || homes(&sampler));
    let tokens = dataset.num_edges() + dataset.num_mentions();
    let mut changed = 0usize;
    for iter in 0..config.iterations {
        let changes = trace.time("sampler.sweep", || parallel_sweep(&mut sampler, iter as u64));
        changed += changes.edges + changes.mentions;
        if iter >= config.burn_in {
            trace.time("state.accumulate", || sampler.state.accumulate());
        }
        trace.time("model.theta", || {
            let now = homes(&sampler);
            let moved = now.iter().zip(&prev_homes).filter(|(a, b)| a != b).count();
            std::hint::black_box(moved);
            prev_homes = now;
        });
        trace.time("model.loglik", || std::hint::black_box(sampler.log_likelihood_proxy()));
    }
    let profiles: Vec<_> = trace
        .time("model.theta", || (0..n).map(|u| sampler.estimate_theta(UserId(u as u32))).collect());
    let assignments = trace.time("model.map_extract", || {
        map_assignments(gaz, dataset, &sampler, &candidacy, &profiles)
    });
    let snapshot = trace.time("snapshot.freeze", || PosteriorSnapshot::freeze(&sampler));
    let out = TrainOutput {
        mean_candidates: candidacy.mean_candidates(),
        sweeps: config.iterations,
        tokens,
        changed_share: changed as f64 / (tokens * config.iterations).max(1) as f64,
        assignments,
    };
    drop(sampler);
    let engine = trace.time("engine.adopt", || {
        ServingEngine::builder(gaz).fold_in_config(fold_in_config()).from_snapshot(snapshot)
    });
    trace.close(root);
    Ok((engine.map_err(err("adopt"))?, out))
}

/// The per-relationship MAP assignments `Mlp::run_with_snapshot` extracts
/// after the last sweep (and `EngineBuilder::train` then discards). The
/// library has no public entry point for this step, so the rebuild
/// repeats it from public parts, in the same order and arithmetic: the
/// conditional argmax of `θ̂ × kernel`, two alternating passes per edge.
pub fn map_assignments(
    gaz: &Gazetteer,
    dataset: &Dataset,
    sampler: &GibbsSampler<'_>,
    candidacy: &Candidacy,
    profiles: &[Vec<(CityId, f64)>],
) -> (Vec<EdgeAssignment>, Vec<MentionAssignment>) {
    let theta = |u: UserId, city: CityId| -> f64 {
        profiles[u.index()].iter().find(|&&(c, _)| c == city).map_or(0.0, |&(_, p)| p)
    };
    fn argmax(cands: &[CityId], score: impl Fn(CityId) -> f64) -> CityId {
        let mut best = (cands[0], f64::NEG_INFINITY);
        for &c in cands {
            let s = score(c);
            if s > best.1 {
                best = (c, s);
            }
        }
        best.0
    }
    let law = sampler.power_law;
    let edges = dataset
        .edges
        .iter()
        .enumerate()
        .map(|(s, e)| {
            let (i, j) = (e.follower, e.friend);
            let (ci, cj) = (candidacy.candidates(i), candidacy.candidates(j));
            let noisy = sampler.state.mu[s];
            let mut x = ci[sampler.state.x[s] as usize];
            let mut y = cj[sampler.state.y[s] as usize];
            if noisy {
                x = argmax(ci, |c| theta(i, c));
                y = argmax(cj, |c| theta(j, c));
            } else {
                for _ in 0..2 {
                    x = argmax(ci, |c| theta(i, c) * law.kernel(gaz.distance(c, y)));
                    y = argmax(cj, |c| theta(j, c) * law.kernel(gaz.distance(x, c)));
                }
            }
            EdgeAssignment { noisy, x, y }
        })
        .collect();
    let mentions = dataset
        .mentions
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let ci = candidacy.candidates(m.user);
            let noisy = sampler.state.nu[k];
            let z = if noisy {
                argmax(ci, |c| theta(m.user, c))
            } else {
                argmax(ci, |c| theta(m.user, c) * sampler.venue_term_public(c, m.venue))
            };
            MentionAssignment { noisy, z }
        })
        .collect();
    (edges, mentions)
}

/// Opens a v5 artifact the way a durable `from_artifact_file` does: map,
/// fingerprint, verified open, WAL recovery and replay.
fn open_replayed(
    path: &Path,
    trace: &mut Trace,
) -> Result<(PosteriorSnapshot, DeltaWal, usize), String> {
    let map = trace.time("snapshot.map", || mmap_lite::Mmap::open(path)).map_err(err("map"))?;
    let map = Arc::new(map);
    let fp = trace.time("wal.fingerprint", || artifact_fingerprint(map.as_slice()));
    let mut snap = trace
        .time("snapshot.open", || PosteriorSnapshot::open_mapped_with(&map, Integrity::Full))
        .map_err(err("open"))?;
    let (wal, found) = trace
        .time("wal.recover", || DeltaWal::recover(&DeltaWal::sidecar_path(path), fp))
        .map_err(err("recover"))?;
    trace
        .time("snapshot.replay", || found.deltas.iter().try_for_each(|d| snap.apply_delta(d)))
        .map_err(err("replay"))?;
    Ok((snap, wal, found.deltas.len()))
}

/// A durable reopen rebuilt (`reopen` root). Returns the serving engine
/// and the number of replayed WAL records.
pub fn reopen<'g>(
    gaz: &'g Gazetteer,
    path: &Path,
    trace: &mut Trace,
) -> Result<(ServingEngine<'g>, usize), String> {
    let root = trace.open("reopen");
    let (snap, wal, replayed) = open_replayed(path, trace)?;
    let engine = trace.time("engine.adopt", || {
        ServingEngine::builder(gaz)
            .fold_in_config(fold_in_config())
            .durable(false)
            .from_snapshot(snap)
    });
    drop(wal);
    trace.close(root);
    Ok((engine.map_err(err("adopt"))?, replayed))
}

/// The engine's writer path rebuilt: an `OnlineUpdater` plus its
/// `DeltaWal`, committing and checkpointing exactly as a durable
/// `ServingEngine::refresh` does.
pub struct Writer<'g> {
    gaz: &'g Gazetteer,
    updater: OnlineUpdater<'g>,
    wal: DeltaWal,
    artifact: PathBuf,
    /// The posterior copy a commit publishes (the engine's epoch clone).
    published: PosteriorSnapshot,
    pub auto_checkpoints: usize,
    /// Bytes each WAL append added.
    pub record_bytes: Vec<f64>,
}

impl<'g> Writer<'g> {
    pub fn open(gaz: &'g Gazetteer, artifact: &Path) -> Result<Self, String> {
        let (snap, wal, _) = open_replayed(artifact, &mut Trace::new())?;
        let updater = OnlineUpdater::new(gaz, snap, fold_in_config(), StalenessPolicy::default())
            .map_err(err("updater"))?;
        let published = updater.snapshot().clone();
        Ok(Self {
            gaz,
            updater,
            wal,
            artifact: artifact.to_path_buf(),
            published,
            auto_checkpoints: 0,
            record_bytes: Vec::new(),
        })
    }

    pub fn snapshot(&self) -> &PosteriorSnapshot {
        self.updater.snapshot()
    }

    /// One refresh commit (`refresh` root): absorb, commit, WAL append
    /// with fsync, epoch clone, and the size-triggered checkpoint.
    pub fn refresh(
        &mut self,
        batch: &[NewUserObservations],
        trace: &mut Trace,
    ) -> Result<Vec<FoldInProfile>, String> {
        let root = trace.open("refresh");
        let profiles =
            trace.time("online.absorb", || self.updater.absorb(batch)).map_err(err("absorb"))?;
        trace.time("online.commit", || self.updater.commit()).map_err(err("commit"))?;
        let before = self.wal.len();
        let delta = self.updater.committed_deltas().last().ok_or("commit staged nothing")?;
        trace.time("wal.append", || self.wal.append(delta)).map_err(err("append"))?;
        self.record_bytes.push((self.wal.len() - before) as f64);
        trace.time("snapshot.clone", || self.published = self.updater.snapshot().clone());
        if self.wal.len() >= DEFAULT_WAL_COMPACT_THRESHOLD {
            self.checkpoint(trace)?;
            self.auto_checkpoints += 1;
        }
        trace.close(root);
        Ok(profiles)
    }

    /// `ServingEngine::checkpoint` rebuilt (`checkpoint` root). The engine
    /// finally rebases its updater onto the remapped file through a
    /// crate-private call; the rebuild binds a fresh `OnlineUpdater` to the
    /// remapped snapshot instead, so later commits run against the same
    /// slab layout as the engine's.
    pub fn checkpoint(&mut self, trace: &mut Trace) -> Result<(), String> {
        let root = trace.open("checkpoint");
        let bytes = trace
            .time("snapshot.encode", || self.updater.snapshot().try_encode())
            .map_err(err("encode"))?;
        trace
            .time("wal.write_atomic", || write_atomic(&self.artifact, bytes.as_slice()))
            .map_err(err("write"))?;
        trace
            .time("wal.reset", || self.wal.reset(artifact_fingerprint(bytes.as_slice())))
            .map_err(err("reset"))?;
        trace.time("wal.age_stale", || self.wal.age_stale_siblings());
        let remapped = trace
            .time("snapshot.remap", || {
                let map = Arc::new(mmap_lite::Mmap::open(&self.artifact)?);
                PosteriorSnapshot::open_mapped_with(&map, Integrity::Structural)
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .map_err(err("remap"))?;
        self.updater = trace
            .time("online.rebase", || {
                OnlineUpdater::new(self.gaz, remapped, fold_in_config(), StalenessPolicy::default())
            })
            .map_err(err("rebase"))?;
        trace.close(root);
        Ok(())
    }
}
