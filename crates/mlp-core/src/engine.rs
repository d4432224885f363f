//! The serving facade: one typed, concurrency-safe API over the whole
//! train → serve → refresh lifecycle.
//!
//! After the snapshot ([`crate::snapshot`]), fold-in ([`crate::infer`]) and
//! online-refresh ([`crate::online`]) layers landed, callers had to
//! hand-wire them: run [`crate::Mlp`], freeze a [`PosteriorSnapshot`],
//! build a [`crate::FoldInEngine`] per request wave, drive an
//! [`OnlineUpdater`] through absorb/commit, and check the
//! [`StalenessPolicy`] themselves — five APIs, four error enums, and a
//! snapshot lifecycle owned by nobody. [`ServingEngine`] owns all of it:
//!
//! * **[`EngineBuilder`]** — validated configuration (typed
//!   [`ConfigError`]) and the three ways in: cold-train a corpus
//!   ([`EngineBuilder::train`]), adopt a frozen posterior
//!   ([`EngineBuilder::from_snapshot`]), or thaw a published artifact
//!   ([`EngineBuilder::from_artifact`]).
//! * **Epoch-published snapshots** — the engine keeps the authoritative
//!   posterior behind a single-writer path and *publishes* it as an
//!   immutable epoch in an `RwLock<Arc<_>>` slot: readers grab a cheap
//!   [`SnapshotHandle`] — an `Arc` clone under a read lock — and serve
//!   against it; a refresh commit publishes the next epoch by storing one
//!   pointer under the write lock, never blocking readers mid-batch.
//!   Every reader observes a full pre- or post-commit posterior, never a
//!   torn one, and the monitoring surface ([`ServingEngine::epoch`],
//!   [`commits`](ServingEngine::commits),
//!   [`needs_retrain`](ServingEngine::needs_retrain)) never waits on a
//!   refresh in progress.
//! * **Typed vocabulary** — [`ProfileRequest`] in,
//!   [`ProfileResponse`]/[`RankedCities`] out, one [`EngineError`] over
//!   config, model, snapshot, fold-in, and IO failures.
//! * **Determinism** — [`ServingEngine::profile_batch`] runs the same
//!   batch primitive as [`crate::FoldInEngine::fold_in_batch`], and every
//!   chain draws from the one seed-derived stream, so an answer depends
//!   only on its epoch and its request: alone, in any batch, at any
//!   thread count, or absorbed by a refresh. Refresh commits publish
//!   byte-identical artifacts on repeat runs.
//! * **One delta log** — an artifact is always the folded posterior
//!   ([`ServingEngine::encode_artifact`] is `try_encode` of the published
//!   epoch). A file-backed engine keeps its committed deltas in the
//!   sidecar write-ahead log ([`crate::wal`]) until a checkpoint folds
//!   the log into a fresh base artifact and re-binds the log to it.
//!
//! The building blocks stay public as the low-level layer; this module is
//! the API applications are expected to use.
//!
//! # Example: the three serving flows
//!
//! ```
//! use mlp_core::engine::{ProfileRequest, ServingEngine};
//! use mlp_core::{FoldInConfig, MlpConfig, NewUserObservations};
//! use mlp_gazetteer::Gazetteer;
//! use mlp_social::{Generator, GeneratorConfig, UserId};
//!
//! let gaz = Gazetteer::us_cities();
//! let data = Generator::new(
//!     &gaz,
//!     GeneratorConfig { num_users: 80, seed: 11, ..Default::default() },
//! )
//! .generate();
//!
//! // Cold train on the first 60 users; the rest arrive later.
//! let engine = ServingEngine::builder(&gaz)
//!     .mlp_config(MlpConfig { iterations: 4, burn_in: 2, seed: 11, ..Default::default() })
//!     .fold_in_config(FoldInConfig::default())
//!     .train(&data.dataset.prefix(60))
//!     .unwrap();
//! assert_eq!(engine.epoch(), 0);
//!
//! // Warm fold-in: profile an unseen user without touching the posterior.
//! // Their edges may cite only users the posterior knows (the first 60).
//! let mut obs = NewUserObservations::from_dataset(&data.dataset, UserId(63));
//! obs.neighbors.retain(|p| p.index() < engine.snapshot().num_users());
//! let response = engine.profile(&ProfileRequest::new(obs)).unwrap();
//! assert!(response.ranked.home().index() < gaz.num_cities());
//!
//! // Online refresh: absorb the 20 late arrivals and publish a new epoch.
//! let late: Vec<UserId> = (60..80).map(UserId).collect();
//! let report = engine.refresh_from_dataset(&data.dataset, &late, 10).unwrap();
//! assert_eq!(report.appended(), 20);
//! assert_eq!(engine.epoch(), 2); // one epoch per committed batch
//! assert_eq!(engine.snapshot().num_users(), 80);
//! ```

use crate::config::{ConfigError, MlpConfig};
use crate::infer::{
    determinism_hash_rankings, DerivedParts, FoldInConfig, FoldInEngine, FoldInError,
    FoldInProfile, NewUserObservations,
};
use crate::model::Mlp;
use crate::online::{OnlineError, OnlineUpdater, StalenessPolicy};
use crate::shard::{ShardedTrainConfig, TrainError};
use crate::snapshot::{Integrity, PosteriorSnapshot, SnapshotError};
use crate::wal::{artifact_fingerprint, write_atomic, DeltaWal, WalError};
use bytes::Bytes;
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_social::{Dataset, UserId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Everything that can go wrong across the serving lifecycle, in one
/// `#[non_exhaustive]` enum with [`std::error::Error::source`] chaining to
/// the layer that objected.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The builder's configuration cannot drive a well-defined chain.
    Config(ConfigError),
    /// The model rejected its inputs at cold-train time (dataset
    /// validation — ids out of range, inconsistent labels).
    Model(String),
    /// The posterior artifact could not be decoded, encoded, or committed.
    Snapshot(SnapshotError),
    /// A serving request could not be folded in.
    FoldIn(FoldInError),
    /// Reading or writing an artifact file failed.
    Io(std::io::Error),
    /// The durable write-ahead delta log failed (append, fsync,
    /// recovery, or checkpoint reset).
    Wal(WalError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid engine configuration: {e}"),
            EngineError::Model(e) => write!(f, "model rejected inputs: {e}"),
            EngineError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            EngineError::FoldIn(e) => write!(f, "fold-in error: {e}"),
            EngineError::Io(e) => write!(f, "artifact io error: {e}"),
            EngineError::Wal(e) => write!(f, "delta log error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Model(_) => None,
            EngineError::Snapshot(e) => Some(e),
            EngineError::FoldIn(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Wal(e) => Some(e),
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

impl From<FoldInError> for EngineError {
    fn from(e: FoldInError) -> Self {
        EngineError::FoldIn(e)
    }
}

impl From<OnlineError> for EngineError {
    fn from(e: OnlineError) -> Self {
        match e {
            OnlineError::FoldIn(e) => EngineError::FoldIn(e),
            OnlineError::Snapshot(e) => EngineError::Snapshot(e),
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

/// One serving request: the observations an unseen user arrives with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileRequest {
    /// Who the user follows / is followed by, and which venues they
    /// mention.
    pub observations: NewUserObservations,
}

impl ProfileRequest {
    /// Wraps raw observations.
    pub fn new(observations: NewUserObservations) -> Self {
        Self { observations }
    }

    /// Collects the observations of every user in `users` out of a
    /// dataset in one corpus pass (the evaluation convenience —
    /// [`NewUserObservations::batch_from_dataset`] behind the typed
    /// request).
    pub fn batch_from_dataset(dataset: &Dataset, users: &[UserId]) -> Vec<Self> {
        NewUserObservations::batch_from_dataset(dataset, users).into_iter().map(Self::new).collect()
    }
}

impl From<NewUserObservations> for ProfileRequest {
    fn from(observations: NewUserObservations) -> Self {
        Self { observations }
    }
}

/// A location profile: `(city, probability)` sorted by descending
/// probability, ties broken by city id — exactly the training-time θ̂
/// ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCities(Vec<(CityId, f64)>);

impl RankedCities {
    /// Predicted home location (argmax of θ̂).
    pub fn home(&self) -> CityId {
        self.0[0].0
    }

    /// The top-`k` locations.
    pub fn top_k(&self, k: usize) -> Vec<CityId> {
        self.0.iter().take(k).map(|&(c, _)| c).collect()
    }

    /// The full ranking as `(city, probability)` pairs.
    pub fn as_slice(&self) -> &[(CityId, f64)] {
        &self.0
    }

    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the ranking is empty (never true for a served response).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates the ranking in descending-probability order.
    pub fn iter(&self) -> impl Iterator<Item = &(CityId, f64)> {
        self.0.iter()
    }
}

impl From<FoldInProfile> for RankedCities {
    fn from(p: FoldInProfile) -> Self {
        Self(p.profile)
    }
}

/// One serving answer, tagged with the posterior epoch it was computed
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResponse {
    /// θ̂ over the user's candidate cities.
    pub ranked: RankedCities,
    /// The epoch of the published posterior that answered this request.
    pub epoch: u64,
}

/// FNV-1a fingerprint of a response set — identical to
/// [`crate::infer::determinism_hash`] over the same predictions, so epoch
/// tagging does not change the pinned CI hashes.
pub fn response_determinism_hash(responses: &[ProfileResponse]) -> u64 {
    determinism_hash_rankings(responses.iter().map(|r| r.ranked.as_slice()))
}

/// What one [`ServingEngine::refresh`] / [`refresh_from_dataset`] call
/// committed.
///
/// [`refresh_from_dataset`]: ServingEngine::refresh_from_dataset
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// The absorbed users' serving profiles, in request order —
    /// bit-identical to what [`ServingEngine::profile_batch`] would have
    /// answered against the same pre-commit epoch (each tagged with it).
    pub profiles: Vec<ProfileResponse>,
    /// One entry per commit, in commit order.
    pub commits: Vec<CommitInfo>,
    /// Whether the staleness policy now asks for a cold retrain. The
    /// engine keeps serving and refreshing either way — scheduling the
    /// retrain is the caller's move.
    pub needs_retrain: bool,
}

impl RefreshReport {
    /// Total users appended across this report's commits.
    pub fn appended(&self) -> usize {
        self.commits.iter().map(|c| c.appended).sum()
    }
}

/// One committed batch inside a [`RefreshReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Users appended by this commit.
    pub appended: usize,
    /// Posterior user count after the commit.
    pub total_users: usize,
    /// The epoch this commit published.
    pub epoch: u64,
}

/// What [`ServingEngine::plan_refresh`] decided the engine should do
/// next — the decision layer closed-loop drivers (the scenario engine,
/// ops schedulers) act on instead of re-deriving policy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainDecision {
    /// Posterior is current and the staleness policy is quiet.
    Steady,
    /// New users are pending and the policy is quiet: absorb them
    /// incrementally via [`ServingEngine::refresh_from_dataset`].
    Refresh,
    /// The staleness policy asks for a full cold retrain
    /// ([`ServingEngine::retrain_from_dataset`]) — commit budget spent
    /// or recorded drift over threshold.
    Retrain,
}

/// What one [`ServingEngine::retrain_from_dataset`] call published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainReport {
    /// The epoch the retrained posterior was published as (the epoch
    /// counter keeps rising across retrains — it is a publication
    /// counter, not a lineage id).
    pub epoch: u64,
    /// Users in the retrained posterior.
    pub trained_users: usize,
    /// Whether the retrained base was checkpointed to the artifact file
    /// (always true for durable engines — the retrain is made durable
    /// before it is published).
    pub checkpointed: bool,
}

/// A cheap, clonable read handle on one published posterior epoch.
///
/// Obtained from [`ServingEngine::snapshot`]; holding it pins the epoch —
/// serving through [`ServingEngine::profile_batch_on`] stays on this
/// posterior even while refresh commits publish newer ones. Dropping the
/// handle releases the epoch's memory once no reader uses it.
#[derive(Clone)]
pub struct SnapshotHandle {
    inner: Arc<Epoch>,
}

impl SnapshotHandle {
    /// The epoch this handle pins.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The frozen posterior itself (the low-level artifact API).
    pub fn snapshot(&self) -> &PosteriorSnapshot {
        &self.inner.snapshot
    }
}

impl std::ops::Deref for SnapshotHandle {
    type Target = PosteriorSnapshot;

    fn deref(&self) -> &Self::Target {
        &self.inner.snapshot
    }
}

impl std::fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHandle")
            .field("epoch", &self.inner.epoch)
            .field("users", &self.inner.snapshot.num_users())
            .finish()
    }
}

/// An immutable published posterior version.
struct Epoch {
    epoch: u64,
    snapshot: PosteriorSnapshot,
    /// Which engine published this epoch (pointer identity). Lets
    /// [`ServingEngine::profile_batch_on`] tell its own handles — whose
    /// snapshots are guaranteed compatible with the epoch's derived
    /// state — from handles that wandered in from another engine, which
    /// must take the fully validating path instead.
    publisher: Arc<()>,
    /// Snapshot-derived serving state (noise models, hyper-parameters,
    /// popular fallback). Carried per epoch rather than per engine so an
    /// in-place retrain ([`ServingEngine::retrain_from_dataset`]) swaps
    /// posterior and derived state atomically: a reader pinning an old
    /// epoch keeps the matching parts, never a mix.
    parts: DerivedParts,
}

/// Builds a [`ServingEngine`]: configuration first, then one of the three
/// entry points ([`train`](Self::train),
/// [`from_snapshot`](Self::from_snapshot),
/// [`from_artifact`](Self::from_artifact)). Every path validates the full
/// configuration with a typed [`ConfigError`] before any work happens.
#[derive(Debug, Clone)]
pub struct EngineBuilder<'a> {
    gaz: &'a Gazetteer,
    mlp: MlpConfig,
    fold_in: FoldInConfig,
    policy: StalenessPolicy,
    durable: bool,
    compact_threshold: u64,
    sharding: ShardedTrainConfig,
    integrity: Integrity,
}

/// Default WAL size past which a file-backed engine folds the log into
/// a fresh base artifact after the next commit (1 MiB).
pub const DEFAULT_WAL_COMPACT_THRESHOLD: u64 = 1 << 20;

impl<'a> EngineBuilder<'a> {
    /// A builder over `gaz` with default configuration everywhere.
    pub fn new(gaz: &'a Gazetteer) -> Self {
        Self {
            gaz,
            mlp: MlpConfig::default(),
            fold_in: FoldInConfig::default(),
            policy: StalenessPolicy::default(),
            durable: true,
            compact_threshold: DEFAULT_WAL_COMPACT_THRESHOLD,
            sharding: ShardedTrainConfig::default(),
            integrity: Integrity::default(),
        }
    }

    /// How much of the artifact [`Self::from_artifact_file`]
    /// verifies before serving it: [`Integrity::Full`] (default)
    /// checksums every section; [`Integrity::Structural`] verifies only
    /// the header and structural invariants, so the open touches O(ids)
    /// bytes instead of the whole file. See [`Integrity`] for the trade.
    pub fn integrity(mut self, integrity: Integrity) -> Self {
        self.integrity = integrity;
        self
    }

    /// User partitions for [`Self::train_corpus`]: `1` (default) runs the
    /// exact in-memory chain; `>= 2` trains out of core, one shard
    /// resident at a time.
    pub fn shards(mut self, shards: usize) -> Self {
        self.sharding.shards = shards.max(1);
        self
    }

    /// Local sweeps per shard between count reconciliations for
    /// [`Self::train_corpus`] (the staleness/merge-traffic dial).
    pub fn reconcile_every(mut self, k: usize) -> Self {
        self.sharding.reconcile_every = k.max(1);
        self
    }

    /// Training hyper-parameters for [`Self::train`] (ignored by the
    /// snapshot/artifact entry points, which inherit the hyper-parameters
    /// frozen into the artifact).
    pub fn mlp_config(mut self, config: MlpConfig) -> Self {
        self.mlp = config;
        self
    }

    /// Per-request fold-in chain configuration (sweeps, burn-in, seed,
    /// worker threads).
    pub fn fold_in_config(mut self, config: FoldInConfig) -> Self {
        self.fold_in = config;
        self
    }

    /// When accumulated refresh commits warrant a cold retrain.
    pub fn staleness_policy(mut self, policy: StalenessPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether [`Self::from_artifact_file`] arms the durable path: a
    /// sidecar write-ahead log (`<artifact>.wal`) that persists every
    /// committed delta *before* it is applied and published, plus
    /// recovery-on-open. On by default; turn off for throwaway engines
    /// (benchmarks, replay verification) that must not touch the
    /// sidecar. The in-memory entry points (`train`, `from_snapshot`,
    /// `from_artifact`) have no file to extend and ignore this.
    pub fn durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// WAL size (bytes) past which the next commit folds the log into a
    /// fresh base artifact (atomic replace + log reset). Defaults to
    /// [`DEFAULT_WAL_COMPACT_THRESHOLD`]; `u64::MAX` disables automatic
    /// compaction ([`ServingEngine::checkpoint`] stays available).
    pub fn wal_compact_threshold(mut self, bytes: u64) -> Self {
        self.compact_threshold = bytes;
        self
    }

    /// Cold train: runs full Gibbs on `dataset` and serves the frozen
    /// posterior as epoch 0. Validates both the training and the fold-in
    /// configuration with a typed [`ConfigError`] before any work.
    pub fn train(self, dataset: &Dataset) -> Result<ServingEngine<'a>, EngineError> {
        self.mlp.validate()?;
        self.fold_in.validate()?;
        let (_, snapshot) = Mlp::new(self.gaz, dataset, self.mlp.clone())
            .map_err(EngineError::Model)?
            .run_with_snapshot();
        self.adopt(snapshot)
    }

    /// Cold-trains from an on-disk chunked corpus
    /// ([`mlp_social::stream::CorpusReader`] layout) and serves the frozen
    /// posterior. With [`Self::shards`] `>= 2` training runs out of core —
    /// peak RSS is bounded by one shard plus the global count arenas, not
    /// by the corpus.
    pub fn train_corpus(self, corpus_dir: &Path) -> Result<ServingEngine<'a>, EngineError> {
        self.fold_in.validate()?;
        let snapshot = crate::shard::train_corpus(self.gaz, corpus_dir, &self.mlp, &self.sharding)
            .map_err(|e| match e {
                TrainError::Io(e) => EngineError::Io(e),
                other => EngineError::Model(other.to_string()),
            })?;
        self.adopt(snapshot)
    }

    /// Warm start: serves an already-trained posterior as epoch 0. Fails
    /// typed when the snapshot was trained against different geography.
    /// Only the fold-in configuration is validated — the training config
    /// is genuinely ignored here (the snapshot carries its own
    /// hyper-parameters).
    pub fn from_snapshot(
        self,
        snapshot: PosteriorSnapshot,
    ) -> Result<ServingEngine<'a>, EngineError> {
        self.fold_in.validate()?;
        self.adopt(snapshot)
    }

    /// Warm start from published artifact bytes (a
    /// [`PosteriorSnapshot::try_encode`] / [`ServingEngine::encode_artifact`]
    /// product): decode, validate, serve as epoch 0. Like
    /// [`Self::from_snapshot`], only the fold-in configuration is
    /// validated.
    pub fn from_artifact(self, bytes: Bytes) -> Result<ServingEngine<'a>, EngineError> {
        self.fold_in.validate()?;
        let snapshot = PosteriorSnapshot::decode(bytes)?;
        self.adopt(snapshot)
    }

    /// [`Self::from_artifact`] reading the bytes from a file — the
    /// *durable* entry point (unless [`Self::durable`]`(false)`). The
    /// file is mapped and its slabs served in place
    /// ([`PosteriorSnapshot::open_mapped_with`]); where mapping or
    /// in-place reinterpretation is unavailable the open falls back to
    /// owned copies, with identical answers.
    ///
    /// Durable opens recover on the way in: the sidecar
    /// `<artifact>.wal` is scanned, every committed delta record is
    /// replayed past the base artifact (so epoch 0 *is* the last
    /// committed pre-crash state), any torn tail is truncated, and a log
    /// bound to a different base (a checkpoint that died halfway) is set
    /// aside untouched. What recovery found is reported via
    /// [`ServingEngine::recovery_report`]. Subsequent refresh commits
    /// append to the log (fsync before publish), and the log is folded
    /// back into the artifact once it crosses
    /// [`Self::wal_compact_threshold`].
    pub fn from_artifact_file(
        self,
        path: impl AsRef<Path>,
    ) -> Result<ServingEngine<'a>, EngineError> {
        self.fold_in.validate()?;
        let path = path.as_ref();
        let map = Arc::new(mmap_lite::Mmap::open(path)?);
        // The fingerprint pass streams through the page cache — no
        // artifact-sized allocation happens on this path.
        let base_fingerprint = self.durable.then(|| artifact_fingerprint(map.as_slice()));
        let mut snapshot = PosteriorSnapshot::open_mapped_with(&map, self.integrity)?;
        let Some(base_fingerprint) = base_fingerprint else {
            return self.adopt(snapshot);
        };
        let wal_path = DeltaWal::sidecar_path(path);
        let (wal, found) = DeltaWal::recover(&wal_path, base_fingerprint)?;
        let mut replayed_users = 0;
        for delta in &found.deltas {
            replayed_users += delta.num_new_users();
            snapshot.apply_delta(delta)?;
        }
        let report = RecoveryReport {
            replayed_records: found.deltas.len(),
            replayed_users,
            torn_bytes_dropped: found.torn_bytes,
            stale_log_moved_to: found.stale_moved_to,
        };
        let durable = Durable {
            wal,
            artifact_path: path.to_path_buf(),
            compact_threshold: self.compact_threshold,
            unbound: None,
        };
        self.adopt_with(snapshot, Some(durable), Some(report))
    }

    /// Shared tail of the in-memory entry points: bind the snapshot to
    /// the gazetteer (fingerprint-validated) behind the writer path and
    /// publish it as epoch 0.
    fn adopt(self, snapshot: PosteriorSnapshot) -> Result<ServingEngine<'a>, EngineError> {
        self.adopt_with(snapshot, None, None)
    }

    /// [`Self::adopt`] with the durable sidecar state attached. The
    /// replayed snapshot already contains every recovered delta, so the
    /// updater starts from the *recovered* state — its future commits
    /// extend the existing log, never re-log history.
    fn adopt_with(
        self,
        snapshot: PosteriorSnapshot,
        durable: Option<Durable>,
        recovery: Option<RecoveryReport>,
    ) -> Result<ServingEngine<'a>, EngineError> {
        let updater = OnlineUpdater::new(self.gaz, snapshot, self.fold_in.clone(), self.policy)?;
        // Derived once (by the updater's constructor): noise models,
        // hyper-parameters, and the popular fallback never change across
        // delta commits, so per-request fold-in engines rebuild from
        // clones carried by the epoch instead of re-validating the
        // gazetteer fingerprint on every call — and the read and absorb
        // paths share one copy.
        let identity = Arc::new(());
        let published = Arc::new(Epoch {
            epoch: 0,
            snapshot: updater.snapshot().clone(),
            publisher: Arc::clone(&identity),
            parts: updater.derived_parts().clone(),
        });
        Ok(ServingEngine {
            gaz: self.gaz,
            fold_in: self.fold_in,
            policy: self.policy,
            identity,
            commits_published: AtomicUsize::new(updater.commits()),
            stale: AtomicBool::new(updater.needs_refresh()),
            published: RwLock::new(published),
            writer: Mutex::new(Writer { updater, durable }),
            recovery,
        })
    }
}

/// The durable half of the writer path: the open sidecar log, where the
/// base artifact lives, and when to fold the former into the latter.
struct Durable {
    wal: DeltaWal,
    artifact_path: PathBuf,
    compact_threshold: u64,
    /// The fingerprint of a base a checkpoint wrote but has not yet
    /// re-bound the log to. Until [`Self::bind`] succeeds the log on disk
    /// still cites the replaced base, so recovery would set it aside — a
    /// record appended to it would be lost.
    unbound: Option<u64>,
}

impl Durable {
    /// Re-binds the log to the base the last checkpoint wrote, if a
    /// failed reset left it citing the previous base; a no-op otherwise.
    /// Every append runs this first.
    fn bind(&mut self) -> Result<(), WalError> {
        if let Some(fingerprint) = self.unbound {
            self.wal.reset(fingerprint)?;
            self.unbound = None;
            // A checkpoint obsoletes every earlier set-aside log; keep
            // only the newest one as a post-mortem artifact.
            self.wal.age_stale_siblings();
        }
        Ok(())
    }
}

/// Everything behind the writer mutex: the authoritative updater plus
/// the (optional) durable sidecar state, locked together so a commit and
/// its log append can never interleave with another writer.
struct Writer<'a> {
    updater: OnlineUpdater<'a>,
    durable: Option<Durable>,
}

/// What recovery-on-open ([`EngineBuilder::from_artifact_file`]) found
/// in the sidecar write-ahead log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Committed delta records replayed past the base artifact.
    pub replayed_records: usize,
    /// Users those records appended to the posterior.
    pub replayed_users: usize,
    /// Bytes of torn (uncommitted) log tail truncated away.
    pub torn_bytes_dropped: u64,
    /// Where a log bound to a different base artifact was set aside, if
    /// one was found (a checkpoint crash window — nothing is lost, the
    /// new base already contains that log's deltas).
    pub stale_log_moved_to: Option<PathBuf>,
}

impl RecoveryReport {
    /// Whether recovery changed anything (replayed, truncated, or set a
    /// stale log aside) as opposed to a clean open.
    pub fn recovered_anything(&self) -> bool {
        self.replayed_records > 0
            || self.torn_bytes_dropped > 0
            || self.stale_log_moved_to.is_some()
    }
}

/// The serving facade: owns the posterior lifecycle across all three
/// flows (cold train, warm fold-in, online refresh) and publishes it to
/// readers as immutable epochs. See the [module docs](self) for the
/// concurrency contract and a runnable example.
pub struct ServingEngine<'a> {
    gaz: &'a Gazetteer,
    fold_in: FoldInConfig,
    /// The staleness policy this engine was built with — re-applied to
    /// the fresh updater a [`Self::retrain_from_dataset`] installs, so a
    /// retrain resets the commit/drift bookkeeping without changing the
    /// policy itself.
    policy: StalenessPolicy,
    /// This engine's pointer identity, stamped into every epoch it
    /// publishes (see [`Epoch::publisher`]).
    identity: Arc<()>,
    /// Monitoring mirror of the writer's commit count, so health checks
    /// never block behind a refresh holding the writer lock.
    commits_published: AtomicUsize,
    /// Monitoring mirror of the staleness verdict, same rationale.
    stale: AtomicBool,
    /// The published epoch. Readers clone the `Arc` under the read lock;
    /// the single writer holds the write lock only to store the next
    /// epoch's pointer after a commit — reads never wait on a refresh in
    /// progress.
    published: RwLock<Arc<Epoch>>,
    /// The single-writer path: the authoritative posterior plus the
    /// delta/staleness bookkeeping and (for file-backed engines) the
    /// durable sidecar log. Held for the whole fold-in → stage → log →
    /// commit → publish sequence so refreshes serialise.
    writer: Mutex<Writer<'a>>,
    /// What recovery-on-open found, for engines built by
    /// [`EngineBuilder::from_artifact_file`] on the durable path.
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for ServingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Monitoring surface: an epoch read, so dumping an engine never
        // blocks behind a refresh holding the writer lock.
        let published = self.current();
        f.debug_struct("ServingEngine")
            .field("epoch", &published.epoch)
            .field("users", &published.snapshot.num_users())
            .field("fold_in", &self.fold_in)
            .finish_non_exhaustive()
    }
}

impl<'a> ServingEngine<'a> {
    /// Starts configuring an engine over `gaz`.
    pub fn builder(gaz: &'a Gazetteer) -> EngineBuilder<'a> {
        EngineBuilder::new(gaz)
    }

    /// The gazetteer every epoch serves against.
    pub fn gazetteer(&self) -> &'a Gazetteer {
        self.gaz
    }

    /// The per-request fold-in configuration.
    pub fn fold_in_config(&self) -> &FoldInConfig {
        &self.fold_in
    }

    /// A read handle on the currently published posterior epoch — an
    /// `Arc` clone, never held up by a refresh in progress.
    pub fn snapshot(&self) -> SnapshotHandle {
        SnapshotHandle { inner: self.current() }
    }

    /// The currently published epoch number (0 at build, +1 per commit).
    /// A monitoring read of the published slot.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// The published epoch. A poisoned slot still yields its pointer (as
    /// [`lock_writer`] does): the store it guards is a single pointer
    /// write, so it can never be torn.
    fn current(&self) -> Arc<Epoch> {
        Arc::clone(&self.published.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes the writer's posterior as the next epoch (one pointer
    /// store) and returns it. Called with the writer lock held, so epoch
    /// numbers rise by exactly one per publish.
    fn publish(&self, writer: &Writer<'a>) -> Arc<Epoch> {
        let next = Arc::new(Epoch {
            epoch: self.epoch() + 1,
            snapshot: writer.updater.snapshot().clone(),
            publisher: Arc::clone(&self.identity),
            parts: writer.updater.derived_parts().clone(),
        });
        let retired = std::mem::replace(
            &mut *self.published.write().unwrap_or_else(PoisonError::into_inner),
            Arc::clone(&next),
        );
        // Released after the write lock: freeing an epoch no reader pins
        // must not hold readers up.
        drop(retired);
        next
    }

    /// Profiles one unseen user: the same answer the request gets in any
    /// [`Self::profile_batch`] against the same epoch.
    pub fn profile(&self, request: &ProfileRequest) -> Result<ProfileResponse, EngineError> {
        let mut out = self.profile_batch(std::slice::from_ref(request))?;
        Ok(out.pop().expect("one request in, one response out"))
    }

    /// Profiles a batch of unseen users against the currently published
    /// epoch. Batching semantics are exactly
    /// [`FoldInEngine::fold_in_batch`]: with `threads > 1` in the fold-in
    /// configuration the batch fans across scoped workers, and every
    /// answer equals [`Self::profile`] on that request alone. The whole
    /// batch is answered from one epoch — a refresh committing mid-batch
    /// is observed by the *next* call, never half-way through this one.
    pub fn profile_batch(
        &self,
        requests: &[ProfileRequest],
    ) -> Result<Vec<ProfileResponse>, EngineError> {
        self.profile_batch_on(&self.snapshot(), requests)
    }

    /// [`Self::profile_batch`] against a caller-pinned epoch, for readers
    /// that need answer consistency across several batches.
    ///
    /// A handle published by *this* engine takes the fast path (derived
    /// state reused, no re-validation — the builder already proved the
    /// snapshot/gazetteer pairing and commits preserve it). A handle from
    /// a different engine is still served, but through the fully
    /// validating constructor, so a snapshot that does not match this
    /// engine's gazetteer is a typed [`FoldInError::GazetteerMismatch`] —
    /// never an out-of-bounds panic, and never predictions computed with
    /// the wrong derived noise models.
    pub fn profile_batch_on(
        &self,
        handle: &SnapshotHandle,
        requests: &[ProfileRequest],
    ) -> Result<Vec<ProfileResponse>, EngineError> {
        let own = Arc::ptr_eq(&handle.inner.publisher, &self.identity);
        let engine = if own {
            FoldInEngine::from_validated_parts(
                handle.snapshot(),
                self.gaz,
                self.fold_in.clone(),
                handle.inner.parts.clone(),
            )
        } else {
            FoldInEngine::new(handle.snapshot(), self.gaz, self.fold_in.clone())?
        };
        // Borrow each request's observations in place — the read path
        // copies nothing but the answers.
        let records = engine.fold_in_by(requests.len(), |i| &requests[i].observations, false)?;
        let epoch = handle.epoch();
        Ok(records
            .into_iter()
            .map(|r| ProfileResponse { ranked: r.profile.into(), epoch })
            .collect())
    }

    /// The same as [`Self::profile_batch`].
    pub fn profile_each(
        &self,
        requests: &[ProfileRequest],
    ) -> Result<Vec<ProfileResponse>, EngineError> {
        self.profile_batch(requests)
    }

    /// Absorbs a batch of new users into the posterior and publishes the
    /// next epoch: fold-in → stage → commit → publish, as one atomic
    /// writer-side step. The returned profiles are bit-identical to what
    /// [`Self::profile_batch`] would have answered against the pre-commit
    /// epoch.
    ///
    /// Requests must reference only users already in the posterior
    /// (neighbors cite committed users); unknown references fail typed
    /// with nothing staged. For the "absorb a dataset's late arrivals"
    /// loop — which also needs future-user edges filtered out — use
    /// [`Self::refresh_from_dataset`].
    pub fn refresh(&self, requests: &[ProfileRequest]) -> Result<RefreshReport, EngineError> {
        let mut writer = lock_writer(&self.writer);
        let batch: Vec<NewUserObservations> =
            requests.iter().map(|r| r.observations.clone()).collect();
        self.absorb_commit_publish(&mut writer, batch)
    }

    /// The standing refresh loop, engine-owned: profiles users
    /// `ids` out of `dataset` (one corpus pass per chunk), drops edges to
    /// users the posterior does not know yet, absorbs and commits in
    /// `batch`-sized chunks, and publishes one epoch per commit. Later
    /// chunks may therefore cite earlier chunks' users as neighbors.
    ///
    /// Each published epoch is an independent clone of the posterior (the
    /// price of readers that never wait on the writer), so the `batch`
    /// size trades commit granularity against O(posterior) clone work per
    /// commit — prefer larger batches when absorbing a large backlog.
    ///
    /// Chunks commit atomically and in order: if a later chunk fails
    /// typed, everything committed before it *stays* committed and
    /// published (exactly like the hand-wired absorb/commit loop this
    /// replaces). On error, compare [`Self::snapshot`]`().num_users()`
    /// with the pre-refresh count to see how many of `ids` landed, and
    /// resume with the remaining suffix — retrying the full list would
    /// absorb the landed users a second time as duplicate posterior rows.
    ///
    /// Deterministic end to end: repeat runs over the same inputs publish
    /// byte-identical artifacts.
    pub fn refresh_from_dataset(
        &self,
        dataset: &Dataset,
        ids: &[UserId],
        batch: usize,
    ) -> Result<RefreshReport, EngineError> {
        let mut writer = lock_writer(&self.writer);
        // An empty refresh still reports the standing staleness verdict,
        // exactly as `refresh(&[])` does.
        let mut report = RefreshReport {
            profiles: Vec::new(),
            commits: Vec::new(),
            needs_retrain: writer.updater.needs_refresh(),
        };
        for chunk in ids.chunks(batch.max(1)) {
            let mut obs = NewUserObservations::batch_from_dataset(dataset, chunk);
            let known = writer.updater.snapshot().num_users();
            for o in &mut obs {
                o.neighbors.retain(|p| p.index() < known);
            }
            let step = self.absorb_commit_publish(&mut writer, obs)?;
            report.profiles.extend(step.profiles);
            report.commits.extend(step.commits);
            report.needs_retrain = step.needs_retrain;
        }
        Ok(report)
    }

    /// The one writer-side sequence: absorb → log → commit → publish.
    ///
    /// On the durable path the staged delta is appended to the
    /// write-ahead log and fsync'd *before* it is applied in memory or
    /// published — the fsync is the commit point. A crash after the
    /// append replays the delta on reopen (identical to an uninterrupted
    /// run); a crash before it never published, so nothing is lost
    /// either. A log a failed checkpoint left bound to the replaced base
    /// is re-bound first; if that fails the refresh fails with nothing
    /// staged. After publish, a log past its size threshold is folded
    /// into a fresh base artifact ([`Self::checkpoint`] semantics).
    fn absorb_commit_publish(
        &self,
        writer: &mut Writer<'a>,
        batch: Vec<NewUserObservations>,
    ) -> Result<RefreshReport, EngineError> {
        if let Some(durable) = writer.durable.as_mut() {
            durable.bind()?;
        }
        let profiles = writer.updater.absorb(&batch)?;
        if let Some(durable) = writer.durable.as_mut() {
            if !writer.updater.pending_delta().is_empty() {
                durable.wal.append(writer.updater.pending_delta())?;
            }
        }
        let appended = writer.updater.commit()?;
        let mut commits = Vec::new();
        // Served-at epoch: the posterior the chains actually ran against
        // (the epoch only moves below, and we hold the writer lock).
        let served_epoch = self.epoch();
        if appended > 0 {
            let next = self.publish(writer);
            commits.push(CommitInfo {
                appended,
                total_users: next.snapshot.num_users(),
                epoch: next.epoch,
            });
            // Compaction runs only after the commit is both durable and
            // published — a checkpoint failure here cannot un-commit it.
            self.maybe_checkpoint(writer)?;
        }
        let needs_retrain = writer.updater.needs_refresh();
        self.commits_published.store(writer.updater.commits(), Ordering::Release);
        self.stale.store(needs_retrain, Ordering::Release);
        Ok(RefreshReport {
            profiles: profiles
                .into_iter()
                .map(|p| ProfileResponse { ranked: p.into(), epoch: served_epoch })
                .collect(),
            commits,
            needs_retrain,
        })
    }

    /// Folds the write-ahead log into a fresh base artifact when it has
    /// outgrown its threshold (no-op otherwise or when not durable).
    fn maybe_checkpoint(&self, writer: &mut Writer<'a>) -> Result<bool, EngineError> {
        match &writer.durable {
            Some(d) if d.wal.len() >= d.compact_threshold && !d.wal.is_empty() => {
                self.checkpoint_locked(writer)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Folds the write-ahead log into the base artifact *now*: the full
    /// recovered posterior is re-encoded, written atomically over the
    /// artifact path (temp file + fsync + rename), and the log is reset
    /// to extend the new base. Returns `false` (and does nothing) for
    /// engines without a durable sidecar. Crash-ordered: the new base is
    /// durable before the log resets, so dying between the two steps
    /// leaves a base that already contains the log — recovery detects
    /// the fingerprint mismatch and sets the stale log aside. If the
    /// reset fails, the error is returned and the engine re-binds the
    /// log before its next append (a refresh fails typed until it can).
    pub fn checkpoint(&self) -> Result<bool, EngineError> {
        let mut writer = lock_writer(&self.writer);
        if writer.durable.is_none() {
            return Ok(false);
        }
        self.checkpoint_locked(&mut writer)?;
        Ok(true)
    }

    fn checkpoint_locked(&self, writer: &mut Writer<'a>) -> Result<(), EngineError> {
        self.write_base(writer)?;
        writer.durable.as_mut().expect("written above").bind()?;
        Ok(())
    }

    /// The first half of a checkpoint: encodes the writer's posterior,
    /// atomically replaces the base artifact with it, and marks the log
    /// unbound (re-bound by [`Durable::bind`]). On error nothing on disk
    /// changed. The encoded bytes are dropped once written.
    fn write_base(&self, writer: &mut Writer<'a>) -> Result<(), EngineError> {
        let durable = writer.durable.as_mut().expect("checkpoint requires the durable sidecar");
        let bytes = writer.updater.snapshot().try_encode()?;
        write_atomic(&durable.artifact_path, bytes.as_slice())?;
        durable.unbound = Some(artifact_fingerprint(bytes.as_slice()));
        drop(bytes);
        if writer.updater.snapshot().is_zero_copy() {
            // Remap: the engine was serving slabs out of the old mapping
            // plus materialized overlay tails. The artifact just written
            // contains all of it, so swapping in a zero-copy view of the
            // new file drops the overlay (and the old mapping, once the
            // last reader epoch retires). Best-effort — if the remap
            // fails the engine keeps serving the owned snapshot, which is
            // correct, just not zero-copy anymore.
            if let Ok(map) = mmap_lite::Mmap::open(&durable.artifact_path) {
                // Structural verification suffices here: this process
                // encoded and atomically wrote these bytes moments ago.
                let open =
                    PosteriorSnapshot::open_mapped_with(&Arc::new(map), Integrity::Structural);
                if let Ok(snap) = open {
                    writer.updater.rebase_onto(snap);
                    return Ok(());
                }
            }
        }
        writer.updater.rebase();
        Ok(())
    }

    /// Whether the currently published posterior serves its slabs
    /// zero-copy out of a mapped artifact (true for engines opened with
    /// [`EngineBuilder::from_artifact_file`] on platforms that map files;
    /// a checkpoint remaps the fresh base). A monitoring read; takes the
    /// writer lock briefly.
    pub fn is_mapped(&self) -> bool {
        lock_writer(&self.writer).updater.snapshot().is_zero_copy()
    }

    /// What recovery-on-open found — `Some` only for engines built by
    /// [`EngineBuilder::from_artifact_file`] on the durable path.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Whether this engine persists commits to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        lock_writer(&self.writer).durable.is_some()
    }

    /// Current size of the write-ahead log in bytes (`None` when not
    /// durable). Takes the writer lock briefly — a monitoring read for
    /// tests and ops tooling, not the serving path.
    pub fn log_bytes(&self) -> Option<u64> {
        lock_writer(&self.writer).durable.as_ref().map(|d| d.wal.len())
    }

    /// Records an externally measured drift metric (e.g.
    /// `mlp_eval`'s refreshed-vs-retrained accuracy gap) for the
    /// staleness policy. Waits for an in-flight refresh to finish (it
    /// updates writer state).
    pub fn record_drift(&self, drift: f64) {
        let mut writer = lock_writer(&self.writer);
        writer.updater.record_drift(drift);
        self.stale.store(writer.updater.needs_refresh(), Ordering::Release);
    }

    /// Whether the staleness policy asks for a cold retrain (commit budget
    /// spent or recorded drift over threshold). The engine keeps serving
    /// and refreshing either way. A monitoring read: never blocks, even
    /// while a refresh holds the writer path.
    pub fn needs_retrain(&self) -> bool {
        self.stale.load(Ordering::Acquire)
    }

    /// Refresh commits since the engine was built. A monitoring read:
    /// never blocks, even while a refresh holds the writer path.
    pub fn commits(&self) -> usize {
        self.commits_published.load(Ordering::Acquire)
    }

    /// The decision layer over [`Self::needs_retrain`]: given how many
    /// users are pending absorption, what should the maintenance loop do
    /// next? [`RetrainDecision::Retrain`] whenever the staleness policy
    /// fired (a retrain also covers any pending users — it trains on the
    /// caller's full dataset), else [`RetrainDecision::Refresh`] while
    /// users are pending, else [`RetrainDecision::Steady`]. Wait-free,
    /// like the monitoring reads it composes.
    pub fn plan_refresh(&self, pending_new_users: usize) -> RetrainDecision {
        if self.needs_retrain() {
            RetrainDecision::Retrain
        } else if pending_new_users > 0 {
            RetrainDecision::Refresh
        } else {
            RetrainDecision::Steady
        }
    }

    /// Full cold retrain, in place: runs the complete Gibbs chain on
    /// `dataset`, then atomically replaces the engine's posterior with
    /// the result — readers never see a gap, and a handle pinned before
    /// the swap keeps serving its old epoch (with its matching derived
    /// state) until dropped.
    ///
    /// This is the [`RetrainDecision::Retrain`] arm of the closed loop:
    /// it resets the staleness bookkeeping (commit count to zero, drift
    /// to zero — same policy, fresh budget) and publishes the retrained
    /// posterior as the *next* epoch (the counter keeps rising, so epoch
    /// ordering stays monotone across retrains).
    ///
    /// Training runs outside the writer lock, so serving and refreshes
    /// continue while the chain runs; a refresh commit that lands
    /// mid-train is superseded by the retrained posterior — `dataset` is
    /// the authoritative world. On durable engines the retrained base is
    /// checkpointed (atomic artifact replace + log reset) *before* it is
    /// published. If the artifact cannot be replaced, the pre-retrain
    /// state stays installed and serving, and the error is returned
    /// typed. Once it is replaced the retrain stands: a log reset that
    /// fails then is retried before the next append, and refreshes fail
    /// typed until it succeeds.
    pub fn retrain_from_dataset(
        &self,
        dataset: &Dataset,
        config: MlpConfig,
    ) -> Result<RetrainReport, EngineError> {
        config.validate()?;
        let (_, snapshot) =
            Mlp::new(self.gaz, dataset, config).map_err(EngineError::Model)?.run_with_snapshot();
        let updater = OnlineUpdater::new(self.gaz, snapshot, self.fold_in.clone(), self.policy)?;
        let mut writer = lock_writer(&self.writer);
        let previous = std::mem::replace(&mut writer.updater, updater);
        let checkpointed = writer.durable.is_some();
        if checkpointed {
            if let Err(e) = self.write_base(&mut writer) {
                writer.updater = previous;
                return Err(e);
            }
            // The retrained base is on disk now, so it is installed
            // whether or not the log re-binds here; a failed bind is
            // retried before the next append.
            writer.durable.as_mut().expect("checked above").bind().ok();
        }
        let next = self.publish(&writer);
        self.commits_published.store(writer.updater.commits(), Ordering::Release);
        self.stale.store(writer.updater.needs_refresh(), Ordering::Release);
        Ok(RetrainReport {
            epoch: next.epoch,
            trained_users: next.snapshot.num_users(),
            checkpointed,
        })
    }

    /// Encodes the published posterior as an artifact: the folded
    /// posterior, never a base plus delta records, so repeat runs of the
    /// same refresh sequence give byte-identical bytes. Reads the
    /// published epoch, so it never waits on a refresh in progress.
    /// Thaws (via [`EngineBuilder::from_artifact`] or
    /// [`PosteriorSnapshot::decode`]) back to the published posterior.
    pub fn encode_artifact(&self) -> Result<Bytes, EngineError> {
        Ok(self.current().snapshot.try_encode()?)
    }

    /// [`Self::encode_artifact`] straight to a file, written atomically
    /// (temp file + fsync + rename): a crash mid-write leaves the old
    /// artifact, never a torn one the next open would reject.
    pub fn write_artifact(&self, path: impl AsRef<Path>) -> Result<usize, EngineError> {
        let bytes = self.encode_artifact()?;
        write_atomic(path.as_ref(), bytes.as_slice())?;
        Ok(bytes.len())
    }
}

/// Panic-free acquisition of the writer lock: a poisoned lock (a
/// panicking writer elsewhere) still yields the writer — the serving path
/// never compounds one failure into a global outage.
fn lock_writer<'m, 'a>(m: &'m Mutex<Writer<'a>>) -> MutexGuard<'m, Writer<'a>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_social::{GeneratedData, Generator, GeneratorConfig};

    fn corpus(users: usize, seed: u64) -> (Gazetteer, GeneratedData) {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
                .generate();
        (gaz, data)
    }

    fn quick(seed: u64) -> MlpConfig {
        MlpConfig { iterations: 6, burn_in: 3, seed, ..Default::default() }
    }

    #[test]
    fn builder_rejects_degenerate_configs_typed() {
        let (gaz, data) = corpus(40, 201);
        let err = ServingEngine::builder(&gaz)
            .mlp_config(MlpConfig { iterations: 0, ..Default::default() })
            .train(&data.dataset)
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(ConfigError::Zero("iterations"))), "{err:?}");

        let err = ServingEngine::builder(&gaz)
            .mlp_config(quick(201))
            .fold_in_config(FoldInConfig { sweeps: 5, burn_in: 5, ..Default::default() })
            .train(&data.dataset)
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Config(ConfigError::BurnInTooLarge { burn_in: 5, chain_len: 5 })
            ),
            "{err:?}"
        );

        let err = ServingEngine::builder(&gaz)
            .mlp_config(quick(201))
            .fold_in_config(FoldInConfig { threads: 0, ..Default::default() })
            .train(&data.dataset)
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(ConfigError::Zero("threads"))), "{err:?}");
    }

    #[test]
    fn profile_batch_matches_the_low_level_fold_in() {
        let (gaz, data) = corpus(120, 203);
        let d0 = data.dataset.prefix(100);
        let (_, snapshot) = Mlp::new(&gaz, &d0, quick(203)).unwrap().run_with_snapshot();

        let ids: Vec<UserId> = (100..110).map(UserId).collect();
        let mut obs = NewUserObservations::batch_from_dataset(&data.dataset, &ids);
        for o in &mut obs {
            o.neighbors.retain(|p| p.index() < 100);
        }
        let direct = FoldInEngine::new(&snapshot, &gaz, FoldInConfig::default())
            .unwrap()
            .fold_in_batch(&obs)
            .unwrap();

        let engine =
            ServingEngine::builder(&gaz).mlp_config(quick(203)).from_snapshot(snapshot).unwrap();
        let requests: Vec<ProfileRequest> = obs.into_iter().map(ProfileRequest::new).collect();
        let responses = engine.profile_batch(&requests).unwrap();

        assert_eq!(direct.len(), responses.len());
        for (d, r) in direct.iter().zip(&responses) {
            assert_eq!(d.profile, r.ranked.as_slice(), "facade must not change predictions");
            assert_eq!(r.epoch, 0);
        }
        assert_eq!(
            crate::infer::determinism_hash(&direct),
            response_determinism_hash(&responses),
            "epoch tagging must not change the pinned fingerprint"
        );

        // And the single-request path is the batch head.
        assert_eq!(engine.profile(&requests[0]).unwrap(), responses[0]);
    }

    #[test]
    fn refresh_publishes_epochs_and_absorbs_users() {
        let (gaz, data) = corpus(140, 205);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(205))
            .train(&data.dataset.prefix(100))
            .unwrap();
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.snapshot().num_users(), 100);

        let pinned = engine.snapshot();
        let ids: Vec<UserId> = (100..140).map(UserId).collect();
        let report = engine.refresh_from_dataset(&data.dataset, &ids, 20).unwrap();
        assert_eq!(report.appended(), 40);
        assert_eq!(report.commits.len(), 2);
        assert_eq!(report.commits[1].epoch, 2);
        assert_eq!(report.commits[1].total_users, 140);
        assert_eq!(report.profiles.len(), 40);
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.commits(), 2);
        assert_eq!(engine.snapshot().num_users(), 140);

        // The pre-refresh handle still pins epoch 0.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.snapshot().num_users(), 100);

        // An empty refresh commits nothing and publishes nothing.
        let noop = engine.refresh(&[]).unwrap();
        assert!(noop.commits.is_empty() && noop.profiles.is_empty());
        assert_eq!(engine.epoch(), 2);
    }

    #[test]
    fn strict_refresh_rejects_unknown_neighbors_with_nothing_staged() {
        let (gaz, data) = corpus(80, 207);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(207))
            .train(&data.dataset.prefix(60))
            .unwrap();
        let bad = ProfileRequest::new(NewUserObservations {
            neighbors: vec![UserId(70)],
            mentions: vec![],
        });
        let err = engine.refresh(std::slice::from_ref(&bad)).unwrap_err();
        assert!(matches!(err, EngineError::FoldIn(FoldInError::UnknownUser(UserId(70)))));
        assert_eq!(engine.epoch(), 0, "failed refresh must not publish");
        assert_eq!(engine.snapshot().num_users(), 60);
    }

    #[test]
    fn staleness_policy_is_enforced_through_the_facade() {
        let (gaz, data) = corpus(120, 209);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(209))
            .staleness_policy(StalenessPolicy { refresh_after_commits: 2, drift_threshold: 0.1 })
            .train(&data.dataset.prefix(100))
            .unwrap();
        assert!(!engine.needs_retrain());
        let ids: Vec<UserId> = (100..120).map(UserId).collect();
        let report = engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
        assert_eq!(report.commits.len(), 2);
        assert!(report.needs_retrain, "commit budget spent must surface in the report");
        assert!(engine.needs_retrain());

        // Drift alone also triggers.
        let engine2 = ServingEngine::builder(&gaz)
            .mlp_config(quick(209))
            .staleness_policy(StalenessPolicy { refresh_after_commits: 0, drift_threshold: 0.1 })
            .train(&data.dataset.prefix(100))
            .unwrap();
        assert!(!engine2.needs_retrain());
        engine2.record_drift(0.2);
        assert!(engine2.needs_retrain());
    }

    #[test]
    fn artifact_round_trips_through_the_builder() {
        let (gaz, data) = corpus(120, 211);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(211))
            .train(&data.dataset.prefix(90))
            .unwrap();
        let ids: Vec<UserId> = (90..120).map(UserId).collect();
        engine.refresh_from_dataset(&data.dataset, &ids, 15).unwrap();

        let artifact = engine.encode_artifact().unwrap();
        let thawed =
            ServingEngine::builder(&gaz).mlp_config(quick(211)).from_artifact(artifact).unwrap();
        assert_eq!(thawed.epoch(), 0, "a thawed artifact starts a fresh epoch history");
        assert_eq!(thawed.snapshot().snapshot(), engine.snapshot().snapshot());

        // And it serves identically.
        let reqs = ProfileRequest::batch_from_dataset(&data.dataset, &[UserId(3), UserId(17)]);
        let a = engine.profile_batch(&reqs).unwrap();
        let b = thawed.profile_batch(&reqs).unwrap();
        assert_eq!(
            response_determinism_hash(&a),
            response_determinism_hash(&b),
            "thawed engine must serve bit-identically"
        );
    }

    #[test]
    fn foreign_handles_are_revalidated_not_trusted() {
        // A handle published by engine A handed to engine B must not ride
        // B's validation-free fast path: over a different gazetteer that
        // would index A's city ids out of B's tables (a panic), and even
        // over the same gazetteer B's derived noise models would be wrong
        // for A's snapshot. Foreign handles take the validating path.
        let gaz_a = Gazetteer::us_cities();
        let data_a = Generator::new(
            &gaz_a,
            GeneratorConfig { num_users: 60, seed: 215, ..Default::default() },
        )
        .generate();
        let engine_a =
            ServingEngine::builder(&gaz_a).mlp_config(quick(215)).train(&data_a.dataset).unwrap();

        // `with_synthetic` only grows the base table, so ask for strictly
        // more cities than gazetteer A has to guarantee a real mismatch.
        let gaz_b = Gazetteer::with_synthetic(&mlp_gazetteer::SynthConfig {
            total_cities: gaz_a.num_cities() + 25,
            seed: 2,
            ..Default::default()
        });
        let data_b = Generator::new(
            &gaz_b,
            GeneratorConfig { num_users: 50, seed: 216, ..Default::default() },
        )
        .generate();
        let engine_b =
            ServingEngine::builder(&gaz_b).mlp_config(quick(216)).train(&data_b.dataset).unwrap();

        // Mismatched geography: typed error, not an out-of-bounds panic.
        let reqs = vec![ProfileRequest::default()];
        let err = engine_b.profile_batch_on(&engine_a.snapshot(), &reqs).unwrap_err();
        assert!(matches!(err, EngineError::FoldIn(FoldInError::GazetteerMismatch { .. })));

        // Same gazetteer, different engine: served, and identically to the
        // handle's own engine (the parts re-derive from the handle's
        // snapshot, not from the serving engine's).
        let engine_a2 =
            ServingEngine::builder(&gaz_a).mlp_config(quick(215)).train(&data_a.dataset).unwrap();
        let own = engine_a.profile_batch(&reqs).unwrap();
        let foreign = engine_a2.profile_batch_on(&engine_a.snapshot(), &reqs).unwrap();
        assert_eq!(own, foreign);
    }

    #[test]
    fn staleness_policy_zero_budget_and_exact_threshold_do_not_trigger() {
        let (gaz, data) = corpus(130, 219);
        // Budget 0 disables the commit counter entirely: any number of
        // commits alone never asks for a retrain.
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(219))
            .staleness_policy(StalenessPolicy { refresh_after_commits: 0, drift_threshold: 0.1 })
            .train(&data.dataset.prefix(100))
            .unwrap();
        let ids: Vec<UserId> = (100..130).map(UserId).collect();
        let report = engine.refresh_from_dataset(&data.dataset, &ids, 5).unwrap();
        assert_eq!(report.commits.len(), 6);
        assert!(!report.needs_retrain, "budget 0 must disable the commit trigger");
        assert!(!engine.needs_retrain());
        assert_eq!(engine.plan_refresh(0), RetrainDecision::Steady);
        assert_eq!(engine.plan_refresh(3), RetrainDecision::Refresh);

        // Drift exactly at the threshold is not *over* it — strictly
        // greater is the contract, so the boundary stays quiet.
        engine.record_drift(0.1);
        assert!(!engine.needs_retrain(), "drift == threshold must not trigger");
        engine.record_drift(0.1 + 1e-9);
        assert!(engine.needs_retrain(), "any excess over threshold must trigger");
        assert_eq!(engine.plan_refresh(0), RetrainDecision::Retrain);
        // Drift is a last-measurement signal, not a ratchet: a newer,
        // smaller reading clears it.
        engine.record_drift(0.0);
        assert!(!engine.needs_retrain());
    }

    #[test]
    fn retrain_resets_policy_and_publishes_next_epoch() {
        let (gaz, data) = corpus(140, 221);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick(221))
            .staleness_policy(StalenessPolicy { refresh_after_commits: 2, drift_threshold: 0.1 })
            .train(&data.dataset.prefix(100))
            .unwrap();
        let ids: Vec<UserId> = (100..140).map(UserId).collect();
        engine.refresh_from_dataset(&data.dataset, &ids, 20).unwrap();
        assert_eq!(engine.epoch(), 2);
        assert!(engine.needs_retrain(), "commit budget spent");
        assert_eq!(engine.plan_refresh(0), RetrainDecision::Retrain);

        // Pin the stale epoch and remember how it serves.
        let pinned = engine.snapshot();
        let reqs = ProfileRequest::batch_from_dataset(&data.dataset, &[UserId(3), UserId(17)]);
        let before = engine.profile_batch_on(&pinned, &reqs).unwrap();

        let report = engine.retrain_from_dataset(&data.dataset, quick(222)).unwrap();
        assert_eq!(report.epoch, 3, "retrain publishes the next epoch, not epoch 0");
        assert_eq!(report.trained_users, 140);
        assert!(!report.checkpointed, "in-memory engine has no artifact to checkpoint");

        // Policy bookkeeping is reset: same policy, fresh budget.
        assert_eq!(engine.epoch(), 3);
        assert_eq!(engine.commits(), 0);
        assert!(!engine.needs_retrain());
        assert_eq!(engine.plan_refresh(0), RetrainDecision::Steady);
        assert_eq!(engine.snapshot().num_users(), 140);

        // The pinned pre-retrain handle still serves bit-identically: its
        // epoch carries its own derived state, untouched by the swap.
        assert_eq!(pinned.epoch(), 2);
        let after = engine.profile_batch_on(&pinned, &reqs).unwrap();
        assert_eq!(before, after, "pinned epochs must be immune to a retrain");

        // And the refresh loop keeps working on the retrained posterior.
        engine.record_drift(0.2);
        assert!(engine.needs_retrain(), "the policy itself survives the reset");
    }

    #[test]
    fn mismatched_gazetteer_is_rejected_at_build() {
        let (gaz, data) = corpus(60, 213);
        let (_, snapshot) = Mlp::new(&gaz, &data.dataset, quick(213)).unwrap().run_with_snapshot();
        let other = Gazetteer::with_synthetic(&mlp_gazetteer::SynthConfig {
            total_cities: gaz.num_cities() + 7,
            seed: 1,
            ..Default::default()
        });
        let err = ServingEngine::builder(&other).from_snapshot(snapshot).unwrap_err();
        assert!(matches!(err, EngineError::FoldIn(FoldInError::GazetteerMismatch { .. })));
    }
}
