//! `mlp-core` — the Multiple Location Profiling model (Li, Wang & Chang,
//! VLDB 2012), the paper's primary contribution.
//!
//! MLP is a generative probabilistic model that profiles *multiple*
//! locations for social-network users and explains every relationship with
//! per-endpoint location assignments:
//!
//! * each user `u_i` has a location profile `θ_i` — a multinomial over
//!   candidate cities — drawn from a supervised Dirichlet prior
//!   `γ_i = η_i·Λ·γ + τ·λ_i` (Sec. 4.3);
//! * each following relationship `f⟨i,j⟩` is either noisy (random model
//!   `F_R`) or location-based: assignments `x ~ θ_i`, `y ~ θ_j` and the edge
//!   is generated with probability `β·d(x,y)^α` (Secs. 4.1–4.2);
//! * each tweeting relationship `t⟨i,j⟩` is either noisy (`T_R`, global
//!   venue popularity) or location-based: `z ~ θ_i`, venue `~ ψ_z`;
//! * inference is collapsed Gibbs sampling over the model selectors and
//!   location assignments (Eqs. 5–9), with an optional Gibbs-EM outer loop
//!   re-fitting the power law `(α, β)` (Sec. 4.5).
//!
//! Module map:
//!
//! * [`config`] — every model hyper-parameter, with the paper's defaults;
//! * [`candidacy`] — candidacy vectors `λ_i` and priors `γ_i`;
//! * [`random_models`] — the empirical noise models `F_R` and `T_R`;
//! * [`count_store`] — columnar CSR count arenas (sparse venue counts
//!   with dense fallback) shared by the sampler state and its drivers;
//! * [`state`] — assignment state and collapsed count bookkeeping;
//! * [`kernel`] — the stateless conditional-weight kernel (Eqs. 5–9) and
//!   the one edge step and one mention step every Gibbs chain draws with;
//! * [`sampler`] — the sequential sweep driver (live count decrement);
//! * [`parallel`] — the AD-LDA-style chunked parallel sweep driver
//!   (frozen counts, per-worker delta slabs);
//! * [`shard`] — out-of-core training: sampler state sharded by user
//!   partition over a disk-streamed corpus, with periodic count
//!   reconciliation between super-sweeps;
//! * [`em`] — the Gibbs-EM power-law refit;
//! * [`diagnostics`] — per-iteration convergence telemetry (Fig. 5);
//! * [`model`] — the [`Mlp`] façade tying it together, and [`MlpResult`];
//! * [`snapshot`] — frozen posterior artifacts (versioned binary codec,
//!   v5 with a 64-byte-aligned section table for zero-copy mapped opens
//!   and CRC-framed mergeable delta records) for warm-start serving;
//! * [`infer`] — the fold-in engine predicting *unseen* users against a
//!   frozen snapshot, sequentially or batched across scoped threads (its
//!   chain draws mentions with the kernel's mention step);
//! * [`online`] — incremental posterior refresh: absorbing new users into
//!   mergeable [`snapshot::SnapshotDelta`]s and committing them without a
//!   retrain, under a bounded staleness policy;
//! * [`engine`] — **the serving facade**: [`engine::ServingEngine`] unifies
//!   train / fold-in / refresh behind one typed, concurrency-safe API with
//!   epoch-published snapshots (readers never wait on a commit,
//!   single-writer refresh). [`snapshot`], [`infer`], and [`online`]
//!   remain public as the
//!   low-level layer it is built from;
//! * [`coalesce`] — group-commit batching of concurrent single-user
//!   requests over the facade, answer-preserving by construction;
//! * [`wal`] — the durable write-ahead delta log behind file-backed
//!   engines: fsync'd CRC-framed records, recovery-on-open that replays
//!   the committed prefix and truncates torn tails, and atomic artifact
//!   replacement ([`wal::write_atomic`]).

pub mod candidacy;
pub mod coalesce;
pub mod config;
pub mod count_store;
pub mod diagnostics;
pub mod em;
pub mod engine;
pub mod fit;
pub mod geo_groups;
pub mod infer;
pub mod kernel;
pub mod model;
pub mod online;
pub mod parallel;
pub mod random_models;
pub mod sampler;
pub mod shard;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use candidacy::Candidacy;
pub use coalesce::Coalescer;
pub use config::{ConfigError, MlpConfig, Variant};
pub use count_store::{VenueCountStore, VenueRow, VenueSupport};
pub use diagnostics::{Diagnostics, IterationStats};
pub use engine::{
    response_determinism_hash, CommitInfo, EngineBuilder, EngineError, ProfileRequest,
    ProfileResponse, RankedCities, RecoveryReport, RefreshReport, RetrainDecision, RetrainReport,
    ServingEngine, SnapshotHandle,
};
pub use fit::fit_power_law_from_labels;
pub use geo_groups::{geo_groups, GeoGroup, GeoGrouping};
pub use infer::{
    determinism_hash, FoldInConfig, FoldInEngine, FoldInError, FoldInProfile, FoldInRecord,
    NewUserObservations,
};
pub use kernel::{CountView, ProfileView, SamplerView};
pub use model::{EdgeAssignment, MentionAssignment, Mlp, MlpResult};
pub use online::{OnlineError, OnlineUpdater, StalenessPolicy};
pub use random_models::RandomModels;
pub use shard::{train_corpus, ShardedTrainConfig, TrainError};
pub use snapshot::{
    gazetteer_fingerprint, inspect_artifact, ArtifactInfo, Integrity, PosteriorSnapshot,
    SectionInfo, SnapshotDelta, SnapshotError, UserArena, UserPosterior, UserView, VenueArena,
    CURRENT_ARTIFACT_VERSION,
};
pub use wal::{
    artifact_fingerprint, inspect_log, write_atomic, DeltaWal, WalError, WalInfo, WalRecovery,
};
