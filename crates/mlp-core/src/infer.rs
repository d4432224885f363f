//! Warm-start fold-in inference for unseen users.
//!
//! The serving question: the model was trained yesterday; a user it has
//! never seen shows up with a handful of observations (who they follow,
//! which venues they tweet). Where do they live? Re-running full-corpus
//! Gibbs per request is a non-starter; instead a [`FoldInEngine`] runs a
//! *short per-user Gibbs chain* against a frozen
//! [`PosteriorSnapshot`]:
//!
//! * the unseen user gets a candidate list built the same way training
//!   candidacy is (partner homes + venue resolutions + popular fallback);
//! * their edge partners are anchored at the snapshot's MAP homes, and
//!   partner profile terms are evaluated from the frozen mean counts `ϕ̄`;
//! * venue terms are evaluated from the frozen `φ` — the one fold-in
//!   approximation is that the new user's own venue tokens are *not*
//!   folded into `φ` (a single user's tokens are a vanishing perturbation
//!   of the trained posterior, and keeping `φ` frozen is what makes
//!   lock-free batching possible);
//! * the conditional weights are the exact training kernels
//!   ([`crate::kernel`], Eqs. 5–9) — the math is single-sourced, evaluated
//!   through a [`ProfileView`]/[`CountView`] pair that splices the one
//!   live user into the frozen posterior.
//!
//! Batching: each user's chain is independent, so
//! [`FoldInEngine::fold_in_batch`] fans a request slice across
//! `std::thread::scope` workers that share the read-only snapshot — no
//! locks, no count merging, nothing to reconcile. Every chain's RNG
//! stream is derived from the request *index*, not the worker, so a
//! batched run is bit-identical to the sequential one (pinned by the
//! warm-start determinism suite).

use crate::candidacy::popular_cities;
use crate::config::MlpConfig;
use crate::kernel::{self, CountView, Endpoint, ProfileView, SamplerView};
use crate::parallel::chunk_ranges;
use crate::random_models::RandomModels;
use crate::snapshot::{PosteriorSnapshot, UserPosterior};
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::KernelMatrix;
use mlp_sampling::{sample_categorical, Pcg64, SplitMix64};
use mlp_social::{Dataset, UserId};
use std::sync::{Arc, OnceLock};

/// Errors raised by fold-in inference.
///
/// Every condition a serving request can trigger — mismatched geography,
/// unknown ids, or a structurally inconsistent snapshot — surfaces here as
/// a typed error. The serving path never panics on request content: the
/// only `panic!`s left behind the public API guard *internal math
/// invariants* (`γ > 0` making categorical weights positive), which no
/// input reachable through this module can violate.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FoldInError {
    /// The snapshot was trained against a different gazetteer — shape
    /// (`cities`/`venues`) or content (`fingerprint`) differs.
    GazetteerMismatch {
        /// `(cities, venues, content fingerprint)` recorded in the snapshot.
        snapshot: (u32, u32, u64),
        /// The same triple for the gazetteer handed to the engine.
        gazetteer: (u32, u32, u64),
    },
    /// An observation referenced a user the snapshot does not contain.
    UnknownUser(UserId),
    /// An observation referenced a venue outside the vocabulary.
    UnknownVenue(VenueId),
    /// The snapshot itself is structurally inconsistent: the recorded MAP
    /// home of `user` is not in their candidate list, so the user cannot
    /// anchor a fold-in chain. Decoded artifacts are validated against
    /// this at thaw time; an in-memory snapshot assembled by hand can
    /// still violate it, and serving must reject — not crash on — it.
    InconsistentSnapshot(UserId),
    /// The engine could not build a non-empty candidate list (an empty
    /// gazetteer leaves even the popular-city fallback empty).
    NoCandidates,
}

impl std::fmt::Display for FoldInError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldInError::GazetteerMismatch { snapshot, gazetteer } => write!(
                f,
                "snapshot trained on {}x{} (cities x venues, content {:#x}) but gazetteer is \
                 {}x{} (content {:#x})",
                snapshot.0, snapshot.1, snapshot.2, gazetteer.0, gazetteer.1, gazetteer.2
            ),
            FoldInError::UnknownUser(u) => write!(f, "observation references unknown user {u}"),
            FoldInError::UnknownVenue(v) => {
                write!(f, "observation references unknown venue {}", v.0)
            }
            FoldInError::InconsistentSnapshot(u) => {
                write!(f, "snapshot home of user {u} is not one of their candidates")
            }
            FoldInError::NoCandidates => write!(f, "no candidate cities available for fold-in"),
        }
    }
}

impl std::error::Error for FoldInError {}

/// The observations an unseen user arrives with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NewUserObservations {
    /// Training users this user follows or is followed by (the edge
    /// selector is symmetric in both endpoints' profiles, so direction
    /// does not matter here).
    pub neighbors: Vec<UserId>,
    /// Venues this user mentioned, one entry per mention token.
    pub mentions: Vec<VenueId>,
}

impl NewUserObservations {
    /// Collects user `u`'s observations out of a dataset — the convenience
    /// path for evaluation, where "unseen" users live in a full dataset
    /// whose other users were used for training. For many users at once,
    /// [`Self::batch_from_dataset`] does the same in one corpus pass.
    pub fn from_dataset(dataset: &Dataset, u: UserId) -> Self {
        Self::batch_from_dataset(dataset, std::slice::from_ref(&u)).pop().expect("one user in")
    }

    /// [`Self::from_dataset`] for a whole request batch in a single pass
    /// over the corpus (`O(S + K + U)` instead of `O(U · (S + K))`).
    /// Output order matches `users`; a user appearing twice gets two
    /// copies of their observations.
    pub fn batch_from_dataset(dataset: &Dataset, users: &[UserId]) -> Vec<Self> {
        let mut slot = vec![usize::MAX; dataset.num_users()];
        // First slot wins so duplicates can be copied afterwards. Users
        // outside the dataset's id range simply collect nothing.
        for (i, &u) in users.iter().enumerate().rev() {
            if let Some(s) = slot.get_mut(u.index()) {
                *s = i;
            }
        }
        let mut out: Vec<Self> = vec![Self::default(); users.len()];
        let lookup = |slot: &[usize], u: UserId| -> Option<usize> {
            slot.get(u.index()).copied().filter(|&i| i != usize::MAX)
        };
        for e in &dataset.edges {
            if let Some(i) = lookup(&slot, e.follower) {
                out[i].neighbors.push(e.friend);
            }
            if let Some(i) = lookup(&slot, e.friend) {
                out[i].neighbors.push(e.follower);
            }
        }
        for m in &dataset.mentions {
            if let Some(i) = lookup(&slot, m.user) {
                out[i].mentions.push(m.venue);
            }
        }
        for (i, &u) in users.iter().enumerate() {
            match lookup(&slot, u) {
                Some(first) if first != i => out[i] = out[first].clone(),
                _ => {}
            }
        }
        out
    }
}

/// Fold-in chain configuration.
#[derive(Debug, Clone)]
pub struct FoldInConfig {
    /// Sweeps of the per-user chain. The domain is a handful of candidate
    /// cities, so short chains mix quickly.
    pub sweeps: usize,
    /// Sweeps discarded before `θ̂` accumulation.
    pub burn_in: usize,
    /// RNG seed; combined with each request's index in the batch.
    pub seed: u64,
    /// Candidate fallback size for users with no usable signal.
    pub fallback_popular_k: usize,
    /// Worker threads for [`FoldInEngine::fold_in_batch`]. Results are
    /// bit-identical for every value.
    pub threads: usize,
}

impl Default for FoldInConfig {
    fn default() -> Self {
        Self { sweeps: 20, burn_in: 8, seed: 7, fallback_popular_k: 10, threads: 1 }
    }
}

impl FoldInConfig {
    /// Validates the configuration; returns the first violation.
    ///
    /// [`FoldInEngine`] itself stays permissive for backward compatibility
    /// (`threads: 0` runs sequentially, `sweeps: 0` clamps to one, a
    /// burn-in swallowing every sweep falls back to the final sample) —
    /// this is the strict check the [`crate::engine::EngineBuilder`] build paths
    /// enforces so a serving deployment cannot run degenerate chains.
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::ConfigError;
        if self.sweeps == 0 {
            return Err(ConfigError::Zero("sweeps"));
        }
        if self.burn_in >= self.sweeps {
            return Err(ConfigError::BurnInTooLarge {
                burn_in: self.burn_in,
                chain_len: self.sweeps,
            });
        }
        if self.threads == 0 {
            return Err(ConfigError::Zero("threads"));
        }
        if self.fallback_popular_k == 0 {
            return Err(ConfigError::Zero("fallback_popular_k"));
        }
        Ok(())
    }
}

/// An unseen user's inferred location profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldInProfile {
    /// `θ̂` over the user's candidates, `(city, probability)` sorted by
    /// descending probability (ties broken by city id, as in training).
    pub profile: Vec<(CityId, f64)>,
}

impl FoldInProfile {
    /// Predicted home location (argmax of `θ̂`).
    pub fn home(&self) -> CityId {
        self.profile[0].0
    }

    /// The top-`k` locations.
    pub fn top_k(&self, k: usize) -> Vec<CityId> {
        self.profile.iter().take(k).map(|&(c, _)| c).collect()
    }
}

/// One fold-in chain's full output: the serving profile plus everything an
/// online commit needs to append the user to the posterior
/// ([`crate::online::OnlineUpdater`]).
///
/// The profile is bit-identical to what [`FoldInEngine::fold_in`] returns —
/// the record only *additionally* keeps the chain's mean counts in
/// arena-ready form and the expected venue-count contributions of the
/// user's location-based mentions.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldInRecord {
    /// The serving answer (`θ̂` sorted by descending probability).
    pub profile: FoldInProfile,
    /// The user's posterior row, ready to append to a
    /// [`crate::snapshot::UserArena`].
    pub posterior: UserPosterior,
    /// Expected `φ` increments `(city, venue, weight)` from the user's
    /// location-based mentions, sorted by `(city, venue)` with unique
    /// keys. Weights are post-burn-in expectations, so they are
    /// fractional and non-negative.
    pub venue_deltas: Vec<(CityId, VenueId, f64)>,
}

/// FNV-1a over the bit patterns of a prediction set — the serving-path
/// fingerprint the determinism suite (and the CI smoke job) pins.
pub fn determinism_hash(profiles: &[FoldInProfile]) -> u64 {
    determinism_hash_rankings(profiles.iter().map(|p| p.profile.as_slice()))
}

/// The hash behind [`determinism_hash`], generic over how the rankings are
/// stored so [`crate::engine::response_determinism_hash`] produces the
/// *same* fingerprint for the same predictions.
pub(crate) fn determinism_hash_rankings<'s>(
    rankings: impl Iterator<Item = &'s [(CityId, f64)]>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ranked in rankings {
        eat(ranked.len() as u64);
        for &(c, w) in ranked {
            eat(c.0 as u64);
            eat(w.to_bits());
        }
    }
    h
}

/// The profile view the kernel evaluates during fold-in: training users
/// resolve to the frozen snapshot, the one transient user to their local
/// candidate list.
struct FoldInProfiles<'a> {
    snap: &'a PosteriorSnapshot,
    new_user: UserId,
    candidates: Vec<CityId>,
    gammas: Vec<f64>,
    gamma_total: f64,
}

impl ProfileView for FoldInProfiles<'_> {
    #[inline]
    fn candidates(&self, u: UserId) -> &[CityId] {
        if u == self.new_user {
            &self.candidates
        } else {
            self.snap.users.candidates_of(u)
        }
    }

    #[inline]
    fn gammas(&self, u: UserId) -> &[f64] {
        if u == self.new_user {
            &self.gammas
        } else {
            self.snap.users.gammas_of(u)
        }
    }

    #[inline]
    fn gamma_total(&self, u: UserId) -> f64 {
        if u == self.new_user {
            self.gamma_total
        } else {
            self.snap.users.gamma_total(u)
        }
    }
}

/// The count view: frozen `ϕ̄`/`φ` for everything trained, live `ϕ` for
/// the one user being folded in. The chain excludes a relationship by
/// decrementing these live counts before it calls a kernel step, as the
/// sequential sweep does with its state, and adds the new draw back after;
/// the trained counts are never touched.
struct FoldInCounts<'a> {
    snap: &'a PosteriorSnapshot,
    new_user: UserId,
    counts: Vec<f64>,
    total: f64,
}

impl FoldInCounts<'_> {
    /// Adds `by` to the new user's count at candidate index `c`.
    #[inline]
    fn add(&mut self, c: usize, by: f64) {
        self.counts[c] += by;
        self.total += by;
    }
}

impl CountView for FoldInCounts<'_> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        if u == self.new_user {
            self.counts[c]
        } else {
            self.snap.users.mean_counts_of(u)[c]
        }
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        if u == self.new_user {
            self.total
        } else {
            self.snap.users.mean_total(u)
        }
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        self.snap.venue_count(l, v)
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.snap.venues.city_total(l)
    }
}

/// Everything [`FoldInEngine::new`] derives from a snapshot besides the
/// frozen counts themselves: the thawed noise models, the reassembled
/// hyper-parameters, the popular-city fallback list, and the power law's
/// per-city-pair kernel table. None of it changes when delta commits
/// append users, so
/// [`crate::engine::ServingEngine`] derives it once at build time and
/// rebuilds per-epoch engines from clones through
/// [`FoldInEngine::from_validated_parts`] — skipping the per-call
/// gazetteer-fingerprint walk.
#[derive(Debug, Clone)]
pub(crate) struct DerivedParts {
    /// Thawed noise models (exact training-time probabilities).
    pub(crate) random: RandomModels,
    /// Hyper-parameters reassembled for the kernel's `SamplerView`.
    pub(crate) mlp_config: MlpConfig,
    /// Fallback candidates for signal-free users: the most populous
    /// cities, sorted by id.
    pub(crate) popular: Vec<CityId>,
    /// `d^α` per city pair for the snapshot's power law. The first
    /// fold-in builds it; every clone (each epoch, commit and checkpoint
    /// rebase) shares it, so opening a model never pays for it.
    kernel: Arc<OnceLock<KernelMatrix>>,
}

impl DerivedParts {
    pub(crate) fn derive(
        snap: &PosteriorSnapshot,
        gaz: &Gazetteer,
        fallback_popular_k: usize,
    ) -> Self {
        Self {
            random: RandomModels::from_frozen(snap.follow_prob, snap.venue_probs.clone()),
            mlp_config: MlpConfig {
                variant: snap.variant,
                count_noisy_assignments: snap.count_noisy_assignments,
                tau: snap.tau,
                delta: snap.delta,
                rho_f: snap.rho_f,
                rho_t: snap.rho_t,
                power_law: snap.power_law,
                fit_power_law_from_data: false,
                ..Default::default()
            },
            popular: popular_cities(gaz, fallback_popular_k),
            kernel: Arc::default(),
        }
    }

    /// The kernel table, built on first use.
    fn kernel(&self, gaz: &Gazetteer) -> &KernelMatrix {
        self.kernel.get_or_init(|| KernelMatrix::build(gaz.distances(), self.mlp_config.power_law))
    }
}

/// The fold-in engine: a frozen snapshot plus everything derived from it
/// once, shared read-only by every chain (and every batch worker).
pub struct FoldInEngine<'a> {
    snap: &'a PosteriorSnapshot,
    gaz: &'a Gazetteer,
    config: FoldInConfig,
    /// See [`DerivedParts`].
    parts: DerivedParts,
}

impl<'a> FoldInEngine<'a> {
    /// Binds a snapshot to the gazetteer it was trained against.
    pub fn new(
        snap: &'a PosteriorSnapshot,
        gaz: &'a Gazetteer,
        config: FoldInConfig,
    ) -> Result<Self, FoldInError> {
        let gaz_print = crate::snapshot::gazetteer_fingerprint(gaz);
        if snap.num_cities as usize != gaz.num_cities()
            || snap.num_venues as usize != gaz.num_venues()
            || snap.gaz_fingerprint != gaz_print
        {
            return Err(FoldInError::GazetteerMismatch {
                snapshot: (snap.num_cities, snap.num_venues, snap.gaz_fingerprint),
                gazetteer: (gaz.num_cities() as u32, gaz.num_venues() as u32, gaz_print),
            });
        }
        let parts = DerivedParts::derive(snap, gaz, config.fallback_popular_k);
        Ok(Self { snap, gaz, config, parts })
    }

    /// The fast path for [`crate::engine::ServingEngine`]: rebinds an
    /// engine to a (possibly delta-refreshed) snapshot from parts the
    /// caller derived when it validated the snapshot/gazetteer pairing —
    /// no fingerprint walk, no re-derivation. Callers must guarantee
    /// `parts` came from [`DerivedParts::derive`] over the same gazetteer
    /// and hyper-parameters (delta commits never change either).
    pub(crate) fn from_validated_parts(
        snap: &'a PosteriorSnapshot,
        gaz: &'a Gazetteer,
        config: FoldInConfig,
        parts: DerivedParts,
    ) -> Self {
        Self { snap, gaz, config, parts }
    }

    /// The engine's fold-in configuration.
    pub fn config(&self) -> &FoldInConfig {
        &self.config
    }

    /// Folds in a single unseen user (RNG stream of batch index 0).
    pub fn fold_in(&self, obs: &NewUserObservations) -> Result<FoldInProfile, FoldInError> {
        self.fold_in_indexed(0, obs, false).map(|r| r.profile)
    }

    /// Folds in a batch of unseen users. With `threads > 1` the batch is
    /// chunked across scoped workers sharing the read-only snapshot;
    /// results are bit-identical to the sequential run because every
    /// chain's RNG stream depends only on its index in `batch`.
    ///
    /// `threads: 0` behaves as `1` (exact sequential), and a batch shorter
    /// than the thread count simply leaves the surplus workers idle.
    pub fn fold_in_batch(
        &self,
        batch: &[NewUserObservations],
    ) -> Result<Vec<FoldInProfile>, FoldInError> {
        self.fold_in_batch_by(batch.len(), |i| &batch[i])
    }

    /// [`Self::fold_in_batch`] fetching each request's observations by
    /// index — the crate-internal bridge for callers whose batches wrap
    /// observations in a richer request type
    /// ([`crate::engine::ServingEngine::profile_batch`]), avoiding an
    /// intermediate owned copy of every neighbor/mention list.
    pub(crate) fn fold_in_batch_by<'b>(
        &self,
        len: usize,
        get: impl Fn(usize) -> &'b NewUserObservations + Sync,
    ) -> Result<Vec<FoldInProfile>, FoldInError> {
        self.fold_in_each(len, |i| self.fold_in_indexed(i, get(i), false).map(|r| r.profile))
    }

    /// [`Self::fold_in_batch_by`] with every chain pinned to the RNG
    /// stream of batch index 0: each answer is bit-identical to a
    /// standalone [`Self::fold_in`] call on that request alone. This is
    /// the coalescing contract ([`crate::coalesce`]) — grouping
    /// concurrent single-user requests into one wave must not change any
    /// answer, no matter which requests happen to share the wave.
    pub(crate) fn fold_in_singletons_by<'b>(
        &self,
        len: usize,
        get: impl Fn(usize) -> &'b NewUserObservations + Sync,
    ) -> Result<Vec<FoldInProfile>, FoldInError> {
        self.fold_in_each(len, |i| self.fold_in_indexed(0, get(i), false).map(|r| r.profile))
    }

    /// [`Self::fold_in_batch`] returning full [`FoldInRecord`]s — the
    /// commit-ready form the online updater consumes. Profiles are
    /// bit-identical to [`Self::fold_in_batch`] on the same batch (the
    /// extra bookkeeping draws no randomness).
    pub fn fold_in_records(
        &self,
        batch: &[NewUserObservations],
    ) -> Result<Vec<FoldInRecord>, FoldInError> {
        self.fold_in_each(batch.len(), |i| self.fold_in_indexed(i, &batch[i], true))
    }

    /// Shared batch scheduler: chunks request indices `0..len` across
    /// scoped workers (or runs inline for `threads <= 1`), preserving
    /// request order.
    fn fold_in_each<T: Send>(
        &self,
        len: usize,
        run: impl Fn(usize) -> Result<T, FoldInError> + Sync,
    ) -> Result<Vec<T>, FoldInError> {
        let threads = self.config.threads.max(1);
        // Single-request batches never pay the scoped-spawn setup, even
        // with a multi-threaded configuration: one chain cannot be split,
        // and inline execution is bit-identical (streams depend only on
        // the request index, not on which thread runs the chain).
        if threads == 1 || len <= 1 {
            return (0..len).map(&run).collect();
        }
        let run = &run;
        let chunks = chunk_ranges(len, threads);
        let outs: Vec<Result<Vec<T>, FoldInError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|range| scope.spawn(move || range.map(run).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("fold-in worker")).collect()
        });
        let mut merged = Vec::with_capacity(len);
        for out in outs {
            merged.extend(out?);
        }
        Ok(merged)
    }

    /// One user's complete fold-in chain. `index` is the user's position
    /// in the request batch; it seeds the chain's RNG stream.
    /// `collect_venues` additionally accumulates the expected venue-count
    /// contributions (pure bookkeeping — no extra RNG draws, so profiles
    /// are identical either way).
    fn fold_in_indexed(
        &self,
        index: usize,
        obs: &NewUserObservations,
        collect_venues: bool,
    ) -> Result<FoldInRecord, FoldInError> {
        let snap = self.snap;
        let uses_following = snap.variant.uses_following();
        let uses_tweeting = snap.variant.uses_tweeting();

        // Validate + gather the observations the variant consumes.
        for &p in &obs.neighbors {
            if p.index() >= snap.users.num_users() {
                return Err(FoldInError::UnknownUser(p));
            }
        }
        for &v in &obs.mentions {
            if v.index() >= snap.num_venues as usize {
                return Err(FoldInError::UnknownVenue(v));
            }
        }
        let neighbors: &[UserId] = if uses_following { &obs.neighbors } else { &[] };
        let mentions: &[VenueId] = if uses_tweeting { &obs.mentions } else { &[] };

        // Candidate list, the training recipe transplanted: partner homes
        // + venue resolutions, popular-city fallback when signal-free.
        let mut candidates: Vec<CityId> = neighbors.iter().map(|&p| snap.users.home(p)).collect();
        for &v in mentions {
            candidates.extend(self.gaz.resolve_venue(v).iter().copied());
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            candidates = self.parts.popular.clone();
        }
        if candidates.is_empty() {
            return Err(FoldInError::NoCandidates);
        }

        let gammas = vec![snap.tau; candidates.len()];
        let gamma_total = snap.tau * candidates.len() as f64;
        let new_user = UserId(snap.users.num_users() as u32);

        // Partner anchors, fixed for the whole chain. Thawed artifacts are
        // validated at decode time, but a hand-assembled snapshot can
        // still record a home outside the candidate list — a typed error,
        // never a crash, on the serving path.
        let anchors: Vec<Endpoint> = neighbors
            .iter()
            .map(|&p| {
                let up = snap.users.user(p);
                let pos = up
                    .candidates
                    .binary_search(&up.home)
                    .map_err(|_| FoldInError::InconsistentSnapshot(p))?;
                Ok(Endpoint { user: p, pos, city: up.home })
            })
            .collect::<Result<_, FoldInError>>()?;

        let profiles = FoldInProfiles { snap, new_user, candidates, gammas, gamma_total };
        let kernel = self.parts.kernel(self.gaz);
        debug_assert_eq!(kernel.law(), snap.power_law, "parts derived from another snapshot");
        let view: SamplerView<'_, FoldInProfiles<'_>> = SamplerView {
            gaz: self.gaz,
            candidacy: &profiles,
            random: &self.parts.random,
            config: &self.parts.mlp_config,
            kernel,
        };
        let mut counts = FoldInCounts {
            snap,
            new_user,
            counts: vec![0.0; profiles.candidates.len()],
            total: 0.0,
        };
        let count_noisy = snap.count_noisy_assignments;

        let mut rng =
            Pcg64::new(SplitMix64::derive(self.config.seed, 0x0F1D_0000_0000_0000 ^ index as u64));

        // Init at the conditional mode (the training initialisation
        // transplanted): the candidate maximising aggregate distance
        // log-likelihood to the anchors plus a venue-resolution bonus.
        let mode = {
            let cands = &profiles.candidates;
            let mut scores = vec![0.0f64; cands.len()];
            let mut has_signal = !anchors.is_empty();
            for a in &anchors {
                kernel::score_anchor(kernel, a.city, cands, &mut scores);
            }
            for &v in mentions {
                has_signal |= kernel::score_venue(self.gaz, kernel, v, cands, &mut scores);
            }
            kernel::init_mode(None, has_signal, &scores)
        };
        let pos = |rng: &mut Pcg64| kernel::init_position(rng, mode, profiles.candidates.len());

        let (mut mu, mut x): (Vec<bool>, Vec<usize>) =
            anchors.iter().map(|_| (rng.bernoulli(snap.rho_f), pos(&mut rng))).unzip();
        let (mut nu, mut z): (Vec<bool>, Vec<usize>) =
            mentions.iter().map(|_| (rng.bernoulli(snap.rho_t), pos(&mut rng))).unzip();
        for (&noisy, &c) in mu.iter().zip(&x).chain(nu.iter().zip(&z)) {
            if !noisy || count_noisy {
                counts.add(c, 1.0);
            }
        }

        // The chain. Venue tokens stay out of φ (see module docs), so
        // mention exclusion only touches the live ϕ. When collecting for
        // an online commit, `venue_acc[k * C + c]` additionally counts the
        // post-burn-in sweeps where mention `k` sat location-based at
        // candidate `c`.
        let ncand = profiles.candidates.len();
        let mut acc = vec![0.0f64; ncand];
        let mut venue_acc =
            if collect_venues { vec![0.0f64; mentions.len() * ncand] } else { Vec::new() };
        let mut acc_sweeps = 0u32;
        let mut buf: Vec<f64> = Vec::new();
        for sweep in 0..self.config.sweeps.max(1) {
            for (s, anchor) in anchors.iter().enumerate() {
                let (old_mu, old_x) = (mu[s], x[s]);
                if !old_mu || count_noisy {
                    counts.add(old_x, -1.0);
                }
                let me = Endpoint { user: new_user, pos: old_x, city: profiles.candidates[old_x] };
                let (w_based, w_noisy) = kernel::edge_selector_weights(&view, &counts, me, *anchor);
                let new_mu = rng.next_f64() * (w_based + w_noisy) < w_noisy;
                kernel::edge_position_weights(
                    &view,
                    &counts,
                    new_user,
                    (!new_mu).then_some(anchor.city),
                    &mut buf,
                );
                let new_x = sample_categorical(&mut rng, &buf)
                    .expect("fold-in x weights are positive (γ > 0)");
                if !new_mu || count_noisy {
                    counts.add(new_x, 1.0);
                }
                mu[s] = new_mu;
                x[s] = new_x;
            }
            for (k, &v) in mentions.iter().enumerate() {
                if !nu[k] || count_noisy {
                    counts.add(z[k], -1.0);
                }
                let (new_nu, new_z) =
                    kernel::mention_step(&view, &counts, (new_user, z[k]), v, &mut rng, &mut buf);
                if !new_nu || count_noisy {
                    counts.add(new_z, 1.0);
                }
                nu[k] = new_nu;
                z[k] = new_z;
            }
            if sweep >= self.config.burn_in {
                for (a, &c) in acc.iter_mut().zip(&counts.counts) {
                    *a += c;
                }
                if collect_venues {
                    for (k, _) in mentions.iter().enumerate() {
                        if !nu[k] {
                            venue_acc[k * ncand + z[k]] += 1.0;
                        }
                    }
                }
                acc_sweeps += 1;
            }
        }

        // θ̂ per Eq. 10 over the accumulated means (falling back to the
        // final sample when burn_in swallowed every sweep).
        let mean: Vec<f64> = (0..ncand)
            .map(|c| if acc_sweeps == 0 { counts.counts[c] } else { acc[c] / acc_sweeps as f64 })
            .collect();
        let mean_total: f64 = mean.iter().sum();
        let total = mean_total + profiles.gamma_total;
        let mut profile: Vec<(CityId, f64)> = profiles
            .candidates
            .iter()
            .enumerate()
            .map(|(c, &city)| (city, (mean[c] + profiles.gammas[c]) / total))
            .collect();
        profile.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        // Expected φ contributions of the location-based mentions, merged
        // over mentions of the same venue: sorted-unique (city, venue)
        // keys, ready for an index-wise delta merge at commit time.
        let venue_deltas = if collect_venues {
            let mut raw: Vec<(CityId, VenueId, f64)> = Vec::new();
            if acc_sweeps == 0 {
                for (k, &v) in mentions.iter().enumerate() {
                    if !nu[k] {
                        raw.push((profiles.candidates[z[k]], v, 1.0));
                    }
                }
            } else {
                for (k, &v) in mentions.iter().enumerate() {
                    for (c, &city) in profiles.candidates.iter().enumerate() {
                        let w = venue_acc[k * ncand + c];
                        if w > 0.0 {
                            raw.push((city, v, w / acc_sweeps as f64));
                        }
                    }
                }
            }
            raw.sort_unstable_by_key(|&(l, v, _)| (l, v));
            let mut merged: Vec<(CityId, VenueId, f64)> = Vec::with_capacity(raw.len());
            for (l, v, w) in raw {
                match merged.last_mut() {
                    Some(last) if last.0 == l && last.1 == v => last.2 += w,
                    _ => merged.push((l, v, w)),
                }
            }
            merged
        } else {
            Vec::new()
        };

        let home = profile[0].0;
        let FoldInProfiles { candidates, gammas, gamma_total, .. } = profiles;
        Ok(FoldInRecord {
            profile: FoldInProfile { profile },
            posterior: UserPosterior {
                candidates,
                gammas,
                mean_counts: mean,
                mean_total,
                gamma_total,
                home,
            },
            venue_deltas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidacy::Candidacy;
    use crate::sampler::GibbsSampler;
    use mlp_social::{Adjacency, GeneratedData, Generator, GeneratorConfig};

    fn train(users: usize, seed: u64) -> (Gazetteer, GeneratedData, PosteriorSnapshot) {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
                .generate();
        let config = MlpConfig { seed, ..Default::default() };
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let mut sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        for _ in 0..8 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        let snap = PosteriorSnapshot::freeze(&sampler);
        (gaz, data, snap)
    }

    #[test]
    fn neighbors_in_one_city_pull_the_new_user_there() {
        let (gaz, data, snap) = train(150, 101);
        // Pick a labeled training user and pretend a new user follows them
        // (and two of their labeled neighbors' homes resolve nearby).
        let labeled: Vec<UserId> = data.dataset.labeled_users().collect();
        let anchor = labeled[0];
        let obs = NewUserObservations { neighbors: vec![anchor, anchor, anchor], mentions: vec![] };
        let engine = FoldInEngine::new(&snap, &gaz, FoldInConfig::default()).unwrap();
        let profile = engine.fold_in(&obs).unwrap();
        let anchor_home = snap.users.user(anchor).home;
        assert!(
            gaz.distance(profile.home(), anchor_home) <= 100.0,
            "fold-in home {} should be near the only anchor {}",
            gaz.city(profile.home()).full_name(),
            gaz.city(anchor_home).full_name()
        );
        // The profile is a distribution.
        let sum: f64 = profile.profile.iter().map(|&(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn signal_free_user_falls_back_to_popular_cities() {
        let (gaz, _, snap) = train(60, 103);
        let engine = FoldInEngine::new(&snap, &gaz, FoldInConfig::default()).unwrap();
        let profile = engine.fold_in(&NewUserObservations::default()).unwrap();
        assert_eq!(profile.profile.len(), engine.config().fallback_popular_k);
    }

    #[test]
    fn batched_is_bit_identical_to_sequential() {
        let (gaz, data, snap) = train(200, 107);
        let batch: Vec<NewUserObservations> =
            (0..40).map(|u| NewUserObservations::from_dataset(&data.dataset, UserId(u))).collect();
        let seq_engine =
            FoldInEngine::new(&snap, &gaz, FoldInConfig { threads: 1, ..Default::default() })
                .unwrap();
        let par_engine =
            FoldInEngine::new(&snap, &gaz, FoldInConfig { threads: 4, ..Default::default() })
                .unwrap();
        let seq = seq_engine.fold_in_batch(&batch).unwrap();
        let par = par_engine.fold_in_batch(&batch).unwrap();
        assert_eq!(seq, par);
        assert_eq!(determinism_hash(&seq), determinism_hash(&par));
    }

    #[test]
    fn single_request_fast_path_is_bit_identical_to_spawned() {
        // A one-request batch takes the inline no-spawn path even with
        // `threads: 4`; its answer must stay bit-identical to the same
        // request served as the head of a spawned multi-request batch
        // (streams depend only on batch index, never on the executing
        // thread).
        let (gaz, data, snap) = train(120, 111);
        let batch: Vec<NewUserObservations> =
            (0..8).map(|u| NewUserObservations::from_dataset(&data.dataset, UserId(u))).collect();
        let engine =
            FoldInEngine::new(&snap, &gaz, FoldInConfig { threads: 4, ..Default::default() })
                .unwrap();
        let spawned = engine.fold_in_batch(&batch).unwrap();
        let inline = engine.fold_in_batch(&batch[..1]).unwrap();
        assert_eq!(inline[0], spawned[0]);
        // And the single-request convenience rides the same fast path.
        assert_eq!(engine.fold_in(&batch[0]).unwrap(), spawned[0]);
    }

    #[test]
    fn unknown_references_fail_loudly() {
        let (gaz, _, snap) = train(50, 109);
        let engine = FoldInEngine::new(&snap, &gaz, FoldInConfig::default()).unwrap();
        let bad_user = NewUserObservations { neighbors: vec![UserId(9_999)], mentions: vec![] };
        assert_eq!(engine.fold_in(&bad_user).unwrap_err(), FoldInError::UnknownUser(UserId(9_999)));
        let bad_venue =
            NewUserObservations { neighbors: vec![], mentions: vec![VenueId(u32::MAX)] };
        assert_eq!(
            engine.fold_in(&bad_venue).unwrap_err(),
            FoldInError::UnknownVenue(VenueId(u32::MAX))
        );
        // A batch propagates the first error.
        assert!(engine.fold_in_batch(std::slice::from_ref(&bad_user)).is_err());
    }

    #[test]
    fn engine_rejects_mismatched_gazetteer() {
        let (gaz, _, snap) = train(50, 113);
        // Shape mismatch: `with_synthetic` only grows the table, so ask
        // for strictly more cities than the snapshot's gazetteer has.
        let other = Gazetteer::with_synthetic(&mlp_gazetteer::SynthConfig {
            total_cities: gaz.num_cities() + 25,
            seed: 1,
            ..Default::default()
        });
        assert!(matches!(
            FoldInEngine::new(&snap, &other, FoldInConfig::default()),
            Err(FoldInError::GazetteerMismatch { .. })
        ));

        // Content mismatch with *identical* shape: same cities, one
        // population nudged. City ids would all "fit" — the content
        // fingerprint is what catches it.
        let mut cities = gaz.cities().to_vec();
        cities[0].population += 1;
        let same_shape = Gazetteer::from_cities(cities);
        assert_eq!(same_shape.num_cities(), gaz.num_cities());
        assert_eq!(same_shape.num_venues(), gaz.num_venues());
        assert!(matches!(
            FoldInEngine::new(&snap, &same_shape, FoldInConfig::default()),
            Err(FoldInError::GazetteerMismatch { .. })
        ));
    }

    #[test]
    fn batch_observation_builder_matches_per_user_scan() {
        let (_, data, _) = train(80, 131);
        // Duplicates and an out-of-range id exercise the slot logic.
        let users = vec![UserId(3), UserId(0), UserId(3), UserId(79), UserId(9_999), UserId(12)];
        let batch = NewUserObservations::batch_from_dataset(&data.dataset, &users);
        assert_eq!(batch.len(), users.len());
        for (&u, obs) in users.iter().zip(&batch) {
            if u.index() < data.dataset.num_users() {
                let mut expect = NewUserObservations::default();
                for e in &data.dataset.edges {
                    if e.follower == u {
                        expect.neighbors.push(e.friend);
                    } else if e.friend == u {
                        expect.neighbors.push(e.follower);
                    }
                }
                for m in &data.dataset.mentions {
                    if m.user == u {
                        expect.mentions.push(m.venue);
                    }
                }
                assert_eq!(obs, &expect, "user {u}");
            } else {
                assert_eq!(obs, &NewUserObservations::default(), "out-of-range {u}");
            }
        }
        assert_eq!(batch[0], batch[2], "duplicate users share observations");
    }

    #[test]
    fn variant_gates_which_observations_are_consumed() {
        // A TweetingOnly snapshot must ignore neighbors entirely: folding
        // in with and without them gives identical profiles.
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 120, seed: 127, ..Default::default() },
        )
        .generate();
        let config = MlpConfig::tweeting_only();
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let mut sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        for _ in 0..6 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        let snap = PosteriorSnapshot::freeze(&sampler);
        let engine = FoldInEngine::new(&snap, &gaz, FoldInConfig::default()).unwrap();

        let mentions = NewUserObservations::from_dataset(&data.dataset, UserId(0)).mentions;
        let with_neighbors = NewUserObservations {
            neighbors: data.dataset.labeled_users().take(3).collect(),
            mentions: mentions.clone(),
        };
        let without = NewUserObservations { neighbors: vec![], mentions };
        assert_eq!(
            engine.fold_in(&with_neighbors).unwrap(),
            engine.fold_in(&without).unwrap(),
            "TweetingOnly fold-in must not consume edges"
        );
    }
}
