//! Incremental posterior refresh: committing what serving learns back
//! into the model, without retraining.
//!
//! The model is trained once by collapsed Gibbs sampling and frozen into
//! a [`PosteriorSnapshot`]; fold-in serving ([`crate::infer`]) then
//! answers unseen-user requests against the immutable artifact. That
//! leaves a gap for a long-running system: every served user's inferred
//! posterior — and the venue evidence they arrived with — is thrown away,
//! so the model drifts ever further from the population it serves until
//! someone pays for a full retrain.
//!
//! [`OnlineUpdater`] closes the gap:
//!
//! * **absorb** — fold a batch of new users into the current snapshot
//!   (the exact serving chains, so answers match what a serving replica
//!   would have said) and stage their posterior rows plus expected venue
//!   counts in a pending [`SnapshotDelta`];
//! * **commit** — apply the pending delta to the snapshot: user rows
//!   append to the CSR user arena and `φ` increments merge index-wise
//!   into the venue CSR. No clone of the trained state, no retrain;
//!   committed users become first-class — later requests can reference
//!   them as neighbors, and their venue evidence sharpens `φ` for
//!   everyone;
//! * **bounded staleness** — deltas are an approximation (absorbed users
//!   are folded in against frozen counts; trained users' rows never
//!   move), so a [`StalenessPolicy`] says when the accumulated error
//!   warrants a cold retrain: after a commit budget, or when a measured
//!   drift metric (e.g. the `mlp-eval` drift report comparing refreshed
//!   vs cold-retrained accuracy) crosses a threshold.
//!
//! The updater persists nothing. A committed delta reaches disk only as
//! a record of the durable engine's write-ahead log ([`crate::wal`]),
//! and every artifact is the folded posterior
//! ([`PosteriorSnapshot::try_encode`] of [`OnlineUpdater::snapshot`]).
//!
//! Everything is deterministic: absorbing the same batches in the same
//! order commits byte-identical posteriors (pinned by the online-refresh
//! determinism suite), because every fold-in chain draws from the one
//! seed-derived stream and delta merges are index-wise. An absorbed user's
//! profile is the answer serving gives that request alone.

use crate::infer::{FoldInConfig, FoldInEngine, FoldInError, FoldInProfile, NewUserObservations};
use crate::snapshot::{PosteriorSnapshot, SnapshotDelta, SnapshotError};
use mlp_gazetteer::Gazetteer;

/// Errors raised while building an [`OnlineUpdater`] — either the serving
/// side (snapshot/gazetteer mismatch) or the format side (unencodable
/// state) can object.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub enum OnlineError {
    /// The snapshot cannot serve against this gazetteer.
    FoldIn(FoldInError),
    /// The snapshot cannot be encoded/committed within format limits.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::FoldIn(e) => write!(f, "{e}"),
            OnlineError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::FoldIn(e) => Some(e),
            OnlineError::Snapshot(e) => Some(e),
        }
    }
}

impl From<FoldInError> for OnlineError {
    fn from(e: FoldInError) -> Self {
        OnlineError::FoldIn(e)
    }
}

impl From<SnapshotError> for OnlineError {
    fn from(e: SnapshotError) -> Self {
        OnlineError::Snapshot(e)
    }
}

/// When accumulated online updates warrant a cold retrain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// Refresh after this many commits (0 disables the commit budget).
    pub refresh_after_commits: usize,
    /// Refresh once the recorded drift metric exceeds this (an accuracy
    /// gap, so e.g. `0.05` = refreshed serving trails a cold retrain by
    /// five accuracy points).
    pub drift_threshold: f64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        Self { refresh_after_commits: 8, drift_threshold: 0.05 }
    }
}

/// Accumulates new-user observations into mergeable deltas and commits
/// them into a [`PosteriorSnapshot`] — the online half of the train /
/// serve / refresh loop. See the module docs for the lifecycle.
pub struct OnlineUpdater<'a> {
    gaz: &'a Gazetteer,
    snapshot: PosteriorSnapshot,
    fold_in: FoldInConfig,
    policy: StalenessPolicy,
    /// Snapshot-derived fold-in state (noise models, hyper-parameters,
    /// popular fallback), derived once here — delta commits never change
    /// it — so each absorb rebinds a fold-in engine without re-walking
    /// the gazetteer fingerprint or re-sorting cities.
    parts: crate::infer::DerivedParts,
    /// Staged but not yet committed.
    pending: SnapshotDelta,
    /// The last commit's delta, until a rebase. Earlier commits live on
    /// only in the snapshot (and in a durable engine's log), so an
    /// updater that never rebases holds one delta, not every absorbed row.
    last_commit: Option<SnapshotDelta>,
    commits: usize,
    last_drift: f64,
}

impl<'a> OnlineUpdater<'a> {
    /// Binds a trained snapshot to its gazetteer. Fails (typed) when the
    /// snapshot was trained against different geography or exceeds the
    /// format's encodable limits.
    pub fn new(
        gaz: &'a Gazetteer,
        snapshot: PosteriorSnapshot,
        fold_in: FoldInConfig,
        policy: StalenessPolicy,
    ) -> Result<Self, OnlineError> {
        // Engine construction performs the fingerprint validation; the
        // engine itself is rebuilt per absorb (the snapshot mutates
        // between commits) from the parts derived here.
        FoldInEngine::new(&snapshot, gaz, fold_in.clone())?;
        let parts = crate::infer::DerivedParts::derive(&snapshot, gaz, fold_in.fallback_popular_k);
        let base_users = snapshot.num_users() as u32;
        Ok(Self {
            gaz,
            snapshot,
            fold_in,
            policy,
            parts,
            pending: SnapshotDelta::new(base_users),
            last_commit: None,
            commits: 0,
            last_drift: 0.0,
        })
    }

    /// The current (base + committed deltas) posterior. Pending absorbed
    /// users are *not* visible here until [`Self::commit`].
    pub fn snapshot(&self) -> &PosteriorSnapshot {
        &self.snapshot
    }

    /// The snapshot-derived fold-in state computed at construction —
    /// shared with [`crate::engine::ServingEngine`] so the read path and
    /// the absorb path can never derive divergent copies.
    pub(crate) fn derived_parts(&self) -> &crate::infer::DerivedParts {
        &self.parts
    }

    /// Consumes the updater, returning the refreshed snapshot (pending
    /// uncommitted work is dropped).
    pub fn into_snapshot(self) -> PosteriorSnapshot {
        self.snapshot
    }

    /// Folds a batch of new users into the current snapshot and stages
    /// their posterior rows + expected venue counts in the pending delta.
    /// Returns the serving profiles — bit-identical to what
    /// [`FoldInEngine::fold_in`] answers for each request against the same
    /// snapshot, so absorbing *is* serving.
    ///
    /// Users absorbed in the same pending delta do not see each other (the
    /// same approximation a parallel sweep makes within one chunk); they
    /// become referenceable neighbors after [`Self::commit`].
    pub fn absorb(
        &mut self,
        batch: &[NewUserObservations],
    ) -> Result<Vec<FoldInProfile>, FoldInError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let engine = FoldInEngine::from_validated_parts(
            &self.snapshot,
            self.gaz,
            self.fold_in.clone(),
            self.parts.clone(),
        );
        let records = engine.fold_in_records(batch)?;
        let mut profiles = Vec::with_capacity(records.len());
        // One COO merge for the whole batch — per-record merging would
        // rewrite the growing pending slabs once per user (O(B²)).
        let mut venue_deltas: Vec<_> = Vec::new();
        for rec in records {
            self.pending.push_user(rec.posterior);
            venue_deltas.extend(rec.venue_deltas);
            profiles.push(rec.profile);
        }
        // Stable sort: equal keys keep record order, so the f64 sums
        // accumulate in exactly the order per-record merging produced.
        venue_deltas.sort_by_key(|&(l, v, _)| (l, v));
        venue_deltas.dedup_by(|next, kept| {
            let same = kept.0 == next.0 && kept.1 == next.1;
            if same {
                kept.2 += next.2;
            }
            same
        });
        self.pending.add_venue_weights(&venue_deltas);
        Ok(profiles)
    }

    /// Users absorbed but not yet committed.
    pub fn pending_users(&self) -> usize {
        self.pending.num_new_users()
    }

    /// The staged (absorbed, uncommitted) delta — what the serving
    /// engine's write-ahead log persists *before* [`Self::commit`]
    /// applies it, so the on-disk log is never behind the published
    /// state.
    pub(crate) fn pending_delta(&self) -> &SnapshotDelta {
        &self.pending
    }

    /// Re-anchors the updater on its current snapshot: the last commit's
    /// delta is dropped. Used after a checkpoint folds the full state
    /// into a fresh base artifact, which already holds the history. The
    /// commit *count* driving the staleness policy is untouched.
    pub(crate) fn rebase(&mut self) {
        self.last_commit = None;
    }

    /// [`Self::rebase`] that also swaps in a replacement snapshot (the
    /// checkpoint remap path: the freshly written v5 artifact reopened
    /// zero-copy).
    ///
    /// The caller guarantees `snapshot` is logically identical to the
    /// current one (debug-asserted).
    pub(crate) fn rebase_onto(&mut self, snapshot: PosteriorSnapshot) {
        debug_assert_eq!(snapshot.num_users(), self.snapshot.num_users());
        debug_assert_eq!(snapshot.gaz_fingerprint, self.snapshot.gaz_fingerprint);
        self.snapshot = snapshot;
        self.rebase();
    }

    /// Commits the pending delta into the snapshot; returns how many
    /// users were appended (0 when nothing was pending — not counted as a
    /// commit). On error the snapshot *and* the pending delta are left
    /// unchanged.
    pub fn commit(&mut self) -> Result<usize, SnapshotError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        self.snapshot.apply_delta(&self.pending)?;
        let n = self.pending.num_new_users();
        let next = SnapshotDelta::new(self.snapshot.num_users() as u32);
        self.last_commit = Some(std::mem::replace(&mut self.pending, next));
        self.commits += 1;
        Ok(n)
    }

    /// Number of commits since the base snapshot.
    pub fn commits(&self) -> usize {
        self.commits
    }

    /// The last commit's delta, unless a rebase came after it: at most
    /// one item.
    pub fn committed_deltas(&self) -> &[SnapshotDelta] {
        self.last_commit.as_slice()
    }

    /// Records an externally measured drift metric (e.g.
    /// `mlp_eval::DriftReport::drift` — the accuracy gap between this
    /// refreshed posterior and a cold retrain on the same data).
    pub fn record_drift(&mut self, drift: f64) {
        self.last_drift = drift;
    }

    /// The most recently recorded drift metric.
    pub fn last_drift(&self) -> f64 {
        self.last_drift
    }

    /// Whether the staleness policy says it is time for a cold retrain:
    /// the commit budget is spent, or recorded drift crossed the
    /// threshold. The updater keeps working either way — this is a
    /// signal, the retrain itself is the caller's (scheduler's) move.
    pub fn needs_refresh(&self) -> bool {
        (self.policy.refresh_after_commits > 0 && self.commits >= self.policy.refresh_after_commits)
            || self.last_drift > self.policy.drift_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlpConfig;
    use crate::model::Mlp;
    use mlp_social::{Dataset, Generator, GeneratorConfig, UserId};

    fn trained(
        users: usize,
        seed: u64,
    ) -> (Gazetteer, mlp_social::GeneratedData, PosteriorSnapshot) {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
                .generate();
        let config = MlpConfig { iterations: 6, burn_in: 3, seed, ..Default::default() };
        let prefix = data.dataset.prefix(users - 20);
        let (_, snap) = Mlp::new(&gaz, &prefix, config).unwrap().run_with_snapshot();
        (gaz, data, snap)
    }

    fn new_user_batch(
        data: &mlp_social::GeneratedData,
        known: usize,
        users: std::ops::Range<u32>,
    ) -> Vec<NewUserObservations> {
        let ids: Vec<UserId> = users.map(UserId).collect();
        let mut batch = NewUserObservations::batch_from_dataset(&data.dataset, &ids);
        for obs in &mut batch {
            obs.neighbors.retain(|p| p.index() < known);
        }
        batch
    }

    #[test]
    fn absorb_matches_plain_serving() {
        let (gaz, data, snap) = trained(120, 901);
        let batch = new_user_batch(&data, snap.num_users(), 100..110);
        let engine = FoldInEngine::new(&snap, &gaz, FoldInConfig::default()).unwrap();
        let served = engine.fold_in_batch(&batch).unwrap();
        let mut updater =
            OnlineUpdater::new(&gaz, snap, FoldInConfig::default(), StalenessPolicy::default())
                .unwrap();
        let absorbed = updater.absorb(&batch).unwrap();
        assert_eq!(served, absorbed, "absorbing must answer exactly like serving");
    }

    #[test]
    fn commit_appends_users_and_venue_mass() {
        let (gaz, data, snap) = trained(120, 903);
        let base_users = snap.num_users();
        let city_mass: f64 = (0..gaz.num_cities())
            .map(|l| snap.venues.city_total(mlp_gazetteer::CityId(l as u32)))
            .sum();
        let mut updater =
            OnlineUpdater::new(&gaz, snap, FoldInConfig::default(), StalenessPolicy::default())
                .unwrap();
        let batch = new_user_batch(&data, base_users, 100..120);
        updater.absorb(&batch).unwrap();
        assert_eq!(updater.pending_users(), 20);
        assert_eq!(updater.commit().unwrap(), 20);
        assert_eq!(updater.pending_users(), 0);
        assert_eq!(updater.snapshot().num_users(), base_users + 20);
        let refreshed_mass: f64 = (0..gaz.num_cities())
            .map(|l| updater.snapshot().venues.city_total(mlp_gazetteer::CityId(l as u32)))
            .sum();
        let mention_tokens: usize = batch.iter().map(|o| o.mentions.len()).sum();
        assert!(
            refreshed_mass > city_mass,
            "committed venue evidence must add φ mass ({refreshed_mass} vs {city_mass})"
        );
        assert!(
            refreshed_mass <= city_mass + mention_tokens as f64 + 1e-6,
            "φ mass cannot exceed the absorbed token count"
        );
        // Committed users are first-class: a later request may cite them.
        let newest = UserId((base_users + 19) as u32);
        let follow_new = vec![NewUserObservations { neighbors: vec![newest], mentions: vec![] }];
        assert!(updater.absorb(&follow_new).is_ok());
    }

    #[test]
    fn only_the_last_commit_is_kept() {
        let (gaz, data, snap) = trained(120, 911);
        let base_users = snap.num_users();
        let mut updater =
            OnlineUpdater::new(&gaz, snap, FoldInConfig::default(), StalenessPolicy::default())
                .unwrap();
        for users in [100..108, 108..112, 112..115] {
            updater.absorb(&new_user_batch(&data, base_users, users)).unwrap();
            updater.commit().unwrap();
        }
        assert_eq!(updater.commits(), 3);
        let kept = updater.committed_deltas();
        assert_eq!(kept.len(), 1, "one delta, not the commit history");
        assert_eq!(kept[0].num_new_users(), 3, "sized like the last batch");
        updater.rebase();
        assert!(updater.committed_deltas().is_empty());
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let (gaz, _, snap) = trained(80, 905);
        let before = snap.clone();
        let mut updater =
            OnlineUpdater::new(&gaz, snap, FoldInConfig::default(), StalenessPolicy::default())
                .unwrap();
        assert_eq!(updater.commit().unwrap(), 0);
        assert_eq!(updater.commits(), 0);
        assert_eq!(updater.snapshot(), &before);
        assert!(updater.absorb(&[]).unwrap().is_empty());
    }

    #[test]
    fn staleness_policy_triggers_on_commits_and_drift() {
        let (gaz, data, snap) = trained(120, 907);
        let base_users = snap.num_users();
        let policy = StalenessPolicy { refresh_after_commits: 2, drift_threshold: 0.1 };
        let mut updater = OnlineUpdater::new(&gaz, snap, FoldInConfig::default(), policy).unwrap();
        assert!(!updater.needs_refresh());
        for start in [100u32, 110u32] {
            let batch = new_user_batch(&data, base_users, start..start + 10);
            updater.absorb(&batch).unwrap();
            updater.commit().unwrap();
        }
        assert_eq!(updater.commits(), 2);
        assert!(updater.needs_refresh(), "commit budget spent");

        // Drift alone also triggers.
        let (gaz2, _, snap2) = trained(80, 909);
        let mut fresh = OnlineUpdater::new(&gaz2, snap2, FoldInConfig::default(), policy).unwrap();
        assert!(!fresh.needs_refresh());
        fresh.record_drift(0.2);
        assert!(fresh.needs_refresh(), "drift over threshold");
    }

    #[test]
    fn rejects_mismatched_gazetteer_at_construction() {
        let (gaz, _, snap) = trained(80, 913);
        let other = Gazetteer::with_synthetic(&mlp_gazetteer::SynthConfig {
            total_cities: gaz.num_cities() + 10,
            seed: 3,
            ..Default::default()
        });
        assert!(matches!(
            OnlineUpdater::new(&other, snap, FoldInConfig::default(), StalenessPolicy::default()),
            Err(OnlineError::FoldIn(FoldInError::GazetteerMismatch { .. }))
        ));
    }

    #[test]
    fn prefix_dataset_used_in_tests_is_consistent() {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 60, seed: 915, ..Default::default() },
        )
        .generate();
        let p: Dataset = data.dataset.prefix(40);
        assert_eq!(p.num_users(), 40);
        p.validate(gaz.num_cities(), gaz.num_venues()).unwrap();
        assert!(p.edges.iter().all(|e| e.follower.index() < 40 && e.friend.index() < 40));
        assert!(p.mentions.iter().all(|m| m.user.index() < 40));
    }
}
