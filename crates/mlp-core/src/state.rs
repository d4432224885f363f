//! Assignment state and collapsed count bookkeeping.
//!
//! The collapsed Gibbs sampler integrates out `θ_{1:N}` and `ψ_{1:L}` and
//! maintains only:
//!
//! * per-edge state `(μ_s, x_s, y_s)` and per-mention state `(ν_k, z_k)` —
//!   assignments are stored as *indices into the owner's candidate list*,
//!   which keeps them `u16` and makes the count vectors dense;
//! * `ϕ_{i,l}` — how often city `l` appears among user `i`'s location-based
//!   assignments (follower side, friend side, and tweet side all count,
//!   exactly as the paper's ϕ aggregates "u_i's location assignments");
//! * `φ_{l,v}` — how often venue `v` was tweeted from city `l` among
//!   location-based mentions.
//!
//! Counts are columnar (`Counts`): the `ϕ` rows live in one flat
//! row-major [`Csr`] arena (one slab for the whole corpus, not a `Vec` per
//! user), and the `φ` rows in a [`VenueCountStore`] — a CSR over the fixed
//! support of reachable `(city, venue)` pairs, read from a
//! [`VenueSupport`] bitmap marked once per mention. Both give the hot path
//! contiguous memory, deterministic venue-id-ordered row iteration without
//! sorting or allocating, and a stable flat *slot* space.
//!
//! The one sweep loop ([`crate::kernel`]) updates one of two count stores
//! in place: the live `Counts` (the exact chain), or a `ShardCounts` —
//! counts frozen at the sweep's start plus one shard's `i32` deltas in
//! that slot space. The threaded sweep ([`crate::parallel`]) and the
//! out-of-core trainer ([`crate::shard`]) both merge a shard back with
//! the one reconciliation, `Counts::reconcile`.
//!
//! Both trainers build their counts from the initial draws with the one
//! `Counts::add_assigned`, and average post-burn-in samples of `ϕ` with
//! the one `Accumulator` over the same slot space, so the final `θ̂`
//! (Eq. 10) averages over the posterior instead of trusting one sample.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::count_store::{add_deltas, VenueCountStore, VenueRow, VenueSupport};
use crate::kernel::{self, CountStore, CountView};
use mlp_gazetteer::{CityId, VenueId};
use mlp_social::{Csr, Dataset, FollowEdge, TweetMention, UserId};

/// Mutable sampler state.
#[derive(Debug, Clone)]
pub struct SamplerState {
    /// μ_s — true if edge `s` is currently assigned to the random model.
    pub mu: Vec<bool>,
    /// x_s — follower-side assignment (index into follower's candidates).
    pub x: Vec<u16>,
    /// y_s — friend-side assignment (index into friend's candidates).
    pub y: Vec<u16>,
    /// ν_k — true if mention `k` is currently assigned to the random model.
    pub nu: Vec<bool>,
    /// z_k — user-side assignment (index into user's candidates).
    pub z: Vec<u16>,

    /// The live ϕ/φ counts.
    counts: Counts,
    /// Post-burn-in sums of the ϕ counts.
    acc: Accumulator,
}

/// Mutable slices of the assignment vectors one sweep rewrites: edges'
/// `(μ, x, y)` and mentions' `(ν, z)`.
pub(crate) struct Assignments<'a> {
    pub(crate) mu: &'a mut [bool],
    pub(crate) x: &'a mut [u16],
    pub(crate) y: &'a mut [u16],
    pub(crate) nu: &'a mut [bool],
    pub(crate) z: &'a mut [u16],
}

impl<'a> Assignments<'a> {
    /// Splits off the first `edges` edge and `mentions` mention
    /// assignments; returns them and the rest.
    pub(crate) fn split_at(self, edges: usize, mentions: usize) -> (Self, Self) {
        let (mu, mu_rest) = self.mu.split_at_mut(edges);
        let (x, x_rest) = self.x.split_at_mut(edges);
        let (y, y_rest) = self.y.split_at_mut(edges);
        let (nu, nu_rest) = self.nu.split_at_mut(mentions);
        let (z, z_rest) = self.z.split_at_mut(mentions);
        (
            Self { mu, x, y, nu, z },
            Self { mu: mu_rest, x: x_rest, y: y_rest, nu: nu_rest, z: z_rest },
        )
    }
}

impl SamplerState {
    /// Creates all-zero state sized for the dataset; assignments start at
    /// candidate index 0 and are expected to be randomised by the sampler's
    /// `init` before the first sweep.
    ///
    /// The venue-count support is marked here: every mention's venue at
    /// each of its user's candidates covers every cell the sampler can
    /// touch.
    pub fn new(
        dataset: &Dataset,
        candidacy: &Candidacy,
        num_cities: usize,
        num_venues: usize,
    ) -> Self {
        let mut support = VenueSupport::new(num_cities, num_venues);
        for m in &dataset.mentions {
            support.mark_mention(candidacy.candidates(m.user), m.venue);
        }
        let counts = Counts::new(candidacy, &support);
        Self {
            mu: vec![false; dataset.num_edges()],
            x: vec![0; dataset.num_edges()],
            y: vec![0; dataset.num_edges()],
            nu: vec![false; dataset.num_mentions()],
            z: vec![0; dataset.num_mentions()],
            acc: Accumulator::new(&counts),
            counts,
        }
    }

    /// φ_{l,v}.
    #[inline]
    pub fn venue_count(&self, l: CityId, v: VenueId) -> u32 {
        self.counts.venues.get(l, v)
    }

    /// The non-zero `(venue, count)` entries of city `l`'s φ row, ascending
    /// by venue id — the deterministic order snapshots serialise. A
    /// borrowed view over the CSR arena: no allocation, no sort.
    #[inline]
    pub fn venue_count_row(&self, l: CityId) -> VenueRow<'_> {
        self.counts.venues.row(l)
    }

    /// The live counts.
    pub(crate) fn counts(&self) -> &Counts {
        &self.counts
    }

    /// The live counts beside the assignment vectors, borrowed apart so a
    /// sweep can update both.
    pub(crate) fn parts_mut(&mut self) -> (&mut Counts, Assignments<'_>) {
        let asg = Assignments {
            mu: &mut self.mu,
            x: &mut self.x,
            y: &mut self.y,
            nu: &mut self.nu,
            z: &mut self.z,
        };
        (&mut self.counts, asg)
    }

    /// Folds the current sweep's user counts into the accumulator.
    pub fn accumulate(&mut self) {
        self.acc.add(&self.counts);
    }

    /// Mean accumulated count for user `u` at candidate `c` — falls back to
    /// the live count when nothing has been accumulated yet.
    #[inline]
    pub fn mean_user_count(&self, u: UserId, c: usize) -> f64 {
        self.acc.mean(&self.counts, self.counts.slot(u, c))
    }

    /// Rebuilds all counts from the current assignments of the
    /// relationships `config`'s chain samples.
    pub fn rebuild_counts(&mut self, dataset: &Dataset, candidacy: &Candidacy, config: &MlpConfig) {
        let (edges, mentions) =
            kernel::relationships(config.variant, &dataset.edges, &dataset.mentions);
        let (counts, asg) = self.parts_mut();
        let (asg, _) = asg.split_at(edges.len(), mentions.len());
        counts.clear();
        counts.add_assigned(candidacy, edges, mentions, &asg, config.count_noisy_assignments);
    }

    /// Verifies that counts equal a fresh rebuild — the core invariant the
    /// incremental add/remove updates must preserve. Test-only (O(S + K)).
    pub fn check_consistency(
        &self,
        dataset: &Dataset,
        candidacy: &Candidacy,
        config: &MlpConfig,
    ) -> Result<(), String> {
        let mut fresh = self.clone();
        fresh.rebuild_counts(dataset, candidacy, config);
        let diverged = "ϕ counts, their totals or φ diverged from the assignments";
        (fresh.counts == self.counts).then_some(()).ok_or_else(|| diverged.into())
    }
}

/// One chain's collapsed counts: the ϕ rows aligned with the candidate
/// lists, their per-user totals, and φ.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Counts {
    users: Csr<u32>,
    totals: Vec<u32>,
    venues: VenueCountStore,
}

impl Counts {
    /// Zeroed counts over `candidacy`'s slot space and a marked venue
    /// support.
    pub(crate) fn new(candidacy: &Candidacy, support: &VenueSupport) -> Self {
        let n = candidacy.num_users();
        let row_lens = (0..n).map(|u| candidacy.candidates(UserId(u as u32)).len());
        let users = Csr::with_row_lens(row_lens);
        Self { users, totals: vec![0; n], venues: VenueCountStore::build(support) }
    }

    /// Flat arena index of `(u, c)` — the slot space [`Accumulator`]
    /// averages over.
    #[inline]
    pub(crate) fn slot(&self, u: UserId, c: usize) -> usize {
        self.users.slot(u.index(), c)
    }

    /// The φ store.
    pub(crate) fn venues(&self) -> &VenueCountStore {
        &self.venues
    }

    /// Zeroes every count, keeping the layout.
    fn clear(&mut self) {
        self.users.values_mut().fill(0);
        self.totals.fill(0);
        self.venues.clear();
    }

    /// Adds the draws `asg` holds for `edges` and `mentions` — the one
    /// count build of both trainers after their initial draws. A
    /// location-based draw counts its users' assignments and, for a
    /// mention, its venue at the assigned city; a noisy draw counts its
    /// users' assignments only under `count_noisy`.
    pub(crate) fn add_assigned(
        &mut self,
        candidacy: &Candidacy,
        edges: &[FollowEdge],
        mentions: &[TweetMention],
        asg: &Assignments<'_>,
        count_noisy: bool,
    ) {
        assert!(asg.mu.len() == edges.len() && asg.nu.len() == mentions.len());
        for (s, e) in edges.iter().enumerate() {
            if !asg.mu[s] || count_noisy {
                self.add_user(e.follower, asg.x[s] as usize);
                self.add_user(e.friend, asg.y[s] as usize);
            }
        }
        for (k, m) in mentions.iter().enumerate() {
            let z = asg.z[k] as usize;
            if !asg.nu[k] || count_noisy {
                self.add_user(m.user, z);
            }
            if !asg.nu[k] {
                self.add_venue(candidacy.candidates(m.user)[z], m.venue);
            }
        }
    }

    /// Merges one shard's deltas, index by index — the reconciliation
    /// step of every sharded sweep. Integer adds commute, so the shards
    /// may merge in any order.
    pub(crate) fn reconcile(&mut self, delta: &ShardDelta) {
        assert_eq!(delta.users.len(), self.users.num_values(), "delta over another slot space");
        assert_eq!(delta.totals.len(), self.totals.len(), "delta over another user count");
        add_deltas(self.users.values_mut(), &delta.users);
        add_deltas(&mut self.totals, &delta.totals);
        self.venues.apply_delta(&delta.venues, &delta.cities);
    }
}

impl CountView for Counts {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        self.users.row(u.index())[c] as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        self.totals[u.index()] as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        self.venues.get(l, v) as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.venues.total(l) as f64
    }
}

impl CountStore for Counts {
    #[inline]
    fn add_user(&mut self, u: UserId, c: usize) {
        self.users.row_mut(u.index())[c] += 1;
        self.totals[u.index()] += 1;
    }

    #[inline]
    fn remove_user(&mut self, u: UserId, c: usize) {
        let cell = &mut self.users.row_mut(u.index())[c];
        debug_assert!(*cell > 0, "count underflow");
        *cell -= 1;
        self.totals[u.index()] -= 1;
    }

    #[inline]
    fn add_venue(&mut self, l: CityId, v: VenueId) {
        self.venues.add(l, v);
    }

    #[inline]
    fn remove_venue(&mut self, l: CityId, v: VenueId) {
        self.venues.remove(l, v);
    }
}

/// The post-burn-in average of a chain's ϕ counts, Eq. 10's `ϕ̄`: one
/// running sum per slot of the chain's [`Counts`] and the number of
/// samples summed. `u64` sums keep count × samples from overflowing.
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    sums: Vec<u64>,
    samples: u32,
}

impl Accumulator {
    /// An empty accumulator over `counts`' slot space.
    pub(crate) fn new(counts: &Counts) -> Self {
        Self { sums: vec![0; counts.users.num_values()], samples: 0 }
    }

    /// Adds one sample: every ϕ count of `counts`.
    pub(crate) fn add(&mut self, counts: &Counts) {
        for (sum, &c) in self.sums.iter_mut().zip(counts.users.values()) {
            *sum += c as u64;
        }
        self.samples += 1;
    }

    /// The mean count at `slot`, or `counts`' live count there while no
    /// sample has been added.
    #[inline]
    pub(crate) fn mean(&self, counts: &Counts, slot: usize) -> f64 {
        if self.samples == 0 {
            counts.users.values()[slot] as f64
        } else {
            self.sums[slot] as f64 / self.samples as f64
        }
    }
}

/// One shard's count changes in its frozen [`Counts`]' flat slot spaces.
pub(crate) struct ShardDelta {
    users: Vec<i32>,
    totals: Vec<i32>,
    venues: Vec<i32>,
    cities: Vec<i32>,
}

/// One shard's counts during a sharded sweep: the counts frozen at the
/// sweep's start plus the shard's own deltas. The shard sees its own
/// updates at once and the other shards' only after
/// [`Counts::reconcile`].
pub(crate) struct ShardCounts<'a> {
    // The frozen ϕ arena as plain slices, indexed directly on the hot path.
    offsets: &'a [u32],
    users: &'a [u32],
    totals: &'a [u32],
    venues: &'a VenueCountStore,
    delta: ShardDelta,
}

impl<'a> ShardCounts<'a> {
    /// A shard with no changes yet over `frozen`.
    pub(crate) fn new(frozen: &'a Counts) -> Self {
        let venues = &frozen.venues;
        let delta = ShardDelta {
            users: vec![0; frozen.users.num_values()],
            totals: vec![0; frozen.totals.len()],
            venues: vec![0; venues.num_slots()],
            cities: vec![0; venues.num_cities()],
        };
        let (offsets, users) = (frozen.users.offsets(), frozen.users.values());
        Self { offsets, users, totals: &frozen.totals, venues, delta }
    }

    /// The shard's changes, for [`Counts::reconcile`].
    pub(crate) fn into_delta(self) -> ShardDelta {
        self.delta
    }

    #[inline]
    fn slot(&self, u: UserId, c: usize) -> usize {
        self.offsets[u.index()] as usize + c
    }

    #[inline]
    fn venue_slot(&self, l: CityId, v: VenueId) -> usize {
        self.venues.slot_index(l, v).expect("venue outside the precomputed support")
    }
}

impl CountView for ShardCounts<'_> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let s = self.slot(u, c);
        (self.users[s] as i64 + self.delta.users[s] as i64) as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        let i = u.index();
        (self.totals[i] as i64 + self.delta.totals[i] as i64) as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        match self.venues.slot_index(l, v) {
            Some(s) => (self.venues.count_at(s) as i64 + self.delta.venues[s] as i64) as f64,
            None => 0.0,
        }
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        let i = l.index();
        (self.venues.total(l) as i64 + self.delta.cities[i] as i64) as f64
    }
}

impl CountStore for ShardCounts<'_> {
    #[inline]
    fn add_user(&mut self, u: UserId, c: usize) {
        let s = self.slot(u, c);
        self.delta.users[s] += 1;
        self.delta.totals[u.index()] += 1;
    }

    #[inline]
    fn remove_user(&mut self, u: UserId, c: usize) {
        debug_assert!(CountView::user_count(self, u, c) > 0.0, "count underflow");
        let s = self.slot(u, c);
        self.delta.users[s] -= 1;
        self.delta.totals[u.index()] -= 1;
    }

    #[inline]
    fn add_venue(&mut self, l: CityId, v: VenueId) {
        let s = self.venue_slot(l, v);
        self.delta.venues[s] += 1;
        self.delta.cities[l.index()] += 1;
    }

    #[inline]
    fn remove_venue(&mut self, l: CityId, v: VenueId) {
        debug_assert!(CountView::venue_count(self, l, v) > 0.0, "venue count underflow");
        let s = self.venue_slot(l, v);
        self.delta.venues[s] -= 1;
        self.delta.cities[l.index()] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_gazetteer::Gazetteer;
    use mlp_social::{Adjacency, FollowEdge, TweetMention};

    fn fixture() -> (Gazetteer, Dataset, Candidacy) {
        let gaz = Gazetteer::us_cities();
        let austin = gaz.city_by_name_state("austin", "TX").unwrap();
        let la = gaz.city_by_name_state("los angeles", "CA").unwrap();
        let mut d = Dataset::new(3);
        d.registered[0] = Some(austin);
        d.registered[1] = Some(la);
        d.edges.push(FollowEdge { follower: UserId(0), friend: UserId(1) });
        d.edges.push(FollowEdge { follower: UserId(2), friend: UserId(0) });
        let v = gaz.venue_by_name("austin").unwrap();
        d.mentions.push(TweetMention { user: UserId(0), venue: v });
        let adj = Adjacency::build(&d);
        let cand = Candidacy::build(&gaz, &d, &adj, &MlpConfig::default());
        (gaz, d, cand)
    }

    fn state_for(gaz: &Gazetteer, d: &Dataset, cand: &Candidacy) -> SamplerState {
        SamplerState::new(d, cand, gaz.num_cities(), gaz.num_venues())
    }

    /// `counts`' ϕ row of user `u`, read through the kernel's view.
    fn user_row(counts: &impl CountView, cand: &Candidacy, u: UserId) -> Vec<f64> {
        (0..cand.candidates(u).len()).map(|c| counts.user_count(u, c)).collect()
    }

    #[test]
    fn add_remove_round_trip() {
        let (gaz, d, cand) = fixture();
        let mut counts = state_for(&gaz, &d, &cand).counts;
        let u = UserId(0);
        counts.add_user(u, 1);
        counts.add_user(u, 1);
        counts.add_user(u, 0);
        assert_eq!(CountView::user_count(&counts, u, 1), 2.0);
        assert_eq!(CountView::user_total(&counts, u), 3.0);
        counts.remove_user(u, 1);
        assert_eq!(CountView::user_count(&counts, u, 1), 1.0);
        assert_eq!(CountView::user_total(&counts, u), 2.0);
    }

    #[test]
    fn venue_counts_round_trip() {
        let (gaz, d, cand) = fixture();
        let mut counts = state_for(&gaz, &d, &cand).counts;
        let austin = gaz.city_by_name_state("austin", "TX").unwrap();
        let v = gaz.venue_by_name("austin").unwrap();
        counts.add_venue(austin, v);
        counts.add_venue(austin, v);
        assert_eq!(counts.venue_count(austin, v), 2.0);
        assert_eq!(counts.city_total(austin), 2.0);
        assert_eq!(counts.venues().row(austin).collect::<Vec<_>>(), vec![(v.0, 2)]);
        counts.remove_venue(austin, v);
        counts.remove_venue(austin, v);
        assert_eq!(counts.venue_count(austin, v), 0.0);
        assert_eq!(counts.city_total(austin), 0.0);
        assert!(counts.venues().row(austin).next().is_none());
    }

    #[test]
    #[should_panic(expected = "removing venue that was never added")]
    fn removing_absent_venue_panics() {
        let (gaz, d, cand) = fixture();
        let mut counts = state_for(&gaz, &d, &cand).counts;
        counts.remove_venue(CityId(0), VenueId(0));
    }

    #[test]
    fn rebuild_matches_manual_bookkeeping() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        // Assignments: edge 0 location-based, edge 1 noisy, mention 0 based.
        st.mu = vec![false, true];
        st.x = vec![0, 0];
        st.y = vec![1, 0];
        st.nu = vec![false];
        st.z = vec![0];
        st.rebuild_counts(&d, &cand, &MlpConfig::default());
        assert!(st.check_consistency(&d, &cand, &MlpConfig::default()).is_ok());
        // Edge 0 contributes follower 0 @0 and friend 1 @1; noisy edge 1
        // contributes nothing; mention adds user 0 @0 again.
        let counts = &st.counts;
        assert_eq!(CountView::user_count(counts, UserId(0), 0), 2.0);
        assert_eq!(CountView::user_count(counts, UserId(1), 1), 1.0);
        assert_eq!(CountView::user_total(counts, UserId(2)), 0.0);
        let city0 = cand.candidates(UserId(0))[0];
        assert_eq!(counts.city_total(city0), 1.0);
    }

    #[test]
    fn count_noisy_flag_includes_noisy_assignments() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.mu = vec![true, true];
        st.nu = vec![true];
        let count_noisy = MlpConfig { count_noisy_assignments: true, ..Default::default() };
        st.rebuild_counts(&d, &cand, &count_noisy);
        // Every edge endpoint + mention contributes despite noise flags.
        let counts = &st.counts;
        assert_eq!(CountView::user_total(counts, UserId(0)), 3.0); // follower of e0, friend of e1, mention
        assert_eq!(CountView::user_total(counts, UserId(1)), 1.0);
        assert_eq!(CountView::user_total(counts, UserId(2)), 1.0);
        // But venue counts still exclude noisy mentions.
        let city0 = cand.candidates(UserId(0))[0];
        assert_eq!(counts.city_total(city0), 0.0);
    }

    #[test]
    fn accumulation_averages_sweeps() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        let u = UserId(0);
        st.counts.add_user(u, 0);
        st.accumulate();
        st.counts.add_user(u, 0);
        st.accumulate();
        assert_eq!(st.acc.samples, 2);
        assert!((st.mean_user_count(u, 0) - 1.5).abs() < 1e-12);
        // Fallback to live counts before any accumulation.
        let mut st2 = state_for(&gaz, &d, &cand);
        assert_eq!(st2.mean_user_count(u, 0), 0.0);
        st2.counts.add_user(u, 0);
        assert_eq!(st2.mean_user_count(u, 0), 1.0);
    }

    #[test]
    fn consistency_detects_corruption() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.rebuild_counts(&d, &cand, &MlpConfig::default());
        st.counts.add_user(UserId(0), 0); // corrupt
        assert!(st.check_consistency(&d, &cand, &MlpConfig::default()).is_err());
    }

    #[test]
    fn shard_deltas_reconcile_to_incremental_updates() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.rebuild_counts(&d, &cand, &MlpConfig::default());
        let mut incremental = st.counts;
        let mut merged = incremental.clone();
        let u = UserId(0);
        let city = cand.candidates(u)[0];
        let v = d.mentions[0].venue;

        incremental.add_user(u, 1);
        incremental.add_user(u, 1);
        incremental.remove_user(u, 0);
        incremental.remove_venue(city, v);
        incremental.add_venue(city, v);
        incremental.add_venue(city, v);

        let mut shard = ShardCounts::new(&merged);
        shard.add_user(u, 1);
        shard.add_user(u, 1);
        shard.remove_user(u, 0);
        shard.remove_venue(city, v);
        shard.add_venue(city, v);
        shard.add_venue(city, v);
        // The shard reads its own updates on top of the frozen counts.
        assert_eq!(user_row(&shard, &cand, u), user_row(&incremental, &cand, u));
        assert_eq!(CountView::user_total(&shard, u), CountView::user_total(&incremental, u));
        assert_eq!(shard.venue_count(city, v), incremental.venue_count(city, v));
        assert_eq!(shard.city_total(city), incremental.city_total(city));

        let delta = shard.into_delta();
        merged.reconcile(&delta);
        assert_eq!(user_row(&merged, &cand, u), user_row(&incremental, &cand, u));
        assert_eq!(CountView::user_total(&merged, u), CountView::user_total(&incremental, u));
        assert_eq!(merged.venue_count(city, v), incremental.venue_count(city, v));
        assert_eq!(merged.city_total(city), incremental.city_total(city));
    }
}
