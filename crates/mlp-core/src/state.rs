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
//! Counts are columnar: the `ϕ` rows live in one flat row-major [`Csr`]
//! arena (one slab for the whole corpus, not a `Vec` per user), and the
//! `φ` rows in a [`VenueCountStore`] — a CSR over the fixed support of
//! reachable `(city, venue)` pairs, read from a [`VenueSupport`] bitmap
//! marked once per mention. Both give the hot path contiguous memory,
//! deterministic venue-id-ordered row iteration without sorting or
//! allocating, and a stable flat *slot* space so a parallel sweep can
//! merge per-thread deltas by index ([`crate::parallel`]).
//!
//! Post-burn-in sweeps are accumulated separately so the final `θ̂` (Eq. 10)
//! averages over the posterior instead of trusting one sample.

use crate::candidacy::Candidacy;
use crate::count_store::{add_deltas, VenueCountStore, VenueRow, VenueSupport};
use mlp_gazetteer::{CityId, VenueId};
use mlp_social::{Csr, Dataset, UserId};

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

    /// ϕ rows, one per user, aligned with the candidate lists — a flat
    /// row-major arena.
    user_counts: Csr<u32>,
    /// Σ_l ϕ_{i,l}.
    user_totals: Vec<u32>,
    /// φ_{l,·} — CSR sparse counts over the reachable support.
    venue_counts: VenueCountStore,

    /// Post-burn-in accumulation of `user_counts` (same row layout).
    acc_user_counts: Csr<u64>,
    /// Number of accumulated sweeps.
    acc_sweeps: u32,
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
        let n = dataset.num_users();
        let row_lens = || (0..n).map(|u| candidacy.candidates(UserId(u as u32)).len());
        let mut support = VenueSupport::new(num_cities, num_venues);
        for m in &dataset.mentions {
            support.mark_mention(candidacy.candidates(m.user), m.venue);
        }
        Self {
            mu: vec![false; dataset.num_edges()],
            x: vec![0; dataset.num_edges()],
            y: vec![0; dataset.num_edges()],
            nu: vec![false; dataset.num_mentions()],
            z: vec![0; dataset.num_mentions()],
            user_counts: Csr::with_row_lens(row_lens()),
            user_totals: vec![0; n],
            venue_counts: VenueCountStore::build(&support),
            acc_user_counts: Csr::with_row_lens(row_lens()),
            acc_sweeps: 0,
        }
    }

    /// ϕ count of user `u` at candidate index `c`.
    #[inline]
    pub fn user_count(&self, u: UserId, c: usize) -> u32 {
        self.user_counts.row(u.index())[c]
    }

    /// The whole ϕ row of user `u`.
    #[inline]
    pub fn user_count_row(&self, u: UserId) -> &[u32] {
        self.user_counts.row(u.index())
    }

    /// Σ_l ϕ_{u,l}.
    #[inline]
    pub fn user_total(&self, u: UserId) -> u32 {
        self.user_totals[u.index()]
    }

    /// φ_{l,v}.
    #[inline]
    pub fn venue_count(&self, l: CityId, v: VenueId) -> u32 {
        self.venue_counts.get(l, v)
    }

    /// Σ_v φ_{l,v}.
    #[inline]
    pub fn city_total(&self, l: CityId) -> u32 {
        self.venue_counts.total(l)
    }

    /// The non-zero `(venue, count)` entries of city `l`'s φ row, ascending
    /// by venue id — the deterministic order snapshots serialise. A
    /// borrowed view over the CSR arena: no allocation, no sort.
    #[inline]
    pub fn venue_count_row(&self, l: CityId) -> VenueRow<'_> {
        self.venue_counts.row(l)
    }

    /// Adds one assignment of user `u` to candidate index `c`.
    #[inline]
    pub fn add_user(&mut self, u: UserId, c: usize) {
        self.user_counts.row_mut(u.index())[c] += 1;
        self.user_totals[u.index()] += 1;
    }

    /// Removes one assignment of user `u` from candidate index `c`.
    #[inline]
    pub fn remove_user(&mut self, u: UserId, c: usize) {
        let cell = &mut self.user_counts.row_mut(u.index())[c];
        debug_assert!(*cell > 0, "count underflow");
        *cell -= 1;
        self.user_totals[u.index()] -= 1;
    }

    /// Adds one venue token `v` at city `l`.
    #[inline]
    pub fn add_venue(&mut self, l: CityId, v: VenueId) {
        self.venue_counts.add(l, v);
    }

    /// Removes one venue token `v` from city `l`.
    #[inline]
    pub fn remove_venue(&mut self, l: CityId, v: VenueId) {
        self.venue_counts.remove(l, v);
    }

    // --- Flat slot space for parallel delta merges -----------------------

    /// Size of the flat ϕ arena (codomain of [`Self::user_slot`]).
    pub fn num_user_slots(&self) -> usize {
        self.user_counts.num_values()
    }

    /// Flat arena index of `(u, c)`.
    #[inline]
    pub fn user_slot(&self, u: UserId, c: usize) -> usize {
        self.user_counts.slot(u.index(), c)
    }

    /// Size of the flat φ slot space (codomain of [`Self::venue_slot`]).
    pub fn num_venue_slots(&self) -> usize {
        self.venue_counts.num_slots()
    }

    /// Flat slot of `(l, v)`; panics outside the reachable support.
    #[inline]
    pub fn venue_slot(&self, l: CityId, v: VenueId) -> usize {
        self.venue_counts.slot_index(l, v)
    }

    /// Applies per-slot ϕ deltas and per-user total deltas by index.
    pub fn apply_user_delta(&mut self, slots: &[i32], totals: &[i32]) {
        debug_assert_eq!(slots.len(), self.num_user_slots());
        debug_assert_eq!(totals.len(), self.user_totals.len());
        add_deltas(self.user_counts.values_mut(), slots);
        add_deltas(&mut self.user_totals, totals);
    }

    /// Applies per-slot φ deltas and per-city total deltas by index.
    pub fn apply_venue_delta(&mut self, slots: &[i32], totals: &[i32]) {
        self.venue_counts.apply_delta(slots, totals);
    }

    /// Folds the current sweep's user counts into the accumulator.
    pub fn accumulate(&mut self) {
        for (a, &c) in self.acc_user_counts.values_mut().iter_mut().zip(self.user_counts.values()) {
            *a += c as u64;
        }
        self.acc_sweeps += 1;
    }

    /// Number of accumulated sweeps.
    pub fn accumulated_sweeps(&self) -> u32 {
        self.acc_sweeps
    }

    /// Mean accumulated count for user `u` at candidate `c` — falls back to
    /// the live count when nothing has been accumulated yet.
    #[inline]
    pub fn mean_user_count(&self, u: UserId, c: usize) -> f64 {
        if self.acc_sweeps == 0 {
            self.user_counts.row(u.index())[c] as f64
        } else {
            self.acc_user_counts.row(u.index())[c] as f64 / self.acc_sweeps as f64
        }
    }

    /// Rebuilds all counts from the current assignment vectors — used after
    /// initialisation randomises the assignments.
    pub fn rebuild_counts(
        &mut self,
        dataset: &Dataset,
        candidacy: &Candidacy,
        count_noisy: bool,
        uses_following: bool,
        uses_tweeting: bool,
    ) {
        self.user_counts.values_mut().fill(0);
        self.user_totals.fill(0);
        self.venue_counts.clear();

        if uses_following {
            for (s, e) in dataset.edges.iter().enumerate() {
                if !self.mu[s] || count_noisy {
                    self.add_user(e.follower, self.x[s] as usize);
                    self.add_user(e.friend, self.y[s] as usize);
                }
            }
        }
        if uses_tweeting {
            for (k, m) in dataset.mentions.iter().enumerate() {
                if !self.nu[k] || count_noisy {
                    self.add_user(m.user, self.z[k] as usize);
                }
                if !self.nu[k] {
                    let city = candidacy.candidates(m.user)[self.z[k] as usize];
                    self.add_venue(city, m.venue);
                }
            }
        }
    }

    /// Verifies that counts equal a fresh rebuild — the core invariant the
    /// incremental add/remove updates must preserve. Test-only (O(S + K)).
    pub fn check_consistency(
        &self,
        dataset: &Dataset,
        candidacy: &Candidacy,
        count_noisy: bool,
        uses_following: bool,
        uses_tweeting: bool,
    ) -> Result<(), String> {
        let mut fresh = self.clone();
        fresh.rebuild_counts(dataset, candidacy, count_noisy, uses_following, uses_tweeting);
        if fresh.user_counts != self.user_counts {
            return Err("user counts diverged from assignments".into());
        }
        if fresh.user_totals != self.user_totals {
            return Err("user totals diverged".into());
        }
        if fresh.venue_counts != self.venue_counts {
            return Err("venue counts (or city totals) diverged".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlpConfig;
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

    #[test]
    fn add_remove_round_trip() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        let u = UserId(0);
        st.add_user(u, 1);
        st.add_user(u, 1);
        st.add_user(u, 0);
        assert_eq!(st.user_count(u, 1), 2);
        assert_eq!(st.user_total(u), 3);
        st.remove_user(u, 1);
        assert_eq!(st.user_count(u, 1), 1);
        assert_eq!(st.user_total(u), 2);
    }

    #[test]
    fn venue_counts_round_trip() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        let austin = gaz.city_by_name_state("austin", "TX").unwrap();
        let v = gaz.venue_by_name("austin").unwrap();
        st.add_venue(austin, v);
        st.add_venue(austin, v);
        assert_eq!(st.venue_count(austin, v), 2);
        assert_eq!(st.city_total(austin), 2);
        assert_eq!(st.venue_count_row(austin).collect::<Vec<_>>(), vec![(v.0, 2)]);
        st.remove_venue(austin, v);
        st.remove_venue(austin, v);
        assert_eq!(st.venue_count(austin, v), 0);
        assert_eq!(st.city_total(austin), 0);
        assert!(st.venue_count_row(austin).next().is_none());
    }

    #[test]
    #[should_panic(expected = "removing venue that was never added")]
    fn removing_absent_venue_panics() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.remove_venue(CityId(0), VenueId(0));
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
        st.rebuild_counts(&d, &cand, false, true, true);
        assert!(st.check_consistency(&d, &cand, false, true, true).is_ok());
        // Edge 0 contributes follower 0 @0 and friend 1 @1; noisy edge 1
        // contributes nothing; mention adds user 0 @0 again.
        assert_eq!(st.user_count(UserId(0), 0), 2);
        assert_eq!(st.user_count(UserId(1), 1), 1);
        assert_eq!(st.user_total(UserId(2)), 0);
        let city0 = cand.candidates(UserId(0))[0];
        assert_eq!(st.city_total(city0), 1);
    }

    #[test]
    fn count_noisy_flag_includes_noisy_assignments() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.mu = vec![true, true];
        st.nu = vec![true];
        st.rebuild_counts(&d, &cand, true, true, true);
        // Every edge endpoint + mention contributes despite noise flags.
        assert_eq!(st.user_total(UserId(0)), 3); // follower of e0, friend of e1, mention
        assert_eq!(st.user_total(UserId(1)), 1);
        assert_eq!(st.user_total(UserId(2)), 1);
        // But venue counts still exclude noisy mentions.
        let city0 = cand.candidates(UserId(0))[0];
        assert_eq!(st.city_total(city0), 0);
    }

    #[test]
    fn accumulation_averages_sweeps() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        let u = UserId(0);
        st.add_user(u, 0);
        st.accumulate();
        st.add_user(u, 0);
        st.accumulate();
        assert_eq!(st.accumulated_sweeps(), 2);
        assert!((st.mean_user_count(u, 0) - 1.5).abs() < 1e-12);
        // Fallback to live counts before any accumulation.
        let st2 = state_for(&gaz, &d, &cand);
        assert_eq!(st2.mean_user_count(u, 0), 0.0);
    }

    #[test]
    fn consistency_detects_corruption() {
        let (gaz, d, cand) = fixture();
        let mut st = state_for(&gaz, &d, &cand);
        st.rebuild_counts(&d, &cand, false, true, true);
        st.add_user(UserId(0), 0); // corrupt
        assert!(st.check_consistency(&d, &cand, false, true, true).is_err());
    }

    #[test]
    fn flat_deltas_reproduce_incremental_updates() {
        let (gaz, d, cand) = fixture();
        let mut incremental = state_for(&gaz, &d, &cand);
        let mut merged = incremental.clone();
        let u = UserId(0);
        let city = cand.candidates(u)[0];
        let v = d.mentions[0].venue;

        incremental.add_user(u, 0);
        incremental.add_user(u, 1);
        incremental.remove_user(u, 0);
        incremental.add_venue(city, v);

        let mut user_slots = vec![0i32; merged.num_user_slots()];
        let mut user_totals = vec![0i32; d.num_users()];
        user_slots[merged.user_slot(u, 0)] += 1;
        user_slots[merged.user_slot(u, 1)] += 1;
        user_slots[merged.user_slot(u, 0)] -= 1;
        user_totals[u.index()] += 1;
        let mut venue_slots = vec![0i32; merged.num_venue_slots()];
        let mut city_totals = vec![0i32; gaz.num_cities()];
        venue_slots[merged.venue_slot(city, v)] += 1;
        city_totals[city.index()] += 1;
        merged.apply_user_delta(&user_slots, &user_totals);
        merged.apply_venue_delta(&venue_slots, &city_totals);

        assert_eq!(merged.user_count(u, 0), incremental.user_count(u, 0));
        assert_eq!(merged.user_count(u, 1), incremental.user_count(u, 1));
        assert_eq!(merged.user_total(u), incremental.user_total(u));
        assert_eq!(merged.venue_count(city, v), incremental.venue_count(city, v));
        assert_eq!(merged.city_total(city), incremental.city_total(city));
    }
}
