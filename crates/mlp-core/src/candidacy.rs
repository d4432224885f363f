//! Candidacy vectors `λ_i` and supervised priors `γ_i` (paper Sec. 4.3).
//!
//! "We utilize location\[s\] observed from a user's neighbors to set his
//! candidacy vector. Specifically, we assume that λ_{i,j} is 1 if and only
//! if the j-th candidate location is observed from u_i's following and
//! tweeting relationships." Registered locations resolve directly; tweeted
//! venues resolve through the gazetteer to every city sharing the name.
//!
//! The candidacy vector serves two roles: it prunes the Gibbs sampling
//! domain from |L| to a handful of cities per user (the paper credits it
//! with the fast ~14-iteration convergence), and it carries the sparse
//! prior mass `τ·λ_i`. The supervision term `η_i·Λ·γ` adds a large
//! pseudo-count on a labeled user's registered city.
//!
//! Both trainers build it through one `CandidacyBuilder`: it takes the
//! relationships in any order — the whole dataset for
//! [`Candidacy::build`], one streamed chunk at a time for the sharded
//! trainer ([`crate::shard`]) — and `finish` adds each user's own label,
//! the popular-city fallback, the `candidacy_pruning` ablation and the
//! priors. The result is stored as CSR slabs: one offset table shared by
//! the candidate and `γ` slabs, whose flat *slot* space the count arenas
//! index.

use crate::config::MlpConfig;
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_social::{Adjacency, Dataset, FollowEdge, TweetMention, UserId};
use std::ops::Range;

/// Per-user candidate city lists with aligned priors, as CSR slabs.
#[derive(Debug, Clone)]
pub struct Candidacy {
    /// `offsets[i]..offsets[i + 1]` — user i's range in the slabs.
    offsets: Vec<u32>,
    /// Candidate cities, each user's row sorted ascending.
    cities: Vec<CityId>,
    /// Prior γ of each candidate, parallel to `cities`.
    gammas: Vec<f64>,
    /// `gamma_totals[i]` — Σ_l γ_{i,l}, the denominator constant of Eq. 10.
    gamma_totals: Vec<f64>,
}

impl Candidacy {
    /// Builds every user's candidacy vector and priors from the dataset's
    /// relationship lists; `_adj` is unused and kept for existing callers.
    pub fn build(gaz: &Gazetteer, dataset: &Dataset, _adj: &Adjacency, config: &MlpConfig) -> Self {
        Self::from_dataset(gaz, dataset, config)
    }

    /// [`Self::build`] without the unused adjacency.
    pub(crate) fn from_dataset(gaz: &Gazetteer, dataset: &Dataset, config: &MlpConfig) -> Self {
        let mut builder = CandidacyBuilder::new(dataset.num_users(), config);
        for e in &dataset.edges {
            builder.observe_edge(e, &dataset.registered);
        }
        for m in &dataset.mentions {
            builder.observe_mention(gaz, m);
        }
        builder.finish(gaz, &dataset.registered, config)
    }

    /// Number of users covered.
    pub fn num_users(&self) -> usize {
        self.gamma_totals.len()
    }

    /// User `u`'s range in the flat slot space.
    #[inline]
    pub(crate) fn slots(&self, u: UserId) -> Range<usize> {
        self.offsets[u.index()] as usize..self.offsets[u.index() + 1] as usize
    }

    /// Flat slot of user `u`'s candidate index `c` — the index the count,
    /// accumulator and delta arenas share.
    #[inline]
    pub fn slot(&self, u: UserId, c: usize) -> usize {
        self.offsets[u.index()] as usize + c
    }

    /// Total candidate entries over all users (the slot-space size).
    pub fn num_slots(&self) -> usize {
        self.cities.len()
    }

    /// Candidate cities of user `u`, sorted ascending.
    #[inline]
    pub fn candidates(&self, u: UserId) -> &[CityId] {
        &self.cities[self.slots(u)]
    }

    /// Priors aligned with [`Self::candidates`].
    #[inline]
    pub fn gammas(&self, u: UserId) -> &[f64] {
        &self.gammas[self.slots(u)]
    }

    /// Σ_l γ_{i,l} for user `u`.
    #[inline]
    pub fn gamma_total(&self, u: UserId) -> f64 {
        self.gamma_totals[u.index()]
    }

    /// Index of `city` inside user `u`'s candidate list, if present.
    #[inline]
    pub fn position(&self, u: UserId, city: CityId) -> Option<usize> {
        self.candidates(u).binary_search(&city).ok()
    }

    /// Mean candidate-list length — the pruning factor vs. |L|.
    pub fn mean_candidates(&self) -> f64 {
        if self.num_users() == 0 {
            return 0.0;
        }
        self.num_slots() as f64 / self.num_users() as f64
    }

    /// Fraction of users whose list contains `truth(u)` — the coverage
    /// statistic of Sec. 4.3 (the paper reports 92%); 0 with no users.
    pub fn coverage(&self, truth: impl Fn(UserId) -> CityId) -> f64 {
        let n = self.num_users();
        let hits = (0..n as u32).map(UserId).filter(|&u| self.position(u, truth(u)).is_some());
        hits.count() as f64 / n.max(1) as f64
    }
}

/// Collects candidacy evidence relationship by relationship, in any order,
/// and finishes it into a [`Candidacy`].
pub(crate) struct CandidacyBuilder {
    /// Each user's observed cities so far, sorted and unique.
    sets: Vec<Vec<CityId>>,
    /// Whether edges / mentions contribute: the variant's, and neither
    /// when pruning is off (every user then gets every city).
    following: bool,
    tweeting: bool,
}

impl CandidacyBuilder {
    pub(crate) fn new(num_users: usize, config: &MlpConfig) -> Self {
        let pruning = config.candidacy_pruning;
        Self {
            sets: vec![Vec::new(); num_users],
            following: pruning && config.variant.uses_following(),
            tweeting: pruning && config.variant.uses_tweeting(),
        }
    }

    /// A following relationship: each endpoint observes the other's label.
    pub(crate) fn observe_edge(&mut self, e: &FollowEdge, registered: &[Option<CityId>]) {
        if !self.following {
            return;
        }
        if let Some(c) = registered[e.friend.index()] {
            insert_sorted(&mut self.sets[e.follower.index()], c);
        }
        if let Some(c) = registered[e.follower.index()] {
            insert_sorted(&mut self.sets[e.friend.index()], c);
        }
    }

    /// A tweeting relationship: the user observes every city the venue
    /// resolves to.
    pub(crate) fn observe_mention(&mut self, gaz: &Gazetteer, m: &TweetMention) {
        if !self.tweeting {
            return;
        }
        for &c in gaz.resolve_venue(m.venue) {
            insert_sorted(&mut self.sets[m.user.index()], c);
        }
    }

    /// Adds each user's own label, falls back to the most populous cities
    /// for users with no evidence (every city when pruning is off), and
    /// lays out the priors `γ_{i,l} = τ·λ_{i,l} + boost·η_{i,l}` (Eq. 3,
    /// diagonal Λ).
    pub(crate) fn finish(
        self,
        gaz: &Gazetteer,
        registered: &[Option<CityId>],
        config: &MlpConfig,
    ) -> Candidacy {
        let pruning = config.candidacy_pruning;
        let fallback = if pruning {
            popular_cities(gaz, config.fallback_popular_k)
        } else {
            (0..gaz.num_cities() as u32).map(CityId).collect()
        };
        let n = self.sets.len();
        let mut out = Candidacy {
            offsets: Vec::with_capacity(n + 1),
            cities: Vec::new(),
            gammas: Vec::new(),
            gamma_totals: Vec::with_capacity(n),
        };
        out.offsets.push(0);
        for (mut set, &home) in self.sets.into_iter().zip(registered) {
            if let (true, Some(c)) = (pruning, home) {
                insert_sorted(&mut set, c);
            }
            let row = if set.is_empty() { &fallback } else { &set };
            let start = out.cities.len();
            out.cities.extend_from_slice(row);
            out.gammas.resize(out.cities.len(), config.tau);
            if let Some(pos) = home.and_then(|h| row.binary_search(&h).ok()) {
                out.gammas[start + pos] += config.supervision_boost;
            }
            out.gamma_totals.push(out.gammas[start..].iter().sum());
            out.offsets.push(out.cities.len() as u32);
        }
        out
    }
}

/// Inserts `c` into the sorted set unless it is already there.
fn insert_sorted(set: &mut Vec<CityId>, c: CityId) {
    if let Err(pos) = set.binary_search(&c) {
        set.insert(pos, c);
    }
}

/// The `k` most populous cities (at least one), sorted ascending by id —
/// the candidate list of a user with no usable evidence.
pub(crate) fn popular_cities(gaz: &Gazetteer, k: usize) -> Vec<CityId> {
    let mut by_pop: Vec<CityId> = (0..gaz.num_cities() as u32).map(CityId).collect();
    by_pop.sort_by_key(|&c| std::cmp::Reverse(gaz.city(c).population));
    by_pop.truncate(k.max(1));
    by_pop.sort_unstable();
    by_pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::PosteriorSnapshot;

    fn gaz() -> Gazetteer {
        Gazetteer::us_cities()
    }

    /// Four users: 0 labeled Austin follows 1 (labeled LA); 2 tweets
    /// "princeton"; 3 has no signal at all.
    fn fixture(g: &Gazetteer) -> Dataset {
        let austin = g.city_by_name_state("austin", "TX").unwrap();
        let la = g.city_by_name_state("los angeles", "CA").unwrap();
        let mut d = Dataset::new(4);
        d.registered[0] = Some(austin);
        d.registered[1] = Some(la);
        d.edges.push(FollowEdge { follower: UserId(0), friend: UserId(1) });
        let princeton = g.venue_by_name("princeton").unwrap();
        d.mentions.push(TweetMention { user: UserId(2), venue: princeton });
        d
    }

    #[test]
    fn candidates_come_from_own_label_neighbors_and_venues() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        let cand = Candidacy::build(&g, &d, &adj, &MlpConfig::default());

        let austin = g.city_by_name_state("austin", "TX").unwrap();
        let la = g.city_by_name_state("los angeles", "CA").unwrap();
        // User 0: own label + friend's label.
        assert!(cand.position(UserId(0), austin).is_some());
        assert!(cand.position(UserId(0), la).is_some());
        // User 1: own label + follower's label.
        assert!(cand.position(UserId(1), austin).is_some());
        assert!(cand.position(UserId(1), la).is_some());
        // User 2: every Princeton.
        let princetons = g.cities_named("princeton");
        assert_eq!(cand.candidates(UserId(2)).len(), princetons.len());
        for p in princetons {
            assert!(cand.position(UserId(2), *p).is_some());
        }
    }

    #[test]
    fn signal_free_user_gets_popular_fallback() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        let config = MlpConfig { fallback_popular_k: 5, ..Default::default() };
        let cand = Candidacy::build(&g, &d, &adj, &config);
        assert_eq!(cand.candidates(UserId(3)).len(), 5);
        let nyc = g.city_by_name_state("new york", "NY").unwrap();
        assert!(cand.position(UserId(3), nyc).is_some(), "NYC is in the top-5 pool");
    }

    /// On a gazetteer whose ids are not in population order, the fallback
    /// list is still sorted: `position` finds every entry and the frozen
    /// snapshot decodes.
    #[test]
    fn fallback_is_sorted_when_ids_are_not_in_population_order() {
        let mut cities = gaz().cities().to_vec();
        cities.reverse();
        let g = Gazetteer::from_cities(cities);
        let d = fixture(&g);
        let config = MlpConfig { iterations: 2, burn_in: 1, ..Default::default() };
        let cand = Candidacy::build(&g, &d, &Adjacency::build(&d), &config);

        let fallback = cand.candidates(UserId(3));
        assert_eq!(fallback.len(), config.fallback_popular_k);
        assert!(fallback.windows(2).all(|w| w[0] < w[1]), "fallback not ascending: {fallback:?}");
        for (i, &c) in fallback.iter().enumerate() {
            assert_eq!(cand.position(UserId(3), c), Some(i), "position misses {c:?}");
        }

        let (_, snap) = crate::model::Mlp::new(&g, &d, config).unwrap().run_with_snapshot();
        let bytes = snap.try_encode().unwrap();
        let back = PosteriorSnapshot::decode(bytes.clone()).expect("snapshot decodes");
        assert_eq!(back.try_encode().unwrap(), bytes);
    }

    #[test]
    fn supervision_boost_lands_on_registered_city() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        let config = MlpConfig { tau: 0.1, supervision_boost: 20.0, ..Default::default() };
        let cand = Candidacy::build(&g, &d, &adj, &config);
        let austin = g.city_by_name_state("austin", "TX").unwrap();
        let pos = cand.position(UserId(0), austin).unwrap();
        let gammas = cand.gammas(UserId(0));
        assert!((gammas[pos] - 20.1).abs() < 1e-12);
        for (i, &gv) in gammas.iter().enumerate() {
            if i != pos {
                assert!((gv - 0.1).abs() < 1e-12);
            }
        }
        let total: f64 = gammas.iter().sum();
        assert!((cand.gamma_total(UserId(0)) - total).abs() < 1e-12);
    }

    #[test]
    fn unlabeled_user_gets_flat_prior() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        let cand = Candidacy::build(&g, &d, &adj, &MlpConfig::default());
        for &gv in cand.gammas(UserId(2)) {
            assert!((gv - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_off_gives_full_domain() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        let config = MlpConfig { candidacy_pruning: false, ..Default::default() };
        let cand = Candidacy::build(&g, &d, &adj, &config);
        assert_eq!(cand.candidates(UserId(0)).len(), g.num_cities());
        assert_eq!(cand.candidates(UserId(3)).len(), g.num_cities());
        assert!(cand.mean_candidates() > 100.0);
    }

    #[test]
    fn variant_restricts_signal_sources() {
        let g = gaz();
        let d = fixture(&g);
        let adj = Adjacency::build(&d);
        // Content-only: user 0's friend label must not appear; but user 0 has
        // no venues, so fallback kicks in... user 2 keeps Princetons.
        let config = MlpConfig::tweeting_only();
        let cand = Candidacy::build(&g, &d, &adj, &config);
        let princetons = g.cities_named("princeton");
        assert_eq!(cand.candidates(UserId(2)).len(), princetons.len());
        // Network-only: user 2 (venue only) falls back to the popular pool.
        let config = MlpConfig::following_only();
        let cand = Candidacy::build(&g, &d, &adj, &config);
        assert_eq!(cand.candidates(UserId(2)).len(), config.fallback_popular_k);
    }

    #[test]
    fn coverage_statistic() {
        let g = gaz();
        let d = fixture(&g);
        let cand = Candidacy::build(&g, &d, &Adjacency::build(&d), &MlpConfig::default());
        // Truth: everyone lives in Austin. Users 0 and 1 have it (own/friend
        // label); users 2 and 3 do not.
        let cov = cand.coverage(|_| g.city_by_name_state("austin", "TX").unwrap());
        assert!((cov - 0.5).abs() < 1e-12, "coverage {cov}");
    }

    #[test]
    fn candidates_are_sorted_and_deduped() {
        let g = gaz();
        let mut d = fixture(&g);
        // Duplicate signals: follow the same labeled user twice via both
        // directions plus own registration.
        d.edges.push(FollowEdge { follower: UserId(1), friend: UserId(0) });
        let adj = Adjacency::build(&d);
        let cand = Candidacy::build(&g, &d, &adj, &MlpConfig::default());
        for u in 0..4 {
            let c = cand.candidates(UserId(u));
            for w in c.windows(2) {
                assert!(w[0] < w[1], "user {u} candidates not strictly sorted");
            }
        }
    }
}
