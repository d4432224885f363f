//! The Gibbs chain and its sequential sweep (paper Sec. 4.5).
//!
//! One sweep resamples, for every following relationship, the model
//! selector `μ_s` and both location assignments `(x_s, y_s)`, and for every
//! tweeting relationship the selector `ν_k` and assignment `z_k`, each from
//! its conditional posterior given everything else. [`GibbsSampler`] owns
//! the chain: its initialisation, its live [`SamplerState`], its power
//! law and its one RNG stream. Its sweep is the shared sweep loop of
//! [`crate::kernel`] over every relationship, against the live counts —
//! the exact chain. The threaded sweep ([`crate::parallel`]) runs the same
//! loop per shard.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::kernel::{self, InitScores, SamplerView};
use crate::random_models::RandomModels;
use crate::state::SamplerState;
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::{KernelMatrix, PowerLaw};
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::{Dataset, FollowEdge, TweetMention, UserId};

/// The sampler: owns the mutable state and RNG, borrows everything static.
pub struct GibbsSampler<'a> {
    gaz: &'a Gazetteer,
    dataset: &'a Dataset,
    candidacy: &'a Candidacy,
    random: &'a RandomModels,
    config: &'a MlpConfig,
    /// Current power law. Read it freely; change it only through
    /// [`Self::set_power_law`], which rebuilds the kernel table.
    pub power_law: PowerLaw,
    /// `d^α` per city pair for `power_law`.
    kernel: KernelMatrix,
    /// Assignment + count state.
    pub state: SamplerState,
    rng: Pcg64,
    weight_buf: Vec<f64>,
}

/// Counts of assignment variables that changed during one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepChanges {
    /// Changed edge variables (μ, x, or y differs), out of S.
    pub edges: usize,
    /// Changed mention variables (ν or z differs), out of K.
    pub mentions: usize,
}

impl<'a> GibbsSampler<'a> {
    /// Creates the sampler and randomises the initial assignments.
    pub fn new(
        gaz: &'a Gazetteer,
        dataset: &'a Dataset,
        candidacy: &'a Candidacy,
        random: &'a RandomModels,
        config: &'a MlpConfig,
    ) -> Self {
        let mut sampler = Self {
            gaz,
            dataset,
            candidacy,
            random,
            config,
            power_law: config.power_law,
            kernel: KernelMatrix::build(gaz.distances(), config.power_law),
            state: SamplerState::new(dataset, candidacy, gaz.num_cities(), gaz.num_venues()),
            rng: Pcg64::new(SplitMix64::derive(config.seed, 0x9B5)),
            weight_buf: Vec::new(),
        };
        sampler.init_assignments();
        sampler
    }

    /// Observation-based initialisation (the paper credits its fast, ~14
    /// iteration convergence to initialising "each user's candidate
    /// locations based on our observations", Sec. 5.1).
    ///
    /// The collapsed chain is a Pólya urn per user: once a city accumulates
    /// counts, single-variable Gibbs moves cannot cross to a competing city
    /// even when the distance evidence favours it. So we start every user at
    /// their *conditional mode*: labeled users at the registered city, and
    /// unlabeled users at the candidate maximising the aggregate distance
    /// log-likelihood against their labeled neighbors (plus a venue-
    /// resolution bonus), which is where the all-in posterior mode lives.
    fn init_assignments(&mut self) {
        let (edges, mentions) = self.relationships();
        let (config, candidacy, registered) =
            (self.config, self.candidacy, &self.dataset.registered);
        // Mode scores: every edge, then every mention.
        let mut scores = InitScores::new(self.gaz, candidacy, &self.kernel);
        for e in edges {
            scores.edge(e, registered);
        }
        for m in mentions {
            scores.mention(m, registered);
        }
        let modes = scores.modes(registered);
        let (counts, asg) = self.state.parts_mut();
        let (mut asg, _) = asg.split_at(edges.len(), mentions.len());
        kernel::init_draws(config, candidacy, &modes, &mut self.rng, edges, mentions, &mut asg);
        counts.add_assigned(candidacy, edges, mentions, &asg, config.count_noisy_assignments);
    }

    /// Sets the power law the chain samples under (the Gibbs-EM M-step)
    /// and rebuilds the kernel table for it.
    pub fn set_power_law(&mut self, law: PowerLaw) {
        self.power_law = law;
        self.kernel = KernelMatrix::build(self.gaz.distances(), law);
    }

    /// The read-only view the kernel evaluates against.
    pub fn view(&self) -> SamplerView<'_> {
        debug_assert_eq!(self.kernel.law(), self.power_law, "use set_power_law");
        let (gaz, candidacy, random, config) = (self.gaz, self.candidacy, self.random, self.config);
        SamplerView { gaz, candidacy, random, config, kernel: &self.kernel }
    }

    /// [`Self::view`] beside mutable borrows of the chain's state, RNG and
    /// weight buffer, so drivers can hold the view while updating them.
    pub(crate) fn split(
        &mut self,
    ) -> (SamplerView<'_>, &mut SamplerState, &mut Pcg64, &mut Vec<f64>) {
        debug_assert_eq!(self.kernel.law(), self.power_law, "use set_power_law");
        let (gaz, candidacy, random, config) = (self.gaz, self.candidacy, self.random, self.config);
        let view = SamplerView { gaz, candidacy, random, config, kernel: &self.kernel };
        (view, &mut self.state, &mut self.rng, &mut self.weight_buf)
    }

    /// The relationships the chain samples: [`kernel::relationships`] of
    /// the dataset.
    pub(crate) fn relationships(&self) -> (&'a [FollowEdge], &'a [TweetMention]) {
        kernel::relationships(self.config.variant, &self.dataset.edges, &self.dataset.mentions)
    }

    /// One full Gibbs sweep over all relationships, against the live
    /// counts with the chain's own RNG stream.
    pub fn sweep(&mut self) -> SweepChanges {
        let (edges, mentions) = self.relationships();
        let (view, state, rng, buf) = self.split();
        let (counts, asg) = state.parts_mut();
        let (asg, _) = asg.split_at(edges.len(), mentions.len());
        kernel::sweep(&view, counts, edges, mentions, asg, rng, buf)
    }

    /// θ̂_i per Eq. 10, over user `u`'s candidates, using post-burn-in mean
    /// counts: `p(l|θ_i) = (ϕ̄_{i,l} + γ_{i,l}) / (ϕ̄_i + Σγ_i)`.
    pub fn estimate_theta(&self, u: UserId) -> Vec<(CityId, f64)> {
        let cands = self.candidacy.candidates(u);
        let mut probs: Vec<(CityId, f64)> = cands.iter().copied().zip(self.theta_row(u)).collect();
        probs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        probs
    }

    /// [`Self::estimate_theta`]'s probabilities in candidate order,
    /// unsorted: item `c` is θ̂ at `candidates(u)[c]`.
    pub(crate) fn theta_row(&self, u: UserId) -> impl ExactSizeIterator<Item = f64> + '_ {
        let (gammas, gamma_total) = (self.candidacy.gammas(u), self.candidacy.gamma_total(u));
        kernel::theta(gammas, gamma_total, move |c| self.state.mean_user_count(u, c))
    }

    /// User `u`'s MAP home, the head of [`Self::estimate_theta`], without
    /// sorting or allocating.
    pub(crate) fn home(&self, u: UserId) -> CityId {
        kernel::argmax_city(self.candidacy.candidates(u), self.theta_row(u))
    }

    /// A joint log-likelihood proxy under current assignments (monitoring
    /// only; collapsed likelihoods are not directly comparable across
    /// selector configurations).
    pub fn log_likelihood_proxy(&self) -> f64 {
        let (edges, mentions) = self.relationships();
        let mut ll = 0.0;
        for (s, e) in edges.iter().enumerate() {
            if self.state.mu[s] {
                ll += (self.config.rho_f * self.random.follow_prob()).ln();
            } else {
                let x = self.candidacy.candidates(e.follower)[self.state.x[s] as usize];
                let y = self.candidacy.candidates(e.friend)[self.state.y[s] as usize];
                ll += ((1.0 - self.config.rho_f) * self.kernel.eval(x.index(), y.index())).ln();
            }
        }
        for (k, m) in mentions.iter().enumerate() {
            if self.state.nu[k] {
                ll += (self.config.rho_t * self.random.venue_prob(m.venue)).ln();
            } else {
                let z = self.candidacy.candidates(m.user)[self.state.z[k] as usize];
                ll += ((1.0 - self.config.rho_t) * self.venue_term_public(z, m.venue)).ln();
            }
        }
        ll
    }

    /// The gazetteer this sampler runs against.
    pub fn gazetteer(&self) -> &'a Gazetteer {
        self.gaz
    }

    /// The candidacy structure in use.
    pub fn candidacy(&self) -> &'a Candidacy {
        self.candidacy
    }

    /// The dataset being fitted.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The model configuration.
    pub fn config(&self) -> &'a MlpConfig {
        self.config
    }

    /// The learned random models.
    pub fn random_models(&self) -> &'a RandomModels {
        self.random
    }

    /// Venue term `(φ_{l,v} + δ) / (Σφ_l + δ|V|)` against live counts, for
    /// the likelihood proxy and MAP extraction in [`crate::model`].
    pub fn venue_term_public(&self, l: CityId, v: VenueId) -> f64 {
        kernel::venue_term(&self.view(), self.state.counts(), l, v)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::{CountStore, CountView};
    use mlp_social::{Adjacency, Generator, GeneratorConfig};

    /// A generated dataset plus everything a sampler borrows; shared by the
    /// chain drivers' unit tests.
    pub(crate) struct Fixture {
        pub(crate) gaz: Gazetteer,
        pub(crate) dataset: Dataset,
        pub(crate) cand: Candidacy,
        pub(crate) random: RandomModels,
        pub(crate) config: MlpConfig,
    }

    impl Fixture {
        pub(crate) fn new(num_users: usize, seed: u64, config: MlpConfig) -> Self {
            let gaz = Gazetteer::us_cities();
            let generator = GeneratorConfig { num_users, seed, ..Default::default() };
            let dataset = Generator::new(&gaz, generator).generate().dataset;
            let adj = Adjacency::build(&dataset);
            let cand = Candidacy::build(&gaz, &dataset, &adj, &config);
            let random = RandomModels::learn(&dataset, gaz.num_venues());
            Self { gaz, dataset, cand, random, config }
        }

        /// A freshly initialised sampler over the fixture.
        pub(crate) fn sampler(&self) -> GibbsSampler<'_> {
            GibbsSampler::new(&self.gaz, &self.dataset, &self.cand, &self.random, &self.config)
        }
    }

    fn run_sweeps(num_users: usize, seed: u64, config: MlpConfig, n: usize) -> Vec<SweepChanges> {
        let f = Fixture::new(num_users, seed, config);
        let mut sampler = f.sampler();
        (0..n).map(|_| sampler.sweep()).collect()
    }

    #[test]
    fn counts_stay_consistent_across_sweeps() {
        let f = Fixture::new(150, 3, MlpConfig::default());
        let mut sampler = f.sampler();
        for _ in 0..3 {
            sampler.sweep();
            sampler
                .state
                .check_consistency(&f.dataset, &f.cand, &f.config)
                .expect("incremental counts must equal a rebuild");
        }
    }

    #[test]
    fn counts_stay_consistent_with_count_noisy() {
        let config = MlpConfig { count_noisy_assignments: true, ..Default::default() };
        let f = Fixture::new(120, 5, config);
        let mut sampler = f.sampler();
        for _ in 0..3 {
            sampler.sweep();
            sampler
                .state
                .check_consistency(&f.dataset, &f.cand, &f.config)
                .expect("count-noisy bookkeeping must also be exact");
        }
    }

    #[test]
    fn sweeps_settle_down() {
        let changes = run_sweeps(300, 7, MlpConfig::default(), 12);
        let early = changes[0].edges + changes[0].mentions;
        let late = changes[11].edges + changes[11].mentions;
        assert!((late as f64) < 0.8 * early as f64, "no settling: first {early}, last {late}");
    }

    #[test]
    fn theta_is_a_distribution_sorted_desc() {
        let f = Fixture::new(100, 11, MlpConfig::default());
        let mut sampler = f.sampler();
        for _ in 0..5 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        for u in 0..f.dataset.num_users() {
            let theta = sampler.estimate_theta(UserId(u as u32));
            let sum: f64 = theta.iter().map(|&(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9, "user {u} theta sums to {sum}");
            for w in theta.windows(2) {
                assert!(w[0].1 >= w[1].1, "user {u} theta not sorted");
            }
        }
    }

    #[test]
    fn home_is_the_head_of_theta_and_ties_go_to_the_lower_city() {
        let f = Fixture::new(150, 43, MlpConfig::default());
        let mut sampler = f.sampler();
        for _ in 0..4 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        let users = (0..f.dataset.num_users() as u32).map(UserId);
        for u in users.clone() {
            assert_eq!(sampler.home(u), sampler.estimate_theta(u)[0].0, "user {u:?}");
        }
        // A hand-built tie: the last two candidates with the plain prior τ
        // (not a registered city's boost) of the user with the most
        // candidates share a live count above every other candidate's
        // count plus prior (no sample accumulated yet).
        let mut sampler = f.sampler();
        let u = users.max_by_key(|&u| f.cand.candidates(u).len()).unwrap();
        let gammas = f.cand.gammas(u);
        let plain: Vec<usize> = (0..gammas.len()).filter(|&c| gammas[c] == f.config.tau).collect();
        let &[.., a, b] = plain.as_slice() else { panic!("user {u:?} has two plain candidates") };
        let (counts, _) = sampler.state.parts_mut();
        let top =
            (0..gammas.len()).map(|c| counts.user_count(u, c) + gammas[c]).fold(0.0, f64::max);
        for c in [a, b] {
            while counts.user_count(u, c) <= top {
                counts.add_user(u, c);
            }
        }
        let tied = f.cand.candidates(u)[a];
        let theta = sampler.estimate_theta(u);
        assert_eq!(theta[0].1, theta[1].1, "the top two are tied");
        assert_eq!((sampler.home(u), theta[0].0), (tied, tied));
    }

    #[test]
    fn labeled_user_theta_concentrates_on_registered_city() {
        let f = Fixture::new(200, 13, MlpConfig::default());
        let mut sampler = f.sampler();
        for _ in 0..8 {
            sampler.sweep();
        }
        // For most labeled users the top θ city should be the registered one
        // (supervision boost + their own location-based relationships).
        let mut hits = 0;
        let mut total = 0;
        for u in 0..f.dataset.num_users() {
            if let Some(home) = f.dataset.registered[u] {
                total += 1;
                let theta = sampler.estimate_theta(UserId(u as u32));
                if theta[0].0 == home {
                    hits += 1;
                }
            }
        }
        assert!(
            hits as f64 / total as f64 > 0.8,
            "only {hits}/{total} labeled users recover their registered city"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |cfg: MlpConfig| {
            let f = Fixture::new(100, 17, cfg);
            let mut s = f.sampler();
            for _ in 0..4 {
                s.sweep();
            }
            (s.state.mu.clone(), s.state.x.clone(), s.state.z.clone())
        };
        assert_eq!(run(MlpConfig::default()), run(MlpConfig::default()));
        assert_ne!(run(MlpConfig::default()), run(MlpConfig { seed: 99, ..Default::default() }));
    }

    #[test]
    fn following_only_never_touches_mentions() {
        for c in run_sweeps(100, 19, MlpConfig::following_only(), 3) {
            assert_eq!(c.mentions, 0);
        }
    }

    #[test]
    fn tweeting_only_never_touches_edges() {
        for c in run_sweeps(100, 23, MlpConfig::tweeting_only(), 3) {
            assert_eq!(c.edges, 0);
        }
    }

    #[test]
    fn log_likelihood_proxy_improves() {
        let f = Fixture::new(200, 29, MlpConfig::default());
        let mut sampler = f.sampler();
        let before = sampler.log_likelihood_proxy();
        for _ in 0..8 {
            sampler.sweep();
        }
        let after = sampler.log_likelihood_proxy();
        assert!(after > before, "ll proxy did not improve: {before} -> {after}");
    }
}
