//! The sequential collapsed Gibbs sweep driver (paper Sec. 4.5).
//!
//! One sweep resamples, for every following relationship, the model
//! selector `μ_s` and both location assignments `(x_s, y_s)`, and for every
//! tweeting relationship the selector `ν_k` and assignment `z_k`, each from
//! its conditional posterior given everything else. The draws themselves
//! are the edge and mention steps of [`crate::kernel`], shared with every
//! other chain. This driver owns the rest: the chain's initialisation, its
//! one RNG stream, the sweep order, and the exclude-current bookkeeping —
//! it decrements the live [`SamplerState`] before each step and adds the
//! new draw back after.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::kernel::{self, InitScores, SamplerView};
use crate::random_models::RandomModels;
use crate::state::SamplerState;
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::{KernelMatrix, PowerLaw};
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::{Dataset, UserId};

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
        let (uses_following, uses_tweeting) =
            (self.config.variant.uses_following(), self.config.variant.uses_tweeting());
        // Mode scores: every edge, then every mention.
        let mut scores = InitScores::new(self.gaz, self.candidacy, &self.kernel);
        if uses_following {
            for e in &self.dataset.edges {
                scores.edge(e, &self.dataset.registered);
            }
        }
        if uses_tweeting {
            for m in &self.dataset.mentions {
                scores.mention(m);
            }
        }
        let modes = scores.modes(&self.dataset.registered);
        let pos = |sampler: &mut Self, user: UserId| -> usize {
            let len = sampler.candidacy.candidates(user).len();
            kernel::init_position(&mut sampler.rng, modes[user.index()].map(|m| m as usize), len)
        };
        // Loops are gated by variant (not just skipped in the sweep) so the
        // RNG stream for one observation type is independent of the other's
        // presence — a TweetingOnly run must be bit-identical whether or not
        // the dataset carries edges.
        if uses_following {
            for s in 0..self.dataset.num_edges() {
                let e = self.dataset.edges[s];
                self.state.mu[s] = self.rng.bernoulli(self.config.rho_f);
                self.state.x[s] = pos(self, e.follower) as u16;
                self.state.y[s] = pos(self, e.friend) as u16;
            }
        }
        if uses_tweeting {
            for k in 0..self.dataset.num_mentions() {
                let m = self.dataset.mentions[k];
                self.state.nu[k] = self.rng.bernoulli(self.config.rho_t);
                self.state.z[k] = pos(self, m.user) as u16;
            }
        }
        self.state.rebuild_counts(
            self.dataset,
            self.candidacy,
            self.config.count_noisy_assignments,
            uses_following,
            uses_tweeting,
        );
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
        SamplerView {
            gaz: self.gaz,
            candidacy: self.candidacy,
            random: self.random,
            config: self.config,
            kernel: &self.kernel,
        }
    }

    /// [`Self::view`] beside mutable borrows of the chain's state, RNG and
    /// weight buffer, so drivers can hold the view while updating them.
    pub(crate) fn split(
        &mut self,
    ) -> (SamplerView<'_>, &mut SamplerState, &mut Pcg64, &mut Vec<f64>) {
        debug_assert_eq!(self.kernel.law(), self.power_law, "use set_power_law");
        let view = SamplerView {
            gaz: self.gaz,
            candidacy: self.candidacy,
            random: self.random,
            config: self.config,
            kernel: &self.kernel,
        };
        (view, &mut self.state, &mut self.rng, &mut self.weight_buf)
    }

    /// One full Gibbs sweep over all relationships.
    pub fn sweep(&mut self) -> SweepChanges {
        let mut changes = SweepChanges::default();
        if self.config.variant.uses_following() {
            for s in 0..self.dataset.num_edges() {
                if self.resample_edge(s) {
                    changes.edges += 1;
                }
            }
        }
        if self.config.variant.uses_tweeting() {
            for k in 0..self.dataset.num_mentions() {
                if self.resample_mention(k) {
                    changes.mentions += 1;
                }
            }
        }
        changes
    }

    /// Resamples `(μ_s, x_s, y_s)`; returns whether anything changed.
    fn resample_edge(&mut self, s: usize) -> bool {
        let e = self.dataset.edges[s];
        let (i, j) = (e.follower, e.friend);
        let count_noisy = self.config.count_noisy_assignments;
        let (view, state, rng, buf) = self.split();
        let (old_mu, old_x, old_y) = (state.mu[s], state.x[s] as usize, state.y[s] as usize);

        // Exclude the current contribution by live decrement.
        if !old_mu || count_noisy {
            state.remove_user(i, old_x);
            state.remove_user(j, old_y);
        }
        let (mu, x, y) = kernel::edge_step(&view, &*state, (i, old_x), (j, old_y), rng, buf);
        if !mu || count_noisy {
            state.add_user(i, x);
            state.add_user(j, y);
        }
        state.mu[s] = mu;
        state.x[s] = x as u16;
        state.y[s] = y as u16;
        (mu, x, y) != (old_mu, old_x, old_y)
    }

    /// Resamples `(ν_k, z_k)`; returns whether anything changed.
    fn resample_mention(&mut self, k: usize) -> bool {
        let m = self.dataset.mentions[k];
        let (i, v) = (m.user, m.venue);
        let ci = self.candidacy.candidates(i);
        let count_noisy = self.config.count_noisy_assignments;
        let (view, state, rng, buf) = self.split();
        let (old_nu, old_z) = (state.nu[k], state.z[k] as usize);

        if !old_nu || count_noisy {
            state.remove_user(i, old_z);
        }
        if !old_nu {
            state.remove_venue(ci[old_z], v);
        }
        let (nu, z) = kernel::mention_step(&view, &*state, (i, old_z), v, rng, buf);
        if !nu || count_noisy {
            state.add_user(i, z);
        }
        if !nu {
            state.add_venue(ci[z], v);
        }
        state.nu[k] = nu;
        state.z[k] = z as u16;
        (nu, z) != (old_nu, old_z)
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
        let gammas = self.candidacy.gammas(u);
        let mut total = self.candidacy.gamma_total(u);
        for c in 0..gammas.len() {
            total += self.state.mean_user_count(u, c);
        }
        (0..gammas.len()).map(move |c| (self.state.mean_user_count(u, c) + gammas[c]) / total)
    }

    /// A joint log-likelihood proxy under current assignments (monitoring
    /// only; collapsed likelihoods are not directly comparable across
    /// selector configurations).
    pub fn log_likelihood_proxy(&self) -> f64 {
        let mut ll = 0.0;
        if self.config.variant.uses_following() {
            for (s, e) in self.dataset.edges.iter().enumerate() {
                if self.state.mu[s] {
                    ll += (self.config.rho_f * self.random.follow_prob()).ln();
                } else {
                    let x = self.candidacy.candidates(e.follower)[self.state.x[s] as usize];
                    let y = self.candidacy.candidates(e.friend)[self.state.y[s] as usize];
                    ll += ((1.0 - self.config.rho_f) * self.kernel.eval(x.index(), y.index())).ln();
                }
            }
        }
        if self.config.variant.uses_tweeting() {
            for (k, m) in self.dataset.mentions.iter().enumerate() {
                if self.state.nu[k] {
                    ll += (self.config.rho_t * self.random.venue_prob(m.venue)).ln();
                } else {
                    let z = self.candidacy.candidates(m.user)[self.state.z[k] as usize];
                    ll += ((1.0 - self.config.rho_t) * self.venue_term_public(z, m.venue)).ln();
                }
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
        kernel::venue_term(&self.view(), &self.state, l, v)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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
                .check_consistency(&f.dataset, &f.cand, false, true, true)
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
                .check_consistency(&f.dataset, &f.cand, true, true, true)
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
