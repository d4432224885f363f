//! The [`Mlp`] façade: build → infer → extract.
//!
//! Ties together candidacy construction, random-model learning, the Gibbs
//! sampler, the optional Gibbs-EM outer loop, and the final extraction of
//! location profiles (Eq. 10) and per-relationship MAP assignments — the
//! outputs the paper's three evaluation tasks consume.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::diagnostics::{Diagnostics, IterationStats};
use crate::em::refit_power_law;
use crate::kernel::argmax_city;
use crate::parallel::parallel_sweep;
use crate::random_models::RandomModels;
use crate::sampler::GibbsSampler;
use crate::snapshot::PosteriorSnapshot;
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_geo::PowerLaw;
use mlp_social::{Dataset, UserId};

/// Final assignment for one following relationship — the paper's
/// "explanation" of the edge (Sec. 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeAssignment {
    /// Whether the model attributes the edge to the random model F_R.
    pub noisy: bool,
    /// MAP location assignment of the follower.
    pub x: CityId,
    /// MAP location assignment of the friend.
    pub y: CityId,
}

/// Final assignment for one tweeting relationship.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MentionAssignment {
    /// Whether the model attributes the mention to the random model T_R.
    pub noisy: bool,
    /// MAP location assignment of the tweeting user.
    pub z: CityId,
}

/// Everything MLP infers from one dataset.
#[derive(Debug, Clone)]
pub struct MlpResult {
    /// θ̂_i per user: `(city, probability)` sorted by descending
    /// probability; restricted to the user's candidate cities.
    pub profiles: Vec<Vec<(CityId, f64)>>,
    /// Per-edge explanations, aligned with `dataset.edges`.
    pub edge_assignments: Vec<EdgeAssignment>,
    /// Per-mention explanations, aligned with `dataset.mentions`.
    pub mention_assignments: Vec<MentionAssignment>,
    /// The (possibly EM-refined) power law.
    pub power_law: PowerLaw,
    /// Convergence telemetry.
    pub diagnostics: Diagnostics,
    /// Mean candidate-list length (the Sec. 4.3 pruning factor).
    pub mean_candidates: f64,
}

impl MlpResult {
    /// Predicted home location: the argmax of θ̂ (Sec. 4.5: "the one with
    /// the largest probability").
    pub fn home(&self, u: UserId) -> CityId {
        self.profiles[u.index()][0].0
    }

    /// The top-`k` locations of θ̂ — the paper's location-profile output.
    pub fn top_k(&self, u: UserId, k: usize) -> Vec<CityId> {
        self.profiles[u.index()].iter().take(k).map(|&(c, _)| c).collect()
    }

    /// Locations whose probability exceeds `threshold` (the paper's
    /// alternative profile extraction rule).
    pub fn locations_above(&self, u: UserId, threshold: f64) -> Vec<CityId> {
        self.profiles[u.index()].iter().filter(|&&(_, p)| p > threshold).map(|&(c, _)| c).collect()
    }
}

/// The model façade.
pub struct Mlp<'a> {
    gaz: &'a Gazetteer,
    dataset: &'a Dataset,
    config: MlpConfig,
}

impl<'a> Mlp<'a> {
    /// Validates the configuration and binds the model to its inputs.
    ///
    /// When `fit_power_law_from_data` is set (the default), the initial
    /// `(α, β)` are learned from the labeled users here (paper Sec. 4.1), so
    /// both the sampler's initialisation and its conditionals run with a
    /// power law calibrated to *this* dataset.
    pub fn new(
        gaz: &'a Gazetteer,
        dataset: &'a Dataset,
        config: MlpConfig,
    ) -> Result<Self, String> {
        config.validate().map_err(|e| e.to_string())?;
        dataset.validate(gaz.num_cities(), gaz.num_venues())?;
        let mut config = config;
        if config.fit_power_law_from_data {
            if let Some(fit) = crate::fit::fit_power_law_from_labels(gaz, dataset) {
                config.power_law = fit;
            }
        }
        Ok(Self { gaz, dataset, config })
    }

    /// Runs inference end to end and extracts all outputs.
    pub fn run(&self) -> MlpResult {
        self.run_impl(false).0
    }

    /// Runs inference and additionally freezes the trained posterior into
    /// a [`PosteriorSnapshot`] — the artifact warm-start serving
    /// ([`crate::infer`]) predicts unseen users against.
    pub fn run_with_snapshot(&self) -> (MlpResult, PosteriorSnapshot) {
        let (result, snapshot) = self.run_impl(true);
        (result, snapshot.expect("snapshot requested"))
    }

    fn run_impl(&self, want_snapshot: bool) -> (MlpResult, Option<PosteriorSnapshot>) {
        let candidacy = Candidacy::from_dataset(self.gaz, self.dataset, &self.config);
        let random = RandomModels::learn(self.dataset, self.gaz.num_venues());
        let mut sampler =
            GibbsSampler::new(self.gaz, self.dataset, &candidacy, &random, &self.config);

        let mut diagnostics = Diagnostics::default();
        let n = self.dataset.num_users();
        let mut prev_homes: Vec<CityId> = (0..n).map(|u| sampler.home(UserId(u as u32))).collect();

        let em_rounds = if self.config.gibbs_em { self.config.em_iterations } else { 1 };
        let mut sweep_counter = 0u64;
        for round in 0..em_rounds {
            for iter in 0..self.config.iterations {
                // One entry point for both schedules: `parallel_sweep` runs
                // the exact sequential sweep when `threads == 1`.
                let changes = parallel_sweep(&mut sampler, sweep_counter);
                sweep_counter += 1;
                if iter >= self.config.burn_in {
                    sampler.state.accumulate();
                }

                let homes: Vec<CityId> = (0..n).map(|u| sampler.home(UserId(u as u32))).collect();
                let moved = homes.iter().zip(&prev_homes).filter(|(a, b)| a != b).count();
                diagnostics.iterations.push(IterationStats {
                    iteration: (round * self.config.iterations + iter),
                    edge_change_fraction: ratio(changes.edges, self.dataset.num_edges()),
                    mention_change_fraction: ratio(changes.mentions, self.dataset.num_mentions()),
                    home_change_fraction: ratio(moved, n),
                    log_likelihood: sampler.log_likelihood_proxy(),
                });
                prev_homes = homes;
            }
            // M-step: refit (α, β) between rounds.
            if self.config.gibbs_em && round + 1 < em_rounds {
                if let Some(fit) = refit_power_law(&sampler) {
                    sampler.set_power_law(fit);
                    diagnostics.power_law_trace.push((fit.alpha, fit.beta));
                }
            }
        }

        let profiles: Vec<Vec<(CityId, f64)>> =
            (0..n).map(|u| sampler.estimate_theta(UserId(u as u32))).collect();
        let (edge_assignments, mention_assignments) = {
            // θ̂ in the candidacy's flat slot space, so user `u`'s row starts
            // at `slot(u, 0)`; one allocation, freed before the freeze.
            let mut theta = Vec::with_capacity(candidacy.num_slots());
            for u in 0..n {
                theta.extend(sampler.theta_row(UserId(u as u32)));
            }
            (
                self.extract_edge_assignments(&sampler, &candidacy, &theta),
                self.extract_mention_assignments(&sampler, &candidacy, &theta),
            )
        };

        let snapshot = want_snapshot.then(|| PosteriorSnapshot::freeze(&sampler));
        (
            MlpResult {
                profiles,
                edge_assignments,
                mention_assignments,
                power_law: sampler.power_law,
                diagnostics,
                mean_candidates: candidacy.mean_candidates(),
            },
            snapshot,
        )
    }

    /// MAP refinement of per-edge assignments: conditional argmax of
    /// `θ̂ × kernel`, two alternating passes starting from the last sample.
    /// `theta` holds every user's [`GibbsSampler::theta_row`] in the
    /// candidacy's slot space.
    fn extract_edge_assignments(
        &self,
        sampler: &GibbsSampler<'_>,
        candidacy: &Candidacy,
        theta: &[f64],
    ) -> Vec<EdgeAssignment> {
        let kernel = sampler.view().kernel;
        let row = |u: UserId| (candidacy.candidates(u), &theta[candidacy.slot(u, 0)..]);
        self.dataset
            .edges
            .iter()
            .enumerate()
            .map(|(s, e)| {
                let (i, j) = (e.follower, e.friend);
                let ((ci, ti), (cj, tj)) = (row(i), row(j));
                let noisy = sampler.state.mu[s];
                let mut x = ci[sampler.state.x[s] as usize];
                let mut y = cj[sampler.state.y[s] as usize];
                if noisy {
                    // Profile-only MAP for noisy edges.
                    x = argmax_city(ci, ti.iter().copied());
                    y = argmax_city(cj, tj.iter().copied());
                } else {
                    for _ in 0..2 {
                        let row = kernel.row(y.index());
                        x = argmax_city(ci, ci.iter().zip(ti).map(|(c, t)| t * row[c.index()]));
                        let row = kernel.row(x.index());
                        y = argmax_city(cj, cj.iter().zip(tj).map(|(c, t)| t * row[c.index()]));
                    }
                }
                EdgeAssignment { noisy, x, y }
            })
            .collect()
    }

    fn extract_mention_assignments(
        &self,
        sampler: &GibbsSampler<'_>,
        candidacy: &Candidacy,
        theta: &[f64],
    ) -> Vec<MentionAssignment> {
        self.dataset
            .mentions
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let ci = candidacy.candidates(m.user);
                let ti = &theta[candidacy.slot(m.user, 0)..];
                let noisy = sampler.state.nu[k];
                let z = if noisy {
                    argmax_city(ci, ti.iter().copied())
                } else {
                    let venue =
                        |(&c, t): (&CityId, &f64)| t * sampler.venue_term_public(c, m.venue);
                    argmax_city(ci, ci.iter().zip(ti).map(venue))
                };
                MentionAssignment { noisy, z }
            })
            .collect()
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_social::{EdgeTruth, Generator, GeneratorConfig};

    fn run(
        num_users: usize,
        data_seed: u64,
        config: MlpConfig,
    ) -> (MlpResult, mlp_social::GeneratedData, Gazetteer) {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users, seed: data_seed, ..Default::default() },
        )
        .generate();
        let result = Mlp::new(&gaz, &data.dataset, config).unwrap().run();
        (result, data, gaz)
    }

    fn quick_config() -> MlpConfig {
        MlpConfig { iterations: 12, burn_in: 6, ..Default::default() }
    }

    #[test]
    fn result_shape_is_complete() {
        let (result, data, _) = run(150, 61, quick_config());
        assert_eq!(result.profiles.len(), 150);
        assert_eq!(result.edge_assignments.len(), data.dataset.num_edges());
        assert_eq!(result.mention_assignments.len(), data.dataset.num_mentions());
        assert_eq!(result.diagnostics.iterations.len(), 12);
        assert!(result.mean_candidates > 1.0);
        for u in 0..150 {
            let p = &result.profiles[u];
            assert!(!p.is_empty());
            let sum: f64 = p.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn labeled_users_recover_registered_homes() {
        let (result, data, _) = run(300, 67, quick_config());
        let mut hits = 0;
        for u in 0..300u32 {
            if let Some(home) = data.dataset.registered[u as usize] {
                if result.home(UserId(u)) == home {
                    hits += 1;
                }
            }
        }
        let acc = hits as f64 / data.dataset.num_labeled() as f64;
        assert!(acc > 0.85, "labeled-home recovery {acc}");
    }

    #[test]
    fn masked_users_are_predicted_above_chance() {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 500, seed: 71, ..Default::default() },
        )
        .generate();
        // Mask 20% of users, predict their true homes.
        let masked: Vec<UserId> = (0..100).map(UserId).collect();
        let train = data.dataset.mask_users(&masked);
        let result = Mlp::new(&gaz, &train, quick_config()).unwrap().run();
        let hits = masked
            .iter()
            .filter(|&&u| gaz.distance(result.home(u), data.truth.home(u)) <= 100.0)
            .count();
        let acc = hits as f64 / masked.len() as f64;
        // The paper achieves 62% on real data; synthetic data is cleaner, so
        // demand a healthy margin over chance (~1/|L| ≈ 0.4%).
        assert!(acc > 0.45, "masked-home ACC@100 {acc}");
    }

    #[test]
    fn edge_assignments_are_candidate_cities() {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 150, seed: 73, ..Default::default() },
        )
        .generate();
        let config = quick_config();
        let mlp = Mlp::new(&gaz, &data.dataset, config.clone()).unwrap();
        let result = mlp.run();
        // `run` rebuilds candidacy from the same inputs, deterministically.
        let cand = Candidacy::from_dataset(&gaz, &data.dataset, &mlp.config);
        let edges = &data.dataset.edges;
        assert_eq!(result.edge_assignments.len(), edges.len());
        for (s, (e, a)) in edges.iter().zip(&result.edge_assignments).enumerate() {
            assert!(
                cand.position(e.follower, a.x).is_some(),
                "edge {s}: x not a follower candidate"
            );
            assert!(cand.position(e.friend, a.y).is_some(), "edge {s}: y not a friend candidate");
        }
        let mentions = &data.dataset.mentions;
        assert_eq!(result.mention_assignments.len(), mentions.len());
        for (k, (m, a)) in mentions.iter().zip(&result.mention_assignments).enumerate() {
            assert!(cand.position(m.user, a.z).is_some(), "mention {k}: z not a user candidate");
        }
    }

    #[test]
    fn noisy_edges_are_detected_above_chance() {
        let (result, data, _) = run(400, 79, quick_config());
        // Among edges the generator marked noisy, the model should flag a
        // larger fraction than among location-based edges.
        let mut noisy_flagged = 0usize;
        let mut noisy_total = 0usize;
        let mut based_flagged = 0usize;
        let mut based_total = 0usize;
        for (t, a) in data.truth.edge_truth.iter().zip(&result.edge_assignments) {
            match t {
                EdgeTruth::Noisy => {
                    noisy_total += 1;
                    noisy_flagged += a.noisy as usize;
                }
                EdgeTruth::Based { .. } => {
                    based_total += 1;
                    based_flagged += a.noisy as usize;
                }
            }
        }
        let noisy_rate = noisy_flagged as f64 / noisy_total as f64;
        let based_rate = based_flagged as f64 / based_total as f64;
        assert!(
            noisy_rate > based_rate + 0.1,
            "noise detection not separating: noisy {noisy_rate} vs based {based_rate}"
        );
    }

    #[test]
    fn gibbs_em_refines_power_law() {
        let config = MlpConfig {
            iterations: 8,
            burn_in: 4,
            gibbs_em: true,
            em_iterations: 2,
            ..Default::default()
        };
        let (result, _, _) = run(600, 83, config);
        assert!(
            !result.diagnostics.power_law_trace.is_empty(),
            "EM must record at least one refit"
        );
        assert_ne!(result.power_law, PowerLaw::PAPER_TWITTER, "refit should move the parameters");
    }

    #[test]
    fn run_is_deterministic() {
        let (a, _, _) = run(120, 89, quick_config());
        let (b, _, _) = run(120, 89, quick_config());
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.edge_assignments, b.edge_assignments);
    }

    #[test]
    fn top_k_and_threshold_extraction() {
        let (result, _, _) = run(100, 97, quick_config());
        let u = UserId(0);
        let top2 = result.top_k(u, 2);
        assert!(!top2.is_empty() && top2.len() <= 2);
        assert_eq!(top2[0], result.home(u));
        let above = result.locations_above(u, 0.0);
        assert_eq!(above.len(), result.profiles[0].len());
        assert!(result.locations_above(u, 1.1).is_empty());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let gaz = Gazetteer::us_cities();
        let d = Dataset::new(2);
        let bad = MlpConfig { iterations: 0, ..Default::default() };
        assert!(Mlp::new(&gaz, &d, bad).is_err());
        let mut bad_data = Dataset::new(2);
        bad_data.registered[0] = Some(CityId(9_999));
        assert!(Mlp::new(&gaz, &bad_data, MlpConfig::default()).is_err());
    }
}
