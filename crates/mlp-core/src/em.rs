//! Gibbs-EM refinement of the power law `(α, β)` (paper Sec. 4.5).
//!
//! "At the E-step, we use the same Gibbs sampling algorithm to estimate
//! x_{s,i} and y_{s,i}'s distribution and calculate the expected distance of
//! each following relationship. At the M-step, we estimate α and β based on
//! the expected distance for each following relationship."
//!
//! Concretely the M-step re-runs the Fig. 3(a) construction against the
//! *inferred* quantities: bucket all user pairs by the distance between
//! their current home estimates (aggregated at city granularity, so the
//! pair count is a |L|² loop instead of N²), bucket the location-based
//! edges by their assigned `d(x_s, y_s)`, and fit a weighted log–log line
//! to the per-bucket following probabilities.

use crate::fit::fit_from_histogram;
use crate::sampler::GibbsSampler;
use mlp_geo::PowerLaw;
use mlp_social::UserId;

/// Re-estimates `(α, β)` from the sampler's current assignments and its
/// users' current homes (the argmax of θ̂, the head of
/// [`GibbsSampler::estimate_theta`]).
///
/// Returns `None` — leaving the caller's power law untouched — when the fit
/// is degenerate (too few location-based edges or all mass in one bucket).
pub fn refit_power_law(sampler: &GibbsSampler<'_>) -> Option<PowerLaw> {
    let (gaz, candidacy, state) = (sampler.gazetteer(), sampler.candidacy(), &sampler.state);
    let dataset = sampler.dataset();
    // Users per estimated home city.
    let mut city_counts = vec![0u64; gaz.num_cities()];
    for u in 0..dataset.num_users() {
        city_counts[sampler.home(UserId(u as u32)).index()] += 1;
    }

    // Successes: location-based edges at their assigned distance.
    let edge_distances = dataset.edges.iter().enumerate().filter_map(|(s, e)| {
        if state.mu[s] {
            return None;
        }
        let x = candidacy.candidates(e.follower)[state.x[s] as usize];
        let y = candidacy.candidates(e.friend)[state.y[s] as usize];
        Some(gaz.distance(x, y))
    });
    fit_from_histogram(gaz, &city_counts, edge_distances, 50)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidacy::Candidacy;
    use crate::config::MlpConfig;
    use crate::random_models::RandomModels;
    use crate::sampler::tests::Fixture;
    use mlp_gazetteer::Gazetteer;
    use mlp_social::{Adjacency, Generator, GeneratorConfig};

    #[test]
    fn refit_recovers_generator_exponent_region() {
        let f = Fixture::new(1_500, 41, MlpConfig::default());
        let mut sampler = f.sampler();
        for _ in 0..6 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        let fit = refit_power_law(&sampler).expect("refit should succeed at this scale");
        // The generator used α = −0.55; the refit should land in a
        // recognisable neighbourhood (city-level aggregation and the noisy
        // mixture blur it).
        assert!(
            (-1.4..=-0.15).contains(&fit.alpha),
            "refit alpha {} too far from generator's -0.55",
            fit.alpha
        );
        assert!(fit.beta > 0.0);
    }

    #[test]
    fn refit_refuses_degenerate_input() {
        let gaz = Gazetteer::us_cities();
        // Dataset with just a handful of edges — far below the 50-edge floor.
        let data = Generator::new(
            &gaz,
            GeneratorConfig {
                num_users: 3,
                seed: 43,
                mean_friends: 1.0,
                mean_mentions: 1.0,
                ..Default::default()
            },
        )
        .generate();
        let config = MlpConfig::default();
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        let fit = refit_power_law(&sampler);
        assert!(fit.is_none());
    }
}
