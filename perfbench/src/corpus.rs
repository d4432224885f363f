//! The seed-derived inputs: one synthetic corpus split into the training
//! users and a pool of unseen users. The unseen users are both the request
//! list (served) and the newcomers (absorbed by refresh, round-robin).

use crate::plan::Plan;
use crate::stats;
use mlp_core::engine::ProfileRequest;
use mlp_core::{FoldInConfig, MlpConfig};
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_social::{Dataset, GeneratedData, Generator, GeneratorConfig, UserId};

pub struct Corpus {
    pub data: GeneratedData,
    /// Users `0..base`: what the posterior is trained on.
    pub train: Dataset,
    pub unseen_ids: Vec<UserId>,
    /// The unseen users' observations, neighbors limited to trained users
    /// so every request and refresh batch stays valid however far refresh
    /// has advanced.
    pub requests: Vec<ProfileRequest>,
}

impl Corpus {
    pub fn generate(gaz: &Gazetteer, plan: &Plan) -> Self {
        let base = plan.base_users;
        let total = base + plan.unseen_users;
        let data = Generator::new(
            gaz,
            GeneratorConfig { num_users: total, seed: plan.seed, ..Default::default() },
        )
        .generate();
        let train = data.dataset.prefix(base);
        let unseen_ids: Vec<UserId> = (base..total).map(|u| UserId(u as u32)).collect();
        let mut requests = ProfileRequest::batch_from_dataset(&data.dataset, &unseen_ids);
        for r in &mut requests {
            r.observations.neighbors.retain(|p| p.index() < base);
        }
        Self { data, train, unseen_ids, requests }
    }

    /// The paper's ACC@100: share of `predicted` homes within 100 miles of
    /// the users' true homes.
    pub fn acc_at_100(&self, gaz: &Gazetteer, predicted: &[(UserId, CityId)]) -> f64 {
        let hits = predicted
            .iter()
            .filter(|&&(u, home)| gaz.distance(home, self.data.truth.home(u)) <= 100.0)
            .count();
        hits as f64 / predicted.len().max(1) as f64
    }

    /// `(mean, max)` neighbors and mentions per request.
    pub fn request_shape(&self) -> ((f64, usize), (f64, usize)) {
        let shape = |len: &dyn Fn(&ProfileRequest) -> usize| {
            let lens: Vec<f64> = self.requests.iter().map(|r| len(r) as f64).collect();
            let max = self.requests.iter().map(len).max().unwrap_or(0);
            (stats::mean(&lens), max)
        };
        (shape(&|r| r.observations.neighbors.len()), shape(&|r| r.observations.mentions.len()))
    }
}

/// The default `MlpConfig` — exact single-thread sampler — with a fixed
/// sweep count and half of it as burn-in.
pub fn mlp_config(sweeps: usize, seed: u64) -> MlpConfig {
    MlpConfig { iterations: sweeps, burn_in: sweeps / 2, seed, threads: 1, ..MlpConfig::default() }
}

/// Single-thread fold-in chains with the default sweeps.
pub fn fold_in_config() -> FoldInConfig {
    FoldInConfig { threads: 1, ..FoldInConfig::default() }
}
