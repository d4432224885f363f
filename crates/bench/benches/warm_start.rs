//! Cold vs warm serving cost on the 300-user synthetic dataset.
//!
//! "Cold" answers a prediction request the only way the pre-snapshot repo
//! could: run full-corpus Gibbs from scratch and read the profile out of
//! the result. "Warm" freezes that training once (off the clock, as a
//! serving fleet would) and answers requests by folding users into the
//! immutable snapshot. The numbers land in BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use mlp_core::{
    FoldInConfig, FoldInEngine, Mlp, MlpConfig, NewUserObservations, OnlineUpdater,
    PosteriorSnapshot, StalenessPolicy,
};
use mlp_gazetteer::Gazetteer;
use mlp_social::{Generator, GeneratorConfig, UserId};
use std::collections::HashSet;

const NUM_USERS: usize = 300;
const NUM_UNSEEN: u32 = 40;

struct Fixture {
    gaz: Gazetteer,
    train: mlp_social::Dataset,
    requests: Vec<NewUserObservations>,
    snapshot: PosteriorSnapshot,
}

fn fixture() -> Fixture {
    let gaz = Gazetteer::us_cities();
    let data = Generator::new(
        &gaz,
        GeneratorConfig { num_users: NUM_USERS, seed: 42, ..Default::default() },
    )
    .generate();
    let unseen: Vec<UserId> =
        ((NUM_USERS as u32 - NUM_UNSEEN)..NUM_USERS as u32).map(UserId).collect();
    let held: HashSet<UserId> = unseen.iter().copied().collect();
    let mut train = data.dataset.mask_users(&unseen);
    train.edges.retain(|e| !held.contains(&e.follower) && !held.contains(&e.friend));
    train.mentions.retain(|m| !held.contains(&m.user));
    let mut requests = NewUserObservations::batch_from_dataset(&data.dataset, &unseen);
    for obs in &mut requests {
        obs.neighbors.retain(|p| !held.contains(p));
    }
    let (_, snapshot) = Mlp::new(&gaz, &train, MlpConfig::default()).unwrap().run_with_snapshot();
    Fixture { gaz, train, requests, snapshot }
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let fx = fixture();
    let mut group = c.benchmark_group("warm_start_300_users");
    group.sample_size(10);

    // Cold: a prediction request pays for full-corpus training.
    group.bench_function("cold_full_retrain", |b| {
        b.iter(|| Mlp::new(&fx.gaz, &fx.train, MlpConfig::default()).unwrap().run())
    });

    // Warm: the snapshot is already frozen; requests pay only fold-in.
    group.bench_function("warm_fold_in_40_users", |b| {
        let engine = FoldInEngine::new(&fx.snapshot, &fx.gaz, FoldInConfig::default()).unwrap();
        b.iter(|| engine.fold_in_batch(&fx.requests).unwrap())
    });

    group.bench_function("warm_fold_in_single_user", |b| {
        let engine = FoldInEngine::new(&fx.snapshot, &fx.gaz, FoldInConfig::default()).unwrap();
        b.iter(|| engine.fold_in(&fx.requests[0]).unwrap())
    });

    // The offline freeze + encode cost a serving fleet pays once.
    group.bench_function("snapshot_encode_decode", |b| {
        b.iter(|| PosteriorSnapshot::decode(fx.snapshot.try_encode().unwrap()).unwrap())
    });

    group.finish();
}

/// Delta commit vs cold retrain: absorbing the 40 new users' posteriors
/// into the trained snapshot (fold-in + index-wise commit + a full encode
/// of the folded artifact — the whole online-refresh pipeline, including
/// the per-iteration snapshot clone an updater would not normally pay)
/// against retraining full Gibbs on D₀∪D₁, the only pre-refresh way to
/// make the model absorb them. The figure includes that full arena
/// encode; a durable engine pays it only at checkpoints, logging each
/// commit to its WAL instead.
fn bench_online_refresh(c: &mut Criterion) {
    let fx = fixture();
    let gaz = Gazetteer::us_cities();
    let data = Generator::new(
        &gaz,
        GeneratorConfig { num_users: NUM_USERS, seed: 42, ..Default::default() },
    )
    .generate();
    let unseen: Vec<UserId> =
        ((NUM_USERS as u32 - NUM_UNSEEN)..NUM_USERS as u32).map(UserId).collect();
    // Cold comparison corpus: everything observed, new users unlabeled.
    let full_masked = data.dataset.mask_users(&unseen);

    let mut group = c.benchmark_group("online_refresh_300_users");
    group.sample_size(10);

    group.bench_function("delta_commit_40_users", |b| {
        b.iter(|| {
            let mut updater = OnlineUpdater::new(
                &fx.gaz,
                fx.snapshot.clone(),
                FoldInConfig::default(),
                StalenessPolicy::default(),
            )
            .unwrap();
            updater.absorb(&fx.requests).unwrap();
            updater.commit().unwrap();
            updater.snapshot().try_encode().unwrap()
        })
    });

    group.bench_function("cold_retrain_with_new_users", |b| {
        b.iter(|| Mlp::new(&gaz, &full_masked, MlpConfig::default()).unwrap().run())
    });

    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_online_refresh);
criterion_main!(benches);
