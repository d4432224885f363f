//! Warm-start serving end to end: train once, freeze the posterior, ship
//! the bytes, and answer predictions for users the model never saw —
//! without touching the trained counts. Everything runs through the
//! [`ServingEngine`] facade: the artifact thaws straight into an engine,
//! and requests are typed `ProfileRequest`s.
//!
//! ```sh
//! cargo run --release --example warm_start_serving
//! ```
//!
//! The example doubles as the CI fold-in smoke check: it asserts that an
//! engine thawed from artifact bytes serves identically to one built from
//! the in-memory snapshot and that the batched (threads = 4) serving path
//! is bit-identical to sequential, then prints the determinism hash of
//! the predictions.

use mlp::core::response_determinism_hash;
use mlp::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    // A synthetic Twitter over real US cities; the last 40 users are our
    // "future signups" — stripped from the training corpus entirely.
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: 300, seed: 42, ..Default::default() })
            .generate();
    let unseen: Vec<UserId> = (260..300).map(UserId).collect();
    let held: HashSet<UserId> = unseen.iter().copied().collect();

    let mut train = data.dataset.mask_users(&unseen);
    train.edges.retain(|e| !held.contains(&e.follower) && !held.contains(&e.friend));
    train.mentions.retain(|m| !held.contains(&m.user));

    // Offline: cold-train an engine and publish the artifact bytes.
    let t0 = Instant::now();
    let config = MlpConfig { iterations: 12, burn_in: 6, seed: 42, ..Default::default() };
    let trainer = ServingEngine::builder(&gaz).mlp_config(config).train(&train).unwrap();
    let trained_in = t0.elapsed();
    let bytes = trainer.snapshot().try_encode().unwrap();
    println!(
        "trained {} users in {trained_in:.2?}; snapshot = {} KiB",
        train.num_users() - unseen.len(),
        bytes.len() / 1024
    );

    // Online: a replica thaws the bytes into its own serving engine.
    let replica = ServingEngine::builder(&gaz).from_artifact(bytes).expect("artifact thaws");
    assert_eq!(
        replica.snapshot().snapshot(),
        trainer.snapshot().snapshot(),
        "shipped artifact must equal the original posterior"
    );

    let mut requests = ProfileRequest::batch_from_dataset(&data.dataset, &unseen);
    for req in &mut requests {
        req.observations.neighbors.retain(|p| !held.contains(p));
    }

    let t1 = Instant::now();
    let sequential = replica.profile_batch(&requests).unwrap();
    let served_in = t1.elapsed();

    let batched = ServingEngine::builder(&gaz)
        .fold_in_config(FoldInConfig { threads: 4, ..Default::default() })
        .from_snapshot(replica.snapshot().snapshot().clone())
        .unwrap()
        .profile_batch(&requests)
        .unwrap();
    assert_eq!(sequential, batched, "batched serving must be bit-identical to sequential");

    let hits = unseen
        .iter()
        .zip(&sequential)
        .filter(|&(&u, r)| gaz.distance(r.ranked.home(), data.truth.home(u)) <= 100.0)
        .count();
    println!(
        "served {} unseen users in {served_in:.2?} ({hits} within 100 miles of their true home)",
        unseen.len()
    );
    for (&u, response) in unseen.iter().zip(&sequential).take(5) {
        let &(city, p) = &response.ranked.as_slice()[0];
        println!(
            "  {u}: {} (p = {p:.2}; truth {})",
            gaz.city(city).full_name(),
            gaz.city(data.truth.home(u)).full_name()
        );
    }
    println!("determinism hash: {:#018x}", response_determinism_hash(&sequential));
}
