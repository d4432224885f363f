//! Online posterior refresh end to end, through the [`ServingEngine`]
//! facade: cold-train on yesterday's users, absorb today's signups with
//! `refresh_from_dataset` (each committed batch publishes a new epoch —
//! no retrain), publish the refreshed artifact, and verify a replica
//! thaws it to exactly the refreshed posterior.
//!
//! ```sh
//! cargo run --release --example online_refresh
//! ```
//!
//! The example doubles as a smoke check for the refresh pipeline: it
//! asserts that the artifact — the folded posterior, every commit in its
//! arenas — decodes back to the published posterior, and that a second
//! identical run commits byte-identical artifacts.

use mlp::prelude::*;
use std::time::Instant;

fn run_refresh<'a>(gaz: &'a Gazetteer, data: &GeneratedData) -> (ServingEngine<'a>, usize) {
    // Yesterday: train on the first 260 users only — the last 40 do not
    // exist yet (no labels, no edges, no mentions).
    let config = MlpConfig { iterations: 12, burn_in: 6, seed: 42, ..Default::default() };
    let engine =
        ServingEngine::builder(gaz).mlp_config(config).train(&data.dataset.prefix(260)).unwrap();

    // Today: signups arrive in two batches of 20. The engine folds each
    // batch in against the current epoch, commits, and publishes the next
    // epoch — so the second batch may cite first-batch users as neighbors.
    let signups: Vec<UserId> = (260..300).map(UserId).collect();
    let report = engine.refresh_from_dataset(&data.dataset, &signups, 20).unwrap();
    let hits = signups
        .iter()
        .zip(&report.profiles)
        .filter(|&(&u, r)| gaz.distance(r.ranked.home(), data.truth.home(u)) <= 100.0)
        .count();
    (engine, hits)
}

fn main() {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: 300, seed: 42, ..Default::default() })
            .generate();

    let t0 = Instant::now();
    let (engine, hits) = run_refresh(&gaz, &data);
    let refreshed_in = t0.elapsed();
    println!(
        "absorbed 40 signups in {} commits ({hits} within 100 miles of their true home) \
         in {refreshed_in:.2?}",
        engine.commits()
    );

    // Publish: the folded posterior, every commit in its arenas.
    let artifact = engine.snapshot().try_encode().unwrap();
    println!(
        "refreshed posterior: {} users, epoch {}, artifact = {} KiB",
        engine.snapshot().num_users(),
        engine.epoch(),
        artifact.len() / 1024
    );

    // A replica thaws the artifact to the exact posterior.
    let replica =
        ServingEngine::builder(&gaz).from_artifact(artifact).expect("artifact thaws into engine");
    assert_eq!(
        replica.snapshot().snapshot(),
        engine.snapshot().snapshot(),
        "replica must thaw to the published posterior"
    );

    // The whole pipeline is deterministic: a second run publishes
    // byte-identical bytes.
    let (again, _) = run_refresh(&gaz, &data);
    assert_eq!(
        engine.snapshot().try_encode().unwrap(),
        again.snapshot().try_encode().unwrap(),
        "repeat refresh must publish byte-identical artifacts"
    );

    // Staleness check: the default policy allows 8 commits before asking
    // for a cold retrain, so after 2 we are comfortably fresh.
    println!(
        "commits since base: {} (policy says refresh: {})",
        engine.commits(),
        engine.needs_retrain()
    );
}
