//! Acceptance suite for out-of-core training (PR 8).
//!
//! The contract of `mlp::core::shard::train_corpus`:
//!
//! * with one shard it is a pure streaming wrapper — the frozen posterior
//!   must be **byte-identical** to the in-memory sequential driver on the
//!   same data;
//! * with N shards it is AD-LDA at super-sweep granularity — a different
//!   (but valid) chain: deterministic for a fixed `(seed, shards,
//!   reconcile_every)`, and within evaluation tolerance of the
//!   single-shard posterior on the 600-user acceptance corpus.

use mlp::core::shard::{train_corpus, ShardedTrainConfig};
use mlp::prelude::*;
use mlp::social::{CorpusReader, StreamingGenerator};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlp_ooc_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn quick_config(seed: u64) -> MlpConfig {
    MlpConfig { iterations: 6, burn_in: 3, seed, ..Default::default() }
}

fn write_corpus(dir: &Path, users: usize, chunk: usize, seed: u64) -> Gazetteer {
    let gaz = Gazetteer::us_cities();
    let config = GeneratorConfig { num_users: users, seed, ..Default::default() };
    StreamingGenerator::new(&gaz, config, chunk).write_corpus(dir).unwrap();
    gaz
}

fn sharding(shards: usize, reconcile_every: usize) -> ShardedTrainConfig {
    ShardedTrainConfig { shards, reconcile_every, scratch_dir: None }
}

/// One-shard streaming training is byte-identical to reading the corpus
/// into memory and running the sequential driver directly.
#[test]
fn one_shard_matches_in_memory_driver_bit_for_bit() {
    let dir = tmp_dir("one_shard");
    let gaz = write_corpus(&dir, 250, 64, 42);
    let config = quick_config(42);

    let data = CorpusReader::open(&dir).unwrap().read_all().unwrap();
    let (_, in_memory) = Mlp::new(&gaz, &data.dataset, config.clone()).unwrap().run_with_snapshot();

    let streamed = train_corpus(&gaz, &dir, &config, &sharding(1, 2)).unwrap();

    assert_eq!(
        in_memory.try_encode().unwrap().as_slice(),
        streamed.try_encode().unwrap().as_slice(),
        "one-shard streaming posterior must be byte-identical to the in-memory driver"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharded runs are a pure function of (corpus, config, shards,
/// reconcile_every): two identical invocations produce identical bytes.
#[test]
fn sharded_training_is_deterministic() {
    let dir = tmp_dir("determinism");
    let gaz = write_corpus(&dir, 300, 50, 7);
    let config = quick_config(7);

    let a = train_corpus(&gaz, &dir, &config, &sharding(3, 2)).unwrap();
    let b = train_corpus(&gaz, &dir, &config, &sharding(3, 2)).unwrap();
    assert_eq!(a.try_encode().unwrap().as_slice(), b.try_encode().unwrap().as_slice());

    // A different shard count is a different chain — it must not be
    // byte-identical (otherwise the sharding is not actually exercised).
    let c = train_corpus(&gaz, &dir, &config, &sharding(2, 2)).unwrap();
    assert_ne!(a.try_encode().unwrap().as_slice(), c.try_encode().unwrap().as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

/// Scratch spill files are cleaned up after a successful run.
#[test]
fn scratch_files_are_removed_on_success() {
    let dir = tmp_dir("scratch");
    let gaz = write_corpus(&dir, 120, 40, 9);
    train_corpus(&gaz, &dir, &quick_config(9), &sharding(2, 1)).unwrap();
    assert!(
        !dir.join("train-scratch").exists(),
        "spill scratch directory should be removed after training"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// On the 600-user acceptance corpus, the sharded posterior's home
/// predictions stay within evaluation tolerance of the single-shard
/// chain's ACC@100.
#[test]
fn sharded_home_accuracy_matches_single_shard_within_tolerance() {
    let dir = tmp_dir("acc");
    let gaz = write_corpus(&dir, 600, 100, 1001);
    let config = MlpConfig { iterations: 10, burn_in: 5, seed: 1001, ..Default::default() };
    let truth = CorpusReader::open(&dir).unwrap().read_all().unwrap().truth;

    let acc_of = |snapshot: &PosteriorSnapshot| {
        let n = snapshot.num_users();
        let preds: Vec<Option<CityId>> =
            (0..n as u32).map(|u| Some(snapshot.users.home(UserId(u)))).collect();
        let truths: Vec<CityId> = (0..n as u32).map(|u| truth.home(UserId(u))).collect();
        mlp::eval::acc_at_m(&gaz, &preds, &truths, 100.0)
    };

    let single = train_corpus(&gaz, &dir, &config, &sharding(1, 2)).unwrap();
    let sharded = train_corpus(&gaz, &dir, &config, &sharding(4, 2)).unwrap();

    let (acc_1, acc_n) = (acc_of(&single), acc_of(&sharded));
    assert!(acc_1 > 0.40, "single-shard ACC@100 = {acc_1} below acceptance floor");
    assert!(
        (acc_1 - acc_n).abs() < 0.08,
        "sharded ACC@100 = {acc_n} drifted from single-shard {acc_1}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The sharded trainer builds its candidacy through the same builder as
/// the in-memory path: for every variant and with pruning switched off,
/// each user's candidate list and γ row, and the fitted power law, equal
/// the one-shard (in-memory) result.
#[test]
fn sharded_candidacy_matches_single_shard_for_every_variant() {
    let dir = tmp_dir("candidacy");
    let gaz = write_corpus(&dir, 120, 40, 13);
    let configs = [
        ("default", MlpConfig::default()),
        ("no pruning", MlpConfig { candidacy_pruning: false, ..Default::default() }),
        ("following only", MlpConfig::following_only()),
        ("tweeting only", MlpConfig::tweeting_only()),
    ];
    for (name, base) in configs {
        let config = MlpConfig { iterations: 2, burn_in: 1, seed: 13, ..base };
        let one = train_corpus(&gaz, &dir, &config, &sharding(1, 2)).unwrap();
        let two = train_corpus(&gaz, &dir, &config, &sharding(2, 2)).unwrap();
        assert_eq!(one.num_users(), two.num_users(), "{name}");
        for u in 0..one.num_users() as u32 {
            let u = UserId(u);
            assert_eq!(one.users.candidates_of(u), two.users.candidates_of(u), "{name}: user {u}");
            assert_eq!(one.users.gammas_of(u), two.users.gammas_of(u), "{name}: user {u}");
        }
        assert_eq!(one.power_law, two.power_law, "{name}: fitted power law");
    }
    std::fs::remove_dir_all(&dir).ok();
}
