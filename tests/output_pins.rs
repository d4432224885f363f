//! Cross-commit output pins for every Gibbs chain.
//!
//! The other determinism suites compare two runs of the *same* build. This
//! one compares against constants recorded from an earlier build, so a
//! refactor of the sweep drivers or the fold-in chain that changes a
//! single draw, or the order of draws, fails here even when every
//! same-build equality still holds. It covers:
//!
//! * the encoded `Mlp::run_with_snapshot` posterior at `threads` 1, 2
//!   and 4 (the sequential sweep and the threaded AD-LDA shards);
//! * the `train_corpus` posterior at `shards` 2 and 3 with
//!   `reconcile_every` 2 (the sharded super-sweep);
//! * the `determinism_hash` of a fixed `FoldInEngine::fold_in_batch`
//!   (the fold-in chain);
//! * the encoded posterior of a two-round Gibbs-EM run (the second round
//!   samples under the M-step's refitted power law);
//! * `Mlp::run`'s MAP edge and mention assignments and the bits of every
//!   sweep's log-likelihood proxy;
//!
//! each for the default config and for the `count_noisy_assignments`
//! ablation, whose count bookkeeping takes the other branches.
//!
//! The constants are bit patterns of `f64` arithmetic that includes
//! `ln`, so they are pinned for x86-64 Linux, where CI runs them. A
//! deliberate change to a chain must re-record them (the failure message
//! prints this build's values) and say why.

use mlp::core::determinism_hash;
use mlp::core::shard::{train_corpus, ShardedTrainConfig};
use mlp::core::wal::artifact_fingerprint;
use mlp::prelude::*;
use mlp::social::{CorpusReader, StreamingGenerator};
use std::path::PathBuf;

const USERS: usize = 240;
const SEED: u64 = 2026;

/// `(label, hash)` pairs recorded from the pinned build.
const PINS: &[(&str, u64)] = &[
    ("default/threads=1", 0xd9321d2b7aadcbf4),
    ("default/threads=2", 0x34e2b90aa0f93d45),
    ("default/threads=4", 0x26307b5ee623a7e4),
    ("default/shards=2", 0xa5dfb80452f0cb1f),
    ("default/shards=3", 0xfbdcb194b35bbc82),
    ("default/fold_in", 0xa77c1d1f2fdcb2f0),
    ("default/gibbs_em", 0x9c2b4aab160cbe87),
    ("default/run", 0xef8cdfd626054a47),
    ("count_noisy/threads=1", 0x17eef9a41551fd10),
    ("count_noisy/threads=2", 0x78ebc4fc99f48d56),
    ("count_noisy/threads=4", 0x31468c260e212d62),
    ("count_noisy/shards=2", 0xd9c8cc2111c954dc),
    ("count_noisy/shards=3", 0xfaa8c6768efcc782),
    ("count_noisy/fold_in", 0xa502804243ecf5d6),
    ("count_noisy/gibbs_em", 0xb8c148d7edeab3cd),
    ("count_noisy/run", 0xb69c1f272ca643c7),
];

fn config(count_noisy: bool, threads: usize) -> MlpConfig {
    MlpConfig {
        iterations: 6,
        burn_in: 3,
        seed: SEED,
        threads,
        count_noisy_assignments: count_noisy,
        ..Default::default()
    }
}

fn snapshot_hash(snapshot: &PosteriorSnapshot) -> u64 {
    artifact_fingerprint(snapshot.try_encode().unwrap().as_slice())
}

/// FNV-1a over `Mlp::run`'s MAP assignments, then over the bits of each
/// sweep's log-likelihood proxy.
fn run_hash(result: &MlpResult) -> u64 {
    let mut bytes = Vec::new();
    for a in &result.edge_assignments {
        bytes.push(a.noisy as u8);
        bytes.extend(a.x.0.to_le_bytes());
        bytes.extend(a.y.0.to_le_bytes());
    }
    for a in &result.mention_assignments {
        bytes.push(a.noisy as u8);
        bytes.extend(a.z.0.to_le_bytes());
    }
    for it in &result.diagnostics.iterations {
        bytes.extend(it.log_likelihood.to_bits().to_le_bytes());
    }
    artifact_fingerprint(&bytes)
}

/// Every pinned hash of one config, in `PINS` order.
fn hashes(count_noisy: bool, corpus: &std::path::Path, gaz: &Gazetteer) -> Vec<(String, u64)> {
    let tag = if count_noisy { "count_noisy" } else { "default" };
    let data = CorpusReader::open(corpus).unwrap().read_all().unwrap();
    let mut out = Vec::new();

    let mut sequential = None;
    for threads in [1, 2, 4] {
        let mlp = Mlp::new(gaz, &data.dataset, config(count_noisy, threads)).unwrap();
        let (_, snapshot) = mlp.run_with_snapshot();
        out.push((format!("{tag}/threads={threads}"), snapshot_hash(&snapshot)));
        sequential.get_or_insert(snapshot);
    }

    for shards in [2, 3] {
        let sharding = ShardedTrainConfig { shards, reconcile_every: 2, scratch_dir: None };
        let snapshot = train_corpus(gaz, corpus, &config(count_noisy, 1), &sharding).unwrap();
        out.push((format!("{tag}/shards={shards}"), snapshot_hash(&snapshot)));
    }

    // Fold the first 40 corpus users back in against the sequential
    // posterior: their neighbors and mentions exercise both chain steps.
    let snapshot = sequential.unwrap();
    let ids: Vec<UserId> = (0..40).map(UserId).collect();
    let batch = NewUserObservations::batch_from_dataset(&data.dataset, &ids);
    let fold_in = FoldInConfig { sweeps: 12, burn_in: 4, seed: SEED, ..Default::default() };
    let engine = FoldInEngine::new(&snapshot, gaz, fold_in).unwrap();
    out.push((format!("{tag}/fold_in"), determinism_hash(&engine.fold_in_batch(&batch).unwrap())));

    let em = MlpConfig { gibbs_em: true, em_iterations: 2, ..config(count_noisy, 1) };
    let (result, snapshot) = Mlp::new(gaz, &data.dataset, em).unwrap().run_with_snapshot();
    assert_eq!(result.diagnostics.power_law_trace.len(), 1, "the M-step must refit the law");
    out.push((format!("{tag}/gibbs_em"), snapshot_hash(&snapshot)));

    let result = Mlp::new(gaz, &data.dataset, config(count_noisy, 1)).unwrap().run();
    out.push((format!("{tag}/run"), run_hash(&result)));
    out
}

#[test]
fn chain_outputs_identical_to_pinned_build() {
    let dir: PathBuf = std::env::temp_dir().join(format!("mlp_pins_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let gaz = Gazetteer::us_cities();
    let generator = GeneratorConfig { num_users: USERS, seed: SEED, ..Default::default() };
    StreamingGenerator::new(&gaz, generator, 60).write_corpus(&dir).unwrap();

    let mut actual = hashes(false, &dir, &gaz);
    actual.extend(hashes(true, &dir, &gaz));
    std::fs::remove_dir_all(&dir).ok();

    let report: String =
        actual.iter().map(|(label, h)| format!("    (\"{label}\", {h:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> = PINS.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(actual, expected, "chain outputs moved; this build's hashes:\n{report}");
}
