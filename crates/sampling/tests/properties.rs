//! Property tests for the sampling substrate, centred on the guarantees the
//! parallel Gibbs driver leans on:
//!
//! * the alias table and the naive categorical sampler draw from the *same*
//!   distribution (the sweep uses the naive sampler on small candidate
//!   lists; other components use alias tables over the same weights);
//! * `SplitMix64::derive` chunk seeds yield `Pcg64` streams that are
//!   pairwise distinct and uncorrelated — the independence assumption
//!   behind giving every (sweep, chunk) pair its own RNG.

use mlp_sampling::{sample_categorical, AliasTable, Pcg64, SplitMix64};
use proptest::prelude::*;
use rand::RngCore;

/// Empirical distribution over `k` categories from `n` draws.
fn empirical(mut draw: impl FnMut() -> usize, k: usize, n: usize) -> Vec<f64> {
    let mut counts = vec![0u64; k];
    for _ in 0..n {
        counts[draw()] += 1;
    }
    counts.into_iter().map(|c| c as f64 / n as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Alias-table sampling and naive categorical sampling agree in
    /// distribution on arbitrary positive weight vectors.
    #[test]
    fn alias_table_agrees_with_naive_categorical(
        weights in prop::collection::vec(0.05f64..10.0, 2..12),
        seed in any::<u64>(),
    ) {
        let k = weights.len();
        let n = 60_000usize;
        let table = AliasTable::new(&weights).expect("positive weights");

        let mut rng_a = Pcg64::new(SplitMix64::derive(seed, 1));
        let alias_dist = empirical(|| table.sample(&mut rng_a), k, n);

        let mut rng_b = Pcg64::new(SplitMix64::derive(seed, 2));
        let naive_dist = empirical(
            || sample_categorical(&mut rng_b, &weights).expect("positive weights"),
            k,
            n,
        );

        let total: f64 = weights.iter().sum();
        for c in 0..k {
            let expect = weights[c] / total;
            // Three-sigma binomial tolerance plus a small absolute floor.
            let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
            let tol = 4.0 * sigma + 0.004;
            prop_assert!(
                (alias_dist[c] - expect).abs() < tol,
                "alias category {c}: {} vs expected {expect}",
                alias_dist[c],
            );
            prop_assert!(
                (naive_dist[c] - expect).abs() < tol,
                "naive category {c}: {} vs expected {expect}",
                naive_dist[c],
            );
            prop_assert!(
                (alias_dist[c] - naive_dist[c]).abs() < 2.0 * tol,
                "samplers disagree on category {c}: {} vs {}",
                alias_dist[c],
                naive_dist[c],
            );
        }
    }

    /// Shard seeds derived the way `parallel_sweep` derives them (root seed
    /// x sweep index x shard index; each threaded shard draws its edges and
    /// then its mentions from one stream) never collide, and the resulting
    /// Pcg64 streams share no outputs in a long prefix.
    #[test]
    fn chunk_seed_streams_are_independent(root in any::<u64>()) {
        let mut seeds = std::collections::HashSet::new();
        let mut streams: Vec<Pcg64> = Vec::new();
        for sweep in 0..8u64 {
            for chunk in 0..8u64 {
                // Mirrors the shard seeds of crates/mlp-core/src/parallel.rs.
                let seed =
                    SplitMix64::derive(root, 0xE000_0000_0000_0000 ^ (sweep << 32) ^ chunk);
                prop_assert!(seeds.insert(seed), "seed collision at sweep {sweep} chunk {chunk}");
                streams.push(Pcg64::new(seed));
            }
        }
        // Draw a prefix from every stream; all values must be distinct
        // across streams (64-bit collisions in 64 x 64 draws are
        // astronomically unlikely for independent streams).
        let mut seen = std::collections::HashSet::new();
        for stream in &mut streams {
            for _ in 0..64 {
                seen.insert(stream.next_u64());
            }
        }
        prop_assert_eq!(seen.len(), streams.len() * 64, "cross-stream output collision");
    }

    /// The derived streams are also uncorrelated with the sequential
    /// sampler's own stream (same root seed, different derivation path).
    #[test]
    fn chunk_streams_do_not_echo_the_sequential_stream(root in any::<u64>()) {
        let mut sequential = Pcg64::new(SplitMix64::derive(root, 0x9B5));
        let seq_prefix: std::collections::HashSet<u64> =
            (0..256).map(|_| sequential.next_u64()).collect();
        for chunk in 0..8u64 {
            let mut stream =
                Pcg64::new(SplitMix64::derive(root, 0xE000_0000_0000_0000 ^ chunk));
            for _ in 0..256 {
                prop_assert!(
                    !seq_prefix.contains(&stream.next_u64()),
                    "chunk {chunk} stream reproduced a sequential-stream value",
                );
            }
        }
    }
}
