//! The threaded Gibbs sweep (AD-LDA; Newman, Asuncion, Smyth & Welling,
//! "Distributed Algorithms for Topic Models", JMLR 2009).
//!
//! The paper's dataset has ~160K users and millions of relationships; a
//! sequential sweep is the bottleneck at that scale. With `threads > 1`,
//! one sweep splits the relationships into `threads` shards — shard `t`
//! takes the `t`-th contiguous range of the edges and then of the
//! mentions — and runs the shared sweep loop of [`crate::kernel`] on every
//! shard at once, on `std::thread::scope`. Each shard reads the counts as
//! they stood at the sweep's start plus its own deltas (a `ShardCounts`):
//! it sees its own updates at once and the other shards' only after the
//! sweep, when `Counts::reconcile` adds every shard's deltas back.
//! Integer deltas commute, so the merged counts are exactly those of the
//! new assignments (`check_consistency` in the tests pins it). The
//! out-of-core trainer ([`crate::shard`]) runs the same shards and the
//! same reconciliation, one shard at a time.
//!
//! This scheduler owns the shard ranges, the per-shard RNG streams
//! derived from `(seed, sweep, shard)`, and the fork-join. The stale
//! cross-shard reads make it an approximation of the exact chain; the
//! `parallel_matches_sequential_quality` test bounds the accuracy cost.
//! With `threads == 1` it runs the exact sequential sweep, so
//! single-threaded results are byte-identical to [`GibbsSampler::sweep`].

use crate::kernel;
use crate::sampler::{GibbsSampler, SweepChanges};
use crate::state::ShardCounts;
use mlp_sampling::{Pcg64, SplitMix64};
use std::ops::Range;

/// Runs one Gibbs sweep on `threads` shards; returns change counts.
///
/// `sweep_index` feeds the per-shard RNG streams so repeated sweeps do not
/// reuse randomness. Runs the exact sequential sweep when `threads == 1`.
pub fn parallel_sweep(sampler: &mut GibbsSampler<'_>, sweep_index: u64) -> SweepChanges {
    let config = sampler.config();
    let threads = config.threads;
    if threads <= 1 {
        return sampler.sweep();
    }
    let (edges, mentions) = sampler.relationships();
    let edge_ranges = chunk_ranges(edges.len(), threads);
    let mention_ranges = chunk_ranges(mentions.len(), threads);
    let (view, state, _, _) = sampler.split();
    let (counts, mut rest) = state.parts_mut();

    let frozen = &*counts;
    let shards: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (t, (er, mr)) in edge_ranges.into_iter().zip(mention_ranges).enumerate() {
            let (asg, tail) = rest.split_at(er.len(), mr.len());
            rest = tail;
            // Sweep index in the high half, shard index in the low: no
            // (sweep, shard) pair can alias another even at absurd thread
            // counts.
            let rng_seed = SplitMix64::derive(
                config.seed,
                0xE000_0000_0000_0000 ^ (sweep_index << 32) ^ t as u64,
            );
            let (edges, mentions) = (&edges[er], &mentions[mr]);
            handles.push(scope.spawn(move || {
                let (mut counts, mut buf) = (ShardCounts::new(frozen), Vec::new());
                let rng = &mut Pcg64::new(rng_seed);
                let changes =
                    kernel::sweep(&view, &mut counts, edges, mentions, asg, rng, &mut buf);
                (counts.into_delta(), changes)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("shard worker")).collect()
    });

    let mut changes = SweepChanges::default();
    for (delta, shard) in shards {
        counts.reconcile(&delta);
        changes.edges += shard.edges;
        changes.mentions += shard.mentions;
    }
    changes
}

/// Splits `0..n` into `k` contiguous near-equal ranges (empty ranges for
/// `n < k` workers are fine — those workers no-op). Shared with the
/// fold-in batch scheduler in [`crate::infer`].
pub(crate) fn chunk_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for t in 0..k {
        let len = base + (t < rem) as usize;
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MlpConfig, Variant};
    use crate::sampler::tests::Fixture;
    use mlp_social::UserId;

    #[test]
    fn chunks_cover_everything() {
        for (n, k) in [(10, 3), (0, 4), (5, 8), (100, 1)] {
            let ranges = chunk_ranges(n, k);
            assert_eq!(ranges.len(), k.max(1));
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n, "n={n} k={k}");
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
        }
    }

    /// After every threaded sweep the reconciled counts equal a rebuild
    /// from the assignments, for every variant, and the assignments of a
    /// relationship type the variant leaves out stay as initialised.
    #[test]
    fn parallel_sweep_keeps_counts_exact() {
        for variant in [Variant::Full, Variant::FollowingOnly, Variant::TweetingOnly] {
            let config = MlpConfig { threads: 4, variant, ..Default::default() };
            let f = Fixture::new(200, 51, config);
            let mut sampler = f.sampler();
            let initial = sampler.state.clone();
            let (following, tweeting) = (variant.uses_following(), variant.uses_tweeting());
            for sweep in 0..3 {
                let changes = parallel_sweep(&mut sampler, sweep);
                let (state, label) = (&sampler.state, format!("{variant:?} sweep {sweep}"));
                let exact = state.check_consistency(&f.dataset, &f.cand, &f.config);
                exact.unwrap_or_else(|e| panic!("{label}: reconciled counts differ: {e}"));
                if !following {
                    assert_eq!(changes.edges, 0, "{label}");
                    let edges = (&state.mu, &state.x, &state.y);
                    assert_eq!(edges, (&initial.mu, &initial.x, &initial.y), "{label}");
                }
                if !tweeting {
                    assert_eq!(changes.mentions, 0, "{label}");
                    assert_eq!((&state.nu, &state.z), (&initial.nu, &initial.z), "{label}");
                }
            }
        }
    }

    #[test]
    fn incremental_merge_exact_with_count_noisy() {
        let config = MlpConfig { threads: 3, count_noisy_assignments: true, ..Default::default() };
        let f = Fixture::new(150, 59, config);
        let mut sampler = f.sampler();
        for sweep in 0..3 {
            parallel_sweep(&mut sampler, sweep);
            sampler
                .state
                .check_consistency(&f.dataset, &f.cand, &f.config)
                .expect("count-noisy delta merge must also be exact");
        }
    }

    #[test]
    fn parallel_matches_sequential_quality() {
        // Both samplers should recover labeled users' registered cities at
        // comparable rates — the approximation must not break inference.
        let accuracy = |threads: usize| {
            let f = Fixture::new(400, 53, MlpConfig { threads, ..Default::default() });
            let mut sampler = f.sampler();
            for sweep in 0..10 {
                parallel_sweep(&mut sampler, sweep);
                if sweep >= 5 {
                    sampler.state.accumulate();
                }
            }
            let mut hits = 0usize;
            for u in 0..f.dataset.num_users() {
                let user = UserId(u as u32);
                if let Some(home) = f.dataset.registered[u] {
                    if sampler.home(user) == home {
                        hits += 1;
                    }
                }
            }
            hits as f64 / f.dataset.num_labeled() as f64
        };
        let seq = accuracy(1);
        let par = accuracy(4);
        assert!(seq > 0.8, "sequential accuracy {seq}");
        assert!(par > seq - 0.1, "parallel degraded too far: {par} vs {seq}");
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let f = Fixture::new(50, 57, MlpConfig { threads: 1, ..Default::default() });
        let changes = parallel_sweep(&mut f.sampler(), 0);
        assert!(changes.edges + changes.mentions > 0);
    }

    /// With `threads == 1` the parallel entry point must be *byte-identical*
    /// to the sequential sweep: same assignments, same RNG stream.
    #[test]
    fn single_thread_is_byte_identical_to_sequential() {
        let f = Fixture::new(120, 61, MlpConfig { threads: 1, ..Default::default() });
        let mut seq = f.sampler();
        let mut par = f.sampler();
        for sweep in 0..4 {
            let a = seq.sweep();
            let b = parallel_sweep(&mut par, sweep);
            assert_eq!(a, b, "sweep {sweep} change counts differ");
        }
        assert_eq!(seq.state.mu, par.state.mu);
        assert_eq!(seq.state.x, par.state.x);
        assert_eq!(seq.state.y, par.state.y);
        assert_eq!(seq.state.nu, par.state.nu);
        assert_eq!(seq.state.z, par.state.z);
    }

    /// Multi-threaded sweeps must be reproducible *for a given thread
    /// count*: the chunk RNG streams depend only on (sweep, chunk), and
    /// integer delta merges commute, so repeating a run can differ only
    /// if the flat-slab merge were racy or order-sensitive. (Different
    /// thread counts legitimately differ — chunk boundaries move.)
    #[test]
    fn thread_count_does_not_change_chunked_results() {
        let run = |threads: usize| {
            let f = Fixture::new(150, 67, MlpConfig { threads, ..Default::default() });
            let mut sampler = f.sampler();
            for sweep in 0..3 {
                parallel_sweep(&mut sampler, sweep);
            }
            (sampler.state.mu.clone(), sampler.state.x.clone(), sampler.state.z.clone())
        };
        // Chunk boundaries shift with the thread count, so streams differ
        // between 2 and 4 threads — but each must be self-consistent and
        // reproducible.
        assert_eq!(run(2), run(2));
        assert_eq!(run(4), run(4));
    }
}
