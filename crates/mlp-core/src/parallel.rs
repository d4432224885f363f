//! Approximate parallel Gibbs sweep (AD-LDA style).
//!
//! The paper's dataset has ~160K users and millions of relationships; a
//! sequential sweep is the bottleneck at that scale. Following the standard
//! approximate-distributed-LDA recipe, a parallel sweep partitions
//! relationships into `threads` contiguous chunks and runs the edge and
//! mention steps of [`crate::kernel`], shared with every other chain, on
//! all chunks concurrently against the sweep-start counts. Each
//! relationship still excludes its *own* contribution, arithmetically via
//! [`EdgeExcluded`]/[`MentionExcluded`], but sees stale counts for
//! relationships resampled in other chunks.
//!
//! This driver owns the rest:
//!
//! * the per-chunk RNG streams, derived from `(seed, sweep, chunk)`;
//! * the fork-join: `std::thread::scope` lets every worker share a plain
//!   `&SamplerState`, frozen because nothing writes until every chunk is
//!   joined, so no state is cloned;
//! * flat per-worker *delta slabs* in the state's stable slot space,
//!   written back with one index-wise add per slab. Integer deltas
//!   commute, so the merged counts are exactly what the sequential
//!   remove/add bookkeeping would produce, with no rebuild
//!   (`check_consistency` in the tests pins it).
//!
//! The stale reads make this an approximation of the exact chain; the
//! `parallel_matches_sequential_quality` test bounds the accuracy cost.
//! With `threads == 1` the driver falls back to the exact sequential
//! sweep, so single-threaded results are byte-identical to
//! [`GibbsSampler::sweep`].

use crate::kernel::{self, EdgeExcluded, MentionExcluded, SamplerView};
use crate::sampler::{GibbsSampler, SweepChanges};
use crate::state::SamplerState;
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::{Dataset, UserId};
use std::ops::Range;

/// Flat ϕ count deltas accumulated by one worker: per-slot changes plus
/// per-user total changes, merged into the state by index.
///
/// The slabs are full-arena-sized per worker. That is the right trade:
/// the slot spaces grow with users × candidates and cities × support —
/// always far smaller than the relationship count a sweep walks anyway —
/// so zeroing is one memset and the merge is a branch-free streaming add,
/// where the seed's merge paid a hash lookup per relationship *endpoint*.
struct UserDelta {
    slots: Vec<i32>,
    totals: Vec<i32>,
}

impl UserDelta {
    fn new(state: &SamplerState, num_users: usize) -> Self {
        Self { slots: vec![0; state.num_user_slots()], totals: vec![0; num_users] }
    }

    /// Adds `by` to user `u`'s count at candidate index `c`.
    #[inline]
    fn add(&mut self, state: &SamplerState, u: UserId, c: usize, by: i32) {
        self.slots[state.user_slot(u, c)] += by;
        self.totals[u.index()] += by;
    }
}

/// One chunk's newly sampled edge assignments plus its count deltas.
struct EdgeOut {
    start: usize,
    mu: Vec<bool>,
    x: Vec<u16>,
    y: Vec<u16>,
    delta: UserDelta,
    changed: usize,
}

/// One chunk's newly sampled mention assignments plus its count deltas
/// (mentions touch both ϕ and φ).
struct MentionOut {
    start: usize,
    nu: Vec<bool>,
    z: Vec<u16>,
    delta: UserDelta,
    venue_slots: Vec<i32>,
    city_totals: Vec<i32>,
    changed: usize,
}

/// Runs one approximate parallel sweep; returns change counts.
///
/// `sweep_index` feeds the per-chunk RNG streams so repeated sweeps do not
/// reuse randomness. Falls back to the exact sequential sweep when
/// `threads == 1`.
pub fn parallel_sweep(sampler: &mut GibbsSampler<'_>, sweep_index: u64) -> SweepChanges {
    let threads = sampler.config().threads;
    if threads <= 1 {
        return sampler.sweep();
    }
    let view = sampler.view();
    let config = sampler.config();
    let dataset = sampler.dataset();
    let seed = config.seed;

    let num_edges = if config.variant.uses_following() { dataset.num_edges() } else { 0 };
    let num_mentions = if config.variant.uses_tweeting() { dataset.num_mentions() } else { 0 };

    let edge_chunks = chunk_ranges(num_edges, threads);
    let mention_chunks = chunk_ranges(num_mentions, threads);

    let (edge_outs, mention_outs) = {
        // Shared read-only borrow: frozen until every worker is joined.
        let state = &sampler.state;
        std::thread::scope(|scope| {
            let edge_handles: Vec<_> = edge_chunks
                .into_iter()
                .enumerate()
                .map(|(t, range)| {
                    // Sweep index in the high half, chunk index in the low:
                    // no (sweep, chunk) pair can alias another even at
                    // absurd thread counts.
                    let rng_seed = SplitMix64::derive(
                        seed,
                        0xE000_0000_0000_0000 ^ (sweep_index << 32) ^ t as u64,
                    );
                    scope.spawn(move || resample_edge_chunk(view, state, dataset, range, rng_seed))
                })
                .collect();
            let mention_handles: Vec<_> = mention_chunks
                .into_iter()
                .enumerate()
                .map(|(t, range)| {
                    let rng_seed = SplitMix64::derive(
                        seed,
                        0x4000_0000_0000_0000 ^ (sweep_index << 32) ^ t as u64,
                    );
                    scope.spawn(move || {
                        resample_mention_chunk(view, state, dataset, range, rng_seed)
                    })
                })
                .collect();
            let edge_outs: Vec<EdgeOut> =
                edge_handles.into_iter().map(|h| h.join().expect("edge worker")).collect();
            let mention_outs: Vec<MentionOut> =
                mention_handles.into_iter().map(|h| h.join().expect("mention worker")).collect();
            (edge_outs, mention_outs)
        })
    };

    merge(sampler, edge_outs, mention_outs)
}

/// Resamples one contiguous range of edges against frozen counts,
/// accumulating ϕ deltas into a flat slab.
fn resample_edge_chunk(
    view: SamplerView<'_>,
    state: &SamplerState,
    dataset: &Dataset,
    range: Range<usize>,
    rng_seed: u64,
) -> EdgeOut {
    let mut rng = Pcg64::new(rng_seed);
    let mut out = EdgeOut {
        start: range.start,
        mu: Vec::with_capacity(range.len()),
        x: Vec::with_capacity(range.len()),
        y: Vec::with_capacity(range.len()),
        delta: UserDelta::new(state, dataset.num_users()),
        changed: 0,
    };
    let count_noisy = view.config.count_noisy_assignments;
    // One weight buffer per chunk, reused across its whole range.
    let mut buf = Vec::new();
    for s in range {
        let e = dataset.edges[s];
        let (i, j) = (e.follower, e.friend);
        let (old_mu, old_x, old_y) = (state.mu[s], state.x[s] as usize, state.y[s] as usize);
        let counted = !old_mu || count_noisy;
        let counts = EdgeExcluded::new(state, counted, i, old_x, j, old_y);
        let (mu, x, y) =
            kernel::edge_step(&view, &counts, (i, old_x), (j, old_y), &mut rng, &mut buf);

        if counted {
            out.delta.add(state, i, old_x, -1);
            out.delta.add(state, j, old_y, -1);
        }
        if !mu || count_noisy {
            out.delta.add(state, i, x, 1);
            out.delta.add(state, j, y, 1);
        }
        out.changed += ((mu, x, y) != (old_mu, old_x, old_y)) as usize;

        out.mu.push(mu);
        out.x.push(x as u16);
        out.y.push(y as u16);
    }
    out
}

/// Resamples one contiguous range of mentions against frozen counts,
/// accumulating ϕ and φ deltas into flat slabs.
fn resample_mention_chunk(
    view: SamplerView<'_>,
    state: &SamplerState,
    dataset: &Dataset,
    range: Range<usize>,
    rng_seed: u64,
) -> MentionOut {
    let mut rng = Pcg64::new(rng_seed);
    let mut out = MentionOut {
        start: range.start,
        nu: Vec::with_capacity(range.len()),
        z: Vec::with_capacity(range.len()),
        delta: UserDelta::new(state, dataset.num_users()),
        venue_slots: vec![0; state.num_venue_slots()],
        city_totals: vec![0; view.gaz.num_cities()],
        changed: 0,
    };
    let count_noisy = view.config.count_noisy_assignments;
    let mut buf = Vec::new();
    for k in range {
        let m = dataset.mentions[k];
        let (i, v) = (m.user, m.venue);
        let ci = view.candidacy.candidates(i);
        let (old_nu, old_z) = (state.nu[k], state.z[k] as usize);
        let counted = !old_nu || count_noisy;
        let old_city = ci[old_z];
        let counts = MentionExcluded::new(state, counted, !old_nu, i, old_z, old_city, v);
        let (nu, z) = kernel::mention_step(&view, &counts, (i, old_z), v, &mut rng, &mut buf);

        if counted {
            out.delta.add(state, i, old_z, -1);
        }
        if !nu || count_noisy {
            out.delta.add(state, i, z, 1);
        }
        if !old_nu {
            out.venue_slots[state.venue_slot(old_city, v)] -= 1;
            out.city_totals[old_city.index()] -= 1;
        }
        if !nu {
            let new_city = ci[z];
            out.venue_slots[state.venue_slot(new_city, v)] += 1;
            out.city_totals[new_city.index()] += 1;
        }
        out.changed += ((nu, z) != (old_nu, old_z)) as usize;

        out.nu.push(nu);
        out.z.push(z as u16);
    }
    out
}

/// Writes the chunk outputs back and merges every thread's flat count
/// deltas by index (one add per slab element — no per-relationship
/// hash/search work, no rebuild).
fn merge(
    sampler: &mut GibbsSampler<'_>,
    edge_outs: Vec<EdgeOut>,
    mention_outs: Vec<MentionOut>,
) -> SweepChanges {
    let state = &mut sampler.state;
    let mut changes = SweepChanges::default();

    for out in edge_outs {
        state.mu[out.start..out.start + out.mu.len()].copy_from_slice(&out.mu);
        state.x[out.start..out.start + out.x.len()].copy_from_slice(&out.x);
        state.y[out.start..out.start + out.y.len()].copy_from_slice(&out.y);
        state.apply_user_delta(&out.delta.slots, &out.delta.totals);
        changes.edges += out.changed;
    }

    for out in mention_outs {
        state.nu[out.start..out.start + out.nu.len()].copy_from_slice(&out.nu);
        state.z[out.start..out.start + out.z.len()].copy_from_slice(&out.z);
        state.apply_user_delta(&out.delta.slots, &out.delta.totals);
        state.apply_venue_delta(&out.venue_slots, &out.city_totals);
        changes.mentions += out.changed;
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
    use crate::config::MlpConfig;
    use crate::sampler::tests::Fixture;

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

    #[test]
    fn parallel_sweep_keeps_counts_exact() {
        let f = Fixture::new(200, 51, MlpConfig { threads: 4, ..Default::default() });
        let mut sampler = f.sampler();
        for sweep in 0..3 {
            parallel_sweep(&mut sampler, sweep);
            sampler
                .state
                .check_consistency(&f.dataset, &f.cand, false, true, true)
                .expect("flat delta merge must equal a rebuild");
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
                .check_consistency(&f.dataset, &f.cand, true, true, true)
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
                    if sampler.estimate_theta(user)[0].0 == home {
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
