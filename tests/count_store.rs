//! Property-based oracle equivalence for the columnar count stores.
//!
//! The CSR [`VenueCountStore`] (sparse rows + dense fallback) and the flat
//! [`Csr`] user-count arena replaced the seed's `HashMap`/`Vec<Vec<_>>`
//! state. This suite drives both through random increment / decrement /
//! query sequences against the straightforward reference models they
//! replaced, and requires identical counts, totals, and row iterations at
//! every step — so a layout bug (dense-threshold edge, binary-search
//! off-by-one, slot aliasing) cannot hide behind the sampler's statistics.

use mlp::core::count_store::{VenueCountStore, VenueSupport};
use mlp::gazetteer::{CityId, VenueId};
use mlp::social::Csr;
use proptest::prelude::*;
use std::collections::HashMap;

/// Marks every `(city, venue)` pair of `support` (repeats included) in a
/// support bitmap and builds the store over it.
fn build_store(num_cities: u32, num_venues: u32, support: &[(u32, u32)]) -> VenueCountStore {
    let mut marked = VenueSupport::new(num_cities as usize, num_venues as usize);
    for &(l, v) in support {
        marked.mark(CityId(l), VenueId(v));
    }
    VenueCountStore::build(&marked)
}

/// Ops are `(support index, kind)` with kind 0 = add one token, 1 = remove
/// one token (removals are skipped when the oracle holds no count there —
/// removal would legitimately panic).
type Ops = Vec<(usize, u8)>;

fn arb_ops() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>, Ops)> {
    // Small vocabularies force the dense fallback; larger ones stay
    // sparse — both paths get exercised across cases — and vocabularies
    // past 64 spread a city's support bits over several words.
    (1u32..8, 1u32..160).prop_flat_map(|(num_cities, num_venues)| {
        let support = prop::collection::vec((0..num_cities, 0..num_venues), 1..60);
        let ops = prop::collection::vec((0usize..1000, 0u8..2), 0..200);
        (Just(num_cities), Just(num_venues), support, ops)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random add/remove/query sequences on the venue store match a
    /// HashMap reference model exactly: every point count, every city
    /// total, and every row iteration (sorted, non-zero entries only).
    #[test]
    fn venue_store_matches_hashmap_oracle(
        (num_cities, num_venues, support, ops) in arb_ops()
    ) {
        let mut store = build_store(num_cities, num_venues, &support);

        // The slot space matches the de-duplicated support: the distinct
        // pairs of each sparse city, plus |V| for each city whose distinct
        // support exceeds |V| / 16 (the dense threshold).
        let mut distinct = support.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let expect_slots: usize = (0..num_cities)
            .map(|l| {
                let len = distinct.iter().filter(|&&(cl, _)| cl == l).count();
                if len * 16 > num_venues as usize { num_venues as usize } else { len }
            })
            .sum();
        prop_assert_eq!(store.num_slots(), expect_slots, "slot space vs de-duplicated support");

        let mut oracle: HashMap<(u32, u32), u32> = HashMap::new();
        let mut oracle_totals: HashMap<u32, u32> = HashMap::new();

        for &(i, kind) in &ops {
            let is_add = kind == 0;
            let (l, v) = support[i % support.len()];
            let (city, venue) = (CityId(l), VenueId(v));
            if is_add {
                store.add(city, venue);
                *oracle.entry((l, v)).or_insert(0) += 1;
                *oracle_totals.entry(l).or_insert(0) += 1;
            } else if oracle.get(&(l, v)).copied().unwrap_or(0) > 0 {
                store.remove(city, venue);
                *oracle.get_mut(&(l, v)).unwrap() -= 1;
                *oracle_totals.get_mut(&l).unwrap() -= 1;
            }
            // Point queries agree after every mutation.
            prop_assert_eq!(
                store.get(city, venue),
                oracle.get(&(l, v)).copied().unwrap_or(0)
            );
        }

        // Full sweep: totals, every queryable pair, and row iterations.
        for l in 0..num_cities {
            let city = CityId(l);
            prop_assert_eq!(
                store.total(city),
                oracle_totals.get(&l).copied().unwrap_or(0),
                "city {} total", l
            );
            for v in 0..num_venues {
                prop_assert_eq!(
                    store.get(city, VenueId(v)),
                    oracle.get(&(l, v)).copied().unwrap_or(0),
                    "count at ({}, {})", l, v
                );
            }
            let mut expect: Vec<(u32, u32)> = oracle
                .iter()
                .filter(|&(&(cl, _), &c)| cl == l && c > 0)
                .map(|(&(_, v), &c)| (v, c))
                .collect();
            expect.sort_unstable();
            let got: Vec<(u32, u32)> = store.row(city).collect();
            prop_assert_eq!(got, expect, "row iteration for city {}", l);
        }
    }

    /// Tiny vocabularies are the dense-fallback edge: with
    /// `num_venues < 16` the threshold `num_venues / 16` is zero, so
    /// *every* city with non-empty support crosses it and goes dense.
    /// The store must stay oracle-equivalent there — the panic-safety
    /// proptest for the dense path's bounds checks (a dense row must
    /// never alias a neighbor on out-of-range ids, rows must iterate
    /// sorted-non-zero exactly like the sparse path).
    #[test]
    fn tiny_vocab_all_dense_matches_oracle(
        num_venues in 1u32..16,
        num_cities in 1u32..6,
        raw_support in prop::collection::vec((0u32..6, 0u32..16), 1..30),
        ops in prop::collection::vec((0usize..1000, 0u8..2), 0..120),
    ) {
        let support: Vec<(u32, u32)> = raw_support
            .into_iter()
            .map(|(l, v)| (l % num_cities, v % num_venues))
            .collect();
        let store = build_store(num_cities, num_venues, &support);
        // The dense-threshold claim itself: every supported city is dense,
        // so the slot space is exactly (dense cities) × |V|.
        let mut supported: Vec<u32> = support.iter().map(|&(l, _)| l).collect();
        supported.sort_unstable();
        supported.dedup();
        prop_assert_eq!(
            store.num_slots(),
            supported.len() * num_venues as usize,
            "every non-empty city must go dense below 16 venues"
        );

        let mut store = store;
        let mut oracle: HashMap<(u32, u32), u32> = HashMap::new();
        for &(i, kind) in &ops {
            let (l, v) = support[i % support.len()];
            let (city, venue) = (CityId(l), VenueId(v));
            if kind == 0 {
                store.add(city, venue);
                *oracle.entry((l, v)).or_insert(0) += 1;
            } else if oracle.get(&(l, v)).copied().unwrap_or(0) > 0 {
                store.remove(city, venue);
                *oracle.get_mut(&(l, v)).unwrap() -= 1;
            }
        }
        for l in 0..num_cities {
            let city = CityId(l);
            // Out-of-vocabulary reads on a dense row are misses, never
            // aliases into the next row.
            prop_assert_eq!(store.get(city, VenueId(num_venues)), 0);
            prop_assert_eq!(store.get(city, VenueId(u32::MAX)), 0);
            for v in 0..num_venues {
                prop_assert_eq!(
                    store.get(city, VenueId(v)),
                    oracle.get(&(l, v)).copied().unwrap_or(0),
                    "count at ({}, {})", l, v
                );
            }
            let mut expect: Vec<(u32, u32)> = oracle
                .iter()
                .filter(|&(&(cl, _), &c)| cl == l && c > 0)
                .map(|(&(_, v), &c)| (v, c))
                .collect();
            expect.sort_unstable();
            let got: Vec<(u32, u32)> = store.row(city).collect();
            prop_assert_eq!(got, expect, "row iteration for city {}", l);
            let total: u32 = oracle
                .iter()
                .filter(|&(&(cl, _), _)| cl == l)
                .map(|(_, &c)| c)
                .sum();
            prop_assert_eq!(store.total(city), total, "total for city {}", l);
        }
    }

    /// The flat user-count arena (CSR slab) behaves exactly like the
    /// `Vec<Vec<u32>>` it replaced under random row updates.
    #[test]
    fn user_arena_matches_nested_vec_oracle(
        lens in prop::collection::vec(0usize..6, 1..20),
        ops in prop::collection::vec((0usize..1000, 0usize..1000, 0u32..5), 0..150),
    ) {
        let mut arena: Csr<u32> = Csr::with_row_lens(lens.iter().copied());
        let mut oracle: Vec<Vec<u32>> = lens.iter().map(|&n| vec![0u32; n]).collect();

        for &(u, c, delta) in &ops {
            let u = u % lens.len();
            if lens[u] == 0 {
                continue;
            }
            let c = c % lens[u];
            arena.row_mut(u)[c] += delta;
            oracle[u][c] += delta;
            // Slot indexing addresses the same cell the row view does.
            prop_assert_eq!(arena.values()[arena.slot(u, c)], oracle[u][c]);
        }
        for (u, row) in oracle.iter().enumerate() {
            prop_assert_eq!(arena.row(u), row.as_slice(), "row {}", u);
        }
        prop_assert_eq!(
            arena.num_values(),
            lens.iter().sum::<usize>()
        );
    }
}

/// A venue id outside the vocabulary panics in `mark` instead of setting
/// a bit in the row's padding (venues 70 and 127 of 70) or in the next
/// city's row (venue 128 is city 1's venue 0 at two words per city).
#[test]
fn marking_out_of_vocabulary_venues_panics() {
    for v in [70, 127, 128] {
        let mut support = VenueSupport::new(2, 70);
        let marked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            support.mark(CityId(0), VenueId(v));
        }));
        assert!(marked.is_err(), "venue {v} of 70 was marked");
        assert_eq!(VenueCountStore::build(&support).num_slots(), 0, "venue {v} changed a row");
    }
}
