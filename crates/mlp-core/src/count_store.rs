//! Columnar collapsed-count storage: the sparse venue-count store.
//!
//! Sweep cost in the collapsed sampler is dominated by data layout, not
//! math: every mention resample evaluates `φ_{l,v}` for each candidate city
//! of the owner, and every count update mutates `φ`/`ϕ`. The seed kept
//! `φ_{l,·}` as one `HashMap<u32, u32>` per city — scattered heap nodes,
//! hashing on the hot path, and nondeterministic iteration order that had
//! to be re-sorted (with a fresh allocation) every time a row was read.
//!
//! [`VenueCountStore`] replaces that with a CSR arena over the *support*:
//! the fixed set of `(city, venue)` pairs that can ever hold a non-zero
//! count. The support is knowable up front — a mention of venue `v` by
//! user `i` can only ever be assigned to a city in `i`'s candidate list —
//! and both trainers mark it in one [`VenueSupport`] bitmap that the
//! store reads its rows from. Counts live in one flat slab, lookups are a
//! binary search over a short sorted key row, rows iterate in venue-id
//! order for free, and a parallel merge is a flat index-wise delta-add.
//! Cities whose support covers a large fraction of the venue vocabulary
//! fall back to a dense row: O(1) indexed lookups, no search.
//!
//! The per-user `ϕ` rows need no keys at all (they are dense over each
//! user's candidate list) and are stored as a plain [`Csr`] arena by
//! [`crate::state::SamplerState`].

use mlp_gazetteer::{CityId, VenueId};
use mlp_social::Csr;

/// A city goes dense once its support covers more than 1/16 of the venue
/// vocabulary. Dense rows are cheap (4 bytes × |V| — the vocabulary is
/// gazetteer-bounded, not corpus-bounded) and trade the binary search for
/// an O(1) index, so the threshold is set where the popular cities that
/// dominate lookups under the power law all go dense while the long tail
/// of barely-touched cities keeps tiny sparse rows.
const DENSE_NUMERATOR: usize = 1;
const DENSE_DENOMINATOR: usize = 16;

/// Sentinel in `dense_slot` marking a city stored sparsely.
const SPARSE: u32 = u32::MAX;

/// The support of a [`VenueCountStore`]: one bit per `(city, venue)` pair
/// that can ever hold a count. Trainers mark it once per mention, over the
/// mentioning user's candidate cities; duplicates cost nothing.
#[derive(Debug, Clone)]
pub struct VenueSupport {
    /// `ceil(num_venues / 64)` words per city, city-major.
    bits: Vec<u64>,
    words_per_city: usize,
    num_cities: usize,
    num_venues: usize,
}

impl VenueSupport {
    /// An empty support over `num_cities × num_venues`.
    pub fn new(num_cities: usize, num_venues: usize) -> Self {
        let words_per_city = num_venues.div_ceil(64);
        let bits = vec![0; num_cities * words_per_city];
        Self { bits, words_per_city, num_cities, num_venues }
    }

    /// Marks `(l, v)` as reachable. Panics on a venue outside the
    /// vocabulary: its bit would land in the row's padding or in the next
    /// city's row.
    #[inline]
    pub fn mark(&mut self, l: CityId, v: VenueId) {
        assert!(v.index() < self.num_venues, "venue outside the vocabulary");
        self.bits[l.index() * self.words_per_city + v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Marks a mention of venue `v`: it can only ever be assigned to one of
    /// its user's `candidates`.
    #[inline]
    pub fn mark_mention(&mut self, candidates: &[CityId], v: VenueId) {
        for &l in candidates {
            self.mark(l, v);
        }
    }

    fn row(&self, l: usize) -> &[u64] {
        &self.bits[l * self.words_per_city..(l + 1) * self.words_per_city]
    }
}

/// CSR-indexed sparse `φ_{l,v}` counts over a fixed support, with a dense
/// per-city fallback above a density threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VenueCountStore {
    /// Sorted venue-id support per sparse city (empty rows for dense
    /// cities — their support lives in `dense`).
    keys: Csr<u32>,
    /// Counts parallel to `keys`'s value slab.
    counts: Vec<u32>,
    /// Per-city dense-row index, or [`SPARSE`].
    dense_slot: Vec<u32>,
    /// Dense rows, `num_venues` counts each, concatenated.
    dense: Vec<u32>,
    /// Σ_v φ_{l,v} per city.
    totals: Vec<u32>,
    num_venues: usize,
}

impl VenueCountStore {
    /// Builds a zeroed store over a marked support, reading each city's
    /// row straight out of the bitmap: sparse rows list the marked venue
    /// ids in ascending order, and cities whose support exceeds
    /// `num_venues / 16` get a dense row instead.
    pub fn build(support: &VenueSupport) -> Self {
        let (num_cities, num_venues) = (support.num_cities, support.num_venues);
        let mut dense_slot = vec![SPARSE; num_cities];
        let mut dense_rows = 0u32;
        let mut offsets = Vec::with_capacity(num_cities + 1);
        offsets.push(0u32);
        let mut keys = Vec::new();
        for (l, slot) in dense_slot.iter_mut().enumerate() {
            let words = support.row(l);
            let len: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            if len * DENSE_DENOMINATOR > num_venues * DENSE_NUMERATOR {
                *slot = dense_rows;
                dense_rows += 1;
            } else {
                for (w, &bits) in words.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        keys.push((w * 64) as u32 + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
            }
            offsets.push(keys.len() as u32);
        }
        let keys = Csr::from_parts(offsets, keys);
        let counts = vec![0u32; keys.num_values()];
        let dense = vec![0u32; dense_rows as usize * num_venues];
        Self { keys, counts, dense_slot, dense, totals: vec![0; num_cities], num_venues }
    }

    /// Venue vocabulary size this store was built for.
    pub fn num_venues(&self) -> usize {
        self.num_venues
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.totals.len()
    }

    /// `φ_{l,v}` — zero for pairs outside the support.
    #[inline]
    pub fn get(&self, l: CityId, v: VenueId) -> u32 {
        match self.slot(l, v) {
            Some(Slot::Sparse(i)) => self.counts[i],
            Some(Slot::Dense(i)) => self.dense[i],
            None => 0,
        }
    }

    /// `Σ_v φ_{l,v}`.
    #[inline]
    pub fn total(&self, l: CityId) -> u32 {
        self.totals[l.index()]
    }

    /// Adds one token of venue `v` at city `l`. Panics if the pair is
    /// outside the precomputed support — that would mean the support
    /// derivation missed a reachable assignment.
    #[inline]
    pub fn add(&mut self, l: CityId, v: VenueId) {
        match self.slot(l, v) {
            Some(Slot::Sparse(i)) => self.counts[i] += 1,
            Some(Slot::Dense(i)) => self.dense[i] += 1,
            None => panic!("adding venue outside the precomputed support"),
        }
        self.totals[l.index()] += 1;
    }

    /// Removes one token of venue `v` from city `l`. Panics when the pair
    /// holds no count (same contract as the seed's HashMap store).
    #[inline]
    pub fn remove(&mut self, l: CityId, v: VenueId) {
        let cell = match self.slot(l, v) {
            Some(Slot::Sparse(i)) => &mut self.counts[i],
            Some(Slot::Dense(i)) => &mut self.dense[i],
            None => panic!("removing venue that was never added"),
        };
        if *cell == 0 {
            panic!("removing venue that was never added");
        }
        *cell -= 1;
        self.totals[l.index()] -= 1;
    }

    /// The non-zero `(venue, count)` entries of city `l`, ascending by
    /// venue id — a borrowed iterator, no allocation, no sort.
    #[inline]
    pub fn row(&self, l: CityId) -> VenueRow<'_> {
        let i = l.index();
        match self.dense_slot[i] {
            SPARSE => VenueRow::Sparse {
                keys: self.keys.row(i).iter(),
                counts: self.counts
                    [self.keys.offsets()[i] as usize..self.keys.offsets()[i + 1] as usize]
                    .iter(),
            },
            slot => VenueRow::Dense {
                counts: self.dense
                    [slot as usize * self.num_venues..(slot as usize + 1) * self.num_venues]
                    .iter()
                    .enumerate(),
            },
        }
    }

    /// Zeroes every count and total, keeping the support layout.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.dense.fill(0);
        self.totals.fill(0);
    }

    /// Size of the flat slot space ([`Self::slot_index`] codomain): sparse
    /// slab first, dense slab after.
    pub fn num_slots(&self) -> usize {
        self.counts.len() + self.dense.len()
    }

    /// Flat slot of `(l, v)` for index-wise delta merges. Panics outside
    /// the support (workers only ever touch reachable pairs).
    #[inline]
    pub fn slot_index(&self, l: CityId, v: VenueId) -> usize {
        match self.slot(l, v) {
            Some(Slot::Sparse(i)) => i,
            Some(Slot::Dense(i)) => self.counts.len() + i,
            None => panic!("venue outside the precomputed support has no slot"),
        }
    }

    /// Applies per-slot count deltas and per-city total deltas (the merge
    /// step of a parallel sweep). Deltas must not underflow any count.
    pub fn apply_delta(&mut self, slots: &[i32], totals: &[i32]) {
        debug_assert_eq!(slots.len(), self.num_slots());
        debug_assert_eq!(totals.len(), self.totals.len());
        let (sparse, dense) = slots.split_at(self.counts.len());
        add_deltas(&mut self.counts, sparse);
        add_deltas(&mut self.dense, dense);
        add_deltas(&mut self.totals, totals);
    }

    /// Merges the difference `after − before` into this store — the
    /// count-reconciliation step of sharded training: `before` is the
    /// frozen super-sweep view a shard swept against, `after` that
    /// shard's mutated working clone. All three stores must share one
    /// support layout (clones of the same build).
    pub fn apply_diff(&mut self, after: &Self, before: &Self) {
        assert_eq!(after.counts.len(), self.counts.len(), "diff across different supports");
        assert_eq!(after.dense.len(), self.dense.len(), "diff across different supports");
        for ((c, &a), &b) in self.counts.iter_mut().zip(&after.counts).zip(&before.counts) {
            *c = c.wrapping_add(a.wrapping_sub(b));
        }
        for ((c, &a), &b) in self.dense.iter_mut().zip(&after.dense).zip(&before.dense) {
            *c = c.wrapping_add(a.wrapping_sub(b));
        }
        for ((t, &a), &b) in self.totals.iter_mut().zip(&after.totals).zip(&before.totals) {
            *t = t.wrapping_add(a.wrapping_sub(b));
        }
    }

    #[inline]
    fn slot(&self, l: CityId, v: VenueId) -> Option<Slot> {
        let i = l.index();
        match self.dense_slot[i] {
            SPARSE => self
                .keys
                .row(i)
                .binary_search(&v.0)
                .ok()
                .map(|pos| Slot::Sparse(self.keys.slot(i, pos))),
            // The vocabulary bound matters on the dense path: without it
            // an out-of-range venue id would alias into the *next* dense
            // city's row instead of behaving like any other miss.
            _ if v.index() >= self.num_venues => None,
            slot => Some(Slot::Dense(slot as usize * self.num_venues + v.index())),
        }
    }
}

/// Adds signed per-slot `deltas` to `counts`, index by index.
pub(crate) fn add_deltas(counts: &mut [u32], deltas: &[i32]) {
    for (c, &d) in counts.iter_mut().zip(deltas) {
        *c = c.wrapping_add_signed(d);
    }
}

enum Slot {
    Sparse(usize),
    Dense(usize),
}

/// Borrowed iterator over a city's non-zero `(venue, count)` entries,
/// ascending by venue id.
pub enum VenueRow<'a> {
    /// Sparse city: zip of the key row and its count slice.
    Sparse { keys: std::slice::Iter<'a, u32>, counts: std::slice::Iter<'a, u32> },
    /// Dense city: enumerated dense row.
    Dense { counts: std::iter::Enumerate<std::slice::Iter<'a, u32>> },
}

impl Iterator for VenueRow<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            VenueRow::Sparse { keys, counts } => loop {
                let (&v, &c) = (keys.next()?, counts.next()?);
                if c > 0 {
                    return Some((v, c));
                }
            },
            VenueRow::Dense { counts } => loop {
                let (v, &c) = counts.next()?;
                if c > 0 {
                    return Some((v as u32, c));
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> VenueCountStore {
        // City 0: small support {2, 5, 9} of 64 venues (3/64 ≤ 1/16 —
        // sparse). City 1: support {0..=9} (10/64 > 1/16 — dense
        // fallback). City 2: empty support.
        let mut support = VenueSupport::new(3, 64);
        for (l, v) in [(0, 2), (0, 5), (0, 9), (0, 5)].into_iter().chain((0..10).map(|v| (1, v))) {
            support.mark(CityId(l), VenueId(v));
        }
        VenueCountStore::build(&support)
    }

    #[test]
    fn dense_fallback_kicks_in_by_density() {
        let s = store();
        assert_eq!(s.dense_slot[0], SPARSE);
        assert_ne!(s.dense_slot[1], SPARSE);
        assert_eq!(s.dense_slot[2], SPARSE);
        assert_eq!(s.num_slots(), 3 + 64);
    }

    #[test]
    fn dense_rows_reject_out_of_vocabulary_venues() {
        // City 1 is dense; venue 64 is one past the vocabulary. It must
        // behave like any other miss — never alias into a neighbouring
        // dense row.
        let mut s = store();
        assert_eq!(s.get(CityId(1), VenueId(64)), 0);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.add(CityId(1), VenueId(64));
        }));
        assert!(panic.is_err(), "out-of-vocabulary add on a dense row must panic");
    }

    #[test]
    fn add_remove_get_total() {
        let mut s = store();
        s.add(CityId(0), VenueId(5));
        s.add(CityId(0), VenueId(5));
        s.add(CityId(1), VenueId(7));
        assert_eq!(s.get(CityId(0), VenueId(5)), 2);
        assert_eq!(s.get(CityId(0), VenueId(2)), 0);
        assert_eq!(s.get(CityId(0), VenueId(3)), 0, "outside support reads zero");
        assert_eq!(s.total(CityId(0)), 2);
        assert_eq!(s.total(CityId(1)), 1);
        s.remove(CityId(0), VenueId(5));
        assert_eq!(s.get(CityId(0), VenueId(5)), 1);
        assert_eq!(s.total(CityId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "removing venue that was never added")]
    fn remove_outside_support_panics() {
        let mut s = store();
        s.remove(CityId(0), VenueId(3));
    }

    #[test]
    #[should_panic(expected = "removing venue that was never added")]
    fn remove_zero_count_panics() {
        let mut s = store();
        s.remove(CityId(0), VenueId(5));
    }

    #[test]
    #[should_panic(expected = "adding venue outside the precomputed support")]
    fn add_outside_support_panics() {
        let mut s = store();
        s.add(CityId(2), VenueId(0));
    }

    #[test]
    fn rows_iterate_nonzero_sorted() {
        let mut s = store();
        s.add(CityId(0), VenueId(9));
        s.add(CityId(0), VenueId(2));
        s.add(CityId(0), VenueId(2));
        s.add(CityId(1), VenueId(4));
        s.add(CityId(1), VenueId(1));
        let row0: Vec<(u32, u32)> = s.row(CityId(0)).collect();
        assert_eq!(row0, vec![(2, 2), (9, 1)]);
        let row1: Vec<(u32, u32)> = s.row(CityId(1)).collect();
        assert_eq!(row1, vec![(1, 1), (4, 1)]);
        assert!(s.row(CityId(2)).next().is_none());
    }

    #[test]
    fn delta_merge_equals_incremental_updates() {
        let mut incremental = store();
        incremental.add(CityId(0), VenueId(5));
        incremental.add(CityId(0), VenueId(5));
        incremental.add(CityId(1), VenueId(3));
        incremental.remove(CityId(0), VenueId(5));

        let mut merged = store();
        let mut slots = vec![0i32; merged.num_slots()];
        let mut totals = vec![0i32; merged.num_cities()];
        for (l, v, d) in [(0u32, 5u32, 2i32), (1, 3, 1), (0, 5, -1)] {
            slots[merged.slot_index(CityId(l), VenueId(v))] += d;
            totals[l as usize] += d;
        }
        merged.apply_delta(&slots, &totals);
        assert_eq!(incremental, merged);
    }

    #[test]
    fn clear_preserves_layout() {
        let mut s = store();
        s.add(CityId(0), VenueId(5));
        s.add(CityId(1), VenueId(5));
        let layout = s.clone();
        s.clear();
        assert_eq!(s.get(CityId(0), VenueId(5)), 0);
        assert_eq!(s.total(CityId(1)), 0);
        assert_eq!(s.num_slots(), layout.num_slots());
        assert_eq!(s.dense_slot, layout.dense_slot);
    }
}
