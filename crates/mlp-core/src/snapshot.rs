//! Frozen posterior artifacts for warm-start serving.
//!
//! Training is expensive (a full-corpus Gibbs run); prediction for a user
//! the model never saw should not be. A [`PosteriorSnapshot`] freezes
//! everything a fold-in chain ([`crate::infer`]) needs from a trained
//! sampler into one immutable, serialisable artifact:
//!
//! * the collapsed posterior — per-user mean counts `ϕ̄` over each user's
//!   candidate list, and the venue counts `φ_{l,v}` with city totals;
//! * the hyper-parameters the conditionals evaluate (`τ`, `δ`, `ρ_f`,
//!   `ρ_t`, the calibrated power law, the `count_noisy` convention and
//!   observation variant);
//! * the learned noise models `F_R` and `T_R` as exact probabilities.
//!
//! The posterior lives in CSR arenas ([`UserArena`], [`VenueArena`]): one
//! offset table per arena and flat value slabs, mirroring the
//! training-time layout in [`crate::state`]. The binary encoding (format
//! v5) is therefore a handful of aligned slabs — no per-user records, no
//! intermediate maps on decode — following the
//! `mlp_social::codec` conventions: little-endian, magic-tagged and
//! versioned so stale or corrupted artifacts fail loudly with a typed
//! [`SnapshotError`] instead of deserialising garbage. Serving fleets can
//! therefore build the snapshot once offline, ship the bytes to replicas,
//! and answer fold-in queries against a shared read-only copy — no locks,
//! no count merging, because frozen counts never mutate.
//!
//! An artifact is always a *folded* posterior. Online refresh
//! ([`crate::online`]) commits [`SnapshotDelta`]s in memory, and a
//! committed delta's only on-disk form is its record payload in the
//! durable engine's sidecar write-ahead log ([`crate::wal`]) until a
//! checkpoint folds the log into a fresh base — the database-file /
//! log split of SQLite's `journal_mode=WAL`. The v5 layout keeps its
//! final section, which always holds a zero `u32` record count; a
//! non-zero count (an artifact written by an older build) fails typed.

use crate::candidacy::Candidacy;
use crate::config::{MlpConfig, Variant};
use crate::count_store::VenueRow;
use crate::kernel;
use crate::random_models::RandomModels;
use crate::sampler::GibbsSampler;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::PowerLaw;
use mlp_social::{Csr, Slab, UserId};
use std::any::Any;
use std::sync::Arc;

const MAGIC: u32 = 0x4D4C_5053; // "MLPS"
/// The one format version this build reads and writes: v5 = a
/// 64-byte-aligned section table over the CSR slabs (fixed-width
/// little-endian, per-section CRC32s) so each slab can be reinterpreted
/// in place from a mapped file, followed by a final section holding a
/// zero `u32` record count. Every other version, older or newer, fails
/// with the typed [`SnapshotError::UnsupportedVersion`].
const VERSION: u16 = 5;

/// IEEE CRC32 (the zlib/PNG polynomial), slicing-by-8, no external
/// crates. Frames every WAL record, and
/// checksums every v5 section — a mapped open verifies whole slabs with
/// it, so the wide variant matters: it runs several times faster than the
/// byte-at-a-time loop while producing identical digests.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c ^= u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][(c >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Stable (FNV-1a, rustc-independent) content hash of a gazetteer:
/// every city's name, state, coordinates, and population, and every
/// venue's resolution list. Snapshots carry this so that thawing against
/// a *different* geography — even one with the same city and venue
/// counts — fails loudly instead of silently serving predictions whose
/// city ids mean different places.
pub fn gazetteer_fingerprint(gaz: &Gazetteer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat_bytes = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat_bytes(&(gaz.num_cities() as u64).to_le_bytes());
    eat_bytes(&(gaz.num_venues() as u64).to_le_bytes());
    for city in gaz.cities() {
        eat_bytes(city.name.as_bytes());
        eat_bytes(city.state.as_bytes());
        eat_bytes(&city.center.lat().to_bits().to_le_bytes());
        eat_bytes(&city.center.lon().to_bits().to_le_bytes());
        eat_bytes(&city.population.to_le_bytes());
    }
    for venue in gaz.venues() {
        eat_bytes(venue.name.as_bytes());
        eat_bytes(&(venue.cities.len() as u64).to_le_bytes());
        for &c in &venue.cities {
            eat_bytes(&c.0.to_le_bytes());
        }
    }
    h
}

/// Errors raised when decoding a posterior snapshot.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Wrong magic number — not a posterior snapshot.
    BadMagic(u32),
    /// Snapshot from a format version this build does not read (anything
    /// but v5).
    UnsupportedVersion(u16),
    /// Buffer ended before the declared payload.
    Truncated,
    /// An enum tag byte held an unknown value.
    BadTag(u8),
    /// Structurally invalid payload (mismatched lengths, bad ids).
    Corrupt(&'static str),
    /// A declared size cannot be represented on this target (e.g. a u64
    /// length prefix exceeding `usize::MAX` on 32-bit) or overflows the
    /// byte-count arithmetic — rejected before any allocation.
    Overflow(&'static str),
    /// The in-memory state exceeds the format's `u32` slab limits and
    /// cannot be encoded (or a delta commit would push it past them).
    TooLarge(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#x}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads v{VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadTag(t) => write!(f, "unknown snapshot tag byte {t}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Overflow(what) => {
                write!(f, "snapshot size overflow: {what} not representable on this target")
            }
            SnapshotError::TooLarge(what) => {
                write!(f, "snapshot exceeds format limits: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One training user's posterior as an owned record — the *builder* input
/// for [`UserArena::from_users`] (tests and the freeze path construct
/// these; the stored representation is the arena).
#[derive(Debug, Clone, PartialEq)]
pub struct UserPosterior {
    /// Candidate cities, sorted ascending (the Gibbs domain).
    pub candidates: Vec<CityId>,
    /// Priors `γ` aligned with `candidates`.
    pub gammas: Vec<f64>,
    /// Mean post-burn-in counts `ϕ̄` aligned with `candidates`.
    pub mean_counts: Vec<f64>,
    /// `Σ_c ϕ̄` (kept explicit so [`crate::kernel::CountView`] lookups
    /// stay O(1)).
    pub mean_total: f64,
    /// `Σ_c γ`.
    pub gamma_total: f64,
    /// MAP home — the argmax of `θ̂` (Eq. 10).
    pub home: CityId,
}

/// A borrowed view of one user's row across the arena slabs.
#[derive(Debug, Clone, Copy)]
pub struct UserView<'a> {
    /// Candidate cities, sorted ascending.
    pub candidates: &'a [CityId],
    /// Priors `γ` aligned with `candidates`.
    pub gammas: &'a [f64],
    /// Mean counts `ϕ̄` aligned with `candidates`.
    pub mean_counts: &'a [f64],
    /// `Σ_c ϕ̄`.
    pub mean_total: f64,
    /// `Σ_c γ`.
    pub gamma_total: f64,
    /// MAP home.
    pub home: CityId,
}

/// The frozen per-user posterior: a CSR offset table over flat
/// `candidates`/`gammas`/`mean_counts` slabs plus per-user scalar columns.
///
/// Every column is a [`Slab`] (the candidate rows a [`Csr`]), so the whole
/// arena either owns its memory (trained / copy-decoded snapshots) or
/// borrows it zero-copy from a mapped v5 artifact. Row logic lives in the
/// `Csr` offset table once; the parallel `gammas`/`mean_counts` columns
/// reuse its [`Csr::row_range`]. Deltas append whole user rows, which land
/// in the slabs' owned tails when the base is mapped — the overlay that
/// lets a mapped snapshot absorb WAL replay without materializing.
#[derive(Debug, Clone, PartialEq)]
pub struct UserArena {
    /// Candidate rows: the offset table (`num_users + 1` entries) shared by
    /// all three row-shaped columns, plus the candidate slab itself.
    candidates: Csr<CityId>,
    gammas: Slab<f64>,
    mean_counts: Slab<f64>,
    mean_totals: Slab<f64>,
    gamma_totals: Slab<f64>,
    homes: Slab<CityId>,
}

impl UserArena {
    /// An arena with no users.
    pub fn empty() -> Self {
        Self {
            candidates: Csr::empty(),
            gammas: Slab::new(),
            mean_counts: Slab::new(),
            mean_totals: Slab::new(),
            gamma_totals: Slab::new(),
            homes: Slab::new(),
        }
    }

    /// Packs owned per-user records into the columnar arena.
    pub fn from_users(users: impl IntoIterator<Item = UserPosterior>) -> Self {
        let mut arena = Self::empty();
        for u in users {
            arena.push(u);
        }
        arena
    }

    /// Builds an arena from owned, pre-validated columns (the copying
    /// decode path and delta records).
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        candidates: Vec<CityId>,
        gammas: Vec<f64>,
        mean_counts: Vec<f64>,
        mean_totals: Vec<f64>,
        gamma_totals: Vec<f64>,
        homes: Vec<CityId>,
    ) -> Self {
        Self {
            candidates: Csr::from_parts(offsets, candidates),
            gammas: Slab::from_vec(gammas),
            mean_counts: Slab::from_vec(mean_counts),
            mean_totals: Slab::from_vec(mean_totals),
            gamma_totals: Slab::from_vec(gamma_totals),
            homes: Slab::from_vec(homes),
        }
    }

    /// Builds an arena on pre-validated slabs — owned or borrowed from a
    /// mapped artifact (the zero-copy open path).
    pub(crate) fn from_slabs(
        offsets: Slab<u32>,
        candidates: Slab<CityId>,
        gammas: Slab<f64>,
        mean_counts: Slab<f64>,
        mean_totals: Slab<f64>,
        gamma_totals: Slab<f64>,
        homes: Slab<CityId>,
    ) -> Self {
        Self {
            candidates: Csr::from_slabs(offsets, candidates),
            gammas,
            mean_counts,
            mean_totals,
            gamma_totals,
            homes,
        }
    }

    /// Whether the arena borrows a mapped artifact instead of owning its
    /// slabs.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.candidates.is_zero_copy()
    }

    /// Appends one user's row; their id is the arena's previous
    /// [`Self::num_users`].
    pub fn push(&mut self, u: UserPosterior) {
        self.candidates.push_row(&u.candidates);
        self.gammas.extend_from_slice(&u.gammas);
        self.mean_counts.extend_from_slice(&u.mean_counts);
        self.mean_totals.push(u.mean_total);
        self.gamma_totals.push(u.gamma_total);
        self.homes.push(u.home);
    }

    /// Appends every row of `other` (an index-wise slab concatenation —
    /// the commit step of an online delta). Fails without mutating when
    /// the combined slabs would overflow the format's `u32` offsets. When
    /// `self` is mapped, the rows land in the slabs' owned tails and the
    /// mapped base stays untouched.
    pub fn extend_from(&mut self, other: &UserArena) -> Result<(), SnapshotError> {
        if self.num_entries() as u64 + other.num_entries() as u64 > u32::MAX as u64 {
            return Err(SnapshotError::TooLarge("user candidate slab exceeds u32::MAX entries"));
        }
        if self.num_users() as u64 + other.num_users() as u64 > u32::MAX as u64 {
            return Err(SnapshotError::TooLarge("user count exceeds u32::MAX"));
        }
        self.candidates.append(&other.candidates);
        for seg in [other.gammas.segments().0, other.gammas.segments().1] {
            self.gammas.extend_from_slice(seg);
        }
        for seg in [other.mean_counts.segments().0, other.mean_counts.segments().1] {
            self.mean_counts.extend_from_slice(seg);
        }
        for seg in [other.mean_totals.segments().0, other.mean_totals.segments().1] {
            self.mean_totals.extend_from_slice(seg);
        }
        for seg in [other.gamma_totals.segments().0, other.gamma_totals.segments().1] {
            self.gamma_totals.extend_from_slice(seg);
        }
        for seg in [other.homes.segments().0, other.homes.segments().1] {
            self.homes.extend_from_slice(seg);
        }
        Ok(())
    }

    /// Number of training users.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.homes.len()
    }

    /// Total number of candidate entries across all rows.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.candidates.num_values()
    }

    /// User `u`'s row across all slabs.
    #[inline]
    pub fn user(&self, u: UserId) -> UserView<'_> {
        let i = u.index();
        let range = self.candidates.row_range(i);
        UserView {
            candidates: self.candidates.row(i),
            gammas: self.gammas.slice(range.start, range.end),
            mean_counts: self.mean_counts.slice(range.start, range.end),
            mean_total: self.mean_totals.get(i),
            gamma_total: self.gamma_totals.get(i),
            home: self.homes.get(i),
        }
    }

    // Single-column accessors for hot lookups that need one slab — the
    // fold-in kernel calls these per conditional evaluation, so they must
    // not assemble a whole `UserView`.

    /// User `u`'s candidate row.
    #[inline]
    pub fn candidates_of(&self, u: UserId) -> &[CityId] {
        self.candidates.row(u.index())
    }

    /// User `u`'s γ row.
    #[inline]
    pub fn gammas_of(&self, u: UserId) -> &[f64] {
        let range = self.candidates.row_range(u.index());
        self.gammas.slice(range.start, range.end)
    }

    /// User `u`'s ϕ̄ row.
    #[inline]
    pub fn mean_counts_of(&self, u: UserId) -> &[f64] {
        let range = self.candidates.row_range(u.index());
        self.mean_counts.slice(range.start, range.end)
    }

    /// `Σ_c ϕ̄` for user `u`.
    #[inline]
    pub fn mean_total(&self, u: UserId) -> f64 {
        self.mean_totals.get(u.index())
    }

    /// `Σ_c γ` for user `u`.
    #[inline]
    pub fn gamma_total(&self, u: UserId) -> f64 {
        self.gamma_totals.get(u.index())
    }

    /// MAP home of user `u`.
    #[inline]
    pub fn home(&self, u: UserId) -> CityId {
        self.homes.get(u.index())
    }

    // Column iterators for the encoders (segment-aware, so a mapped arena
    // with appended tails serialises correctly).

    pub(crate) fn offsets_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.candidates.offsets_iter()
    }

    pub(crate) fn candidate_ids_iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (h, t) = self.candidates.values_segments();
        h.iter().chain(t).map(|c| c.0)
    }

    pub(crate) fn gammas_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.gammas.iter().copied()
    }

    pub(crate) fn mean_counts_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.mean_counts.iter().copied()
    }

    pub(crate) fn mean_totals_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.mean_totals.iter().copied()
    }

    pub(crate) fn gamma_totals_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.gamma_totals.iter().copied()
    }

    pub(crate) fn home_ids_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.homes.iter().map(|c| c.0)
    }
}

/// The frozen `φ` counts: CSR offsets over sorted `venue_ids` with a
/// parallel `counts` slab, plus per-city totals.
///
/// Slab-backed like [`UserArena`], so a mapped v5 artifact serves `φ`
/// lookups straight from the file. Venue deltas rebuild the slabs
/// (`apply_sorted_weights`), which copies a mapped arena to owned
/// — acceptable because the venue arena is gazetteer-bounded, orders of
/// magnitude smaller than the user arena.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueArena {
    /// `num_cities + 1` offsets over the sorted venue-id rows.
    venue_ids: Csr<u32>,
    counts: Slab<f64>,
    city_totals: Slab<f64>,
}

impl VenueArena {
    /// Packs per-city `(venue, count)` rows (ascending venue id) into the
    /// arena; city totals are the row sums — exact, because training
    /// counts are integers.
    pub fn from_rows<R>(rows: impl Iterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = (u32, f64)>,
    {
        let mut offsets = vec![0u32];
        let mut venue_ids = Vec::new();
        let mut counts = Vec::new();
        let mut city_totals = Vec::new();
        for row in rows {
            let mut total = 0.0;
            for (v, c) in row {
                venue_ids.push(v);
                counts.push(c);
                total += c;
            }
            offsets.push(venue_ids.len() as u32);
            city_totals.push(total);
        }
        Self::from_parts(offsets, venue_ids, counts, city_totals)
    }

    /// Builds the arena from owned, pre-validated columns.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        venue_ids: Vec<u32>,
        counts: Vec<f64>,
        city_totals: Vec<f64>,
    ) -> Self {
        Self {
            venue_ids: Csr::from_parts(offsets, venue_ids),
            counts: Slab::from_vec(counts),
            city_totals: Slab::from_vec(city_totals),
        }
    }

    /// Builds the arena on pre-validated slabs (owned or mapped).
    pub(crate) fn from_slabs(
        offsets: Slab<u32>,
        venue_ids: Slab<u32>,
        counts: Slab<f64>,
        city_totals: Slab<f64>,
    ) -> Self {
        Self { venue_ids: Csr::from_slabs(offsets, venue_ids), counts, city_totals }
    }

    /// Whether the arena borrows a mapped artifact.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.venue_ids.is_zero_copy()
    }

    /// Number of cities.
    #[inline]
    pub fn num_cities(&self) -> usize {
        self.city_totals.len()
    }

    /// `φ_{l,v}` lookup (zero for venues the city never hosted).
    #[inline]
    pub fn count(&self, l: CityId, v: VenueId) -> f64 {
        let i = l.index();
        let range = self.venue_ids.row_range(i);
        match self.venue_ids.row(i).binary_search(&v.0) {
            Ok(pos) => self.counts.get(range.start + pos),
            Err(_) => 0.0,
        }
    }

    /// `Σ_v φ_{l,v}`.
    #[inline]
    pub fn city_total(&self, l: CityId) -> f64 {
        self.city_totals.get(l.index())
    }

    /// City `l`'s `(venue, count)` row, ascending by venue id.
    pub fn row(&self, l: CityId) -> impl Iterator<Item = (u32, f64)> + '_ {
        let i = l.index();
        let range = self.venue_ids.row_range(i);
        self.venue_ids
            .row(i)
            .iter()
            .copied()
            .zip(self.counts.slice(range.start, range.end).iter().copied())
    }

    /// Total number of stored `(city, venue)` cells.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.venue_ids.num_values()
    }

    // Column iterators for the encoders.

    pub(crate) fn offsets_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.venue_ids.offsets_iter()
    }

    pub(crate) fn venue_ids_iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (h, t) = self.venue_ids.values_segments();
        h.iter().chain(t).copied()
    }

    pub(crate) fn counts_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.counts.iter().copied()
    }

    pub(crate) fn city_totals_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.city_totals.iter().copied()
    }

    /// Merges sorted-unique COO weight deltas `(cities[i], venues[i]) +=
    /// weights[i]` into the CSR slabs in one deterministic pass: existing
    /// cells accumulate in place of the merged row, new cells splice in at
    /// their venue-id position, and city totals absorb the per-city sums.
    /// Inputs must already be validated (strictly ascending `(city,
    /// venue)` keys in range, finite non-negative weights) — the caller is
    /// [`PosteriorSnapshot::apply_delta`], which checks them with typed
    /// errors. Cost is `O(existing + new)`, paid per commit rather than
    /// per request.
    fn apply_sorted_weights(
        &mut self,
        cities: &[u32],
        venues: &[u32],
        weights: &[f64],
    ) -> Result<(), SnapshotError> {
        if cities.is_empty() {
            return Ok(());
        }
        if self.num_entries() as u64 + venues.len() as u64 > u32::MAX as u64 {
            return Err(SnapshotError::TooLarge("venue count slab exceeds u32::MAX entries"));
        }
        let mut new_offsets = Vec::with_capacity(self.num_cities() + 1);
        let mut new_ids = Vec::with_capacity(self.num_entries() + venues.len());
        let mut new_counts = Vec::with_capacity(self.num_entries() + venues.len());
        let mut new_totals = Vec::with_capacity(self.num_cities());
        new_offsets.push(0u32);
        let mut d = 0usize; // cursor into the delta COO
        for l in 0..self.num_cities() {
            let range = self.venue_ids.row_range(l);
            let ids = self.venue_ids.row(l);
            let cnts = self.counts.slice(range.start, range.end);
            let mut i = 0usize;
            let end = ids.len();
            let mut total_add = 0.0f64;
            while d < cities.len() && cities[d] as usize == l {
                let v = venues[d];
                // Copy existing entries below the delta's venue id.
                while i < end && ids[i] < v {
                    new_ids.push(ids[i]);
                    new_counts.push(cnts[i]);
                    i += 1;
                }
                if i < end && ids[i] == v {
                    new_ids.push(v);
                    new_counts.push(cnts[i] + weights[d]);
                    i += 1;
                } else {
                    new_ids.push(v);
                    new_counts.push(weights[d]);
                }
                total_add += weights[d];
                d += 1;
            }
            while i < end {
                new_ids.push(ids[i]);
                new_counts.push(cnts[i]);
                i += 1;
            }
            new_offsets.push(new_ids.len() as u32);
            new_totals.push(self.city_totals.get(l) + total_add);
        }
        // The rebuild is always owned: venue deltas are rare relative to
        // user appends, and the arena is gazetteer-bounded, so copying a
        // mapped base here costs little and keeps the merge logic single.
        *self = Self::from_parts(new_offsets, new_ids, new_counts, new_totals);
        Ok(())
    }
}

/// A mergeable increment to a [`PosteriorSnapshot`]: the unit of online
/// posterior refresh.
///
/// A delta mirrors the snapshot's arenas as flat slabs — appended user
/// rows live in their own [`UserArena`], and `φ` increments are a
/// sorted-unique COO (`(city, venue) → weight`) that
/// [`PosteriorSnapshot::apply_delta`] merges index-wise into the venue
/// CSR. On disk a delta exists only as one record of the sidecar
/// write-ahead log ([`crate::wal::DeltaWal`]), until a checkpoint folds
/// it into a fresh base artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// User count of the snapshot this delta appends after — the first
    /// appended user gets id `base_users`.
    base_users: u32,
    /// Appended users as a columnar arena.
    users: UserArena,
    /// `φ` increments: city ids, parallel venue ids, parallel weights,
    /// strictly ascending by `(city, venue)`.
    venue_cities: Vec<u32>,
    venue_ids: Vec<u32>,
    venue_weights: Vec<f64>,
}

impl SnapshotDelta {
    /// An empty delta applying after `base_users` trained users.
    pub fn new(base_users: u32) -> Self {
        Self {
            base_users,
            users: UserArena::empty(),
            venue_cities: Vec::new(),
            venue_ids: Vec::new(),
            venue_weights: Vec::new(),
        }
    }

    /// The user count this delta expects the snapshot to have.
    pub fn base_users(&self) -> u32 {
        self.base_users
    }

    /// Number of users this delta appends.
    pub fn num_new_users(&self) -> usize {
        self.users.num_users()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.users.num_users() == 0 && self.venue_cities.is_empty()
    }

    /// Appends one user's posterior row (id `base_users + previous
    /// [`Self::num_new_users`]` once committed).
    pub fn push_user(&mut self, user: UserPosterior) {
        self.users.push(user);
    }

    /// Folds `(city, venue, weight)` increments into the delta's COO.
    /// `deltas` must be sorted by `(city, venue)` with unique keys (the
    /// form [`crate::infer::FoldInRecord`] produces); weights accumulate
    /// for keys already present.
    pub fn add_venue_weights(&mut self, deltas: &[(CityId, VenueId, f64)]) {
        if deltas.is_empty() {
            return;
        }
        let old_cities = std::mem::take(&mut self.venue_cities);
        let old_ids = std::mem::take(&mut self.venue_ids);
        let old_weights = std::mem::take(&mut self.venue_weights);
        self.venue_cities.reserve(old_cities.len() + deltas.len());
        self.venue_ids.reserve(old_ids.len() + deltas.len());
        self.venue_weights.reserve(old_weights.len() + deltas.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_cities.len() || j < deltas.len() {
            let take_old = match (old_cities.get(i), deltas.get(j)) {
                (Some(&lc), Some(&(dc, dv, _))) => (lc, old_ids[i]) <= (dc.0, dv.0),
                (Some(_), None) => true,
                _ => false,
            };
            if take_old {
                let key = (old_cities[i], old_ids[i]);
                let mut w = old_weights[i];
                i += 1;
                if j < deltas.len() && (deltas[j].0 .0, deltas[j].1 .0) == key {
                    w += deltas[j].2;
                    j += 1;
                }
                self.venue_cities.push(key.0);
                self.venue_ids.push(key.1);
                self.venue_weights.push(w);
            } else {
                let (dc, dv, dw) = deltas[j];
                j += 1;
                self.venue_cities.push(dc.0);
                self.venue_ids.push(dv.0);
                self.venue_weights.push(dw);
            }
        }
    }

    /// Serialised record payload size in bytes.
    fn record_len(&self) -> u64 {
        let n = self.users.num_users() as u64;
        let nnz = self.users.num_entries() as u64;
        let vnz = self.venue_cities.len() as u64;
        4 + 4 + 4 + (n + 1) * 4 + nnz * 20 + n * 20 + 4 + vnz * 16
    }

    /// The bare record payload (no framing) — what the sidecar WAL
    /// frames and appends.
    pub(crate) fn encode_record_payload(&self) -> Result<Bytes, SnapshotError> {
        let n = u32::try_from(self.users.num_users())
            .map_err(|_| SnapshotError::TooLarge("delta user count exceeds u32::MAX"))?;
        let nnz = u32::try_from(self.users.num_entries())
            .map_err(|_| SnapshotError::TooLarge("delta candidate slab exceeds u32::MAX"))?;
        let vnz = u32::try_from(self.venue_cities.len())
            .map_err(|_| SnapshotError::TooLarge("delta venue slab exceeds u32::MAX"))?;
        let mut buf = BytesMut::with_capacity(self.record_len() as usize);
        buf.put_u32_le(self.base_users);
        buf.put_u32_le(n);
        buf.put_u32_le(nnz);
        for o in self.users.offsets_iter() {
            buf.put_u32_le(o);
        }
        for c in self.users.candidate_ids_iter() {
            buf.put_u32_le(c);
        }
        for g in self.users.gammas_iter() {
            buf.put_f64_le(g);
        }
        for m in self.users.mean_counts_iter() {
            buf.put_f64_le(m);
        }
        for m in self.users.mean_totals_iter() {
            buf.put_f64_le(m);
        }
        for g in self.users.gamma_totals_iter() {
            buf.put_f64_le(g);
        }
        for h in self.users.home_ids_iter() {
            buf.put_u32_le(h);
        }
        buf.put_u32_le(vnz);
        for &l in &self.venue_cities {
            buf.put_u32_le(l);
        }
        for &v in &self.venue_ids {
            buf.put_u32_le(v);
        }
        for &w in &self.venue_weights {
            buf.put_f64_le(w);
        }
        Ok(buf.freeze())
    }

    /// Parses a bare record payload whose framing (length and CRC) has
    /// already been read and verified by the caller.
    pub(crate) fn decode_record_payload(mut rec: Bytes) -> Result<Self, SnapshotError> {
        need64(&rec, 12)?;
        let base_users = rec.get_u32_le();
        let n = rec.get_u32_le() as usize;
        let nnz = rec.get_u32_le();
        need64(&rec, (n as u64 + 1) * 4 + nnz as u64 * 20 + n as u64 * 20)?;
        let offsets = get_offsets(&mut rec, n, nnz)?;
        let candidates: Vec<CityId> = (0..nnz).map(|_| CityId(rec.get_u32_le())).collect();
        let gammas: Vec<f64> = (0..nnz).map(|_| rec.get_f64_le()).collect();
        let mean_counts: Vec<f64> = (0..nnz).map(|_| rec.get_f64_le()).collect();
        let mean_totals: Vec<f64> = (0..n).map(|_| rec.get_f64_le()).collect();
        let gamma_totals: Vec<f64> = (0..n).map(|_| rec.get_f64_le()).collect();
        let homes: Vec<CityId> = (0..n).map(|_| CityId(rec.get_u32_le())).collect();
        need64(&rec, 4)?;
        let vnz = rec.get_u32_le();
        need64(&rec, vnz as u64 * 16)?;
        let venue_cities: Vec<u32> = (0..vnz).map(|_| rec.get_u32_le()).collect();
        let venue_ids: Vec<u32> = (0..vnz).map(|_| rec.get_u32_le()).collect();
        let venue_weights: Vec<f64> = (0..vnz).map(|_| rec.get_f64_le()).collect();
        if rec.has_remaining() {
            return Err(SnapshotError::Corrupt("delta record longer than its payload"));
        }
        Ok(Self {
            base_users,
            users: UserArena::from_parts(
                offsets,
                candidates,
                gammas,
                mean_counts,
                mean_totals,
                gamma_totals,
                homes,
            ),
            venue_cities,
            venue_ids,
            venue_weights,
        })
    }
}

/// An immutable frozen posterior, ready for fold-in inference.
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorSnapshot {
    /// Which observation types the model was trained on.
    pub variant: Variant,
    /// Whether noisy assignments contributed to `ϕ` during training.
    pub count_noisy_assignments: bool,
    /// τ — base candidate prior.
    pub tau: f64,
    /// δ — venue-multinomial prior.
    pub delta: f64,
    /// ρ_f — prior noise probability for following relationships.
    pub rho_f: f64,
    /// ρ_t — prior noise probability for tweeting relationships.
    pub rho_t: f64,
    /// The calibrated (possibly EM-refined) power law.
    pub power_law: PowerLaw,
    /// `p(f⟨i,j⟩ | F_R)`.
    pub follow_prob: f64,
    /// `p(t⟨i,j⟩ | T_R)` per venue id — exact training-time values.
    pub venue_probs: Vec<f64>,
    /// Gazetteer shape the snapshot was trained against.
    pub num_cities: u32,
    /// Venue vocabulary size.
    pub num_venues: u32,
    /// [`gazetteer_fingerprint`] of the training gazetteer — validated on
    /// thaw so a snapshot cannot silently serve a different geography,
    /// even one with identical shape.
    pub gaz_fingerprint: u64,
    /// Per-training-user posteriors, CSR arena indexed by `UserId`.
    pub users: UserArena,
    /// Frozen `φ` CSR arena with per-city totals.
    pub venues: VenueArena,
}

impl PosteriorSnapshot {
    /// Freezes a trained sampler into an immutable snapshot.
    ///
    /// Call after the final sweep (and after post-burn-in accumulation):
    /// `ϕ̄` uses the accumulated means, `φ` the final venue counts, and the
    /// power law whatever Gibbs-EM left behind.
    pub fn freeze(sampler: &GibbsSampler<'_>) -> Self {
        Self::assemble(
            sampler.gazetteer(),
            sampler.config(),
            sampler.power_law,
            sampler.random_models(),
            sampler.candidacy(),
            |u, c| sampler.state.mean_user_count(u, c),
            |l| sampler.state.venue_count_row(l),
        )
    }

    /// Assembles a trained chain's snapshot — the one freeze of both
    /// trainers. Every user's posterior is their candidacy row with the
    /// mean counts `mean(user, c)` and the home [`kernel::argmax_city`]
    /// picks over their [`kernel::theta`]; `φ` comes from the chain's
    /// `venue_row`s, beside the hyper-parameters, power law and random
    /// models it ran under.
    pub(crate) fn assemble<'v>(
        gaz: &Gazetteer,
        config: &MlpConfig,
        power_law: PowerLaw,
        random: &RandomModels,
        candidacy: &Candidacy,
        mean: impl Fn(UserId, usize) -> f64,
        venue_row: impl Fn(CityId) -> VenueRow<'v>,
    ) -> Self {
        let users = UserArena::from_users((0..candidacy.num_users()).map(|u| {
            let user = UserId(u as u32);
            let candidates = candidacy.candidates(user).to_vec();
            let gammas = candidacy.gammas(user).to_vec();
            let gamma_total = candidacy.gamma_total(user);
            let mean_counts: Vec<f64> = (0..candidates.len()).map(|c| mean(user, c)).collect();
            let theta = kernel::theta(&gammas, gamma_total, |c| mean_counts[c]);
            UserPosterior {
                home: kernel::argmax_city(&candidates, theta),
                mean_total: mean_counts.iter().sum(),
                gamma_total,
                candidates,
                gammas,
                mean_counts,
            }
        }));
        // The CSR store rows already iterate non-zero entries in venue-id
        // order, so the arena packs straight off the live store — no
        // intermediate maps, no sorting.
        let venues = VenueArena::from_rows(
            (0..gaz.num_cities()).map(|l| venue_row(CityId(l as u32)).map(|(v, c)| (v, c as f64))),
        );
        Self {
            variant: config.variant,
            count_noisy_assignments: config.count_noisy_assignments,
            tau: config.tau,
            delta: config.delta,
            rho_f: config.rho_f,
            rho_t: config.rho_t,
            power_law,
            follow_prob: random.follow_prob(),
            venue_probs: (0..gaz.num_venues())
                .map(|v| random.venue_prob(VenueId(v as u32)))
                .collect(),
            num_cities: gaz.num_cities() as u32,
            num_venues: gaz.num_venues() as u32,
            gaz_fingerprint: gazetteer_fingerprint(gaz),
            users,
            venues,
        }
    }

    /// Number of training users in the snapshot.
    pub fn num_users(&self) -> usize {
        self.users.num_users()
    }

    /// Frozen `φ_{l,v}` lookup (zero for venues the city never hosted).
    #[inline]
    pub fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        self.venues.count(l, v)
    }

    /// Serialises the snapshot into the current (v5) binary format: a
    /// 64-byte-aligned section table over fixed-width little-endian slabs
    /// with per-section CRC32s, ready to be reinterpreted in place by a
    /// mapped open, plus the final section's zero record count.
    ///
    /// The format's `u32` slab limits (> 4 Gi candidate entries —
    /// hundreds of GiB of state) surface as the typed
    /// [`SnapshotError::TooLarge`]; there is deliberately no panicking
    /// variant, so no serving process can abort on an oversized encode.
    pub fn try_encode(&self) -> Result<Bytes, SnapshotError> {
        let (n32, nnz32, cities32, vnz32) = self.slab_counts()?;
        let lens = v5_section_lens(
            n32 as u64,
            nnz32 as u64,
            cities32 as u64,
            self.venue_probs.len() as u64,
            vnz32 as u64,
        );
        let mut offs = [0u64; V5_NUM_SECTIONS];
        let mut cur = V5_DATA_START as u64;
        for (i, &len) in lens.iter().enumerate() {
            offs[i] = cur;
            cur = v5_align(cur + len);
        }
        let total = usize::try_from(offs[V5_NUM_SECTIONS - 1] + V5_DELTAS_LEN)
            .map_err(|_| SnapshotError::Overflow("snapshot byte length"))?;
        let mut out = vec![0u8; total];

        // Prelude (bytes 0..96).
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..6].copy_from_slice(&VERSION.to_le_bytes());
        out[6] = match self.variant {
            Variant::FollowingOnly => 0,
            Variant::TweetingOnly => 1,
            Variant::Full => 2,
        };
        out[7] = self.count_noisy_assignments as u8;
        for (k, x) in [
            self.tau,
            self.delta,
            self.rho_f,
            self.rho_t,
            self.power_law.alpha,
            self.power_law.beta,
            self.follow_prob,
        ]
        .into_iter()
        .enumerate()
        {
            out[8 + k * 8..16 + k * 8].copy_from_slice(&x.to_le_bytes());
        }
        out[64..68].copy_from_slice(&self.num_cities.to_le_bytes());
        out[68..72].copy_from_slice(&self.num_venues.to_le_bytes());
        out[72..80].copy_from_slice(&self.gaz_fingerprint.to_le_bytes());
        out[80..84].copy_from_slice(&n32.to_le_bytes());
        out[84..88].copy_from_slice(&nnz32.to_le_bytes());
        out[88..92].copy_from_slice(&vnz32.to_le_bytes());
        out[92..96].copy_from_slice(&(V5_NUM_SECTIONS as u32).to_le_bytes());

        // Section payloads.
        {
            let mut w = SectionWriter::new(&mut out, offs[0]);
            for &p in &self.venue_probs {
                w.f64(p);
            }
            w = SectionWriter::new(&mut out, offs[1]);
            for o in self.users.offsets_iter() {
                w.u32(o);
            }
            w = SectionWriter::new(&mut out, offs[2]);
            for c in self.users.candidate_ids_iter() {
                w.u32(c);
            }
            w = SectionWriter::new(&mut out, offs[3]);
            for g in self.users.gammas_iter() {
                w.f64(g);
            }
            w = SectionWriter::new(&mut out, offs[4]);
            for m in self.users.mean_counts_iter() {
                w.f64(m);
            }
            w = SectionWriter::new(&mut out, offs[5]);
            for m in self.users.mean_totals_iter() {
                w.f64(m);
            }
            w = SectionWriter::new(&mut out, offs[6]);
            for g in self.users.gamma_totals_iter() {
                w.f64(g);
            }
            w = SectionWriter::new(&mut out, offs[7]);
            for h in self.users.home_ids_iter() {
                w.u32(h);
            }
            w = SectionWriter::new(&mut out, offs[8]);
            for o in self.venues.offsets_iter() {
                w.u32(o);
            }
            w = SectionWriter::new(&mut out, offs[9]);
            for v in self.venues.venue_ids_iter() {
                w.u32(v);
            }
            w = SectionWriter::new(&mut out, offs[10]);
            for c in self.venues.counts_iter() {
                w.f64(c);
            }
            w = SectionWriter::new(&mut out, offs[11]);
            for t in self.venues.city_totals_iter() {
                w.f64(t);
            }
        }
        // The final section is its zero record count, already in place.

        // Section table (13 × 32-byte entries at byte 96), then header CRC.
        for (i, &len) in lens.iter().enumerate() {
            let off = offs[i] as usize;
            let crc = crc32(&out[off..off + len as usize]);
            let e = V5_PRELUDE_LEN + i * V5_ENTRY_LEN;
            out[e..e + 4].copy_from_slice(&((i as u32) + 1).to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&offs[i].to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&len.to_le_bytes());
            out[e + 24..e + 28].copy_from_slice(&crc.to_le_bytes());
        }
        let hcrc = crc32(&out[..V5_HEADER_LEN]);
        out[V5_HEADER_LEN..V5_HEADER_LEN + 4].copy_from_slice(&hcrc.to_le_bytes());
        Ok(Bytes::from(out))
    }

    /// Whether this snapshot borrows its slabs from a mapped artifact
    /// (zero-copy open) rather than owning them.
    pub fn is_zero_copy(&self) -> bool {
        self.users.is_zero_copy() || self.venues.is_zero_copy()
    }

    /// The arena sizes as checked `u32`s.
    fn slab_counts(&self) -> Result<(u32, u32, u32, u32), SnapshotError> {
        let n32 = u32::try_from(self.users.num_users())
            .map_err(|_| SnapshotError::TooLarge("user count exceeds u32::MAX"))?;
        let nnz32 = u32::try_from(self.users.num_entries())
            .map_err(|_| SnapshotError::TooLarge("user candidate slab exceeds u32::MAX entries"))?;
        let cities32 = u32::try_from(self.venues.num_cities())
            .map_err(|_| SnapshotError::TooLarge("city count exceeds u32::MAX"))?;
        let vnz32 = u32::try_from(self.venues.num_entries())
            .map_err(|_| SnapshotError::TooLarge("venue count slab exceeds u32::MAX entries"))?;
        Ok((n32, nnz32, cities32, vnz32))
    }

    /// Commits a delta: appends its user rows to the user arena and
    /// merges its `φ` increments into the venue CSR — index-wise, no
    /// clone of the trained state, no retrain. Everything is validated
    /// up front with typed errors (the same invariants [`Self::decode`]
    /// enforces), so a failed apply leaves the snapshot untouched.
    pub fn apply_delta(&mut self, delta: &SnapshotDelta) -> Result<(), SnapshotError> {
        if delta.base_users as usize != self.users.num_users() {
            return Err(SnapshotError::Corrupt("delta base user count mismatch"));
        }
        for u in 0..delta.users.num_users() {
            let view = delta.users.user(UserId(u as u32));
            if view.candidates.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotError::Corrupt("delta candidate list not sorted"));
            }
            if view.candidates.iter().any(|c| c.0 >= self.num_cities) {
                return Err(SnapshotError::Corrupt("delta candidate city out of range"));
            }
            if view.candidates.binary_search(&view.home).is_err() {
                return Err(SnapshotError::Corrupt("delta home city is not a candidate"));
            }
            if view.gammas.iter().any(|g| !g.is_finite() || *g <= 0.0) {
                return Err(SnapshotError::Corrupt("delta gamma not finite-positive"));
            }
            if view.mean_counts.iter().any(|m| !m.is_finite() || *m < 0.0)
                || !view.mean_total.is_finite()
                || view.mean_total < 0.0
                || !view.gamma_total.is_finite()
                || view.gamma_total <= 0.0
            {
                return Err(SnapshotError::Corrupt("delta mean counts not finite-nonnegative"));
            }
        }
        if delta.venue_cities.len() != delta.venue_ids.len()
            || delta.venue_cities.len() != delta.venue_weights.len()
        {
            return Err(SnapshotError::Corrupt("delta venue columns misaligned"));
        }
        let keys = delta.venue_cities.iter().zip(&delta.venue_ids);
        if keys.clone().any(|(&l, &v)| l >= self.num_cities || v >= self.num_venues) {
            return Err(SnapshotError::Corrupt("delta venue cell out of range"));
        }
        let mut prev: Option<(u32, u32)> = None;
        for (&l, &v) in keys {
            if prev.is_some_and(|p| p >= (l, v)) {
                return Err(SnapshotError::Corrupt("delta venue cells not sorted-unique"));
            }
            prev = Some((l, v));
        }
        if delta.venue_weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(SnapshotError::Corrupt("delta venue weight not finite-nonnegative"));
        }
        // Slab-limit checks up front too, so a failure below cannot leave
        // one arena mutated and the other not.
        if self.venues.num_entries() as u64 + delta.venue_ids.len() as u64 > u32::MAX as u64 {
            return Err(SnapshotError::TooLarge("venue count slab exceeds u32::MAX entries"));
        }
        self.users.extend_from(&delta.users)?;
        self.venues.apply_sorted_weights(
            &delta.venue_cities,
            &delta.venue_ids,
            &delta.venue_weights,
        )
    }

    /// Decodes an artifact produced by [`Self::try_encode`]. This is the
    /// *copying* path — the same parser as [`Self::open_mapped`], but
    /// every slab is copied to owned memory.
    pub fn decode(buf: Bytes) -> Result<Self, SnapshotError> {
        Self::thaw_v5(buf.as_slice(), None, Integrity::Full)
    }
}

/// Fails with [`SnapshotError::Truncated`] when `buf` holds fewer than `n`
/// bytes; declared sizes are computed in `u64` and converted checked, so a
/// hostile header cannot wrap the byte count on 32-bit targets.
fn need64(buf: &Bytes, n: u64) -> Result<(), SnapshotError> {
    let n = usize::try_from(n).map_err(|_| SnapshotError::Overflow("declared payload size"))?;
    if buf.remaining() < n {
        Err(SnapshotError::Truncated)
    } else {
        Ok(())
    }
}

/// Reads a length-validated offset table: starts at 0, is non-decreasing,
/// and ends exactly at `nnz`.
fn get_offsets(buf: &mut Bytes, rows: usize, nnz: u32) -> Result<Vec<u32>, SnapshotError> {
    need64(buf, (rows as u64 + 1) * 4)?;
    let offsets: Vec<u32> = (0..=rows).map(|_| buf.get_u32_le()).collect();
    check_offset_table(&offsets, nnz)?;
    Ok(offsets)
}

/// The shared offset-table invariant: starts at 0, non-decreasing, ends
/// exactly at `nnz`. Same checks (and error strings) for artifact slabs
/// and delta records alike.
fn check_offset_table(offsets: &[u32], nnz: u32) -> Result<(), SnapshotError> {
    if offsets.is_empty() || offsets[0] != 0 || offsets[offsets.len() - 1] != nnz {
        return Err(SnapshotError::Corrupt("offset table does not span its slab"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("offset table not monotone"));
    }
    Ok(())
}

// --- v5: the section-table format ---------------------------------------
//
// Byte map (all little-endian, fixed-width):
//
//   0        magic "MLPS", version, variant, noisy flag, 7 × f64 scalars
//   64       num_cities, num_venues, gaz_fingerprint, n_users, user_nnz,
//            venue_nnz, section_count
//   96       section table: 13 × 32-byte entries
//            { kind u32, pad, offset u64, len u64, crc32, pad }
//   512      crc32 over bytes [0, 512)
//   516      zero padding
//   576      sections, each 64-byte aligned, in table order; DELTAS last
//            (a u32 record count, always zero), ending exactly at the
//            file's end
//
// Fixed alignment plus per-section CRCs is what lets a mapped open
// reinterpret every slab in place: validate the header, checksum the
// ranges, and borrow.

pub(crate) const V5_PRELUDE_LEN: usize = 96;
const V5_ENTRY_LEN: usize = 32;
pub(crate) const V5_HEADER_LEN: usize = 512;
pub(crate) const V5_DATA_START: usize = 576;
const V5_ALIGN: u64 = 64;
pub(crate) const V5_NUM_SECTIONS: usize = 13;
/// The final section: a `u32` record count, always zero — committed
/// deltas live in the sidecar WAL, never in an artifact.
const V5_DELTAS_LEN: u64 = 4;

/// Section names in table order (a section's `kind` tag is its 1-based
/// index here).
pub const V5_SECTION_NAMES: [&str; V5_NUM_SECTIONS] = [
    "venue_probs",
    "user_offsets",
    "user_candidates",
    "user_gammas",
    "user_mean_counts",
    "user_mean_totals",
    "user_gamma_totals",
    "user_homes",
    "venue_offsets",
    "venue_ids",
    "venue_counts",
    "venue_city_totals",
    "deltas",
];

#[inline]
fn v5_align(x: u64) -> u64 {
    (x + (V5_ALIGN - 1)) & !(V5_ALIGN - 1)
}

/// Byte lengths of the thirteen sections: twelve derived from the
/// prelude counts, then the final record count.
fn v5_section_lens(
    n: u64,
    nnz: u64,
    cities: u64,
    n_probs: u64,
    vnz: u64,
) -> [u64; V5_NUM_SECTIONS] {
    [
        n_probs * 8,
        (n + 1) * 4,
        nnz * 4,
        nnz * 8,
        nnz * 8,
        n * 8,
        n * 8,
        n * 4,
        (cities + 1) * 4,
        vnz * 4,
        vnz * 8,
        cities * 8,
        V5_DELTAS_LEN,
    ]
}

/// A cursor writing fixed-width little-endian values into a section of a
/// pre-sized buffer.
struct SectionWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> SectionWriter<'a> {
    fn new(buf: &'a mut [u8], offset: u64) -> Self {
        Self { buf, pos: offset as usize }
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }

    #[inline]
    fn f64(&mut self, v: f64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }
}

#[inline]
fn u32_at(s: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([s[off], s[off + 1], s[off + 2], s[off + 3]])
}

#[inline]
fn u64_at(s: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(s[off..off + 8].try_into().unwrap())
}

#[inline]
fn f64_at(s: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(s[off..off + 8].try_into().unwrap())
}

/// A validated v5 header: the prelude fields plus the section table as
/// `(offset, len, crc)` triples in table order.
struct V5Header {
    variant: Variant,
    count_noisy_assignments: bool,
    tau: f64,
    delta: f64,
    rho_f: f64,
    rho_t: f64,
    power_law: PowerLaw,
    follow_prob: f64,
    num_cities: u32,
    num_venues: u32,
    gaz_fingerprint: u64,
    n_users: u32,
    user_nnz: u32,
    venue_nnz: u32,
    sections: [(u64, u64, u32); V5_NUM_SECTIONS],
}

/// How much of a v5 artifact to verify before trusting it — the
/// mapped-open policy knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Integrity {
    /// Verify the header CRC and every section CRC before thawing: any
    /// bit flip anywhere in the file is rejected typed. Costs one full
    /// read pass over the artifact. The default.
    #[default]
    Full,
    /// Verify the header CRC, the section-table geometry, and every
    /// structural invariant indexing relies on (offset tables, id
    /// ranges, sort order) — but skip checksumming the section payloads.
    /// Still memory-safe and panic-free on arbitrary input; what it
    /// gives up is *detection*: corruption that keeps the structure
    /// valid (e.g. a flipped probability bit) thaws silently. In
    /// exchange, opening a mapped artifact faults in only its structure
    /// — the float payloads (most of the file) stay untouched until
    /// served. For trusted local files, e.g. a checkpoint this process
    /// wrote moments ago.
    Structural,
}

/// Validates a v5 header against `s`: magic, version, header CRC, tag
/// bytes, section-table geometry (kind tags, 64-byte alignment,
/// contiguity, the fixed section lengths implied by the prelude counts,
/// bounds, exact file length) and — under [`Integrity::Full`] — every
/// section CRC. After this returns, each section's byte range can be
/// reinterpreted or copied without further bounds checks. Work is
/// O(header) + one CRC pass over the file (Full) or O(header)
/// (Structural).
fn parse_v5(s: &[u8], integrity: Integrity) -> Result<V5Header, SnapshotError> {
    // Identity first, so a short foreign or old-format file reports what
    // it is rather than `Truncated`.
    if s.len() < 6 {
        return Err(SnapshotError::Truncated);
    }
    let magic = u32_at(s, 0);
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([s[4], s[5]]);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if s.len() < V5_DATA_START {
        return Err(SnapshotError::Truncated);
    }
    if crc32(&s[..V5_HEADER_LEN]) != u32_at(s, V5_HEADER_LEN) {
        return Err(SnapshotError::Corrupt("snapshot header checksum mismatch"));
    }
    let variant = match s[6] {
        0 => Variant::FollowingOnly,
        1 => Variant::TweetingOnly,
        2 => Variant::Full,
        t => return Err(SnapshotError::BadTag(t)),
    };
    let count_noisy_assignments = match s[7] {
        0 => false,
        1 => true,
        t => return Err(SnapshotError::BadTag(t)),
    };
    let num_cities = u32_at(s, 64);
    let num_venues = u32_at(s, 68);
    let gaz_fingerprint = u64_at(s, 72);
    let n_users = u32_at(s, 80);
    let user_nnz = u32_at(s, 84);
    let venue_nnz = u32_at(s, 88);
    if u32_at(s, 92) != V5_NUM_SECTIONS as u32 {
        return Err(SnapshotError::Corrupt("section count mismatch"));
    }

    let lens = v5_section_lens(
        n_users as u64,
        user_nnz as u64,
        num_cities as u64,
        num_venues as u64,
        venue_nnz as u64,
    );
    let mut sections = [(0u64, 0u64, 0u32); V5_NUM_SECTIONS];
    let mut expected = V5_DATA_START as u64;
    for (i, entry) in sections.iter_mut().enumerate() {
        let e = V5_PRELUDE_LEN + i * V5_ENTRY_LEN;
        if u32_at(s, e) != i as u32 + 1 {
            return Err(SnapshotError::Corrupt("section table kind mismatch"));
        }
        let off = u64_at(s, e + 8);
        let len = u64_at(s, e + 16);
        if !off.is_multiple_of(V5_ALIGN) {
            return Err(SnapshotError::Corrupt("section offset misaligned"));
        }
        if off != expected {
            return Err(SnapshotError::Corrupt("section table not contiguous"));
        }
        if i < V5_NUM_SECTIONS - 1 && len != lens[i] {
            return Err(SnapshotError::Corrupt("section length mismatch"));
        }
        let end = off.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > s.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        *entry = (off, len, u32_at(s, e + 24));
        expected = v5_align(end);
    }
    let (d_off, d_len, _) = sections[V5_NUM_SECTIONS - 1];
    // The final section always carries at least its u32 record count.
    if d_len < V5_DELTAS_LEN {
        return Err(SnapshotError::Truncated);
    }
    if d_off + d_len != s.len() as u64 {
        return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
    }
    if integrity == Integrity::Full {
        for &(off, len, crc) in &sections {
            if crc32(&s[off as usize..(off + len) as usize]) != crc {
                return Err(SnapshotError::Corrupt("section checksum mismatch"));
            }
        }
    }
    if u32_at(s, d_off as usize) != 0 {
        return Err(SnapshotError::Corrupt(
            "artifact holds delta records; re-encode it with an older build's checkpoint",
        ));
    }
    if d_len != V5_DELTAS_LEN {
        return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
    }

    Ok(V5Header {
        variant,
        count_noisy_assignments,
        tau: f64_at(s, 8),
        delta: f64_at(s, 16),
        rho_f: f64_at(s, 24),
        rho_t: f64_at(s, 32),
        power_law: PowerLaw { alpha: f64_at(s, 40), beta: f64_at(s, 48) },
        follow_prob: f64_at(s, 56),
        num_cities,
        num_venues,
        gaz_fingerprint,
        n_users,
        user_nnz,
        venue_nnz,
        sections,
    })
}

/// Section `i`'s byte range (bounds already proven by [`parse_v5`]).
fn section_bytes<'a>(s: &'a [u8], h: &V5Header, i: usize) -> &'a [u8] {
    let (off, len, _) = h.sections[i];
    &s[off as usize..(off + len) as usize]
}

fn read_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
}

fn read_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// The eleven arena slabs of a v5 artifact, view or owned, pre-arena.
/// Validation runs on these *before* `Csr` construction so hostile
/// artifacts surface typed errors rather than tripping arena
/// debug-assertions.
struct V5Slabs {
    user_offsets: Slab<u32>,
    user_candidates: Slab<CityId>,
    user_gammas: Slab<f64>,
    user_mean_counts: Slab<f64>,
    user_mean_totals: Slab<f64>,
    user_gamma_totals: Slab<f64>,
    user_homes: Slab<CityId>,
    venue_offsets: Slab<u32>,
    venue_ids: Slab<u32>,
    venue_counts: Slab<f64>,
    venue_city_totals: Slab<f64>,
}

impl V5Slabs {
    /// Borrows every slab zero-copy from `s`. Fails (cleanly, no UB) when
    /// any section is misaligned for its element type in memory — the
    /// caller falls back to [`V5Slabs::copied`].
    fn mapped(
        s: &[u8],
        h: &V5Header,
        keep: &Arc<dyn Any + Send + Sync>,
    ) -> Result<V5Slabs, &'static str> {
        // Safety: every section range lies inside `s`, which the caller
        // guarantees is the allocation owned by `keep`; each slab holds
        // the Arc, so the memory outlives every view.
        unsafe {
            Ok(V5Slabs {
                user_offsets: Slab::view(section_bytes(s, h, 1), Arc::clone(keep))?,
                user_candidates: Slab::view(section_bytes(s, h, 2), Arc::clone(keep))?,
                user_gammas: Slab::view(section_bytes(s, h, 3), Arc::clone(keep))?,
                user_mean_counts: Slab::view(section_bytes(s, h, 4), Arc::clone(keep))?,
                user_mean_totals: Slab::view(section_bytes(s, h, 5), Arc::clone(keep))?,
                user_gamma_totals: Slab::view(section_bytes(s, h, 6), Arc::clone(keep))?,
                user_homes: Slab::view(section_bytes(s, h, 7), Arc::clone(keep))?,
                venue_offsets: Slab::view(section_bytes(s, h, 8), Arc::clone(keep))?,
                venue_ids: Slab::view(section_bytes(s, h, 9), Arc::clone(keep))?,
                venue_counts: Slab::view(section_bytes(s, h, 10), Arc::clone(keep))?,
                venue_city_totals: Slab::view(section_bytes(s, h, 11), Arc::clone(keep))?,
            })
        }
    }

    /// Copies every slab into owned memory — the fallback (and the plain
    /// [`PosteriorSnapshot::decode`]) path.
    fn copied(s: &[u8], h: &V5Header) -> V5Slabs {
        V5Slabs {
            user_offsets: Slab::from_vec(read_u32s(section_bytes(s, h, 1))),
            user_candidates: Slab::from_vec(
                read_u32s(section_bytes(s, h, 2)).into_iter().map(CityId).collect(),
            ),
            user_gammas: Slab::from_vec(read_f64s(section_bytes(s, h, 3))),
            user_mean_counts: Slab::from_vec(read_f64s(section_bytes(s, h, 4))),
            user_mean_totals: Slab::from_vec(read_f64s(section_bytes(s, h, 5))),
            user_gamma_totals: Slab::from_vec(read_f64s(section_bytes(s, h, 6))),
            user_homes: Slab::from_vec(
                read_u32s(section_bytes(s, h, 7)).into_iter().map(CityId).collect(),
            ),
            venue_offsets: Slab::from_vec(read_u32s(section_bytes(s, h, 8))),
            venue_ids: Slab::from_vec(read_u32s(section_bytes(s, h, 9))),
            venue_counts: Slab::from_vec(read_f64s(section_bytes(s, h, 10))),
            venue_city_totals: Slab::from_vec(read_f64s(section_bytes(s, h, 11))),
        }
    }

    /// The structural invariants indexing relies on: offset tables span
    /// their slabs, ids are in range, rows are sorted, and every home is
    /// one of its user's candidates.
    fn validate(&self, h: &V5Header) -> Result<(), SnapshotError> {
        let offsets = self.user_offsets.as_slice();
        check_offset_table(offsets, h.user_nnz)?;
        let candidates = self.user_candidates.as_slice();
        if candidates.iter().any(|c| c.0 >= h.num_cities) {
            return Err(SnapshotError::Corrupt("candidate city out of range"));
        }
        let homes = self.user_homes.as_slice();
        for u in 0..h.n_users as usize {
            let row = &candidates[offsets[u] as usize..offsets[u + 1] as usize];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotError::Corrupt("candidate list not sorted"));
            }
            if row.binary_search(&homes[u]).is_err() {
                return Err(SnapshotError::Corrupt("home city is not a candidate"));
            }
        }
        let voffsets = self.venue_offsets.as_slice();
        check_offset_table(voffsets, h.venue_nnz)?;
        let ids = self.venue_ids.as_slice();
        if ids.iter().any(|&v| v >= h.num_venues) {
            return Err(SnapshotError::Corrupt("venue id out of range"));
        }
        for l in 0..h.num_cities as usize {
            let row = &ids[voffsets[l] as usize..voffsets[l + 1] as usize];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotError::Corrupt("venue count row not sorted"));
            }
        }
        Ok(())
    }
}

impl PosteriorSnapshot {
    /// Thaws a v5 artifact from its full byte range. With `keep` — an
    /// owner of the bytes, e.g. a mapped file — the slabs are borrowed
    /// zero-copy when byte order and alignment allow; without it, or on
    /// any misalignment, every slab is copied to owned memory.
    fn thaw_v5(
        s: &[u8],
        keep: Option<Arc<dyn Any + Send + Sync>>,
        integrity: Integrity,
    ) -> Result<Self, SnapshotError> {
        let h = parse_v5(s, integrity)?;
        // The on-disk representation is little-endian; on a big-endian
        // target reinterpreting would read garbage, so copy-decode there.
        let keep = if cfg!(target_endian = "little") { keep } else { None };
        let slabs = match &keep {
            Some(owner) => match V5Slabs::mapped(s, &h, owner) {
                Ok(slabs) => slabs,
                Err(_) => V5Slabs::copied(s, &h),
            },
            None => V5Slabs::copied(s, &h),
        };
        slabs.validate(&h)?;
        let users = UserArena::from_slabs(
            slabs.user_offsets,
            slabs.user_candidates,
            slabs.user_gammas,
            slabs.user_mean_counts,
            slabs.user_mean_totals,
            slabs.user_gamma_totals,
            slabs.user_homes,
        );
        let venues = VenueArena::from_slabs(
            slabs.venue_offsets,
            slabs.venue_ids,
            slabs.venue_counts,
            slabs.venue_city_totals,
        );
        Ok(Self {
            variant: h.variant,
            count_noisy_assignments: h.count_noisy_assignments,
            tau: h.tau,
            delta: h.delta,
            rho_f: h.rho_f,
            rho_t: h.rho_t,
            power_law: h.power_law,
            follow_prob: h.follow_prob,
            // A plain Vec field, gazetteer-sized — always copied.
            venue_probs: read_f64s(section_bytes(s, &h, 0)),
            num_cities: h.num_cities,
            num_venues: h.num_venues,
            gaz_fingerprint: h.gaz_fingerprint,
            users,
            venues,
        })
    }

    /// Opens an artifact zero-copy from a mapped file: validate header
    /// and section CRCs, then borrow every slab in place — no slab-sized
    /// allocation, no copy, O(1) in the user count apart from the CRC
    /// pass and structural scan. Misaligned bytes or a big-endian target
    /// fall back to copying the slabs inside the same thaw, so callers
    /// observe identical snapshots on every path.
    pub fn open_mapped(map: &Arc<mmap_lite::Mmap>) -> Result<Self, SnapshotError> {
        Self::open_mapped_with(map, Integrity::Full)
    }

    /// [`Self::open_mapped`] with an explicit verification policy.
    /// [`Integrity::Structural`] skips the section-CRC pass, so the open
    /// touches only the artifact's structure — O(offsets + ids), not
    /// O(file) — at the cost of not detecting payload corruption; see
    /// [`Integrity`] for the exact trade.
    pub fn open_mapped_with(
        map: &Arc<mmap_lite::Mmap>,
        integrity: Integrity,
    ) -> Result<Self, SnapshotError> {
        let s = map.as_slice();
        if integrity == Integrity::Full {
            map.advise(mmap_lite::Advice::Sequential);
        }
        let keep: Arc<dyn Any + Send + Sync> = Arc::<mmap_lite::Mmap>::clone(map);
        let snap = Self::thaw_v5(s, Some(keep), integrity)?;
        map.advise(mmap_lite::Advice::Random);
        Ok(snap)
    }
}

/// Per-section metadata surfaced by [`inspect_artifact`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Human name of the section kind.
    pub name: &'static str,
    /// Absolute byte offset (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 over the payload.
    pub crc: u32,
}

/// A validated summary of an artifact — what `mlp inspect` prints.
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Format version (always [`CURRENT_ARTIFACT_VERSION`]).
    pub version: u16,
    /// Model variant tag.
    pub variant: Variant,
    /// Training users in the base arenas.
    pub num_users: u32,
    /// Gazetteer shape.
    pub num_cities: u32,
    /// Venue vocabulary size.
    pub num_venues: u32,
    /// Candidate-slab entries.
    pub user_nnz: u32,
    /// Venue count-slab entries.
    pub venue_nnz: u32,
    /// Training-gazetteer fingerprint.
    pub gaz_fingerprint: u64,
    /// Whole-artifact size in bytes.
    pub total_bytes: u64,
    /// The v5 section table.
    pub sections: Vec<SectionInfo>,
}

/// The format version this build writes ([`PosteriorSnapshot::try_encode`]).
pub const CURRENT_ARTIFACT_VERSION: u16 = VERSION;

/// Summarises an artifact header without materializing the model: read
/// from the section table alone (O(header) plus the CRC pass).
pub fn inspect_artifact(s: &[u8]) -> Result<ArtifactInfo, SnapshotError> {
    let h = parse_v5(s, Integrity::Full)?;
    Ok(ArtifactInfo {
        version: VERSION,
        variant: h.variant,
        num_users: h.n_users,
        num_cities: h.num_cities,
        num_venues: h.num_venues,
        user_nnz: h.user_nnz,
        venue_nnz: h.venue_nnz,
        gaz_fingerprint: h.gaz_fingerprint,
        total_bytes: s.len() as u64,
        sections: h
            .sections
            .iter()
            .zip(V5_SECTION_NAMES)
            .map(|(&(offset, len, crc), name)| SectionInfo { name, offset, len, crc })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlpConfig;
    use crate::random_models::RandomModels;
    use mlp_gazetteer::Gazetteer;
    use mlp_social::{Adjacency, Generator, GeneratorConfig};

    fn trained_snapshot(users: usize, seed: u64) -> PosteriorSnapshot {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
                .generate();
        let config = MlpConfig { seed, ..Default::default() };
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let mut sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        for _ in 0..6 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        PosteriorSnapshot::freeze(&sampler)
    }

    #[test]
    fn freeze_captures_the_trained_state() {
        let snap = trained_snapshot(120, 41);
        assert_eq!(snap.num_users(), 120);
        assert_eq!(snap.num_cities as usize, Gazetteer::us_cities().num_cities());
        for u in 0..snap.num_users() {
            let view = snap.users.user(UserId(u as u32));
            assert_eq!(view.candidates.len(), view.gammas.len());
            assert_eq!(view.candidates.len(), view.mean_counts.len());
            assert!((view.mean_total - view.mean_counts.iter().sum::<f64>()).abs() < 1e-9);
            assert!(view.candidates.contains(&view.home));
        }
        // φ totals match their rows.
        for l in 0..snap.venues.num_cities() {
            let city = CityId(l as u32);
            let sum: f64 = snap.venues.row(city).map(|(_, c)| c).sum();
            assert_eq!(sum, snap.venues.city_total(city));
        }
        // Venue noise sums to one (it is T_R, a distribution).
        let total: f64 = snap.venue_probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let snap = trained_snapshot(100, 43);
        let decoded = PosteriorSnapshot::decode(snap.try_encode().unwrap()).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let snap = trained_snapshot(20, 47);
        let mut raw = snap.try_encode().unwrap().to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(
            PosteriorSnapshot::decode(Bytes::from(raw)).unwrap_err(),
            SnapshotError::BadMagic(_)
        ));
        // A short foreign file is named for what it is, not `Truncated`.
        assert!(matches!(
            PosteriorSnapshot::decode(Bytes::from(b"GIF89a".to_vec())).unwrap_err(),
            SnapshotError::BadMagic(_)
        ));
        let mut raw = snap.try_encode().unwrap().to_vec();
        raw[4] = 0xFE;
        assert!(matches!(
            PosteriorSnapshot::decode(Bytes::from(raw)).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));
    }

    /// Future versions stay rejected with the typed error.
    #[test]
    fn v6_snapshot_rejected() {
        let snap = trained_snapshot(15, 49);
        let mut raw = snap.try_encode().unwrap().to_vec();
        raw[4..6].copy_from_slice(&6u16.to_le_bytes());
        assert_eq!(
            PosteriorSnapshot::decode(Bytes::from(raw)).unwrap_err(),
            SnapshotError::UnsupportedVersion(6)
        );
    }

    /// A delta applies exactly — appended rows and `φ` increments land
    /// where they should — and structurally invalid deltas (home outside
    /// the candidates, negative venue weights) fail typed before the
    /// state mutates.
    #[test]
    fn deltas_apply_exactly_and_validate_before_mutating() {
        let base = trained_snapshot(30, 50);
        let mut delta = SnapshotDelta::new(base.num_users() as u32);
        delta.push_user(UserPosterior {
            candidates: vec![CityId(1), CityId(5)],
            gammas: vec![0.2, 0.2],
            mean_counts: vec![3.0, 1.0],
            mean_total: 4.0,
            gamma_total: 0.4,
            home: CityId(1),
        });
        delta.add_venue_weights(&[(CityId(1), VenueId(0), 1.5), (CityId(5), VenueId(2), 0.5)]);

        let mut applied = base.clone();
        applied.apply_delta(&delta).unwrap();
        assert_eq!(applied.num_users(), base.num_users() + 1);
        let added = applied.users.user(UserId(base.num_users() as u32));
        assert_eq!(added.home, CityId(1));
        assert_eq!(added.mean_counts, &[3.0, 1.0]);
        assert_eq!(
            applied.venue_count(CityId(1), VenueId(0)),
            base.venue_count(CityId(1), VenueId(0)) + 1.5
        );
        assert_eq!(applied.venues.city_total(CityId(5)), base.venues.city_total(CityId(5)) + 0.5);
        // The folded artifact round-trips the applied posterior.
        assert_eq!(PosteriorSnapshot::decode(applied.try_encode().unwrap()).unwrap(), applied);

        // Home outside candidates: typed, pre-mutation.
        let mut bad = SnapshotDelta::new(base.num_users() as u32);
        bad.push_user(UserPosterior {
            candidates: vec![CityId(2)],
            gammas: vec![0.2],
            mean_counts: vec![1.0],
            mean_total: 1.0,
            gamma_total: 0.2,
            home: CityId(3),
        });
        let mut target = base.clone();
        assert_eq!(
            target.apply_delta(&bad).unwrap_err(),
            SnapshotError::Corrupt("delta home city is not a candidate")
        );
        assert_eq!(target, base, "failed apply must not mutate");

        // Negative venue weight: rejected, and again nothing moves.
        let mut negative = SnapshotDelta::new(base.num_users() as u32);
        negative.add_venue_weights(&[(CityId(0), VenueId(0), -1.0)]);
        assert_eq!(
            target.apply_delta(&negative).unwrap_err(),
            SnapshotError::Corrupt("delta venue weight not finite-nonnegative")
        );
        assert_eq!(target, base, "failed apply must not mutate");
    }

    /// An artifact whose final section holds records (what an older
    /// build's `encode_artifact` wrote) fails typed on every read path —
    /// the copying decode, both mapped integrity modes and the engine's
    /// file open — whether the count alone is non-zero or a whole framed
    /// record follows it. Every checksum is re-sealed, so the record
    /// count is what the open rejects.
    #[test]
    fn artifacts_holding_delta_records_fail_typed() {
        let gaz = Gazetteer::us_cities();
        let base = trained_snapshot(20, 54);
        let raw = base.try_encode().unwrap().to_vec();
        let e = V5_PRELUDE_LEN + (V5_NUM_SECTIONS - 1) * V5_ENTRY_LEN;
        let d_off = u64_at(&raw, e + 8) as usize;
        let with_section = |section: &[u8]| {
            let mut out = raw[..d_off].to_vec();
            out.extend_from_slice(section);
            out[e + 16..e + 24].copy_from_slice(&(section.len() as u64).to_le_bytes());
            out[e + 24..e + 28].copy_from_slice(&crc32(section).to_le_bytes());
            let hcrc = crc32(&out[..V5_HEADER_LEN]);
            out[V5_HEADER_LEN..V5_HEADER_LEN + 4].copy_from_slice(&hcrc.to_le_bytes());
            out
        };
        let mut delta = SnapshotDelta::new(base.num_users() as u32);
        delta.push_user(UserPosterior {
            candidates: vec![CityId(0), CityId(4)],
            gammas: vec![0.3, 0.1],
            mean_counts: vec![2.0, 1.0],
            mean_total: 3.0,
            gamma_total: 0.4,
            home: CityId(4),
        });
        let payload = delta.encode_record_payload().unwrap();
        let mut framed = 1u32.to_le_bytes().to_vec();
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&crc32(payload.as_slice()).to_le_bytes());
        framed.extend_from_slice(payload.as_slice());

        let want = SnapshotError::Corrupt(
            "artifact holds delta records; re-encode it with an older build's checkpoint",
        );
        let dir = std::env::temp_dir().join(format!("mlp_snap_records_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (tag, bytes) in
            [("count", with_section(&7u32.to_le_bytes())), ("record", with_section(&framed))]
        {
            let copied = PosteriorSnapshot::decode(Bytes::from(bytes.clone()));
            assert_eq!(copied.unwrap_err(), want, "{tag}: decode");
            let path = dir.join(format!("{tag}.mlps"));
            std::fs::write(&path, &bytes).unwrap();
            let map = Arc::new(mmap_lite::Mmap::open(&path).unwrap());
            for integrity in [Integrity::Full, Integrity::Structural] {
                let mapped = PosteriorSnapshot::open_mapped_with(&map, integrity);
                assert_eq!(mapped.unwrap_err(), want, "{tag}: open_mapped_with {integrity:?}");
            }
            let engine = crate::engine::ServingEngine::builder(&gaz).from_artifact_file(&path);
            assert!(
                matches!(engine, Err(crate::engine::EngineError::Snapshot(ref e)) if *e == want),
                "{tag}: from_artifact_file"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// Bytes past the end of a well-formed artifact mean a stale
    /// in-place overwrite or mangled concatenation — rejected, not
    /// silently ignored.
    #[test]
    fn trailing_bytes_are_rejected() {
        let snap = trained_snapshot(10, 52);
        let mut raw = snap.try_encode().unwrap().to_vec();
        raw.push(0);
        assert_eq!(
            PosteriorSnapshot::decode(Bytes::from(raw)).unwrap_err(),
            SnapshotError::Corrupt("trailing bytes after snapshot")
        );
    }

    /// A delta that does not start where the snapshot ends is rejected.
    #[test]
    fn delta_sequencing_is_enforced() {
        let base = trained_snapshot(20, 51);
        let wrong_base = SnapshotDelta::new(base.num_users() as u32 + 7);
        let mut with_user = wrong_base.clone();
        with_user.push_user(UserPosterior {
            candidates: vec![CityId(0)],
            gammas: vec![0.2],
            mean_counts: vec![0.0],
            mean_total: 0.0,
            gamma_total: 0.2,
            home: CityId(0),
        });
        let mut target = base.clone();
        assert_eq!(
            target.apply_delta(&with_user).unwrap_err(),
            SnapshotError::Corrupt("delta base user count mismatch")
        );
        assert_eq!(target, base, "failed apply must not mutate");
    }

    /// Legacy (v1–v4) artifacts fail with the typed version error on
    /// every read path — the copying decode, the mapped open and the
    /// engine's file open — whether the file is a short prefix or a whole
    /// artifact carrying the old version number. They never panic and
    /// never decode as garbage slabs.
    #[test]
    fn legacy_snapshot_versions_fail_with_unsupported_version() {
        let gaz = Gazetteer::us_cities();
        let full = trained_snapshot(10, 55).try_encode().unwrap().to_vec();
        let dir = std::env::temp_dir().join(format!("mlp_snap_legacy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for version in 1..=4u16 {
            // Magic "MLPS" + the version, then a payload tail that must
            // never be interpreted.
            let mut prefix = vec![0x53, 0x50, 0x4C, 0x4D];
            prefix.extend_from_slice(&version.to_le_bytes());
            prefix.extend_from_slice(&[0x02, 0x01, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]);
            let mut relabeled = full.clone();
            relabeled[4..6].copy_from_slice(&version.to_le_bytes());
            for (tag, bytes) in [("prefix", prefix), ("whole", relabeled)] {
                let want = SnapshotError::UnsupportedVersion(version);
                let copied = PosteriorSnapshot::decode(Bytes::from(bytes.clone()));
                assert_eq!(copied.unwrap_err(), want, "v{version} {tag}: decode");
                let path = dir.join(format!("v{version}_{tag}.mlps"));
                std::fs::write(&path, &bytes).unwrap();
                let map = Arc::new(mmap_lite::Mmap::open(&path).unwrap());
                let mapped = PosteriorSnapshot::open_mapped(&map);
                assert_eq!(mapped.unwrap_err(), want, "v{version} {tag}: open_mapped");
                let engine = crate::engine::ServingEngine::builder(&gaz).from_artifact_file(&path);
                assert!(
                    matches!(engine, Err(crate::engine::EngineError::Snapshot(ref e)) if *e == want),
                    "v{version} {tag}: from_artifact_file"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncation_fails_loudly_at_every_cut() {
        let snap = trained_snapshot(15, 53);
        let bytes = snap.try_encode().unwrap();
        for cut in [0usize, 3, 8, 40, bytes.len() / 3, bytes.len() - 1] {
            let err = PosteriorSnapshot::decode(bytes.slice(..cut)).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The CRC-32/ISO-HDLC check value, e.g. RFC 3720 appendix B.4.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn v5_sections_are_aligned_contiguous_and_checksummed() {
        let snap = trained_snapshot(20, 56);
        let raw = snap.try_encode().unwrap();
        let info = inspect_artifact(raw.as_slice()).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.num_users as usize, snap.num_users());
        assert_eq!(info.total_bytes as usize, raw.len());
        assert_eq!(info.sections.len(), V5_NUM_SECTIONS);
        let mut cursor = V5_DATA_START as u64;
        for (s, name) in info.sections.iter().zip(V5_SECTION_NAMES) {
            assert_eq!(s.name, name);
            assert_eq!(s.offset % V5_ALIGN, 0, "{name} misaligned");
            assert_eq!(s.offset, cursor, "{name} not contiguous");
            let body = &raw.as_slice()[s.offset as usize..(s.offset + s.len) as usize];
            assert_eq!(crc32(body), s.crc, "{name} checksum");
            cursor = v5_align(s.offset + s.len);
        }
        let last = info.sections.last().unwrap();
        assert_eq!((last.offset + last.len) as usize, raw.len(), "deltas end at file end");
        assert_eq!(last.len, V5_DELTAS_LEN, "the final section is the record count alone");
        assert_eq!(u32_at(raw.as_slice(), last.offset as usize), 0, "an artifact holds no records");
    }

    #[test]
    fn mapped_open_is_zero_copy_and_identical() {
        let dir = std::env::temp_dir().join(format!("mlp_snap_map_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = trained_snapshot(30, 57);

        let v5_path = dir.join("model.mlps");
        std::fs::write(&v5_path, snap.try_encode().unwrap()).unwrap();
        let map = Arc::new(mmap_lite::Mmap::open(&v5_path).unwrap());
        let mapped = PosteriorSnapshot::open_mapped(&map).unwrap();
        assert_eq!(mapped, snap, "mapped thaw must be value-identical");
        assert_eq!(mapped.is_zero_copy(), map.is_mapped(), "v5 slabs borrow the map");
        assert_eq!(
            mapped.try_encode().unwrap().as_slice(),
            snap.try_encode().unwrap().as_slice(),
            "re-encode from mapped slabs is byte-identical"
        );

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn frozen_noise_matches_training_bit_for_bit() {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: 80, seed: 59, ..Default::default() })
                .generate();
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let probs: Vec<f64> =
            (0..gaz.num_venues()).map(|v| random.venue_prob(VenueId(v as u32))).collect();
        let frozen = RandomModels::from_frozen(random.follow_prob(), probs);
        assert_eq!(frozen.follow_prob().to_bits(), random.follow_prob().to_bits());
        for v in 0..gaz.num_venues() as u32 {
            assert_eq!(
                frozen.venue_prob(VenueId(v)).to_bits(),
                random.venue_prob(VenueId(v)).to_bits(),
                "venue {v}"
            );
        }
    }
}
