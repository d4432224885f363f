//! Out-of-core training: sharded sampler state over a streamed corpus.
//!
//! The in-memory pipeline ([`crate::model::Mlp`]) holds the whole dataset,
//! the full assignment vectors, and the count arenas resident — ~3 GB at
//! the ROADMAP's million-user scale before the first sweep finishes. This
//! module trains from an on-disk chunked corpus
//! ([`mlp_social::stream::CorpusReader`]) instead, with the paper's model
//! state *sharded by user partition*:
//!
//! * **Resident globally** (the part that must be shared): the
//!   [`Candidacy`] (built chunk by chunk through the in-memory path's
//!   builder), the collapsed user counts `ϕ` (a flat `u32` arena in its
//!   slot space) and their post-burn-in `u64` sums, and the venue
//!   counts `φ` ([`crate::VenueCountStore`]). This is O(users ·
//!   mean-candidates + support) — the irreducible model state.
//! * **Resident per shard, one shard at a time**: the shard's corpus
//!   chunks (re-streamed from disk every super-sweep) and its assignment
//!   vectors (μ/x/y/ν/z), spilled to scratch files between super-sweeps.
//!   Peak RSS is therefore bounded by shard size + global counts, not by
//!   the corpus.
//!
//! ## Sweep semantics (AD-LDA at super-sweep granularity)
//!
//! Training proceeds in *super-sweeps* of `reconcile_every` local sweeps.
//! At the start of a super-sweep the global `ϕ`/`φ` counts are frozen.
//! Each shard then runs its local sweeps — the shared sweep loop of
//! [`crate::kernel`], called chunk by chunk — against the frozen counts
//! plus its own `i32` deltas, the same shard counts the threaded sweep
//! ([`crate::parallel`]) uses. Its own updates are visible to it at once,
//! while other shards' same-super-sweep updates are stale until the
//! **count reconciliation**: the flat index-wise delta merge the threaded
//! sweep performs per sweep, here performed per shard per super-sweep.
//! `reconcile_every` trades staleness against merge/freeze traffic. This
//! driver owns the shard schedule, the RNG streams, the frozen copy and
//! the assignment spills.
//!
//! The rest of the chain's lifecycle is the in-memory sampler's, stage
//! for stage: each shard makes its initial draws with
//! `kernel::init_draws` and counts them with `Counts::add_assigned`,
//! chunk by chunk on its one init stream; the post-burn-in samples go
//! into the same `Accumulator`; and the freeze is the same
//! [`PosteriorSnapshot`] assembly, with the same home rule. Only the
//! sampling points differ: the posterior is accumulated at
//! reconciliation points (every super-sweep contributes one sample of
//! the fully-merged counts), i.e. the chain is *thinned* by
//! `reconcile_every` rather than sampled every sweep — same estimator,
//! fewer, less-correlated samples.
//!
//! The whole run is a pure function of `(gazetteer, corpus, config,
//! shards, reconcile_every)`: every RNG stream is derived from the seed,
//! the shard schedule is deterministic, and all reductions are integer.

use crate::candidacy::{Candidacy, CandidacyBuilder};
use crate::config::MlpConfig;
use crate::count_store::VenueSupport;
use crate::kernel::{self, InitScores, SamplerView};
use crate::model::Mlp;
use crate::parallel::chunk_ranges;
use crate::random_models::RandomModels;
use crate::snapshot::PosteriorSnapshot;
use crate::state::{Accumulator, Assignments, Counts, ShardCounts};
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_geo::KernelMatrix;
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::stream::{CorpusChunk, CorpusError, CorpusReader};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

// RNG stream phases for the sharded path (disjoint from the sampler's
// 0x9B5 init stream and the threaded sweep's 0xE… shard streams).
const PHASE_SHARD_INIT: u64 = 0x7000_0000_0000_0000;
const PHASE_SHARD_SWEEP: u64 = 0x6000_0000_0000_0000;

/// Knobs of the out-of-core training path.
#[derive(Debug, Clone)]
pub struct ShardedTrainConfig {
    /// User partitions. `1` delegates to the exact in-memory sequential
    /// driver (byte-identical to [`Mlp::run_with_snapshot`]).
    pub shards: usize,
    /// Local sweeps per shard between count reconciliations (K).
    pub reconcile_every: usize,
    /// Scratch directory for assignment spill files; defaults to
    /// `<corpus>/train-scratch`. Removed on successful completion.
    pub scratch_dir: Option<PathBuf>,
}

impl Default for ShardedTrainConfig {
    fn default() -> Self {
        Self { shards: 1, reconcile_every: 2, scratch_dir: None }
    }
}

/// Errors raised by out-of-core training.
#[derive(Debug)]
pub enum TrainError {
    /// The corpus directory failed to open or a chunk failed to decode.
    Corpus(CorpusError),
    /// Scratch-file I/O failed.
    Io(std::io::Error),
    /// Model-level validation failed (bad config, corpus/gazetteer shape
    /// mismatch).
    Model(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Corpus(e) => write!(f, "train corpus error: {e}"),
            TrainError::Io(e) => write!(f, "train scratch io error: {e}"),
            TrainError::Model(m) => write!(f, "train model error: {m}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CorpusError> for TrainError {
    fn from(e: CorpusError) -> Self {
        TrainError::Corpus(e)
    }
}

impl From<std::io::Error> for TrainError {
    fn from(e: std::io::Error) -> Self {
        TrainError::Io(e)
    }
}

/// Trains on an on-disk corpus and freezes the posterior.
///
/// * `shards == 1`: streams the chunks into one in-memory dataset and
///   delegates to the exact sequential driver — byte-identical output to
///   [`Mlp::run_with_snapshot`] on the same data, by construction.
/// * `shards >= 2`: the out-of-core sharded path described in the module
///   docs. Deterministic for a fixed `(seed, shards, reconcile_every)`.
pub fn train_corpus(
    gaz: &Gazetteer,
    corpus_dir: &Path,
    config: &MlpConfig,
    shard_cfg: &ShardedTrainConfig,
) -> Result<PosteriorSnapshot, TrainError> {
    config.validate().map_err(|e| TrainError::Model(e.to_string()))?;
    let reader = CorpusReader::open(corpus_dir)?;
    let manifest = reader.manifest();
    if manifest.num_cities as usize != gaz.num_cities()
        || manifest.num_venues as usize != gaz.num_venues()
    {
        return Err(TrainError::Model(format!(
            "corpus was generated against a {}-city/{}-venue gazetteer, got {}/{}",
            manifest.num_cities,
            manifest.num_venues,
            gaz.num_cities(),
            gaz.num_venues()
        )));
    }

    if config.gibbs_em && shard_cfg.shards > 1 {
        return Err(TrainError::Model(
            "gibbs_em is not supported by the sharded out-of-core trainer; \
             use shards=1 or disable gibbs_em"
                .into(),
        ));
    }

    if shard_cfg.shards <= 1 {
        // Path A: exact in-memory chain over the streamed-in dataset.
        let data = reader.read_all()?;
        let mlp = Mlp::new(gaz, &data.dataset, config.clone()).map_err(TrainError::Model)?;
        let (_, snapshot) = mlp.run_with_snapshot();
        return Ok(snapshot);
    }

    ShardedTrainer::build(gaz, &reader, config, shard_cfg)?.run()
}

// ---------------------------------------------------------------------------
// Per-shard assignments (spilled between super-sweeps)
// ---------------------------------------------------------------------------

/// One shard's assignment vectors, flat over its chunks in stream order.
#[derive(Default)]
struct ShardAssignments {
    mu: Vec<bool>,
    x: Vec<u16>,
    y: Vec<u16>,
    nu: Vec<bool>,
    z: Vec<u16>,
}

impl ShardAssignments {
    fn slices(&mut self) -> Assignments<'_> {
        let (mu, x, y, nu, z) = (&mut self.mu, &mut self.x, &mut self.y, &mut self.nu, &mut self.z);
        Assignments { mu, x, y, nu, z }
    }

    /// Appends `edges` edge and `mentions` mention assignments, all
    /// zero, and returns them.
    fn extend(&mut self, edges: usize, mentions: usize) -> Assignments<'_> {
        let (old_edges, old_mentions) = (self.mu.len(), self.nu.len());
        self.mu.resize(old_edges + edges, false);
        self.x.resize(old_edges + edges, 0);
        self.y.resize(old_edges + edges, 0);
        self.nu.resize(old_mentions + mentions, false);
        self.z.resize(old_mentions + mentions, 0);
        self.slices().split_at(old_edges, old_mentions).1
    }

    /// Serialises to the spill format (scratch file — no fsync needed;
    /// a crash simply restarts training).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.mu.len() * 5 + self.nu.len() * 3);
        out.extend_from_slice(&(self.mu.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.nu.len() as u64).to_le_bytes());
        out.extend(self.mu.iter().map(|&b| b as u8));
        for &v in &self.x {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &self.y {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend(self.nu.iter().map(|&b| b as u8));
        for &v in &self.z {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(raw: &[u8]) -> std::io::Result<Self> {
        let err = || std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated spill file");
        let take = |at: &mut usize, n: usize| -> std::io::Result<Range<usize>> {
            let r = *at..*at + n;
            if r.end > raw.len() {
                return Err(err());
            }
            *at = r.end;
            Ok(r)
        };
        let mut at = 0;
        let s = u64::from_le_bytes(raw[take(&mut at, 8)?].try_into().unwrap()) as usize;
        let k = u64::from_le_bytes(raw[take(&mut at, 8)?].try_into().unwrap()) as usize;
        let mu = raw[take(&mut at, s)?].iter().map(|&b| b != 0).collect();
        let u16s = |r: Range<usize>| -> Vec<u16> {
            raw[r].chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect()
        };
        let x = u16s(take(&mut at, s * 2)?);
        let y = u16s(take(&mut at, s * 2)?);
        let nu = raw[take(&mut at, k)?].iter().map(|&b| b != 0).collect();
        let z = u16s(take(&mut at, k * 2)?);
        Ok(Self { mu, x, y, nu, z })
    }
}

// ---------------------------------------------------------------------------
// The trainer
// ---------------------------------------------------------------------------

struct ShardedTrainer<'g, 'r> {
    gaz: &'g Gazetteer,
    reader: &'r CorpusReader,
    config: MlpConfig,
    shards: Vec<Range<usize>>,
    reconcile_every: usize,
    scratch: PathBuf,
    candidacy: Candidacy,
    random: RandomModels,
    /// `d^α` per city pair for the (possibly data-fitted) power law.
    kernel: KernelMatrix,
    modes: Vec<Option<u32>>,
    /// Global collapsed counts in the candidate slot space.
    counts: Counts,
    /// Post-burn-in sums (one sample per reconciliation).
    acc: Accumulator,
}

impl<'g, 'r> ShardedTrainer<'g, 'r> {
    /// Streaming passes 1–3: statistics, candidacy, power law, venue
    /// support, and init modes — never more than one chunk resident.
    fn build(
        gaz: &'g Gazetteer,
        reader: &'r CorpusReader,
        config: &MlpConfig,
        shard_cfg: &ShardedTrainConfig,
    ) -> Result<Self, TrainError> {
        let manifest = reader.manifest();
        let n = manifest.num_users as usize;
        let num_chunks = reader.num_chunks();
        let shards = chunk_ranges(num_chunks, shard_cfg.shards.min(num_chunks).max(1));
        let scratch =
            shard_cfg.scratch_dir.clone().unwrap_or_else(|| reader.dir().join("train-scratch"));

        // Pass 1: registered labels + venue-mention histogram.
        let mut registered: Vec<Option<CityId>> = Vec::with_capacity(n);
        let mut venue_mentions = vec![0u64; gaz.num_venues()];
        let mut num_edges = 0u64;
        for chunk in reader.chunks() {
            let chunk = chunk?;
            validate_chunk(gaz, &chunk, n)?;
            registered.extend_from_slice(&chunk.registered);
            num_edges += chunk.edges.len() as u64;
            for m in &chunk.mentions {
                venue_mentions[m.venue.index()] += 1;
            }
        }
        if registered.len() != n {
            return Err(TrainError::Model(format!(
                "corpus chunks cover {} users, manifest says {n}",
                registered.len()
            )));
        }
        let random = RandomModels::from_stream_stats(n as u64, num_edges, venue_mentions);

        // Pass 2: candidacy + labeled city-pair counts for the power-law
        // fit.
        let mut builder = CandidacyBuilder::new(n, config);
        let mut pair_counts: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for chunk in reader.chunks() {
            let chunk = chunk?;
            for e in &chunk.edges {
                builder.observe_edge(e, &registered);
                if let (Some(a), Some(b)) =
                    (registered[e.follower.index()], registered[e.friend.index()])
                {
                    *pair_counts.entry((a.0, b.0)).or_insert(0) += 1;
                }
            }
            for m in &chunk.mentions {
                builder.observe_mention(gaz, m);
            }
        }
        let candidacy = builder.finish(gaz, &registered, config);

        // Power law: same histogram fit as the in-memory path, with the
        // labeled-pair distances replayed from the compact pair counts.
        let mut config = config.clone();
        if config.fit_power_law_from_data {
            let mut city_counts = vec![0u64; gaz.num_cities()];
            for r in registered.iter().flatten() {
                city_counts[r.index()] += 1;
            }
            let distances = pair_counts.iter().flat_map(|(&(a, b), &cnt)| {
                std::iter::repeat_n(gaz.distance(CityId(a), CityId(b)), cnt as usize)
            });
            if let Some(fit) = crate::fit::fit_from_histogram(gaz, &city_counts, distances, 50) {
                config.power_law = fit;
            }
        }
        let kernel = KernelMatrix::build(gaz.distances(), config.power_law);

        // Pass 3: venue support + init modes (both need the finished
        // candidacy), per chunk mentions then edges.
        let mut support = VenueSupport::new(gaz.num_cities(), gaz.num_venues());
        let mut scores = InitScores::new(gaz, &candidacy, &kernel);
        for chunk in reader.chunks() {
            let chunk = chunk?;
            let (edges, mentions) =
                kernel::relationships(config.variant, &chunk.edges, &chunk.mentions);
            for m in mentions {
                support.mark_mention(candidacy.candidates(m.user), m.venue);
                scores.mention(m, &registered);
            }
            for e in edges {
                scores.edge(e, &registered);
            }
        }
        // Allocated before the scores are freed: that free raises glibc's mmap
        // threshold and would pin these arenas on the heap (+10–20 MiB peak).
        let counts = Counts::new(&candidacy, &support);
        let acc = Accumulator::new(&counts);
        let modes = scores.modes(&registered);

        Ok(Self {
            gaz,
            reader,
            config,
            shards,
            reconcile_every: shard_cfg.reconcile_every.max(1),
            scratch,
            candidacy,
            random,
            kernel,
            modes,
            counts,
            acc,
        })
    }

    fn spill_path(&self, shard: usize) -> PathBuf {
        self.scratch.join(format!("shard-{shard:04}.spill"))
    }

    /// Initialises one shard's assignments with the shared initial draws
    /// and count build, chunk by chunk on the shard's one init stream,
    /// and spills them.
    fn init_shard(&mut self, shard: usize) -> Result<(), TrainError> {
        let mut rng =
            Pcg64::new(SplitMix64::derive(self.config.seed, PHASE_SHARD_INIT | shard as u64));
        let (config, candidacy) = (&self.config, &self.candidacy);
        let (variant, count_noisy) = (config.variant, config.count_noisy_assignments);
        let mut asg = ShardAssignments::default();
        for ci in self.shards[shard].clone() {
            let chunk = self.reader.read_chunk(ci)?;
            let (edges, mentions) = kernel::relationships(variant, &chunk.edges, &chunk.mentions);
            let mut new = asg.extend(edges.len(), mentions.len());
            kernel::init_draws(config, candidacy, &self.modes, &mut rng, edges, mentions, &mut new);
            self.counts.add_assigned(candidacy, edges, mentions, &new, count_noisy);
        }
        std::fs::write(self.spill_path(shard), asg.encode())?;
        Ok(())
    }

    /// One shard's super-sweep: stream its chunks, load its assignments,
    /// run K local sweeps of the shared sweep loop, chunk by chunk,
    /// against the frozen counts plus the shard's own deltas, reconcile
    /// the deltas into the global counts, and spill the new assignments.
    fn sweep_shard(
        &mut self,
        shard: usize,
        super_sweep: u64,
        local_sweeps: usize,
        frozen: &Counts,
    ) -> Result<(), TrainError> {
        let chunks: Vec<CorpusChunk> = self.shards[shard]
            .clone()
            .map(|ci| self.reader.read_chunk(ci))
            .collect::<Result<_, _>>()?;
        let mut asg = ShardAssignments::decode(&std::fs::read(self.spill_path(shard))?)?;

        let mut counts = ShardCounts::new(frozen);
        let view = SamplerView {
            gaz: self.gaz,
            candidacy: &self.candidacy,
            random: &self.random,
            config: &self.config,
            kernel: &self.kernel,
        };
        let (variant, mut buf) = (self.config.variant, Vec::new());
        for local in 0..local_sweeps {
            let mut rng = Pcg64::new(SplitMix64::derive(
                self.config.seed,
                PHASE_SHARD_SWEEP ^ (super_sweep << 28) ^ ((shard as u64) << 14) ^ local as u64,
            ));
            // The assignment vectors are flat over the shard's chunks in
            // stream order.
            let mut rest = asg.slices();
            for chunk in &chunks {
                let (edges, mentions) =
                    kernel::relationships(variant, &chunk.edges, &chunk.mentions);
                let (head, tail) = rest.split_at(edges.len(), mentions.len());
                kernel::sweep(&view, &mut counts, edges, mentions, head, &mut rng, &mut buf);
                rest = tail;
            }
        }

        self.counts.reconcile(&counts.into_delta());
        std::fs::write(self.spill_path(shard), asg.encode())?;
        Ok(())
    }

    fn run(mut self) -> Result<PosteriorSnapshot, TrainError> {
        std::fs::create_dir_all(&self.scratch)?;
        for shard in 0..self.shards.len() {
            self.init_shard(shard)?;
        }

        let iterations = self.config.iterations;
        let burn_in = self.config.burn_in;
        let mut sweeps_done = 0usize;
        let mut super_sweep = 0u64;
        while sweeps_done < iterations {
            let k = self.reconcile_every.min(iterations - sweeps_done);
            let frozen = self.counts.clone();
            for shard in 0..self.shards.len() {
                self.sweep_shard(shard, super_sweep, k, &frozen)?;
            }
            sweeps_done += k;
            super_sweep += 1;
            if sweeps_done > burn_in {
                // One thinned posterior sample per reconciliation.
                self.acc.add(&self.counts);
            }
        }

        // Clean up the spill files (best effort — scratch only).
        for shard in 0..self.shards.len() {
            std::fs::remove_file(self.spill_path(shard)).ok();
        }
        std::fs::remove_dir(&self.scratch).ok();

        let mean = |u, c| self.acc.mean(&self.counts, self.counts.slot(u, c));
        let venue_row = |l| self.counts.venues().row(l);
        let (gaz, config, law) = (self.gaz, &self.config, self.kernel.law());
        Ok(PosteriorSnapshot::assemble(
            gaz,
            config,
            law,
            &self.random,
            &self.candidacy,
            mean,
            venue_row,
        ))
    }
}

/// Cheap per-chunk shape validation (the full-dataset `validate` is the
/// in-memory path's luxury).
fn validate_chunk(
    gaz: &Gazetteer,
    chunk: &CorpusChunk,
    num_users: usize,
) -> Result<(), TrainError> {
    let bad = |m: String| Err(TrainError::Model(m));
    for r in chunk.registered.iter().flatten() {
        if r.index() >= gaz.num_cities() {
            return bad(format!("registered city {} out of range", r.0));
        }
    }
    for e in &chunk.edges {
        if e.friend.index() >= num_users {
            return bad(format!("edge friend {} out of range", e.friend.0));
        }
    }
    for m in &chunk.mentions {
        if m.venue.index() >= gaz.num_venues() {
            return bad(format!("mention venue {} out of range", m.venue.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::tests::Fixture;

    #[test]
    fn init_draws_chunk_by_chunk_match_one_call() {
        let f = Fixture::new(120, 41, MlpConfig::default());
        let (edges, mentions) = (&f.dataset.edges[..], &f.dataset.mentions[..]);
        let modes: Vec<_> = (0..f.dataset.num_users()).map(|u| (u % 2 == 0).then_some(0)).collect();
        let draws = |pieces: &[(Range<usize>, Range<usize>)]| {
            let (mut asg, mut rng) = (ShardAssignments::default(), Pcg64::new(7));
            for (er, mr) in pieces {
                let (e, m) = (&edges[er.clone()], &mentions[mr.clone()]);
                let mut new = asg.extend(e.len(), m.len());
                kernel::init_draws(&f.config, &f.cand, &modes, &mut rng, e, m, &mut new);
            }
            asg
        };
        let (s, k) = (edges.len(), mentions.len());
        let whole = draws(&[(0..s, 0..k)]);
        // Chunk-shaped pieces on one stream: edges, then edges and
        // mentions, then mentions — the order one call draws in.
        let chunked = draws(&[(0..s / 3, 0..0), (s / 3..s, 0..k / 2), (s..s, k / 2..k)]);
        assert_eq!(whole.encode(), chunked.encode());
        assert!(whole.mu.iter().any(|&mu| mu) && whole.z.iter().any(|&z| z > 0));
    }
}
