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
//!   builder), the collapsed user counts `ϕ` and their post-burn-in
//!   accumulators (flat `u32` arenas in its slot space), and the venue
//!   counts `φ` ([`VenueCountStore`]). This is O(users · mean-candidates +
//!   support) — the irreducible model state.
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
//! Each shard then runs its local sweeps — the edge and mention steps of
//! [`crate::kernel`], shared with every other chain — against `frozen +
//! its own delta slab` and its working copy of `φ`. Its own updates are
//! visible immediately (the exclude-current arithmetic of
//! [`EdgeExcluded`]/[`MentionExcluded`] stays exact), while other shards'
//! same-super-sweep updates are stale until the **count reconciliation**:
//! the flat index-wise delta merge that [`crate::parallel`] performs per
//! sweep, here performed per super-sweep. `reconcile_every` trades
//! staleness against merge/freeze traffic. This driver owns the shard
//! schedule, the RNG streams, the delta slab and working `φ`, the
//! reconciliation, and the assignment spills.
//!
//! Post-burn-in, the posterior is accumulated at reconciliation points
//! (every super-sweep contributes one sample of the fully-merged counts),
//! i.e. the chain is *thinned* by `reconcile_every` rather than sampled
//! every sweep — same estimator, fewer, less-correlated samples.
//!
//! The whole run is a pure function of `(gazetteer, corpus, config,
//! shards, reconcile_every)`: every RNG stream is derived from the seed,
//! the shard schedule is deterministic, and all reductions are integer.

use crate::candidacy::{Candidacy, CandidacyBuilder};
use crate::config::MlpConfig;
use crate::count_store::{add_deltas, VenueCountStore, VenueSupport};
use crate::kernel::{self, CountView, EdgeExcluded, InitScores, MentionExcluded, SamplerView};
use crate::model::Mlp;
use crate::parallel::chunk_ranges;
use crate::random_models::RandomModels;
use crate::snapshot::{PosteriorSnapshot, UserArena, UserPosterior};
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::KernelMatrix;
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::stream::{CorpusChunk, CorpusError, CorpusReader};
use mlp_social::UserId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

// RNG stream phases for the sharded path (disjoint from the sampler's
// 0x9B5 init stream and the parallel driver's 0xE…/0x4… sweep streams).
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
// The shard count view
// ---------------------------------------------------------------------------

/// One shard's view of the collapsed counts during a super-sweep: frozen
/// global counts plus the shard's own delta slab (its updates are live to
/// itself, stale to everyone else), and its working `φ` clone.
struct ShardCounts<'a> {
    candidacy: &'a Candidacy,
    frozen: &'a [u32],
    frozen_totals: &'a [u32],
    delta: Vec<i32>,
    delta_totals: Vec<i32>,
    venues: VenueCountStore,
}

impl ShardCounts<'_> {
    /// Adds `by` to user `u`'s count at candidate index `c` in the delta.
    #[inline]
    fn add_user(&mut self, u: UserId, c: usize, by: i32) {
        self.delta[self.candidacy.slot(u, c)] += by;
        self.delta_totals[u.index()] += by;
    }
}

impl CountView for ShardCounts<'_> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let s = self.candidacy.slot(u, c);
        (self.frozen[s] as i64 + self.delta[s] as i64) as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        let i = u.index();
        (self.frozen_totals[i] as i64 + self.delta_totals[i] as i64) as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        self.venues.get(l, v) as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.venues.total(l) as f64
    }
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
    // Global collapsed counts in the candidate slot space.
    counts: Vec<u32>,
    totals: Vec<u32>,
    venues: VenueCountStore,
    // Post-burn-in accumulators (one sample per reconciliation).
    acc: Vec<u32>,
    acc_samples: u32,
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
            if config.variant.uses_tweeting() {
                for m in &chunk.mentions {
                    support.mark_mention(candidacy.candidates(m.user), m.venue);
                    scores.mention(m);
                }
            }
            if config.variant.uses_following() {
                for e in &chunk.edges {
                    scores.edge(e, &registered);
                }
            }
        }
        let venues = VenueCountStore::build(&support);
        // Allocated before the scores are freed: that free raises glibc's mmap
        // threshold and would pin these arenas on the heap (+10–20 MiB peak).
        let num_slots = candidacy.num_slots();
        let (counts, acc) = (vec![0; num_slots], vec![0; num_slots]);
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
            totals: vec![0; n],
            venues,
            acc,
            acc_samples: 0,
        })
    }

    fn spill_path(&self, shard: usize) -> PathBuf {
        self.scratch.join(format!("shard-{shard:04}.spill"))
    }

    /// Initialises one shard's assignments (mode-biased, mirroring
    /// `GibbsSampler::init_assignments`), applies their counts to the
    /// global arenas, and spills them.
    fn init_shard(&mut self, shard: usize) -> Result<(), TrainError> {
        let mut rng =
            Pcg64::new(SplitMix64::derive(self.config.seed, PHASE_SHARD_INIT | shard as u64));
        let count_noisy = self.config.count_noisy_assignments;
        let mut asg = ShardAssignments::default();
        for ci in self.shards[shard].clone() {
            let chunk = self.reader.read_chunk(ci)?;
            let pos = |rng: &mut Pcg64, user: UserId, modes: &[Option<u32>]| -> usize {
                let len = self.candidacy.candidates(user).len();
                kernel::init_position(rng, modes[user.index()].map(|m| m as usize), len)
            };
            if self.config.variant.uses_following() {
                for e in &chunk.edges {
                    let mu = rng.bernoulli(self.config.rho_f);
                    let x = pos(&mut rng, e.follower, &self.modes);
                    let y = pos(&mut rng, e.friend, &self.modes);
                    if !mu || count_noisy {
                        self.counts[self.candidacy.slot(e.follower, x)] += 1;
                        self.counts[self.candidacy.slot(e.friend, y)] += 1;
                        self.totals[e.follower.index()] += 1;
                        self.totals[e.friend.index()] += 1;
                    }
                    asg.mu.push(mu);
                    asg.x.push(x as u16);
                    asg.y.push(y as u16);
                }
            } else {
                asg.mu.resize(asg.mu.len() + chunk.edges.len(), false);
                asg.x.resize(asg.x.len() + chunk.edges.len(), 0);
                asg.y.resize(asg.y.len() + chunk.edges.len(), 0);
            }
            if self.config.variant.uses_tweeting() {
                for m in &chunk.mentions {
                    let nu = rng.bernoulli(self.config.rho_t);
                    let z = pos(&mut rng, m.user, &self.modes);
                    if !nu || count_noisy {
                        self.counts[self.candidacy.slot(m.user, z)] += 1;
                        self.totals[m.user.index()] += 1;
                    }
                    if !nu {
                        self.venues.add(self.candidacy.candidates(m.user)[z], m.venue);
                    }
                    asg.nu.push(nu);
                    asg.z.push(z as u16);
                }
            } else {
                asg.nu.resize(asg.nu.len() + chunk.mentions.len(), false);
                asg.z.resize(asg.z.len() + chunk.mentions.len(), 0);
            }
        }
        std::fs::write(self.spill_path(shard), asg.encode())?;
        Ok(())
    }

    /// One shard's super-sweep: stream its chunks, load its assignments,
    /// run K local sweeps against frozen + own-delta counts, merge the
    /// deltas (the reconciliation), and spill the new assignments.
    #[allow(clippy::too_many_arguments)]
    fn sweep_shard(
        &mut self,
        shard: usize,
        super_sweep: u64,
        local_sweeps: usize,
        frozen: &[u32],
        frozen_totals: &[u32],
        frozen_venues: &VenueCountStore,
    ) -> Result<(), TrainError> {
        let chunks: Vec<CorpusChunk> = self.shards[shard]
            .clone()
            .map(|ci| self.reader.read_chunk(ci))
            .collect::<Result<_, _>>()?;
        let mut asg = ShardAssignments::decode(&std::fs::read(self.spill_path(shard))?)?;

        let mut counts = ShardCounts {
            candidacy: &self.candidacy,
            frozen,
            frozen_totals,
            delta: vec![0; self.candidacy.num_slots()],
            delta_totals: vec![0; self.candidacy.num_users()],
            venues: frozen_venues.clone(),
        };
        let view = SamplerView {
            gaz: self.gaz,
            candidacy: &self.candidacy,
            random: &self.random,
            config: &self.config,
            kernel: &self.kernel,
        };
        let count_noisy = self.config.count_noisy_assignments;
        let uses_following = self.config.variant.uses_following();
        let uses_tweeting = self.config.variant.uses_tweeting();
        let mut buf = Vec::new();

        for local in 0..local_sweeps {
            let mut rng = Pcg64::new(SplitMix64::derive(
                self.config.seed,
                PHASE_SHARD_SWEEP ^ (super_sweep << 28) ^ ((shard as u64) << 14) ^ local as u64,
            ));
            // Chunk by chunk, edges then mentions; `es`/`ks` index the
            // shard's flat assignment vectors.
            let (mut es, mut ks) = (0usize, 0usize);
            for chunk in &chunks {
                let edges = if uses_following { chunk.edges.as_slice() } else { &[] };
                for (s, e) in (es..).zip(edges) {
                    let (i, j) = (e.follower, e.friend);
                    let (old_mu, old_x, old_y) = (asg.mu[s], asg.x[s] as usize, asg.y[s] as usize);
                    let counted = !old_mu || count_noisy;
                    let excluded = EdgeExcluded::new(&counts, counted, i, old_x, j, old_y);
                    let (mu, x, y) = kernel::edge_step(
                        &view,
                        &excluded,
                        (i, old_x),
                        (j, old_y),
                        &mut rng,
                        &mut buf,
                    );
                    if counted {
                        counts.add_user(i, old_x, -1);
                        counts.add_user(j, old_y, -1);
                    }
                    if !mu || count_noisy {
                        counts.add_user(i, x, 1);
                        counts.add_user(j, y, 1);
                    }
                    asg.mu[s] = mu;
                    asg.x[s] = x as u16;
                    asg.y[s] = y as u16;
                }
                es += chunk.edges.len();

                let mentions = if uses_tweeting { chunk.mentions.as_slice() } else { &[] };
                for (k, m) in (ks..).zip(mentions) {
                    let (i, v) = (m.user, m.venue);
                    let ci = self.candidacy.candidates(i);
                    let (old_nu, old_z) = (asg.nu[k], asg.z[k] as usize);
                    let counted = !old_nu || count_noisy;
                    let old_city = ci[old_z];
                    let excluded =
                        MentionExcluded::new(&counts, counted, !old_nu, i, old_z, old_city, v);
                    let (nu, z) =
                        kernel::mention_step(&view, &excluded, (i, old_z), v, &mut rng, &mut buf);
                    if counted {
                        counts.add_user(i, old_z, -1);
                    }
                    if !nu || count_noisy {
                        counts.add_user(i, z, 1);
                    }
                    if !old_nu {
                        counts.venues.remove(old_city, v);
                    }
                    if !nu {
                        counts.venues.add(ci[z], v);
                    }
                    asg.nu[k] = nu;
                    asg.z[k] = z as u16;
                }
                ks += chunk.mentions.len();
            }
        }

        // Reconciliation: flat index-wise merge of this shard's deltas
        // into the global arenas.
        add_deltas(&mut self.counts, &counts.delta);
        add_deltas(&mut self.totals, &counts.delta_totals);
        self.venues.apply_diff(&counts.venues, frozen_venues);

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
            let frozen_totals = self.totals.clone();
            let frozen_venues = self.venues.clone();
            for shard in 0..self.shards.len() {
                self.sweep_shard(shard, super_sweep, k, &frozen, &frozen_totals, &frozen_venues)?;
            }
            sweeps_done += k;
            super_sweep += 1;
            if sweeps_done > burn_in {
                // One thinned posterior sample per reconciliation.
                for (a, &c) in self.acc.iter_mut().zip(&self.counts) {
                    *a += c;
                }
                self.acc_samples += 1;
            }
        }

        // Clean up the spill files (best effort — scratch only).
        for shard in 0..self.shards.len() {
            std::fs::remove_file(self.spill_path(shard)).ok();
        }
        std::fs::remove_dir(&self.scratch).ok();

        Ok(self.freeze())
    }

    /// Mean post-burn-in count for `(u, c)` — live counts when no sample
    /// was accumulated yet (same fallback as `SamplerState`).
    fn mean_count(&self, u: UserId, c: usize) -> f64 {
        let s = self.candidacy.slot(u, c);
        if self.acc_samples == 0 {
            self.counts[s] as f64
        } else {
            self.acc[s] as f64 / self.acc_samples as f64
        }
    }

    /// Freezes the trained posterior: the users' posteriors as
    /// [`PosteriorSnapshot::freeze`] extracts them from a trained sampler,
    /// then the same assembly.
    fn freeze(&self) -> PosteriorSnapshot {
        let n = self.candidacy.num_users();
        let users = UserArena::from_users((0..n).map(|u| {
            let user = UserId(u as u32);
            let candidates = self.candidacy.candidates(user).to_vec();
            let gammas = self.candidacy.gammas(user).to_vec();
            let gamma_total = self.candidacy.gamma_total(user);
            let mean_counts: Vec<f64> =
                (0..candidates.len()).map(|c| self.mean_count(user, c)).collect();
            let mean_total: f64 = mean_counts.iter().sum();
            // θ̂ argmax (Eq. 10) with the sampler's tie-break: higher
            // probability first, then lower city id.
            let total = gamma_total + mean_total;
            let home = candidates
                .iter()
                .zip(&mean_counts)
                .zip(&gammas)
                .map(|((&c, &m), &g)| (c, (m + g) / total))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c)
                .expect("candidate lists are non-empty");
            UserPosterior { home, gamma_total, candidates, gammas, mean_counts, mean_total }
        }));

        let venue_row = |l| self.venues.row(l);
        let law = self.kernel.law();
        PosteriorSnapshot::assemble(self.gaz, &self.config, law, &self.random, users, venue_row)
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
