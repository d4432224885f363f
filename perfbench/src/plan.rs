//! What one benchmark run does: the workload, its seed, and a fixed,
//! seed-independent amount of work derived from `--seconds`.
//!
//! Work is never "as much as fits in N seconds": every size below is a
//! pure function of `(workload, seconds)`, calibrated so the workload's
//! main phase takes roughly `seconds` on the 2-vCPU reference box. Two
//! runs of one seed therefore do identical work and produce identical
//! outputs; only their timings differ.

use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold training dominates.
    Train,
    /// Concurrent fold-in serving dominates.
    Serve,
    /// Durable refresh commits beside reads dominate.
    Refresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Train, Workload::Serve, Workload::Refresh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Serve => "serve",
            Workload::Refresh => "refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which output check the run deliberately breaks (tests only): proves the
/// correctness assertions fire instead of reporting numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corrupt {
    #[default]
    Nothing,
    /// One served answer is altered before the serial comparison.
    ServedAnswer,
    /// The live posterior encoding is altered before the reopen comparison.
    LiveEncoding,
    /// One training repetition's posterior encoding is altered.
    TrainedPosterior,
}

/// Unseen users of the full-size corpus.
const UNSEEN_USERS: usize = 5_000;
/// Closed-loop client threads of the serve workload (the reference
/// machine's core count).
pub const CLIENTS: usize = 2;
/// Requests served at the start of each round, in every workload, so the
/// commit figures of every workload come from one read/commit mix.
pub const SERVES_PER_ROUND: usize = 4;
/// New users absorbed by each refresh commit.
pub const BATCH: usize = 8;
/// Sweeps of the set-up training (serve, refresh).
pub const SETUP_SWEEPS: usize = 2;
/// Commits after the rounds' closing checkpoint: the WAL records every
/// reopen replays.
pub const REPLAYED: usize = 40;
/// Reopens after the rounds; `reopen_ms` is their median.
pub const REOPENS: usize = 21;
/// Timed checkpoints: spread over the slices of the untraced run, whose
/// `checkpoint_ms` is the median of these and of one closing checkpoint;
/// after the reopens in the traced run.
pub const CHECKPOINTS: usize = 21;
/// Requests the traced run times through both `ServingEngine::profile`
/// and `FoldInEngine::fold_in` (enough for a guarded p99).
pub const TRACE_REQUESTS: usize = 1_000;
/// Engine/rebuild training pairs in the traced run; the ledger compares
/// their medians.
pub const TRACE_TRAININGS: usize = 5;
/// Handle acquisitions per `engine.acquire_ns` sample.
pub const ACQUIRE_BATCH: usize = 1_000;

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Users the posterior is trained on.
    pub base_users: usize,
    /// Unseen users: the request list, and the newcomers refresh absorbs
    /// round-robin. Large enough that tail percentiles rest on many
    /// distinct requests, not on the few heaviest users of one seed.
    pub unseen_users: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Sweeps of the measured training (train).
    pub train_sweeps: usize,
    /// Measured trainings (train); `train_s` is their median.
    pub train_reps: usize,
    /// Requests the closed-loop clients serve in total (serve).
    pub serve_requests: usize,
    /// Serve-then-refresh rounds.
    pub rounds: usize,
    pub corrupt: Corrupt,
    /// Scratch directory for artifacts and logs (created and removed by
    /// the run).
    pub data_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Plan {
    /// The full-size plan for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        let s = seconds.max(1) as usize;
        let main_serves = workload == Workload::Serve;
        let main_rounds = workload == Workload::Refresh;
        Self {
            workload,
            seed,
            seconds,
            trace,
            base_users: 10_000,
            unseen_users: UNSEEN_USERS,
            // Train's set-up is a ~0.1 s corpus generation, cheap enough to
            // repeat nine times; serve and refresh spread theirs over the
            // run, one per slice.
            setup_reps: if workload == Workload::Train { 9 } else { 4 },
            train_sweeps: 8,
            train_reps: if workload == Workload::Train { (s / 5).max(1) } else { 0 },
            // ~1,900 requests/s and ~85 rounds/s on the reference box.
            // At least one full pass, which the serial comparison checks.
            serve_requests: if main_serves { (s * 1_900).max(UNSEEN_USERS) } else { 0 },
            rounds: if main_rounds { s * 85 } else { 300 },
            corrupt: Corrupt::Nothing,
            data_dir: PathBuf::from(".perfbench_data").join(format!(
                "{}-{seed}-{}",
                workload.name(),
                std::process::id()
            )),
            trace_dir: PathBuf::from(".perfbench_out"),
        }
    }

    /// Slices the untraced run interleaves its measured phases in (see
    /// `Run::untraced`): one per training repetition in `train`, one per
    /// set-up repetition in `serve` and `refresh`.
    pub fn slices(&self) -> usize {
        match self.workload {
            Workload::Train => self.train_reps.max(1),
            Workload::Serve | Workload::Refresh => self.setup_reps.max(1),
        }
    }

    /// A seconds-scale plan over a few hundred users, for tests.
    pub fn tiny(workload: Workload, seed: u64, scratch: PathBuf) -> Self {
        let full = Self::new(workload, seed, 1, false);
        Self {
            base_users: 300,
            unseen_users: 1_000,
            // Two, so the repeated set-up inside the slices runs too.
            setup_reps: 2,
            // Two trainings, so the repeat-determinism check has a pair.
            train_reps: if workload == Workload::Train { 2 } else { 0 },
            train_sweeps: 3,
            serve_requests: if workload == Workload::Serve { 1_000 } else { 0 },
            // Refresh serves 4 requests a round: 250 rounds give the 1,000
            // samples its p99 needs.
            rounds: if workload == Workload::Refresh { 250 } else { 100 },
            data_dir: scratch.join("data"),
            trace_dir: scratch.join("trace"),
            ..full
        }
    }
}
