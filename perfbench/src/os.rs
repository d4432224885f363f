//! Operating-system clocks and counters: the per-thread CPU clock printed
//! beside every wall-clock timing, the counters that tell a noisy run from
//! a slow one, and the machine facts the provenance block records.
//!
//! The counters read `/proc`; off Linux each reader returns `None`, which
//! the report prints as `null` — never as a fabricated zero.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// CPU time the calling thread has consumed, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). It excludes time the thread spent
/// runnable but waiting, blocked in I/O, or stolen by the hypervisor.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and clock_gettime writes nothing
    // but that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// What one operation cost: wall time and the on-CPU time of the thread
/// that ran it, in seconds (wall time where no CPU clock exists), and the
/// machine's speed when it started ([`crate::speed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
    pub speed: f64,
}

impl Cost {
    /// Wall time at the reference machine's speed: what the metrics report.
    pub fn scaled(&self) -> f64 {
        self.wall * self.speed
    }

    /// On-CPU time at the reference machine's speed: what the tail
    /// percentiles report (see `README.md`, "Clock").
    pub fn scaled_cpu(&self) -> f64 {
        self.cpu * self.speed
    }
}

/// Runs `f` on the calling thread and measures it on both clocks, first
/// reading the machine's speed (outside the measured interval).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let speed = crate::speed::poll();
    let _inside = crate::speed::Timing::enter();
    let (out, cost) = raw_timed(f);
    (out, Cost { speed, ..cost })
}

/// [`timed`] without the speed reading.
pub fn raw_timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
    let out = f();
    let wall = wall0.elapsed().as_secs_f64();
    let cpu = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => wall,
    };
    (out, Cost { wall, cpu, speed: 1.0 })
}

static RUN_NS: AtomicU64 = AtomicU64::new(0);
static WAIT_NS: AtomicU64 = AtomicU64::new(0);
static THREADS_SEEN: AtomicU64 = AtomicU64::new(0);

/// `(on-CPU ns, run-queue wait ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`.
fn thread_schedstat() -> Option<(u64, u64)> {
    let raw = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = raw.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Scheduler accounting for one benchmark thread: created when the thread
/// starts measured work, folded into the process-wide totals by
/// [`ThreadSched::finish`].
pub struct ThreadSched(Option<(u64, u64)>);

impl ThreadSched {
    pub fn start() -> Self {
        Self(thread_schedstat())
    }

    pub fn finish(self) {
        if let (Some((run0, wait0)), Some((run1, wait1))) = (self.0, thread_schedstat()) {
            RUN_NS.fetch_add(run1.saturating_sub(run0), Ordering::Relaxed);
            WAIT_NS.fetch_add(wait1.saturating_sub(wait0), Ordering::Relaxed);
            THREADS_SEEN.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Share of the benchmark threads' runnable time spent waiting in the run
/// queue: `Σ wait / Σ (run + wait)` over every finished [`ThreadSched`].
pub fn sched_wait_share() -> Option<f64> {
    if THREADS_SEEN.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let run = RUN_NS.load(Ordering::Relaxed) as f64;
    let wait = WAIT_NS.load(Ordering::Relaxed) as f64;
    (run + wait > 0.0).then(|| wait / (run + wait))
}

/// Machine-wide CPU time from the aggregate `cpu` line of `/proc/stat`:
/// `(steal ticks, total ticks)`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Option<Self> {
        let raw = std::fs::read_to_string("/proc/stat").ok()?;
        let line = raw.lines().find(|l| l.starts_with("cpu "))?;
        let ticks: Vec<u64> =
            line.split_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
        Some(Self { steal: *ticks.get(7)?, total: ticks.iter().take(8).sum() })
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &Self) -> Option<f64> {
        let total = self.total.checked_sub(earlier.total)?;
        (total > 0).then(|| self.steal.saturating_sub(earlier.steal) as f64 / total as f64)
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount = left.split_whitespace().nth(4)?.replace("\\040", " ");
        let fstype = right.split_whitespace().next()?;
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
