//! The machine's current speed, read from a fixed reference computation.
//!
//! On a shared virtual machine the same code runs up to 1.6× slower for
//! minutes at a time, on the CPU clock as much as on the wall clock, and no
//! statistic inside one run removes a slowdown that outlasts it. So every
//! timed operation carries the speed the machine had when it ran: each
//! thread re-runs a reference computation that belongs to the benchmark,
//! not the library, every [`INTERVAL`], and times it on its own CPU clock.
//! The reported times are each operation's *wall* time multiplied by that
//! speed: the time it would have taken on the reference machine.
//!
//! What the scaling cancels and what it keeps:
//! - it cancels the machine running its cores slower, which slows the
//!   reference computation's CPU time as much as the program's; it does
//!   not see slower memory and page faults, which the reference's
//!   L2-resident table never meets (training times move with those);
//! - it keeps everything the program waits for — `fsync`, locks,
//!   preemption by its own threads or by anyone else — because those
//!   lengthen the operation's wall time but not the reference's CPU time.
//!
//! A run's speeds are printed with its provenance; the unscaled wall
//! figure is printed beside every metric.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reference computation time that counts as speed 1.0, in nanoseconds:
/// a round figure near what it took on the reference machine (a 2-vCPU
/// KVM guest on a Xeon host).
pub const NOMINAL_NS: f64 = 1.0e6;

/// Least time between two reference runs on one thread.
pub const INTERVAL: Duration = Duration::from_millis(50);

/// Reference runs the current speed is the median of.
const WINDOW: usize = 5;

/// 256 KiB of `u32` links: they fit in a core's L2 once warmed, so the
/// reference's time does not depend on what the program left in the
/// caches.
const WORDS: usize = 1 << 16;
const STEPS: usize = 20_000;

/// One cycle through all of `0..WORDS` in a scrambled order (Sattolo's
/// shuffle, fixed seed), so each step of the walk is a dependent load
/// from an unpredictable place.
fn links() -> &'static [u32] {
    static LINKS: OnceLock<Vec<u32>> = OnceLock::new();
    LINKS.get_or_init(|| {
        let mut order: Vec<u32> = (0..WORDS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..WORDS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            order.swap(i, j);
        }
        let mut next = vec![0u32; WORDS];
        for w in 0..WORDS {
            next[order[w] as usize] = order[(w + 1) % WORDS];
        }
        next
    })
}

/// CPU time of one reference computation, in nanoseconds: a dependent
/// walk through [`links`] interleaved with a chain of `ln`/`exp`, the mix
/// of scattered loads and transcendental arithmetic the sampler and the
/// fold-in chains do. The links are read once, untimed, first.
pub fn reference_ns() -> f64 {
    let links = links();
    std::hint::black_box(links.iter().fold(0u32, |a, &l| a ^ l));
    let (_, cost) = crate::os::raw_timed(|| {
        let (mut at, mut x) = (0u32, 0.5f64);
        for _ in 0..STEPS {
            at = links[at as usize];
            x = (x + f64::from(at & 0xff) * 1e-3).ln_1p().exp() - 0.5;
        }
        std::hint::black_box((at, x))
    });
    cost.cpu * 1e9
}

/// Speeds a thread keeps room for on its first reading.
const SEEN_CAPACITY: usize = 1 << 14;

/// One thread's recent reference times.
///
/// It allocates only on the thread's first reading: allocations at moments
/// the clock chooses would shift the heap's layout from run to run, and
/// with it the peak resident set.
struct Gauge {
    /// The last [`WINDOW`] reference times, a ring filled `taken` times.
    recent: [f64; WINDOW],
    taken: usize,
    last: Option<Instant>,
    /// Every speed this thread measured, for the provenance line.
    seen: Vec<f64>,
    /// Wall time spent in reference runs, so phase totals can leave it out.
    spent: Duration,
}

thread_local! {
    static GAUGE: RefCell<Gauge> =
        const { RefCell::new(Gauge {
            recent: [0.0; WINDOW],
            taken: 0,
            last: None,
            seen: Vec::new(),
            spent: Duration::ZERO,
        }) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The speed the outermost timed operation started with.
    static CURRENT: Cell<f64> = const { Cell::new(1.0) };
}

impl Gauge {
    fn sample(&mut self) {
        let t = Instant::now();
        let ns = reference_ns();
        self.recent[self.taken % WINDOW] = ns;
        self.taken += 1;
        if self.seen.capacity() == 0 {
            self.seen.reserve(SEEN_CAPACITY);
        }
        self.seen.push(NOMINAL_NS / ns);
        self.last = Some(Instant::now());
        self.spent += t.elapsed();
    }

    /// Samples when [`INTERVAL`] has passed (three times on first use, so
    /// the first estimate is already a median), and returns the speed.
    fn poll(&mut self) -> f64 {
        match self.last {
            None => (0..3).for_each(|_| self.sample()),
            Some(t) if t.elapsed() >= INTERVAL => self.sample(),
            Some(_) => {}
        }
        let mut recent = self.recent;
        let recent = &mut recent[..self.taken.min(WINDOW)];
        recent.sort_by(f64::total_cmp);
        NOMINAL_NS / recent[recent.len() / 2]
    }
}

/// The calling thread's current speed (1.0 = the reference machine),
/// re-measured if [`INTERVAL`] has passed. Inside an operation that is
/// already being timed it measures nothing and returns the speed that
/// operation started with.
pub fn poll() -> f64 {
    if DEPTH.with(Cell::get) == 0 {
        CURRENT.with(|c| c.set(GAUGE.with(|g| g.borrow_mut().poll())));
    }
    CURRENT.with(Cell::get)
}

/// Marks the calling thread as inside a timed operation until the guard
/// drops, so nested timings do not run the reference inside it.
pub(crate) struct Timing;

impl Timing {
    pub(crate) fn enter() -> Self {
        DEPTH.with(|d| d.set(d.get() + 1));
        Timing
    }
}

impl Drop for Timing {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Wall time the calling thread has spent in reference runs.
pub fn spent() -> Duration {
    GAUGE.with(|g| g.borrow().spent)
}

/// Every speed the calling thread measured, taken out of it.
pub fn take_seen() -> Vec<f64> {
    GAUGE.with(|g| std::mem::take(&mut g.borrow_mut().seen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::timed;

    #[test]
    fn nested_timings_reuse_the_outer_speed_and_run_no_reference() {
        let ((inner, inside), outer) = timed(|| {
            let before = spent();
            let (_, inner) = timed(|| std::thread::sleep(INTERVAL * 2));
            (inner, spent() - before)
        });
        assert!(outer.speed > 0.0);
        assert_eq!(inner.speed, outer.speed);
        assert_eq!(inside, Duration::ZERO, "no reference run inside a timed call");
        assert_eq!(inner.scaled(), inner.wall * inner.speed);
        assert_eq!(inner.scaled_cpu(), inner.cpu * inner.speed);
    }

    #[test]
    fn a_thread_remeasures_once_the_interval_has_passed() {
        poll();
        let seen = take_seen().len();
        assert!(seen >= 3, "first use measures three times, saw {seen}");
        poll();
        assert!(take_seen().is_empty(), "no new reading within the interval");
        std::thread::sleep(INTERVAL);
        poll();
        assert_eq!(take_seen().len(), 1);
    }
}
