//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions — nothing inside the library is instrumented. Each
//! span keeps its name, start, end and parent; spans are held in memory
//! and written out once, when the run ends. A layer's *self time* is its
//! span minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Trace::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The recorder: a flat span list plus the stack of open spans, which
/// supplies each new span's parent.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop().expect("close without an open span");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured span.
    #[cfg(test)]
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) {
        self.spans.push(Span { name, start_ns, end_ns, parent: parent.map(|p| p.0) });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of `id`, in recording order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = (SpanId, &Span)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == Some(id.0))
            .map(|(i, s)| (SpanId(i), s))
    }

    /// Span duration minus the union of its direct children's intervals
    /// (clipped to the span, so overlapping or stray children never count
    /// twice or below zero).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id.0];
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|(_, c)| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration_ns() - covered
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.ids_named(name).map(|id| self.spans[id.0].duration_ns() as f64 / 1e6).collect()
    }

    /// Every span named `name`, in recording order.
    pub fn ids_named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = SpanId> + 's {
        self.spans.iter().enumerate().filter(move |(_, s)| s.name == name).map(|(i, _)| SpanId(i))
    }

    /// Writes one JSON object per span (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `self_ns`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(SpanId(i))
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Trace::new();
        t.push("root", 0, 100, None);
        let root = SpanId(0);
        t.push("a", 10, 30, Some(root));
        t.push("b", 25, 50, Some(root)); // overlaps a by 5
        t.push("c", 90, 120, Some(root)); // runs past the parent
        t.push("grandchild", 12, 20, Some(SpanId(1)));
        // Covered: [10,50) + [90,100) = 50.
        assert_eq!(t.self_ns(root), 50);
        assert_eq!(t.self_ns(SpanId(1)), 12);
        assert_eq!(t.self_ns(SpanId(4)), 8);
    }

    #[test]
    fn nested_spans_record_parents_and_sum_by_name() {
        let mut t = Trace::new();
        let outer = t.open("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.time("inner", || ());
        t.close(outer);
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(t.durations_ms("inner").len(), 2);
        let kids: u64 = t.children(outer).map(|(_, s)| s.duration_ns()).sum();
        assert_eq!(t.self_ns(outer), t.spans()[0].duration_ns() - kids);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_close_innermost_first() {
        let mut t = Trace::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
