//! Metric vocabulary and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("acc_at_100", "share"),
    ("train_s", "s"),
    ("serve_qps", "req/s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("reopen_ms", "ms"),
    ("checkpoint_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("social.adjacency_ms", "ms"),
    ("candidacy.build_ms", "ms"),
    ("candidacy.mean_candidates", "count"),
    ("fit.power_law_ms", "ms"),
    ("random_models.learn_ms", "ms"),
    ("sampler.init_ms", "ms"),
    ("sampler.sweep_ms", "ms"),
    ("sampler.sweeps", "count"),
    ("sampler.tokens", "count"),
    ("sampler.changed_share", "share"),
    ("model.theta_ms", "ms"),
    ("model.loglik_ms", "ms"),
    ("model.map_extract_ms", "ms"),
    ("state.accumulate_ms", "ms"),
    ("snapshot.freeze_ms", "ms"),
    ("engine.adopt_ms", "ms"),
    ("train.unaccounted_ms", "ms"),
    ("snapshot.open_ms", "ms"),
    ("engine.acquire_ns", "ns"),
    ("infer.fold_in_p50_us", "us"),
    ("infer.fold_in_p99_us", "us"),
    ("engine.overhead_us", "us"),
    ("request.neighbors", "count"),
    ("request.mentions", "count"),
    ("request.candidates", "count"),
    ("online.absorb_ms", "ms"),
    ("online.commit_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.record_bytes", "bytes"),
    ("snapshot.clone_ms", "ms"),
    ("engine.auto_checkpoints", "count"),
    ("commit.unaccounted_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("wal.write_atomic_ms", "ms"),
    ("wal.recover_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("os.sched_wait_share", "share"),
    ("os.steal_share", "share"),
    ("trace.traced_ms", "ms"),
    ("trace.untraced_ms", "ms"),
];

/// Values collected during a run, by metric name. `None` means "not
/// measurable here" (an OS counter off Linux) and prints as `null`.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Option<f64>>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, Some(value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.0.insert(name, value);
    }

    /// Every metric of `declared` must have been recorded; returns the
    /// first missing name otherwise.
    pub fn check_complete(&self, declared: &[(&str, &str)]) -> Result<(), String> {
        match declared.iter().find(|(name, _)| !self.0.contains_key(name)) {
            Some((name, _)) => Err(format!("metric {name} was never measured")),
            None => Ok(()),
        }
    }

    /// The `metrics` object of the result line, in declaration order.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.0.get(name).copied().flatten() {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_string(),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Operations attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; passes its value through on success.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what} failed: {e}")
        })
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, ops: Ops, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ops.attempted, ops.failed
    )
}
