//! Closed-loop serving load generator (see `mlp_bench::load`).
//!
//! ```text
//! serve_load [--users N] [--churn-pool N] [--clients N] [--seconds F]
//!            [--seed N] [--threads N] [--coalesce N] [--no-churn]
//!            [--churn-batch N] [--artifact FILE] [--kill-after F]
//!            [--compact-bytes N] [--smoke] [--recover] [--help]
//! ```
//!
//! Default mode trains a synthetic posterior and races closed-loop
//! clients against a background refresh writer, printing sustained QPS
//! and p50/p90/p99/p999 latency. `--smoke` is the CI gate: a sub-second
//! run that must serve without a single error. `--help` prints the usage
//! block above; a bad flag prints it to stderr and exits 2.
//!
//! `--artifact FILE` makes the run file-backed on the durable path:
//! every churn commit is fsync'd to the sidecar `FILE.wal` before it
//! publishes, and `--kill-after S` aborts the process mid-churn — the
//! crash half of the crash-recovery harness. `--recover` (with the same
//! flags) is the other half: it reopens the artifact, replays the
//! committed log, truncates any torn tail, and asserts the recovered
//! posterior byte-identical — and bit-identically serving — versus an
//! uninterrupted replay of the same churn waves.

use mlp_bench::load::{self, LoadConfig, LoadMode};
use mlp_bench::{doc_usage, parse_cli};

fn main() {
    let usage = doc_usage(include_str!("serve_load.rs"));
    let (config, mode) = parse_cli(&usage, LoadConfig::parse_from);
    println!("{}", config.banner());
    run_mode(config, mode);
    println!("peak rss: {}", mlp_bench::peak_rss_display());
}

fn run_mode(config: LoadConfig, mode: LoadMode) {
    match mode {
        LoadMode::Measure => {
            let report = load::run(&config).expect("load run");
            println!("{}", report.summary());
        }
        LoadMode::Smoke => {
            let report = load::run(&config).expect("smoke run");
            println!("{}", report.summary());
            assert!(report.qps() > 0.0, "smoke: engine served nothing");
            assert_eq!(report.errors, 0, "smoke: serving errors under churn");
            assert_eq!(report.churn_errors, 0, "smoke: churn writer errored");
            println!("smoke: ok");
        }
        LoadMode::Recover => {
            let summary = load::recover(&config).expect("recover run");
            println!("{}", summary.summary());
            println!("recover: ok");
        }
    }
}
