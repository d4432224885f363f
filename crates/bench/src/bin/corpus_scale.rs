//! Corpus-scale benchmark: out-of-core training cost and memory versus
//! corpus size (PR 8).
//!
//! ```text
//! corpus_scale [--sizes 10_000,100_000,1_000_000] [--chunk 50_000]
//!              [--shards 8] [--reconcile-every 2] [--iters 4]
//!              [--cities N] [--seed N] [--serve-requests N]
//!              [--json FILE] [--rss-budget-mb N]
//! ```
//!
//! For each size the harness streams a chunked corpus to disk
//! (`StreamingGenerator::write_corpus`), trains the sharded out-of-core
//! path through the `ServingEngine` facade, then serves a closed loop of
//! fold-in requests against the frozen posterior. It reports ms/sweep
//! (wall-clock training time over Gibbs sweeps, streaming setup passes
//! included), serving QPS with p50/p99 latency, and the process peak RSS
//! (`VmHWM`) after each phase. Sizes run ascending in one process, so
//! each size's RSS reading is taken before any larger corpus allocates.
//!
//! `--json FILE` writes the same rows machine-readably (BENCH_8.json);
//! `--rss-budget-mb N` makes the run fail if peak RSS exceeds the budget
//! — the CI large-corpus smoke gate. Off Linux (no `VmHWM`) the RSS
//! column degrades to "n/a" (`null` in JSON) and the budget check is
//! skipped with a notice instead of vacuously passing.

use mlp_bench::{doc_usage, mb_cell, mb_json, parse_cli, peak_rss_mb, Flags};
use mlp_core::{MlpConfig, NewUserObservations, ProfileRequest, ServingEngine};
use mlp_gazetteer::{Gazetteer, SynthConfig, VenueId};
use mlp_social::stream::StreamingGenerator;
use mlp_social::{GeneratorConfig, UserId};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    sizes: Vec<usize>,
    chunk: usize,
    shards: usize,
    reconcile_every: usize,
    iters: usize,
    cities: usize,
    seed: u64,
    serve_requests: usize,
    json: Option<PathBuf>,
    rss_budget_mb: Option<u64>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut a = Args {
        sizes: vec![10_000, 100_000],
        chunk: 50_000,
        shards: 8,
        reconcile_every: 2,
        iters: 4,
        cities: 300,
        seed: 2012,
        serve_requests: 100,
        json: None,
        rss_budget_mb: None,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--sizes" => a.sizes = flags.nums(&flag)?,
            "--chunk" => a.chunk = flags.num(&flag)?,
            "--shards" => a.shards = flags.num(&flag)?,
            "--reconcile-every" => a.reconcile_every = flags.num(&flag)?,
            "--iters" => a.iters = flags.num(&flag)?,
            "--cities" => a.cities = flags.num(&flag)?,
            "--seed" => a.seed = flags.num(&flag)?,
            "--serve-requests" => a.serve_requests = flags.num(&flag)?,
            "--json" => a.json = Some(PathBuf::from(flags.value(&flag)?)),
            "--rss-budget-mb" => a.rss_budget_mb = Some(flags.num(&flag)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    a.sizes.sort_unstable();
    Ok(a)
}

struct Row {
    users: usize,
    gen_secs: f64,
    train_secs: f64,
    ms_per_sweep: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// `None` off Linux / missing `VmHWM` — reported as "n/a" / `null`.
    peak_rss_mb: Option<f64>,
}

fn main() {
    let a = parse_cli(&doc_usage(include_str!("corpus_scale.rs")), parse_args);
    let gaz =
        Gazetteer::with_synthetic(&SynthConfig { total_cities: a.cities, ..Default::default() });
    println!(
        "# corpus_scale | sizes={:?} chunk={} shards={} reconcile_every={} iters={} \
         cities={} seed={}",
        a.sizes, a.chunk, a.shards, a.reconcile_every, a.iters, a.cities, a.seed
    );

    let mut rows = Vec::new();
    for &users in &a.sizes {
        let dir =
            std::env::temp_dir().join(format!("mlp_corpus_scale_{users}_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }

        let t = Instant::now();
        let config = GeneratorConfig { num_users: users, seed: a.seed, ..Default::default() };
        let manifest = StreamingGenerator::new(&gaz, config, a.chunk)
            .write_corpus(&dir)
            .expect("corpus generation");
        let gen_secs = t.elapsed().as_secs_f64();
        println!(
            "[{users}] corpus: {} chunks, {} edges, {} mentions in {gen_secs:.1}s",
            manifest.num_chunks, manifest.total_edges, manifest.total_mentions
        );

        let t = Instant::now();
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(MlpConfig {
                iterations: a.iters,
                burn_in: (a.iters / 2).max(1),
                seed: a.seed,
                ..Default::default()
            })
            .shards(a.shards)
            .reconcile_every(a.reconcile_every)
            .train_corpus(&dir)
            .expect("out-of-core training");
        let train_secs = t.elapsed().as_secs_f64();
        let ms_per_sweep = train_secs * 1000.0 / a.iters as f64;
        println!("[{users}] train: {train_secs:.1}s total, {ms_per_sweep:.0} ms/sweep");

        // Closed-loop serving: synthetic unseen users with deterministic
        // observations over the trained population.
        let requests: Vec<ProfileRequest> = (0..a.serve_requests)
            .map(|r| {
                let pick =
                    |i: u64, m: usize| ((r as u64 * 2654435761 + i * 40503) % m as u64) as u32;
                ProfileRequest::new(NewUserObservations {
                    neighbors: (0..3).map(|i| UserId(pick(i, users))).collect(),
                    mentions: (0..3).map(|i| VenueId(pick(i + 7, gaz.num_venues()))).collect(),
                })
            })
            .collect();
        let mut lat_ms: Vec<f64> = Vec::with_capacity(requests.len());
        let t = Instant::now();
        for req in &requests {
            let t0 = Instant::now();
            engine.profile(req).expect("serving request");
            lat_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
        let serve_secs = t.elapsed().as_secs_f64();
        lat_ms.sort_by(f64::total_cmp);
        let pct = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p) as usize];
        let (p50_ms, p99_ms) = (pct(0.50), pct(0.99));
        let qps = requests.len() as f64 / serve_secs;

        let peak_rss_mb = peak_rss_mb();
        println!(
            "[{users}] serve: {qps:.0} QPS, p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms | \
             peak rss {} MiB",
            mb_cell(peak_rss_mb)
        );

        std::fs::remove_dir_all(&dir).ok();
        rows.push(Row {
            users,
            gen_secs,
            train_secs,
            ms_per_sweep,
            qps,
            p50_ms,
            p99_ms,
            peak_rss_mb,
        });
    }

    if let Some(path) = &a.json {
        let entries: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"users\": {}, \"gen_secs\": {:.2}, \"train_secs\": {:.2}, \
                     \"ms_per_sweep\": {:.1}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"peak_rss_mb\": {}}}",
                    r.users,
                    r.gen_secs,
                    r.train_secs,
                    r.ms_per_sweep,
                    r.qps,
                    r.p50_ms,
                    r.p99_ms,
                    mb_json(r.peak_rss_mb)
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"corpus_scale\",\n  \"chunk\": {},\n  \"shards\": {},\n  \
             \"reconcile_every\": {},\n  \"iters\": {},\n  \"cities\": {},\n  \"seed\": {},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            a.chunk,
            a.shards,
            a.reconcile_every,
            a.iters,
            a.cities,
            a.seed,
            entries.join(",\n")
        );
        std::fs::write(path, json).expect("writing json report");
        println!("wrote {}", path.display());
    }

    if let Some(budget) = a.rss_budget_mb {
        // Skip (loudly) rather than vacuously pass when the platform
        // offers no reading — a 0 would wave any budget through.
        match peak_rss_mb() {
            Some(mb) => {
                let peak_mb = mb.ceil() as u64;
                assert!(
                    peak_mb <= budget,
                    "peak RSS {peak_mb} MiB exceeds the {budget} MiB budget"
                );
                println!("rss budget: {peak_mb} MiB <= {budget} MiB, ok");
            }
            None => println!("rss budget: no VmHWM reading on this platform, budget not checked"),
        }
    }
}
