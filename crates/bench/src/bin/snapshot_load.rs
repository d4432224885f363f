//! Cold-start benchmark: copied decode vs zero-copy mapped open of a v5
//! serving artifact (PR 9).
//!
//! ```text
//! snapshot_load [--sizes 10_000,100_000,1_000_000] [--cities N]
//!               [--candidates K] [--seed N] [--json FILE]
//!               [--budget-ms N] [--rss-budget-mb N] [--min-speedup X]
//! ```
//!
//! For each size the harness synthesises a structurally valid posterior
//! of that many users (no training — this measures the storage layer),
//! writes the v5 artifact to disk, then opens it twice: once through the
//! copying decode (`PosteriorSnapshot::decode`, every slab materialised
//! on the heap) and once through the mapped path
//! (`PosteriorSnapshot::open_mapped`, slabs borrowed from the page
//! cache). It reports wall-clock open time and the resident-memory
//! growth of each open, split into anonymous (heap duplication — the
//! cost the mapped path removes) and file-backed (page cache the kernel
//! can evict) components. A value probe asserts both opens thaw the same
//! posterior before any number is reported.
//!
//! `--json FILE` writes the rows machine-readably (BENCH_9.json). The
//! gate flags make the run fail loudly — the CI cold-start smoke:
//! `--budget-ms` bounds the full-verify mapped open, `--rss-budget-mb`
//! bounds its *anonymous* RSS growth, and `--min-speedup` bounds
//! copied ÷ structural — the O(structure) open whose headroom (~30x on
//! the reference box) survives a noisy shared runner, where the
//! full-verify ratio (~3x, both sides I/O-bound) would flake.

use bytes::Bytes;
use mlp_bench::{current_rss, doc_usage, parse_cli, write_json_report, Flags};
use mlp_core::snapshot::{gazetteer_fingerprint, Integrity, PosteriorSnapshot, UserPosterior};
use mlp_core::{UserArena, VenueArena};
use mlp_gazetteer::{CityId, Gazetteer, SynthConfig};
use mlp_geo::PowerLaw;
use mlp_social::UserId;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    sizes: Vec<usize>,
    cities: usize,
    candidates: usize,
    seed: u64,
    json: Option<PathBuf>,
    budget_ms: Option<f64>,
    rss_budget_mb: Option<f64>,
    min_speedup: Option<f64>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut a = Args {
        sizes: vec![10_000, 100_000, 1_000_000],
        cities: 300,
        candidates: 4,
        seed: 2012,
        json: None,
        budget_ms: None,
        rss_budget_mb: None,
        min_speedup: None,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--sizes" => a.sizes = flags.nums(&flag)?,
            "--cities" => a.cities = flags.num(&flag)?,
            "--candidates" => a.candidates = flags.num(&flag)?,
            "--seed" => a.seed = flags.num(&flag)?,
            "--json" => a.json = Some(PathBuf::from(flags.value(&flag)?)),
            "--budget-ms" => a.budget_ms = Some(flags.num(&flag)?),
            "--rss-budget-mb" => a.rss_budget_mb = Some(flags.num(&flag)?),
            "--min-speedup" => a.min_speedup = Some(flags.num(&flag)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.candidates == 0 {
        return Err("--candidates must be at least 1".into());
    }
    a.sizes.sort_unstable();
    Ok(a)
}

/// A deterministic, structurally valid posterior of `users` users: `k`
/// sorted candidate cities each, plus a sparse venue-count arena. The
/// content is arbitrary — only the slab shapes and sizes matter here.
fn synth_snapshot(gaz: &Gazetteer, users: usize, k: usize, seed: u64) -> PosteriorSnapshot {
    let cities = gaz.num_cities() as u64;
    let venues = gaz.num_venues() as u64;
    let mut state = seed | 1;
    let mut next = move || {
        // splitmix64 — cheap, deterministic, good enough for shapes.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let arena = UserArena::from_users((0..users).map(|_| {
        let mut cand: Vec<u32> = (0..k).map(|_| (next() % cities) as u32).collect();
        cand.sort_unstable();
        cand.dedup();
        let n = cand.len();
        let mean_counts: Vec<f64> = (0..n).map(|_| (next() % 16) as f64 / 4.0 + 0.25).collect();
        let mean_total = mean_counts.iter().sum();
        let gammas: Vec<f64> = (0..n).map(|_| (next() % 64) as f64 / 64.0 + 0.05).collect();
        let gamma_total = gammas.iter().sum();
        UserPosterior {
            home: CityId(cand[(next() as usize) % n]),
            candidates: cand.into_iter().map(CityId).collect(),
            gammas,
            mean_counts,
            mean_total,
            gamma_total,
        }
    }));

    let venues_arena = VenueArena::from_rows((0..cities).map(|_| {
        let mut ids: Vec<u32> = (0..6).map(|_| (next() % venues) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|v| (v, (next() % 32) as f64 / 8.0 + 0.125)).collect::<Vec<_>>()
    }));

    let venue_probs: Vec<f64> = vec![1.0 / venues as f64; venues as usize];
    PosteriorSnapshot {
        variant: mlp_core::Variant::Full,
        count_noisy_assignments: false,
        tau: 0.1,
        delta: 0.05,
        rho_f: 0.15,
        rho_t: 0.2,
        power_law: PowerLaw { alpha: -0.55, beta: 0.0045 },
        follow_prob: 0.5,
        venue_probs,
        num_cities: gaz.num_cities() as u32,
        num_venues: gaz.num_venues() as u32,
        gaz_fingerprint: gazetteer_fingerprint(gaz),
        users: arena,
        venues: venues_arena,
    }
}

/// A cheap value probe over sampled users — equal probes on both open
/// paths certify they thawed the same posterior without an O(n) compare.
fn probe(snap: &PosteriorSnapshot) -> f64 {
    let n = snap.num_users();
    let stride = (n / 97).max(1);
    let mut acc = snap.venues.city_total(CityId(0));
    let mut u = 0;
    while u < n {
        let view = snap.users.user(UserId(u as u32));
        acc += view.mean_total + view.gamma_total + view.home.0 as f64;
        acc += view.gammas.first().copied().unwrap_or(0.0);
        u += stride;
    }
    acc
}

struct Row {
    users: usize,
    file_mb: f64,
    copied_ms: f64,
    copied_anon_mb: f64,
    copied_total_mb: f64,
    mapped_ms: f64,
    mapped_anon_mb: f64,
    mapped_total_mb: f64,
    speedup: f64,
    fast_ms: f64,
    fast_speedup: f64,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let a = parse_cli(&doc_usage(include_str!("snapshot_load.rs")), parse_args);
    let gaz =
        Gazetteer::with_synthetic(&SynthConfig { total_cities: a.cities, ..Default::default() });
    println!(
        "# snapshot_load | sizes={:?} cities={} candidates={} seed={}",
        a.sizes, a.cities, a.candidates, a.seed
    );

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for &users in &a.sizes {
        let path = std::env::temp_dir()
            .join(format!("mlp_snapshot_load_{users}_{}.mlps", std::process::id()));
        let built = synth_snapshot(&gaz, users, a.candidates, a.seed);
        let artifact = built.try_encode().expect("encoding artifact");
        std::fs::write(&path, artifact.as_slice()).expect("writing artifact");
        let file_mb = mb(artifact.len() as u64);
        let expected_probe = probe(&built);
        drop((built, artifact));

        // Copied decode: read the file, materialise every slab.
        let rss0 = current_rss().unwrap_or_default();
        let t = Instant::now();
        let raw = std::fs::read(&path).expect("reading artifact");
        let copied = PosteriorSnapshot::decode(Bytes::from(raw)).expect("copied decode");
        let copied_ms = t.elapsed().as_secs_f64() * 1000.0;
        let copied_rss = current_rss().unwrap_or_default().delta_since(&rss0);
        assert!(!copied.is_zero_copy());
        assert_eq!(probe(&copied), expected_probe, "copied probe");
        drop(copied);

        // Mapped open: borrow the slabs from the page cache. The file is
        // warm from the write above — both paths see the same cache.
        let rss0 = current_rss().unwrap_or_default();
        let t = Instant::now();
        let map = Arc::new(mmap_lite::Mmap::open(&path).expect("mapping artifact"));
        let mapped = PosteriorSnapshot::open_mapped(&map).expect("mapped open");
        let mapped_ms = t.elapsed().as_secs_f64() * 1000.0;
        let mapped_rss = current_rss().unwrap_or_default().delta_since(&rss0);
        assert!(mapped.is_zero_copy(), "v5 open must borrow, not copy");
        assert_eq!(probe(&mapped), expected_probe, "mapped probe");
        drop((mapped, map));

        // Mapped open under structural-only verification: the open
        // touches the offset/id sections and nothing else, so the float
        // payloads (most of the file) are left to fault in on demand.
        let t = Instant::now();
        let map = Arc::new(mmap_lite::Mmap::open(&path).expect("mapping artifact"));
        let fast =
            PosteriorSnapshot::open_mapped_with(&map, Integrity::Structural).expect("fast open");
        let fast_ms = t.elapsed().as_secs_f64() * 1000.0;
        assert!(fast.is_zero_copy());
        assert_eq!(probe(&fast), expected_probe, "structural-open probe");
        drop((fast, map));
        std::fs::remove_file(&path).ok();

        let speedup = copied_ms / mapped_ms.max(1e-9);
        let fast_speedup = copied_ms / fast_ms.max(1e-9);
        println!(
            "[{users}] artifact {file_mb:.1} MiB | copied {copied_ms:.1} ms \
             (+{:.1} MiB anon) | mapped+verify {mapped_ms:.1} ms (+{:.1} MiB anon, \
             +{:.1} MiB file-backed) {speedup:.1}x | mapped+structural {fast_ms:.1} ms \
             {fast_speedup:.1}x",
            mb(copied_rss.anon),
            mb(mapped_rss.anon),
            mb(mapped_rss.file),
        );

        if let Some(budget) = a.budget_ms {
            if mapped_ms > budget {
                failures.push(format!("[{users}] mapped open {mapped_ms:.1} ms > {budget} ms"));
            }
        }
        if let Some(budget) = a.rss_budget_mb {
            if mb(mapped_rss.anon) > budget {
                failures.push(format!(
                    "[{users}] mapped anon RSS +{:.1} MiB > {budget} MiB",
                    mb(mapped_rss.anon)
                ));
            }
        }
        if let Some(min) = a.min_speedup {
            if fast_speedup < min {
                failures.push(format!("[{users}] structural speedup {fast_speedup:.1}x < {min}x"));
            }
        }

        rows.push(Row {
            users,
            file_mb,
            copied_ms,
            copied_anon_mb: mb(copied_rss.anon),
            copied_total_mb: mb(copied_rss.total),
            mapped_ms,
            mapped_anon_mb: mb(mapped_rss.anon),
            mapped_total_mb: mb(mapped_rss.total),
            speedup,
            fast_ms,
            fast_speedup,
        });
    }

    if let Some(path) = &a.json {
        let entries: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"users\": {}, \"file_mb\": {:.1}, \"copied_open_ms\": {:.2}, \
                     \"copied_rss_anon_mb\": {:.1}, \"copied_rss_total_mb\": {:.1}, \
                     \"mapped_open_ms\": {:.2}, \"mapped_rss_anon_mb\": {:.1}, \
                     \"mapped_rss_total_mb\": {:.1}, \"speedup\": {:.1}, \
                     \"structural_open_ms\": {:.2}, \"structural_speedup\": {:.1}}}",
                    r.users,
                    r.file_mb,
                    r.copied_ms,
                    r.copied_anon_mb,
                    r.copied_total_mb,
                    r.mapped_ms,
                    r.mapped_anon_mb,
                    r.mapped_total_mb,
                    r.speedup,
                    r.fast_ms,
                    r.fast_speedup
                )
            })
            .collect();
        let params = [
            ("cities", &a.cities as &dyn std::fmt::Display),
            ("candidates", &a.candidates),
            ("seed", &a.seed),
        ];
        match write_json_report(path, "snapshot_load", &params, "rows", &entries) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
