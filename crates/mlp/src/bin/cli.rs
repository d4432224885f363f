//! `mlp-cli` — command-line front end for the MLP location-profiling
//! system.
//!
//! ```text
//! mlp-cli generate --users 2000 --seed 7 --out data.mlp     # synthesise a dataset
//! mlp-cli stats    --data data.mlp                          # crawl-style statistics
//! mlp-cli profile  --data data.mlp --user 42 [--iters 20]   # one user's profile
//! mlp-cli explain  --data data.mlp --user 42                # geo groups of a user
//! mlp-cli evaluate --data data.mlp [--folds 5]              # masked-home ACC@100
//! mlp-cli train    --data data.mlp --out model.mlps [--train-users N]
//! mlp-cli refresh  --data data.mlp --snapshot model.mlps --out fresh.mlps
//! mlp-cli inspect  --snapshot model.mlps                    # artifact + sidecar log
//! mlp-cli scenario --name migration-wave --users 400 --ticks 8
//! ```
//!
//! Datasets are the binary snapshot format of `mlp::social::codec` (the
//! gazetteer is rebuilt deterministically, so snapshots stay small). Use
//! the same `--cities` value when reading a snapshot as when it was
//! generated — city ids index the gazetteer, and a mismatch is rejected at
//! model construction.
//!
//! `train` and `refresh` both drive the [`ServingEngine`] facade: `train`
//! cold-trains and writes the serving artifact (`PosteriorSnapshot`,
//! format v5; `--train-users N` trains on the first `N` users only,
//! leaving the rest to arrive later); `refresh` thaws the artifact into an
//! engine and absorbs every dataset user beyond the trained count —
//! committing posterior deltas batch by batch, one published epoch per
//! commit, no retrain — then writes the refreshed artifact (base payload +
//! delta records).
//!
//! Every artifact write is atomic (temp file + fsync + rename), and
//! `refresh` opens the snapshot on the durable path: each commit is
//! fsync'd to a sidecar `<snapshot>.wal` *before* it is applied, so a
//! killed refresh loses nothing — rerunning it recovers the committed
//! prefix from the log and carries on from there.
//!
//! `scenario` runs one of the canned event scripts (steady-state,
//! migration-wave, churn-storm, noise-burst) through the closed
//! serve → measure → refresh-or-retrain loop and prints the
//! accuracy-over-time curve; `--json FILE` writes the machine-readable
//! report.

use mlp::core::geo_groups::geo_groups;
use mlp::prelude::*;
use mlp::social::codec;
use mlp::social::{Adjacency, DatasetStats, GroundTruth, StreamingGenerator};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mlp-cli generate --users N [--cities N] [--seed N] --out FILE
  mlp-cli generate-corpus --users N [--chunk N] [--cities N] [--seed N] --out DIR
  mlp-cli stats    --data FILE
  mlp-cli profile  --data FILE --user ID [--iters N] [--seed N]
  mlp-cli explain  --data FILE --user ID [--iters N] [--seed N]
  mlp-cli evaluate --data FILE [--folds N] [--iters N] [--seed N]
  mlp-cli train    --data FILE --out SNAPSHOT [--train-users N] [--iters N] [--seed N]
  mlp-cli train    --corpus DIR --out SNAPSHOT [--shards N] [--reconcile-every K]
                   [--iters N] [--seed N]
  mlp-cli refresh  --data FILE --snapshot SNAPSHOT --out SNAPSHOT [--batch N] [--seed N]
  mlp-cli inspect  --snapshot SNAPSHOT
  mlp-cli scenario [--name SCENARIO] [--users N] [--ticks N] [--cities N]
                   [--seed N] [--iters N] [--json FILE]";

struct Options {
    users: usize,
    cities: usize,
    seed: u64,
    iters: usize,
    folds: usize,
    batch: usize,
    chunk: usize,
    shards: usize,
    reconcile_every: usize,
    ticks: usize,
    user: Option<u32>,
    train_users: Option<usize>,
    name: Option<String>,
    data: Option<String>,
    corpus: Option<String>,
    snapshot: Option<String>,
    out: Option<String>,
    json: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        users: 2_000,
        cities: 300,
        seed: 42,
        iters: 20,
        folds: 5,
        batch: 64,
        chunk: 50_000,
        shards: 1,
        reconcile_every: 2,
        ticks: 8,
        user: None,
        train_users: None,
        name: None,
        data: None,
        corpus: None,
        snapshot: None,
        out: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value")).cloned();
        match flag.as_str() {
            "--users" => o.users = parse_num(&value()?)? as usize,
            "--cities" => o.cities = parse_num(&value()?)? as usize,
            "--seed" => o.seed = parse_num(&value()?)?,
            "--iters" => o.iters = parse_num(&value()?)? as usize,
            "--folds" => o.folds = parse_num(&value()?)? as usize,
            "--batch" => o.batch = parse_num(&value()?)? as usize,
            "--chunk" => o.chunk = parse_num(&value()?)? as usize,
            "--shards" => o.shards = parse_num(&value()?)? as usize,
            "--reconcile-every" => o.reconcile_every = parse_num(&value()?)? as usize,
            "--ticks" => o.ticks = parse_num(&value()?)? as usize,
            "--user" => o.user = Some(parse_num(&value()?)? as u32),
            "--train-users" => o.train_users = Some(parse_num(&value()?)? as usize),
            "--name" => o.name = Some(value()?),
            "--data" => o.data = Some(value()?),
            "--corpus" => o.corpus = Some(value()?),
            "--snapshot" => o.snapshot = Some(value()?),
            "--out" => o.out = Some(value()?),
            "--json" => o.json = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// Parses a number, accepting `_` separators (`--users 1_000_000`).
fn parse_num(s: &str) -> Result<u64, String> {
    s.replace('_', "").parse().map_err(|e| format!("bad number {s}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let o = parse_options(&args[1..])?;
    let gaz =
        Gazetteer::with_synthetic(&SynthConfig { total_cities: o.cities, ..Default::default() });

    match command.as_str() {
        "generate" => {
            let out = o.out.as_deref().ok_or("generate needs --out FILE")?;
            let data = Generator::new(
                &gaz,
                GeneratorConfig { num_users: o.users, seed: o.seed, ..Default::default() },
            )
            .generate();
            let bytes = codec::encode(&data.dataset, &data.truth);
            mlp::core::write_atomic(std::path::Path::new(out), bytes.as_slice())
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {out}: {} users, {} edges, {} mentions ({} bytes)",
                data.dataset.num_users(),
                data.dataset.num_edges(),
                data.dataset.num_mentions(),
                bytes.len()
            );
            Ok(())
        }
        "generate-corpus" => {
            let out = o.out.as_deref().ok_or("generate-corpus needs --out DIR")?;
            if o.chunk == 0 {
                return Err("--chunk must be at least 1".into());
            }
            let config = GeneratorConfig { num_users: o.users, seed: o.seed, ..Default::default() };
            let manifest = StreamingGenerator::new(&gaz, config, o.chunk)
                .write_corpus(std::path::Path::new(out))
                .map_err(|e| format!("writing corpus {out}: {e}"))?;
            println!(
                "wrote {out}: {} users in {} chunks of {} ({} edges, {} mentions)",
                manifest.num_users,
                manifest.num_chunks,
                manifest.chunk_size,
                manifest.total_edges,
                manifest.total_mentions
            );
            Ok(())
        }
        "stats" => {
            let (dataset, truth) = load(&o)?;
            println!("{}", DatasetStats::compute(&dataset, &gaz));
            println!("multi-location users: {}", truth.multi_location_users().len());
            Ok(())
        }
        "profile" => {
            let (dataset, truth) = load(&o)?;
            let user = user_id(&o, &dataset)?;
            let result = infer(&gaz, &dataset, &o);
            println!("user {user}");
            println!("  inferred profile:");
            for &(c, p) in result.profiles[user.index()].iter().take(5) {
                if p > 0.01 {
                    println!("    {:<25} {:>5.1}%", gaz.city(c).full_name(), p * 100.0);
                }
            }
            let names: Vec<String> =
                truth.locations(user).iter().map(|&c| gaz.city(c).full_name()).collect();
            println!("  generator truth: {}", names.join(" / "));
            Ok(())
        }
        "explain" => {
            let (dataset, _) = load(&o)?;
            let user = user_id(&o, &dataset)?;
            let result = infer(&gaz, &dataset, &o);
            let adj = Adjacency::build(&dataset);
            let grouping = geo_groups(&dataset, &adj, &result, user);
            println!("user {user}: {} geo groups", grouping.groups.len());
            for g in &grouping.groups {
                println!("  [{}] {} members", gaz.city(g.location).full_name(), g.members.len());
            }
            println!("  noisy relationships: {}", grouping.noisy.len());
            Ok(())
        }
        "evaluate" => {
            let (dataset, truth) = load(&o)?;
            let folds = Folds::split(&dataset, o.folds.max(2), o.seed);
            let test_users = folds.test_users(0);
            let train = folds.train_view(&dataset, 0);
            let result = Mlp::new(&gaz, &train, mlp_config(&o))
                .map_err(|e| format!("model rejected inputs: {e}"))?
                .run();
            let hits = test_users
                .iter()
                .filter(|&&u| gaz.distance(result.home(u), truth.home(u)) <= 100.0)
                .count();
            println!(
                "masked-home ACC@100 on fold 0: {:.2}% ({hits}/{})",
                100.0 * hits as f64 / test_users.len() as f64,
                test_users.len()
            );
            Ok(())
        }
        "train" => {
            let out = o.out.as_deref().ok_or("train needs --out SNAPSHOT")?;
            if let Some(corpus) = o.corpus.as_deref() {
                // Out-of-core path: stream the chunked corpus, sharded.
                let engine = ServingEngine::builder(&gaz)
                    .mlp_config(mlp_config(&o))
                    .shards(o.shards)
                    .reconcile_every(o.reconcile_every)
                    .train_corpus(std::path::Path::new(corpus))
                    .map_err(|e| format!("training engine: {e}"))?;
                let written =
                    engine.write_artifact(out).map_err(|e| format!("writing {out}: {e}"))?;
                let snapshot = engine.snapshot();
                println!(
                    "wrote {out}: posterior of {} users over {} cities \
                     ({written} bytes, {} shard(s), reconcile every {})",
                    snapshot.num_users(),
                    snapshot.num_cities,
                    o.shards.max(1),
                    o.reconcile_every.max(1),
                );
                return Ok(());
            }
            let (dataset, _) = load(&o)?;
            let n = o.train_users.unwrap_or(dataset.num_users());
            if n == 0 || n > dataset.num_users() {
                return Err(format!(
                    "--train-users {n} out of range (dataset has {})",
                    dataset.num_users()
                ));
            }
            let train = dataset.prefix(n);
            let engine = ServingEngine::builder(&gaz)
                .mlp_config(mlp_config(&o))
                .train(&train)
                .map_err(|e| format!("training engine: {e}"))?;
            let written = engine.write_artifact(out).map_err(|e| format!("writing {out}: {e}"))?;
            let snapshot = engine.snapshot();
            println!(
                "wrote {out}: posterior of {} users over {} cities ({written} bytes)",
                snapshot.num_users(),
                snapshot.num_cities,
            );
            Ok(())
        }
        "refresh" => {
            let snap_path = o.snapshot.as_deref().ok_or("refresh needs --snapshot SNAPSHOT")?;
            let out = o.out.as_deref().ok_or("refresh needs --out SNAPSHOT")?;
            let (dataset, _) = load(&o)?;
            let fold_in = FoldInConfig { seed: o.seed, ..Default::default() };
            let engine = ServingEngine::builder(&gaz)
                .fold_in_config(fold_in)
                .from_artifact_file(snap_path)
                .map_err(|e| format!("loading {snap_path}: {e}"))?;
            if let Some(rec) = engine.recovery_report().filter(|r| r.recovered_anything()) {
                println!(
                    "recovered {} committed deltas ({} users) from {snap_path}.wal{}",
                    rec.replayed_records,
                    rec.replayed_users,
                    if rec.torn_bytes_dropped > 0 {
                        format!(", dropped {} torn bytes", rec.torn_bytes_dropped)
                    } else {
                        String::new()
                    }
                );
            }
            let trained = engine.snapshot().num_users();
            if trained >= dataset.num_users() {
                return Err(format!(
                    "nothing to refresh: snapshot already covers {trained} of {} users",
                    dataset.num_users()
                ));
            }
            let new_users: Vec<UserId> =
                (trained as u32..dataset.num_users() as u32).map(UserId).collect();
            let report = engine
                .refresh_from_dataset(&dataset, &new_users, o.batch.max(1))
                .map_err(|e| format!("refresh failed: {e}"))?;
            for commit in &report.commits {
                println!(
                    "commit {}: +{} users ({} total)",
                    commit.epoch, commit.appended, commit.total_users
                );
            }
            let written = engine.write_artifact(out).map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {out}: {} users, {} delta records, {written} bytes{}",
                engine.snapshot().num_users(),
                engine.commits(),
                if report.needs_retrain {
                    " (staleness policy: schedule a cold retrain)"
                } else {
                    ""
                }
            );
            Ok(())
        }
        "scenario" => {
            let name = o.name.as_deref().unwrap_or("migration-wave");
            let script = ScenarioScript::by_name(name, o.users, o.ticks).ok_or_else(|| {
                format!("unknown scenario {name} (canned: {})", CANNED_SCENARIOS.join(", "))
            })?;
            let config = ScenarioRunConfig {
                generator: GeneratorConfig { seed: o.seed, ..Default::default() },
                mlp: mlp_config(&o),
                ..Default::default()
            };
            let report =
                run_scenario(&gaz, script, &config).map_err(|e| format!("scenario {name}: {e}"))?;
            println!(
                "scenario {name}: {} users, {} ticks, seed {}",
                report.initial_users,
                report.ticks.len(),
                report.seed
            );
            println!("{}", report.render_table());
            println!(
                "initial ACC@100 {:.4} | final {:.4} | {} refreshes, {} retrains | \
                 events {:#018x} | run {:#018x}",
                report.initial_acc,
                report.final_acc_committed().unwrap_or(report.initial_acc),
                report.refreshes(),
                report.retrains(),
                report.event_fingerprint,
                report.determinism_fingerprint()
            );
            if let Some(path) = o.json.as_deref() {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        "inspect" => {
            let path = o.snapshot.as_deref().ok_or("inspect needs --snapshot SNAPSHOT")?;
            let raw = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            let info = mlp::core::snapshot::inspect_artifact(&raw)
                .map_err(|e| format!("inspecting {path}: {e}"))?;
            println!("{path}: snapshot format v{} ({} bytes)", info.version, info.total_bytes);
            println!(
                "  {:?} posterior: {} users over {} cities, {} venues",
                info.variant, info.num_users, info.num_cities, info.num_venues
            );
            println!(
                "  slabs: {} user candidate entries, {} venue count entries",
                info.user_nnz, info.venue_nnz
            );
            println!("  gazetteer fingerprint {:016x}", info.gaz_fingerprint);
            println!("  artifact fingerprint  {:016x}", mlp::core::wal::artifact_fingerprint(&raw));
            println!("  embedded delta records: {}", info.delta_records);
            println!("  section table ({} sections, 64-byte aligned):", info.sections.len());
            for s in &info.sections {
                println!(
                    "    {:<18} offset {:>12}  len {:>12}  crc {:08x}",
                    s.name, s.offset, s.len, s.crc
                );
            }
            let wal_path = format!("{path}.wal");
            match mlp::core::wal::inspect_log(std::path::Path::new(&wal_path))
                .map_err(|e| format!("reading {wal_path}: {e}"))?
            {
                None => println!("  sidecar log: none"),
                Some(w) => {
                    let binding = if w.fingerprint == mlp::core::wal::artifact_fingerprint(&raw) {
                        "bound to this artifact"
                    } else {
                        "STALE: bound to a different base"
                    };
                    println!(
                        "  sidecar log: {} committed records, {} bytes ({binding}{})",
                        w.records,
                        w.bytes,
                        if w.torn_bytes > 0 {
                            format!(", {} torn tail bytes", w.torn_bytes)
                        } else {
                            String::new()
                        }
                    );
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn load(o: &Options) -> Result<(Dataset, GroundTruth), String> {
    let path = o.data.as_deref().ok_or("this command needs --data FILE")?;
    let raw = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    codec::decode(raw.into()).map_err(|e| format!("decoding {path}: {e}"))
}

fn user_id(o: &Options, dataset: &Dataset) -> Result<UserId, String> {
    let id = o.user.ok_or("this command needs --user ID")?;
    if (id as usize) >= dataset.num_users() {
        return Err(format!("user {id} out of range (dataset has {})", dataset.num_users()));
    }
    Ok(UserId(id))
}

/// The one place `--iters`/`--seed` become an inference config. Burn-in
/// is half the chain, which stays strictly below it for every
/// `--iters >= 1` (`--iters 1` runs a single accumulated sweep).
fn mlp_config(o: &Options) -> MlpConfig {
    MlpConfig { iterations: o.iters, burn_in: o.iters / 2, seed: o.seed, ..Default::default() }
}

fn infer(gaz: &Gazetteer, dataset: &Dataset, o: &Options) -> MlpResult {
    Mlp::new(gaz, dataset, mlp_config(o)).expect("snapshot datasets are valid").run()
}
