//! Scenario benchmark: accuracy-over-time under event-scripted drift and
//! churn, with the closed-loop auto-retrain policy in charge (PR 10).
//!
//! ```text
//! scenario_bench [--users N] [--ticks N] [--seed N] [--iters N]
//!                [--requests N] [--scenarios a,b,c] [--json FILE] [--smoke]
//! ```
//!
//! Runs each named canned scenario (default: all four — steady-state,
//! migration-wave, churn-storm, noise-burst) through
//! `mlp_eval::run_scenario`: the world evolves per the script, a live
//! `ServingEngine` serves every tick, and the engine's own
//! `StalenessPolicy` + drift signal decide between incremental refresh
//! and a full in-place retrain. Prints each per-tick curve and a summary
//! row per scenario.
//!
//! `--json FILE` writes all reports machine-readably (BENCH_10.json).
//! `--smoke` turns the run into the CI gate: zero errors, every tick
//! present and monotone, steady-state never retrains, and the migration
//! wave must trigger at least one auto-refresh *and* one drift-triggered
//! retrain whose committed accuracy recovers above the dip it reacted to.

use mlp_bench::{chain_config, doc_usage, parse_cli, write_json_report, Flags};
use mlp_eval::{run_scenario, ScenarioReport, ScenarioRunConfig, TextTable, TickAction};
use mlp_gazetteer::Gazetteer;
use mlp_social::{GeneratorConfig, ScenarioScript, CANNED_SCENARIOS};
use std::path::PathBuf;

struct Args {
    users: usize,
    ticks: usize,
    seed: u64,
    iters: usize,
    requests: usize,
    scenarios: Vec<String>,
    json: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut a = Args {
        users: 400,
        ticks: 8,
        seed: 2012,
        iters: 8,
        requests: 8,
        scenarios: CANNED_SCENARIOS.iter().map(|s| s.to_string()).collect(),
        json: None,
        smoke: false,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--users" => a.users = flags.num(&flag)?,
            "--ticks" => a.ticks = flags.num(&flag)?,
            "--seed" => a.seed = flags.num(&flag)?,
            "--iters" => a.iters = flags.iters(&flag)?,
            "--requests" => a.requests = flags.num(&flag)?,
            "--scenarios" => {
                a.scenarios =
                    flags.value(&flag)?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--json" => a.json = Some(PathBuf::from(flags.value(&flag)?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = a.scenarios.iter().find(|n| !CANNED_SCENARIOS.contains(&n.as_str())) {
        return Err(format!("unknown scenario {name} (canned: {})", CANNED_SCENARIOS.join(", ")));
    }
    Ok(a)
}

fn main() {
    let a = parse_cli(&doc_usage(include_str!("scenario_bench.rs")), parse_args);
    let gaz = Gazetteer::us_cities();
    println!(
        "# scenario_bench | users={} ticks={} seed={} iters={} requests={} scenarios={:?}",
        a.users, a.ticks, a.seed, a.iters, a.requests, a.scenarios
    );

    let config = ScenarioRunConfig {
        generator: GeneratorConfig { seed: a.seed, ..Default::default() },
        mlp: chain_config(a.iters, a.seed),
        requests_per_tick: a.requests,
        ..Default::default()
    };

    let mut reports: Vec<ScenarioReport> = Vec::new();
    for name in &a.scenarios {
        let script =
            ScenarioScript::by_name(name, a.users, a.ticks).expect("names checked at parse time");
        let report =
            run_scenario(&gaz, script, &config).unwrap_or_else(|e| panic!("scenario {name}: {e}"));
        println!("\n## {name}");
        println!("{}", report.render_table());
        reports.push(report);
    }

    let mut summary = TextTable::new(vec![
        "scenario",
        "ticks",
        "acc_0",
        "acc_min",
        "acc_final",
        "refreshes",
        "retrains",
        "events",
    ]);
    for r in &reports {
        summary.add_row(vec![
            r.scenario.clone(),
            r.ticks.len().to_string(),
            format!("{:.4}", r.initial_acc),
            format!("{:.4}", r.min_acc_served().map_or(r.initial_acc, |(_, a)| a)),
            format!("{:.4}", r.final_acc_committed().unwrap_or(r.initial_acc)),
            r.refreshes().to_string(),
            r.retrains().to_string(),
            format!("{:#018x}", r.event_fingerprint),
        ]);
    }
    println!("\n{}", summary.render());

    if let Some(path) = &a.json {
        let bodies: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        let params = [
            ("users", &a.users as &dyn std::fmt::Display),
            ("ticks", &a.ticks),
            ("seed", &a.seed),
            ("iters", &a.iters),
            ("requests_per_tick", &a.requests),
            ("drift_threshold", &config.staleness.drift_threshold),
        ];
        match write_json_report(path, "scenario", &params, "scenarios", &bodies) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if a.smoke {
        smoke_gate(&reports, a.ticks);
        println!("smoke gate: ok");
    }
}

/// The CI assertions: every scenario ran every tick in order, the policy
/// stayed quiet in steady state, and the migration wave exercised the
/// whole closed loop (refresh, drift-triggered retrain, recovery).
fn smoke_gate(reports: &[ScenarioReport], ticks: usize) {
    for r in reports {
        assert_eq!(r.ticks.len(), ticks, "{}: missing ticks", r.scenario);
        for (i, t) in r.ticks.iter().enumerate() {
            assert_eq!(t.tick, i + 1, "{}: tick stream not monotone", r.scenario);
        }
        match r.scenario.as_str() {
            "steady-state" => {
                assert_eq!(r.retrains(), 0, "steady-state must not retrain");
                assert!(r.refreshes() >= 1, "steady-state arrivals must refresh");
            }
            "migration-wave" => {
                assert!(r.refreshes() >= 1, "migration-wave must auto-refresh");
                assert!(r.retrains() >= 1, "migration-wave must auto-retrain");
                let retrain = r
                    .ticks
                    .iter()
                    .find(|t| matches!(t.action, TickAction::Retrain { .. }))
                    .expect("retrain tick");
                let (_, dip) = r.min_acc_served().expect("non-empty run");
                assert!(
                    retrain.acc_committed > dip,
                    "retrain must recover above the dip: dip={dip}, committed={}",
                    retrain.acc_committed
                );
            }
            _ => {}
        }
    }
}
