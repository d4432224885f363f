//! Tiny-size passes of every workload: each must pass cleanly, traced and
//! untraced, and each must fail — reporting no numbers — when one of its
//! answers is corrupted.

use mlp_core::{Mlp, MlpConfig};
use mlp_gazetteer::Gazetteer;
use mlp_social::{Generator, GeneratorConfig};
use perfbench::plan::{Corrupt, Plan, Workload};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::Trace;
use std::path::PathBuf;

fn tiny(workload: Workload, tag: &str) -> Plan {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", workload.name()));
    Plan::tiny(workload, 5, dir)
}

#[test]
fn every_workload_passes_untraced_and_traced() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let plan = Plan { trace, ..tiny(workload, if trace { "traced" } else { "plain" }) };
            let out = perfbench::run(&plan);
            assert_eq!(out.verdict, Ok(()), "{} trace={trace}: {:#?}", workload.name(), out.lines);
            assert_eq!(out.ops.failed, 0);
            let line = out.result_line();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            let declared = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in declared {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing: {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing");
            }
            assert!(!plan.data_dir.exists(), "scratch data must be removed");
        }
    }
}

#[test]
fn corrupted_answers_fail_the_run_without_numbers() {
    for (workload, corrupt) in [
        (Workload::Train, Corrupt::TrainedPosterior),
        (Workload::Serve, Corrupt::ServedAnswer),
        (Workload::Refresh, Corrupt::LiveEncoding),
    ] {
        let plan = Plan { corrupt, ..tiny(workload, "corrupt") };
        let out = perfbench::run(&plan);
        let err = out.verdict.as_ref().expect_err("a corrupted answer must fail the run");
        assert!(err.starts_with("correctness check failed"), "{}: {err}", workload.name());
        assert!(out.result_line().starts_with("{\"correct\": false"));
        assert!(out.result_line().ends_with("\"metrics\": {}}"));
    }
}

#[test]
fn traced_training_rebuild_extracts_the_library_assignments() {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: 250, seed: 9, ..Default::default() })
            .generate();
    let config = MlpConfig { iterations: 4, burn_in: 2, ..Default::default() };
    let expected = Mlp::new(&gaz, &data.dataset, config.clone()).unwrap().run();
    let (_, out) =
        perfbench::rebuilt::train(&gaz, &data.dataset, &config, &mut Trace::new()).unwrap();
    assert_eq!(out.assignments.0, expected.edge_assignments);
    assert_eq!(out.assignments.1, expected.mention_assignments);
    assert_eq!(out.mean_candidates, expected.mean_candidates);
}

#[test]
fn benchmark_json_declares_what_the_runs_report() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
