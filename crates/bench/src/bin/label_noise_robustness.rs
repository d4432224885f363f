//! Extension experiment (not in the paper): robustness to registered-label
//! noise.
//!
//! The paper takes registered locations as ground truth while conceding
//! "some registered locations are incorrect, but we believe they are rare".
//! This binary quantifies what happens when they are *not* rare: it sweeps
//! the fraction of corrupted registered labels and compares how BaseU
//! (which consumes neighbor labels directly) and MLP (which treats labels
//! as one more noisy signal inside a mixture) degrade on masked-home
//! prediction.

use mlp_bench::{chain_config, BenchArgs};
use mlp_eval::{table::pct, ExperimentContext, HomeTask, Method, TextTable};
use mlp_gazetteer::{Gazetteer, SynthConfig};
use mlp_social::GeneratorConfig;

fn main() {
    let args = BenchArgs::parse();
    println!("{}", args.banner("Extension: robustness to registered-label noise"));

    let mut table = TextTable::new(vec!["label noise", "BaseU", "MLP_U", "MLP"]);
    for noise in [0.0, 0.1, 0.2, 0.3] {
        let gaz = Gazetteer::with_synthetic(&SynthConfig {
            total_cities: args.cities,
            seed: args.seed,
            ..Default::default()
        });
        let gen_config = GeneratorConfig {
            num_users: args.users,
            seed: args.seed,
            label_noise_fraction: noise,
            ..Default::default()
        };
        let mlp_config = chain_config(args.iters, args.seed);
        let ctx = ExperimentContext::with_configs(gaz, gen_config, mlp_config, 5);
        let mut task = HomeTask::new(&ctx);
        task.folds_to_run = 1;
        let base_u = task.run_method(Method::BaseU).acc_at_100;
        let mlp_u = task.run_method(Method::MlpU).acc_at_100;
        let mlp = task.run_method(Method::Mlp).acc_at_100;
        table.add_row(vec![format!("{:.0}%", noise * 100.0), pct(base_u), pct(mlp_u), pct(mlp)]);
        eprintln!("  done: noise {noise}");
    }
    println!("{table}");
    println!(
        "shape check: all methods degrade with label noise; MLP's content channel \
         and noise mixture should cushion the fall relative to BaseU"
    );
}
