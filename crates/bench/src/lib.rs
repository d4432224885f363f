//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation section (Sec. 5).
//!
//! One binary per artifact (see DESIGN.md's per-experiment index):
//!
//! | artifact | binary |
//! |---|---|
//! | Fig. 3(a–c) data analysis | `fig3_observations` |
//! | Tab. 2 home prediction    | `table2_home_prediction` |
//! | Fig. 4 AAD curves         | `fig4_aad_curves` |
//! | Fig. 5 convergence        | `fig5_convergence` |
//! | Tab. 3 multi-location     | `table3_multi_location` |
//! | Figs. 6–7 DP/DR at K      | `fig6_7_dp_dr_at_k` |
//! | Tab. 4 discovery cases    | `table4_case_studies` |
//! | Fig. 8 explanation        | `fig8_relationship_explanation` |
//! | Tab. 5 explanation cases  | `table5_relationship_cases` |
//! | design-choice ablations   | `ablations` |
//! | crawl statistics (Sec. 5) | `dataset_stats` |
//!
//! Criterion microbenches live in `benches/`. Every binary accepts
//! `--users N --cities N --seed N --iters N --folds N --quick`. Every bench
//! binary parses its command line through [`parse_cli`]: `--help` prints
//! its usage and exits 0, and a bad flag prints usage to stderr and exits
//! 2.
//!
//! Beyond the paper artifacts, [`load`] is the closed-loop serving load
//! generator behind the `serve_load` binary (sustained QPS and tail
//! latency against [`mlp_core::ServingEngine`], with and without
//! refresh churn).

pub mod load;

use mlp_core::MlpConfig;
use mlp_eval::ExperimentContext;

/// Peak resident set size of this process in bytes, read from `VmHWM`
/// in `/proc/self/status` (the kernel's high-water mark — it never
/// decreases, so one read at the end of a run captures the whole run).
/// Returns `None` off Linux or if the field is missing.
pub fn peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Current resident set of this process in bytes (`VmRSS`), split into
/// its anonymous and file-backed parts (`RssAnon`, `RssFile`). The
/// anonymous share is the honest "duplication" metric for the cold-start
/// bench: a copied decode materializes every slab on the heap (anon),
/// while a mapped open leaves them in evictable page cache (file).
/// Returns `None` off Linux or if the fields are missing.
pub fn current_rss() -> Option<RssSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(name))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    };
    Some(RssSample { total: field("VmRSS:")?, anon: field("RssAnon:")?, file: field("RssFile:")? })
}

/// One reading of the process's resident memory — see [`current_rss`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RssSample {
    /// `VmRSS` — everything resident.
    pub total: u64,
    /// `RssAnon` — heap and other anonymous pages.
    pub anon: u64,
    /// `RssFile` — resident file-backed pages (mapped artifacts).
    pub file: u64,
}

impl RssSample {
    /// Bytes grown since `earlier`, per component, clamped at zero.
    pub fn delta_since(&self, earlier: &RssSample) -> RssSample {
        RssSample {
            total: self.total.saturating_sub(earlier.total),
            anon: self.anon.saturating_sub(earlier.anon),
            file: self.file.saturating_sub(earlier.file),
        }
    }
}

/// `peak_rss` in MiB, or `None` off Linux / when `VmHWM` is missing.
/// Bench binaries thread the `Option` through to their reports — `"n/a"`
/// in human output, `null` in JSON — instead of inventing a number.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// `peak_rss` formatted for reports: `"123.4 MiB"`, or `"n/a"` off Linux.
pub fn peak_rss_display() -> String {
    match peak_rss_mb() {
        Some(mb) => format!("{mb:.1} MiB"),
        None => "n/a".into(),
    }
}

/// An optional MiB reading formatted for a report cell: `"123.4"` or
/// `"n/a"`.
pub fn mb_cell(mb: Option<f64>) -> String {
    mb.map_or_else(|| "n/a".into(), |v| format!("{v:.1}"))
}

/// An optional MiB reading as a JSON value: `123.4` or `null` (never
/// `NaN`, which is not JSON).
pub fn mb_json(mb: Option<f64>) -> String {
    mb.map_or_else(|| "null".into(), |v| format!("{v:.1}"))
}

/// Writes a bench binary's machine-readable report to `path`:
/// `{"bench": bench, <params in order>, "<rows_key>": [rows]}`. Param
/// values and rows are JSON already; each row is indented under
/// `rows_key`. Returns the I/O error (an unwritable path, a directory)
/// instead of panicking, so the binary can report it and exit 1.
pub fn write_json_report(
    path: &std::path::Path,
    bench: &str,
    params: &[(&str, &dyn std::fmt::Display)],
    rows_key: &str,
    rows: &[String],
) -> std::io::Result<()> {
    let mut json = format!("{{\n  \"bench\": \"{bench}\",\n");
    for (key, value) in params {
        json.push_str(&format!("  \"{key}\": {value},\n"));
    }
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            row.trim_end().lines().map(|l| format!("    {l}")).collect::<Vec<_>>().join("\n")
        })
        .collect();
    json.push_str(&format!("  \"{rows_key}\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
    std::fs::write(path, json)
}

/// A bench binary's command-line flags, consumed in order. Parsers read
/// flags with the [`Iterator`] impl and their values with [`Self::value`]
/// / [`Self::num`], and return `Err(message)` on an unknown flag or a bad
/// value; [`parse_cli`] turns that into usage on stderr and exit code 2.
pub struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args.next().ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following `flag` as a number; `_` separators are allowed
    /// (`100_000`).
    pub fn num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.value(flag)?;
        parse_num(flag, &raw)
    }

    /// The value following `flag` as a chain length in sweeps: a number
    /// of at least 1, so [`chain_config`]'s burn-in stays below it.
    pub fn iters(&mut self, flag: &str) -> Result<usize, String> {
        match self.num(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            iters => Ok(iters),
        }
    }

    /// The value following `flag` as a comma-separated list of numbers.
    pub fn nums<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?.split(',').map(|raw| parse_num(flag, raw.trim())).collect()
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.replace('_', "").parse().map_err(|e| format!("{flag}: bad value {raw:?}: {e}"))
}

/// Runs `parse` over `args`. `Ok(None)` means `--help` or `-h` appeared
/// anywhere, in which case nothing else is parsed.
pub fn parse_args<T>(
    args: impl IntoIterator<Item = String>,
    parse: impl FnOnce(&mut Flags) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    parse(&mut Flags { args: args.into_iter() }).map(Some)
}

/// [`parse_args`] over the process arguments, exiting where the command
/// line asks for no run: `--help` prints `usage` and exits 0; an unknown
/// flag or a bad value prints the error and `usage` to stderr and exits 2.
pub fn parse_cli<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
    match parse_args(std::env::args().skip(1), parse) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            std::process::exit(2)
        }
    }
}

/// The usage block of a binary's module doc: the lines of its first
/// ` ```text ` fence. Binaries pass `include_str!` of their own source.
pub fn doc_usage(source: &str) -> String {
    source
        .lines()
        .map_while(|line| line.strip_prefix("//!"))
        .skip_while(|line| !line.contains("```text"))
        .skip(1)
        .take_while(|line| !line.contains("```"))
        .map(|line| line.strip_prefix(' ').unwrap_or(line))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The Gibbs chain every bench binary trains: `iters` sweeps seeded by
/// `seed`, whose second half (from sweep `iters / 2`) is averaged into
/// `θ̂`. Any `iters >= 1` ([`Flags::iters`]) is a valid chain; `--iters 1`
/// averages its one sweep.
pub fn chain_config(iters: usize, seed: u64) -> MlpConfig {
    MlpConfig { iterations: iters, burn_in: iters / 2, seed, ..Default::default() }
}

/// Shared CLI arguments for the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Number of synthetic users.
    pub users: usize,
    /// Gazetteer size (cities).
    pub cities: usize,
    /// Master seed.
    pub seed: u64,
    /// Gibbs sweeps per run.
    pub iters: usize,
    /// CV folds actually executed.
    pub folds: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self { users: 4_000, cities: 300, seed: 2012, iters: 20, folds: 5 }
    }
}

impl BenchArgs {
    /// The flags every paper-artifact binary accepts.
    pub const USAGE: &'static str =
        "flags: [--users N] [--cities N] [--seed N] [--iters N] [--folds N] [--quick] [--help]";

    /// Parses `std::env::args` (see [`parse_cli`] for `--help` and bad
    /// flags), applying `--quick` (a 1,000-user, single-fold smoke
    /// configuration) before explicit overrides.
    pub fn parse() -> Self {
        parse_cli(Self::USAGE, Self::parse_from)
    }

    /// Parses from explicit flags (testable).
    pub fn parse_from(flags: &mut Flags) -> Result<Self, String> {
        let mut out = Self::default();
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--quick" => {
                    out.users = 1_000;
                    out.folds = 1;
                    out.iters = 12;
                }
                "--users" => out.users = flags.num(&flag)?,
                "--cities" => out.cities = flags.num(&flag)?,
                "--seed" => out.seed = flags.num(&flag)?,
                "--iters" => out.iters = flags.iters(&flag)?,
                "--folds" => out.folds = flags.num(&flag)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Builds the experiment context these arguments describe.
    pub fn context(&self) -> ExperimentContext {
        let mut ctx = ExperimentContext::standard(self.users, self.cities, self.seed);
        ctx.mlp_config = chain_config(self.iters, self.seed);
        ctx
    }

    /// A one-line provenance banner printed by every binary.
    pub fn banner(&self, artifact: &str) -> String {
        format!(
            "# {artifact} | users={} cities={} seed={} iters={} folds={}",
            self.users, self.cities, self.seed, self.iters, self.folds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Option<BenchArgs>, String> {
        parse_args(args.iter().map(|s| s.to_string()), BenchArgs::parse_from)
    }

    fn parse(args: &[&str]) -> BenchArgs {
        try_parse(args).unwrap().unwrap()
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[]);
        assert_eq!(a.users, 4_000);
        assert_eq!(a.folds, 5);
    }

    #[test]
    fn explicit_overrides() {
        let a = parse(&["--users", "500", "--seed", "9", "--folds", "2"]);
        assert_eq!(a.users, 500);
        assert_eq!(a.seed, 9);
        assert_eq!(a.folds, 2);
    }

    #[test]
    fn quick_then_override() {
        let a = parse(&["--quick", "--users", "2000"]);
        assert_eq!(a.users, 2_000, "explicit flag wins over --quick");
        assert_eq!(a.folds, 1);
    }

    #[test]
    fn bad_flags_are_errors_and_help_wins() {
        assert_eq!(try_parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
        assert!(try_parse(&["--users"]).unwrap_err().contains("requires a value"));
        assert!(try_parse(&["--users", "many"]).unwrap_err().contains("bad value"));
        assert!(try_parse(&["--users", "1_000"]).unwrap().is_some());
        for help in ["--help", "-h"] {
            assert!(try_parse(&["--bogus", help]).unwrap().is_none());
        }
    }

    #[test]
    fn every_chain_length_parses_to_a_valid_chain() {
        assert_eq!(try_parse(&["--iters", "0"]).unwrap_err(), "--iters must be at least 1");
        for iters in [1, 2, 3, 20] {
            let a = parse(&["--iters", &iters.to_string()]);
            let config = a.context().mlp_config;
            assert_eq!((config.iterations, config.burn_in), (iters, iters / 2));
            config.validate().unwrap();
        }
    }

    #[test]
    fn doc_usage_reads_the_text_fence() {
        let source =
            "//! Title.\n//!\n//! ```text\n//! tool [--a N]\n//!      [--b]\n//! ```\nfn main() {}";
        assert_eq!(doc_usage(source), "tool [--a N]\n     [--b]");
    }

    #[test]
    fn banner_mentions_parameters() {
        let b = parse(&["--quick"]).banner("Table 2");
        assert!(b.contains("Table 2") && b.contains("users=1000"));
    }

    #[test]
    fn json_report_keeps_key_order_and_returns_write_errors() {
        let dir = std::env::temp_dir().join(format!("mlp-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let rows = ["{\"a\": 1}".to_string(), "{\n  \"b\": 2\n}\n".to_string()];
        write_json_report(&path, "demo", &[("seed", &7), ("rate", &0.5)], "rows", &rows).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"rate\": 0.5,\n  \"rows\": [\n    \
             {\"a\": 1},\n    {\n      \"b\": 2\n    }\n  ]\n}\n"
        );
        // A directory is not a writable file: an error, not a panic.
        assert!(write_json_report(&dir, "demo", &[], "rows", &rows).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_rss_degrades_to_na_and_null() {
        assert_eq!(crate::mb_cell(None), "n/a");
        assert_eq!(crate::mb_json(None), "null");
        assert_eq!(crate::mb_cell(Some(123.44)), "123.4");
        assert_eq!(crate::mb_json(Some(123.44)), "123.4");
        // On Linux the reading exists and the display renders it; off
        // Linux both sides degrade together rather than panicking.
        match crate::peak_rss_mb() {
            Some(mb) => {
                assert!(mb > 0.0);
                assert!(crate::peak_rss_display().ends_with("MiB"));
            }
            None => assert_eq!(crate::peak_rss_display(), "n/a"),
        }
    }
}
