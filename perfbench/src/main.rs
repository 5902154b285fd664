//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-cli|serve-longlived|advise-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`). Exits 0 when that line was printed, 2 on a
//! usage error and 1 when the benchmark could not run.

use perfbench::{run, Config, Report, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <cold-cli|serve-longlived|advise-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {}", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        duration: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::Paper,
        work_dir: PathBuf::from(".perfbench-work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        sabotage_reference: false,
    })
}

/// The result line: one JSON object, every number with all its digits.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Index builds take their worker count from `XIA_JOBS` only; without
    // it they run serially, as the advisor calls pinned to `JOBS` do.
    std::env::remove_var("XIA_JOBS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics.0 {
                println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            ExitCode::from(1)
        }
    }
}
