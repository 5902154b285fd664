//! The benchmark's own checks, at the tiny data scale: every metric of
//! `BENCHMARK.json` prints with its unit on every workload, a wrong
//! reference registers as failed ops, and a seed fixes the quality
//! metrics.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Report, Scale, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xia_obs::json::Json;

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let n = RUN.fetch_add(1, Ordering::Relaxed);
    Config {
        workload,
        seed,
        duration: Duration::from_millis(600),
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{n}", workload.name())),
        sabotage_reference: false,
    }
}

fn run_ok(cfg: &Config) -> Report {
    run(cfg).unwrap_or_else(|e| panic!("{} failed to run: {e}", cfg.workload.name()))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn names(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metric_tables_and_workloads() {
    assert_eq!(declared("end_to_end"), names(END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::MEASURED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_prints_with_its_unit_on_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_ok(&config(workload, 3, trace));
            let table = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> =
                report.metrics.0.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table, "{} trace={trace}", workload.name());
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.notes
            );
            assert_eq!(
                report.failed,
                0,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.notes
            );
            assert!(report.attempted >= 1);
            if !trace {
                for m in &report.metrics.0 {
                    assert!(
                        m.value > 0.0,
                        "{}: {} = {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn a_wrong_reference_registers_as_failed_ops() {
    for workload in Workload::ALL {
        let mut cfg = config(workload, 5, false);
        cfg.sabotage_reference = true;
        let report = run_ok(&cfg);
        assert!(!report.correct, "{}", workload.name());
        assert!(report.failed >= 1, "{}", workload.name());
        assert!(report.failed <= report.attempted, "{}", workload.name());
    }
}

#[test]
fn the_same_seed_gives_the_same_quality_metrics() {
    for workload in Workload::ALL {
        let a = run_ok(&config(workload, 11, false));
        let b = run_ok(&config(workload, 11, false));
        for name in ["est_speedup", "exec_speedup", "image_bytes_per_xml_byte"] {
            assert_eq!(
                a.metrics.get(name),
                b.metrics.get(name),
                "{}: {name}",
                workload.name()
            );
        }
    }
}
