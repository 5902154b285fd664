//! End-to-end and per-layer benchmark of the XML index advisor.
//!
//! One command runs one of three workloads against the public APIs of
//! `xia-storage`, `xia-advisor`, `xia-server`, `xia-optimizer` and
//! `xia-workloads`, checks every operation's output against an oracle,
//! and reports either the end-to-end metrics (untraced run) or the
//! per-layer ledger (traced run). The traced run times the benchmark's
//! own calls into each layer and reads the program's existing
//! `Telemetry` counters, spans and histograms and the server's `stats`
//! verb; it adds nothing inside the program. `NOTES.md` explains the
//! workloads and the map from each layer metric to the end-to-end metric
//! it should move.

mod advise;
mod base;
mod cold;
mod exec;
mod layers;
pub mod metrics;
mod serve;
mod stats;

use metrics::Metrics;
use std::path::PathBuf;
use std::time::Duration;

/// Index-size budget of every recommendation, in bytes. At TPoX scale 1
/// the 11 queries' all-index configuration (about 250 KB) fits, and the
/// ~1k-statement workloads' does not, so their searches have to choose.
pub const BUDGET: u64 = 512 * 1024;

/// What-if and index-build worker count of every timed operation. The
/// program's default is the `XIA_JOBS` environment variable, or 1; the
/// benchmark pins it so that the same command always measures the same
/// thing.
pub const JOBS: usize = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed-loop client repeating what `xia recommend` and `xia load`
    /// do against a persisted image.
    ColdCli,
    /// Two long-lived sessions on a loopback `xia-server`.
    ServeLonglived,
    /// Cold `Advisor::recommend` calls over ~1k-statement workloads on a
    /// resident database.
    AdviseMixed,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCli,
        Workload::ServeLonglived,
        Workload::AdviseMixed,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `advise-mixed`
    /// runs by hand only: on the two shared cores this was written on, a
    /// slow stretch of the host slowed it by up to 1.6x where it slowed
    /// `cold-cli` by 1.1x, and over ten 15-second runs its latency
    /// spread 28% of its median, past the largest bound a metric may
    /// have (`NOTES.md`).
    pub const MEASURED: [Workload; 2] = [Workload::ColdCli, Workload::ServeLonglived];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCli => "cold-cli",
            Workload::ServeLonglived => "serve-longlived",
            Workload::AdviseMixed => "advise-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Data scale: TPoX scale 1 for measurement, a tiny configuration for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `TpoxConfig::scaled(1)`: 2,000 documents, ~6.8 MB image.
    Paper,
    /// `TpoxConfig::tiny()` sizes: 270 documents.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub duration: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Data scale.
    pub scale: Scale,
    /// Scratch directory for images (created and removed by the run).
    pub work_dir: PathBuf,
    /// Test hook: corrupt the reference outputs so that every checked
    /// operation must register as failed.
    pub sabotage_reference: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed (no op failed).
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose output did not match its oracle.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Human-readable lines (sample counts, tail percentiles, findings).
    pub notes: Vec<String>,
}

/// Runs one workload. `Err` means the benchmark could not run at all
/// (for example the image could not be written); operation failures are
/// counted in the report instead.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let out = match cfg.workload {
        Workload::ColdCli => cold::run(cfg),
        Workload::ServeLonglived => serve::run(cfg),
        Workload::AdviseMixed => advise::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    if let Some(parent) = cfg.work_dir.parent() {
        // Removed only once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    out
}
