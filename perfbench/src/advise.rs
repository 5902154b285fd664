//! `advise-mixed`: one closed-loop client running cold
//! `Advisor::recommend` calls against a database resident in memory.
//!
//! Each op's workload is the 11 TPoX queries plus a seeded draw of about
//! 1k synthetic queries over the three collections. Op `i` uses input
//! `i mod 16` of a pool built at set-up: ops alternate between unanchored
//! and anchored (`anchor_prob` = 0.5) draws and rotate through
//! greedy-heuristics, topdown-full, dp and cophy. Once per run, after the
//! timed phase, each pool input is recommended again at `jobs` = 2; every
//! op's rendered recommendation must equal its input's reference.
//!
//! Latencies are taken per pool input: an input's latency is the p5
//! (`stats::FAST`) of its repeats in the run; `recommend_p5_ms` is the
//! mean over the 16 inputs and `recommend_tail_ms` the mean of the
//! slowest quarter. The inputs fall into four clusters, one per search
//! algorithm, whose costs differ several-fold, so a percentile over all
//! ops would land in the gap between two clusters and jump with every
//! small shift in either.
//!
//! The timed ops run at `jobs` = 1. On a two-core virtual machine whose
//! cores are shared with other tenants, `jobs` = 2 made every op wait on
//! whichever core the host had taken away: across ten 20-second runs the
//! interquartile spread of the median op latency was 42% of its median, and
//! in four alternating pairs of runs under the same host load its range
//! was 19% at `jobs` = 2 against 8% at `jobs` = 1, with `jobs` = 2 no
//! faster.

use crate::base::{
    derive_seed, repeat_setup, tpox_config, Base, IngestProbe, COLLECTIONS, PROBE_BATCHES,
};
use crate::cold::rec_indexes;
use crate::exec::{exec_work, ExecWork};
use crate::layers::{decompose_load, AdvisorLedger, AdvisorSample};
use crate::metrics::Collector;
use crate::stats::{
    mean, median, ms, peak_rss_mb, point_fast, script_rate, timed, top_quarter_mean,
};
use crate::{Config, Report, Scale, BUDGET, JOBS};
use std::time::{Duration, Instant};
use xia_advisor::{Advisor, AdvisorParams, Recommendation, SearchAlgorithm};
use xia_server::render_recommendation;
use xia_storage::{load_database, Database};
use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
use xia_workloads::tpox;
use xia_workloads::Workload;

/// What-if workers of the once-per-run references, which must produce
/// byte-identical recommendations.
const REFERENCE_JOBS: usize = 2;

/// The search algorithms ops rotate through.
const ALGOS: [SearchAlgorithm; 4] = [
    SearchAlgorithm::GreedyHeuristics,
    SearchAlgorithm::TopDownFull,
    SearchAlgorithm::Dp,
    SearchAlgorithm::Cophy,
];

/// Distinct op inputs: every algorithm with two unanchored and two
/// anchored draws.
const POOL: usize = 4 * ALGOS.len();

/// One op input.
struct Input {
    algo: SearchAlgorithm,
    texts: Vec<String>,
}

fn synthetic_per_collection(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Paper => 340,
        Scale::Tiny => 30,
    }
}

fn build_pool(cfg: &Config, db: &Database) -> Result<Vec<Input>, String> {
    let queries = tpox::queries(&tpox_config(cfg));
    (0..POOL)
        .map(|k| {
            let mut texts = queries.clone();
            for (c, name) in COLLECTIONS.iter().enumerate() {
                let coll = db
                    .collection(name)
                    .ok_or_else(|| format!("no collection {name}"))?;
                let sc = SyntheticConfig {
                    queries: synthetic_per_collection(cfg),
                    seed: derive_seed(cfg.seed, (k * COLLECTIONS.len() + c) as u64 + 0xad00),
                    anchor_prob: if k % 2 == 1 { 0.5 } else { 0.0 },
                    ..SyntheticConfig::default()
                };
                texts.extend(generate_queries(coll, &sc));
            }
            Ok(Input {
                algo: ALGOS[(k / 2) % ALGOS.len()],
                texts,
            })
        })
        .collect()
}

fn prepare(cfg: &Config) -> Result<(Base, Database, Vec<Input>), String> {
    let image = cfg.work_dir.join("base.xiadb");
    let base = Base::build(cfg, &image)?;
    let db = load_database(&image).map_err(|e| format!("cannot load {}: {e}", image.display()))?;
    let pool = build_pool(cfg, &db)?;
    Ok((base, db, pool))
}

/// One op: parse the statements, recommend, render.
fn advise(
    db: &mut Database,
    input: &Input,
    params: &AdvisorParams,
) -> Result<(Workload, Recommendation, String, f64), String> {
    let (workload, parse_ms) =
        timed(|| Workload::from_texts(input.texts.iter().map(String::as_str)));
    let workload = workload.map_err(|e| format!("generated statement does not parse: {e}"))?;
    let rec = Advisor::recommend(db, &workload, BUDGET, input.algo, params)
        .map_err(|e| format!("{} recommend failed: {e}", input.algo.name()))?;
    let out = render_recommendation(&rec).render();
    Ok((workload, rec, out, parse_ms))
}

/// Samples of one timed phase.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Per op that ran: pool index and latency.
    latency: Vec<(usize, f64)>,
    /// Per op that ran: pool index and statement-parse time.
    parse: Vec<(usize, f64)>,
    /// Per op that ran: op number and rendered output (checked after the
    /// phase).
    outputs: Vec<(usize, String)>,
    /// Per op attempted: pool index, and when it began, in busy seconds
    /// (wall time minus the benchmark's own work between ops) from the
    /// phase start.
    begin_s: Vec<(usize, f64)>,
    /// When each rotation of the pool ended, in busy seconds.
    rotation_end_s: Vec<f64>,
    /// Ops that succeeded (counted by the check).
    ok: u64,
    advisor: AdvisorLedger,
    /// Per op: latency minus the phases the telemetry accounts for.
    unaccounted: Vec<f64>,
    errors: Vec<String>,
}

/// Runs whole rotations of the pool for at least `len`. After each
/// rotation, untimed, `probe` ingests `PROBE_BATCHES` batches.
fn run_phase(
    db: &mut Database,
    pool: &[Input],
    len: Duration,
    traced: bool,
    probe: &mut IngestProbe,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut i = 0usize;
    // Whole rotations only, so every run weighs the inputs equally.
    while !i.is_multiple_of(POOL) || start.elapsed() < len {
        let k = i % POOL;
        i += 1;
        p.attempted += 1;
        p.begin_s
            .push((k, (start.elapsed() - excluded).as_secs_f64()));
        let params = AdvisorParams {
            jobs: JOBS,
            ..AdvisorParams::default()
        };
        let t0 = Instant::now();
        let op = advise(db, &pool[k], &params);
        let latency = ms(t0.elapsed());
        let checks = Instant::now();
        match op {
            Ok((_, _, out, parse_ms)) => {
                p.latency.push((k, latency));
                p.parse.push((k, parse_ms));
                p.outputs.push((i - 1, out));
                if traced {
                    let sample = AdvisorSample::read(&params.telemetry, pool[k].algo.name());
                    p.unaccounted.push(latency - parse_ms - sample.phases_ms());
                    p.advisor.push(sample);
                    p.advisor.merge_what_if(&params.telemetry);
                }
            }
            Err(e) => {
                p.failed += 1;
                p.errors.push(e);
            }
        }
        if i.is_multiple_of(POOL) {
            p.rotation_end_s
                .push((checks - start - excluded).as_secs_f64());
            probe.step(PROBE_BATCHES);
        }
        excluded += checks.elapsed();
    }
    p
}

impl Phase {
    /// Mean over the pool inputs of each input's `FAST` latency.
    fn latency_ms(&self) -> f64 {
        mean(&point_fast(&self.latency, POOL))
    }

    /// Busy seconds of each rotation.
    fn rotation_s(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.rotation_end_s
            .iter()
            .map(|&end| {
                let took = end - prev;
                prev = end;
                took
            })
            .collect()
    }

    /// Completed ops per busy second of a rotation in which every op
    /// takes its input's `FAST` interval (from the op's start to the
    /// next op's), scaled by the share of ops that succeeded.
    fn ops_per_s(&self) -> f64 {
        let end = self.rotation_end_s.last().copied().unwrap_or(0.0);
        script_rate(&self.begin_s, end, POOL) * self.ok as f64 / self.attempted.max(1) as f64
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut ingest_ms = Vec::new();
    let (setup_secs, (base, mut db, pool)) = repeat_setup(|measured| {
        let prepared = prepare(cfg)?;
        if measured {
            ingest_ms.extend_from_slice(&prepared.0.batch_ms);
        }
        Ok(prepared)
    })?;

    let mut probe = IngestProbe::new(cfg);
    let mut phases: Vec<Phase> = if cfg.trace {
        let half = cfg.duration / 2;
        vec![
            run_phase(&mut db, &pool, half, false, &mut probe),
            run_phase(&mut db, &pool, half, true, &mut probe),
        ]
    } else {
        vec![run_phase(&mut db, &pool, cfg.duration, false, &mut probe)]
    };

    // The workload's memory high-water mark, before the checks below.
    let peak_rss = peak_rss_mb()?;

    // Once per run: the parallel reference of every pool input, the
    // estimated speedups, and the executed work of each reference.
    let parallel = AdvisorParams {
        jobs: REFERENCE_JOBS,
        ..AdvisorParams::default()
    };
    let mut references = Vec::with_capacity(POOL);
    let mut exec = ExecWork::default();
    let mut log_speedup = 0.0;
    for input in &pool {
        let (workload, rec, mut out, _) = advise(&mut db, input, &parallel)?;
        if cfg.sabotage_reference {
            out.push(' ');
        }
        log_speedup += rec.speedup.ln();
        exec.add(exec_work(&mut db, &workload, &rec_indexes(&rec))?);
        references.push(out);
    }
    for p in &mut phases {
        for (i, out) in &p.outputs {
            if *out == references[i % POOL] {
                p.ok += 1;
            } else {
                p.failed += 1;
                p.errors.push(format!(
                    "{} recommendation at jobs {JOBS} differs from the jobs {REFERENCE_JOBS} reference",
                    pool[i % POOL].algo.name()
                ));
            }
        }
    }
    let last = phases.last().expect("at least one phase");

    let mut c = Collector::default();
    let mut notes = vec![format!(
        "advise-mixed: {} ops in the last phase over {} statements per op, what-if jobs {JOBS}",
        last.latency.len(),
        pool[0].texts.len()
    )];
    if cfg.trace {
        let p50 = last.latency_ms();
        c.set("trace.overhead_ms", p50 - phases[0].latency_ms());
        decompose_load(&base.image, 3)?.record(&mut c);
        c.set("storage.persist.save_ms", base.save_ms);
        c.set("storage.ingest.batch_ms", median(&ingest_ms));
        c.set("storage.persist.image_bytes", base.image_bytes as f64);
        c.set("storage.index.build_ms", exec.build_ms);
        c.set("optimizer.exec.work", exec.with);
        c.set("xpath.parse_ms", mean(&point_fast(&last.parse, POOL)));
        last.advisor.record(&mut c);
        last.advisor.record_compress(&mut c);
        let unaccounted = median(&last.unaccounted);
        c.set("trace.accounted_ms", p50 - unaccounted);
        c.set("trace.unaccounted_ms", unaccounted);
        c.set("trace.accounted_share", (p50 - unaccounted) / p50);
    } else {
        let per_input = point_fast(&last.latency, POOL);
        let rotations: Vec<String> = last
            .rotation_s()
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect();
        notes.push(format!(
            "latency per pool input: p5 over {} rotations; recommend_p5_ms is their mean, \
             recommend_tail_ms the mean of the slowest {} inputs; ops_per_s from each input's \
             p5 interval; rotation busy seconds: {}",
            rotations.len(),
            POOL.div_ceil(4),
            rotations.join(" ")
        ));
        c.set("recommend_p5_ms", mean(&per_input));
        c.set("recommend_tail_ms", top_quarter_mean(&per_input));
        c.set("ops_per_s", last.ops_per_s());
        // No ingest op runs here: the metric is the probe's batched
        // `ingest_batch` of the base documents between rotations.
        c.set("ingest_p5_ms", probe.fast_ms());
        c.set("observe_p5_ms", mean(&point_fast(&last.parse, POOL)));
        c.set("image_bytes_per_xml_byte", base.image_ratio());
        c.set("est_speedup", (log_speedup / POOL as f64).exp());
        c.set("exec_speedup", exec.speedup());
        c.set("setup_s", median(&setup_secs));
        c.set("peak_rss_mb", peak_rss);
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum::<u64>() + probe.attempted;
    let failed: u64 = phases.iter().map(|p| p.failed).sum::<u64>() + probe.failed;
    for e in phases.iter().flat_map(|p| p.errors.iter()).take(5) {
        notes.push(format!("failed op: {e}"));
    }
    if probe.failed > 0 {
        notes.push(format!("failed op: {} ingest probe batches", probe.failed));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: c.finish(cfg.trace)?,
        notes,
    })
}
