//! `cold-cli`: one closed-loop client repeating what `xia recommend` and
//! `xia load` do against a persisted image.
//!
//! Ops run in the fixed pattern recommend, recommend, recommend, ingest.
//! A recommend op loads the image, observes the 11 TPoX queries into a
//! fresh `TuningSession`, recommends with greedy-heuristics and renders
//! the reply; its output must equal, byte for byte, the reference
//! computed at set-up from the never-persisted database. An ingest op
//! loads the image, ingests the run's seeded document batch, runs
//! RUNSTATS and saves to a work path; the saved image must equal the one
//! the never-persisted database produces. The base image never changes.
//!
//! Recommend latency is taken per position of the op cycle: the p5
//! (`stats::FAST`) of each of the three recommend positions over the
//! run's cycles. `recommend_p5_ms` is their mean and `recommend_tail_ms`
//! the slowest (the slowest quarter, at least one, as on the other
//! workloads). The ops do the same work every time, so a percentile over
//! the run's ops above the p5 measures how often the host was slow
//! during the run: a per-third p75 spread 22% over ten runs of the same
//! code and moved 24% between two sets.

use crate::base::{derive_seed, repeat_setup, tpox_config, Base, COLLECTIONS};
use crate::exec::{exec_work, IndexSpec};
use crate::layers::{decompose_load, AdvisorLedger, AdvisorSample};
use crate::metrics::Collector;
use crate::stats::{
    fast, mean, median, ms, peak_rss_mb, point_fast, script_rate, timed, top_quarter_mean,
};
use crate::{Config, Report, BUDGET, JOBS};
use std::path::Path;
use std::time::{Duration, Instant};
use xia_advisor::{
    compress_workload, AdvisorParams, Recommendation, SearchAlgorithm, TuningSession,
};
use xia_obs::{EventJournal, Telemetry};
use xia_server::render_recommendation;
use xia_storage::{
    ingest_batch, load_database, persist::fnv1a64, save_database, save_database_to, IngestOptions,
};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

const ALGO: SearchAlgorithm = SearchAlgorithm::GreedyHeuristics;

/// Recommend ops per ingest op.
const RECOMMENDS_PER_INGEST: usize = 3;

/// A fresh session at the advisor's defaults, with the worker count
/// pinned.
fn new_session() -> TuningSession {
    let mut session = TuningSession::new();
    session.set_params(AdvisorParams {
        jobs: JOBS,
        ..AdvisorParams::default()
    });
    session
}

/// Indexes of a recommendation, as reported.
pub fn rec_indexes(rec: &Recommendation) -> Vec<IndexSpec> {
    rec.indexes
        .iter()
        .map(|ix| (ix.collection.clone(), ix.pattern.clone(), ix.kind))
        .collect()
}

/// What set-up leaves for the timed phase.
struct Prepared {
    base: Base,
    reference: String,
    rec: Recommendation,
    /// Length and FNV-1a of the image an ingest op must save.
    ingested: (usize, u64),
}

/// The run's ingest batch: fresh seeded documents for each collection.
fn ingest_texts(cfg: &Config) -> Vec<Vec<String>> {
    let sized = tpox_config(cfg);
    let batch = TpoxConfig {
        securities: (sized.securities / 50).max(2),
        orders: (sized.orders / 50).max(2),
        customers: (sized.customers / 50).max(2),
        seed: derive_seed(cfg.seed, 0x1c0),
    };
    let (s, o, c) = tpox::docs_xml(&batch);
    vec![s, o, c]
}

fn ingest_into(db: &mut xia_storage::Database, batch: &[Vec<String>]) -> Result<(), String> {
    for (name, texts) in COLLECTIONS.iter().zip(batch) {
        let coll = db
            .collection_mut(name)
            .ok_or_else(|| format!("image lacks collection {name}"))?;
        ingest_batch(coll, texts, IngestOptions::default())
            .map_err(|e| format!("ingest failed: {e}"))?;
    }
    Ok(())
}

fn prepare(
    cfg: &Config,
    image: &Path,
    queries: &[String],
    batch: &[Vec<String>],
) -> Result<Prepared, String> {
    let mut base = Base::build(cfg, image)?;
    let mut session = new_session();
    for q in queries {
        session
            .observe(q)
            .map_err(|e| format!("TPoX query does not parse: {e}"))?;
    }
    let rec = session
        .recommend(&mut base.db, BUDGET, ALGO)
        .map_err(|e| format!("reference recommend failed: {e}"))?;
    let reference = render_recommendation(&rec).render();
    ingest_into(&mut base.db, batch)?;
    base.db.runstats_all();
    let mut bytes = Vec::new();
    save_database_to(&base.db, &mut bytes).map_err(|e| format!("reference save failed: {e}"))?;
    let ingested = (bytes.len(), fnv1a64(&bytes));
    Ok(Prepared {
        base,
        reference,
        rec,
        ingested,
    })
}

/// Times of one recommend op's steps, in milliseconds.
struct RecommendOp {
    output: String,
    total: f64,
    load: f64,
    observe: f64,
    recommend: f64,
    render: f64,
    session: TuningSession,
}

fn recommend_op(image: &Path, queries: &[String]) -> Result<RecommendOp, String> {
    let t0 = Instant::now();
    let mut db = load_database(image).map_err(|e| format!("load failed: {e}"))?;
    let t1 = Instant::now();
    let mut session = new_session();
    for q in queries {
        session
            .observe(q)
            .map_err(|e| format!("observe failed: {e}"))?;
    }
    let t2 = Instant::now();
    let rec = session
        .recommend(&mut db, BUDGET, ALGO)
        .map_err(|e| format!("recommend failed: {e}"))?;
    let t3 = Instant::now();
    let output = render_recommendation(&rec).render();
    let t4 = Instant::now();
    Ok(RecommendOp {
        output,
        total: ms(t4 - t0),
        load: ms(t1 - t0),
        observe: ms(t2 - t1),
        recommend: ms(t3 - t2),
        render: ms(t4 - t3),
        session,
    })
}

/// Times of one ingest op's steps, in milliseconds.
struct IngestOp {
    total: f64,
    batch: f64,
    save: f64,
}

fn ingest_op(image: &Path, out: &Path, batch: &[Vec<String>]) -> Result<IngestOp, String> {
    let t0 = Instant::now();
    let mut db = load_database(image).map_err(|e| format!("load failed: {e}"))?;
    let t1 = Instant::now();
    ingest_into(&mut db, batch)?;
    let t2 = Instant::now();
    db.runstats_all();
    let t3 = Instant::now();
    save_database(&db, out).map_err(|e| format!("save failed: {e}"))?;
    let t4 = Instant::now();
    Ok(IngestOp {
        total: ms(t4 - t0),
        batch: ms(t2 - t1),
        save: ms(t4 - t3),
    })
}

/// Samples of one timed phase.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Wall seconds of the phase minus the time spent checking outputs
    /// and reading telemetry.
    busy_s: f64,
    /// Per op attempted: its position in the op cycle, and when it
    /// began, on the same clock.
    begin_s: Vec<(usize, f64)>,
    recommend: Vec<f64>,
    /// Per recommend op that succeeded: its position in the op cycle and
    /// its latency.
    recommend_at: Vec<(usize, f64)>,
    ingest: Vec<f64>,
    load: Vec<f64>,
    observe: Vec<f64>,
    session_recommend: Vec<f64>,
    render: Vec<f64>,
    batch: Vec<f64>,
    save: Vec<f64>,
    compress: Vec<f64>,
    warm_costings: Vec<f64>,
    advisor: AdvisorLedger,
    errors: Vec<String>,
}

fn run_phase(
    cfg: &Config,
    prep: &Prepared,
    queries: &[String],
    batch: &[Vec<String>],
    len: Duration,
    traced: bool,
) -> Phase {
    let out_path = cfg.work_dir.join("ingested.xiadb");
    let mut p = Phase::default();
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut i = 0usize;
    // Whole op cycles only, so every run has the same op mix.
    while !i.is_multiple_of(RECOMMENDS_PER_INGEST + 1) || start.elapsed() < len {
        p.attempted += 1;
        p.begin_s.push((
            i % (RECOMMENDS_PER_INGEST + 1),
            (start.elapsed() - excluded).as_secs_f64(),
        ));
        let ok = if i % (RECOMMENDS_PER_INGEST + 1) < RECOMMENDS_PER_INGEST {
            match recommend_op(&prep.base.image, queries) {
                Ok(op) => {
                    let checks = Instant::now();
                    p.recommend.push(op.total);
                    p.recommend_at
                        .push((i % (RECOMMENDS_PER_INGEST + 1), op.total));
                    p.observe.push(op.observe);
                    p.load.push(op.load);
                    p.session_recommend.push(op.recommend);
                    p.render.push(op.render);
                    if traced {
                        let t = op.session.telemetry();
                        p.advisor.push(AdvisorSample::read(t, ALGO.name()));
                        p.advisor.merge_what_if(t);
                        let (w, t) = timed(|| op.session.workload());
                        std::hint::black_box(w);
                        p.compress.push(t);
                        p.warm_costings.push(op.session.warm_costings() as f64);
                    }
                    let ok = op.output == prep.reference || {
                        p.errors.push(
                            "recommendation differs from the never-persisted reference".into(),
                        );
                        false
                    };
                    excluded += checks.elapsed();
                    ok
                }
                Err(e) => {
                    p.errors.push(e);
                    false
                }
            }
        } else {
            match ingest_op(&prep.base.image, &out_path, batch) {
                Ok(op) => {
                    let checks = Instant::now();
                    p.ingest.push(op.total);
                    p.batch.push(op.batch);
                    p.save.push(op.save);
                    let ok = match std::fs::read(&out_path) {
                        Ok(bytes) if (bytes.len(), fnv1a64(&bytes)) == prep.ingested => true,
                        Ok(_) => {
                            p.errors.push(
                                "saved image differs from the never-persisted reference".into(),
                            );
                            false
                        }
                        Err(e) => {
                            p.errors.push(format!("cannot read the saved image: {e}"));
                            false
                        }
                    };
                    excluded += checks.elapsed();
                    ok
                }
                Err(e) => {
                    p.errors.push(e);
                    false
                }
            }
        };
        if !ok {
            p.failed += 1;
        }
        i += 1;
    }
    p.busy_s = (start.elapsed() - excluded).as_secs_f64();
    p
}

impl Phase {
    /// Completed ops per busy second of an op cycle in which every op
    /// takes the `FAST` interval (from its start to the next op's) of its
    /// position in the cycle, scaled by the share of ops that succeeded.
    fn ops_per_s(&self) -> f64 {
        let rate = script_rate(&self.begin_s, self.busy_s, RECOMMENDS_PER_INGEST + 1);
        let ok = self.attempted - self.failed;
        rate * ok as f64 / self.attempted.max(1) as f64
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let image = cfg.work_dir.join("base.xiadb");
    let tcfg = tpox_config(cfg);
    let queries = tpox::queries(&tcfg);
    let batch = ingest_texts(cfg);
    let (setup_secs, mut prep) = repeat_setup(|_| prepare(cfg, &image, &queries, &batch))?;
    if cfg.sabotage_reference {
        prep.reference.push(' ');
        prep.ingested.1 ^= 1;
    }

    let phases: Vec<Phase> = if cfg.trace {
        let half = cfg.duration / 2;
        vec![
            run_phase(cfg, &prep, &queries, &batch, half, false),
            run_phase(cfg, &prep, &queries, &batch, half, true),
        ]
    } else {
        vec![run_phase(cfg, &prep, &queries, &batch, cfg.duration, false)]
    };
    let last = phases.last().expect("at least one phase");
    // The workload's memory high-water mark, before the checks below.
    let peak_rss = peak_rss_mb()?;

    let mut exec_db =
        load_database(&image).map_err(|e| format!("cannot load {}: {e}", image.display()))?;
    let workload = Workload::from_texts(queries.iter().map(String::as_str))
        .map_err(|e| format!("TPoX query does not parse: {e}"))?;
    let exec = exec_work(&mut exec_db, &workload, &rec_indexes(&prep.rec))?;

    let mut c = Collector::default();
    let mut notes = vec![format!(
        "cold-cli: {} recommend ops, {} ingest ops in the last phase, what-if jobs {JOBS}",
        last.recommend.len(),
        last.ingest.len()
    )];
    if cfg.trace {
        let untraced = &phases[0];
        let p50 = median(&last.recommend);
        c.set("trace.overhead_ms", p50 - median(&untraced.recommend));
        let storage = decompose_load(&image, 5)?;
        storage.record(&mut c);
        let load = median(&last.load);
        c.set("storage.persist.load_ms", load);
        c.set("storage.persist.save_ms", median(&last.save));
        c.set("storage.ingest.batch_ms", median(&last.batch));
        c.set("storage.persist.image_bytes", prep.base.image_bytes as f64);
        c.set("storage.index.build_ms", exec.build_ms);
        c.set("optimizer.exec.work", exec.with);
        let (parsed, t) = timed(|| {
            queries
                .iter()
                .all(|q| xia_xpath::parse_statement(q).is_ok())
        });
        if !parsed {
            return Err("TPoX query does not parse".into());
        }
        c.set("xpath.parse_ms", t);
        last.advisor.record(&mut c);
        let observe = median(&last.observe);
        let recommend = median(&last.session_recommend);
        let render = median(&last.render);
        c.set("core.session.observe_ms", observe);
        c.set("core.session.recommend_ms", recommend);
        c.set(
            "core.session.distinct_statements",
            workload.compress().len() as f64,
        );
        c.set("core.session.warm_costings", median(&last.warm_costings));
        c.set("core.compress_ms", median(&last.compress));
        let templates = compress_workload(&workload, &Telemetry::off(), &EventJournal::off());
        c.set("core.compress.templates", templates.workload.len() as f64);
        c.set("server.protocol.render_us", render * 1e3);
        let accounted = storage.parts_ms() + observe + recommend + render;
        c.set("trace.accounted_ms", accounted);
        c.set("trace.unaccounted_ms", p50 - accounted);
        c.set("trace.accounted_share", accounted / p50);
        notes.push(format!(
            "cold-cli ledger: recommend p50 {p50:.2} ms = load {load:.2} ms (checksum {:.2} + xml parse {:.2} + \
             columnar insert {:.2} + runstats {:.2} + other {:.2}) + session observe {observe:.3} ms + \
             session recommend {recommend:.2} ms + render {render:.3} ms + unaccounted {:.2} ms",
            storage.checksum_ms,
            storage.parse_ms,
            storage.insert_ms,
            storage.runstats_ms,
            load - storage.parts_ms(),
            p50 - load - observe - recommend - render,
        ));
    } else {
        let positions = point_fast(&last.recommend_at, RECOMMENDS_PER_INGEST);
        let shown: Vec<String> = positions.iter().map(|t| format!("{t:.2}")).collect();
        notes.push(format!(
            "recommend p5 per cycle position (ms, over {} recommends): {}",
            last.recommend.len(),
            shown.join(" ")
        ));
        c.set("recommend_p5_ms", mean(&positions));
        c.set("recommend_tail_ms", top_quarter_mean(&positions));
        c.set("ops_per_s", last.ops_per_s());
        c.set("ingest_p5_ms", fast(&last.ingest));
        c.set("observe_p5_ms", fast(&last.observe));
        c.set("image_bytes_per_xml_byte", prep.base.image_ratio());
        c.set("est_speedup", prep.rec.speedup);
        c.set("exec_speedup", exec.speedup());
        c.set("setup_s", median(&setup_secs));
        c.set("peak_rss_mb", peak_rss);
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    for e in phases.iter().flat_map(|p| p.errors.iter()).take(5) {
        notes.push(format!("failed op: {e}"));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: c.finish(cfg.trace)?,
        notes,
    })
}
