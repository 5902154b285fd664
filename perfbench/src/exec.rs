//! Executed speedup: the executor's deterministic work counters over a
//! workload, without indexes and with a recommendation materialized.

use crate::stats::timed;
use xia_optimizer::{execute_query, Optimizer};
use xia_storage::Database;
use xia_workloads::Workload;
use xia_xpath::{parse_linear_path, ValueKind};

/// One recommended index as reported: collection, pattern, key type.
pub type IndexSpec = (String, String, ValueKind);

/// Executed work of a workload with and without a configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecWork {
    /// `nodes_visited + postings_scanned`, frequency-weighted, with no
    /// indexes.
    pub without: f64,
    /// The same with the configuration's indexes built.
    pub with: f64,
    /// Time to build the configuration's physical indexes.
    pub build_ms: f64,
}

impl ExecWork {
    /// Adds another measurement's totals.
    pub fn add(&mut self, other: ExecWork) {
        self.without += other.without;
        self.with += other.with;
        self.build_ms += other.build_ms;
    }

    /// `without / with`.
    pub fn speedup(&self) -> f64 {
        self.without / self.with
    }
}

fn drop_all_indexes(db: &mut Database) {
    let names: Vec<String> = db
        .collection_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in names {
        if let Some(cat) = db.catalog_mut(&name) {
            cat.drop_all();
        }
    }
}

fn workload_work(db: &Database, workload: &Workload) -> Result<f64, String> {
    let mut work = 0.0;
    for entry in workload.entries() {
        if entry.statement.is_modification() {
            continue;
        }
        let coll = entry.statement.collection();
        let (collection, catalog, stats) = db
            .parts(coll)
            .ok_or_else(|| format!("no fresh collection {coll} for `{}`", entry.text))?;
        let plan = Optimizer::new(collection, stats, catalog).optimize(&entry.statement);
        let r = execute_query(&entry.statement, &plan, collection, catalog)
            .map_err(|e| format!("execution of `{}` failed: {e}", entry.text))?;
        // Execution is deterministic, so a statement observed `freq`
        // times does `freq` times the work of one execution.
        work += entry.freq * (r.nodes_visited + r.postings_scanned) as f64;
    }
    Ok(work)
}

/// Executes `workload` on `db` without indexes, builds `indexes`,
/// executes again, and drops the indexes.
pub fn exec_work(
    db: &mut Database,
    workload: &Workload,
    indexes: &[IndexSpec],
) -> Result<ExecWork, String> {
    drop_all_indexes(db);
    db.runstats_all();
    let without = workload_work(db, workload)?;
    let (built, build_ms) = timed(|| -> Result<(), String> {
        for (coll, pattern, kind) in indexes {
            let pattern = parse_linear_path(pattern)
                .map_err(|e| format!("recommended pattern `{pattern}` does not parse: {e}"))?;
            let (collection, catalog, _) = db
                .parts_mut(coll)
                .ok_or_else(|| format!("recommended index on unknown collection {coll}"))?;
            catalog.create_physical(collection, &pattern, *kind);
        }
        Ok(())
    });
    built?;
    db.runstats_all();
    let with = workload_work(db, workload)?;
    drop_all_indexes(db);
    if with <= 0.0 {
        return Err("workload executes no work with the recommended indexes".into());
    }
    Ok(ExecWork {
        without,
        with,
        build_ms,
    })
}
