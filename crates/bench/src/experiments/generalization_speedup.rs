//! E12: semi-naive generalization — pair visits and wall time of the
//! naive Algorithm 1 fixpoint vs the bucketed, memoized semi-naive
//! fixpoint (the test reference vs what the advisor runs), at growing
//! workload sizes.
//!
//! Both fixpoints run on clones of the same enumerated candidate set;
//! every row double-checks the parity contract: identical candidate
//! lists, DAG edge vectors (in stored order), and affected sets. The
//! `generalize_pairs_visited` counter is incremented by both paths for
//! every pair that reaches the rule engine, so its ratio is the honest
//! speedup factor (the semi-naive path's savings — bucket skips, the
//! unordered-pair dedup, memo hits — are itemized in their own columns).

use crate::lab::TpoxLab;
use crate::report::{f, Table};
use std::time::Instant;
use xia_advisor::{
    generalize_set_fast, generalize_set_naive, Advisor, AdvisorParams, CandidateSet,
};
use xia_obs::{Counter, EventJournal, Telemetry};
use xia_workloads::Workload;

/// One workload-size comparison point.
#[derive(Debug, Clone)]
pub struct GeneralizationRow {
    /// Workload statements (the 11 TPoX queries plus synthetic widening).
    pub statements: usize,
    /// Basic candidates enumerated (the fixpoint's input size).
    pub basics: usize,
    /// Total candidates at fixpoint (basics + generalized).
    pub total: usize,
    /// Pairs the naive fixpoint ran the rule engine on.
    pub visits_naive: u64,
    /// Pairs the semi-naive fixpoint ran the rule engine on.
    pub visits_fast: u64,
    /// Naive fixpoint wall time, milliseconds.
    pub ms_naive: f64,
    /// Semi-naive fixpoint wall time, milliseconds.
    pub ms_fast: f64,
    /// Pairs never enumerated thanks to (collection, kind) buckets.
    pub skipped_bucket: u64,
    /// Rule-engine runs saved by the canonical-pair memo.
    pub memo_hits: u64,
    /// Whether the two fixpoints produced byte-identical candidate sets.
    pub identical: bool,
}

/// Full observable state of a candidate set, for parity comparison.
fn dump(set: &CandidateSet) -> Vec<String> {
    set.iter()
        .map(|c| {
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
                c.id,
                c.collection,
                c.pattern,
                c.kind,
                c.origin,
                c.children,
                c.parents,
                c.affected.iter().collect::<Vec<_>>()
            )
        })
        .collect()
}

/// Measures one workload: enumerate once, run both fixpoints on clones.
pub fn measure(lab: &mut TpoxLab, workload: &Workload) -> GeneralizationRow {
    // Enumerate only — the fixpoints under test run outside `prepare`.
    let params = AdvisorParams {
        generalize: false,
        ..AdvisorParams::default()
    };
    let base = Advisor::prepare(&mut lab.db, workload, &params);
    let basics = base.len();

    let mut naive_set = base.clone();
    let t_naive = Telemetry::new();
    let start = Instant::now();
    generalize_set_naive(&mut naive_set, &t_naive, &EventJournal::off());
    let ms_naive = start.elapsed().as_secs_f64() * 1e3;

    let mut fast_set = base;
    let t_fast = Telemetry::new();
    let start = Instant::now();
    generalize_set_fast(&mut fast_set, &t_fast, &EventJournal::off());
    let ms_fast = start.elapsed().as_secs_f64() * 1e3;

    GeneralizationRow {
        statements: workload.len(),
        basics,
        total: fast_set.len(),
        visits_naive: t_naive.get(Counter::GeneralizePairsVisited),
        visits_fast: t_fast.get(Counter::GeneralizePairsVisited),
        ms_naive,
        ms_fast,
        skipped_bucket: t_fast.get(Counter::PairsSkippedBucket),
        memo_hits: t_fast.get(Counter::PairsMemoHits),
        identical: dump(&naive_set) == dump(&fast_set),
    }
}

/// Runs the comparison over widened Table III workloads: the 11 TPoX
/// queries plus `n` synthetic queries for each `n` in `widths`.
pub fn run(lab: &mut TpoxLab, widths: &[usize]) -> Vec<GeneralizationRow> {
    widths
        .iter()
        .map(|&n| {
            let workload = lab.mixed_workload(n);
            measure(lab, &workload)
        })
        .collect()
}

/// Renders the comparison table.
pub fn table(rows: &[GeneralizationRow]) -> Table {
    let mut t = Table::new(
        "E12 — semi-naive generalization: pair visits and wall time",
        &[
            "statements",
            "basics",
            "candidates",
            "visits (naive)",
            "visits (semi-naive)",
            "visit ratio",
            "ms (naive)",
            "ms (semi-naive)",
            "pairs skipped (bucket)",
            "memo hits",
            "identical",
        ],
    );
    for r in rows {
        let ratio = r.visits_naive as f64 / r.visits_fast.max(1) as f64;
        t.row(vec![
            r.statements.to_string(),
            r.basics.to_string(),
            r.total.to_string(),
            r.visits_naive.to_string(),
            r.visits_fast.to_string(),
            f(ratio),
            f(r.ms_naive),
            f(r.ms_fast),
            r.skipped_bucket.to_string(),
            r.memo_hits.to_string(),
            r.identical.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semi_naive_saves_pair_visits_and_preserves_sets() {
        let mut lab = TpoxLab::quick();
        let rows = run(&mut lab, &[0, 24]);
        for r in &rows {
            assert!(r.identical, "{} stmts: fixpoints diverged", r.statements);
            assert!(
                r.visits_fast < r.visits_naive,
                "{} stmts: fast={} naive={}",
                r.statements,
                r.visits_fast,
                r.visits_naive
            );
        }
        // The acceptance bar: ≥3× fewer rule-engine visits on the largest
        // workload (multiple collections and kinds give the buckets real
        // work on top of the unordered-pair halving).
        let last = rows.last().expect("rows");
        assert!(
            last.visits_naive as f64 >= 3.0 * last.visits_fast as f64,
            "expected ≥3x fewer visits: naive={} fast={}",
            last.visits_naive,
            last.visits_fast
        );
        assert!(last.skipped_bucket > 0, "buckets never skipped a pair");
    }
}
