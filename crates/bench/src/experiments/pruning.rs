//! E11: statement-relevance pruning — what-if optimizer calls and
//! wall-clock with the pruning layer on (the advisor) vs off (the
//! evaluator's `prune` ablation switch), over the Fig. 3 budget sweep.
//!
//! Every row double-checks the core invariant: the pruned and unpruned
//! runs return bitwise-identical benefit estimates (the determinism suite
//! pins the same property across jobs, faults, and budgets).

use crate::lab::TpoxLab;
use crate::report::{f, Table};
use std::time::Instant;
use xia_advisor::{search, Advisor, AdvisorParams, BenefitEvaluator, CandId, SearchAlgorithm};
use xia_obs::{Counter, Telemetry};
use xia_workloads::Workload;

/// One (algorithm, budget) comparison point.
#[derive(Debug, Clone)]
pub struct PruningRow {
    /// Search algorithm measured.
    pub algo: SearchAlgorithm,
    /// Budget as a fraction of the All-Index size.
    pub fraction: f64,
    /// Evaluate-mode optimizer calls with pruning on.
    pub calls_pruned: u64,
    /// Evaluate-mode optimizer calls with pruning off.
    pub calls_unpruned: u64,
    /// Advisor wall time with pruning on, milliseconds.
    pub ms_pruned: f64,
    /// Advisor wall time with pruning off, milliseconds.
    pub ms_unpruned: f64,
    /// Statement-cache serves during the pruned run.
    pub stmt_cache_hits: u64,
    /// Costings the pruning layer skipped entirely.
    pub statements_pruned: u64,
    /// Incremental `benefit_delta` probes issued by the search.
    pub delta_probes: u64,
    /// Whether the two runs returned bitwise-identical benefit estimates.
    pub identical: bool,
}

fn measure(
    lab: &mut TpoxLab,
    workload: &Workload,
    set: &xia_advisor::CandidateSet,
    budget: u64,
    algo: SearchAlgorithm,
    prune: bool,
) -> (u64, f64, u64, Telemetry) {
    let telemetry = Telemetry::new();
    let params = AdvisorParams {
        telemetry: telemetry.clone(),
        ..AdvisorParams::default()
    };
    let (ms, bits) = if prune {
        let rec = Advisor::recommend_prepared(&mut lab.db, workload, set, budget, algo, &params)
            .expect("advise");
        (
            rec.advisor_time.as_secs_f64() * 1e3,
            rec.est_benefit.to_bits(),
        )
    } else {
        // The steps `recommend_prepared` runs, on an evaluator with the
        // pruning layer switched off.
        let start = Instant::now();
        let mut ev = BenefitEvaluator::configured(&mut lab.db, workload, set, &params);
        ev.prune = false;
        let all: Vec<CandId> = set.ids().collect();
        let config = search::run(&mut ev, &all, budget, algo, params.beta);
        let bits = ev.benefit(&config).to_bits();
        ev.workload_cost(&config);
        (start.elapsed().as_secs_f64() * 1e3, bits)
    };
    (
        telemetry.get(Counter::OptimizerEvaluateCalls),
        ms,
        bits,
        telemetry,
    )
}

/// Runs the prune-on/prune-off comparison over a budget sweep.
pub fn run(
    lab: &mut TpoxLab,
    workload: &Workload,
    fractions: &[f64],
    algorithms: &[SearchAlgorithm],
) -> Vec<PruningRow> {
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, workload, &params);
    let all_index_size = set.config_size(&Advisor::all_index_config(&set));
    let mut rows = Vec::new();
    for &algo in algorithms {
        for &frac in fractions {
            let budget = (all_index_size as f64 * frac).round() as u64;
            let (calls_on, ms_on, bits_on, tel_on) =
                measure(lab, workload, &set, budget, algo, true);
            let (calls_off, ms_off, bits_off, _) =
                measure(lab, workload, &set, budget, algo, false);
            rows.push(PruningRow {
                algo,
                fraction: frac,
                calls_pruned: calls_on,
                calls_unpruned: calls_off,
                ms_pruned: ms_on,
                ms_unpruned: ms_off,
                stmt_cache_hits: tel_on.get(Counter::StmtCacheHits),
                statements_pruned: tel_on.get(Counter::StatementsPruned),
                delta_probes: tel_on.get(Counter::DeltaProbes),
                identical: bits_on == bits_off,
            });
        }
    }
    rows
}

/// Renders the comparison table.
pub fn table(rows: &[PruningRow]) -> Table {
    let mut t = Table::new(
        "E11 — statement-relevance pruning: what-if calls and wall time",
        &[
            "algorithm",
            "budget (xAllIndex)",
            "calls (pruned)",
            "calls (unpruned)",
            "call ratio",
            "ms (pruned)",
            "ms (unpruned)",
            "stmt cache hits",
            "statements pruned",
            "delta probes",
            "identical",
        ],
    );
    for r in rows {
        let ratio = r.calls_unpruned as f64 / (r.calls_pruned.max(1)) as f64;
        t.row(vec![
            r.algo.name().to_string(),
            format!("{:.2}", r.fraction),
            r.calls_pruned.to_string(),
            r.calls_unpruned.to_string(),
            f(ratio),
            f(r.ms_pruned),
            f(r.ms_unpruned),
            r.stmt_cache_hits.to_string(),
            r.statements_pruned.to_string(),
            r.delta_probes.to_string(),
            r.identical.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_saves_calls_and_preserves_results() {
        // Relevance pruning pays off when candidate relevance sets
        // overlap: each what-if probe's configuration group then spans
        // many statements the probed candidate is irrelevant to. The
        // anchored sparse workload is exactly that regime (and what the
        // E11 binary measures).
        let mut lab = TpoxLab::quick();
        let workload = lab.sparse_workload(96);
        let rows = run(
            &mut lab,
            &workload,
            &[0.75],
            &[SearchAlgorithm::Greedy, SearchAlgorithm::GreedyHeuristics],
        );
        for r in &rows {
            assert!(r.identical, "{:?}: pruning changed the benefit", r.algo);
            assert!(
                r.calls_pruned <= r.calls_unpruned,
                "{:?}: pruned={} unpruned={}",
                r.algo,
                r.calls_pruned,
                r.calls_unpruned
            );
        }
        // The incremental searches are where relevance pruning pays: the
        // acceptance bar is ≥3× fewer Evaluate-mode calls.
        let h = rows
            .iter()
            .find(|r| r.algo == SearchAlgorithm::GreedyHeuristics)
            .expect("heuristics row");
        assert!(
            h.calls_unpruned as f64 >= 3.0 * h.calls_pruned as f64,
            "expected ≥3x fewer calls: pruned={} unpruned={}",
            h.calls_pruned,
            h.calls_unpruned
        );
        assert!(h.stmt_cache_hits > 0);
        assert!(h.delta_probes > 0);
    }
}
