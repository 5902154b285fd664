//! Regenerates E11: what-if optimizer calls and advisor wall time with
//! statement-relevance pruning on vs off (the evaluator's ablation
//! switch), over the Fig. 3 budget sweep. Writes
//! `results/pruning_speedup.csv`.

use xia_advisor::SearchAlgorithm;
use xia_bench::experiments::pruning;
use xia_bench::experiments::speedup_budget::DEFAULT_FRACTIONS;
use xia_bench::{write_csv, TpoxLab};

fn main() {
    let mut lab = TpoxLab::standard();
    // The sparse anchored workload is the regime the pruning layer is
    // for: overlapping candidate relevance merges what-if configuration
    // groups across many statements, so an unpruned probe re-costs the
    // whole group while the pruned probe touches only relevant(x).
    let workload = lab.sparse_workload(96);
    let algorithms = [
        SearchAlgorithm::Greedy,
        SearchAlgorithm::GreedyHeuristics,
        SearchAlgorithm::TopDownFull,
    ];
    let rows = pruning::run(&mut lab, &workload, &DEFAULT_FRACTIONS, &algorithms);
    let t = pruning::table(&rows);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "pruning_speedup") {
        println!("wrote {}", p.display());
    }
    if rows.iter().any(|r| !r.identical) {
        eprintln!("ERROR: a pruned run diverged from its unpruned twin");
        std::process::exit(1);
    }
    let (on, off): (u64, u64) = rows
        .iter()
        .filter(|r| r.algo == SearchAlgorithm::GreedyHeuristics)
        .fold((0, 0), |(a, b), r| {
            (a + r.calls_pruned, b + r.calls_unpruned)
        });
    println!(
        "greedy-heuristics sweep total: {on} calls pruned vs {off} unpruned ({:.2}x)",
        off as f64 / on.max(1) as f64
    );
}
