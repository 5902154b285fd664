//! Regenerates E12: generalization-fixpoint pair visits and wall time,
//! naive (Algorithm 1, the test reference) vs semi-naive, over widened
//! Table III workloads. Writes `results/generalization_speedup.csv`.

use xia_bench::experiments::generalization_speedup;
use xia_bench::{write_csv, TpoxLab};

fn main() {
    let mut lab = TpoxLab::standard();
    // The 11 TPoX queries widened with 0 / 16 / 32 / 64 / 128 synthetic
    // queries — the Table III axis, extended until the naive fixpoint's
    // quadratic pair scan dominates.
    let widths = [0usize, 16, 32, 64, 128];
    let rows = generalization_speedup::run(&mut lab, &widths);
    let t = generalization_speedup::table(&rows);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "generalization_speedup") {
        println!("wrote {}", p.display());
    }
    if rows.iter().any(|r| !r.identical) {
        eprintln!("ERROR: a semi-naive run diverged from its naive twin");
        std::process::exit(1);
    }
    let last = rows.last().expect("rows");
    let ratio = last.visits_naive as f64 / last.visits_fast.max(1) as f64;
    println!(
        "largest workload ({} statements): {} naive vs {} semi-naive pair visits ({ratio:.2}x), {:.1} ms vs {:.1} ms",
        last.statements, last.visits_naive, last.visits_fast, last.ms_naive, last.ms_fast
    );
    if ratio < 3.0 {
        eprintln!("ERROR: semi-naive saved only {ratio:.2}x pair visits (< 3x bar)");
        std::process::exit(1);
    }
}
