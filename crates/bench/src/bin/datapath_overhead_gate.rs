//! Overhead gate for the streaming data path, meant for CI: exits
//! non-zero if the default ingest path (single-pass parse fused with the
//! columnar append) measurably lags the two-pass path.
//!
//! Three legs:
//!
//! * **Throughput**: parse-and-insert the serialized tiny TPoX corpus
//!   through [`Collection::insert_xml`] (fused columnar append) versus
//!   [`parse_document`] then [`Collection::insert_document`] (materialize
//!   the document, then project columns from the finished tree). The
//!   fused path must stay within the tolerance of the two-pass baseline —
//!   it does strictly less work per node, so any real regression here is
//!   a bug, not noise.
//! * **Parity**: both paths must produce identical collections (same
//!   vocabulary, same document arenas, same column store). A throughput
//!   win on a wrong answer is no win; the gate asserts parity before it
//!   times anything.
//! * **Index build**: [`PhysicalIndex::build_with_jobs`] shards columnar
//!   row collection by document range. Sharded builds must be
//!   `PartialEq`-identical to the serial build at every worker count,
//!   and the sharded build must not regress against the serial one
//!   beyond the tolerance.
//!
//! Timing is noisy on shared CI runners, so the gate retries a few rounds
//! and fails only if every round regresses. `XIA_GATE_TOLERANCE`
//! overrides the relative tolerance (default 0.05 = 5%).

use std::time::Instant;
use xia_storage::{Collection, PhysicalIndex};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_xml::parse_document;
use xia_xpath::{parse_linear_path, ValueKind};

const ROUNDS: usize = 5;

fn tolerance() -> f64 {
    std::env::var("XIA_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05)
}

/// Inserts every text into a fresh collection, fused (`insert_xml`) or
/// two-pass (`parse_document` + `insert_document`); returns (collection,
/// secs).
fn ingest_secs(texts: &[String], two_pass: bool) -> (Collection, f64) {
    let mut c = Collection::new("GATE");
    let t0 = Instant::now();
    for t in texts {
        if two_pass {
            let doc = parse_document(t, c.vocab_mut()).expect("generated TPoX documents parse");
            c.insert_document(doc);
        } else {
            c.insert_xml(t).expect("generated TPoX documents parse");
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(c.len());
    (c, secs)
}

fn main() {
    let tol = tolerance();
    let (securities, orders, customers) = tpox::docs_xml(&TpoxConfig::tiny());
    let mut texts = securities;
    texts.extend(orders);
    texts.extend(customers);

    // Parity first: a fast wrong answer must not pass the gate.
    let (fused, _) = ingest_secs(&texts, false);
    let (two_pass, _) = ingest_secs(&texts, true);
    assert_eq!(
        fused.vocab(),
        two_pass.vocab(),
        "fused and two-pass ingest built different vocabularies"
    );
    assert!(
        fused.iter_docs().eq(two_pass.iter_docs()),
        "fused and two-pass ingest built different documents"
    );
    assert_eq!(
        fused.columns(),
        two_pass.columns(),
        "fused and two-pass ingest built different column stores"
    );
    println!("parity: fused == two-pass over {} documents", texts.len());

    let mut pass = false;
    for round in 1..=ROUNDS {
        let (_, two_pass_secs) = ingest_secs(&texts, true);
        let (_, fused_secs) = ingest_secs(&texts, false);
        let ok = fused_secs <= two_pass_secs * (1.0 + tol);
        println!(
            "round {round}: two-pass {:.1} ms, fused {:.1} ms ({:+.1}%) [{}]",
            two_pass_secs * 1e3,
            fused_secs * 1e3,
            (fused_secs / two_pass_secs - 1.0) * 100.0,
            if ok { "ok" } else { "REGRESSED" },
        );
        if ok {
            pass = true;
            break;
        }
    }
    if pass {
        println!("datapath gate: PASS (tolerance {:.0}%)", tol * 100.0);
    } else {
        eprintln!(
            "datapath gate: FAIL — fused ingest lagged the two-pass path in all {ROUNDS} rounds \
             (tolerance {:.0}%)",
            tol * 100.0
        );
        std::process::exit(1);
    }

    // Index-build leg: replicate the corpus past the sharding threshold,
    // then check the doc-range-sharded build for parity and overhead.
    let mut big = Collection::new("GATE");
    for _ in 0..20 {
        for t in &texts {
            big.insert_xml(t).expect("generated TPoX documents parse");
        }
    }
    assert!(big.columns().is_some(), "columnar projection must be live");
    let patterns = [
        ("/Security//*", ValueKind::Str),
        ("/Security/Symbol", ValueKind::Str),
        ("/Security/Yield", ValueKind::Num),
    ];
    for (pat, kind) in patterns {
        let p = parse_linear_path(pat).unwrap();
        let serial = PhysicalIndex::build_with_jobs(&big, &p, kind, 1);
        for jobs in [2, 4, 8] {
            let par = PhysicalIndex::build_with_jobs(&big, &p, kind, jobs);
            assert_eq!(
                serial, par,
                "sharded index build diverged from serial ({pat}, jobs={jobs})"
            );
        }
    }
    println!(
        "parity: sharded index build == serial over {} documents, {} patterns",
        big.len(),
        patterns.len()
    );

    let build_secs = |jobs: usize| {
        let t0 = Instant::now();
        for (pat, kind) in patterns {
            let p = parse_linear_path(pat).unwrap();
            std::hint::black_box(PhysicalIndex::build_with_jobs(&big, &p, kind, jobs).entries());
        }
        t0.elapsed().as_secs_f64()
    };
    let mut pass = false;
    for round in 1..=ROUNDS {
        let serial_secs = build_secs(1);
        let par_secs = build_secs(4);
        let ok = par_secs <= serial_secs * (1.0 + tol);
        println!(
            "round {round}: serial build {:.1} ms, sharded(4) {:.1} ms ({:+.1}%) [{}]",
            serial_secs * 1e3,
            par_secs * 1e3,
            (par_secs / serial_secs - 1.0) * 100.0,
            if ok { "ok" } else { "REGRESSED" },
        );
        if ok {
            pass = true;
            break;
        }
    }
    if pass {
        println!("index-build gate: PASS (tolerance {:.0}%)", tol * 100.0);
    } else {
        eprintln!(
            "index-build gate: FAIL — sharded index build lagged serial in all {ROUNDS} rounds \
             (tolerance {:.0}%)",
            tol * 100.0
        );
        std::process::exit(1);
    }
}
