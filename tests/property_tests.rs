//! Property-based tests over the core path algebra and data structures.
//!
//! Cases are generated with the workspace's internal deterministic PRNG
//! (`xia_workloads::prng`) rather than `proptest` — the build environment
//! has no registry access. Each test fixes its seed, so failures are
//! reproducible; the printed case in the assertion message is the
//! counterexample.

use xia_advisor::{generalize_pair, StmtSet};
use xia_workloads::prng::Prng;
use xia_xml::{parse_document, write_document, Vocabulary};
use xia_xpath::{contain, parse_linear_path, Axis, LinearPath, LinearStep, NameTest};

/// Small label alphabet so containment relations actually occur.
const LABELS: [&str; 5] = ["a", "b", "c", "Security", "Sector"];

fn label(rng: &mut Prng) -> String {
    LABELS[rng.gen_range(0..LABELS.len())].to_string()
}

fn step(rng: &mut Prng) -> LinearStep {
    let axis = if rng.gen_bool(0.5) {
        Axis::Child
    } else {
        Axis::Descendant
    };
    let test = if rng.gen_bool(0.25) {
        NameTest::Wildcard
    } else {
        NameTest::name_of(&label(rng))
    };
    LinearStep { axis, test }
}

fn linear_path(rng: &mut Prng) -> LinearPath {
    let n = rng.gen_range(1..6);
    LinearPath::new((0..n).map(|_| step(rng)).collect())
}

fn label_seq(rng: &mut Prng) -> Vec<String> {
    let n = rng.gen_range(0..6);
    (0..n).map(|_| label(rng)).collect()
}

#[test]
fn containment_is_reflexive() {
    let mut rng = Prng::seed_from_u64(0x01);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        assert!(contain::covers(&p, &p), "{p} does not cover itself");
    }
}

#[test]
fn containment_is_transitive() {
    let mut rng = Prng::seed_from_u64(0x02);
    for _ in 0..2000 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        let c = linear_path(&mut rng);
        if contain::covers(&a, &b) && contain::covers(&b, &c) {
            assert!(contain::covers(&a, &c), "{a} ⊇ {b} ⊇ {c} but not {a} ⊇ {c}");
        }
    }
}

#[test]
fn containment_agrees_with_matching() {
    // If g covers s, every word matched by s is matched by g.
    let mut rng = Prng::seed_from_u64(0x03);
    for _ in 0..2000 {
        let g = linear_path(&mut rng);
        let s = linear_path(&mut rng);
        let w = label_seq(&mut rng);
        if contain::covers(&g, &s) {
            let labels: Vec<&str> = w.iter().map(|x| x.as_str()).collect();
            if s.matches_labels(&labels) {
                assert!(
                    g.matches_labels(&labels),
                    "{g} covers {s} but misses {labels:?}"
                );
            }
        }
    }
}

#[test]
fn universal_covers_all() {
    let mut rng = Prng::seed_from_u64(0x04);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        assert!(contain::covers(&LinearPath::universal(), &p), "{p}");
    }
}

#[test]
fn display_parse_round_trip() {
    let mut rng = Prng::seed_from_u64(0x05);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        let s = p.to_string();
        let q = parse_linear_path(&s).expect("display must re-parse");
        assert_eq!(p, q, "round trip through `{s}`");
    }
}

#[test]
fn rewrite_rule0_preserves_matching() {
    // Rule 0 only *widens* the language (/* middle steps become //), so
    // any match of the original is a match of the rewrite.
    let mut rng = Prng::seed_from_u64(0x06);
    for _ in 0..1000 {
        let p = linear_path(&mut rng);
        let w = label_seq(&mut rng);
        let r = p.rewrite_rule0();
        let labels: Vec<&str> = w.iter().map(|x| x.as_str()).collect();
        if p.matches_labels(&labels) {
            assert!(r.matches_labels(&labels), "{p} -> {r} lost {labels:?}");
        }
        // And the rewrite covers the original pattern as a language.
        assert!(contain::covers(&r, &p), "{r} !⊇ {p}");
    }
}

#[test]
fn generalization_covers_both_inputs() {
    let mut rng = Prng::seed_from_u64(0x07);
    for _ in 0..512 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        for g in generalize_pair(&a, &b) {
            assert!(contain::covers(&g, &a), "{g} !⊇ {a}");
            assert!(contain::covers(&g, &b), "{g} !⊇ {b}");
        }
    }
}

#[test]
fn generalization_is_symmetric() {
    let mut rng = Prng::seed_from_u64(0x08);
    for _ in 0..512 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        let mut ab = generalize_pair(&a, &b);
        let mut ba = generalize_pair(&b, &a);
        ab.sort();
        ba.sort();
        assert_eq!(ab, ba, "generalize({a}, {b}) not symmetric");
    }
}

#[test]
fn stmtset_behaves_like_btreeset() {
    let mut rng = Prng::seed_from_u64(0x09);
    for _ in 0..256 {
        let n = rng.gen_range(0..60);
        let mut set = StmtSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n {
            let idx = rng.gen_range(0..200usize);
            set.insert(idx);
            model.insert(idx);
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
        for i in 0..200 {
            assert_eq!(set.contains(i), model.contains(&i));
        }
    }
}

#[test]
fn stmtset_union_is_union() {
    let mut rng = Prng::seed_from_u64(0x0a);
    for _ in 0..256 {
        let xs: Vec<usize> = (0..rng.gen_range(0..30))
            .map(|_| rng.gen_range(0..128usize))
            .collect();
        let ys: Vec<usize> = (0..rng.gen_range(0..30))
            .map(|_| rng.gen_range(0..128usize))
            .collect();
        let mut a = StmtSet::new();
        for &x in &xs {
            a.insert(x);
        }
        let mut b = StmtSet::new();
        for &y in &ys {
            b.insert(y);
        }
        let mut u = a.clone();
        u.union_with(&b);
        let model: std::collections::BTreeSet<usize> =
            xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            model.into_iter().collect::<Vec<_>>()
        );
        assert!(u.is_superset(&a) && u.is_superset(&b));
    }
}

/// Generalization-DAG invariants: every parent pattern covers every child
/// pattern semantically, kinds and collections agree along edges, and
/// roots have no parents.
#[test]
fn generalization_dag_parents_cover_children() {
    use xia_advisor::candidate::CandOrigin;
    use xia_advisor::{generalize_set, CandidateSet};

    let mut rng = Prng::seed_from_u64(0x0b);
    for _ in 0..48 {
        let leaves: Vec<Vec<String>> = (0..rng.gen_range(2..6))
            .map(|_| (0..rng.gen_range(1..4)).map(|_| label(&mut rng)).collect())
            .collect();
        let mut set = CandidateSet::new();
        for path in &leaves {
            let mut steps = vec!["root".to_string()];
            steps.extend(path.iter().cloned());
            let text = format!("/{}", steps.join("/"));
            let pattern = parse_linear_path(&text).expect("constructed path parses");
            set.insert("C", pattern, xia_xpath::ValueKind::Str, CandOrigin::Basic);
        }
        generalize_set(&mut set);
        for c in set.iter() {
            for &child in &c.children {
                let ch = set.get(child);
                assert_eq!(&c.collection, &ch.collection);
                assert_eq!(c.kind, ch.kind);
                assert!(
                    contain::covers(&c.pattern, &ch.pattern),
                    "{} does not cover child {}",
                    c.pattern,
                    ch.pattern
                );
                assert!(ch.parents.contains(&c.id));
            }
        }
        for root in set.roots() {
            assert!(set.get(root).parents.is_empty());
        }
    }
}

/// Fast-path parity: the semi-naive generalization fixpoint produces the
/// same candidate set — patterns, origins, DAG edge vectors in stored
/// order, affected sets — as the naive Algorithm 1 loop, on randomized
/// multi-collection, multi-kind workloads.
#[test]
fn semi_naive_fixpoint_matches_naive() {
    use xia_advisor::candidate::CandOrigin;
    use xia_advisor::{generalize_set_fast, generalize_set_naive, CandidateSet};
    use xia_obs::EventJournal;
    use xia_obs::Telemetry;

    let mut rng = Prng::seed_from_u64(0x0c);
    let colls = ["C1", "C2"];
    let kinds = [xia_xpath::ValueKind::Str, xia_xpath::ValueKind::Num];
    for _ in 0..48 {
        let mut seeds = Vec::new();
        for i in 0..rng.gen_range(2..8) {
            let depth = rng.gen_range(1..4);
            let mut steps = vec!["root".to_string()];
            steps.extend((0..depth).map(|_| label(&mut rng)));
            seeds.push((
                colls[rng.gen_range(0..colls.len())],
                format!("/{}", steps.join("/")),
                kinds[rng.gen_range(0..kinds.len())],
                i,
            ));
        }
        let build = |seeds: &[(&str, String, xia_xpath::ValueKind, usize)]| {
            let mut set = CandidateSet::new();
            for (coll, text, kind, stmt) in seeds {
                let pattern = parse_linear_path(text).expect("constructed path parses");
                let id = set.insert(coll, pattern, *kind, CandOrigin::Basic);
                set.get_mut(id).affected.insert(*stmt);
            }
            set
        };
        let mut naive = build(&seeds);
        let mut fast = build(&seeds);
        let created_naive =
            generalize_set_naive(&mut naive, &Telemetry::off(), &EventJournal::off());
        let created_fast = generalize_set_fast(&mut fast, &Telemetry::off(), &EventJournal::off());
        assert_eq!(created_naive, created_fast, "created ids diverge");
        assert_eq!(naive.len(), fast.len());
        for (n, f) in naive.iter().zip(fast.iter()) {
            assert_eq!(n.id, f.id);
            assert_eq!(n.pattern, f.pattern, "pattern diverges at {:?}", n.id);
            assert_eq!(
                (&n.collection, n.kind, n.origin),
                (&f.collection, f.kind, f.origin)
            );
            assert_eq!(n.children, f.children, "children diverge at {}", n.pattern);
            assert_eq!(n.parents, f.parents, "parents diverge at {}", n.pattern);
            assert_eq!(
                n.affected.iter().collect::<Vec<_>>(),
                f.affected.iter().collect::<Vec<_>>()
            );
        }
    }
}

/// The name-mask fast reject is sound: whenever the mask pre-check says
/// "cannot cover", the full NFA containment search agrees. (Completeness
/// is not required — a bloom collision may let a non-covering pair through
/// to the full search — but a true containment must never be rejected.)
#[test]
fn name_mask_never_rejects_true_containment() {
    let mut rng = Prng::seed_from_u64(0x0d);
    for _ in 0..4000 {
        let g = linear_path(&mut rng);
        let s = linear_path(&mut rng);
        if contain::covers(&g, &s) {
            assert_eq!(
                g.name_mask() & !s.name_mask(),
                0,
                "mask would reject true containment {g} ⊇ {s}"
            );
        }
    }
}

/// The interner round-trips every name that survives a parse: the symbol
/// resolved from a parsed step yields the original text, and re-interning
/// that text yields the same symbol.
#[test]
fn interner_round_trips_parsed_names() {
    let mut rng = Prng::seed_from_u64(0x0e);
    for i in 0..512 {
        // Mix the shared label alphabet with fresh unique names so both
        // the read-lock hit path and the insert path are exercised.
        let name = if rng.gen_bool(0.5) {
            label(&mut rng)
        } else {
            format!("uniq_pt_{i}")
        };
        let text = format!("/{name}//{name}");
        let p = parse_linear_path(&text).expect("constructed path parses");
        for step in &p.steps {
            let sym = step.test.sym().expect("named step");
            assert_eq!(sym.as_str(), name, "symbol text diverged");
            assert_eq!(xia_xpath::intern(&name), sym, "re-interning diverged");
        }
    }
}

/// Plan-equivalence: for random data and random queries over it, a forced
/// full scan and the optimizer's chosen (possibly index-ANDing) plan must
/// produce identical results.
#[test]
fn index_plans_agree_with_scan_plans() {
    use xia_advisor::{Advisor, AdvisorParams};
    use xia_optimizer::{execute_query, AccessChoice, Optimizer, Plan};
    use xia_storage::Database;
    use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
    use xia_workloads::tpox::{self, TpoxConfig};
    use xia_workloads::Workload;

    let mut case_rng = Prng::seed_from_u64(0x0c);
    for _ in 0..8 {
        let seed = case_rng.gen_range(0u64..1000);
        let wl_seed = case_rng.gen_range(0u64..1000);
        let mut db = Database::new();
        tpox::generate(
            &mut db,
            &TpoxConfig {
                securities: 40,
                orders: 60,
                customers: 30,
                seed,
            },
        );
        let queries = generate_queries(
            db.collection("SDOC").expect("generated"),
            &SyntheticConfig {
                queries: 6,
                seed: wl_seed,
                ..Default::default()
            },
        );
        let workload = Workload::from_texts(queries.iter().map(|s| s.as_str())).expect("parse");
        // Materialize every basic candidate physically.
        let set = Advisor::prepare(&mut db, &workload, &AdvisorParams::default());
        let basics = Advisor::all_index_config(&set);
        Advisor::materialize(&mut db, &set, &basics);
        db.runstats_all();

        for entry in workload.entries() {
            let coll = entry.statement.collection();
            let (collection, catalog, stats) = db.parts(coll).expect("collection exists");
            let optimizer = Optimizer::new(collection, stats, catalog);
            let plan = optimizer.optimize(&entry.statement);
            let scan = Plan {
                access: AccessChoice::Scan,
                ..plan.clone()
            };
            let via_plan =
                execute_query(&entry.statement, &plan, collection, catalog).expect("exec");
            let via_scan =
                execute_query(&entry.statement, &scan, collection, catalog).expect("exec");
            assert_eq!(
                via_plan.docs_matched, via_scan.docs_matched,
                "plan {} disagrees with scan on `{}` (seed {seed}/{wl_seed})",
                plan, entry.text
            );
            assert_eq!(via_plan.items, via_scan.items);
        }
    }
}

/// Random well-formed text content, biased toward entity references and
/// numerics so value decoding and the numeric column both get exercised.
fn random_text(rng: &mut Prng) -> String {
    match rng.gen_range(0..6) {
        0 => "plain value".to_string(),
        1 => format!("{}", rng.gen_range(0..50)),
        2 => format!("{}.5", rng.gen_range(0..20)),
        3 => "a &amp; b &lt;ok&gt; &quot;q&quot;".to_string(),
        4 => "&#65;&#x42;c".to_string(),
        _ => "  spaced  ".to_string(),
    }
}

const CDATA_BLOCKS: [&str; 3] = [
    "<![CDATA[keep & raw &# and &foo; verbatim]]>",
    "<![CDATA[1 < 2 > 0]]>",
    "<![CDATA[x]]>",
];

/// Random well-formed XML element: attributes (with entities), text,
/// CDATA, self-closing tags, mixed children, stray whitespace.
fn random_xml_element(rng: &mut Prng, depth: usize, out: &mut String) {
    let name = label(rng);
    out.push('<');
    out.push_str(&name);
    for i in 0..rng.gen_range(0..3) {
        out.push_str(&format!(" at{i}=\"{}\"", random_text(rng).trim()));
    }
    if rng.gen_bool(0.15) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if depth == 0 || rng.gen_bool(0.4) {
        match rng.gen_range(0..3) {
            0 => out.push_str(&random_text(rng)),
            1 => out.push_str(CDATA_BLOCKS[rng.gen_range(0..CDATA_BLOCKS.len())]),
            _ => {}
        }
    } else {
        for _ in 0..rng.gen_range(1..4) {
            if rng.gen_bool(0.3) {
                out.push_str("\n  ");
            }
            random_xml_element(rng, depth - 1, out);
        }
        if rng.gen_bool(0.3) {
            out.push('\n');
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// Parse/serialize fixed point: over randomized documents covering CDATA,
/// entity references, attributes, mixed content, and self-closing tags,
/// `write_document` of a parsed document parses back to the same arena
/// *and* the same vocabulary (name/path intern order) in a fresh
/// dictionary, and re-serializes to the same text — plus nesting at the
/// depth cap.
#[test]
fn streaming_parse_is_a_write_fixed_point() {
    use xia_xml::MAX_XML_DEPTH;

    fn assert_fixed_point(text: &str, what: &str) {
        let mut v1 = Vocabulary::new();
        let d1 = parse_document(text, &mut v1)
            .unwrap_or_else(|e| panic!("{what}: generated XML must parse: {e}\n`{text}`"));
        let written = write_document(&d1, &v1);
        let mut v2 = Vocabulary::new();
        let d2 = parse_document(&written, &mut v2)
            .unwrap_or_else(|e| panic!("{what}: serialized XML must parse: {e}\n`{written}`"));
        assert_eq!(d1, d2, "{what}: arenas diverge on `{text}`");
        assert_eq!(v1, v2, "{what}: vocabularies diverge on `{text}`");
        assert_eq!(write_document(&d2, &v2), written, "{what}: `{text}`");
    }

    let mut rng = Prng::seed_from_u64(0x12);
    for case in 0..256 {
        let mut text = String::new();
        random_xml_element(&mut rng, 4, &mut text);
        assert_fixed_point(&text, &format!("case {case}"));
    }

    // Nesting one level under the cap is a fixed point; one level past it
    // is rejected.
    let nested = |depth: usize| format!("{}v{}", "<d>".repeat(depth), "</d>".repeat(depth));
    assert_fixed_point(&nested(MAX_XML_DEPTH - 1), "depth cap - 1");
    let mut vocab = Vocabulary::new();
    let err = parse_document(&nested(MAX_XML_DEPTH + 1), &mut vocab).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

/// Columnar statistics parity property: RUNSTATS over the column store
/// must equal the document-scan fallback, for collections fed through the
/// fused `insert_xml` and through `parse_document` + `insert_document`
/// (which projects columns from the finished tree) alike.
#[test]
fn columnar_stats_match_scan() {
    use xia_storage::{runstats, runstats_scan, Collection};

    let mut rng = Prng::seed_from_u64(0x13);
    for case in 0..24 {
        let mut fused = Collection::new("P");
        let mut two_pass = Collection::new("P");
        for _ in 0..rng.gen_range(1..24) {
            let mut text = String::new();
            random_xml_element(&mut rng, 3, &mut text);
            fused.insert_xml(&text).expect("generated XML parses");
            let doc = parse_document(&text, two_pass.vocab_mut()).expect("generated XML parses");
            two_pass.insert_document(doc);
        }
        assert!(
            fused.columns().is_some() && two_pass.columns().is_some(),
            "case {case}: columns dirty after pure inserts"
        );
        assert_eq!(
            fused.columns(),
            two_pass.columns(),
            "case {case}: fused != two-pass column store"
        );
        let columnar = runstats(&fused);
        let scanned = runstats_scan(&fused);
        assert_eq!(columnar, scanned, "case {case}: columnar != scan");
        assert_eq!(
            columnar,
            runstats_scan(&two_pass),
            "case {case}: fused != two-pass collection stats"
        );
    }
}

fn random_fragment(rng: &mut Prng, max_len: usize) -> String {
    // Bytes biased toward XML metacharacters so structure-shaped inputs
    // actually occur.
    const POOL: &[u8] = b"<>/=\"'&;![]-?ab \t\n\x00";
    let n = rng.gen_range(0..max_len + 1);
    (0..n)
        .map(|_| POOL[rng.gen_range(0..POOL.len())] as char)
        .collect()
}

/// Robustness: the XML parser must never panic, whatever bytes arrive.
#[test]
fn xml_parser_never_panics() {
    let mut rng = Prng::seed_from_u64(0x0d);
    for _ in 0..512 {
        let input = random_fragment(&mut rng, 200);
        let mut vocab = Vocabulary::new();
        let _ = parse_document(&input, &mut vocab);
    }
}

/// Robustness on "almost XML": tag soup assembled from plausible parts.
#[test]
fn xml_parser_never_panics_on_tag_soup() {
    const PARTS: [&str; 13] = [
        "<a>",
        "</a>",
        "<b/>",
        "text",
        "<!--c-->",
        "&amp;",
        "&bogus;",
        "<a attr=\"v\">",
        "<![CDATA[x]]>",
        "<?pi?>",
        "<",
        ">",
        "\"",
    ];
    let mut rng = Prng::seed_from_u64(0x0e);
    for _ in 0..512 {
        let n = rng.gen_range(0..12);
        let input: String = (0..n)
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect();
        let mut vocab = Vocabulary::new();
        let _ = parse_document(&input, &mut vocab);
    }
}

/// Robustness: statement parsing must never panic.
#[test]
fn statement_parser_never_panics() {
    let mut rng = Prng::seed_from_u64(0x0f);
    for _ in 0..512 {
        let input = random_fragment(&mut rng, 160);
        let _ = xia_xpath::parse_statement(&input);
        let _ = xia_xpath::parse_linear_path(&input);
        let _ = xia_xpath::parse_path_expr(&input);
    }
}

/// Robustness on statement-shaped soup.
#[test]
fn statement_parser_never_panics_on_query_soup() {
    const PARTS: [&str; 15] = [
        "for ",
        "$v",
        " in ",
        "C('X')",
        "/a",
        "//*",
        "[b = 1]",
        " where ",
        " return ",
        "let $x := ",
        "order by ",
        "\"lit",
        "4.5e",
        "insert into ",
        "delete from ",
    ];
    let mut rng = Prng::seed_from_u64(0x10);
    for _ in 0..512 {
        let n = rng.gen_range(0..10);
        let input: String = (0..n)
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect();
        let _ = xia_xpath::parse_statement(&input);
    }
}

#[test]
fn document_write_parse_round_trip() {
    const VALUES: [&str; 4] = ["plain", "4.5", "a<b&c>d\"e", "  spaced  "];
    let mut rng = Prng::seed_from_u64(0x11);
    for _ in 0..64 {
        let leaves: Vec<(String, &str)> = (0..rng.gen_range(1..8))
            .map(|_| (label(&mut rng), VALUES[rng.gen_range(0..VALUES.len())]))
            .collect();
        let mut vocab = Vocabulary::new();
        let mut b = xia_xml::DocBuilder::new(&mut vocab, "root");
        for (name, value) in &leaves {
            b.leaf(name, value.trim());
        }
        let doc = b.finish();
        let text = write_document(&doc, &vocab);
        let reparsed = parse_document(&text, &mut vocab).expect("round trip parse");
        assert_eq!(reparsed.len(), doc.len());
        // Every leaf value survives.
        let originals: Vec<&str> = doc
            .nodes()
            .filter_map(|(_, n)| n.value.as_ref())
            .map(|v| v.as_str())
            .collect();
        let reparsed_vals: Vec<String> = reparsed
            .nodes()
            .filter_map(|(_, n)| n.value.as_ref())
            .map(|v| v.as_str().to_string())
            .collect();
        assert_eq!(originals.len(), reparsed_vals.len());
        for (o, r) in originals.iter().zip(reparsed_vals.iter()) {
            assert_eq!(*o, r.as_str());
        }
    }
}

/// Incremental-session parity: observing statements one at a time — the
/// serving path, which extends the prepared candidate set via basic
/// enumeration of just the new statements plus the semi-naive new×all
/// generalization fixpoint — must produce the same candidate *content*
/// (patterns, kinds, origins, DAG edges, affected statements) and an
/// equivalent recommendation as observing everything up front and
/// preparing once. Checked clean and under injected optimizer faults, at
/// jobs 1 and 4. Candidate *ids* are allowed to differ (the two paths
/// interleave basics and generals differently), so the comparison is
/// over canonical keys, not insertion order.
#[test]
fn incremental_prepare_matches_full_preparation() {
    use std::collections::BTreeMap;
    use xia_advisor::{AdvisorParams, CandidateSet, SearchAlgorithm, TuningSession};
    use xia_fault::FaultInjector;
    use xia_storage::Database;
    use xia_workloads::tpox::{self, TpoxConfig};

    type Canon = BTreeMap<String, (String, Vec<usize>, Vec<String>)>;
    fn canon(set: &CandidateSet) -> Canon {
        let key = |c: &xia_advisor::candidate::Candidate| {
            format!("{}|{}|{:?}", c.collection, c.pattern, c.kind)
        };
        set.iter()
            .map(|c| {
                let mut children: Vec<String> =
                    c.children.iter().map(|&id| key(set.get(id))).collect();
                children.sort();
                let mut affected: Vec<usize> = c.affected.iter().collect();
                affected.sort_unstable();
                (key(c), (format!("{:?}", c.origin), affected, children))
            })
            .collect()
    }

    let cfg = TpoxConfig::tiny();
    let texts = tpox::queries(&cfg);
    let specs: [Option<&str>; 2] = [None, Some("optimizer-cost:0.2")];
    for spec in specs {
        for jobs in [1usize, 4] {
            let params = || {
                let faults = match spec {
                    // Same seed on both sides: prepare consumes no
                    // optimizer-cost rolls, so the recommend-phase
                    // streams line up call for call.
                    Some(s) => FaultInjector::seeded(0x5eed)
                        .with_spec(s)
                        .expect("valid spec"),
                    None => FaultInjector::off(),
                };
                AdvisorParams {
                    faults,
                    jobs,
                    ..Default::default()
                }
            };
            let case = format!("spec={spec:?} jobs={jobs}");

            let mut db = Database::new();
            tpox::generate(&mut db, &cfg);
            let mut incremental = TuningSession::new();
            incremental.set_params(params());
            for t in &texts {
                incremental.observe(t).expect("TPoX queries parse");
                // Force a prepare after every observation so each step
                // exercises the incremental extension.
                incremental.candidate_count(&mut db);
            }

            let mut db_full = Database::new();
            tpox::generate(&mut db_full, &cfg);
            let mut full = TuningSession::new();
            full.set_params(params());
            for t in &texts {
                full.observe(t).expect("TPoX queries parse");
            }

            let ci = canon(incremental.candidates(&mut db));
            let cf = canon(full.candidates(&mut db_full));
            assert_eq!(ci.len(), cf.len(), "{case}: candidate counts diverge");
            for (k, v) in &cf {
                assert_eq!(
                    ci.get(k),
                    Some(v),
                    "{case}: candidate {k} diverges between incremental and full preparation"
                );
            }

            let ri = incremental
                .recommend(&mut db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
                .expect("incremental recommend");
            let rf = full
                .recommend(
                    &mut db_full,
                    u64::MAX / 2,
                    SearchAlgorithm::GreedyHeuristics,
                )
                .expect("full recommend");
            let pick = |r: &xia_advisor::Recommendation| {
                let mut v: Vec<String> = r
                    .indexes
                    .iter()
                    .map(|ix| format!("{}|{}|{:?}", ix.collection, ix.pattern, ix.kind))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(
                pick(&ri),
                pick(&rf),
                "{case}: chosen configurations diverge"
            );
            let rel = (ri.est_benefit - rf.est_benefit).abs() / rf.est_benefit.abs().max(1.0);
            assert!(
                rel < 1e-9,
                "{case}: benefits diverge: {} vs {}",
                ri.est_benefit,
                rf.est_benefit
            );
            assert_eq!(
                ri.quarantined.len(),
                rf.quarantined.len(),
                "{case}: quarantine diverges"
            );
        }
    }
}
