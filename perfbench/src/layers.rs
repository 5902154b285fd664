//! Per-layer measurement: advisor phases read from the program's
//! `Telemetry`, and the storage decomposition timed from the benchmark's
//! own calls into `xia-xml` and `xia-storage`.

use crate::metrics::Collector;
use crate::stats::{median, timed};
use std::path::Path;
use xia_obs::{Counter, Hist, LatencyHistogram, Telemetry};
use xia_storage::{load_database, persist::fnv1a64, runstats, Collection};
use xia_xml::writer::write_document;
use xia_xml::{parse_document_streaming, Vocabulary};

/// Search-span name of each algorithm a workload runs, with the metric
/// its time goes to.
const SEARCH_METRICS: [(&str, &str); 4] = [
    ("heuristics", "core.search.heuristics_ms"),
    ("topdown-full", "core.search.topdown-full_ms"),
    ("dp", "core.search.dp_ms"),
    ("cophy", "core.search.cophy_ms"),
];

/// Advisor-side work of one recommend, read from a telemetry sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvisorSample {
    /// Search algorithm span name.
    pub algo: &'static str,
    enumerate_ms: f64,
    generalize_ms: f64,
    size_ms: f64,
    compress_ms: f64,
    search_ms: f64,
    evaluate_calls: u64,
    cache_hits: u64,
    cache_misses: u64,
    stmt_cache_hits: u64,
    pairs_visited: u64,
    contain_hits: u64,
    templates: u64,
}

fn span_ms(t: &Telemetry, name: &str) -> f64 {
    t.span_micros(name) as f64 / 1e3
}

impl AdvisorSample {
    /// Cumulative totals of a sink (spans summed over the whole tree).
    pub fn read(t: &Telemetry, algo: &'static str) -> Self {
        AdvisorSample {
            algo,
            enumerate_ms: span_ms(t, "enumerate"),
            generalize_ms: span_ms(t, "generalize"),
            size_ms: span_ms(t, "size"),
            compress_ms: span_ms(t, "compress"),
            search_ms: span_ms(t, algo),
            evaluate_calls: t.get(Counter::OptimizerEvaluateCalls),
            cache_hits: t.get(Counter::BenefitCacheHits),
            cache_misses: t.get(Counter::BenefitCacheMisses),
            stmt_cache_hits: t.get(Counter::StmtCacheHits),
            pairs_visited: t.get(Counter::GeneralizePairsVisited),
            contain_hits: t.get(Counter::ContainCacheHits),
            templates: t.get(Counter::TemplatesBuilt),
        }
    }

    /// The work done between an earlier reading of the same sink and
    /// this one.
    pub fn since(&self, earlier: &AdvisorSample) -> AdvisorSample {
        AdvisorSample {
            algo: self.algo,
            enumerate_ms: self.enumerate_ms - earlier.enumerate_ms,
            generalize_ms: self.generalize_ms - earlier.generalize_ms,
            size_ms: self.size_ms - earlier.size_ms,
            compress_ms: self.compress_ms - earlier.compress_ms,
            search_ms: self.search_ms - earlier.search_ms,
            evaluate_calls: self.evaluate_calls - earlier.evaluate_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            stmt_cache_hits: self.stmt_cache_hits - earlier.stmt_cache_hits,
            pairs_visited: self.pairs_visited - earlier.pairs_visited,
            contain_hits: self.contain_hits - earlier.contain_hits,
            templates: self.templates - earlier.templates,
        }
    }

    /// Milliseconds the sample's phases account for.
    pub fn phases_ms(&self) -> f64 {
        self.enumerate_ms + self.generalize_ms + self.size_ms + self.compress_ms + self.search_ms
    }
}

/// Advisor samples of a run plus its merged what-if latency histogram.
#[derive(Debug, Default)]
pub struct AdvisorLedger {
    samples: Vec<AdvisorSample>,
    what_if: LatencyHistogram,
}

impl AdvisorLedger {
    /// Adds one recommend's sample.
    pub fn push(&mut self, sample: AdvisorSample) {
        self.samples.push(sample);
    }

    /// Folds a sink's what-if call histogram into the run's.
    pub fn merge_what_if(&mut self, t: &Telemetry) {
        self.what_if.merge_from(&t.hist_snapshot(Hist::WhatIfCall));
    }

    /// Records the advisor-layer metrics: per-recommend medians of phase
    /// times and counts, run-wide hit ratios, and the what-if p50.
    pub fn record(&self, c: &mut Collector) {
        let s = &self.samples;
        let med = |f: &dyn Fn(&AdvisorSample) -> f64| median(&s.iter().map(f).collect::<Vec<_>>());
        c.set("core.enumerate_ms", med(&|x| x.enumerate_ms));
        c.set("core.generalize_ms", med(&|x| x.generalize_ms));
        c.set("core.size_ms", med(&|x| x.size_ms));
        c.set(
            "optimizer.evaluate_calls",
            med(&|x| x.evaluate_calls as f64),
        );
        c.set(
            "core.benefit.stmt_cache_hits",
            med(&|x| x.stmt_cache_hits as f64),
        );
        c.set(
            "core.generalize.pairs_visited",
            med(&|x| x.pairs_visited as f64),
        );
        c.set("xpath.contain.cache_hits", med(&|x| x.contain_hits as f64));
        for (algo, metric) in SEARCH_METRICS {
            let times: Vec<f64> = s
                .iter()
                .filter(|x| x.algo == algo)
                .map(|x| x.search_ms)
                .collect();
            if !times.is_empty() {
                c.set(metric, median(&times));
            }
        }
        let sum = |f: &dyn Fn(&AdvisorSample) -> u64| s.iter().map(f).sum::<u64>() as f64;
        let ratio = |hits: f64, total: f64| if total > 0.0 { hits / total } else { 0.0 };
        c.set(
            "core.benefit.cache_hit_ratio",
            ratio(
                sum(&|x| x.cache_hits),
                sum(&|x| x.cache_hits + x.cache_misses),
            ),
        );
        c.set(
            "optimizer.whatif_p50_us",
            self.what_if.quantile(0.5) as f64 / 1e3,
        );
    }

    /// Records the compress-phase time and templates built (medians over
    /// the samples that compressed), if any sample compressed.
    pub fn record_compress(&self, c: &mut Collector) {
        let compressed: Vec<&AdvisorSample> =
            self.samples.iter().filter(|x| x.templates > 0).collect();
        if !compressed.is_empty() {
            let med = |f: fn(&AdvisorSample) -> f64| {
                median(&compressed.iter().map(|x| f(x)).collect::<Vec<_>>())
            };
            c.set("core.compress_ms", med(|x| x.compress_ms));
            c.set("core.compress.templates", med(|x| x.templates as f64));
        }
    }
}

/// Medians of the storage decomposition of one image load.
#[derive(Debug, Clone, Copy)]
pub struct StorageLedger {
    /// The loader's two FNV-1a passes: per document payload, and the
    /// running checksum over the whole image (0 for a format without
    /// them).
    pub checksum_ms: f64,
    /// Streaming XML parse of every payload into a DOM.
    pub parse_ms: f64,
    /// `Collection::insert_xml` of every payload minus `parse_ms`: the
    /// columnar append and arena push (self time).
    pub insert_ms: f64,
    /// RUNSTATS over every collection.
    pub runstats_ms: f64,
    /// The whole `load_database`.
    pub load_ms: f64,
}

impl StorageLedger {
    /// Sum of the decomposed parts of a load.
    pub fn parts_ms(&self) -> f64 {
        self.checksum_ms + self.parse_ms + self.insert_ms + self.runstats_ms
    }

    /// Records the storage-layer metrics.
    pub fn record(&self, c: &mut Collector) {
        c.set("storage.persist.checksum_ms", self.checksum_ms);
        c.set("xml.parse_ms", self.parse_ms);
        c.set("storage.collection.insert_ms", self.insert_ms);
        c.set("storage.stats.runstats_ms", self.runstats_ms);
        c.set("storage.persist.load_ms", self.load_ms);
    }
}

/// The header of the image format whose loader verifies the checksums
/// `checksum_ms` times.
const CHECKSUMMED_FORMAT: &[u8] = b"XIADB v2\n";

/// Times each step `load_database` performs on `image`, by calling the
/// same public functions the loader calls, `reps` times; reports medians.
/// The document payloads are those `save_database` writes for the loaded
/// database, so the decomposition does not depend on the image's framing;
/// the checksum step is timed only for the format that has it and is 0
/// otherwise.
pub fn decompose_load(image: &Path, reps: usize) -> Result<StorageLedger, String> {
    let bytes =
        std::fs::read(image).map_err(|e| format!("cannot read {}: {e}", image.display()))?;
    let db = load_database(image).map_err(|e| format!("cannot load {}: {e}", image.display()))?;
    let names: Vec<&str> = db.collection_names();
    let mut docs: Vec<(usize, String)> = Vec::new();
    for (c, name) in names.iter().enumerate() {
        let coll = db
            .collection(name)
            .ok_or_else(|| format!("no collection {name}"))?;
        docs.extend(
            coll.iter_docs()
                .map(|(_, d)| (c, write_document(d, coll.vocab()))),
        );
    }
    let checksummed = bytes.starts_with(CHECKSUMMED_FORMAT);
    let (mut checksum, mut parse, mut insert, mut stats, mut load) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        if checksummed {
            let (sum, t) = timed(|| {
                let per_doc = docs
                    .iter()
                    .fold(0u64, |acc, (_, d)| acc ^ fnv1a64(d.as_bytes()));
                std::hint::black_box(per_doc) ^ fnv1a64(&bytes)
            });
            std::hint::black_box(sum);
            checksum.push(t);
        }

        let (res, t) = timed(|| {
            let mut vocabs: Vec<Vocabulary> = names.iter().map(|_| Vocabulary::new()).collect();
            docs.iter().try_for_each(|(c, d)| {
                parse_document_streaming(d, &mut vocabs[*c])
                    .map(std::hint::black_box)
                    .map(drop)
            })
        });
        res.map_err(|e| format!("image document does not parse: {e}"))?;
        parse.push(t);

        let (colls, t) = timed(|| -> Result<Vec<Collection>, String> {
            let mut colls: Vec<Collection> = names.iter().map(|n| Collection::new(*n)).collect();
            for (c, d) in &docs {
                colls[*c]
                    .insert_xml(d)
                    .map_err(|e| format!("image document does not insert: {e}"))?;
            }
            Ok(colls)
        });
        let colls = colls?;
        insert.push(t);

        let (all, t) = timed(|| colls.iter().map(runstats).collect::<Vec<_>>());
        std::hint::black_box(all);
        stats.push(t);

        let (db, t) = timed(|| load_database(image));
        db.map_err(|e| format!("cannot load {}: {e}", image.display()))?;
        load.push(t);
    }
    let parse_ms = median(&parse);
    Ok(StorageLedger {
        checksum_ms: median(&checksum),
        parse_ms,
        insert_ms: median(&insert) - parse_ms,
        runstats_ms: median(&stats),
        load_ms: median(&load),
    })
}
