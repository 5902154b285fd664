//! The metric tables (the single source of the names and units listed in
//! `BENCHMARK.json`) and the collector every workload fills.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("recommend_p5_ms", "ms"),
    ("recommend_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ingest_p5_ms", "ms"),
    ("observe_p5_ms", "ms"),
    ("image_bytes_per_xml_byte", "ratio"),
    ("est_speedup", "x"),
    ("exec_speedup", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Session ages (observed statements) of the `serve-longlived` series.
pub const SERIES_AGES: [(usize, &str); 3] = [(1_000, "1k"), (4_000, "4k"), (16_000, "16k")];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not cross reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_ms", "ms"),
    ("storage.persist.checksum_ms", "ms"),
    ("storage.collection.insert_ms", "ms"),
    ("storage.stats.runstats_ms", "ms"),
    ("storage.persist.load_ms", "ms"),
    ("storage.persist.save_ms", "ms"),
    ("storage.ingest.batch_ms", "ms"),
    ("storage.persist.image_bytes", "bytes"),
    ("storage.index.build_ms", "ms"),
    ("xpath.parse_ms", "ms"),
    ("xpath.contain.cache_hits", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.generalize_ms", "ms"),
    ("core.generalize.pairs_visited", "count"),
    ("core.size_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.compress.templates", "count"),
    ("core.search.heuristics_ms", "ms"),
    ("core.search.topdown-full_ms", "ms"),
    ("core.search.dp_ms", "ms"),
    ("core.search.cophy_ms", "ms"),
    ("core.benefit.cache_hit_ratio", "ratio"),
    ("core.benefit.stmt_cache_hits", "count"),
    ("core.session.observe_ms", "ms"),
    ("core.session.recommend_ms", "ms"),
    ("core.session.distinct_statements", "count"),
    ("core.session.warm_costings", "count"),
    ("core.session.recommend_ms.obs_1k", "ms"),
    ("core.session.recommend_ms.obs_4k", "ms"),
    ("core.session.recommend_ms.obs_16k", "ms"),
    ("core.session.distinct_statements.obs_1k", "count"),
    ("core.session.distinct_statements.obs_4k", "count"),
    ("core.session.distinct_statements.obs_16k", "count"),
    ("core.drift.readvises", "count"),
    ("optimizer.evaluate_calls", "count"),
    ("optimizer.whatif_p50_us", "us"),
    ("optimizer.exec.work", "count"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.render_us", "us"),
    ("server.session.observe_ms", "ms"),
    ("server.session.recommend_ms", "ms"),
    ("server.residual_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounted_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.accounted_share", "ratio"),
];

/// Collects metric values by name while a workload runs.
#[derive(Debug, Default)]
pub struct Collector {
    values: BTreeMap<&'static str, f64>,
}

impl Collector {
    /// Records a value (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Orders the values by the table of the run's kind. An end-to-end
    /// metric a workload failed to record is a benchmark bug; a per-layer
    /// metric it did not record belongs to a layer the workload does not
    /// cross and reads 0.
    pub fn finish(self, trace: bool) -> Result<Metrics, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the metric table"));
            }
        }
        let mut out = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            out.push(Metric { name, value, unit });
        }
        Ok(Metrics(out))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the metric table.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from the metric table.
    pub unit: &'static str,
}

/// The reported metrics, in table order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}
