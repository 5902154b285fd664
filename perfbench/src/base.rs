//! The base database every workload starts from: seeded TPoX documents,
//! ingested in memory and persisted as an image.

use crate::stats::{mean, point_fast, timed};
use crate::{Config, Scale, SETUP_REPS};
use std::path::{Path, PathBuf};
use std::time::Instant;
use xia_storage::{ingest_batch, save_database, Database, IngestOptions};
use xia_workloads::tpox::{self, TpoxConfig, CUSTACC_COLL, ORDER_COLL, SECURITY_COLL};

/// Documents per `ingest_batch` call when building the base.
pub const LOAD_BATCH: usize = 50;

/// The TPoX collections, in `tpox::docs_xml` order.
pub const COLLECTIONS: [&str; 3] = [SECURITY_COLL, ORDER_COLL, CUSTACC_COLL];

/// The TPoX configuration of a run: the scale's sizes, the run's seed.
pub fn tpox_config(cfg: &Config) -> TpoxConfig {
    let sized = match cfg.scale {
        Scale::Paper => TpoxConfig::scaled(1),
        Scale::Tiny => TpoxConfig::tiny(),
    };
    TpoxConfig {
        seed: cfg.seed,
        ..sized
    }
}

/// Derives an independent seed for one stream of generated inputs.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair: neighbouring seeds and streams
    // give unrelated values.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A freshly built base database.
pub struct Base {
    /// The database as ingested, never persisted.
    pub db: Database,
    /// Where the image was saved.
    pub image: PathBuf,
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Bytes of XML text ingested.
    pub xml_bytes: u64,
    /// Time of each `ingest_batch` call, in milliseconds.
    pub batch_ms: Vec<f64>,
    /// Time spent in `save_database`.
    pub save_ms: f64,
}

impl Base {
    /// Generates the run's documents, ingests them collection by
    /// collection in batches of `LOAD_BATCH` documents (as repeated
    /// `xia load` calls would), runs RUNSTATS and saves the image to
    /// `image`.
    pub fn build(cfg: &Config, image: &Path) -> Result<Base, String> {
        let (sec, ord, cus) = tpox::docs_xml(&tpox_config(cfg));
        let mut db = Database::new();
        let mut batch_ms = Vec::new();
        let mut xml_bytes = 0u64;
        for (name, texts) in COLLECTIONS.into_iter().zip([&sec, &ord, &cus]) {
            xml_bytes += texts.iter().map(|t| t.len() as u64).sum::<u64>();
            let coll = db.create_collection(name);
            for chunk in texts.chunks(LOAD_BATCH) {
                let (res, t) = timed(|| ingest_batch(coll, chunk, IngestOptions::default()));
                res.map_err(|e| format!("ingest of generated {name} documents failed: {e}"))?;
                batch_ms.push(t);
            }
        }
        db.runstats_all();
        let (res, save_ms) = timed(|| save_database(&db, image));
        res.map_err(|e| format!("cannot save {}: {e}", image.display()))?;
        let image_bytes = std::fs::metadata(image)
            .map_err(|e| format!("cannot stat {}: {e}", image.display()))?
            .len();
        Ok(Base {
            db,
            image: image.to_path_buf(),
            image_bytes,
            xml_bytes,
            batch_ms,
            save_ms,
        })
    }

    /// Persisted image bytes per byte of ingested XML.
    pub fn image_ratio(&self) -> f64 {
        self.image_bytes as f64 / self.xml_bytes as f64
    }
}

/// Batches an [`IngestProbe`] ingests at each of its points of a run.
pub const PROBE_BATCHES: usize = 40;

/// Re-ingests the base documents, one `LOAD_BATCH` batch at a time, into
/// a scratch database of its own, so that a workload without an ingest
/// op times `ingest_batch` throughout its timed phase and not only in
/// the second or two of set-up. Each batch goes into a fresh scratch
/// database, so the probe holds one batch's worth of memory, and after
/// the last batch the probe starts over from the first. A batch
/// whose report does not list every document, or that ingests a
/// different node count than it did the first time, counts as a failed
/// op.
pub struct IngestProbe {
    batches: Vec<(&'static str, Vec<String>)>,
    /// Nodes each batch ingested the first time.
    nodes: Vec<Option<u64>>,
    next: usize,
    /// Batch index and time in milliseconds of each `ingest_batch` call
    /// that succeeded.
    pub ms: Vec<(usize, f64)>,
    /// Batches ingested.
    pub attempted: u64,
    /// Batches that failed.
    pub failed: u64,
}

impl IngestProbe {
    /// A probe over the run's base documents.
    pub fn new(cfg: &Config) -> IngestProbe {
        let (sec, ord, cus) = tpox::docs_xml(&tpox_config(cfg));
        let batches: Vec<_> = COLLECTIONS
            .into_iter()
            .zip([sec, ord, cus])
            .flat_map(|(name, texts)| {
                texts
                    .chunks(LOAD_BATCH)
                    .map(|chunk| (name, chunk.to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        IngestProbe {
            nodes: vec![None; batches.len()],
            batches,
            next: 0,
            ms: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Ingests the next `n` batches, each into a fresh scratch database.
    pub fn step(&mut self, n: usize) {
        for _ in 0..n {
            if self.next == self.batches.len() {
                self.next = 0;
            }
            let (name, texts) = &self.batches[self.next];
            let mut db = Database::new();
            let coll = db.create_collection(name);
            let (res, t) = timed(|| ingest_batch(coll, texts, IngestOptions::default()));
            self.attempted += 1;
            let ok = match res {
                Ok(report) if report.doc_ids.len() == texts.len() => {
                    *self.nodes[self.next].get_or_insert(report.nodes) == report.nodes
                }
                _ => false,
            };
            if ok {
                self.ms.push((self.next, t));
            } else {
                self.failed += 1;
            }
            self.next += 1;
        }
    }

    /// Mean over the batches of each batch's [`crate::stats::fast`] time.
    pub fn fast_ms(&self) -> f64 {
        mean(&point_fast(&self.ms, self.batches.len()))
    }
}

/// Runs a set-up once unmeasured, so the process's heap has grown to
/// its working size, then `SETUP_REPS` times measured. The closure is
/// told whether its repetition is measured. Returns each measured
/// repetition's wall seconds and the last repetition's result.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(bool) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    drop(setup(false)?);
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup(true)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((secs, last.expect("SETUP_REPS > 0")))
}
