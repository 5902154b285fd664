//! Parallel multi-document ingestion.
//!
//! [`ingest_batch`] parses a batch of XML texts with a pool of scoped
//! threads (the same `--jobs` / `std::thread::scope` discipline the
//! advisor's parallel enumeration uses) and merges the results into a
//! collection **deterministically**: workers parse against private
//! vocabularies, and the coordinator re-interns every document into the
//! shared vocabulary in input order ([`xia_xml::Document::remap`]).
//! Because remapping interns names and paths in exactly the sequence a
//! sequential parse would, the resulting collection — vocabulary ids,
//! document arenas, column store — is byte-identical for any worker
//! count, including 1.
//!
//! The batch is all-or-nothing: if any text fails to parse, the
//! collection (including its vocabulary) is left untouched and the error
//! reports the index of the earliest offending text.

use crate::collection::{Collection, DocId};
use std::fmt;
use xia_obs::{Counter, Telemetry};
use xia_xml::{parse_document, Document, Vocabulary, XmlError};

/// Options for [`ingest_batch`].
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self { jobs: 1 }
    }
}

/// A parse failure within a batch. No documents were inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// Index into the batch of the earliest text that failed.
    pub index: usize,
    /// The parse error.
    pub error: XmlError,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "document {}: {}", self.index, self.error)
    }
}

impl std::error::Error for IngestError {}

/// Summary of a successful [`ingest_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Ids assigned, in batch order.
    pub doc_ids: Vec<DocId>,
    /// Total nodes ingested.
    pub nodes: u64,
    /// Worker chunks processed (one batch per worker).
    pub batches: usize,
    /// Worker threads used.
    pub workers: usize,
}

/// Resolves a `--jobs` request against the host (0 = all CPUs).
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

struct WorkerOutput {
    vocab: Vocabulary,
    docs: Vec<Document>,
    /// First parse failure in this worker's chunk, as a global index.
    error: Option<IngestError>,
    scratch: Telemetry,
}

fn parse_chunk(
    texts: &[impl AsRef<str>],
    chunk_start: usize,
    telemetry_enabled: bool,
) -> WorkerOutput {
    let mut out = WorkerOutput {
        vocab: Vocabulary::new(),
        docs: Vec::with_capacity(texts.len()),
        error: None,
        scratch: if telemetry_enabled {
            Telemetry::new()
        } else {
            Telemetry::off()
        },
    };
    for (offset, text) in texts.iter().enumerate() {
        match parse_document(text.as_ref(), &mut out.vocab) {
            Ok(doc) => {
                out.scratch.incr(Counter::DocsStreamed);
                out.docs.push(doc);
            }
            Err(error) => {
                out.error = Some(IngestError {
                    index: chunk_start + offset,
                    error,
                });
                break;
            }
        }
    }
    out
}

/// Parses `texts` with up to `opts.jobs` scoped worker threads and
/// inserts the documents into `collection` in batch order. All-or-nothing
/// on parse errors; deterministic for any worker count.
pub fn ingest_batch(
    collection: &mut Collection,
    texts: &[impl AsRef<str> + Sync],
    opts: IngestOptions,
) -> Result<IngestReport, IngestError> {
    let workers = resolve_jobs(opts.jobs).min(texts.len()).max(1);
    let chunk_len = texts.len().div_ceil(workers);
    let telemetry_enabled = collection.telemetry().is_enabled();

    let mut outputs: Vec<WorkerOutput> = if workers <= 1 {
        vec![parse_chunk(texts, 0, telemetry_enabled)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = texts
                .chunks(chunk_len)
                .enumerate()
                .map(|(w, chunk)| {
                    scope.spawn(move || parse_chunk(chunk, w * chunk_len, telemetry_enabled))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest worker panicked"))
                .collect()
        })
    };
    let batches = outputs.len();

    // Earliest failing text wins, independent of worker scheduling.
    if let Some(err) = outputs
        .iter_mut()
        .filter_map(|o| o.error.take())
        .min_by_key(|e| e.index)
    {
        return Err(err);
    }

    // Merge in input order: remapping re-interns each document's names
    // and paths in preorder, reproducing the sequential intern sequence.
    let mut doc_ids = Vec::with_capacity(texts.len());
    let mut nodes = 0u64;
    for out in &outputs {
        for doc in &out.docs {
            nodes += doc.len() as u64;
            doc_ids.push(collection.insert_parsed(&out.vocab, doc));
        }
    }

    // Fold per-worker scratch telemetry into the collection's sink in
    // worker order.
    let telemetry = collection.telemetry();
    for out in &outputs {
        for c in Counter::ALL {
            let n = out.scratch.get(c);
            if n > 0 {
                telemetry.add(c, n);
            }
        }
    }
    telemetry.add(Counter::IngestBatches, batches as u64);

    Ok(IngestReport {
        doc_ids,
        nodes,
        batches,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "<Security><Symbol>S{i}</Symbol><Yield>{}</Yield><Info sector=\"T{}\"/></Security>",
                    i as f64 / 2.0,
                    i % 3
                )
            })
            .collect()
    }

    type Fingerprint = (xia_xml::Vocabulary, Vec<(DocId, Document)>);

    fn fingerprint(c: &Collection) -> Fingerprint {
        (
            c.vocab().clone(),
            c.iter_docs().map(|(i, d)| (i, d.clone())).collect(),
        )
    }

    #[test]
    fn batch_matches_sequential_inserts() {
        let batch = texts(13);
        let mut seq = Collection::new("C");
        for t in &batch {
            seq.insert_xml(t).unwrap();
        }
        let mut par = Collection::new("C");
        let report = ingest_batch(&mut par, &batch, IngestOptions { jobs: 4 }).unwrap();
        assert_eq!(report.doc_ids.len(), 13);
        assert_eq!(report.workers, 4);
        assert_eq!(report.batches, 4);
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        assert_eq!(seq.columns().unwrap(), par.columns().unwrap());
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let batch = texts(11);
        let mut baseline = Collection::new("C");
        ingest_batch(&mut baseline, &batch, IngestOptions::default()).unwrap();
        for jobs in [2, 3, 8, 0] {
            let mut c = Collection::new("C");
            let report = ingest_batch(&mut c, &batch, IngestOptions { jobs }).unwrap();
            assert!(report.workers >= 1);
            assert_eq!(fingerprint(&baseline), fingerprint(&c), "jobs = {jobs}");
        }
    }

    #[test]
    fn dom_and_streaming_ingest_agree() {
        // Batch ingest (parse on workers, remap at merge) against the
        // materialized two-pass path: `parse_document` then
        // `insert_document`, which appends columns from the finished tree.
        let batch = texts(9);
        let mut batched = Collection::new("C");
        ingest_batch(&mut batched, &batch, IngestOptions { jobs: 3 }).unwrap();
        let mut two_pass = Collection::new("C");
        for t in &batch {
            let doc = parse_document(t, two_pass.vocab_mut()).unwrap();
            two_pass.insert_document(doc);
        }
        assert_eq!(fingerprint(&batched), fingerprint(&two_pass));
        assert_eq!(batched.columns().unwrap(), two_pass.columns().unwrap());
    }

    #[test]
    fn failed_batch_leaves_collection_untouched() {
        let mut batch = texts(10);
        batch[7] = "<broken".to_string();
        batch[3] = "<also><broken".to_string();
        let mut c = Collection::new("C");
        c.insert_xml("<pre><existing>1</existing></pre>").unwrap();
        let before = fingerprint(&c);
        let err = ingest_batch(&mut c, &batch, IngestOptions { jobs: 4 }).unwrap_err();
        // Earliest bad text wins regardless of chunk layout.
        assert_eq!(err.index, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(before, fingerprint(&c));
    }

    #[test]
    fn telemetry_counts_streamed_docs_and_batches() {
        let t = Telemetry::new();
        let mut c = Collection::new("C");
        c.set_telemetry(&t);
        let batch = texts(8);
        ingest_batch(&mut c, &batch, IngestOptions { jobs: 2 }).unwrap();
        assert_eq!(t.get(Counter::DocsStreamed), 8);
        assert_eq!(t.get(Counter::IngestBatches), 2);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut c = Collection::new("C");
        let report = ingest_batch(&mut c, &Vec::<String>::new(), IngestOptions::default()).unwrap();
        assert!(report.doc_ids.is_empty());
        assert_eq!(report.batches, 1);
        assert!(c.is_empty());
    }
}
