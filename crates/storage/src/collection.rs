//! Multi-document XML collection.

use crate::columnar::ColumnStore;
use xia_obs::{Counter, Telemetry};
use xia_xml::{
    parse_document, stream_document, DocBuilder, Document, DocumentSink, StreamSink, Symbol, Value,
    Vocabulary, XmlError,
};

/// Identifier of a document within a collection. Ids are never reused; a
/// deleted document leaves a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// Raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A collection of XML documents sharing one vocabulary — the equivalent of
/// one XML-typed column in the paper's DB2 prototype.
///
/// Alongside the document arenas the collection maintains a columnar
/// projection of every leaf value ([`ColumnStore`]); inserts keep it
/// fresh incrementally (streamed inserts fuse the column append into the
/// parse), while deletes and in-place updates mark it dirty until the
/// next [`Collection::ensure_columns`].
#[derive(Debug)]
pub struct Collection {
    name: String,
    vocab: Vocabulary,
    docs: Vec<Option<Document>>,
    live: usize,
    columns: ColumnStore,
    columns_clean: bool,
    telemetry: Telemetry,
}

impl Default for Collection {
    fn default() -> Self {
        Self::new("")
    }
}

/// Streaming sink that builds the document arena *and* appends the
/// document's leaf values to the collection's column store in one pass
/// (events arrive in the per-path row order the store requires; see
/// `columnar.rs`).
struct ColumnDocSink<'a> {
    inner: DocumentSink,
    columns: &'a mut ColumnStore,
    doc: DocId,
}

impl StreamSink for ColumnDocSink<'_> {
    fn start_element(&mut self, name: Symbol, path: xia_xml::PathId) {
        self.columns.note_node(path, self.doc);
        self.inner.start_element(name, path);
    }

    fn attribute(&mut self, name: Symbol, path: xia_xml::PathId, value: Value) {
        self.columns.note_node(path, self.doc);
        self.columns
            .push_value(path, self.doc, self.inner.next_id(), &value);
        self.inner.attribute(name, path, value);
    }

    fn end_element(&mut self, name: Symbol, path: xia_xml::PathId, value: Option<Value>) {
        if let (Some(v), Some(node)) = (&value, self.inner.open_element()) {
            self.columns.push_value(path, self.doc, node, v);
        }
        self.inner.end_element(name, path, value);
    }
}

impl Collection {
    /// Creates an empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vocab: Vocabulary::new(),
            docs: Vec::new(),
            live: 0,
            columns: ColumnStore::new(),
            columns_clean: true,
            telemetry: Telemetry::off(),
        }
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Parses and stores an XML document: one scan builds the arena and
    /// appends the leaf values to the column store, without an
    /// intermediate tree walk. Produces a state byte-identical to
    /// [`Collection::insert_document`] of [`xia_xml::parse_document`].
    pub fn insert_xml(&mut self, xml: &str) -> Result<DocId, XmlError> {
        let id = DocId(self.docs.len() as u32);
        if !self.columns_clean {
            // Columns are already stale: skip the fused append, parse
            // straight into the arena.
            let doc = parse_document(xml, &mut self.vocab)?;
            self.telemetry.incr(Counter::DocsStreamed);
            return Ok(self.push_doc(doc));
        }
        let mut sink = ColumnDocSink {
            inner: DocumentSink::new(),
            columns: &mut self.columns,
            doc: id,
        };
        match stream_document(xml, &mut self.vocab, &mut sink) {
            Ok(()) => {
                self.telemetry.incr(Counter::DocsStreamed);
                let doc = sink
                    .inner
                    .into_document()
                    .map_err(|message| XmlError { offset: 0, message })?;
                Ok(self.push_doc(doc))
            }
            Err(e) => {
                // The fused sink may have appended rows for the aborted
                // document; rebuild lazily before the next columnar scan.
                self.columns_clean = false;
                Err(e)
            }
        }
    }

    /// Stores a document parsed against a *different* vocabulary by
    /// re-interning it into this collection's vocabulary (the merge step
    /// of parallel ingestion; see [`Document::remap`]).
    pub fn insert_parsed(&mut self, from: &Vocabulary, doc: &Document) -> DocId {
        let remapped = doc.remap(from, &mut self.vocab);
        self.insert_document(remapped)
    }

    /// Stores a pre-built document. The document must have been built
    /// against this collection's vocabulary.
    pub fn insert_document(&mut self, doc: Document) -> DocId {
        let id = DocId(self.docs.len() as u32);
        if self.columns_clean {
            self.columns.append_doc(id, &doc);
        }
        self.push_doc(doc)
    }

    fn push_doc(&mut self, doc: Document) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.docs.push(Some(doc));
        self.live += 1;
        id
    }

    /// Builds a document in place with a [`DocBuilder`] closure.
    ///
    /// ```
    /// use xia_storage::Collection;
    /// let mut c = Collection::new("SDOC");
    /// let id = c.build_doc("Security", |b| {
    ///     b.leaf("Symbol", "IBM");
    /// });
    /// assert_eq!(c.doc(id).unwrap().len(), 2);
    /// ```
    pub fn build_doc(&mut self, root: &str, f: impl FnOnce(&mut DocBuilder)) -> DocId {
        let mut b = DocBuilder::new(&mut self.vocab, root);
        f(&mut b);
        let doc = b.finish();
        self.insert_document(doc)
    }

    /// Removes a document, returning it. Idempotent. Marks the columnar
    /// projection stale.
    pub fn delete(&mut self, id: DocId) -> Option<Document> {
        let slot = self.docs.get_mut(id.index())?;
        let doc = slot.take();
        if doc.is_some() {
            self.live -= 1;
            self.columns_clean = false;
        }
        doc
    }

    /// Borrows a live document.
    pub fn doc(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index()).and_then(|d| d.as_ref())
    }

    /// Mutably borrows a live document (used by `update` execution).
    /// Marks the columnar projection stale: the caller may rewrite leaf
    /// values behind the columns' back.
    pub fn doc_mut(&mut self, id: DocId) -> Option<&mut Document> {
        let doc = self.docs.get_mut(id.index()).and_then(|d| d.as_mut());
        if doc.is_some() {
            self.columns_clean = false;
        }
        doc
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the collection has no live documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live documents.
    pub fn iter_docs(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|doc| (DocId(i as u32), doc)))
    }

    /// Total node count over live documents.
    pub fn total_nodes(&self) -> u64 {
        self.iter_docs().map(|(_, d)| d.len() as u64).sum()
    }

    /// Exposes the vocabulary mutably for callers that need to pre-intern
    /// (e.g. parsing a document before deciding to insert it).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Total slots including tombstones.
    pub fn slot_count(&self) -> usize {
        self.docs.len()
    }

    /// Fraction of slots that are tombstones (deleted documents).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            1.0 - self.live as f64 / self.docs.len() as f64
        }
    }

    /// Compacts the collection: drops tombstones and renumbers the
    /// remaining documents densely. Returns the mapping `old → new`
    /// [`DocId`] so callers can fix external references; physical indexes
    /// must be rebuilt afterwards (the catalog's doc ids are invalidated).
    pub fn compact(&mut self) -> Vec<(DocId, DocId)> {
        let mut mapping = Vec::with_capacity(self.live);
        let mut compacted: Vec<Option<Document>> = Vec::with_capacity(self.live);
        for (i, slot) in self.docs.iter_mut().enumerate() {
            if let Some(doc) = slot.take() {
                mapping.push((DocId(i as u32), DocId(compacted.len() as u32)));
                compacted.push(Some(doc));
            }
        }
        self.docs = compacted;
        self.rebuild_columns();
        mapping
    }

    /// The columnar leaf projection, or `None` while it is stale (after a
    /// delete or an in-place update). Call
    /// [`Collection::ensure_columns`] to refresh it.
    pub fn columns(&self) -> Option<&ColumnStore> {
        self.columns_clean.then_some(&self.columns)
    }

    /// Rebuilds the columnar projection if stale.
    pub fn ensure_columns(&mut self) {
        if !self.columns_clean {
            self.rebuild_columns();
        }
    }

    fn rebuild_columns(&mut self) {
        self.columns.clear();
        for (i, slot) in self.docs.iter().enumerate() {
            if let Some(doc) = slot {
                self.columns.append_doc(DocId(i as u32), doc);
            }
        }
        self.columns_clean = true;
    }

    /// Attaches a telemetry sink; ingestion and columnar-scan counters
    /// (`docs_streamed`, `ingest_batches`, `columnar_scan_rows`) report
    /// to it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// The attached telemetry sink (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_parse_and_read_back() {
        let mut c = Collection::new("SDOC");
        let id = c
            .insert_xml("<Security><Symbol>IBM</Symbol></Security>")
            .unwrap();
        assert_eq!(c.len(), 1);
        let doc = c.doc(id).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut c = Collection::new("SDOC");
        let a = c.insert_xml("<a/>").unwrap();
        let b = c.insert_xml("<b/>").unwrap();
        assert!(c.delete(a).is_some());
        assert!(c.delete(a).is_none());
        assert_eq!(c.len(), 1);
        assert!(c.doc(a).is_none());
        assert!(c.doc(b).is_some());
        // Ids are not reused.
        let d = c.insert_xml("<c/>").unwrap();
        assert_ne!(d, a);
    }

    #[test]
    fn shared_vocabulary_across_documents() {
        let mut c = Collection::new("SDOC");
        c.insert_xml("<Security><Yield>4.5</Yield></Security>")
            .unwrap();
        c.insert_xml("<Security><Yield>3.2</Yield></Security>")
            .unwrap();
        // /Security and /Security/Yield only.
        assert_eq!(c.vocab().paths.len(), 2);
        assert_eq!(c.total_nodes(), 4);
    }

    #[test]
    fn compact_drops_tombstones_and_renumbers() {
        let mut c = Collection::new("X");
        let ids: Vec<_> = (0..6)
            .map(|i| {
                c.build_doc("a", |b| {
                    b.leaf("v", i as f64);
                })
            })
            .collect();
        c.delete(ids[1]);
        c.delete(ids[4]);
        assert!((c.tombstone_ratio() - 2.0 / 6.0).abs() < 1e-9);
        let mapping = c.compact();
        assert_eq!(mapping.len(), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.tombstone_ratio(), 0.0);
        // Mapping is order-preserving and dense.
        assert_eq!(
            mapping,
            vec![
                (DocId(0), DocId(0)),
                (DocId(2), DocId(1)),
                (DocId(3), DocId(2)),
                (DocId(5), DocId(3)),
            ]
        );
        // Surviving document values follow the mapping.
        let v = c.vocab().lookup_name("v").unwrap();
        assert_eq!(
            c.doc(DocId(1)).unwrap().value_at(&[v]).unwrap().as_num(),
            Some(2.0)
        );
        // New inserts reuse the compacted id space.
        let next = c.build_doc("a", |b| {
            b.leaf("v", 9.0);
        });
        assert_eq!(next, DocId(4));
    }

    #[test]
    fn compact_of_clean_collection_is_identity() {
        let mut c = Collection::new("X");
        c.insert_xml("<a/>").unwrap();
        c.insert_xml("<b/>").unwrap();
        let mapping = c.compact();
        assert_eq!(mapping, vec![(DocId(0), DocId(0)), (DocId(1), DocId(1))]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iter_docs_skips_deleted() {
        let mut c = Collection::new("X");
        let a = c.insert_xml("<a/>").unwrap();
        c.insert_xml("<b/>").unwrap();
        c.delete(a);
        let ids: Vec<_> = c.iter_docs().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![DocId(1)]);
    }
}
