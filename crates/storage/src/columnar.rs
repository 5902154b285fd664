//! Columnar leaf-value storage.
//!
//! The document arena is the system of record, but statistics collection
//! and physical index builds only care about *leaf values grouped by rooted
//! path* — and chasing `Node` pointers document-by-document for those is
//! the single hottest loop once collections grow 100×. The
//! [`ColumnStore`] batches every leaf value into per-path typed arrays
//! (one string column, one numeric column per path), so RUNSTATS and
//! `PhysicalIndex::build` iterate contiguous slices instead.
//!
//! Row order invariant: within one path, rows are appended in `(DocId,
//! NodeId)` ascending order. Both writers preserve it — the fused
//! streaming sink appends at event time (a valued element closes before
//! any later node at its path opens, and attributes are emitted in
//! preorder), and [`ColumnStore::append_doc`] walks the arena in `NodeId`
//! order. Consumers rely on this to reproduce the exact scan-order output
//! of the arena walk.

use crate::collection::DocId;
use xia_xml::{Document, NodeId, PathId, Value};

/// Columns for one rooted path.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PathColumn {
    node_count: u64,
    /// Documents containing at least one node at this path, ascending,
    /// deduplicated (consecutive-dedup; appends arrive in ascending doc
    /// order, so this is exact).
    struct_docs: Vec<DocId>,
    /// Per value row: owning document.
    docs: Vec<DocId>,
    /// Per value row: the valued node.
    nodes: Vec<NodeId>,
    /// Per value row: the raw string value.
    strs: Vec<Box<str>>,
    /// Sparse numeric column: `(row index, numeric view)` for every row
    /// whose value parses as a number, in row order.
    nums: Vec<(u32, f64)>,
}

impl PathColumn {
    /// Total nodes at this path (valued or not).
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Documents containing at least one node at this path (ascending,
    /// deduplicated).
    pub fn struct_docs(&self) -> &[DocId] {
        &self.struct_docs
    }

    /// Per-row owning documents.
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// Per-row valued nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The string column (one entry per value row).
    pub fn strs(&self) -> &[Box<str>] {
        &self.strs
    }

    /// The numeric column: `(row, value)` for rows with numeric values.
    pub fn nums(&self) -> &[(u32, f64)] {
        &self.nums
    }

    /// Number of value rows.
    pub fn rows(&self) -> u64 {
        self.strs.len() as u64
    }
}

/// Columnar projection of a whole collection, dense by [`PathId`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ColumnStore {
    cols: Vec<PathColumn>,
    total_nodes: u64,
}

impl ColumnStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all rows.
    pub fn clear(&mut self) {
        self.cols.clear();
        self.total_nodes = 0;
    }

    fn col_mut(&mut self, path: PathId) -> &mut PathColumn {
        let i = path.index();
        if i >= self.cols.len() {
            self.cols.resize_with(i + 1, PathColumn::default);
        }
        &mut self.cols[i]
    }

    /// Records a node (valued or not) at `path` in `doc`. Calls must
    /// arrive in ascending `(doc, node)` order per path.
    pub fn note_node(&mut self, path: PathId, doc: DocId) {
        self.total_nodes += 1;
        let col = self.col_mut(path);
        col.node_count += 1;
        if col.struct_docs.last() != Some(&doc) {
            col.struct_docs.push(doc);
        }
    }

    /// Appends a value row. Calls must arrive in ascending `(doc, node)`
    /// order per path.
    pub fn push_value(&mut self, path: PathId, doc: DocId, node: NodeId, value: &Value) {
        let col = self.col_mut(path);
        let row = col.strs.len() as u32;
        col.docs.push(doc);
        col.nodes.push(node);
        col.strs.push(value.as_str().into());
        if let Some(n) = value.as_num() {
            col.nums.push((row, n));
        }
    }

    /// Appends every node of `doc` (arena `NodeId` order, which satisfies
    /// the per-path row-order invariant).
    pub fn append_doc(&mut self, doc_id: DocId, doc: &Document) {
        for (node_id, node) in doc.nodes() {
            self.note_node(node.path, doc_id);
            if let Some(v) = &node.value {
                self.push_value(node.path, doc_id, node_id, v);
            }
        }
    }

    /// Columns for one path; `None` when no node at that path was seen.
    pub fn col(&self, path: PathId) -> Option<&PathColumn> {
        self.cols.get(path.index())
    }

    /// Number of path slots (may be smaller than the vocabulary's path
    /// count when trailing paths have no nodes).
    pub fn path_count(&self) -> usize {
        self.cols.len()
    }

    /// Total nodes recorded across all paths.
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    /// Total value rows across all paths.
    pub fn total_rows(&self) -> u64 {
        self.cols.iter().map(PathColumn::rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xml::{parse_document, Vocabulary};

    #[test]
    fn append_doc_projects_values_per_path() {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(
            r#"<a><b x="7">12</b><b x="8">hello</b><c/></a>"#,
            &mut vocab,
        )
        .unwrap();
        let mut store = ColumnStore::new();
        store.append_doc(DocId(0), &doc);
        assert_eq!(store.total_nodes(), 6);
        assert_eq!(store.total_rows(), 4);

        let b_path = doc.node(NodeId(1)).path;
        let b = store.col(b_path).unwrap();
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.struct_docs(), &[DocId(0)]);
        assert_eq!(b.strs().len(), 2);
        assert_eq!(&*b.strs()[0], "12");
        assert_eq!(&*b.strs()[1], "hello");
        // Only the first row is numeric.
        assert_eq!(b.nums(), &[(0, 12.0)]);
        // Rows are in NodeId order.
        assert!(b.nodes()[0] < b.nodes()[1]);

        let x_path = doc.node(NodeId(2)).path;
        let x = store.col(x_path).unwrap();
        assert_eq!(x.nums(), &[(0, 7.0), (1, 8.0)]);
    }

    #[test]
    fn struct_docs_dedup_consecutive() {
        let mut vocab = Vocabulary::new();
        let d0 = parse_document("<a><b>1</b><b>2</b></a>", &mut vocab).unwrap();
        let d1 = parse_document("<a><b>3</b></a>", &mut vocab).unwrap();
        let mut store = ColumnStore::new();
        store.append_doc(DocId(0), &d0);
        store.append_doc(DocId(1), &d1);
        let b_path = d0.node(NodeId(1)).path;
        let b = store.col(b_path).unwrap();
        assert_eq!(b.struct_docs(), &[DocId(0), DocId(1)]);
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.docs(), &[DocId(0), DocId(0), DocId(1)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut vocab = Vocabulary::new();
        let doc = parse_document("<a><b>1</b></a>", &mut vocab).unwrap();
        let mut store = ColumnStore::new();
        store.append_doc(DocId(0), &doc);
        store.clear();
        assert_eq!(store, ColumnStore::new());
    }
}
