//! The storage engine: descriptive schema + blocks + numbering labels,
//! assembled per §9, with updates that never relabel (Proposition 1).

use std::cmp::Ordering;

use xdm::{NodeId, NodeKind, NodeStore};
use xstypes::{AtomicValue, TypeRegistry};

use crate::blocks::{BlockTable, DescPtr, NodeDescriptor};
use crate::descriptive::{DescriptiveSchema, SchemaNodeId};
use crate::error::StorageError;
use crate::nid::{between_components, ComponentAllocator, Nid};
use crate::stats::{CatalogStats, LeafHistogram, NodeStats};

/// The physical representation of one XML document, per §9: descriptive
/// schema as entry point, per-schema-node block lists of node
/// descriptors, and nid labels.
#[derive(Debug, Clone)]
pub struct XmlStorage {
    schema: DescriptiveSchema,
    table: BlockTable,
    root: DescPtr,
    capacity: u16,
    base_uri: Option<String>,
    /// Number of descriptors whose label had to be *changed* by an
    /// update. Proposition 1 says this stays zero; the counter exists so
    /// tests and benches can assert it.
    relabels: u64,
    /// The statistics catalog, maintained incrementally by every
    /// mutator and stamped with the mutation tick (see [`crate::stats`]).
    stats: CatalogStats,
}

/// Default block capacity (descriptors per block).
pub const DEFAULT_BLOCK_CAPACITY: u16 = 64;

impl XmlStorage {
    /// Materialize an in-memory XDM tree into block storage.
    pub fn from_tree(store: &NodeStore, doc: NodeId) -> XmlStorage {
        XmlStorage::from_tree_with_capacity(store, doc, DEFAULT_BLOCK_CAPACITY)
    }

    /// [`XmlStorage::from_tree`] with an explicit block capacity.
    pub fn from_tree_with_capacity(store: &NodeStore, doc: NodeId, capacity: u16) -> XmlStorage {
        assert!(capacity >= 2, "blocks must hold at least two descriptors");
        XmlStorage::build_from_tree(store, doc, capacity)
            .expect("a well-formed tree materializes without corruption")
    }

    fn build_from_tree(
        store: &NodeStore,
        doc: NodeId,
        capacity: u16,
    ) -> Result<XmlStorage, StorageError> {
        let (schema, mapping) = DescriptiveSchema::build(store, doc);
        let mut table = BlockTable::default();
        table.ensure_schema_capacity(&schema);
        let mut storage = XmlStorage {
            schema,
            table,
            root: DescPtr(0), // fixed up below
            capacity,
            base_uri: store.base_uri(doc).map(str::to_string),
            relabels: 0,
            stats: CatalogStats::default(),
        };
        let doc_sn = mapping[doc.index()].expect("doc mapped");
        let root_id = storage.table.mint_ptr();
        let root_ptr = storage.append_descriptor(
            doc_sn,
            NodeDescriptor {
                id: root_id,
                nid: Nid::root(),
                parent: None,
                left_sibling: None,
                right_sibling: None,
                next_in_block: None,
                prev_in_block: None,
                first_child: storage.fresh_child_array(doc_sn),
                text: None,
                nilled: false,
            },
        )?;
        storage.root = root_ptr;
        storage.build_children(store, doc, root_ptr, &mapping)?;
        storage.stats = storage.rebuild_stats();
        Ok(storage)
    }

    /// Reassemble a storage from decoded parts ([`crate::paged`] load).
    /// A `None` statistics catalog (pre-v3 files) is rebuilt from
    /// scratch; a decoded one is re-stamped to the fresh table's tick.
    pub(crate) fn from_parts(
        schema: DescriptiveSchema,
        table: BlockTable,
        root: DescPtr,
        capacity: u16,
        base_uri: Option<String>,
        relabels: u64,
        stats: Option<CatalogStats>,
    ) -> XmlStorage {
        let mut xs = XmlStorage {
            schema,
            table,
            root,
            capacity,
            base_uri,
            relabels,
            stats: CatalogStats::default(),
        };
        xs.stats = match stats {
            Some(mut s) => {
                s.stamp(xs.table.tick);
                s
            }
            None => xs.rebuild_stats(),
        };
        xs
    }

    fn fresh_child_array(&self, sn: SchemaNodeId) -> Box<[Option<DescPtr>]> {
        vec![None; self.schema.node(sn).children.len()].into_boxed_slice()
    }

    fn build_children(
        &mut self,
        store: &NodeStore,
        node: NodeId,
        node_ptr: DescPtr,
        mapping: &[Option<SchemaNodeId>],
    ) -> Result<(), StorageError> {
        let mut alloc = ComponentAllocator::new();
        let parent_nid = self.table.desc(node_ptr).nid.clone();
        // Attributes first (§7: they precede the children in document
        // order, and their labels must sort before the children's).
        for &attr in store.attributes(node) {
            let sn = mapping[attr.index()].expect("mapped");
            let nid = parent_nid.child(&alloc.next());
            let id = self.table.mint_ptr();
            let ptr = self.append_descriptor(
                sn,
                NodeDescriptor {
                    id,
                    nid,
                    parent: Some(node_ptr),
                    left_sibling: None,
                    right_sibling: None,
                    next_in_block: None,
                    prev_in_block: None,
                    first_child: Box::new([]),
                    text: Some(store.string_value(attr)),
                    nilled: false,
                },
            )?;
            self.link_first_child(node_ptr, sn, ptr)?;
        }
        let mut prev_child: Option<DescPtr> = None;
        for &child in store.children(node) {
            let sn = mapping[child.index()].expect("mapped");
            let nid = parent_nid.child(&alloc.next());
            let is_text = store.kind(child) == NodeKind::Text;
            let id = self.table.mint_ptr();
            let ptr = self.append_descriptor(
                sn,
                NodeDescriptor {
                    id,
                    nid,
                    parent: Some(node_ptr),
                    left_sibling: prev_child,
                    right_sibling: None,
                    next_in_block: None,
                    prev_in_block: None,
                    first_child: if is_text { Box::new([]) } else { self.fresh_child_array(sn) },
                    text: is_text.then(|| store.string_value(child)),
                    nilled: store.nilled(child) == Some(true),
                },
            )?;
            if let Some(prev) = prev_child {
                self.table.desc_mut(prev).right_sibling = Some(ptr);
            }
            prev_child = Some(ptr);
            self.link_first_child(node_ptr, sn, ptr)?;
            if !is_text {
                self.build_children(store, child, ptr, mapping)?;
            }
        }
        Ok(())
    }

    /// Record `ptr` as the parent's first child for schema child `sn`
    /// when it is the first (build appends in document order).
    fn link_first_child(
        &mut self,
        parent: DescPtr,
        sn: SchemaNodeId,
        ptr: DescPtr,
    ) -> Result<(), StorageError> {
        let parent_sn = self.table.schema_node_of(parent);
        let pos = self.schema_child_pos(parent_sn, sn)?;
        let desc = self.table.desc_mut(parent);
        let slot = desc
            .first_child
            .get_mut(pos)
            .ok_or_else(|| StorageError::corrupt("first-child array shorter than schema"))?;
        if slot.is_none() {
            *slot = Some(ptr);
        }
        Ok(())
    }

    /// Position of `sn` in `parent_sn`'s schema-children list.
    fn schema_child_pos(
        &self,
        parent_sn: SchemaNodeId,
        sn: SchemaNodeId,
    ) -> Result<usize, StorageError> {
        self.schema.node(parent_sn).children.iter().position(|&c| c == sn).ok_or_else(|| {
            StorageError::corrupt(format!("{sn} is not a schema child of {parent_sn}"))
        })
    }

    /// Append a descriptor at the tail of its schema node's storage
    /// (build path: document order = append order).
    fn append_descriptor(
        &mut self,
        sn: SchemaNodeId,
        desc: NodeDescriptor,
    ) -> Result<DescPtr, StorageError> {
        let block_idx = match self.table.last_block(sn) {
            Some(b) if !self.table.block(b).is_full() => b,
            _ => self.table.append_block(sn, self.capacity),
        };
        let ptr = desc.id;
        let slot = self.table.block_mut(block_idx).push_tail(desc)?;
        self.table.set_location(ptr, Some((block_idx, slot)));
        Ok(ptr)
    }

    // ------------------------------------------------------------ access

    /// The document node's descriptor pointer.
    pub fn root(&self) -> DescPtr {
        self.root
    }

    /// The descriptive schema.
    pub fn schema(&self) -> &DescriptiveSchema {
        &self.schema
    }

    /// The schema node a descriptor belongs to (via its block header).
    pub fn schema_node_of(&self, p: DescPtr) -> SchemaNodeId {
        self.table.schema_node_of(p)
    }

    /// The numbering label.
    pub fn nid(&self, p: DescPtr) -> &Nid {
        &self.table.desc(p).nid
    }

    /// Count of relabeled descriptors (Proposition 1: always 0).
    pub fn relabel_count(&self) -> u64 {
        self.relabels
    }

    /// Total number of live descriptors.
    pub fn len(&self) -> usize {
        self.table.blocks.iter().map(|b| b.len()).sum()
    }

    /// True when the storage holds nothing (never after `from_tree`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of allocated blocks.
    pub fn block_count(&self) -> usize {
        self.table.blocks.len()
    }

    /// Monotonic mutation tick: advances on every structural or content
    /// change. An incremental save ([`crate::paged`]) remembers the tick
    /// it persisted at and later writes only the state dirtied past it.
    pub fn tick(&self) -> u64 {
        self.table.tick
    }

    /// The statistics catalog (always current: every mutator maintains
    /// it and stamps it with the post-mutation tick).
    pub fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    /// Build the statistics catalog from scratch by scanning every
    /// descriptor list — the ground truth the incrementally maintained
    /// catalog must equal after any mutation sequence.
    pub fn rebuild_stats(&self) -> CatalogStats {
        let mut nodes = vec![NodeStats::default(); self.schema.len()];
        for sn in self.schema.ids() {
            let list = self.scan(sn);
            nodes[sn.index()].card = list.len() as u64;
            if matches!(self.schema.node(sn).kind, NodeKind::Text | NodeKind::Attribute) {
                let values: Vec<&str> = list.iter().map(|&p| self.leaf_value(p)).collect();
                nodes[sn.index()].hist = Some(LeafHistogram::build(values.iter().copied()));
            }
            for &p in &list {
                if let Some(parent) = self.table.desc(p).parent {
                    nodes[self.schema_node_of(parent).index()].fanout += 1;
                }
            }
        }
        CatalogStats::from_nodes(nodes, self.tick())
    }

    /// The raw stored value of a leaf descriptor (what the histograms
    /// bucket): its `text` field, or `""` when absent.
    fn leaf_value(&self, p: DescPtr) -> &str {
        self.table.desc(p).text.as_deref().unwrap_or("")
    }

    /// Record a freshly placed descriptor in the statistics catalog,
    /// falling back to a one-node histogram rescan when the insert
    /// moved the value bounds.
    fn stats_on_add(&mut self, p: DescPtr) {
        self.stats.ensure_len(self.schema.len());
        let sn = self.schema_node_of(p);
        let parent_sn = self.table.desc(p).parent.map(|q| self.schema_node_of(q));
        let value = match self.kind(p) {
            NodeKind::Text | NodeKind::Attribute => Some(self.leaf_value(p).to_string()),
            _ => None,
        };
        if !self.stats.on_add(sn, parent_sn, value.as_deref()) {
            self.stats_rescan_hist(sn);
        }
    }

    /// Record an about-to-be-freed descriptor. Returns the schema node
    /// whose histogram must be rescanned *after* the slot is freed (a
    /// rescan before would still see the doomed value).
    #[must_use]
    fn stats_on_remove(&mut self, p: DescPtr) -> Option<SchemaNodeId> {
        let sn = self.schema_node_of(p);
        let parent_sn = self.table.desc(p).parent.map(|q| self.schema_node_of(q));
        let value = match self.kind(p) {
            NodeKind::Text | NodeKind::Attribute => Some(self.leaf_value(p).to_string()),
            _ => None,
        };
        if self.stats.on_remove(sn, parent_sn, value.as_deref()) {
            None
        } else {
            Some(sn)
        }
    }

    /// Rebuild one schema node's histogram over its current values.
    fn stats_rescan_hist(&mut self, sn: SchemaNodeId) {
        let values: Vec<String> =
            self.scan(sn).iter().map(|&q| self.leaf_value(q).to_string()).collect();
        self.stats.rescan_hist(sn, values.iter().map(String::as_str));
    }

    /// Stamp the catalog with the current mutation tick — the last line
    /// of every public mutator.
    fn stats_stamp(&mut self) {
        self.stats.stamp(self.table.tick);
    }

    pub(crate) fn table(&self) -> &BlockTable {
        &self.table
    }

    pub(crate) fn block_capacity(&self) -> u16 {
        self.capacity
    }

    pub(crate) fn doc_base_uri(&self) -> Option<&str> {
        self.base_uri.as_deref()
    }

    // ------------------------------------------- the ten §5 accessors

    /// `node-kind` (from the block header's schema node, §9.2).
    pub fn node_kind(&self, p: DescPtr) -> &'static str {
        self.table.kind_of(p, &self.schema).as_str()
    }

    /// The typed counterpart of [`XmlStorage::node_kind`].
    pub fn kind(&self, p: DescPtr) -> NodeKind {
        self.table.kind_of(p, &self.schema)
    }

    /// `node-name` (stored once, in the schema node).
    pub fn node_name(&self, p: DescPtr) -> Option<&str> {
        self.schema.node(self.schema_node_of(p)).name.as_deref()
    }

    /// `parent`.
    pub fn parent(&self, p: DescPtr) -> Option<DescPtr> {
        self.table.desc(p).parent
    }

    /// `children` in document order: seed with the minimum-label first
    /// child (the descriptor stores only *first children by schema*,
    /// §9.2), then follow the right-sibling chain.
    pub fn children(&self, p: DescPtr) -> Vec<DescPtr> {
        let mut out = Vec::new();
        let mut cur = self.first_child_overall(p);
        while let Some(c) = cur {
            out.push(c);
            cur = self.table.desc(c).right_sibling;
        }
        out
    }

    /// The document-order first child (minimum label among the recorded
    /// first-children-by-schema).
    fn first_child_overall(&self, p: DescPtr) -> Option<DescPtr> {
        let desc = self.table.desc(p);
        let sn = self.schema_node_of(p);
        let mut first: Option<DescPtr> = None;
        for (pos, &child_sn) in self.schema.node(sn).children.iter().enumerate() {
            if self.schema.node(child_sn).kind == NodeKind::Attribute {
                continue;
            }
            if let Some(fc) = desc.first_child.get(pos).copied().flatten() {
                let better = match first {
                    None => true,
                    Some(cur) => self.nid(fc).cmp_doc_order(self.nid(cur)) == Ordering::Less,
                };
                if better {
                    first = Some(fc);
                }
            }
        }
        first
    }

    /// `attributes`: one per attribute schema child, via the first-child
    /// pointers (an element has at most one attribute per name).
    pub fn attributes(&self, p: DescPtr) -> Vec<DescPtr> {
        let desc = self.table.desc(p);
        let sn = self.schema_node_of(p);
        let mut out = Vec::new();
        for (pos, &child_sn) in self.schema.node(sn).children.iter().enumerate() {
            if self.schema.node(child_sn).kind != NodeKind::Attribute {
                continue;
            }
            if let Some(a) = desc.first_child.get(pos).copied().flatten() {
                out.push(a);
            }
        }
        out.sort_by(|a, b| self.nid(*a).cmp_doc_order(self.nid(*b)));
        out
    }

    /// `string-value`.
    pub fn string_value(&self, p: DescPtr) -> String {
        match self.kind(p) {
            NodeKind::Text | NodeKind::Attribute => {
                self.table.desc(p).text.clone().unwrap_or_default()
            }
            NodeKind::Element | NodeKind::Document => {
                let mut out = String::new();
                self.collect_text(p, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, p: DescPtr, out: &mut String) {
        for c in self.children(p) {
            match self.kind(c) {
                NodeKind::Text => out.push_str(self.table.desc(c).text.as_deref().unwrap_or("")),
                NodeKind::Element => self.collect_text(c, out),
                _ => {}
            }
        }
    }

    /// `type` (shared per schema node).
    pub fn type_name(&self, p: DescPtr) -> Option<&str> {
        if self.kind(p) == NodeKind::Document {
            return None; // §6.1
        }
        self.schema.node(self.schema_node_of(p)).type_name.as_deref()
    }

    /// `nilled`.
    pub fn nilled(&self, p: DescPtr) -> Option<bool> {
        match self.kind(p) {
            NodeKind::Element => Some(self.table.desc(p).nilled),
            _ => None,
        }
    }

    /// `base-uri` (inherited from the document per §6.2 item 4, so
    /// stored once).
    pub fn base_uri(&self, _p: DescPtr) -> Option<&str> {
        self.base_uri.as_deref()
    }

    /// `typed-value`: recomputed from the string value and the schema
    /// type (the descriptor + schema node are sufficient, §9.2) using the
    /// given registry; untyped when the type is not a known simple type.
    pub fn typed_value(&self, p: DescPtr, registry: &TypeRegistry) -> Vec<AtomicValue> {
        if self.nilled(p) == Some(true) {
            return Vec::new();
        }
        let sv = self.string_value(p);
        if let Some(tn) = self.type_name(p) {
            if let Some(st) = registry.get(tn) {
                if let Ok(values) = st.validate(&sv) {
                    return values;
                }
            }
        }
        vec![AtomicValue::Untyped(sv)]
    }

    // ----------------------------------------- order and relationships

    /// Document-order comparison via labels — §9.3's point: O(label)
    /// with no tree walking.
    pub fn cmp_doc_order(&self, a: DescPtr, b: DescPtr) -> Ordering {
        self.nid(a).cmp_doc_order(self.nid(b))
    }

    /// Ancestor test via labels.
    pub fn is_ancestor(&self, a: DescPtr, b: DescPtr) -> bool {
        self.nid(a).is_ancestor_of(self.nid(b))
    }

    /// Parent test via labels (§9.3 rule 3).
    pub fn is_parent(&self, a: DescPtr, b: DescPtr) -> bool {
        self.nid(a).is_parent_of(self.nid(b))
    }

    /// All descriptors of one schema node in document order: block list
    /// order, then the intra-block chain (§9.2).
    pub fn scan(&self, sn: SchemaNodeId) -> Vec<DescPtr> {
        let mut out = Vec::new();
        let mut cur = self.table.first_block(sn);
        while let Some(b) = cur {
            for (ptr, _) in self.table.block(b).iter_ordered() {
                out.push(ptr);
            }
            cur = self.table.block(b).next_block;
        }
        out
    }

    /// The whole subtree of `p` in document order.
    pub fn subtree(&self, p: DescPtr) -> Vec<DescPtr> {
        let mut out = Vec::new();
        self.push_subtree(p, &mut out);
        out
    }

    fn push_subtree(&self, p: DescPtr, out: &mut Vec<DescPtr>) {
        out.push(p);
        for a in self.attributes(p) {
            out.push(a);
        }
        for c in self.children(p) {
            self.push_subtree(c, out);
        }
    }

    // ------------------------------------------------------------ update

    /// Insert a new element under `parent` after sibling `after`
    /// (`None` = as first child). Returns the new descriptor.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the storage's §9.2 structures are
    /// inconsistent (possible only for storages decoded from damaged
    /// pages) or `after` is not a child of `parent`.
    pub fn insert_element(
        &mut self,
        parent: DescPtr,
        after: Option<DescPtr>,
        name: &str,
    ) -> Result<DescPtr, StorageError> {
        self.insert_child(parent, after, Some(name.to_string()), NodeKind::Element, None)
    }

    /// Insert a new text node under `parent` after `after`.
    ///
    /// # Errors
    /// As for [`XmlStorage::insert_element`].
    pub fn insert_text(
        &mut self,
        parent: DescPtr,
        after: Option<DescPtr>,
        value: impl Into<String>,
    ) -> Result<DescPtr, StorageError> {
        self.insert_child(parent, after, None, NodeKind::Text, Some(value.into()))
    }

    fn insert_child(
        &mut self,
        parent: DescPtr,
        after: Option<DescPtr>,
        name: Option<String>,
        kind: NodeKind,
        text: Option<String>,
    ) -> Result<DescPtr, StorageError> {
        if let Some(a) = after {
            if self.table.desc(a).parent != Some(parent) {
                return Err(StorageError::corrupt(format!("{a} is not a child of {parent}")));
            }
        }
        let parent_sn = self.schema_node_of(parent);
        let sn = self.ensure_schema_child(parent_sn, name.clone(), kind);
        // Label between the neighbors (first child only computed when
        // inserting at the front — the append path stays O(1)).
        let left = after;
        let right = match after {
            Some(a) => self.table.desc(a).right_sibling,
            None => self.first_child_overall(parent),
        };
        let nid = self.label_between(parent, left, right);
        let is_leaf = kind == NodeKind::Text;
        let first_child = if is_leaf { Box::new([]) } else { self.fresh_child_array(sn) };
        let id = self.table.mint_ptr();
        let desc = NodeDescriptor {
            id,
            nid,
            parent: Some(parent),
            left_sibling: left,
            right_sibling: right,
            next_in_block: None,
            prev_in_block: None,
            first_child,
            text,
            nilled: false,
        };
        let ptr = self.place_ordered(sn, desc)?;
        // Stitch the sibling chain.
        if let Some(l) = left {
            self.table.desc_mut(l).right_sibling = Some(ptr);
        }
        if let Some(r) = right {
            self.table.desc_mut(r).left_sibling = Some(ptr);
        }
        // Maintain the parent's first-child pointer for this schema child.
        self.refresh_first_child(parent, sn, ptr)?;
        self.stats_on_add(ptr);
        self.stats_stamp();
        Ok(ptr)
    }

    /// Insert (or replace) an attribute on `parent`.
    ///
    /// # Errors
    /// As for [`XmlStorage::insert_element`].
    pub fn insert_attribute(
        &mut self,
        parent: DescPtr,
        name: &str,
        value: &str,
    ) -> Result<DescPtr, StorageError> {
        let parent_sn = self.schema_node_of(parent);
        let sn = self.ensure_schema_child(parent_sn, Some(name.to_string()), NodeKind::Attribute);
        if let Some(existing) = self.attribute_named(parent, name) {
            let old = self.leaf_value(existing).to_string();
            self.table.desc_mut(existing).text = Some(value.to_string());
            if !self.stats.on_set_value(sn, &old, value) {
                self.stats_rescan_hist(sn);
            }
            self.stats_stamp();
            return Ok(existing);
        }
        // Attributes precede children: label below the first child, after
        // the last existing attribute.
        let last_attr = self.attributes(parent).into_iter().last();
        let first_child = self.children(parent).first().copied();
        let parent_nid = self.table.desc(parent).nid.clone();
        let lo = last_attr.map(|a| self.nid(a).last_component().to_vec());
        let hi = first_child.map(|c| self.nid(c).last_component().to_vec());
        let component = between_components(lo.as_deref(), hi.as_deref());
        let id = self.table.mint_ptr();
        let desc = NodeDescriptor {
            id,
            nid: parent_nid.child(&component),
            parent: Some(parent),
            left_sibling: None,
            right_sibling: None,
            next_in_block: None,
            prev_in_block: None,
            first_child: Box::new([]),
            text: Some(value.to_string()),
            nilled: false,
        };
        let ptr = self.place_ordered(sn, desc)?;
        self.refresh_first_child(parent, sn, ptr)?;
        self.stats_on_add(ptr);
        self.stats_stamp();
        Ok(ptr)
    }

    /// The attribute of `p` with the given name.
    pub fn attribute_named(&self, p: DescPtr, name: &str) -> Option<DescPtr> {
        self.attributes(p).into_iter().find(|&a| self.node_name(a) == Some(name))
    }

    /// Replace the text content of a text or attribute descriptor.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when `p` is not a text-enabled node
    /// (element and document nodes have no own text, §9.2).
    pub fn set_text(&mut self, p: DescPtr, value: impl Into<String>) -> Result<(), StorageError> {
        if !matches!(self.kind(p), NodeKind::Text | NodeKind::Attribute) {
            return Err(StorageError::corrupt(format!("{p}: set_text on a non-text node")));
        }
        let sn = self.schema_node_of(p);
        let old = self.leaf_value(p).to_string();
        let new = value.into();
        self.table.desc_mut(p).text = Some(new.clone());
        if !self.stats.on_set_value(sn, &old, &new) {
            self.stats_rescan_hist(sn);
        }
        self.stats_stamp();
        Ok(())
    }

    /// Delete the subtree rooted at `p` (not the document root).
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when `p` is the document node or the
    /// storage's structures are inconsistent.
    pub fn delete(&mut self, p: DescPtr) -> Result<(), StorageError> {
        if p == self.root {
            return Err(StorageError::corrupt("cannot delete the document node"));
        }
        // Children and attributes first.
        for a in self.attributes(p) {
            self.delete_leafward(a)?;
        }
        for c in self.children(p) {
            self.delete(c)?;
        }
        // Unlink from siblings.
        let desc = self.table.desc(p).clone();
        if let Some(l) = desc.left_sibling {
            self.table.desc_mut(l).right_sibling = desc.right_sibling;
        }
        if let Some(r) = desc.right_sibling {
            self.table.desc_mut(r).left_sibling = desc.left_sibling;
        }
        // Fix the parent's first-child entry if it pointed here.
        if let Some(parent) = desc.parent {
            let sn = self.schema_node_of(p);
            let replacement = desc.right_sibling.filter(|&r| self.schema_node_of(r) == sn);
            self.set_first_child_entry(parent, sn, p, replacement);
        }
        let rescan = self.stats_on_remove(p);
        self.free_slot(p)?;
        if let Some(sn) = rescan {
            self.stats_rescan_hist(sn);
        }
        self.stats_stamp();
        Ok(())
    }

    /// Delete a leaf (attribute or already-childless node).
    fn delete_leafward(&mut self, p: DescPtr) -> Result<(), StorageError> {
        let desc = self.table.desc(p).clone();
        if let Some(parent) = desc.parent {
            let sn = self.schema_node_of(p);
            self.set_first_child_entry(parent, sn, p, None);
        }
        let rescan = self.stats_on_remove(p);
        self.free_slot(p)?;
        if let Some(sn) = rescan {
            self.stats_rescan_hist(sn);
        }
        self.stats_stamp();
        Ok(())
    }

    fn set_first_child_entry(
        &mut self,
        parent: DescPtr,
        sn: SchemaNodeId,
        old: DescPtr,
        replacement: Option<DescPtr>,
    ) {
        let parent_sn = self.schema_node_of(parent);
        if let Some(pos) = self.schema.node(parent_sn).children.iter().position(|&c| c == sn) {
            let entry = &mut self.table.desc_mut(parent).first_child[pos];
            if *entry == Some(old) {
                *entry = replacement;
            }
        }
    }

    /// When inserting `ptr`, update the parent's first-child pointer if
    /// the new node now precedes the recorded first child.
    fn refresh_first_child(
        &mut self,
        parent: DescPtr,
        sn: SchemaNodeId,
        ptr: DescPtr,
    ) -> Result<(), StorageError> {
        let parent_sn = self.schema_node_of(parent);
        let pos = self.schema_child_pos(parent_sn, sn)?;
        let current = self
            .table
            .desc(parent)
            .first_child
            .get(pos)
            .copied()
            .ok_or_else(|| StorageError::corrupt("first-child array shorter than schema"))?;
        let replace = match current {
            None => true,
            Some(cur) => self.nid(ptr).cmp_doc_order(self.nid(cur)) == Ordering::Less,
        };
        if replace {
            self.table.desc_mut(parent).first_child[pos] = Some(ptr);
        }
        Ok(())
    }

    /// Free a slot and unlink it from its block chain.
    fn free_slot(&mut self, p: DescPtr) -> Result<(), StorageError> {
        let (block_idx, slot) = self.table.location(p);
        self.table.block_mut(block_idx).unlink(slot)?;
        self.table.release_ptr(p);
        Ok(())
    }

    /// A label for a new child of `parent` strictly between siblings
    /// `left` and `right` — never touching any existing label
    /// (Proposition 1).
    fn label_between(&self, parent: DescPtr, left: Option<DescPtr>, right: Option<DescPtr>) -> Nid {
        let parent_nid = &self.table.desc(parent).nid;
        // When there is no left sibling, attributes still precede: the
        // lower bound is the last attribute's component.
        let lo = match left {
            Some(l) => Some(self.nid(l).last_component().to_vec()),
            None => self.attributes(parent).last().map(|&a| self.nid(a).last_component().to_vec()),
        };
        let hi = right.map(|r| self.nid(r).last_component().to_vec());
        parent_nid.child(&between_components(lo.as_deref(), hi.as_deref()))
    }

    /// Place a descriptor into the correct block of its schema node,
    /// maintaining the §9.2 inter-block partial order; splits a full
    /// block rather than relabeling anything.
    fn place_ordered(
        &mut self,
        sn: SchemaNodeId,
        desc: NodeDescriptor,
    ) -> Result<DescPtr, StorageError> {
        // Fast path: appends (and near-appends) land in the last block —
        // checking it first keeps sequential insertion O(1) per insert
        // instead of O(#blocks).
        let target = match self.table.last_block(sn) {
            None => None,
            Some(last) => {
                let beyond_last =
                    self.table.block(last).max_nid().is_none_or(|max| *max < desc.nid);
                if beyond_last {
                    Some(last)
                } else {
                    // Ordered position: first block whose max nid covers it.
                    let mut found = None;
                    let mut cur = self.table.first_block(sn);
                    while let Some(b) = cur {
                        if let Some(max) = self.table.block(b).max_nid() {
                            if *max >= desc.nid {
                                found = Some(b);
                                break;
                            }
                        } else if self.table.block(b).is_empty() {
                            found = Some(b);
                            break;
                        }
                        cur = self.table.block(b).next_block;
                    }
                    found.or(Some(last))
                }
            }
        };
        let block_idx = match target {
            Some(b) => b,
            None => self.table.append_block(sn, self.capacity),
        };
        let block_idx = if self.table.block(block_idx).is_full() {
            self.split_block(block_idx)?;
            // After the split, re-decide between the two halves.
            let first_half = block_idx;
            let second_half = self
                .table
                .block(block_idx)
                .next_block
                .ok_or_else(|| StorageError::corrupt("split produced no second block"))?;
            match self.table.block(first_half).max_nid() {
                Some(max) if *max >= desc.nid => first_half,
                _ => second_half,
            }
        } else {
            block_idx
        };
        self.insert_into_block(block_idx, desc)
    }

    /// Insert into a non-full block, keeping the intra-block chain in nid
    /// order.
    fn insert_into_block(
        &mut self,
        block_idx: u32,
        desc: NodeDescriptor,
    ) -> Result<DescPtr, StorageError> {
        let ptr = desc.id;
        let block = self.table.block(block_idx);
        // Find chain position: the first chained slot with a larger nid.
        let mut before: Option<u16> = None; // slot we insert *before*
        let mut after: Option<u16> = None;
        let mut cursor = block.first_slot;
        while let Some(slot) = cursor {
            let d = block.slots.get(slot as usize).and_then(|s| s.as_ref()).ok_or_else(|| {
                StorageError::corrupt(format!("block {block_idx}: dead slot {slot} in chain"))
            })?;
            if d.nid > desc.nid {
                before = Some(slot);
                break;
            }
            after = Some(slot);
            cursor = d.next_in_block;
        }
        let slot = self.table.block_mut(block_idx).insert_chained(desc, after, before)?;
        self.table.set_location(ptr, Some((block_idx, slot)));
        Ok(ptr)
    }

    /// Split a full block: move the upper half (by document order) into a
    /// fresh block spliced right after. Indirect addressing means no
    /// pointer — internal or caller-held — is invalidated, and no label
    /// changes.
    fn split_block(&mut self, block_idx: u32) -> Result<(), StorageError> {
        let new_idx = self.table.insert_block_after(block_idx, self.capacity);
        let ordered_slots: Vec<u16> = {
            let block = self.table.block(block_idx);
            let mut v = Vec::with_capacity(block.len());
            let mut cursor = block.first_slot;
            while let Some(slot) = cursor {
                v.push(slot);
                cursor = block
                    .slots
                    .get(slot as usize)
                    .and_then(|s| s.as_ref())
                    .ok_or_else(|| {
                        StorageError::corrupt(format!(
                            "block {block_idx}: dead slot {slot} in chain"
                        ))
                    })?
                    .next_in_block;
            }
            v
        };
        let keep = ordered_slots.len() / 2;
        for &slot in &ordered_slots[keep..] {
            // Move from the old chain + slot to the tail of the new block
            // (order preserved).
            let desc = self.table.block_mut(block_idx).unlink(slot)?;
            let ptr = desc.id;
            let new_slot = self.table.block_mut(new_idx).push_tail(desc)?;
            self.table.set_location(ptr, Some((new_idx, new_slot)));
        }
        Ok(())
    }

    /// Register a (possibly new) schema child under `parent_sn`.
    fn ensure_schema_child(
        &mut self,
        parent_sn: SchemaNodeId,
        name: Option<String>,
        kind: NodeKind,
    ) -> SchemaNodeId {
        if let Some(existing) = self.schema.node(parent_sn).children.iter().copied().find(|&c| {
            let n = self.schema.node(c);
            n.kind == kind && n.name == name
        }) {
            return existing;
        }
        let sn = self.schema.add_child(parent_sn, name, kind);
        self.table.ensure_schema_capacity(&self.schema);
        // Every existing descriptor of parent_sn needs one more
        // first-child slot.
        let mut cur = self.table.first_block(parent_sn);
        while let Some(b) = cur {
            let block = self.table.block_mut(b);
            for slot in block.slots.iter_mut().flatten() {
                let mut v = slot.first_child.to_vec();
                v.push(None);
                slot.first_child = v.into_boxed_slice();
            }
            cur = self.table.block(b).next_block;
        }
        sn
    }

    // --------------------------------------------------------- checking

    /// Verify the §9.2/§9.3 invariants; returns the first violation.
    pub fn check_invariants(&self) -> Option<String> {
        for sn in self.schema.ids() {
            let mut prev_max: Option<Nid> = None;
            let mut cur = self.table.first_block(sn);
            while let Some(b) = cur {
                let block = self.table.block(b);
                if block.schema_node != sn {
                    return Some(format!("block {b} header points at the wrong schema node"));
                }
                // Chain covers exactly the live slots, in nid order.
                let chained: Vec<DescPtr> = block.iter_ordered().map(|(p, _)| p).collect();
                if chained.len() != block.len() {
                    return Some(format!(
                        "block {b}: chain covers {} of {}",
                        chained.len(),
                        block.len()
                    ));
                }
                let mut prev: Option<&Nid> = None;
                for (_, d) in block.iter_ordered() {
                    if let Some(p) = prev {
                        if p >= &d.nid {
                            return Some(format!("block {b}: intra-block chain out of order"));
                        }
                    }
                    prev = Some(&d.nid);
                }
                // Inter-block partial order.
                if let (Some(pm), Some(mn)) = (&prev_max, block.min_nid()) {
                    if pm >= mn {
                        return Some(format!("blocks of {sn} violate the inter-block order"));
                    }
                }
                if let Some(mx) = block.max_nid() {
                    prev_max = Some(mx.clone());
                }
                cur = block.next_block;
            }
        }
        // Structural pointers agree with labels.
        for p in self.subtree(self.root) {
            for c in self.children(p) {
                if self.table.desc(c).parent != Some(p) {
                    return Some(format!("{c}: parent pointer disagrees with children()"));
                }
                if !self.nid(p).is_parent_of(self.nid(c)) {
                    return Some(format!("{c}: nid is not a child label of {p}"));
                }
            }
            let children = self.children(p);
            for w in children.windows(2) {
                if self.cmp_doc_order(w[0], w[1]) != Ordering::Less {
                    return Some(format!("{} and {} out of order", w[0], w[1]));
                }
                if self.table.desc(w[0]).right_sibling != Some(w[1]) {
                    return Some(format!("sibling chain broken at {}", w[0]));
                }
            }
        }
        // The incrementally maintained statistics equal a from-scratch
        // rebuild (the planner's cost model depends on this).
        let rebuilt = self.rebuild_stats();
        if self.stats != rebuilt {
            return Some("catalog statistics diverge from a from-scratch rebuild".to_string());
        }
        if !self.stats.is_current(self.table.tick) {
            return Some(format!(
                "catalog statistics stamped at tick {} but the store is at tick {}",
                self.stats.generation(),
                self.table.tick
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the Example 8 library as an XDM tree.
    pub(super) fn library() -> (NodeStore, NodeId) {
        let mut s = NodeStore::new();
        let doc = s.new_document(Some("http://example.org/library.xml".into()));
        let lib = s.new_element(doc, "library");
        for (title, authors) in [
            ("Foundations of Databases", vec!["Abiteboul", "Hull", "Vianu"]),
            ("An Introduction to Database Systems", vec!["Date"]),
        ] {
            let book = s.new_element(lib, "book");
            let t = s.new_element(book, "title");
            s.new_text(t, title);
            for a in authors {
                let an = s.new_element(book, "author");
                s.new_text(an, a);
            }
        }
        for (title, author) in [
            ("A Relational Model for Large Shared Data Banks", "Codd"),
            ("The Complexity of Relational Query Languages", "Codd"),
        ] {
            let paper = s.new_element(lib, "paper");
            let t = s.new_element(paper, "title");
            s.new_text(t, title);
            let a = s.new_element(paper, "author");
            s.new_text(a, author);
        }
        (s, doc)
    }

    #[test]
    fn materialization_preserves_every_accessor() {
        let (store, doc) = library();
        let xs = XmlStorage::from_tree(&store, doc);
        assert_eq!(xs.check_invariants(), None);
        // Walk both trees in parallel and compare all accessors — the
        // §9.2 sufficiency claim.
        fn walk(store: &NodeStore, n: NodeId, xs: &XmlStorage, p: DescPtr) {
            assert_eq!(store.node_kind(n), xs.node_kind(p));
            assert_eq!(store.node_name(n), xs.node_name(p));
            assert_eq!(store.string_value(n), xs.string_value(p));
            assert_eq!(store.nilled(n), xs.nilled(p));
            assert_eq!(store.base_uri(n), xs.base_uri(p));
            if store.kind(n) != xdm::NodeKind::Document {
                assert_eq!(store.type_name(n), xs.type_name(p));
            }
            let sc = store.children(n);
            let xc = xs.children(p);
            assert_eq!(sc.len(), xc.len(), "children of {n}");
            let sa = store.attributes(n);
            let xa = xs.attributes(p);
            assert_eq!(sa.len(), xa.len(), "attributes of {n}");
            for (i, (&cn, &cp)) in sc.iter().zip(&xc).enumerate() {
                assert_eq!(xs.parent(cp), Some(p), "child {i}");
                walk(store, cn, xs, cp);
            }
        }
        walk(&store, doc, &xs, xs.root());
        assert_eq!(xs.len(), store.subtree(doc).len());
    }

    #[test]
    fn labels_realize_document_order() {
        let (store, doc) = library();
        let xs = XmlStorage::from_tree(&store, doc);
        let descs = xs.subtree(xs.root());
        for w in descs.windows(2) {
            assert_eq!(xs.cmp_doc_order(w[0], w[1]), Ordering::Less);
        }
    }

    #[test]
    fn labels_realize_ancestor_and_parent() {
        let (store, doc) = library();
        let xs = XmlStorage::from_tree(&store, doc);
        let descs = xs.subtree(xs.root());
        for &a in &descs {
            for &b in &descs {
                // Ground truth by pointer chasing.
                let mut is_anc = false;
                let mut cur = xs.parent(b);
                while let Some(p) = cur {
                    if p == a {
                        is_anc = true;
                        break;
                    }
                    cur = xs.parent(p);
                }
                assert_eq!(xs.is_ancestor(a, b), is_anc, "{a} anc {b}");
                assert_eq!(xs.is_parent(a, b), xs.parent(b) == Some(a), "{a} par {b}");
            }
        }
    }

    #[test]
    fn scan_returns_schema_node_instances_in_document_order() {
        let (store, doc) = library();
        let xs = XmlStorage::from_tree(&store, doc);
        let title_sn = xs.schema().resolve_path(&["library", "book", "title"]).unwrap();
        let titles = xs.scan(title_sn);
        assert_eq!(titles.len(), 2);
        assert_eq!(xs.string_value(titles[0]), "Foundations of Databases");
        assert_eq!(xs.string_value(titles[1]), "An Introduction to Database Systems");
        let author_sn = xs.schema().resolve_path(&["library", "book", "author"]).unwrap();
        assert_eq!(xs.scan(author_sn).len(), 4);
    }

    #[test]
    fn small_blocks_force_multiple_blocks_and_keep_order() {
        let (store, doc) = library();
        let xs = XmlStorage::from_tree_with_capacity(&store, doc, 2);
        assert!(xs.block_count() > 5);
        assert_eq!(xs.check_invariants(), None);
        let author_sn = xs.schema().resolve_path(&["library", "book", "author"]).unwrap();
        let authors: Vec<String> =
            xs.scan(author_sn).into_iter().map(|p| xs.string_value(p)).collect();
        assert_eq!(authors, ["Abiteboul", "Hull", "Vianu", "Date"]);
    }

    #[test]
    fn insert_element_between_siblings() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let kids = xs.children(lib);
        let first_book = kids[0];
        // New book between book 1 and book 2.
        let nb = xs.insert_element(lib, Some(first_book), "book").unwrap();
        let t = xs.insert_element(nb, None, "title").unwrap();
        xs.insert_text(t, None, "Transaction Processing").unwrap();
        assert_eq!(xs.check_invariants(), None);
        assert_eq!(xs.relabel_count(), 0);
        let kids = xs.children(lib);
        assert_eq!(kids.len(), 5);
        assert_eq!(kids[1], nb);
        assert_eq!(xs.string_value(nb), "Transaction Processing");
        // Document order and schema scans see it in the right place.
        let title_sn = xs.schema().resolve_path(&["library", "book", "title"]).unwrap();
        let titles: Vec<String> =
            xs.scan(title_sn).into_iter().map(|p| xs.string_value(p)).collect();
        assert_eq!(
            titles,
            [
                "Foundations of Databases",
                "Transaction Processing",
                "An Introduction to Database Systems"
            ]
        );
    }

    #[test]
    fn insert_as_first_child() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let nb = xs.insert_element(lib, None, "book").unwrap();
        assert_eq!(xs.children(lib)[0], nb);
        assert_eq!(xs.check_invariants(), None);
    }

    #[test]
    fn insert_attribute_and_lookup() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let book = xs.children(lib)[0];
        let a = xs.insert_attribute(book, "id", "b1").unwrap();
        assert_eq!(xs.attribute_named(book, "id"), Some(a));
        assert_eq!(xs.string_value(a), "b1");
        assert_eq!(xs.node_kind(a), "attribute");
        // Attributes precede children in document order (§7).
        let first_child = xs.children(book)[0];
        assert_eq!(xs.cmp_doc_order(a, first_child), Ordering::Less);
        assert_eq!(xs.cmp_doc_order(book, a), Ordering::Less);
        assert_eq!(xs.check_invariants(), None);
        // Setting the same attribute again replaces the value.
        let a2 = xs.insert_attribute(book, "id", "b99").unwrap();
        assert_eq!(a, a2);
        assert_eq!(xs.string_value(a), "b99");
    }

    #[test]
    fn delete_subtree() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let before = xs.len();
        let lib = xs.children(xs.root())[0];
        let first_book = xs.children(lib)[0];
        let first_size = xs.subtree(first_book).len();
        xs.delete(first_book).unwrap();
        assert_eq!(xs.len(), before - first_size);
        assert_eq!(xs.check_invariants(), None);
        let kids = xs.children(lib);
        assert_eq!(kids.len(), 3);
        assert_eq!(xs.string_value(xs.children(kids[0])[0]), "An Introduction to Database Systems");
    }

    #[test]
    fn block_split_preserves_pointers() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree_with_capacity(&store, doc, 2);
        let lib = xs.children(xs.root())[0];
        // Hammer inserts at the front to force splits in the book blocks.
        for i in 0..20 {
            let nb = xs.insert_element(lib, None, "book").unwrap();
            let t = xs.insert_element(nb, None, "title").unwrap();
            xs.insert_text(t, None, format!("new {i}")).unwrap();
            assert_eq!(xs.check_invariants(), None, "after insert {i}");
        }
        assert_eq!(xs.relabel_count(), 0);
        assert_eq!(xs.children(lib).len(), 24);
        // Newest first: inserted at front each time.
        let first = xs.children(lib)[0];
        assert_eq!(xs.string_value(first), "new 19");
    }

    #[test]
    fn updates_never_relabel_proposition_1() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        // Record all existing labels.
        let before: Vec<(DescPtr, Nid)> =
            xs.subtree(xs.root()).into_iter().map(|p| (p, xs.nid(p).clone())).collect();
        // 50 inserts at the same position (worst case for Dewey).
        let anchor = xs.children(lib)[0];
        for _ in 0..50 {
            xs.insert_element(lib, Some(anchor), "book").unwrap();
        }
        // Labels that existed before are byte-identical afterwards.
        for (p, nid) in &before {
            // p may have moved blocks; find by label instead when needed.
            let all = xs.subtree(xs.root());
            assert!(all.iter().any(|&q| xs.nid(q) == nid), "label {nid:?} disappeared");
            let _ = p;
        }
        assert_eq!(xs.relabel_count(), 0);
        assert_eq!(xs.check_invariants(), None);
    }

    #[test]
    fn new_schema_paths_appear_on_update() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let book = xs.children(lib)[0];
        assert!(xs.schema().resolve_path(&["library", "book", "isbn"]).is_none());
        let isbn = xs.insert_element(book, xs.children(book).last().copied(), "isbn").unwrap();
        xs.insert_text(isbn, None, "0-201-53771-0").unwrap();
        let sn = xs.schema().resolve_path(&["library", "book", "isbn"]).unwrap();
        assert_eq!(xs.scan(sn), vec![isbn]);
        assert_eq!(xs.check_invariants(), None);
    }

    #[test]
    fn typed_value_reconstructs_from_descriptor_and_schema() {
        let mut store = NodeStore::new();
        let doc = store.new_document(None);
        let e = store.new_element(doc, "n");
        store.set_type(e, "xs:integer");
        store.new_text(e, "42");
        let xs = XmlStorage::from_tree(&store, doc);
        let reg = TypeRegistry::with_builtins();
        let root = xs.children(xs.root())[0];
        let tv = xs.typed_value(root, &reg);
        assert!(matches!(tv[0], AtomicValue::Integer(42, _)));
    }
}

#[allow(clippy::items_after_test_module)]
#[cfg(test)]
mod indirection_tests {
    use super::*;

    #[test]
    fn desc_ptrs_survive_block_splits() {
        // Regression: with capacity-2 blocks, heavy front insertion forces
        // many splits; pointers held from before must stay valid.
        let mut store = NodeStore::new();
        let doc = store.new_document(None);
        let lib = store.new_element(doc, "library");
        for i in 0..8 {
            let b = store.new_element(lib, "book");
            store.new_text(b, format!("v{i}"));
        }
        let mut xs = XmlStorage::from_tree_with_capacity(&store, doc, 2);
        let lib_d = xs.children(xs.root())[0];
        let held: Vec<DescPtr> = xs.children(lib_d); // hold across splits
        let held_values: Vec<String> = held.iter().map(|&p| xs.string_value(p)).collect();
        for _ in 0..200 {
            xs.insert_element(lib_d, None, "book").unwrap();
            assert_eq!(xs.check_invariants(), None);
        }
        // Every held pointer still resolves to the same node.
        for (p, expected) in held.iter().zip(&held_values) {
            assert_eq!(xs.string_value(*p), *expected);
            assert_eq!(xs.node_name(*p), Some("book"));
        }
        assert_eq!(xs.relabel_count(), 0);
    }

    #[test]
    fn held_anchor_stays_usable_for_inserts_after_splits() {
        let (store, doc) = tests::library();
        let mut xs = XmlStorage::from_tree_with_capacity(&store, doc, 2);
        let lib = xs.children(xs.root())[0];
        let anchor = xs.children(lib)[0];
        for i in 0..500 {
            xs.insert_element(lib, Some(anchor), "book").unwrap();
            if i % 100 == 0 {
                assert_eq!(xs.check_invariants(), None, "iteration {i}");
            }
        }
        assert_eq!(xs.children(lib).len(), 504);
        assert_eq!(xs.check_invariants(), None);
    }
}
