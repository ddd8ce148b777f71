//! The storage engine: descriptive schema + blocks + numbering labels,
//! assembled per §9, with updates that never relabel (Proposition 1).

use std::cmp::Ordering;
use std::sync::Arc;

use xdm::{NodeId, NodeKind, NodeStore};
use xstypes::{AtomicValue, TypeRegistry};

use crate::blocks::{BlockTable, DescPtr, List, NodeDescriptor};
use crate::descriptive::{DescriptiveSchema, SchemaNode, SchemaNodeId};
use crate::error::StorageError;
use crate::nid::{between_components, ComponentAllocator, Nid};

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
        Ok(storage)
    }

    /// Reassemble a storage from decoded parts ([`crate::paged`] load).
    pub(crate) fn from_parts(
        schema: DescriptiveSchema,
        table: BlockTable,
        root: DescPtr,
        capacity: u16,
        base_uri: Option<String>,
        relabels: u64,
    ) -> XmlStorage {
        XmlStorage { schema, table, root, capacity, base_uri, relabels }
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
    /// when it is the first (build appends in document order). A
    /// [`StorageBuilder`] may have created the parent before the schema
    /// grew `sn`; its first-child array then grows to the schema's width.
    fn link_first_child(
        &mut self,
        parent: DescPtr,
        sn: SchemaNodeId,
        ptr: DescPtr,
    ) -> Result<(), StorageError> {
        let parent_sn = self.table.schema_node_of(parent);
        let pos = self.schema_child_pos(parent_sn, sn)?;
        let width = self.schema.node(parent_sn).children.len();
        let desc = self.table.desc_mut(parent);
        if desc.first_child.len() <= pos {
            let mut grown = std::mem::take(&mut desc.first_child).into_vec();
            grown.resize(width, None);
            desc.first_child = grown.into_boxed_slice();
        }
        let slot = &mut desc.first_child[pos];
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
        self.table.lists[sn.index()].live += 1;
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
    /// change. A query plan is stamped with it, so the planner can tell
    /// a stale plan; saves do not read it ([`crate::paged`] diffs block
    /// identities instead).
    pub fn tick(&self) -> u64 {
        self.table.tick
    }

    /// Number of live descriptors of one schema node — the length of
    /// [`XmlStorage::scan`], kept beside the node's block-list head and
    /// maintained by every mutator, so reading it costs O(1).
    pub fn cardinality(&self, sn: SchemaNodeId) -> usize {
        self.table.lists[sn.index()].live
    }

    /// The stored value of a text or attribute node, borrowed — its
    /// string value without a copy; `""` for a node that stores no
    /// text, such as an element.
    pub fn leaf_value(&self, p: DescPtr) -> &str {
        self.table.desc(p).text.as_deref().unwrap_or("")
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

    /// The child of `p`'s parent just before `p` in document order: the
    /// descriptor's left-sibling pointer, O(1). `None` for a first child
    /// and for an attribute.
    pub fn left_sibling(&self, p: DescPtr) -> Option<DescPtr> {
        self.table.desc(p).left_sibling
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

    /// The children of `p` that belong to the `slot`-th child of its
    /// schema node (`slot` indexes [`SchemaNode::children`]), in document
    /// order, without allocating. The walk starts at the descriptor's
    /// first-child-by-schema pointer (§9.2) and follows that schema
    /// node's document-order chain — `next in block`, then the next
    /// block — while the parent is `p`: a parent's children of one schema
    /// node are contiguous in that chain, since nothing between two of
    /// them in document order has their root path except a sibling.
    pub fn children_in(&self, p: DescPtr, slot: usize) -> ChildrenIn<'_> {
        let first = self.table.desc(p).first_child.get(slot).copied().flatten();
        ChildrenIn { table: &self.table, parent: p, at: first.map(|c| self.table.location(c)) }
    }

    /// The document-order first child (minimum label among the recorded
    /// first-children-by-schema).
    fn first_child_overall(&self, p: DescPtr) -> Option<DescPtr> {
        let (block, desc) = self.table.entry(p);
        let mut first: Option<DescPtr> = None;
        for (pos, &child_sn) in self.schema.node(block.schema_node).children.iter().enumerate() {
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
        let mut cur = self.first_child_overall(p);
        while let Some(c) = cur {
            let (block, desc) = self.table.entry(c);
            match self.schema.node(block.schema_node).kind {
                NodeKind::Text => out.push_str(desc.text.as_deref().unwrap_or("")),
                NodeKind::Element => self.collect_text(c, out),
                _ => {}
            }
            cur = desc.right_sibling;
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
    /// [`StorageError::Corrupt`] when `parent` is neither an element nor
    /// the document node (§6.1: text and attribute nodes have no
    /// children), when `after` is not a child of `parent`, or when the
    /// storage's §9.2 structures are inconsistent (possible only for
    /// storages decoded from damaged pages).
    pub fn insert_element(
        &mut self,
        parent: DescPtr,
        after: Option<DescPtr>,
        name: &str,
    ) -> Result<DescPtr, StorageError> {
        self.admit_child(parent)?;
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
        self.admit_child(parent)?;
        self.insert_child(parent, after, None, NodeKind::Text, Some(value.into()))
    }

    /// §6.1: only elements and the document node have children.
    fn admit_child(&self, parent: DescPtr) -> Result<(), StorageError> {
        match self.kind(parent) {
            NodeKind::Element | NodeKind::Document => Ok(()),
            kind => Err(StorageError::corrupt(format!(
                "{parent}: a {} node cannot have children",
                kind.as_str()
            ))),
        }
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
        Ok(ptr)
    }

    /// Insert (or replace) an attribute on `parent`.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when `parent` is not an element (§6.1:
    /// only elements own attributes) or the storage's structures are
    /// inconsistent.
    pub fn insert_attribute(
        &mut self,
        parent: DescPtr,
        name: &str,
        value: &str,
    ) -> Result<DescPtr, StorageError> {
        if self.kind(parent) != NodeKind::Element {
            return Err(StorageError::corrupt(format!(
                "{parent}: a {} node cannot have attributes",
                self.node_kind(parent)
            )));
        }
        let parent_sn = self.schema_node_of(parent);
        let sn = self.ensure_schema_child(parent_sn, Some(name.to_string()), NodeKind::Attribute);
        if let Some(existing) = self.attribute_named(parent, name) {
            self.table.desc_mut(existing).text = Some(value.to_string());
            return Ok(existing);
        }
        // Attributes precede children: label below the first child, after
        // the last existing attribute.
        let last_attr = self.attributes(parent).into_iter().last();
        let first_child = self.first_child_overall(parent);
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
        self.table.desc_mut(p).text = Some(value.into());
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
        self.free_slot(p)
    }

    /// Delete a leaf (attribute or already-childless node).
    fn delete_leafward(&mut self, p: DescPtr) -> Result<(), StorageError> {
        let desc = self.table.desc(p).clone();
        if let Some(parent) = desc.parent {
            let sn = self.schema_node_of(p);
            self.set_first_child_entry(parent, sn, p, None);
        }
        self.free_slot(p)
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
        let block = self.table.block_mut(block_idx);
        block.unlink(slot)?;
        let sn = block.schema_node;
        self.table.release_ptr(p);
        self.table.lists[sn.index()].live -= 1;
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
        let block = self.table.block_mut(block_idx);
        let slot = block.insert_chained(desc, after, before)?;
        let sn = block.schema_node;
        self.table.set_location(ptr, Some((block_idx, slot)));
        self.table.lists[sn.index()].live += 1;
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
            let mut chained_total = 0;
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
                for (p, d) in block.iter_ordered() {
                    // §6.1 per-kind rule: only elements own attributes,
                    // and only elements and the document have children.
                    if let Some(parent) = d.parent {
                        let ok = match (self.kind(parent), self.kind(p)) {
                            (NodeKind::Element, _) => true,
                            (NodeKind::Document, kind) => kind != NodeKind::Attribute,
                            _ => false,
                        };
                        if !ok {
                            return Some(format!(
                                "{p}: a {} node under a {} node",
                                self.node_kind(p),
                                self.node_kind(parent)
                            ));
                        }
                    }
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
                chained_total += chained.len();
                cur = block.next_block;
            }
            // The kept cardinality is the chain's length (the planner
            // costs with it).
            if self.cardinality(sn) != chained_total {
                return Some(format!(
                    "{sn}: cardinality {} but its block list chains {chained_total}",
                    self.cardinality(sn)
                ));
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
        None
    }
}

/// One open node of a [`StorageBuilder`]: where its next child goes.
#[derive(Debug)]
struct OpenNode {
    ptr: DescPtr,
    sn: SchemaNodeId,
    nid: Nid,
    /// Labels for the node's attributes and children, in order.
    alloc: ComponentAllocator,
    /// The latest element or text child: the next one's left sibling.
    last_child: Option<DescPtr>,
}

/// The children of one parent in one child schema node, in document
/// order: see [`XmlStorage::children_in`].
pub struct ChildrenIn<'a> {
    table: &'a BlockTable,
    parent: DescPtr,
    /// The (block, slot) of the next candidate.
    at: Option<(u32, u16)>,
}

impl Iterator for ChildrenIn<'_> {
    type Item = DescPtr;

    fn next(&mut self) -> Option<DescPtr> {
        let (b, s) = self.at.take()?;
        let block = self.table.block(b);
        let desc = block.slots.get(s as usize)?.as_ref()?;
        if desc.parent != Some(self.parent) {
            return None; // past the parent's run in the chain
        }
        self.at = match desc.next_in_block {
            Some(next) => Some((b, next)),
            None => {
                let mut next_block = block.next_block;
                loop {
                    let Some(nb) = next_block else { break None };
                    let nb_block = self.table.block(nb);
                    match nb_block.first_slot {
                        Some(first) => break Some((nb, first)),
                        None => next_block = nb_block.next_block,
                    }
                }
            }
        };
        Some(desc.id)
    }
}

/// Builds an [`XmlStorage`] from a document's nodes in document order —
/// an element, its attributes, its children, its end — with no tree in
/// between: the streaming form of [`XmlStorage::from_tree`], and the same
/// storage, byte for byte.
///
/// The descriptive schema grows as nodes arrive: a schema node is made
/// the first time its path occurs, the order [`DescriptiveSchema::build`]
/// numbers them in. Descriptors are minted and appended in document
/// order, so labels, blocks and mutation ticks come out as the one-shot
/// build's; first-child arrays made before their schema node grew a
/// child are widened when linked, or by [`StorageBuilder::finish`].
///
/// ```
/// use storage::StorageBuilder;
///
/// let mut b = StorageBuilder::new();
/// b.start_element("library", "Library", false).unwrap();
/// b.attribute("open", "xs:boolean", "true").unwrap();
/// b.start_element("book", "xs:string", false).unwrap();
/// b.text("content").unwrap();
/// b.end_element().unwrap();
/// b.end_element().unwrap();
/// let xs = b.finish().unwrap();
/// assert_eq!(xs.len(), 5);
/// assert!(xs.check_invariants().is_none());
/// ```
#[derive(Debug)]
pub struct StorageBuilder {
    xs: XmlStorage,
    /// The open nodes, the document node first.
    open: Vec<OpenNode>,
}

impl Default for StorageBuilder {
    fn default() -> StorageBuilder {
        StorageBuilder::new()
    }
}

impl StorageBuilder {
    /// A builder holding only the document node.
    pub fn new() -> StorageBuilder {
        StorageBuilder::with_capacity(DEFAULT_BLOCK_CAPACITY)
    }

    /// [`StorageBuilder::new`] with an explicit block capacity (at least
    /// two descriptors per block).
    fn with_capacity(capacity: u16) -> StorageBuilder {
        let root = SchemaNode {
            name: None,
            kind: NodeKind::Document,
            parent: None,
            children: Vec::new(),
            type_name: None,
        };
        let mut xs = XmlStorage {
            schema: DescriptiveSchema::from_nodes(vec![root]),
            table: BlockTable::default(),
            root: DescPtr(0),
            capacity: capacity.max(2),
            base_uri: None,
            relabels: 0,
        };
        xs.table.ensure_schema_capacity(&xs.schema);
        let (sn, id) = (xs.schema.root(), xs.table.mint_ptr());
        let desc = NodeDescriptor {
            id,
            nid: Nid::root(),
            parent: None,
            left_sibling: None,
            right_sibling: None,
            next_in_block: None,
            prev_in_block: None,
            first_child: Box::new([]),
            text: None,
            nilled: false,
        };
        // Appending to an empty table cannot fail; if it did, `finish`
        // would report the missing document node.
        let open = xs.append_descriptor(sn, desc).ok().map(|ptr| {
            xs.root = ptr;
            OpenNode {
                ptr,
                sn,
                nid: Nid::root(),
                alloc: ComponentAllocator::new(),
                last_child: None,
            }
        });
        StorageBuilder { xs, open: open.into_iter().collect() }
    }

    /// Open an element, the next child of the innermost open node.
    pub fn start_element(
        &mut self,
        name: &str,
        ty: &str,
        nilled: bool,
    ) -> Result<(), StorageError> {
        let (ptr, sn) = self.add(Some(name), NodeKind::Element, ty, None, nilled)?;
        let nid = self.xs.table.desc(ptr).nid.clone();
        self.open.push(OpenNode {
            ptr,
            sn,
            nid,
            alloc: ComponentAllocator::new(),
            last_child: None,
        });
        Ok(())
    }

    /// An attribute of the innermost open element, before its children.
    pub fn attribute(&mut self, name: &str, ty: &str, value: &str) -> Result<(), StorageError> {
        self.add(Some(name), NodeKind::Attribute, ty, Some(value), false).map(drop)
    }

    /// A text node, the next child of the innermost open element.
    pub fn text(&mut self, value: &str) -> Result<(), StorageError> {
        self.add(None, NodeKind::Text, "xdt:untypedAtomic", Some(value), false).map(drop)
    }

    /// Close the innermost open element.
    pub fn end_element(&mut self) -> Result<(), StorageError> {
        if self.open.len() < 2 {
            return Err(StorageError::corrupt("no open element to close"));
        }
        self.open.pop();
        Ok(())
    }

    /// Add a node under the innermost open node, as the one-shot build
    /// does: find or make its schema node, label it after its earlier
    /// siblings, append its descriptor, chain it after its left sibling
    /// (elements and text only) and link it as the parent's first child
    /// for its schema node.
    fn add(
        &mut self,
        name: Option<&str>,
        kind: NodeKind,
        ty: &str,
        text: Option<&str>,
        nilled: bool,
    ) -> Result<(DescPtr, SchemaNodeId), StorageError> {
        let (element, sibling) = (kind == NodeKind::Element, kind != NodeKind::Attribute);
        let open_elements = self.open.len().saturating_sub(1);
        let xs = &mut self.xs;
        let parent = match self.open.last_mut() {
            Some(p) if !sibling && p.last_child.is_some() => {
                return Err(StorageError::corrupt("an attribute follows its element's children"))
            }
            Some(p) if element || open_elements > 0 => p,
            _ => return Err(StorageError::corrupt("no open element to add to")),
        };
        let schema = &mut xs.schema;
        let found = schema.node(parent.sn).children.iter().copied().find(|&c| {
            let n = schema.node(c);
            n.kind == kind && n.name.as_deref() == name
        });
        // A new schema node takes the first instance's type; growing the
        // list heads is no mutation tick, as the one-shot build sizes them
        // once.
        let sn = found.unwrap_or_else(|| {
            let sn = schema.add_child(parent.sn, name.map(str::to_string), kind);
            schema.set_type_name(sn, ty);
            xs.table.lists.resize(schema.len(), List::default());
            sn
        });
        let nid = parent.nid.child(&parent.alloc.next());
        let id = xs.table.mint_ptr();
        let first_child = if element { xs.fresh_child_array(sn) } else { Box::new([]) };
        let desc = NodeDescriptor {
            id,
            nid,
            parent: Some(parent.ptr),
            left_sibling: parent.last_child.filter(|_| sibling),
            right_sibling: None,
            next_in_block: None,
            prev_in_block: None,
            first_child,
            text: text.map(str::to_string),
            nilled,
        };
        let ptr = xs.append_descriptor(sn, desc)?;
        if sibling {
            if let Some(prev) = parent.last_child.replace(ptr) {
                xs.table.desc_mut(prev).right_sibling = Some(ptr);
            }
        }
        xs.link_first_child(parent.ptr, sn, ptr)?;
        Ok((ptr, sn))
    }

    /// The finished storage: every element closed, first-child arrays at
    /// their schema node's final width.
    pub fn finish(mut self) -> Result<XmlStorage, StorageError> {
        if self.open.len() != 1 {
            return Err(StorageError::corrupt("the document ended with open elements"));
        }
        let schema = &self.xs.schema;
        for block in &mut self.xs.table.blocks {
            let width = schema.node(block.schema_node).children.len();
            if block.slots.iter().flatten().any(|d| d.first_child.len() < width) {
                for d in Arc::make_mut(block).slots.iter_mut().flatten() {
                    let mut grown = std::mem::take(&mut d.first_child).into_vec();
                    grown.resize(width, None);
                    d.first_child = grown.into_boxed_slice();
                }
            }
        }
        Ok(self.xs)
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

    /// Every node's children, grouped by schema child, equal what the
    /// first-child-by-schema walk returns — with tiny blocks, after
    /// front inserts that split them and a delete that empties a run.
    #[test]
    fn children_in_walks_one_schema_child_in_document_order() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree_with_capacity(&store, doc, 2);
        let lib = xs.children(xs.root())[0];
        for i in 0..6 {
            let nb = xs.insert_element(lib, None, "book").unwrap();
            xs.insert_attribute(nb, "id", &format!("n{i}")).unwrap();
            for _ in 0..i {
                xs.insert_element(nb, None, "author").unwrap();
            }
        }
        let paper = *xs.children(lib).last().unwrap();
        xs.delete(xs.children(paper)[1]).unwrap();
        for p in xs.subtree(xs.root()) {
            let kids = &xs.schema().node(xs.schema_node_of(p)).children;
            for (slot, &sn) in kids.iter().enumerate() {
                let want: Vec<DescPtr> = if xs.schema().node(sn).kind == NodeKind::Attribute {
                    xs.attributes(p).into_iter().filter(|&a| xs.schema_node_of(a) == sn).collect()
                } else {
                    xs.children(p).into_iter().filter(|&c| xs.schema_node_of(c) == sn).collect()
                };
                assert_eq!(xs.children_in(p, slot).collect::<Vec<_>>(), want, "{p} slot {slot}");
            }
        }
        assert_eq!(xs.leaf_value(xs.attributes(xs.children(lib)[0])[0]), "n5");
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

    #[test]
    fn only_elements_and_the_document_take_children() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let title = xs.children(xs.children(lib)[0])[0];
        let text = xs.children(title)[0];
        let id = xs.insert_attribute(lib, "id", "l1").unwrap();
        let before = xs.len();
        for leaf in [text, id] {
            assert!(matches!(xs.insert_element(leaf, None, "evil"), Err(StorageError::Corrupt(_))));
            assert!(matches!(xs.insert_text(leaf, None, "evil"), Err(StorageError::Corrupt(_))));
            assert!(matches!(
                xs.insert_attribute(leaf, "evil", "v"),
                Err(StorageError::Corrupt(_))
            ));
        }
        // The document node takes children, never attributes.
        let root = xs.root();
        assert!(matches!(xs.insert_attribute(root, "evil", "v"), Err(StorageError::Corrupt(_))));
        assert_eq!(xs.len(), before, "a refused insert leaves no descriptor behind");
        xs.insert_text(root, Some(lib), "\n").unwrap();
        assert_eq!(xs.check_invariants(), None);
    }

    #[test]
    fn invariants_report_children_under_a_text_node() {
        let (store, doc) = library();
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let title = xs.children(xs.children(lib)[0])[0];
        let text = xs.children(title)[0];
        assert_eq!(xs.check_invariants(), None);
        // Plant the state the public mutators now refuse: an element
        // whose parent is a text node.
        xs.insert_child(text, None, Some("evil".into()), NodeKind::Element, None).unwrap();
        let found = xs.check_invariants().expect("a child under a text node must be reported");
        assert!(found.contains("element node under a text node"), "{found}");
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

#[cfg(test)]
mod builder_tests {
    use super::*;

    /// Feed a tree to a [`StorageBuilder`] in document order, with an
    /// explicit stack.
    fn streamed(store: &NodeStore, doc: NodeId, capacity: u16) -> XmlStorage {
        let mut b = StorageBuilder::with_capacity(capacity);
        b.xs.base_uri = store.base_uri(doc).map(str::to_string);
        let mut stack: Vec<std::vec::IntoIter<NodeId>> =
            vec![store.children(doc).to_vec().into_iter()];
        while let Some(level) = stack.last_mut() {
            let Some(n) = level.next() else {
                stack.pop();
                if !stack.is_empty() {
                    b.end_element().unwrap();
                }
                continue;
            };
            if store.kind(n) == NodeKind::Text {
                b.text(&store.string_value(n)).unwrap();
                continue;
            }
            let ty = store.type_name(n).unwrap_or("xs:anyType");
            b.start_element(store.node_name(n).unwrap(), ty, store.nilled(n) == Some(true))
                .unwrap();
            for &a in store.attributes(n) {
                let aty = store.type_name(a).unwrap_or("xs:anySimpleType");
                b.attribute(store.node_name(a).unwrap(), aty, &store.string_value(a)).unwrap();
            }
            stack.push(store.children(n).to_vec().into_iter());
        }
        b.finish().unwrap()
    }

    /// The library of the tests above, with paths that first occur late:
    /// an attribute only on the second book and a nilled third paper.
    fn ragged() -> (NodeStore, NodeId) {
        let (mut s, doc) = tests::library();
        let lib = s.children(doc)[0];
        let book2 = s.child_elements(lib)[1];
        let a = s.new_attribute(book2, "id", "b2");
        s.set_type(a, "xs:ID");
        let extra = s.new_element(lib, "paper");
        s.set_type(extra, "Paper");
        s.set_nilled(extra, true);
        (s, doc)
    }

    #[test]
    fn builder_reproduces_from_tree_exactly() {
        for (store, doc) in [tests::library(), ragged()] {
            for capacity in [2, 3, DEFAULT_BLOCK_CAPACITY] {
                let want = XmlStorage::from_tree_with_capacity(&store, doc, capacity);
                let got = streamed(&store, doc, capacity);
                assert_eq!(got.check_invariants(), None);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn builder_refuses_out_of_order_calls() {
        let mut b = StorageBuilder::new();
        assert!(b.text("stray").is_err());
        assert!(b.attribute("a", "xs:string", "v").is_err());
        assert!(b.end_element().is_err());
        b.start_element("r", "R", false).unwrap();
        b.text("t").unwrap();
        assert!(b.attribute("late", "xs:string", "v").is_err());
        let mut open = StorageBuilder::new();
        open.start_element("r", "R", false).unwrap();
        assert!(open.finish().is_err());
    }
}
