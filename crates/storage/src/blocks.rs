//! Data blocks and node descriptors (§9.2).
//!
//! The descriptive schema is the entry point to node storage: every
//! schema node owns a bidirectional list of fixed-capacity blocks holding
//! *node descriptors* — the physical representation of node instances.
//! The §9.2 invariants implemented here:
//!
//! * descriptors are **partially ordered across blocks**: every
//!   descriptor in block *i* precedes every descriptor in block *j* in
//!   document order when *i* < *j* in the list;
//! * descriptors **within a block are not ordered**; the document order
//!   is reconstructed through short `next in block` / `prev in block`
//!   pointers (2 bytes in Sedna — here a slot index);
//! * a descriptor holds the parent / left-sibling / right-sibling
//!   pointers, the `nid` numbering label (§9.3), and — for nodes that
//!   can have children — pointers **only to the first child per schema
//!   child** ("to save space … to speed up the XPath execution", §9.2);
//! * every block's header points back to its schema node.
//!
//! Descriptors are addressed **indirectly**: a [`DescPtr`] is a stable
//! id resolved through a location table, so block splits (which move
//! descriptors between blocks) never invalidate a pointer — neither the
//! ones inside other descriptors nor the ones a caller holds.
//!
//! Since blocks can now arrive from disk pages ([`crate::pages`]), the
//! chain-maintenance paths return a typed [`StorageError`] instead of
//! panicking when a slot link is dangling. Every mutation advances a
//! monotonic *tick*, which a query plan is stamped with.
//!
//! The block is also the unit of *sharing*. The table holds every block
//! behind an [`Arc`] and the location table as `Arc`'d segments of
//! [`LOC_SEG`] entries — the same segments the page layer maps onto
//! pages. Cloning a table copies one pointer per block and per segment,
//! and every mutable path goes through [`Arc::make_mut`], so a mutation
//! of a clone copies exactly the blocks and segments it writes and
//! shares the rest with the original. This is how an update and the
//! epoch snapshots readers hold share one document (RustDB's `BlockStg`:
//! numbered blocks behind a logical → physical map, where the tree does
//! not care where the bytes live), and how a save tells what changed
//! since the storage it wrote last ([`crate::paged::SavedPages`]).
//! Nothing here calls `Arc::get_mut`: a save's identity test relies on
//! every write going through `make_mut`.
//!
//! Descriptor ids are recycled. A delete *retires* the ids it frees; a
//! clone — the successor version a copy-on-write update mutates — hands
//! them to [`BlockTable::mint_ptr`], which takes them before growing the
//! table. Within the version that freed it an id stays dead, so a
//! use-after-delete inside one update still fails as a dangling pointer
//! instead of aliasing a new node.

use std::fmt;
use std::sync::Arc;

use xdm::NodeKind;

use crate::descriptive::{DescriptiveSchema, SchemaNodeId};
use crate::error::StorageError;
use crate::nid::Nid;
use crate::paged::LOC_SEG;

/// A stable pointer to a node descriptor. Valid until the node is
/// deleted; unaffected by block splits and unrelated updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DescPtr(pub(crate) u32);

impl DescPtr {
    /// The raw stable id.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DescPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// The physical representation of one node instance.
#[derive(Debug, Clone)]
pub struct NodeDescriptor {
    /// The descriptor's own stable id (back-reference for block scans).
    pub(crate) id: DescPtr,
    /// The numbering label (§9.3).
    pub nid: Nid,
    /// Parent pointer.
    pub parent: Option<DescPtr>,
    /// Previous sibling (same parent) in document order.
    pub left_sibling: Option<DescPtr>,
    /// Next sibling (same parent) in document order.
    pub right_sibling: Option<DescPtr>,
    /// Short pointer reconstructing document order inside the block.
    pub(crate) next_in_block: Option<u16>,
    /// Short pointer reconstructing document order inside the block.
    pub(crate) prev_in_block: Option<u16>,
    /// First child per schema child, indexed parallel to the schema
    /// node's `children` list. Present only for element/document nodes.
    pub(crate) first_child: Box<[Option<DescPtr>]>,
    /// Text content ("text-enabled" nodes: text and attribute nodes).
    pub(crate) text: Option<String>,
    /// The `nilled` property (element nodes).
    pub(crate) nilled: bool,
}

/// A fixed-capacity block of node descriptors.
#[derive(Debug, Clone)]
pub struct Block {
    /// Header: the schema node this block belongs to.
    pub schema_node: SchemaNodeId,
    /// Descriptor slots (`None` = free).
    pub(crate) slots: Vec<Option<NodeDescriptor>>,
    /// Head of the intra-block document-order chain.
    pub(crate) first_slot: Option<u16>,
    /// Tail of the intra-block document-order chain.
    pub(crate) last_slot: Option<u16>,
    /// Next block of the same schema node.
    pub(crate) next_block: Option<u32>,
    /// Previous block of the same schema node.
    pub(crate) prev_block: Option<u32>,
    /// Live descriptors.
    pub(crate) count: usize,
}

impl Block {
    pub(crate) fn new(schema_node: SchemaNodeId, capacity: u16) -> Self {
        Block {
            schema_node,
            slots: (0..capacity).map(|_| None).collect(),
            first_slot: None,
            last_slot: None,
            next_block: None,
            prev_block: None,
            count: 0,
        }
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no descriptor lives here.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when every slot is taken.
    pub fn is_full(&self) -> bool {
        self.count == self.slots.len()
    }

    pub(crate) fn free_slot(&self) -> Option<u16> {
        self.slots.iter().position(|s| s.is_none()).map(|i| i as u16)
    }

    /// Descriptors in document order (following the short pointers).
    pub fn iter_ordered(&self) -> BlockOrderIter<'_> {
        BlockOrderIter { block: self, next: self.first_slot }
    }

    /// The largest nid in the block (document-order maximum), if any.
    pub(crate) fn max_nid(&self) -> Option<&Nid> {
        self.last_slot.and_then(|s| self.slots.get(s as usize)?.as_ref()).map(|d| &d.nid)
    }

    /// The smallest nid in the block, if any.
    pub(crate) fn min_nid(&self) -> Option<&Nid> {
        self.first_slot.and_then(|s| self.slots.get(s as usize)?.as_ref()).map(|d| &d.nid)
    }

    fn corrupt(&self, what: impl fmt::Display) -> StorageError {
        StorageError::Corrupt(format!("block of {}: {what}", self.schema_node))
    }

    fn live_mut(&mut self, slot: u16) -> Result<&mut NodeDescriptor, StorageError> {
        let sn = self.schema_node;
        self.slots
            .get_mut(slot as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| StorageError::Corrupt(format!("block of {sn}: dead slot {slot} linked")))
    }

    /// Append `desc` at the tail of the intra-block chain; the caller
    /// guarantees a free slot exists.
    pub(crate) fn push_tail(&mut self, mut desc: NodeDescriptor) -> Result<u16, StorageError> {
        let slot = self.free_slot().ok_or_else(|| self.corrupt("no free slot for append"))?;
        desc.prev_in_block = self.last_slot;
        desc.next_in_block = None;
        self.slots[slot as usize] = Some(desc);
        match self.last_slot {
            Some(last) => self.live_mut(last)?.next_in_block = Some(slot),
            None => self.first_slot = Some(slot),
        }
        self.last_slot = Some(slot);
        self.count += 1;
        Ok(slot)
    }

    /// Insert `desc` into the chain between slots `after` and `before`
    /// (either may be `None` for the chain's ends); the caller
    /// guarantees a free slot exists and that the positions are
    /// adjacent.
    pub(crate) fn insert_chained(
        &mut self,
        mut desc: NodeDescriptor,
        after: Option<u16>,
        before: Option<u16>,
    ) -> Result<u16, StorageError> {
        let slot = self.free_slot().ok_or_else(|| self.corrupt("no free slot for insert"))?;
        desc.prev_in_block = after;
        desc.next_in_block = before;
        self.slots[slot as usize] = Some(desc);
        match after {
            Some(a) => self.live_mut(a)?.next_in_block = Some(slot),
            None => self.first_slot = Some(slot),
        }
        match before {
            Some(b) => self.live_mut(b)?.prev_in_block = Some(slot),
            None => self.last_slot = Some(slot),
        }
        self.count += 1;
        Ok(slot)
    }

    /// Remove the descriptor at `slot`, stitching the chain around it.
    pub(crate) fn unlink(&mut self, slot: u16) -> Result<NodeDescriptor, StorageError> {
        let desc = self
            .slots
            .get_mut(slot as usize)
            .and_then(|s| s.take())
            .ok_or_else(|| StorageError::Corrupt(format!("unlinking dead slot {slot}")))?;
        match desc.prev_in_block {
            Some(prev) => self.live_mut(prev)?.next_in_block = desc.next_in_block,
            None => self.first_slot = desc.next_in_block,
        }
        match desc.next_in_block {
            Some(next) => self.live_mut(next)?.prev_in_block = desc.prev_in_block,
            None => self.last_slot = desc.prev_in_block,
        }
        self.count -= 1;
        Ok(desc)
    }
}

/// Iterator over a block's descriptors in document order.
pub struct BlockOrderIter<'a> {
    block: &'a Block,
    next: Option<u16>,
}

impl<'a> Iterator for BlockOrderIter<'a> {
    type Item = (DescPtr, &'a NodeDescriptor);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.next?;
        // A dangling link ends the iteration rather than panicking;
        // decode-time validation rejects such chains before they are
        // ever walked.
        let desc = self.block.slots.get(slot as usize)?.as_ref()?;
        self.next = desc.next_in_block;
        Some((desc.id, desc))
    }
}

/// One location-table entry: the (block, slot) hosting a descriptor id,
/// `None` once the id is dead.
pub(crate) type Location = Option<(u32, u16)>;

/// One location-table segment: the unit a page holds.
pub(crate) type Segment = [Location; LOC_SEG as usize];

/// The location table — stable id → (block, slot) — held as `Arc`'d
/// segments of [`LOC_SEG`] entries, so a clone shares every segment and
/// a write copies only the segment it lands in.
#[derive(Debug, Clone, Default)]
pub(crate) struct Locations {
    pub(crate) segs: Vec<Arc<Segment>>,
    /// Ids minted so far; entries past it are `None`.
    len: u32,
}

impl Locations {
    /// Number of ids minted so far (live or dead).
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Where `id` lives; `None` when it is dead or was never minted.
    pub(crate) fn get(&self, id: u32) -> Location {
        self.segs.get((id / LOC_SEG) as usize).and_then(|seg| seg[(id % LOC_SEG) as usize])
    }

    fn set(&mut self, id: u32, loc: Location) {
        Arc::make_mut(&mut self.segs[(id / LOC_SEG) as usize])[(id % LOC_SEG) as usize] = loc;
    }

    /// Mint the next id with location `loc`, opening a segment when the
    /// last one is full.
    pub(crate) fn push(&mut self, loc: Location) -> u32 {
        let id = self.len;
        self.len = id.checked_add(1).expect("descriptor id overflow");
        if id.is_multiple_of(LOC_SEG) {
            self.segs.push(Arc::new([None; LOC_SEG as usize]));
        }
        self.set(id, loc);
        id
    }

    /// The minted entries of segment `j`.
    pub(crate) fn segment(&self, j: u32) -> &[Location] {
        let minted = (self.len - j * LOC_SEG).min(LOC_SEG);
        &self.segs[j as usize][..minted as usize]
    }

    /// Every minted entry, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Location> + '_ {
        self.segs.iter().flat_map(|seg| seg.iter().copied()).take(self.len as usize)
    }
}

/// One schema node's entry in the [`BlockTable`]: the ends of its block
/// list and the number of live descriptors the list holds — the schema
/// node's cardinality, the one statistic the query planner reads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct List {
    /// (first, last) block of the list.
    pub(crate) ends: Option<(u32, u32)>,
    /// Live descriptors across the list's blocks.
    pub(crate) live: usize,
}

/// All blocks, the per-schema-node block lists, and the indirection
/// table from stable descriptor ids to (block, slot) locations.
#[derive(Debug, Default)]
pub struct BlockTable {
    /// Every block, shared with clones until a mutation copies it.
    pub(crate) blocks: Vec<Arc<Block>>,
    /// Per schema node: its block list and cardinality.
    pub(crate) lists: Vec<List>,
    /// Stable id → current (block, slot); `None` after deletion.
    pub(crate) locations: Locations,
    /// Dead ids [`BlockTable::mint_ptr`] hands out before growing the
    /// location table.
    free_ids: Vec<u32>,
    /// Ids freed in this version; they join `free_ids` in its clones.
    retired_ids: Vec<u32>,
    /// Monotonic mutation counter, bumped on every touch below: the
    /// generation a query plan is stamped with.
    pub(crate) tick: u64,
}

impl Clone for BlockTable {
    /// The successor version: shares every block and location segment
    /// with `self`, and may reuse the ids `self` retired.
    fn clone(&self) -> Self {
        BlockTable {
            blocks: self.blocks.clone(),
            lists: self.lists.clone(),
            locations: self.locations.clone(),
            free_ids: [&self.free_ids[..], &self.retired_ids[..]].concat(),
            retired_ids: Vec::new(),
            tick: self.tick,
        }
    }
}

impl BlockTable {
    /// Reassemble a table decoded from pages. Every dead id on disk is
    /// free: the version that freed it is gone. Each schema node's
    /// cardinality is the sum of its blocks' validated live counts.
    pub(crate) fn from_decoded(
        blocks: Vec<Block>,
        ends: Vec<Option<(u32, u32)>>,
        locations: Locations,
    ) -> BlockTable {
        let mut lists: Vec<List> = ends.into_iter().map(|ends| List { ends, live: 0 }).collect();
        for b in &blocks {
            lists[b.schema_node.index()].live += b.count;
        }
        let free_ids = (0..locations.len()).filter(|&id| locations.get(id).is_none()).collect();
        BlockTable {
            blocks: blocks.into_iter().map(Arc::new).collect(),
            lists,
            locations,
            free_ids,
            ..Default::default()
        }
    }

    /// Advance the tick: one per block, location or catalog-level
    /// write.
    fn touch(&mut self) {
        self.tick += 1;
    }

    pub(crate) fn ensure_schema_capacity(&mut self, schema: &DescriptiveSchema) {
        if self.lists.len() < schema.len() {
            self.lists.resize(schema.len(), List::default());
            self.touch();
        }
    }

    /// Mint a stable id (location set when the descriptor lands): a
    /// free dead id when there is one, else a fresh one.
    pub(crate) fn mint_ptr(&mut self) -> DescPtr {
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.touch(); // the location-table length is catalog state
                self.locations.push(None)
            }
        };
        self.touch();
        DescPtr(id)
    }

    /// Kill `p`'s location. Its id stays dead in this version and is
    /// reusable from the next clone on.
    pub(crate) fn release_ptr(&mut self, p: DescPtr) {
        self.set_location(p, None);
        self.retired_ids.push(p.0);
    }

    pub(crate) fn location(&self, p: DescPtr) -> (u32, u16) {
        self.locations.get(p.0).expect("dangling descriptor pointer")
    }

    pub(crate) fn set_location(&mut self, p: DescPtr, loc: Location) {
        self.locations.set(p.0, loc);
        self.touch();
    }

    pub(crate) fn block(&self, i: u32) -> &Block {
        &self.blocks[i as usize]
    }

    /// Mutable block access; copies the block first when a clone (or a
    /// save's identity) shares it.
    pub(crate) fn block_mut(&mut self, i: u32) -> &mut Block {
        self.touch();
        Arc::make_mut(&mut self.blocks[i as usize])
    }

    pub(crate) fn desc(&self, p: DescPtr) -> &NodeDescriptor {
        self.entry(p).1
    }

    /// The block hosting `p` and its descriptor, from one location
    /// lookup.
    pub(crate) fn entry(&self, p: DescPtr) -> (&Block, &NodeDescriptor) {
        let (b, s) = self.location(p);
        let block = &self.blocks[b as usize];
        (block, block.slots[s as usize].as_ref().expect("live descriptor"))
    }

    /// Mutable descriptor access, through [`BlockTable::block_mut`].
    pub(crate) fn desc_mut(&mut self, p: DescPtr) -> &mut NodeDescriptor {
        let (b, s) = self.location(p);
        self.block_mut(b).slots[s as usize].as_mut().expect("live descriptor")
    }

    /// Kind of the node at `p` (from the block header's schema node).
    pub(crate) fn kind_of(&self, p: DescPtr, schema: &DescriptiveSchema) -> NodeKind {
        let (b, _) = self.location(p);
        schema.node(self.blocks[b as usize].schema_node).kind
    }

    /// The schema node of the block currently hosting `p`.
    pub(crate) fn schema_node_of(&self, p: DescPtr) -> SchemaNodeId {
        let (b, _) = self.location(p);
        self.blocks[b as usize].schema_node
    }

    /// Append a fresh block at the end of `schema_node`'s list.
    pub(crate) fn append_block(&mut self, schema_node: SchemaNodeId, capacity: u16) -> u32 {
        let idx = self.blocks.len() as u32;
        let mut b = Block::new(schema_node, capacity);
        match self.lists[schema_node.index()].ends {
            Some((first, last)) => {
                b.prev_block = Some(last);
                self.block_mut(last).next_block = Some(idx);
                self.lists[schema_node.index()].ends = Some((first, idx));
            }
            None => self.lists[schema_node.index()].ends = Some((idx, idx)),
        }
        self.blocks.push(Arc::new(b));
        self.tick += 2; // the new block, and the list heads in the catalog
        idx
    }

    /// Insert a fresh block immediately after `after` in its list.
    pub(crate) fn insert_block_after(&mut self, after: u32, capacity: u16) -> u32 {
        let schema_node = self.blocks[after as usize].schema_node;
        let idx = self.blocks.len() as u32;
        let mut b = Block::new(schema_node, capacity);
        b.prev_block = Some(after);
        b.next_block = self.blocks[after as usize].next_block;
        if let Some(next) = b.next_block {
            self.block_mut(next).prev_block = Some(idx);
        } else if let Some((_, last)) = &mut self.lists[schema_node.index()].ends {
            *last = idx;
        }
        self.blocks.push(Arc::new(b));
        self.block_mut(after).next_block = Some(idx);
        self.tick += 2; // the new block, and the list heads in the catalog
        idx
    }

    /// First block of a schema node's list.
    pub(crate) fn first_block(&self, sn: SchemaNodeId) -> Option<u32> {
        self.lists[sn.index()].ends.map(|(first, _)| first)
    }

    /// Last block of a schema node's list.
    pub(crate) fn last_block(&self, sn: SchemaNodeId) -> Option<u32> {
        self.lists[sn.index()].ends.map(|(_, last)| last)
    }
}

#[cfg(test)]
mod copy_on_write_tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use xdm::NodeStore;

    use super::*;
    use crate::storage::XmlStorage;

    /// `<library>` of `books` books, each a `<title>` with text, every
    /// even book also carrying an `id` attribute: 72 books are ≈256
    /// nodes, 4680 are ≈16 384. With the default capacity the book,
    /// title and text lists then end in a full block followed by a short
    /// one at both sizes.
    fn library(books: usize) -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        for i in 0..books {
            let book = s.new_element(lib, "book");
            if i % 2 == 0 {
                s.new_attribute(book, "id", format!("b{i}"));
            }
            let title = s.new_element(book, "title");
            s.new_text(title, format!("title {i}"));
        }
        XmlStorage::from_tree(&s, doc)
    }

    const SIZES: [usize; 2] = [72, 4680];

    /// Blocks plus location segments of `b` that are not the very
    /// allocation `a` holds (new ones included).
    fn unshared(a: &XmlStorage, b: &XmlStorage) -> usize {
        let (ta, tb) = (a.table(), b.table());
        let blocks = tb
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, blk)| ta.blocks.get(*i).is_none_or(|old| !Arc::ptr_eq(old, blk)))
            .count();
        let segs = tb
            .locations
            .segs
            .iter()
            .enumerate()
            .filter(|(j, seg)| ta.locations.segs.get(*j).is_none_or(|old| !Arc::ptr_eq(old, seg)))
            .count();
        blocks + segs
    }

    /// Everything a reader can observe, node by node in document order.
    fn image(xs: &XmlStorage) -> Vec<String> {
        xs.subtree(xs.root())
            .into_iter()
            .map(|p| {
                let own = match xs.kind(p) {
                    NodeKind::Text | NodeKind::Attribute => xs.string_value(p),
                    _ => String::new(),
                };
                format!("{p} {:?} {} {:?} {own}", xs.nid(p), xs.node_kind(p), xs.node_name(p))
            })
            .collect()
    }

    /// The book at position `i` and the text node of its title.
    fn book_and_text(xs: &XmlStorage, i: usize) -> (DescPtr, DescPtr) {
        let lib = xs.children(xs.root())[0];
        let book = xs.children(lib)[i];
        let title = xs.children(book)[0];
        (book, xs.children(title)[0])
    }

    type Mutator = fn(&mut XmlStorage, usize);

    /// One mutation per mutator, aimed at a full block near the end of
    /// its list (books `n - 20` / `n - 19`) so that the descriptors it
    /// touches and any fresh id share a location segment at every size.
    const MUTATORS: [(&str, Mutator); 6] = [
        ("insert_element (splits a block)", |xs, n| {
            let lib = xs.children(xs.root())[0];
            let (book, _) = book_and_text(xs, n - 20);
            xs.insert_element(lib, Some(book), "book").unwrap();
        }),
        ("insert_text (splits a block)", |xs, n| {
            let (book, _) = book_and_text(xs, n - 20);
            let title = xs.children(book)[0];
            xs.insert_text(title, None, "subtitle").unwrap();
        }),
        ("insert_attribute", |xs, n| {
            let (book, _) = book_and_text(xs, n - 19);
            assert!(xs.attribute_named(book, "id").is_none());
            xs.insert_attribute(book, "id", "fresh").unwrap();
        }),
        ("delete", |xs, n| {
            let (book, _) = book_and_text(xs, n - 20);
            xs.delete(book).unwrap();
        }),
        ("set_text", |xs, n| {
            let (_, text) = book_and_text(xs, n - 20);
            xs.set_text(text, "retitled").unwrap();
        }),
        ("insert_attribute (replaces a value)", |xs, n| {
            let (book, _) = book_and_text(xs, n - 20);
            xs.insert_attribute(book, "id", "renamed").unwrap();
        }),
    ];

    #[test]
    fn a_mutated_clone_copies_a_constant_number_of_blocks() {
        for (name, mutate) in MUTATORS {
            let copied: Vec<usize> = SIZES
                .iter()
                .map(|&n| {
                    let original = library(n);
                    let before = image(&original);
                    let mut next = original.clone();
                    assert_eq!(unshared(&original, &next), 0, "a fresh clone shares everything");
                    mutate(&mut next, n);
                    assert_eq!(next.check_invariants(), None, "{name} at {n} books");
                    assert_eq!(original.check_invariants(), None, "{name} at {n} books");
                    assert_eq!(image(&original), before, "{name} leaked into the original");
                    assert_ne!(image(&next), before, "{name} changed nothing");
                    unshared(&original, &next)
                })
                .collect();
            assert_eq!(copied[0], copied[1], "{name}: copies grow with the document");
            assert!((1..=6).contains(&copied[0]), "{name}: {} blocks + segments copied", copied[0]);
        }
    }

    #[test]
    fn freed_ids_stay_dead_in_their_version_and_recycle_in_the_next() {
        let original = library(SIZES[0]);
        let mut xs = original.clone();
        let (book, _) = book_and_text(&xs, 3);
        let freed: Vec<u32> = xs.subtree(book).into_iter().map(DescPtr::id).collect();
        xs.delete(book).unwrap();
        // Same version: a mint grows the table, and the stale pointer
        // still dangles instead of naming the new node.
        let lib = xs.children(xs.root())[0];
        let len = xs.table().locations.len();
        let fresh = xs.insert_element(lib, None, "book").unwrap();
        assert!(!freed.contains(&fresh.id()));
        assert_eq!(xs.table().locations.len(), len + 1);
        let stale = catch_unwind(AssertUnwindSafe(|| xs.parent(book)));
        assert!(stale.is_err(), "a deleted pointer resolved within its own version");
        // The successor version reuses the freed ids before growing.
        let mut next = xs.clone();
        let reused = next.insert_element(lib, None, "book").unwrap();
        assert!(freed.contains(&reused.id()), "{reused} is not a recycled id");
        assert_eq!(next.table().locations.len(), len + 1);
        assert_eq!(next.check_invariants(), None);
        assert_eq!(xs.check_invariants(), None);
    }

    #[test]
    fn balanced_churn_does_not_grow_the_location_table() {
        let mut xs = library(SIZES[1]);
        let lib = xs.children(xs.root())[0];
        let mut shape = None;
        for cycle in 0..2000 {
            // Each update mutates a fresh successor version, as a
            // copy-on-write commit does.
            xs = xs.clone();
            let last = xs.children(lib).last().copied();
            let tag = xs.insert_element(lib, last, "tag").unwrap();
            xs.insert_text(tag, None, format!("cycle {cycle}")).unwrap();
            xs = xs.clone();
            let oldest = xs.children(lib).into_iter().find(|&c| xs.node_name(c) == Some("tag"));
            xs.delete(oldest.unwrap()).unwrap();
            let now = (xs.table().locations.len(), xs.block_count(), xs.len());
            assert_eq!(*shape.get_or_insert(now), now, "cycle {cycle}");
        }
        assert_eq!(xs.check_invariants(), None);
    }
}
