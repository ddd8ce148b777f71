//! The §9 structures serialized onto pages.
//!
//! Layout: every logical page-store block holds one self-contained
//! piece of a document's storage —
//!
//! * logical **0** is the *catalog*: format version, block capacity,
//!   root pointer, relabel counter, base URI, the full descriptive
//!   schema, the per-schema-node block-list heads, and the sizes of the
//!   block array and the location table;
//! * logical **1 + 2·i** is data block *i* (§9.2), slots and all;
//! * logical **2 + 2·j** is segment *j* of the location table, covering
//!   stable descriptor ids `[j·LOC_SEG, (j+1)·LOC_SEG)`.
//!
//! Blocks are the unit of change: a single-node update rewrites the
//! pages of one block (plus, at most, one location segment and the
//! catalog), not the whole document. A save keeps the identity of every
//! block and segment it wrote ([`SavedPages`]), and [`save_changed`]
//! writes only those whose `Arc` is another allocation now — the diff of
//! two storage values, whatever line of states they come from. The
//! catalog alone suffices to answer schema-level
//! questions, so [`PagedXml`] opens a document by reading just the map
//! and the catalog pages and pulls data blocks on demand.
//!
//! Everything decoded here is untrusted disk input: beyond the per-page
//! checksums (verified in [`crate::pages`]), decoding validates every
//! index, pointer, chain, and cross-reference before the §9 accessors —
//! which index without checking — ever see the data. Damage surfaces as
//! a typed [`StorageError`], never a panic.

use std::path::Path;
use std::sync::{Arc, Weak};

use xdm::NodeKind;

use crate::blocks::{Block, BlockTable, DescPtr, Location, Locations, NodeDescriptor, Segment};
use crate::codec::{Reader, Writer};
use crate::descriptive::{DescriptiveSchema, SchemaNode, SchemaNodeId};
use crate::error::StorageError;
use crate::nid::Nid;
use crate::pages::PageStore;
use crate::storage::XmlStorage;
use crate::vfs::Vfs;

/// Location-table entries per on-page segment (7 bytes each worst case,
/// so a segment always fits one page payload).
pub(crate) const LOC_SEG: u32 = 512;

/// On-page catalog format version written. Version 2 appends the commit
/// *epoch* — the highest write-ahead-log sequence whose effects are
/// durable in these pages — so WAL replay can skip already-applied
/// records. Version 1 catalogs (no epoch field) still load, at epoch 0.
const CATALOG_VERSION: u8 = 2;

/// The newest catalog version the loader reads. Version 3 is version 2
/// plus a statistics section (per-schema-node cardinalities, child
/// fanouts and leaf-value histograms) that no plan choice reads: the
/// loader checks that it covers every schema node and drops it, as each
/// block list's cardinality is the sum of its blocks' live counts.
/// Stores this code writes stay version 2, so older builds, which read
/// versions 1 to 3, open them too.
const CATALOG_VERSION_READ: u8 = 3;

/// Logical block number of the catalog.
const CATALOG_LOGICAL: u64 = 0;

fn block_logical(i: u32) -> u64 {
    1 + 2 * u64::from(i)
}

fn loc_seg_logical(j: u32) -> u64 {
    2 + 2 * u64::from(j)
}

fn loc_seg_count(loc_len: u32) -> u32 {
    loc_len.div_ceil(LOC_SEG)
}

fn kind_byte(k: NodeKind) -> u8 {
    match k {
        NodeKind::Document => 0,
        NodeKind::Element => 1,
        NodeKind::Attribute => 2,
        NodeKind::Text => 3,
    }
}

fn kind_from(b: u8, what: &str) -> Result<NodeKind, StorageError> {
    match b {
        0 => Ok(NodeKind::Document),
        1 => Ok(NodeKind::Element),
        2 => Ok(NodeKind::Attribute),
        3 => Ok(NodeKind::Text),
        other => Err(StorageError::corrupt(format!("{what}: node kind byte {other}"))),
    }
}

// ------------------------------------------------------------- encoding

fn encode_catalog(xs: &XmlStorage, epoch: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CATALOG_VERSION);
    w.u16(xs.block_capacity());
    w.u32(xs.root().id());
    w.u64(xs.relabel_count());
    w.opt_string(xs.doc_base_uri());
    let schema = xs.schema();
    w.u32(schema.len() as u32);
    for id in schema.ids() {
        let n = schema.node(id);
        w.opt_string(n.name.as_deref());
        w.u8(kind_byte(n.kind));
        w.opt_u32(n.parent.map(|p| p.0));
        w.opt_string(n.type_name.as_deref());
        w.u32(n.children.len() as u32);
        for c in &n.children {
            w.u32(c.0);
        }
    }
    let table = xs.table();
    for l in &table.lists {
        match l.ends {
            Some((first, last)) => {
                w.u8(1);
                w.u32(first);
                w.u32(last);
            }
            None => w.u8(0),
        }
    }
    w.u32(table.blocks.len() as u32);
    w.u32(table.locations.len());
    w.u64(epoch);
    w.into_bytes()
}

fn encode_block(b: &Block) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(b.schema_node.0);
    w.u16(b.slots.len() as u16);
    w.opt_u16(b.first_slot);
    w.opt_u16(b.last_slot);
    w.opt_u32(b.next_block);
    w.opt_u32(b.prev_block);
    w.u16(b.count as u16);
    for s in &b.slots {
        let Some(d) = s else {
            w.u8(0);
            continue;
        };
        w.u8(1);
        w.u32(d.id.id());
        w.bytes(d.nid.as_bytes());
        w.opt_u32(d.parent.map(DescPtr::id));
        w.opt_u32(d.left_sibling.map(DescPtr::id));
        w.opt_u32(d.right_sibling.map(DescPtr::id));
        w.opt_u16(d.next_in_block);
        w.opt_u16(d.prev_in_block);
        w.u32(d.first_child.len() as u32);
        for c in d.first_child.iter() {
            w.opt_u32(c.map(DescPtr::id));
        }
        w.opt_string(d.text.as_deref());
        w.u8(u8::from(d.nilled));
    }
    w.into_bytes()
}

fn encode_loc_seg(segment: &[Location]) -> Vec<u8> {
    let mut w = Writer::new();
    for e in segment {
        match e {
            Some((b, s)) => {
                w.u8(1);
                w.u32(*b);
                w.u16(*s);
            }
            None => w.u8(0),
        }
    }
    w.into_bytes()
}

// --------------------------------------------------------------- saving

/// What a page store holds, by identity: a `Weak` per data block and per
/// location segment of the storage it last wrote or loaded.
///
/// [`save_changed`] skips a block or segment whose `Arc` is the very
/// allocation recorded here. That test is sound: a held `Weak` keeps its
/// allocation alive, so the address cannot be reused by another value,
/// and [`Arc::make_mut`] — the only way a block or segment is written —
/// moves the value to a new allocation whenever any other `Arc` or
/// `Weak` to it exists. An equal address is therefore the exact value
/// that was written. Holding `Weak`s rather than the storage pins less:
/// a replaced block frees its slots, and only each `Arc`'s own
/// allocation — a block's header, a segment's array — stays until the
/// next save.
#[derive(Debug, Default)]
pub struct SavedPages {
    blocks: Vec<Weak<Block>>,
    segments: Vec<Weak<Segment>>,
}

impl SavedPages {
    /// The identities of everything `xs` holds.
    fn of(xs: &XmlStorage) -> SavedPages {
        let table = xs.table();
        SavedPages {
            blocks: table.blocks.iter().map(Arc::downgrade).collect(),
            segments: table.locations.segs.iter().map(Arc::downgrade).collect(),
        }
    }
}

/// Whether `now` is another allocation than the one `saved` recorded at
/// the same index (or there was none).
fn changed<T>(saved: &[Weak<T>], i: usize, now: &Arc<T>) -> bool {
    saved.get(i).is_none_or(|w| !std::ptr::eq(w.as_ptr(), Arc::as_ptr(now)))
}

/// Write the entire storage into `store` (fresh stores, migrations),
/// at commit epoch 0. The caller commits the store afterwards.
///
/// # Errors
/// I/O failures from the underlying [`Vfs`].
pub fn save_full(
    xs: &XmlStorage,
    vfs: &dyn Vfs,
    store: &mut PageStore,
    data_path: &Path,
) -> Result<SavedPages, StorageError> {
    save_full_epoch(xs, vfs, store, data_path, 0)
}

/// [`save_full`], stamping `epoch` — the highest WAL sequence whose
/// effects these pages contain — into the catalog.
///
/// # Errors
/// I/O failures from the underlying [`Vfs`].
pub fn save_full_epoch(
    xs: &XmlStorage,
    vfs: &dyn Vfs,
    store: &mut PageStore,
    data_path: &Path,
    epoch: u64,
) -> Result<SavedPages, StorageError> {
    save_changed(xs, &SavedPages::default(), vfs, store, data_path, epoch)
}

/// Write what `xs` holds and `saved` — the store's last save or load —
/// does not: the catalog, stamped with `epoch`, then every data block
/// and location segment that is not the allocation `saved` recorded.
/// Returns the identities to pass to the next save once the caller has
/// committed the store.
///
/// # Errors
/// I/O failures from the underlying [`Vfs`].
pub fn save_changed(
    xs: &XmlStorage,
    saved: &SavedPages,
    vfs: &dyn Vfs,
    store: &mut PageStore,
    data_path: &Path,
    epoch: u64,
) -> Result<SavedPages, StorageError> {
    store.write_block(vfs, data_path, CATALOG_LOGICAL, &encode_catalog(xs, epoch))?;
    let table = xs.table();
    for (i, b) in table.blocks.iter().enumerate() {
        if changed(&saved.blocks, i, b) {
            store.write_block(vfs, data_path, block_logical(i as u32), &encode_block(b))?;
        }
    }
    for (j, seg) in table.locations.segs.iter().enumerate() {
        if changed(&saved.segments, j, seg) {
            let j = j as u32;
            let bytes = encode_loc_seg(table.locations.segment(j));
            store.write_block(vfs, data_path, loc_seg_logical(j), &bytes)?;
        }
    }
    Ok(SavedPages::of(xs))
}

// ------------------------------------------------------------- decoding

/// The decoded catalog block: everything except the data blocks and the
/// location table.
#[derive(Debug)]
struct Catalog {
    capacity: u16,
    root: DescPtr,
    relabels: u64,
    base_uri: Option<String>,
    schema: DescriptiveSchema,
    lists: Vec<Option<(u32, u32)>>,
    block_count: u32,
    loc_len: u32,
    /// Highest WAL sequence applied to these pages (0 for version-1
    /// catalogs, which predate the log).
    epoch: u64,
}

fn read_catalog(
    store: &PageStore,
    vfs: &dyn Vfs,
    data_path: &Path,
) -> Result<Catalog, StorageError> {
    let bytes = store.read_block(vfs, data_path, CATALOG_LOGICAL)?;
    decode_catalog(&bytes)
}

fn decode_catalog(bytes: &[u8]) -> Result<Catalog, StorageError> {
    let mut r = Reader::new(bytes, "catalog");
    let version = r.u8()?;
    if !(1..=CATALOG_VERSION_READ).contains(&version) {
        return Err(StorageError::corrupt(format!("catalog: unknown format version {version}")));
    }
    let capacity = r.u16()?;
    if capacity < 2 {
        return Err(StorageError::corrupt(format!("catalog: block capacity {capacity} < 2")));
    }
    let root = DescPtr(r.u32()?);
    let relabels = r.u64()?;
    let base_uri = r.opt_string()?;
    let nschema = r.u32()?;
    let mut nodes = Vec::new();
    for i in 0..nschema {
        let name = r.opt_string()?;
        let kind = kind_from(r.u8()?, "catalog")?;
        let parent = r.opt_u32()?;
        if let Some(p) = parent {
            if p >= nschema {
                return Err(StorageError::corrupt(format!(
                    "catalog: schema node {i} has out-of-range parent {p}"
                )));
            }
        }
        let type_name = r.opt_string()?;
        let nkids = r.u32()?;
        let mut children = Vec::new();
        for _ in 0..nkids {
            let c = r.u32()?;
            if c >= nschema {
                return Err(StorageError::corrupt(format!(
                    "catalog: schema node {i} has out-of-range child {c}"
                )));
            }
            children.push(SchemaNodeId(c));
        }
        nodes.push(SchemaNode {
            name,
            kind,
            parent: parent.map(SchemaNodeId),
            children,
            type_name,
        });
    }
    let mut lists = Vec::new();
    for _ in 0..nschema {
        lists.push(if r.flag()? { Some((r.u32()?, r.u32()?)) } else { None });
    }
    let block_count = r.u32()?;
    let loc_len = r.u32()?;
    let epoch = if version >= 2 { r.u64()? } else { 0 };
    if version == 3 {
        skip_statistics(&mut r, nschema)?;
    }
    r.finish()?;
    for (sn, l) in lists.iter().enumerate() {
        if let Some((first, last)) = l {
            if *first >= block_count || *last >= block_count {
                return Err(StorageError::corrupt(format!(
                    "catalog: block list of schema node {sn} escapes the {block_count} blocks"
                )));
            }
        }
    }
    if root.id() >= loc_len {
        return Err(StorageError::corrupt(format!(
            "catalog: root descriptor {root} outside the {loc_len} ids"
        )));
    }
    Ok(Catalog {
        capacity,
        root,
        relabels,
        base_uri,
        schema: DescriptiveSchema::from_nodes(nodes),
        lists,
        block_count,
        loc_len,
        epoch,
    })
}

/// Read past a version-3 catalog's statistics section: a node count that
/// must equal the schema's, then per node a cardinality and a fanout
/// (`u64` each) and an optional histogram of twelve `u64`s (bounds, 8
/// buckets, numeric and non-numeric counts).
fn skip_statistics(r: &mut Reader<'_>, nschema: u32) -> Result<(), StorageError> {
    let n = r.u32()?;
    if n != nschema {
        return Err(StorageError::corrupt(format!(
            "catalog: statistics cover {n} schema nodes of {nschema}"
        )));
    }
    for _ in 0..n {
        r.take(16)?;
        if r.flag()? {
            r.take(12 * 8)?;
        }
    }
    Ok(())
}

fn decode_block(bytes: &[u8], i: u32, cat: &Catalog) -> Result<Block, StorageError> {
    let what = format!("block {i}");
    let mut r = Reader::new(bytes, &what);
    let sn_raw = r.u32()?;
    if sn_raw as usize >= cat.schema.len() {
        return Err(StorageError::corrupt(format!("{what}: schema node {sn_raw} out of range")));
    }
    let schema_node = SchemaNodeId(sn_raw);
    let nkids = cat.schema.node(schema_node).children.len();
    let cap = r.u16()?;
    if cap < 2 {
        return Err(StorageError::corrupt(format!("{what}: capacity {cap} < 2")));
    }
    let check_slot = |s: Option<u16>| match s {
        Some(s) if s >= cap => {
            Err(StorageError::corrupt(format!("{what}: slot {s} beyond capacity {cap}")))
        }
        other => Ok(other),
    };
    let check_block = |b: Option<u32>| match b {
        Some(b) if b >= cat.block_count => {
            Err(StorageError::corrupt(format!("{what}: block link {b} out of range")))
        }
        other => Ok(other),
    };
    let check_ptr = |p: Option<u32>| match p {
        Some(p) if p >= cat.loc_len => {
            Err(StorageError::corrupt(format!("{what}: descriptor id {p} out of range")))
        }
        other => Ok(other.map(DescPtr)),
    };
    let first_slot = check_slot(r.opt_u16()?)?;
    let last_slot = check_slot(r.opt_u16()?)?;
    let next_block = check_block(r.opt_u32()?)?;
    let prev_block = check_block(r.opt_u32()?)?;
    let count = r.u16()? as usize;
    let mut slots = Vec::new();
    let mut live = 0usize;
    for _ in 0..cap {
        if !r.flag()? {
            slots.push(None);
            continue;
        }
        live += 1;
        let Some(id) = check_ptr(Some(r.u32()?))? else {
            return Err(StorageError::corrupt(format!(
                "{what}: live slot carries no descriptor id"
            )));
        };
        let nid = Nid::from_bytes(r.bytes()?)?;
        let parent = check_ptr(r.opt_u32()?)?;
        let left_sibling = check_ptr(r.opt_u32()?)?;
        let right_sibling = check_ptr(r.opt_u32()?)?;
        let next_in_block = check_slot(r.opt_u16()?)?;
        let prev_in_block = check_slot(r.opt_u16()?)?;
        let nfc = r.u32()? as usize;
        if nfc != nkids {
            return Err(StorageError::corrupt(format!(
                "{what}: first-child array has {nfc} entries, schema node has {nkids} children"
            )));
        }
        let mut first_child = Vec::new();
        for _ in 0..nfc {
            first_child.push(check_ptr(r.opt_u32()?)?);
        }
        let text = r.opt_string()?;
        let nilled = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(StorageError::corrupt(format!("{what}: nilled byte {other}")));
            }
        };
        slots.push(Some(NodeDescriptor {
            id,
            nid,
            parent,
            left_sibling,
            right_sibling,
            next_in_block,
            prev_in_block,
            first_child: first_child.into_boxed_slice(),
            text,
            nilled,
        }));
    }
    r.finish()?;
    if live != count {
        return Err(StorageError::corrupt(format!(
            "{what}: header counts {count} descriptors, {live} slots are live"
        )));
    }
    Ok(Block { schema_node, slots, first_slot, last_slot, next_block, prev_block, count })
}

fn read_locations(
    store: &PageStore,
    vfs: &dyn Vfs,
    data_path: &Path,
    cat: &Catalog,
) -> Result<Locations, StorageError> {
    let mut out = Locations::default();
    for j in 0..loc_seg_count(cat.loc_len) {
        let bytes = store.read_block(vfs, data_path, loc_seg_logical(j))?;
        let what = format!("location segment {j}");
        let mut r = Reader::new(&bytes, &what);
        let n = (cat.loc_len - j * LOC_SEG).min(LOC_SEG);
        for _ in 0..n {
            out.push(if r.flag()? {
                let b = r.u32()?;
                let s = r.u16()?;
                if b >= cat.block_count {
                    return Err(StorageError::corrupt(format!(
                        "{what}: location names block {b} of {}",
                        cat.block_count
                    )));
                }
                Some((b, s))
            } else {
                None
            });
        }
        r.finish()?;
    }
    Ok(out)
}

/// Cross-checks that guarantee the unchecked-indexing accessors of
/// [`XmlStorage`] cannot go wrong on this data.
fn validate(cat: &Catalog, blocks: &[Block], locations: &Locations) -> Result<(), StorageError> {
    // Location table and live slots agree bidirectionally: every location
    // resolves to a live slot carrying that id (so `desc` never sees a
    // dead slot), and every live slot's id maps back to it (so ids are
    // unique and nothing is orphaned).
    for (id, loc) in locations.iter().enumerate() {
        let Some((b, s)) = loc else { continue };
        let live_id = blocks
            .get(b as usize)
            .and_then(|blk| blk.slots.get(s as usize))
            .and_then(|slot| slot.as_ref())
            .map(|d| d.id);
        if live_id != Some(DescPtr(id as u32)) {
            return Err(StorageError::corrupt(format!(
                "location {id} points at block {b} slot {s}, which does not hold it"
            )));
        }
    }
    let mut live_slots = 0usize;
    for (i, blk) in blocks.iter().enumerate() {
        if blk.schema_node.index() >= cat.schema.len() {
            return Err(StorageError::corrupt(format!("block {i}: schema node out of range")));
        }
        for (s, slot) in blk.slots.iter().enumerate() {
            let Some(d) = slot else { continue };
            live_slots += 1;
            if locations.get(d.id.id()) != Some((i as u32, s as u16)) {
                return Err(StorageError::corrupt(format!(
                    "block {i} slot {s}: {} has no location pointing back",
                    d.id
                )));
            }
            // Every pointer held by a live descriptor must be live.
            let refs = [d.parent, d.left_sibling, d.right_sibling]
                .into_iter()
                .chain(d.first_child.iter().copied());
            for r in refs.flatten() {
                if locations.get(r.id()).is_none() {
                    return Err(StorageError::corrupt(format!(
                        "block {i} slot {s}: dangling pointer {r}"
                    )));
                }
            }
        }
    }
    let live_locations = locations.iter().flatten().count();
    if live_slots != live_locations {
        return Err(StorageError::corrupt(format!(
            "{live_slots} live descriptors but {live_locations} live locations"
        )));
    }
    // List endpoints host the right schema node.
    for (sn, l) in cat.lists.iter().enumerate() {
        let Some((first, last)) = l else { continue };
        for b in [*first, *last] {
            if blocks[b as usize].schema_node.index() != sn {
                return Err(StorageError::corrupt(format!(
                    "list of schema node {sn} ends at block {b} of another schema node"
                )));
            }
        }
    }
    if locations.get(cat.root.id()).is_none() {
        return Err(StorageError::corrupt(format!("root descriptor {} is not live", cat.root)));
    }
    Ok(())
}

/// Load a full [`XmlStorage`] from a committed page store.
///
/// # Errors
/// [`StorageError::PageChecksum`] for damaged pages, `Corrupt` for any
/// structural violation, `Io` for filesystem failures.
pub fn load(
    store: &PageStore,
    vfs: &dyn Vfs,
    data_path: &Path,
) -> Result<XmlStorage, StorageError> {
    load_with_epoch(store, vfs, data_path).map(|(xs, ..)| xs)
}

/// [`load`], also returning the commit epoch stamped in the catalog —
/// the highest WAL sequence whose effects the pages contain — and the
/// identities of the loaded blocks and segments, which the pages hold,
/// so the next [`save_changed`] writes only what changes after the load.
///
/// # Errors
/// As for [`load`].
pub fn load_with_epoch(
    store: &PageStore,
    vfs: &dyn Vfs,
    data_path: &Path,
) -> Result<(XmlStorage, u64, SavedPages), StorageError> {
    let cat = read_catalog(store, vfs, data_path)?;
    let mut blocks = Vec::new();
    for i in 0..cat.block_count {
        let bytes = store.read_block(vfs, data_path, block_logical(i))?;
        blocks.push(decode_block(&bytes, i, &cat)?);
    }
    let locations = read_locations(store, vfs, data_path, &cat)?;
    validate(&cat, &blocks, &locations)?;
    let Catalog { capacity, root, relabels, base_uri, schema, lists, epoch, .. } = cat;
    let table = BlockTable::from_decoded(blocks, lists, locations);
    let xs = XmlStorage::from_parts(schema, table, root, capacity, base_uri, relabels);
    if let Some(violation) = xs.check_invariants() {
        return Err(StorageError::Corrupt(violation));
    }
    let saved = SavedPages::of(&xs);
    Ok((xs, epoch, saved))
}

// ------------------------------------------------------------ lazy open

/// A document opened lazily: only the map and the catalog pages have
/// been read. Data blocks are pulled (and verified) on demand; nothing
/// else touches the disk.
#[derive(Debug)]
pub struct PagedXml {
    store: PageStore,
    catalog: Catalog,
}

impl PagedXml {
    /// Open a committed document, reading only the map and the catalog.
    ///
    /// # Errors
    /// As for [`load`].
    pub fn open(
        vfs: &dyn Vfs,
        data_path: &Path,
        map_path: &Path,
    ) -> Result<PagedXml, StorageError> {
        let store = PageStore::open(vfs, map_path)?;
        let catalog = read_catalog(&store, vfs, data_path)?;
        Ok(PagedXml { store, catalog })
    }

    /// The descriptive schema (available without touching data pages).
    pub fn schema(&self) -> &DescriptiveSchema {
        &self.catalog.schema
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> u32 {
        self.catalog.block_count
    }

    /// The commit epoch stamped in the catalog (0 for pre-WAL files).
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch
    }

    /// The underlying page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The own text of every instance of `sn` in document order,
    /// reading only the pages of that schema node's block list.
    ///
    /// # Errors
    /// As for [`load`].
    pub fn scan_texts(
        &self,
        vfs: &dyn Vfs,
        data_path: &Path,
        sn: SchemaNodeId,
    ) -> Result<Vec<Option<String>>, StorageError> {
        let mut out = Vec::new();
        let mut cur = self.catalog.lists.get(sn.index()).copied().flatten().map(|(f, _)| f);
        let mut hops = 0u32;
        while let Some(b) = cur {
            if hops >= self.catalog.block_count {
                return Err(StorageError::corrupt(format!(
                    "block list of {sn} cycles through the {} blocks",
                    self.catalog.block_count
                )));
            }
            hops += 1;
            let bytes = self.store.read_block(vfs, data_path, block_logical(b))?;
            let block = decode_block(&bytes, b, &self.catalog)?;
            if block.schema_node != sn {
                return Err(StorageError::corrupt(format!(
                    "block {b} in the list of {sn} belongs to {}",
                    block.schema_node
                )));
            }
            for (_, d) in block.iter_ordered() {
                out.push(d.text.clone());
            }
            cur = block.next_block;
        }
        Ok(out)
    }

    /// Materialize the full storage (reads every page).
    ///
    /// # Errors
    /// As for [`load`].
    pub fn load(&self, vfs: &dyn Vfs, data_path: &Path) -> Result<XmlStorage, StorageError> {
        load(&self.store, vfs, data_path)
    }

    /// Give up the handle, keeping the page store (for incremental
    /// saves against the already-committed state).
    pub fn into_store(self) -> PageStore {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultyVfs, StdVfs, Vfs};
    use std::path::PathBuf;
    use xdm::NodeStore;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xs-paged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn library(n_books: usize) -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(Some("http://example.org/library.xml".into()));
        let lib = s.new_element(doc, "library");
        for i in 0..n_books {
            let book = s.new_element(lib, "book");
            let t = s.new_element(book, "title");
            s.new_text(t, format!("title {i}"));
            let a = s.new_element(book, "author");
            s.new_text(a, format!("author {i}"));
        }
        XmlStorage::from_tree(&s, doc)
    }

    /// Structural equality via the public accessors.
    fn assert_same(a: &XmlStorage, b: &XmlStorage) {
        assert_eq!(a.check_invariants(), None);
        assert_eq!(b.check_invariants(), None);
        let sa = a.subtree(a.root());
        let sb = b.subtree(b.root());
        assert_eq!(sa.len(), sb.len());
        for (&pa, &pb) in sa.iter().zip(&sb) {
            assert_eq!(a.nid(pa), b.nid(pb));
            assert_eq!(a.node_kind(pa), b.node_kind(pb));
            assert_eq!(a.node_name(pa), b.node_name(pb));
            assert_eq!(a.string_value(pa), b.string_value(pb));
            assert_eq!(a.base_uri(pa), b.base_uri(pb));
        }
    }

    fn save_and_commit(xs: &XmlStorage, vfs: &dyn Vfs, dir: &Path) -> (PageStore, SavedPages) {
        let mut store = PageStore::new();
        let saved = save_full(xs, vfs, &mut store, &dir.join("doc.xsp")).unwrap();
        store.commit(vfs, &dir.join("doc.xspm")).unwrap();
        (store, saved)
    }

    #[test]
    fn full_save_round_trips() {
        let dir = tmpdir("roundtrip");
        let vfs = StdVfs;
        let xs = library(30);
        save_and_commit(&xs, &vfs, &dir);
        let store = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let loaded = load(&store, &vfs, &dir.join("doc.xsp")).unwrap();
        assert_same(&xs, &loaded);
        assert_eq!(loaded.relabel_count(), 0);
    }

    #[test]
    fn one_node_update_writes_a_constant_number_of_pages() {
        let dir = tmpdir("dirty");
        let vfs = FaultyVfs::counting();
        // Page counts for a one-node update must not grow with the doc.
        let mut pages_written = Vec::new();
        for (tag, n) in [("s", 20), ("m", 200), ("l", 2000)] {
            let sub = dir.join(tag);
            std::fs::create_dir_all(&sub).unwrap();
            let mut xs = library(n);
            let (mut store, saved) = save_and_commit(&xs, &vfs, &sub);
            // Update one text node.
            let title_sn = xs.schema().resolve_path(&["library", "book", "title"]).unwrap();
            let t = xs.scan(title_sn)[0];
            let text = xs.children(t)[0];
            xs.set_text(text, "updated").unwrap();
            let before = vfs.write_ops();
            save_changed(&xs, &saved, &vfs, &mut store, &sub.join("doc.xsp"), 0).unwrap();
            store.commit(&vfs, &sub.join("doc.xspm")).unwrap();
            pages_written.push(vfs.write_ops() - before);
            // And the update round-trips.
            let reopened = PageStore::open(&vfs, &sub.join("doc.xspm")).unwrap();
            let loaded = load(&reopened, &vfs, &sub.join("doc.xsp")).unwrap();
            assert_same(&xs, &loaded);
            assert_eq!(loaded.string_value(loaded.scan(title_sn)[0]), "updated");
        }
        // O(1): the 100× larger document writes exactly as much as the
        // small one (one block + the schema-sized catalog + map commit,
        // no locations).
        assert_eq!(pages_written[0], pages_written[2], "pages per update grew: {pages_written:?}");
        assert!(pages_written[2] <= 10, "update wrote {} ops", pages_written[2]);
    }

    #[test]
    fn insert_after_reload_saves_incrementally() {
        let dir = tmpdir("insert-reload");
        let vfs = StdVfs;
        let xs = library(50);
        let store = save_and_commit(&xs, &vfs, &dir);
        drop((xs, store));
        // Reload, mutate, save only the dirt, reload again.
        let mut store = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let (mut xs, _, saved) = load_with_epoch(&store, &vfs, &dir.join("doc.xsp")).unwrap();
        let lib = xs.children(xs.root())[0];
        let nb = xs.insert_element(lib, None, "book").unwrap();
        let t = xs.insert_element(nb, None, "title").unwrap();
        xs.insert_text(t, None, "fresh").unwrap();
        save_changed(&xs, &saved, &vfs, &mut store, &dir.join("doc.xsp"), 0).unwrap();
        store.commit(&vfs, &dir.join("doc.xspm")).unwrap();
        let reopened = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let loaded = load(&reopened, &vfs, &dir.join("doc.xsp")).unwrap();
        assert_same(&xs, &loaded);
        assert_eq!(loaded.children(loaded.children(loaded.root())[0]).len(), 51);
    }

    #[test]
    fn delete_and_schema_growth_survive_dirty_saves() {
        let dir = tmpdir("delete-grow");
        let vfs = StdVfs;
        let mut xs = library(20);
        let (mut store, saved) = save_and_commit(&xs, &vfs, &dir);
        let lib = xs.children(xs.root())[0];
        let first = xs.children(lib)[0];
        xs.delete(first).unwrap();
        // New schema path (extends first-child arrays + the catalog).
        let isbn = xs.insert_element(xs.children(lib)[0], None, "isbn").unwrap();
        xs.insert_text(isbn, None, "0-201").unwrap();
        xs.insert_attribute(lib, "kind", "public").unwrap();
        save_changed(&xs, &saved, &vfs, &mut store, &dir.join("doc.xsp"), 0).unwrap();
        store.commit(&vfs, &dir.join("doc.xspm")).unwrap();
        let reopened = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let loaded = load(&reopened, &vfs, &dir.join("doc.xsp")).unwrap();
        assert_same(&xs, &loaded);
        assert!(loaded.schema().resolve_path(&["library", "book", "isbn"]).is_some());
    }

    /// The blocks and segments of `xs` that `saved` does not hold.
    fn unsaved(xs: &XmlStorage, saved: &SavedPages) -> (usize, usize) {
        let t = xs.table();
        let blocks = t.blocks.iter().enumerate().filter(|(i, b)| changed(&saved.blocks, *i, b));
        let segs = t.locations.segs.iter().enumerate();
        let segs = segs.filter(|(j, seg)| changed(&saved.segments, *j, seg));
        (blocks.count(), segs.count())
    }

    #[test]
    fn a_block_mutated_in_place_still_reads_as_changed() {
        // Taken from a uniquely owned table: no clone shares a block, so
        // only the identities themselves make the write move the block.
        let mut xs = library(200);
        let saved = SavedPages::of(&xs);
        assert_eq!(unsaved(&xs, &saved), (0, 0));
        let title_sn = xs.schema().resolve_path(&["library", "book", "title"]).unwrap();
        let text = xs.children(xs.scan(title_sn)[0])[0];
        xs.set_text(text, "updated").unwrap();
        assert_eq!(unsaved(&xs, &saved), (1, 0), "the touched block is the one change");
        // A second write to the moved block keeps it changed.
        xs.set_text(text, "again").unwrap();
        assert_eq!(unsaved(&xs, &saved), (1, 0));
        assert_eq!(unsaved(&xs, &SavedPages::of(&xs)), (0, 0));
    }

    #[test]
    fn a_store_saves_whichever_line_of_states_it_is_given() {
        let dir = tmpdir("two-lines");
        let vfs = StdVfs;
        let base = library(20);
        let (mut store, saved) = save_and_commit(&base, &vfs, &dir);
        let title_sn = base.schema().resolve_path(&["library", "book", "title"]).unwrap();
        let text = base.children(base.scan(title_sn)[0])[0];
        // Two clones of one state, edited apart the same number of times.
        let (mut a, mut b) = (base.clone(), base.clone());
        a.set_text(text, "line a").unwrap();
        b.set_text(text, "line b").unwrap();
        assert_eq!(a.tick(), b.tick());
        let data = dir.join("doc.xsp");
        let saved = save_changed(&a, &saved, &vfs, &mut store, &data, 0).unwrap();
        store.commit(&vfs, &dir.join("doc.xspm")).unwrap();
        save_changed(&b, &saved, &vfs, &mut store, &data, 0).unwrap();
        store.commit(&vfs, &dir.join("doc.xspm")).unwrap();
        let reopened = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let loaded = load(&reopened, &vfs, &data).unwrap();
        assert_same(&b, &loaded);
        assert_eq!(loaded.string_value(loaded.scan(title_sn)[0]), "line b");
    }

    #[test]
    fn dead_ids_on_disk_are_reused_after_load() {
        let dir = tmpdir("reuse");
        let vfs = StdVfs;
        let mut xs = library(20);
        let lib = xs.children(xs.root())[0];
        let victim = xs.children(lib)[0];
        let dead: Vec<u32> = xs.subtree(victim).into_iter().map(DescPtr::id).collect();
        xs.delete(victim).unwrap();
        save_and_commit(&xs, &vfs, &dir);
        let store = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
        let mut loaded = load(&store, &vfs, &dir.join("doc.xsp")).unwrap();
        let len = loaded.table().locations.len();
        let lib = loaded.children(loaded.root())[0];
        let fresh = loaded.insert_element(lib, None, "book").unwrap();
        assert!(dead.contains(&fresh.id()), "{fresh} is not one of the dead ids {dead:?}");
        assert_eq!(loaded.table().locations.len(), len);
        assert_eq!(loaded.check_invariants(), None);
    }

    #[test]
    fn lazy_open_reads_a_fraction_of_the_pages() {
        let dir = tmpdir("lazy");
        let vfs = FaultyVfs::counting();
        let xs = library(2000);
        let (store, _) = save_and_commit(&xs, &vfs, &dir);
        let total_pages = store.page_count();
        assert!(total_pages > 100, "want a big document, got {total_pages} pages");
        drop(store);
        let before = vfs.ops();
        let doc = PagedXml::open(&vfs, &dir.join("doc.xsp"), &dir.join("doc.xspm")).unwrap();
        // Schema questions cost nothing further.
        let lib_sn = doc.schema().resolve_path(&["library"]).unwrap();
        let texts = doc.scan_texts(&vfs, &dir.join("doc.xsp"), lib_sn).unwrap();
        assert_eq!(texts.len(), 1);
        let reads = vfs.ops() - before;
        assert!(
            reads < total_pages / 10,
            "lazy open cost {reads} ops for a {total_pages}-page document"
        );
    }

    #[test]
    fn epochs_round_trip_and_v1_catalogs_read_as_epoch_zero() {
        let dir = tmpdir("epoch");
        let vfs = StdVfs;
        let xs = library(3);
        let data = dir.join("doc.xsp");
        let map = dir.join("doc.xspm");
        let mut store = PageStore::new();
        let saved = save_full_epoch(&xs, &vfs, &mut store, &data, 42).unwrap();
        store.commit(&vfs, &map).unwrap();
        let reopened = PageStore::open(&vfs, &map).unwrap();
        let (loaded, epoch, _) = load_with_epoch(&reopened, &vfs, &data).unwrap();
        assert_same(&xs, &loaded);
        assert_eq!(epoch, 42);
        let lazy = PagedXml::open(&vfs, &data, &map).unwrap();
        assert_eq!(lazy.epoch(), 42);

        // An epoch-only advance: nothing changed, and the catalog is
        // rewritten with the new epoch.
        let mut store = lazy.into_store();
        save_changed(&xs, &saved, &vfs, &mut store, &data, 43).unwrap();
        store.commit(&vfs, &map).unwrap();
        let reopened = PageStore::open(&vfs, &map).unwrap();
        assert_eq!(load_with_epoch(&reopened, &vfs, &data).unwrap().1, 43);

        // The writer emits version-2 catalogs; a hand-built version-1
        // catalog (no epoch) still loads.
        let store = PageStore::open(&vfs, &map).unwrap();
        let v2 = store.read_block(&vfs, &data, CATALOG_LOGICAL).unwrap();
        assert_eq!(v2[0], 2, "the catalog is written as version 2");
        let (migrated, epoch, _) = load_with_epoch(&store, &vfs, &data).unwrap();
        assert_same(&xs, &migrated);
        assert_eq!(epoch, 43, "version-2 catalogs keep their epoch");

        let v1 = {
            let mut bytes = v2.clone();
            bytes[0] = 1;
            bytes.truncate(bytes.len() - 8);
            bytes
        };
        let mut store = PageStore::open(&vfs, &map).unwrap();
        store.write_block(&vfs, &data, CATALOG_LOGICAL, &v1).unwrap();
        store.commit(&vfs, &map).unwrap();
        let reopened = PageStore::open(&vfs, &map).unwrap();
        let (migrated, epoch, _) = load_with_epoch(&reopened, &vfs, &data).unwrap();
        assert_same(&xs, &migrated);
        assert_eq!(epoch, 0, "version-1 catalogs predate the log");
    }

    /// A version-3 catalog as older builds wrote it: the version-2 bytes
    /// of `xs`'s committed catalog, then a statistics section of `nodes`
    /// entries — each node's cardinality, a fanout, and for text and
    /// attribute nodes a histogram (every value bucketed in the first of
    /// eight buckets over 0..=99).
    fn v3_catalog(xs: &XmlStorage, v2: &[u8], nodes: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(nodes as u32);
        for sn in xs.schema().ids().take(nodes) {
            w.u64(xs.scan(sn).len() as u64);
            w.u64(0);
            let leaf = matches!(xs.schema().node(sn).kind, NodeKind::Text | NodeKind::Attribute);
            w.u8(u8::from(leaf));
            if leaf {
                let n = xs.scan(sn).len() as u64;
                w.u64(0); // lo
                w.u64(99); // hi
                for b in 0..8 {
                    w.u64(if b == 0 { n } else { 0 });
                }
                w.u64(n); // numeric
                w.u64(0); // non-numeric
            }
        }
        let mut bytes = v2.to_vec();
        bytes[0] = 3;
        bytes.extend(w.into_bytes());
        bytes
    }

    #[test]
    fn a_version_3_catalog_loads_and_the_next_save_writes_version_2() {
        let dir = tmpdir("v3");
        let vfs = StdVfs;
        let data = dir.join("doc.xsp");
        let map = dir.join("doc.xspm");
        let mut xs = library(20);
        let lib = xs.children(xs.root())[0];
        xs.insert_attribute(lib, "kind", "public").unwrap();
        let (mut store, _) = save_and_commit(&xs, &vfs, &dir);
        let v2 = store.read_block(&vfs, &data, CATALOG_LOGICAL).unwrap();
        let leaves = xs.schema().ids().filter(|&sn| {
            matches!(xs.schema().node(sn).kind, NodeKind::Text | NodeKind::Attribute)
        });
        assert!(leaves.count() >= 2, "histograms on the text and attribute nodes");

        // Statistics that miss a schema node are damage.
        store.write_block(&vfs, &data, CATALOG_LOGICAL, &v3_catalog(&xs, &v2, 3)).unwrap();
        store.commit(&vfs, &map).unwrap();
        let err = load(&PageStore::open(&vfs, &map).unwrap(), &vfs, &data).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");

        // A whole section is read past; the cardinalities come from the
        // blocks.
        let v3 = v3_catalog(&xs, &v2, xs.schema().len());
        store.write_block(&vfs, &data, CATALOG_LOGICAL, &v3).unwrap();
        store.commit(&vfs, &map).unwrap();
        let mut store = PageStore::open(&vfs, &map).unwrap();
        let (mut loaded, _, saved) = load_with_epoch(&store, &vfs, &data).unwrap();
        assert_same(&xs, &loaded);
        for sn in loaded.schema().ids() {
            assert_eq!(loaded.cardinality(sn), loaded.scan(sn).len(), "{sn}");
        }
        assert_eq!(PagedXml::open(&vfs, &data, &map).unwrap().schema().len(), xs.schema().len());

        // The next incremental save rewrites the catalog as version 2.
        let lib = loaded.children(loaded.root())[0];
        loaded.insert_element(lib, None, "book").unwrap();
        save_changed(&loaded, &saved, &vfs, &mut store, &data, 7).unwrap();
        store.commit(&vfs, &map).unwrap();
        let reopened = PageStore::open(&vfs, &map).unwrap();
        assert_eq!(reopened.read_block(&vfs, &data, CATALOG_LOGICAL).unwrap()[0], 2);
        let (again, epoch, _) = load_with_epoch(&reopened, &vfs, &data).unwrap();
        assert_same(&loaded, &again);
        assert_eq!(epoch, 7);
    }

    #[test]
    fn every_structural_lie_is_a_typed_error() {
        let dir = tmpdir("hostile");
        let vfs = StdVfs;
        let xs = library(3);
        let data = dir.join("doc.xsp");
        let map = dir.join("doc.xspm");

        // A catalog whose root points at a dead id.
        {
            let (mut store, _) = save_and_commit(&xs, &vfs, &dir);
            let mut w = Writer::new();
            w.u8(CATALOG_VERSION);
            w.u16(4);
            w.u32(7_000); // way outside
            w.u64(0);
            w.u8(0); // no base uri
            w.u32(0); // no schema nodes
            w.u32(0);
            w.u32(0);
            w.u64(0); // epoch
            store.write_block(&vfs, &data, CATALOG_LOGICAL, &w.into_bytes()).unwrap();
            store.commit(&vfs, &map).unwrap();
            let reopened = PageStore::open(&vfs, &map).unwrap();
            let err = load(&reopened, &vfs, &data).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        }

        // Truncated/garbage block bytes.
        {
            let (mut store, _) = save_and_commit(&xs, &vfs, &dir);
            store.write_block(&vfs, &data, block_logical(0), &[1, 2, 3]).unwrap();
            store.commit(&vfs, &map).unwrap();
            let reopened = PageStore::open(&vfs, &map).unwrap();
            let err = load(&reopened, &vfs, &data).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        }

        // A location segment pointing at an out-of-range block.
        {
            let (mut store, _) = save_and_commit(&xs, &vfs, &dir);
            let mut w = Writer::new();
            for _ in 0..xs.table().locations.len() {
                w.u8(1);
                w.u32(9_999);
                w.u16(0);
            }
            store.write_block(&vfs, &data, loc_seg_logical(0), &w.into_bytes()).unwrap();
            store.commit(&vfs, &map).unwrap();
            let reopened = PageStore::open(&vfs, &map).unwrap();
            let err = load(&reopened, &vfs, &data).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn flipped_page_bytes_surface_as_checksum_errors() {
        let dir = tmpdir("bitrot");
        let vfs = StdVfs;
        let xs = library(4);
        save_and_commit(&xs, &vfs, &dir);
        let data = dir.join("doc.xsp");
        let original = std::fs::read(&data).unwrap();
        // Flip one byte in every page; the load must fail typed.
        for page in 0..(original.len() / crate::pages::PAGE_SIZE) {
            let mut bytes = original.clone();
            bytes[page * crate::pages::PAGE_SIZE + 40] ^= 0xff;
            std::fs::write(&data, &bytes).unwrap();
            let store = PageStore::open(&vfs, &dir.join("doc.xspm")).unwrap();
            let err = load(&store, &vfs, &data).unwrap_err();
            assert!(matches!(err, StorageError::PageChecksum { .. }), "page {page}: {err}");
        }
        std::fs::write(&data, &original).unwrap();
    }
}
