//! The Sedna-style physical representation of the data model — §9 of
//! *"A Formal Model of XML Schema"* (Novak & Zamulin, ICDE 2005).
//!
//! Components, mirroring the paper's §9.1–9.3:
//!
//! * [`DescriptiveSchema`] — the DataGuide: every document path has
//!   exactly one schema path and vice versa, plus the surjective node →
//!   schema-node mapping;
//! * [`XmlStorage`] — block storage: per-schema-node bidirectional block
//!   lists of node descriptors with parent/sibling pointers, short
//!   intra-block order pointers, and first-child-by-schema pointers;
//!   all ten §5 accessors are answerable from a descriptor plus its
//!   schema node (the §9.2 sufficiency claim, tested);
//! * [`Nid`] — the numbering scheme: Dewey-based labels over a finite
//!   alphabet with O(label) document-order / ancestor / parent checks
//!   and gap-based insertion that never relabels existing nodes
//!   (Proposition 1, tested and benchmarked);
//! * [`pages`] — the paged on-disk form: fixed-size pages with per-page
//!   checksums, a free list, and a logical→physical map, all behind the
//!   [`vfs::Vfs`] trait so fault injection covers every byte written;
//! * [`paged`] — the §9 structures serialized onto pages, block by
//!   block, so one-node updates rewrite one block's pages and documents
//!   can be opened lazily ([`PagedXml`]);
//! * [`wal`] — an append-only, SHA-256-framed write-ahead log behind
//!   the same [`vfs::Vfs`] trait, so mutations are durable the moment
//!   their record is fsynced and crashes recover old-or-new.
//!
//! ```
//! use xdm::NodeStore;
//! use storage::XmlStorage;
//!
//! let mut s = NodeStore::new();
//! let doc = s.new_document(None);
//! let lib = s.new_element(doc, "library");
//! let book = s.new_element(lib, "book");
//! s.new_text(book, "content");
//!
//! let mut xs = XmlStorage::from_tree(&s, doc);
//! let lib_d = xs.children(xs.root())[0];
//! let book_d = xs.children(lib_d)[0];
//! assert!(xs.is_ancestor(lib_d, book_d));       // via labels, no walk
//! xs.insert_element(lib_d, None, "book").unwrap(); // never relabels
//! assert_eq!(xs.relabel_count(), 0);
//! ```

#![warn(missing_docs)]

mod blocks;
pub mod checksum;
mod codec;
mod descriptive;
mod error;
mod nid;
pub mod paged;
pub mod pages;
#[allow(clippy::module_inception)]
mod storage;
pub mod vfs;
pub mod wal;

pub use blocks::{Block, BlockOrderIter, DescPtr, NodeDescriptor};
pub use descriptive::{DescriptiveSchema, SchemaNode, SchemaNodeId};
pub use error::StorageError;
pub use nid::{between_components, ComponentAllocator, Nid, OMEGA_MAX, OMEGA_MIN};
pub use paged::PagedXml;
pub use pages::{PageStore, PAGE_PAYLOAD, PAGE_SIZE};
pub use storage::{ChildrenIn, StorageBuilder, XmlStorage, DEFAULT_BLOCK_CAPACITY};
pub use wal::{Wal, WalRecord, DEFAULT_ROTATE_BYTES};
