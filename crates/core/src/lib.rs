//! **xsdb** — an XML database built on the formal model of XML Schema
//! from Novak & Zamulin, *"A Formal Model of XML Schema"* (ICDE 2005).
//!
//! The library reproduces the paper end to end:
//!
//! | Paper | Crate |
//! |---|---|
//! | §2–3 abstract syntax of XML Schema | [`xsmodel`] |
//! | §4 basic (simple) types | [`xstypes`] |
//! | §5 XDM classes and accessors | [`xdm`] |
//! | §6 state algebra and validity requirements | [`algebra`] |
//! | §7 document order | [`xdm`] |
//! | §8 round-trip theorem `g(f(X)) =_c X` | [`algebra::check_roundtrip`] |
//! | §9 Sedna physical representation | [`storage`] |
//! | §1/§11 "primitive facilities for a query language" | [`xpath`] |
//!
//! The [`Database`] type is the user-facing surface: register schemas,
//! insert/validate/serialize/delete documents, run XPath/FLWOR queries
//! and statically checked updates.
//!
//! # One stored form per document
//!
//! A stored document *is* its §9 block storage
//! ([`StoredDocument::storage`]). At ingest the paper's `f` is one
//! streaming pass: the parser's events run through the §6.2 core
//! ([`algebra::PushValidator`]), which hands the valid instance's nodes
//! in document order to a [`storage::StorageBuilder`] — no DOM or XDM
//! tree is built. Queries and updates run on the
//! node descriptors, and `g` ([`Database::serialize`],
//! [`storage_to_document`]) reads them back out — §9.2's claim that
//! descriptors plus the descriptive schema answer all ten accessors.
//! [`storage_to_tree`] rebuilds an XDM tree on demand; the database
//! itself never does, the test suites use it as their oracle.
//!
//! # Quick start
//!
//! ```
//! use xsdb::Database;
//!
//! let mut db = Database::new();
//! db.register_schema_text("greetings", r#"
//!   <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!     <xs:element name="greeting" type="xs:string"/>
//!   </xs:schema>"#).unwrap();
//! db.insert("hello", "greetings", "<greeting>hello world</greeting>").unwrap();
//! assert_eq!(db.query("hello", "/greeting").unwrap(), ["hello world"]);
//! ```
//!
//! # Bulk loading and the one-pass validation layer
//!
//! [`Database::load_many`] and [`Database::validate_many`] run a batch
//! of documents on a scoped thread pool (`threads == 0` means the
//! machine's available parallelism) and return per-document outcomes in
//! input order, identical to the corresponding sequential calls — the
//! parallelism is observable only in wall clock. Every load, bulk or
//! sequential, shares one [`algebra::ContentModelCache`], so each
//! distinct group definition compiles to its automaton once per
//! database lifetime instead of once per document.
//!
//! Caching and invalidation rules:
//!
//! * **Compiled automata** are keyed by the *structure* of the group
//!   definition, never by address. Inserting, re-validating, or
//!   deleting documents never invalidates them, and registering a
//!   structurally identical schema under another name reuses them.
//! * **`string-value` aggregates** are memoized per node inside each
//!   (transient) [`xdm::NodeStore`] and invalidated along the ancestor chain when a
//!   text node is attached (element and attribute construction cannot
//!   change an existing element's string value, so they don't
//!   invalidate).
//! * **[`xdm::DocumentOrderIndex`]** is pinned to the store
//!   *generation* it was built from; querying it after any mutation of
//!   the store is a loud error (panic), never a stale answer.
//!
//! # Durability guarantees
//!
//! [`Store::save`] (and its one-shot form [`Database::save_dir`])
//! commits atomically. A *full* save stages the
//! complete new generation under `<dir>/.tmp-<N>` — schemas with a
//! SHA-256 each in `manifest.xml`, documents as paged stores (a
//! `.xsp` data file of fixed-size pages with per-page SHA-256 headers
//! plus a self-checksummed `.xspm` block map) — fsyncs everything,
//! renames the tree to `<dir>/gen-<N>`, and commits with one atomic
//! rename installing the `CURRENT` pointer (exact format
//! `v3 gen-<N> <sha256-of-manifest>`, newline-terminated). `CURRENT`
//! vouches for the manifest, the manifest for schemas and maps, and
//! every data page for itself, so **any single-byte change to live
//! persisted data is detected at load time**, and a crash at any
//! intermediate operation leaves the directory loadable as the
//! complete old or complete new state — never a torn hybrid. The
//! crash-matrix and page-matrix suites enumerate every injection
//! point of a [`FaultyVfs`] and assert exactly this.
//!
//! A [`Store`] mirrors its directory between saves. It belongs to
//! whoever saves, not to the [`Database`] value, and when the state
//! holds the catalog it saved (or opened) last, its next save is
//! **incremental** instead: a document whose `Arc` is the one saved is
//! skipped — a clean re-save performs zero Vfs write operations and
//! keeps `CURRENT` at the existing generation — and any other document
//! shadow-pages only the blocks that are not the allocations saved
//! (block identity, from any line of states) onto fresh pages, committing by rewriting its map
//! file, so a single-node update writes O(1) pages regardless of
//! document size. The commit unit of an incremental save is the
//! document; cross-document atomicity is a full-save property.
//!
//! [`Database::load_dir`] is strict (all-or-nothing, typed errors
//! naming the failing file); [`Database::load_dir_report`] with
//! [`LoadPolicy::Lenient`] quarantines damaged schemas (and their
//! dependent documents) and documents into a [`LoadReport`] while
//! loading everything intact. Damage to the integrity roots —
//! `CURRENT` or `manifest.xml` — is fatal under both policies.
//! Only the version-3 paged layout is read; a `CURRENT` pointer naming
//! any other layout version is refused with [`DbError::Corrupt`]. Stale
//! `.tmp-*` staging directories are swept on load.
//!
//! Every parse a [`Database`] performs runs under
//! [`xmlparse::ParseLimits`] (conservative defaults; see
//! [`Database::with_limits`]), so hostile input — deep nesting, huge
//! payloads, attribute floods, entity-expansion bombs — fails with a
//! typed, position-carrying error instead of exhausting the process.
//!
//! # Observability
//!
//! Every layer records into [`xsobs`]: the parser counts bytes, entity
//! expansions, and the depth high-water mark; the validator counts
//! content-model cache traffic and automaton constructions; the
//! database times insert/validate/query/xquery and counts strict-mode
//! rejections; the persistence layer counts fsyncs, staged bytes, and
//! recovery events; the analyzer times each pass.
//! [`Database::metrics`] returns a typed [`xsobs::Snapshot`] with a
//! semver-stable text/JSON export, and `xsd-lint --stats-json` prints
//! the same snapshot after a lint run. Operations slower than a
//! configurable threshold land in a bounded slow-op log
//! ([`xsobs::Snapshot::slow_ops`]). Recording costs two relaxed atomic
//! loads when disabled ([`xsobs::Registry::set_enabled`]); the E11
//! experiment bounds the enabled overhead at under 3% on the validation
//! bench.
//!
//! # Serving concurrent clients, durably
//!
//! [`SharedDatabase`] shares one database across threads with
//! snapshot reads and a single-writer commit path. It holds one state
//! value, an `Arc<Database>`: readers clone the `Arc` and never block
//! (or observe a half-applied mutation), while writers prepare each
//! mutation against a snapshot without any lock ([`Mutation::prepare`])
//! and serialize only to commit it ([`Database::commit`]) into a copy
//! of the state, which they publish in its place.
//! Opened with
//! [`SharedDatabase::open_durable`], every [`Mutation`] committed via
//! [`SharedDatabase::apply`] is appended to a write-ahead log before
//! it is acknowledged — under the [`Durability`] mode chosen (`fsync`
//! per commit, before the write is visible, or `async`) — and
//! [`Database::load_dir`] replays the log tail over the paged store,
//! so a crash at any instant recovers the complete old or complete
//! new state of every acknowledged write, never a torn hybrid. The
//! `xsserver` crate builds a wire protocol, a TCP server
//! (`xsd-serve`), and a load generator (`xsd-bench-client`) on top.

#![warn(missing_docs)]

pub mod cli;
mod database;
mod error;
mod mutation;
mod persist;
mod physical;
mod shared;
mod update;

// The checksum and VFS layers moved into the storage crate (the page
// store needs them below the database); the old `xsdb::…` paths remain.
pub use storage::checksum;
pub use storage::vfs;

pub use database::{Database, Prepared, Stale, StoredDocument};
pub use error::{catch_panic, DbError};
pub use mutation::{ApplyOutcome, Mutation};
pub use persist::{LoadPolicy, LoadReport, Quarantine, QuarantineKind, Store};
pub use physical::{storage_to_document, storage_to_tree};
pub use shared::{Durability, ReadSnapshot, SharedDatabase};
pub use storage::StorageError;
pub use update::UpdateOutcome;
pub use vfs::{FaultMode, FaultyVfs, StdVfs, Vfs};

// Re-export the layer crates so a single dependency suffices downstream.
pub use algebra;
pub use storage;
pub use xdm;
pub use xmlparse;
pub use xpath;
pub use xquery;
pub use xsanalyze;
pub use xsmodel;
pub use xsobs;
pub use xstypes;

// Convenience re-exports of the most used items.
pub use algebra::{
    check_roundtrip, content_diff, content_equal, load_document, serialize_tree, LoadOptions, Rule,
    ValidationError,
};
pub use xmlparse::Document;
pub use xsmodel::{parse_schema_text, DocumentSchema};
