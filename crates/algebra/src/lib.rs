//! The state algebra of the paper's §6 and the round-trip theorem of §8.
//!
//! A database state is a many-sorted algebra whose carriers are node
//! identifiers (provided by the `xdm` crate) and data-type values
//! (provided by `xstypes`), and whose operations are the node accessors.
//! This crate supplies the *dynamic* part of the model:
//!
//! * [`PushValidator`] — the §6.2 core: requirements 1–7 checked over a
//!   push stream of `start / text / end` events with an explicit stack
//!   of frames and no tree, handing the valid instance's nodes to an
//!   [`InstanceSink`]. [`validate_text`] and [`ingest_text`] drive it
//!   from the pull parser; the database also drives it from a walk of
//!   stored descriptors, and its sink builds block storage;
//! * [`load_document`] — the function `f` as a tree: validate an XML
//!   document against a document schema and build the corresponding
//!   S-tree with all accessor values of §6.2 (type annotations, typed
//!   values, nilled flags, text-node placement, attribute permutation
//!   σ). It is the independent oracle the core is tested against;
//! * [`serialize_tree`] — the function `g`: serialize an S-tree back to
//!   an XML document;
//! * [`content_equal`] — the equivalence `=_c`;
//! * [`check_roundtrip`] — the §8 theorem `g(f(X)) =_c X`, executable;
//! * [`ValidationError`]/[`Rule`] — violations, each citing the §6.2
//!   requirement it breaks.
//!
//! ```
//! use xmlparse::Document;
//! use xsmodel::parse_schema_text;
//! use algebra::{check_roundtrip, load_document};
//!
//! let schema = parse_schema_text(r#"
//! <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!   <xs:element name="greeting" type="xs:string"/>
//! </xs:schema>"#).unwrap();
//!
//! let xml = Document::parse("<greeting>hello</greeting>").unwrap();
//! let loaded = load_document(&schema, &xml).unwrap();
//! assert_eq!(loaded.store.string_value(loaded.doc), "hello");
//! assert!(check_roundtrip(&schema, &xml).is_ok());
//! ```

#![warn(missing_docs)]

mod cache;
mod equality;
mod error;
mod identity;
mod load;
mod push;
mod serialize;
mod theorem;

pub use cache::ContentModelCache;
pub use equality::{content_diff, content_equal};
pub use error::{Rule, ValidationError};
pub use identity::check_identity;
pub use load::{
    load_document, load_document_cached, load_document_with, LoadOptions, LoadedDocument,
};
pub use push::{ingest_text, validate_text, IngestError, InstanceSink, PushValidator};
pub use serialize::serialize_tree;
pub use theorem::{check_roundtrip, check_roundtrip_with, RoundTripFailure};
