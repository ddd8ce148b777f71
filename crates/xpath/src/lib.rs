//! An XPath subset over the formal model's accessors — the "primitive
//! facilities for a query language" the paper's data model provides
//! (§1, §11) — with two interchangeable engines:
//!
//! * [`eval_naive`] — pure accessor-walking over any [`TreeAccess`]
//!   backend (the in-memory XDM tree or the block storage);
//! * [`eval_guided`] — schema-guided evaluation over
//!   [`storage::XmlStorage`], resolving name steps against the
//!   descriptive schema first and scanning only the matching descriptor
//!   lists (the §9.2 design claim, measured in experiment E5).
//!
//! Both return §7 document order without duplicates; the step union
//! ([`doc_order_union`]) and the DataGuide list merge ([`merge_scans`])
//! are shared with the `xquery` planner.
//!
//! ```
//! use xdm::NodeStore;
//! use storage::XmlStorage;
//! use xpath::{eval_guided, eval_naive, parse, XdmTree};
//!
//! let mut s = NodeStore::new();
//! let doc = s.new_document(None);
//! let lib = s.new_element(doc, "library");
//! let book = s.new_element(lib, "book");
//! let title = s.new_element(book, "title");
//! s.new_text(title, "Foundations of Databases");
//!
//! let path = parse("/library/book/title").unwrap();
//! let hits = eval_naive(&XdmTree { store: &s, doc }, &path);
//! assert_eq!(s.string_value(hits[0]), "Foundations of Databases");
//!
//! let storage = XmlStorage::from_tree(&s, doc);
//! let hits = eval_guided(&storage, &path);
//! assert_eq!(storage.string_value(hits[0]), "Foundations of Databases");
//! ```

#![warn(missing_docs)]

mod ast;
mod eval;
mod parser;
mod value;

pub use ast::{Axis, CompareOp, NodeTest, Path, Predicate, Step};
pub use eval::{
    axis_candidates, doc_order_union, eval_guided, eval_naive, eval_relative, eval_step,
    merge_scans, test_matches, TreeAccess, XdmTree,
};
pub use parser::{parse, XPathError};
pub use value::{compare_values, Value};
