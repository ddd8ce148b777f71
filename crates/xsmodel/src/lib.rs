//! The abstract syntax of XML Schema and its compilation to automata —
//! Sections 2–3 of *"A Formal Model of XML Schema"* (Novak & Zamulin,
//! ICDE 2005).
//!
//! Three layers:
//!
//! * [`ast`] — the paper's abstract syntax, constructor by constructor:
//!   element declarations, repetition factors, group definitions,
//!   attribute declarations, complex type definitions, and the document
//!   schema (one global element declaration plus a complex type
//!   definition set).
//! * [`wellformed`] — the static requirements of §2–3 (type usage,
//!   distinct names within a group, coherent repetition factors).
//! * [`automaton`] — group definitions compiled to finite automata over
//!   element names; matching returns the element declaration that
//!   licensed each child, which drives schema-directed validation.
//! * [`xsd`] — the front-end from concrete `<xsd:schema>` documents to
//!   the abstract syntax.
//!
//! ```
//! use xsmodel::{parse_schema_text, ContentModel};
//!
//! let schema = parse_schema_text(r#"
//! <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
//!   <xsd:element name="pair">
//!     <xsd:complexType>
//!       <xsd:sequence>
//!         <xsd:element name="B" type="xsd:string"/>
//!         <xsd:element name="C" type="xsd:string"/>
//!       </xsd:sequence>
//!     </xsd:complexType>
//!   </xsd:element>
//! </xsd:schema>"#).unwrap();
//!
//! let complex = schema.complex_of(&schema.root.ty).unwrap();
//! if let xsmodel::ComplexTypeDefinition::ComplexContent { content, .. } = complex {
//!     let cm = ContentModel::compile(content).unwrap();
//!     assert!(cm.accepts(&["B", "C"]));
//!     assert!(!cm.accepts(&["C", "B"]));
//! }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod automaton;
pub mod canonical;
pub mod edits;
pub mod wellformed;
pub mod writer;
pub mod xsd;

pub use ast::{
    AttributeDeclarations, CombinationFactor, ComplexTypeDefinition, DocumentSchema,
    ElementDeclaration, GroupDefinition, Maximum, Name, Particle, RepetitionFactor, Type,
};
pub use automaton::{ContentModel, ContentModelError, MatchOutcome, MatchState, UpaConflict};
pub use canonical::{canonicalize_group, group_size};
pub use edits::{EditFeasibility, EditOp};
pub use wellformed::{check, SchemaIssue};
pub use writer::{schema_document, write_schema};
pub use xsd::{parse_schema, parse_schema_text, XsdError};
