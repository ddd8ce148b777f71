//! Static diagnostics engine over compiled document schemas and queries.
//!
//! The paper's §3 well-formedness requirement (type usage) and §6.2
//! instance requirements are *static* properties of a schema; this crate
//! decides them — plus determinism, satisfiability, reachability, and
//! static path typing — before any document is loaded, so broken schemas
//! and provably-empty queries fail fast and cheap.
//!
//! Four passes over a [`DocumentSchema`]:
//!
//! 1. **UPA / weak determinism** ([`check_upa`]) — subset construction
//!    over the compiled content-model automata; reports the *shortest*
//!    ambiguous word as a reproducible witness.
//! 2. **Satisfiability** ([`check_satisfiability`]) — complex types whose
//!    content model admits no finite instance (unguarded recursion,
//!    required empty choices) and simple types whose merged facet set is
//!    contradictory.
//! 3. **Reachability** ([`check_reachability`]) — named declarations no
//!    valid document can ever use.
//! 4. **Static path typing** ([`analyze_xpath`], [`analyze_xquery`]) —
//!    symbolic child/attribute/descendant evaluation of a query against
//!    the schema (or against a [`storage::descriptive`] DataGuide via
//!    [`analyze_xpath_in_guide`]), flagging statically-empty steps before
//!    evaluation.
//! 5. **Static update type-checking** ([`analyze_update`]) — resolves an
//!    XQuery-Update-lite expression's target with pass 4's symbolic
//!    evaluation, then decides edit feasibility over the enclosing
//!    content model's automaton, yielding the accept / recheck / reject
//!    trichotomy ([`UpdateVerdict`]) the execution layer acts on.
//!
//! # Diagnostic codes
//!
//! | Code | Severity | Finding |
//! |---|---|---|
//! | `XSA001` | error | element declared with an unknown type (§3 type usage) |
//! | `XSA002` | error | duplicate element name within a group (§2) |
//! | `XSA003` | error | incoherent repetition factor `min > max` (§2) |
//! | `XSA004` | error | simpleContent base is not a simple type |
//! | `XSA005` | error | attribute type is not a simple type |
//! | `XSA006` | error | required choice with no alternatives |
//! | `XSA101` | error | content model violates UPA (ambiguous); witness word attached |
//! | `XSA103` | warning | content model too large to compile/analyze |
//! | `XSA201` | error | content model admits no finite instance |
//! | `XSA202` | error | simple type's facets are contradictory (empty value space) |
//! | `XSA301` | warning | complexType unreachable from the global element |
//! | `XSA302` | warning | named simpleType never used by a reachable declaration |
//! | `XSA401` | error | query step is statically empty; step-word witness attached |
//! | `XSA500` | error | update target is statically empty — the update can never apply |
//! | `XSA501` | error | edit provably violates a content model; witness word attached |
//! | `XSA502` | error | inserted or replacement element is invalid for its own type |
//! | `XSA503` | error | replacement value violates the target's simple type |
//! | `XSA504` | error | attribute undeclared on the target type, or its value invalid |
//! | `XSA505` | warning | verdict depends on run-time state or load options — recheck |
//! | `XSA506` | warning | target or type not statically resolvable — recheck |
//!
//! `XSA001`–`XSA006` are the findings of [`xsmodel::check`] lifted onto
//! the shared [`Diagnostic`] type (the legacy `SchemaIssue` API remains
//! as a compatibility shim). `XSA000` (reserved for unparseable input,
//! reported by `xsd-lint` itself) completes the registry returned by
//! [`registered_codes`].
//!
//! # Example
//!
//! ```
//! use xsanalyze::{analyze_schema, Severity};
//! use xsmodel::parse_schema_text;
//!
//! let schema = parse_schema_text(r#"
//! <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
//!   <xsd:element name="doc" type="T"/>
//!   <xsd:complexType name="T">
//!     <xsd:sequence>
//!       <xsd:element name="A" type="xsd:string" minOccurs="0"/>
//!       <xsd:element name="A" type="xsd:string"/>
//!     </xsd:sequence>
//!   </xsd:complexType>
//! </xsd:schema>"#).unwrap();
//!
//! let diags = analyze_schema(&schema);
//! assert!(diags.iter().any(|d| d.code == "XSA101" && d.severity == Severity::Error));
//! ```

#![warn(missing_docs)]

mod diag;
mod paths;
mod reach;
mod satisfy;
mod upa;
mod updates;
mod walk;

pub use diag::{max_severity, registered_codes, render_json, Diagnostic, Severity};
pub use paths::{
    analyze_xpath, analyze_xpath_in_guide, analyze_xquery, resolve_content, resolve_update_parent,
    resolve_update_target, ParentResolution, ResolvedContent, ResolvedElem, TargetResolution,
};
pub use reach::check_reachability;
pub use satisfy::check_satisfiability;
pub use upa::check_upa;
pub use updates::{analyze_update, schema_involves_identity, UpdateAnalysis, UpdateVerdict};

use xsmodel::DocumentSchema;

/// Run every schema-level pass: the §2–3 well-formedness checks (lifted
/// from [`xsmodel::check`]), UPA, satisfiability, and reachability.
/// Diagnostics are ordered by code, then by declaration path.
pub fn analyze_schema(schema: &DocumentSchema) -> Vec<Diagnostic> {
    let obs = xsobs::global();
    let mut out: Vec<Diagnostic> = {
        let _span = obs.span(xsobs::HistogramId::AnalyzeWellformed);
        xsmodel::check(schema).iter().map(Diagnostic::from_issue).collect()
    };
    {
        let _span = obs.span(xsobs::HistogramId::AnalyzeUpa);
        out.extend(check_upa(schema));
    }
    {
        let _span = obs.span(xsobs::HistogramId::AnalyzeSatisfiability);
        out.extend(check_satisfiability(schema));
    }
    {
        let _span = obs.span(xsobs::HistogramId::AnalyzeReachability);
        out.extend(check_reachability(schema));
    }
    out.sort_by(|a, b| a.code.cmp(b.code).then_with(|| a.path.cmp(&b.path)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsmodel::parse_schema_text;

    fn schema(text: &str) -> DocumentSchema {
        parse_schema_text(text).unwrap()
    }

    #[test]
    fn clean_schema_has_no_diagnostics() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library" type="Library"/>
  <xs:complexType name="Library">
    <xs:sequence>
      <xs:element name="book" type="Book" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="year" type="xs:gYear"/>
  </xs:complexType>
</xs:schema>"#,
        );
        assert_eq!(analyze_schema(&s), vec![]);
    }

    #[test]
    fn ambiguity_witness_reproduces_via_competing_decls() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="head" type="xs:string"/>
      <xs:element name="A" type="xs:string" minOccurs="0"/>
      <xs:element name="A" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#,
        );
        let diags = analyze_schema(&s);
        let upa: Vec<_> = diags.iter().filter(|d| d.code == "XSA101").collect();
        assert_eq!(upa.len(), 1);
        let witness = upa[0].witness.as_ref().unwrap();
        assert_eq!(witness, &["head", "A"]);

        // Feed the witness back through the automaton: the last symbol
        // must indeed be claimable by two distinct particles.
        let def = s.complex_types.get("T").unwrap();
        let xsmodel::ComplexTypeDefinition::ComplexContent { content, .. } = def else {
            panic!("expected complex content")
        };
        let cm = xsmodel::ContentModel::compile(content).unwrap();
        let (prefix, symbol) = witness.split_at(witness.len() - 1);
        let prefix: Vec<&str> = prefix.iter().map(String::as_str).collect();
        assert!(cm.competing_decls(&prefix, &symbol[0]).len() >= 2);
    }

    #[test]
    fn all_schema_level_codes_can_fire_together() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="x" type="xs:string" minOccurs="0"/>
      <xs:element name="x" type="xs:string"/>
      <xs:element name="rec" type="Rec"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Rec">
    <xs:sequence>
      <xs:element name="again" type="Rec"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Dead">
    <xs:sequence>
      <xs:element name="y" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#,
        );
        let codes: Vec<&str> = analyze_schema(&s).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"XSA101"), "{codes:?}");
        assert!(codes.contains(&"XSA201"), "{codes:?}");
        assert!(codes.contains(&"XSA301"), "{codes:?}");
    }

    #[test]
    fn wellformedness_issues_flow_through_with_stable_codes() {
        // "doc" declared with a type that exists nowhere.
        let s = DocumentSchema::new(xsmodel::ElementDeclaration::new("doc", "NoSuch"));
        let diags = analyze_schema(&s);
        assert!(diags.iter().any(|d| d.code == "XSA001"), "{diags:?}");
    }

    #[test]
    fn empty_xpath_step_is_reported_before_evaluation() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library" type="Library"/>
  <xs:complexType name="Library">
    <xs:sequence>
      <xs:element name="book" type="Book" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#,
        );
        let good = xpath::parse("/library/book/title").unwrap();
        assert_eq!(analyze_xpath(&s, &good), vec![]);
        let bad = xpath::parse("/library/chapter/title").unwrap();
        let diags = analyze_xpath(&s, &bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "XSA401");
        assert!(diags[0].message.contains("chapter"), "{}", diags[0].message);
        let deep = xpath::parse("//chapter").unwrap();
        assert_eq!(analyze_xpath(&s, &deep).len(), 1);
        let deep_good = xpath::parse("//title").unwrap();
        assert_eq!(analyze_xpath(&s, &deep_good), vec![]);
    }

    #[test]
    fn flwor_paths_are_analyzed() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library" type="Library"/>
  <xs:complexType name="Library">
    <xs:sequence>
      <xs:element name="book" type="Book" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
    </xs:sequence>
    <xs:attribute name="year" type="xs:gYear"/>
  </xs:complexType>
</xs:schema>"#,
        );
        let good =
            xquery::parse_query("for $b in /library/book where $b/@year return $b/title").unwrap();
        assert_eq!(analyze_xquery(&s, &good), vec![]);
        let bad =
            xquery::parse_query("for $b in /library/book where $b/isbn return $b/title").unwrap();
        let diags = analyze_xquery(&s, &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "XSA401");
    }

    #[test]
    fn guide_backend_flags_paths_absent_from_the_document() {
        let mut store = xdm::NodeStore::new();
        let doc = store.new_document(None);
        let lib = store.new_element(doc, "library");
        let book = store.new_element(lib, "book");
        let title = store.new_element(book, "title");
        store.new_text(title, "t");
        let (guide, _) = storage::DescriptiveSchema::build(&store, doc);
        let ok = xpath::parse("/library/book/title/text()").unwrap();
        assert_eq!(analyze_xpath_in_guide(&guide, &ok), vec![]);
        let missing = xpath::parse("/library/paper").unwrap();
        let diags = analyze_xpath_in_guide(&guide, &missing);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "XSA401");
        // `//` from the document node reaches the root element itself.
        let root = xpath::parse("//library/book").unwrap();
        assert_eq!(analyze_xpath_in_guide(&guide, &root), vec![]);
        // Reverse axes work on the guide (it has parent links).
        let up = xpath::parse("/library/book/title/../title").unwrap();
        assert_eq!(analyze_xpath_in_guide(&guide, &up), vec![]);
    }

    #[test]
    fn predicates_with_impossible_paths_empty_the_step() {
        let s = schema(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library" type="Library"/>
  <xs:complexType name="Library">
    <xs:sequence>
      <xs:element name="book" type="Book" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#,
        );
        let bad = xpath::parse("/library/book[isbn]").unwrap();
        let diags = analyze_xpath(&s, &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("predicate"), "{}", diags[0].message);
        let good = xpath::parse("/library/book[title]").unwrap();
        assert_eq!(analyze_xpath(&s, &good), vec![]);
    }
}
