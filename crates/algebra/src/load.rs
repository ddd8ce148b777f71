//! The mapping `f` of the paper's §8: from an XML document to a typed
//! document tree (S-tree), enforcing every requirement of §6.2 along the
//! way.
//!
//! Loading and validation are one pass: a document that satisfies
//! requirements 1–7 of §6.2 produces a [`NodeStore`] tree whose accessor
//! values are exactly those the requirements dictate (type annotations,
//! typed values, `nilled`, base-uri inheritance, text-node placement);
//! a document that violates any requirement produces a list of
//! [`ValidationError`]s, each citing the violated rule.

use std::collections::HashMap;
use std::sync::Arc;

use xmlparse::{Document, Element, Node};
use xsmodel::{
    ComplexTypeDefinition, ContentModel, DocumentSchema, ElementDeclaration, MatchOutcome, Type,
};
use xstypes::SimpleType;

use xdm::{NodeId, NodeStore};

use crate::cache::ContentModelCache;
use crate::error::{Rule, ValidationError};

/// Options governing paper-vs-practical strictness.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// §6.2 item 5.3.1 reads the attribute sequence as containing a node
    /// for *every* declaration (the paper drops REQUIRED/OPTIONAL "for
    /// simplicity"). `true` (default) is the paper-faithful reading:
    /// every declared attribute must be present. `false` treats declared
    /// attributes as optional.
    pub require_all_attributes: bool,
    /// Ignore whitespace-only text between elements in non-mixed content
    /// (`true`, default) rather than reporting rule 5.4.2.1. Pretty-
    /// printed documents are otherwise unvalidatable.
    pub ignore_ignorable_whitespace: bool,
    /// Check node identity constraints (`xs:ID` uniqueness, `xs:IDREF`
    /// resolution) as a document-wide post-pass (`true`, default).
    pub check_identity: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            require_all_attributes: true,
            ignore_ignorable_whitespace: true,
            check_identity: true,
        }
    }
}

/// The result of a successful load: a node store holding one S-tree.
#[derive(Debug, Clone)]
pub struct LoadedDocument {
    /// The nodes.
    pub store: NodeStore,
    /// The document node (root of the S-tree, §6.2 item 1).
    pub doc: NodeId,
}

impl LoadedDocument {
    /// The single element child of the document node (§6.2 item 3).
    pub fn root_element(&self) -> NodeId {
        self.store.children(self.doc)[0]
    }
}

/// Load (and validate) an XML document against a schema — the paper's
/// function `f`.
pub fn load_document(
    schema: &DocumentSchema,
    xml: &Document,
) -> Result<LoadedDocument, Vec<ValidationError>> {
    load_document_with(schema, xml, &LoadOptions::default())
}

/// [`load_document`] with explicit [`LoadOptions`].
pub fn load_document_with(
    schema: &DocumentSchema,
    xml: &Document,
    options: &LoadOptions,
) -> Result<LoadedDocument, Vec<ValidationError>> {
    load_document_impl(schema, xml, options, None)
}

/// [`load_document_with`], sharing compiled content models through
/// `cache`. Repeated loads against the same schema — re-validation,
/// bulk loads, parallel validation — compile each distinct group
/// definition once for the cache's lifetime instead of once per call.
pub fn load_document_cached(
    schema: &DocumentSchema,
    xml: &Document,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> Result<LoadedDocument, Vec<ValidationError>> {
    load_document_impl(schema, xml, options, Some(cache))
}

fn load_document_impl(
    schema: &DocumentSchema,
    xml: &Document,
    options: &LoadOptions,
    shared: Option<&ContentModelCache>,
) -> Result<LoadedDocument, Vec<ValidationError>> {
    let mut loader = Loader {
        schema,
        options,
        shared,
        store: NodeStore::new(),
        errors: Vec::new(),
        cm_cache: HashMap::new(),
    };
    let doc = loader.store.new_document(xml.base_uri().map(str::to_string));
    let root = xml.root();
    if root.name.local() != schema.root.name {
        loader.errors.push(ValidationError::new(
            Rule::RootName,
            "/",
            format!(
                "root element is <{}>, the schema declares <{}>",
                root.name.local(),
                schema.root.name
            ),
        ));
    } else {
        let root_decl = schema.root.clone();
        let path = format!("/{}", root_decl.name);
        loader.element(root, &root_decl, doc, &path);
    }
    if loader.errors.is_empty() && options.check_identity {
        loader.errors.extend(crate::identity::check_identity(&loader.store, doc));
    }
    if loader.errors.is_empty() {
        Ok(LoadedDocument { store: loader.store, doc })
    } else {
        Err(loader.errors)
    }
}

struct Loader<'a> {
    schema: &'a DocumentSchema,
    options: &'a LoadOptions,
    /// Cross-load cache shared with other loaders (and threads), when
    /// the caller provided one.
    shared: Option<&'a ContentModelCache>,
    store: NodeStore,
    errors: Vec<ValidationError>,
    /// Content models compiled during *this* load, keyed by group
    /// address (the schema outlives the loader, so addresses are stable
    /// here). This fronts the shared cache: the per-element hot path
    /// costs one pointer-keyed lookup, and the structural-fingerprint
    /// lookup in `shared` happens once per distinct group per load.
    cm_cache: HashMap<usize, Arc<ContentModel>>,
}

/// True for the reserved attributes that are not part of the §6.2
/// attribute model: `xsi:*` (schema-instance controls) and namespace
/// declarations.
pub(crate) fn is_reserved_attribute(name: &xmlparse::QName) -> bool {
    matches!(name.prefix(), Some("xsi") | Some("xmlns")) || name.local() == "xmlns"
}

pub(crate) fn is_whitespace(text: &str) -> bool {
    text.chars().all(|c| matches!(c, ' ' | '\t' | '\n' | '\r'))
}

impl<'a> Loader<'a> {
    fn err(&mut self, rule: Rule, path: &str, message: impl Into<String>) {
        self.errors.push(ValidationError::new(rule, path, message));
    }

    /// §6.2 items 2–6: associate an element information item with an
    /// element declaration.
    fn element(&mut self, elem: &Element, decl: &ElementDeclaration, parent: NodeId, path: &str) {
        // Item 4: node-name(end) = el; type(end) = T (or xs:anyType for an
        // anonymous definition); base-uri inherited (by construction).
        let end = self.store.new_element(parent, decl.name.clone());
        match &decl.ty {
            Type::Named(n) => self.store.set_type(end, n.clone()),
            Type::AnonymousComplex(_) => self.store.set_type(end, "xs:anyType"),
            Type::AnonymousSimple(st) => self
                .store
                .set_type(end, st.name.clone().unwrap_or_else(|| "xs:anyType".to_string())),
        }

        // Item 6: nil handling.
        let nil_requested = elem.attributes.iter().any(|a| {
            a.name.prefix() == Some("xsi")
                && a.name.local() == "nil"
                && matches!(a.value.as_str(), "true" | "1")
        });
        if nil_requested && !decl.nillable {
            self.err(
                Rule::R6Nil,
                path,
                "xsi:nil=\"true\" on an element whose declaration is not nillable",
            );
        }
        let nilled = nil_requested && decl.nillable;
        self.store.set_nilled(end, nilled);

        // Resolve the type and dispatch.
        if let Some(ctd) = self.schema.complex_of(&decl.ty) {
            // Clone nothing: ctd borrows from schema, fine.
            self.complex(elem, ctd, end, nilled, path);
        } else if let Some(st) = self.schema.simple_of(&decl.ty) {
            self.simple_attributes_must_be_absent(elem, path);
            self.simple_content(elem, &st, end, nilled, path);
        } else {
            let name = decl.ty.name().unwrap_or("<anonymous>");
            self.err(Rule::TypeUsage, path, format!("type {name:?} is not defined"));
        }
    }

    /// An element of simple type admits no attributes (§6.2 items 5.1,
    /// 7 — only the nodes the requirements call for exist).
    fn simple_attributes_must_be_absent(&mut self, elem: &Element, path: &str) {
        for a in &elem.attributes {
            if !is_reserved_attribute(&a.name) {
                self.err(
                    Rule::R7NoOtherNodes,
                    path,
                    format!("attribute {:?} on an element of simple type", a.name.lexical()),
                );
            }
        }
    }

    /// §6.2 items 5.1.1 / 6.1: a simple-typed element has one text child
    /// whose value is in the type's lexical space — or is nilled with no
    /// children.
    fn simple_content(
        &mut self,
        elem: &Element,
        st: &Arc<SimpleType>,
        end: NodeId,
        nilled: bool,
        path: &str,
    ) {
        // Any element child violates the simple content model.
        if let Some(child) = elem.child_elements().next() {
            self.err(
                Rule::R511SimpleValue,
                path,
                format!("element <{}> inside simple-typed content", child.name.local()),
            );
            return;
        }
        let text = elem.text_content();
        if nilled {
            // 6.1: children(end) = () and nilled(end) = true.
            if !text.is_empty() {
                self.err(Rule::R6Nil, path, "nilled element must have no content");
            }
            return;
        }
        // 5.1.1: a text node with the (string) content, typed value from
        // the simple type.
        match st.validate(&text) {
            Ok(values) => {
                self.store.new_text(end, text);
                self.store.set_typed_value(end, values);
            }
            Err(e) => {
                self.err(Rule::R511SimpleValue, path, e.to_string());
            }
        }
    }

    /// §6.2 items 5.2–5.4 / 6.2–6.3: complex types.
    fn complex(
        &mut self,
        elem: &Element,
        ctd: &ComplexTypeDefinition,
        end: NodeId,
        nilled: bool,
        path: &str,
    ) {
        // 5.3.1 first: attributes are validated in both content variants,
        // and item 6.2/6.3 keeps them even when nilled.
        self.attributes(elem, ctd, end, path);
        match ctd {
            ComplexTypeDefinition::SimpleContent { base, .. } => {
                let Some(st) = self.schema.simple_types.get(base) else {
                    self.err(Rule::TypeUsage, path, format!("simple type {base:?} not defined"));
                    return;
                };
                self.simple_content(elem, &st, end, nilled, path);
            }
            ComplexTypeDefinition::ComplexContent { mixed, content, .. } => {
                if nilled {
                    // 6.3: children(end) = ().
                    let has_elements = elem.child_elements().next().is_some();
                    let has_text =
                        elem.children.iter().filter_map(Node::as_text).any(|t| !is_whitespace(t));
                    if has_elements || has_text {
                        self.err(Rule::R6Nil, path, "nilled element must have no content");
                    }
                    return;
                }
                if content.is_empty_content() {
                    self.empty_content(elem, *mixed, end, path);
                } else {
                    self.group_content(elem, *mixed, content, end, path);
                }
            }
        }
    }

    /// §6.2 item 5.3.1 (+ item 7): the attribute nodes correspond to the
    /// attribute declarations up to a permutation σ.
    fn attributes(&mut self, elem: &Element, ctd: &ComplexTypeDefinition, end: NodeId, path: &str) {
        let declared = ctd.attributes();
        let mut seen: Vec<&str> = Vec::new();
        for a in &elem.attributes {
            if is_reserved_attribute(&a.name) {
                continue;
            }
            let lex = a.name.lexical();
            match declared.get(lex.as_ref()) {
                None => {
                    // Item 7: no other nodes.
                    self.err(
                        Rule::R7NoOtherNodes,
                        path,
                        format!("attribute {lex:?} is not declared"),
                    );
                }
                Some(type_name) => {
                    seen.push(a.name.local());
                    let and = self.store.new_attribute(end, lex.clone(), a.value.clone());
                    self.store.set_type(and, type_name.clone());
                    match self.schema.simple_types.get(type_name) {
                        Some(st) => match st.validate(&a.value) {
                            Ok(values) => self.store.set_typed_value(and, values),
                            Err(e) => {
                                self.err(
                                    Rule::R531Attributes,
                                    path,
                                    format!("attribute {lex:?}: {e}"),
                                );
                            }
                        },
                        None => {
                            self.err(
                                Rule::TypeUsage,
                                path,
                                format!("attribute type {type_name:?} not defined"),
                            );
                        }
                    }
                }
            }
        }
        if self.options.require_all_attributes {
            for name in declared.keys() {
                if !seen.contains(&name.as_str()) {
                    self.err(
                        Rule::R531Attributes,
                        path,
                        format!("declared attribute {name:?} is missing"),
                    );
                }
            }
        }
    }

    /// §6.2 item 5.4.1: the type has the empty content.
    fn empty_content(&mut self, elem: &Element, mixed: bool, end: NodeId, path: &str) {
        if let Some(child) = elem.child_elements().next() {
            self.err(
                Rule::R541EmptyContent,
                path,
                format!("element <{}> in a type with empty content", child.name.local()),
            );
            return;
        }
        let text = elem.text_content();
        if mixed {
            // 5.4.1.1: children = () or a single text node.
            if !text.is_empty() {
                self.store.new_text(end, text);
            }
        } else if !(text.is_empty()
            || (self.options.ignore_ignorable_whitespace && is_whitespace(&text)))
        {
            // 5.4.1.2: no text node allowed.
            self.err(Rule::R5421NoText, path, format!("text {text:?} in empty non-mixed content"));
        }
    }

    /// §6.2 items 5.4.2.*: element content driven by the group definition.
    fn group_content(
        &mut self,
        elem: &Element,
        mixed: bool,
        content: &xsmodel::GroupDefinition,
        end: NodeId,
        path: &str,
    ) {
        // Compile (or fetch) the content model.
        let key = content as *const _ as usize;
        let cm = match self.cm_cache.get(&key) {
            Some(cm) => Arc::clone(cm),
            None => {
                let compiled = match self.shared {
                    Some(shared) => shared.get_or_compile(content),
                    None => ContentModel::compile(content).map(Arc::new),
                };
                match compiled {
                    Ok(cm) => {
                        self.cm_cache.insert(key, Arc::clone(&cm));
                        cm
                    }
                    Err(e) => {
                        self.err(Rule::R5423GroupMatch, path, e.to_string());
                        return;
                    }
                }
            }
        };

        // 5.4.2.3: the child-element name sequence must be in the group's
        // language.
        let child_elems: Vec<&Element> = elem.child_elements().collect();
        let names: Vec<&str> = child_elems.iter().map(|e| e.name.local()).collect();
        let assignments = match cm.match_children(&names) {
            MatchOutcome::Accept { assignments } => assignments,
            MatchOutcome::Reject { position, expected } => {
                let found = names
                    .get(position)
                    .map(|n| format!("<{n}>"))
                    .unwrap_or_else(|| "end of content".to_string());
                let expected =
                    if expected.is_empty() { "nothing".to_string() } else { expected.join(", ") };
                self.err(
                    Rule::R5423GroupMatch,
                    path,
                    format!("at child {position}: found {found}, expected one of {{{expected}}}"),
                );
                return;
            }
        };

        // Walk children in document order, interleaving text per the
        // mixed rules; recurse into elements with the matched declaration.
        let mut elem_index = 0usize;
        let mut sibling_count: HashMap<&str, usize> = HashMap::new();
        let mut pending_text = String::new();
        for child in &elem.children {
            match child {
                Node::Text(t) => {
                    if mixed {
                        pending_text.push_str(t);
                    } else if !(self.options.ignore_ignorable_whitespace && is_whitespace(t)) {
                        self.err(
                            Rule::R5421NoText,
                            path,
                            format!("text {t:?} in non-mixed element content"),
                        );
                    }
                }
                Node::Element(ce) => {
                    // 5.4.2.2: coalesce pending text so no two text nodes
                    // are adjacent.
                    if mixed && !pending_text.is_empty() {
                        let t = std::mem::take(&mut pending_text);
                        self.store.new_text(end, t);
                    }
                    // Borrowed from the content model, never cloned: the
                    // model stays cached for the whole load, so an
                    // anonymous type's group keeps one address, and
                    // `cm_cache` can never mistake a freed clone's address
                    // for another group's.
                    let decl = &cm.declarations()[assignments[elem_index]];
                    let n = sibling_count.entry(decl.name.as_str()).or_insert(0);
                    *n += 1;
                    let child_path = format!("{path}/{}[{n}]", decl.name);
                    self.element(ce, decl, end, &child_path);
                    elem_index += 1;
                }
                Node::Comment(_) | Node::ProcessingInstruction { .. } => {}
            }
        }
        if mixed && !pending_text.is_empty() {
            self.store.new_text(end, pending_text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsmodel::parse_schema_text;

    const BOOKSTORE: &str = r#"
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="BookPublication">
    <xsd:sequence>
      <xsd:element name="Title" type="xsd:string"/>
      <xsd:element name="Author" type="xsd:string"/>
      <xsd:element name="Date" type="xsd:gYear"/>
      <xsd:element name="ISBN" type="xsd:string"/>
      <xsd:element name="Publisher" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="BookStore">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="Book" type="BookPublication" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>"#;

    const GOOD_DOC: &str = r#"
<BookStore>
  <Book>
    <Title>Foundations of Databases</Title>
    <Author>Abiteboul</Author>
    <Date>1995</Date>
    <ISBN>0-201-53771-0</ISBN>
    <Publisher>Addison-Wesley</Publisher>
  </Book>
</BookStore>"#;

    fn schema() -> DocumentSchema {
        parse_schema_text(BOOKSTORE).unwrap()
    }

    fn load(doc: &str) -> Result<LoadedDocument, Vec<ValidationError>> {
        load_document(&schema(), &Document::parse(doc).unwrap())
    }

    #[test]
    fn valid_document_loads() {
        let loaded = load(GOOD_DOC).unwrap();
        let root = loaded.root_element();
        assert_eq!(loaded.store.node_name(root), Some("BookStore"));
        let books = loaded.store.child_elements(root);
        assert_eq!(books.len(), 1);
        assert_eq!(loaded.store.type_name(books[0]), Some("BookPublication"));
    }

    #[test]
    fn typed_values_are_computed() {
        let loaded = load(GOOD_DOC).unwrap();
        let root = loaded.root_element();
        let book = loaded.store.child_elements(root)[0];
        let date = loaded.store.child_elements(book)[2];
        let tv = loaded.store.typed_value(date);
        assert_eq!(tv.len(), 1);
        assert_eq!(tv[0].type_of(), xstypes::Builtin::Primitive(xstypes::Primitive::GYear));
    }

    #[test]
    fn text_nodes_carry_untyped_atomic() {
        let loaded = load(GOOD_DOC).unwrap();
        let root = loaded.root_element();
        let book = loaded.store.child_elements(root)[0];
        let title = loaded.store.child_elements(book)[0];
        let text = loaded.store.children(title)[0];
        assert_eq!(loaded.store.node_kind(text), "text");
        assert_eq!(loaded.store.type_name(text), Some("xdt:untypedAtomic"));
        assert_eq!(loaded.store.string_value(text), "Foundations of Databases");
    }

    #[test]
    fn wrong_root_name_cites_section_3() {
        let errs = load("<Shop/>").unwrap_err();
        assert_eq!(errs[0].rule, Rule::RootName);
    }

    #[test]
    fn out_of_order_children_cite_5423() {
        let doc = r#"
<BookStore><Book>
  <Author>X</Author><Title>Y</Title><Date>2000</Date><ISBN>1</ISBN><Publisher>P</Publisher>
</Book></BookStore>"#;
        let errs = load(doc).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R5423GroupMatch), "{errs:?}");
        // The message names the expectation.
        let msg = &errs[0].message;
        assert!(msg.contains("Title"), "{msg}");
    }

    #[test]
    fn missing_child_cites_5423_with_position() {
        let doc = "<BookStore><Book><Title>T</Title></Book></BookStore>";
        let errs = load(doc).unwrap_err();
        let e = errs.iter().find(|e| e.rule == Rule::R5423GroupMatch).unwrap();
        assert!(e.message.contains("Author"), "{}", e.message);
        assert!(e.path.contains("/BookStore/Book[1]"));
    }

    #[test]
    fn bad_simple_value_cites_511() {
        let doc = GOOD_DOC.replace("1995", "not-a-year");
        let errs = load(&doc).unwrap_err();
        let e = errs.iter().find(|e| e.rule == Rule::R511SimpleValue).unwrap();
        assert!(e.path.ends_with("/Date[1]"), "{}", e.path);
    }

    #[test]
    fn text_in_element_content_cites_5421() {
        let doc = "<BookStore>stray text</BookStore>";
        let errs = load(doc).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R5421NoText));
    }

    #[test]
    fn whitespace_between_elements_is_ignorable() {
        // GOOD_DOC is pretty-printed; it loads, and the loaded tree has no
        // whitespace text nodes under BookStore.
        let loaded = load(GOOD_DOC).unwrap();
        let root = loaded.root_element();
        assert_eq!(loaded.store.children(root).len(), 1); // just the Book
    }

    #[test]
    fn undeclared_attribute_cites_rule_7() {
        let doc = GOOD_DOC.replace("<Book>", "<Book bogus=\"1\">");
        let errs = load(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R7NoOtherNodes));
    }

    const NIL_SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Comment" type="xs:string" nillable="true"/>
</xs:schema>"#;

    #[test]
    fn nillable_element_accepts_nil() {
        let schema = parse_schema_text(NIL_SCHEMA).unwrap();
        let xml = Document::parse(r#"<Comment xsi:nil="true"/>"#).unwrap();
        let loaded = load_document(&schema, &xml).unwrap();
        let root = loaded.root_element();
        assert_eq!(loaded.store.nilled(root), Some(true));
        assert!(loaded.store.children(root).is_empty());
        assert!(loaded.store.typed_value(root).is_empty());
    }

    #[test]
    fn nil_with_content_cites_rule_6() {
        let schema = parse_schema_text(NIL_SCHEMA).unwrap();
        let xml = Document::parse(r#"<Comment xsi:nil="true">oops</Comment>"#).unwrap();
        let errs = load_document(&schema, &xml).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R6Nil));
    }

    #[test]
    fn nil_on_non_nillable_cites_rule_6() {
        let xml = Document::parse(r#"<BookStore xsi:nil="true"/>"#).unwrap();
        let errs = load_document(&schema(), &xml).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R6Nil));
    }

    const MIXED_SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="note">
    <xs:complexType mixed="true">
      <xs:sequence>
        <xs:element name="b" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    #[test]
    fn mixed_content_interleaves_text_and_elements() {
        let schema = parse_schema_text(MIXED_SCHEMA).unwrap();
        let xml = Document::parse("<note>Hello <b>world</b> bye</note>").unwrap();
        let loaded = load_document(&schema, &xml).unwrap();
        let root = loaded.root_element();
        let kinds: Vec<&str> =
            loaded.store.children(root).iter().map(|&c| loaded.store.node_kind(c)).collect();
        assert_eq!(kinds, ["text", "element", "text"]);
        assert_eq!(loaded.store.string_value(root), "Hello world bye");
    }

    #[test]
    fn no_adjacent_text_nodes_after_comment_removal() {
        // 5.4.2.2: "x<!--c-->y" must coalesce into one text node.
        let schema = parse_schema_text(MIXED_SCHEMA).unwrap();
        let xml = Document::parse("<note>x<!--c-->y<b>z</b></note>").unwrap();
        let loaded = load_document(&schema, &xml).unwrap();
        let root = loaded.root_element();
        let children = loaded.store.children(root);
        assert_eq!(children.len(), 2);
        assert_eq!(loaded.store.string_value(children[0]), "xy");
        // Invariant: no two adjacent text nodes anywhere.
        for w in children.windows(2) {
            assert!(
                !(loaded.store.node_kind(w[0]) == "text" && loaded.store.node_kind(w[1]) == "text")
            );
        }
    }

    const ATTR_SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="item">
    <xs:complexType>
      <xs:sequence/>
      <xs:attribute name="InStock" type="xs:boolean"/>
      <xs:attribute name="Reviewer" type="xs:string"/>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    #[test]
    fn attributes_validate_and_annotate() {
        let schema = parse_schema_text(ATTR_SCHEMA).unwrap();
        let xml = Document::parse(r#"<item InStock="true" Reviewer="codd"/>"#).unwrap();
        let loaded = load_document(&schema, &xml).unwrap();
        let root = loaded.root_element();
        assert_eq!(loaded.store.attributes(root).len(), 2);
        let instock = loaded.store.attribute_named(root, "InStock").unwrap();
        assert_eq!(loaded.store.type_name(instock), Some("xs:boolean"));
        assert!(matches!(
            loaded.store.typed_value(instock)[0],
            xstypes::AtomicValue::Boolean(true)
        ));
    }

    #[test]
    fn attribute_order_is_free_per_the_automorphism() {
        let schema = parse_schema_text(ATTR_SCHEMA).unwrap();
        let xml = Document::parse(r#"<item Reviewer="codd" InStock="true"/>"#).unwrap();
        assert!(load_document(&schema, &xml).is_ok());
    }

    #[test]
    fn missing_declared_attribute_cites_531_in_strict_mode() {
        let schema = parse_schema_text(ATTR_SCHEMA).unwrap();
        let xml = Document::parse(r#"<item InStock="true"/>"#).unwrap();
        let errs = load_document(&schema, &xml).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R531Attributes));
        // Relaxed mode accepts it.
        let opts = LoadOptions { require_all_attributes: false, ..Default::default() };
        assert!(load_document_with(&schema, &xml, &opts).is_ok());
    }

    #[test]
    fn bad_attribute_value_cites_531() {
        let schema = parse_schema_text(ATTR_SCHEMA).unwrap();
        let xml = Document::parse(r#"<item InStock="maybe" Reviewer="x"/>"#).unwrap();
        let errs = load_document(&schema, &xml).unwrap_err();
        assert!(errs.iter().any(|e| e.rule == Rule::R531Attributes && e.message.contains("maybe")));
    }

    #[test]
    fn choice_content_example_3() {
        let schema = parse_schema_text(
            r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="bits">
    <xs:complexType>
      <xs:choice minOccurs="0" maxOccurs="unbounded">
        <xs:element name="zero" type="xs:string"/>
        <xs:element name="one" type="xs:string"/>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>"#,
        )
        .unwrap();
        for doc in ["<bits/>", "<bits><one/><zero/><one/></bits>"] {
            let xml = Document::parse(doc).unwrap();
            assert!(load_document(&schema, &xml).is_ok(), "{doc}");
        }
        let bad = Document::parse("<bits><two/></bits>").unwrap();
        assert!(load_document(&schema, &bad).is_err());
    }

    #[test]
    fn empty_simple_value_makes_a_text_node() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:element name="s" type="xs:string"/>
               </xs:schema>"#,
        )
        .unwrap();
        let xml = Document::parse("<s/>").unwrap();
        let loaded = load_document(&schema, &xml).unwrap();
        let root = loaded.root_element();
        // 5.1.1: there is a text node (with the empty string value).
        assert_eq!(loaded.store.children(root).len(), 1);
        assert_eq!(loaded.store.node_kind(loaded.store.children(root)[0]), "text");
    }

    #[test]
    fn sibling_anonymous_types_keep_their_own_content_models() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType><xs:sequence>
    <xs:element name="a"><xs:complexType><xs:sequence>
      <xs:element name="x" type="xs:string"/></xs:sequence></xs:complexType></xs:element>
    <xs:element name="b"><xs:complexType><xs:sequence>
      <xs:element name="y" type="xs:string"/></xs:sequence></xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element></xs:schema>"#,
        )
        .unwrap();
        let xml = Document::parse("<r><a><x>1</x></a><b><y>2</y></b></r>").unwrap();
        assert!(load_document(&schema, &xml).is_ok());
    }

    #[test]
    fn multiple_errors_are_all_reported() {
        let doc = r#"
<BookStore><Book>
  <Title>T</Title><Author>A</Author><Date>bad</Date><ISBN>i</ISBN><Publisher>P</Publisher>
</Book><Book>
  <Title>T2</Title><Author>A2</Author><Date>alsobad</Date><ISBN>i2</ISBN><Publisher>P2</Publisher>
</Book></BookStore>"#;
        let errs = load(doc).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs[0].path.contains("Book[1]"));
        assert!(errs[1].path.contains("Book[2]"));
    }
}
