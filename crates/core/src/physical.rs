//! Bridges between the physical layer (§9) and the logical layers.
//!
//! [`build_storage`] is the database's `f`: the §6.2 core
//! ([`algebra::PushValidator`]) runs over the parser's events and hands
//! the valid instance's nodes to a [`StorageBuilder`], so a document
//! becomes block storage in one pass with no tree in between.
//! [`validate_storage`] runs the same core over a walk of a stored
//! document's descriptors, and [`site_is_valid`] over one element of
//! it, the update recheck's unit. [`storage_to_document`] is the database's
//! `g`: it serializes a block-stored document straight from its
//! descriptors, closing the loop `XML → f → storage → XML` without a
//! second stored form. [`storage_to_tree`] rebuilds the transient XDM
//! tree; the database never calls it — it is the oracle the test suites
//! compare the descriptor-level accessors, queries and `g` against.

use algebra::{
    ingest_text, ContentModelCache, IngestError, InstanceSink, LoadOptions, PushValidator,
    ValidationError,
};
use storage::{DescPtr, StorageBuilder, StorageError, XmlStorage};
use xdm::{NodeId, NodeKind, NodeStore};
use xmlparse::{Attribute, Document, Element, Node, ParseLimits, QName};
use xsmodel::DocumentSchema;

use crate::error::DbError;

/// The storage-builder sink: the nodes the core accepts become
/// descriptors, in document order.
struct BuildSink(StorageBuilder);

impl InstanceSink for BuildSink {
    type Error = StorageError;
    fn start_element(&mut self, name: &str, ty: &str, nilled: bool) -> Result<(), StorageError> {
        self.0.start_element(name, ty, nilled)
    }
    fn attribute(&mut self, name: &str, ty: &str, value: &str) -> Result<(), StorageError> {
        self.0.attribute(name, ty, value)
    }
    fn text(&mut self, value: &str) -> Result<(), StorageError> {
        self.0.text(value)
    }
    fn end_element(&mut self) -> Result<(), StorageError> {
        self.0.end_element()
    }
}

/// The paper's `f` as one streaming pass: parse `xml` under `limits`,
/// check §6.2 against `schema`, and build the document's block storage —
/// the same storage, byte for byte, as materializing `f`'s S-tree.
///
/// # Errors
/// [`DbError::Xml`] for malformed or over-limit text, else
/// [`DbError::Invalid`] with the violations.
pub(crate) fn build_storage(
    schema: &DocumentSchema,
    xml: &str,
    options: &LoadOptions,
    limits: &ParseLimits,
    cache: &ContentModelCache,
) -> Result<XmlStorage, DbError> {
    let sink = BuildSink(StorageBuilder::new());
    match ingest_text(schema, xml, options, limits, Some(cache), sink) {
        Ok(BuildSink(builder)) => Ok(builder.finish()?),
        Err(IngestError::Xml(e)) => Err(DbError::Xml(e)),
        Err(IngestError::Invalid(errors)) => Err(DbError::Invalid(errors)),
        Err(IngestError::Sink(e)) => Err(e.into()),
    }
}

/// Whole-document §6.2 validation of a stored document: its descriptors,
/// walked in document order with an explicit stack, drive the core as
/// the text of `g` of them would. Returns the violations.
///
/// # Errors
/// [`DbError::Corrupt`] when the document node has no element child.
pub(crate) fn validate_storage(
    schema: &DocumentSchema,
    xs: &XmlStorage,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> Result<Vec<ValidationError>, DbError> {
    let mut core = PushValidator::new(schema, options, Some(cache), ());
    let root = root_element(xs)?;
    start_stored(&mut core, xs, root);
    let mut open = vec![xs.children(root).into_iter()];
    while let Some(level) = open.last_mut() {
        match level.next() {
            None => {
                open.pop();
                core.end();
            }
            Some(c) if xs.kind(c) == NodeKind::Element => {
                start_stored(&mut core, xs, c);
                open.push(xs.children(c).into_iter());
            }
            Some(c) => text_stored(&mut core, xs, c),
        }
    }
    violations(core)
}

/// Whether the stored element `site` meets its own §6.2 obligations —
/// attributes, nil, character content and child sequence — given that
/// its ancestors and its child elements' subtrees are valid: one site
/// of an update's recheck. The ancestors open as trusted frames, and
/// the child elements are read by the site's content check but not
/// entered, so the cost does not grow with the ancestors' sibling
/// counts or the children's subtrees. It gives a verdict, not errors:
/// their paths would place every ancestor at position 1.
pub(crate) fn site_is_valid(
    schema: &DocumentSchema,
    xs: &XmlStorage,
    site: DescPtr,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> bool {
    let mut core = PushValidator::new(schema, options, Some(cache), ());
    enter_trusted(&mut core, xs, xs.parent(site));
    start_stored(&mut core, xs, site);
    for c in xs.children(site) {
        match xs.kind(c) {
            NodeKind::Element => core.skip(&element_name(xs, c)),
            _ => text_stored(&mut core, xs, c),
        }
    }
    core.end();
    core.finish().is_ok()
}

/// The text child `f` gives the leaf element `<name>text</name>` as a
/// new child of the stored element `parent`: the core decides, so a
/// simple-typed leaf without text gets the one empty text node §6.2
/// item 5.1.1 gives it, and element-only content keeps no ignorable
/// whitespace. Where the core refuses the leaf, `text` is kept as
/// written, for the recheck to judge.
pub(crate) fn leaf_text(
    schema: &DocumentSchema,
    xs: &XmlStorage,
    parent: DescPtr,
    name: &str,
    text: Option<&str>,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> Option<String> {
    let mut core = PushValidator::new(schema, options, Some(cache), LeafSink::default());
    enter_trusted(&mut core, xs, Some(parent));
    core.start(&QName::parse(name), &[]);
    if let Some(text) = text {
        core.text(text);
    }
    core.end();
    match core.finish() {
        Ok(LeafSink { opened: true, text }) => text,
        _ => text.map(str::to_string),
    }
}

/// What the core hands on for one new leaf: whether it opened the
/// element, and its text child.
#[derive(Default)]
struct LeafSink {
    opened: bool,
    text: Option<String>,
}

impl InstanceSink for LeafSink {
    type Error = std::convert::Infallible;
    fn start_element(&mut self, _: &str, _: &str, _: bool) -> Result<(), Self::Error> {
        self.opened = true;
        Ok(())
    }
    fn attribute(&mut self, _: &str, _: &str, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn text(&mut self, value: &str) -> Result<(), Self::Error> {
        self.text = Some(value.to_string());
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Open a trusted frame ([`PushValidator::enter`]) for the stored
/// element `p` and each element above it, outermost first.
fn enter_trusted<S: InstanceSink>(
    core: &mut PushValidator<'_, S>,
    xs: &XmlStorage,
    p: Option<DescPtr>,
) {
    let mut path = Vec::new();
    let mut up = p;
    while let Some(a) = up.filter(|&a| xs.kind(a) == NodeKind::Element) {
        path.push(a);
        up = xs.parent(a);
    }
    for &a in path.iter().rev() {
        core.enter(&element_name(xs, a));
    }
}

fn element_name(xs: &XmlStorage, p: DescPtr) -> QName {
    QName::parse(xs.node_name(p).unwrap_or(""))
}

/// Feed stored element `p`'s start tag to `core`: its stored attributes,
/// and `xsi:nil` when it is nilled.
fn start_stored(core: &mut PushValidator<'_, ()>, xs: &XmlStorage, p: DescPtr) {
    let mut attributes: Vec<(QName, String)> = xs
        .attributes(p)
        .into_iter()
        .map(|a| (QName::parse(xs.node_name(a).unwrap_or("")), xs.string_value(a)))
        .collect();
    if xs.nilled(p) == Some(true) {
        attributes.push((QName::prefixed("xsi", "nil"), "true".to_string()));
    }
    core.start(&QName::parse(xs.node_name(p).unwrap_or("")), &attributes);
}

/// Feed stored text node `t` to `core`: each stored text node is one
/// text node of `g`'s output.
fn text_stored(core: &mut PushValidator<'_, ()>, xs: &XmlStorage, t: DescPtr) {
    core.text(&xs.string_value(t));
    core.boundary();
}

/// The violations a storage walk found.
fn violations(core: PushValidator<'_, ()>) -> Result<Vec<ValidationError>, DbError> {
    match core.finish() {
        Ok(()) => Ok(Vec::new()),
        Err(IngestError::Invalid(errors)) => Ok(errors),
        Err(IngestError::Xml(e)) => Err(DbError::Xml(e)),
        Err(IngestError::Sink(never)) => match never {},
    }
}

/// The document node's element child (§6.2 item 3 requires exactly
/// one).
///
/// # Errors
/// [`DbError::Corrupt`] when there is none — possible only for a storage
/// decoded from damaged pages or built by hand.
fn root_element(xs: &XmlStorage) -> Result<DescPtr, DbError> {
    xs.children(xs.root())
        .into_iter()
        .find(|&c| xs.kind(c) == NodeKind::Element)
        .ok_or_else(|| DbError::Corrupt("the document node has no root element".into()))
}

/// Serialize the storage's document tree to an XML document — the
/// paper's `g` computed from node descriptors and schema nodes alone
/// (one more witness of the §9.2 sufficiency claim).
///
/// # Errors
/// [`DbError::Corrupt`] when the document node has no element child
/// (§6.2 item 3 requires exactly one) — possible only for a storage
/// decoded from damaged pages or built by hand.
pub fn storage_to_document(xs: &XmlStorage) -> Result<Document, DbError> {
    let root = element_of(xs, root_element(xs)?);
    Ok(match xs.base_uri(xs.root()) {
        Some(uri) => Document::from_root(root).with_base_uri(uri.to_string()),
        None => Document::from_root(root),
    })
}

fn element_of(xs: &XmlStorage, p: DescPtr) -> Element {
    let mut elem = Element::new(QName::parse(xs.node_name(p).unwrap_or("")));
    for a in xs.attributes(p) {
        elem.attributes.push(Attribute {
            name: QName::parse(xs.node_name(a).unwrap_or("")),
            value: xs.string_value(a),
        });
    }
    if xs.nilled(p) == Some(true) {
        elem.attributes
            .push(Attribute { name: QName::prefixed("xsi", "nil"), value: "true".to_string() });
    }
    for c in xs.children(p) {
        match xs.kind(c) {
            NodeKind::Element => elem.children.push(Node::Element(element_of(xs, c))),
            NodeKind::Text => elem.children.push(Node::Text(xs.string_value(c))),
            NodeKind::Document | NodeKind::Attribute => unreachable!("§6.1 children kinds"),
        }
    }
    elem
}

/// Rebuild an in-memory XDM tree from block storage (the inverse of
/// `XmlStorage::from_tree`). Type annotations are restored from the
/// schema nodes; nilled flags from the descriptors.
pub fn storage_to_tree(xs: &XmlStorage) -> (NodeStore, NodeId) {
    let mut store = NodeStore::new();
    let doc = store.new_document(xs.base_uri(xs.root()).map(str::to_string));
    for c in xs.children(xs.root()) {
        rebuild(xs, c, &mut store, doc);
    }
    (store, doc)
}

fn rebuild(xs: &XmlStorage, p: DescPtr, store: &mut NodeStore, parent: NodeId) {
    match xs.kind(p) {
        NodeKind::Element => {
            let e = store.new_element(parent, xs.node_name(p).unwrap_or(""));
            if let Some(t) = xs.type_name(p) {
                store.set_type(e, t.to_string());
            }
            store.set_nilled(e, xs.nilled(p) == Some(true));
            for a in xs.attributes(p) {
                let an = store.new_attribute(e, xs.node_name(a).unwrap_or(""), xs.string_value(a));
                if let Some(t) = xs.type_name(a) {
                    store.set_type(an, t.to_string());
                }
            }
            for c in xs.children(p) {
                rebuild(xs, c, store, e);
            }
        }
        NodeKind::Text => {
            store.new_text(parent, xs.string_value(p));
        }
        NodeKind::Document | NodeKind::Attribute => unreachable!("not reachable via children"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsdb_test_helpers::sample_storage;

    /// `g` over descriptors agrees with `g` over the rebuilt tree.
    fn storage_roundtrip_agrees(xs: &XmlStorage) -> bool {
        let direct = storage_to_document(xs).unwrap();
        let (store, doc) = storage_to_tree(xs);
        let via_tree = algebra::serialize_tree(&store, doc);
        algebra::content_equal(&direct, &via_tree)
    }

    /// Local helpers for building a storage instance.
    mod xsdb_test_helpers {
        use super::*;

        pub fn sample_storage() -> XmlStorage {
            let mut s = NodeStore::new();
            let doc = s.new_document(Some("mem://lib.xml".into()));
            let lib = s.new_element(doc, "library");
            let book = s.new_element(lib, "book");
            s.new_attribute(book, "id", "b1");
            let t = s.new_element(book, "title");
            s.set_type(t, "xs:string");
            s.new_text(t, "Foundations of Databases");
            let note = s.new_element(lib, "note");
            s.set_nilled(note, true);
            XmlStorage::from_tree(&s, doc)
        }
    }

    #[test]
    fn storage_serializes_directly() {
        let xs = sample_storage();
        let doc = storage_to_document(&xs).unwrap();
        assert_eq!(
            doc.to_xml(),
            r#"<library><book id="b1"><title>Foundations of Databases</title></book><note xsi:nil="true"/></library>"#
        );
        assert_eq!(doc.base_uri(), Some("mem://lib.xml"));
    }

    #[test]
    fn storage_rebuilds_a_tree_with_annotations() {
        let xs = sample_storage();
        let (store, doc) = storage_to_tree(&xs);
        let lib = store.children(doc)[0];
        let book = store.child_elements(lib)[0];
        let title = store.child_elements(book)[0];
        assert_eq!(store.type_name(title), Some("xs:string"));
        assert_eq!(store.string_value(title), "Foundations of Databases");
        let note = store.child_elements(lib)[1];
        assert_eq!(store.nilled(note), Some(true));
        assert_eq!(store.base_uri(doc), Some("mem://lib.xml"));
        assert!(xdm::check_order_axioms(&store, doc).is_none());
    }

    #[test]
    fn both_serialization_routes_agree() {
        let xs = sample_storage();
        assert!(storage_roundtrip_agrees(&xs));
    }

    #[test]
    fn a_rootless_store_is_corrupt_not_a_panic() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let xs = XmlStorage::from_tree(&s, doc);
        assert!(matches!(storage_to_document(&xs), Err(DbError::Corrupt(_))));
    }

    /// The storage walk and a parse of `g`'s text report the same violations
    /// for a stored document checked against a schema it does not meet.
    #[test]
    fn the_storage_walk_matches_the_parsed_text_on_violations() {
        let loose = xsmodel::parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType mixed="true"><xs:sequence>
    <xs:element name="a" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
  </xs:sequence><xs:attribute name="k" type="xs:string"/></xs:complexType></xs:element>
</xs:schema>"#,
        )
        .unwrap();
        let strict = |content: &str| {
            xsmodel::parse_schema_text(&format!(
                r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType>{content}</xs:complexType></xs:element>
</xs:schema>"#
            ))
            .unwrap()
        };
        let opts = LoadOptions::default();
        let cache = ContentModelCache::new();
        let limits = ParseLimits::default();
        for (xml, schema) in [
            (
                r#"<r k="v">text<a>1</a></r>"#,
                strict(r#"<xs:sequence><xs:element name="a" type="xs:int"/></xs:sequence>"#),
            ),
            (
                r#"<r k="v"><a>x</a><a>2</a></r>"#,
                strict(
                    r#"<xs:sequence><xs:element name="a" type="xs:int" maxOccurs="unbounded"/></xs:sequence><xs:attribute name="k" type="xs:int"/>"#,
                ),
            ),
            (r#"<r k="v"><a>1</a></r>"#, strict(r#"<xs:sequence/>"#)),
            (
                r#"<r k="v">one<a/>two</r>"#,
                strict(
                    r#"<xs:sequence><xs:element name="a" type="xs:string" maxOccurs="unbounded"/></xs:sequence>"#,
                ),
            ),
        ] {
            let xs = build_storage(&loose, xml, &opts, &limits, &cache).unwrap();
            let walked = validate_storage(&schema, &xs, &opts, &cache).unwrap();
            let text = storage_to_document(&xs).unwrap().to_xml();
            let read = algebra::validate_text(&schema, &text, &opts, &limits, None).unwrap();
            assert!(!walked.is_empty(), "{xml}");
            assert_eq!(walked, read, "{xml}");
        }
    }

    #[test]
    fn agreement_survives_updates() {
        let mut xs = sample_storage();
        let lib = xs.children(xs.root())[0];
        let book = xs.children(lib)[0];
        for i in 0..10 {
            let nb = xs.insert_element(lib, Some(book), "book").unwrap();
            let t = xs.insert_element(nb, None, "title").unwrap();
            xs.insert_text(t, None, format!("inserted {i}")).unwrap();
            xs.insert_attribute(nb, "id", &format!("n{i}")).unwrap();
        }
        assert_eq!(xs.check_invariants(), None);
        assert!(storage_roundtrip_agrees(&xs));
        let doc = storage_to_document(&xs).unwrap();
        assert_eq!(doc.root().children_named("book").count(), 11);
    }
}
