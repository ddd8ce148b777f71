//! Bridges between the physical layer (§9) and the logical layers.
//!
//! [`storage_to_document`] is the database's `g`: it serializes a
//! block-stored document straight from its descriptors, closing the loop
//! `XML → f → XDM → storage → XML` without a second stored form.
//! [`storage_to_tree`] rebuilds the transient XDM tree; the database
//! never calls it — it is the oracle the test suites compare the
//! descriptor-level accessors, queries and `g` against.

use storage::{DescPtr, XmlStorage};
use xdm::{NodeId, NodeKind, NodeStore};
use xmlparse::{Attribute, Document, Element, Node, QName};

use crate::error::DbError;

/// Serialize the storage's document tree to an XML document — the
/// paper's `g` computed from node descriptors and schema nodes alone
/// (one more witness of the §9.2 sufficiency claim).
///
/// # Errors
/// [`DbError::Corrupt`] when the document node has no element child
/// (§6.2 item 3 requires exactly one) — possible only for a storage
/// decoded from damaged pages or built by hand.
pub fn storage_to_document(xs: &XmlStorage) -> Result<Document, DbError> {
    let root_desc =
        xs.children(xs.root())
            .into_iter()
            .find(|&c| xs.kind(c) == NodeKind::Element)
            .ok_or_else(|| DbError::Corrupt("the document node has no root element".into()))?;
    let root = element_of(xs, root_desc);
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
