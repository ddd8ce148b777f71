//! The XPath subset on both engines, and the §7 document order made
//! visible.
//!
//! Run with `cargo run --example xpath_queries`.

use xsdb::xdm::{cmp_document_order, DocumentOrderIndex};
use xsdb::xpath::{eval_guided, eval_naive, parse, XdmTree};
use xsdb::Database;

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="catalog">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="product" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="name" type="xs:string"/>
              <xs:element name="price" type="xs:decimal"/>
              <xs:element name="tag" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
            <xs:attribute name="sku" type="xs:string"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DOC: &str = r#"
<catalog>
  <product sku="A1"><name>Keyboard</name><price>49.90</price><tag>input</tag><tag>usb</tag></product>
  <product sku="A2"><name>Mouse</name><price>19.90</price><tag>input</tag></product>
  <product sku="B7"><name>Monitor</name><price>179.00</price><tag>display</tag></product>
  <product sku="C3"><name>Cable</name><price>4.50</price></product>
</catalog>"#;

fn main() {
    let mut db = Database::new();
    db.register_schema_text("catalog", SCHEMA).unwrap();
    db.insert("shop", "catalog", DOC).unwrap();

    let queries = [
        "/catalog/product/name",
        "/catalog/product[price>'20']/name",
        "/catalog/product[tag='input']/name",
        "/catalog/product[@sku='B7']/price",
        "//tag",
        "/catalog/product[2]/name",
        "/catalog/product[last()]/name",
        "/catalog/product[tag]/name",
        "/catalog/*/name",
    ];

    println!("queries through the database (cost-based planner over block storage):");
    for q in queries {
        println!("  {q:48} → {:?}", db.query("shop", q).unwrap());
    }

    // Same queries on the stored block storage directly, against the
    // XDM tree rebuilt from it (the oracle the test suites use).
    let storage = &db.document("shop").unwrap().storage;
    let (store, root) = xsdb::storage_to_tree(storage);
    let tree = XdmTree { store: &store, doc: root };
    println!("\nengine agreement (naive XDM vs naive storage vs guided storage):");
    for q in queries {
        let path = parse(q).unwrap();
        let a: Vec<String> =
            eval_naive(&tree, &path).iter().map(|&n| store.string_value(n)).collect();
        let b: Vec<String> =
            eval_naive(&storage, &path).iter().map(|&p| storage.string_value(p)).collect();
        let c: Vec<String> =
            eval_guided(storage, &path).iter().map(|&p| storage.string_value(p)).collect();
        assert_eq!(a, b, "{q}");
        assert_eq!(b, c, "{q}");
        println!("  {q:48} ✓ ({} hits)", a.len());
    }

    // §7: results come back in document order; show it three ways.
    let nodes = eval_naive(&tree, &parse("//tag").unwrap());
    let store = &store;
    let index = DocumentOrderIndex::build(store, root);
    println!("\ndocument order of //tag results:");
    for w in nodes.windows(2) {
        let by_walk = cmp_document_order(store, w[0], w[1]);
        let by_index = index.cmp(store, w[0], w[1]);
        assert_eq!(by_walk, by_index);
        println!(
            "  {:?} << {:?}  (pointer walk: {by_walk:?}, precomputed rank: {by_index:?})",
            store.string_value(w[0]),
            store.string_value(w[1]),
        );
    }
    // And the storage's label-based comparison agrees.
    let tags = eval_guided(storage, &parse("//tag").unwrap());
    for w in tags.windows(2) {
        assert_eq!(storage.cmp_doc_order(w[0], w[1]), std::cmp::Ordering::Less);
    }
    println!("  label-based comparison agrees ✓");
}
