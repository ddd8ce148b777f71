//! Statistics-invariant property tests: the catalog statistics the
//! planner costs against are maintained *incrementally* by every
//! mutator, and the invariant is that after any mutation sequence they
//! are **exactly** what a from-scratch rebuild derives — same
//! cardinalities, same fanout counts, bucket-identical histograms.
//! A second family pins the staleness protocol: a plan built before a
//! mutation refuses to execute after it, and `Database::query` always
//! re-plans, so a post-update query never runs against pre-update
//! cardinalities.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xsdb::storage::XmlStorage;
use xsdb::xdm::NodeKind;
use xsdb::xpath::parse;
use xsdb::xquery::{plan, PlanOptions};
use xsdb::{Database, Mutation, SharedDatabase};

mod common;
use common::CaseGen;

/// All element descriptors except the document node and the root
/// element (the root may not be deleted).
fn inner_elements(storage: &XmlStorage) -> Vec<xsdb::storage::DescPtr> {
    let root_elem = storage.children(storage.root())[0];
    storage
        .subtree(storage.root())
        .into_iter()
        .filter(|&p| storage.kind(p) == NodeKind::Element && p != root_elem)
        .collect()
}

/// Text and attribute descriptors — the targets `set_text` accepts.
fn leaves(storage: &XmlStorage) -> Vec<xsdb::storage::DescPtr> {
    let mut out = Vec::new();
    for p in storage.subtree(storage.root()) {
        if storage.kind(p) == NodeKind::Text {
            out.push(p);
        }
        if storage.kind(p) == NodeKind::Element {
            out.extend(storage.attributes(p));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw storage mutators: after every single operation of a random
    /// insert/set/delete sequence, the incrementally maintained catalog
    /// equals a from-scratch rebuild, exactly.
    #[test]
    fn incremental_stats_equal_rebuild_after_raw_mutations(
        books in 1usize..10,
        ops in 1usize..30,
        seed in 0u64..1_000_000,
    ) {
        let (store, doc) = bench::build_library_tree(books, 2, seed);
        let mut storage = XmlStorage::from_tree_with_capacity(&store, doc, 8);
        prop_assert_eq!(storage.stats().clone(), storage.rebuild_stats());

        let mut rng = TestRng::for_case("stats_invariants", seed);
        let names = ["title", "author", "issue", "note", "year"];
        for op in 0..ops {
            let lib = storage.children(storage.root())[0];
            match rng.below(5) {
                0 => {
                    let name = names[rng.below(names.len() as u64) as usize];
                    let e = storage.insert_element(lib, None, name).unwrap();
                    storage.insert_text(e, None, format!("v{op}")).unwrap();
                }
                1 => {
                    let es = inner_elements(&storage);
                    if !es.is_empty() {
                        let target = es[rng.below(es.len() as u64) as usize];
                        storage
                            .insert_attribute(target, &format!("a{}", rng.below(3)), "w")
                            .unwrap();
                    }
                }
                2 => {
                    let ls = leaves(&storage);
                    if !ls.is_empty() {
                        let target = ls[rng.below(ls.len() as u64) as usize];
                        storage.set_text(target, format!("{}", 1980 + rng.below(60))).unwrap();
                    }
                }
                3 => {
                    let es = inner_elements(&storage);
                    if !es.is_empty() {
                        let target = es[rng.below(es.len() as u64) as usize];
                        storage.delete(target).unwrap();
                    }
                }
                _ => {
                    let name = names[rng.below(names.len() as u64) as usize];
                    storage.insert_element(lib, None, name).unwrap();
                }
            }
            prop_assert_eq!(
                storage.stats().clone(), storage.rebuild_stats(),
                "incremental stats diverged from rebuild after op {}", op
            );
        }
        prop_assert_eq!(storage.check_invariants(), None);
    }

    /// Loading any generated document yields stats that match a rebuild
    /// (the load path *is* incremental maintenance, node by node).
    #[test]
    fn generated_documents_load_with_exact_stats(case in CaseGen) {
        let doc = xsdb::Document::parse(&case.xml).unwrap();
        let loaded = xsdb::load_document(&case.schema, &doc).unwrap();
        let storage = XmlStorage::from_tree(&loaded.store, loaded.doc);
        prop_assert_eq!(storage.stats().clone(), storage.rebuild_stats());
        prop_assert_eq!(storage.check_invariants(), None);
    }

    /// Database-level `Mutation` sequences (the WAL/replication
    /// vocabulary): whatever subset applies cleanly, every stored
    /// document's catalog still equals a rebuild afterwards.
    #[test]
    fn mutation_sequences_preserve_stats(ops in 1usize..25, seed in 0u64..1_000_000) {
        const XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="author" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
            <xs:attribute name="id" type="xs:string"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
        let sh = SharedDatabase::new(Database::new());
        sh.apply(&Mutation::RegisterSchema { name: "lib".into(), xsd: XSD.into() }).unwrap();
        sh.apply(&Mutation::Insert {
            doc: "d".into(),
            schema: "lib".into(),
            xml: "<library><book id=\"b0\"><title>t0</title></book></library>".into(),
        })
        .unwrap();

        let mut rng = TestRng::for_case("stats_mutations", seed);
        for op in 0..ops {
            let m = match rng.below(5) {
                0 => Mutation::UpdateInsert {
                    doc: "d".into(),
                    parent: "/library".into(),
                    name: "book".into(),
                    text: None,
                },
                1 => Mutation::UpdateInsert {
                    doc: "d".into(),
                    parent: format!("/library/book[{}]", 1 + rng.below(4)),
                    name: "author".into(),
                    text: Some(format!("a{op}")),
                },
                2 => Mutation::UpdateSetAttr {
                    doc: "d".into(),
                    xpath: format!("/library/book[{}]", 1 + rng.below(4)),
                    attr: "id".into(),
                    value: format!("b{op}"),
                },
                3 => Mutation::UpdateSetText {
                    doc: "d".into(),
                    xpath: format!("/library/book[{}]/title", 1 + rng.below(4)),
                    value: format!("t{op}"),
                },
                _ => Mutation::UpdateDelete {
                    doc: "d".into(),
                    xpath: format!("/library/book[{}]/author[1]", 1 + rng.below(4)),
                },
            };
            // Statically unsafe or empty-target updates may be refused —
            // the invariant is about whatever actually applied.
            let _ = sh.apply(&m);
            let db = sh.read();
            let storage = &db.document("d").unwrap().storage;
            prop_assert_eq!(
                storage.stats().clone(), storage.rebuild_stats(),
                "stats diverged after mutation {} ({m:?})", op
            );
            prop_assert_eq!(storage.check_invariants(), None);
        }
    }
}

/// A plan carries the catalog generation it was costed against; once
/// any mutation bumps the store's tick, executing that plan panics
/// instead of silently running against pre-update cardinalities.
#[test]
fn stale_plan_refuses_to_execute_after_mutation() {
    let (store, doc) = bench::build_library_tree(4, 1, 7);
    let mut storage = XmlStorage::from_tree(&store, doc);
    let path = parse("/library/book/title").unwrap();
    let stale = plan(&storage, &path, &PlanOptions::default());

    let lib = storage.children(storage.root())[0];
    storage.insert_element(lib, None, "book").unwrap();

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stale.execute(&storage);
    }))
    .expect_err("a stale plan executed against newer statistics");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("stale query plan"), "unexpected panic: {msg}");

    // A fresh plan over the mutated store is valid and sees the update.
    let fresh = plan(&storage, &path, &PlanOptions::default());
    assert_eq!(fresh.generation(), storage.tick());
}

/// `Database::query` re-plans per call: a query issued after an update
/// reflects the new cardinalities immediately, and `EXPLAIN` shows a
/// newer statistics generation.
#[test]
fn database_replans_after_update() {
    const XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    let mut db = Database::new();
    db.register_schema_text("lib", XSD).unwrap();
    db.insert("d", "lib", "<library><book><title>one</title></book></library>").unwrap();

    let before = db.explain_query("d", "/library/book/title").unwrap();
    let gen_of = |explain: &str| -> u64 {
        let tail = explain.split("stats generation ").nth(1).unwrap();
        tail.split_whitespace().next().unwrap().parse().unwrap()
    };
    assert_eq!(db.query("d", "/library/book/title").unwrap().len(), 1);

    let book = db.update_insert_element("d", "/library", "book", None).unwrap();
    assert_eq!(book, 1);
    db.update_insert_element("d", "/library/book[2]", "title", Some("two")).unwrap();

    // The post-update query sees both titles — it planned (and ran)
    // against the post-update catalog, never the stale one.
    assert_eq!(db.query("d", "/library/book/title").unwrap(), vec!["one", "two"]);
    let after = db.explain_query("d", "/library/book/title").unwrap();
    assert!(
        gen_of(&after) > gen_of(&before),
        "explain generation did not advance: {before} vs {after}"
    );
    assert!(after.contains("rows=2"), "post-update explain missed a row:\n{after}");
}
