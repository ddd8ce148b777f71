//! Schema-driven generative testing of the paper's core theorems.
//!
//! Instead of fixed schema families, each case derives a *random*
//! `DocumentSchema` (bounded depth, fanout, and occurrence ranges over
//! sequence/choice/all groups, attributes, mixed and simple content,
//! nillable declarations) and then derives a random document that is
//! valid by construction. The case then checks, per the paper:
//!
//! * §3 — the generated schema is well-formed (`wellformed::check`);
//! * §6.2 — the validator accepts the document (`load_document` is `Ok`);
//! * §8 — the round-trip theorem `g(f(X)) =_c X` (`check_roundtrip`);
//! * §7 — the loaded tree satisfies the document-order axioms
//!   (`check_order_axioms` returns `None`).
//!
//! A second property drives the same cases through the [`Database`]
//! façade, where the block storage is the only stored form: `g` is
//! computed from descriptors, and after every kind of update the
//! planner's answers are compared with the naive evaluator over the XDM
//! tree rebuilt by `storage_to_tree` — the oracle — and the paged
//! save/load cycle must reproduce the document.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use xsdb::storage::XmlStorage;
use xsdb::xdm::{check_order_axioms, NodeKind};
use xsdb::xpath::{eval_naive, parse, XdmTree};
use xsdb::xsmodel::ast::{
    CombinationFactor, ComplexTypeDefinition, GroupDefinition, Particle, Type,
};
use xsdb::{check_roundtrip, content_equal, load_document, xsmodel, Database, Document};

mod common;
use common::CaseGen;

/// Every DataGuide path of the stored document, as a child-axis XPath
/// (`/a/b`, `/a/b/@c`, `/a/b/text()`), with the element ones split into
/// their names as well.
fn guide_paths(storage: &XmlStorage) -> (Vec<String>, Vec<Vec<String>>) {
    let guide = storage.schema();
    let (mut all, mut elements) = (Vec::new(), Vec::new());
    for id in guide.ids().filter(|&id| id != guide.root()) {
        let path = guide.path_of(id);
        if guide.node(id).kind == NodeKind::Element {
            elements.push(path[1..].split('/').map(str::to_string).collect());
        }
        all.push(path);
    }
    (all, elements)
}

/// `Database::query` against the oracle: the naive evaluator over the
/// XDM tree rebuilt from the stored descriptors. Every shape — child
/// paths and the three multi-step descendant shapes — must agree as a
/// sequence (§7 document order, no duplicates).
fn check_queries(db: &Database, xml: &str) -> Result<(), TestCaseError> {
    let storage = &db.document("d").expect("stored").storage;
    let (store, doc) = xsdb::storage_to_tree(storage);
    let tree = XdmTree { store: &store, doc };
    let oracle = |q: &str| -> Vec<String> {
        let path = parse(q).expect("derived query parses");
        eval_naive(&tree, &path).into_iter().map(|n| store.string_value(n)).collect()
    };
    let (all, elements) = guide_paths(storage);
    for q in &all {
        prop_assert_eq!(db.query("d", q).expect("query runs"), oracle(q), "{}\nxml: {}", q, xml);
    }
    for names in elements.iter().filter(|n| n.len() >= 3) {
        let (a, b, c) = (&names[names.len() - 3], &names[names.len() - 2], &names[names.len() - 1]);
        let prefix = names[..names.len() - 1].join("/");
        for q in
            [format!("//{a}/{b}/{c}"), format!("//{a}[{b}]/{b}/{c}"), format!("/{prefix}//{c}")]
        {
            prop_assert_eq!(
                db.query("d", &q).expect("query runs"),
                oracle(&q),
                "{}\nxml: {}",
                q,
                xml
            );
        }
    }
    Ok(())
}

/// `save_dir` → `load_dir` (which re-validates through `f`) reproduces
/// the stored document.
fn check_reload(db: &Database, dir: &std::path::Path) -> Result<(), TestCaseError> {
    db.save_dir(dir).expect("save");
    let restored = Database::load_dir(dir).expect("load re-validates the stored document");
    prop_assert_eq!(restored.serialize("d").expect("g"), db.serialize("d").expect("g"));
    Ok(())
}

/// Candidate update texts of one kind (0..7, the seven `UpdateExpr`
/// variants), derived from what the document currently holds.
fn updates_of_kind(kind: usize, storage: &XmlStorage) -> Vec<String> {
    let (all, elements) = guide_paths(storage);
    if kind == 3 {
        return all
            .iter()
            .filter_map(|p| p.rsplit_once("/@"))
            .map(|(owner, attr)| format!(r#"insert attribute {attr}="1" into {owner}"#))
            .collect();
    }
    elements
        .iter()
        .filter(|names| names.len() >= 2)
        .map(|names| {
            let p = format!("/{}", names.join("/"));
            let parent = format!("/{}", names[..names.len() - 1].join("/"));
            let n = &names[names.len() - 1];
            match kind {
                0 => format!("insert node <{n}>1</{n}> into {parent}"),
                1 => format!("insert node <{n}>1</{n}> before {p}"),
                2 => format!("insert node <{n}>1</{n}> after {p}"),
                4 => format!("delete node {p}"),
                5 => format!("replace node {p} with <{n}>1</{n}>"),
                _ => format!(r#"replace value of node {p} with "1""#),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The full pipeline on generator output: well-formed schema (§3),
    /// validator acceptance (§6.2), round-trip (§8), order axioms (§7).
    #[test]
    fn generated_documents_validate_and_roundtrip(case in CaseGen) {
        // §3: the derived schema is well-formed.
        let issues = xsmodel::wellformed::check(&case.schema);
        prop_assert!(issues.is_empty(), "schema issues: {issues:?}\nxml: {}", case.xml);

        let doc = match Document::parse(&case.xml) {
            Ok(d) => d,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("generated XML failed to parse: {e}\nxml: {}", case.xml))),
        };

        // §6.2: the document is valid by construction, so f accepts it.
        let loaded = match load_document(&case.schema, &doc) {
            Ok(l) => l,
            Err(errs) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("validator rejected generated document: {errs:?}\nxml: {}", case.xml))),
        };

        // §8: g(f(X)) =_c X.
        match check_roundtrip(&case.schema, &doc) {
            Ok(out) => prop_assert!(
                content_equal(&doc, &out),
                "round-trip not content-equal\n in: {}\nout: {}", case.xml, out.to_xml()
            ),
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("round-trip failed: {e}\nxml: {}", case.xml))),
        }

        // §7: document-order axioms hold on the loaded tree.
        let axioms = check_order_axioms(&loaded.store, loaded.doc);
        prop_assert!(axioms.is_none(), "order axiom violated: {axioms:?}\nxml: {}", case.xml);
    }

    /// Loading is deterministic on generator output: two loads serialize
    /// identically (f is a function, §5).
    #[test]
    fn generated_loads_are_deterministic(case in CaseGen) {
        let doc = Document::parse(&case.xml).expect("generated XML parses");
        let (Ok(a), Ok(b)) = (load_document(&case.schema, &doc), load_document(&case.schema, &doc))
        else {
            return Err(proptest::test_runner::TestCaseError::fail("load failed"));
        };
        let sa = xsdb::serialize_tree(&a.store, a.doc).to_xml();
        let sb = xsdb::serialize_tree(&b.store, b.doc).to_xml();
        prop_assert_eq!(sa, sb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The single stored form through the façade: `g(f(X)) =_c X` from
    /// descriptors, then per update kind the first candidate the static
    /// checker lets commit, with queries and the save/load cycle checked
    /// after each.
    #[test]
    fn database_facade_agrees_with_the_tree_oracle(case in CaseGen) {
        let dir = std::env::temp_dir().join(format!("xsdb-gen-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::new();
        db.register_schema("s", case.schema.clone()).expect("generated schema is well-formed");
        db.insert("d", "s", &case.xml).expect("generated document is valid");

        let input = Document::parse(&case.xml).expect("generated XML parses");
        let output = Document::parse(&db.serialize("d").expect("g")).expect("g emits XML");
        prop_assert!(content_equal(&input, &output), "in: {}\nout: {}", case.xml, output.to_xml());
        check_queries(&db, &case.xml)?;
        check_reload(&db, &dir)?;

        for kind in 0..7 {
            let storage = &db.document("d").expect("stored").storage;
            for update in updates_of_kind(kind, storage) {
                // Static rejections and rolled-back rechecks leave the
                // document as it was; move on to the next candidate.
                if db.execute_update("d", &update).is_ok() {
                    break;
                }
            }
            check_queries(&db, &case.xml)?;
            check_reload(&db, &dir)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The generator is not trivial: over a handful of cases it exercises
/// choice, all-groups, mixed content, attributes, and nillable leaves.
#[test]
fn generator_covers_the_interesting_constructs() {
    let (mut choice, mut all, mut mixed, mut attrs, mut nillable) =
        (false, false, false, false, false);
    for case_no in 0..64u64 {
        let mut rng = TestRng::for_case("coverage_probe", case_no);
        let case = CaseGen.generate(&mut rng);
        for def in case.schema.complex_types.values() {
            if let ComplexTypeDefinition::ComplexContent { mixed: m, content, .. } = def {
                mixed |= *m;
                fn walk(g: &GroupDefinition, choice: &mut bool, all: &mut bool) {
                    *choice |= g.combination == CombinationFactor::Choice;
                    *all |= g.combination == CombinationFactor::All;
                    for p in &g.particles {
                        if let Particle::Group(sub) = p {
                            walk(sub, choice, all);
                        }
                    }
                }
                walk(content, &mut choice, &mut all);
                for e in content.element_declarations() {
                    nillable |= e.nillable;
                    let _: &Type = &e.ty;
                }
            }
            attrs |= !def.attributes().is_empty();
        }
    }
    assert!(choice, "no choice groups generated in 64 cases");
    assert!(all, "no all-groups generated in 64 cases");
    assert!(mixed, "no mixed content generated in 64 cases");
    assert!(attrs, "no attributes generated in 64 cases");
    assert!(nillable, "no nillable declarations generated in 64 cases");
}

#[test]
#[ignore]
fn debug_dump_case() {
    let case_no: u64 = std::env::var("CASE").unwrap().parse().unwrap();
    let name = std::env::var("NAME").unwrap();
    let mut rng = TestRng::for_case(&name, case_no);
    let case = CaseGen.generate(&mut rng);
    println!("xml: {}", case.xml);
    println!("root: {:?}", case.schema.root);
    for (n, d) in &case.schema.complex_types {
        println!("type {n}: {d:?}");
    }
}
