//! The differential plan-equivalence harness: over random schemas,
//! random valid documents, and random XPath queries, every physical
//! strategy the planner can pick (guided descent, Dewey-range scan,
//! postings probe, schema-path scan) — and the cost-based choice itself
//! — must return a node-set equal to the naive evaluator's, node for
//! node: the same descriptors in the same order, hence equal under `=_c`
//! and document order both. That order is §7 document order without
//! duplicates (strictly increasing), for every strategy.
//!
//! 32 generated cases × 10 generated queries ≥ 256 differential
//! checks per run, each exercising all five execution paths.

use std::cmp::Ordering;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xsdb::storage::{DescPtr, XmlStorage};
use xsdb::xdm::{NodeKind, NodeStore};
use xsdb::xpath::{eval_naive, parse, XdmTree};
use xsdb::xquery::{plan_and_execute, PlanOptions, Strategy};
use xsdb::{load_document, Document};

mod common;
use common::CaseGen;

const QUERIES_PER_CASE: u64 = 10;

/// Element and attribute names that actually occur in the document,
/// read off its DataGuide — the raw material for query generation.
fn guide_names(storage: &XmlStorage) -> (Vec<String>, Vec<String>) {
    let schema = storage.schema();
    let (mut elems, mut attrs) = (Vec::new(), Vec::new());
    for id in schema.ids() {
        let node = schema.node(id);
        match (&node.name, node.kind) {
            (Some(n), NodeKind::Element) => elems.push(n.clone()),
            (Some(n), NodeKind::Attribute) => attrs.push(n.clone()),
            _ => {}
        }
    }
    (elems, attrs)
}

/// Strictly increasing in §7 document order: sorted and duplicate-free.
fn in_document_order(storage: &XmlStorage, nodes: &[DescPtr]) -> bool {
    nodes.windows(2).all(|w| storage.cmp_doc_order(w[0], w[1]) == Ordering::Less)
}

fn pick<'a>(rng: &mut TestRng, names: &'a [String]) -> &'a str {
    &names[rng.below(names.len() as u64) as usize]
}

/// A random query over the document's own vocabulary: absolute or
/// `//`-rooted, one to four steps mixing child, descendant, wildcard,
/// parent, attribute, and `text()` steps, with occasional positional,
/// `last()`, or existence predicates.
fn random_query(rng: &mut TestRng, elems: &[String], attrs: &[String]) -> String {
    let mut q = String::new();
    if rng.below(3) == 0 {
        q.push_str("//");
    } else {
        q.push('/');
    }
    q.push_str(pick(rng, elems));
    for _ in 0..rng.below(3) {
        match rng.below(9) {
            0 => q.push_str("/*"),
            1 => q.push_str("/.."),
            2 => {
                q.push_str("//");
                q.push_str(pick(rng, elems));
            }
            3 if !attrs.is_empty() => {
                q.push_str("/@");
                q.push_str(pick(rng, attrs));
                return q;
            }
            4 => {
                q.push_str("/text()");
                return q;
            }
            5 => {
                q.push_str("/descendant::");
                q.push_str(if rng.below(2) == 0 { "*" } else { pick(rng, elems) });
            }
            _ => {
                q.push('/');
                q.push_str(pick(rng, elems));
                match rng.below(8) {
                    0 => q.push_str("[1]"),
                    1 => q.push_str("[2]"),
                    2 => q.push_str("[last()]"),
                    3 => q.push_str(&format!("[{}]", pick(rng, elems))),
                    _ => {}
                }
            }
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every strategy — forced and chosen — replays the naive
    /// evaluator's node-set exactly.
    #[test]
    fn all_strategies_agree_with_naive(case in CaseGen, seed in 0u64..1_000_000) {
        let doc = Document::parse(&case.xml).unwrap();
        let loaded = load_document(&case.schema, &doc).unwrap();
        let storage = XmlStorage::from_tree(&loaded.store, loaded.doc);
        let (elems, attrs) = guide_names(&storage);
        prop_assert!(!elems.is_empty());

        let mut rng = TestRng::for_case("plan_equivalence", seed);
        for _ in 0..QUERIES_PER_CASE {
            let q = random_query(&mut rng, &elems, &attrs);
            let path = parse(&q).unwrap();
            let naive = eval_naive(&&storage, &path);
            for s in Strategy::ALL {
                let opts = PlanOptions { force: Some(s), ..PlanOptions::default() };
                let (_, exec) = plan_and_execute(&storage, &path, &opts);
                prop_assert_eq!(
                    &exec.nodes, &naive,
                    "forced {} disagrees with naive on {}\nxml: {}",
                    s.name(), q, case.xml
                );
                prop_assert!(
                    in_document_order(&storage, &exec.nodes),
                    "forced {} is out of document order on {}\nxml: {}",
                    s.name(), q, case.xml
                );
            }
            let (plan, exec) = plan_and_execute(&storage, &path, &PlanOptions::default());
            prop_assert_eq!(
                &exec.nodes, &naive,
                "chosen plan {:?} disagrees with naive on {}\nxml: {}",
                plan.steps().iter().map(|s| s.strategy.name()).collect::<Vec<_>>(),
                q, case.xml
            );
            prop_assert!(
                in_document_order(&storage, &exec.nodes),
                "chosen plan is out of document order on {}\nxml: {}",
                q, case.xml
            );
            // `=_c` is content equality: the string values agree too
            // (trivially, given node identity — asserted for the record).
            let names: Vec<String> =
                exec.nodes.iter().map(|&p| storage.string_value(p)).collect();
            let want: Vec<String> =
                naive.iter().map(|&p| storage.string_value(p)).collect();
            prop_assert_eq!(names, want);
        }
    }

    /// The chosen plan never does worse than 1.1× the best forced
    /// strategy on the very corpora the equivalence harness generates —
    /// the E16 guard property, checked off the benchmark path too.
    #[test]
    fn chosen_plan_is_near_best_forced(case in CaseGen, seed in 0u64..1_000_000) {
        let doc = Document::parse(&case.xml).unwrap();
        let loaded = load_document(&case.schema, &doc).unwrap();
        let storage = XmlStorage::from_tree(&loaded.store, loaded.doc);
        let (elems, attrs) = guide_names(&storage);
        prop_assert!(!elems.is_empty());

        let mut rng = TestRng::for_case("plan_equivalence_cost", seed);
        for _ in 0..QUERIES_PER_CASE {
            let q = random_query(&mut rng, &elems, &attrs);
            let path = parse(&q).unwrap();
            let best = Strategy::ALL
                .iter()
                .map(|&s| {
                    let opts = PlanOptions { force: Some(s), ..PlanOptions::default() };
                    plan_and_execute(&storage, &path, &opts).1.work
                })
                .min()
                .unwrap();
            let (_, chosen) = plan_and_execute(&storage, &path, &PlanOptions::default());
            prop_assert!(
                chosen.work as f64 <= 1.1 * best.max(1) as f64,
                "chosen plan spent {} work, best forced {} on {}\nxml: {}",
                chosen.work, best, q, case.xml
            );
        }
    }
}

/// A recursive DataGuide: `section`s nest, so `//section/heading` lands
/// on one schema node per depth and its instances interleave across
/// contexts. Grouping results by context (the order every evaluator
/// returned before the document-order union) puts the outer section's
/// trailing heading before the nested one; every strategy, the chosen
/// plan, and both oracles must return §7 order instead.
#[test]
fn recursive_schema_results_come_back_in_document_order() {
    let mut s = NodeStore::new();
    let doc = s.new_document(None);
    let root = s.new_element(doc, "doc");
    let mut n = 0;
    let mut heading = |s: &mut NodeStore, parent| {
        n += 1;
        let h = s.new_element(parent, "heading");
        s.new_text(h, format!("h{n}"));
    };
    for _ in 0..2 {
        let outer = s.new_element(root, "section");
        heading(&mut s, outer);
        let inner = s.new_element(outer, "section");
        heading(&mut s, inner);
        let innermost = s.new_element(inner, "section");
        heading(&mut s, innermost);
        s.new_element(innermost, "para");
        heading(&mut s, inner);
        heading(&mut s, outer);
        s.new_element(outer, "para");
    }
    let storage = XmlStorage::from_tree(&s, doc);
    let tree = XdmTree { store: &s, doc };
    let want: Vec<String> = (1..=10).map(|i| format!("h{i}")).collect();
    for q in ["//section/heading", "//section[para]/heading", "/doc/section//heading", "//heading"]
    {
        let path = parse(q).unwrap();
        let oracle: Vec<String> =
            eval_naive(&tree, &path).into_iter().map(|id| s.string_value(id)).collect();
        let naive = eval_naive(&&storage, &path);
        let values = |nodes: &[DescPtr]| -> Vec<String> {
            nodes.iter().map(|&p| storage.string_value(p)).collect()
        };
        assert_eq!(values(&naive), oracle, "{q}: storage and tree oracles differ");
        assert!(in_document_order(&storage, &naive), "{q}: naive out of order");
        let forced = Strategy::ALL.into_iter().map(Some);
        for force in std::iter::once(None).chain(forced) {
            let opts = PlanOptions { force, ..PlanOptions::default() };
            let (_, exec) = plan_and_execute(&storage, &path, &opts);
            assert_eq!(exec.nodes, naive, "{q} forced {force:?}");
        }
        if q != "//section[para]/heading" {
            assert_eq!(values(&naive), want, "{q}");
        }
    }
    // Sections with a `para` child: the outer two and the innermost two.
    let path = parse("//section[para]/heading").unwrap();
    let got: Vec<String> =
        eval_naive(&&storage, &path).iter().map(|&p| storage.string_value(p)).collect();
    assert_eq!(got, ["h1", "h3", "h5", "h6", "h8", "h10"]);
    // An explicit descendant step from a frontier that nests in itself:
    // the inner sections are both context nodes and descendants.
    for (q, want) in [("//section/descendant::section", 4), ("//section/descendant::*", 18)] {
        let path = parse(q).unwrap();
        let naive = eval_naive(&&storage, &path);
        assert_eq!(naive.len(), eval_naive(&tree, &path).len(), "{q}: oracles differ");
        assert_eq!(naive.len(), want, "{q}");
        let forced = Strategy::ALL.into_iter().map(Some);
        for force in std::iter::once(None).chain(forced) {
            let opts = PlanOptions { force, ..PlanOptions::default() };
            let (_, exec) = plan_and_execute(&storage, &path, &opts);
            assert_eq!(exec.nodes, naive, "{q} forced {force:?}");
        }
    }
}
