//! The differential plan-equivalence harness: over random schemas,
//! random valid documents, and random XPath queries, every physical
//! strategy the planner can pick (guided descent, schema-path scan) —
//! and the cost-based choice itself — must return a node-set equal to
//! the naive evaluator's, node for node: the same descriptors in the
//! same order, hence equal under `=_c` and document order both. That order is §7 document order without
//! duplicates (strictly increasing), for every strategy.
//!
//! 32 generated cases × 10 generated queries ≥ 256 differential
//! checks per run, each exercising all three execution paths. The same
//! generated paths, as update targets, resolve through
//! `Database::update_targets` — the planned execution an update runs —
//! to the naive evaluator's sequence on the pre-state. Every
//! other query walks the document's own DataGuide, so it usually
//! selects something and its predicates — positional, existence and
//! comparisons against the document's own values and edge literals —
//! filter real nodes.

use std::cmp::Ordering;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xsdb::storage::{DescPtr, SchemaNodeId, XmlStorage};
use xsdb::xdm::{NodeKind, NodeStore};
use xsdb::xpath::{eval_naive, parse, XdmTree};
use xsdb::xquery::{plan_and_execute, PlanOptions, Strategy};
use xsdb::xsobs::{CounterId, Registry};
use xsdb::{load_document, Database, Document};

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

/// Comparison literals: numerals (the generator's `xs:int` values run
/// -1000..=1000), lexical values it emits (`s42`, `true`), and edges —
/// spellings Rust would read as numbers but XPath must not, padding,
/// exponents, the empty string.
const LITERALS: [&str; 16] = [
    "0", "-5", "500", "7.5", "1e2", " 10 ", "-0", "s5", "s50", "true", "false", "NaN", "inf",
    "Infinity", "", "10a",
];

/// A `[path op "literal"]` predicate over the document's vocabulary.
fn compare_predicate(rng: &mut TestRng, elems: &[String], attrs: &[String]) -> String {
    let path = match rng.below(5) {
        0 if !attrs.is_empty() => format!("@{}", pick(rng, attrs)),
        1 => "text()".to_string(),
        2 => ".".to_string(),
        3 => format!("{}/text()", pick(rng, elems)),
        _ => pick(rng, elems).to_string(),
    };
    let op = ["=", "!=", "<", "<=", ">", ">="][rng.below(6) as usize];
    let literal = LITERALS[rng.below(LITERALS.len() as u64) as usize];
    format!("[{path} {op} \"{literal}\"]")
}

/// A predicate over schema node `sn`'s own children, attributes and
/// text: positional, existence, or a comparison against a value the
/// document holds or an edge literal.
fn guide_predicate(
    rng: &mut TestRng,
    storage: &XmlStorage,
    sn: SchemaNodeId,
    values: &[String],
) -> String {
    let schema = storage.schema();
    let kids: Vec<&str> = schema
        .node(sn)
        .children
        .iter()
        .map(|&c| schema.node(c))
        .filter(|n| n.kind != NodeKind::Text)
        .map(|n| n.name.as_deref().unwrap_or_default())
        .collect();
    let literal = if values.is_empty() || rng.below(2) == 0 {
        LITERALS[rng.below(LITERALS.len() as u64) as usize].to_string()
    } else {
        values[rng.below(values.len() as u64) as usize].clone()
    };
    let op = ["=", "!=", "<", "<=", ">", ">="][rng.below(6) as usize];
    let lhs = match (rng.below(4), kids.is_empty()) {
        (0, false) => {
            let k = kids[rng.below(kids.len() as u64) as usize];
            // Attribute children are stored as `@name` steps.
            let is_attr = schema.node(sn).children.iter().any(|&c| {
                schema.node(c).kind == NodeKind::Attribute
                    && schema.node(c).name.as_deref() == Some(k)
            });
            if is_attr {
                format!("@{k}")
            } else {
                k.to_string()
            }
        }
        (1, _) => "text()".to_string(),
        (2, _) => ".".to_string(),
        _ => match kids.first() {
            Some(k) if rng.below(2) == 0 => format!("{k}/text()"),
            _ => ".".to_string(),
        },
    };
    match rng.below(6) {
        0 => format!("[{}]", 1 + rng.below(3)),
        1 => "[last()]".to_string(),
        2 if !lhs.contains('(') && lhs != "." => format!("[{lhs}]"),
        _ => format!("[{lhs} {op} \"{literal}\"]"),
    }
}

/// A query that follows the DataGuide's own edges from the document
/// element (or from `//` any element): child, attribute, `text()` and
/// parent steps, each child step with an occasional predicate.
fn guide_query(rng: &mut TestRng, storage: &XmlStorage, values: &[String]) -> String {
    let schema = storage.schema();
    let elements_under = |sn: SchemaNodeId| -> Vec<SchemaNodeId> {
        schema
            .node(sn)
            .children
            .iter()
            .copied()
            .filter(|&c| schema.node(c).kind == NodeKind::Element)
            .collect()
    };
    let name = |sn: SchemaNodeId| schema.node(sn).name.clone().unwrap_or_default();
    let (mut q, mut sn) = if rng.below(3) == 0 {
        let all: Vec<SchemaNodeId> =
            schema.ids().filter(|&id| schema.node(id).kind == NodeKind::Element).collect();
        let sn = all[rng.below(all.len() as u64) as usize];
        (format!("//{}", name(sn)), sn)
    } else {
        let sn = elements_under(schema.root())[0];
        (format!("/{}", name(sn)), sn)
    };
    if rng.below(2) == 0 {
        q.push_str(&guide_predicate(rng, storage, sn, values));
    }
    for _ in 0..rng.below(4) {
        let kids = elements_under(sn);
        match rng.below(8) {
            0 => {
                let attrs: Vec<String> = schema
                    .node(sn)
                    .children
                    .iter()
                    .filter(|&&c| schema.node(c).kind == NodeKind::Attribute)
                    .map(|&c| name(c))
                    .collect();
                if let Some(a) = attrs.first() {
                    q.push_str(&format!("/@{a}"));
                    return q;
                }
            }
            1 => {
                q.push_str("/text()");
                return q;
            }
            2 => match schema.node(sn).parent {
                Some(p) if p != schema.root() => {
                    q.push_str("/..");
                    sn = p;
                }
                _ => {}
            },
            _ if !kids.is_empty() => {
                sn = kids[rng.below(kids.len() as u64) as usize];
                q.push_str(&format!("/{}", name(sn)));
                if rng.below(2) == 0 {
                    q.push_str(&guide_predicate(rng, storage, sn, values));
                }
            }
            _ => return q,
        }
    }
    q
}

/// Every text and attribute value the document holds.
fn leaf_values(storage: &XmlStorage) -> Vec<String> {
    let schema = storage.schema();
    schema
        .ids()
        .filter(|&sn| matches!(schema.node(sn).kind, NodeKind::Text | NodeKind::Attribute))
        .flat_map(|sn| storage.scan(sn))
        .map(|p| storage.leaf_value(p).to_string())
        .collect()
}

/// A random query over the document's own vocabulary: absolute or
/// `//`-rooted, one to four steps mixing child, descendant, wildcard,
/// parent, attribute, and `text()` steps, with occasional positional,
/// `last()`, existence or comparison predicates.
fn random_query(rng: &mut TestRng, elems: &[String], attrs: &[String]) -> String {
    let mut q = String::new();
    if rng.below(3) == 0 {
        q.push_str("//");
    } else {
        q.push('/');
    }
    q.push_str(pick(rng, elems));
    if rng.below(4) == 0 {
        q.push_str(&compare_predicate(rng, elems, attrs));
    }
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
                match rng.below(10) {
                    0 => q.push_str("[1]"),
                    1 => q.push_str("[2]"),
                    2 => q.push_str("[last()]"),
                    3 => q.push_str(&format!("[{}]", pick(rng, elems))),
                    4 | 5 => q.push_str(&compare_predicate(rng, elems, attrs)),
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
        let tree = XdmTree { store: &loaded.store, doc: loaded.doc };
        let values = leaf_values(&storage);

        let mut rng = TestRng::for_case("plan_equivalence", seed);
        for i in 0..QUERIES_PER_CASE {
            let q = if i % 2 == 0 {
                random_query(&mut rng, &elems, &attrs)
            } else {
                guide_query(&mut rng, &storage, &values)
            };
            let path = parse(&q).unwrap();
            let naive = eval_naive(&&storage, &path);
            // The storage oracle is the tree oracle: the same nodes, by
            // kind, name and string value, in the same order.
            let over_tree: Vec<_> = eval_naive(&tree, &path)
                .into_iter()
                .map(|n| {
                    let st = &loaded.store;
                    (st.kind(n), st.node_name(n).map(str::to_string), st.string_value(n))
                })
                .collect();
            let over_storage: Vec<_> = naive
                .iter()
                .map(|&p| {
                    (storage.kind(p), storage.node_name(p).map(str::to_string), storage.string_value(p))
                })
                .collect();
            prop_assert_eq!(over_storage, over_tree, "storage and tree oracles differ on {}", q);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An update resolves its target path with the plan `QUERY` runs:
    /// for every generated path, the targets equal the naive
    /// evaluator's on the pre-state, node for node and in order.
    #[test]
    fn update_targets_are_the_naive_sequence(case in CaseGen, seed in 0u64..1_000_000) {
        let mut db = Database::new();
        db.register_schema("s", case.schema.clone()).unwrap();
        db.insert("d", "s", &case.xml).unwrap();
        let storage = &db.document("d").unwrap().storage;
        let (elems, attrs) = guide_names(storage);
        let values = leaf_values(storage);

        let mut rng = TestRng::for_case("plan_equivalence_update", seed);
        for i in 0..QUERIES_PER_CASE {
            let q = if i % 2 == 0 {
                random_query(&mut rng, &elems, &attrs)
            } else {
                guide_query(&mut rng, storage, &values)
            };
            let naive = eval_naive(&storage, &parse(&q).unwrap());
            for update in [format!("delete node {q}"), format!("replace value of node {q} with \"v\"")] {
                let upd = xsdb::xquery::parse_update(&update).unwrap();
                let targets = db.update_targets("d", &upd).unwrap();
                prop_assert_eq!(&targets, &naive, "{}\nxml: {}", update, case.xml);
            }
        }
    }
}

/// A target the document's DataGuide cannot reach prunes its plan: the
/// update executes zero operators, counts one pruned plan and no
/// planned step, and applies to nothing. A target no valid document
/// reaches (`/library/dvd`) is refused by the static check before any
/// plan is built. Planned steps count on the two live step counters;
/// the retired Dewey and postings counters read 0 throughout.
#[test]
fn statically_empty_update_target_runs_zero_operators() {
    let obs = std::sync::Arc::new(Registry::new());
    let mut db = Database::with_metrics_registry(std::sync::Arc::clone(&obs));
    db.register_schema_text("lib", include_str!("../../../fixtures/lint/clean.xsd")).unwrap();
    let xml = "<library><book><title>t</title><author>a</author></book></library>";
    db.insert("d", "lib", xml).unwrap();
    let plans = || {
        let m = obs.snapshot();
        // The two retired step counters stay in the export and read 0.
        for retired in [CounterId::PlanStepsDewey, CounterId::PlanStepsPostings] {
            assert_eq!(m.counter(retired), 0, "{retired:?}");
        }
        let steps = [CounterId::PlanStepsGuided, CounterId::PlanStepsSchemaPath];
        let steps: u64 = steps.into_iter().map(|c| m.counter(c)).sum();
        (m.counter(CounterId::PlanQueries), m.counter(CounterId::PlanPruned), steps)
    };
    let outcome = db.execute_update("d", "delete node /library/book/isbn").unwrap();
    assert_eq!((outcome.nodes, outcome.revalidated), (0, 0));
    assert_eq!(plans(), (1, 1, 0), "(plans, pruned, planned steps)");
    assert!(db.execute_update("d", "delete node /library/dvd").is_err());
    assert_eq!(plans(), (1, 1, 0), "a refused update plans nothing");
    assert_eq!(db.serialize("d").unwrap(), xml);
    // A planned query (two schema-path steps) and a planned update
    // target (one schema-path step, two guided) count on the live
    // counters only.
    assert_eq!(db.query("d", "//title").unwrap(), ["t"]);
    db.execute_update("d", r#"replace value of node /library/book[1]/title with "u""#).unwrap();
    assert_eq!(plans(), (3, 1, 5), "(plans, pruned, planned steps)");
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
