//! The experiment driver: regenerates every table recorded in
//! EXPERIMENTS.md (E1–E11) and prints them as aligned rows.
//!
//! Run with `cargo run -p bench --release --bin experiments`
//! (optionally pass experiment ids, e.g. `e3 e6`, to run a subset).
//! `e11 --guard` turns E11 into a CI gate: it exits non-zero when the
//! enabled-metrics overhead exceeds its budget. `e13 --guard` does the
//! same for the paged-storage O(1)-pages-per-update bound,
//! `e14 --guard` for the snapshot-read/WAL-commit latency bounds,
//! `e15 --guard` for the static-update-checking revalidation bounds
//! (Accept revalidates nothing; Recheck revalidates one content model),
//! and `e16 --guard` for the query-planner bound (the cost-based choice
//! spends at most 1.1× the work of the best forced strategy, and
//! statically-empty paths execute zero operators), and `e17 --guard`
//! for the event-driven server bounds (thousands of parked idle
//! connections burn no measurable CPU; p99 stays bounded at mid
//! offered load; pipelining depth >1 is observed at the parser).

use std::time::Instant;

use bench::{build_deep_tree, build_library_tree, sample_pairs, Family, NaiveDewey};
use xsdb::storage::{DescriptiveSchema, XmlStorage};
use xsdb::xdm::cmp_document_order;
use xsdb::xpath::{eval_guided, eval_naive, parse, XdmTree};
use xsdb::{check_roundtrip, load_document, parse_schema_text, Document};

fn main() {
    let all: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let guard = all.iter().any(|a| a == "--guard");
    let args: Vec<String> = all.into_iter().filter(|a| !a.starts_with("--")).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    println!("xsdb experiment suite — every table of EXPERIMENTS.md");
    println!("(release-mode wall clock; see benches/ for the Criterion versions)");
    if want("e1") {
        e1_roundtrip();
    }
    if want("e2") {
        e2_validate();
    }
    if want("e3") {
        e3_doc_order();
    }
    if want("e4") {
        e4_ancestor();
    }
    if want("e5") {
        e5_xpath();
    }
    if want("e6") {
        e6_updates();
    }
    if want("e7") {
        e7_dataguide();
    }
    if want("e8") {
        e8_accessors();
    }
    if want("e9") {
        e9_block_capacity();
    }
    if want("e10") {
        e10_analysis_cost();
    }
    if want("e11") {
        e11_obs_overhead(guard);
    }
    if want("e12") {
        e12_server_throughput();
    }
    if want("e13") {
        e13_paged_updates(guard);
    }
    if want("e14") {
        e14_snapshot_reads(guard);
    }
    if want("e15") {
        e15_static_updates(guard);
    }
    if want("e16") {
        e16_query_planner(guard);
    }
    if want("e17") {
        e17_event_loop(guard);
    }
}

/// Time one closure, returning (result, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Time `f` repeated until ≥ `min_runs` and ≥ 50 ms, returning seconds
/// per run.
fn per_run(min_runs: usize, mut f: impl FnMut()) -> f64 {
    let mut runs = 0usize;
    let start = Instant::now();
    while runs < min_runs || start.elapsed().as_secs_f64() < 0.05 {
        f();
        runs += 1;
    }
    start.elapsed().as_secs_f64() / runs as f64
}

fn tree_nodes(family: Family, size: usize) -> (xsdb::DocumentSchema, Document, usize) {
    let schema = parse_schema_text(family.schema_text()).unwrap();
    let xml = family.generate(size, 42);
    let doc = Document::parse(&xml).unwrap();
    let nodes = load_document(&schema, &doc).unwrap().store.len();
    (schema, doc, nodes)
}

fn e1_roundtrip() {
    println!("\n== E1: round-trip theorem g(f(X)) =_c X (§8) ==");
    println!("{:<8} {:>9} {:>12} {:>14} {:>10}", "family", "nodes", "ms/doc", "nodes/ms", "holds");
    for family in Family::ALL {
        for &size in &[100usize, 1_000, 10_000] {
            let (schema, doc, nodes) = tree_nodes(family, size);
            let ok = check_roundtrip(&schema, &doc).is_ok();
            let secs = per_run(3, || {
                check_roundtrip(&schema, &doc).unwrap();
            });
            println!(
                "{:<8} {:>9} {:>12.3} {:>14.0} {:>10}",
                family.name(),
                nodes,
                secs * 1e3,
                nodes as f64 / (secs * 1e3),
                ok
            );
        }
    }
}

fn e2_validate() {
    println!("\n== E2: §6.2 validation throughput (f without g) ==");
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>12} {:>14}",
        "family", "nodes", "parse ms", "load ms", "stream ms", "knodes/s"
    );
    for family in Family::ALL {
        for &size in &[100usize, 1_000, 10_000] {
            let schema = parse_schema_text(family.schema_text()).unwrap();
            let xml = family.generate(size, 42);
            let doc = Document::parse(&xml).unwrap();
            let nodes = load_document(&schema, &doc).unwrap().store.len();
            let parse_s = per_run(3, || {
                Document::parse(&xml).unwrap();
            });
            let load_s = per_run(3, || {
                load_document(&schema, &doc).unwrap();
            });
            // The tree-free core over the parser's events, identity
            // constraints included: what VALIDATE runs.
            let (opts, limits) =
                (xsdb::LoadOptions::default(), xsdb::xmlparse::ParseLimits::default());
            let stream = || xsdb::algebra::validate_text(&schema, &xml, &opts, &limits, None);
            assert_eq!(stream().unwrap(), []);
            let stream_s = per_run(3, || {
                stream().unwrap();
            });
            println!(
                "{:<8} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>14.0}",
                family.name(),
                nodes,
                parse_s * 1e3,
                load_s * 1e3,
                stream_s * 1e3,
                nodes as f64 / load_s / 1e3,
            );
        }
    }
    e2_cached();
    e2_bulk();
}

/// E2b: validating a batch of small documents against one schema —
/// the shared automaton cache compiles each group once per database
/// lifetime instead of once per document.
fn e2_cached() {
    // Bounded repetition factors unroll at automaton-compile time, so
    // per-document recompilation is the dominant cost for small
    // documents under such schemas — the case the shared cache removes.
    const BOUNDED_XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="1" maxOccurs="400"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    let bounded_doc = |i: usize| {
        let entries: String = (0..30).map(|e| format!("<entry>e{i}-{e}</entry>")).collect();
        format!("<log>{entries}</log>")
    };
    println!(
        "\n-- E2b: 200-doc batch (~100 nodes each) — shared automaton cache vs per-load compile --"
    );
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>9} {:>7} {:>7}",
        "family", "docs", "fresh ms", "cached ms", "speedup", "hits", "misses"
    );
    let bounded_schema = parse_schema_text(BOUNDED_XSD).unwrap();
    let bounded_docs: Vec<Document> =
        (0..200).map(|i| Document::parse(&bounded_doc(i)).unwrap()).collect();
    for (name, schema, docs) in Family::ALL
        .iter()
        .map(|family| {
            let schema = parse_schema_text(family.schema_text()).unwrap();
            let docs: Vec<Document> = (0..200)
                .map(|i| Document::parse(&family.generate(100, 42 + i as u64)).unwrap())
                .collect();
            (family.name(), schema, docs)
        })
        .chain(std::iter::once(("bounded", bounded_schema, bounded_docs)))
    {
        let opts = xsdb::LoadOptions::default();
        let cache = xsdb::algebra::ContentModelCache::default();
        // Warm the cache, and cross-check the verdicts agree.
        let cached = |doc| xsdb::algebra::load_document_cached(&schema, doc, &opts, &cache);
        for doc in &docs {
            assert!(cached(doc).is_ok());
            assert!(load_document(&schema, doc).is_ok());
        }
        let fresh_s = per_run(3, || {
            for doc in &docs {
                let _ = load_document(&schema, doc);
            }
        });
        let cached_s = per_run(3, || {
            for doc in &docs {
                let _ = cached(doc);
            }
        });
        println!(
            "{:<8} {:>9} {:>12.3} {:>12.3} {:>8.2}x {:>7} {:>7}",
            name,
            docs.len(),
            fresh_s * 1e3,
            cached_s * 1e3,
            fresh_s / cached_s,
            cache.hits(),
            cache.misses(),
        );
    }
}

/// E2c: the parallel bulk API — `validate_many` over a 100-document
/// batch at 1/2/4/8 threads. Scaling above 1.0× requires more than one
/// hardware thread; the table records what this machine exposes.
fn e2_bulk() {
    println!("\n-- E2c: bulk validate_many — 100 docs × ~1k nodes --");
    println!("{:<8} {:>8} {:>12} {:>9}", "family", "threads", "batch ms", "speedup");
    for family in [Family::Flat, Family::Deep] {
        let mut db = xsdb::Database::new();
        db.register_schema_text("s", family.schema_text()).unwrap();
        let docs: Vec<String> = (0..100).map(|i| family.generate(1_000, 42 + i as u64)).collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let mut base = 0.0;
        for &threads in &[1usize, 2, 4, 8] {
            let secs = per_run(2, || {
                db.validate_many("s", &refs, threads).unwrap();
            });
            if threads == 1 {
                base = secs;
            }
            println!(
                "{:<8} {:>8} {:>12.1} {:>8.2}x",
                family.name(),
                threads,
                secs * 1e3,
                base / secs
            );
        }
    }
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("(hardware threads available on this machine: {hw})");
}

fn e3_doc_order() {
    println!("\n== E3: document order — nid labels vs pointer walk (§9.3) ==");
    println!(
        "{:<9} {:>9} {:>14} {:>14} {:>9}",
        "books", "nodes", "labels ns/cmp", "walk ns/cmp", "speedup"
    );
    for &books in &[100usize, 1_000, 10_000, 100_000] {
        let (store, doc) = build_library_tree(books, books / 2, 7);
        let storage = XmlStorage::from_tree(&store, doc);
        let pairs = sample_pairs(&store, doc, 10_000, 3);
        let nodes = store.subtree(doc);
        let descs = storage.subtree(storage.root());
        let index_of: std::collections::HashMap<_, _> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let desc_pairs: Vec<_> =
            pairs.iter().map(|&(a, b)| (descs[index_of[&a]], descs[index_of[&b]])).collect();
        // Correctness cross-check before timing.
        for (&(a, b), &(da, db)) in pairs.iter().zip(&desc_pairs) {
            assert_eq!(cmp_document_order(&store, a, b), storage.cmp_doc_order(da, db));
        }
        let label_s = per_run(3, || {
            for &(a, b) in &desc_pairs {
                std::hint::black_box(storage.cmp_doc_order(a, b));
            }
        }) / desc_pairs.len() as f64;
        let walk_s = per_run(3, || {
            for &(a, b) in &pairs {
                std::hint::black_box(cmp_document_order(&store, a, b));
            }
        }) / pairs.len() as f64;
        println!(
            "{:<9} {:>9} {:>14.1} {:>14.1} {:>8.1}x",
            books,
            nodes.len(),
            label_s * 1e9,
            walk_s * 1e9,
            walk_s / label_s
        );
    }
}

fn e4_ancestor() {
    println!("\n== E4: ancestor-descendant — nid labels vs upward walk (§9.3) ==");
    println!(
        "{:<16} {:>9} {:>14} {:>14} {:>9}",
        "shape", "nodes", "labels ns/chk", "walk ns/chk", "speedup"
    );
    // Shallow library trees (depth ≈ 4) and deep chain trees (depth up
    // to 500): the walk is O(depth), the label check O(label bytes).
    let shapes: Vec<(String, xsdb::xdm::NodeStore, xsdb::xdm::NodeId)> = vec![
        {
            let (s, d) = build_library_tree(1_000, 500, 11);
            ("library d≈4".to_string(), s, d)
        },
        {
            let (s, d) = build_library_tree(100_000, 50_000, 11);
            ("library(big) d≈4".to_string(), s, d)
        },
        {
            let (s, d) = build_deep_tree(200, 50);
            ("chains d=50".to_string(), s, d)
        },
        {
            let (s, d) = build_deep_tree(50, 200);
            ("chains d=200".to_string(), s, d)
        },
        {
            let (s, d) = build_deep_tree(20, 500);
            ("chains d=500".to_string(), s, d)
        },
    ];
    for (label, store, doc) in &shapes {
        let (store, doc) = (store, *doc);
        let storage = XmlStorage::from_tree(store, doc);
        let pairs = sample_pairs(store, doc, 10_000, 5);
        let nodes = store.subtree(doc);
        let descs = storage.subtree(storage.root());
        let index_of: std::collections::HashMap<_, _> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let desc_pairs: Vec<_> =
            pairs.iter().map(|&(a, b)| (descs[index_of[&a]], descs[index_of[&b]])).collect();
        for (&(a, b), &(da, db)) in pairs.iter().zip(&desc_pairs) {
            assert_eq!(store.is_ancestor(a, b), storage.is_ancestor(da, db));
        }
        let label_s = per_run(3, || {
            for &(a, b) in &desc_pairs {
                std::hint::black_box(storage.is_ancestor(a, b));
            }
        }) / desc_pairs.len() as f64;
        let walk_s = per_run(3, || {
            for &(a, b) in &pairs {
                std::hint::black_box(store.is_ancestor(a, b));
            }
        }) / pairs.len() as f64;
        println!(
            "{:<16} {:>9} {:>14.1} {:>14.1} {:>8.1}x",
            label,
            nodes.len(),
            label_s * 1e9,
            walk_s * 1e9,
            walk_s / label_s
        );
    }
}

fn e5_xpath() {
    println!("\n== E5: XPath — schema-guided vs naive (§9.2) ==");
    println!(
        "{:<11} {:<9} {:>7} {:>13} {:>13} {:>13} {:>9}",
        "query", "books", "hits", "guided µs", "naive-st µs", "naive-xdm µs", "speedup"
    );
    let queries: &[(&str, &str)] = &[
        ("shallow", "/library/book/title"),
        ("selective", "/library/paper/author"),
        ("descendant", "//author"),
        ("predicate", "/library/book[author='codd']/title"),
        ("attribute", "/library/book/@id"),
    ];
    for &books in &[1_000usize, 10_000] {
        let (store, doc) = build_library_tree(books, books / 20, 13);
        let storage = XmlStorage::from_tree(&store, doc);
        let tree = XdmTree { store: &store, doc };
        for (label, q) in queries {
            let path = parse(q).unwrap();
            let hits = eval_guided(&storage, &path).len();
            assert_eq!(hits, eval_naive(&&storage, &path).len(), "{q}");
            let guided_s = per_run(3, || {
                std::hint::black_box(eval_guided(&storage, &path));
            });
            let naive_st_s = per_run(3, || {
                std::hint::black_box(eval_naive(&&storage, &path));
            });
            let naive_xdm_s = per_run(3, || {
                std::hint::black_box(eval_naive(&tree, &path));
            });
            println!(
                "{:<11} {:<9} {:>7} {:>13.1} {:>13.1} {:>13.1} {:>8.1}x",
                label,
                books,
                hits,
                guided_s * 1e6,
                naive_st_s * 1e6,
                naive_xdm_s * 1e6,
                naive_st_s / guided_s
            );
        }
    }
}

fn e6_updates() {
    println!("\n== E6: updates — Sedna labels vs ordinal Dewey (Prop. 1) ==");
    println!(
        "{:<10} {:>8} {:>13} {:>13} {:>13} {:>13} {:>12}",
        "pattern", "inserts", "sedna ms", "dewey ms", "sedna relbl", "dewey relbl", "max nid B"
    );
    for &(pattern, n) in &[("append", 1_000usize), ("front", 1_000), ("same-gap", 1_000)] {
        // Sedna storage.
        let (store, doc) = build_library_tree(4, 0, 1);
        let mut xs = XmlStorage::from_tree(&store, doc);
        let lib = xs.children(xs.root())[0];
        let ((), sedna_s) = timed(|| match pattern {
            "append" => {
                let mut last = xs.children(lib).last().copied();
                for _ in 0..n {
                    last = Some(xs.insert_element(lib, last, "book").unwrap());
                }
            }
            "front" => {
                for _ in 0..n {
                    xs.insert_element(lib, None, "book").unwrap();
                }
            }
            _ => {
                let anchor = xs.children(lib)[0];
                for _ in 0..n {
                    xs.insert_element(lib, Some(anchor), "book").unwrap();
                }
            }
        });
        assert_eq!(xs.check_invariants(), None);
        let max_nid =
            xs.subtree(xs.root()).into_iter().map(|p| xs.nid(p).byte_len()).max().unwrap();
        // Ordinal Dewey baseline.
        let mut dewey = NaiveDewey::new();
        let root = dewey.root();
        for i in 0..4 {
            dewey.insert_child(root, i);
        }
        let ((), dewey_s) = timed(|| match pattern {
            "append" => {
                for i in 0..n {
                    dewey.insert_child(root, 4 + i);
                }
            }
            "front" => {
                for _ in 0..n {
                    dewey.insert_child(root, 0);
                }
            }
            _ => {
                for _ in 0..n {
                    dewey.insert_child(root, 1);
                }
            }
        });
        println!(
            "{:<10} {:>8} {:>13.2} {:>13.2} {:>13} {:>13} {:>12}",
            pattern,
            n,
            sedna_s * 1e3,
            dewey_s * 1e3,
            xs.relabel_count(),
            dewey.relabels,
            max_nid
        );
    }
}

fn e7_dataguide() {
    println!("\n== E7: descriptive schema (DataGuide) compression (§9.1) ==");
    println!(
        "{:<9} {:>10} {:>13} {:>13} {:>11}",
        "books", "doc nodes", "schema nodes", "ratio", "build ms"
    );
    for &books in &[100usize, 1_000, 10_000, 100_000] {
        let (store, doc) = build_library_tree(books, books / 2, 17);
        let doc_nodes = store.subtree(doc).len();
        let ((schema, _), secs) = timed(|| DescriptiveSchema::build(&store, doc));
        println!(
            "{:<9} {:>10} {:>13} {:>12.0}x {:>11.2}",
            books,
            doc_nodes,
            schema.len(),
            doc_nodes as f64 / schema.len() as f64,
            secs * 1e3
        );
    }
}

fn e8_accessors() {
    println!("\n== E8: accessor sweep — descriptors+schema vs XDM tree (§9.2) ==");
    println!(
        "{:<9} {:>9} {:>13} {:>13} {:>9}",
        "books", "nodes", "storage ms", "xdm ms", "overhead"
    );
    for &books in &[100usize, 1_000, 10_000] {
        let (store, doc) = build_library_tree(books, books / 2, 23);
        let storage = XmlStorage::from_tree(&store, doc);
        let sweep_store = || {
            let mut acc = 0usize;
            for p in storage.subtree(storage.root()) {
                acc += storage.node_kind(p).len();
                acc += storage.node_name(p).map_or(0, str::len);
                acc += storage.children(p).len();
                acc += storage.attributes(p).len();
                acc += usize::from(storage.parent(p).is_some());
            }
            acc
        };
        let sweep_xdm = || {
            let mut acc = 0usize;
            for n in store.subtree(doc) {
                acc += store.node_kind(n).len();
                acc += store.node_name(n).map_or(0, str::len);
                acc += store.children(n).len();
                acc += store.attributes(n).len();
                acc += usize::from(store.parent(n).is_some());
            }
            acc
        };
        assert_eq!(sweep_store(), sweep_xdm(), "accessor sufficiency");
        let st_s = per_run(3, || {
            std::hint::black_box(sweep_store());
        });
        let xd_s = per_run(3, || {
            std::hint::black_box(sweep_xdm());
        });
        println!(
            "{:<9} {:>9} {:>13.2} {:>13.2} {:>8.1}x",
            books,
            store.subtree(doc).len(),
            st_s * 1e3,
            xd_s * 1e3,
            st_s / xd_s
        );
    }
}

fn e9_block_capacity() {
    println!("\n== E9 (ablation): block capacity (§9.2 design choice) ==");
    println!(
        "{:<9} {:>8} {:>14} {:>12} {:>16}",
        "capacity", "blocks", "materialize ms", "scan µs", "100 inserts ms"
    );
    let (store, doc) = build_library_tree(2_000, 1_000, 29);
    for &capacity in &[4u16, 16, 64, 256, 1024] {
        let build_s = per_run(3, || {
            std::hint::black_box(XmlStorage::from_tree_with_capacity(&store, doc, capacity));
        });
        let xs = XmlStorage::from_tree_with_capacity(&store, doc, capacity);
        let blocks = xs.block_count();
        let title_sn = xs.schema().resolve_path(&["library", "book", "title"]).unwrap();
        let scan_s = per_run(3, || {
            std::hint::black_box(xs.scan(title_sn).len());
        });
        let mut insert_total = 0.0;
        let runs = 3;
        for _ in 0..runs {
            let mut fresh = XmlStorage::from_tree_with_capacity(&store, doc, capacity);
            let lib = fresh.children(fresh.root())[0];
            let ((), t) = timed(|| {
                for _ in 0..100 {
                    fresh.insert_element(lib, None, "book").unwrap();
                }
            });
            assert_eq!(fresh.check_invariants(), None);
            insert_total += t;
        }
        println!(
            "{:<9} {:>8} {:>14.2} {:>12.1} {:>16.2}",
            capacity,
            blocks,
            build_s * 1e3,
            scan_s * 1e6,
            insert_total / runs as f64 * 1e3
        );
    }
}

/// A deterministic, satisfiable, fully-reachable chain schema with `n`
/// named complex types: `T0 → T1 → … → T(n-1)`, each with two leaf
/// children and an optional `next` link.
fn e10_schema(n: usize) -> xsdb::DocumentSchema {
    use xsdb::xsmodel::{
        ComplexTypeDefinition, ElementDeclaration, GroupDefinition, RepetitionFactor,
    };
    let mut schema = xsdb::DocumentSchema::new(ElementDeclaration::new("root", "T0"));
    for i in 0..n {
        let mut parts = vec![
            ElementDeclaration::new("id", "xs:string"),
            ElementDeclaration::new("name", "xs:string"),
        ];
        if i + 1 < n {
            parts.push(
                ElementDeclaration::new("next", format!("T{}", i + 1))
                    .with_repetition(RepetitionFactor::OPTIONAL),
            );
        }
        schema = schema.with_complex_type(
            format!("T{i}"),
            ComplexTypeDefinition::ComplexContent {
                mixed: false,
                content: GroupDefinition::sequence(parts),
                attributes: Default::default(),
            },
        );
    }
    schema
}

/// E11: the cost of the observability layer itself. Runs the E2-style
/// bulk-validation workload with metrics enabled and disabled, in
/// interleaved rounds (min-of-rounds on each side to shed scheduler
/// noise), and reports the relative overhead. With `guard` set, the
/// run fails (exit 1) when overhead stays above the budget across
/// every attempt — the bound documented in EXPERIMENTS.md.
fn e11_obs_overhead(guard: bool) {
    const BUDGET: f64 = 0.03; // 3 % — the documented ceiling
    const ROUNDS: usize = 5;
    const ATTEMPTS: usize = 3;
    println!("\n== E11: observability overhead (enabled vs disabled metrics) ==");
    println!("{:<8} {:>12} {:>12} {:>10}", "attempt", "on ms", "off ms", "overhead");
    let obs = xsdb::xsobs::global();
    let was_enabled = obs.is_enabled();

    let mut db = xsdb::Database::new();
    db.register_schema_text("s", Family::Flat.schema_text()).unwrap();
    let docs: Vec<String> = (0..20).map(|i| Family::Flat.generate(1_000, 42 + i as u64)).collect();
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let workload = |db: &xsdb::Database| {
        db.validate_many("s", &refs, 1).unwrap();
    };
    // Warm caches and page in everything before timing.
    workload(&db);

    let mut passed = false;
    let mut last = 0.0;
    for attempt in 1..=ATTEMPTS {
        let (mut best_on, mut best_off) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            obs.set_enabled(true);
            best_on = best_on.min(per_run(3, || workload(&db)));
            obs.set_enabled(false);
            best_off = best_off.min(per_run(3, || workload(&db)));
        }
        let overhead = (best_on - best_off) / best_off;
        last = overhead;
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>9.1}%",
            attempt,
            best_on * 1e3,
            best_off * 1e3,
            overhead * 100.0
        );
        if overhead <= BUDGET {
            passed = true;
            break;
        }
    }
    obs.set_enabled(was_enabled);
    if guard && !passed {
        eprintln!(
            "E11 guard: metrics overhead {:.1}% exceeds the {:.0}% budget",
            last * 100.0,
            BUDGET * 100.0
        );
        std::process::exit(1);
    }
    println!("(budget {:.0}%; guard {})", BUDGET * 100.0, if guard { "on" } else { "off" });
}

fn e12_server_throughput() {
    use xsserver::loadgen::{self, LoadConfig};
    use xsserver::{Server, ServerConfig};
    println!("\n== E12: server throughput scaling (one shared database over TCP) ==");
    println!(
        "{:<7} {:>10} {:>7} {:>9} {:>10} {:>10} {:>10}",
        "conns", "requests", "errors", "wall s", "req/s", "p50 ms", "p99 ms"
    );
    let shared = xsdb::SharedDatabase::new(xsdb::Database::new());
    let handle = Server::start("127.0.0.1:0", ServerConfig::default(), shared)
        .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();
    // Fixed total work split across the connections, so rows compare
    // wall clock for the same request volume.
    const TOTAL: usize = 2_048;
    let mut single = None;
    for &conns in &[1usize, 2, 4, 8, 16, 32] {
        let config = LoadConfig {
            connections: conns,
            requests_per_conn: TOTAL / conns,
            write_percent: 10,
            doc_items: 32,
            ..LoadConfig::default()
        };
        loadgen::setup(&addr, &config).expect("load generator setup");
        let obs = xsdb::xsobs::Registry::new();
        let summary = loadgen::run(&addr, &config, &obs);
        assert_eq!(summary.errors, 0, "E12 must complete with zero protocol errors");
        println!(
            "{:<7} {:>10} {:>7} {:>9.3} {:>10.0} {:>10.3} {:>10.3}",
            conns,
            summary.requests,
            summary.errors,
            summary.elapsed.as_secs_f64(),
            summary.throughput_rps,
            summary.p50_ns as f64 / 1e6,
            summary.p99_ns as f64 / 1e6
        );
        if conns == 1 {
            single = Some(summary.throughput_rps);
        } else if conns == 32 {
            if let Some(single) = single {
                println!(
                    "(32-connection speedup over 1 connection: {:.2}x)",
                    summary.throughput_rps / single
                );
            }
        }
    }
    handle.shutdown().expect("graceful shutdown");
}

fn e10_analysis_cost() {
    use xsdb::xsanalyze;
    println!("\n== E10: static analysis cost (xsanalyze, all passes) ==");
    println!(
        "{:<7} {:>7} {:>12} {:>10} {:>18}",
        "types", "diags", "analyze ms", "upa ms", "xpath preflight µs"
    );
    for &n in &[10usize, 100, 500] {
        let schema = e10_schema(n);
        let diags = xsanalyze::analyze_schema(&schema);
        assert!(diags.is_empty(), "E10 schema must be clean: {diags:?}");
        let analyze_s = per_run(3, || {
            std::hint::black_box(xsanalyze::analyze_schema(&schema));
        });
        let upa_s = per_run(3, || {
            std::hint::black_box(xsanalyze::check_upa(&schema));
        });
        let path = parse("/root/next/next/id").expect("static expression");
        let preflight_s = per_run(3, || {
            std::hint::black_box(xsanalyze::analyze_xpath(&schema, &path));
        });
        println!(
            "{:<7} {:>7} {:>12.3} {:>10.3} {:>18.2}",
            n,
            diags.len(),
            analyze_s * 1e3,
            upa_s * 1e3,
            preflight_s * 1e6
        );
    }
}

/// E13: pages written per single-node update as the document grows
/// (the paged-storage headline: a point update dirties one block, so
/// the incremental save writes a constant number of pages). With
/// `guard` set, the run fails (exit 1) if the per-update page count
/// varies with document size or exceeds its budget.
fn e13_paged_updates(guard: bool) {
    use xsdb::xsobs::{global, CounterId};
    const PAGE_BUDGET: u64 = 8; // catalog + block + location segment, with slack
    println!("\n== E13: pages written per update vs document size (v3 paged layout) ==");
    println!("{:<9} {:>12} {:>14} {:>14}", "entries", "full pages", "update pages", "file KiB");

    let schema = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    let pages = |before: u64| global().snapshot().counter(CounterId::StoragePageWrites) - before;
    let mut update_pages = Vec::new();
    for n in [64usize, 512, 4096] {
        let dir = std::env::temp_dir().join(format!("xsdb-e13-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut xml = String::from("<log>");
        for i in 0..n {
            xml.push_str(&format!("<entry>entry number {i}</entry>"));
        }
        xml.push_str("</log>");
        let mut db = xsdb::Database::new();
        db.register_schema_text("log", schema).unwrap();
        db.insert("journal", "log", &xml).unwrap();
        let mut store = xsdb::Store::new(&dir);
        let before = global().snapshot().counter(CounterId::StoragePageWrites);
        store.save(&db).unwrap();
        let full = pages(before);

        db.execute_update("journal", r#"replace value of node /log/entry[2] with "patched""#)
            .unwrap();
        let before = global().snapshot().counter(CounterId::StoragePageWrites);
        store.save(&db).unwrap();
        let update = pages(before);
        update_pages.push(update);

        let current = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
        let gen = current.split(' ').nth(1).unwrap();
        let kib = std::fs::metadata(dir.join(gen).join("documents").join("journal.xsp"))
            .map(|m| m.len() / 1024)
            .unwrap_or(0);
        println!("{n:<9} {full:>12} {update:>14} {kib:>14}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Tiny documents can come in a page under the plateau (their two
    // dirty location slots share a segment); the bound that matters is
    // that the cost stops growing while the document keeps growing 8×.
    let plateaued = update_pages.len() < 2
        || update_pages[update_pages.len() - 2] >= update_pages[update_pages.len() - 1];
    let max = update_pages.iter().copied().max().unwrap_or(0);
    if guard && (!plateaued || max > PAGE_BUDGET) {
        eprintln!(
            "E13 guard: update page counts {update_pages:?} grow with document \
             size or exceed the {PAGE_BUDGET}-page budget"
        );
        std::process::exit(1);
    }
    println!("(budget {PAGE_BUDGET} pages/update; guard {})", if guard { "on" } else { "off" });
}

/// E14: snapshot reads and write-ahead-log commits. Two claims become
/// gates with `--guard`:
///
/// 1. **Writers never stop the world.** Reader *median* latency while
///    a writer churns durable commits stays within 2× the idle median
///    (or under an absolute 1 ms floor, whichever is looser). The
///    median, not the tail: a lock-coupled reader waits for roughly
///    half a commit on *every* read, collapsing the p50, while on a
///    small (even single-core) box scheduler preemption pollutes only
///    the p99. Both percentiles are reported.
/// 2. **A commit costs an fsync, not a save.** The mean `apply`
///    latency (append + fsync + in-memory apply) is below the mean
///    cost of the old discipline — mutating and then committing a full
///    `save_dir` checkpoint per write.
fn e14_snapshot_reads(guard: bool) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use xsdb::{Durability, Mutation, SharedDatabase};

    println!("\n== E14: snapshot reads under a churning durable writer ==");
    let schema = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    let dir = std::env::temp_dir().join(format!("xsdb-e14-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "log".into(), xsd: schema.into() }).unwrap();
    let mut xml = String::from("<log>");
    for i in 0..256 {
        xml.push_str(&format!("<entry>entry number {i}</entry>"));
    }
    xml.push_str("</log>");
    sh.apply(&Mutation::Insert { doc: "journal".into(), schema: "log".into(), xml }).unwrap();

    const READS: usize = 2_000;
    let read_once = |sh: &SharedDatabase| {
        let at = Instant::now();
        let n = sh.read().query("journal", "/log/entry").unwrap().len();
        assert!(n >= 255, "a snapshot lost entries: {n}");
        u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    // Nearest-rank percentiles over a sorted-in-place sample.
    let pct = |lat: &mut Vec<u64>, p: usize| {
        lat.sort_unstable();
        lat[(lat.len() * p).div_ceil(100).clamp(1, lat.len()) - 1]
    };

    // Phase 1: idle baseline.
    let mut idle: Vec<u64> = (0..READS).map(|_| read_once(&sh)).collect();
    let (idle_p50, idle_p99) = (pct(&mut idle, 50), pct(&mut idle, 99));

    // Phase 2: the same reads while one writer commits back-to-back.
    let stop = AtomicBool::new(false);
    let mut churn: Vec<u64> = Vec::new();
    let mut commit_ns: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let writer = sh.clone();
        let stop = &stop;
        let handle = s.spawn(move || {
            let mut lat = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let m = Mutation::Update {
                    doc: "journal".into(),
                    update: format!(r#"replace value of node /log/entry[1] with "write {i}""#),
                };
                let at = Instant::now();
                writer.apply(&m).unwrap();
                lat.push(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                i += 1;
            }
            lat
        });
        churn = (0..READS).map(|_| read_once(&sh)).collect();
        stop.store(true, Ordering::Relaxed);
        commit_ns = handle.join().unwrap();
    });
    let (churn_p50, churn_p99) = (pct(&mut churn, 50), pct(&mut churn, 99));
    let commits = commit_ns.len();
    let commit_mean = commit_ns.iter().sum::<u64>() as f64 / commits.max(1) as f64;

    // Phase 3: the pre-WAL discipline — every write pays a full
    // checkpoint. (The first checkpoint folds the churn backlog and is
    // excluded; each timed round mutates first so the document is
    // genuinely dirty.)
    sh.checkpoint().unwrap();
    const SAVES: usize = 20;
    let mut save_ns = Vec::with_capacity(SAVES);
    for i in 0..SAVES {
        let m = Mutation::Update {
            doc: "journal".into(),
            update: format!(r#"replace value of node /log/entry[2] with "save {i}""#),
        };
        let at = Instant::now();
        sh.apply(&m).unwrap();
        sh.checkpoint().unwrap();
        save_ns.push(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let save_mean = save_ns.iter().sum::<u64>() as f64 / SAVES as f64;

    println!(
        "{:<26} {:>10} {:>10} {:>14} {:>10}",
        "phase", "p50 µs", "p99 µs", "mean commit µs", "samples"
    );
    println!(
        "{:<26} {:>10.1} {:>10.1} {:>14} {:>10}",
        "read (idle)",
        idle_p50 as f64 / 1e3,
        idle_p99 as f64 / 1e3,
        "-",
        READS
    );
    println!(
        "{:<26} {:>10.1} {:>10.1} {:>14.1} {:>10}",
        "read (writer churning)",
        churn_p50 as f64 / 1e3,
        churn_p99 as f64 / 1e3,
        commit_mean / 1e3,
        commits
    );
    println!(
        "{:<26} {:>10} {:>10} {:>14.1} {:>10}",
        "mutate + full checkpoint",
        "-",
        "-",
        save_mean / 1e3,
        SAVES
    );

    // An absolute floor keeps the ratio gate honest when the baseline
    // sits at the measurement noise floor.
    const ABSOLUTE_FLOOR_NS: u64 = 1_000_000;
    let readers_unblocked =
        churn_p50 <= idle_p50.saturating_mul(2) || churn_p50 < ABSOLUTE_FLOOR_NS;
    let fsync_bound = commit_mean < save_mean;
    if guard && !(readers_unblocked && fsync_bound) {
        if !readers_unblocked {
            eprintln!(
                "E14 guard: reader p50 under churn ({churn_p50} ns) exceeds 2× the idle \
                 median ({idle_p50} ns) and the {ABSOLUTE_FLOOR_NS} ns floor"
            );
        }
        if !fsync_bound {
            eprintln!(
                "E14 guard: mean WAL commit ({commit_mean:.0} ns) is not cheaper than \
                 mutate+checkpoint ({save_mean:.0} ns)"
            );
        }
        std::process::exit(1);
    }
    println!(
        "(gates: churn p50 ≤ 2× idle p50 or < 1 ms; commit mean < checkpoint mean; guard {})",
        if guard { "on" } else { "off" }
    );
    drop(sh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// E15: statically checked updates (XQuery-Update-lite + the XSA5xx
/// pass). The analyzer's trichotomy becomes measurable revalidation
/// work: an **Accept** verdict applies with *zero* revalidation, a
/// **Recheck** verdict revalidates exactly the one affected content
/// model (never the whole document), and a **Reject** verdict never
/// touches the tree. With `guard` set, the run fails (exit 1) when any
/// of the three bounds is violated.
fn e15_static_updates(guard: bool) {
    use std::sync::Arc;
    use xsdb::xsanalyze::UpdateVerdict;
    use xsdb::xsobs::{CounterId, Registry};

    // Accept workload: an unbounded repetition admits any append.
    const LOG_XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    // Recheck workload: a positional target is not statically
    // resolvable (XSA506), so each edit revalidates its one book.
    const LIBRARY_XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="author" type="xs:string" minOccurs="0"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    println!("\n== E15: static update checking — revalidation work per verdict ==");
    println!(
        "{:<9} {:>12} {:>13} {:>10} {:>13}",
        "size", "accept µs", "recheck µs", "reval/op", "full reval ms"
    );
    const OPS: u64 = 64;
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("E15 guard: {msg}");
        ok = false;
    };
    for n in [256usize, 2_048, 16_384] {
        // --- Accept: append provably-valid entries, count revalidation.
        let reg = Arc::new(Registry::new());
        let mut db = xsdb::Database::with_metrics_registry(Arc::clone(&reg));
        db.register_schema_text("log", LOG_XSD).unwrap();
        let mut xml = String::from("<log>");
        for i in 0..n {
            xml.push_str(&format!("<entry>entry number {i}</entry>"));
        }
        xml.push_str("</log>");
        db.insert("j", "log", &xml).unwrap();
        let at = Instant::now();
        for i in 0..OPS {
            let o = db
                .execute_update("j", &format!("insert node <entry>a{i}</entry> into /log"))
                .unwrap();
            assert_eq!(o.verdict, UpdateVerdict::Accept);
        }
        let accept_s = at.elapsed().as_secs_f64() / OPS as f64;
        let accept_reval = reg.snapshot().counter(CounterId::UpdateRevalidateNodes);
        if accept_reval != 0 {
            fail(format!("accepted updates revalidated {accept_reval} nodes (want 0)"));
        }
        if reg.snapshot().counter(CounterId::UpdateAccepted) != OPS {
            fail("not every accepted update was counted as accepted".to_string());
        }

        // --- Reject: a provably-invalid update must not touch the tree.
        let entries = db.query("j", "/log/entry").unwrap().len();
        if db.execute_update("j", "insert node <rogue/> into /log").is_ok() {
            fail("a provably-invalid update was applied".to_string());
        }
        if db.query("j", "/log/entry").unwrap().len() != entries {
            fail("a rejected update changed the document".to_string());
        }
        if reg.snapshot().counter(CounterId::UpdateRejected) != 1 {
            fail("the rejected update was not counted as rejected".to_string());
        }

        // --- Recheck: alternately insert and delete one book's
        // optional author. Whether the insert preserves `author?`
        // depends on the current children (XSA505), so it rechecks —
        // that one book's content model plus the new <author>'s own
        // state, and nothing else. The inverse delete is itself
        // provably safe, so each round restores the document for free.
        let reg = Arc::new(Registry::new());
        let mut db = xsdb::Database::with_metrics_registry(Arc::clone(&reg));
        db.register_schema_text("lib", LIBRARY_XSD).unwrap();
        let mut xml = String::from("<library>");
        for i in 0..n {
            xml.push_str(&format!("<book><title>book {i}</title></book>"));
        }
        xml.push_str("</library>");
        db.insert("j", "lib", &xml).unwrap();
        let rounds = OPS / 2;
        let at = Instant::now();
        for _ in 0..rounds {
            let o = db
                .execute_update("j", "insert node <author>a</author> after /library/book[1]/title")
                .unwrap();
            assert_eq!(o.verdict, UpdateVerdict::Recheck);
            assert_eq!((o.nodes, o.revalidated), (1, 2));
            let o = db.execute_update("j", "delete node /library/book[1]/author").unwrap();
            assert_eq!(o.verdict, UpdateVerdict::Accept);
        }
        let recheck_s = at.elapsed().as_secs_f64() / rounds as f64;
        let recheck_reval = reg.snapshot().counter(CounterId::UpdateRevalidateNodes);
        if recheck_reval != 2 * rounds {
            fail(format!(
                "{rounds} rechecked updates revalidated {recheck_reval} nodes \
                 (want {})",
                2 * rounds
            ));
        }
        if reg.snapshot().counter(CounterId::UpdateRechecked) != rounds {
            fail("not every rechecked update was counted as rechecked".to_string());
        }

        // --- Scale reference: what a whole-document pass would cost.
        let full_s = per_run(2, || {
            assert!(db.revalidate("j").unwrap().is_empty());
        });
        println!(
            "{:<9} {:>12.1} {:>13.1} {:>10.1} {:>13.2}",
            n,
            accept_s * 1e6,
            recheck_s * 1e6,
            recheck_reval as f64 / rounds as f64,
            full_s * 1e3
        );
    }
    if guard && !ok {
        std::process::exit(1);
    }
    println!(
        "(gates: accept revalidates 0 nodes; recheck exactly 2 — host model + new leaf; \
         reject leaves the tree untouched; guard {})",
        if guard { "on" } else { "off" }
    );
}

/// E16: cost-based query planning. Each XPath runs once per forced
/// physical strategy (guided descent, schema-path scan) and once with
/// the planner free to choose; the table reports work units — the
/// deterministic operator-cost currency shared by the cost model and the
/// executor — so those columns are exactly reproducible, and beside each
/// the median µs of 5 timed executions of the same plan (not gated).
/// With `guard` set, the run fails (exit 1) when the chosen plan spends
/// more than 1.1× the best forced strategy, when any strategy disagrees
/// on the result node-set, or when a statically-empty path executes any
/// operator at all.
fn e16_query_planner(guard: bool) {
    use xsdb::xdm::NodeStore;
    use xsdb::xquery::{plan_and_execute, PlanOptions, QueryPlan, Strategy};

    // Uniform corpus: every book looks alike.
    fn uniform(books: usize) -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        for i in 0..books {
            let book = s.new_element(lib, "book");
            s.new_attribute(book, "id", format!("b{i}"));
            let t = s.new_element(book, "title");
            s.new_text(t, format!("title {i}"));
            let y = s.new_element(book, "year");
            s.new_text(y, format!("{}", 1900 + (i % 120)));
        }
        XmlStorage::from_tree(&s, doc)
    }

    // Skewed corpus: one element name (`errata`) appears on 1 book in
    // 64, so `//errata` is highly selective.
    fn skewed(books: usize) -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        for i in 0..books {
            let book = s.new_element(lib, "book");
            let t = s.new_element(book, "title");
            s.new_text(t, format!("title {i}"));
            for c in 0..3 {
                let ch = s.new_element(book, "chapter");
                s.new_text(ch, format!("chapter {c} of book {i}"));
            }
            if i % 64 == 0 {
                let e = s.new_element(book, "errata");
                s.new_text(e, format!("errata for {i}"));
            }
        }
        XmlStorage::from_tree(&s, doc)
    }

    // Median µs of 5 executions of one plan.
    fn median_us(plan: &QueryPlan, storage: &XmlStorage) -> f64 {
        let mut us: Vec<f64> = (0..5).map(|_| timed(|| plan.execute(storage)).1 * 1e6).collect();
        us.sort_by(f64::total_cmp);
        us[2]
    }

    println!(
        "\n== E16: query planner — chosen plan vs. each forced strategy \
         (work units, median µs of 5 executions) =="
    );
    println!(
        "{:<8} {:<28} {:>9} {:>8} {:>11} {:>8} {:>9} {:>8} {:>7}",
        "corpus", "query", "guided", "µs", "schema-path", "µs", "chosen", "µs", "ratio"
    );
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("E16 guard: {msg}");
        ok = false;
    };
    const BOOKS: usize = 2_048;
    let corpora: [(&str, XmlStorage, &[&str]); 2] = [
        (
            "uniform",
            uniform(BOOKS),
            &[
                "/library/book/title",
                "//year",
                "//book/@id",
                "/library/book[year>\"2010\"]/title",
                "/library/book[1]/title",
                "/library/book[1024]/title",
            ],
        ),
        ("skewed", skewed(BOOKS), &["//errata", "/library/book/errata", "//title", "//chapter"]),
    ];
    for (name, storage, queries) in &corpora {
        for q in *queries {
            let path = parse(q).unwrap();
            let mut forced = Vec::new();
            for s in Strategy::ALL {
                let opts = PlanOptions { force: Some(s), ..PlanOptions::default() };
                forced.push(plan_and_execute(storage, &path, &opts));
            }
            let (plan, chosen) = plan_and_execute(storage, &path, &PlanOptions::default());
            for (s, (_, exec)) in Strategy::ALL.iter().zip(&forced) {
                if exec.nodes != chosen.nodes {
                    fail(format!("{name} {q}: forced {} disagrees with the chosen plan", s.name()));
                }
            }
            let best = forced.iter().map(|(_, e)| e.work).min().unwrap();
            let ratio = chosen.work as f64 / best.max(1) as f64;
            if ratio > 1.1 {
                fail(format!(
                    "{name} {q}: chosen plan spent {} work, best forced strategy {} \
                     (ratio {ratio:.3} > 1.1)",
                    chosen.work, best
                ));
            }
            println!(
                "{:<8} {:<28} {:>9} {:>8.1} {:>11} {:>8.1} {:>9} {:>8.1} {:>7.3}",
                name,
                q,
                forced[0].1.work,
                median_us(&forced[0].0, storage),
                forced[1].1.work,
                median_us(&forced[1].0, storage),
                chosen.work,
                median_us(&plan, storage),
                ratio
            );
        }
    }
    // Statically-empty paths must not run any operator: the analyzer's
    // verdict prunes the whole pipeline before the first step.
    let (name, storage, _) = &corpora[0];
    let path = parse("/library/dvd/title").unwrap();
    let opts = PlanOptions { statically_empty: true, ..PlanOptions::default() };
    let (plan, exec) = plan_and_execute(storage, &path, &opts);
    if plan.pruned_from() != Some(0) || exec.work != 0 || !exec.nodes.is_empty() {
        fail(format!(
            "{name} /library/dvd/title: statically empty yet executed \
             {} work over {} nodes",
            exec.work,
            exec.nodes.len()
        ));
    }
    println!(
        "{:<8} {:<28} {:>9} {:>8} {:>11} {:>8} {:>9} {:>8} {:>7}",
        name, "/library/dvd/title (pruned)", "-", "-", "-", "-", 0, "-", "-"
    );
    if guard && !ok {
        std::process::exit(1);
    }
    println!(
        "(gates: all strategies agree on every node-set; chosen ≤ 1.1× best forced; \
         statically-empty paths do zero work; µs not gated; guard {})",
        if guard { "on" } else { "off" }
    );
}

/// Process CPU time in clock ticks (utime + stime from
/// `/proc/self/stat`); 0 when the file is unavailable (non-Linux).
/// One tick is 10 ms at the kernel's usual `CLK_TCK=100`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // comm may contain spaces; the parseable fields start after ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // 1-indexed /proc fields: utime=14, stime=15; after ')' the first
    // field is #3 (state), so utime/stime sit at offsets 11/12.
    let utime: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    utime + stime
}

/// E17: the event-driven server under many connections. Phase A parks
/// 2 000 idle connections and shows they cost no measurable CPU (the
/// loop blocks in `epoll_wait` with no timeout; idle connections hold
/// a file descriptor, not a thread or a tick). Phase B offers a fixed
/// open-loop rate sweep and reports the p50/p99-vs-offered-RPS curve,
/// with latency measured from the schedule (coordinated omission
/// safe). Phase C drives pipelined bursts and reads the pipelining
/// depth the server's parser actually observed. Phase D runs ≥1k
/// *active* connections at a fixed offered rate. With `guard`, the run
/// fails if idle connections burn CPU, if p99 at the mid rate exceeds
/// its bound, or if pipelining depth >1 was never observed.
fn e17_event_loop(guard: bool) {
    use std::net::TcpStream;
    use xsdb::xsobs::{CounterId, HistogramId, MaxId};
    use xsserver::client::Client;
    use xsserver::loadgen::{self, ArrivalMode, LoadConfig};
    use xsserver::{Server, ServerConfig};

    println!("\n== E17: event-driven server — idle cost, offered load, pipelining ==");
    // Each phase reads its guards from a registry of its own: the
    // process-global one would carry one phase's connection high water
    // and pipelining depth into the next phase's checks.
    let phase_database = || {
        let obs = std::sync::Arc::new(xsdb::xsobs::Registry::new());
        xsdb::SharedDatabase::new(xsdb::Database::with_metrics_registry(obs))
    };
    let mut ok = true;
    let mut fail = |what: String| {
        println!("E17 GUARD FAIL: {what}");
        ok = false;
    };

    // ---- Phase A: 2 000 idle connections, CPU over a quiet window ----
    const IDLE_CONNS: usize = 2_000;
    const IDLE_WINDOW_MS: u64 = 1_500;
    const IDLE_TICK_BUDGET: u64 = 15; // 150 ms of CPU over the window, with slack
    {
        let shared = phase_database();
        let config = ServerConfig { max_conns: 4_096, threads: 8, ..Default::default() };
        let handle = Server::start("127.0.0.1:0", config, shared).expect("bind");
        let addr = handle.local_addr().to_string();
        let mut idle = Vec::with_capacity(IDLE_CONNS);
        for i in 0..IDLE_CONNS {
            match TcpStream::connect(&addr) {
                Ok(s) => idle.push(s),
                Err(e) => panic!("idle connection {i} failed: {e}"),
            }
            if i % 500 == 499 {
                // Let the accept queue drain before the next wave.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        // Prove the fleet is admitted and the server still answers.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut probe = Client::connect(&addr).expect("probe connect");
        probe.ping().expect("probe ping");
        let high_water = handle.shared().metrics_registry().snapshot().max(MaxId::SrvConnHighWater);
        let before = cpu_ticks();
        std::thread::sleep(std::time::Duration::from_millis(IDLE_WINDOW_MS));
        let ticks = cpu_ticks() - before;
        println!(
            "idle: {IDLE_CONNS} parked connections (high water {high_water}), \
             {ticks} CPU ticks (~{} ms) over a {IDLE_WINDOW_MS} ms quiet window",
            ticks * 10
        );
        if high_water < IDLE_CONNS as u64 {
            fail(format!("only {high_water} concurrent connections reached"));
        }
        if ticks > IDLE_TICK_BUDGET {
            fail(format!(
                "idle connections burned {ticks} ticks (> {IDLE_TICK_BUDGET}) — \
                 the loop is ticking, not parking"
            ));
        }
        drop(idle);
        handle.shutdown().expect("shutdown");
    }

    // ---- Phase B: open-loop offered-rate sweep ----
    const SWEEP_CONNS: usize = 256;
    const SWEEP_SECS: u64 = 3;
    const MID_RPS: u64 = 1_000;
    const MID_P99_BUDGET_MS: f64 = 250.0;
    {
        let shared = phase_database();
        let config = ServerConfig { max_conns: 2_048, ..Default::default() };
        let handle = Server::start("127.0.0.1:0", config, shared).expect("bind");
        let addr = handle.local_addr().to_string();
        println!(
            "{:<12} {:>9} {:>7} {:>12} {:>10} {:>10}",
            "offered rps", "requests", "errors", "achieved rps", "p50 ms", "p99 ms"
        );
        for &rps in &[500u64, 1_000, 2_000, 4_000] {
            let config = LoadConfig {
                connections: SWEEP_CONNS,
                requests_per_conn: ((rps * SWEEP_SECS) as usize / SWEEP_CONNS).max(4),
                write_percent: 10,
                doc_items: 64,
                arrival: ArrivalMode::Open { rps },
                ..LoadConfig::default()
            };
            loadgen::setup(&addr, &config).expect("setup");
            let obs = xsdb::xsobs::Registry::new();
            let summary = loadgen::run(&addr, &config, &obs);
            println!(
                "{:<12} {:>9} {:>7} {:>12.0} {:>10.3} {:>10.3}",
                rps,
                summary.requests,
                summary.errors,
                summary.throughput_rps,
                summary.p50_ns as f64 / 1e6,
                summary.p99_ns as f64 / 1e6
            );
            if summary.errors != 0 {
                fail(format!("{} errors at offered rate {rps}", summary.errors));
            }
            if rps == MID_RPS {
                let p99_ms = summary.p99_ns as f64 / 1e6;
                if p99_ms > MID_P99_BUDGET_MS {
                    fail(format!(
                        "p99 {p99_ms:.1} ms at {MID_RPS} offered rps \
                         (budget {MID_P99_BUDGET_MS} ms)"
                    ));
                }
            }
        }
        handle.shutdown().expect("shutdown");
    }

    // ---- Phase C: pipelined bursts, depth observed server-side ----
    {
        let shared = phase_database();
        let handle = Server::start("127.0.0.1:0", ServerConfig::default(), shared).expect("bind");
        let addr = handle.local_addr().to_string();
        let config = LoadConfig {
            connections: 8,
            requests_per_conn: 64,
            write_percent: 10,
            doc_items: 64,
            pipeline: 8,
            ..LoadConfig::default()
        };
        loadgen::setup(&addr, &config).expect("setup");
        let obs = xsdb::xsobs::Registry::new();
        let summary = loadgen::run(&addr, &config, &obs);
        let snap = handle.shared().metrics_registry().snapshot();
        let depth = snap.histogram(HistogramId::NetPipelineDepth);
        println!(
            "pipeline: depth-8 bursts over 8 conns: {} — parser saw depth \
             p50 {} max {} over {} bursts; {} epoll waits, {} events, {} wakeups",
            summary.to_line(),
            depth.quantile(0.50),
            depth.max,
            depth.count,
            snap.counter(CounterId::NetEpollWaits),
            snap.counter(CounterId::NetEventsDispatched),
            snap.counter(CounterId::NetWakeups),
        );
        if summary.errors != 0 {
            fail(format!("{} errors in the pipelined run", summary.errors));
        }
        if depth.max <= 1 {
            fail("parser never observed pipeline depth > 1".to_string());
        }
        handle.shutdown().expect("shutdown");
    }

    // ---- Phase D: ≥1k active connections at a fixed offered rate ----
    {
        let shared = phase_database();
        let config = ServerConfig { max_conns: 2_048, ..Default::default() };
        let handle = Server::start("127.0.0.1:0", config, shared).expect("bind");
        let addr = handle.local_addr().to_string();
        let config = LoadConfig {
            connections: 1_024,
            requests_per_conn: 3,
            write_percent: 10,
            doc_items: 32,
            arrival: ArrivalMode::Open { rps: 500 },
            ..LoadConfig::default()
        };
        loadgen::setup(&addr, &config).expect("setup");
        let obs = xsdb::xsobs::Registry::new();
        let summary = loadgen::run(&addr, &config, &obs);
        let high_water = handle.shared().metrics_registry().snapshot().max(MaxId::SrvConnHighWater);
        println!(
            "scale: 1024 conns @ 500 offered rps: {} (connection high water {high_water})",
            summary.to_line()
        );
        if summary.errors != 0 {
            fail(format!("{} errors at 1024 connections", summary.errors));
        }
        if high_water < 1_000 {
            fail(format!("connection high water {high_water} < 1000"));
        }
        handle.shutdown().expect("shutdown");
    }

    if guard && !ok {
        std::process::exit(1);
    }
    println!(
        "(gates: ≥2000 idle conns under {IDLE_TICK_BUDGET} CPU ticks; zero errors; \
         p99 ≤ {MID_P99_BUDGET_MS} ms at {MID_RPS} offered rps; parser-observed \
         pipeline depth > 1; ≥1000 concurrent active conns; guard {})",
        if guard { "on" } else { "off" }
    );
}
