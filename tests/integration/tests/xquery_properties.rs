//! Property tests for the FLWOR engine: evaluation over the XDM tree and
//! the block storage must agree byte-for-byte on generated libraries and
//! a query corpus, and ordering clauses must actually sort. Over random
//! schemas and documents, `Database::xquery` — the planned `for` source
//! plus paths compiled on the DataGuide — must write exactly the bytes
//! the generic evaluator writes over the document's XDM tree.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xsdb::storage::XmlStorage;
use xsdb::xdm::NodeKind;
use xsdb::xpath::XdmTree;
use xsdb::xquery::{evaluate, nodes_to_string, parse_query};
use xsdb::{load_document, Database, Document};

mod common;
use common::CaseGen;

const FLWORS_PER_CASE: u64 = 12;

fn pick<'a>(rng: &mut TestRng, names: &'a [String]) -> &'a str {
    &names[rng.below(names.len() as u64) as usize]
}

/// A relative step from a bound variable: a child element, an
/// attribute, `text()`, a descendant, or the parent.
fn rel(rng: &mut TestRng, elems: &[String], attrs: &[String]) -> String {
    match rng.below(7) {
        0 if !attrs.is_empty() => format!("/@{}", pick(rng, attrs)),
        1 => "/text()".to_string(),
        2 => format!("//{}", pick(rng, elems)),
        3 => format!("/{}/text()", pick(rng, elems)),
        4 => "/..".to_string(),
        _ => format!("/{}", pick(rng, elems)),
    }
}

/// A random FLWOR over the document's vocabulary using `let`, `where`
/// (existence and comparisons against numeral, lexical and edge
/// literals), `order by [descending]`, attribute templates, element
/// content and `text()`.
fn random_flwor(rng: &mut TestRng, elems: &[String], attrs: &[String]) -> String {
    let mut q = format!("for $v in //{}", pick(rng, elems));
    if rng.below(2) == 0 {
        q.push_str(&format!(" let $x := $v{}", rel(rng, elems, attrs)));
    } else {
        q.push_str(" let $x := $v");
    }
    let mut conds = Vec::new();
    for _ in 0..rng.below(3) {
        let lhs = format!("$v{}", rel(rng, elems, attrs));
        conds.push(match rng.below(3) {
            0 => lhs,
            _ => {
                let op = ["=", "!=", "<", "<=", ">", ">="][rng.below(6) as usize];
                let lit = ["0", "-3", "250", "1e2", "s7", "true", "NaN", "inf", ""]
                    [rng.below(9) as usize];
                format!("{lhs} {op} \"{lit}\"")
            }
        });
    }
    if !conds.is_empty() {
        q.push_str(&format!(" where {}", conds.join(" and ")));
    }
    if rng.below(3) != 0 {
        let key = if rng.below(4) == 0 {
            "$v".to_string()
        } else {
            format!("$v{}", rel(rng, elems, attrs))
        };
        q.push_str(&format!(" order by {key}"));
        if rng.below(2) == 0 {
            q.push_str(" descending");
        }
    }
    let ret = match rng.below(5) {
        0 => format!("$x{}", rel(rng, elems, attrs)),
        1 => "\"a<b&c\"".to_string(),
        2 => "$v".to_string(),
        _ => format!(
            "<r k=\"{{$v{}}}-{{$x}}\">t&amp;{{$x}}<i>{{$v{}}}</i>{{$v/text()}}</r>",
            rel(rng, elems, attrs),
            rel(rng, elems, attrs)
        ),
    };
    q.push_str(&format!(" return {ret}"));
    q
}

const QUERIES: &[&str] = &[
    "for $b in /library/book return $b/title",
    "for $b in /library/book return <t>{$b/title/text()}</t>",
    r#"for $b in /library/book where $b/author = "codd" return $b/@id"#,
    "for $b in /library/book order by $b/title return <o>{$b/title/text()}</o>",
    "for $b in /library/book order by $b/@id descending return $b/@id",
    r#"for $b in /library/book let $t := $b/title where $b/issue return <r id="{$b/@id}">{$t}</r>"#,
    "for $a in /library/book/author return <a>{$a/text()}</a>",
    "for $p in /library/paper where $p/title return $p",
    // Comparisons inside a predicate or a literal belong to it.
    r#"for $b in /library/book where $b/author[. = "codd"] return $b/@id"#,
    "for $b in /library/book where $b/issue[year >= '2000'] return $b/issue/year",
    r#"for $b in /library/book where $b/title != "x!=y" return $b/title"#,
    // Clause keywords inside a literal or a predicate belong to it.
    r#"for $b in /library/book where $b/title = "Access and Path" return $b/title"#,
    r#"for $b in /library/book[title = "x return y"] return $b/title"#,
    r#"for $b in /library/book let $t := $b/title[. != 'let where'] order by $b/@id descending return $t"#,
];

/// `where` conditions whose brackets or literals hold comparison
/// operators, and FLWOR clause keywords (`and`, `let`, `where`,
/// `order`, `return`) inside a literal or a predicate, over the pinned
/// plan document: `Database::xquery` writes the oracle's bytes, and
/// selects what the condition names.
#[test]
fn where_operators_inside_brackets_and_quotes_match_the_oracle() {
    let xsd = include_str!("../../../fixtures/lint/clean.xsd");
    let xml = include_str!("../../../fixtures/lint/plan_doc.xml");
    let mut db = Database::new();
    db.register_schema_text("lib", xsd).unwrap();
    db.insert("d", "lib", xml).unwrap();
    let schema = xsdb::xsmodel::parse_schema_text(xsd).unwrap();
    let loaded = load_document(&schema, &Document::parse(xml).unwrap()).unwrap();
    let tree = XdmTree { store: &loaded.store, doc: loaded.doc };
    for (q, want) in [
        (r#"for $b in /library/book where $b/author[.="Gray"] return $b/title"#, 1),
        (r#"for $b in /library/book where $b/author[. != "Codd"] return $b/title"#, 6),
        (r#"for $b in /library/book where $b/title = "x!=y" return $b/title"#, 0),
        (r#"for $b in /library/book where $b/title != "x!=y" return $b/title"#, 8),
        ("for $b in /library/book where $b/isbn[. > '1'] return $b/isbn", 4),
        (r#"for $b in /library/book where $b/title = "Access and Path" return $b/title"#, 0),
        (r#"for $b in /library/book where $b/title != "Access and Path" return $b/title"#, 8),
        (r#"for $b in /library/book[title = "x return y"] return $b/title"#, 0),
        (r#"for $b in /library/book[title != "x return y"] return $b/title"#, 8),
        (
            "for $b in /library/book let $t := $b/title[. != 'let where'] \
             where $b/author = 'Codd' and $b/title != 'order and return' return $t",
            2,
        ),
        (r#"for $b in /library/book order by $b/author[. != "x descending"] return $b/isbn"#, 4),
    ] {
        let oracle = nodes_to_string(&evaluate(&tree, &parse_query(q).unwrap()).unwrap());
        let got = db.xquery("d", q).unwrap();
        assert_eq!(got, oracle, "{q}");
        assert_eq!(got.matches("<title>").count() + got.matches("<isbn>").count(), want, "{q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_on_flwor(books in 1usize..25, seed in 0u64..500) {
        let (store, doc) = bench::build_library_tree(books, books / 3, seed);
        let storage = XmlStorage::from_tree(&store, doc);
        let tree = XdmTree { store: &store, doc };
        for q in QUERIES {
            let query = parse_query(q).unwrap();
            let a = nodes_to_string(&evaluate(&tree, &query).unwrap());
            let b = nodes_to_string(&evaluate(&&storage, &query).unwrap());
            prop_assert_eq!(a, b, "backends disagree on {}", q);
        }
    }

    #[test]
    fn order_by_sorts(books in 2usize..25, seed in 0u64..500) {
        let (store, doc) = bench::build_library_tree(books, 0, seed);
        let tree = XdmTree { store: &store, doc };
        let query = parse_query(
            "for $b in /library/book order by $b/title return <t>{$b/title/text()}</t>",
        )
        .unwrap();
        let out = nodes_to_string(&evaluate(&tree, &query).unwrap());
        let titles: Vec<&str> = out
            .split("</t>")
            .filter(|s| !s.is_empty())
            .map(|s| s.trim_start_matches("<t>"))
            .collect();
        let mut sorted = titles.clone();
        sorted.sort();
        prop_assert_eq!(titles, sorted);
    }

    #[test]
    fn where_filters_are_sound_and_complete(books in 1usize..25, seed in 0u64..500) {
        // Every returned book id must satisfy the predicate, and every
        // satisfying book must be returned.
        let (store, doc) = bench::build_library_tree(books, 0, seed);
        let tree = XdmTree { store: &store, doc };
        let query = parse_query(
            r#"for $b in /library/book where $b/issue return $b/@id"#,
        )
        .unwrap();
        let out = nodes_to_string(&evaluate(&tree, &query).unwrap());
        // Ground truth via xpath.
        let with_issue = xsdb::xpath::eval_naive(
            &tree,
            &xsdb::xpath::parse("/library/book[issue]/@id").unwrap(),
        );
        let expected: String =
            with_issue.iter().map(|&n| store.string_value(n)).collect::<Vec<_>>().join("");
        prop_assert_eq!(out, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Database::xquery` equals the oracle over the XDM tree, byte for
    /// byte, on random schemas, documents and FLWORs.
    #[test]
    fn database_xquery_writes_the_oracles_bytes(case in CaseGen, seed in 0u64..1_000_000) {
        let doc = Document::parse(&case.xml).unwrap();
        let loaded = load_document(&case.schema, &doc).unwrap();
        let tree = XdmTree { store: &loaded.store, doc: loaded.doc };
        let mut db = Database::new();
        db.register_schema("s", case.schema.clone()).unwrap();
        db.insert("d", "s", &case.xml).unwrap();
        let storage = &db.document("d").unwrap().storage;
        let schema = storage.schema();
        let mut elems = Vec::new();
        let mut attrs = Vec::new();
        for id in schema.ids() {
            let node = schema.node(id);
            match (&node.name, node.kind) {
                (Some(n), NodeKind::Element) => elems.push(n.clone()),
                (Some(n), NodeKind::Attribute) => attrs.push(n.clone()),
                _ => {}
            }
        }
        prop_assert!(!elems.is_empty());

        let mut rng = TestRng::for_case("xquery_properties", seed);
        for _ in 0..FLWORS_PER_CASE {
            let q = random_flwor(&mut rng, &elems, &attrs);
            let query = parse_query(&q).unwrap();
            let oracle = nodes_to_string(&evaluate(&tree, &query).unwrap());
            let got = db.xquery("d", &q).unwrap();
            prop_assert_eq!(got, oracle, "{}\nxml: {}", q, case.xml);
        }
    }
}
