//! FLWOR queries over the formal model — the continuation the paper's
//! §11 announces: "the presented semantics may help in defining a simple
//! semantics of a data manipulation language like XQuery. We intend to
//! proceed with this work."
//!
//! The subset: `for $v in <path>`, any number of `let $x := $v/path`
//! bindings, conjunctive `where` conditions (existence and general
//! comparisons), `order by … [descending]`, and `return` items — element
//! constructors with `{…}` interpolation, variable paths, or string
//! literals. Its semantics is [`evaluate`], which reads documents
//! exclusively through the paper's §5 accessors ([`xpath::TreeAccess`]),
//! so the same query runs over the in-memory XDM tree and the §9 block
//! storage; it is the oracle.
//!
//! Over block storage the database runs the same queries faster: the
//! `for` source (or a bare path) as a cost-based [`QueryPlan`], and the
//! rest through [`execute_flwor`] / [`serialize_nodes`], which compile
//! every `$v/…` on the DataGuide into first-child-by-schema pointer
//! hops (§9.2) and stream the result through one writer — byte for byte
//! what [`evaluate`] and [`nodes_to_string`] produce. Comparisons are
//! `xpath`'s ([`xpath::compare_values`]; `order by` sorts by the total
//! order of [`xpath::Value::sort_cmp`]).
//!
//! ```
//! use xdm::NodeStore;
//! use xpath::XdmTree;
//! use xquery::{evaluate, nodes_to_string, parse_query};
//!
//! let mut s = NodeStore::new();
//! let doc = s.new_document(None);
//! let lib = s.new_element(doc, "library");
//! for (title, author) in [("B-trees", "Bayer"), ("Relations", "Codd")] {
//!     let book = s.new_element(lib, "book");
//!     let t = s.new_element(book, "title");
//!     s.new_text(t, title);
//!     let a = s.new_element(book, "author");
//!     s.new_text(a, author);
//! }
//!
//! let q = parse_query(
//!     r#"for $b in /library/book where $b/author = "Codd"
//!        return <hit>{$b/title/text()}</hit>"#,
//! ).unwrap();
//! let result = evaluate(&XdmTree { store: &s, doc }, &q).unwrap();
//! assert_eq!(nodes_to_string(&result), "<hit>Relations</hit>");
//! ```

#![warn(missing_docs)]

pub mod ast;
mod eval;
mod parser;
pub mod plan;
mod relative;
mod stored;
pub mod update;

pub use ast::{
    Condition, Constructor, Content, Flwor, Item, OrderBy, Query, TemplatePart, VarPath,
};
pub use eval::{evaluate, nodes_to_string};
pub use parser::{parse_query, XQueryError};
pub use plan::{plan, plan_and_execute, PlanExecution, PlanOptions, QueryPlan, StepPlan, Strategy};
pub use stored::{execute_flwor, serialize_nodes};
pub use update::{parse_update, UpdateExpr};

#[cfg(test)]
mod tests {
    use super::*;
    use storage::XmlStorage;
    use xdm::{NodeId, NodeStore};
    use xpath::XdmTree;

    fn library() -> (NodeStore, NodeId) {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        let data = [
            ("Foundations of Databases", "Abiteboul", "1995", "b1"),
            ("A Relational Model", "Codd", "1970", "b2"),
            ("The Complexity of Relational Query Languages", "Codd", "1982", "b3"),
            ("Transaction Processing", "Gray", "1993", "b4"),
        ];
        for (title, author, year, id) in data {
            let book = s.new_element(lib, "book");
            s.new_attribute(book, "id", id);
            let t = s.new_element(book, "title");
            s.new_text(t, title);
            let a = s.new_element(book, "author");
            s.new_text(a, author);
            let y = s.new_element(book, "year");
            s.new_text(y, year);
        }
        (s, doc)
    }

    fn run(q: &str) -> String {
        let (s, doc) = library();
        let query = parse_query(q).unwrap();
        let out = evaluate(&XdmTree { store: &s, doc }, &query).unwrap();
        nodes_to_string(&out)
    }

    #[test]
    fn filter_and_construct() {
        let got = run(r#"for $b in /library/book where $b/author = "Codd"
               return <hit>{$b/title/text()}</hit>"#);
        assert_eq!(
            got,
            "<hit>A Relational Model</hit><hit>The Complexity of Relational Query Languages</hit>"
        );
    }

    #[test]
    fn let_bindings_and_attribute_templates() {
        let got = run(r#"for $b in /library/book
               let $t := $b/title
               where $b/year > "1990"
               return <book id="{$b/@id}" title="{$t}"/>"#);
        assert_eq!(
            got,
            r#"<book id="b1" title="Foundations of Databases"/><book id="b4" title="Transaction Processing"/>"#
        );
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let got = run("for $b in /library/book order by $b/year return <y>{$b/year/text()}</y>");
        assert_eq!(got, "<y>1970</y><y>1982</y><y>1993</y><y>1995</y>");
        let got = run(
            "for $b in /library/book order by $b/year descending return <y>{$b/year/text()}</y>",
        );
        assert_eq!(got, "<y>1995</y><y>1993</y><y>1982</y><y>1970</y>");
    }

    #[test]
    fn numeric_ordering_is_numeric_not_lexicographic() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let root = s.new_element(doc, "ns");
        for v in ["10", "9", "100"] {
            let n = s.new_element(root, "n");
            s.new_text(n, v);
        }
        let q = parse_query("for $n in /ns/n order by $n return $n/text()").unwrap();
        let out = evaluate(&XdmTree { store: &s, doc }, &q).unwrap();
        assert_eq!(nodes_to_string(&out), "910100");
    }

    #[test]
    fn deep_copy_of_elements() {
        let got = run(r#"for $b in /library/book where $b/@id = "b2" return $b"#);
        assert_eq!(
            got,
            r#"<book id="b2"><title>A Relational Model</title><author>Codd</author><year>1970</year></book>"#
        );
    }

    #[test]
    fn string_literal_and_mixed_construction() {
        let got = run(r#"for $b in /library/book where $b/@id = "b4"
               return <r>by {$b/author/text()}!</r>"#);
        assert_eq!(got, "<r>by Gray!</r>");
    }

    #[test]
    fn conjunction_in_where() {
        let got = run(r#"for $b in /library/book
               where $b/author = "Codd" and $b/year < "1975"
               return $b/@id"#);
        assert_eq!(got, "b2");
    }

    #[test]
    fn existence_condition() {
        let got = run("for $b in /library/book where $b/isbn return $b/@id");
        assert_eq!(got, "");
    }

    #[test]
    fn path_query_copies_nodes() {
        let got = run("/library/book[2]/title");
        assert_eq!(got, "<title>A Relational Model</title>");
    }

    #[test]
    fn same_query_over_block_storage() {
        let (s, doc) = library();
        let storage = XmlStorage::from_tree(&s, doc);
        let q = parse_query(
            r#"for $b in /library/book where $b/author = "Codd"
               order by $b/year descending
               return <hit year="{$b/year}">{$b/title/text()}</hit>"#,
        )
        .unwrap();
        let via_xdm = evaluate(&XdmTree { store: &s, doc }, &q).unwrap();
        let via_storage = evaluate(&&storage, &q).unwrap();
        assert_eq!(nodes_to_string(&via_xdm), nodes_to_string(&via_storage));
        assert_eq!(
            nodes_to_string(&via_storage),
            "<hit year=\"1982\">The Complexity of Relational Query Languages</hit><hit year=\"1970\">A Relational Model</hit>"
        );
    }

    /// Run `q` through the generic oracle over the tree and through the
    /// storage engine (the `for` source planned as `QUERY` plans it),
    /// assert the bytes agree, and return them.
    fn both(s: &NodeStore, doc: NodeId, q: &str) -> String {
        let storage = XmlStorage::from_tree(s, doc);
        let query = parse_query(q).unwrap();
        let oracle = nodes_to_string(&evaluate(&XdmTree { store: s, doc }, &query).unwrap());
        let stored = match &query {
            Query::Path(path) => {
                let (_, exec) = plan_and_execute(&storage, path, &PlanOptions::default());
                serialize_nodes(&storage, &exec.nodes)
            }
            Query::Flwor(f) => {
                let (_, exec) = plan_and_execute(&storage, &f.source, &PlanOptions::default());
                execute_flwor(&storage, f, &exec.nodes).unwrap()
            }
        };
        assert_eq!(stored, oracle, "{q}");
        stored
    }

    #[test]
    fn storage_engine_writes_the_oracles_bytes() {
        let (s, doc) = library();
        for q in [
            r#"for $b in /library/book where $b/author = "Codd" order by $b/year descending
               return <hit year="{$b/year}" n="{$b/title/text()}">{$b/title/text()}</hit>"#,
            "for $b in /library/book let $a := $b/author let $b := $a return <x>{$b}</x>",
            "for $b in /library/book where $b/@id != \"b1\" return $b",
            "for $b in /library/book return <e a=\"&amp;\">&lt;{$b/@id}</e>",
            "for $b in /library/book return <e/>",
            "for $b in /library/book return \"a<b\"",
            "for $b in /library/book where $b/*[1] = \"A Relational Model\" return $b/*[last()]",
            "for $b in /library/book where $b/..//book[year][2] return $b/title[text()]/@x",
            "for $b in /library/book let $l := $b/.. return <n c=\"{$l/book[@id='b3']/year}\"/>",
            "for $y in //year order by $y/../title descending return $y/../@id",
            "/library/book[author=\"Codd\"]/title",
            "/library/book/@id",
            "/",
        ] {
            both(&s, doc, q);
        }
        // Markup characters in stored text and attribute values: escaped
        // inside elements, as is at the top level.
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let r = s.new_element(doc, "r");
        let e = s.new_element(r, "e");
        s.new_attribute(e, "a", "x\"<&");
        s.new_text(e, "1 < 2 & 3");
        for q in [
            "for $e in /r/e return <o a=\"{$e/@a}|{$e}\">{$e/text()}{$e/@a}</o>",
            "for $e in /r/e return $e",
            "for $e in /r/e return $e/text()",
            "/r/e/@a",
        ] {
            both(&s, doc, q);
        }
    }

    /// Only digit-based numerals compare numerically: a `where` against
    /// `"NaN"` selects the row whose text is `NaN`, not every numeral.
    #[test]
    fn where_compares_only_numerals_numerically() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let root = s.new_element(doc, "r");
        for v in ["NaN", "inf", "Infinity", "abc", "10", "9"] {
            let e = s.new_element(root, "e");
            let t = s.new_element(e, "t");
            s.new_text(t, v);
        }
        let q = r#"for $e in /r/e where $e/t = "NaN" return <m>{$e/t/text()}</m>"#;
        assert_eq!(both(&s, doc, q), "<m>NaN</m>");
        let q = r#"for $e in /r/e where $e/t != "NaN" order by $e/t return $e/t/text()"#;
        assert_eq!(both(&s, doc, q), "910Infinityabcinf");
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let (s, doc) = library();
        let q = parse_query("for $b in /library/book return $nope").unwrap();
        assert!(evaluate(&XdmTree { store: &s, doc }, &q).is_err());
    }
}
