//! Evaluation: a backend-generic naive engine and a schema-guided engine
//! over the block storage.
//!
//! The naive engine walks the tree through the accessors — exactly what
//! the paper's data model makes possible. The guided engine exploits the
//! descriptive schema (§9.1–9.2): a chain of child name-steps resolves to
//! a *schema* path first, then only the descriptor lists of the final
//! schema node are scanned, skipping every non-matching subtree. This is
//! the claim "this decision has been made to speed up the XPath
//! execution" made concrete and benchmarkable (experiment E5).
//!
//! Both engines return every path in §7 document order without
//! duplicates (the XPath 2.0 `/` rule). A step is evaluated per context
//! node, each context yielding a list already in document order;
//! [`doc_order_union`] concatenates those lists and sorts only when two
//! of them overlap or interleave, so a step costs O(result) in the
//! common case instead of a quadratic membership test per node. Several
//! descriptor lists of the DataGuide are combined by [`merge_scans`], a
//! k-way merge by §9.3 label.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use storage::{DescPtr, SchemaNodeId, XmlStorage};
use xdm::{NodeId, NodeKind, NodeStore};

use crate::ast::{Axis, NodeTest, Path, Predicate, Step};
use crate::value::compare_values;

/// The tree operations the naive evaluator needs — the paper's accessors.
pub trait TreeAccess {
    /// Node handle.
    type Node: Copy + Eq;
    /// The document node.
    fn root(&self) -> Self::Node;
    /// `children` accessor.
    fn children(&self, n: Self::Node) -> Vec<Self::Node>;
    /// `attributes` accessor.
    fn attributes(&self, n: Self::Node) -> Vec<Self::Node>;
    /// `parent` accessor.
    fn parent(&self, n: Self::Node) -> Option<Self::Node>;
    /// `node-kind` accessor (typed form).
    fn kind(&self, n: Self::Node) -> NodeKind;
    /// `node-name` accessor.
    fn name(&self, n: Self::Node) -> Option<String>;
    /// Is `n`'s `node-name` `want`? (A name test; backends that store
    /// names override it to compare without a copy.)
    fn has_name(&self, n: Self::Node, want: &str) -> bool {
        self.name(n).as_deref() == Some(want)
    }
    /// `string-value` accessor.
    fn string_value(&self, n: Self::Node) -> String;
    /// §7 document order between two nodes of the tree.
    fn cmp_doc_order(&self, a: Self::Node, b: Self::Node) -> Ordering;
}

/// An XDM tree: a node store plus its document node.
#[derive(Debug, Clone, Copy)]
pub struct XdmTree<'a> {
    /// The store.
    pub store: &'a NodeStore,
    /// The document node.
    pub doc: NodeId,
}

impl<'a> TreeAccess for XdmTree<'a> {
    type Node = NodeId;
    fn root(&self) -> NodeId {
        self.doc
    }
    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.store.children(n).to_vec()
    }
    fn attributes(&self, n: NodeId) -> Vec<NodeId> {
        self.store.attributes(n).to_vec()
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.store.parent(n)
    }
    fn kind(&self, n: NodeId) -> NodeKind {
        self.store.kind(n)
    }
    fn name(&self, n: NodeId) -> Option<String> {
        self.store.node_name(n).map(str::to_string)
    }
    fn has_name(&self, n: NodeId, want: &str) -> bool {
        self.store.node_name(n) == Some(want)
    }
    fn string_value(&self, n: NodeId) -> String {
        self.store.string_value(n)
    }
    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        xdm::cmp_document_order(self.store, a, b)
    }
}

impl TreeAccess for &XmlStorage {
    type Node = DescPtr;
    fn root(&self) -> DescPtr {
        XmlStorage::root(self)
    }
    fn children(&self, n: DescPtr) -> Vec<DescPtr> {
        XmlStorage::children(self, n)
    }
    fn attributes(&self, n: DescPtr) -> Vec<DescPtr> {
        XmlStorage::attributes(self, n)
    }
    fn parent(&self, n: DescPtr) -> Option<DescPtr> {
        XmlStorage::parent(self, n)
    }
    fn kind(&self, n: DescPtr) -> NodeKind {
        XmlStorage::kind(self, n)
    }
    fn name(&self, n: DescPtr) -> Option<String> {
        XmlStorage::node_name(self, n).map(str::to_string)
    }
    fn has_name(&self, n: DescPtr, want: &str) -> bool {
        XmlStorage::node_name(self, n) == Some(want)
    }
    fn string_value(&self, n: DescPtr) -> String {
        XmlStorage::string_value(self, n)
    }
    fn cmp_doc_order(&self, a: DescPtr, b: DescPtr) -> Ordering {
        XmlStorage::cmp_doc_order(self, a, b)
    }
}

/// Does node `n` pass `test` when reached over `axis`? (The axis
/// matters: the principal node kind of `attribute` is attributes, of
/// everything else elements.)
pub fn test_matches<T: TreeAccess>(tree: &T, n: T::Node, axis: Axis, test: &NodeTest) -> bool {
    let kind = tree.kind(n);
    match test {
        NodeTest::Node => true,
        NodeTest::Text => kind == NodeKind::Text,
        NodeTest::Any => match axis {
            Axis::Attribute => kind == NodeKind::Attribute,
            _ => kind == NodeKind::Element,
        },
        NodeTest::Name(want) => {
            let kind_ok = match axis {
                Axis::Attribute => kind == NodeKind::Attribute,
                _ => kind == NodeKind::Element,
            };
            kind_ok && tree.has_name(n, want)
        }
    }
}

/// All nodes reachable from `n` over `axis`, in document order (the
/// untested, unpredicated candidate set a step filters).
pub fn axis_candidates<T: TreeAccess>(tree: &T, n: T::Node, axis: Axis) -> Vec<T::Node> {
    fn walk<T: TreeAccess>(tree: &T, n: T::Node, out: &mut Vec<T::Node>) {
        out.push(n);
        for c in tree.children(n) {
            walk(tree, c, out);
        }
    }
    match axis {
        Axis::Child => tree.children(n),
        Axis::Attribute => tree.attributes(n),
        Axis::Parent => tree.parent(n).into_iter().collect(),
        Axis::SelfAxis => vec![n],
        Axis::DescendantOrSelf => {
            // self + all descendants (children only; attributes are not
            // on the descendant axis), in document order.
            let mut out = Vec::new();
            walk(tree, n, &mut out);
            out
        }
        Axis::Descendant => {
            let mut out = Vec::new();
            for c in tree.children(n) {
                walk(tree, c, &mut out);
            }
            out
        }
        Axis::Ancestor => {
            let mut out = Vec::new();
            let mut cur = tree.parent(n);
            while let Some(p) = cur {
                out.push(p);
                cur = tree.parent(p);
            }
            out.reverse(); // document order: root first
            out
        }
        Axis::AncestorOrSelf => {
            let mut out = vec![n];
            let mut cur = tree.parent(n);
            while let Some(p) = cur {
                out.push(p);
                cur = tree.parent(p);
            }
            out.reverse();
            out
        }
        Axis::FollowingSibling => match tree.parent(n) {
            Some(p) => {
                let siblings = tree.children(p);
                match siblings.iter().position(|&s| s == n) {
                    Some(i) => siblings[i + 1..].to_vec(),
                    None => Vec::new(), // attributes have no siblings
                }
            }
            None => Vec::new(),
        },
        Axis::PrecedingSibling => match tree.parent(n) {
            Some(p) => {
                let siblings = tree.children(p);
                match siblings.iter().position(|&s| s == n) {
                    Some(i) => siblings[..i].to_vec(),
                    None => Vec::new(),
                }
            }
            None => Vec::new(),
        },
    }
}

/// Evaluate one step from one context node (before predicates the
/// candidates are in document order, which positional predicates rely
/// on).
pub fn eval_step<T: TreeAccess>(tree: &T, n: T::Node, step: &Step) -> Vec<T::Node> {
    let mut out: Vec<T::Node> = axis_candidates(tree, n, step.axis)
        .into_iter()
        .filter(|&c| test_matches(tree, c, step.axis, &step.test))
        .collect();
    for pred in &step.predicates {
        out = apply_predicate(tree, out, pred);
    }
    out
}

/// Filter a per-context candidate list (already in document order)
/// through one predicate — positional predicates index that order.
fn apply_predicate<T: TreeAccess>(tree: &T, nodes: Vec<T::Node>, pred: &Predicate) -> Vec<T::Node> {
    match pred {
        Predicate::Position(k) => {
            let k = *k as usize;
            if k >= 1 && k <= nodes.len() {
                vec![nodes[k - 1]]
            } else {
                Vec::new()
            }
        }
        Predicate::Last => nodes.last().copied().into_iter().collect(),
        Predicate::Exists(path) => {
            nodes.into_iter().filter(|&n| !eval_relative(tree, n, path).is_empty()).collect()
        }
        Predicate::Compare { path, op, literal } => nodes
            .into_iter()
            .filter(|&n| {
                eval_relative(tree, n, path)
                    .into_iter()
                    .any(|m| op.holds(compare_values(&tree.string_value(m), literal)))
            })
            .collect(),
    }
}

/// The union of per-context step results in document order, without
/// duplicates. Each list must already be in document order (every axis
/// yields its candidates that way, and predicates only drop nodes).
///
/// The lists are concatenated; when each one starts after the previous
/// one ended — the usual case for child steps and for descendant steps
/// from non-nested contexts — the concatenation is strictly increasing,
/// hence duplicate-free, and is returned as is at one comparison per
/// non-empty list. Otherwise it is sorted (the sort merges the sorted
/// runs) and deduplicated.
pub fn doc_order_union<T: TreeAccess>(
    tree: &T,
    lists: impl IntoIterator<Item = Vec<T::Node>>,
) -> Vec<T::Node> {
    let mut out: Vec<T::Node> = Vec::new();
    let mut increasing = true;
    for list in lists {
        if let (Some(&last), Some(&first)) = (out.last(), list.first()) {
            increasing &= tree.cmp_doc_order(last, first) == Ordering::Less;
        }
        out.extend(list);
    }
    if !increasing {
        out.sort_by(|&a, &b| tree.cmp_doc_order(a, b));
        out.dedup();
    }
    out
}

/// Evaluate a relative path from one context node: each step from every
/// node the previous one selected, unioned in document order.
pub fn eval_relative<T: TreeAccess>(tree: &T, context: T::Node, path: &Path) -> Vec<T::Node> {
    let mut current = vec![context];
    for step in &path.steps {
        current = doc_order_union(tree, current.iter().map(|&n| eval_step(tree, n, step)));
    }
    current
}

/// Evaluate an absolute path by naive traversal through the accessors.
pub fn eval_naive<T: TreeAccess>(tree: &T, path: &Path) -> Vec<T::Node> {
    eval_relative(tree, tree.root(), path)
}

// ---------------------------------------------------------------- guided

/// Evaluate an absolute path over block storage, using the descriptive
/// schema to avoid traversal wherever the path shape allows.
///
/// This is the subject of experiment E5 (the §9.2 claim that schema
/// guidance beats a naive walk) and the UPDATE step of the benchmark's
/// traced replay. No database path runs it: `QUERY`, `XQUERY` and
/// update targets all execute an `xquery::QueryPlan`.
///
/// Strategy: resolve the longest predicate-free prefix of child/attribute
/// name-steps (and leading `//` steps) against the *schema* tree; scan
/// the descriptor lists of the resolved schema nodes directly; run the
/// remaining steps/predicates with the naive engine from those nodes.
pub fn eval_guided(storage: &XmlStorage, path: &Path) -> Vec<DescPtr> {
    // Longest guidable prefix.
    let mut schema_frontier: Vec<SchemaNodeId> = vec![storage.schema().root()];
    let mut consumed = 0;
    for step in &path.steps {
        if !step.predicates.is_empty() {
            break;
        }
        let mut next: Vec<SchemaNodeId> = match (step.axis, &step.test) {
            (Axis::Child, NodeTest::Name(name)) => schema_frontier
                .iter()
                .flat_map(|&sn| storage.schema().node(sn).children.iter().copied())
                .filter(|&c| {
                    let n = storage.schema().node(c);
                    n.kind == NodeKind::Element && n.name.as_deref() == Some(name.as_str())
                })
                .collect(),
            (Axis::Attribute, NodeTest::Name(name)) => schema_frontier
                .iter()
                .flat_map(|&sn| storage.schema().node(sn).children.iter().copied())
                .filter(|&c| {
                    let n = storage.schema().node(c);
                    n.kind == NodeKind::Attribute && n.name.as_deref() == Some(name.as_str())
                })
                .collect(),
            (Axis::Child, NodeTest::Text) => schema_frontier
                .iter()
                .flat_map(|&sn| storage.schema().node(sn).children.iter().copied())
                .filter(|&c| storage.schema().node(c).kind == NodeKind::Text)
                .collect(),
            (Axis::DescendantOrSelf, NodeTest::Name(name)) => {
                // All schema descendants-or-self with the name.
                let mut out = Vec::new();
                let mut stack = schema_frontier.clone();
                while let Some(sn) = stack.pop() {
                    let node = storage.schema().node(sn);
                    if node.kind == NodeKind::Element && node.name.as_deref() == Some(name.as_str())
                    {
                        out.push(sn);
                    }
                    stack.extend(node.children.iter().copied());
                }
                out
            }
            (Axis::DescendantOrSelf, NodeTest::Node) => {
                // The expanded `//` abbreviation: every schema
                // descendant-or-self (the following child step narrows).
                let mut out = Vec::new();
                let mut stack = schema_frontier.clone();
                while let Some(sn) = stack.pop() {
                    out.push(sn);
                    stack.extend(storage.schema().node(sn).children.iter().copied());
                }
                out
            }
            _ => break,
        };
        if next.is_empty() {
            return Vec::new(); // path doesn't exist in the data at all
        }
        // Nested frontier nodes reach shared schema descendants twice.
        next.sort_unstable_by_key(|sn| sn.index());
        next.dedup();
        schema_frontier = next;
        consumed += 1;
    }

    // Scan the frontier's descriptor lists (already in document order per
    // schema node; merge across schema nodes by label).
    let mut nodes: Vec<DescPtr> =
        if consumed == 0 { vec![storage.root()] } else { merge_scans(storage, &schema_frontier) };

    // Remaining steps with the naive engine (predicates are per context
    // node as in eval_relative).
    let tree = &storage;
    for step in &path.steps[consumed..] {
        nodes = doc_order_union(tree, nodes.iter().map(|&n| eval_step(tree, n, step)));
    }
    nodes
}

/// All descriptors of several schema nodes in document order: a k-way
/// heap merge by §9.3 label of their block lists, each of which is in
/// document order already (§9.2). O(n · log k) label comparisons for n
/// descriptors over k schema nodes, and no comparison at all when
/// k = 1.
pub fn merge_scans(storage: &XmlStorage, sns: &[SchemaNodeId]) -> Vec<DescPtr> {
    let mut lists: Vec<Vec<DescPtr>> =
        sns.iter().map(|&sn| storage.scan(sn)).filter(|l| !l.is_empty()).collect();
    if lists.len() <= 1 {
        return lists.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    // (label of the list's head, list, head position), smallest first.
    let mut heap: BinaryHeap<Reverse<(&storage::Nid, usize, usize)>> =
        lists.iter().enumerate().map(|(i, l)| Reverse((storage.nid(l[0]), i, 0))).collect();
    while let Some(mut head) = heap.peek_mut() {
        let Reverse((_, i, pos)) = *head;
        out.push(lists[i][pos]);
        match lists[i].get(pos + 1) {
            Some(&next) => *head = Reverse((storage.nid(next), i, pos + 1)),
            None => drop(PeekMut::pop(head)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// The Example 8 library with ids on books.
    fn library() -> (NodeStore, NodeId) {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        let data: [(&str, &str, &[&str]); 4] = [
            ("book", "Foundations of Databases", &["Abiteboul", "Hull", "Vianu"]),
            ("book", "An Introduction to Database Systems", &["Date"]),
            ("paper", "A Relational Model for Large Shared Data Banks", &["Codd"]),
            ("paper", "The Complexity of Relational Query Languages", &["Codd"]),
        ];
        for (i, (kind, title, authors)) in data.iter().enumerate() {
            let item = s.new_element(lib, *kind);
            s.new_attribute(item, "id", format!("x{}", i + 1));
            let t = s.new_element(item, "title");
            s.new_text(t, *title);
            for a in *authors {
                let an = s.new_element(item, "author");
                s.new_text(an, *a);
            }
        }
        (s, doc)
    }

    fn names(store: &NodeStore, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&n| store.string_value(n)).collect()
    }

    #[test]
    fn child_paths() {
        let (s, doc) = library();
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/library/book/title").unwrap());
        assert_eq!(
            names(&s, &r),
            ["Foundations of Databases", "An Introduction to Database Systems"]
        );
    }

    #[test]
    fn descendant_paths() {
        let (s, doc) = library();
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("//author").unwrap());
        assert_eq!(r.len(), 6);
        let r = eval_naive(&tree, &parse("/library//title").unwrap());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn attribute_and_predicates() {
        let (s, doc) = library();
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/library/book/@id").unwrap());
        assert_eq!(names(&s, &r), ["x1", "x2"]);
        let r = eval_naive(&tree, &parse("/library/paper[author='Codd']/title").unwrap());
        assert_eq!(r.len(), 2);
        let r = eval_naive(&tree, &parse("/library/*[@id='x3']/title").unwrap());
        assert_eq!(names(&s, &r), ["A Relational Model for Large Shared Data Banks"]);
        let r = eval_naive(&tree, &parse("/library/book[2]/author").unwrap());
        assert_eq!(names(&s, &r), ["Date"]);
        let r = eval_naive(&tree, &parse("/library/book[last()]/author[last()]").unwrap());
        assert_eq!(names(&s, &r), ["Date"]);
    }

    #[test]
    fn text_and_parent_steps() {
        let (s, doc) = library();
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/library/book[1]/title/text()").unwrap());
        assert_eq!(r.len(), 1);
        assert_eq!(s.node_kind(r[0]), "text");
        let r = eval_naive(&tree, &parse("/library/book/title/..").unwrap());
        assert_eq!(r.len(), 2);
        assert_eq!(s.node_name(r[0]), Some("book"));
    }

    #[test]
    fn existence_predicate() {
        let (mut s, doc) = library();
        // Give the first book an extra child.
        let lib = s.children(doc)[0];
        let first_book = s.child_elements(lib)[0];
        let extra = s.new_element(first_book, "issue");
        s.new_text(extra, "1st");
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/library/book[issue]/title").unwrap());
        assert_eq!(names(&s, &r), ["Foundations of Databases"]);
    }

    #[test]
    fn numeric_predicate_comparison() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let root = s.new_element(doc, "items");
        for price in ["9.5", "10", "20"] {
            let item = s.new_element(root, "item");
            let p = s.new_element(item, "price");
            s.new_text(p, price);
        }
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/items/item[price>'9.9']").unwrap());
        assert_eq!(r.len(), 2);
        let r = eval_naive(&tree, &parse("/items/item[price<='10']").unwrap());
        assert_eq!(r.len(), 2);
    }

    /// Only digit-based numerals compare numerically: `NaN`, `inf` and
    /// `Infinity` are text, so they neither match `INF` nor drop out of
    /// a `!=`.
    #[test]
    fn only_numerals_compare_numerically() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let root = s.new_element(doc, "r");
        for v in ["NaN", "inf", "Infinity", "abc", "10", "9"] {
            let e = s.new_element(root, "e");
            let t = s.new_element(e, "t");
            s.new_text(t, v);
        }
        let tree = XdmTree { store: &s, doc };
        let hits = |q: &str| names(&s, &eval_naive(&tree, &parse(q).unwrap()));
        assert_eq!(hits(r#"/r/e[t = "NaN"]/t"#), ["NaN"]);
        assert_eq!(hits(r#"/r/e[t = "INF"]/t"#), Vec::<String>::new());
        assert_eq!(hits(r#"/r/e[t != "NaN"]/t"#), ["inf", "Infinity", "abc", "10", "9"]);
        assert_eq!(hits(r#"/r/e[t < "10.0"]/t"#), ["9"]);
    }

    #[test]
    fn guided_agrees_with_naive_on_storage() {
        let (s, doc) = library();
        let storage = XmlStorage::from_tree(&s, doc);
        let queries = [
            "/library/book/title",
            "/library/paper/author",
            "//author",
            "//title",
            "/library/book/@id",
            "/library/*[@id='x2']/title",
            "/library/paper[author='Codd']/title",
            "/library/book[2]/author",
            "/library/book/title/text()",
            "/library/nosuch",
            "//nosuch",
        ];
        for q in queries {
            let path = parse(q).unwrap();
            let naive = eval_naive(&&storage, &path);
            let guided = eval_guided(&storage, &path);
            assert_eq!(naive, guided, "{q}");
        }
    }

    #[test]
    fn guided_agrees_with_xdm_naive_by_string_values() {
        let (s, doc) = library();
        let storage = XmlStorage::from_tree(&s, doc);
        let tree = XdmTree { store: &s, doc };
        for q in ["/library/book/title", "//author", "/library/paper[author='Codd']/title"] {
            let path = parse(q).unwrap();
            let a: Vec<String> =
                eval_naive(&tree, &path).into_iter().map(|n| s.string_value(n)).collect();
            let b: Vec<String> =
                eval_guided(&storage, &path).into_iter().map(|p| storage.string_value(p)).collect();
            assert_eq!(a, b, "{q}");
        }
    }

    #[test]
    fn guided_dedupes_nested_schema_paths() {
        // `a` nests in `a`, so `//a//b` reaches the inner `b` schema node
        // from both `a` schema nodes; it must be scanned once.
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let r = s.new_element(doc, "r");
        let a = s.new_element(r, "a");
        let inner = s.new_element(a, "a");
        s.new_element(inner, "b");
        s.new_element(a, "b");
        let storage = XmlStorage::from_tree(&s, doc);
        for q in ["//a//b", "//a//a", "//a/descendant-or-self::b"] {
            let path = parse(q).unwrap();
            assert_eq!(eval_guided(&storage, &path), eval_naive(&&storage, &path), "{q}");
        }
    }

    #[test]
    fn guided_short_circuits_missing_paths() {
        let (s, doc) = library();
        let storage = XmlStorage::from_tree(&s, doc);
        // A path absent from the descriptive schema returns empty without
        // touching any descriptors.
        let r = eval_guided(&storage, &parse("/library/dvd/title").unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn bare_root_path() {
        let (s, doc) = library();
        let tree = XdmTree { store: &s, doc };
        let r = eval_naive(&tree, &parse("/").unwrap());
        assert_eq!(r, vec![doc]);
    }
}

#[cfg(test)]
mod axis_tests {
    use super::*;
    use crate::parser::parse;

    fn tree() -> (NodeStore, NodeId) {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let root = s.new_element(doc, "r");
        let a = s.new_element(root, "a");
        let b = s.new_element(a, "b");
        let c = s.new_element(b, "c");
        s.new_text(c, "x");
        s.new_element(root, "s1");
        s.new_element(root, "s2");
        s.new_element(root, "s3");
        (s, doc)
    }

    #[test]
    fn ancestor_axis_returns_document_order() {
        let (s, doc) = tree();
        let t = XdmTree { store: &s, doc };
        let hits = eval_naive(&t, &parse("/r/a/b/c/ancestor::*").unwrap());
        let names: Vec<_> = hits.iter().map(|&n| s.node_name(n).unwrap()).collect();
        assert_eq!(names, ["r", "a", "b"]);
        let hits = eval_naive(&t, &parse("/r/a/b/c/ancestor-or-self::*").unwrap());
        assert_eq!(hits.len(), 4);
        let hits = eval_naive(&t, &parse("/r/a/b/c/ancestor::a").unwrap());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn descendant_axis_excludes_self() {
        let (s, doc) = tree();
        let t = XdmTree { store: &s, doc };
        let dos = eval_naive(&t, &parse("/r/a/descendant-or-self::*").unwrap());
        let d = eval_naive(&t, &parse("/r/a/descendant::*").unwrap());
        assert_eq!(dos.len(), d.len() + 1);
        let names: Vec<_> = d.iter().map(|&n| s.node_name(n).unwrap()).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn sibling_axes() {
        let (s, doc) = tree();
        let t = XdmTree { store: &s, doc };
        let f = eval_naive(&t, &parse("/r/s1/following-sibling::*").unwrap());
        let names: Vec<_> = f.iter().map(|&n| s.node_name(n).unwrap()).collect();
        assert_eq!(names, ["s2", "s3"]);
        let p = eval_naive(&t, &parse("/r/s2/preceding-sibling::*").unwrap());
        let names: Vec<_> = p.iter().map(|&n| s.node_name(n).unwrap()).collect();
        assert_eq!(names, ["a", "s1"]);
        let none = eval_naive(&t, &parse("/r/s3/following-sibling::*").unwrap());
        assert!(none.is_empty());
    }

    #[test]
    fn explicit_child_and_self_axes() {
        let (s, doc) = tree();
        let t = XdmTree { store: &s, doc };
        assert_eq!(
            eval_naive(&t, &parse("/child::r/child::a").unwrap()),
            eval_naive(&t, &parse("/r/a").unwrap())
        );
        assert_eq!(eval_naive(&t, &parse("/r/a/self::a").unwrap()).len(), 1);
        assert!(eval_naive(&t, &parse("/r/a/self::b").unwrap()).is_empty());
    }

    #[test]
    fn new_axes_agree_between_backends() {
        let (s, doc) = tree();
        let storage = storage::XmlStorage::from_tree(&s, doc);
        let t = XdmTree { store: &s, doc };
        for q in [
            "/r/a/b/c/ancestor::*",
            "/r/s1/following-sibling::*",
            "/r/s2/preceding-sibling::*",
            "/r/a/descendant::*",
            "/r/descendant-or-self::*",
        ] {
            let path = parse(q).unwrap();
            let a: Vec<String> = eval_naive(&t, &path).iter().map(|&n| s.string_value(n)).collect();
            let b: Vec<String> =
                eval_naive(&&storage, &path).iter().map(|&p| storage.string_value(p)).collect();
            let g: Vec<String> =
                eval_guided(&storage, &path).iter().map(|&p| storage.string_value(p)).collect();
            assert_eq!(a, b, "{q}");
            assert_eq!(b, g, "{q}");
        }
    }

    /// A predicate's path prints relative, and the printed step parses
    /// back to the same step.
    #[test]
    fn predicate_paths_print_relative() {
        for (q, printed) in [
            (r#"/library/book[title="t5"]/author"#, r#"/library/book[title="t5"]/author"#),
            ("/a/b[c/@d]", "/a/b[c/@d]"),
            ("/a/b[.//c]", "/a/b[.//c]"),
            ("/a/b[../c != '1']", r#"/a/b[../c!="1"]"#),
            (r#"/a[@id='say "hi"']"#, r#"/a[@id='say "hi"']"#),
        ] {
            let p = parse(q).unwrap();
            assert_eq!(p.to_string(), printed, "{q}");
            assert_eq!(parse(printed).unwrap(), p, "{q}");
        }
        // A predicate path from the root is refused, not read as relative.
        for q in ["/a/b[//c]", "/a/b[/a]"] {
            let err = parse(q).unwrap_err();
            assert!(err.reason.contains("relative"), "{q}: {err}");
        }
    }

    #[test]
    fn display_roundtrips_new_axes() {
        for q in [
            "/r/a/ancestor::x",
            "/r/a/ancestor-or-self::*",
            "/r/descendant::y",
            "/r/a/following-sibling::b",
            "/r/a/preceding-sibling::*",
        ] {
            let p = parse(q).unwrap();
            assert_eq!(parse(&p.to_string()).unwrap(), p, "{q}");
        }
    }
}
