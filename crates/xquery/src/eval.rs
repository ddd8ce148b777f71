//! FLWOR evaluation over any [`TreeAccess`] backend.
//!
//! Results are constructed XML fragments ([`xmlparse::Node`] values):
//! copied nodes are materialized through the accessors, so evaluation
//! works identically over the in-memory XDM tree and the §9 block
//! storage.

use std::cmp::Ordering;
use std::collections::HashMap;

use xmlparse::{Attribute, Element, Node, QName};
use xpath::{doc_order_union, eval_naive, Path, TreeAccess};

use crate::ast::{Condition, Constructor, Content, Item, Query, TemplatePart, VarPath};
use crate::parser::XQueryError;

/// Variable environment: name → bound node sequence.
type Env<'e, N> = HashMap<&'e str, Vec<N>>;

/// Evaluate a query over a tree, producing constructed nodes.
pub fn evaluate<T: TreeAccess>(tree: &T, query: &Query) -> Result<Vec<Node>, XQueryError> {
    match query {
        Query::Path(path) => {
            Ok(eval_naive(tree, path).into_iter().map(|n| copy_node(tree, n)).collect())
        }
        Query::Flwor(flwor) => {
            let bindings = eval_naive(tree, &flwor.source);
            let mut rows: Vec<(Env<'_, T::Node>, Option<String>)> = Vec::new();
            'binding: for b in bindings {
                let mut env: Env<'_, T::Node> = HashMap::new();
                env.insert(flwor.var.as_str(), vec![b]);
                for (name, vp) in &flwor.lets {
                    let value = resolve(tree, &env, vp)?;
                    env.insert(name.as_str(), value);
                }
                for cond in &flwor.conditions {
                    if !holds(tree, &env, cond)? {
                        continue 'binding;
                    }
                }
                let key = match &flwor.order {
                    Some(order) => {
                        let nodes = resolve(tree, &env, &order.key)?;
                        Some(nodes.first().map(|&n| tree.string_value(n)).unwrap_or_default())
                    }
                    None => None,
                };
                rows.push((env, key));
            }
            if let Some(order) = &flwor.order {
                rows.sort_by(|a, b| {
                    let ka = a.1.as_deref().unwrap_or("");
                    let kb = b.1.as_deref().unwrap_or("");
                    let ord = compare_keys(ka, kb);
                    if order.descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
            let mut out = Vec::new();
            for (env, _) in rows {
                instantiate(tree, &env, &flwor.ret, &mut out)?;
            }
            Ok(out)
        }
    }
}

/// Numeric when both sides parse as numbers, else string comparison.
fn compare_keys(a: &str, b: &str) -> Ordering {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.cmp(b),
    }
}

fn resolve<T: TreeAccess>(
    tree: &T,
    env: &Env<'_, T::Node>,
    vp: &VarPath,
) -> Result<Vec<T::Node>, XQueryError> {
    let base = env.get(vp.var.as_str()).ok_or_else(|| XQueryError {
        query: String::new(),
        reason: format!("unbound variable ${}", vp.var),
    })?;
    match &vp.path {
        None => Ok(base.clone()),
        Some(path) => {
            Ok(doc_order_union(tree, base.iter().map(|&node| eval_relative_from(tree, node, path))))
        }
    }
}

/// Evaluate a (parsed-as-absolute) path *relative to* `node`: the xpath
/// crate parses `/a/b` forms; here the leading steps apply from the
/// context node instead of the document root.
fn eval_relative_from<T: TreeAccess>(tree: &T, node: T::Node, path: &Path) -> Vec<T::Node> {
    let mut current = vec![node];
    for step in &path.steps {
        current = doc_order_union(tree, current.iter().map(|&n| xpath_step(tree, n, step)));
    }
    current
}

/// One step via the xpath crate's public pieces (re-implemented thin
/// wrapper: the step logic lives in `xpath::eval_naive`, which only
/// exposes whole-path evaluation from the root; a single-step path
/// evaluated from `n` is equivalent).
fn xpath_step<T: TreeAccess>(tree: &T, n: T::Node, step: &xpath::Step) -> Vec<T::Node> {
    let single = Path { steps: vec![step.clone()] };
    // eval from n by wrapping: xpath::eval_naive starts at tree.root();
    // we need a context-rooted evaluation, so emulate the axes here via
    // the TreeAccess operations to avoid widening xpath's API.
    let _ = single;
    use xpath::{Axis, NodeTest, Predicate};
    let kind_ok = |c: &T::Node, axis: Axis, test: &NodeTest| -> bool {
        let kind = tree.kind(*c);
        match test {
            NodeTest::Node => true,
            NodeTest::Text => kind == xdm::NodeKind::Text,
            NodeTest::Any => match axis {
                Axis::Attribute => kind == xdm::NodeKind::Attribute,
                _ => kind == xdm::NodeKind::Element,
            },
            NodeTest::Name(want) => {
                let k = match axis {
                    Axis::Attribute => kind == xdm::NodeKind::Attribute,
                    _ => kind == xdm::NodeKind::Element,
                };
                k && tree.name(*c).as_deref() == Some(want)
            }
        }
    };
    let candidates: Vec<T::Node> = match step.axis {
        Axis::Child => tree.children(n),
        Axis::Attribute => tree.attributes(n),
        Axis::Parent => tree.parent(n).into_iter().collect(),
        Axis::SelfAxis => vec![n],
        Axis::DescendantOrSelf | Axis::Descendant => {
            let mut out = Vec::new();
            let mut stack = vec![n];
            while let Some(x) = stack.pop() {
                out.push(x);
                let mut kids = tree.children(x);
                kids.reverse();
                stack.extend(kids);
            }
            if step.axis == Axis::Descendant {
                out.remove(0);
            }
            out
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut out = Vec::new();
            if step.axis == Axis::AncestorOrSelf {
                out.push(n);
            }
            let mut cur = tree.parent(n);
            while let Some(p) = cur {
                out.push(p);
                cur = tree.parent(p);
            }
            out.reverse();
            out
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => match tree.parent(n) {
            Some(p) => {
                let siblings = tree.children(p);
                match siblings.iter().position(|&s| s == n) {
                    Some(i) if step.axis == Axis::FollowingSibling => siblings[i + 1..].to_vec(),
                    Some(i) => siblings[..i].to_vec(),
                    None => Vec::new(),
                }
            }
            None => Vec::new(),
        },
    };
    let mut out: Vec<T::Node> =
        candidates.into_iter().filter(|c| kind_ok(c, step.axis, &step.test)).collect();
    for pred in &step.predicates {
        out = match pred {
            Predicate::Position(k) => {
                let k = *k as usize;
                if k >= 1 && k <= out.len() {
                    vec![out[k - 1]]
                } else {
                    vec![]
                }
            }
            Predicate::Last => out.last().copied().into_iter().collect(),
            Predicate::Exists(p) => {
                out.into_iter().filter(|&m| !eval_relative_from(tree, m, p).is_empty()).collect()
            }
            Predicate::Compare { path, op, literal } => out
                .into_iter()
                .filter(|&m| {
                    eval_relative_from(tree, m, path).into_iter().any(|h| {
                        let v = tree.string_value(h);
                        let ord = compare_keys(&v, literal);
                        op.holds(ord)
                    })
                })
                .collect(),
        };
    }
    out
}

fn holds<T: TreeAccess>(
    tree: &T,
    env: &Env<'_, T::Node>,
    cond: &Condition,
) -> Result<bool, XQueryError> {
    match cond {
        Condition::Exists(vp) => Ok(!resolve(tree, env, vp)?.is_empty()),
        Condition::Compare { lhs, op, literal } => {
            let nodes = resolve(tree, env, lhs)?;
            Ok(nodes.into_iter().any(|n| {
                let v = tree.string_value(n);
                op.holds(compare_keys(&v, literal))
            }))
        }
    }
}

fn instantiate<T: TreeAccess>(
    tree: &T,
    env: &Env<'_, T::Node>,
    item: &Item,
    out: &mut Vec<Node>,
) -> Result<(), XQueryError> {
    match item {
        Item::Literal(s) => out.push(Node::Text(s.clone())),
        Item::VarPath(vp) => {
            for n in resolve(tree, env, vp)? {
                out.push(copy_node(tree, n));
            }
        }
        Item::Constructor(c) => out.push(Node::Element(construct(tree, env, c)?)),
    }
    Ok(())
}

fn construct<T: TreeAccess>(
    tree: &T,
    env: &Env<'_, T::Node>,
    c: &Constructor,
) -> Result<Element, XQueryError> {
    let mut elem = Element::new(QName::parse(&c.name));
    for (name, template) in &c.attributes {
        let mut value = String::new();
        for part in template {
            match part {
                TemplatePart::Literal(s) => value.push_str(s),
                TemplatePart::Expr(vp) => {
                    let nodes = resolve(tree, env, vp)?;
                    let joined: Vec<String> =
                        nodes.into_iter().map(|n| tree.string_value(n)).collect();
                    value.push_str(&joined.join(" "));
                }
            }
        }
        elem.attributes.push(Attribute { name: QName::parse(name), value });
    }
    for content in &c.content {
        match content {
            Content::Text(t) => elem.children.push(Node::Text(t.clone())),
            Content::Element(sub) => elem.children.push(Node::Element(construct(tree, env, sub)?)),
            Content::Expr(vp) => {
                for n in resolve(tree, env, vp)? {
                    elem.children.push(copy_node(tree, n));
                }
            }
        }
    }
    Ok(elem)
}

/// Deep-copy a tree node into a constructed fragment, reading only
/// through the accessors. Elements copy subtrees; attributes and text
/// nodes become text content.
fn copy_node<T: TreeAccess>(tree: &T, n: T::Node) -> Node {
    match tree.kind(n) {
        xdm::NodeKind::Element => Node::Element(copy_element(tree, n)),
        _ => Node::Text(tree.string_value(n)),
    }
}

fn copy_element<T: TreeAccess>(tree: &T, n: T::Node) -> Element {
    let mut elem = Element::new(QName::parse(&tree.name(n).unwrap_or_default()));
    for a in tree.attributes(n) {
        elem.attributes.push(Attribute {
            name: QName::parse(&tree.name(a).unwrap_or_default()),
            value: tree.string_value(a),
        });
    }
    for c in tree.children(n) {
        match tree.kind(c) {
            xdm::NodeKind::Element => elem.children.push(Node::Element(copy_element(tree, c))),
            xdm::NodeKind::Text => elem.children.push(Node::Text(tree.string_value(c))),
            _ => {}
        }
    }
    elem
}

/// Serialize constructed nodes to a string (fragments concatenated).
pub fn nodes_to_string(nodes: &[Node]) -> String {
    let mut out = String::new();
    for node in nodes {
        match node {
            Node::Element(e) => {
                let doc = xmlparse::Document::from_root(e.clone());
                out.push_str(&doc.to_xml());
            }
            Node::Text(t) => out.push_str(t),
            _ => {}
        }
    }
    out
}
