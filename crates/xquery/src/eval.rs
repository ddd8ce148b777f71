//! FLWOR evaluation over any [`TreeAccess`] backend — the oracle.
//!
//! Results are constructed XML fragments ([`xmlparse::Node`] values):
//! copied nodes are materialized through the accessors, so evaluation
//! works identically over the in-memory XDM tree and the §9 block
//! storage. Steps are `xpath`'s own ([`xpath::eval_relative`]), and
//! comparisons are the shared ones ([`xpath::compare_values`],
//! [`xpath::Value::sort_cmp`]). The database runs FLWOR over storage
//! with [`crate::stored`] instead, which must produce the same bytes.

use std::collections::HashMap;

use xmlparse::{Attribute, Element, Node, QName, WriteOptions, Writer};
use xpath::{compare_values, doc_order_union, eval_naive, eval_relative, TreeAccess, Value};

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
            let mut rows: Vec<(Env<'_, T::Node>, Value)> = Vec::new();
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
                        let first = nodes.first().map(|&n| tree.string_value(n));
                        Value::new(first.unwrap_or_default())
                    }
                    None => Value::new(""),
                };
                rows.push((env, key));
            }
            if let Some(order) = &flwor.order {
                // Keys are classified once per row; the sort order is
                // total (numerals first), so the sort is well defined.
                rows.sort_by(|a, b| {
                    let ord = a.1.sort_cmp(&b.1);
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
        // The path was parsed in absolute form; its steps apply from
        // each bound node instead of the document node.
        Some(path) => {
            Ok(doc_order_union(tree, base.iter().map(|&node| eval_relative(tree, node, path))))
        }
    }
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
            Ok(nodes.into_iter().any(|n| op.holds(compare_values(&tree.string_value(n), literal))))
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

/// Serialize constructed nodes to a string (fragments concatenated:
/// elements compactly, top-level text as is).
pub fn nodes_to_string(nodes: &[Node]) -> String {
    let mut w = Writer::new(WriteOptions::compact());
    for node in nodes {
        match node {
            Node::Element(e) => w.write_element(e, 0),
            Node::Text(t) => w.raw(t),
            _ => {}
        }
    }
    w.finish()
}
