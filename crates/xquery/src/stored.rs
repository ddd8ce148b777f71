//! FLWOR execution over block storage.
//!
//! The `for` source is a [`crate::QueryPlan`]'s result, which the caller
//! plans and runs (pruning, statistics and the staleness check included);
//! everything after it reads the storage directly:
//!
//! * every `$v/…` of a `let`, `where`, `order by` or `return` is a
//!   [`RelPath`] compiled once per query on the document's DataGuide,
//!   so child, attribute and `text()` steps are first-child pointer hops;
//! * a `where` comparison classifies its literal once and stops at the
//!   first node that satisfies it;
//! * an `order by` key is classified once per row and rows sort by the
//!   total order of [`xpath::Value::sort_cmp`];
//! * results stream through one [`xmlparse::Writer`] into one `String`.
//!
//! The output is byte for byte what [`crate::evaluate`] (the generic
//! oracle) and [`crate::nodes_to_string`] produce over the same
//! document: top-level text items unescaped, text inside constructed or
//! copied elements escaped, an element with no content as `<a/>`.

use std::borrow::Cow;

use storage::{DescPtr, XmlStorage};
use xdm::NodeKind;
use xmlparse::{WriteOptions, Writer};
use xpath::Value;

use crate::ast::{Condition, Constructor, Content, Flwor, Item, TemplatePart, VarPath};
use crate::parser::XQueryError;
use crate::relative::{string_value, RelPath};

/// Run `flwor` over `st` with `bindings` — the `for` source's nodes in
/// document order — as the values of its variable, and serialize the
/// result sequence.
///
/// # Errors
/// A variable path names a variable not bound where it is evaluated.
pub fn execute_flwor(
    st: &XmlStorage,
    flwor: &Flwor,
    bindings: &[DescPtr],
) -> Result<String, XQueryError> {
    let mut scope = vec![flwor.var.as_str()];
    let mut lets = Vec::with_capacity(flwor.lets.len());
    for (name, vp) in &flwor.lets {
        lets.push(Compiled::new(st, &scope, vp));
        scope.push(name);
    }
    let conditions: Vec<(Compiled, Option<(xpath::CompareOp, Value)>)> = flwor
        .conditions
        .iter()
        .map(|cond| match cond {
            Condition::Exists(vp) => (Compiled::new(st, &scope, vp), None),
            Condition::Compare { lhs, op, literal } => {
                (Compiled::new(st, &scope, lhs), Some((*op, Value::new(literal.as_str()))))
            }
        })
        .collect();
    let order = flwor.order.as_ref().map(|o| (Compiled::new(st, &scope, &o.key), o.descending));
    let ret = Ret::new(st, &scope, &flwor.ret);

    let mut out = Out { st, w: Writer::new(WriteOptions::compact()) };
    let mut rows: Vec<(Env, Value)> = Vec::new();
    'binding: for &bound in bindings {
        let mut env = Env { bound, lets: Vec::with_capacity(lets.len()) };
        for l in &lets {
            let value = l.resolve(st, &env)?.into_owned();
            env.lets.push(value);
        }
        for (path, compare) in &conditions {
            let holds = match compare {
                None => path.exists(st, &env)?,
                Some((op, literal)) => {
                    path.any_value(st, &env, |v| op.holds(literal.compared_from(v)))?
                }
            };
            if !holds {
                continue 'binding;
            }
        }
        match &order {
            Some((key, _)) => {
                let first = key.resolve(st, &env)?.first().map(|&n| string_value(st, n));
                rows.push((env, Value::new(first.unwrap_or_default())));
            }
            None => out.item(&env, &ret)?,
        }
    }
    if let Some((_, descending)) = order {
        rows.sort_by(|a, b| {
            let ord = a.1.sort_cmp(&b.1);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        for (env, _) in &rows {
            out.item(env, &ret)?;
        }
    }
    Ok(out.w.finish())
}

/// Serialize copies of stored nodes as a query's result sequence:
/// elements as subtrees, every other node as its string value.
pub fn serialize_nodes(st: &XmlStorage, nodes: &[DescPtr]) -> String {
    let mut out = Out { st, w: Writer::new(WriteOptions::compact()) };
    for &n in nodes {
        out.copy_top(n);
    }
    out.w.finish()
}

/// One row's bindings: the `for` variable's node and each `let`'s nodes.
struct Env {
    bound: DescPtr,
    lets: Vec<Vec<DescPtr>>,
}

impl Env {
    /// The nodes bound to variable slot `slot` (0 is the `for` variable).
    fn get(&self, slot: usize) -> &[DescPtr] {
        match slot {
            0 => std::slice::from_ref(&self.bound),
            _ => &self.lets[slot - 1],
        }
    }
}

/// A variable path compiled against the variables in scope.
struct Compiled {
    /// The variable's slot, or its name when nothing binds it here.
    var: Result<usize, String>,
    path: Option<RelPath>,
}

impl Compiled {
    fn new(st: &XmlStorage, scope: &[&str], vp: &VarPath) -> Compiled {
        Compiled {
            // A later binding of the same name shadows an earlier one.
            var: scope.iter().rposition(|&v| v == vp.var).ok_or_else(|| vp.var.clone()),
            path: vp.path.as_ref().map(|p| RelPath::compile(st.schema(), p)),
        }
    }

    fn base<'e>(&self, env: &'e Env) -> Result<&'e [DescPtr], XQueryError> {
        match &self.var {
            Ok(slot) => Ok(env.get(*slot)),
            Err(name) => Err(XQueryError {
                query: String::new(),
                reason: format!("unbound variable ${name}"),
            }),
        }
    }

    /// The selected nodes, in document order.
    fn resolve<'e>(
        &self,
        st: &XmlStorage,
        env: &'e Env,
    ) -> Result<Cow<'e, [DescPtr]>, XQueryError> {
        let base = self.base(env)?;
        Ok(match &self.path {
            None => Cow::Borrowed(base),
            Some(path) => Cow::Owned(path.eval(st, base)),
        })
    }

    fn exists(&self, st: &XmlStorage, env: &Env) -> Result<bool, XQueryError> {
        let base = self.base(env)?;
        Ok(match &self.path {
            None => !base.is_empty(),
            Some(path) => base.iter().any(|&b| path.exists(st, b)),
        })
    }

    fn any_value(
        &self,
        st: &XmlStorage,
        env: &Env,
        mut test: impl FnMut(&str) -> bool,
    ) -> Result<bool, XQueryError> {
        let base = self.base(env)?;
        Ok(match &self.path {
            None => base.iter().any(|&b| test(&string_value(st, b))),
            Some(path) => base.iter().any(|&b| path.any_value(st, b, &mut test)),
        })
    }
}

/// The `return` item, its variable paths compiled.
enum Ret {
    Literal(String),
    Copy(Compiled),
    Construct(Cons),
}

struct Cons {
    name: String,
    attributes: Vec<(String, Vec<Part>)>,
    content: Vec<Piece>,
}

enum Part {
    Literal(String),
    Expr(Compiled),
}

enum Piece {
    Text(String),
    Expr(Compiled),
    Element(Cons),
}

impl Ret {
    fn new(st: &XmlStorage, scope: &[&str], item: &Item) -> Ret {
        match item {
            Item::Literal(s) => Ret::Literal(s.clone()),
            Item::VarPath(vp) => Ret::Copy(Compiled::new(st, scope, vp)),
            Item::Constructor(c) => Ret::Construct(Cons::new(st, scope, c)),
        }
    }
}

impl Cons {
    fn new(st: &XmlStorage, scope: &[&str], c: &Constructor) -> Cons {
        let attributes = c
            .attributes
            .iter()
            .map(|(name, template)| {
                let parts = template
                    .iter()
                    .map(|part| match part {
                        TemplatePart::Literal(s) => Part::Literal(s.clone()),
                        TemplatePart::Expr(vp) => Part::Expr(Compiled::new(st, scope, vp)),
                    })
                    .collect();
                (name.clone(), parts)
            })
            .collect();
        let content = c
            .content
            .iter()
            .map(|content| match content {
                Content::Text(t) => Piece::Text(t.clone()),
                Content::Expr(vp) => Piece::Expr(Compiled::new(st, scope, vp)),
                Content::Element(sub) => Piece::Element(Cons::new(st, scope, sub)),
            })
            .collect();
        Cons { name: c.name.clone(), attributes, content }
    }
}

/// The result sequence being written.
struct Out<'s> {
    st: &'s XmlStorage,
    w: Writer,
}

impl Out<'_> {
    fn item(&mut self, env: &Env, ret: &Ret) -> Result<(), XQueryError> {
        match ret {
            Ret::Literal(s) => self.w.raw(s),
            Ret::Copy(vp) => {
                for &n in vp.resolve(self.st, env)?.iter() {
                    self.copy_top(n);
                }
            }
            Ret::Construct(c) => self.construct(env, c)?,
        }
        Ok(())
    }

    fn construct(&mut self, env: &Env, c: &Cons) -> Result<(), XQueryError> {
        let st = self.st;
        self.w.start(&c.name);
        for (name, parts) in &c.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    Part::Literal(s) => value.push_str(s),
                    Part::Expr(vp) => {
                        // The selected nodes' string values, joined by
                        // single spaces.
                        for (i, &n) in vp.resolve(st, env)?.iter().enumerate() {
                            if i > 0 {
                                value.push(' ');
                            }
                            value.push_str(&string_value(st, n));
                        }
                    }
                }
            }
            self.w.attribute(name, &value);
        }
        for piece in &c.content {
            match piece {
                Piece::Text(t) => self.w.text(t),
                Piece::Element(sub) => self.construct(env, sub)?,
                Piece::Expr(vp) => {
                    for &n in vp.resolve(st, env)?.iter() {
                        match st.kind(n) {
                            NodeKind::Element => self.copy_element(n),
                            _ => self.w.text(&string_value(st, n)),
                        }
                    }
                }
            }
        }
        self.w.end(&c.name);
        Ok(())
    }

    /// A node copied as a top-level item: an element's subtree, or the
    /// string value of any other node, unescaped.
    fn copy_top(&mut self, n: DescPtr) {
        match self.st.kind(n) {
            NodeKind::Element => self.copy_element(n),
            _ => self.w.raw(&string_value(self.st, n)),
        }
    }

    fn copy_element(&mut self, n: DescPtr) {
        let st = self.st;
        let name = st.node_name(n).unwrap_or_default();
        self.w.start(name);
        for a in st.attributes(n) {
            self.w.attribute(st.node_name(a).unwrap_or_default(), st.leaf_value(a));
        }
        for c in st.children(n) {
            match st.kind(c) {
                NodeKind::Element => self.copy_element(c),
                NodeKind::Text => self.w.text(st.leaf_value(c)),
                _ => {}
            }
        }
        self.w.end(name);
    }
}
