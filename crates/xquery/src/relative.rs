//! Relative paths compiled on the DataGuide into §9.2 pointer hops.
//!
//! A descriptor keeps one *first child per schema child* (§9.2), and the
//! DataGuide is exact on downward paths (§9.1): the `title` children of
//! a `book` are the run of the `book/title` schema node's chain that
//! starts at the book's `title` pointer. So a child step `title`, an
//! attribute step `@id` or a `text()` step resolves, per context schema
//! node, to one first-child slot — or to nothing, when the guide has no
//! such child and the step is statically empty from there. Execution
//! then walks that slot ([`XmlStorage::children_in`]): no list of all
//! children, no name copied or compared per node.
//!
//! Any other axis or node test runs the accessor-level step
//! ([`xpath::axis_candidates`] and [`xpath::test_matches`]) from that
//! context, so every path compiles and the result is always the naive
//! evaluator's: the same nodes in §7 document order. Predicates compile
//! recursively, and a comparison literal is classified
//! ([`xpath::Value`]) once, here.
//!
//! A [`RelPath`] serves a plan's `Exists` / `Compare` predicates and its
//! guided child-name steps ([`crate::plan`]), and every `$v/…` of a
//! FLWOR over storage ([`crate::stored`]).

use std::borrow::Cow;
use std::cmp::Ordering;

use storage::{DescPtr, DescriptiveSchema, SchemaNodeId, XmlStorage};
use xdm::NodeKind;
use xpath::{
    axis_candidates, test_matches, Axis, CompareOp, NodeTest, Path, Predicate, Step, Value,
};

/// A child, attribute or `text()` name step resolved on the DataGuide:
/// for each context schema node, the first-child slot the step hops
/// through, or `None` where the guide proves it empty.
#[derive(Debug, Clone)]
pub(crate) struct Hop {
    /// Indexed by context schema node.
    slots: Vec<Option<u32>>,
}

impl Hop {
    /// The hop `step`'s axis and node test resolve to, if they are a
    /// child name, attribute name or `text()` test. Predicates are not
    /// the hop's business.
    pub(crate) fn compile(schema: &DescriptiveSchema, step: &Step) -> Option<Hop> {
        let (kind, name) = match (step.axis, &step.test) {
            (Axis::Child, NodeTest::Name(n)) => (NodeKind::Element, Some(n.as_str())),
            (Axis::Attribute, NodeTest::Name(n)) => (NodeKind::Attribute, Some(n.as_str())),
            (Axis::Child, NodeTest::Text) => (NodeKind::Text, None),
            _ => return None,
        };
        let mut slots = vec![None; schema.len()];
        for sn in schema.ids() {
            let node = schema.node(sn);
            if node.kind != kind || node.name.as_deref() != name {
                continue;
            }
            let Some(parent) = node.parent else { continue };
            let pos = schema.node(parent).children.iter().position(|&c| c == sn)?;
            // The guide keeps one child per (name, kind); a second one
            // would be a damaged guide, so it takes the accessor path.
            if slots[parent.index()].replace(u32::try_from(pos).ok()?).is_some() {
                return None;
            }
        }
        Some(Hop { slots })
    }

    /// The slot to walk from a context of schema node `sn`: `Some(None)`
    /// when the step is empty from there, `None` for a schema node the
    /// guide grew after compiling (the caller takes the accessor path).
    pub(crate) fn slot(&self, sn: SchemaNodeId) -> Option<Option<usize>> {
        self.slots.get(sn.index()).map(|s| s.map(|s| s as usize))
    }
}

/// A relative path compiled against one storage's DataGuide.
#[derive(Debug, Clone)]
pub(crate) struct RelPath {
    steps: Vec<RelStep>,
}

#[derive(Debug, Clone)]
struct RelStep {
    axis: Axis,
    test: NodeTest,
    hop: Option<Hop>,
    preds: Vec<Pred>,
}

/// A step predicate, compiled.
#[derive(Debug, Clone)]
pub(crate) enum Pred {
    Position(usize),
    Last,
    Exists(RelPath),
    Compare { path: RelPath, op: CompareOp, literal: Value },
}

impl Pred {
    pub(crate) fn compile(schema: &DescriptiveSchema, pred: &Predicate) -> Pred {
        match pred {
            Predicate::Position(k) => Pred::Position(*k as usize),
            Predicate::Last => Pred::Last,
            Predicate::Exists(path) => Pred::Exists(RelPath::compile(schema, path)),
            Predicate::Compare { path, op, literal } => Pred::Compare {
                path: RelPath::compile(schema, path),
                op: *op,
                literal: Value::new(literal.as_str()),
            },
        }
    }

    /// Filter one context's candidates `nodes[from..]` (document order)
    /// in place; positional predicates index that run.
    pub(crate) fn filter_tail(&self, st: &XmlStorage, nodes: &mut Vec<DescPtr>, from: usize) {
        match self {
            Pred::Position(k) => {
                let keep = k.checked_sub(1).and_then(|i| nodes.get(from + i)).copied();
                nodes.truncate(from);
                nodes.extend(keep);
            }
            Pred::Last => {
                let keep = if nodes.len() > from { nodes.pop() } else { None };
                nodes.truncate(from);
                nodes.extend(keep);
            }
            Pred::Exists(path) => retain_tail(nodes, from, |n| path.exists(st, n)),
            Pred::Compare { path, op, literal } => retain_tail(nodes, from, |n| {
                path.any_value(st, n, |v| op.holds(literal.compared_from(v)))
            }),
        }
    }
}

fn retain_tail(nodes: &mut Vec<DescPtr>, from: usize, mut keep: impl FnMut(DescPtr) -> bool) {
    let mut kept = from;
    for i in from..nodes.len() {
        if keep(nodes[i]) {
            nodes[kept] = nodes[i];
            kept += 1;
        }
    }
    nodes.truncate(kept);
}

impl RelPath {
    /// Compile `path`, read as relative to a context node.
    pub(crate) fn compile(schema: &DescriptiveSchema, path: &Path) -> RelPath {
        let steps = path
            .steps
            .iter()
            .map(|step| RelStep {
                axis: step.axis,
                test: step.test.clone(),
                hop: Hop::compile(schema, step),
                preds: step.predicates.iter().map(|p| Pred::compile(schema, p)).collect(),
            })
            .collect();
        RelPath { steps }
    }

    /// The nodes the path selects from any of `contexts`, in document
    /// order without duplicates.
    pub(crate) fn eval(&self, st: &XmlStorage, contexts: &[DescPtr]) -> Vec<DescPtr> {
        let mut current = Cow::Borrowed(contexts);
        for step in &self.steps {
            current = Cow::Owned(step.eval(st, &current));
        }
        current.into_owned()
    }

    /// Does the path select anything from `ctx`? Stops at the first hit.
    pub(crate) fn exists(&self, st: &XmlStorage, ctx: DescPtr) -> bool {
        self.any_node(st, ctx, |_| true)
    }

    /// Does some node the path selects from `ctx` have a string value
    /// satisfying `test`? Stops at the first that does.
    pub(crate) fn any_value(
        &self,
        st: &XmlStorage,
        ctx: DescPtr,
        mut test: impl FnMut(&str) -> bool,
    ) -> bool {
        self.any_node(st, ctx, |n| test(&string_value(st, n)))
    }

    fn any_node(
        &self,
        st: &XmlStorage,
        ctx: DescPtr,
        mut test: impl FnMut(DescPtr) -> bool,
    ) -> bool {
        let Some((last, init)) = self.steps.split_last() else { return test(ctx) };
        let one = [ctx];
        let mut frontier = Cow::Borrowed(&one[..]);
        for step in init {
            frontier = Cow::Owned(step.eval(st, &frontier));
        }
        let mut buf = Vec::new();
        frontier.iter().any(|&c| match last.plain_hop(st, c) {
            Some(slot) => slot.is_some_and(|slot| st.children_in(c, slot).any(&mut test)),
            None => {
                buf.clear();
                last.push_from(st, c, &mut buf);
                buf.iter().any(|&n| test(n))
            }
        })
    }
}

impl RelStep {
    /// The union of the step from every context, in document order:
    /// per-context runs are concatenated, and sorted only when two of
    /// them overlap or interleave (as [`xpath::doc_order_union`]).
    fn eval(&self, st: &XmlStorage, contexts: &[DescPtr]) -> Vec<DescPtr> {
        let mut out = Vec::new();
        let mut increasing = true;
        for &c in contexts {
            let from = out.len();
            self.push_from(st, c, &mut out);
            if from > 0 && out.len() > from {
                increasing &= st.cmp_doc_order(out[from - 1], out[from]) == Ordering::Less;
            }
        }
        if !increasing {
            out.sort_by(|&a, &b| st.cmp_doc_order(a, b));
            out.dedup();
        }
        out
    }

    /// The slot a predicate-free hop walks from `ctx` (`Some(None)`:
    /// statically empty), or `None` when the step needs the general path.
    fn plain_hop(&self, st: &XmlStorage, ctx: DescPtr) -> Option<Option<usize>> {
        if !self.preds.is_empty() {
            return None;
        }
        self.hop.as_ref()?.slot(st.schema_node_of(ctx))
    }

    /// Append the step's result from one context, in document order.
    fn push_from(&self, st: &XmlStorage, ctx: DescPtr, out: &mut Vec<DescPtr>) {
        let from = out.len();
        match self.hop.as_ref().and_then(|h| h.slot(st.schema_node_of(ctx))) {
            Some(slot) => out.extend(slot.into_iter().flat_map(|slot| st.children_in(ctx, slot))),
            None => out.extend(
                axis_candidates(&st, ctx, self.axis)
                    .into_iter()
                    .filter(|&n| test_matches(&st, n, self.axis, &self.test)),
            ),
        }
        for pred in &self.preds {
            pred.filter_tail(st, out, from);
        }
    }
}

/// `string-value` borrowed where the storage holds it in one piece: a
/// text or attribute node's own text, or an element whose DataGuide
/// content is text only and which has one text child. Anything else is
/// assembled by [`XmlStorage::string_value`].
pub(crate) fn string_value(st: &XmlStorage, n: DescPtr) -> Cow<'_, str> {
    match st.kind(n) {
        NodeKind::Text | NodeKind::Attribute => Cow::Borrowed(st.leaf_value(n)),
        NodeKind::Element => {
            let schema = st.schema();
            let mut text_slot = None;
            for (slot, &c) in schema.node(st.schema_node_of(n)).children.iter().enumerate() {
                match schema.node(c).kind {
                    NodeKind::Attribute => {}
                    NodeKind::Text => text_slot = Some(slot),
                    _ => return Cow::Owned(st.string_value(n)),
                }
            }
            let Some(slot) = text_slot else { return Cow::Borrowed("") };
            let mut texts = st.children_in(n, slot);
            match (texts.next(), texts.next()) {
                (None, _) => Cow::Borrowed(""),
                (Some(t), None) => Cow::Borrowed(st.leaf_value(t)),
                (Some(_), Some(_)) => Cow::Owned(st.string_value(n)),
            }
        }
        NodeKind::Document => Cow::Owned(st.string_value(n)),
    }
}
