//! Pass 4: static path typing — queries that can never select anything.
//!
//! An XPath/XQuery step sequence is evaluated *symbolically* against the
//! document schema: the analysis tracks the set of element declarations a
//! path prefix can reach (starting from the document node, whose only
//! child is the §3 global element declaration) and flags the first step
//! whose result set is provably empty in every valid document. The same
//! evaluation runs against a [`storage::descriptive`] DataGuide when a
//! concrete document's shape is available.
//!
//! The analysis is *sound for emptiness*: it only reports a step when no
//! valid document can have a matching node. Whenever precision would be
//! lost — reverse axes on the schema backend, elements whose type is
//! unknown, steps that land on text/attribute leaves mid-path — the
//! analysis bails out silently instead of guessing.

use std::collections::BTreeMap;

use storage::{DescriptiveSchema, SchemaNodeId};
use xdm::NodeKind;
use xpath::{Axis, NodeTest, Path, Predicate};
use xquery::{Condition, Constructor, Content, Item, Query, TemplatePart, VarPath};
use xsmodel::{ComplexTypeDefinition, DocumentSchema, Type};

use crate::diag::Diagnostic;

/// Flag statically-empty steps in an XPath expression (`XSA401`).
pub fn analyze_xpath(schema: &DocumentSchema, path: &Path) -> Vec<Diagnostic> {
    let _span = xsobs::global().span(xsobs::HistogramId::AnalyzePathTyping);
    let backend = SchemaBackend { schema };
    let (_, diags) = eval_path(&backend, path, vec![Ctx::Doc], "path");
    diags
}

/// Flag statically-empty steps in an XQuery expression (`XSA401`):
/// the `for` source, `let` bindings, `where` conditions, the `order by`
/// key, and every path inside the `return` item are analyzed.
pub fn analyze_xquery(schema: &DocumentSchema, query: &Query) -> Vec<Diagnostic> {
    let flwor = match query {
        Query::Path(p) => return analyze_xpath(schema, p),
        Query::Flwor(f) => f,
    };
    let _span = xsobs::global().span(xsobs::HistogramId::AnalyzePathTyping);
    let backend = SchemaBackend { schema };
    let mut out = Vec::new();
    let (source, diags) =
        eval_path(&backend, &flwor.source, vec![Ctx::Doc], &format!("for ${}", flwor.var));
    out.extend(diags);
    let Some(source) = source else { return out };
    if source.definitely_empty() {
        return out; // the whole FLWOR iterates zero times; one report is enough
    }
    let mut env: BTreeMap<&str, PathResult<'_>> = BTreeMap::new();
    env.insert(&flwor.var, source);
    for (name, vp) in &flwor.lets {
        let bound = eval_varpath(&backend, vp, &env, &format!("let ${name}"), &mut out);
        if let Some(r) = bound {
            env.insert(name, r);
        }
    }
    for cond in &flwor.conditions {
        let vp = match cond {
            Condition::Exists(vp) => vp,
            Condition::Compare { lhs, .. } => lhs,
        };
        eval_varpath(&backend, vp, &env, "where condition", &mut out);
    }
    if let Some(order) = &flwor.order {
        eval_varpath(&backend, &order.key, &env, "order-by key", &mut out);
    }
    analyze_item(&backend, &flwor.ret, &env, &mut out);
    out
}

/// Flag statically-empty steps of a path against a concrete document's
/// DataGuide (`XSA401`). The guide has parent links, so reverse axes are
/// supported here (over-approximated for the sibling axes: any sibling
/// counts, regardless of order).
pub fn analyze_xpath_in_guide(guide: &DescriptiveSchema, path: &Path) -> Vec<Diagnostic> {
    let backend = GuideBackend { guide };
    let (_, diags) = eval_path(&backend, path, vec![guide.root()], "path");
    diags
}

fn analyze_item<'a>(
    backend: &SchemaBackend<'a>,
    item: &Item,
    env: &BTreeMap<&str, PathResult<'a>>,
    out: &mut Vec<Diagnostic>,
) {
    match item {
        Item::Literal(_) => {}
        Item::VarPath(vp) => {
            eval_varpath(backend, vp, env, "return item", out);
        }
        Item::Constructor(c) => analyze_constructor(backend, c, env, out),
    }
}

fn analyze_constructor<'a>(
    backend: &SchemaBackend<'a>,
    c: &Constructor,
    env: &BTreeMap<&str, PathResult<'a>>,
    out: &mut Vec<Diagnostic>,
) {
    for (attr, parts) in &c.attributes {
        for part in parts {
            if let TemplatePart::Expr(vp) = part {
                eval_varpath(backend, vp, env, &format!("attribute template \"{attr}\""), out);
            }
        }
    }
    for content in &c.content {
        match content {
            Content::Text(_) => {}
            Content::Expr(vp) => {
                eval_varpath(backend, vp, env, "constructor content", out);
            }
            Content::Element(nested) => analyze_constructor(backend, nested, env, out),
        }
    }
}

fn eval_varpath<'a>(
    backend: &SchemaBackend<'a>,
    vp: &VarPath,
    env: &BTreeMap<&str, PathResult<'a>>,
    label: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<PathResult<'a>> {
    let binding = env.get(vp.var.as_str())?;
    let Some(path) = &vp.path else { return Some(binding.clone()) };
    if binding.elems.is_empty() {
        // Binding is leaves-only (or already-reported empty): a further
        // path from it is out of the model — stay silent.
        return None;
    }
    let (result, diags) =
        eval_path(backend, path, binding.elems.clone(), &format!("{label} (${}/…)", vp.var));
    out.extend(diags);
    result
}

/// A statically-resolved element context: declared name and type.
#[derive(Clone, Copy)]
pub struct ResolvedElem<'a> {
    /// The element's declared name.
    pub name: &'a str,
    /// The element's declared type.
    pub ty: &'a Type,
    /// Whether the declaration is nillable: a nilled occurrence admits
    /// no content (§6.2), so content-installing edits on it must be
    /// rechecked at run time.
    pub nillable: bool,
}

/// Outcome of statically resolving an update's target path to the set
/// of element declarations it can select.
pub enum TargetResolution<'a> {
    /// The path can only select elements with these declarations.
    Elements(Vec<ResolvedElem<'a>>),
    /// The path provably selects nothing in any valid document.
    Empty,
    /// The analysis bailed out (unsupported axis, unknown type, or a
    /// path landing on text/attribute leaves).
    Unknown,
}

/// Outcome of statically resolving the *parent* contexts of an
/// update's target path — the element whose content model absorbs a
/// sibling-level edit. Only paths whose last step is `child::name`
/// resolve; everything else is [`ParentResolution::Unknown`].
pub enum ParentResolution<'a> {
    /// `(parent, target name)` pairs; a `None` parent is the document
    /// node (the target is the root element).
    Pairs(Vec<(Option<ResolvedElem<'a>>, String)>),
    /// The path prefix provably selects nothing.
    Empty,
    /// The analysis bailed out.
    Unknown,
}

/// Resolve an update path to the element declarations it can select.
pub fn resolve_update_target<'a>(schema: &'a DocumentSchema, path: &Path) -> TargetResolution<'a> {
    let backend = SchemaBackend { schema };
    let (result, _) = eval_path(&backend, path, vec![Ctx::Doc], "update target");
    let Some(result) = result else { return TargetResolution::Unknown };
    if result.definitely_empty() {
        return TargetResolution::Empty;
    }
    if result.elems.is_empty() {
        return TargetResolution::Unknown; // leaves only: not element targets
    }
    TargetResolution::Elements(
        result
            .elems
            .into_iter()
            .filter_map(|c| match c {
                Ctx::Doc => None,
                Ctx::Elem { name, ty, nillable } => Some(ResolvedElem { name, ty, nillable }),
            })
            .collect(),
    )
}

/// Resolve the parent contexts of an update path (see
/// [`ParentResolution`]). Predicates on the last step only narrow the
/// selected occurrences, so ignoring them here keeps both the Always
/// and the Never verdicts sound.
pub fn resolve_update_parent<'a>(schema: &'a DocumentSchema, path: &Path) -> ParentResolution<'a> {
    let Some((last, prefix)) = path.steps.split_last() else {
        return ParentResolution::Unknown;
    };
    let (Axis::Child, NodeTest::Name(target)) = (last.axis, &last.test) else {
        return ParentResolution::Unknown;
    };
    let backend = SchemaBackend { schema };
    let prefix = Path { steps: prefix.to_vec() };
    let (result, _) = eval_path(&backend, &prefix, vec![Ctx::Doc], "update parent");
    let Some(result) = result else { return ParentResolution::Unknown };
    if result.definitely_empty() {
        return ParentResolution::Empty;
    }
    ParentResolution::Pairs(
        result
            .elems
            .into_iter()
            .map(|c| match c {
                Ctx::Doc => (None, target.clone()),
                Ctx::Elem { name, ty, nillable } => {
                    (Some(ResolvedElem { name, ty, nillable }), target.clone())
                }
            })
            .collect(),
    )
}

/// What an element type contains, for update checking.
pub enum ResolvedContent<'a> {
    /// Complex content: element children governed by this group
    /// (`mixed` allows interleaved text).
    Group(&'a xsmodel::GroupDefinition, bool),
    /// Simple type or simple content: text only, no element children.
    Text,
    /// The type is not defined in the schema.
    Unknown,
}

/// Resolve what kind of content an element type admits.
pub fn resolve_content<'a>(schema: &'a DocumentSchema, ty: &'a Type) -> ResolvedContent<'a> {
    let backend = SchemaBackend { schema };
    match backend.resolve(ty) {
        Resolved::Complex(ComplexTypeDefinition::ComplexContent { content, mixed, .. }) => {
            ResolvedContent::Group(content, *mixed)
        }
        Resolved::Complex(ComplexTypeDefinition::SimpleContent { .. }) | Resolved::Simple => {
            ResolvedContent::Text
        }
        Resolved::Unknown => ResolvedContent::Unknown,
    }
}

/// A symbolic context node on the schema backend.
#[derive(Clone, Copy)]
enum Ctx<'a> {
    /// The document node.
    Doc,
    /// An element with the given declared name, type, and nillability.
    Elem { name: &'a str, ty: &'a Type, nillable: bool },
}

/// What a path prefix can reach on the schema backend.
type PathResult<'a> = GenPathResult<Ctx<'a>>;

/// The two evaluation backends share the step loop through this trait:
/// contexts are schema declarations ([`SchemaBackend`]) or DataGuide
/// nodes ([`GuideBackend`]).
trait PathBackend {
    type Ctx: Clone;
    /// Stable dedup key for a context.
    fn key(&self, ctx: &Self::Ctx) -> (usize, String);
    /// Element children; `None` when the backend cannot tell (bail).
    fn children(&self, ctx: &Self::Ctx) -> Option<Vec<Self::Ctx>>;
    /// Whether a text child can exist; `None` to bail.
    fn admits_text(&self, ctx: &Self::Ctx) -> Option<bool>;
    /// Whether the named attribute (or, with `None`, any attribute) can
    /// exist; `None` to bail.
    fn has_attribute(&self, ctx: &Self::Ctx, name: Option<&str>) -> Option<bool>;
    /// The element name of a context (`None` for the document node).
    fn name_of(&self, ctx: &Self::Ctx) -> Option<String>;
    /// Reverse-axis support: parent, ancestors, siblings. The default
    /// bails (schema backend: a type can appear under many parents).
    fn parent(&self, _ctx: &Self::Ctx) -> Option<Option<Self::Ctx>> {
        None
    }
    fn siblings(&self, _ctx: &Self::Ctx) -> Option<Vec<Self::Ctx>> {
        None
    }
}

struct SchemaBackend<'a> {
    schema: &'a DocumentSchema,
}

enum Resolved<'a> {
    Complex(&'a ComplexTypeDefinition),
    Simple,
    Unknown,
}

impl<'a> SchemaBackend<'a> {
    fn resolve(&self, ty: &'a Type) -> Resolved<'a> {
        match ty {
            Type::Named(n) => {
                if let Some(def) = self.schema.complex_types.get(n) {
                    Resolved::Complex(def)
                } else if self.schema.simple_types.contains(n) {
                    Resolved::Simple
                } else {
                    Resolved::Unknown
                }
            }
            Type::AnonymousComplex(def) => Resolved::Complex(def),
            Type::AnonymousSimple(_) => Resolved::Simple,
        }
    }
}

impl<'a> PathBackend for SchemaBackend<'a> {
    type Ctx = Ctx<'a>;

    fn key(&self, ctx: &Ctx<'a>) -> (usize, String) {
        match ctx {
            Ctx::Doc => (0, String::new()),
            Ctx::Elem { name, ty, .. } => (*ty as *const Type as usize, name.to_string()),
        }
    }

    fn children(&self, ctx: &Ctx<'a>) -> Option<Vec<Ctx<'a>>> {
        match ctx {
            Ctx::Doc => Some(vec![Ctx::Elem {
                name: &self.schema.root.name,
                ty: &self.schema.root.ty,
                nillable: self.schema.root.nillable,
            }]),
            Ctx::Elem { ty, .. } => match self.resolve(ty) {
                Resolved::Complex(ComplexTypeDefinition::ComplexContent { content, .. }) => Some(
                    content
                        .element_declarations()
                        .into_iter()
                        .map(|d| Ctx::Elem { name: &d.name, ty: &d.ty, nillable: d.nillable })
                        .collect(),
                ),
                Resolved::Complex(ComplexTypeDefinition::SimpleContent { .. })
                | Resolved::Simple => Some(Vec::new()),
                Resolved::Unknown => None,
            },
        }
    }

    fn admits_text(&self, ctx: &Ctx<'a>) -> Option<bool> {
        match ctx {
            Ctx::Doc => Some(false),
            Ctx::Elem { ty, .. } => match self.resolve(ty) {
                Resolved::Simple => Some(true),
                Resolved::Complex(ComplexTypeDefinition::SimpleContent { .. }) => Some(true),
                Resolved::Complex(ComplexTypeDefinition::ComplexContent { mixed, .. }) => {
                    Some(*mixed)
                }
                Resolved::Unknown => None,
            },
        }
    }

    fn has_attribute(&self, ctx: &Ctx<'a>, name: Option<&str>) -> Option<bool> {
        match ctx {
            Ctx::Doc => Some(false),
            Ctx::Elem { ty, .. } => match self.resolve(ty) {
                Resolved::Complex(def) => Some(match name {
                    Some(n) => def.attributes().contains_key(n),
                    None => !def.attributes().is_empty(),
                }),
                Resolved::Simple => Some(false),
                Resolved::Unknown => None,
            },
        }
    }

    fn name_of(&self, ctx: &Ctx<'a>) -> Option<String> {
        match ctx {
            Ctx::Doc => None,
            Ctx::Elem { name, .. } => Some(name.to_string()),
        }
    }
}

struct GuideBackend<'a> {
    guide: &'a DescriptiveSchema,
}

impl<'a> GuideBackend<'a> {
    fn kind_children(&self, ctx: SchemaNodeId, kind: NodeKind) -> Vec<SchemaNodeId> {
        self.guide
            .node(ctx)
            .children
            .iter()
            .copied()
            .filter(|&c| self.guide.node(c).kind == kind)
            .collect()
    }
}

impl<'a> PathBackend for GuideBackend<'a> {
    type Ctx = SchemaNodeId;

    fn key(&self, ctx: &SchemaNodeId) -> (usize, String) {
        (ctx.index() + 1, String::new())
    }

    fn children(&self, ctx: &SchemaNodeId) -> Option<Vec<SchemaNodeId>> {
        Some(self.kind_children(*ctx, NodeKind::Element))
    }

    fn admits_text(&self, ctx: &SchemaNodeId) -> Option<bool> {
        Some(!self.kind_children(*ctx, NodeKind::Text).is_empty())
    }

    fn has_attribute(&self, ctx: &SchemaNodeId, name: Option<&str>) -> Option<bool> {
        Some(match name {
            Some(n) => self.guide.attribute_child(*ctx, n).is_some(),
            None => !self.kind_children(*ctx, NodeKind::Attribute).is_empty(),
        })
    }

    fn name_of(&self, ctx: &SchemaNodeId) -> Option<String> {
        self.guide.node(*ctx).name.clone()
    }

    fn parent(&self, ctx: &SchemaNodeId) -> Option<Option<SchemaNodeId>> {
        Some(self.guide.node(*ctx).parent)
    }

    fn siblings(&self, ctx: &SchemaNodeId) -> Option<Vec<SchemaNodeId>> {
        match self.guide.node(*ctx).parent {
            None => Some(Vec::new()),
            Some(p) => Some(
                self.kind_children(p, NodeKind::Element).into_iter().filter(|c| c != ctx).collect(),
            ),
        }
    }
}

/// Evaluate a path symbolically from the given start contexts. Returns
/// the reachable set (`None` when the analysis bailed out) plus any
/// diagnostics. At most one `XSA401` is emitted — for the first step
/// whose result is provably empty.
fn eval_path<B: PathBackend>(
    backend: &B,
    path: &Path,
    start: Vec<B::Ctx>,
    label: &str,
) -> (Option<GenPathResult<B::Ctx>>, Vec<Diagnostic>) {
    let rendered = path.to_string();
    let mut ctxs = start;
    let mut diags = Vec::new();
    for (i, step) in path.steps.iter().enumerate() {
        let Some(mut next) = eval_step(backend, &ctxs, step) else {
            return (None, diags); // bail: unsupported axis or unknown type
        };
        // Predicates that can never hold empty the step's result.
        for pred in &step.predicates {
            let sub = match pred {
                Predicate::Exists(p) | Predicate::Compare { path: p, .. } => p,
                Predicate::Position(_) | Predicate::Last => continue,
            };
            if next.elems.is_empty() {
                continue; // predicate applies to leaves we do not track
            }
            // Evaluate silently: report once, at this step, if the
            // predicate is unsatisfiable everywhere.
            let (sub_result, _) = eval_path(backend, sub, next.elems.clone(), "predicate");
            if let Some(r) = sub_result {
                if r.definitely_empty() {
                    next.elems.clear();
                    next.leaves = false;
                    diags.push(empty_step_diag(label, &rendered, path, i, step, true));
                    return (Some(next), diags);
                }
            }
        }
        if next.definitely_empty() {
            diags.push(empty_step_diag(label, &rendered, path, i, step, false));
            return (Some(next), diags);
        }
        if next.elems.is_empty() && i + 1 < path.steps.len() {
            // Only leaves remain mid-path; we do not model steps from
            // text/attribute nodes — bail rather than guess.
            return (None, diags);
        }
        ctxs = next.elems.clone();
        if i + 1 == path.steps.len() {
            return (Some(next), diags);
        }
    }
    (Some(GenPathResult { elems: ctxs, leaves: false }), diags)
}

/// What a path prefix can reach: a set of contexts, plus a flag recording
/// that non-element nodes (text, attributes) were also matched.
#[derive(Clone)]
struct GenPathResult<C> {
    elems: Vec<C>,
    leaves: bool,
}

impl<C> GenPathResult<C> {
    fn definitely_empty(&self) -> bool {
        self.elems.is_empty() && !self.leaves
    }
}

fn empty_step_diag(
    label: &str,
    rendered: &str,
    path: &Path,
    i: usize,
    step: &xpath::Step,
    because_predicate: bool,
) -> Diagnostic {
    let reason = if because_predicate {
        "its predicate can never select anything"
    } else {
        "no document valid against the schema has a matching node"
    };
    let witness: Vec<String> = path.steps[..=i].iter().map(|s| s.to_string()).collect();
    Diagnostic::error(
        "XSA401",
        label.to_string(),
        format!("step {} \"{step}\" of \"{rendered}\" is statically empty: {reason}", i + 1),
    )
    .with_witness(witness)
}

fn eval_step<B: PathBackend>(
    backend: &B,
    ctxs: &[B::Ctx],
    step: &xpath::Step,
) -> Option<GenPathResult<B::Ctx>> {
    let mut result = GenPathResult { elems: Vec::new(), leaves: false };
    let mut push_elems = {
        let mut seen = std::collections::BTreeSet::new();
        move |result: &mut GenPathResult<B::Ctx>, backend: &B, c: B::Ctx| {
            if seen.insert(backend.key(&c)) {
                result.elems.push(c);
            }
        }
    };
    let name_matches = |backend: &B, c: &B::Ctx, test: &NodeTest| match test {
        NodeTest::Name(n) => backend.name_of(c).as_deref() == Some(n.as_str()),
        NodeTest::Any | NodeTest::Node => backend.name_of(c).is_some(),
        NodeTest::Text => false,
    };
    match step.axis {
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf => {
            // The parser expands `//` to descendant-or-self::node()/child::,
            // so a DescendantOrSelf step here is the real axis and keeps
            // the context nodes; Descendant is the strict descendants.
            let pool: Vec<B::Ctx> = if step.axis == Axis::Child {
                let mut pool = Vec::new();
                for c in ctxs {
                    pool.extend(backend.children(c)?);
                }
                pool
            } else {
                let mut pool =
                    if step.axis == Axis::DescendantOrSelf { ctxs.to_vec() } else { Vec::new() };
                pool.extend(descendants(backend, ctxs)?);
                pool
            };
            match &step.test {
                NodeTest::Text => {
                    let sources: Vec<&B::Ctx> = if step.axis == Axis::Child {
                        ctxs.iter().collect()
                    } else {
                        ctxs.iter().chain(pool.iter()).collect()
                    };
                    for c in sources {
                        if backend.admits_text(c)? {
                            result.leaves = true;
                            break;
                        }
                    }
                }
                test => {
                    if matches!(test, NodeTest::Node) {
                        // node() also matches text children.
                        let sources: Vec<&B::Ctx> = if step.axis == Axis::Child {
                            ctxs.iter().collect()
                        } else {
                            ctxs.iter().chain(pool.iter()).collect()
                        };
                        for c in sources {
                            if backend.admits_text(c)? {
                                result.leaves = true;
                                break;
                            }
                        }
                    }
                    for c in pool {
                        // node() keeps an unnamed context too: `//root` is
                        // descendant-or-self::node()/child::root from the
                        // document node.
                        if matches!(test, NodeTest::Node) || name_matches(backend, &c, test) {
                            push_elems(&mut result, backend, c);
                        }
                    }
                }
            }
        }
        Axis::Attribute => match &step.test {
            NodeTest::Name(n) => {
                for c in ctxs {
                    if backend.has_attribute(c, Some(n))? {
                        result.leaves = true;
                        break;
                    }
                }
            }
            NodeTest::Any | NodeTest::Node => {
                for c in ctxs {
                    if backend.has_attribute(c, None)? {
                        result.leaves = true;
                        break;
                    }
                }
            }
            NodeTest::Text => {}
        },
        Axis::SelfAxis => match &step.test {
            NodeTest::Node => {
                for c in ctxs {
                    push_elems(&mut result, backend, c.clone());
                }
            }
            NodeTest::Text => {}
            test => {
                for c in ctxs {
                    if name_matches(backend, c, test) {
                        push_elems(&mut result, backend, c.clone());
                    }
                }
            }
        },
        Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf => {
            if matches!(step.test, NodeTest::Text) {
                return Some(result); // parents are never text nodes
            }
            for c in ctxs {
                let mut cursor = if step.axis == Axis::AncestorOrSelf {
                    Some(c.clone())
                } else {
                    backend.parent(c)?
                };
                loop {
                    let Some(node) = cursor else { break };
                    if name_matches(backend, &node, &step.test) {
                        push_elems(&mut result, backend, node.clone());
                    } else if matches!(step.test, NodeTest::Node)
                        && backend.name_of(&node).is_none()
                    {
                        // The document node matches node() but is not an
                        // element context we track onward.
                        result.leaves = true;
                    }
                    if step.axis == Axis::Parent {
                        break;
                    }
                    cursor = backend.parent(&node)?;
                }
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            if matches!(step.test, NodeTest::Text) {
                // Sibling text nodes exist only in mixed content; the
                // guide tracks them as children of the parent, not
                // siblings — bail rather than approximate.
                return None;
            }
            for c in ctxs {
                for s in backend.siblings(c)? {
                    if name_matches(backend, &s, &step.test) {
                        push_elems(&mut result, backend, s);
                    }
                }
            }
        }
    }
    Some(result)
}

/// Strict descendants (transitive child closure) of the contexts.
fn descendants<B: PathBackend>(backend: &B, ctxs: &[B::Ctx]) -> Option<Vec<B::Ctx>> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut queue: Vec<B::Ctx> = Vec::new();
    for c in ctxs {
        queue.extend(backend.children(c)?);
    }
    while let Some(c) = queue.pop() {
        if !seen.insert(backend.key(&c)) {
            continue;
        }
        queue.extend(backend.children(&c)?);
        out.push(c);
    }
    Some(out)
}
