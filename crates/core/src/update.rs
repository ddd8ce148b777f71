//! The one update path. §6.1 makes an update a function from the
//! database's pre-state to its post-state; [`apply`] computes that
//! function for one XQuery-Update-lite expression over one stored
//! document, following the XQuery Update Facility 1.0 (§3.2): every
//! target is resolved on the pre-state before anything changes.
//!
//! 1. **Resolve** the target path once, on the pre-state.
//! 2. **Check** each target's kind against the operation — a violation
//!    refuses the whole update (XUTY0005, XUTY0006, XUTY0008) — and keep
//!    only the outermost targets of the subtree-replacing operations.
//! 3. **Apply** the edit to a private clone of the block storage (an
//!    O(#blocks) pointer copy; the edit then copies the blocks it
//!    dirties).
//! 4. **Recheck** the content models the edit touched, unless the static
//!    verdict already proved the post-state valid.
//!
//! The caller commits by installing the returned clone. Nothing is
//! written before that, so a refusal at any step leaves nothing to undo.
//!
//! Target-kind rules, per operation (any other kind refuses the update):
//!
//! | operation | legal targets | refused with | silently skipped |
//! |---|---|---|---|
//! | `insert node … into`, `insert attribute … into` | element | XUTY0005 | — |
//! | `insert node … before` / `after` | element, text | XUTY0006 | children of the document node |
//! | `replace node` | element, text | XUTY0008 | — |
//! | `replace value of node` | element, text, attribute | XUTY0008 | — |
//! | `delete node` | any | — | the document node and its root element |
//!
//! A lite expression has one primitive kind and its target list holds
//! no duplicates, so the XQUF ordering and compatibility rules
//! (XUDY0015–17) cannot arise.

use algebra::{ContentModelCache, LoadOptions, Rule, ValidationError};
use storage::{DescPtr, XmlStorage};
use xdm::NodeKind;
use xpath::eval_guided;
use xquery::UpdateExpr;
use xsanalyze::UpdateVerdict;
use xsmodel::DocumentSchema;

use crate::error::DbError;
use crate::physical::validate_storage;

/// The outcome of a statically checked update
/// ([`crate::Database::execute_update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The static verdict the update ran under. Never
    /// [`xsanalyze::UpdateVerdict::Reject`] — a rejected update returns
    /// [`DbError::UpdateStaticallyInvalid`] instead of an outcome.
    pub verdict: xsanalyze::UpdateVerdict,
    /// How many targets the update applied to (parents inserted into,
    /// siblings inserted beside, nodes deleted, replaced, or rewritten).
    pub nodes: usize,
    /// How many content models were locally revalidated after the edit.
    /// Always `0` under an `Accept` verdict — that is the point of the
    /// static check.
    pub revalidated: usize,
}

/// What the recheck validates against: the document's schema and the
/// database's validation settings and compiled content models.
pub(crate) struct Recheck<'a> {
    pub(crate) schema: &'a DocumentSchema,
    pub(crate) options: &'a LoadOptions,
    pub(crate) cm_cache: &'a ContentModelCache,
    pub(crate) obs: &'a xsobs::Registry,
}

/// Run `upd` against the pre-state `pre` under the static `verdict`
/// (never `Reject`): resolve, check, apply on a clone, recheck. Returns
/// the outcome and the post-state for the caller to commit; `pre` is
/// never touched.
///
/// # Errors
/// [`DbError::XQuery`] naming the XUTY code when a target has the wrong
/// kind; [`DbError::Invalid`] when the recheck finds a violation;
/// [`DbError::Corrupt`] when the storage's structures are inconsistent.
pub(crate) fn apply(
    pre: &XmlStorage,
    upd: &UpdateExpr,
    verdict: UpdateVerdict,
    cx: &Recheck<'_>,
) -> Result<(UpdateOutcome, XmlStorage), DbError> {
    let targets = resolve(pre, upd)?;
    let mut post = pre.clone();
    let sites = edit(&mut post, upd, &targets)?;
    let revalidated = match verdict {
        UpdateVerdict::Accept => 0,
        _ => recheck(&post, sites, cx)?,
    };
    Ok((UpdateOutcome { verdict, nodes: targets.len(), revalidated }, post))
}

/// Steps 1 and 2: the targets `upd` applies to, resolved on `pre`.
fn resolve(pre: &XmlStorage, upd: &UpdateExpr) -> Result<Vec<DescPtr>, DbError> {
    use UpdateExpr as U;
    let found = eval_guided(pre, upd.target());
    let mut refusal = None;
    let mut bad: Vec<String> = Vec::new();
    for &t in &found {
        if let Some(rule) = illegal_kind(upd, pre.kind(t)) {
            refusal = Some(rule);
            let named = describe(pre, t);
            if !bad.contains(&named) {
                bad.push(named);
            }
        }
    }
    if let Some((code, legal)) = refusal {
        return Err(DbError::XQuery(xquery::XQueryError {
            query: upd.to_string(),
            reason: format!("{code}: every target must be {legal}, not {}", bad.join(", ")),
        }));
    }
    Ok(match upd {
        U::Delete { .. } => {
            // Never delete the document node or its root element.
            let root = pre.root();
            let victims =
                found.into_iter().filter(|&v| v != root && pre.parent(v) != Some(root)).collect();
            outermost(pre, victims)
        }
        // The document node admits exactly one child: no siblings of it.
        U::InsertBefore { .. } | U::InsertAfter { .. } => {
            found.into_iter().filter(|&t| pre.parent(t) != Some(pre.root())).collect()
        }
        U::ReplaceNode { .. } => outermost(pre, found),
        // Replacing an element's value rewrites its children, never its
        // own attributes: those survive and stay targets. An attribute
        // whose owner lies strictly inside a kept element is freed with
        // that element's children, so the outer target subsumes it.
        U::ReplaceValue { .. } => {
            let (attrs, rest): (Vec<_>, Vec<_>) =
                found.into_iter().partition(|&t| pre.kind(t) == NodeKind::Attribute);
            let mut kept = outermost(pre, rest);
            let inside_kept = |a: DescPtr| {
                let owner = pre.parent(a);
                kept.iter().any(|&k| Some(k) != owner && pre.is_ancestor(k, a))
            };
            let attrs: Vec<_> = attrs.into_iter().filter(|&a| !inside_kept(a)).collect();
            kept.extend(attrs);
            kept
        }
        U::InsertInto { .. } | U::InsertAttribute { .. } => found,
    })
}

/// The XQuery Update Facility's target-kind rule for `upd`: `None` when
/// a `kind` target is legal, else the error code and what the operation
/// needs.
fn illegal_kind(upd: &UpdateExpr, kind: NodeKind) -> Option<(&'static str, &'static str)> {
    use UpdateExpr as U;
    let (code, legal, ok) = match upd {
        U::InsertInto { .. } | U::InsertAttribute { .. } => {
            ("XUTY0005", "an element", kind == NodeKind::Element)
        }
        U::InsertBefore { .. } | U::InsertAfter { .. } => (
            "XUTY0006",
            "an element or text node",
            matches!(kind, NodeKind::Element | NodeKind::Text),
        ),
        U::ReplaceNode { .. } => (
            "XUTY0008",
            "an element or text node",
            matches!(kind, NodeKind::Element | NodeKind::Text),
        ),
        U::ReplaceValue { .. } => {
            ("XUTY0008", "an element, text or attribute node", kind != NodeKind::Document)
        }
        U::Delete { .. } => return None,
    };
    (!ok).then_some((code, legal))
}

/// Step 3: apply `upd` at every resolved target of the private copy,
/// returning the nodes whose local validity the edit may have
/// disturbed.
fn edit(
    post: &mut XmlStorage,
    upd: &UpdateExpr,
    targets: &[DescPtr],
) -> Result<Vec<DescPtr>, DbError> {
    use UpdateExpr as U;
    let mut sites = Vec::new();
    for &t in targets {
        match upd {
            U::InsertInto { name, text, .. } => {
                let last = post.children(t).last().copied();
                let new = insert_leaf(post, t, last, name, text.as_deref())?;
                // Both the host's content model and the new element's own
                // obligations (attributes, text, required children).
                sites.extend([t, new]);
            }
            U::InsertBefore { name, text, .. } | U::InsertAfter { name, text, .. } => {
                let parent = parent_of(post, t)?;
                let anchor = if matches!(upd, U::InsertAfter { .. }) {
                    Some(t)
                } else {
                    let siblings = post.children(parent);
                    let at = siblings.iter().position(|&c| c == t).unwrap_or(0);
                    at.checked_sub(1).map(|i| siblings[i])
                };
                let new = insert_leaf(post, parent, anchor, name, text.as_deref())?;
                sites.extend([parent, new]);
            }
            U::InsertAttribute { attr, value, .. } => {
                post.insert_attribute(t, attr, value)?;
                sites.push(t);
            }
            U::Delete { .. } => {
                let parent = parent_of(post, t)?;
                post.delete(t)?;
                sites.push(parent);
            }
            U::ReplaceNode { name, text, .. } => {
                let parent = parent_of(post, t)?;
                let new = insert_leaf(post, parent, Some(t), name, text.as_deref())?;
                post.delete(t)?;
                sites.extend([parent, new]);
            }
            U::ReplaceValue { value, .. } => {
                if post.kind(t) == NodeKind::Element {
                    // A lone text child is rewritten in place: no
                    // descriptor is freed or minted.
                    match post.children(t)[..] {
                        [only] if post.kind(only) == NodeKind::Text => {
                            post.set_text(only, value.as_str())?
                        }
                        ref kids => {
                            for &c in kids {
                                post.delete(c)?;
                            }
                            post.insert_text(t, None, value.as_str())?;
                        }
                    }
                    sites.push(t);
                } else {
                    post.set_text(t, value.as_str())?;
                    sites.push(parent_of(post, t)?);
                }
            }
        }
    }
    Ok(sites)
}

/// Insert the leaf element `<name>text?</name>` under `parent` after
/// `after` (`None` = first child).
fn insert_leaf(
    xs: &mut XmlStorage,
    parent: DescPtr,
    after: Option<DescPtr>,
    name: &str,
    text: Option<&str>,
) -> Result<DescPtr, DbError> {
    let new = xs.insert_element(parent, after, name)?;
    if let Some(t) = text {
        xs.insert_text(new, None, t)?;
    }
    Ok(new)
}

fn parent_of(xs: &XmlStorage, p: DescPtr) -> Result<DescPtr, DbError> {
    xs.parent(p).ok_or_else(|| DbError::Corrupt(format!("update target {p} has no parent")))
}

/// Step 4: revalidate exactly the content models the edit touched — one
/// per distinct site — instead of the whole document. Returns how many
/// sites were checked.
fn recheck(post: &XmlStorage, sites: Vec<DescPtr>, cx: &Recheck<'_>) -> Result<usize, DbError> {
    let schema = cx.schema;
    let mut unique: Vec<DescPtr> = Vec::with_capacity(sites.len());
    for s in sites {
        if !unique.contains(&s) {
            unique.push(s);
        }
    }
    let mut errors = Vec::new();
    // Identity constraints (ID uniqueness, IDREF resolution) are
    // document-global: a local content-model check cannot see a
    // duplicate ID two subtrees away, so such schemas always take the
    // whole-document pass.
    let mut needs_full_pass = xsanalyze::schema_involves_identity(schema);
    for &node in &unique {
        cx.obs.incr(xsobs::CounterId::UpdateRevalidateNodes);
        let names = name_path(post, node);
        if names.is_empty() {
            // The site is the document node (root replacement): exactly
            // one element child, with the declared root name and a
            // valid shallow state.
            let kids: Vec<_> = post
                .children(post.root())
                .into_iter()
                .filter(|&c| post.kind(c) == NodeKind::Element)
                .collect();
            if kids.len() == 1 && post.node_name(kids[0]) == Some(schema.root.name.as_str()) {
                errors.extend(check_node_against(
                    cx,
                    post,
                    kids[0],
                    &schema.root.ty,
                    &format!("/{}", schema.root.name),
                ));
            } else {
                errors.push(ValidationError::new(
                    Rule::RootName,
                    "/",
                    format!("document must hold exactly one <{}>", schema.root.name),
                ));
            }
        } else {
            match type_at_name_path(schema, &names) {
                Some(ty) => errors.extend(check_node_against(
                    cx,
                    post,
                    node,
                    ty,
                    &format!("/{}", names.join("/")),
                )),
                // The schema types this element ambiguously (or not at
                // all): fall back to a whole-document pass.
                None => needs_full_pass = true,
            }
        }
    }
    if needs_full_pass {
        errors.extend(validate_storage(schema, post, cx.options, cx.cm_cache)?);
    }
    if errors.is_empty() {
        Ok(unique.len())
    } else {
        Err(DbError::Invalid(errors))
    }
}

/// The members of `targets` that no other member contains, in document
/// order: deleting or replacing an ancestor subsumes its descendants,
/// whose descriptors are freed with it. Decided on the labels alone —
/// ancestors sort before their descendants, and a kept node's
/// descendants follow it contiguously.
fn outermost(storage: &XmlStorage, mut targets: Vec<DescPtr>) -> Vec<DescPtr> {
    targets.sort_by(|&a, &b| storage.cmp_doc_order(a, b));
    let mut kept: Vec<DescPtr> = Vec::with_capacity(targets.len());
    for t in targets {
        if !kept.last().is_some_and(|&k| k == t || storage.is_ancestor(k, t)) {
            kept.push(t);
        }
    }
    kept
}

/// The element names on the path from the root to `node`, root first
/// (empty for the document node), so its schema type can be re-derived
/// statically.
fn name_path(storage: &XmlStorage, node: DescPtr) -> Vec<String> {
    let mut names = Vec::new();
    let mut cur = Some(node);
    while let Some(n) = cur {
        if let Some(name) = storage.node_name(n) {
            names.push(name.to_string());
        }
        cur = storage.parent(n);
    }
    names.reverse();
    names
}

/// Name a target in an error message: `/`, `/a/b`, `/a/b/text()` or
/// `/a/b/@c`.
fn describe(storage: &XmlStorage, p: DescPtr) -> String {
    let step = match storage.kind(p) {
        NodeKind::Document => return "/".to_string(),
        NodeKind::Element => return format!("/{}", name_path(storage, p).join("/")),
        NodeKind::Text => "text()".to_string(),
        NodeKind::Attribute => format!("@{}", storage.node_name(p).unwrap_or_default()),
    };
    let owner = storage.parent(p).map(|o| name_path(storage, o)).unwrap_or_default();
    format!("/{}", owner.into_iter().chain([step]).collect::<Vec<_>>().join("/"))
}

/// Shallow-revalidate one element against its schema type: attributes,
/// character content, and the immediate child-name sequence — exactly
/// the §6.2 obligations local to a single node. Grandchildren were not
/// touched by the update, so their own checks still hold.
fn check_node_against(
    cx: &Recheck<'_>,
    storage: &XmlStorage,
    node: DescPtr,
    ty: &xsmodel::Type,
    path: &str,
) -> Vec<ValidationError> {
    use xsmodel::ComplexTypeDefinition as Ctd;
    let schema = cx.schema;
    let mut errors = Vec::new();
    let attrs: Vec<(String, String)> = storage
        .attributes(node)
        .into_iter()
        .map(|a| (storage.node_name(a).unwrap_or_default().to_string(), storage.string_value(a)))
        .collect();
    let kids = storage.children(node);
    let child_names: Vec<String> = kids
        .iter()
        .filter(|&&c| storage.kind(c) == NodeKind::Element)
        .map(|&c| storage.node_name(c).unwrap_or_default().to_string())
        .collect();
    let text: String = kids
        .iter()
        .filter(|&&c| storage.kind(c) == NodeKind::Text)
        .map(|&c| storage.string_value(c))
        .collect();

    // §6.2 item 6.1: a nilled element has no content — and, conversely,
    // no content obligations, so the child/text checks below are
    // waived. Attributes are still checked: items 6.2/6.3 keep them
    // even when nilled.
    let nilled = storage.nilled(node) == Some(true);
    if nilled && !kids.is_empty() {
        errors.push(ValidationError::new(Rule::R6Nil, path, "nilled element must have no content"));
    }

    if let Some(st) = schema.simple_of(ty) {
        if let Some((name, _)) = attrs.first() {
            errors.push(ValidationError::new(
                Rule::R531Attributes,
                path,
                format!("simple-typed element admits no attributes (found {name:?})"),
            ));
        }
        if nilled {
            return errors;
        }
        if let Some(child) = child_names.first() {
            errors.push(ValidationError::new(
                Rule::R511SimpleValue,
                path,
                format!("simple-typed element admits no element children (found <{child}>)"),
            ));
        }
        if let Err(e) = st.validate(&text) {
            errors.push(ValidationError::new(Rule::R511SimpleValue, path, e.to_string()));
        }
        return errors;
    }
    let Some(ctd) = schema.complex_of(ty) else {
        errors.push(ValidationError::new(
            Rule::TypeUsage,
            path,
            format!("type {:?} is not defined", ty.name().unwrap_or("<anonymous>")),
        ));
        return errors;
    };

    // 5.3.1: attributes of either variant.
    let declared = ctd.attributes();
    for (name, value) in &attrs {
        match declared.get(name.as_str()) {
            None => errors.push(ValidationError::new(
                Rule::R531Attributes,
                path,
                format!("attribute {name:?} is not declared"),
            )),
            Some(ty_name) => match schema.simple_types.get(ty_name) {
                None => errors.push(ValidationError::new(
                    Rule::TypeUsage,
                    path,
                    format!("attribute {name:?} has undefined type {ty_name:?}"),
                )),
                Some(st) => {
                    if let Err(e) = st.validate(value) {
                        errors.push(ValidationError::new(
                            Rule::R531Attributes,
                            path,
                            format!("attribute {name:?}: {e}"),
                        ));
                    }
                }
            },
        }
    }
    if cx.options.require_all_attributes {
        for name in declared.keys() {
            if !attrs.iter().any(|(n, _)| n == name) {
                errors.push(ValidationError::new(
                    Rule::R531Attributes,
                    path,
                    format!("required attribute {name:?} is missing"),
                ));
            }
        }
    }

    if nilled {
        return errors;
    }
    match ctd {
        Ctd::SimpleContent { base, .. } => {
            if let Some(child) = child_names.first() {
                errors.push(ValidationError::new(
                    Rule::R511SimpleValue,
                    path,
                    format!("simple-content element admits no element children (found <{child}>)"),
                ));
            }
            match schema.simple_types.get(base) {
                None => errors.push(ValidationError::new(
                    Rule::TypeUsage,
                    path,
                    format!("simple content base {base:?} is not defined"),
                )),
                Some(st) => {
                    if let Err(e) = st.validate(&text) {
                        errors.push(ValidationError::new(
                            Rule::R511SimpleValue,
                            path,
                            e.to_string(),
                        ));
                    }
                }
            }
        }
        Ctd::ComplexContent { mixed, content, .. } => {
            let ignorable =
                cx.options.ignore_ignorable_whitespace && text.chars().all(char::is_whitespace);
            if !mixed && !text.is_empty() && !ignorable {
                errors.push(ValidationError::new(
                    Rule::R5421NoText,
                    path,
                    format!("text {text:?} in non-mixed content"),
                ));
            }
            if content.is_empty_content() {
                if let Some(child) = child_names.first() {
                    errors.push(ValidationError::new(
                        Rule::R541EmptyContent,
                        path,
                        format!("empty content admits no element children (found <{child}>)"),
                    ));
                }
            } else {
                match cx.cm_cache.get_or_compile(content) {
                    Err(e) => errors.push(ValidationError::new(
                        Rule::R5423GroupMatch,
                        path,
                        e.to_string(),
                    )),
                    Ok(cm) => {
                        let names: Vec<&str> = child_names.iter().map(String::as_str).collect();
                        if let xsmodel::MatchOutcome::Reject { position, expected } =
                            cm.match_children(&names)
                        {
                            let found = names
                                .get(position)
                                .map(|n| format!("<{n}>"))
                                .unwrap_or_else(|| "end of content".to_string());
                            let expected = if expected.is_empty() {
                                "nothing".to_string()
                            } else {
                                expected.join(", ")
                            };
                            errors.push(ValidationError::new(
                                Rule::R5423GroupMatch,
                                path,
                                format!(
                                    "at child {position}: found {found}, \
                                     expected one of {{{expected}}}"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    errors
}

/// Resolve the schema type of the element reached by `names` (a
/// root-first element-name path). `None` when the path leaves the
/// schema or a name is ambiguously typed inside its content model —
/// callers then fall back to a whole-document pass.
fn type_at_name_path<'a>(
    schema: &'a DocumentSchema,
    names: &[String],
) -> Option<&'a xsmodel::Type> {
    let mut iter = names.iter();
    if iter.next()? != &schema.root.name {
        return None;
    }
    let mut ty = &schema.root.ty;
    for name in iter {
        let ctd = schema.complex_of(ty)?;
        let xsmodel::ComplexTypeDefinition::ComplexContent { content, .. } = ctd else {
            return None;
        };
        let decls: Vec<_> =
            content.element_declarations().into_iter().filter(|d| &d.name == name).collect();
        let first = *decls.first()?;
        // Several declarations of one name are fine only when they all
        // agree on a single named type.
        if decls.len() > 1 {
            let reference = first.ty.name();
            if reference.is_none() || decls.iter().any(|d| d.ty.name() != reference) {
                return None;
            }
        }
        ty = &first.ty;
    }
    Some(ty)
}
