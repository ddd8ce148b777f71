//! The one update path. §6.1 makes an update a function from the
//! database's pre-state to its post-state; [`apply`] computes that
//! function for one XQuery-Update-lite expression over one stored
//! document, following the XQuery Update Facility 1.0 (§3.2): every
//! target is resolved on the pre-state before anything changes.
//!
//! 1. **Resolve** the target path once, on the pre-state. The caller
//!    does it ([`crate::Database::update_targets`]) with the planned
//!    execution `QUERY` and `XQUERY` run, so this module evaluates no
//!    path.
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

use algebra::{ContentModelCache, LoadOptions};
use storage::{DescPtr, XmlStorage};
use xdm::NodeKind;
use xquery::UpdateExpr;
use xsanalyze::UpdateVerdict;
use xsmodel::DocumentSchema;

use crate::error::DbError;
use crate::physical::{leaf_text, site_is_valid, validate_storage};

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
/// (never `Reject`), given the nodes its target path selects in `pre`
/// (`found`, in document order): check, apply on a clone, recheck.
/// Returns the outcome and the post-state for the caller to commit;
/// `pre` is never touched.
///
/// # Errors
/// [`DbError::XQuery`] naming the XUTY code when a target has the wrong
/// kind; [`DbError::Invalid`] when the recheck finds a violation;
/// [`DbError::Corrupt`] when the storage's structures are inconsistent.
pub(crate) fn apply(
    pre: &XmlStorage,
    upd: &UpdateExpr,
    found: Vec<DescPtr>,
    verdict: UpdateVerdict,
    cx: &Recheck<'_>,
) -> Result<(UpdateOutcome, XmlStorage), DbError> {
    let targets = check_targets(pre, upd, found)?;
    let mut post = pre.clone();
    let sites = edit(&mut post, upd, &targets, cx)?;
    let revalidated = match verdict {
        UpdateVerdict::Accept => 0,
        _ => recheck(&post, sites, cx)?,
    };
    Ok((UpdateOutcome { verdict, nodes: targets.len(), revalidated }, post))
}

/// Step 2: the targets `upd` applies to, of the nodes `found` its
/// target path selects in `pre`.
fn check_targets(
    pre: &XmlStorage,
    upd: &UpdateExpr,
    found: Vec<DescPtr>,
) -> Result<Vec<DescPtr>, DbError> {
    use UpdateExpr as U;
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
    cx: &Recheck<'_>,
) -> Result<Vec<DescPtr>, DbError> {
    use UpdateExpr as U;
    let mut sites = Vec::new();
    for &t in targets {
        match upd {
            U::InsertInto { name, text, .. } => {
                let last = post.children(t).last().copied();
                let new = insert_leaf(post, t, last, name, text.as_deref(), cx)?;
                // Both the host's content model and the new element's own
                // obligations (attributes, text, required children).
                sites.extend([t, new]);
            }
            U::InsertBefore { name, text, .. } | U::InsertAfter { name, text, .. } => {
                let parent = parent_of(post, t)?;
                let anchor = if matches!(upd, U::InsertAfter { .. }) {
                    Some(t)
                } else {
                    post.left_sibling(t)
                };
                let new = insert_leaf(post, parent, anchor, name, text.as_deref(), cx)?;
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
                let new = insert_leaf(post, parent, Some(t), name, text.as_deref(), cx)?;
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
/// `after` (`None` = first child), with the text child `f` would give
/// it there ([`leaf_text`]), so the edited document stores what
/// inserting its serialization would.
fn insert_leaf(
    xs: &mut XmlStorage,
    parent: DescPtr,
    after: Option<DescPtr>,
    name: &str,
    text: Option<&str>,
    cx: &Recheck<'_>,
) -> Result<DescPtr, DbError> {
    let text = leaf_text(cx.schema, xs, parent, name, text, cx.options, cx.cm_cache);
    let new = xs.insert_element(parent, after, name)?;
    if let Some(t) = text {
        xs.insert_text(new, None, t)?;
    }
    Ok(new)
}

fn parent_of(xs: &XmlStorage, p: DescPtr) -> Result<DescPtr, DbError> {
    xs.parent(p).ok_or_else(|| DbError::Corrupt(format!("update target {p} has no parent")))
}

/// Step 4: revalidate exactly the elements the edit touched — one
/// [`site_is_valid`] per distinct site — instead of the whole document.
/// Returns how many sites were checked. A refusal reports the
/// whole-document pass's violations, so it names what `VALIDATE` and
/// `revalidate` would name for the same state.
fn recheck(post: &XmlStorage, sites: Vec<DescPtr>, cx: &Recheck<'_>) -> Result<usize, DbError> {
    let mut unique: Vec<DescPtr> = Vec::with_capacity(sites.len());
    for s in sites {
        if !unique.contains(&s) {
            unique.push(s);
        }
    }
    // Identity constraints (ID uniqueness, IDREF resolution) are
    // document-global — a local check cannot see a duplicate ID two
    // subtrees away — and a root replacement's site is the document
    // node: both take the whole-document pass.
    let mut valid = !xsanalyze::schema_involves_identity(cx.schema);
    for &site in &unique {
        cx.obs.incr(xsobs::CounterId::UpdateRevalidateNodes);
        valid = valid
            && post.kind(site) == NodeKind::Element
            && site_is_valid(cx.schema, post, site, cx.options, cx.cm_cache);
    }
    if valid {
        return Ok(unique.len());
    }
    match validate_storage(cx.schema, post, cx.options, cx.cm_cache)? {
        errors if errors.is_empty() => Ok(unique.len()),
        errors => Err(DbError::Invalid(errors)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::guarded_update_tests::{lib_db, log_db, nil_db};
    use crate::Database;

    /// Element-only `item`s with a simple-content `price` (an attribute),
    /// mixed `note`s and a nillable `qty`.
    const SHOP: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shop">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="name" type="xs:string"/>
              <xs:element name="price" type="Price"/>
              <xs:element name="note" type="Note" minOccurs="0" maxOccurs="unbounded"/>
              <xs:element name="qty" type="xs:int" nillable="true" minOccurs="0"/>
            </xs:sequence>
            <xs:attribute name="sku" type="xs:NCName"/>
          </xs:complexType>
        </xs:element>
        <xs:element name="tags" minOccurs="0">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="tag" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="Price">
    <xs:simpleContent>
      <xs:extension base="xs:decimal">
        <xs:attribute name="currency" type="xs:string"/>
      </xs:extension>
    </xs:simpleContent>
  </xs:complexType>
  <xs:complexType name="Note" mixed="true">
    <xs:sequence>
      <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#;

    const SHOP_DOC: &str = r#"<shop><item sku="a1"><name>Pen</name><price currency="EUR">1.50</price><note>see <em>this</em></note><qty xsi:nil="true"/></item><item sku="b2"><name>Ink</name><price currency="USD">3</price><qty>4</qty></item><tags><tag>t</tag></tags></shop>"#;

    fn shop_db() -> Database {
        let mut db = Database::new();
        db.register_schema_text("shop", SHOP).unwrap();
        db.insert("d", "shop", SHOP_DOC).unwrap();
        db
    }

    /// Whitespace values: XML's four characters, the empty string, and
    /// Unicode spaces XML does not count as whitespace.
    const SPACES: [&str; 6] = [" ", "\t\n \r", "", "\u{A0}", "\u{2003}", " \u{85} "];

    /// Run `update` on document `d` of `db` twice from the same pre-state:
    /// once unchecked (verdict `Accept`), once through the recheck. The
    /// recheck commits iff the whole-document check of the unchecked
    /// post-state is clean, and refuses with exactly its violations.
    /// Returns whether it committed (`None`: a target-kind refusal).
    fn agree(db: &Database, update: &str, options: &LoadOptions) -> Option<bool> {
        let doc = db.document("d").unwrap();
        let schema = db.schema(&doc.schema_name).unwrap();
        let upd = xquery::parse_update(update).unwrap();
        let (cache, obs) = (ContentModelCache::new(), xsobs::Registry::new());
        let cx = Recheck { schema, options, cm_cache: &cache, obs: &obs };
        let found = || db.update_targets("d", &upd).unwrap();
        let post = match apply(&doc.storage, &upd, found(), UpdateVerdict::Accept, &cx) {
            Ok((_, post)) => post,
            Err(DbError::XQuery(_)) => return None,
            Err(e) => panic!("{update}: {e}"),
        };
        let whole = validate_storage(schema, &post, options, &cache).unwrap();
        match apply(&doc.storage, &upd, found(), UpdateVerdict::Recheck, &cx) {
            Ok((outcome, rechecked)) => {
                assert_eq!(whole, [], "{update}: committed an invalid state");
                assert!(outcome.revalidated > 0, "{update}");
                assert_eq!(format!("{rechecked:?}"), format!("{post:?}"), "{update}");
                Some(true)
            }
            Err(DbError::Invalid(errors)) => {
                assert_eq!(errors, whole, "{update}");
                assert!(!errors.is_empty(), "{update}");
                Some(false)
            }
            Err(e) => panic!("{update}: {e}"),
        }
    }

    #[test]
    fn the_recheck_agrees_with_the_whole_document_check() {
        let mut updates: Vec<String> = [
            // insert into: host content model and the new element
            "insert node <note>x</note> into /shop/item[2]",
            "insert node <note>x</note> into //item",
            "insert node <qty>5</qty> into /shop/item[1]",
            "insert node <em>bold</em> into //note",
            "insert node <em>bold</em> into //price",
            "insert node <bogus/> into /shop/item[1]",
            "insert node <tag>z</tag> into /shop/tags",
            "insert node <qty>x</qty> into /shop/item[2]",
            // insert before / after
            "insert node <name>n</name> before //price",
            "insert node <note>n</note> after //price",
            "insert node <item/> after /shop/item[2]",
            "insert node <em>e</em> before //note/text()",
            // insert attribute
            r#"insert attribute currency="GBP" into //price"#,
            r#"insert attribute bogus="1" into //price"#,
            r#"insert attribute sku="two words" into /shop/item[1]"#,
            r#"insert attribute sku="c3" into //qty"#,
            // delete
            "delete node //name",
            "delete node //qty",
            "delete node //em",
            "delete node //price/@currency",
            "delete node /shop/tags",
            // replace node
            "replace node //qty with <qty>7</qty>",
            "replace node //note with <qty>1</qty>",
            "replace node /shop with <shop/>",
            "replace node /shop with <store/>",
            "replace node //note/text() with <em>e</em>",
            // replace value
            r#"replace value of node //qty with "12""#,
            r#"replace value of node /shop/item[1]/qty with "12""#,
            r#"replace value of node /shop/item[2]/qty with "12""#,
            r#"replace value of node /shop/item[2]/qty with "x""#,
            r#"replace value of node //price with "abc""#,
            r#"replace value of node //price with "2.5""#,
            r#"replace value of node //note with "plain""#,
            r#"replace value of node //price/@currency with "x""#,
            r#"replace value of node /shop/item[2] with "x""#,
        ]
        .map(String::from)
        .to_vec();
        for space in SPACES {
            for target in ["/shop/tags", "//item", "//note", "//qty", "//price", "//tag", "//em"] {
                updates.push(format!("replace value of node {target} with \"{space}\""));
            }
        }
        let strict = LoadOptions::default();
        let loose = LoadOptions {
            require_all_attributes: false,
            ignore_ignorable_whitespace: false,
            ..LoadOptions::default()
        };
        let db = shop_db();
        let (mut committed, mut refused) = (0, 0);
        for options in [&strict, &loose] {
            for update in &updates {
                match agree(&db, update, options) {
                    Some(true) => committed += 1,
                    Some(false) => refused += 1,
                    None => {}
                }
            }
        }
        // Both outcomes are exercised, under both option sets.
        assert!(committed > 20 && refused > 20, "{committed} committed, {refused} refused");
    }

    #[test]
    fn the_recheck_agrees_on_the_nillable_and_element_only_schemas() {
        let cases: [(Database, &[&str]); 3] = [
            (
                nil_db(),
                &[
                    r#"replace value of node /form/note[1] with """#,
                    r#"replace value of node /form/note[1] with "x""#,
                    r#"replace value of node /form/note[2] with """#,
                    r#"replace value of node /form/note with " ""#,
                    "insert node <note/> before /form/note[1]",
                    "delete node /form/note[2]/text()",
                    r#"insert attribute k="v" into /form/note[1]"#,
                ],
            ),
            (
                lib_db(),
                &[
                    "insert node <author>Codd</author> into /library/book",
                    "insert node <title>u</title> into /library/book",
                    "insert node <book>u</book> into /library",
                    "insert node <book/> into /library",
                    r#"replace value of node /library/book with "x""#,
                    r#"replace value of node /library with "\u{2003}""#,
                ],
            ),
            (
                log_db(),
                &[
                    "insert node <entry>third</entry> into /log",
                    "insert node <log/> into /log",
                    r#"replace value of node /log with " ""#,
                    r#"replace value of node /log with "\u{A0}""#,
                    "delete node /log/entry",
                ],
            ),
        ];
        for (db, updates) in &cases {
            for update in *updates {
                agree(db, update, &LoadOptions::default());
            }
        }
        // The stored empty text node of a nilled element is content
        // (§6.2 item 6.1): refused, as it always was.
        let (db, _) = &cases[0];
        let empty = r#"replace value of node /form/note[1] with """#;
        assert_eq!(agree(db, empty, &LoadOptions::default()), Some(false));
    }
}
