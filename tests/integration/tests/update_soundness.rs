//! Soundness of the static update checker (xsanalyze pass 5) over the
//! shared generative harness: for every random schema + valid document,
//! a battery of derived XQuery-Update-lite expressions must honour the
//! verdict contract end to end.
//!
//! * **Reject** — execution refuses with `UpdateStaticallyInvalid` and
//!   the document is byte-identical afterwards; every attached witness
//!   word is genuinely rejected by the content model it indicts.
//! * **Accept** — execution succeeds with *zero* revalidated content
//!   models, and a full §6.2 revalidation afterwards confirms the
//!   analyzer's proof.
//! * **Recheck** — execution either commits (and full revalidation is
//!   clean) or rolls back to the byte-identical pre-state.
//!
//! After every committed update the storage invariants hold and no
//! descriptor was ever relabeled (Proposition 1).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use xsdb::xsanalyze::{analyze_update, UpdateVerdict};
use xsdb::xsmodel::ast::{ComplexTypeDefinition, GroupDefinition, Type};
use xsdb::xsmodel::ContentModel;
use xsdb::{Database, DbError, DocumentSchema};

mod common;
use common::CaseGen;

/// Every name-path from the root to an element declaration, as
/// `(xpath, names)`. Generated names are unique, so a name-path
/// identifies exactly one declaration.
fn element_paths(schema: &DocumentSchema) -> Vec<(String, Vec<String>)> {
    fn walk(
        schema: &DocumentSchema,
        names: &mut Vec<String>,
        ty: &Type,
        out: &mut Vec<(String, Vec<String>)>,
    ) {
        out.push((format!("/{}", names.join("/")), names.clone()));
        if let Some(ComplexTypeDefinition::ComplexContent { content, .. }) = schema.complex_of(ty) {
            for d in content.element_declarations() {
                names.push(d.name.clone());
                walk(schema, names, &d.ty, out);
                names.pop();
            }
        }
    }
    let mut out = Vec::new();
    let mut names = vec![schema.root.name.clone()];
    walk(schema, &mut names, &schema.root.ty, &mut out);
    out
}

/// The complex-content group of the element a name-path leads to, if
/// its type has one.
fn content_group<'a>(schema: &'a DocumentSchema, names: &[String]) -> Option<&'a GroupDefinition> {
    let mut ty = &schema.root.ty;
    if names.first() != Some(&schema.root.name) {
        return None;
    }
    for n in &names[1..] {
        let ComplexTypeDefinition::ComplexContent { content, .. } = schema.complex_of(ty)? else {
            return None;
        };
        let d = content.element_declarations().into_iter().find(|d| &d.name == n)?;
        ty = &d.ty;
    }
    match schema.complex_of(ty)? {
        ComplexTypeDefinition::ComplexContent { content, .. } => Some(content),
        ComplexTypeDefinition::SimpleContent { .. } => None,
    }
}

/// One derived update: its text, the name-path of its target, and
/// whether it edits the target's *own* content (container-style) or
/// its parent's (sibling-anchored).
struct Derived {
    text: String,
    target: Vec<String>,
    container: bool,
}

/// A deterministic battery of updates for the schema: per element
/// path, deletes, value replacements (valid-ish and hostile), child
/// inserts (declared and rogue), sibling inserts, and node
/// replacements. Every verdict class shows up across the battery.
fn update_battery(schema: &DocumentSchema, paths: &[(String, Vec<String>)]) -> Vec<Derived> {
    let mut out: Vec<Derived> = Vec::new();
    fn push(out: &mut Vec<Derived>, text: String, names: &[String], container: bool) {
        out.push(Derived { text, target: names.to_vec(), container });
    }
    for (p, names) in paths {
        push(&mut out, format!("delete node {p}"), names, false);
        // "1" is lexically valid for all three generated builtins;
        // "zz" is hostile to xs:int and xs:boolean.
        push(&mut out, format!(r#"replace value of node {p} with "1""#), names, true);
        push(&mut out, format!(r#"replace value of node {p} with "zz""#), names, true);
        if let Some(group) = content_group(schema, names) {
            for d in group.element_declarations().into_iter().take(2) {
                let n = &d.name;
                push(&mut out, format!("insert node <{n}>1</{n}> into {p}"), names, true);
                push(&mut out, format!("insert node <{n}/> into {p}"), names, true);
            }
        }
        push(&mut out, format!("insert node <zz0/> into {p}"), names, true);
        if names.len() >= 2 {
            let last = names.last().expect("non-root path");
            push(&mut out, format!("insert node <{last}/> before {p}"), names, false);
            push(&mut out, format!("insert node <{last}>1</{last}> after {p}"), names, false);
            push(&mut out, format!("replace node {p} with <{last}>1</{last}>"), names, false);
        }
        if out.len() >= 32 {
            break;
        }
    }
    out.truncate(32);
    out
}

/// Which content model a diagnostic's witness word indicts: the target
/// element's own model for container-style operations, the parent's
/// model for sibling-anchored ones.
fn indicted_group<'a>(schema: &'a DocumentSchema, d: &Derived) -> Option<&'a GroupDefinition> {
    if d.container {
        content_group(schema, &d.target)
    } else {
        content_group(schema, &d.target[..d.target.len().saturating_sub(1)])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The verdict contract, end to end, per generated case.
    #[test]
    fn update_verdicts_are_sound(case in CaseGen) {
        let mut db = Database::with_metrics_registry(Arc::new(xsdb::xsobs::Registry::new()));
        db.register_schema("s", case.schema.clone()).expect("generated schema is well-formed");
        db.insert("d", "s", &case.xml).expect("generated document is valid");

        let paths = element_paths(&case.schema);
        for derived in update_battery(&case.schema, &paths) {
            let upd_text = derived.text.as_str();
            let upd = match xsdb::xquery::parse_update(upd_text) {
                Ok(u) => u,
                Err(e) => return Err(TestCaseError::fail(
                    format!("derived update failed to parse: {upd_text:?}: {e}"))),
            };
            let analysis = analyze_update(&case.schema, &upd);

            // Witness property: a shortest-witness word attached to a
            // rejection is genuinely rejected by the model it indicts.
            for d in &analysis.diagnostics {
                let Some(w) = &d.witness else { continue };
                let Some(group) = indicted_group(&case.schema, &derived) else {
                    continue;
                };
                if let Ok(cm) = ContentModel::compile(group) {
                    let word: Vec<&str> = w.iter().map(String::as_str).collect();
                    prop_assert!(
                        !cm.accepts(&word),
                        "witness {word:?} for {upd_text:?} is accepted by the indicted model"
                    );
                }
            }

            let before = db.serialize("d").expect("document serializes");
            match db.execute_update_expr("d", &upd) {
                Ok(out) => {
                    prop_assert_eq!(out.verdict, analysis.verdict, "verdict drift: {}", upd_text);
                    if out.verdict == UpdateVerdict::Accept {
                        prop_assert_eq!(
                            out.revalidated, 0,
                            "Accept must skip revalidation: {}", upd_text
                        );
                    }
                    let errs = db.revalidate("d").expect("revalidate runs");
                    prop_assert!(
                        errs.is_empty(),
                        "{} ({:?}) committed an invalid document: {errs:?}\nbefore: {before}",
                        upd_text, out.verdict
                    );
                    let storage = &db.document("d").expect("doc").storage;
                    prop_assert!(storage.check_invariants().is_none());
                    prop_assert_eq!(storage.relabel_count(), 0, "Proposition 1 violated");
                }
                Err(DbError::UpdateStaticallyInvalid(diags)) => {
                    prop_assert_eq!(
                        analysis.verdict, UpdateVerdict::Reject,
                        "refusal without a Reject verdict: {}", upd_text
                    );
                    prop_assert!(!diags.is_empty());
                    prop_assert_eq!(
                        db.serialize("d").expect("document serializes"), before,
                        "a rejected update touched the tree: {}", upd_text
                    );
                }
                Err(DbError::Invalid(_)) => {
                    prop_assert_eq!(
                        analysis.verdict, UpdateVerdict::Recheck,
                        "rollback outside Recheck: {}", upd_text
                    );
                    prop_assert_eq!(
                        db.serialize("d").expect("document serializes"), before,
                        "a rolled-back update left changes behind: {}", upd_text
                    );
                }
                Err(e) => return Err(TestCaseError::fail(
                    format!("unexpected failure for {upd_text:?}: {e}"))),
            }
        }
    }
}

// ----------------------------------------------------- nested targets
//
// On a recursive schema one path can select a node *and* its
// descendants. Deleting, replacing, or rewriting the outer node frees
// the inner ones, so the appliers must resolve the target list to its
// outermost members before the first mutation — an update the static
// checker accepts must not fail (let alone panic) at run time.

/// `section` inside `section`, every part optional and mixed so that
/// `<section>text</section>` is valid.
const NESTED_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="section" type="Section" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="Section" mixed="true">
    <xs:sequence>
      <xs:element name="heading" type="xs:string" minOccurs="0"/>
      <xs:element name="section" type="Section" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#;

/// Five sections, two of them outermost.
const NESTED_DOC: &str = "<doc>\
    <section><heading>a</heading>\
      <section><heading>a.1</heading><section><heading>a.1.1</heading></section></section>\
      <section><heading>a.2</heading></section>\
    </section>\
    <section><heading>b</heading></section>\
  </doc>";

fn nested_db() -> Database {
    let mut db = Database::with_metrics_registry(Arc::new(xsdb::xsobs::Registry::new()));
    db.register_schema_text("deep", NESTED_XSD).expect("schema registers");
    db.insert("d", "deep", NESTED_DOC).expect("document is valid");
    assert_eq!(db.query("d", "//section").expect("query").len(), 5);
    db
}

/// What every nested-target update must leave behind.
fn assert_sound(db: &Database, what: &str) {
    let storage = &db.document("d").expect("doc").storage;
    assert_eq!(storage.check_invariants(), None, "{what}");
    assert_eq!(storage.relabel_count(), 0, "{what}: Proposition 1 violated");
    assert!(db.revalidate("d").expect("revalidate runs").is_empty(), "{what}");
}

#[test]
fn nested_delete_targets_resolve_to_the_outermost() {
    let mut db = nested_db();
    let out = db.execute_update("d", "delete node //section").expect("typed delete");
    assert_eq!(out.nodes, 2);
    assert_eq!(db.serialize("d").expect("serializes"), "<doc/>");
    assert_sound(&db, "typed delete");

    let mut db = nested_db();
    assert_eq!(db.update_delete("d", "//section").expect("untyped delete"), 2);
    assert_eq!(db.serialize("d").expect("serializes"), "<doc/>");
    assert_sound(&db, "untyped delete");
}

#[test]
fn nested_set_text_targets_resolve_to_the_outermost() {
    let mut db = nested_db();
    assert_eq!(db.update_set_text("d", "//section", "x").expect("set text"), 2);
    assert_eq!(
        db.serialize("d").expect("serializes"),
        "<doc><section>x</section><section>x</section></doc>"
    );
    assert_sound(&db, "set text");
}

#[test]
fn nested_replace_targets_resolve_to_the_outermost() {
    let mut db = nested_db();
    let out = db
        .execute_update("d", "replace node //section with <section>new</section>")
        .expect("typed replace");
    assert_eq!(out.nodes, 2);
    assert_eq!(
        db.serialize("d").expect("serializes"),
        "<doc><section>new</section><section>new</section></doc>"
    );
    assert_sound(&db, "typed replace");
}

/// The write-ahead record is appended before the update applies, so a
/// panic here would also repeat on every recovery.
#[test]
fn a_logged_nested_delete_replays_cleanly() {
    use xsdb::{ApplyOutcome, Durability, Mutation, SharedDatabase};
    let dir = std::env::temp_dir().join(format!("xsdb-nested-targets-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).expect("open");
    sh.apply(&Mutation::RegisterSchema { name: "deep".into(), xsd: NESTED_XSD.into() })
        .expect("schema");
    sh.apply(&Mutation::Insert { doc: "d".into(), schema: "deep".into(), xml: NESTED_DOC.into() })
        .expect("insert");
    let out = sh
        .apply(&Mutation::Update { doc: "d".into(), update: "delete node //section".into() })
        .expect("logged delete");
    assert!(matches!(out, ApplyOutcome::UpdatedChecked(o) if o.nodes == 2), "{out:?}");
    drop(sh); // no checkpoint: recovery replays all three records
    let (again, report) = SharedDatabase::open_durable(&dir, Durability::Fsync).expect("reopen");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(again.read().serialize("d").expect("serializes"), "<doc/>");
    assert_sound(&again.read(), "recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
