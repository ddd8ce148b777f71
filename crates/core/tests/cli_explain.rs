//! End-to-end tests for `xsd-lint --explain`: plan an XPath against a
//! real document (`--doc`), execute it, and print the physical plan
//! with estimated vs. actual cardinalities. The golden corpus under
//! `fixtures/lint/plan_*.{xpath,plan}` is diffed by `scripts/check.sh`;
//! these tests pin the CLI contract itself — argument validation, exit
//! codes, and the plan text reaching stdout byte-for-byte.

use std::path::Path;
use std::process::Command;

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xsd-lint")).args(args).output().expect("spawn xsd-lint")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/lint")
        .join(name)
        .display()
        .to_string()
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn explain_prints_the_pinned_plan_for_every_golden_query() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/lint");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures/lint") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("plan_") || !name.ends_with(".xpath") {
            continue;
        }
        seen += 1;
        let query = std::fs::read_to_string(&path).expect("query fixture");
        let want = std::fs::read_to_string(path.with_extension("plan")).expect("golden plan");
        let out = lint(&[
            "--doc",
            &fixture("plan_doc.xml"),
            "--explain",
            query.trim(),
            &fixture("clean.xsd"),
        ]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        assert_eq!(stdout(&out), want, "plan text drifted for {name}");
    }
    assert!(seen >= 4, "expected the plan_*.xpath corpus, found {seen} queries");
}

#[test]
fn explain_reports_estimates_and_actuals_per_step() {
    let out = lint(&[
        "--doc",
        &fixture("plan_doc.xml"),
        "--explain",
        "/library/book/title",
        &fixture("clean.xsd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.starts_with("plan /library/book/title @ stats generation "), "{text}");
    assert!(text.contains("est_rows=") && text.contains("actual_rows="), "{text}");
    assert!(text.trim_end().ends_with("total: rows=8 work=40"), "{text}");
}

/// Each step line of an EXPLAIN names its step in XPath syntax, and
/// that text parses back to the very step planned: a predicate's path
/// prints relative (`book[title="…"]`, never `book[/title="…"]`).
#[test]
fn every_explain_step_text_parses_back_to_its_step() {
    for query in [
        r#"/library/book[title="Transaction Processing"]/author"#,
        r#"/library/book[author="Codd"][isbn]/title"#,
        "/library/book[isbn > '1000000000']/title/text()",
        "//book[author/text() != 'Codd'][2]/isbn",
        "/library/book[.//author='Gray']/@id",
    ] {
        let out =
            lint(&["--doc", &fixture("plan_doc.xml"), "--explain", query, &fixture("clean.xsd")]);
        assert_eq!(out.status.code(), Some(0), "{query}: {out:?}");
        let text = stdout(&out);
        let planned = xsdb::xpath::parse(query).expect("parses");
        let printed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("step "))
            .map(|l| l.split_once(": ").expect("numbered").1)
            .map(|l| l.split(" strategy=").next().expect("strategy column").trim_end())
            .collect();
        assert_eq!(printed.len(), planned.steps.len(), "{text}");
        for (shown, step) in printed.iter().zip(&planned.steps) {
            assert!(!shown.contains("[/"), "a predicate path printed absolute: {shown}");
            let reparsed = xsdb::xpath::parse(&format!("/{shown}")).expect("step text parses");
            assert_eq!(reparsed.steps, std::slice::from_ref(step), "{shown} in\n{text}");
        }
    }
}

#[test]
fn statically_empty_query_prints_a_pruned_plan() {
    let out = lint(&[
        "--doc",
        &fixture("plan_doc.xml"),
        "--explain",
        "/library/dvd/title",
        &fixture("clean.xsd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("statically empty, zero operators execute"), "{text}");
    assert!(text.trim_end().ends_with("total: rows=0 work=0"), "{text}");
}

#[test]
fn explain_without_doc_is_a_usage_error() {
    let out = lint(&["--explain", "/library/book", &fixture("clean.xsd")]);
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8(out.stderr.clone()).expect("utf-8 stderr");
    assert!(err.contains("--explain requires --doc"), "{err}");
}

#[test]
fn explain_against_an_invalid_document_fails_with_the_violation() {
    // plan_doc.xml is a library document; lint it against itself as the
    // "schema" so registration fails — the error must reach stderr and
    // the exit code must be the generic failure, not a plan.
    let out = lint(&[
        "--doc",
        &fixture("plan_doc.xml"),
        "--explain",
        "/library/book",
        &fixture("plan_doc.xml"),
    ]);
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).is_empty() || !stdout(&out).contains("plan /"), "{out:?}");
}

/// A predicate path from the root is refused with the typed XPath error,
/// by `xsdb query` and by `--explain`, instead of being read as relative
/// and silently selecting nothing.
#[test]
fn a_predicate_path_from_the_root_is_refused() {
    let query = "/library/book[/library]/title";
    let xsdb = Command::new(env!("CARGO_BIN_EXE_xsdb"))
        .args(["query", &fixture("clean.xsd"), &fixture("plan_doc.xml"), query])
        .output()
        .expect("spawn xsdb");
    let explain =
        lint(&["--doc", &fixture("plan_doc.xml"), "--explain", query, &fixture("clean.xsd")]);
    for out in [xsdb, explain] {
        assert_ne!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(stdout(&out).matches("title").count(), 0, "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("predicate paths are relative"), "{stderr}");
    }
}

/// A positional step runs guided and stops at its k-th match: on a
/// 16 384-book library, `book[1]` walks one book (one `W_NAV` hop plus
/// one output unit), not all 16 384.
#[test]
fn a_positional_step_walks_only_to_its_match() {
    let path =
        std::env::temp_dir().join(format!("xsdb-explain-positional-{}.xml", std::process::id()));
    let mut xml = String::from("<library>");
    for i in 0..16_384 {
        xml.push_str(&format!("<book><title>t{i}</title><author>a{i}</author></book>"));
    }
    xml.push_str("</library>");
    std::fs::write(&path, xml).expect("write library");
    let out = lint(&[
        "--doc",
        &path.display().to_string(),
        "--explain",
        "/library/book[1]/title",
        &fixture("clean.xsd"),
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let step = text.lines().find(|l| l.contains("step 2: book[1]")).expect("book[1] step");
    assert!(step.contains("strategy=guided"), "{text}");
    assert!(step.ends_with("actual_rows=1        actual_work=11"), "{text}");
}
