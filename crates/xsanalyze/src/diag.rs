//! The diagnostic type every analysis pass reports through.
//!
//! Codes are stable identifiers (`XSA…`): tools match on them, so a code
//! never changes meaning and retired codes are never reused. The full
//! table lives in the crate docs and README.

use std::fmt;

use xsmodel::SchemaIssue;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not fatal: the schema/query still works.
    Warning,
    /// The schema or query is broken: validation or evaluation cannot
    /// behave as the author intended.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding: a stable code, a severity, the declaration (or query
/// position) it is anchored at, a human-readable message, and — where the
/// defect is demonstrable — a witness that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`XSA001`, `XSA101`, …).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Declaration path, e.g. `complexType "Book"` or `query path`.
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
    /// A reproducing witness where one exists. For a UPA violation this
    /// is the child-name word whose last symbol is claimable by two
    /// particles; for an empty query path it is the step sequence up to
    /// and including the step that selects nothing.
    pub witness: Option<Vec<String>>,
}

impl Diagnostic {
    /// An error diagnostic without a witness.
    pub fn error(code: &'static str, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            path: path.into(),
            message: message.into(),
            witness: None,
        }
    }

    /// A warning diagnostic without a witness.
    pub fn warning(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            path: path.into(),
            message: message.into(),
            witness: None,
        }
    }

    /// Builder-style: attach a witness.
    pub fn with_witness(mut self, witness: Vec<String>) -> Self {
        self.witness = Some(witness);
        self
    }

    /// Lift a well-formedness issue from [`xsmodel::check`] onto the
    /// shared diagnostic type (satellite of the §2–3 static
    /// requirements). Every well-formedness issue is an error.
    ///
    /// [`xsmodel::check`]: xsmodel::check
    pub fn from_issue(issue: &SchemaIssue) -> Self {
        Diagnostic::error(issue.code(), issue.path().to_string(), issue.to_string())
    }

    /// Render as one JSON object (hand-rolled; the build is offline, so
    /// there is no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\",", self.code));
        s.push_str(&format!("\"severity\":\"{}\",", self.severity));
        s.push_str(&format!("\"path\":\"{}\",", json_escape(&self.path)));
        s.push_str(&format!("\"message\":\"{}\"", json_escape(&self.message)));
        if let Some(w) = &self.witness {
            let items: Vec<String> = w.iter().map(|x| format!("\"{}\"", json_escape(x))).collect();
            s.push_str(&format!(",\"witness\":[{}]", items.join(",")));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}: {}", self.severity, self.code, self.path, self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: [{}])", w.join(" "))?;
        }
        Ok(())
    }
}

/// The full registry of diagnostic codes this toolchain can emit, with
/// the severity each code always carries. Codes are append-only and
/// never reused; tests assert this list matches the crate-docs table.
/// `XSA000` (input not parseable) is emitted by `xsd-lint` itself but
/// registered here so there is one authoritative list.
pub fn registered_codes() -> &'static [(&'static str, Severity)] {
    &[
        ("XSA000", Severity::Error),
        ("XSA001", Severity::Error),
        ("XSA002", Severity::Error),
        ("XSA003", Severity::Error),
        ("XSA004", Severity::Error),
        ("XSA005", Severity::Error),
        ("XSA006", Severity::Error),
        ("XSA007", Severity::Error),
        ("XSA101", Severity::Error),
        ("XSA103", Severity::Warning),
        ("XSA201", Severity::Error),
        ("XSA202", Severity::Error),
        ("XSA301", Severity::Warning),
        ("XSA302", Severity::Warning),
        ("XSA401", Severity::Error),
        ("XSA500", Severity::Error),
        ("XSA501", Severity::Error),
        ("XSA502", Severity::Error),
        ("XSA503", Severity::Error),
        ("XSA504", Severity::Error),
        ("XSA505", Severity::Warning),
        ("XSA506", Severity::Warning),
    ]
}

/// The highest severity among the diagnostics (`None` when clean).
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Render a diagnostic list as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
        let diags = [
            Diagnostic::warning("XSA301", "complexType \"T\"", "unreachable"),
            Diagnostic::error("XSA101", "complexType \"U\"", "ambiguous"),
        ];
        assert_eq!(max_severity(&diags), Some(Severity::Error));
        assert_eq!(max_severity(&[]), None);
    }

    #[test]
    fn json_rendering_escapes_and_includes_witness() {
        let d = Diagnostic::error("XSA101", "complexType \"T\"", "two \"A\" particles")
            .with_witness(vec!["head".into(), "A".into()]);
        let json = d.to_json();
        assert!(json.contains("\"code\":\"XSA101\""));
        assert!(json.contains("\\\"T\\\""));
        assert!(json.contains("\"witness\":[\"head\",\"A\"]"));
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }

    #[test]
    fn registry_codes_are_unique_sorted_and_documented() {
        let codes = registered_codes();
        let mut seen = std::collections::BTreeSet::new();
        for (code, _) in codes {
            assert!(code.starts_with("XSA") && code.len() == 6, "malformed code {code}");
            assert!(seen.insert(*code), "duplicate code {code}");
        }
        let sorted: Vec<&str> = seen.into_iter().collect();
        let listed: Vec<&str> = codes.iter().map(|(c, _)| *c).collect();
        assert_eq!(listed, sorted, "registry must stay in ascending (append-only) order");
        // Every registered code must be documented in the crate-docs
        // table, and no documented code may be missing from the registry.
        let docs = include_str!("lib.rs");
        for (code, _) in codes {
            assert!(docs.contains(code), "{code} is not documented in the crate docs");
        }
        for line in docs.lines() {
            if let Some(rest) = line.strip_prefix("//! | `XSA") {
                let code = format!("XSA{}", &rest[..3]);
                assert!(listed.contains(&code.as_str()), "{code} is documented but not registered");
            }
        }
    }

    #[test]
    fn display_is_greppable() {
        let d = Diagnostic::warning("XSA301", "complexType \"Dead\"", "never reachable");
        let line = d.to_string();
        assert!(line.contains("warning XSA301"));
        assert!(line.contains("Dead"));
    }
}
