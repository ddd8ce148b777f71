//! Validation errors, each citing the §6.2 requirement it violates.

use std::fmt;

/// The requirement of the paper's §6.2 (or §3) that a document failed.
///
/// The numbering follows the paper: requirement 5.4.2.3, for instance, is
/// the group-definition matching rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// §3: the root element's name must equal the global element
    /// declaration's name.
    RootName,
    /// §3 type usage: a referenced type is not defined.
    TypeUsage,
    /// §6.2 item 3: the document node has exactly one element child.
    R3SingleChild,
    /// §6.2 item 4: name/type association of an element node.
    R4NameType,
    /// §6.2 item 5.1.1: an element of simple type has a single text child
    /// whose value is in the type's lexical space.
    R511SimpleValue,
    /// §6.2 item 5.3.1: the attribute nodes correspond (up to an
    /// automorphism σ) to the attribute declarations.
    R531Attributes,
    /// §6.2 item 5.4.1: empty content — no element children allowed.
    R541EmptyContent,
    /// §6.2 item 5.4.2.1: non-mixed content admits no text nodes.
    R5421NoText,
    /// §6.2 item 5.4.2.2: no two adjacent text nodes in mixed content.
    R5422AdjacentText,
    /// §6.2 item 5.4.2.3: the child-element sequence must match the
    /// group definition (combination and repetition factors).
    R5423GroupMatch,
    /// §6.2 item 6: nil handling — `xsi:nil="true"` only on nillable
    /// declarations, and a nilled element has no children.
    R6Nil,
    /// §6.2 item 7: no other nodes — an undeclared attribute or child.
    R7NoOtherNodes,
    /// Node identity: two nodes carry the same `xs:ID` value (the paper
    /// names identity constraints in §10 as part of the internal model;
    /// checked as a document-wide post-pass).
    IdUnique,
    /// Node identity: an `xs:IDREF`/`xs:IDREFS` value names no `xs:ID`
    /// in the document.
    IdRefTarget,
}

impl Rule {
    /// The paper-facing identifier, e.g. `"5.4.2.3"`.
    pub fn citation(self) -> &'static str {
        match self {
            Rule::RootName => "§3 (root element declaration)",
            Rule::TypeUsage => "§3 (type usage requirement)",
            Rule::R3SingleChild => "§6.2 item 3",
            Rule::R4NameType => "§6.2 item 4",
            Rule::R511SimpleValue => "§6.2 item 5.1.1",
            Rule::R531Attributes => "§6.2 item 5.3.1",
            Rule::R541EmptyContent => "§6.2 item 5.4.1",
            Rule::R5421NoText => "§6.2 item 5.4.2.1",
            Rule::R5422AdjacentText => "§6.2 item 5.4.2.2",
            Rule::R5423GroupMatch => "§6.2 item 5.4.2.3",
            Rule::R6Nil => "§6.2 item 6",
            Rule::R7NoOtherNodes => "§6.2 item 7",
            Rule::IdUnique => "identity constraint (ID uniqueness, §10)",
            Rule::IdRefTarget => "identity constraint (IDREF target, §10)",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.citation())
    }
}

/// A validation failure: the violated rule, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The violated requirement.
    pub rule: Rule,
    /// A slash-separated element path from the root, e.g.
    /// `/BookStore/Book[2]/ISBN`.
    pub path: String,
    /// Human-readable detail.
    pub message: String,
}

impl ValidationError {
    /// Build a validation error (used by this crate's passes; the
    /// database layers only report the errors the §6.2 core returns).
    pub fn new(rule: Rule, path: impl Into<String>, message: impl Into<String>) -> Self {
        ValidationError { rule, path: path.into(), message: message.into() }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violates {}: {}", self.path, self.rule, self.message)
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citations_reference_the_paper() {
        assert_eq!(Rule::R5423GroupMatch.citation(), "§6.2 item 5.4.2.3");
        assert_eq!(Rule::R6Nil.citation(), "§6.2 item 6");
    }

    #[test]
    fn display_contains_path_rule_and_message() {
        let e = ValidationError::new(Rule::R511SimpleValue, "/a/b", "bad decimal");
        let s = e.to_string();
        assert!(s.contains("/a/b"));
        assert!(s.contains("5.1.1"));
        assert!(s.contains("bad decimal"));
    }
}
