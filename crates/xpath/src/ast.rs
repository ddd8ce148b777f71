//! XPath subset: abstract syntax.
//!
//! The paper motivates the data model as providing "primitive facilities
//! for a query language" (§1, §11); this crate is that query language —
//! a practical XPath subset over the accessors:
//!
//! ```text
//! path      := '/' step ('/' step)*  |  '//' step ('/' step)*
//! step      := axis? nodetest predicate*
//! axis      := '@' (attribute)  |  '' (child)  |  '//' before a step (descendant-or-self)
//!            | ('child'|'attribute'|'parent'|'self'|'descendant'
//!               |'descendant-or-self'|'ancestor'|'ancestor-or-self'
//!               |'following-sibling'|'preceding-sibling') '::'
//! nodetest  := NAME | '*' | 'text()' | 'node()'
//! predicate := '[' NUMBER ']'
//!            | '[' rel-path ']'
//!            | '[' rel-path op literal ']'
//!            | '[' 'last()' ']'
//! op        := '=' | '!=' | '<' | '<=' | '>' | '>='
//! ```

use std::fmt;

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The steps, applied left to right starting at the document node.
    pub steps: Vec<Step>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied in order.
    pub predicates: Vec<Predicate>,
}

/// Supported axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `child::` (the default).
    Child,
    /// `descendant-or-self::` (context node plus all descendants). The
    /// `//` abbreviation parses into a `descendant-or-self::node()`
    /// step followed by the abbreviated step (XPath 1.0 §2.5), so
    /// `a//b` never selects `a` itself.
    DescendantOrSelf,
    /// `descendant::`.
    Descendant,
    /// `attribute::` (`@`).
    Attribute,
    /// `parent::` (`..`).
    Parent,
    /// `self::` (`.`).
    SelfAxis,
    /// `ancestor::` (proper ancestors, document order).
    Ancestor,
    /// `ancestor-or-self::`.
    AncestorOrSelf,
    /// `following-sibling::`.
    FollowingSibling,
    /// `preceding-sibling::` (document order).
    PrecedingSibling,
}

/// Node tests.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// A name test (element or attribute name).
    Name(String),
    /// `*` — any element (or any attribute on the attribute axis).
    Any,
    /// `text()`.
    Text,
    /// `node()` — any node.
    Node,
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Apply to an ordering outcome (string or numeric comparison).
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CompareOp::Eq, Equal)
                | (CompareOp::Ne, Less | Greater)
                | (CompareOp::Lt, Less)
                | (CompareOp::Le, Less | Equal)
                | (CompareOp::Gt, Greater)
                | (CompareOp::Ge, Greater | Equal)
        )
    }
}

/// A step predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `[n]` — 1-based position within the step's result for one context
    /// node.
    Position(u32),
    /// `[last()]`.
    Last,
    /// `[path]` — at least one node selected by the relative path.
    Exists(Path),
    /// `[path op "literal"]` — some node selected by the relative path
    /// has a string value comparing as stated (numeric comparison when
    /// both sides are numerals, see [`crate::compare_values`]).
    Compare {
        /// The relative path (child/attribute steps).
        path: Path,
        /// The operator.
        op: CompareOp,
        /// The literal right-hand side.
        literal: String,
    },
}

/// The absolute form (`/a/b`, `//b`).
impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_steps(f, &self.steps, true)
    }
}

/// Write `steps` as an absolute path, or as the relative path of a
/// predicate (`a/b`, `.//b`): no leading `/`, and a leading `//`
/// expansion spelled out, since a relative path cannot start with `//`.
fn write_steps(f: &mut fmt::Formatter<'_>, steps: &[Step], absolute: bool) -> fmt::Result {
    let mut i = 0;
    while i < steps.len() {
        let step = &steps[i];
        // Re-abbreviate the parser's `//` expansion
        // (`descendant-or-self::node()` followed by another step).
        if step.axis == Axis::DescendantOrSelf
            && step.test == NodeTest::Node
            && step.predicates.is_empty()
            && i + 1 < steps.len()
            && (absolute || i > 0)
        {
            write!(f, "//{}", steps[i + 1])?;
            i += 2;
            continue;
        }
        if i > 0 || (absolute && step.axis != Axis::SelfAxis) {
            f.write_str("/")?;
        }
        write!(f, "{step}")?;
        i += 1;
    }
    Ok(())
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.axis {
            Axis::Attribute => f.write_str("@")?,
            Axis::Parent => return f.write_str(".."),
            Axis::SelfAxis => return f.write_str("."),
            Axis::Descendant => f.write_str("descendant::")?,
            Axis::DescendantOrSelf => f.write_str("descendant-or-self::")?,
            Axis::Ancestor => f.write_str("ancestor::")?,
            Axis::AncestorOrSelf => f.write_str("ancestor-or-self::")?,
            Axis::FollowingSibling => f.write_str("following-sibling::")?,
            Axis::PrecedingSibling => f.write_str("preceding-sibling::")?,
            _ => {}
        }
        match &self.test {
            NodeTest::Name(n) => f.write_str(n)?,
            NodeTest::Any => f.write_str("*")?,
            NodeTest::Text => f.write_str("text()")?,
            NodeTest::Node => f.write_str("node()")?,
        }
        for p in &self.predicates {
            match p {
                Predicate::Position(n) => write!(f, "[{n}]")?,
                Predicate::Last => write!(f, "[last()]")?,
                Predicate::Exists(path) => {
                    f.write_str("[")?;
                    write_steps(f, &path.steps, false)?;
                    f.write_str("]")?
                }
                Predicate::Compare { path, op, literal } => {
                    let op = match op {
                        CompareOp::Eq => "=",
                        CompareOp::Ne => "!=",
                        CompareOp::Lt => "<",
                        CompareOp::Le => "<=",
                        CompareOp::Gt => ">",
                        CompareOp::Ge => ">=",
                    };
                    // A literal holding `"` is quoted with `'`.
                    let quote = if literal.contains('"') { '\'' } else { '"' };
                    f.write_str("[")?;
                    write_steps(f, &path.steps, false)?;
                    write!(f, "{op}{quote}{literal}{quote}]")?
                }
            }
        }
        Ok(())
    }
}
