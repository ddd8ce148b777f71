//! XPath parser.

use std::fmt;
use std::iter::Peekable;
use std::str::Chars;

use crate::ast::{Axis, CompareOp, NodeTest, Path, Predicate, Step};

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// The source expression.
    pub expression: String,
    /// Explanation.
    pub reason: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XPath {:?}: {}", self.expression, self.reason)
    }
}

impl std::error::Error for XPathError {}

/// Parse an absolute location path (e.g. `/library/book[2]/@id`,
/// `//author`, `/library/book[author="Codd"]/title`).
pub fn parse(expression: &str) -> Result<Path, XPathError> {
    let mut p = Parser { chars: expression.chars().peekable(), src: expression };
    let path = p.parse_path(true)?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return Err(p.err("trailing input"));
    }
    if path.steps.is_empty() {
        return Err(p.err("empty path"));
    }
    Ok(path)
}

struct Parser<'a> {
    chars: Peekable<Chars<'a>>,
    src: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> XPathError {
        XPathError { expression: self.src.to_string(), reason: reason.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t')) {
            self.chars.next();
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.chars.peek() == Some(&c) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn parse_path(&mut self, absolute: bool) -> Result<Path, XPathError> {
        let mut steps = Vec::new();
        self.skip_ws();
        if absolute && !matches!(self.chars.peek(), Some('/')) {
            return Err(self.err("absolute paths start with '/' or '//'"));
        }
        loop {
            self.skip_ws();
            let axis_prefix = if self.eat('/') {
                if self.eat('/') {
                    Some(Axis::DescendantOrSelf)
                } else {
                    Some(Axis::Child)
                }
            } else {
                None
            };
            match axis_prefix {
                None => {
                    if steps.is_empty() && !absolute {
                        // Relative path: first step has no leading slash.
                        steps.push(self.parse_step(Axis::Child)?);
                        continue;
                    }
                    break;
                }
                Some(axis) => {
                    self.skip_ws();
                    if self.chars.peek().is_none() {
                        if steps.is_empty() && axis == Axis::Child {
                            // Bare "/" selects the document node.
                            steps.push(Step {
                                axis: Axis::SelfAxis,
                                test: NodeTest::Node,
                                predicates: Vec::new(),
                            });
                            break;
                        }
                        return Err(self.err("path ends after '/'"));
                    }
                    if axis == Axis::DescendantOrSelf {
                        // XPath 1.0 §2.5: `//step` abbreviates
                        // `/descendant-or-self::node()/step` — two steps,
                        // so `a//b` selects children named b of a *and*
                        // its descendants, never a itself.
                        steps.push(Step {
                            axis: Axis::DescendantOrSelf,
                            test: NodeTest::Node,
                            predicates: Vec::new(),
                        });
                        steps.push(self.parse_step(Axis::Child)?);
                    } else {
                        steps.push(self.parse_step(axis)?);
                    }
                }
            }
            if !matches!(self.chars.peek(), Some('/')) {
                break;
            }
        }
        Ok(Path { steps })
    }

    fn parse_step(&mut self, axis: Axis) -> Result<Step, XPathError> {
        self.skip_ws();
        let mut axis = axis;
        if self.eat('@') {
            axis = match axis {
                // `//@x` arrives here as the child step of the expanded
                // abbreviation, so Child covers it too.
                Axis::Child => Axis::Attribute,
                _ => return Err(self.err("'@' in unsupported position")),
            };
        }
        if self.eat('.') {
            if self.eat('.') {
                return Ok(Step { axis: Axis::Parent, test: NodeTest::Node, predicates: vec![] });
            }
            return Ok(Step { axis: Axis::SelfAxis, test: NodeTest::Node, predicates: vec![] });
        }
        // Explicit `axis::` prefix.
        self.skip_ws();
        for (prefix, explicit) in [
            ("ancestor-or-self::", Axis::AncestorOrSelf),
            ("ancestor::", Axis::Ancestor),
            ("descendant-or-self::", Axis::DescendantOrSelf),
            ("descendant::", Axis::Descendant),
            ("following-sibling::", Axis::FollowingSibling),
            ("preceding-sibling::", Axis::PrecedingSibling),
            ("child::", Axis::Child),
            ("attribute::", Axis::Attribute),
            ("parent::", Axis::Parent),
            ("self::", Axis::SelfAxis),
        ] {
            if self.peek_str(prefix) {
                for _ in 0..prefix.chars().count() {
                    self.chars.next();
                }
                axis = explicit;
                break;
            }
        }
        let test = if self.eat('*') {
            NodeTest::Any
        } else {
            let name = self.parse_name()?;
            self.skip_ws();
            if name == "text" && self.eat('(') {
                if !self.eat(')') {
                    return Err(self.err("expected ')' after text("));
                }
                NodeTest::Text
            } else if name == "node" && self.eat('(') {
                if !self.eat(')') {
                    return Err(self.err("expected ')' after node("));
                }
                NodeTest::Node
            } else {
                NodeTest::Name(name)
            }
        };
        let mut predicates = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat('[') {
                break;
            }
            predicates.push(self.parse_predicate()?);
            self.skip_ws();
            if !self.eat(']') {
                return Err(self.err("expected ']'"));
            }
        }
        Ok(Step { axis, test, predicates })
    }

    fn parse_name(&mut self) -> Result<String, XPathError> {
        let mut name = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                name.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        if name.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(name)
    }

    fn parse_predicate(&mut self) -> Result<Predicate, XPathError> {
        self.skip_ws();
        // Number → position.
        if matches!(self.chars.peek(), Some(c) if c.is_ascii_digit()) {
            let mut digits = String::new();
            while let Some(c) = self.chars.next_if(|c| c.is_ascii_digit()) {
                digits.push(c);
            }
            let n: u32 = digits.parse().map_err(|_| self.err("position out of range"))?;
            if n == 0 {
                return Err(self.err("positions are 1-based"));
            }
            return Ok(Predicate::Position(n));
        }
        // last()
        if self.peek_str("last()") {
            for _ in 0.."last()".len() {
                self.chars.next();
            }
            return Ok(Predicate::Last);
        }
        // Relative path, optionally compared to a literal. An absolute
        // one would select from the root, which no predicate evaluates.
        if self.chars.peek() == Some(&'/') {
            return Err(self.err("predicate paths are relative: remove the leading '/'"));
        }
        let path = self.parse_path(false)?;
        self.skip_ws();
        let op = match self.chars.peek() {
            Some('=') => {
                self.chars.next();
                Some(CompareOp::Eq)
            }
            Some('!') => {
                self.chars.next();
                if !self.eat('=') {
                    return Err(self.err("expected '=' after '!'"));
                }
                Some(CompareOp::Ne)
            }
            Some('<') => {
                self.chars.next();
                Some(if self.eat('=') { CompareOp::Le } else { CompareOp::Lt })
            }
            Some('>') => {
                self.chars.next();
                Some(if self.eat('=') { CompareOp::Ge } else { CompareOp::Gt })
            }
            _ => None,
        };
        match op {
            None => Ok(Predicate::Exists(path)),
            Some(op) => {
                self.skip_ws();
                let quote = match self.chars.next() {
                    Some(q @ ('"' | '\'')) => q,
                    _ => return Err(self.err("expected a quoted literal")),
                };
                let mut literal = String::new();
                loop {
                    match self.chars.next() {
                        Some(c) if c == quote => break,
                        Some(c) => literal.push(c),
                        None => return Err(self.err("unterminated literal")),
                    }
                }
                Ok(Predicate::Compare { path, op, literal })
            }
        }
    }

    fn peek_str(&self, s: &str) -> bool {
        self.chars.clone().take(s.chars().count()).collect::<String>() == s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_child_paths() {
        let p = parse("/library/book/title").unwrap();
        assert_eq!(p.steps.len(), 3);
        assert!(matches!(&p.steps[0].test, NodeTest::Name(n) if n == "library"));
        assert_eq!(p.steps[2].axis, Axis::Child);
    }

    #[test]
    fn descendant_axis() {
        let p = parse("//author").unwrap();
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        let p = parse("/library//title").unwrap();
        assert_eq!(p.steps[1].axis, Axis::DescendantOrSelf);
    }

    #[test]
    fn attribute_axis() {
        let p = parse("/library/book/@id").unwrap();
        assert_eq!(p.steps[2].axis, Axis::Attribute);
        assert!(matches!(&p.steps[2].test, NodeTest::Name(n) if n == "id"));
    }

    #[test]
    fn positional_predicate() {
        let p = parse("/library/book[2]").unwrap();
        assert_eq!(p.steps[1].predicates, vec![Predicate::Position(2)]);
        assert!(parse("/a[0]").is_err());
    }

    #[test]
    fn last_predicate() {
        let p = parse("/library/book[last()]").unwrap();
        assert_eq!(p.steps[1].predicates, vec![Predicate::Last]);
    }

    #[test]
    fn comparison_predicate() {
        let p = parse(r#"/library/book[author="Codd"]/title"#).unwrap();
        match &p.steps[1].predicates[0] {
            Predicate::Compare { path, op, literal } => {
                assert_eq!(path.steps.len(), 1);
                assert_eq!(*op, CompareOp::Eq);
                assert_eq!(literal, "Codd");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_comparison_predicate() {
        let p = parse("/library/book[@id='b1']").unwrap();
        match &p.steps[1].predicates[0] {
            Predicate::Compare { path, .. } => {
                assert_eq!(path.steps[0].axis, Axis::Attribute);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn existence_predicate() {
        let p = parse("/library/book[issue]").unwrap();
        assert!(matches!(&p.steps[1].predicates[0], Predicate::Exists(_)));
    }

    #[test]
    fn numeric_comparisons() {
        for (src, op) in [
            ("/a[b<'5']", CompareOp::Lt),
            ("/a[b<='5']", CompareOp::Le),
            ("/a[b>'5']", CompareOp::Gt),
            ("/a[b>='5']", CompareOp::Ge),
            ("/a[b!='5']", CompareOp::Ne),
        ] {
            let p = parse(src).unwrap();
            match &p.steps[0].predicates[0] {
                Predicate::Compare { op: got, .. } => assert_eq!(*got, op, "{src}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn wildcard_text_and_node_tests() {
        assert!(matches!(parse("/a/*").unwrap().steps[1].test, NodeTest::Any));
        assert!(matches!(parse("/a/text()").unwrap().steps[1].test, NodeTest::Text));
        assert!(matches!(parse("/a/node()").unwrap().steps[1].test, NodeTest::Node));
    }

    #[test]
    fn parent_and_self_steps() {
        let p = parse("/a/b/..").unwrap();
        assert_eq!(p.steps[2].axis, Axis::Parent);
        let p = parse("/a/.").unwrap();
        assert_eq!(p.steps[1].axis, Axis::SelfAxis);
    }

    #[test]
    fn multiple_predicates() {
        let p = parse("/lib/book[author='Codd'][2]").unwrap();
        assert_eq!(p.steps[1].predicates.len(), 2);
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "/library/book/title",
            "//author",
            "/library/book[2]",
            "/library/book/@id",
            "/a/text()",
        ] {
            let p = parse(src).unwrap();
            assert_eq!(parse(&p.to_string()).unwrap(), p, "{src}");
        }
    }

    #[test]
    fn errors() {
        for bad in ["", "library", "/a[", "/a[b=]", "/a[b='x]", "/a/", "/a[0]", "/a]["] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
