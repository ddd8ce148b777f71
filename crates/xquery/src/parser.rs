//! FLWOR parser.

use std::fmt;

use xpath::CompareOp;

use crate::ast::{
    Condition, Constructor, Content, Flwor, Item, OrderBy, Query, TemplatePart, VarPath,
};

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XQueryError {
    /// The source query.
    pub query: String,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for XQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XQuery {:?}: {}", self.query, self.reason)
    }
}

impl std::error::Error for XQueryError {}

/// Parse a query.
pub fn parse_query(src: &str) -> Result<Query, XQueryError> {
    let mut p = Parser { src, rest: src.trim_start() };
    let q = if p.peek_word("for") {
        Query::Flwor(p.parse_flwor()?)
    } else {
        let path = xpath::parse(p.rest.trim())
            .map_err(|e| p.err(format!("not a FLWOR and not a path: {e}")))?;
        p.rest = "";
        Query::Path(path)
    };
    if !p.rest.trim().is_empty() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

struct Parser<'a> {
    src: &'a str,
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> XQueryError {
        XQueryError { query: self.src.to_string(), reason: reason.into() }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek_word(&self, word: &str) -> bool {
        let r = self.rest.trim_start();
        r.starts_with(word)
            && r[word.len()..].chars().next().is_none_or(|c| !c.is_alphanumeric() && c != '_')
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek_word(word) {
            self.skip_ws();
            self.rest = &self.rest[word.len()..];
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), XQueryError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        if let Some(r) = self.rest.strip_prefix(c) {
            self.rest = r;
            true
        } else {
            false
        }
    }

    fn parse_name(&mut self) -> Result<String, XQueryError> {
        self.skip_ws();
        let end = self
            .rest
            .char_indices()
            .find(|(_, c)| !c.is_alphanumeric() && !matches!(c, '_' | '-' | '.'))
            .map(|(i, _)| i)
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        let name = self.rest[..end].to_string();
        self.rest = &self.rest[end..];
        Ok(name)
    }

    /// A region up to (not including) the first of the given stop
    /// *keywords* that stands as a whole word at bracket/paren depth 0
    /// and outside quotes, as [`find_comparison`] scans; used for
    /// embedded paths. A keyword inside a predicate or a literal belongs
    /// to it.
    fn take_until_keyword(&mut self, stops: &[&str]) -> &'a str {
        self.skip_ws();
        let text = self.rest;
        let (mut depth, mut quote) = (0usize, None);
        let mut word_start = true;
        let mut best = text.len();
        for (at, c) in text.char_indices() {
            let starts = std::mem::replace(&mut word_start, c.is_whitespace());
            if let Some(q) = quote {
                if c == q {
                    quote = None;
                }
                continue;
            }
            match c {
                '"' | '\'' => quote = Some(c),
                '[' | '(' => depth += 1,
                ']' | ')' => depth = depth.saturating_sub(1),
                _ if depth == 0 && starts => {
                    let keyword = stops.iter().any(|stop| {
                        text[at..].strip_prefix(stop).is_some_and(|after| {
                            after.chars().next().is_none_or(char::is_whitespace)
                        })
                    });
                    if keyword {
                        best = at;
                        break;
                    }
                }
                _ => {}
            }
        }
        let (head, tail) = text.split_at(best);
        self.rest = tail;
        head.trim_end()
    }

    fn parse_flwor(&mut self) -> Result<Flwor, XQueryError> {
        self.expect_word("for")?;
        if !self.eat_char('$') {
            return Err(self.err("expected $variable after 'for'"));
        }
        let var = self.parse_name()?;
        self.expect_word("in")?;
        let source_text = self.take_until_keyword(&["let", "where", "order", "return"]).to_string();
        let source =
            xpath::parse(&source_text).map_err(|e| self.err(format!("for-source: {e}")))?;

        let mut lets = Vec::new();
        while self.eat_word("let") {
            if !self.eat_char('$') {
                return Err(self.err("expected $variable after 'let'"));
            }
            let name = self.parse_name()?;
            self.skip_ws();
            if !self.rest.starts_with(":=") {
                return Err(self.err("expected ':=' in let clause"));
            }
            self.rest = &self.rest[2..];
            let vp_text = self.take_until_keyword(&["let", "where", "order", "return"]).to_string();
            lets.push((name, self.parse_varpath_text(&vp_text)?));
        }

        let mut conditions = Vec::new();
        if self.eat_word("where") {
            loop {
                let cond_text = self.take_until_keyword(&["and", "order", "return"]).to_string();
                conditions.push(self.parse_condition_text(&cond_text)?);
                if !self.eat_word("and") {
                    break;
                }
            }
        }

        let mut order = None;
        if self.eat_word("order") {
            self.expect_word("by")?;
            let key_text =
                self.take_until_keyword(&["descending", "ascending", "return"]).to_string();
            let descending = self.eat_word("descending");
            let _ = self.eat_word("ascending");
            order = Some(OrderBy { key: self.parse_varpath_text(&key_text)?, descending });
        }

        self.expect_word("return")?;
        let ret = self.parse_item()?;
        Ok(Flwor { var, source, lets, conditions, order, ret })
    }

    fn parse_varpath_text(&self, text: &str) -> Result<VarPath, XQueryError> {
        let text = text.trim();
        let rest = text
            .strip_prefix('$')
            .ok_or_else(|| self.err(format!("expected $variable in {text:?}")))?;
        match rest.find('/') {
            None => {
                if rest.is_empty() || !rest.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    return Err(self.err(format!("bad variable name in {text:?}")));
                }
                Ok(VarPath { var: rest.to_string(), path: None })
            }
            Some(slash) => {
                let var = &rest[..slash];
                let path_text = &rest[slash..];
                let path =
                    xpath::parse(path_text).map_err(|e| self.err(format!("variable path: {e}")))?;
                Ok(VarPath { var: var.to_string(), path: Some(path) })
            }
        }
    }

    fn parse_condition_text(&self, text: &str) -> Result<Condition, XQueryError> {
        let Some((at, sym, op)) = find_comparison(text) else {
            return Ok(Condition::Exists(self.parse_varpath_text(text)?));
        };
        let lhs = self.parse_varpath_text(&text[..at])?;
        let rhs = text[at + sym.len()..].trim();
        let literal = rhs
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .or_else(|| rhs.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')))
            .ok_or_else(|| self.err(format!("expected quoted literal in {text:?}")))?;
        Ok(Condition::Compare { lhs, op, literal: literal.to_string() })
    }

    fn parse_item(&mut self) -> Result<Item, XQueryError> {
        self.skip_ws();
        if self.rest.starts_with('<') {
            return Ok(Item::Constructor(self.parse_constructor()?));
        }
        if self.rest.starts_with('$') {
            let text = std::mem::take(&mut self.rest);
            return Ok(Item::VarPath(self.parse_varpath_text(text)?));
        }
        if let Some(r) = self.rest.strip_prefix('"') {
            let end = r.find('"').ok_or_else(|| self.err("unterminated string literal"))?;
            let lit = r[..end].to_string();
            self.rest = &r[end + 1..];
            return Ok(Item::Literal(lit));
        }
        Err(self.err("expected a constructor, $variable, or string literal after 'return'"))
    }

    fn parse_constructor(&mut self) -> Result<Constructor, XQueryError> {
        if !self.eat_char('<') {
            return Err(self.err("expected '<'"));
        }
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_char('/') {
                if !self.eat_char('>') {
                    return Err(self.err("expected '>' after '/'"));
                }
                return Ok(Constructor { name, attributes, content: Vec::new() });
            }
            if self.eat_char('>') {
                break;
            }
            let attr_name = self.parse_name()?;
            if !self.eat_char('=') {
                return Err(self.err("expected '=' in attribute"));
            }
            if !self.eat_char('"') {
                return Err(self.err("attribute templates use double quotes"));
            }
            attributes.push((attr_name, self.parse_template_until('"')?));
        }
        let mut content = Vec::new();
        loop {
            if self.rest.starts_with("</") {
                self.rest = &self.rest[2..];
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!("mismatched </{close}>, expected </{name}>")));
                }
                if !self.eat_char('>') {
                    return Err(self.err("expected '>'"));
                }
                return Ok(Constructor { name, attributes, content });
            }
            if self.rest.starts_with('<') {
                content.push(Content::Element(self.parse_constructor()?));
                continue;
            }
            if self.rest.starts_with('{') {
                self.rest = &self.rest[1..];
                let end =
                    self.rest.find('}').ok_or_else(|| self.err("unterminated '{' expression"))?;
                let inner = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                content.push(Content::Expr(self.parse_varpath_text(&inner)?));
                continue;
            }
            // Literal text up to the next special character.
            let end = self
                .rest
                .find(['<', '{'])
                .ok_or_else(|| self.err("unterminated element constructor"))?;
            if end == 0 && self.rest.is_empty() {
                return Err(self.err("unterminated element constructor"));
            }
            let text = self.rest[..end].to_string();
            self.rest = &self.rest[end..];
            if !text.is_empty() {
                content.push(Content::Text(text));
            }
        }
    }

    fn parse_template_until(&mut self, quote: char) -> Result<Vec<TemplatePart>, XQueryError> {
        let mut parts = Vec::new();
        let mut literal = String::new();
        loop {
            let Some(c) = self.rest.chars().next() else {
                return Err(self.err("unterminated attribute template"));
            };
            if c == quote {
                self.rest = &self.rest[1..];
                if !literal.is_empty() {
                    parts.push(TemplatePart::Literal(literal));
                }
                return Ok(parts);
            }
            if c == '{' {
                if !literal.is_empty() {
                    parts.push(TemplatePart::Literal(std::mem::take(&mut literal)));
                }
                self.rest = &self.rest[1..];
                let end =
                    self.rest.find('}').ok_or_else(|| self.err("unterminated '{' in template"))?;
                let inner = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                parts.push(TemplatePart::Expr(self.parse_varpath_text(&inner)?));
                continue;
            }
            literal.push(c);
            self.rest = &self.rest[c.len_utf8()..];
        }
    }
}

/// The first comparison operator of a `where` condition that lies
/// outside quotes and outside every bracket and parenthesis — one inside
/// a predicate or a literal belongs to it — with its byte offset. `!=`,
/// `<=` and `>=` win over the one-character operator they start with.
fn find_comparison(text: &str) -> Option<(usize, &'static str, CompareOp)> {
    let bytes = text.as_bytes();
    let (mut depth, mut quote) = (0usize, None);
    for (at, &b) in bytes.iter().enumerate() {
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            continue;
        }
        let op = match (b, bytes.get(at + 1) == Some(&b'=')) {
            (b'"' | b'\'', _) => {
                quote = Some(b);
                continue;
            }
            (b'[' | b'(', _) => {
                depth += 1;
                continue;
            }
            (b']' | b')', _) => {
                depth = depth.saturating_sub(1);
                continue;
            }
            _ if depth > 0 => continue,
            (b'!', true) => ("!=", CompareOp::Ne),
            (b'<', true) => ("<=", CompareOp::Le),
            (b'>', true) => (">=", CompareOp::Ge),
            (b'=', _) => ("=", CompareOp::Eq),
            (b'<', false) => ("<", CompareOp::Lt),
            (b'>', false) => (">", CompareOp::Gt),
            _ => continue,
        };
        return Some((at, op.0, op.1));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_paths_parse_as_path_queries() {
        match parse_query("/library/book/title").unwrap() {
            Query::Path(p) => assert_eq!(p.steps.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minimal_flwor() {
        let q = parse_query("for $b in /library/book return $b/title").unwrap();
        match q {
            Query::Flwor(f) => {
                assert_eq!(f.var, "b");
                assert_eq!(f.source.steps.len(), 2);
                assert!(f.conditions.is_empty());
                assert!(matches!(f.ret, Item::VarPath(ref vp) if vp.var == "b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_flwor_with_all_clauses() {
        let q = parse_query(
            r#"for $b in /library/book
               let $t := $b/title
               where $b/author = "Codd" and $b/issue
               order by $t descending
               return <hit id="{$b/@id}">{$t} ok</hit>"#,
        )
        .unwrap();
        let Query::Flwor(f) = q else { panic!() };
        assert_eq!(f.lets.len(), 1);
        assert_eq!(f.lets[0].0, "t");
        assert_eq!(f.conditions.len(), 2);
        assert!(matches!(f.conditions[0], Condition::Compare { .. }));
        assert!(matches!(f.conditions[1], Condition::Exists(_)));
        let order = f.order.unwrap();
        assert!(order.descending);
        assert_eq!(order.key.var, "t");
        let Item::Constructor(c) = f.ret else { panic!() };
        assert_eq!(c.name, "hit");
        assert_eq!(c.attributes.len(), 1);
        assert_eq!(c.content.len(), 2); // {$t} and " ok"
    }

    /// The condition of `for $b in /library/book where {cond} return $b`.
    fn condition(cond: &str) -> Condition {
        let q = format!("for $b in /library/book where {cond} return $b");
        let Query::Flwor(mut f) = parse_query(&q).unwrap() else { panic!() };
        assert_eq!(f.conditions.len(), 1, "{q}");
        f.conditions.remove(0)
    }

    #[test]
    fn where_operators_inside_brackets_and_quotes_belong_to_them() {
        // A predicate's comparison is part of the path: the condition
        // is an existence test.
        for cond in [r#"$b/author[.="Gray"]"#, "$b/../year[.>'1990']", "$b/x[a!='b'][c='d']"] {
            assert!(matches!(condition(cond), Condition::Exists(_)), "{cond}");
        }
        // An operator inside the literal is part of the literal.
        let Condition::Compare { op, literal, .. } = condition(r#"$b/title = "x!=y""#) else {
            panic!()
        };
        assert_eq!((op, literal.as_str()), (CompareOp::Eq, "x!=y"));
        // Both at once: the comparison is the one at depth 0.
        let Condition::Compare { lhs, op, literal } =
            condition(r#"$b/author[. != "a]b"] >= 'c=d'"#)
        else {
            panic!()
        };
        assert_eq!((op, literal.as_str()), (CompareOp::Ge, "c=d"));
        assert_eq!(lhs.var, "b");
        // Two-character operators win over their first character.
        for (cond, want) in [
            ("$b/y != '1'", CompareOp::Ne),
            ("$b/y <= '1'", CompareOp::Le),
            ("$b/y >= '1'", CompareOp::Ge),
            ("$b/y < '1'", CompareOp::Lt),
            ("$b/y > '1'", CompareOp::Gt),
            ("$b/y = '1'", CompareOp::Eq),
        ] {
            let Condition::Compare { op, .. } = condition(cond) else { panic!("{cond}") };
            assert_eq!(op, want, "{cond}");
        }
    }

    #[test]
    fn nested_constructors() {
        let q = parse_query("for $b in /lib/x return <a><b>{$b}</b><c/></a>").unwrap();
        let Query::Flwor(f) = q else { panic!() };
        let Item::Constructor(c) = f.ret else { panic!() };
        assert_eq!(c.content.len(), 2);
        assert!(matches!(&c.content[0], Content::Element(e) if e.name == "b"));
        assert!(
            matches!(&c.content[1], Content::Element(e) if e.name == "c" && e.content.is_empty())
        );
    }

    #[test]
    fn string_literal_return() {
        let q = parse_query(r#"for $x in /a/b return "found""#).unwrap();
        let Query::Flwor(f) = q else { panic!() };
        assert_eq!(f.ret, Item::Literal("found".to_string()));
    }

    #[test]
    fn comparison_operators() {
        for (src, want) in [
            ("$b/p = \"x\"", CompareOp::Eq),
            ("$b/p != \"x\"", CompareOp::Ne),
            ("$b/p < \"5\"", CompareOp::Lt),
            ("$b/p <= \"5\"", CompareOp::Le),
            ("$b/p > \"5\"", CompareOp::Gt),
            ("$b/p >= \"5\"", CompareOp::Ge),
        ] {
            let q = parse_query(&format!("for $b in /a/b where {src} return $b")).unwrap();
            let Query::Flwor(f) = q else { panic!() };
            match &f.conditions[0] {
                Condition::Compare { op, .. } => assert_eq!(*op, want, "{src}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn errors() {
        for bad in [
            "",
            "for $ in /a return $x",
            "for $x /a return $x",
            "for $x in /a",
            "for $x in /a return",
            "for $x in /a return <a>{$x}</b>",
            "for $x in /a return <a>{$x</a>",
            "for $x in /a where $x = unquoted return $x",
            "banana",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn clause_keywords_inside_literals_and_predicates_belong_to_them() {
        for kw in ["and", "let", "where", "order", "return", "ascending", "descending"] {
            // In a `where` literal.
            let literal = format!("Access {kw} Path");
            let q = format!(r#"for $b in /library/book where $b/title = "{literal}" return $b"#);
            let Query::Flwor(f) = parse_query(&q).unwrap() else { panic!("{q}") };
            let [Condition::Compare { literal: got, .. }] = &f.conditions[..] else {
                panic!("{q}")
            };
            assert_eq!(got, &literal, "{q}");
            // In a predicate of the `for` source, of a `let` path and of
            // an `order by` key.
            let q = format!(
                "for $b in /library/book[title = 'x {kw} y'] let $t := $b/title[. != \"{kw}\"] \
                 order by $b/author[. = '{kw} '] descending return $t"
            );
            let Query::Flwor(f) = parse_query(&q).unwrap() else { panic!("{q}") };
            assert_eq!(f.source.to_string(), format!(r#"/library/book[title="x {kw} y"]"#));
            assert_eq!((f.lets.len(), f.order.map(|o| o.descending)), (1, Some(true)), "{q}");
            assert!(matches!(f.ret, Item::VarPath(ref vp) if vp.var == "t"), "{q}");
        }
    }

    #[test]
    fn keywords_inside_paths_do_not_confuse_the_parser() {
        // 'order' appears as an element name — it is not followed by
        // whitespace-separated 'by', but the keyword scan is word-aware.
        let q = parse_query("for $x in /shop/orders/entry return $x/total").unwrap();
        let Query::Flwor(f) = q else { panic!() };
        assert_eq!(f.source.steps.len(), 3);
    }
}
