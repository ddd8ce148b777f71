//! Value comparison, shared by XPath predicates and by XQuery's `where`
//! and `order by`.
//!
//! A string value is *numeric* exactly when, less surrounding XML
//! whitespace, it is a digit-based decimal or double numeral:
//! `[+-]? (digits ('.' digits?)? | '.' digits) ([eE] [+-]? digits)?`.
//! Spellings such as `NaN`, `inf` or `Infinity` are text, so no value
//! is ever a NaN and the numeric order is total.
//!
//! * The *general comparison* of a predicate or a `where` clause
//!   compares two values numerically when both are numeric, and by
//!   code point otherwise ([`compare_values`]).
//! * The *sort order* of `order by` must be total, which the general
//!   comparison is not (`"10" < "10a" < "9" < "10"`). It puts every
//!   numeric value before every other one, numbers by value and text by
//!   code point ([`Value::sort_cmp`]).

use std::cmp::Ordering;

/// The number a string value reads as, when it is a numeral (see the
/// module docs); `None` for every other value.
fn numeral(s: &str) -> Option<f64> {
    let t = s.trim_matches(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    let b = t.as_bytes();
    let mut i = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let digits = |i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - start
    };
    let mut mantissa = digits(&mut i);
    if b.get(i) == Some(&b'.') {
        i += 1;
        mantissa += digits(&mut i);
    }
    if mantissa == 0 {
        return None;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return None;
        }
    }
    if i != b.len() {
        return None;
    }
    t.parse().ok()
}

/// The general comparison of two string values: numeric when both are
/// numerals, by code point otherwise.
pub fn compare_values(a: &str, b: &str) -> Ordering {
    general(a, numeral(a), b, numeral(b))
}

fn general(a: &str, an: Option<f64>, b: &str, bn: Option<f64>) -> Ordering {
    match (an, bn) {
        // Numerals never read as NaN, so `partial_cmp` always answers.
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.cmp(b),
    }
}

/// A string value classified once: a comparison literal (classified
/// when the query is planned) or an `order by` key (once per row).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    text: String,
    number: Option<f64>,
}

impl Value {
    /// Classify `text`.
    pub fn new(text: impl Into<String>) -> Value {
        let text = text.into();
        let number = numeral(&text);
        Value { text, number }
    }

    /// The value as written.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The general comparison of `value` (left) with `self` (right):
    /// `compare_values(value, self.text())`, classifying only `value`.
    pub fn compared_from(&self, value: &str) -> Ordering {
        general(value, numeral(value), &self.text, self.number)
    }

    /// The total sort order: numerals by value first, then every other
    /// value by code point.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        match (self.number, other.number) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.text.cmp(&other.text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerals_are_digit_based() {
        for (s, want) in [
            ("10", Some(10.0)),
            (" 9.5\n", Some(9.5)),
            ("-.5", Some(-0.5)),
            ("+3.", Some(3.0)),
            ("1e3", Some(1000.0)),
            ("2.5E-1", Some(0.25)),
            ("NaN", None),
            ("nan", None),
            ("inf", None),
            ("-Infinity", None),
            ("INF", None),
            ("10a", None),
            ("1e", None),
            (".", None),
            ("", None),
            ("- 1", None),
            ("0x10", None),
        ] {
            assert_eq!(numeral(s), want, "{s:?}");
        }
    }

    #[test]
    fn general_comparison_is_numeric_only_between_numerals() {
        assert_eq!(compare_values("9", "10"), Ordering::Less);
        assert_eq!(compare_values("10.0", "10"), Ordering::Equal);
        assert_eq!(compare_values("NaN", "NaN"), Ordering::Equal);
        assert_eq!(compare_values("inf", "INF"), Ordering::Greater);
        assert_eq!(compare_values("10", "NaN"), Ordering::Less);
        assert_eq!(compare_values("9", "10a"), Ordering::Greater);
        assert_eq!(Value::new("10").compared_from("9.0"), Ordering::Less);
    }

    #[test]
    fn sort_order_is_total() {
        let mut keys: Vec<Value> =
            ["10a", "9", "abc", "10", "NaN", "", "1e1", "-inf", "0.5"].map(Value::new).into();
        keys.sort_by(Value::sort_cmp);
        let texts: Vec<&str> = keys.iter().map(Value::text).collect();
        assert_eq!(texts, ["0.5", "9", "10", "1e1", "", "-inf", "10a", "NaN", "abc"]);
        for a in &keys {
            for b in &keys {
                assert_eq!(a.sort_cmp(b), b.sort_cmp(a).reverse());
                for c in &keys {
                    if a.sort_cmp(b).is_le() && b.sort_cmp(c).is_le() {
                        assert!(a.sort_cmp(c).is_le(), "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
    }
}
