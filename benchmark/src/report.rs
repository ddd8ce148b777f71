//! The result of one run: the contract's last-line JSON object, the
//! human listing above it, and the hand-over file through which the
//! wire driver passes its per-layer half to the traced replay.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::spec;

/// Counts and metrics of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops sent (both loops, restart checks included).
    pub attempted: u64,
    /// Ops that failed, were refused, never sent, or answered wrongly.
    pub failed: u64,
    /// `(name, value, spread)`: spread is the inter-quartile range over
    /// rounds as a share of the median, where rounds exist.
    pub metrics: Vec<(String, f64, Option<f64>)>,
}

impl Report {
    /// Whether every response was the expected one.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value, None));
    }

    /// Record a median-of-rounds metric with its spread.
    pub fn set_with_spread(&mut self, name: &str, value: f64, spread: f64) {
        self.metrics.push((name.to_string(), value, Some(spread)));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Every metric by name with its unit, one per line.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (name, value, spread) in &self.metrics {
            let unit = spec::unit_of(name).unwrap_or("?");
            let _ = write!(out, "  {name:<42} {value:>16.6} {unit}");
            if let Some(s) = spread {
                let _ = write!(out, "   (iqr/median over rounds {s:.3})");
            }
            out.push('\n');
        }
        out
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, on one line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, _)) in self.metrics.iter().enumerate() {
            let unit = spec::unit_of(name).unwrap_or("?");
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Write the hand-over file (tab-separated, one record per line).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = format!("attempted\t{}\nfailed\t{}\n", self.attempted, self.failed);
        for (name, value, _) in &self.metrics {
            let _ = writeln!(out, "metric\t{name}\t{value}");
        }
        std::fs::write(path, out)
    }

    /// Read a hand-over file back.
    pub fn load(path: &Path) -> io::Result<Report> {
        let bad =
            |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad line {line:?}"));
        let mut report = Report::default();
        for line in std::fs::read_to_string(path)?.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            match cols.as_slice() {
                ["attempted", n] => report.attempted = n.parse().map_err(|_| bad(line))?,
                ["failed", n] => report.failed = n.parse().map_err(|_| bad(line))?,
                ["metric", name, v] => report.set(name, v.parse().map_err(|_| bad(line))?),
                _ => return Err(bad(line)),
            }
        }
        Ok(report)
    }
}

/// The number after `"key":` in a JSON text, for reading the `STATS`
/// export without a JSON parser. Inside `scope` (an object key such as
/// a histogram name) when given.
pub fn json_number(text: &str, scope: Option<&str>, key: &str) -> Option<f64> {
    let mut from = 0;
    if let Some(scope) = scope {
        from = text.find(&format!("\"{scope}\""))?;
    }
    let needle = format!("\"{key}\":");
    let at = from + text[from..].find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_are_found_by_key_and_scope() {
        let text = r#"{"counters": {"a.b_total": 12, "c": 3},
            "histograms": {"h1": {"count": 1, "p50": 7}, "h2": {"count": 2, "p50": 9}}}"#;
        assert_eq!(json_number(text, None, "a.b_total"), Some(12.0));
        assert_eq!(json_number(text, Some("h2"), "p50"), Some(9.0));
        assert_eq!(json_number(text, None, "missing"), None);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 10, failed: 0, metrics: Vec::new() };
        r.set("p50_ms", 1.25);
        assert_eq!(
            r.json_line(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}
