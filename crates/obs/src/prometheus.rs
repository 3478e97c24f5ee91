//! Prometheus text exposition (format version 0.0.4).
//!
//! A tiny, dependency-free writer for the one wire format every metrics
//! stack can scrape. [`PromWriter`] guarantees the structural rules a
//! scraper checks: every sample is preceded by its family's `# HELP` /
//! `# TYPE` header, label values are escaped, and output order is
//! exactly insertion order — callers iterate sorted maps, so two
//! renders of the same state are byte-identical.

use std::fmt::Write as _;

fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Formats a sample value the way Prometheus expects: integers without
/// a decimal point, everything else in shortest `f64` form.
fn push_value(v: f64, out: &mut String) {
    if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// An append-only exposition builder.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Writes a family header: `# HELP` then `# TYPE`. Call once per
    /// family, before its samples. `kind` is `counter`, `gauge` or
    /// `histogram`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = write!(self.out, "# HELP {name} ");
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('\n');
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                escape_label(v, &mut self.out);
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        push_value(value, &mut self.out);
        self.out.push('\n');
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_and_values() {
        let mut w = PromWriter::new();
        w.family("separ_requests_total", "counter", "requests served");
        w.sample("separ_requests_total", &[], 42.0);
        w.family("separ_latency_seconds", "gauge", "request latency");
        w.sample("separ_latency_seconds", &[("quantile", "0.5")], 0.0055005);
        assert_eq!(
            w.finish(),
            "# HELP separ_requests_total requests served\n\
             # TYPE separ_requests_total counter\n\
             separ_requests_total 42\n\
             # HELP separ_latency_seconds request latency\n\
             # TYPE separ_latency_seconds gauge\n\
             separ_latency_seconds{quantile=\"0.5\"} 0.0055005\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.sample("m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(w.finish(), "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }
}
