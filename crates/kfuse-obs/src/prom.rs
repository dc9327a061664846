//! Prometheus text exposition: the metric-family model every exporter
//! fills, its text renderer, and the parser that validates a scrape.
//!
//! An exporter declares what it exports once, as a list of [`Family`]
//! values. [`render_prometheus`] and [`crate::json::render_json`] are two
//! views of that one list, so the formats cannot drift apart. This module
//! owns the [format rules](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! so the renderer and the validator agree on one definition: metric
//! names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match
//! `[a-zA-Z_][a-zA-Z0-9_]*`, label values escape `\`, `"` and newlines,
//! and each family is one contiguous group under one `# TYPE` line.

use std::fmt::Write;

/// The exposition type of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A count that only goes up.
    Counter,
    /// A value that can go up and down.
    Gauge,
}

impl Kind {
    /// The type's name on a `# TYPE` line.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One exported metric family. A family without samples still renders
/// its `# HELP` and `# TYPE` lines.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    /// A valid Prometheus metric name.
    pub name: &'static str,
    pub kind: Kind,
    /// One line of help text.
    pub help: &'static str,
    pub samples: Vec<Sample>,
}

impl Family {
    /// A [`Kind::Counter`] family.
    pub fn counter(name: &'static str, help: &'static str, samples: Vec<Sample>) -> Family {
        let kind = Kind::Counter;
        Family {
            name,
            kind,
            help,
            samples,
        }
    }

    /// A [`Kind::Gauge`] family.
    pub fn gauge(name: &'static str, help: &'static str, samples: Vec<Sample>) -> Family {
        let kind = Kind::Gauge;
        Family {
            name,
            kind,
            help,
            samples,
        }
    }
}

/// One sample of a [`Family`]: `(label name, label value)` pairs in
/// export order, and the value (NaN and the infinities allowed).
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub labels: Vec<(&'static str, String)>,
    pub value: f64,
}

/// Whether `name` is a valid Prometheus metric name.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name: a valid metric name
/// without colons.
pub fn is_valid_label_name(name: &str) -> bool {
    is_valid_metric_name(name) && !name.contains(':')
}

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `families`, in order, as one text-exposition document: a
/// `# HELP` and a `# TYPE` line per family, then one line per sample.
/// Non-finite values use the format's `NaN`, `+Inf` and `-Inf` tokens.
pub fn render_prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        debug_assert!(is_valid_metric_name(f.name), "bad metric name {}", f.name);
        // HELP text escapes backslash and newline only (format rule).
        let help = f.help.replace('\\', "\\\\").replace('\n', "\\n");
        let (name, kind) = (f.name, f.kind.as_str());
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        for s in &f.samples {
            out.push_str(name);
            for (i, (k, v)) in s.labels.iter().enumerate() {
                debug_assert!(is_valid_label_name(k), "bad label name {k}");
                let sep = if i == 0 { '{' } else { ',' };
                let _ = write!(out, "{sep}{k}=\"{}\"", escape_label_value(v));
            }
            if !s.labels.is_empty() {
                out.push('}');
            }
            let _ = match s.value {
                v if v.is_nan() => writeln!(out, " NaN"),
                v if v == f64::INFINITY => writeln!(out, " +Inf"),
                v if v == f64::NEG_INFINITY => writeln!(out, " -Inf"),
                v => writeln!(out, " {v}"),
            };
        }
    }
    out
}

/// One sample line of a parsed exposition document.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample<'a> {
    /// The metric name as written, a histogram's `_bucket`, `_sum` or
    /// `_count` suffix included.
    pub name: &'a str,
    /// The label block between the braces, still escaped (`""` when the
    /// sample has no labels).
    pub labels: &'a str,
    pub value: f64,
}

/// Parses one sample line's label block; returns the byte offset just past
/// the closing `}`.
fn check_labels(line: &str, open: usize) -> Result<usize, String> {
    let bytes = line.as_bytes();
    let mut pos = open + 1;
    loop {
        // Label name.
        let start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        let name = &line[start..pos];
        if !is_valid_label_name(name.trim()) {
            return Err(format!("bad label name '{name}' in: {line}"));
        }
        pos += 1; // '='
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("label value not quoted in: {line}"));
        }
        pos += 1;
        // Escaped value.
        loop {
            match bytes.get(pos) {
                None => return Err(format!("unterminated label value in: {line}")),
                Some(b'\\') => pos += 2,
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(_) => pos += 1,
            }
        }
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or '}}' in labels of: {line}")),
        }
    }
}

/// Parses and validates a Prometheus text-exposition document. Checks
/// comment/header syntax, metric and label names, quoting and values;
/// that every sample's family was declared by a `# TYPE` line, and by
/// only one; and that each family's lines form one contiguous group.
/// Returns the sample lines in document order.
pub fn parse_prometheus(doc: &str) -> Result<Vec<PromSample<'_>>, String> {
    let mut typed: Vec<&str> = Vec::new();
    // Families in the order their groups began; the last is still open.
    let mut groups: Vec<&str> = Vec::new();
    let mut samples = Vec::new();
    for line in doc.lines() {
        let line = line.trim_end();
        // Bare comments (no keyword) are allowed by the format.
        if line.is_empty() || (line.starts_with('#') && !line.starts_with("# ")) {
            continue;
        }
        let family = if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            match keyword {
                "HELP" => {
                    if !is_valid_metric_name(name) {
                        return Err(format!("HELP for invalid metric name: {line}"));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or_default();
                    if !is_valid_metric_name(name) {
                        return Err(format!("TYPE for invalid metric name: {line}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("unknown metric type '{kind}': {line}"));
                    }
                    if typed.contains(&name) {
                        return Err(format!("second TYPE line for {name}: {line}"));
                    }
                    typed.push(name);
                }
                _ => return Err(format!("unknown comment keyword: {line}")),
            }
            name
        } else {
            // Sample line: name[{labels}] value
            let (name_end, rest_start) = match line.find('{') {
                Some(open) => (open, check_labels(line, open)?),
                None => {
                    let sp = line
                        .find(' ')
                        .ok_or_else(|| format!("sample without value: {line}"))?;
                    (sp, sp)
                }
            };
            let name = &line[..name_end];
            if !is_valid_metric_name(name) {
                return Err(format!("invalid metric name '{name}' in: {line}"));
            }
            // A histogram/summary family declares the base name; its
            // samples may carry _bucket/_sum/_count suffixes.
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            let family = [name, base]
                .into_iter()
                .find(|f| typed.contains(f))
                .ok_or_else(|| format!("sample for undeclared metric family: {line}"))?;
            // Value, optionally followed by a timestamp (we never emit one,
            // but the format allows it). `NaN`, `+Inf` and `-Inf` parse.
            let value = line[rest_start..].trim();
            let value = value.split(' ').next().unwrap_or_default();
            let value = value
                .parse::<f64>()
                .map_err(|_| format!("bad sample value '{value}' in: {line}"))?;
            let labels = line[name_end..rest_start]
                .strip_prefix('{')
                .map_or("", |l| &l[..l.len() - 1]);
            samples.push(PromSample {
                name,
                labels,
                value,
            });
            family
        };
        if groups.last() != Some(&family) {
            if groups.contains(&family) {
                return Err(format!(
                    "lines of family {family} are not contiguous: {line}"
                ));
            }
            groups.push(family);
        }
    }
    Ok(samples)
}

/// [`parse_prometheus`], keeping only the number of sample lines.
pub fn validate_prometheus(doc: &str) -> Result<usize, String> {
    parse_prometheus(doc).map(|samples| samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(is_valid_metric_name("kfuse_requests_total"));
        assert!(is_valid_metric_name("_x:y"));
        assert!(!is_valid_metric_name("9lives"));
        assert!(!is_valid_metric_name("a-b"));
        assert!(!is_valid_metric_name(""));
        assert!(is_valid_label_name("pipeline"));
        assert!(!is_valid_label_name("p:l"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn writer_roundtrips_through_validator() {
        let doc = render_prometheus(&[
            Family {
                name: "kfuse_requests_total",
                kind: Kind::Counter,
                help: "Total requests.",
                samples: vec![Sample {
                    labels: vec![("pipeline", "a\"b\\c".into()), ("q", "0.5".into())],
                    value: 3.0,
                }],
            },
            Family {
                name: "kfuse_queue_depth",
                kind: Kind::Gauge,
                help: "Queued jobs.",
                samples: vec![Sample {
                    labels: vec![],
                    value: f64::NEG_INFINITY,
                }],
            },
        ]);
        assert_eq!(
            doc,
            "# HELP kfuse_requests_total Total requests.\n\
             # TYPE kfuse_requests_total counter\n\
             kfuse_requests_total{pipeline=\"a\\\"b\\\\c\",q=\"0.5\"} 3\n\
             # HELP kfuse_queue_depth Queued jobs.\n\
             # TYPE kfuse_queue_depth gauge\n\
             kfuse_queue_depth -Inf\n"
        );
        let samples = parse_prometheus(&doc).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].labels, "pipeline=\"a\\\"b\\\\c\",q=\"0.5\"");
        assert_eq!(samples[1].labels, "");
        assert_eq!(samples[1].value, f64::NEG_INFINITY);
    }

    #[test]
    fn rejects_undeclared_family() {
        assert!(validate_prometheus("mystery_metric 1\n")
            .unwrap_err()
            .contains("undeclared"));
    }

    #[test]
    fn rejects_bad_value() {
        let doc = "# TYPE m gauge\nm not_a_number\n";
        assert!(validate_prometheus(doc).is_err());
    }

    #[test]
    fn rejects_unquoted_label() {
        let doc = "# TYPE m gauge\nm{l=x} 1\n";
        assert!(validate_prometheus(doc).is_err());
    }

    #[test]
    fn accepts_histogram_suffixes() {
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 2\nh_count 1\n";
        assert_eq!(validate_prometheus(doc).unwrap(), 3);
    }

    #[test]
    fn accepts_special_values() {
        let doc = "# TYPE m gauge\nm +Inf\nm NaN\n";
        assert_eq!(validate_prometheus(doc).unwrap(), 2);
    }

    /// Two documents that each declare a family concatenate into one that
    /// declares it twice; the format allows one `# TYPE` line per family.
    #[test]
    fn rejects_second_type_line() {
        let doc = "# TYPE m gauge\nm 1\n# TYPE m gauge\nm 2\n";
        assert!(validate_prometheus(doc)
            .unwrap_err()
            .contains("second TYPE"));
    }

    /// A family's lines must form one group: a sample of `a` after `b`'s
    /// group began is refused, as is a HELP line that reopens `a`.
    #[test]
    fn rejects_interleaved_families() {
        for doc in [
            "# TYPE a gauge\n# TYPE b gauge\na 1\n",
            "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n",
            "# TYPE a gauge\na 1\n# TYPE b gauge\n# HELP a late help\n",
        ] {
            assert!(
                validate_prometheus(doc)
                    .unwrap_err()
                    .contains("not contiguous"),
                "{doc}"
            );
        }
        let ok = "# HELP a x\n# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\n";
        assert_eq!(validate_prometheus(ok).unwrap(), 2);
    }
}
