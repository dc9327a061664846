//! Minimal JSON string utilities shared by every hand-rolled serializer in
//! the workspace (the metric families, the Chrome trace exporter).
//!
//! The workspace has no external dependencies, so each exporter writes its
//! JSON by hand; this module is the single place where string escaping and
//! float formatting live, so no serializer can drift out of RFC 8259
//! conformance on its own.

use crate::prom::{Family, Sample};

/// Escapes `s` for inclusion inside a JSON string literal (RFC 8259 §7):
/// `"` and `\` are escaped, the two-character forms are used for the
/// common control characters, and everything else below U+0020 becomes a
/// `\uXXXX` escape.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// [`escape_json`] writing into an existing buffer (avoids the temporary
/// when composing larger documents).
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Writes `s` as a complete JSON string literal (with surrounding quotes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity tokens, so
/// non-finite values render as `null` — a lossy but parseable fallback
/// appropriate for telemetry (a NaN metric is a bug to notice, not data to
/// round-trip).
pub fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps enough digits to round-trip and always includes a
        // decimal point or exponent, so the value re-parses as a float.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Renders metric families as one JSON document, the same list
/// [`crate::prom::render_prometheus`] renders as text:
/// `{"families":[{"name","type","help","samples":[{"labels":{…},"value":…}]}]}`.
/// Non-finite values render as `null` (see [`fmt_json_f64`]).
pub fn render_json(families: &[Family]) -> String {
    let quote = |s: &str| format!("\"{}\"", escape_json(s));
    let family = |f: &Family| {
        let sample = |s: &Sample| {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
                .collect();
            let value = fmt_json_f64(s.value);
            format!("{{\"labels\":{{{}}},\"value\":{value}}}", labels.join(","))
        };
        let samples: Vec<String> = f.samples.iter().map(sample).collect();
        let (name, kind, help) = (quote(f.name), f.kind.as_str(), quote(f.help));
        let samples = samples.join(",");
        format!("{{\"name\":{name},\"type\":\"{kind}\",\"help\":{help},\"samples\":[{samples}]}}")
    };
    let families: Vec<String> = families.iter().map(family).collect();
    format!("{{\"families\":[{}]}}", families.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape_json("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("\u{1f}"), "\\u001f");
    }

    #[test]
    fn passes_unicode_through() {
        assert_eq!(escape_json("π≈3"), "π≈3");
    }

    #[test]
    fn string_writer_adds_quotes() {
        let mut out = String::new();
        push_json_string(&mut out, "x\"y");
        assert_eq!(out, "\"x\\\"y\"");
    }

    #[test]
    fn families_render_as_one_document() {
        use crate::prom::Kind;
        let doc = render_json(&[
            Family {
                name: "m",
                kind: Kind::Gauge,
                help: "A \"gauge\".",
                samples: vec![
                    Sample {
                        labels: vec![("a", "x\"y".into()), ("b", "2".into())],
                        value: 1.5,
                    },
                    Sample {
                        labels: vec![],
                        value: f64::NAN,
                    },
                ],
            },
            Family {
                name: "c",
                kind: Kind::Counter,
                help: "",
                samples: vec![],
            },
        ]);
        assert_eq!(
            doc,
            r#"{"families":[{"name":"m","type":"gauge","help":"A \"gauge\".","samples":[{"labels":{"a":"x\"y","b":"2"},"value":1.5},{"labels":{},"value":null}]},{"name":"c","type":"counter","help":"","samples":[]}]}"#
        );
        let parsed = crate::parse_json(&doc).unwrap();
        assert_eq!(
            parsed.sample("m", &[("b", "2"), ("a", "x\"y")]),
            Some(&crate::Json::Num(1.5))
        );
        assert_eq!(parsed.sample("m", &[]), Some(&crate::Json::Null));
        assert_eq!(parsed.sample("m", &[("a", "x\"y")]), None);
        assert_eq!(parsed.sample("c", &[]), None);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_json_f64(1.5), "1.5");
        assert_eq!(fmt_json_f64(2.0), "2.0");
        assert_eq!(fmt_json_f64(f64::NAN), "null");
        assert_eq!(fmt_json_f64(f64::INFINITY), "null");
    }
}
