//! Std-only format validators used by CI and tests.
//!
//! The exporters in this workspace are hand-rolled (no serde), so nothing
//! structurally guarantees their output parses. These checkers close the
//! loop: [`parse_json`] is a small strict recursive-descent JSON parser,
//! [`validate_chrome_trace`] checks a document against the subset of the
//! Trace Event Format the exporter emits, and
//! [`crate::prom::validate_prometheus`] does the same for the metrics
//! text exposition. CI runs them against real emitted artifacts.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// In a metric-families document ([`crate::json::render_json`]), the
    /// value of family `name`'s sample whose labels are exactly `labels`,
    /// in any order.
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Json> {
        let families = self.get("families")?.as_arr()?;
        let family = families
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some(name))?;
        let has_labels = |s: &&Json| match s.get("labels") {
            Some(Json::Obj(have)) => {
                have.len() == labels.len()
                    && labels.iter().all(|&(k, v)| {
                        have.iter()
                            .any(|(hk, hv)| hk == k && hv.as_str() == Some(v))
                    })
            }
            _ => false,
        };
        family
            .get("samples")?
            .as_arr()?
            .iter()
            .find(has_labels)?
            .get("value")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "utf8")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "utf8")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our
                            // exporters (they only \u-escape controls);
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate in \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Summary statistics of a validated Chrome trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Total events.
    pub events: usize,
    /// `ph: "X"` complete spans.
    pub complete_spans: usize,
    /// `ph: "C"` counter samples.
    pub counters: usize,
    /// `ph: "i"` instants.
    pub instants: usize,
    /// Names of every complete span, in document order.
    pub span_names: Vec<String>,
}

impl ChromeTraceStats {
    /// Number of complete spans whose name starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> usize {
        self.span_names
            .iter()
            .filter(|n| n.starts_with(prefix))
            .count()
    }
}

/// Validates a Chrome `trace_event` JSON document: well-formed JSON, a
/// `traceEvents` array, and per-event required fields (`name`, `ph`,
/// `ts`, `pid`, `tid`; `dur ≥ 0` on `"X"` events).
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeTraceStats, String> {
    let root = parse_json(doc)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut stats = ChromeTraceStats::default();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for field in ["ts", "pid", "tid"] {
            let v = e
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric {field}"))?;
            if v < 0.0 {
                return Err(format!("event {i}: negative {field}"));
            }
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X event without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                stats.complete_spans += 1;
                stats.span_names.push(name.to_string());
            }
            "C" => {
                // `null` is the exporter's RFC 8259-conformant rendering
                // of a non-finite counter sample (JSON has no NaN/Infinity
                // tokens); everything `to_chrome_json` can emit must
                // validate, so accept the redaction alongside numbers.
                match e.get("args").and_then(|a| a.get("value")) {
                    Some(Json::Null) => {}
                    Some(v) if v.as_num().is_some() => {}
                    _ => return Err(format!("event {i}: counter without args.value")),
                }
                stats.counters += 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
        stats.events += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    /// A counter must carry `args.value`, but a `null` value (the
    /// exporter's redaction of a non-finite sample) is valid.
    #[test]
    fn counter_value_null_is_accepted_missing_is_not() {
        let bad = r#"{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":1,"tid":1,"args":{}}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("counter without args.value"));
        let redacted = r#"{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":1,"tid":1,"args":{"value":null}}]}"#;
        assert_eq!(validate_chrome_trace(redacted).unwrap().counters, 1);
    }

    #[test]
    fn parses_nested_document() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\n\"y"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(2.5));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\n\"y"
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "01x",
            "{\"a\":1} trailing",
        ] {
            assert!(parse_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn validates_real_tracer_output() {
        let t = Tracer::enabled();
        {
            let mut s = t.span("kernel:blur", "exec");
            s.arg("bytes", 1024u64);
        }
        t.counter("queue_depth", "serve", 2.0);
        t.instant("evict", "serve", vec![("key", "x".into())]);
        let stats = validate_chrome_trace(&t.to_chrome_json()).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.complete_spans, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.spans_with_prefix("kernel:"), 1);
    }

    #[test]
    fn rejects_trace_without_dur() {
        let doc = r#"{"traceEvents":[{"name":"a","cat":"t","ph":"X","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(doc).unwrap_err().contains("dur"));
    }

    #[test]
    fn rejects_unknown_phase() {
        let doc = r#"{"traceEvents":[{"name":"a","cat":"t","ph":"Z","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(doc).is_err());
    }
}
