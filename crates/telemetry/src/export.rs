//! JSONL export and a minimal JSON validator.
//!
//! One JSON object per line. The first line is a schema header; subsequent
//! lines carry one metric or trace event each:
//!
//! ```json
//! {"type":"meta","schema":"ltpg-telemetry-v1"}
//! {"type":"counter","name":"ltpg.bytes_h2d","value":81920}
//! {"type":"gauge","name":"server.pending","value":0}
//! {"type":"histogram","name":"server.batch_ns","count":8,"sum":1200,"min":100,
//!  "max":220,"p50":160,"p95":224,"p99":224,"buckets":[[96,3],[160,5]]}
//! {"type":"span","name":"ltpg.phase.execute","seq":4,"start_ns":120.0,"dur_ns":88.5}
//! ```
//!
//! Histogram `buckets` entries are `[bucket_lower_bound, sample_count]`
//! pairs for non-empty buckets only, ascending by bound.
//!
//! This module is the workspace's one JSON implementation: [`JsonValue`]
//! is the tree, [`JsonValue::to_pretty`] writes it (the experiment records
//! under `results/`), and [`parse_json`] / [`validate_jsonl`] read it back
//! with a small hand-rolled recursive-descent parser — enough for tests
//! and CI smoke jobs to check that what we emit actually parses and
//! carries the expected keys.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::registry::Registry;

/// Schema identifier written on the first line of every export.
pub const SCHEMA: &str = "ltpg-telemetry-v1";

/// Append `s` to `out` as a JSON string literal (with escaping).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a finite `f64` as a JSON number (non-finite values become 0).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

/// Render every metric in `reg` (and its trace buffer) as JSON Lines.
pub fn export_jsonl(reg: &Registry) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\"}\n");

    reg.for_each_counter(|name, value| {
        out.push_str("{\"type\":\"counter\",\"name\":");
        push_json_str(&mut out, name);
        let _ = write!(out, ",\"value\":{value}}}");
        out.push('\n');
    });
    reg.for_each_gauge(|name, value| {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        push_json_str(&mut out, name);
        let _ = write!(out, ",\"value\":{value}}}");
        out.push('\n');
    });
    reg.for_each_histogram(|name, h| {
        let s = h.snapshot();
        out.push_str("{\"type\":\"histogram\",\"name\":");
        push_json_str(&mut out, name);
        let _ = write!(
            out,
            ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99
        );
        for (i, (lo, n)) in s.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{n}]");
        }
        out.push_str("]}\n");
    });
    for ev in reg.trace().snapshot() {
        out.push_str("{\"type\":\"span\",\"name\":");
        push_json_str(&mut out, ev.name);
        let _ = write!(out, ",\"seq\":{},\"start_ns\":", ev.seq);
        push_json_f64(&mut out, ev.start_ns);
        out.push_str(",\"dur_ns\":");
        push_json_f64(&mut out, ev.dur_ns);
        out.push_str("}\n");
    }
    out
}

/// Export `reg` as JSONL and write it to `path` (creating parent dirs).
pub fn write_jsonl(path: &Path, reg: &Registry) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, export_jsonl(reg))
}

/// A JSON value tree, with object fields in source order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer, written exactly. Built by writers only: the
    /// parser reads every number as [`JsonValue::Num`].
    Int(i64),
    /// An unsigned integer, written exactly (digests do not fit an `f64`).
    /// Built by writers only, like [`JsonValue::Int`].
    Uint(u64),
    /// A floating-point number; any number, once parsed.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

macro_rules! json_from {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::$variant(v as $wide)
            }
        }
    )*};
}
json_from!(Int as i64: i8, i16, i32, i64, isize);
json_from!(Uint as u64: u8, u16, u32, u64, usize);
json_from!(Num as f64: f32, f64);
json_from!(Bool as bool: bool);

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl JsonValue {
    /// Look up `key` in an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// String payload of a `Str`, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number as `f64` (an integer beyond 2⁵³ rounds), else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON: 2-space indent, fields in order,
    /// integers exact, an integral float with its `.0` so it stays
    /// distinguishable from an integer, a non-finite float as `null`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Uint(n) => out.push_str(&n.to_string()),
            JsonValue::Num(x) if !x.is_finite() => out.push_str("null"),
            JsonValue::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                out.push_str(&format!("{x:.1}"));
            }
            JsonValue::Num(x) => out.push_str(&x.to_string()),
            JsonValue::Str(s) => push_json_str(out, s),
            JsonValue::Arr(items) => write_block(out, indent, ['[', ']'], items, |out, item| {
                item.write_pretty(out, indent + 1);
            }),
            JsonValue::Obj(fields) => write_block(out, indent, ['{', '}'], fields, |out, (k, v)| {
                push_json_str(out, k);
                out.push_str(": ");
                v.write_pretty(out, indent + 1);
            }),
        }
    }
}

/// One array or object of the pretty form: an element per line, one level
/// deeper than the brackets; nothing between the brackets when empty.
fn write_block<T>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    elements: &[T],
    write: impl Fn(&mut String, &T),
) {
    let pad = |out: &mut String, n: usize| (0..n).for_each(|_| out.push_str("  "));
    out.push(open);
    for (i, element) in elements.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        pad(out, indent + 1);
        write(out, element);
    }
    if !elements.is_empty() {
        out.push('\n');
        pad(out, indent);
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
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

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
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
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse one complete JSON document from `text`.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// Parse every non-empty line of a JSONL document, checking that each line is
/// an object with a string `"type"` field. Returns the parsed lines.
pub fn validate_jsonl(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(JsonValue::as_str).is_none() {
            return Err(format!("line {}: missing string \"type\" field", i + 1));
        }
        lines.push(v);
    }
    if lines.is_empty() {
        return Err("empty JSONL document".to_string());
    }
    Ok(lines)
}

/// Find the first parsed line whose `"name"` equals `name`.
pub fn find_metric<'a>(lines: &'a [JsonValue], name: &str) -> Option<&'a JsonValue> {
    lines
        .iter()
        .find(|l| l.get("name").and_then(JsonValue::as_str) == Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_through_the_validator() {
        let reg = Registry::new();
        reg.counter("c.one").add(41);
        reg.gauge("g.neg").set(-5);
        let h = reg.histogram("h.lat");
        for v in [10u64, 100, 1000, 10_000] {
            h.record(v);
        }
        reg.trace().record("phase.x", 0.0, 12.5);

        let text = export_jsonl(&reg);
        let lines = validate_jsonl(&text).expect("export must parse");
        assert_eq!(
            lines[0].get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        let c = find_metric(&lines, "c.one").unwrap();
        assert_eq!(c.get("value").and_then(JsonValue::as_f64), Some(41.0));
        let g = find_metric(&lines, "g.neg").unwrap();
        assert_eq!(g.get("value").and_then(JsonValue::as_f64), Some(-5.0));
        let hist = find_metric(&lines, "h.lat").unwrap();
        assert_eq!(hist.get("count").and_then(JsonValue::as_f64), Some(4.0));
        assert!(matches!(hist.get("buckets"), Some(JsonValue::Arr(b)) if b.len() == 4));
        let span = find_metric(&lines, "phase.x").unwrap();
        assert_eq!(span.get("type").and_then(JsonValue::as_str), Some("span"));
        assert_eq!(span.get("dur_ns").and_then(JsonValue::as_f64), Some(12.5));
    }

    #[test]
    fn pretty_output_is_exact_and_parses_back() {
        let v = JsonValue::Arr(vec![JsonValue::Obj(vec![
            ("name".to_string(), "a\"b".into()),
            ("n".to_string(), u64::MAX.into()),
            ("i".to_string(), (-3i64).into()),
            ("x".to_string(), 2.0.into()),
            ("y".to_string(), 0.125.into()),
            ("big".to_string(), 1e15.into()),
            ("nan".to_string(), f64::NAN.into()),
            ("none".to_string(), JsonValue::Arr(Vec::new())),
        ])]);
        let text = v.to_pretty();
        assert_eq!(
            text,
            "[\n  {\n    \"name\": \"a\\\"b\",\n    \"n\": 18446744073709551615,\n    \"i\": -3,\n    \
             \"x\": 2.0,\n    \"y\": 0.125,\n    \"big\": 1000000000000000,\n    \"nan\": null,\n    \
             \"none\": []\n  }\n]"
        );
        let back = parse_json(&text).unwrap();
        let row = match &back {
            JsonValue::Arr(items) => &items[0],
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(row.get("name").and_then(JsonValue::as_str), Some("a\"b"));
        assert_eq!(row.get("i"), Some(&JsonValue::Num(-3.0)));
        assert_eq!(row.get("y").and_then(JsonValue::as_f64), Some(0.125));
        assert_eq!(JsonValue::from(7usize).as_f64(), Some(7.0));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("{\"type\":\"meta\"").is_err());
        assert!(validate_jsonl("{\"no_type\":1}").is_err());
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("[1,2,3]").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"s":"x\n\"y\" A","b":true,"n":null}"#)
            .unwrap();
        assert_eq!(
            v.get("s").and_then(JsonValue::as_str),
            Some("x\n\"y\" A")
        );
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        match v.get("a") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items[2].as_f64(), Some(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}
