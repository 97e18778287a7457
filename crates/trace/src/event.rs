//! The trace record model and its NDJSON encoding.
//!
//! Every record is one flat JSON object per line. The **logical stream**
//! (`open`/`close`/`point`/`count` records) carries no clock readings and
//! is byte-deterministic for deterministic computations; the **wall
//! stream** (`wall` records) carries every duration. Splitting the two is
//! what makes a trace file a testable artifact: strip (or never write)
//! the wall lines and two seeded runs must produce identical bytes.
//!
//! Schema policy: **append-only**. New record kinds and new fields may be
//! added; existing fields never change meaning, type, or order. Readers
//! must ignore fields and record kinds they do not know.

// Determinism: golden-trace tests diff the logical trace stream byte for
// byte. (`tracer.rs` is not covered: its wall stream is timing-bearing by
// design.)
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fmt::Write as _;

/// A field value. The logical stream deliberately has no float variant:
/// integers and strings are the only values that stay byte-stable across
/// platforms and refactors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    U(u64),
    I(i64),
    S(&'static str),
    Owned(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::U(u64::from(v))
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::S(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Owned(v)
    }
}

/// One trace record, borrowed form (what sinks receive).
#[derive(Debug, Clone)]
pub enum Record<'a> {
    /// A span begins. `seq` is unique per tracer and pairs with `close`.
    Open {
        seq: u64,
        name: &'static str,
        fields: &'a [(&'static str, Value)],
    },
    /// The span `seq` ends.
    Close { seq: u64, name: &'static str },
    /// A standalone structured event.
    Point {
        name: &'static str,
        fields: &'a [(&'static str, Value)],
    },
    /// A named counter increment.
    Count { name: &'static str, n: u64 },
    /// Wall-clock duration of span `seq` (the wall stream).
    Wall {
        seq: u64,
        name: &'static str,
        us: u64,
    },
}

impl Record<'_> {
    /// Whether this record belongs to the logical (deterministic) stream.
    pub fn is_logical(&self) -> bool {
        !matches!(self, Record::Wall { .. })
    }

    /// Encode as one NDJSON line (no trailing newline). Field order is
    /// fixed by the emitter, so equal records encode to equal bytes.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Record::Open { seq, name, fields } => {
                out.push_str("{\"ev\":\"open\",\"seq\":");
                let _ = write!(out, "{seq}");
                out.push_str(",\"name\":");
                encode_str(&mut out, name);
                encode_fields(&mut out, fields);
            }
            Record::Close { seq, name } => {
                out.push_str("{\"ev\":\"close\",\"seq\":");
                let _ = write!(out, "{seq}");
                out.push_str(",\"name\":");
                encode_str(&mut out, name);
            }
            Record::Point { name, fields } => {
                out.push_str("{\"ev\":\"point\",\"name\":");
                encode_str(&mut out, name);
                encode_fields(&mut out, fields);
            }
            Record::Count { name, n } => {
                out.push_str("{\"ev\":\"count\",\"name\":");
                encode_str(&mut out, name);
                out.push_str(",\"n\":");
                let _ = write!(out, "{n}");
            }
            Record::Wall { seq, name, us } => {
                out.push_str("{\"ev\":\"wall\",\"seq\":");
                let _ = write!(out, "{seq}");
                out.push_str(",\"name\":");
                encode_str(&mut out, name);
                out.push_str(",\"us\":");
                let _ = write!(out, "{us}");
            }
        }
        out.push('}');
        out
    }
}

fn encode_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    for (key, value) in fields {
        out.push(',');
        encode_str(out, key);
        out.push(':');
        match value {
            Value::U(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I(v) => {
                let _ = write!(out, "{v}");
            }
            Value::S(v) => encode_str(out, v),
            Value::Owned(v) => encode_str(out, v),
        }
    }
}

fn encode_str(out: &mut String, s: &str) {
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

/// A parsed field value (owned form, what readers see).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    Str(String),
    Int(i64),
    UInt(u64),
}

impl Parsed {
    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Parsed::UInt(v) => Some(v),
            Parsed::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Parsed::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed trace line: ordered `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Line {
    pub fields: Vec<(String, Parsed)>,
}

impl Line {
    /// First value under `key`.
    pub fn get(&self, key: &str) -> Option<&Parsed> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The record kind (`ev` field).
    pub fn ev(&self) -> Option<&str> {
        self.get("ev").and_then(Parsed::as_str)
    }

    /// The record name, when present.
    pub fn name(&self) -> Option<&str> {
        self.get("name").and_then(Parsed::as_str)
    }
}

/// Parse one NDJSON trace line. Accepts exactly the flat-object subset
/// this crate emits (string keys; string or integer values); anything
/// else — nesting, floats, booleans, nulls — is an error, which doubles
/// as a schema guard in tests.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(Line { fields })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| "bad \\u digit".to_string())?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s =
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Parsed, String> {
        match self.peek() {
            Some(b'"') => Ok(Parsed::Str(self.string()?)),
            Some(b'-') => {
                self.pos += 1;
                let v = self.digits()?;
                let v = i64::try_from(v).map_err(|_| "integer overflow".to_string())?;
                Ok(Parsed::Int(-v))
            }
            Some(b'0'..=b'9') => Ok(Parsed::UInt(self.digits()?)),
            other => Err(format!("unsupported value start {other:?}")),
        }
    }

    fn digits(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| "integer overflow".to_string())?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err("expected digits".to_string());
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err("floats are not part of the trace schema".to_string());
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_stable_and_ordered() {
        let r = Record::Open {
            seq: 3,
            name: "cp",
            fields: &[("req", Value::U(7)), ("mode", Value::S("exact"))],
        };
        assert_eq!(
            r.encode(),
            r#"{"ev":"open","seq":3,"name":"cp","req":7,"mode":"exact"}"#
        );
        let r = Record::Wall {
            seq: 3,
            name: "cp",
            us: 120,
        };
        assert_eq!(r.encode(), r#"{"ev":"wall","seq":3,"name":"cp","us":120}"#);
        assert!(!r.is_logical());
    }

    #[test]
    fn parse_round_trips_encoded_records() {
        let r = Record::Point {
            name: "ladder",
            fields: &[
                ("step", Value::Owned("bottom\"left\n".to_string())),
                ("n", Value::I(-4)),
            ],
        };
        let line = parse_line(&r.encode()).unwrap();
        assert_eq!(line.ev(), Some("point"));
        assert_eq!(line.name(), Some("ladder"));
        assert_eq!(line.get("step").unwrap().as_str(), Some("bottom\"left\n"));
        assert_eq!(line.get("n"), Some(&Parsed::Int(-4)));
    }

    #[test]
    fn parser_rejects_what_the_schema_forbids() {
        assert!(parse_line(r#"{"a":1.5}"#).is_err());
        assert!(parse_line(r#"{"a":true}"#).is_err());
        assert!(parse_line(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_line(r#"{"a":[1]}"#).is_err());
        assert!(parse_line(r#"{"a":1} extra"#).is_err());
        assert!(parse_line("{}").unwrap().fields.is_empty());
    }

    #[test]
    fn control_chars_escape_and_parse() {
        let mut s = String::new();
        encode_str(&mut s, "a\u{1}b");
        assert_eq!(s, "\"a\\u0001b\"");
        let line = parse_line(&format!("{{\"k\":{s}}}")).unwrap();
        assert_eq!(line.get("k").unwrap().as_str(), Some("a\u{1}b"));
    }
}
