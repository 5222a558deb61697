//! Offline subset of `serde_json`: print and parse the serde shim's
//! [`Value`] tree. Output matches real serde_json byte-for-byte for the
//! shapes this workspace emits — compact `{"k":v}` with no spaces, and
//! 2-space-indented pretty printing — so downstream JSON consumers and
//! golden assertions behave identically against the registry crate.

#![forbid(unsafe_code)]
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Lower any serializable value to a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuild a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

/// Compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Human-readable JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Compact JSON bytes.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Pretty JSON bytes.
pub fn to_vec_pretty<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

/// Parse JSON text into any deserializable type (use `T = serde::Value`
/// for the raw tree).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // Rust's shortest round-trip formatting, with serde_json's
        // convention that integral floats keep a `.0` marker.
        let s = format!("{x}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // serde_json emits null for non-finite floats.
        out.push_str("null");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U128(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Value, level: usize, out: &mut String) {
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(level + 1, out);
                write_pretty(item, level + 1, out);
            }
            out.push('\n');
            indent(level, out);
            out.push(']');
        }
        Value::Obj(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(level + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, level + 1, out);
            }
            out.push('\n');
            indent(level, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our writers;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c => {
                    // Collect the full UTF-8 sequence starting at c.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let end = (start + width).min(self.bytes.len());
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if text.starts_with('-') {
                // Below `i64::MIN` falls through to the float parse.
                if let Ok(x) = text.parse::<i64>() {
                    return Ok(Value::I64(x));
                }
            } else if let Ok(x) = text.parse::<u128>() {
                return Ok(Value::U128(x));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_format_matches_serde_json() {
        let v = Value::Obj(vec![
            ("id".into(), Value::Str("E2".into())),
            (
                "rows".into(),
                Value::Arr(vec![Value::U128(1), Value::Null, Value::Bool(true)]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"id":"E2","rows":[1,null,true]}"#
        );
    }

    #[test]
    fn pretty_format_indents_by_two() {
        let v = Value::Obj(vec![("a".into(), Value::Arr(vec![Value::U128(1)]))]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1\n  ]\n}"
        );
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"n":3,"neg":-7,"f":0.25,"s":"a\"b\n","arr":[[1,2],{}],"none":null}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn big_integers_keep_precision() {
        let big = (u128::from(u64::MAX)) + 12345;
        let v: Value = from_str(&big.to_string()).unwrap();
        assert_eq!(v, Value::U128(big));
        let exact: u128 = from_value(&v).unwrap();
        assert_eq!(exact, big);
    }

    #[test]
    fn negative_integers_at_the_i64_edge() {
        // Parsed as `i64` whole: negating a parsed magnitude overflows here.
        let min: Value = from_str("-9223372036854775808").unwrap();
        assert_eq!(min, Value::I64(i64::MIN));
        let below: Value = from_str("-9223372036854775809").unwrap();
        assert_eq!(below, Value::F64(-9223372036854775809.0));
        assert!(from_str::<Value>("-").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Obj(vec![])).unwrap(), "{}");
        assert_eq!(to_string_pretty(&Value::Arr(vec![])).unwrap(), "[]");
        let v: Value = from_str("  [ ]  ").unwrap();
        assert_eq!(v, Value::Arr(vec![]));
    }
}
