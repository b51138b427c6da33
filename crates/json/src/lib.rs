//! A small JSON library with no external dependencies.
//!
//! The experiment harness persists results and journals as JSON and the
//! service renders its answers in it. The build must work with no
//! network access, so instead of `serde`/`serde_json` this crate provides
//! the minimal machinery the repository needs:
//!
//! * [`Json`] — an owned JSON value tree with compact and pretty writers;
//! * [`Json::parse`] — a recursive-descent parser returning a typed
//!   [`JsonError`] with byte-offset diagnostics (never a panic);
//! * [`ToJson`] — a trait mapping Rust values onto [`Json`], implemented
//!   for the primitives, tuples, `Vec`, and `Option` the harness uses;
//! * [`atomic`] — fsync'd journal appends on the real filesystem.
//!
//! Numbers are kept as `f64`, which is lossless for the counter magnitudes
//! involved (< 2^53) and matches what the figures consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;

use std::collections::BTreeMap;
use std::fmt;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted, which makes output deterministic.
    Obj(BTreeMap<String, Json>),
}

/// A typed JSON parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
}

/// The kinds of JSON parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the expected token.
    UnexpectedByte(u8),
    /// A number failed to parse or is non-finite.
    BadNumber,
    /// A string contains an invalid escape or raw control byte.
    BadString,
    /// Trailing non-whitespace input after the top-level value.
    TrailingInput,
    /// Nesting deeper than the parser's recursion budget.
    TooDeep,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::UnexpectedByte(b) => {
                write!(f, "unexpected byte {:?} (0x{b:02x})", *b as char)
            }
            JsonErrorKind::BadNumber => write!(f, "malformed or non-finite number"),
            JsonErrorKind::BadString => write!(f, "malformed string"),
            JsonErrorKind::TrailingInput => write!(f, "trailing input after value"),
            JsonErrorKind::TooDeep => write!(f, "nesting too deep"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            Some(x) => Err(self.err(JsonErrorKind::UnexpectedByte(x))),
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(JsonErrorKind::UnexpectedByte(self.peek().unwrap_or(b'?'))))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err(JsonErrorKind::UnexpectedEnd));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err(JsonErrorKind::UnexpectedEnd));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))?;
                            let s = std::str::from_utf8(hex)
                                .map_err(|_| self.err(JsonErrorKind::BadString))?;
                            let code = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err(JsonErrorKind::BadString))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // crate's writer; reject rather than mangle.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err(JsonErrorKind::BadString))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err(JsonErrorKind::BadString)),
                    }
                }
                0x00..=0x1f => return Err(self.err(JsonErrorKind::BadString)),
                _ => {
                    // Re-assemble the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err(JsonErrorKind::BadString))?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err(JsonErrorKind::BadString))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(JsonErrorKind::BadNumber))?;
        let v: f64 = s.parse().map_err(|_| self.err(JsonErrorKind::BadNumber))?;
        if !v.is_finite() {
            return Err(self.err(JsonErrorKind::BadNumber));
        }
        Ok(Json::Num(v))
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        Some(x) => return Err(self.err(JsonErrorKind::UnexpectedByte(x))),
                        None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        Some(x) => return Err(self.err(JsonErrorKind::UnexpectedByte(x))),
                        None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(x) => Err(self.err(JsonErrorKind::UnexpectedByte(x))),
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x20..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional degradation and
        // keeps downstream plots from silently inheriting garbage.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err(JsonErrorKind::TrailingInput));
        }
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let nl = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, level + 1);
                    item.write(out, indent, level + 1);
                }
                nl(out, level);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                nl(out, level);
                out.push('}');
            }
        }
    }

    /// Convenience: the value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Convenience: the elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: the string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: the number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: the number as u64, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v == v.trunc() && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// Convenience: the boolean if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Conversion of Rust values into [`Json`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
num_to_json!(f64, f32, u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Builds a [`Json::Obj`] from `"key" => value` pairs, converting values
/// with [`ToJson`].
#[macro_export]
macro_rules! json_obj {
    ($($key:literal => $value:expr),* $(,)?) => {{
        let mut map = ::std::collections::BTreeMap::new();
        $(map.insert($key.to_string(), $crate::ToJson::to_json(&$value));)*
        $crate::Json::Obj(map)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = json_obj! {
            "name" => "CG.C",
            "points" => vec![(1usize, 0.0f64), (4, 2.41)],
            "err" => Option::<f64>::None,
            "ok" => true,
        };
        let text = v.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        let compact = v.to_compact_string();
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1e9).to_compact_string(), "1000000000");
        assert_eq!(Json::Num(2.5).to_compact_string(), "2.5");
    }

    #[test]
    fn non_finite_degrades_to_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn parse_errors_are_typed_and_located() {
        let e = Json::parse("{\"a\": ").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::UnexpectedEnd);
        let e = Json::parse("[1, 2,]").unwrap_err();
        assert!(matches!(e.kind, JsonErrorKind::UnexpectedByte(b']')));
        let e = Json::parse("12 34").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TrailingInput);
        assert_eq!(e.offset, 3);
        assert!(Json::parse("not json").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let s = v.to_compact_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
        // Unicode survives.
        let u = Json::Str("ω(n) ≈ µ".into());
        assert_eq!(Json::parse(&u.to_compact_string()).unwrap(), u);
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        let e = Json::parse(&deep).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 4, "name": "x", "flag": false, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert!(v.get("missing").is_none());
    }
}
