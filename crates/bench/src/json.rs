//! Minimal, std-only JSON support for the bench subsystem.
//!
//! The workspace builds offline, so the `BENCH_*.json` artifacts and
//! the telemetry `.jsonl` traces are written and read with this small
//! hand-rolled module instead of a serde stack. The writer emits only
//! what the bench schema needs (objects, arrays, strings, numbers,
//! booleans); the parser is a complete recursive-descent reader for
//! the JSON subset those files — and anything else line-oriented
//! telemetry may throw at it — can contain.

use std::collections::BTreeMap;
use std::fmt;
use tsv3d_telemetry::{push_json_f64, push_json_str};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite numbers on the write side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; parsed as `f64` (ample for timings/counters).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value of `key` when `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload truncated to `u64`, when non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.is_finite() => Some(*v as u64),
            _ => None,
        }
    }

    /// The array payload, if `self` is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if `self` is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// A JSON parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// [`JsonError`] on any syntax violation, including truncated input —
/// the case a half-written final `.jsonl` record produces.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and reads documents from outside the program (bench
/// artifacts, ledgers, `explain --compare` baselines), so without a
/// bound a run of `[` would overflow the stack instead of failing the
/// parse.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One UTF-8 scalar: every other step consumes ASCII,
                    // so `pos` is a char boundary of the input `&str`.
                    let c = self.text[self.pos..].chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.error("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the `u`),
    /// combining surrogate pairs. Leaves the cursor past the escape.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume `u`
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        let combined =
                            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                        return char::from_u32(combined)
                            .ok_or_else(|| self.error("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.error("unpaired surrogate in \\u escape"));
        }
        char::from_u32(high).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("expected 4 hex digits in \\u escape")),
            };
            value = value * 16 + d;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("number out of range"))
    }
}

/// An incremental writer building one JSON object.
///
/// Fields appear in insertion order; strings and numbers are written by
/// the telemetry `JsonLinesSink`'s own writers. Non-finite floats
/// serialise as `null` (JSON has no representation for them).
#[derive(Debug, Default)]
pub struct ObjectWriter {
    out: String,
    fields: usize,
}

impl ObjectWriter {
    /// A fresh `{` with no fields yet.
    pub fn new() -> Self {
        Self {
            out: String::from("{"),
            fields: 0,
        }
    }

    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.out.push(',');
        }
        self.fields += 1;
        push_json_str(&mut self.out, key);
        self.out.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_json_str(&mut self.out, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_json_f64(&mut self.out, value);
        self
    }

    /// Adds an already-serialised JSON fragment (object, array, …).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Serialises a string map as a JSON object with `u64` values.
pub fn object_of_u64s<'a>(entries: impl Iterator<Item = (&'a str, u64)>) -> String {
    let mut w = ObjectWriter::new();
    for (key, value) in entries {
        w.u64(key, value);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("c"));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""é""#).unwrap(),
            JsonValue::String("é".to_string())
        );
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            JsonValue::String("😀".to_string())
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate rejected");
    }

    #[test]
    fn rejects_truncated_input() {
        for text in ["{\"a\":", "[1,2", "\"abc", "{\"a\":1", "12.", "tru"] {
            assert!(parse(text).is_err(), "should reject `{text}`");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse(&over).is_err());
        assert!(parse(&format!("{}1{}", "{\"a\":".repeat(200), "}".repeat(200))).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn writer_output_round_trips() {
        let mut w = ObjectWriter::new();
        w.str("name", "ca\"se\n1")
            .u64("iters", 12)
            .f64("median", 1.25e-3)
            .f64("bad", f64::NAN)
            .raw("inner", &object_of_u64s([("a", 1), ("b", 2)].into_iter()));
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("ca\"se\n1"));
        assert_eq!(v.get("iters").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(v.get("median").and_then(JsonValue::as_f64), Some(1.25e-3));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("inner").and_then(|o| o.get("b")).and_then(JsonValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn large_precision_floats_survive() {
        let text = "0.00000000000004656673695142656";
        let v = parse(text).unwrap();
        assert_eq!(v.as_f64(), Some(4.656673695142656e-14));
    }
}
