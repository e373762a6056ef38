//! JSON for every artifact the workspace writes: the one string
//! [`escape`] the hand-rolled `to_json` writers share, and a strict
//! recursive-descent [`parse`] that reads those artifacts back.
//!
//! The parser accepts exactly RFC 8259 JSON. Objects keep their source
//! key order and reject duplicate keys; numbers keep their literal text,
//! so a `u64` field compares exactly; nesting deeper than [`MAX_DEPTH`]
//! is an error rather than a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. Workspace artifacts
/// nest at most four levels.
pub const MAX_DEPTH: usize = 128;

/// Escape a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its literal source text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in source order; keys are unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contents of a string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array value.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A number value as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Distinct object keys at container depth `depth`, in document
    /// order. Objects *and* arrays count one level each: the root
    /// object's keys are at depth 1, and in `{"xs": [{"k": 0}]}` the key
    /// `k` is at depth 3.
    #[must_use]
    pub fn keys_at_depth(&self, depth: usize) -> Vec<&str> {
        let mut keys = Vec::new();
        self.walk(0, &mut |d, k, _| {
            if d == depth && !keys.contains(&k) {
                keys.push(k);
            }
        });
        keys
    }

    /// Every value stored under `key` in any object of the document, in
    /// document order.
    #[must_use]
    pub fn values_of(&self, key: &str) -> Vec<&Value> {
        let mut values = Vec::new();
        self.walk(0, &mut |_, k, v| {
            if k == key {
                values.push(v);
            }
        });
        values
    }

    /// Calls `f(depth, key, value)` on every object member below this
    /// value, which sits inside `depth` containers.
    fn walk<'a>(&'a self, depth: usize, f: &mut impl FnMut(usize, &'a str, &'a Value)) {
        match self {
            Value::Object(fields) => fields.iter().for_each(|(k, v)| {
                f(depth + 1, k, v);
                v.walk(depth + 1, f);
            }),
            Value::Array(items) => items.iter().for_each(|v| v.walk(depth + 1, f)),
            _ => {}
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

/// Parse one JSON document; anything but whitespace after it is an error.
///
/// # Errors
///
/// The offset and reason of the first syntax error, duplicate object
/// key, lone surrogate escape or nesting beyond [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing characters after the document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After a container member: `true` at the `close` byte, `false` at
    /// a comma.
    fn container_ends(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(self.error("expected ',' or the container's closing bracket"))
        }
    }

    /// A value nested inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let Some(byte) = self.peek() else {
            return Err(self.error("unexpected end of input"));
        };
        if matches!(byte, b'{' | b'[') && depth == MAX_DEPTH {
            return Err(self.error("nesting exceeds MAX_DEPTH"));
        }
        match byte {
            b'{' => {
                self.pos += 1;
                let mut fields: Vec<(String, Value)> = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let at = self.pos;
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        let reason = "duplicate object key";
                        return Err(JsonError { offset: at, reason });
                    }
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.error("expected ':' after an object key"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    if self.container_ends(b'}')? {
                        return Ok(Value::Object(fields));
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.container_ends(b']')? {
                        return Ok(Value::Array(items));
                    }
                }
            }
            b'"' => self.string().map(Value::String),
            b'-' | b'0'..=b'9' => {
                self.eat(b'-');
                if !self.eat(b'0') && self.digits() == 0 {
                    return Err(self.error("expected a digit"));
                }
                if self.eat(b'.') && self.digits() == 0 {
                    return Err(self.error("expected a digit after '.'"));
                }
                if self.eat(b'e') || self.eat(b'E') {
                    let _ = self.eat(b'+') || self.eat(b'-');
                    if self.digits() == 0 {
                        return Err(self.error("expected an exponent digit"));
                    }
                }
                Ok(Value::Number(self.text[start..self.pos].to_owned()))
            }
            _ => {
                for (word, value) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.text[start..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A string literal, the cursor on its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // The run up to the next quote, backslash or control byte
            // ends on a char boundary: all three are ASCII.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape_sequence()?),
                _ => return Err(self.error("unescaped control character in a string")),
            }
        }
    }

    /// The char an escape sequence stands for, the cursor after its
    /// backslash.
    fn escape_sequence(&mut self) -> Result<char, JsonError> {
        let byte = self
            .peek()
            .ok_or_else(|| self.error("unterminated string"))?;
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    let low = if self.text[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        self.hex4()?
                    } else {
                        0
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("lone high surrogate escape"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.error("lone low surrogate escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits after \\u"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits fit a u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\u{7f}é"), "\\u0001\u{7f}é");
    }

    #[test]
    fn parses_every_value_kind_keeping_order_and_literal_numbers() {
        let text = r#" {"z": [18446744073709551615, -2.5e3, true, false, null],
            "xs": [{"b": "x\u00e9\ud83d\ude00\/"}, {"c": 0.10, "b": 1E+2}]} "#;
        let doc = parse(text).expect("valid document");
        assert_eq!(doc.keys_at_depth(1), ["z", "xs"]);
        assert!(doc.keys_at_depth(2).is_empty());
        assert_eq!(doc.keys_at_depth(3), ["b", "c"]);
        let z = doc.get("z").and_then(Value::as_array).expect("array");
        assert_eq!(z[0], Value::Number(u64::MAX.to_string()));
        assert_eq!(z[1], Value::Number("-2.5e3".into()));
        assert_eq!(z[2..], [Value::Bool(true), Value::Bool(false), Value::Null]);
        let b = doc.values_of("b");
        assert_eq!(b[0].as_str(), Some("xé😀/"));
        assert_eq!(b[1].as_f64(), Some(100.0));
    }

    #[test]
    fn rejects_duplicate_keys_and_nesting_past_the_cap() {
        let dup = parse(r#"{"a": 1, "a": 2}"#).expect_err("duplicate key");
        assert_eq!((dup.offset, dup.reason), (9, "duplicate object key"));
        let nest = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let past = parse(&nest(MAX_DEPTH + 1)).map_err(|e| e.offset);
        assert_eq!(past, Err(MAX_DEPTH));
    }
}
