//! The workspace's one JSON codec: string escaping shared by every JSON
//! writer (trace exporters, lint output, CLI stats), plus a small
//! generic [`Value`] tree with a strict parser. Policy sets ship through
//! [`Value`] (`separ_core::policy_io` maps the policy schema onto it), as
//! do the `separ serve` wire protocol, store manifest and audit log.
//!
//! There is no serde under the offline-shim policy; the subtle parts —
//! string escaping and parsing — live here so every call site agrees on
//! them.

/// Appends the JSON escape of `s` to `out`, **without** surrounding
/// quotes.
///
/// Escapes `"` and `\`, the named control escapes (`\n`, `\r`, `\t`,
/// `\u{8}`, `\u{c}`), and all other control characters as `\u00XX`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted JSON string to `out` (escape plus `"` on both
/// sides).
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Returns `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(s, &mut out);
    out
}

// ---------------------------------------------------------------------
// Generic values
// ---------------------------------------------------------------------

/// A parsed JSON document.
///
/// Objects keep their members in document order (a `Vec`, not a map), so
/// re-serializing a parsed document is deterministic; lookups are linear,
/// which is the right trade for the small protocol messages this backs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; see [`Value::as_u64`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = ValueParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after document");
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = std::fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = std::fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// A JSON parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Hostile-input bound: deeper nesting than any legitimate protocol
/// message fails fast instead of recursing toward a stack overflow.
const MAX_DEPTH: usize = 64;

struct ValueParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> ValueParser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return self.err("nesting too deep");
        }
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if !self.eat(b',') {
                            self.expect(b']')?;
                            break;
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        if !self.eat(b',') {
                            self.expect(b'}')?;
                            break;
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Obj(members))
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
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
                            if self.pos + 4 > self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("malformed \\u escape");
                            };
                            self.pos += 4;
                            // Surrogates are replaced, not recombined:
                            // protocol strings are plain BMP text.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b if b < 0x20 => return self.err("raw control character in string"),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Re-decode the multi-byte scalar from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) else {
                        return self.err("invalid utf-8 in string");
                    };
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => self.err("malformed number"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(quote("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(quote("x\ny\t"), r#""x\ny\t""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("\u{8}\u{c}\r"), r#""\b\f\r""#);
        assert_eq!(quote("plain"), r#""plain""#);
    }

    #[test]
    fn value_round_trips_documents() {
        let text = r#"{"cmd":"install","n":42,"neg":-1.5,"flag":true,"none":null,"tags":["a","b"],"nested":{"k":"v"}}"#;
        let v = Value::parse(text).expect("parses");
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("install"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-1.5));
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(
            v.get("tags").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn value_strings_round_trip_escapes_and_unicode() {
        let v = Value::parse(r#""a\"b\\c\ndA é 日""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA é 日"));
        let reparsed = Value::parse(&v.to_string()).expect("reparses");
        assert_eq!(reparsed, v);
    }

    #[test]
    fn value_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nan",
            "--3",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must fail");
        }
        // Nesting bound trips instead of overflowing the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn value_as_u64_guards_range_and_integrality() {
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(7.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("7".into()).as_u64(), None);
    }
}
