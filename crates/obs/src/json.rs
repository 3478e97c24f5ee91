//! The workspace's one JSON codec: string escaping shared by every JSON
//! writer (trace exporters, lint output, CLI stats), a strict borrowing
//! [`Lexer`], and a small generic [`Value`] tree built on it. Policy
//! sets ship through [`Value`] (`separ_core::policy_io` maps the policy
//! schema onto it), as do the store manifest and audit log; the
//! `separ serve` wire protocol reads requests straight off the
//! [`Lexer`].
//!
//! There is no serde under the offline-shim policy; the subtle parts —
//! string escaping and parsing — live here so every call site agrees on
//! them.

use std::borrow::Cow;

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
        let mut lexer = Lexer::new(text);
        let v = lexer.value()?;
        lexer.finish()?;
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

/// One value read by [`Lexer::lexeme`], borrowed from the source text: a
/// decoded string, or the validated source text of any other value.
///
/// The accessors mirror [`Value`]'s, so a reader of a few known members
/// can skip building the tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Lexeme<'a> {
    /// A string: borrowed when it holds no escape, else decoded once.
    Str(Cow<'a, str>),
    /// The source text of a number, literal, array or object.
    Raw(&'a str),
}

impl<'a> Lexeme<'a> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Lexeme::Str(s) => Some(s),
            Lexeme::Raw(_) => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Lexeme::Raw("true") => Some(true),
            Lexeme::Raw("false") => Some(false),
            _ => None,
        }
    }

    /// The number as a `u64`, exactly as [`Value::as_u64`] reads it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Lexeme::Raw(raw) => Value::Num(raw.parse().ok()?).as_u64(),
            Lexeme::Str(_) => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<Elements<'a>> {
        match *self {
            Lexeme::Raw(raw) if raw.starts_with('[') => {
                let mut lexer = Lexer::new(raw);
                lexer.begin(b'[').ok()?;
                Some(Elements(lexer))
            }
            _ => None,
        }
    }
}

/// The elements of a [`Lexeme::Raw`] array, in order (see
/// [`Lexeme::as_arr`]).
#[derive(Debug)]
pub struct Elements<'a>(Lexer<'a>);

impl<'a> Iterator for Elements<'a> {
    type Item = Lexeme<'a>;

    fn next(&mut self) -> Option<Lexeme<'a>> {
        // The array was validated when it was lexed: only its end (and
        // every call after it) fails here.
        match self.0.next(b']') {
            Ok(true) => self.0.lexeme().ok(),
            _ => None,
        }
    }
}

/// The strict JSON lexer under [`Value::parse`], also usable on its own
/// to read a document without building the tree.
///
/// Strings come out as `Cow`s borrowed from the source; only a string
/// with escapes is decoded, once, into a `String` of exactly its size.
/// Numbers follow the RFC 8259 grammar. Nesting deeper than 64 levels
/// is an error.
///
/// An object is walked with [`begin_object`](Lexer::begin_object) and
/// [`next_key`](Lexer::next_key); each member's value must be consumed,
/// with [`lexeme`](Lexer::lexeme) or [`skip`](Lexer::skip), before the
/// next key is asked for. [`finish`](Lexer::finish) checks that nothing
/// but whitespace follows the document.
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The innermost container has just been opened: its first member
    /// (or its close) comes next, not a comma.
    fresh: bool,
}

/// A lexed string literal: its raw contents `start..end` and, if they
/// hold escapes, the decoded length.
struct Scanned {
    start: usize,
    end: usize,
    decoded_len: Option<usize>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    pub fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[cold]
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    #[inline]
    fn skip_ws(&mut self) {
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    /// Checks the nesting bound and returns the first byte of the value
    /// that comes next.
    #[inline]
    fn start_value(&mut self) -> Result<u8, JsonError> {
        if self.depth >= MAX_DEPTH {
            return self.err("nesting too deep");
        }
        match self.peek() {
            Some(b) => Ok(b),
            None => self.err("unexpected end of input"),
        }
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    fn begin(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.start_value()? != byte {
            return self.err(format!("expected '{}'", byte as char));
        }
        self.open();
        Ok(())
    }

    /// Opens the object that comes next.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.begin(b'{')
    }

    /// Moves to the next member of the innermost container: `true` when
    /// one follows, `false` once `close` has been consumed.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, JsonError> {
        let more = if std::mem::take(&mut self.fresh) {
            !self.eat(close)
        } else if self.eat(b',') {
            true
        } else {
            self.expect(close)?;
            false
        };
        if !more {
            self.depth -= 1;
        }
        Ok(more)
    }

    fn next_key_scanned(&mut self) -> Result<Option<Scanned>, JsonError> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.scan_string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// The key of the innermost open object's next member (whose value
    /// must be consumed next), or `None` once its `}` is consumed.
    ///
    /// # Errors
    ///
    /// Fails on a malformed key, a missing `:`, or anything but `,` or
    /// `}` after a member.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        Ok(self.next_key_scanned()?.map(|key| self.decode(key)))
    }

    /// Reads the next value into a [`Value`] tree.
    fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.start_value()? {
            b'"' => Value::Str(self.string()?.into_owned()),
            b'[' => {
                self.open();
                let mut items = Vec::new();
                while self.next(b']')? {
                    items.push(self.value()?);
                }
                Value::Arr(items)
            }
            b'{' => {
                self.open();
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Value::Obj(members)
            }
            b'n' => self.literal("null", Value::Null)?,
            b't' => self.literal("true", Value::Bool(true))?,
            b'f' => self.literal("false", Value::Bool(false))?,
            _ => Value::Num(self.number()?),
        })
    }

    /// Reads the next value as a [`Lexeme`]: strings decoded, anything
    /// else validated and returned as its source text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    #[inline]
    pub fn lexeme(&mut self) -> Result<Lexeme<'a>, JsonError> {
        if self.start_value()? == b'"' {
            Ok(Lexeme::Str(self.string()?))
        } else {
            Ok(Lexeme::Raw(self.skip()?))
        }
    }

    /// Validates the next value without decoding or building anything,
    /// returning its source text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    pub fn skip(&mut self) -> Result<&'a str, JsonError> {
        let first = self.start_value()?;
        let start = self.pos;
        match first {
            b'"' => {
                self.scan_string()?;
            }
            b'[' => {
                self.open();
                while self.next(b']')? {
                    self.skip()?;
                }
            }
            b'{' => {
                self.open();
                while self.next_key_scanned()?.is_some() {
                    self.skip()?;
                }
            }
            b'n' => self.literal("null", ())?,
            b't' => self.literal("true", ())?,
            b'f' => self.literal("false", ())?,
            _ => {
                self.number()?;
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// Fails on trailing characters.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.err("trailing characters after document");
        }
        Ok(())
    }

    fn literal<T>(&mut self, word: &str, value: T) -> Result<T, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let scanned = self.scan_string()?;
        Ok(self.decode(scanned))
    }

    /// Lexes one string literal, validating its escapes and measuring
    /// its decoded length, without decoding it.
    fn scan_string(&mut self) -> Result<Scanned, JsonError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Bytes the escapes save over their source text; `None` while
        // there are no escapes.
        let mut saved = None;
        loop {
            // Skip plain content up to the next quote, backslash or
            // control byte.
            let Some(run) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = bytes.len();
                return self.err("unterminated string");
            };
            self.pos += run + 1;
            match bytes[self.pos - 1] {
                b'"' => break,
                b'\\' => match decode_escape(&bytes[self.pos..]) {
                    Ok((c, len)) => {
                        self.pos += len;
                        *saved.get_or_insert(0) += 1 + len - c.len_utf8();
                    }
                    Err((at, message)) => {
                        self.pos += at;
                        return self.err(message);
                    }
                },
                _ => return self.err("raw control character in string"),
            }
        }
        let end = self.pos - 1;
        Ok(Scanned {
            start,
            end,
            decoded_len: saved.map(|saved| end - start - saved),
        })
    }

    #[inline]
    fn decode(&self, scanned: Scanned) -> Cow<'a, str> {
        let raw = &self.text[scanned.start..scanned.end];
        let Some(len) = scanned.decoded_len else {
            return Cow::Borrowed(raw);
        };
        let mut out = String::with_capacity(len);
        let mut rest = raw;
        while let Some(i) = rest.find('\\') {
            out.push_str(&rest[..i]);
            let (c, n) =
                decode_escape(&rest.as_bytes()[i + 1..]).expect("escape validated by scan_string");
            out.push(c);
            rest = &rest[i + 1 + n..];
        }
        out.push_str(rest);
        Cow::Owned(out)
    }

    /// Lexes one number. The run of number-like bytes is consumed whole,
    /// so a malformed number fails at its end.
    fn number(&mut self) -> Result<f64, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() && is_json_number(text.as_bytes()) => Ok(n),
            _ => self.err("malformed number"),
        }
    }
}

/// Decodes the escape after a backslash (`b` starts just past it): the
/// character and the bytes of `b` it spans, or how far into `b` it
/// breaks and why.
fn decode_escape(b: &[u8]) -> Result<(char, usize), (usize, &'static str)> {
    let Some(&esc) = b.first() else {
        return Err((0, "unterminated escape"));
    };
    let c = match esc {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'u' => {
            let Some(hex) = b.get(1..5) else {
                return Err((1, "truncated \\u escape"));
            };
            let mut code = 0;
            for &h in hex {
                let digit = char::from(h)
                    .to_digit(16)
                    .ok_or((1, "malformed \\u escape"))?;
                code = code * 16 + digit;
            }
            // Surrogates are replaced, not recombined: protocol strings
            // are plain BMP text.
            return Ok((char::from_u32(code).unwrap_or('\u{fffd}'), 5));
        }
        _ => return Err((1, "unknown escape")),
    };
    Ok((c, 1))
}

/// Whether `t` is exactly an RFC 8259 number:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(t: &[u8]) -> bool {
    let digits = |i: &mut usize| {
        let from = *i;
        while t.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    let mut i = usize::from(t.first() == Some(&b'-'));
    match t.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if t.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == t.len()
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
            // Not RFC 8259 numbers.
            "+1",
            ".5",
            "5.",
            "01",
            "-01",
            "1.e5",
            "1e",
            "-",
            "[1,+5]",
            r#"{"deadline_ms":+5}"#,
            r#""\u+abc""#,
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must fail");
        }
        // Nesting bound trips instead of overflowing the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn value_accepts_every_rfc_number_form() {
        for (text, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.5", 0.5),
            ("-1.25", -1.25),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("25e-1", 2.5),
            ("0.5e2", 50.0),
        ] {
            assert_eq!(Value::parse(text), Ok(Value::Num(n)), "{text:?}");
        }
    }

    #[test]
    fn written_numbers_parse_back() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -1.5,
            1e-7,
            5e-324,
            123_456_789.25,
            1e15,
            -1e15,
            9.007_199_254_740_993e15,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            u64::MAX as f64,
        ] {
            let v = Value::Num(n);
            assert_eq!(Value::parse(&v.to_string()), Ok(v), "{n:e}");
        }
    }

    #[test]
    fn lexer_borrows_plain_strings_and_decodes_escapes_once() {
        let mut lexer = Lexer::new(r#"{"plain":"abc","esc":"a\n\u00e9日"}"#);
        lexer.begin_object().expect("object");
        let key = lexer.next_key().expect("key").expect("member");
        assert!(matches!(key, Cow::Borrowed("plain")));
        match lexer.lexeme().expect("value") {
            Lexeme::Str(Cow::Borrowed(s)) => assert_eq!(s, "abc"),
            other => panic!("not borrowed: {other:?}"),
        }
        assert_eq!(lexer.next_key().expect("key").as_deref(), Some("esc"));
        match lexer.lexeme().expect("value") {
            Lexeme::Str(Cow::Owned(s)) => {
                assert_eq!(s, "a\né日");
                assert_eq!(s.capacity(), s.len(), "decoded at its exact size");
            }
            other => panic!("not decoded: {other:?}"),
        }
        assert_eq!(lexer.next_key().expect("close"), None);
        lexer.finish().expect("nothing trails");
    }

    #[test]
    fn lexemes_read_like_values() {
        let text = r#"{"n":42,"f":1.5,"t":true,"z":null,"arr":["a",1,["b"]],"s":"x"}"#;
        let tree = Value::parse(text).expect("parses");
        let mut lexer = Lexer::new(text);
        lexer.begin_object().expect("object");
        while let Some(key) = lexer.next_key().expect("key") {
            let lexeme = lexer.lexeme().expect("value");
            let v = tree.get(&key).expect("member");
            assert_eq!(lexeme.as_str(), v.as_str(), "{key}");
            assert_eq!(lexeme.as_bool(), v.as_bool(), "{key}");
            assert_eq!(lexeme.as_u64(), v.as_u64(), "{key}");
            assert_eq!(
                lexeme.as_arr().map(|items| items.count()),
                v.as_arr().map(<[Value]>::len),
                "{key}"
            );
        }
        lexer.finish().expect("nothing trails");
        let arr = Lexeme::Raw(r#"["a" , 1,["b"]]"#);
        let items: Vec<Lexeme> = arr.as_arr().expect("array").collect();
        assert_eq!(
            items,
            [
                Lexeme::Str("a".into()),
                Lexeme::Raw("1"),
                Lexeme::Raw(r#"["b"]"#)
            ]
        );
    }

    #[test]
    fn skip_returns_the_validated_source_text() {
        let mut lexer = Lexer::new(r#" [ {"a":[1,"\""]} , -2.5e3 ] "#);
        assert_eq!(lexer.skip(), Ok(r#"[ {"a":[1,"\""]} , -2.5e3 ]"#));
        lexer.finish().expect("nothing trails");
        let mut lexer = Lexer::new(r#"{"a":01}"#);
        assert_eq!(
            lexer.skip().map_err(|e| (e.offset, e.message)),
            Err((7, "malformed number".to_string()))
        );
    }

    #[test]
    fn value_as_u64_guards_range_and_integrality() {
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(7.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("7".into()).as_u64(), None);
    }
}
