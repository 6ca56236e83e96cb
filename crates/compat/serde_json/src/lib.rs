//! Offline stand-in for `serde_json`: serializes the `serde` shim's
//! [`Value`] tree to JSON text and parses JSON text back.
//!
//! Output is deterministic: object fields keep declaration order, floats
//! use Rust's shortest round-trip formatting, and pretty output indents
//! with two spaces.

use std::fmt;
use std::io::{self, Write};

use serde::{DeError, Deserialize, Serialize, Value};

/// Error produced by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn escape_into<W: Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    // Copy each run of plain bytes in one write; multi-byte characters
    // are all >= 0x80 and pass through untouched.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_all(&bytes[run..i])?;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
}

fn write_float<W: Write + ?Sized>(out: &mut W, f: f64) -> io::Result<()> {
    if f.is_finite() {
        let s = format!("{f}");
        out.write_all(s.as_bytes())?;
        // Keep the float/integer distinction through a round trip.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.write_all(b".0")?;
        }
        Ok(())
    } else {
        // JSON has no NaN/Infinity; emit null like serde_json's lossy modes.
        out.write_all(b"null")
    }
}

fn write_value<W: Write + ?Sized>(
    out: &mut W,
    value: &Value,
    indent: Option<usize>,
) -> io::Result<()> {
    match value {
        Value::Null => out.write_all(b"null"),
        Value::Bool(b) => out.write_all(if *b { b"true" } else { b"false" }),
        Value::Int(i) => write!(out, "{i}"),
        Value::UInt(u) => write!(out, "{u}"),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            write_seq(out, (b'[', b']'), items.iter(), indent, |out, item, ind| {
                write_value(out, item, ind)
            })
        }
        Value::Object(fields) => write_seq(
            out,
            (b'{', b'}'),
            fields.iter(),
            indent,
            |out, (k, v), ind| {
                escape_into(out, k)?;
                out.write_all(if ind.is_some() { b": " } else { b":" })?;
                write_value(out, v, ind)
            },
        ),
    }
}

fn write_seq<W: Write + ?Sized, T>(
    out: &mut W,
    (open, close): (u8, u8),
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    mut write_item: impl FnMut(&mut W, T, Option<usize>) -> io::Result<()>,
) -> io::Result<()> {
    out.write_all(&[open])?;
    let len = items.len();
    if len == 0 {
        return out.write_all(&[close]);
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            write_newline(out, level)?;
        }
        write_item(out, item, inner)?;
        if i + 1 < len {
            out.write_all(b",")?;
        }
    }
    if let Some(level) = indent {
        write_newline(out, level)?;
    }
    out.write_all(&[close])
}

fn write_newline<W: Write + ?Sized>(out: &mut W, level: usize) -> io::Result<()> {
    out.write_all(b"\n")?;
    for _ in 0..level {
        out.write_all(b"  ")?;
    }
    Ok(())
}

/// Serializes `value` as compact JSON into `writer`. A [`Value`] is
/// written in place, without first copying it.
///
/// # Errors
///
/// Returns an [`Error`] if `writer` fails.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    write_value(&mut writer, &value.to_value_cow(), None).map_err(|e| Error::new(e.to_string()))
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    Ok(String::from_utf8(out).expect("JSON text is UTF-8"))
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    write_value(&mut out, &value.to_value_cow(), Some(0)).expect("writing to a Vec succeeds");
    Ok(String::from_utf8(out).expect("JSON text is UTF-8"))
}

/// Serializes `value` into the shim's [`Value`] tree.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Most arrays and objects one document may nest, as in `serde_json`.
/// Parsing recurses once per level, so the limit bounds stack use on
/// untrusted input.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Elements of the arrays and fields of the objects still open,
    /// innermost last. A container that closes moves its own tail out
    /// into a vector of exactly its length, so parsed trees carry no
    /// spare capacity and building them does no reallocation.
    items: Vec<Value>,
    fields: Vec<(String, Value)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            fields: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::new(format!("{} at byte {}", message.into(), self.pos))
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

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn consume_keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'n' => {
                if self.consume_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b't' => {
                if self.consume_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b'f' => {
                if self.consume_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.nested(Parser::parse_array),
            b'{' => self.nested(Parser::parse_object),
            _ => self.parse_number(),
        }
    }

    /// Runs `parse` one nesting level deeper, failing at the byte that
    /// would cross [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Parser<'a>) -> Result<Value>) -> Result<Value> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.pos += 1;
        let start = self.items.len();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        loop {
            let item = self.parse_value()?;
            self.items.push(item);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(self.items.drain(start..).collect()));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.pos += 1;
        let start = self.fields.len();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            self.fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(self.fields.drain(start..).collect()));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Append the run of plain characters up to the next quote or
            // escape in one go. Both delimiters are ASCII, so the run
            // starts and ends on character boundaries of the `&str` input.
            let run = self.pos;
            let len = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - run);
            self.pos += len;
            out.push_str(&self.text[run..self.pos]);
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.parse_escape()?;
                    out.push(c);
                }
            }
        }
    }

    /// Decodes the escape after a `\`.
    fn parse_escape(&mut self) -> Result<char> {
        let esc = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A UTF-16 high surrogate; its low half follows as a
                    // second `\u` escape.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    /// Reads the four hex digits of a `\u` escape.
    fn parse_hex4(&mut self) -> Result<u32> {
        let bytes = self.bytes;
        let hex = bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            let digit = char::from(h)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() {
            return Err(self.error("expected a value"));
        }
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

/// Parses JSON text into a `T`.
///
/// Time is linear in the length of `text`. At most 128 arrays and
/// objects may nest.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(T::from_owned_value(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let v: Vec<(u32, f64)> = vec![(90, 3.25), (99, 0.5)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[90,3.25],[99,0.5]]");
        let round: Vec<(u32, f64)> = from_str(&json).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn floats_stay_floats() {
        let json = to_string(&2.0f64).unwrap();
        assert_eq!(json, "2.0");
        let round: f64 = from_str(&json).unwrap();
        assert_eq!(round, 2.0);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Array(vec![Value::Bool(true)])),
        ]);
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
        let round: Value = from_str(&json).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn strings_escape() {
        let s = "line\n\"quoted\"\\x".to_string();
        let round: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(s, round);
    }

    #[test]
    fn errors_carry_position() {
        let err = from_str::<bool>("troo").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_bounded_by_the_recursion_limit() {
        // `depth` containers: `depth - 1` wrappers around an empty one.
        let nest = |depth: usize, open: &str, empty: &str, close: &str| {
            open.repeat(depth - 1) + empty + &close.repeat(depth - 1)
        };
        for (open, empty, close) in [("[", "[]", "]"), ("{\"k\":", "{}", "}")] {
            let text = nest(RECURSION_LIMIT, open, empty, close);
            let mut innermost = from_str::<Value>(&text).unwrap();
            for _ in 1..RECURSION_LIMIT {
                innermost = match innermost {
                    Value::Array(mut items) => items.pop().unwrap(),
                    Value::Object(mut fields) => fields.pop().unwrap().1,
                    other => panic!("expected a container, got {other:?}"),
                };
            }
            assert!(matches!(innermost, Value::Array(_) | Value::Object(_)));
            let text = nest(RECURSION_LIMIT + 1, open, empty, close);
            let err = from_str::<Value>(&text).unwrap_err();
            let at = RECURSION_LIMIT * open.len();
            assert_eq!(
                err.to_string(),
                format!("recursion limit exceeded at byte {at}")
            );
        }
        // Far past the limit: an error, not a stack overflow.
        let err = from_str::<Value>(&"[".repeat(200_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"));
    }
}
