//! Minimal JSON value model, parser, and serializer for the tracond wire
//! protocol.
//!
//! The daemon exchanges one JSON document per line over plain TCP, so the
//! codec must be dependency-free (std only), deterministic, and tolerant of
//! hostile input: a malformed line must produce a parse error, never a
//! panic. Objects preserve insertion order so encoded replies are stable
//! byte-for-byte for a given logical message, which the protocol roundtrip
//! tests rely on.

use std::fmt;

/// A parsed JSON value. Numbers are kept as `f64`, which is lossless for
/// every integer the protocol carries (task ids stay far below 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON array.
    Arr(Vec<Value>),
    /// A JSON object in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, rejecting fractions.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Build an object value from key/value pairs, preserving order.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Shorthand for `Value::Str`.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// Shorthand for `Value::Num`.
pub fn n(num: f64) -> Value {
    Value::Num(num)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => write_num(f, *x),
            Value::Str(text) => write_escaped(f, text),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no Inf/NaN; encode as null so a reply never becomes
        // unparseable because a model produced a degenerate number.
        return f.write_str("null");
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(f, "{}", x as i64)
    } else {
        write!(f, "{x}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Why a document failed to parse; rendered into protocol error replies.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset where parsing gave up.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

/// Parse a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 48;

fn err(at: usize, reason: &str) -> ParseError {
    ParseError {
        at,
        reason: reason.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs: Vec<(String, Value)> = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(err(*pos, "expected string key in object"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid keyword"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    let parsed: f64 = text.parse().map_err(|_| err(start, "invalid number"))?;
    if !parsed.is_finite() {
        return Err(err(start, "number out of range"));
    }
    Ok(Value::Num(parsed))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are replaced rather than rejected; the
                        // protocol never emits them, so fidelity there is moot.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Copy the run of plain bytes up to the next quote, escape
                // or control byte in one piece, validating that run alone
                // (not the rest of the document): continuation bytes of a
                // multi-byte scalar are all >= 0x80, so a run never ends
                // inside one unless the input itself is cut there.
                let rest = &bytes[*pos..];
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(rest.len());
                let run =
                    std::str::from_utf8(&rest[..len]).map_err(|_| err(*pos, "invalid utf-8"))?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_simple_object() {
        let v = obj(vec![
            ("v", n(1.0)),
            ("id", s("c0-1")),
            ("ok", Value::Bool(true)),
            ("items", Value::Arr(vec![n(1.0), n(2.5), Value::Null])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(n(42.0).to_string(), "42");
        assert_eq!(n(0.5).to_string(), "0.5");
        assert_eq!(n(-3.0).to_string(), "-3");
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let v = s("a\"b\\c\nd\u{1}");
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "{} trailing",
            "nul",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "expected parse failure for {bad:?}");
        }
    }

    #[test]
    fn multi_byte_scalars_parse_up_to_the_last_byte_of_input() {
        assert_eq!(parse("\"a\u{20ac}\"").unwrap(), s("a\u{20ac}"));
        assert_eq!(parse("\"\u{1d11e}\"").unwrap(), s("\u{1d11e}"));
        assert_eq!(
            parse("[\"\u{e9}\",\"x\\n\u{20ac}\\\"\u{e9}\"]").unwrap(),
            Value::Arr(vec![s("\u{e9}"), s("x\n\u{20ac}\"\u{e9}")])
        );
        // The scalar is whole but the string never closes.
        let e = parse("\"ab\u{20ac}").unwrap_err();
        assert_eq!((e.at, e.reason.as_str()), (6, "unterminated string"));
    }

    #[test]
    fn truncated_tails_and_control_bytes_keep_their_error_kinds() {
        // `parse` takes a &str, so a cut-off scalar can only arrive through
        // the byte-level scanner.
        let mut pos = 0;
        let e = parse_string(b"\"ab\xe2\x82", &mut pos).unwrap_err();
        assert_eq!((e.at, e.reason.as_str()), (1, "invalid utf-8"));
        let e = parse("\"a\u{1}b\"").unwrap_err();
        assert_eq!(
            (e.at, e.reason.as_str()),
            (2, "raw control character in string")
        );
    }

    #[test]
    fn rejects_excessive_nesting() {
        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(n(f64::NAN).to_string(), "null");
        assert_eq!(n(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_get_and_accessors() {
        let v = parse("{\"a\": 3, \"b\": \"x\", \"c\": [true]}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Value::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(n(1.5).as_u64(), None);
        assert_eq!(n(-1.0).as_u64(), None);
    }
}
