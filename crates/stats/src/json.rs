//! Minimal JSON value model, parser, and serializer for the tracond wire
//! protocol.
//!
//! The daemon exchanges one JSON document per line over plain TCP, so the
//! codec must be dependency-free (std only), deterministic, and tolerant of
//! hostile input: a malformed line must produce a parse error, never a
//! panic. Objects preserve insertion order so encoded replies are stable
//! byte-for-byte for a given logical message, which the protocol roundtrip
//! tests rely on.
//!
//! `Value`'s `Display` is the one JSON writer; [`Quoted`] lends its string
//! escaper to text a caller only borrows. A string is copied in whole runs
//! between the bytes that need escaping: `"`, `\`, `\n`, `\r` and `\t` as
//! two-character escapes, every other byte below 0x20 as `\u00XX` (lower
//! case hex), and nothing else (0x7f and every non-ASCII scalar pass
//! through). Integer-valued numbers below 1e15 in magnitude are written as
//! digits, every other finite number as std's shortest `{}` form, and NaN
//! and the infinities as `null`.
//!
//! The parser is one recursive grammar. [`parse`] builds the whole
//! document as a `Value`; [`parse_fields`] validates a document with the
//! same grammar but hands each top-level field of an object to a callback
//! as it is parsed, so a caller that wants a few fields never builds the
//! object around them. Both run one object loop, so they accept the same
//! documents and fail with the same `ParseError`. A key with no escapes
//! reaches the callback borrowed from the input. In strings, `\uXXXX`
//! takes exactly four hex digits; a high surrogate followed by a `\u` low
//! surrogate is one scalar, and a surrogate left unpaired becomes U+FFFD.

use std::borrow::Cow;
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

    /// Move the value under `key` out of an object, leaving `null` in its
    /// place; `None` for missing keys or non-objects. The first match
    /// wins, as in [`Value::get`].
    pub fn take(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Value::Null)),
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
            // `u64::MAX as f64` rounds up to 2^64, which must not pass.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
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
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(f, *x),
            Value::Str(text) => write_escaped(f, text),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
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
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A borrowed string, displayed as the JSON string `Value::Str` of the
/// same text would be: lets a caller frame a line around text it does not
/// own without copying it into a `Value`.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0)
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no Inf/NaN; encode as null so a reply never becomes
        // unparseable because a model produced a degenerate number.
        return f.write_str("null");
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        // Digits from the right, into a buffer that holds `-` and the 15
        // digits of any magnitude below 1e15 (`-0.0` writes `0`).
        let mut buf = [0u8; 16];
        let mut at = buf.len();
        let mut rest = (x as i64).unsigned_abs();
        loop {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if x < 0.0 {
            at -= 1;
            buf[at] = b'-';
        }
        f.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)
    } else {
        write!(f, "{x}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    f.write_str("\"")?;
    // Every byte that needs escaping is ASCII, so each one ends a run on a
    // char boundary and a run is written whole.
    let mut run = 0;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        f.write_str(&text[run..i])?;
        if escaped.is_empty() {
            let code = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ];
            f.write_str(std::str::from_utf8(&code).map_err(|_| fmt::Error)?)?;
        } else {
            f.write_str(escaped)?;
        }
        run = i + 1;
    }
    f.write_str(&text[run..])?;
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
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    end_of_document(input.as_bytes(), pos)?;
    Ok(value)
}

/// Parse a complete JSON document as [`parse`] does, accepting and
/// rejecting the same inputs with the same errors, but without building
/// a top-level object: each of its fields goes to `field` in document
/// order, duplicates included, and the key is borrowed from `input` when
/// it has no escapes. Returns `Ok(false)`, having called `field` never,
/// when the document is valid but not an object. On an error, `field`
/// may already have seen the fields before it.
pub fn parse_fields<'a>(
    input: &'a str,
    mut field: impl FnMut(Cow<'a, str>, Value),
) -> Result<bool, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let object = bytes.get(pos) == Some(&b'{');
    if object {
        parse_object(input, &mut pos, 0, &mut field)?;
    } else {
        parse_value(input, &mut pos, 0)?;
    }
    end_of_document(bytes, pos)?;
    Ok(object)
}

fn end_of_document(bytes: &[u8], mut pos: usize) -> Result<(), ParseError> {
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(())
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

fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    let bytes = input.as_bytes();
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
                items.push(parse_value(input, pos, depth + 1)?);
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
            let mut pairs = Vec::new();
            parse_object(input, pos, depth, |key, value| {
                pairs.push((key.into_owned(), value));
            })?;
            Ok(Value::Obj(pairs))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

/// The object grammar, for [`parse`] and [`parse_fields`] alike: the
/// object whose `{` is at `*pos`, at nesting `depth`, each member handed
/// to `member` as soon as it is parsed.
fn parse_object<'a>(
    input: &'a str,
    pos: &mut usize,
    depth: usize,
    mut member: impl FnMut(Cow<'a, str>, Value),
) -> Result<(), ParseError> {
    let bytes = input.as_bytes();
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key in object"));
        }
        let key = parse_key(input, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        member(key, parse_value(input, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

/// The string at `*pos` as an object key: borrowed from `input` when it
/// holds no escape, otherwise (and for every error) what [`parse_string`]
/// makes of it.
fn parse_key<'a>(input: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, ParseError> {
    let start = *pos + 1;
    let rest = input.as_bytes().get(start..).unwrap_or_default();
    let len = rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
    if let Some(len) = len.filter(|&len| rest[len] == b'"') {
        if let Some(key) = input.get(start..start + len) {
            *pos = start + len + 1;
            return Ok(Cow::Borrowed(key));
        }
    }
    parse_string(input.as_bytes(), pos).map(Cow::Owned)
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
                        let mut code = hex_escape(bytes, *pos)?;
                        *pos += 4;
                        // A high surrogate joins the `\u` low surrogate
                        // right after it (`ensure_ascii` encoders write
                        // every non-BMP scalar so).
                        if (0xd800..0xdc00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            if let Ok(low @ 0xdc00..=0xdfff) = hex_escape(bytes, *pos + 2) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        // A surrogate left unpaired is replaced, not refused.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
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

/// The four hex digits after the `u` at `at`, exactly four and nothing
/// else (no sign, no fewer).
fn hex_escape(bytes: &[u8], at: usize) -> Result<u32, ParseError> {
    let digits = bytes
        .get(at + 1..at + 5)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| err(at, "bad \\u escape"))?;
        Ok(code << 4 | digit)
    })
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
    fn as_u64_refuses_two_to_the_64() {
        // `u64::MAX as f64` is 2^64 itself; a cast from there saturates.
        let two_64 = parse("18446744073709551616").unwrap();
        assert_eq!(two_64.as_u64(), None);
        assert_eq!(n(2f64.powi(64)).as_u64(), None);
        // The largest double below 2^64 is still an exact u64.
        let below = 2f64.powi(64) - 2f64.powi(11);
        assert_eq!(n(below).as_u64(), Some(u64::MAX - 2047));
    }

    #[test]
    fn runs_and_integers_write_the_documented_bytes() {
        assert_eq!(s("").to_string(), "\"\"");
        assert_eq!(
            s("\u{0}a\u{1f}\u{7f}\té\r").to_string(),
            "\"\\u0000a\\u001f\u{7f}\\té\\r\""
        );
        assert_eq!(n(-0.0).to_string(), "0");
        assert_eq!(n(999_999_999_999_999.0).to_string(), "999999999999999");
        assert_eq!(n(-999_999_999_999_999.0).to_string(), "-999999999999999");
        assert_eq!(n(1e15).to_string(), "1000000000000000");
        assert_eq!(n(-10.0).to_string(), "-10");
    }

    #[test]
    fn take_moves_the_first_match_out() {
        let mut v = parse("{\"a\":[1],\"a\":2}").unwrap();
        assert_eq!(v.take("a"), Some(Value::Arr(vec![n(1.0)])));
        assert_eq!(v.get("a"), Some(&Value::Null));
        assert_eq!(v.take("b"), None);
        assert_eq!(n(1.0).take("a"), None);
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_become_replacement_chars() {
        // What Python's `json.dumps` writes for U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), s("\u{1f600}"));
        assert_eq!(
            parse(r#""a\uD834\uDD1Eb\u00e9""#).unwrap(),
            s("a\u{1d11e}b\u{e9}")
        );
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse(text).unwrap(), s(want), "{text}");
        }
        // A bad escape after a high surrogate is still an error.
        let e = parse(r#""\ud83d\uZZZZ""#).unwrap_err();
        assert_eq!((e.at, e.reason.as_str()), (8, "bad \\u escape"));
    }

    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00Ff""#).unwrap(), s("A\u{ff}"));
        for (text, at, reason) in [
            (r#""\u+041""#, 2, "bad \\u escape"),
            (r#""\u-041""#, 2, "bad \\u escape"),
            (r#""\u 041""#, 2, "bad \\u escape"),
            (r#""\u004g""#, 2, "bad \\u escape"),
            (r#""\u00é""#, 2, "bad \\u escape"),
            (r#""\u004"#, 2, "truncated \\u escape"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!((e.at, e.reason.as_str()), (at, reason), "{text}");
        }
    }

    #[test]
    fn parse_fields_hands_over_what_parse_builds() {
        for text in [
            "{}",
            " { \"a\" : 1 , \"b\":[true,{\"c\":null}], \"a\":\"x\" } ",
            "{\"\\u0061\":\"\\ud83d\\ude00\",\"k\\\"ey\":{}}",
        ] {
            let mut fields = Vec::new();
            let object = parse_fields(text, |k, v| fields.push((k.into_owned(), v)));
            assert_eq!(object, Ok(true), "{text}");
            assert_eq!(Value::Obj(fields), parse(text).unwrap(), "{text}");
        }
        for text in ["[1]", " \"x\" ", "3", "null"] {
            let object = parse_fields(text, |_, _| panic!("{text} has no fields"));
            assert_eq!(object, Ok(false), "{text}");
        }
        for text in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":[1,}",
            "{\"a\":1} x",
            "[1] x",
            "{\"a\":\"\\u+041\"}",
            "{\"\\x\":1}",
            "{\"a\u{1}\":1}",
        ] {
            let want = parse(text).unwrap_err();
            assert_eq!(parse_fields(text, |_, _| {}), Err(want), "{text}");
        }
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(60), "]".repeat(60));
        assert_eq!(
            parse_fields(&deep, |_, _| {}),
            Err(parse(&deep).unwrap_err())
        );
    }

    #[test]
    fn parse_fields_borrows_keys_without_escapes() {
        let mut keys = Vec::new();
        let text = "{\"plain\":1,\"\\u0061pp\":2,\"é\":3}";
        parse_fields(text, |k, _| keys.push(k)).unwrap();
        assert!(matches!(&keys[0], Cow::Borrowed("plain")));
        assert!(matches!(&keys[1], Cow::Owned(k) if k == "app"));
        assert!(matches!(&keys[2], Cow::Borrowed("é")));
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
