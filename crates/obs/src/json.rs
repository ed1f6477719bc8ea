//! The workspace's one JSON module: the emitters every hand-written
//! document goes through, and the parser that reads them back.
//!
//! There is no JSON dependency, so every JSON surface in the workspace is
//! hand-rolled. [`string`] and [`number`] centralize the two places
//! hand-rolled JSON goes wrong — string escaping and non-finite floats —
//! for the report, the metrics document, the Chrome trace writer and the
//! daemon's responses. [`parse`] is a strict recursive-descent parser over
//! the RFC 8259 grammar (no `NaN`, no leading zeros, no trailing garbage,
//! no raw control characters, escapes validated) building a [`Value`]
//! tree; the daemon reads request envelopes with it, and for the tests
//! "this document is valid JSON" means "`parse` returns `Ok`".

/// Renders `s` as a JSON string literal, including the surrounding quotes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. The grammar has no NaN/Infinity; a literal beyond
    /// `f64`'s range (`1e999`) reads as an infinity.
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as ordered `(key, value)` pairs; lookups take the first
    /// match.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object, or `None` for other variants / missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys, in document order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// String payload, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, or `None` for other variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as a non-negative integer; `None` when the value
    /// is not a number, is negative, has a fractional part, or is 2^53 or
    /// more. Numbers are held as `f64`, which stops being exact there
    /// (2^53 + 1 reads back as 2^53; RFC 8259 §6 draws the same line), and
    /// a caller asking for an integer must never be handed a neighbour of
    /// the one that was written.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_BELOW: f64 = (1u64 << 53) as f64;
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..EXACT_BELOW).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }
}

/// Parses one complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

/// Arrays and objects may nest this deep below the top-level value;
/// anything deeper is rejected. The documents this workspace writes stay
/// in single digits, and the cap bounds stack use on hostile input.
pub const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of document".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // {
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, *pos)?;
                        *pos += 3; // the common += 1 below covers the 4th digit
                        let ch = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("unpaired surrogate".to_string());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            *pos += 6;
                            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(code).ok_or("invalid surrogate pair")?
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err("unpaired low surrogate".to_string());
                        } else {
                            char::from_u32(unit).ok_or("invalid \\u escape")?
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("raw control character at byte {pos}"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Exactly four hex digits (`from_str_radix` would also take a leading
/// `+`).
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits
        .iter()
        .try_fold(0u32, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
        .ok_or_else(|| format!("invalid \\u escape at byte {at}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: one zero, or a nonzero digit run (no leading zeros).
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return Err(format!("invalid number at byte {start}")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("invalid fraction at byte {pos}"));
        }
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("invalid exponent at byte {pos}"));
        }
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("unparseable number {text:?}"))?;
    Ok(Value::Number(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string(r#"a"b"#), r#""a\"b""#);
        assert_eq!(string(r"a\b"), r#""a\\b""#);
        // `\r` takes the generic control-character form: report bytes are a
        // contract, and the report has always rendered it that way.
        assert_eq!(string("a\nb\tc\rd"), r#""a\nb\tc\u000dd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("plain"), r#""plain""#);
        // Unicode beyond ASCII passes through unescaped (valid JSON).
        assert_eq!(string("π≈3"), "\"π≈3\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn parses_flat_request_body() {
        let v = parse(r#"{"scenario": "incast-burst", "deadline_ms": 1500, "seed": 7}"#).unwrap();
        assert_eq!(v.get("scenario").unwrap().as_str(), Some("incast-burst"));
        assert_eq!(v.get("deadline_ms").unwrap().as_u64(), Some(1500));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.keys(), vec!["scenario", "deadline_ms", "seed"]);
    }

    #[test]
    fn parses_nesting_escapes_and_literals() {
        let v =
            parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "q\"\n\u0041\uD83D\uDE00"}"#)
                .unwrap();
        let Value::Array(items) = v.get("a").unwrap() else {
            panic!("array expected");
        };
        assert_eq!(items.len(), 6);
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(items[1].as_u64(), None, "fractional is not a u64");
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\nA\u{1F600}"));
        let v = parse(r#"["a\u0001b", -1.5e-9, {"k": []}]"#).unwrap();
        let Value::Array(items) = v else {
            panic!("array expected");
        };
        assert_eq!(items[0].as_str(), Some("a\u{1}b"));
        assert_eq!(items[1].as_f64(), Some(-1.5e-9));
        assert_eq!(items[2].get("k"), Some(&Value::Array(Vec::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1 2]",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": inf}",
            "NaN",
            "Infinity",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\u{0009}ctl-ok-escaped?\"", // raw tab inside a string
            "{\"a\": 1} trailing",
            "\"\\uD800\"", // unpaired surrogate
            "\"\\u+041\"", // a sign is not a hex digit
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_f64_cannot_hold_exactly_are_not_integers() {
        let as_u64 = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(as_u64("9007199254740991"), Some((1 << 53) - 1));
        // 2^53 is where 2^53 + 1 lands too, so neither can be trusted.
        assert_eq!(as_u64("9007199254740992"), None);
        assert_eq!(as_u64("9007199254740993"), None);
        assert_eq!(as_u64("18446744073709551615"), None);
        assert_eq!(as_u64("18446744073709551616"), None, "2^64 is not u64::MAX");
        assert_eq!(as_u64("-1"), None);
    }

    #[test]
    fn first_key_wins_on_duplicates() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_u64(), Some(1));
    }
}
