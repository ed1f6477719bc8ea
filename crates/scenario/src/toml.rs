//! A dependency-free TOML subset: enough to round-trip [`ScenarioSpec`]
//! documents (the build environment has no crates.io access, so the real
//! `toml` crate is unavailable).
//!
//! Supported: `[table]` / `[dotted.table]` headers, `key = value` pairs
//! with bare or dotted keys, basic strings with `\" \\ \n \t` escapes,
//! integers (with `_` separators), floats, booleans, arrays (nestable,
//! multi-line), and inline tables `{ k = v, ... }`. Comments run from `#`
//! to end of line outside strings. Unsupported TOML (array-of-tables
//! headers, literal/multiline strings, dates) is rejected with an error —
//! never silently misread.
//!
//! [`ScenarioSpec`]: crate::spec::ScenarioSpec

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A table (sorted keys, so serialization is deterministic).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// New empty table.
    pub fn table() -> Self {
        Value::Table(BTreeMap::new())
    }

    /// The table's entry at `key`, if this is a table and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(map) => map.get(key),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float content; integers coerce (TOML writers often drop `.0`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean content, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Walks `path`, creating empty tables as needed, without disturbing
    /// existing content. Errors if a non-table is in the way.
    fn ensure_path(&mut self, path: &[String]) -> Result<(), TomlError> {
        let mut node = self;
        for part in path {
            let Value::Table(map) = node else {
                return Err(TomlError::new(0, format!("{part} is not a table")));
            };
            node = map.entry(part.clone()).or_insert_with(Value::table);
        }
        match node {
            Value::Table(_) => Ok(()),
            _ => Err(TomlError::new(
                0,
                "redefining a non-table as a table".to_string(),
            )),
        }
    }

    /// Inserts into a (possibly nested) table, creating intermediate
    /// tables along `path`.
    fn insert_path(&mut self, path: &[String], key: String, value: Value) -> Result<(), TomlError> {
        let mut node = self;
        for part in path {
            let Value::Table(map) = node else {
                return Err(TomlError::new(0, format!("{part} is not a table")));
            };
            node = map.entry(part.clone()).or_insert_with(Value::table);
        }
        let Value::Table(map) = node else {
            return Err(TomlError::new(0, format!("{key} parent is not a table")));
        };
        if map.insert(key.clone(), value).is_some() {
            return Err(TomlError::new(0, format!("duplicate key {key}")));
        }
        Ok(())
    }
}

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// Line the error was detected on (0 when unknown).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TomlError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "TOML line {}: {}", self.line, self.message)
        } else {
            write!(f, "TOML: {}", self.message)
        }
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML document into a root [`Value::Table`].
pub fn parse(input: &str) -> Result<Value, TomlError> {
    let mut root = Value::table();
    let mut current_path: Vec<String> = Vec::new();
    let mut lines = LogicalLines::new(input);
    while let Some((line_no, line)) = lines.next_logical()? {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let _ = header;
            return Err(TomlError::new(
                line_no,
                "array-of-tables headers are not supported; use an inline-table array value",
            ));
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(inner) = rest.strip_suffix(']') else {
                return Err(TomlError::new(line_no, "unterminated table header"));
            };
            current_path = split_key(inner, line_no)?;
            // Materialize the table (without disturbing an existing one)
            // so empty sections still appear.
            root.ensure_path(&current_path)
                .map_err(|e| TomlError::new(line_no, e.message))?;
            continue;
        }
        let Some(eq) = find_unquoted(line, '=') else {
            return Err(TomlError::new(
                line_no,
                format!("expected key = value, got {line:?}"),
            ));
        };
        let key_part = line[..eq].trim();
        let value_part = line[eq + 1..].trim();
        let mut key_path = split_key(key_part, line_no)?;
        let Some(final_key) = key_path.pop() else {
            return Err(TomlError::new(line_no, "empty key"));
        };
        let mut parser = ValueParser {
            chars: value_part.char_indices().peekable(),
            src: value_part,
            line: line_no,
            depth: 0,
        };
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.chars.peek().is_some() {
            return Err(TomlError::new(line_no, "trailing characters after value"));
        }
        let mut full_path = current_path.clone();
        full_path.extend(key_path);
        root.insert_path(&full_path, final_key, value)
            .map_err(|e| TomlError::new(line_no, e.message))?;
    }
    Ok(root)
}

/// Joins physical lines until brackets/braces balance outside strings, so
/// arrays and inline tables may span lines.
struct LogicalLines<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> LogicalLines<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            lines: input.lines().enumerate(),
        }
    }

    fn next_logical(&mut self) -> Result<Option<(usize, String)>, TomlError> {
        let Some((idx, first)) = self.lines.next() else {
            return Ok(None);
        };
        let line_no = idx + 1;
        let mut acc = strip_comment(first).to_string();
        let mut depth = bracket_depth(&acc, 0, line_no)?;
        while depth > 0 {
            let Some((_, next)) = self.lines.next() else {
                return Err(TomlError::new(
                    line_no,
                    "unterminated array or inline table",
                ));
            };
            // Strings end on their own line, so depth adds up line by
            // line: no rescan of what is already joined.
            let next = strip_comment(next);
            depth = bracket_depth(next, depth, line_no)?;
            acc.push(' ');
            acc.push_str(next);
        }
        Ok(Some((line_no, acc)))
    }
}

/// Removes a `#` comment (outside strings).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// `depth` plus the net `[`/`{` depth of `s` outside strings (negative
/// is an error).
fn bracket_depth(s: &str, mut depth: i32, line_no: usize) -> Result<i32, TomlError> {
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
        if depth < 0 {
            return Err(TomlError::new(line_no, "unbalanced closing bracket"));
        }
    }
    if in_str {
        return Err(TomlError::new(line_no, "unterminated string"));
    }
    Ok(depth)
}

/// First `needle` outside quotes.
fn find_unquoted(s: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            c if c == needle && !in_str => return Some(i),
            _ => {}
        }
        escaped = false;
    }
    None
}

/// Splits `a.b.c` into components; components may be bare or quoted.
fn split_key(s: &str, line_no: usize) -> Result<Vec<String>, TomlError> {
    let mut parts = Vec::new();
    for raw in s.split('.') {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err(TomlError::new(
                line_no,
                format!("empty key component in {s:?}"),
            ));
        }
        let part = if let Some(q) = raw.strip_prefix('"') {
            q.strip_suffix('"')
                .ok_or_else(|| TomlError::new(line_no, "unterminated quoted key"))?
                .to_string()
        } else {
            if !raw
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(TomlError::new(line_no, format!("invalid bare key {raw:?}")));
            }
            raw.to_string()
        };
        parts.push(part);
    }
    Ok(parts)
}

/// Arrays and inline tables may nest this deep inside a value; anything
/// deeper is rejected. Specs nest two deep, and the cap bounds stack use
/// on hostile input.
pub const MAX_DEPTH: usize = 64;

struct ValueParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
    line: usize,
    /// Arrays and inline tables open around the value being parsed.
    depth: usize,
}

impl ValueParser<'_> {
    fn err(&self, msg: impl Into<String>) -> TomlError {
        TomlError::new(self.line, msg)
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        self.skip_ws();
        let next = self.chars.peek().map(|&(_, c)| c);
        match next {
            Some('"') => self.parse_string(),
            Some(open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and inline tables nest too deep"));
                }
                self.depth += 1;
                let value = if open == '[' {
                    self.parse_array()
                } else {
                    self.parse_inline_table()
                };
                self.depth -= 1;
                value
            }
            Some('t' | 'f') => self.parse_bool(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character {c:?} in value"))),
            None => Err(self.err("missing value")),
        }
    }

    fn parse_string(&mut self) -> Result<Value, TomlError> {
        self.chars.next(); // opening quote
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(Value::Str(out)),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = self.chars.next() else {
                                return Err(self.err("truncated \\u escape"));
                            };
                            let Some(d) = h.to_digit(16) else {
                                return Err(self.err(format!("invalid hex digit {h:?} in \\u")));
                            };
                            code = code * 16 + d;
                        }
                        let Some(c) = char::from_u32(code) else {
                            return Err(self.err(format!("\\u{code:04x} is not a scalar value")));
                        };
                        out.push(c);
                    }
                    Some((_, c)) => return Err(self.err(format!("unsupported escape \\{c}"))),
                    None => return Err(self.err("unterminated escape")),
                },
                Some((_, c)) => out.push(c),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.chars.next(); // [
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, ']'))) {
                self.chars.next();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.chars.peek() {
                Some((_, ',')) => {
                    self.chars.next();
                }
                Some((_, ']')) => {}
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.chars.next(); // {
        let mut map = BTreeMap::new();
        loop {
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, '}'))) {
                self.chars.next();
                return Ok(Value::Table(map));
            }
            let mut key = String::new();
            while let Some(&(_, c)) = self.chars.peek() {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    key.push(c);
                    self.chars.next();
                } else {
                    break;
                }
            }
            if key.is_empty() {
                return Err(self.err("expected key in inline table"));
            }
            self.skip_ws();
            match self.chars.next() {
                Some((_, '=')) => {}
                _ => return Err(self.err("expected = in inline table")),
            }
            let value = self.parse_value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.err(format!("duplicate key {key} in inline table")));
            }
            self.skip_ws();
            match self.chars.peek() {
                Some((_, ',')) => {
                    self.chars.next();
                }
                Some((_, '}')) => {}
                _ => return Err(self.err("expected , or } in inline table")),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, TomlError> {
        let start = self.chars.peek().map(|&(i, _)| i).unwrap_or(0);
        let rest = &self.src[start..];
        if let Some(r) = rest.strip_prefix("true") {
            let _ = r;
            for _ in 0..4 {
                self.chars.next();
            }
            Ok(Value::Bool(true))
        } else if rest.starts_with("false") {
            for _ in 0..5 {
                self.chars.next();
            }
            Ok(Value::Bool(false))
        } else {
            Err(self.err("expected true or false"))
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let mut text = String::new();
        while let Some(&(_, c)) = self.chars.peek() {
            if c.is_ascii_digit() || "+-._eE".contains(c) {
                text.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        let cleaned: String = text.chars().filter(|&c| c != '_').collect();
        if cleaned.contains('.') || cleaned.to_ascii_lowercase().contains('e') {
            cleaned
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid float {text:?}")))
        } else {
            cleaned
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid integer {text:?}")))
        }
    }
}

/// Serializes a root table back to TOML text. Scalars and arrays of the
/// current table are emitted first (sorted), then nested tables as
/// `[dotted.headers]` — the exact shape [`parse`] accepts, so
/// `parse(serialize(v)) == v` for any value tree this module produces.
pub fn serialize(root: &Value) -> String {
    let mut out = String::new();
    let Value::Table(map) = root else {
        panic!("serialize expects a root table");
    };
    emit_table(map, &mut Vec::new(), &mut out);
    out
}

fn emit_table(map: &BTreeMap<String, Value>, path: &mut Vec<String>, out: &mut String) {
    for (k, v) in map {
        if !matches!(v, Value::Table(_)) {
            out.push_str(&format!("{} = {}\n", bare_or_quoted(k), inline(v)));
        }
    }
    for (k, v) in map {
        if let Value::Table(sub) = v {
            path.push(k.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            let header: Vec<String> = path.iter().map(|p| bare_or_quoted(p)).collect();
            out.push_str(&format!("[{}]\n", header.join(".")));
            emit_table(sub, path, out);
            path.pop();
        }
    }
}

/// Emits a basic string using only escapes [`parse`] understands, so the
/// round-trip guarantee holds for any content (Rust's `{:?}` would emit
/// `\u{…}` forms the parser rejects).
fn toml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bare_or_quoted(k: &str) -> String {
    if !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        k.to_string()
    } else {
        toml_string(k)
    }
}

fn inline(v: &Value) -> String {
    match v {
        Value::Str(s) => toml_string(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            let text = format!("{f}");
            // Keep the float-ness visible so reparsing yields a Float.
            if text.contains(['.', 'e', 'E']) {
                text
            } else {
                format!("{text}.0")
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(inline).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{} = {}", bare_or_quoted(k), inline(v)))
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# demo
name = "alltoall" # trailing comment
count = 1_000
ratio = 2.5
big = 1.25e8
on = true

[sweep]
nodes = [4, 8,
         16]
phases = [{ kind = "uniform" }, { kind = "incast", receivers = 2 }]

[topology.link]
latency_ns = 20000
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("alltoall"));
        assert_eq!(v.get("count").unwrap().as_int(), Some(1000));
        assert_eq!(v.get("ratio").unwrap().as_float(), Some(2.5));
        assert_eq!(v.get("big").unwrap().as_float(), Some(1.25e8));
        assert_eq!(v.get("on").unwrap().as_bool(), Some(true));
        let nodes = v
            .get("sweep")
            .unwrap()
            .get("nodes")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[2].as_int(), Some(16));
        let phases = v
            .get("sweep")
            .unwrap()
            .get("phases")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(phases[1].get("receivers").unwrap().as_int(), Some(2));
        assert_eq!(
            v.get("topology")
                .unwrap()
                .get("link")
                .unwrap()
                .get("latency_ns")
                .unwrap()
                .as_int(),
            Some(20_000)
        );
    }

    #[test]
    fn serialization_round_trips() {
        let doc = r#"
name = "x"
[a]
q = [1, 2, 3]
r = 1.5
[a.b]
s = "deep"
t = { u = 1, v = "w" }
"#;
        let v = parse(doc).unwrap();
        let text = serialize(&v);
        let reparsed = parse(&text).unwrap();
        assert_eq!(v, reparsed, "round-trip through:\n{text}");
    }

    #[test]
    fn control_characters_round_trip() {
        let mut map = BTreeMap::new();
        map.insert(
            "s".to_string(),
            Value::Str("line\nreturn\rtab\tbell\u{7}quote\"\\".to_string()),
        );
        let v = Value::Table(map);
        let text = serialize(&v);
        assert_eq!(parse(&text).unwrap(), v, "through:\n{text}");
        // \u escapes also parse directly.
        let parsed = parse("x = \"a\\u0041b\"").unwrap();
        assert_eq!(parsed.get("x").unwrap().as_str(), Some("aAb"));
        assert!(parse("x = \"\\uZZZZ\"").is_err());
        assert!(parse("x = \"\\u00\"").is_err());
    }

    #[test]
    fn rejects_unsupported_and_malformed() {
        assert!(parse("[[points]]\nx = 1").is_err());
        assert!(parse("a = ").is_err());
        assert!(parse("a = [1, 2").is_err());
        assert!(parse("a = 1\na = 2").is_err());
        assert!(parse("a = \"unterminated").is_err());
        assert!(parse("date = 2006-09-25").is_err());
    }

    #[test]
    fn duplicate_table_header_is_tolerated_but_duplicate_key_is_not() {
        let ok = parse("[a]\nx = 1\n[a]\ny = 2").unwrap();
        assert_eq!(ok.get("a").unwrap().get("y").unwrap().as_int(), Some(2));
        assert!(parse("[a]\nx = 1\n[a]\nx = 2").is_err());
    }
}
