//! Hand-rolled JSON: a tree [`Value`], a deterministic writer, and a
//! minimal parser for round-trip tests.
//!
//! No serde — the workspace builds offline with no crates.io
//! dependencies. Determinism rules, so `--json` files are byte-stable
//! across worker counts and runs:
//!
//! - objects keep insertion order (no hash maps),
//! - integers are written exactly ([`Value::Int`] / [`Value::UInt`]),
//! - floats use Rust's shortest round-trip `{}` formatting; non-finite
//!   floats become `null` (JSON has no NaN/Inf),
//! - output is pretty-printed with two-space indentation and `\n`
//!   line endings.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exactly-representable signed integer.
    Int(i64),
    /// An exactly-representable unsigned integer (cycle counters).
    UInt(u64),
    /// A finite double (non-finite inputs serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Value>),
    /// An insertion-ordered object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object builder.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a field to an object. Calling this on a non-object is a
    /// programming error: it trips a `debug_assert!` in debug builds
    /// and is ignored in release builds (the document stays valid).
    pub fn push(&mut self, key: impl Into<String>, value: Value) -> &mut Value {
        match self {
            Value::Obj(fields) => fields.push((key.into(), value)),
            ref other => debug_assert!(false, "push on non-object {other:?}"),
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes the first object field named `key` and returns its
    /// value, so a decoder can move a subtree out instead of cloning it.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(fields) => {
                let i = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.remove(i).1)
            }
            _ => None,
        }
    }

    /// Array elements (empty for non-arrays).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Numeric view: `Int`/`UInt`/`Num` as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes the tree, pretty-printed, trailing newline included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes the tree on a single line with no whitespace — the
    /// framing used by the `occamyd` line-delimited wire protocol (one
    /// message per `\n`-terminated line; string escapes keep embedded
    /// newlines out of the payload). No trailing newline.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            // Scalars and empty containers print identically in both
            // layouts; reuse the pretty writer at depth 0.
            other => other.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    // Keep a fractional part so whole-valued floats
                    // parse back as Num, not UInt/Int (type-faithful
                    // round trips).
                    let _ = write!(out, "{n:.1}");
                } else {
                    // `{}` is Rust's shortest round-trip formatting.
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Failure class of a [`ParseError`], so protocol code can distinguish
/// resource-limit rejections from plain syntax errors without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed JSON text (bad token, trailing garbage, bad escape…).
    Syntax,
    /// The input ended inside a value (unterminated string/container or
    /// empty input) — typical of a truncated message.
    Truncated,
    /// The input exceeds [`Limits::max_bytes`]; nothing was parsed.
    Oversized,
    /// Containers nest deeper than [`Limits::max_depth`]. The recursive
    /// parser refuses rather than risking stack exhaustion.
    TooDeep,
}

impl ParseErrorKind {
    /// Stable machine-readable tag (used in protocol error replies).
    pub fn tag(self) -> &'static str {
        match self {
            ParseErrorKind::Syntax => "syntax",
            ParseErrorKind::Truncated => "truncated",
            ParseErrorKind::Oversized => "oversized",
            ParseErrorKind::TooDeep => "too_deep",
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
    /// Failure class (syntax, truncated, oversized, too deep).
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Resource limits enforced by [`parse_limited`]. Both bounds make the
/// parser's memory use O(`max_bytes`) and its recursion O(`max_depth`)
/// regardless of what an untrusted peer sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum input length in bytes; longer inputs are rejected with
    /// [`ParseErrorKind::Oversized`] before any allocation.
    pub max_bytes: usize,
    /// Maximum container nesting depth ([`ParseErrorKind::TooDeep`]).
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        // Generous for trusted experiment files, still bounded: the
        // deepest document the repo emits nests 6 levels.
        Limits { max_bytes: 1 << 30, max_depth: 128 }
    }
}

/// Parses a JSON document (the round-trip half of the golden tests)
/// under the default [`Limits`].
///
/// Numbers parse to [`Value::UInt`]/[`Value::Int`] when the text is an
/// exact integer, [`Value::Num`] otherwise — matching what the writer
/// emits.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    parse_limited(text, &Limits::default())
}

/// [`parse`] with explicit resource [`Limits`] — the entry point for
/// untrusted network input (the `occamyd` wire protocol).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed, truncated, oversized or
/// too-deeply-nested input.
pub fn parse_limited(text: &str, limits: &Limits) -> Result<Value, ParseError> {
    if text.len() > limits.max_bytes {
        return Err(ParseError {
            at: limits.max_bytes,
            message: format!(
                "input of {} bytes exceeds the {}-byte limit",
                text.len(),
                limits.max_bytes
            ),
            kind: ParseErrorKind::Oversized,
        });
    }
    let bytes = text.as_bytes();
    let mut p = Parser { text, bytes, pos: 0, depth_left: limits.max_depth };
    let value = p.value()?;
    let mut pos = p.pos;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> ParseError {
    ParseError { at, message: message.into(), kind: ParseErrorKind::Syntax }
}

fn err_kind(at: usize, message: impl Into<String>, kind: ParseErrorKind) -> ParseError {
    ParseError { at, message: message.into(), kind }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Recursive-descent state: `depth_left` decrements on every container
/// so adversarial nesting fails with a typed error instead of blowing
/// the stack.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth_left: usize,
}

impl Parser<'_> {
    fn eat(&mut self, token: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&token) {
            self.pos += 1;
            Ok(())
        } else if self.pos >= self.bytes.len() {
            Err(err_kind(
                self.pos,
                format!("expected '{}', got end of input", token as char),
                ParseErrorKind::Truncated,
            ))
        } else {
            Err(err(self.pos, format!("expected '{}'", token as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        skip_ws(self.bytes, &mut self.pos);
        match self.bytes.get(self.pos) {
            None => Err(err_kind(self.pos, "unexpected end of input", ParseErrorKind::Truncated)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.enter()?;
                self.pos += 1;
                let mut items = Vec::new();
                skip_ws(self.bytes, &mut self.pos);
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    self.leave();
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    skip_ws(self.bytes, &mut self.pos);
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.leave();
                            return Ok(Value::Arr(items));
                        }
                        Some(_) => return Err(err(self.pos, "expected ',' or ']'")),
                        None => {
                            return Err(err_kind(
                                self.pos,
                                "unterminated array",
                                ParseErrorKind::Truncated,
                            ))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.enter()?;
                self.pos += 1;
                let mut fields = Vec::new();
                skip_ws(self.bytes, &mut self.pos);
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    self.leave();
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(self.bytes, &mut self.pos);
                    let key = self.string()?;
                    skip_ws(self.bytes, &mut self.pos);
                    self.eat(b':')?;
                    let value = self.value()?;
                    fields.push((key, value));
                    skip_ws(self.bytes, &mut self.pos);
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.leave();
                            return Ok(Value::Obj(fields));
                        }
                        Some(_) => return Err(err(self.pos, "expected ',' or '}'")),
                        None => {
                            return Err(err_kind(
                                self.pos,
                                "unterminated object",
                                ParseErrorKind::Truncated,
                            ))
                        }
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth_left == 0 {
            return Err(err_kind(
                self.pos,
                "containers nest too deeply",
                ParseErrorKind::TooDeep,
            ));
        }
        self.depth_left -= 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth_left += 1;
    }

    fn keyword(&mut self, keyword: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(err(self.pos, format!("expected '{keyword}'")))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.bytes.get(self.pos) {
                None => {
                    return Err(err_kind(
                        self.pos,
                        "unterminated string",
                        ParseErrorKind::Truncated,
                    ))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: the run stopped at one of the two.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| {
                                    err_kind(
                                        self.pos,
                                        "truncated \\u escape",
                                        ParseErrorKind::Truncated,
                                    )
                                })?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(self.pos, "non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(self.pos, "bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        Some(_) => return Err(err(self.pos, "bad escape")),
                        None => {
                            return Err(err_kind(
                                self.pos,
                                "truncated escape",
                                ParseErrorKind::Truncated,
                            ))
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        // The scan above only accepts ASCII, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if text.is_empty() {
            return Err(err(start, "expected a value"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| err(start, "malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_deterministically() {
        let mut doc = Value::obj();
        doc.push("name", Value::Str("fig10".into()))
            .push("cycles", Value::UInt(123_456_789_012))
            .push("util", Value::Num(0.8425))
            .push("nan", Value::Num(f64::NAN))
            .push("flags", Value::Arr(vec![Value::Bool(true), Value::Null]));
        let a = doc.render();
        let b = doc.render();
        assert_eq!(a, b);
        assert!(a.contains("\"cycles\": 123456789012"));
        assert!(a.contains("\"nan\": null"));
    }

    #[test]
    fn round_trip_preserves_structure_and_numbers() {
        let mut doc = Value::obj();
        doc.push("s", Value::Str("a \"quoted\" line\nwith\ttabs".into()))
            .push("i", Value::Int(-42))
            .push("u", Value::UInt(u64::MAX))
            .push("f", Value::Num(1.0 / 3.0))
            .push("arr", Value::Arr(vec![Value::UInt(1), Value::Num(2.5), Value::Str("x".into())]))
            .push("empty_arr", Value::Arr(vec![]))
            .push("empty_obj", Value::obj());
        let text = doc.render();
        let back = parse(&text).expect("parse own output");
        assert_eq!(back, doc);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for f in [0.1, 1e-12, 123456.789, 2.0f64.powi(60), 0.842_517_3] {
            let text = Value::Num(f).render();
            let back = parse(text.trim()).expect("parse");
            assert_eq!(back.as_f64(), Some(f), "{f} mangled through {text}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = parse("\"caf\\u00e9 🦀\"").expect("parse");
        assert_eq!(v.as_str(), Some("café 🦀"));
    }

    #[test]
    fn truncated_input_is_typed() {
        for text in ["", "{", "[1,", "\"abc", "{\"a\":", "\"esc\\", "\"u\\u00"] {
            let e = parse(text).expect_err(text);
            assert_eq!(e.kind, ParseErrorKind::Truncated, "{text:?} → {e}");
        }
        // Syntax errors stay syntax errors.
        assert_eq!(parse("[1,]").unwrap_err().kind, ParseErrorKind::Syntax);
        assert_eq!(parse("12 34").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn oversized_input_is_rejected_before_parsing() {
        let limits = Limits { max_bytes: 8, max_depth: 128 };
        let e = parse_limited("[1,2,3,4,5]", &limits).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Oversized);
        assert!(parse_limited("[1,2]", &limits).is_ok());
    }

    #[test]
    fn deep_nesting_is_refused_not_overflowed() {
        let deep: String = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        let mut ok = "1".to_string();
        for _ in 0..100 {
            ok = format!("[{ok}]");
        }
        assert!(parse(&ok).is_ok(), "100 levels are within the default limit");
        let e = parse_limited(&ok, &Limits { max_bytes: 1 << 20, max_depth: 10 }).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
    }

    #[test]
    fn compact_render_round_trips_and_stays_on_one_line() {
        let mut doc = Value::obj();
        doc.push("s", Value::Str("line\nbreak \"q\"".into()))
            .push("u", Value::UInt(7))
            .push("arr", Value::Arr(vec![Value::Bool(false), Value::Null, Value::Num(0.5)]))
            .push("empty_arr", Value::Arr(vec![]))
            .push("empty_obj", Value::obj());
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact output must be newline-free: {line:?}");
        assert_eq!(parse(&line).expect("parse compact"), doc);
        assert_eq!(line, "{\"s\":\"line\\nbreak \\\"q\\\"\",\"u\":7,\"arr\":[false,null,0.5],\"empty_arr\":[],\"empty_obj\":{}}");
    }

    #[test]
    fn multibyte_utf8_next_to_every_escape_round_trips() {
        // 2-, 3- and 4-byte UTF-8 on both sides of each escape the writer emits.
        for wide in ["é", "€", "🦀"] {
            for escaped in ["\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}"] {
                let s = format!("{wide}{escaped}{wide}{escaped}{escaped}{wide}");
                let doc = Value::Arr(vec![Value::Str(s.clone()), Value::Str(s)]);
                assert_eq!(parse(&doc.render_compact()).expect("compact"), doc);
                assert_eq!(parse(&doc.render()).expect("pretty"), doc);
            }
        }
        // Escapes only the parser reads.
        let v = parse(r#""é\/€\b🦀\f\u00e9é\u20ac€🦀""#).expect("parse");
        assert_eq!(v.as_str(), Some("é/€\u{8}🦀\u{c}éé€€🦀"));
    }

    #[test]
    fn a_string_longer_than_64_kib_round_trips() {
        let s: String = "aé€🦀\"\\\n".chars().cycle().take(40_000).collect();
        assert!(s.len() >= 64 * 1024);
        let doc = Value::Str(s);
        assert_eq!(parse(&doc.render_compact()).expect("parse"), doc);
    }

    #[test]
    fn every_cut_of_a_string_document_is_truncated_at_a_fixed_offset() {
        let doc = r#"{"k\"é":["a€\\b","🦀\n\u00e9x",{"":"\/"}],"z":"tail"}"#;
        assert!(parse(doc).is_ok());
        // A cut inside `\u00e9` reports the `u`; any other cut, its own offset.
        let u = doc.find("\\u").expect("has a \\u escape") + 1;
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let e = parse(&doc[..cut]).expect_err("a proper prefix is incomplete");
            assert_eq!(e.kind, ParseErrorKind::Truncated, "cut at {cut}: {e}");
            let at = if (u + 1..u + 5).contains(&cut) { u } else { cut };
            assert_eq!(e.at, at, "cut at {cut}: {e}");
        }
    }
}
