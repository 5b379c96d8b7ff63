//! The workspace's JSON codec: a strict reader ([`JsonValue`]) and a
//! writer ([`JsonWriter`]), both dependency-free.
//!
//! The workspace builds without crates.io, so it carries its own. The
//! reader accepts strict RFC 8259 syntax, holds numbers as
//! `f64` and objects as ordered key/value vectors, and offers typed field
//! getters for the schema decoders. The writer owns the format every
//! emitter shares, so one rule set decides the bytes of every result,
//! dump, journal, report and wire line:
//!
//! - strings escape the quote, the backslash, newline, tab and carriage
//!   return by name (`\"`, `\\`, `\n`, `\t`, `\r`) and every other control
//!   character as `\u00xx` ([`write_str`]);
//! - floats print in Rust's shortest round-trip form, and NaN and the
//!   infinities, which JSON cannot express, print as `null`
//!   ([`JsonWriter::f64`]); the reader maps `null` back to NaN;
//! - members and elements are separated by a bare `,`, keys by a bare
//!   `:`, with no whitespace.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (no trailing garbage).
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        let v = parse_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Object member lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The number value truncated to an unsigned integer, if this is a
    /// number (the reader holds every number as `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// The elements as unsigned integers, if this is an array of exactly
    /// `N` numbers (the fixed-width rows of the dump formats).
    pub fn as_u64_array<const N: usize>(&self) -> Option<[u64; N]> {
        let cells = self.as_array().filter(|c| c.len() == N)?;
        let mut out = [0u64; N];
        for (o, c) in out.iter_mut().zip(cells) {
            *o = c.as_u64()?;
        }
        Some(out)
    }

    /// Member `key` read through `typed`; absent and mistyped members
    /// share the one "missing field" error every schema decoder reports.
    fn member<'a, T>(
        &'a self,
        key: &str,
        typed: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(typed)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Member `key`, which must be present.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.member(key, Some)
    }

    /// Member `key` as an unsigned integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.member(key, JsonValue::as_u64)
    }

    /// Member `key` as a number, mapping `null` (how [`JsonWriter::f64`]
    /// encodes NaN and the infinities) back to NaN.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.member(key, |v| v.as_f64().or(v.is_null().then_some(f64::NAN)))
    }

    /// Member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.member(key, JsonValue::as_str)
    }

    /// Member `key` as an array.
    pub fn array_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.member(key, JsonValue::as_array)
    }

    /// Member `key` as a number, with `null`, missing keys and
    /// non-numbers all read as NaN.
    pub fn num_or_nan(&self, key: &str) -> f64 {
        self.f64_field(key).unwrap_or(f64::NAN)
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so each split point is a
    // char boundary.
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if named.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(named);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Builds one compact JSON document, inserting the separators itself.
///
/// Values written in a row become array elements or object members;
/// [`JsonWriter::key`] names the next value. Nested containers are
/// written by closures, so every container the writer opens it closes:
///
/// ```
/// use noc_obs::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.obj(|w| {
///     w.key("id").str("c1").key("rates").arr(|w| {
///         w.f64(0.1).f64(f64::NAN);
///     });
/// });
/// assert_eq!(w.finish(), r#"{"id":"c1","rates":[0.1,null]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next member or element needs a `,` before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// One object document whose members `f` writes.
    pub fn object(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        w.obj(f);
        w.finish()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Ends a JSON Lines record: the next value starts a new top-level
    /// document on the next line.
    pub fn newline(&mut self) -> &mut Self {
        self.out.push('\n');
        self.comma = false;
        self
    }

    /// Names the next value as an object member.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.out, s);
        self
    }

    /// A float value: shortest round-trip form, or `null` for NaN and
    /// the infinities, which JSON cannot express.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.raw("null");
        }
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// An unsigned integer value, or `null` for `None`.
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.raw("null"),
        }
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// An already-encoded JSON value, embedded verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.out.push_str(json);
        self
    }

    /// An object whose members `f` writes.
    pub fn obj(&mut self, f: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.container('{', '}', f)
    }

    /// An array whose elements `f` writes.
    pub fn arr(&mut self, f: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.container('[', ']', f)
    }

    /// An array of unsigned integers.
    pub fn u64s(&mut self, vs: impl IntoIterator<Item = u64>) -> &mut Self {
        self.arr(|w| {
            for v in vs {
                w.u64(v);
            }
        })
    }

    fn container(&mut self, open: char, close: char, f: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.sep();
        self.out.push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

/// Checks that `s` is one well-formed JSON document (no extensions, no
/// trailing garbage). Used by tests to prove the Chrome trace and JSON
/// summaries are well-formed without an external parser.
pub fn validate_json(s: &str) -> Result<(), String> {
    JsonValue::parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

/// Deepest array/object nesting the reader accepts. The reader recurses
/// once per level, so an unbounded depth lets one short line of `[`
/// overflow the stack; the deepest document this workspace writes (a
/// bench report) nests six levels.
pub const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if matches!(b.get(*i), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {i}"
        ));
    }
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            let mut members = Vec::new();
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                members.push((key, parse_value(b, i, depth + 1)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            let mut items = Vec::new();
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                skip_ws(b, i);
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i).map(JsonValue::Str),
        Some(b't') => parse_lit(b, i, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, i, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, i, "null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string());
            }
            b'\\' => match b.get(*i + 1) {
                Some(&e @ (b'"' | b'\\' | b'/')) => {
                    out.push(e);
                    *i += 2;
                }
                Some(b'b') => {
                    out.push(0x08);
                    *i += 2;
                }
                Some(b'f') => {
                    out.push(0x0c);
                    *i += 2;
                }
                Some(b'n') => {
                    out.push(b'\n');
                    *i += 2;
                }
                Some(b'r') => {
                    out.push(b'\r');
                    *i += 2;
                }
                Some(b't') => {
                    out.push(b'\t');
                    *i += 2;
                }
                Some(b'u') => {
                    if b.len() < *i + 6 || !b[*i + 2..*i + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}"));
                    }
                    let code = std::str::from_utf8(&b[*i + 2..*i + 6])
                        .ok()
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                    // Surrogates are passed through as the replacement
                    // character; nothing in this workspace emits them.
                    let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    *i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}")),
            },
            0x00..=0x1f => return Err(format!("control character in string at byte {i}")),
            _ => {
                out.push(c);
                *i += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<JsonValue, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("unparsable number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            "{\"a\": [1, 2.5, -3e2, true, false, null, \"x\\ny\"], \"b\": {\"c\": 7}}",
        )
        .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert!(a[5].is_null());
        assert_eq!(a[6].as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn null_maps_to_nan() {
        let v = JsonValue::parse("{\"x\": null, \"y\": 4}").unwrap();
        assert!(v.num_or_nan("x").is_nan());
        assert!(v.num_or_nan("missing").is_nan());
        assert_eq!(v.num_or_nan("y"), 4.0);
    }

    #[test]
    fn typed_getters_share_one_missing_field_error() {
        let v = JsonValue::parse(r#"{"n": 3, "x": null, "s": "t", "a": [1, 2]}"#).unwrap();
        assert_eq!(v.u64_field("n"), Ok(3));
        assert!(v.f64_field("x").unwrap().is_nan());
        assert_eq!(v.str_field("s"), Ok("t"));
        assert_eq!(v.field("a").unwrap().as_u64_array(), Some([1, 2]));
        assert_eq!(v.field("a").unwrap().as_u64_array::<3>(), None);
        for err in [
            v.u64_field("s").unwrap_err(),
            v.str_field("gone").unwrap_err(),
            v.array_field("n").map(|_| ()).unwrap_err(),
        ] {
            assert!(err.starts_with("missing field"), "{err}");
        }
    }

    #[test]
    fn writer_escapes_every_control_character_and_round_trips() {
        let all: String = (0u8..0x80).map(char::from).chain("é→😀".chars()).collect();
        let mut w = JsonWriter::new();
        w.str(&all);
        let doc = w.finish();
        for escaped in [
            r#""\u0000\u0001"#,
            r"\t\n\u000b\u000c\r\u000e",
            r##"!\"#"##,
            r"[\\]",
        ] {
            assert!(doc.contains(escaped), "{escaped} missing from {doc}");
        }
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(all.as_str()));
    }

    #[test]
    fn writer_inserts_separators_and_maps_non_finite_to_null() {
        let doc = JsonWriter::object(|w| {
            w.key("a").u64s([1, 2]);
            w.key("b").obj(|w| {
                w.key("c").f64(f64::INFINITY).key("d").f64(-0.5);
            });
            w.key("e")
                .opt_u64(None)
                .key("f")
                .bool(true)
                .key("g")
                .raw("{}");
        });
        assert_eq!(
            doc,
            r#"{"a":[1,2],"b":{"c":null,"d":-0.5},"e":null,"f":true,"g":{}}"#
        );
        let mut lines = JsonWriter::new();
        lines.u64(1).newline().str("x").newline();
        assert_eq!(lines.finish(), "1\n\"x\"\n");
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse("\"caf\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{}extra",
            "{'a':1}",
            "nul",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        // 200 000 `[` fit under the serve request cap; the reader recurses
        // once per level, so without the cap this overflows the stack.
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(200_000);
            let err = JsonValue::parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(JsonValue::parse(&past_cap).is_err());
    }
}
