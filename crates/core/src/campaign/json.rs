//! The campaign subsystem's dependency-free JSON layer.
//!
//! The workspace is offline (no serde), so scenario and campaign files
//! go through this mini parser/serializer, in the spirit of
//! `manet-lint`'s TOML-subset reader. Two properties matter more than
//! generality:
//!
//! * **Diagnosable input**: every parsed node remembers its source
//!   line, duplicate object keys are rejected, and trailing garbage is
//!   an error — so `spec.rs` can say *which key on which line* is
//!   wrong.
//! * **Canonical output**: [`canonical`] renders any value with sorted
//!   object keys, fixed float formatting, and two-space indentation,
//!   so equal values serialize to equal bytes. Campaign reports lean on
//!   this for their byte-identity guarantee.

use std::fmt;

/// A parsed JSON value plus the source line it started on (0 for
/// programmatically built values).
#[derive(Clone, Debug, PartialEq)]
pub struct Json {
    pub line: u32,
    pub v: Val,
}

/// The value alternatives. Numbers are `f64` like real JSON; integers
/// survive exactly up to 2^53, far beyond any knob in the format.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered; duplicate keys are rejected at parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn null() -> Self {
        Json {
            line: 0,
            v: Val::Null,
        }
    }
    pub fn bool(b: bool) -> Self {
        Json {
            line: 0,
            v: Val::Bool(b),
        }
    }
    pub fn num(n: f64) -> Self {
        Json {
            line: 0,
            v: Val::Num(n),
        }
    }
    pub fn str(s: impl Into<String>) -> Self {
        Json {
            line: 0,
            v: Val::Str(s.into()),
        }
    }
    pub fn arr(items: Vec<Json>) -> Self {
        Json {
            line: 0,
            v: Val::Arr(items),
        }
    }
    pub fn obj(members: Vec<(String, Json)>) -> Self {
        Json {
            line: 0,
            v: Val::Obj(members),
        }
    }

    /// Object member lookup (None on non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match &self.v {
            Val::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self.v {
            Val::Null => "null",
            Val::Bool(_) => "bool",
            Val::Num(_) => "number",
            Val::Str(_) => "string",
            Val::Arr(_) => "array",
            Val::Obj(_) => "object",
        }
    }
}

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: campaign documents are a few levels deep; anything
/// past this is malformed input, not a real scenario.
const MAX_DEPTH: u32 = 64;

/// Parse one JSON document. Strict: duplicate object keys, trailing
/// characters, and depth past [`MAX_DEPTH`] are errors.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == want => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(self.err(format!(
                "expected '{}', found '{}'",
                want as char, b as char
            ))),
            None => Err(self.err(format!("expected '{}', found end of input", want as char))),
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        let line = self.line;
        let v = match self.peek() {
            Some(b'{') => self.object(depth)?,
            Some(b'[') => self.array(depth)?,
            Some(b'"') => Val::Str(self.string()?),
            Some(b't' | b'f') => self.literal()?,
            Some(b'n') => self.literal()?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(b) => return Err(self.err(format!("unexpected character '{}'", b as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        Ok(Json { line, v })
    }

    fn object(&mut self, depth: u32) -> Result<Val, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Val::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a '\"'-quoted object key"));
            }
            let key_line = self.line;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    line: key_line,
                    col: self.col,
                    msg: format!("duplicate key \"{key}\""),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(Val::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Val, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Val::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(Val::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn literal(&mut self) -> Result<Val, JsonError> {
        for (word, val) in [
            ("true", Val::Bool(true)),
            ("false", Val::Bool(false)),
            ("null", Val::Null),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                for _ in 0..word.len() {
                    self.bump();
                }
                return Ok(val);
            }
        }
        Err(self.err("expected true, false, or null"))
    }

    fn number(&mut self) -> Result<Val, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            saw_digit = true;
            self.bump();
        }
        if self.peek() == Some(b'.') {
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if !saw_digit {
            return Err(self.err("malformed number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        text.parse::<f64>()
            .map(Val::Num)
            .map_err(|_| self.err(format!("malformed number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pair handling for completeness.
                        if (0xd800..0xdc00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let low = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?,
                            );
                        } else {
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // remaining continuation bytes are valid; re-decode.
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..width {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }
}

/// Render a value canonically: object keys sorted, arrays in order,
/// two-space indentation, numbers via [`canon_num`], and a trailing
/// newline. Equal values ⇒ equal bytes, on every platform.
pub fn canonical(j: &Json) -> String {
    let mut out = String::new();
    write_value(j, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(j: &Json, indent: usize, out: &mut String) {
    match &j.v {
        Val::Null => out.push_str("null"),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Num(n) => out.push_str(&canon_num(*n)),
        Val::Str(s) => write_string(s, out),
        Val::Arr(items) => {
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
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Val::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            let mut order: Vec<usize> = (0..members.len()).collect();
            order.sort_by(|&a, &b| members[a].0.cmp(&members[b].0));
            out.push('{');
            for (i, &e) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(indent + 1, out);
                write_string(&members[e].0, out);
                out.push_str(": ");
                write_value(&members[e].1, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The one float formatting campaign artifacts use: `null` for
/// non-finite values (mirroring `RunReport::to_json`), integer form for
/// integral values, else six decimal places with trailing zeros trimmed
/// (at least one decimal digit kept, so floats stay visually floats).
pub fn canon_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        // Integral (covers -0.0 → "0"): render without a decimal point.
        return format!("{}", v as i64);
    }
    let mut s = format!("{v:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// Render a value on one line (insertion order kept) — for error
/// messages and table cells, not for canonical artifacts.
pub fn compact(j: &Json) -> String {
    let quoted = |s: &str| {
        let mut out = String::new();
        write_string(s, &mut out);
        out
    };
    match &j.v {
        Val::Null => "null".to_string(),
        Val::Bool(b) => b.to_string(),
        Val::Num(n) => canon_num(*n),
        Val::Str(s) => quoted(s),
        Val::Arr(items) => {
            let body: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", body.join(", "))
        }
        Val::Obj(members) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", quoted(k), compact(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
    }
}

/// Deep-merge `over` onto `base`: objects merge key-wise recursively,
/// everything else (including arrays) is replaced wholesale. This is
/// the campaign spec/source split — a defaults document plus an
/// override document become one effective scenario.
pub fn merge(base: &Json, over: &Json) -> Json {
    match (&base.v, &over.v) {
        (Val::Obj(b), Val::Obj(o)) => {
            let mut members: Vec<(String, Json)> = b.clone();
            for (k, ov) in o {
                match members.iter_mut().find(|(ek, _)| ek == k) {
                    Some((_, ev)) => *ev = merge(ev, ov),
                    None => members.push((k.clone(), ov.clone())),
                }
            }
            Json {
                line: over.line,
                v: Val::Obj(members),
            }
        }
        _ => over.clone(),
    }
}

/// Set a dotted path (e.g. `"scenario.radio.loss"`) inside a document,
/// creating intermediate objects as needed. Errors if an intermediate
/// step exists but is not an object.
pub fn set_path(doc: &mut Json, path: &str, value: Json) -> Result<(), String> {
    let mut cur = doc;
    let parts: Vec<&str> = path.split('.').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(format!("malformed path \"{path}\""));
    }
    for (i, part) in parts.iter().enumerate() {
        let last = i + 1 == parts.len();
        let members = match &mut cur.v {
            Val::Obj(members) => members,
            _ => {
                return Err(format!(
                    "path \"{path}\" crosses a non-object at \"{}\"",
                    parts[..i].join(".")
                ))
            }
        };
        let idx = match members.iter().position(|(k, _)| k == part) {
            Some(idx) => idx,
            None => {
                members.push((part.to_string(), Json::obj(Vec::new())));
                members.len() - 1
            }
        };
        if last {
            members[idx].1 = value;
            return Ok(());
        }
        cur = &mut members[idx].1;
    }
    unreachable!("paths have at least one part")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let j = parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e1}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().v, Val::Num(1.0));
        match &j.get("b").unwrap().v {
            Val::Arr(items) => {
                assert_eq!(items[0].v, Val::Bool(true));
                assert_eq!(items[1].v, Val::Null);
                assert_eq!(items[2].v, Val::Str("x\n".into()));
            }
            other => panic!("not an array: {other:?}"),
        }
        assert_eq!(j.get("c").unwrap().get("d").unwrap().v, Val::Num(-25.0));
    }

    #[test]
    fn records_source_lines() {
        let j = parse("{\n  \"a\": 1,\n  \"b\": {\n    \"c\": 2\n  }\n}").unwrap();
        assert_eq!(j.line, 1);
        assert_eq!(j.get("a").unwrap().line, 2);
        assert_eq!(j.get("b").unwrap().get("c").unwrap().line, 4);
    }

    #[test]
    fn rejects_duplicates_trailing_garbage_and_bad_escapes() {
        let e = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(e.msg.contains("duplicate key \"a\""), "{e}");
        let e = parse("{} junk").unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
        let e = parse(r#"{"a": "\q"}"#).unwrap_err();
        assert!(e.msg.contains("escape"), "{e}");
        let e = parse("{\"a\": 1,\n \"b\": tru}").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn canonical_sorts_keys_and_is_stable() {
        let a = parse(r#"{"b": 1, "a": {"z": [1, 2], "y": 0.5}}"#).unwrap();
        let b = parse(r#"{"a": {"y": 0.5, "z": [1, 2]}, "b": 1}"#).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        assert!(canonical(&a).ends_with('\n'));
        // Re-parsing the canonical form round-trips.
        let re = parse(&canonical(&a)).unwrap();
        assert_eq!(canonical(&re), canonical(&a));
    }

    #[test]
    fn compact_escapes_keys_like_canonical_does() {
        let j = Json::obj(vec![("a\"b".into(), Json::num(1.0))]);
        assert_eq!(compact(&j), r#"{"a\"b": 1}"#);
        assert!(parse(&compact(&j)).unwrap().get("a\"b").is_some());
    }

    #[test]
    fn canon_num_is_fixed_format() {
        assert_eq!(canon_num(3.0), "3");
        assert_eq!(canon_num(-0.0), "0");
        assert_eq!(canon_num(0.95), "0.95");
        assert_eq!(canon_num(0.123456789), "0.123457");
        assert_eq!(canon_num(f64::NAN), "null");
        assert_eq!(canon_num(f64::INFINITY), "null");
    }

    #[test]
    fn merge_is_keywise_deep() {
        let base = parse(r#"{"a": {"x": 1, "y": 2}, "b": [1], "c": 3}"#).unwrap();
        let over = parse(r#"{"a": {"y": 9}, "b": [7, 8]}"#).unwrap();
        let m = merge(&base, &over);
        assert_eq!(m.get("a").unwrap().get("x").unwrap().v, Val::Num(1.0));
        assert_eq!(m.get("a").unwrap().get("y").unwrap().v, Val::Num(9.0));
        match &m.get("b").unwrap().v {
            Val::Arr(items) => assert_eq!(items.len(), 2),
            other => panic!("arrays replace wholesale: {other:?}"),
        }
        assert_eq!(m.get("c").unwrap().v, Val::Num(3.0));
    }

    #[test]
    fn set_path_creates_and_overwrites() {
        let mut doc = Json::obj(Vec::new());
        set_path(&mut doc, "scenario.radio.loss", Json::num(0.05)).unwrap();
        assert_eq!(
            doc.get("scenario")
                .unwrap()
                .get("radio")
                .unwrap()
                .get("loss")
                .unwrap()
                .v,
            Val::Num(0.05)
        );
        set_path(&mut doc, "scenario.radio.loss", Json::num(0.1)).unwrap();
        assert_eq!(
            doc.get("scenario")
                .unwrap()
                .get("radio")
                .unwrap()
                .get("loss")
                .unwrap()
                .v,
            Val::Num(0.1)
        );
        let e = set_path(&mut doc, "scenario.radio.loss.deeper", Json::null()).unwrap_err();
        assert!(e.contains("non-object"), "{e}");
    }
}
