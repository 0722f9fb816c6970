//! The one JSON layer under every artifact the workspace writes or reads:
//! `results/BENCH_*.json`, `results/numeric_ape.json`, the analyze
//! diagnostics report and the Chrome trace-event exports.
//!
//! Producers build a [`Json`] tree and call [`Json::write`]; `bench_check`
//! reads artifacts back with [`parse`]. Two choices keep a written
//! artifact and its parse the same tree:
//!
//! - **Numbers keep their literal text** ([`Json::Num`] holds a `String`).
//!   A producer fixes the digits once ([`Json::fixed`], integer `From`
//!   impls) and a reader's [`Json::as_f64`] parses exactly those digits,
//!   so an exact gate compares the same bits on both sides.
//! - **Objects keep member order** (a `Vec`, not a map), so an artifact's
//!   key order is the order its producer wrote.
//!
//! The workspace takes no external dependencies; the reader is the RFC
//! 8259 subset the artifacts use, for trusted in-repo files — errors carry
//! a byte offset for debugging, not recovery.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from a fixed member list, in that order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// `x` with `decimals` digits after the point (`format!("{x:.d$}")`);
    /// `null` when `x` is not finite, which JSON cannot spell.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other variants).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value: the literal text parsed as `f64` (`None` for
    /// other variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The string value (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value (`None` for other variants).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The document text, with a trailing newline.
    ///
    /// One layout: the root, every array holding a non-empty container
    /// and every object with such an array below it are expanded, one
    /// member per line, indented by two spaces; every other container sits
    /// on one line. So a BENCH run, an analyze finding and a Chrome event
    /// each take one line.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_at(0, true, &mut out);
        out.push('\n');
        out
    }

    /// A scalar, or a container with no members.
    fn is_leaf(&self) -> bool {
        match self {
            Json::Arr(v) => v.is_empty(),
            Json::Obj(m) => m.is_empty(),
            _ => true,
        }
    }

    /// Whether this value is written on one line below the root.
    fn is_inline(&self) -> bool {
        match self {
            Json::Arr(v) => v.iter().all(Json::is_leaf),
            Json::Obj(m) => m.iter().all(|(_, v)| v.is_inline()),
            _ => true,
        }
    }

    fn write_at(&self, indent: usize, root: bool, out: &mut String) {
        let expand = root || !self.is_inline();
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Arr(v) if expand && !v.is_empty() => {
                ('[', ']', v.iter().map(|x| (None, x)).collect())
            }
            Json::Obj(m) if expand && !m.is_empty() => (
                '{',
                '}',
                m.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(),
            ),
            _ => return self.write_inline(out),
        };
        out.push(open);
        for (i, (key, x)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
            if let Some(k) = key {
                write_str(k, out);
                out.push_str(": ");
            }
            x.write_at(indent + 2, false, out);
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }

    fn write_inline(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    x.write_inline(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, x)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    x.write_inline(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal: quote, backslash and every ASCII
/// control character escaped, everything else verbatim.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Where and why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What the parser expected or found.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Nesting deeper than this is rejected (keeps recursion bounded on
/// corrupt input).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let s = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in the artifacts this
                            // reader targets; map them to the replacement
                            // character rather than decoding pairs.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not just one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
          "bench": "step_latency",
          "host_cpus": 4,
          "datasets": [
            {"name": "M420", "runs": [{"threads": 1, "sim_numeric_s": 0.028453177,
             "sim_cycles": 28453177, "ok": true, "skipped": null}]}
          ]
        }"#;
        let v = parse(doc).expect("parse");
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("step_latency"));
        assert_eq!(v.get("host_cpus").and_then(Json::as_f64), Some(4.0));
        let run = &v.get("datasets").and_then(Json::as_arr).expect("arr")[0]
            .get("runs")
            .and_then(Json::as_arr)
            .expect("arr")[0];
        assert_eq!(
            run.get("sim_numeric_s").and_then(Json::as_f64),
            Some(0.028453177)
        );
        assert_eq!(
            run.get("sim_numeric_s"),
            Some(&Json::Num("0.028453177".into()))
        );
        assert_eq!(run.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(run.get("skipped"), Some(&Json::Null));
        // Members stay in document order.
        let Json::Obj(members) = &v else {
            panic!("root is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "host_cpus", "datasets"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA é""#).expect("parse");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA é"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1.2.3", "[1] x", "\"abc",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn written_documents_parse_back_to_the_same_tree() {
        let hostile = "q\"b\\s\nn\tt\u{1}c é ∑";
        let doc = Json::obj([
            ("name", hostile.into()),
            (hostile, Json::fixed(0.1 + 0.2, 9)),
            ("e", Json::Num(format!("{:.3e}", 1.5e-7))),
            ("zero_e", Json::Num(format!("{:.3e}", 0.0))),
            ("negative", Json::fixed(-2.5, 4)),
            ("whole", Json::fixed(28453177.4, 0)),
            ("int", u64::MAX.into()),
            ("nan", Json::fixed(f64::NAN, 3)),
            ("none", Option::<bool>::None.into()),
            ("some", Some(false).into()),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            ("scalars", vec![1u64, 2, 3].into()),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k", Json::obj([("deep", vec!["x", "y"].into())]))]),
                    Json::Arr(vec![Json::Arr(Vec::new()), Json::obj([])]),
                    Json::Arr(vec![Json::Arr(vec![Json::Null])]),
                ]),
            ),
        ]);
        let text = doc.write();
        assert_eq!(parse(&text), Ok(doc.clone()), "{text}");
        assert!(text.ends_with("}\n"));
        assert_eq!(doc.get("nan"), Some(&Json::Null));
        assert_eq!(doc.get("whole"), Some(&Json::Num("28453177".into())));
        assert_eq!(doc.get("e").and_then(Json::as_f64), Some(1.5e-7));
        // Control characters are escaped; non-ASCII is written verbatim.
        assert!(text.contains(r#""q\"b\\s\nn\tt\u0001c é ∑""#), "{text}");
        // Arrays of scalars and flat objects sit on one line.
        assert!(text.contains("\n  \"scalars\": [1, 2, 3],\n"), "{text}");
        assert!(text.contains("\n    {\"k\": {\"deep\": [\"x\", \"y\"]}},\n"));
        assert_eq!(Json::Arr(Vec::new()).write(), "[]\n");
    }
}
