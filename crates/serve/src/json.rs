//! A minimal JSON value model, parser, and writer.
//!
//! The workspace is dependency-free by policy (the build container has no
//! crates.io access), so the service hand-rolls the little JSON it needs,
//! the same way the experiment reports hand-roll their emitters. The
//! dialect is deliberately strict:
//!
//! * numbers must be finite (`1e999` is rejected, not folded to `inf`);
//! * object keys must be unique — duplicate keys would make the
//!   canonical-hash contract ambiguous (see [`crate::canon`]);
//! * nesting depth is bounded, so a hostile request cannot blow the
//!   parser's stack.
//!
//! Objects preserve insertion order as a `Vec` of pairs rather than a
//! hash map: iteration order stays deterministic (the workspace bans
//! randomized-order containers in deterministic crates, GN01) and the
//! canonicalizer re-sorts keys itself.

use crate::error::ServeError;
use greednet_telemetry::push_json_string;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs (keys unique).
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON spliced verbatim by the writer (used to embed
    /// an already-rendered experiment report without re-parsing it).
    /// Never produced by the parser.
    Raw(String),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The value as object pairs, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        }
    }

    /// Compact single-line rendering (no spaces, keys in stored order).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&write_f64(*x)),
            Json::Str(s) => push_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            Json::Raw(body) => out.push_str(body),
        }
    }
}

/// Renders an `f64` as JSON: shortest-roundtrip `Display`, with a `.0`
/// marker appended to integral values so the token stays a float, and
/// `null` for non-finite values (mirrors the experiment-report emitter).
#[must_use]
pub fn write_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Parses one JSON document; trailing content other than whitespace is an
/// error.
///
/// # Errors
/// [`ServeError::Parse`] with a byte offset and description.
pub fn parse(input: &str) -> Result<Json, ServeError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ServeError {
        ServeError::Parse(format!("at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ServeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, ServeError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, ServeError> {
        self.eat(b'[')?;
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

    fn object(&mut self, depth: u32) -> Result<Json, ServeError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!(
                    "duplicate object key {key:?} (ambiguous under the canonical hash)"
                )));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ServeError> {
        self.eat(b'"')?;
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar; input is a &str so the bytes
                    // are valid UTF-8 by construction.
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0b1100_0000 == 0b1000_0000) {
                        self.pos += 1;
                    }
                    if let Some(chunk) = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                    {
                        out.push_str(chunk);
                    } else {
                        return Err(self.err("invalid UTF-8 sequence"));
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ServeError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, ServeError> {
        let first = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // an escaped low surrogate.
        let code = if (0xD800..0xDC00).contains(&first) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.eat(b'u')
                    .map_err(|_| self.err("high surrogate not followed by \\u"))?;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err(self.err("lone high surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode scalar"))
    }

    fn number(&mut self) -> Result<Json, ServeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .ok_or_else(|| self.err("bad number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("invalid number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.err(&format!("non-finite number {text:?}")));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = parse(r#"{"b":[1,2],"a":{"x":null}}"#).unwrap();
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(v.get("a").and_then(|a| a.get("x")).is_some());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "{\"a\":}",
            "1 2",
            "\"\\q\"",
            "1e999",
            "{\"a\":1,\"a\":2}",
            "nan",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("😀".into()));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn compact_rendering_round_trips() {
        let src = r#"{"name":"x","vals":[1.5,2.0,-0.25],"flag":false,"none":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_compact(), src);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn float_writer_keeps_decimal_marker() {
        assert_eq!(write_f64(2.0), "2.0");
        assert_eq!(write_f64(0.5), "0.5");
        assert_eq!(write_f64(f64::NAN), "null");
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::Obj(vec![("r".into(), Json::Raw("{\"x\":1}".into()))]);
        assert_eq!(v.to_compact(), "{\"r\":{\"x\":1}}");
    }
}
