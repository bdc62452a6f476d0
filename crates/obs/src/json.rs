//! Minimal JSON value model, emitter, and parser.
//!
//! The workspace has no serde (offline build), so run reports and traces
//! are emitted and re-read through this hand-rolled implementation. It
//! supports the full JSON grammar except that numbers are held as `f64`
//! (plus an exact `i64` fast path for integers, which covers every counter
//! this crate emits below 2^53).

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Integer-valued number, emitted without a decimal point.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Insertion-ordered object (key order is preserved on round-trip).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Number constructor that preserves integer-ness when exact.
    pub fn num(x: f64) -> JsonValue {
        if x.fract() == 0.0 && x.abs() < 9.0e15 {
            JsonValue::Int(x as i64)
        } else {
            JsonValue::Num(x)
        }
    }

    pub fn uint(x: u64) -> JsonValue {
        if x <= i64::MAX as u64 {
            JsonValue::Int(x as i64)
        } else {
            JsonValue::Num(x as f64)
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a JSON document. Returns an error message with a byte offset
    /// on malformed input, which includes arrays and objects nested deeper
    /// than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Emit with two-space indentation (stable field order); the same
    /// text `{:#}` writes.
    pub fn pretty(&self) -> String {
        format!("{self:#}")
    }

    /// Emit into `out`: compact when `indent` is `None`, else indented two
    /// spaces a level starting at that level.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        let inner = indent.map(|level| level + 1);
        match self {
            JsonValue::Null => out.write_str("null"),
            JsonValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => write!(out, "{i}"),
            // `{:?}` keeps round-trip precision for f64.
            JsonValue::Num(x) if x.is_finite() => write!(out, "{x:?}"),
            JsonValue::Num(_) => out.write_str("null"), // JSON has no Inf/NaN
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) if items.is_empty() => out.write_str("[]"),
            JsonValue::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    member(out, i, inner)?;
                    item.write(out, inner)?;
                }
                newline(out, indent)?;
                out.write_char(']')
            }
            JsonValue::Obj(fields) if fields.is_empty() => out.write_str("{}"),
            JsonValue::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    member(out, i, inner)?;
                    write_escaped(out, k)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(out, inner)?;
                }
                newline(out, indent)?;
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact emission (no whitespace); the alternate form `{:#}` is
    /// [`JsonValue::pretty`]'s. Either streams into the formatter's sink,
    /// so `write!` into a file writes the document without building it as
    /// a `String` first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        self.write(f, indent)
    }
}

/// What goes before the `i`th member of a container, at `level`.
fn member(out: &mut impl fmt::Write, i: usize, level: Option<usize>) -> fmt::Result {
    if i > 0 {
        out.write_char(',')?;
    }
    newline(out, level)
}

/// In indented mode, a line break and the indentation of `level`.
fn newline(out: &mut impl fmt::Write, level: Option<usize>) -> fmt::Result {
    if let Some(level) = level {
        out.write_char('\n')?;
        for _ in 0..level {
            out.write_str("  ")?;
        }
    }
    Ok(())
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a bound a file of `[[[[…` overflows
/// the stack; nothing this workspace writes nests deeper than 8.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe). `pos`
                    // is on a character boundary: it got here by whole
                    // characters, and a path that could split one returns.
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().expect("peeked a byte");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::JsonValue as J;

    #[test]
    fn emit_compact_and_parse_back() {
        let v = J::Obj(vec![
            ("name".into(), J::str("dnnd \"run\"\n")),
            ("count".into(), J::Int(42)),
            ("ratio".into(), J::Num(0.375)),
            ("ok".into(), J::Bool(true)),
            ("none".into(), J::Null),
            (
                "items".into(),
                J::Arr(vec![J::Int(1), J::Int(-2), J::Num(3.5)]),
            ),
        ]);
        let text = v.to_string();
        let back = J::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_round_trips_too() {
        let v = J::Arr(vec![
            J::Obj(vec![("a".into(), J::Arr(vec![]))]),
            J::Obj(vec![]),
        ]);
        assert_eq!(J::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = J::parse(r#"{"s": "a\tbé\\", "π": 3.15625}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\tbé\\");
        assert!((v.get("π").unwrap().as_f64().unwrap() - 3.15625).abs() < 1e-12);
    }

    #[test]
    fn integer_precision_preserved() {
        let big = (1u64 << 60) + 7;
        let text = J::uint(big).to_string();
        assert_eq!(J::parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn rejects_malformed() {
        assert!(J::parse("{\"a\": }").is_err());
        assert!(J::parse("[1, 2").is_err());
        assert!(J::parse("hello").is_err());
        assert!(J::parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error_naming_the_offset() {
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(J::parse(&nest(super::MAX_DEPTH)).is_ok());
        let err = J::parse(&nest(super::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        // The hostile case: no closing bracket, deeper than any stack.
        let err = J::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.ends_with("at byte 128"), "{err}");
        let err = J::parse(&"{\"k\":".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn num_constructor_prefers_int() {
        assert_eq!(J::num(5.0), J::Int(5));
        assert_eq!(J::num(5.5), J::Num(5.5));
    }
}
