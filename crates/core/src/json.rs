//! Dependency-free JSON primitives shared by the experiment fragment codec
//! ([`crate::experiment`]) and the live-service wire protocol
//! ([`crate::service`]). The build environment has no serde (DESIGN.md), so
//! both layers hand-roll encoding over these helpers.
//!
//! Numbers are written with Rust's shortest round-trip `Display` formatting
//! and parsed keeping their raw token, so every finite `f64` — and every
//! `u64` seed, which never routes through `f64` — survives a write/parse
//! cycle exactly. That exactness is what lets `figures merge` and the
//! serve golden transcripts reproduce bytes.

// ---------------------------------------------------------------- encoding

/// Appends `s` as a JSON string literal (quoted, escaped).
pub(crate) fn escape_into(out: &mut String, s: &str) {
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

/// Appends `v` with shortest round-trip formatting (`null` for non-finite
/// values, which JSON cannot represent).
pub(crate) fn num_into(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

// ---------------------------------------------------------------- decoding

/// A parsed JSON value. Numbers keep their raw token so integer widths
/// (`u64` seeds) and float payloads convert without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub(crate) fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, found {other:?}")),
        }
    }

    pub(crate) fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|_| format!("bad number '{raw}'")),
            Value::Null => Ok(f64::NAN),
            other => Err(format!("expected number, found {other:?}")),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|_| format!("bad integer '{raw}'")),
            other => Err(format!("expected integer, found {other:?}")),
        }
    }

    pub(crate) fn as_usize(&self) -> Result<usize, String> {
        self.as_u64().map(|v| v as usize)
    }

    pub(crate) fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("expected array, found {other:?}")),
        }
    }

    pub(crate) fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key '{key}'")),
            other => Err(format!("expected object with '{key}', found {other:?}")),
        }
    }

    /// Like [`Value::get`], but absent keys and explicit `null` are `None`.
    pub(crate) fn get_opt(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Value::Null)),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_document`] accepts. The codecs
/// write at most 8 levels (a shard fragment); the cap keeps a hostile
/// document from exhausting the stack of the recursive parser.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
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
                    match self.peek() {
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap().to_string();
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("bad number '{raw}'")));
        }
        Ok(Value::Num(raw))
    }
}

/// Parses one complete JSON document (trailing data is an error).
pub(crate) fn parse_document(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `depth` nested arrays around an empty innermost array.
    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn parse_document_rejects_hostile_nesting() {
        // Unclosed, as one hostile line would be: the parser must stop at
        // the cap instead of recursing until the stack overflows.
        let err = parse_document(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(parse_document(&nested_arrays(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parse_document_accepts_nesting_at_the_cap() {
        let mut value = parse_document(&nested_arrays(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            value = value.as_arr().unwrap()[0].clone();
        }
        assert_eq!(value, Value::Arr(Vec::new()));
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse_document(&objects).is_ok());
    }
}
