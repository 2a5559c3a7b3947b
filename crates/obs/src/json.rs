//! Minimal hand-rolled JSON: a value type, a recursive-descent parser,
//! and writer helpers.
//!
//! The workspace deliberately carries no JSON dependency; this module is
//! shared by the metrics snapshot codec, the resilience-report schema
//! check, the admin protocol's JSON replies, and the Chrome-trace
//! validator in `cargo xtask trace-check`.

use std::fmt::Write as _;

/// A parsed JSON value (just enough structure for schema validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as f64; our documents stay well within range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Accept exactly the escapes our writers emit (plus
                    // '/') so writer output always re-parses.
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    format!("bad \\u escape at byte {}", self.pos)
                                })?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{text}': {e}"))
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Appends `v` as a JSON number, mapping non-finite values to `0`
/// (JSON has no NaN/Inf) and printing with three decimal places.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push('0');
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes,
/// and control characters.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_structures() {
        let doc = parse_json(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
        assert!(parse_json(r#"{"a": 01x}"#).is_err());
    }

    #[test]
    fn push_str_escapes_and_reparses() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert!(out.contains("\\u0001"));
        // Writer output re-parses to the original string.
        let doc = parse_json(&out).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn push_f64_maps_non_finite_to_zero() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, 1.5);
        assert_eq!(out, "0 1.500");
    }
}
