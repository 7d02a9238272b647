//! A minimal zero-dependency JSON reader for trace replay.
//!
//! The trace writer emits a known, machine-generated subset of JSON (no
//! exotic numbers, UTF-8 throughout); this parser accepts all of standard
//! JSON anyway so hand-edited or foreign trace files still load. Numbers
//! are parsed as `f64` — every value the writer produces round-trips
//! exactly (shortest-round-trip formatting on the way out).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (keys are unique in every
    /// document the writer emits).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` on anything else.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The trace writer
/// nests at most 2 levels; the cap keeps a hostile document from
/// overflowing the parser's (recursive) stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description (with a byte offset) of the first
/// syntax error, including trailing garbage after the document and
/// nesting deeper than 128 arrays/objects.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(arr));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not emitted by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (bytes are valid UTF-8: the
                    // input came from a &str).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_owned())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_writer_subset() {
        let v = parse(
            r#"{"device":3,"t_s":60.5,"kind":"ratio_push","ratios":[0.25,0.75],"pushed":true,"x":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("device").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("t_s").unwrap().as_f64(), Some(60.5));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("ratio_push"));
        let arr = v.get("ratios").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_f64(), Some(0.75));
        assert_eq!(v.get("pushed").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn round_trips_shortest_floats() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, -12345.6789] {
            let v = parse(&format!("{x:?}")).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the cap, unterminated: an error, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"[{"a":[1,2,{"b":false}]},[],{}]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        let inner = arr[0].get("a").unwrap().as_arr().unwrap();
        assert_eq!(inner[2].get("b").unwrap().as_bool(), Some(false));
    }
}
