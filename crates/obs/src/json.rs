//! Minimal JSON reader and writer (no external dependencies).
//!
//! The workspace writes most of its reports with hand-rolled serialisation;
//! this module is the matching *reader* so tests can parse exported
//! profile/trace documents back. It is a strict-enough recursive-descent parser for
//! the JSON this repo emits (and ordinary JSON in general); it is not a
//! validating standards suite. [`Value::render`] is the inverse: documents
//! built as a [`Value`] tree (the `/jobs` telemetry endpoint) serialise
//! through it, and `render ∘ parse` is the identity on parsed trees.

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value (numbers only; must round-trip exactly).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range,
            // hence the strict bound.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Signed integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object members.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialise back to compact JSON text. Non-finite numbers are clamped
    /// to 0 (JSON has no NaN/inf tokens), matching the crate's hand-rolled
    /// writers, so rendered output always reparses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let n = crate::fin(*n);
                // `{}` on f64 prints the shortest decimal that reparses to
                // the same value (integers print without a fraction).
                let _ = std::fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&crate::escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&crate::escape(k));
                    out.push_str("\": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut m = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            m.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.b[self.i..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -1.5e2 ").unwrap(), Value::Num(-150.0));
        assert_eq!(
            Value::parse("\"a\\nb\\u0041\"").unwrap(),
            Value::Str("a\nbA".into())
        );
    }

    #[test]
    fn nested_document() {
        let v = Value::parse(
            r#"{"name": "x", "n": 3, "arr": [1, 2, {"k": false}], "obj": {"s": "µ"}}"#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("k").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("obj").unwrap().get("s").unwrap().as_str(), Some("µ"));
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(Value::parse("18446744073709551615").unwrap().as_u64(), None); // not exact in f64
        assert_eq!(Value::parse("4096").unwrap().as_u64(), Some(4096));
        assert_eq!(Value::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("a\"b\\c\nd".into())),
            ("n".into(), Value::Num(3.0)),
            ("frac".into(), Value::Num(0.25)),
            ("neg".into(), Value::Num(-1.5e-3)),
            ("flag".into(), Value::Bool(true)),
            ("gap".into(), Value::Null),
            (
                "arr".into(),
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Str("µ".into()),
                    Value::Obj(vec![]),
                ]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Value::parse(&text).unwrap(), doc);
        // Display is the same serialisation.
        assert_eq!(format!("{doc}"), text);
        // Integers print without a fraction; key order is preserved.
        assert!(text.contains("\"n\": 3,"));
        assert!(text.starts_with("{\"name\""));
    }

    #[test]
    fn render_clamps_nonfinite_numbers() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::Arr(vec![Value::Num(bad)]);
            assert_eq!(v.render(), "[0]");
            assert!(Value::parse(&v.render()).is_ok());
        }
    }

    #[test]
    fn roundtrips_profile_shaped_json() {
        let doc = r#"{
  "name": "acoustic-so4",
  "schedule": "wavefront 32x32 t4 / 8x8",
  "counters": {"stencil_updates": 2097152, "par_tasks": 640},
  "threads": [
    {"label": "main", "timers_ns": {"stencil": 123456789}}
  ]
}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("stencil_updates")
                .unwrap()
                .as_u64(),
            Some(2097152)
        );
        assert_eq!(
            v.get("threads").unwrap().as_arr().unwrap()[0]
                .get("label")
                .unwrap()
                .as_str(),
            Some("main")
        );
    }
}
