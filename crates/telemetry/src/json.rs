//! A minimal, dependency-free JSON parser (RFC 8259).
//!
//! The exporters hand-assemble JSON; this module lets tests, `picl run
//! --telemetry`, and CI verify the output actually parses, and lets
//! checkpoint resume and report decoders read values back, without pulling
//! in a JSON crate. [`Value::parse`] builds a value tree; [`validate_json`]
//! and [`validate_jsonl`] are the syntax checks built on it, and
//! [`decode_histogram`] reads back a saved [`Histogram`].
//!
//! Numbers keep their raw source text ([`Value::Num`]) so `u64` counters
//! round-trip exactly — routing them through `f64` would corrupt counts
//! above 2^53 and break the bit-identical-resume guarantee.

use picl_types::stats::Histogram;

/// Validates that `input` is exactly one well-formed JSON value.
///
/// Returns `Err` with a byte offset and description on the first syntax
/// error.
pub fn validate_json(input: &str) -> Result<(), String> {
    Value::parse(input).map(drop)
}

/// Validates newline-delimited JSON: every non-empty line must be one
/// well-formed JSON value. Returns the number of valid lines.
pub fn validate_jsonl(input: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses exactly one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset on the first syntax error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as an exact `u64`, if this is a nonnegative
    /// integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then `as_u64`, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing or mistyped field.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }

    /// Convenience: `get(key)` then `as_str`, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing or mistyped field.
    pub fn field_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }
}

/// Decodes a saved [`Histogram`]: the `{"count", "sum", "max",
/// "buckets": [[bound, n], ...]}` object that simulator reports and flight
/// logs both write from [`Histogram::nonzero_buckets`].
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field, or the
/// [`Histogram::from_saved`] check that failed.
pub fn decode_histogram(v: &Value) -> Result<Histogram, String> {
    let buckets = v
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or("missing buckets array")?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([bound, n]) => match (bound.as_u64(), n.as_u64()) {
                (Some(bound), Some(n)) => Ok((bound, n)),
                _ => Err("non-integer histogram bucket".to_owned()),
            },
            _ => Err("histogram bucket is not a [bound, count] pair".to_owned()),
        })
        .collect::<Result<Vec<(u64, u64)>, String>>()?;
    Histogram::from_saved(
        buckets,
        v.field_u64("count")?,
        v.field_u64("sum")?,
        v.field_u64("max")?,
    )
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.bump(); // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.fail("expected `:`"));
            }
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.bump(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.bump(); // '"'
        let mut out = String::new();
        loop {
            match self.bump() {
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
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not reassembled; lone
                        // surrogates become the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.fail("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.fail("raw control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // The lead byte of a multi-byte character; the input
                    // is a `str`, so the whole character is well-formed.
                    let c = self.src[self.pos - 1..].chars().next().expect("a char");
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.fail("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected fraction digit"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected exponent digit"));
            }
            self.digits();
        }
        Ok(Value::Num(self.src[start..self.pos].to_owned()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            "0",
            r#""str with \" escape""#,
            r#"{"a":[1,2,{"b":null}],"c":"é"}"#,
            "  [1, 2]  ",
        ] {
            assert!(validate_json(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            "nul",
            "\"unterminated",
            "[1] [2]",
            "{\"a\":1,}",
        ] {
            assert!(validate_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn jsonl_counts_lines_and_locates_errors() {
        assert_eq!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n"), Ok(2));
        let err = validate_jsonl("{\"a\":1}\nnope\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let s = "weird \"chars\"\n\t\\ and \u{1} control";
        let quoted = format!("\"{}\"", escape(s));
        assert!(validate_json(&quoted).is_ok());
    }

    #[test]
    fn parses_nested_document() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": null}], "c": "x\ny", "d": true}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn u64_round_trips_exactly_above_2_pow_53() {
        let big = u64::MAX;
        let v = Value::parse(&format!("{{\"n\": {big}}}")).unwrap();
        assert_eq!(v.field_u64("n"), Ok(big));
    }

    #[test]
    fn floats_and_negatives() {
        let v = Value::parse(r#"[-12.5e3, 0.25]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-12500.0));
        assert_eq!(arr[0].as_u64(), None);
        assert_eq!(arr[1].as_f64(), Some(0.25));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Value::parse(r#""tab\t quote\" uA é""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" uA é"));
    }

    #[test]
    fn field_helpers_report_missing_fields() {
        let v = Value::parse(r#"{"n": "not a number"}"#).unwrap();
        assert!(v.field_u64("n").unwrap_err().contains("n"));
        assert!(v.field_str("missing").unwrap_err().contains("missing"));
        assert_eq!(v.field_str("n"), Ok("not a number"));
    }

    #[test]
    fn histograms_decode_from_their_saved_shape() {
        let mut h = Histogram::new();
        for x in [0, 3, 3, 900, u64::MAX] {
            h.record(x);
        }
        let buckets: Vec<String> = h
            .nonzero_buckets()
            .map(|(bound, n)| format!("[{bound}, {n}]"))
            .collect();
        let saved = format!(
            r#"{{"count": {}, "sum": {}, "max": {}, "buckets": [{}]}}"#,
            h.count(),
            h.sum(),
            h.max().unwrap(),
            buckets.join(", ")
        );
        assert_eq!(decode_histogram(&Value::parse(&saved).unwrap()), Ok(h));

        for (bad, why) in [
            (r#"{"count": 1, "sum": 1, "max": 1}"#, "buckets"),
            (
                r#"{"count": 1, "sum": 1, "max": 1, "buckets": [[1]]}"#,
                "pair",
            ),
            (
                r#"{"count": 1, "sum": 1, "max": 1, "buckets": [[1, -1]]}"#,
                "non-integer",
            ),
            (r#"{"sum": 1, "max": 1, "buckets": [[1, 1]]}"#, "count"),
            (
                r#"{"count": 2, "sum": 1, "max": 1, "buckets": [[1, 1]]}"#,
                "expected 2",
            ),
            (
                r#"{"count": 1, "sum": 2, "max": 2, "buckets": [[2, 1]]}"#,
                "bucket bound",
            ),
        ] {
            let err = decode_histogram(&Value::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }
}
