//! Offline shim for `serde_json`: compact and pretty printing plus a
//! recursive-descent parser for the `serde` shim's [`Value`] model.
//!
//! Floats are printed with Rust's shortest-roundtrip `Display`, so a
//! serialise → parse cycle reproduces every finite `f64` exactly.
//! Non-finite floats (NaN, ±inf — they appear in telemetry means and
//! bandit arm statistics) have no JSON literal; they are written as a
//! tagged object `{"$f64":"nan"|"inf"|"-inf"}` and collapsed back to
//! `Value::Num` on parse, so the cycle never panics or errors on them.

pub use serde::Error;
pub use serde::Value;

/// Key of the tagged-object encoding for non-finite floats.
const NONFINITE_TAG: &str = "$f64";

fn nonfinite_label(n: f64) -> &'static str {
    if n.is_nan() {
        "nan"
    } else if n > 0.0 {
        "inf"
    } else {
        "-inf"
    }
}

fn nonfinite_from_label(label: &str) -> Option<f64> {
    match label {
        "nan" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

/// Serialise to compact JSON.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Serialise to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Parse JSON text into any shim-`Deserialize` type (including
/// [`Value`] itself).
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if !n.is_finite() {
                // Tagged encoding: JSON has no literal for these.
                out.push_str("{\"");
                out.push_str(NONFINITE_TAG);
                out.push_str("\":\"");
                out.push_str(nonfinite_label(*n));
                out.push_str("\"}");
            } else {
                out.push_str(&n.to_string());
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(item, out, indent, depth + 1)?;
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1)?;
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::msg(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // workspace; accept BMP scalars only.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` in one
                    // slice. Both are ASCII and never a UTF-8 continuation
                    // byte, so the run ends on a char boundary and each
                    // input byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat("{")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(collapse_nonfinite(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Collapse the tagged non-finite encoding back to a number: an object
/// that is exactly `{"$f64": "<label>"}` with a recognised label parses
/// as `Value::Num`; anything else stays a plain object.
fn collapse_nonfinite(entries: Vec<(String, Value)>) -> Value {
    if let [(key, Value::Str(label))] = entries.as_slice() {
        if key == NONFINITE_TAG {
            if let Some(n) = nonfinite_from_label(label) {
                return Value::Num(n);
            }
        }
    }
    Value::Object(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_compact_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::Num(1.0)),
            (
                "b".into(),
                Value::Array(vec![
                    Value::Bool(true),
                    Value::Null,
                    Value::Str("x\"y".into()),
                ]),
            ),
        ]);
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&s).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [1.0f64, 0.1, 1e-9, 123456.789012345, 2.5e-300, -0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn nonfinite_floats_roundtrip_via_tagged_encoding() {
        // Typed round-trip: the tagged object collapses back to Num, so
        // the existing f64 Deserialize impl sees a plain number.
        for (x, label) in [
            (f64::NAN, "nan"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            let s = to_string(&x).unwrap();
            assert_eq!(s, format!("{{\"$f64\":\"{label}\"}}"), "{x}");
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
        // Nested inside containers, compact and pretty.
        let v = vec![1.0f64, f64::NAN, f64::NEG_INFINITY];
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Vec<f64> = from_str(&s).unwrap();
            assert_eq!(back.len(), 3);
            assert_eq!(back[0], 1.0);
            assert!(back[1].is_nan());
            assert_eq!(back[2], f64::NEG_INFINITY);
        }
    }

    #[test]
    fn nonfinite_tag_lookalikes_stay_plain_objects() {
        // Unrecognised label, extra keys, non-string payload: all parse
        // as ordinary objects, never as numbers.
        let v: Value = from_str(r#"{"$f64":"huge"}"#).unwrap();
        assert_eq!(v["$f64"], "huge");
        let v: Value = from_str(r#"{"$f64":"nan","extra":1}"#).unwrap();
        assert_eq!(v["extra"], 1);
        let v: Value = from_str(r#"{"$f64":3}"#).unwrap();
        assert_eq!(v["$f64"], 3);
    }

    #[test]
    fn parses_escapes_and_nested_structures() {
        let v: Value = from_str(r#"{"k": [1, -2.5, "a\nbA", {"inner": null}]}"#).unwrap();
        assert_eq!(v["k"][0], 1);
        assert_eq!(v["k"][1].as_f64(), Some(-2.5));
        assert_eq!(v["k"][2], "a\nbA");
        assert!(v["k"][3]["inner"].is_null());
    }

    #[test]
    fn multibyte_utf8_mixes_with_every_escape() {
        let original = "é\"ü\\日/本\n€\r𝄞\tß\u{8}ñ\u{c}ø\u{1}Ω";
        let encoded = to_string(&Value::Str(original.into())).unwrap();
        let back: Value = from_str(&encoded).unwrap();
        assert_eq!(back, original);
        // Every escape the parser accepts, each flanked by multi-byte
        // characters, including escapes the writer never emits.
        let v: Value = from_str(r#""é\"ü\\日\/本\n€\r𝄞\tß\bñ\fø\u00e9Ω\u0041""#).unwrap();
        assert_eq!(v, "é\"ü\\日/本\n€\r𝄞\tß\u{8}ñ\u{c}øéΩA");
        assert!(from_str::<Value>(r#""é\q""#).is_err());
        assert!(from_str::<Value>(r#""日本"#).is_err());
    }

    #[test]
    fn megabyte_string_roundtrips() {
        let unit = "snapshot é日𝄞 \"quoted\" \\ tab\t line\n";
        let original = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(original.len() >= 1 << 20);
        let encoded = to_string(&vec![Value::Str(original.clone())]).unwrap();
        let back: Vec<String> = from_str(&encoded).unwrap();
        assert_eq!(back, vec![original]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn typed_from_str() {
        let v: Vec<f64> = from_str("[1, 2.5, 3]").unwrap();
        assert_eq!(v, vec![1.0, 2.5, 3.0]);
        let n: usize = from_str("640").unwrap();
        assert_eq!(n, 640);
    }
}
