//! Offline stand-in for `serde_json`.
//!
//! Renders the vendored `serde` shim's [`Value`] tree as JSON, and parses
//! JSON through that shim's pull reader ([`serde::de::Reader`]), which
//! derived impls consume directly. Covers the workspace's usage:
//! [`to_string`], [`to_string_pretty`], [`from_str`], and the [`Error`]
//! type. Floats print through Rust's `Display`, which emits the shortest
//! decimal that round-trips — the same guarantee real serde_json's
//! `float_roundtrip` feature provides — and parse through `str::parse`,
//! so every finite `f64`, `-0.0` included, reloads with the same bits.

use serde::de::Reader;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.0)
    }
}

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Fails on non-finite floats, which JSON cannot represent.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Fails on non-finite floats, which JSON cannot represent.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Fails on malformed JSON, on trailing characters, on arrays and objects
/// nested deeper than [`serde::de::MAX_DEPTH`], on numbers beyond `f64`'s
/// range, and on shape mismatches against `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(Error::new(format!("cannot serialize non-finite float {f}")));
            }
            out.push_str(&f.to_string());
        }
        Value::Str(s) => write_string(out, s),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("flow \"zero\"\n".to_string())),
            ("count".to_string(), Value::U64(3)),
            ("neg".to_string(), Value::I64(-7)),
            ("rate".to_string(), Value::F64(0.1)),
            (
                "nested".to_string(),
                Value::Array(vec![Value::Null, Value::Bool(true), Value::F64(9e5)]),
            ),
            ("empty_arr".to_string(), Value::Array(vec![])),
            ("empty_obj".to_string(), Value::Object(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            // 9e5 prints as "900000" and re-parses as U64; compare after
            // normalizing through f64 where needed.
            assert_eq!(back.get("name"), v.get("name"));
            assert_eq!(back.get("count"), v.get("count"));
            assert_eq!(back.get("neg"), v.get("neg"));
            assert_eq!(back.get("rate"), v.get("rate"));
        }
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for f in [
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.5e-17,
            1e300,
            -0.0,
            9007199254740993.0,
        ] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} -> {text}");
        }
    }

    #[test]
    fn non_finite_floats_error() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let s = "héllo ✓ \u{1F600} \"q\" \\ /".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
        let esc: String = from_str(r#""A\n\t\/""#).unwrap();
        assert_eq!(esc, "A\n\t/");
    }

    /// The shapes `#[derive(Deserialize)]` supports.
    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Spec {
        capacity: f64,
        label: Option<String>,
        #[serde(default)]
        tags: Vec<u32>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Pair(u32, f64),
        Named { weight: f64, label: Option<String> },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Id(u32);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Both(Id, String);

    #[test]
    fn derived_types_round_trip() {
        let shapes = vec![
            Shape::Unit,
            Shape::Newtype(7),
            Shape::Pair(1, -0.5),
            Shape::Named { weight: 2.0, label: Some("w".into()) },
        ];
        let back: Vec<Shape> = from_str(&to_string_pretty(&shapes).unwrap()).unwrap();
        assert_eq!(back, shapes);
        let both = Both(Id(3), "x".into());
        assert_eq!(to_string(&both).unwrap(), r#"[3,"x"]"#);
        assert_eq!(from_str::<Both>(r#"[3,"x"]"#).unwrap(), both);
    }

    #[test]
    fn derived_structs_skip_unknown_keys_and_fill_absent_ones() {
        let spec: Spec =
            from_str(r#"{"extra": {"deep": [1, {"x": null}]}, "capacity": 1.5, "more": "s"}"#)
                .unwrap();
        assert_eq!(spec, Spec { capacity: 1.5, label: None, tags: vec![] });
        let spec: Spec = from_str(r#"{"\u0063apacity": 2, "tags": [4]}"#).unwrap();
        assert_eq!(spec, Spec { capacity: 2.0, label: None, tags: vec![4] });
    }

    #[test]
    fn derived_reads_reject_malformed_input() {
        for (text, why) in [
            (r#"{"label": "a"}"#, "missing field `capacity`"),
            (r#"{"capacity": "big"}"#, "expected number"),
            (r#"{"capacity": 1, "capacity": 2}"#, "duplicate field `capacity`"),
            (r#"{"capacity": 1.5"#, "unexpected end of input"),
            (r#"{"capacity": 1.5} x"#, "trailing characters"),
            (r#"{"capacity": 1.5,}"#, "expected string"),
        ] {
            let err = from_str::<Spec>(text).unwrap_err().to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
        for (text, why) in [
            (r#""Triangle""#, "unknown unit variant `Triangle`"),
            (r#"{"Triangle": 1}"#, "unknown variant `Triangle`"),
            (r#""Newtype""#, "unknown unit variant `Newtype`"),
            (r#"{"Newtype": 1, "Unit": null}"#, "second key `Unit`"),
            (r#"{}"#, "expected a variant of Shape"),
            (r#"{"Pair": [1]}"#, "missing tuple element 1"),
            (r#"{"Pair": [1, 2, 3]}"#, "expected 2 tuple elements"),
            (r#"{"Named": {"label": null}}"#, "missing field `weight`"),
            ("3", "expected enum Shape"),
        ] {
            let err = from_str::<Shape>(text).unwrap_err().to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(serde::de::MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(serde::de::MAX_DEPTH + 1)).is_err());
        // 100,000 levels once overflowed the stack; every read path now
        // stops at the cap: a `Value`, a skipped unknown key, and a typed
        // read that recurses through `Value`.
        let deep = nested(100_000);
        let err = from_str::<Value>(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let skipped = format!(r#"{{"capacity": 1, "extra": {deep}}}"#);
        assert!(from_str::<Spec>(&skipped).unwrap_err().to_string().contains("nesting"));
        assert!(from_str::<Vec<Value>>(&deep).unwrap_err().to_string().contains("nesting"));
    }
}
