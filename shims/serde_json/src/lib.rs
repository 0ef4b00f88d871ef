//! Offline shim for the subset of `serde_json` this workspace uses:
//! `to_string` / `to_string_pretty` / `to_vec` / `from_str` / `from_slice`
//! and [`Value`] with lenient indexing.
//!
//! A thin front over the `serde` shim's streaming codec: serializing runs
//! a type's [`Serialize`] impl against one [`Writer`] that
//! appends JSON text to a single buffer; deserializing runs its
//! [`Deserialize`] impl against a [`Reader`] cursor over
//! the input, which matches object keys as borrowed slices and skips
//! unknown values without building them. Output conventions match
//! serde_json where observable: string escaping, `null` for `None` and
//! non-finite floats, externally tagged enums, and shortest-round-trip
//! float formatting.
//!
//! Input rules: numbers follow RFC 8259 exactly (no leading zeros, no
//! bare `.`, no empty fraction or exponent), though an integral float
//! such as `2e3` still reads into an integer field; out-of-range integers,
//! trailing bytes, non-UTF-8 input and nesting deeper than
//! [`MAX_DEPTH`](serde::MAX_DEPTH) (skipped values included) are errors.
//! Unknown keys are skipped; with a repeated key the last value wins.
//!
//! [`Value`] remains for callers that index into a document without a
//! type; it is just another `Deserialize` type.

#![forbid(unsafe_code)]

pub use serde::value::{Number, Object, Value};
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

/// Error type for both serialization and parsing (always a message).
pub type Error = DeError;

fn text(w: Writer) -> Result<String, Error> {
    String::from_utf8(w.into_bytes()).map_err(|_| DeError("encoder wrote invalid utf-8".into()))
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(writer(value, Writer::new()))
}

/// Serializes to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(writer(value, Writer::pretty()))
}

/// Serializes to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(writer(value, Writer::new()).into_bytes())
}

fn writer<T: Serialize + ?Sized>(value: &T, mut w: Writer) -> Writer {
    value.serialize(&mut w);
    w
}

/// Parses a JSON value tree from a string.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    from_str(s)
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let v = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Deserializes a `T` from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| DeError("non-utf8 json".into()))?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::MAX_DEPTH;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(to_string(&17u64).unwrap(), "17");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<u64>("17").unwrap(), 17);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn container_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("5").unwrap(), Some(5));
    }

    #[test]
    fn value_indexing() {
        let v = parse_value(r#"{"a": [1, {"b": "x"}], "n": 2.5}"#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1]["b"].as_str(), Some("x"));
        assert_eq!(v["n"].as_f64(), Some(2.5));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn pretty_output_indents() {
        let v = parse_value(r#"{"a":[1,2]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let s = "héllo \"wörld\" \t ❤";
        let enc = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<String>(&enc).unwrap(), s);
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nul").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(from_str::<u64>("\"no\"").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // One past the limit fails with a message…
        let bomb = "[".repeat(MAX_DEPTH + 1);
        let err = parse_value(&bomb).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{}", err.0);
        // …and an absurd bomb (a few KB of brackets, the cheapest
        // possible abuse of an upload endpoint) fails the same way.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
        // At the limit itself a well-formed value still parses.
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_value(&deep).is_ok());
    }
}
