//! The JSON number grammar of RFC 8259:
//! `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.

use serde_json::{from_str, parse_value, Value};

const NOT_NUMBERS: &[&str] = &[
    "01", "00", "-01", "-00", "00.5", "1.", "-1.", "1.e3", "1e", "1E+", "1e-", "-", "+1", ".5",
    "-.5", "--1", "1ee2", "1.5.5", "0x10", "1e2.5",
];

#[test]
fn leading_zeros_bare_dots_and_empty_exponents_are_errors() {
    for text in NOT_NUMBERS {
        assert!(from_str::<u64>(text).is_err(), "u64 accepted {text:?}");
        assert!(from_str::<i64>(text).is_err(), "i64 accepted {text:?}");
        assert!(from_str::<f64>(text).is_err(), "f64 accepted {text:?}");
        assert!(parse_value(text).is_err(), "Value accepted {text:?}");
        let in_array = format!("[{text}]");
        assert!(
            from_str::<Vec<f64>>(&in_array).is_err(),
            "Vec<f64> accepted {in_array:?}"
        );
        let in_object = format!("{{\"k\":{text}}}");
        assert!(
            parse_value(&in_object).is_err(),
            "Value accepted {in_object:?}"
        );
    }
}

#[test]
fn rfc_numbers_parse() {
    assert_eq!(from_str::<u64>("0").unwrap(), 0);
    assert_eq!(from_str::<u64>("-0").unwrap(), 0);
    assert_eq!(from_str::<i64>("-0").unwrap(), 0);
    assert_eq!(from_str::<u64>("10").unwrap(), 10);
    assert_eq!(from_str::<i64>("-10").unwrap(), -10);
    assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
    assert_eq!(from_str::<f64>("-0.5e-3").unwrap(), -0.0005);
    assert_eq!(from_str::<f64>("1e+2").unwrap(), 100.0);
    assert_eq!(from_str::<f64>("0e0").unwrap(), 0.0);
    assert_eq!(from_str::<f64>(" 7 ").unwrap(), 7.0);
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(parse_value("-01e0").ok(), None);
    assert_eq!(
        parse_value("[0,-0.0,1E2]").unwrap()[2].as_f64(),
        Some(100.0)
    );
    assert!(matches!(parse_value("1.25").unwrap(), Value::Number(_)));
}

#[test]
fn integral_floats_still_read_into_integer_fields() {
    assert_eq!(from_str::<u64>("2e3").unwrap(), 2_000);
    assert_eq!(from_str::<u32>("1E2").unwrap(), 100);
    assert_eq!(from_str::<u64>("5.0").unwrap(), 5);
    assert_eq!(from_str::<i64>("-2.0e1").unwrap(), -20);
    assert!(from_str::<u64>("2.5").is_err());
    assert!(from_str::<u64>("2.5e-1").is_err());
}
