//! What the decoder accepts, rule by rule.

use serde::{Deserialize, Serialize};
use serde_json::{from_slice, from_str, parse_value, to_string};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Rec {
    id: u32,
    name: String,
    note: Option<String>,
    tags: Vec<u8>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line(u32),
    Pair(u8, u8),
    Box { w: u16, h: u16 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrap {
    shape: Shape,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point(i32, i32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Meters(u64);

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct WithSkip {
    kept: u8,
    #[serde(skip)]
    cache: Vec<u8>,
}

fn rec(id: u32) -> Rec {
    Rec {
        id,
        name: "n".into(),
        note: None,
        tags: vec![],
    }
}

fn err_of<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    match from_str::<T>(text) {
        Ok(v) => panic!("{text:?} decoded to {v:?}"),
        Err(e) => e.0,
    }
}

#[test]
fn a_missing_required_key_is_an_error_and_a_missing_option_is_none() {
    let e = err_of::<Rec>(r#"{"name":"n","tags":[]}"#);
    assert!(e.contains("missing field `id`"), "{e}");
    assert_eq!(
        from_str::<Rec>(r#"{"id":1,"name":"n","tags":[]}"#).unwrap(),
        rec(1)
    );
    assert_eq!(
        from_str::<Rec>(r#"{"id":1,"name":"n","note":null,"tags":[]}"#).unwrap(),
        rec(1)
    );
    let some = from_str::<Rec>(r#"{"id":1,"name":"n","note":"x","tags":[]}"#).unwrap();
    assert_eq!(some.note.as_deref(), Some("x"));
    // `null` is not a value of a non-`Option` field.
    err_of::<Rec>(r#"{"id":null,"name":"n","tags":[]}"#);
    let r = from_str::<std::ops::Range<Option<u8>>>(r#"{"end":3}"#).unwrap();
    assert_eq!(r, None..Some(3));
}

#[test]
fn unknown_keys_are_skipped_whatever_their_shape() {
    let text = r#"{"x":{"a":[1,{"b":null}],"c":"é\n"},"id":7,"y":[[],[{}]],
        "name":"n","z":-1.5e3,"tags":[1,2],"w":true,"v":"}]"}"#;
    let got = from_str::<Rec>(text).unwrap();
    assert_eq!(got.id, 7);
    assert_eq!(got.tags, vec![1, 2]);
    // A skipped value is still validated.
    err_of::<Rec>(r#"{"id":1,"name":"n","tags":[],"x":[1,]}"#);
    err_of::<Rec>(r#"{"id":1,"name":"n","tags":[],"x":01}"#);
    err_of::<Rec>(r#"{"id":1,"name":"n","tags":[],"x":"\q"}"#);
    err_of::<Rec>(r#"{"id":1,"name":"n","tags":[],"x":{"a"}}"#);
    // A `#[serde(skip)]` field's key is just another unknown key.
    let w = from_str::<WithSkip>(r#"{"cache":[9],"kept":4}"#).unwrap();
    assert_eq!(
        w,
        WithSkip {
            kept: 4,
            cache: vec![]
        }
    );
    assert_eq!(to_string(&w).unwrap(), r#"{"kept":4}"#);
}

#[test]
fn with_a_repeated_key_the_last_value_wins() {
    let got = from_str::<Rec>(r#"{"id":1,"name":"a","id":2,"tags":[],"name":"b"}"#).unwrap();
    assert_eq!((got.id, got.name.as_str()), (2, "b"));
    let map = from_str::<HashMap<String, u8>>(r#"{"k":1,"k":2}"#).unwrap();
    assert_eq!(map["k"], 2);
    let tree = from_str::<BTreeMap<String, u8>>(r#"{"k":1,"j":0,"k":3}"#).unwrap();
    assert_eq!(tree["k"], 3);
    assert_eq!(
        parse_value(r#"{"k":1,"k":2}"#).unwrap()["k"].as_u64(),
        Some(2)
    );
}

#[test]
fn enums_are_externally_tagged_and_nothing_else_decodes() {
    for shape in [
        Shape::Dot,
        Shape::Line(3),
        Shape::Pair(1, 2),
        Shape::Box { w: 4, h: 5 },
    ] {
        let text = to_string(&shape).unwrap();
        assert_eq!(from_str::<Shape>(&text).unwrap(), shape, "{text}");
    }
    assert_eq!(to_string(&Shape::Dot).unwrap(), r#""Dot""#);
    assert_eq!(to_string(&Shape::Line(3)).unwrap(), r#"{"Line":3}"#);
    assert_eq!(to_string(&Shape::Pair(1, 2)).unwrap(), r#"{"Pair":[1,2]}"#);
    assert_eq!(
        to_string(&Shape::Box { w: 4, h: 5 }).unwrap(),
        r#"{"Box":{"w":4,"h":5}}"#
    );
    assert!(err_of::<Shape>(r#""Nope""#).contains("unknown variant `Nope`"));
    assert!(err_of::<Shape>(r#"{"Nope":1}"#).contains("unknown variant `Nope`"));
    for bad in [
        r#""Line""#,
        r#"{"Dot":null}"#,
        r#"{}"#,
        r#"{"Line":3,"Dot":null}"#,
        r#"{"Line":3,"Line":4}"#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,2,3]}"#,
        r#"{"Box":{"w":4}}"#,
        r#"["Dot"]"#,
        "3",
        "null",
    ] {
        err_of::<Shape>(bad);
    }
    let wrapped = from_str::<Wrap>(r#"{"shape":{"Box":{"h":1,"x":[],"w":2}}}"#).unwrap();
    assert_eq!(wrapped.shape, Shape::Box { w: 2, h: 1 });
}

#[test]
fn newtypes_are_transparent_and_tuples_have_exact_length() {
    assert_eq!(to_string(&Meters(5)).unwrap(), "5");
    assert_eq!(from_str::<Meters>("5").unwrap(), Meters(5));
    assert_eq!(to_string(&Point(-1, 2)).unwrap(), "[-1,2]");
    assert_eq!(from_str::<Point>("[-1, 2]").unwrap(), Point(-1, 2));
    err_of::<Point>("[1]");
    err_of::<Point>("[1,2,3]");
    err_of::<Point>("[1,2,]");
    err_of::<(u8, u8)>("[1]");
    err_of::<(u8, u8)>("[1,2,3]");
    assert_eq!(
        from_str::<(u8, String)>(r#"[1,"a"]"#).unwrap(),
        (1, "a".into())
    );
}

#[test]
fn out_of_range_integers_are_errors() {
    err_of::<u8>("256");
    err_of::<u8>("-1");
    err_of::<i8>("-129");
    err_of::<i8>("128");
    err_of::<u16>("65536");
    err_of::<u32>("4294967296");
    err_of::<u64>("18446744073709551616");
    err_of::<u64>("1e20");
    err_of::<u64>("-1");
    err_of::<i64>("9223372036854775808");
    err_of::<i64>("-9223372036854775809");
    err_of::<i64>("1e19");
    err_of::<u32>("1.5");
    err_of::<u32>(r#""1""#);
    assert_eq!(from_str::<u8>("255").unwrap(), 255);
    assert_eq!(from_str::<i8>("-128").unwrap(), -128);
    assert_eq!(from_str::<u64>("1e19").unwrap(), 10_000_000_000_000_000_000);
    assert_eq!(
        from_str::<i64>("-9e18").unwrap(),
        -9_000_000_000_000_000_000
    );
}

#[test]
fn trailing_bytes_and_non_utf8_input_are_errors() {
    err_of::<u8>("1 2");
    err_of::<u8>("1,");
    err_of::<Vec<u8>>("[1]]");
    err_of::<Rec>(r#"{"id":1,"name":"n","tags":[]}x"#);
    assert_eq!(from_str::<Vec<u8>>(" [ 1 , 2 ] \n").unwrap(), vec![1, 2]);
    assert!(from_slice::<String>(b"\"\xff\"").is_err());
    assert!(from_slice::<Rec>(b"{\"id\":1,\"name\":\"n\",\"tags\":[],\"x\":\"\xc3\"}").is_err());
    assert!(from_slice::<u8>(b"").is_err());
}

#[test]
fn escaped_keys_and_surrogate_pairs_decode() {
    let got =
        from_str::<Rec>(r#"{"\u0069d":1,"n\u0061me":"\ud83d\ude00\t\/","t\u0061gs":[]}"#).unwrap();
    assert_eq!(got.id, 1);
    assert_eq!(got.name, "😀\t/");
    assert_eq!(from_str::<String>(r#""é❤""#).unwrap(), "é❤");
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ud83d\u0041""#,
        r#""\ude00""#,
        r#""\u12""#,
        r#""\u+123""#,
        r#""\x""#,
        r#""abc"#,
    ] {
        err_of::<String>(bad);
        assert!(parse_value(bad).is_err(), "{bad}");
    }
}

#[test]
fn the_depth_limit_holds_in_typed_values_and_in_skipped_ones() {
    let max = serde::MAX_DEPTH;
    // At the limit a value parses; one past it is a typed error.
    let deep = "[".repeat(max) + &"]".repeat(max);
    assert!(parse_value(&deep).is_ok());
    let over = "[".repeat(max + 1) + &"]".repeat(max + 1);
    assert!(err_of::<serde_json::Value>(&over).contains("recursion limit"));
    // The same bound applies inside an unknown field of a typed record,
    // where the value is skipped rather than built: `{` counts as level 1.
    let skipped = |n: usize| {
        format!(
            r#"{{"id":1,"name":"n","tags":[],"junk":{}{}}}"#,
            "[".repeat(n),
            "]".repeat(n)
        )
    };
    assert!(from_str::<Rec>(&skipped(max - 1)).is_ok());
    assert!(err_of::<Rec>(&skipped(max)).contains("recursion limit"));
    // A 100k-deep bomb fails the same way instead of overflowing the
    // stack, whether built, skipped, or typed.
    let bomb = "[".repeat(100_000);
    assert!(parse_value(&bomb).is_err());
    assert!(err_of::<Rec>(&format!(r#"{{"junk":{bomb}"#)).contains("recursion limit"));
    assert!(err_of::<Vec<serde_json::Value>>(&bomb).contains("recursion limit"));
    assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
}
