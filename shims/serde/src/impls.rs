//! `Serialize`/`Deserialize` impls for primitives and std containers.

use crate::value::{Number, Object, Value};
use crate::{DeError, Deserialize, Reader, Serialize, Writer};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Reads a number, or reports a type mismatch when the next token is not
/// one.
#[inline]
fn number(r: &mut Reader<'_>, what: &str, ty: &str) -> Result<Number, DeError> {
    match r.peek() {
        Some(b'-' | b'0'..=b'9') => r.number(),
        _ => Err(DeError::expected(what, ty)),
    }
}

/// Reads a string, or reports a type mismatch when the next token is not
/// one.
fn string<'a>(r: &mut Reader<'a>, ty: &str) -> Result<Cow<'a, str>, DeError> {
    if r.peek() != Some(b'"') {
        return Err(DeError::expected("string", ty));
    }
    r.str()
}

fn serialize_seq<'t, T: Serialize + 't>(
    items: impl ExactSizeIterator<Item = &'t T>,
    w: &mut Writer,
) {
    let empty = items.len() == 0;
    w.begin_array();
    for (i, item) in items.enumerate() {
        w.element(i == 0);
        item.serialize(w);
    }
    w.end_array(empty);
}

fn serialize_map<'t, V: Serialize + 't>(
    entries: impl ExactSizeIterator<Item = (&'t String, &'t V)>,
    w: &mut Writer,
) {
    let empty = entries.len() == 0;
    w.begin_object();
    for (i, (k, v)) in entries.enumerate() {
        w.key(i == 0, k);
        v.serialize(w);
    }
    w.end_object(empty);
}

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = number(r, "unsigned integer", stringify!($t))?;
                let n = n
                    .as_u64()
                    .ok_or_else(|| DeError::expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = number(r, "integer", stringify!($t))?;
                let n = n
                    .as_i64()
                    .ok_or_else(|| DeError::expected("integer", stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_int!(i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn serialize(&self, w: &mut Writer) {
        // Matches serde's representation: a struct with start/end.
        w.begin_object();
        w.key(true, "start");
        self.start.serialize(w);
        w.key(false, "end");
        self.end.serialize(w);
        w.end_object(false);
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let (mut start, mut end) = (None, None);
        r.begin_object("Range")?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "start" => crate::__private::field(&mut start, r)?,
                "end" => crate::__private::field(&mut end, r)?,
                _ => r.skip_value()?,
            }
        }
        Ok(crate::__private::take(start, "start")?..crate::__private::take(end, "end")?)
    }
}

impl Serialize for u128 {
    fn serialize(&self, w: &mut Writer) {
        // JSON numbers top out at u64 here; wider values degrade to f64.
        match u64::try_from(*self) {
            Ok(n) => w.u64(n),
            Err(_) => w.f64(*self as f64),
        }
    }
}

impl Deserialize for u128 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let n = number(r, "unsigned integer", "u128")?;
        if let Some(n) = n.as_u64() {
            return Ok(n as u128);
        }
        match n.as_f64() {
            Some(f) if f >= 0.0 && f.is_finite() => Ok(f as u128),
            _ => Err(DeError::expected("unsigned integer", "u128")),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        number(r, "number", "f64")?
            .as_f64()
            .ok_or_else(|| DeError::expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(f64::deserialize(r)? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        string(r, "String").map(Cow::into_owned)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self.iter(), w);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self.iter(), w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_array("Vec")?;
        let mut out = Vec::new();
        while r.next_element()? {
            out.push(T::deserialize(r)?);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn missing_field(_name: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        w.element(true);
        self.0.serialize(w);
        w.element(false);
        self.1.serialize(w);
        w.end_array(false);
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        use crate::__private::{element, end_tuple};
        r.begin_array("tuple")?;
        element(r, 2, "tuple")?;
        let a = A::deserialize(r)?;
        element(r, 2, "tuple")?;
        let b = B::deserialize(r)?;
        end_tuple(r, 2, "tuple")?;
        Ok((a, b))
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        // Sort for deterministic output (HashMap iteration order is not).
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        serialize_map(entries.into_iter(), w);
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_object("HashMap")?;
        let mut out = HashMap::new();
        while let Some(key) = r.next_key()? {
            out.insert(key.into_owned(), V::deserialize(r)?);
        }
        Ok(out)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        serialize_map(self.iter(), w);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_object("BTreeMap")?;
        let mut out = BTreeMap::new();
        while let Some(key) = r.next_key()? {
            out.insert(key.into_owned(), V::deserialize(r)?);
        }
        Ok(out)
    }
}

impl Serialize for Ipv4Addr {
    fn serialize(&self, w: &mut Writer) {
        w.str(&self.to_string());
    }
}

impl Deserialize for Ipv4Addr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        string(r, "Ipv4Addr")?
            .parse()
            .map_err(|e| DeError::custom(format!("bad ipv4 address: {e}")))
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(Number::U64(n)) => w.u64(*n),
            Value::Number(Number::I64(n)) => w.i64(*n),
            Value::Number(Number::F64(n)) => w.f64(*n),
            Value::String(s) => w.str(s),
            Value::Array(items) => serialize_seq(items.iter(), w),
            Value::Object(obj) => {
                w.begin_object();
                for (i, (k, v)) in obj.iter().enumerate() {
                    w.key(i == 0, k);
                    v.serialize(w);
                }
                w.end_object(obj.is_empty());
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match r.peek() {
            Some(b'n') => {
                r.null()?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'"') => Value::String(r.str()?.into_owned()),
            Some(b'[') => Value::Array(Vec::deserialize(r)?),
            Some(b'{') => {
                r.begin_object("Value")?;
                let mut obj = Object::new();
                while let Some(key) = r.next_key()? {
                    obj.insert(key.into_owned(), Value::deserialize(r)?);
                }
                Value::Object(obj)
            }
            _ => Value::Number(r.number()?),
        })
    }
}
