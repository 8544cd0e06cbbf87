//! Offline shim for `serde`, specialized to JSON.
//!
//! The real serde is a data-model abstraction over many formats; this
//! workspace only ever serializes evaluation reports and topology caches to
//! JSON, so the shim collapses the model: [`Serialize`] writes JSON text
//! directly and [`Deserialize`] reads from a parsed [`Value`] tree. The
//! `derive` feature re-exports `#[derive(Serialize, Deserialize)]` macros
//! for plain named-field structs from the local `serde_derive` shim.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// Serialize `self` as JSON text appended to `out`.
pub trait Serialize {
    fn write_json(&self, out: &mut String);
}

/// Reconstruct `Self` from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

/// Read-side accessors with `serde_json::Value`'s names and semantics:
/// indexing never panics (a missing key or index yields `Null`), and the
/// `as_*` views return `None` on a type mismatch.
impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|items| items.get(i)).unwrap_or(&NULL)
    }
}

/// Deserialization error: what was expected, and a rendering of what was
/// found.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError {
    pub expected: &'static str,
    pub found: String,
}

impl DeError {
    pub fn new(expected: &'static str, found: &Value) -> DeError {
        DeError { expected, found: format!("{found:?}") }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {}, found {}", self.expected, self.found)
    }
}

impl std::error::Error for DeError {}

/// Append a JSON string literal (quoted, escaped).
pub fn write_json_string(s: &str, out: &mut String) {
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

/// Helper used by derived impls: append `"key":`.
pub fn write_json_key(key: &str, out: &mut String) {
    write_json_string(key, out);
    out.push(':');
}

/// Helper used by derived impls: fetch a required object field.
pub fn obj_field<'v>(v: &'v Value, key: &'static str) -> Result<&'v Value, DeError> {
    match v {
        Value::Obj(map) => map.get(key).ok_or(DeError {
            expected: key,
            found: "missing field".to_string(),
        }),
        other => Err(DeError::new("object", other)),
    }
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = fmt::Write::write_fmt(out, format_args!("{}", self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::Num(n) if n.fract() == 0.0 => Ok(*n as $t),
                    other => Err(DeError::new(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // `{:?}` keeps a fractional part on integral floats, so
                    // the value re-parses as a float.
                    let _ = fmt::Write::write_fmt(out, format_args!("{:?}", self));
                } else {
                    out.push_str("null"); // serde_json convention
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::new(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_ser_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new("bool", other)),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new("string", other)),
        }
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        write_json_string(self.encode_utf8(&mut buf), out);
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<char, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::new("single-char string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

fn write_json_seq<'a, T: Serialize + 'a>(
    items: impl Iterator<Item = &'a T>,
    out: &mut String,
) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new("array", other)),
        }
    }
}

macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<($($t,)+), DeError> {
                match v {
                    Value::Arr(items) => {
                        let expected_len = [$($n),+].len();
                        if items.len() != expected_len {
                            return Err(DeError::new("tuple of matching arity", v));
                        }
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    other => Err(DeError::new("array (tuple)", other)),
                }
            }
        }
    )*};
}

impl_ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<K: AsRef<str>, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_key(k.as_ref(), out);
            v.write_json(out);
        }
        out.push('}');
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    n.write_json(out);
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(items) => write_json_seq(items.iter(), out),
            Value::Obj(map) => map.write_json(out),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}
