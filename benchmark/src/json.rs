//! The few JSON moves this program makes over the `serde_json` shim's
//! value tree: build an object, walk a path, read a leaf.

use serde_json::JsonValue;
use std::collections::BTreeMap;

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The value at `path` under `v`.
pub fn at<'v>(v: &'v JsonValue, path: &[&str]) -> Result<&'v JsonValue, String> {
    path.iter().try_fold(v, |v, key| match v {
        JsonValue::Obj(map) => map
            .get(*key)
            .ok_or_else(|| format!("no {key:?} (looking for {path:?})")),
        _ => Err(format!(
            "not an object where {key:?} was expected (looking for {path:?})"
        )),
    })
}

pub fn num(v: &JsonValue, path: &[&str]) -> Result<f64, String> {
    match at(v, path)? {
        JsonValue::Num(n) => Ok(*n),
        _ => Err(format!("{path:?} is not a number")),
    }
}

pub fn text(v: &JsonValue, path: &[&str]) -> Result<String, String> {
    match at(v, path)? {
        JsonValue::Str(s) => Ok(s.clone()),
        _ => Err(format!("{path:?} is not a string")),
    }
}

pub fn list<'v>(v: &'v JsonValue, path: &[&str]) -> Result<&'v [JsonValue], String> {
    match at(v, path)? {
        JsonValue::Arr(items) => Ok(items),
        _ => Err(format!("{path:?} is not a list")),
    }
}

pub fn map<'v>(v: &'v JsonValue, path: &[&str]) -> Result<&'v BTreeMap<String, JsonValue>, String> {
    match at(v, path)? {
        JsonValue::Obj(map) => Ok(map),
        _ => Err(format!("{path:?} is not an object")),
    }
}
