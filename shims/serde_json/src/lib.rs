//! Offline shim for `serde_json`, backed by the local JSON-only `serde`
//! shim: `to_string` walks `Serialize` directly, `from_str` parses into a
//! `serde::Value` tree and hands it to `Deserialize`, and
//! `to_string_pretty` re-indents the compact form. Unlike the real crate it
//! exports its tokenizer, [`Reader`], so a decoder can read a document in
//! one pass without the tree.

use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

pub use serde::Value as JsonValue;

/// Parse or serialization failure.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let compact = to_string(value)?;
    let v = parse_value(&compact)?;
    let mut out = String::new();
    write_pretty(&v, 0, &mut out);
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v).map_err(|e| Error::new(e.to_string()))
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                serde::write_json_string(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        other => other.write_json(out),
    }
}

/// Deepest nesting of arrays and objects a [`Reader`] accepts: it
/// recurses once per level, and a hostile document must not take it off
/// its stack.
pub const MAX_DEPTH: usize = 64;

/// What a [`Reader`] step returns: its value, or why the text is not it.
pub type Step<T = ()> = Result<T, String>;

/// JSON escapes and the characters they stand for (`\u` aside).
const ESCAPES: [(u8, char); 8] = [
    (b'"', '"'), (b'\\', '\\'), (b'/', '/'), (b'b', '\u{8}'),
    (b'f', '\u{c}'), (b'n', '\n'), (b'r', '\r'), (b't', '\t'),
];

/// A cursor over JSON text: the crate's one tokenizer. `from_str` builds
/// its `Value` tree on it, and a single-pass decoder can walk a document
/// through it without building one. Every reading method skips whitespace
/// first. A clone is a mark to rewind to.
#[derive(Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`, at most [`MAX_DEPTH`].
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut r = Reader::new(s.as_bytes());
    r.value().and_then(|v| r.end().map(|()| v)).map_err(Error::new)
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0, depth: 0 }
    }

    /// Byte offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The text read since byte `from`.
    pub fn since(&self, from: usize) -> &'a [u8] {
        &self.bytes[from.min(self.pos)..self.pos]
    }

    /// The next byte after any whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    pub fn fail<T>(&self, what: &str) -> Step<T> {
        Err(format!("expected {what} at byte {} of {}", self.pos, self.bytes.len()))
    }

    pub fn expect(&mut self, b: u8) -> Step {
        if self.peek() != Some(b) {
            return self.fail(&format!("{:?}", b as char));
        }
        self.pos += 1;
        Ok(())
    }

    /// Only whitespace is left.
    pub fn end(&mut self) -> Step {
        self.peek().map_or(Ok(()), |_| self.fail("the end"))
    }

    /// A string's contents, borrowed from the input unless it holds escapes.
    pub fn string(&mut self) -> Step<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
                None => return self.fail("'\"'"),
            }
        }
        self.pos += 1;
        let bad = |what| format!("{what} in the string at byte {start}");
        let mut rest = std::str::from_utf8(&self.bytes[start..self.pos - 1]).map_err(|_| bad("invalid UTF-8"))?;
        if !rest.contains('\\') {
            return Ok(Cow::Borrowed(rest));
        }
        let mut out = String::with_capacity(rest.len());
        while let Some(i) = rest.find('\\') {
            out.push_str(&rest[..i]);
            // Surrogate pairs are not produced by the writer: refused, not mis-decoded.
            let (c, len) = match rest.as_bytes().get(i + 1) {
                Some(b'u') => {
                    let hex = rest.get(i + 2..i + 6).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    (hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)), 6)
                }
                e => (ESCAPES.iter().find(|(k, _)| Some(k) == e).map(|&(_, c)| c), 2),
            };
            out.push(c.ok_or_else(|| bad("a bad escape"))?);
            rest = &rest[i + len..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }

    /// A JSON integer in `0..=max`: a sign, a fraction, an exponent or a
    /// value past `max` is refused, never rounded or saturated.
    pub fn integer(&mut self, max: u64) -> Step<u64> {
        self.peek();
        let at = self.pos;
        let mut value = Some(0u64);
        while let Some(&d @ b'0'..=b'9') = self.bytes.get(self.pos) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let whole = self.pos > at && !matches!(self.bytes.get(self.pos), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
        value.filter(|&v| whole && v <= max).ok_or_else(|| format!("expected an integer in 0..={max} at byte {at}"))
    }

    pub fn number(&mut self) -> Step<f64> {
        self.peek();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        match std::str::from_utf8(&self.bytes[start..self.pos]).map(str::parse) {
            Ok(Ok(n)) => Ok(n),
            _ => Err(format!("expected a value at byte {start} of {}", self.bytes.len())),
        }
    }

    /// `open`, items separated by commas, `close`: one level of nesting.
    fn seq(&mut self, open: u8, close: u8, mut item: impl FnMut(&mut Self, usize) -> Step) -> Step {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos - 1));
        }
        self.depth += 1;
        let mut i = 0;
        while self.peek() != Some(close) {
            if i > 0 {
                self.expect(b',')?;
            }
            item(self, i)?;
            i += 1;
        }
        self.depth -= 1;
        self.expect(close)
    }

    /// An array, handing each item's index to `item`, which consumes it.
    pub fn array(&mut self, item: impl FnMut(&mut Self, usize) -> Step) -> Step {
        self.seq(b'[', b']', item)
    }

    /// An object, handing each key to `member`, which consumes its value.
    pub fn object(&mut self, mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Step) -> Step {
        self.seq(b'{', b'}', |r, _| {
            let key = r.string()?;
            r.expect(b':')?;
            member(r, key)
        })
    }

    /// `true`, `false`, `null` or a number.
    fn scalar(&mut self) -> Step<Value> {
        self.peek();
        let rest = &self.bytes[self.pos..];
        let words = [("true", Value::Bool(true)), ("false", Value::Bool(false)), ("null", Value::Null)];
        match words.into_iter().find(|(w, _)| rest.starts_with(w.as_bytes())) {
            Some((w, v)) => {
                self.pos += w.len();
                Ok(v)
            }
            None => self.number().map(Value::Num),
        }
    }

    /// Consume one value of any shape, checking only that it is JSON.
    pub fn skip(&mut self) -> Step {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(|r, _| r.skip()),
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// One value as a tree.
    pub fn value(&mut self) -> Step<Value> {
        Ok(match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r, _| r.value().map(|v| items.push(v)))?;
                Value::Arr(items)
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| r.value().map(|v| drop(map.insert(key.into_owned(), v))))?;
                Value::Obj(map)
            }
            Some(b'"') => Value::Str(self.string()?.into_owned()),
            _ => self.scalar()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_value(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": null}, "e": true}"#)
            .unwrap();
        match &v {
            Value::Obj(m) => {
                assert_eq!(m["a"], Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Num(2.5),
                    Value::Num(-3.0)
                ]));
                assert_eq!(m["e"], Value::Bool(true));
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn round_trips_vectors_of_tuples() {
        let doc: Vec<(u32, u32, char)> = vec![(1, 2, 'p'), (3, 4, 'c')];
        let json = to_string(&doc).unwrap();
        assert_eq!(json, r#"[[1,2,"p"],[3,4,"c"]]"#);
        let back: Vec<(u32, u32, char)> = from_str(&json).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        assert!(parse_value(&"[".repeat(1 << 20)).is_err());
        assert!(parse_value(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn pretty_output_reparses() {
        let doc = vec![(1u32, "x".to_string()), (2, "y\"z".to_string())];
        let pretty = to_string_pretty(&doc).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<(u32, String)> = from_str(&pretty).unwrap();
        assert_eq!(back, doc);
    }
}
