//! Self-describing records.
//!
//! Publications enter the BAD data cluster as JSON-like records with open
//! or closed schema; [`DataValue`] is that record model. It supports the
//! subset of JSON used by the paper's workloads (objects, arrays, strings,
//! numbers, booleans, null) plus dotted-path access, a size estimate used
//! by the caching layer, and a built-in JSON parser/printer so traces can
//! be expressed as plain text.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{BadError, Result};

/// A dynamically-typed record value, the unit of publication content.
///
/// Arrays and objects hold their elements behind an [`Arc`], so cloning a
/// value costs one reference-count bump per container instead of a copy
/// of the tree: an enriched result embeds its joined rows by sharing the
/// dataset's own maps. The sharing is invisible to `Debug`, `==`, JSON
/// and [`DataValue::estimated_size`]; the rare in-place edit goes
/// through [`Arc::make_mut`], which copies only a shared level.
///
/// # Examples
///
/// ```
/// use bad_types::DataValue;
///
/// let v = DataValue::object([
///     ("kind", DataValue::from("flood")),
///     ("severity", DataValue::from(3i64)),
/// ]);
/// assert_eq!(v.get_path("severity").and_then(DataValue::as_i64), Some(3));
/// let text = v.to_json_string();
/// assert_eq!(DataValue::parse_json(&text).unwrap(), v);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum DataValue {
    /// The absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered list of values.
    Array(Arc<Vec<DataValue>>),
    /// A field-name-keyed map of values.
    Object(Arc<BTreeMap<String, DataValue>>),
}

impl DataValue {
    /// Builds an object from `(field, value)` pairs.
    pub fn object<K, I>(fields: I) -> DataValue
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, DataValue)>,
    {
        DataValue::Object(Arc::new(
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ))
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = DataValue>>(items: I) -> DataValue {
        DataValue::Array(Arc::new(items.into_iter().collect()))
    }

    /// Returns the boolean behind a [`DataValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            DataValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer behind a [`DataValue::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            DataValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a numeric value as `f64`, converting integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            DataValue::Int(i) => Some(*i as f64),
            DataValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string slice behind a [`DataValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            DataValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array behind a [`DataValue::Array`].
    pub fn as_array(&self) -> Option<&[DataValue]> {
        match self {
            DataValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map behind a [`DataValue::Object`].
    pub fn as_object(&self) -> Option<&BTreeMap<String, DataValue>> {
        match self {
            DataValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Returns `true` for [`DataValue::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, DataValue::Null)
    }

    /// Looks up a direct field of an object.
    pub fn get(&self, field: &str) -> Option<&DataValue> {
        self.as_object().and_then(|map| map.get(field))
    }

    /// Looks up a dotted path such as `"location.lat"`.
    ///
    /// Returns `None` when any intermediate segment is missing or not an
    /// object.
    pub fn get_path(&self, path: &str) -> Option<&DataValue> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// Estimates the in-memory/wire footprint of the value in bytes.
    ///
    /// The estimate is deterministic and monotone in content size; the
    /// caching layer uses it as the object size `s_ij` of the paper when a
    /// payload is present.
    pub fn estimated_size(&self) -> u64 {
        match self {
            DataValue::Null => 4,
            DataValue::Bool(_) => 5,
            DataValue::Int(_) | DataValue::Float(_) => 8,
            DataValue::Str(s) => 2 + s.len() as u64,
            DataValue::Array(items) => 2 + items.iter().map(DataValue::estimated_size).sum::<u64>(),
            DataValue::Object(map) => {
                2 + map
                    .iter()
                    .map(|(k, v)| 3 + k.len() as u64 + v.estimated_size())
                    .sum::<u64>()
            }
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            DataValue::Null => out.push_str("null"),
            DataValue::Bool(true) => out.push_str("true"),
            DataValue::Bool(false) => out.push_str("false"),
            DataValue::Int(i) => out.push_str(&i.to_string()),
            DataValue::Float(f) => {
                if f.is_finite() {
                    // Preserve float-ness through the round trip.
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        out.push_str(&format!("{:.1}", f));
                    } else {
                        out.push_str(&format!("{}", f));
                    }
                } else {
                    out.push_str("null");
                }
            }
            DataValue::Str(s) => write_json_string(s, out),
            DataValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            DataValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document into a [`DataValue`].
    ///
    /// # Errors
    ///
    /// Returns [`BadError::Parse`] when the input is not valid JSON or has
    /// trailing non-whitespace content.
    pub fn parse_json(input: &str) -> Result<DataValue> {
        let mut parser = JsonParser::new(input);
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.peek().is_some() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl From<bool> for DataValue {
    fn from(b: bool) -> Self {
        DataValue::Bool(b)
    }
}

impl From<i64> for DataValue {
    fn from(i: i64) -> Self {
        DataValue::Int(i)
    }
}

impl From<i32> for DataValue {
    fn from(i: i32) -> Self {
        DataValue::Int(i as i64)
    }
}

impl From<f64> for DataValue {
    fn from(f: f64) -> Self {
        DataValue::Float(f)
    }
}

impl From<&str> for DataValue {
    fn from(s: &str) -> Self {
        DataValue::Str(s.to_owned())
    }
}

impl From<String> for DataValue {
    fn from(s: String) -> Self {
        DataValue::Str(s)
    }
}

impl<T: Into<DataValue>> From<Option<T>> for DataValue {
    fn from(opt: Option<T>) -> Self {
        match opt {
            Some(v) => v.into(),
            None => DataValue::Null,
        }
    }
}

impl fmt::Display for DataValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

struct JsonParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> BadError {
        BadError::Parse(format!("json: {} at byte {}", msg, self.pos))
    }

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

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<DataValue> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(DataValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", DataValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", DataValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", DataValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: DataValue) -> Result<DataValue> {
        if self.input[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{}'", kw)))
        }
    }

    fn parse_object(&mut self) -> Result<DataValue> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(DataValue::Object(Arc::new(map)));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(DataValue::Object(Arc::new(map))),
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<DataValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(DataValue::Array(Arc::new(items)));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(DataValue::Array(Arc::new(items))),
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&code) {
                            // Surrogate pair.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<DataValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(DataValue::Float)
                .map_err(|_| self.error("invalid float literal"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(DataValue::Int(i)),
                // Overflowing integers degrade to floats, as in most JSON parsers.
                Err(_) => text
                    .parse::<f64>()
                    .map(DataValue::Float)
                    .map_err(|_| self.error("invalid number literal")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(DataValue::from(true).as_bool(), Some(true));
        assert_eq!(DataValue::from(4i64).as_i64(), Some(4));
        assert_eq!(DataValue::from(4i64).as_f64(), Some(4.0));
        assert_eq!(DataValue::from(2.5).as_f64(), Some(2.5));
        assert_eq!(DataValue::from("x").as_str(), Some("x"));
        assert!(DataValue::Null.is_null());
        assert_eq!(DataValue::from(Option::<i64>::None), DataValue::Null);
    }

    #[test]
    fn path_lookup() {
        let v = DataValue::object([(
            "location",
            DataValue::object([
                ("lat", DataValue::from(33.6)),
                ("lon", DataValue::from(-117.8)),
            ]),
        )]);
        assert_eq!(
            v.get_path("location.lat").and_then(DataValue::as_f64),
            Some(33.6)
        );
        assert_eq!(v.get_path("location.alt"), None);
        assert_eq!(v.get_path("missing.lat"), None);
    }

    #[test]
    fn parse_basic_document() {
        let v = DataValue::parse_json(r#"{"a": 1, "b": [true, null, "s"], "c": {"d": -2.5e1}}"#)
            .unwrap();
        assert_eq!(v.get_path("a").and_then(DataValue::as_i64), Some(1));
        assert_eq!(v.get_path("c.d").and_then(DataValue::as_f64), Some(-25.0));
        let arr = v.get("b").and_then(DataValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[1].is_null());
    }

    #[test]
    fn parse_string_escapes() {
        let v = DataValue::parse_json(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{1F600}"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(DataValue::parse_json(bad).is_err(), "should fail: {bad:?}");
        }
    }

    #[test]
    fn integer_overflow_degrades_to_float() {
        let v = DataValue::parse_json("99999999999999999999999").unwrap();
        assert!(matches!(v, DataValue::Float(_)));
    }

    #[test]
    fn roundtrip_fixed_values() {
        let v = DataValue::object([
            ("s", DataValue::from("hello \"world\"\n")),
            ("n", DataValue::Null),
            ("i", DataValue::from(-42i64)),
            ("f", DataValue::from(2.5)),
            ("whole_float", DataValue::from(3.0)),
            (
                "arr",
                DataValue::array([DataValue::from(1i64), DataValue::from(false)]),
            ),
        ]);
        let text = v.to_json_string();
        assert_eq!(DataValue::parse_json(&text).unwrap(), v);
    }

    #[test]
    fn estimated_size_is_monotone() {
        let small = DataValue::from("ab");
        let large = DataValue::from("abcdefgh");
        assert!(large.estimated_size() > small.estimated_size());
        let nested = DataValue::object([("k", large.clone())]);
        assert!(nested.estimated_size() > large.estimated_size());
    }

    /// `Debug`, JSON and the size estimate of a mixed nested value, pinned
    /// to what they were when arrays and objects owned their elements:
    /// the shared representation is not observable through them.
    #[test]
    fn representation_is_pinned() {
        let v = DataValue::object([
            ("id", DataValue::from(7i64)),
            ("score", DataValue::from(-0.5)),
            ("whole", DataValue::from(2.0)),
            ("name", DataValue::from("a \"b\"\n")),
            ("none", DataValue::Null),
            ("flag", DataValue::from(true)),
            (
                "rows",
                DataValue::array([
                    DataValue::object([("k", DataValue::from("x")), ("n", DataValue::from(1i64))]),
                    DataValue::array([DataValue::from(false), DataValue::Null]),
                    DataValue::array([]),
                    DataValue::object::<&str, _>([]),
                ]),
            ),
            (
                "loc",
                DataValue::object([
                    ("lat", DataValue::from(33.6)),
                    ("lon", DataValue::from(-117.8)),
                ]),
            ),
        ]);
        assert_eq!(
            format!("{v:?}"),
            r#"Object({"flag": Bool(true), "id": Int(7), "loc": Object({"lat": Float(33.6), "lon": Float(-117.8)}), "name": Str("a \"b\"\n"), "none": Null, "rows": Array([Object({"k": Str("x"), "n": Int(1)}), Array([Bool(false), Null]), Array([]), Object({})]), "score": Float(-0.5), "whole": Float(2.0)})"#
        );
        assert_eq!(
            format!(
                "{:#?}",
                DataValue::array([DataValue::object([("k", DataValue::from(1i64))])])
            ),
            "Array(\n    [\n        Object(\n            {\n                \"k\": Int(\n                    1,\n                ),\n            },\n        ),\n    ],\n)"
        );
        assert_eq!(
            v.to_json_string(),
            r#"{"flag":true,"id":7,"loc":{"lat":33.6,"lon":-117.8},"name":"a \"b\"\n","none":null,"rows":[{"k":"x","n":1},[false,null],[],{}],"score":-0.5,"whole":2.0}"#
        );
        assert_eq!(v.estimated_size(), 166);
    }

    #[test]
    fn clones_share_containers_and_edits_unshare_one_level() {
        let inner = DataValue::object([("k", DataValue::from(1i64))]);
        let outer = DataValue::object([("inner", inner.clone())]);
        let mut copy = outer.clone();
        let (DataValue::Object(a), DataValue::Object(b)) = (&outer, &copy) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
        if let DataValue::Object(map) = &mut copy {
            Arc::make_mut(map).insert("extra".into(), DataValue::Null);
        }
        assert_eq!(outer.as_object().unwrap().len(), 1);
        assert_eq!(copy.as_object().unwrap().len(), 2);
        // Only the edited level was copied; the untouched child is shared.
        assert!(std::ptr::eq(
            outer.get("inner").unwrap().as_object().unwrap(),
            copy.get("inner").unwrap().as_object().unwrap()
        ));
    }

    #[test]
    fn display_is_json() {
        let v = DataValue::object([("k", DataValue::from(1i64))]);
        assert_eq!(v.to_string(), r#"{"k":1}"#);
    }
}
