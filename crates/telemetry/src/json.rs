//! A minimal, allocation-conscious JSON writer.
//!
//! The build environment has no crates.io access, so the telemetry layer
//! hand-rolls the tiny subset of JSON it needs: object literals with
//! string, integer and float values, and RFC 8259 string escaping. The
//! writer appends into a caller-provided `String` so a JSONL sink can
//! reuse one buffer per line.

/// Escapes `s` per RFC 8259 and appends it (without quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Escapes `s` into a freshly quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats an `f64` so the output is always valid JSON: finite values
/// print with up to six significant decimals, non-finite values become
/// `null` (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Trim trailing zeros for compactness while staying parseable.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_owned()
        } else {
            s.to_owned()
        }
    } else {
        "null".to_owned()
    }
}

/// An incremental writer for one JSON object appended to a `String`.
///
/// # Examples
///
/// ```
/// let mut buf = String::new();
/// {
///     let mut obj = bad_telemetry::json::ObjectWriter::new(&mut buf);
///     obj.field_str("kind", "span.drop");
///     obj.field_u64("bytes", 42);
///     obj.field_f64("score", 0.5);
/// }
/// assert_eq!(buf, r#"{"kind":"span.drop","bytes":42,"score":0.5}"#);
/// ```
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object literal on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str("\":");
    }

    /// Writes a string field.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        escape_into(self.out, value);
        self.out.push('"');
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Writes a float field (`null` for non-finite values).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.out.push_str(&number(value));
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes an array of strings, each escaped.
    pub fn field_array_str(&mut self, key: &str, values: &[String]) {
        self.key(key);
        self.out.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push('"');
            escape_into(self.out, value);
            self.out.push('"');
        }
        self.out.push(']');
    }

    /// Writes a pre-rendered JSON value verbatim (caller guarantees
    /// validity — used for nested arrays/objects).
    pub fn field_raw(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push_str(value);
    }
}

impl Drop for ObjectWriter<'_> {
    fn drop(&mut self) {
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("héllo"), "\"héllo\"");
    }

    #[test]
    fn numbers_are_compact_and_valid() {
        assert_eq!(number(1.0), "1");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(0.0), "0");
    }

    #[test]
    fn object_writer_emits_valid_object() {
        let mut buf = String::new();
        {
            let mut obj = ObjectWriter::new(&mut buf);
            obj.field_str("a", "x\"y");
            obj.field_u64("b", 7);
            obj.field_f64("c", f64::NAN);
            obj.field_raw("d", "[1,2]");
        }
        assert_eq!(buf, r#"{"a":"x\"y","b":7,"c":null,"d":[1,2]}"#);
    }

    #[test]
    fn empty_object() {
        let mut buf = String::new();
        drop(ObjectWriter::new(&mut buf));
        assert_eq!(buf, "{}");
    }
}
