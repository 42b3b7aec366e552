//! The one JSON writer under every report, reply and request line the
//! workspace emits (the build environment has no serde).
//!
//! [`JsonWriter`] places the separators (`", "` between items, `": "`
//! after a key); escapes every key and string through [`json_string`]'s
//! escaper; writes integers as integers and floats in shortest
//! round-trip form, non-finite ones as `null`; and splices pre-rendered
//! JSON only through [`JsonWriter::raw`]. Objects and arrays are written
//! by closures, so every brace it opens, it closes. It has no
//! pretty-printing and no precision setting.

use std::fmt::Write as _;

/// Escapes a string for JSON, quotes included. Covers the full RFC 8259
/// mandatory set (quote, backslash, C0 controls as `\u` escapes) plus
/// DEL and the U+2028/U+2029 line separators — the latter are legal raw
/// in JSON but break JSON-lines framing and JavaScript embedding, and a
/// wire protocol makes that a real bug rather than a cosmetic one.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

mod sealed {
    pub trait Sealed {}
}

/// What [`JsonWriter::value`] takes: a string, a boolean, an integer, a
/// float, a reference to one, or an `Option` of one (`None` is `null`).
/// Sealed, so pre-rendered JSON has no way in but [`JsonWriter::raw`].
pub trait JsonValue: sealed::Sealed {
    /// Appends this value's JSON spelling to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! json_values {
    ($($t:ty),* => |$v:ident, $out:ident| $body:expr) => {$(
        impl sealed::Sealed for $t {}
        impl JsonValue for $t {
            fn write_to(&self, $out: &mut String) {
                let $v = self;
                $body
            }
        }
    )*};
}

// `bool` and the integers display as JSON spells them.
json_values!(bool, u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize => |v, out| {
    let _ = write!(out, "{v}");
});
json_values!(f64 => |v, out| if v.is_finite() {
    let _ = write!(out, "{v}");
} else {
    out.push_str("null");
});
json_values!(str, String => |v, out| escape_into(out, v));

impl<T: JsonValue + ?Sized> sealed::Sealed for &T {}
impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl<T: JsonValue> sealed::Sealed for Option<T> {}
impl<T: JsonValue> JsonValue for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// A streaming JSON writer appending to one `String`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next item needs a `", "` before it.
    comma: bool,
}

impl JsonWriter {
    /// The JSON written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push_str(", ");
        }
        &mut self.out
    }

    /// Writes one value.
    pub fn value(&mut self, v: impl JsonValue) -> &mut Self {
        v.write_to(self.separate());
        self
    }

    /// Writes a member's key; the next item written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        escape_into(self.separate(), key);
        self.out.push_str(": ");
        self.comma = false;
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, v: impl JsonValue) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('{', members, '}')
    }

    /// Writes an array whose elements `elements` writes.
    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('[', elements, ']')
    }

    fn nested(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.separate().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Splices `json`, one complete JSON value, verbatim: a cached
    /// payload, a drained trace, a rendered stats object.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate().push_str(json);
        self
    }
}

/// The text of one JSON object whose members `members` writes.
pub fn json_object(members: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(members);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separators_nest_and_values_keep_their_kind() {
        let json = json_object(|w| {
            w.key("a").array(|w| {
                w.object(|_| {}).array(|_| {}).value(u64::MAX).value(-3i64);
                w.value(2.0)
                    .value(-0.0)
                    .value(1e-7)
                    .value(f64::NAN)
                    .value(true);
            });
            w.field("b", Some(0.1)).key("c").raw("{\"d\": 1}");
        });
        assert_eq!(
            json,
            r#"{"a": [{}, [], 18446744073709551615, -3, 2, -0, 0.0000001, null, true], "b": 0.1, "c": {"d": 1}}"#
        );
    }

    #[test]
    fn keys_and_strings_share_the_escaper() {
        let nasty = "q\"b\\n\n\u{1}\u{7f}\u{2028}\u{2029}é";
        let escaped = json_string(nasty);
        assert_eq!(escaped, r#""q\"b\\n\n\u0001\u007f\u2028\u2029é""#);
        let json = json_object(|w| {
            w.field(nasty, nasty);
        });
        assert_eq!(json, format!("{{{escaped}: {escaped}}}"));
    }
}
