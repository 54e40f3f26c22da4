//! The one JSON writer and reader behind every document the system emits:
//! trace JSONL, stream captures, span exports, `bridge-metrics/1`,
//! `bridge-health/1`, `bridge-alerts/1` and `BENCH_simulator.json`.
//!
//! **Writer.** [`object`] appends one compact object to a `String`; its
//! closure adds members in order through [`Object`], which places every
//! comma, escapes string values, writes `null` for an absent value and
//! renders integers with an allocation-free digit loop — no `format!`
//! machinery, so the trace stream serializes each event into a reused
//! buffer without allocating. Keys are written as given: they are field
//! names and registered instrument names, and scanning each one for
//! escapes would cost the per-event trace line a measurable share of its
//! time. Only [`Object::f64`] formats, and only the perf harness uses it.
//!
//! **Reader.** [`member`] returns the raw text of one top-level member of
//! an object, [`elements`] that of each element of an array. It walks
//! strings (escaped quotes included) and nested values, so a key is
//! found only among the members of the object asked about. It validates
//! nothing else: it reads documents this writer produced.

use std::fmt::Write as _;

/// Appends one JSON object to `out`: `{`, the members `body` adds, `}`.
pub fn object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object { out, first: true });
    out.push('}');
}

/// An open JSON object. Every method appends one member, preceded by a
/// comma unless it is the first, and returns `self` for chaining.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    /// Appends the separator and `"key":`, returning the buffer for the
    /// value.
    #[inline]
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push_str(if self.first { "\"" } else { ",\"" });
        self.first = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// An unsigned integer member.
    #[inline]
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        push_u64(self.key(key), v);
        self
    }

    /// A signed integer member.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        let out = self.key(key);
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
        self
    }

    /// An unsigned integer member, or `null` when absent.
    #[inline]
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(key, v),
            None => self.null(key),
        }
    }

    /// A string member, or `null` when absent.
    pub fn opt_str(&mut self, key: &str, v: Option<&str>) -> &mut Self {
        match v {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// A string member, escaped. Forced inline, like `push_u64`: the
    /// per-event trace line calls both several times, and inlining them
    /// there measured about a quarter faster.
    #[inline(always)]
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        escape_into(out, v);
        out.push('"');
        self
    }

    /// A float member with exactly `decimals` places; `null` when `v` is
    /// not finite (JSON has no NaN or infinity).
    pub fn f64(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null(key);
        }
        let _ = write!(self.key(key), "{v:.decimals$}");
        self
    }

    /// A nested object member whose members `body` adds.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.key(key), body);
        self
    }

    /// A nested array member whose elements `body` adds.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        body(&mut Array { out, first: true });
        out.push(']');
        self
    }
}

/// An open JSON array of objects.
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    /// Appends one object element whose members `body` adds.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        object(self.out, body);
        self
    }
}

/// Appends `v` in decimal. `u64::MAX` is 20 digits, so the stack buffer
/// always fits.
#[inline(always)]
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends `s` escaped for the inside of a JSON string: quote and
/// backslash take a backslash, control characters become `\u00XX`.
/// Every byte that needs escaping is ASCII, so scanning bytes never
/// splits a character, and a string with none is copied whole.
#[inline]
fn escape_into(out: &mut String, s: &str) {
    let special = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    if !s.bytes().any(special) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// Escapes `s` for the inside of a JSON string, as the writer does for
/// every string value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Byte length of the JSON value `s` starts with: a string, a whole
/// object or array, or a bare scalar up to the next delimiter.
fn value_len(s: &str) -> usize {
    let b = s.as_bytes();
    let (mut depth, mut in_str, mut i) = (0usize, false, 0);
    while i < b.len() {
        match (in_str, b[i]) {
            (true, b'\\') => i += 1,
            (true, b'"') => {
                in_str = false;
                if depth == 0 {
                    return i + 1;
                }
            }
            (true, _) => {}
            (false, b'"') => in_str = true,
            (false, b'{' | b'[') => depth += 1,
            (false, b'}' | b']') if depth > 1 => depth -= 1,
            (false, b'}' | b']') if depth == 1 => return i + 1,
            (false, b',' | b'}' | b']' | b'\n') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// The raw text of `key`'s value among the top-level members of the
/// object `obj`: strings keep their quotes (and their escapes), objects
/// and arrays come back whole, scalars verbatim. `None` when `obj` is
/// not an object or has no such member; a `null` member is `Some("null")`.
pub fn member<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let mut rest = obj.trim_start().strip_prefix('{')?;
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if !rest.starts_with('"') {
            return None;
        }
        let name_len = value_len(rest);
        let name = rest.get(1..name_len - 1)?;
        let value = rest[name_len..]
            .trim_start()
            .strip_prefix(':')?
            .trim_start();
        let len = value_len(value);
        if name == key {
            return Some(value[..len].trim_end());
        }
        rest = &value[len..];
    }
}

/// The raw text of each element of the array `arr`, in order.
pub fn elements(arr: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let Some(mut rest) = arr.trim_start().strip_prefix('[') else {
        return out;
    };
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        let len = value_len(rest);
        if len == 0 || rest.starts_with(']') {
            return out;
        }
        out.push(rest[..len].trim_end());
        rest = &rest[len..];
    }
}

/// `key`'s value as an unsigned integer; `None` when absent, `null` or
/// not an unsigned integer.
pub fn u64_member(obj: &str, key: &str) -> Option<u64> {
    member(obj, key)?.parse().ok()
}

/// `key`'s string value without its quotes (escapes are left as
/// written); `None` when absent or not a string.
pub fn str_member<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = member(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut Object<'_>)) -> String {
        let mut out = String::new();
        object(&mut out, body);
        out
    }

    #[test]
    fn writer_places_commas_nests_and_escapes() {
        let d = doc(|o| {
            o.str("s", "a\"b\\c\u{1}\n\u{e9}")
                .u64("max", u64::MAX)
                .u64("zero", 0)
                .i64("neg", i64::MIN)
                .opt_u64("none", None)
                .opt_u64("some", Some(7))
                .opt_str("nostr", None)
                .bool("t", true)
                .object("empty", |_| {})
                .object("nested", |o| {
                    o.bool("f", false);
                })
                .array("arr", |a| {
                    a.object(|o| {
                        o.u64("i", 1);
                    })
                    .object(|_| {});
                })
                .array("none", |_| {});
        });
        assert_eq!(
            d,
            r#"{"s":"a\"b\\c\u0001\u000aé","max":18446744073709551615,"zero":0,"neg":-9223372036854775808,"none":null,"some":7,"nostr":null,"t":true,"empty":{},"nested":{"f":false},"arr":[{"i":1},{}],"none":[]}"#
        );
    }

    #[test]
    fn floats_have_fixed_places_and_non_finite_is_null() {
        let d = doc(|o| {
            o.f64("a", 2.0, 3)
                .f64("b", 0.123456, 4)
                .f64("c", f64::NAN, 2)
                .f64("d", f64::INFINITY, 2);
        });
        assert_eq!(d, r#"{"a":2.000,"b":0.1235,"c":null,"d":null}"#);
    }

    #[test]
    fn escape_matches_the_writer() {
        assert_eq!(json_escape("q\"\\\u{1f}x"), "q\\\"\\\\\\u001fx");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let d = doc(|o| {
            o.str("s", "a\"b,}").u64("n", 3).object("o", |o| {
                o.u64("n", 4);
            });
        });
        assert_eq!(str_member(&d, "s"), Some(r#"a\"b,}"#));
        assert_eq!(u64_member(&d, "n"), Some(3));
        assert_eq!(member(&d, "o"), Some(r#"{"n":4}"#));
    }

    /// A key that appears only inside another member's value is not a
    /// member of the outer object.
    #[test]
    fn nested_key_is_not_a_top_level_member() {
        let d = r#"{"a":{"b":1},"b":2}"#;
        assert_eq!(u64_member(d, "b"), Some(2));
        assert_eq!(u64_member(r#"{"a":{"b":1}}"#, "b"), None);
        assert_eq!(u64_member(r#"{"a":"\"b\":1"}"#, "b"), None);
    }

    #[test]
    fn string_value_with_escaped_quote_is_read_whole() {
        let d = r#"{"s":"a\"b","t":"x"}"#;
        assert_eq!(str_member(d, "s"), Some(r#"a\"b"#));
        assert_eq!(str_member(d, "t"), Some("x"));
        assert_eq!(member(r#"{"s":"a\\"}"#, "s"), Some(r#""a\\""#));
    }

    #[test]
    fn null_member_differs_from_absent_key() {
        let d = r#"{"a":null,"b":1}"#;
        assert_eq!(member(d, "a"), Some("null"));
        assert_eq!(member(d, "c"), None);
        assert_eq!(u64_member(d, "a"), None, "null is not a number");
        assert_eq!(str_member(d, "a"), None, "null is not a string");
    }

    #[test]
    fn empty_object_and_empty_array() {
        assert_eq!(member("{}", "a"), None);
        assert_eq!(member(" { } ", "a"), None);
        assert!(elements("[]").is_empty());
        assert!(elements(" [ ] ").is_empty());
        assert_eq!(member(r#"{"e":[],"o":{}}"#, "e"), Some("[]"));
        assert_eq!(member(r#"{"e":[],"o":{}}"#, "o"), Some("{}"));
    }

    #[test]
    fn elements_split_top_level_values() {
        let arr = r#"[{"a":[1,2]}, "x,y" ,3]"#;
        assert_eq!(elements(arr), vec![r#"{"a":[1,2]}"#, r#""x,y""#, "3"]);
    }

    #[test]
    fn non_objects_have_no_members() {
        assert_eq!(member("not json", "a"), None);
        assert_eq!(member("", "a"), None);
        assert_eq!(member("[1]", "a"), None);
        assert!(elements("{}").is_empty());
    }
}
