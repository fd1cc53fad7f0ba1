//! The workspace's one JSON codec: the [`Value`] document tree, its compact and
//! pretty writers, the [`Value::parse`] reader, and the structural [`ToJson`]
//! trait with its impls for the scalars and slices a manifest is made of.
//!
//! The reader accepts exactly the RFC 8259 grammar and reads everything the
//! writers emit back to an equal tree.  Integers parse exactly (`u64`, then
//! `i64`) before falling back to `f64`, because seeds and cycle counts use the
//! full `u64` range.

use std::fmt::Write;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer (the reader produces it for negative integers only).
    Int(i64),
    /// A floating-point number (non-finite values emit `null` per JSON).
    Float(f64),
    /// A string (escaped on emission).
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member `key` of an object (the first, should a document repeat a key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            Value::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a float; integers widen, so `1` reads where `1.0` is meant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a boolean, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize without whitespace.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false, 0);
        out
    }

    /// Serialize with two-space indentation; an array of scalars stays on one
    /// line (`[1, 2]`).
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true, 0);
        out
    }

    /// Parse one JSON document.  Trailing content, unescaped control bytes in
    /// strings, lone surrogates, numbers beyond `f64` and nesting deeper than
    /// 128 levels are errors; the message carries the byte offset.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing content"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, pretty: bool, depth: usize) {
        const INFALLIBLE: &str = "writing to a String cannot fail";
        // In the pretty layout, break the line and indent to `depth`.
        let newline = |out: &mut String, depth: usize| {
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => write!(out, "{n}").expect(INFALLIBLE),
            Value::Int(n) => write!(out, "{n}").expect(INFALLIBLE),
            Value::Float(f) if !f.is_finite() => out.push_str("null"),
            Value::Float(f) => {
                // Always keep a decimal point so the value reads back as a
                // float (`1.0`, not `1`); `{}` never prints an exponent.
                let start = out.len();
                write!(out, "{f}").expect(INFALLIBLE);
                if !out[start..].contains('.') {
                    out.push_str(".0");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                let one_line = !items
                    .iter()
                    .any(|v| matches!(v, Value::Array(_) | Value::Object(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if one_line && pretty { ", " } else { "," });
                    }
                    if !one_line {
                        newline(out, depth + 1);
                    }
                    item.write(out, pretty, depth + 1);
                }
                if !one_line {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(if pretty { ": " } else { ":" });
                    value.write(out, pretty, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` as a JSON string literal with the escapes RFC 8259 requires.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 128;

/// Recursive-descent reader over the document's bytes.  Every position it
/// slices `text` at sits next to an ASCII byte, so it is a `char` boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(what));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("bad literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of document")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.sequence(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected object key string"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    pairs.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected byte {c:#04x}"))),
        }
    }

    /// The comma-separated body of an array or object, from its opening
    /// bracket (at `pos`) through `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: a single 0, or a nonzero digit followed by digits.
        if !self.eat(b'0') {
            self.digits("bad number")?;
        }
        let fraction = self.eat(b'.');
        if fraction {
            self.digits("bad fraction")?;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits("bad exponent")?;
        }
        let token = &self.text[start..self.pos];
        if !fraction && !exponent {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = token.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        match token.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(format!("number out of range at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control byte")),
            }
        }
    }

    /// The character the escape sequence at `pos` stands for.
    fn escape(&mut self) -> Result<char, String> {
        self.pos += 2;
        Ok(match self.text.as_bytes().get(self.pos - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = match self.hex4()? {
                    // A high surrogate must be followed by an escaped low one.
                    high @ 0xd800..=0xdbff if self.eat(b'\\') && self.eat(b'u') => {
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => return Err(self.error("lone surrogate")),
                        }
                    }
                    unit => unit,
                };
                // Fails for a surrogate that is not part of such a pair.
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

/// Check that `text` is one well-formed JSON document.
pub fn validate_json(text: &str) -> Result<(), String> {
    Value::parse(text).map(drop)
}

/// Structural serialization into a [`Value`] tree.
pub trait ToJson {
    /// Convert `self` into a JSON document tree.
    fn to_json(&self) -> Value;
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::UInt(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Value {
        Value::UInt(u64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round_shapes() {
        let v = Value::object([
            ("name", Value::Str("a\"b\\c\n".to_string())),
            ("count", Value::UInt(3)),
            ("ratio", Value::Float(0.5)),
            ("whole", Value::Float(2.0)),
            ("bad", Value::Float(f64::NAN)),
            ("items", Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(
            v.dump(),
            r#"{"name":"a\"b\\c\n","count":3,"ratio":0.5,"whole":2.0,"bad":null,"items":[true,null]}"#
        );
    }

    #[test]
    fn pretty_print_indents_and_keeps_scalar_arrays_on_one_line() {
        let v = Value::object([
            ("xs", [1u64, 2].to_json()),
            ("rows", Value::Array(vec![[1u64].to_json(), Value::Null])),
            ("none", Value::Array(vec![])),
            ("empty", Value::Object(vec![])),
        ]);
        assert_eq!(
            v.dump_pretty(),
            "{\n  \"xs\": [1, 2],\n  \"rows\": [\n    [1],\n    null\n  ],\n  \"none\": [],\n  \"empty\": {}\n}"
        );
        assert_eq!(Value::parse(&v.dump_pretty()), Ok(v));
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut out = String::new();
        write_escaped(&mut out, "a\u{1}b\tc");
        assert_eq!(out, "\"a\\u0001b\\tc\"");
    }

    #[test]
    fn trait_impls_cover_the_workspace_types() {
        assert_eq!(true.to_json().dump(), "true");
        assert_eq!(42u64.to_json().dump(), "42");
        assert_eq!(7usize.to_json().dump(), "7");
        assert_eq!(3u32.to_json().dump(), "3");
        assert_eq!("hi".to_json().dump(), "\"hi\"");
        assert_eq!([1u64, 2].to_json().dump(), "[1,2]");
    }

    #[test]
    fn parse_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-0.5e+10",
            "\"esc \\u00e9 \\n\"",
            "{\"a\": [1, 2.5, true, false, null], \"b\": {\"c\": \"d\"}}",
            " { \"nested\" : [ { } , [ ] ] } \n",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "{'a': 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "1e999",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"short \\u12\"",
            "\"lone high \\ud83d\"",
            "\"high then not low \\ud83d\\u0041\"",
            "\"lone low \\ude00\"",
            "{} trailing",
            "\"\u{1}\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest(MAX_DEPTH + 2)).is_err());
        assert!(Value::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn integers_parse_exactly_before_falling_back_to_float() {
        assert_eq!(
            Value::parse("18446744073709551615"),
            Ok(Value::UInt(u64::MAX))
        );
        assert_eq!(
            Value::parse("-9223372036854775808"),
            Ok(Value::Int(i64::MIN))
        );
        assert_eq!(Value::parse("0"), Ok(Value::UInt(0)));
        assert_eq!(
            Value::parse("18446744073709551616"),
            Ok(Value::Float(18446744073709551616.0))
        );
        assert_eq!(Value::parse("1.0"), Ok(Value::Float(1.0)));
        assert_eq!(Value::parse("1e2"), Ok(Value::Float(100.0)));
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            Value::parse(r#""\u00e9 \ud83d\ude00 \/ \b\f\n\r\t \" \\""#),
            Ok(Value::Str(
                "\u{e9} \u{1f600} / \u{8}\u{c}\n\r\t \" \\".to_string()
            ))
        );
    }

    #[test]
    fn typed_accessors_read_what_the_tree_holds() {
        let v = Value::parse(r#"{"n":7,"neg":-7,"x":1.5,"ok":true,"s":"t","xs":[1],"n":8}"#)
            .expect("well-formed");
        let get = |key| v.get(key).expect("present");
        assert_eq!(get("n").as_u64(), Some(7), "the first of a repeated key");
        assert_eq!(get("n").as_f64(), Some(7.0));
        assert_eq!(get("neg").as_u64(), None);
        assert_eq!(get("neg").as_f64(), Some(-7.0));
        assert_eq!(get("x").as_u64(), None);
        assert_eq!(get("x").as_f64(), Some(1.5));
        assert_eq!(get("ok").as_bool(), Some(true));
        assert_eq!(get("s").as_str(), Some("t"));
        assert_eq!(get("xs").as_array(), Some(&[Value::UInt(1)][..]));
        assert_eq!(get("s").as_bool(), None);
        assert!(v.get("missing").is_none() && get("xs").get("n").is_none());
    }
}
