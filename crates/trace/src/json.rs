//! A minimal hand-rolled JSON writer and parser.
//!
//! The trace crate is std-only (this environment builds offline, so
//! `serde_json` is not available), and the manifest format is small and
//! flat, so a few hundred lines of JSON plumbing beat a dependency.
//!
//! Two deliberate deviations from a general-purpose JSON library:
//!
//! - objects preserve key order (they are `Vec<(String, Value)>`, not
//!   maps), so manifests round-trip byte-stably;
//! - non-negative integers without fraction or exponent parse into
//!   [`Value::Int`] (`u64`), so 64-bit seeds and nanosecond counts
//!   round-trip exactly instead of passing through `f64`.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64` exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an exact non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Any numeric payload, widened to `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entry list, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// `s` as a quoted, escaped JSON string.
#[must_use]
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

impl fmt::Display for Value {
    /// Compact (no whitespace) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Num(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(&escaped(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escaped(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// One linear pass: each run of plain bytes up to the next `"` or `\`
    /// is validated and copied whole. Both delimiters are ASCII, so a run
    /// of a `&str` input is always valid UTF-8 on its own.
    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            let text = std::str::from_utf8(&self.bytes[start..start + run])
                .map_err(|_| self.error("invalid utf-8"))?;
            out.push_str(text);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = u32::from(self.hex4()?);
                            // A high surrogate combines only with a
                            // following low-surrogate escape; a lone one
                            // decodes to U+FFFD and the next escape, if
                            // any, decodes on its own.
                            let code = if (0xD800..0xDC00).contains(&unit) {
                                self.low_surrogate()
                                    .map(|low| 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
                            } else {
                                Some(unit)
                            };
                            out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes a `\uXXXX` escape if it encodes a low surrogate
    /// (DC00–DFFF) and returns its unit; otherwise leaves the cursor where
    /// it was.
    fn low_surrogate(&mut self) -> Option<u32> {
        let start = self.pos;
        if self.bytes.get(start..start + 2) != Some(b"\\u".as_slice()) {
            return None;
        }
        self.pos += 2;
        match self.hex4() {
            Ok(low) if (0xDC00..0xE000).contains(&low) => Some(u32::from(low)),
            _ => {
                self.pos = start;
                None
            }
        }
    }

    /// Exactly four ASCII hex digits (`from_str_radix` alone would also
    /// take a sign, decoding `\u+041` as `A`).
    fn hex4(&mut self) -> Result<u16, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let mut unit = 0u16;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            unit = unit << 4 | digit as u16;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut exact_int = self.pos > start && self.bytes[start] != b'-';
        if self.peek() == Some(b'.') {
            exact_int = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exact_int = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        if exact_int {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Value::Int(42));
        assert_eq!(parse("-1.5").unwrap(), Value::Num(-1.5));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn u64_integers_round_trip_exactly() {
        let big = u64::MAX;
        let doc = format!("{{\"seed\": {big}}}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(big));
    }

    #[test]
    fn objects_preserve_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": [1, 2, {"x": "y"}]}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"{"name":"s27 \"quoted\"","phases":[{"wall_ns":12345},null,true],"x":-2.5}"#;
        let v = parse(doc).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.to_string(), doc);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escaped("a\tb\u{1}"), "\"a\\tb\\u0001\"");
        let back = parse(&escaped("a\tb\u{1}")).unwrap();
        assert_eq!(back.as_str(), Some("a\tb\u{1}"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let v = parse("\"\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("é"));
    }

    #[test]
    fn high_surrogate_before_a_non_low_escape_decodes_both() {
        // 0x0041 is no low surrogate: combining it would underflow
        // `low - 0xDC00` (a panic in debug, a bogus U+2441 in release).
        let v = parse(r#""\uD800\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn high_surrogate_before_another_pair_keeps_the_pair() {
        // A second high surrogate is not a low half; the pair it opens
        // must still decode.
        let v = parse(r#""\uD800\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}😀"));
    }

    #[test]
    fn high_surrogate_before_a_short_escape_is_well_formed() {
        let v = parse(r#""\uD800\n""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}\n"));
        assert!(parse(r#""\uD800\uZZZZ""#).is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        let unit = "plain ascii run, é ü 中文 😀 \"quoted\" back\\slash\n\t\u{1} ";
        let source = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = escaped(&source);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(parse(&doc)));
        let decoded = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a 1 MiB string must decode well within 10 s");
        worker.join().unwrap().unwrap();
        assert_eq!(decoded.unwrap(), Value::Str(source));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        // A sign after a high surrogate is not a low-surrogate escape
        // either: the surrogate decodes alone and the escape is rejected.
        assert!(parse(r#""\ud83d\u+de0""#).is_err());
    }
}
