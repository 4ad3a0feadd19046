//! Minimal JSON value model, writer, and parser.
//!
//! The workspace is std-only (vendored-stubs environment, no serde), yet
//! three places speak JSON: the `blazer-serve` HTTP API, the CLI's `--json`
//! output, and the `table1` benchmark report. This module is their shared
//! serialization layer, so escaping and number formatting are implemented
//! exactly once.
//!
//! Objects preserve insertion order (they are association lists, not maps),
//! which keeps emitted reports diffable across runs.
//!
//! ```
//! use blazer_ir::json::Json;
//!
//! let doc = Json::obj([
//!     ("verdict", Json::from("safe")),
//!     ("lp_calls", Json::from(42u64)),
//! ]);
//! assert_eq!(doc.to_string(), r#"{"verdict": "safe", "lp_calls": 42}"#);
//! let back = Json::parse(&doc.to_string()).unwrap();
//! assert_eq!(back.get("lp_calls").and_then(Json::as_u64), Some(42));
//! ```

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, held losslessly. JSON has one numeric type on the wire,
    /// but budget and fixpoint counters are `u64`s that must round-trip
    /// exactly — routing them through `f64` corrupts values above 2^53.
    Int(i128),
    /// A non-integer (or explicitly floating-point) number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Whether an `f64` and an `i128` denote exactly the same number (the cast
/// round-trips both ways, so neither rounding nor truncation is hidden).
fn f64_equals_i128(x: f64, n: i128) -> bool {
    x.is_finite() && x == n as f64 && x.fract() == 0.0 && {
        // `x` is integral and finite; it fits i128 iff within range.
        (-1.7014118346046923e38..1.7014118346046923e38).contains(&x) && x as i128 == n
    }
}

impl PartialEq for Json {
    /// Structural equality, except numbers compare by numeric value:
    /// `Int(5)` equals `Num(5.0)`. The writer prints integral floats
    /// without a fraction and the parser reads bare integers as [`Json::Int`],
    /// so a `Num(5.0)` document must still equal its re-parsed self.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Int(n), Json::Num(x)) | (Json::Num(x), Json::Int(n)) => f64_equals_i128(*x, *n),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n as i128)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as i128)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Int(n as i128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, preserving their order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// An array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A number rounded to three decimals (the convention for reported
    /// wall-clock seconds).
    pub fn secs(x: f64) -> Json {
        Json::Num((x * 1000.0).round() / 1000.0)
    }

    /// Member lookup on an object (`None` on other variants or a missing
    /// key; the first binding wins on duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, for [`Json::Num`] and [`Json::Int`] (the latter
    /// rounds when the integer exceeds 2^53 in magnitude — use [`Json::as_u64`]
    /// for exact counters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer — exact values only.
    ///
    /// [`Json::Int`] converts iff it lies in `0..=u64::MAX`. [`Json::Num`]
    /// converts only when the float *exactly* denotes an unsigned integer,
    /// which bounds it by 2^53: beyond that, consecutive integers are no
    /// longer distinguishable in `f64`, and the old `*x <= u64::MAX as f64`
    /// check even accepted 2^64 itself through rounding (wrapping the cast).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, for [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, for [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders with two-space indentation and a trailing newline (the style
    /// of committed report files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document (the whole input must be one value plus
    /// whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity; degrade to null.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{}\": {v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the recursive-descent parser accepts. The
/// parser recurses per `[`/`{`, so unbounded input depth would become
/// unbounded native stack; reports nest a handful of levels, and 128 leaves
/// generous headroom while keeping adversarial input (the serve API parses
/// request bodies) a clean error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// A recursive-descent parser over a `&str`. The input is valid UTF-8 by
/// type, and every token boundary the parser stops at is an ASCII byte, so
/// strings and numbers are sliced out of `input` without re-validation.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte (or the end of input), so both
            // ends are character boundaries.
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        // Bare integer literals stay exact: `u64` counters (and anything up
        // to i128) survive a round trip bit-for-bit. Only literals beyond
        // i128 — which nothing in this workspace emits — degrade to `f64`.
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }
}

/// FNV-1a 64-bit hash, the workspace's content-address primitive (std has no
/// stable, documented hash; this one is tiny, portable, and deterministic
/// across processes, which on-disk cache keys require).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::from("modPow \"safe\"\n")),
            ("size", Json::from(31usize)),
            ("times", Json::arr([Json::secs(1.23456), Json::Null, Json::from(0.5)])),
            ("nested", Json::obj([("ok", Json::from(true))])),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(5u64).to_string(), "5");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::secs(0.3714).to_string(), "0.371");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn escapes_and_unescapes() {
        let s = "quote\" slash\\ nl\n tab\t ctrl\u{1} unicode é";
        let parsed = Json::parse(&Json::Str(s.into()).to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
        let unicode = Json::parse(r#""a\u00e9b \ud83d\ude00""#).unwrap();
        assert_eq!(unicode.as_str(), Some("aéb 😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "\"unterminated", "\"\\u+1a2\""]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn u64_counters_roundtrip_exactly() {
        // Every precision-boundary case the f64 route corrupted: 2^53 ± 1
        // (first gap in f64 integers), u64::MAX (2^64 − 1, which the old
        // `<= u64::MAX as f64` check rounded into accepting 2^64 itself).
        for n in [0u64, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let doc = Json::from(n);
            let text = doc.to_string();
            assert_eq!(text, n.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(n), "u64 {n} must round-trip exactly");
            assert_eq!(back, doc);
        }
    }

    #[test]
    fn as_u64_rejects_out_of_range_and_inexact() {
        // 2^64 itself: representable in f64 (and i128) but not in u64.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::Num(1.8446744073709552e19).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Num(-0.5).as_u64(), None);
        // Floats above 2^53 no longer denote a unique integer.
        assert_eq!(Json::Num(9.007199254740994e15).as_u64(), None);
        // ... but exactly-representable small integers still convert.
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::parse("5.0").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn int_and_num_compare_by_value() {
        assert_eq!(Json::Int(5), Json::Num(5.0));
        assert_eq!(Json::Num(-2.0), Json::Int(-2));
        assert_ne!(Json::Int(5), Json::Num(5.5));
        // 2^53 + 1 is not representable in f64; its nearest float is 2^53.
        assert_ne!(Json::Int((1 << 53) + 1), Json::Num(9_007_199_254_740_992.0));
        assert_ne!(Json::Int(0), Json::Num(f64::NAN));
        // Beyond i128 range the float cast would wrap without the range guard.
        assert_ne!(Json::Int(i128::MAX), Json::Num(f64::MAX));
    }

    #[test]
    fn surrogate_escapes() {
        // A valid pair decodes ...
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // ... but lone halves, malformed pairs, and truncated escapes fail
        // cleanly rather than producing invalid UTF-8 or panicking.
        for bad in [
            r#""\ud83d""#,       // lone high surrogate at end of string
            r#""\ud83d rest""#,  // high surrogate followed by plain text
            r#""\ud83d\n""#,     // high surrogate followed by a non-\u escape
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low surrogate
            r#""\u12"#,          // \u escape truncated by end of input
            r#""\u""#,           // \u with no digits before the closing quote
            r#""\ud83d\u00""#,   // truncated low half
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Multibyte characters, every escaped character, a control
        /// character, and plain ASCII: the alphabet of generated strings.
        const PALETTE: [char; 14] =
            ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '中', '😀', '\u{7f}'];

        fn text(picks: &[usize]) -> String {
            picks.iter().map(|&i| PALETTE[i % PALETTE.len()]).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Serializing and re-parsing returns the same document, and
            /// serializing that again returns the same text.
            #[test]
            fn documents_round_trip_through_text(
                key in proptest::collection::vec(0usize..14, 0..6),
                value in proptest::collection::vec(0usize..14, 0..12),
                items in proptest::collection::vec(proptest::collection::vec(0usize..14, 0..5), 0..4),
                n in 0u64..1_000_000,
            ) {
                let doc = Json::obj([
                    (text(&key), Json::from(text(&value))),
                    ("items".to_string(), Json::arr(items.iter().map(|i| text(i)))),
                    ("n".to_string(), Json::from(n)),
                    ("secs".to_string(), Json::secs(n as f64 / 7.0)),
                ]);
                let written = doc.to_string();
                let back = Json::parse(&written).unwrap();
                prop_assert_eq!(&back, &doc);
                prop_assert_eq!(back.to_string(), written);
            }
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // At the cap: parses fine.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // One past the cap: clean error, not a native stack overflow.
        let deep = format!("{}0{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).is_err());
        // Way past, mixed containers, unterminated: still a clean error.
        let hostile = "[{\"k\":".repeat(20_000);
        assert!(Json::parse(&hostile).is_err());
        // Sibling containers don't accumulate depth.
        let wide = format!("[{}1]", "[1],".repeat(500));
        assert!(Json::parse(&wide).is_ok());
    }
}
