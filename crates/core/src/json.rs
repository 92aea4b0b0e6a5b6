//! A minimal JSON reader for validating run manifests.
//!
//! The workspace's JSON *writers* are hand-rolled format strings (see
//! [`crate::report`] and the manifest in [`crate::telemetry`]); this is
//! the matching reader, just enough for `golden_check --manifest` to
//! check structure and invariants without an external dependency.
//! Integer literals that fit a `u64` (every counter the manifest emits)
//! are kept exact; every other number is parsed as `f64`. Arrays
//! and objects nest at most [`MAX_DEPTH`] deep: the reader recurses once
//! per level, so deeper input is rejected as an error rather than
//! allowed to overflow the stack.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes nest at most five deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (the manifest's writers
    /// emit sorted keys anyway).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one that fits a
    /// `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        // 2^64 is exactly representable, and every f64 below it that has
        // no fraction converts exactly.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (integers above 2^53
    /// round to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// A human-readable message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json: {msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any
                            // manifest producer; reject them plainly.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("unsupported \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) => {
                    // Consume one UTF-8 character (the input is a &str,
                    // so boundaries are trustworthy); decode only its
                    // own bytes — revalidating the whole tail here made
                    // parsing quadratic on megabyte documents.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    out.push(s.chars().next().unwrap());
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_manifest_shaped_document() {
        let doc = r#"{
          "schema": "cachegc-manifest-v1",
          "counters": {"vm_runs": 5, "gc_bytes_copied": 1048576},
          "phases": {"vm_execute": {"count": 5, "wall_ns": 123, "hist": {"20": 5}}},
          "workers": [{"events": 10, "steals": 0}],
          "empty": [], "none": null, "flag": true, "neg": -1.5
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("cachegc-manifest-v1")
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("vm_runs"))
                .and_then(Json::as_u64),
            Some(5)
        );
        let hist = v
            .get("phases")
            .and_then(|p| p.get("vm_execute"))
            .and_then(|p| p.get("hist"))
            .unwrap();
        assert_eq!(hist.get("20").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("workers").and_then(Json::as_arr).unwrap().len(), 1);
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(
            v.get("neg").and_then(Json::as_u64),
            None,
            "negative is not u64"
        );
        assert_eq!(v.get("neg"), Some(&Json::Num(-1.5)));
    }

    #[test]
    fn strings_unescape() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":1}extra",
            "\"unterminated",
            "{\"a\":01x}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_arrays_are_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok(), "the cap itself parses");
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Far past the cap, unclosed: rejected before the stack grows.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn deep_objects_are_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let ok = parse(&nested(MAX_DEPTH)).unwrap();
        assert!(ok.get("a").is_some());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&nested(100_000)).is_err());
        // Mixed arrays and objects count toward the same cap.
        let mixed = "[{\"a\":".repeat(MAX_DEPTH / 2 + 1);
        assert!(parse(&mixed).unwrap_err().contains("nesting"));
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("4.0").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn u64_is_exact_up_to_its_max_and_rejects_anything_larger() {
        // Above 2^53 an f64 parse would round these to even neighbours.
        for n in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // 2^64 and beyond do not fit, however they are spelled.
        for big in [
            "18446744073709551616",
            "18446744073709551617",
            "100000000000000000000",
            "18446744073709551616.0",
            "1.8446744073709552e19",
            "1e300",
        ] {
            assert_eq!(parse(big).unwrap().as_u64(), None, "{big}");
        }
        // Every number still reads as an f64, exact integers included.
        assert_eq!(
            parse("18446744073709551615").unwrap().as_f64(),
            Some(u64::MAX as f64)
        );
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(u64::MAX as f64)
        );
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
    }
}
