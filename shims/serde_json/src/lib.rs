#![forbid(unsafe_code)]

//! Offline stand-in for `serde_json`.
//!
//! Renders the shim serde crate's [`Value`] model to JSON text and parses it
//! back.  Only the free functions this workspace calls are provided:
//! [`to_string`], [`to_string_pretty`], [`to_vec`], [`to_writer`],
//! [`from_str`], [`from_slice`].

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec(value).map(text)
}

/// Serialize a value to human-readable, indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value(&value.to_value()?, &mut out, Some(2), 0);
    Ok(text(out))
}

/// Serialize a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Append a value's compact JSON bytes to `out`.  The real crate takes any
/// `io::Write`; a `&mut Vec<u8>` is the only one this workspace hands it (a
/// checkpoint serialized straight into its file's buffer).
pub fn to_writer<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    write_value(&value.to_value()?, out, None, 0);
    Ok(())
}

fn text(json: Vec<u8>) -> String {
    String::from_utf8(json).expect("the writer copies whole `str`s and adds ASCII")
}

/// Deserialize a value from JSON text.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T, Error> {
    let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

/// Deserialize a value from JSON bytes.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(e.to_string()))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(n) => out.extend_from_slice(n.to_string().as_bytes()),
        Value::UInt(n) => out.extend_from_slice(n.to_string().as_bytes()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.extend_from_slice(s.as_bytes());
                // `Display` prints `2` for 2.0; JSON readers (and serde_json)
                // keep the number a float by always including a fraction/exp.
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.extend_from_slice(b".0");
                }
            } else {
                // serde_json renders non-finite floats as null.
                out.extend_from_slice(b"null");
            }
        }
        Value::Str(s) => write_str(s, out),
        Value::Seq(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(b']');
        }
        Value::Map(entries) => {
            out.push(b'{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(k, out);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(b'}');
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + depth * width, b' ');
    }
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    // Copy each run that needs no escape in one piece (the mirror of
    // `parse_string`).  Every byte that needs one is ASCII, so a run ends
    // on a char boundary.
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(len) = find_special(&bytes[run..]) {
        let at = run + len;
        out.extend_from_slice(&bytes[run..at]);
        match bytes[at] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
        }
        run = at + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Whether `b` ends a run a string copies as is: a quote, a backslash or
/// a control byte.  `|`, not `||`: no branch per byte.
fn special(b: u8) -> bool {
    (b == b'"') | (b == b'\\') | (b < 0x20)
}

/// Where the first [`special`] byte of `bytes` is.  Strings here run to
/// megabytes (a checkpoint's store section), so whole 64-byte blocks are
/// tested first, each with a fold that looks at every byte and so
/// compiles to vector compares; only the block that hits is searched.
fn find_special(bytes: &[u8]) -> Option<usize> {
    let mut at = 0;
    for block in bytes.chunks_exact(64) {
        if block.iter().fold(false, |hit, &b| hit | special(b)) {
            break;
        }
        at += 64;
    }
    bytes[at..].iter().position(|&b| special(b)).map(|len| at + len)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The text being parsed (`bytes` is the same text, as bytes).
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => {
                            return Err(Error::msg(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => {
                            return Err(Error::msg(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected character {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, escape or control byte in one
            // piece.  Each is ASCII, so the run ends on a char boundary and
            // is a slice of the already-validated text.
            let start = self.pos;
            let len = find_special(&self.bytes[start..])
                .ok_or_else(|| Error::msg("unterminated string"))?;
            self.pos += len;
            out.push_str(&self.text[start..self.pos]);
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(Error::msg("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|e| Error::msg(e.to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| Error::msg(e.to_string()))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                control => {
                    // A raw control byte is taken as it stands.
                    out.push(control as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::msg(e.to_string()))?;
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|e| Error::msg(e.to_string()))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(|e| Error::msg(e.to_string()))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|e| Error::msg(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(s: &str) -> String {
        to_string(s).unwrap()
    }

    #[test]
    fn escapes_at_the_ends_of_a_run_and_back_to_back() {
        assert_eq!(written(""), r#""""#);
        assert_eq!(written("plain"), r#""plain""#);
        assert_eq!(written("\"ab\""), r#""\"ab\"""#);
        assert_eq!(written("a\\\"b"), r#""a\\\"b""#);
        assert_eq!(written("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(written("a\u{1}b\u{1f}"), r#""a\u0001b\u001f""#);
        assert_eq!(written("\u{7f} "), "\"\u{7f} \"", "DEL and space are not escaped");
    }

    #[test]
    fn to_writer_appends_what_to_vec_returns() {
        let value = vec![("a\"b".to_owned(), 1.0), ("é".to_owned(), -2.5)];
        let mut out = vec![0xFF, 0x00];
        to_writer(&mut out, &value).unwrap();
        assert_eq!(out[..2], [0xFF, 0x00]);
        assert_eq!(out[2..], to_vec(&value).unwrap());
        assert_eq!(to_string(&value).unwrap().as_bytes(), &out[2..]);
    }

    #[test]
    fn multi_byte_characters_pass_through_whole() {
        let s = "é\"→\\𝄞\né";
        assert_eq!(written(s), "\"é\\\"→\\\\𝄞\\né\"");
        assert_eq!(from_str::<String>(&written(s)).unwrap(), s);
    }

    #[test]
    fn a_default_field_may_be_absent_and_any_other_may_not() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Counts {
            seen: u64,
            #[serde(default)]
            added_later: u64,
            #[serde(default)]
            list_added_later: Vec<u32>,
        }
        let old: Counts = from_str(r#"{"seen":3}"#).unwrap();
        assert_eq!(old, Counts { seen: 3, added_later: 0, list_added_later: vec![] });
        let new = Counts { seen: 3, added_later: 9, list_added_later: vec![1, 2] };
        assert_eq!(from_str::<Counts>(&to_string(&new).unwrap()).unwrap(), new);
        assert!(from_str::<Counts>(r#"{"added_later":9}"#).is_err());
        assert!(from_str::<Counts>(r#"{"seen":3,"added_later":"x"}"#).is_err());
    }

    #[test]
    fn a_skipped_field_leaves_no_key_and_reads_back_as_its_default() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Record {
            tick: u64,
            #[serde(default, skip_serializing_if = "Option::is_none")]
            added_later: Option<(u64, u64)>,
            tail: bool,
        }
        let without = Record { tick: 3, added_later: None, tail: true };
        assert_eq!(to_string(&without).unwrap(), r#"{"tick":3,"tail":true}"#);
        assert_eq!(from_str::<Record>(r#"{"tick":3,"tail":true}"#).unwrap(), without);
        let with = Record { tick: 3, added_later: Some((7, 1)), tail: true };
        assert_eq!(to_string(&with).unwrap(), r#"{"tick":3,"added_later":[7,1],"tail":true}"#);
        assert_eq!(from_str::<Record>(&to_string(&with).unwrap()).unwrap(), with);
    }

    #[test]
    fn an_escape_at_every_offset_of_a_long_run_round_trips() {
        // Offsets 0–200 put the escape in each of the first four 64-byte
        // blocks, on and beside every block boundary.
        let run = "abcdefghijklmnopqrstuvwxyz0123456789".repeat(8);
        for (escape, written_as) in
            [("\"", "\\\""), ("\\", "\\\\"), ("\n", "\\n"), ("\u{1}", "\\u0001")]
        {
            for at in 0..=200 {
                let s = format!("{}{escape}{}", &run[..at], &run[at..]);
                let json = to_string(&s).unwrap();
                let want = format!("\"{}{written_as}{}\"", &run[..at], &run[at..]);
                assert_eq!(json, want, "{escape:?} at {at}");
                assert_eq!(from_str::<String>(&json).unwrap(), s, "{escape:?} at {at}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_strings_round_trip(
            picks in proptest::collection::vec(0usize..16, 0..400),
        ) {
            const ALPHABET: [&str; 16] = [
                "a", "Z", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}",
                "\u{7f}", "é", "→", "𝄞",
            ];
            let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            proptest::prop_assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
        }
    }
}
