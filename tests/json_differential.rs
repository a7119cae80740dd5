//! Differential tests of the JSON codec against a frozen copy of its
//! previous implementation.
//!
//! The parser slices tokens out of the input and builds containers from
//! a scratch stack; the writer has fast paths for escape-free strings,
//! indentation and unsigned integers. None of that may change what is
//! accepted, what it parses to, which error (byte offset included) a bad
//! document gets, or a single output byte. The `reference` module below
//! is the straightforward code those fast paths replaced, kept verbatim
//! so that every generated document, and every truncation and byte edit
//! of it, can be run through both.

use unimem_repro::sim::json::MAX_DEPTH;
use unimem_repro::sim::{DetRng, Json};

/// The codec as it was before the fast paths: a `fmt`-based writer and
/// a per-token `from_utf8` parser growing each container `Vec` as it
/// goes.
mod reference {
    use std::fmt;
    use unimem_repro::sim::json::MAX_DEPTH;
    use unimem_repro::sim::Json;

    pub fn to_compact(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, None, 0).expect("fmt to String cannot fail");
        out
    }

    pub fn to_pretty(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, Some(2), 0).expect("fmt to String cannot fail");
        out.push('\n');
        out
    }

    fn write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
        use fmt::Write;
        match v {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write!(out, "{u}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(out, "{n}")
                } else {
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |o, i| {
                write(&items[i], o, indent, depth + 1)
            }),
            Json::Obj(members) => write_seq(out, indent, depth, members.len(), '{', '}', |o, i| {
                let (k, v) = &members[i];
                write_escaped(o, k)?;
                o.write_str(if indent.is_some() { ": " } else { ":" })?;
                write(v, o, indent, depth + 1)
            }),
        }
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        len: usize,
        open: char,
        close: char,
        mut item: impl FnMut(&mut String, usize) -> fmt::Result,
    ) -> fmt::Result {
        out.push(open);
        if len == 0 {
            out.push(close);
            return Ok(());
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
            }
            item(out, i)?;
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
        out.push(close);
        Ok(())
    }

    fn write_escaped(out: &mut String, s: &str) -> fmt::Result {
        use fmt::Write;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.push(c),
            }
        }
        out.push('"');
        Ok(())
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        at: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn err(&self, what: &str) -> String {
            format!("json parse error at byte {}: {what}", self.at)
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.at).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.at += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.at += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn descend(&mut self) -> Result<(), String> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
            }
            Ok(())
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected {word:?}")))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => {
                    self.descend()?;
                    let v = self.array();
                    self.depth -= 1;
                    v
                }
                Some(b'{') => {
                    self.descend()?;
                    let v = self.object();
                    self.depth -= 1;
                    v
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b']') => {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.at += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b'}') => {
                        self.at += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.at;
                while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                    self.at += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.at])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.at += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.at += 1;
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
                                self.at += 1;
                                let hi = self.hex4()?;
                                let c = if (0xd800..0xdc00).contains(&hi) {
                                    if !self.bytes[self.at..].starts_with(b"\\u") {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                } else {
                                    char::from_u32(hi)
                                };
                                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                                continue;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.at += 1;
                    }
                    None => return Err(self.err("unterminated string")),
                    _ => unreachable!(),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let end = self.at + 4;
            let digits = self
                .bytes
                .get(self.at..end)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let code =
                u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.at = end;
            Ok(code)
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            if self.peek() == Some(b'-') {
                self.at += 1;
            }
            let mut integral = true;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => self.at += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        integral = false;
                        self.at += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
            if integral {
                if text.starts_with('-') {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                } else if let Ok(u) = text.parse::<u64>() {
                    return Ok(Json::UInt(u));
                }
            }
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite())
                .map(Json::Num)
                .ok_or_else(|| format!("json parse error: invalid number {text:?}"))
        }
    }
}

/// Characters that stress the escaper and the parser's string paths:
/// quotes, backslashes, every class of control character, DEL, and one-
/// to four-byte UTF-8.
const ALPHABET: &str =
    "aZ0 /\"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß€中\u{ffff}\u{1f600}\u{10ffff}";

fn gen_string(rng: &mut DetRng) -> String {
    let len = rng.index(12);
    if rng.index(3) == 0 {
        // Plain ASCII: the writer's and parser's fast path.
        (0..len)
            .map(|_| (b'a' + rng.index(26) as u8) as char)
            .collect()
    } else {
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        (0..len)
            .map(|_| alphabet[rng.index(alphabet.len())])
            .collect()
    }
}

fn gen_float(rng: &mut DetRng) -> f64 {
    match rng.index(6) {
        0 => f64::from_bits(rng.u64()),
        1 => rng.range_f64(-1e3, 1e3),
        2 => rng.index(1000) as f64, // integral: renders without a fraction
        3 => f64::MIN_POSITIVE * rng.f64(),
        4 => -(rng.u64() as f64) * 1e300,
        _ => rng.f64() * 1e-9,
    }
}

fn gen_scalar(rng: &mut DetRng) -> Json {
    match rng.index(8) {
        0 => Json::Null,
        1 => Json::Bool(rng.index(2) == 1),
        // Full u64 range: most values are above 2^53.
        2 => Json::UInt(rng.u64()),
        3 => Json::UInt(rng.index(1000) as u64),
        4 => Json::Int(-(rng.index(1 << 20) as i64) - 1),
        5 => Json::Int(i64::MIN + rng.index(3) as i64),
        6 => Json::Num(gen_float(rng)),
        _ => Json::Str(gen_string(rng)),
    }
}

fn gen_value(rng: &mut DetRng, depth: usize) -> Json {
    if depth == 0 || rng.index(3) == 0 {
        return gen_scalar(rng);
    }
    let n = rng.index(5);
    if rng.index(2) == 0 {
        Json::Arr((0..n).map(|_| gen_value(rng, depth - 1)).collect())
    } else {
        Json::Obj(
            (0..n)
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        )
    }
}

/// `levels` alternately nested arrays and objects around a leaf.
fn nest(levels: usize, leaf: Json) -> Json {
    (0..levels).fold(leaf, |inner, i| {
        if i % 2 == 0 {
            Json::Arr(vec![Json::Null, inner])
        } else {
            Json::Obj(vec![("k\u{1}".into(), inner), ("n".into(), Json::UInt(7))])
        }
    })
}

/// Conforming text the writer never produces: random whitespace, `\/`,
/// `\b`, `\f`, upper- and lower-case `\u` escapes, surrogate pairs for
/// astral characters, exponent and signed-exponent literals.
fn emit_variant(v: &Json, rng: &mut DetRng, out: &mut String) {
    let ws = |rng: &mut DetRng, out: &mut String| {
        for _ in 0..rng.index(3) {
            out.push([' ', '\n', '\t', '\r'][rng.index(4)]);
        }
    };
    ws(rng, out);
    match v {
        Json::Str(s) => emit_string(s, rng, out),
        Json::Num(n) if n.is_finite() && rng.index(2) == 0 => {
            out.push_str(&format!("{n:e}"));
        }
        Json::UInt(u) if rng.index(4) == 0 => out.push_str(&format!("{u}.0e+0")),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_variant(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                emit_string(k, rng, out);
                ws(rng, out);
                out.push(':');
                emit_variant(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&other.to_compact()),
    }
    ws(rng, out);
}

fn emit_string(s: &str, rng: &mut DetRng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let code = c as u32;
        match (c, rng.index(3)) {
            ('/', 0) => out.push_str("\\/"),
            ('\u{8}', _) => out.push_str("\\b"),
            ('\u{c}', _) => out.push_str("\\f"),
            (_, 0) if code > 0xffff => {
                let v = code - 0x10000;
                out.push_str(&format!(
                    "\\u{:04x}\\u{:04X}",
                    0xd800 + (v >> 10),
                    0xdc00 + (v & 0x3ff)
                ));
            }
            (_, 1) if code <= 0xffff => out.push_str(&format!("\\u{code:04X}")),
            _ => {
                let quoted = reference::to_compact(&Json::Str(c.to_string()));
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
    }
    out.push('"');
}

/// Bytes that change a document's meaning when swapped in.
const SIGNIFICANT: &[u8] = b"\"\\[]{},:.-+eE0129ntfu \n/";

/// Truncations and byte edits of `text`, kept valid UTF-8 (`parse`
/// takes a `&str`).
fn mutations(text: &str, rng: &mut DetRng) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let bytes = text.as_bytes();
    for _ in 0..12 {
        let cut = rng.index(bytes.len() + 1);
        if text.is_char_boundary(cut) {
            out.push(text[..cut].to_string());
        }
    }
    for _ in 0..12 {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        let mut edited = bytes.to_vec();
        if rng.index(2) == 0 {
            edited[at] ^= 1 << rng.index(8);
        } else {
            edited[at] = SIGNIFICANT[rng.index(SIGNIFICANT.len())];
        }
        if let Ok(s) = String::from_utf8(edited) {
            out.push(s);
        }
    }
    out
}

fn assert_same_parse(text: &str) {
    let want = reference::parse(text);
    let got = Json::parse(text);
    match (&want, &got) {
        (Ok(w), Ok(g)) => {
            assert_eq!(g.to_compact(), reference::to_compact(w), "input {text:?}");
            assert_eq!(g, w, "input {text:?}");
        }
        _ => assert_eq!(got, want, "input {text:?}"),
    }
}

#[test]
fn parser_agrees_with_the_reference_on_generated_documents_and_their_mutations() {
    let mut rng = DetRng::seed(0x15_0a_2b);
    for round in 0..300 {
        let v = gen_value(&mut rng, 1 + round % 5);
        let mut variant = String::new();
        emit_variant(&v, &mut rng, &mut variant);
        for text in [reference::to_compact(&v), reference::to_pretty(&v), variant] {
            assert_same_parse(&text);
            for m in mutations(&text, &mut rng) {
                assert_same_parse(&m);
            }
        }
    }
}

#[test]
fn parser_agrees_with_the_reference_at_the_depth_bound() {
    let mut rng = DetRng::seed(7);
    for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2] {
        let v = nest(levels, Json::Str("x\"y".into()));
        for text in [reference::to_compact(&v), reference::to_pretty(&v)] {
            assert_same_parse(&text);
            for m in mutations(&text, &mut rng) {
                assert_same_parse(&m);
            }
        }
    }
    assert!(Json::parse(&reference::to_compact(&nest(MAX_DEPTH, Json::Null))).is_ok());
    assert!(Json::parse(&reference::to_compact(&nest(MAX_DEPTH + 1, Json::Null))).is_err());
}

#[test]
fn parser_agrees_with_the_reference_on_edge_literals() {
    for text in [
        "",
        " ",
        "-",
        "--1",
        "-0",
        "0",
        "00",
        "01",
        "1.",
        ".5",
        "1e",
        "1e+",
        "1E-2",
        "+1",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1e400",
        "-1e400",
        "4.0",
        "1-2",
        "\"\\u+123\"",
        "\"\\u-123\"",
        "\"\\u12é\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "\"\\ud800\"",
        "\"\\ud800x\"",
        "\"\\u\"",
        "\"\\x\"",
        "\"abc",
        "\"a\\",
        "[1 2]",
        "{\"a\" 1}",
        "{1:2}",
        "[]]",
        "{}x",
        "nul",
        "truex",
        "[,]",
        "{\"a\":1,}",
    ] {
        assert_same_parse(text);
    }
}

#[test]
fn writer_is_byte_identical_to_the_reference() {
    let mut rng = DetRng::seed(0xfa57);
    for round in 0..400 {
        let v = gen_value(&mut rng, 1 + round % 6);
        assert_eq!(v.to_compact(), reference::to_compact(&v));
        assert_eq!(v.to_pretty(), reference::to_pretty(&v));
    }
    // Indentation deeper than the writer's space constant, and the
    // extreme integers.
    for levels in [31, 32, 33, 40, 70, MAX_DEPTH] {
        let leaf = Json::Arr(vec![
            Json::UInt(u64::MAX),
            Json::UInt(0),
            Json::Int(i64::MIN),
            Json::Int(-1),
            Json::Num(-0.0),
            Json::Num(f64::NAN),
            Json::Str("\u{0}\u{1f}\u{7f}é\u{1f600}\"\\".into()),
        ]);
        let v = nest(levels, leaf);
        assert_eq!(v.to_compact(), reference::to_compact(&v));
        assert_eq!(v.to_pretty(), reference::to_pretty(&v));
    }
}
