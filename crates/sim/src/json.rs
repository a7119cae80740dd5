//! Minimal deterministic JSON document builder **and parser**.
//!
//! Every machine-readable report is built through this hand-rolled value
//! tree: each result type owns a `to_json` and, where it is read back, a
//! `from_json` written against the member accessors below
//! ([`Json::field`], [`Json::string`], [`Json::uint`], [`Json::float`],
//! [`Json::decode`]). Two properties matter more than generality:
//!
//! * **Determinism** — object members keep insertion order, floats render
//!   with Rust's shortest round-trip formatting, and nothing consults
//!   locale, hashing, or the host clock. Identical values serialize to
//!   byte-identical text, which the determinism regression tests rely on.
//! * **Self-containment** — no dependency beyond `std`, so every crate in
//!   the workspace (and the sweep harness in particular) can emit reports.
//!
//! Non-finite floats have no JSON representation and render as `null`.
//!
//! [`Json::parse`] is the inverse, added for the sweep's incremental cell
//! cache: cached cells are stored as JSON text and must reconstruct to
//! values that re-serialize **byte-identically**. Its input is treated as
//! hostile: nesting deeper than [`MAX_DEPTH`] is an error, not a stack
//! overflow. The round-trip contract
//! is `parse(v.to_compact())?.to_compact() == v.to_compact()` for every
//! value this builder can produce, which hinges on two details: unsigned
//! integer literals parse to [`Json::UInt`] (not a lossy `f64`) so `u64`
//! counters above 2^53 survive, and fractional/exponent literals parse
//! through Rust's correctly-rounded `str::parse::<f64>`, whose result
//! re-renders to the same shortest form.
//!
//! Both directions are on the warm sweep's path (a full-matrix rerun
//! parses 1,485 cache entries and writes an 8 MB report), so each keeps a
//! fast path for the common case and the full path for the rest:
//!
//! * **Parser.** The input is a `&str`, already valid UTF-8, and every
//!   token boundary is an ASCII byte, so strings and numbers are sliced
//!   out of it with no per-token UTF-8 check. A string without escapes
//!   is found in one scan to its closing quote and copied into one
//!   exact-size allocation; only a string holding a `\` takes the
//!   decoding loop. Arrays and objects collect their elements on a
//!   scratch stack in the parser and close into one exact-size `Vec`.
//! * **Writer.** A string with nothing to escape is pushed whole,
//!   indentation is pushed as slices of a space constant, and unsigned
//!   and signed integers are formatted without `fmt`. Floats keep std's
//!   shortest round-trip `Display`.
//!
//! `tests/json_differential.rs` runs both against a frozen copy of the
//! plain code they replaced: same values, same errors, same bytes.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Real documents
/// (reports, cache entries, perf baselines) nest about six levels; the
/// bound only exists so a hostile input cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (no hashing) so the
/// serialized form is a pure function of construction order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers (counters, byte sizes) keep full u64 precision.
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object. Panics on non-objects: that is a
    /// construction bug, not a data error.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Member lookup (first match), for tests and report post-processing.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, when it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a lossless u64 (integer variants only, no float
    /// rounding) — counters and byte sizes above 2^53 survive.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    // Member accessors for decoders: each error names the member, so a
    // decode failure (say, a corrupt cache entry) says what was wrong.

    /// Member `key`, or an error naming it.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing member {key:?}"))
    }

    /// String member `key`.
    pub fn string(&self, key: &str) -> Result<String, String> {
        self.field(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("member {key:?} is not a string"))
    }

    /// Unsigned-integer member `key` (lossless, see [`Json::as_u64`]).
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| format!("member {key:?} is not an unsigned integer"))
    }

    /// Numeric member `key`.
    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| format!("member {key:?} is not a number"))
    }

    /// Member `key` decoded by `decode`; errors from inside the member
    /// are prefixed with its name, so nested failures read as a path.
    pub fn decode<'a, T>(
        &'a self,
        key: &str,
        decode: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        decode(self.field(key)?).map_err(|e| format!("member {key:?}: {e}"))
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline (the on-disk `BENCH_*.json` format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::with_capacity(OUT_START);
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write_u64(out, *u),
            Json::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                write_u64(out, i.unsigned_abs());
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip form; deterministic across runs
                    // and hosts for identical bit patterns.
                    use fmt::Write;
                    write!(out, "{n}").expect("fmt to String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |o, i| {
                items[i].write(o, indent, depth + 1)
            }),
            Json::Obj(members) => write_seq(out, indent, depth, members.len(), '{', '}', |o, i| {
                let (k, v) = &members[i];
                write_escaped(o, k);
                o.push_str(if indent.is_some() { ": " } else { ":" });
                v.write(o, indent, depth + 1)
            }),
        }
    }
}

/// Starting capacity of a pretty-printed document. Strings are pushed
/// whole, and a push longer than the free space sizes the buffer to fit
/// it instead of doubling; from a small start that puts every later
/// doubling off the powers of two, which cost the full-matrix report
/// (8 MB of text) 1 MiB of peak RSS. No single push in a report comes
/// near this size, so from here the capacity only ever doubles. Compact
/// text (cache keys and entries, a few KB at most) starts empty.
const OUT_START: usize = 4096;

/// Decimal digits of `u`, without the `fmt` machinery (counters and byte
/// sizes are most of a report's numbers).
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Indentation is pushed as slices of this, not one `char` at a time.
const SPACES: &str = "                                                                ";

fn write_indent(out: &mut String, mut width: usize) {
    while width > 0 {
        let run = width.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        width -= run;
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            write_indent(out, w * (depth + 1));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        write_indent(out, w * depth);
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Fast path: most strings (names, keys) need no escape at all.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("fmt to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// Parse JSON text into a value tree.
    ///
    /// Accepts exactly standard JSON (as produced by [`Json::to_compact`]
    /// / [`Json::to_pretty`], but any conforming writer works). Number
    /// literals map back onto the numeric variants losslessly: unsigned
    /// integers to [`Json::UInt`], negative integers to [`Json::Int`],
    /// everything with a fraction or exponent (or beyond integer range)
    /// to [`Json::Num`]. Errors carry the byte offset of the problem,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// Recursive-descent JSON parser over a `&str` (`at` is a byte offset).
/// Every token boundary is an ASCII byte, so strings and numbers are
/// sliced straight out of the already-validated input.
struct Parser<'a> {
    text: &'a str,
    at: usize,
    /// Open arrays/objects around `at`.
    depth: usize,
    /// Scratch stack of array items: an open array's items sit above
    /// the height the stack had at its `[`, and its `]` drains them into
    /// one exact-size `Vec`.
    items: Vec<Json>,
    /// The same scratch stack for object members.
    members: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.at)
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.at).copied()
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

    /// Enter one array/object level, refusing to go past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.at..].starts_with(word.as_bytes()) {
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
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    // `drain(..).collect()` allocates exactly the item
                    // count (`split_off` would hand back the scratch
                    // buffer with all its spare capacity).
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let base = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(self.members.drain(base..).collect()));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        // Fast path: no escape before the closing quote, so the string is
        // one slice of the input, copied into one exact-size allocation.
        // (No byte of a multi-byte UTF-8 sequence can equal '"' or '\\'.)
        let bytes = self.bytes();
        if let Some(len) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') {
            if bytes[start + len] == b'"' {
                self.at = start + len + 1;
                return Ok(self.text[start..start + len].to_owned());
            }
        }
        self.escaped_string()
    }

    /// The rest of a string that holds an escape (or no closing quote).
    fn escaped_string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let start = self.at;
            // Copy unescaped runs through verbatim.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
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
                                // Surrogate pair: the writer never emits
                                // one, but a conforming reader decodes it.
                                if !self.bytes()[self.at..].starts_with(b"\\u") {
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
                            // hex4 leaves `at` one past the last digit.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!("loop above stops only on '\"', '\\\\', or EOF"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let digits = self
            .text
            .get(self.at..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
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
        let text = &self.text[start..self.at];
        if integral {
            // Integer literal: keep full 64-bit precision (a u64 counter
            // above 2^53 must not round through f64). A magnitude beyond
            // the integer range falls through to f64.
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Absent optional values serialize as `null` (e.g. "% overlap" on a run
/// that never migrated a byte).
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl From<crate::units::Bytes> for Json {
    fn from(b: crate::units::Bytes) -> Json {
        Json::UInt(b.get())
    }
}

impl From<crate::time::VDur> for Json {
    fn from(d: crate::time::VDur) -> Json {
        Json::Num(d.secs())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut o = Json::obj();
        o.push("name", "CG.C")
            .push("time", 1.5)
            .push("count", 42u64)
            .push("ok", true)
            .push("none", Json::Null)
            .push("tags", Json::Arr(vec![Json::from("a"), Json::from("b")]));
        o
    }

    #[test]
    fn compact_form_is_exact() {
        assert_eq!(
            sample().to_compact(),
            r#"{"name":"CG.C","time":1.5,"count":42,"ok":true,"none":null,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn pretty_round_trips_member_order() {
        let p = sample().to_pretty();
        assert!(p.starts_with("{\n  \"name\": \"CG.C\",\n  \"time\": 1.5"));
        assert!(p.ends_with("}\n"));
        let name_at = p.find("\"name\"").unwrap();
        let count_at = p.find("\"count\"").unwrap();
        assert!(name_at < count_at, "insertion order preserved");
    }

    #[test]
    fn escaping() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.to_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_compact(), sample().to_compact());
        assert_eq!(sample().to_pretty(), sample().to_pretty());
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(s.get("name").and_then(Json::as_str), Some("CG.C"));
        assert_eq!(
            s.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().to_compact(), "{}");
        assert_eq!(Json::Arr(vec![]).to_pretty(), "[]\n");
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let v = sample();
        let compact = v.to_compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&compact).unwrap().to_compact(), compact);
        // Pretty text parses to the same tree (whitespace is not part of
        // the value) and re-serializes to the same bytes.
        let p = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(p, v);
        assert_eq!(p.to_pretty(), v.to_pretty());
    }

    #[test]
    fn parse_preserves_numeric_variants() {
        // Unsigned counters above 2^53 must not round through f64.
        let big = u64::MAX - 1;
        let j = Json::parse(&format!("{big}")).unwrap();
        assert_eq!(j, Json::UInt(big));
        assert_eq!(j.to_compact(), format!("{big}"));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("2e-7").unwrap(), Json::Num(2e-7));
        // Integral floats render without a fraction, parse as UInt, and
        // re-render to the same text — the byte-identity contract cares
        // about the text, not the variant.
        assert_eq!(
            Json::parse(&Json::Num(42.0).to_compact()).unwrap(),
            Json::UInt(42)
        );
    }

    #[test]
    fn parse_decodes_escapes() {
        let original = Json::from("a\"b\\c\nd\u{1}é");
        let text = original.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Surrogate pair (writer never emits one, reader must accept).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1f600}")
        );
    }

    #[test]
    fn parse_float_round_trip_is_byte_exact() {
        // Shortest-form rendering followed by correctly-rounded parsing
        // recovers the exact bit pattern — the property the cache's
        // byte-identity guarantee stands on.
        for bits in [
            0x3fb999999999999au64, // 0.1
            0x400921fb54442d18,    // pi
            0x7fe1ccf385ebc8a0,    // ~1.6e308
            0x0000000000000001,    // smallest subnormal
        ] {
            let x = f64::from_bits(bits);
            let text = Json::Num(x).to_compact();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(bits), "{text}");
            assert_eq!(back.to_compact(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\":1}garbage",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        // Far past the bound: an error at the offending byte, not a
        // stack overflow.
        let hostile = "[".repeat(1_000_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(
            err.contains(&format!("at byte {MAX_DEPTH}")) && err.contains("nesting"),
            "{err}"
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
        // Exactly at the bound still parses, arrays and objects mixed.
        let mut deep = String::new();
        for i in 0..MAX_DEPTH {
            deep.push_str(if i % 2 == 0 { "[" } else { "{\"k\":" });
        }
        deep.push('0');
        for i in (0..MAX_DEPTH).rev() {
            deep.push(if i % 2 == 0 { ']' } else { '}' });
        }
        assert_eq!(Json::parse(&deep).unwrap().to_compact(), deep);
        // One level deeper fails.
        assert!(Json::parse(&format!("[{deep}]")).is_err());
    }

    #[test]
    fn member_accessors_name_the_member() {
        let s = sample();
        assert_eq!(s.string("name"), Ok("CG.C".to_string()));
        assert_eq!(s.uint("count"), Ok(42));
        assert_eq!(s.float("time"), Ok(1.5));
        assert!(s.field("missing").unwrap_err().contains("\"missing\""));
        assert!(s.uint("name").unwrap_err().contains("\"name\""));
        assert!(s.float("ok").unwrap_err().contains("\"ok\""));
        assert!(s.string("count").unwrap_err().contains("\"count\""));
        let nested = s.decode("tags", |t| t.uint("inner")).unwrap_err();
        assert_eq!(nested, "member \"tags\": missing member \"inner\"");
    }

    #[test]
    fn parse_nested_structures() {
        let text = r#"{"a":[{"b":null},{"c":[1,-2,3.5]}],"d":{"e":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_compact(), text);
        assert!(v.get("d").and_then(|d| d.get("e")).is_some());
    }
}
