//! The JSON byte format: a streaming [`Writer`] and a pull [`Reader`].
//!
//! [`Serialize`](crate::Serialize) impls drive a `Writer`, which appends
//! JSON text straight to one output buffer; [`Deserialize`](crate::Deserialize)
//! impls pull tokens from a `Reader`, a cursor over the input text. No
//! intermediate tree is built either way.

use crate::value::Number;
use crate::DeError;
use std::borrow::Cow;
use std::io::Write as _;

/// Maximum container nesting depth, matching real serde_json's default
/// recursion limit. Without it a request body of a few KB of `[` bytes
/// overflows the reader's stack — an abort, not a catchable error — so
/// every service that parses untrusted bytes inherits this bound. It
/// applies to skipped values too.
pub const MAX_DEPTH: usize = 128;

/// Appends JSON text to a byte buffer, compact or 2-space indented.
///
/// Containers are written as `begin_*`, then one `element`, `key` or
/// `field` call before each entry (passing whether it is the first), then
/// `end_*` (passing whether there were no entries), so indentation never
/// needs to look ahead.
#[derive(Debug, Default)]
pub struct Writer {
    /// Always valid UTF-8: only `&str` contents and ASCII are appended.
    out: Vec<u8>,
    pretty: bool,
    level: usize,
}

impl Writer {
    /// A compact writer (no whitespace).
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer indenting nested containers by two spaces, with `": "`
    /// after keys.
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Self::default()
        }
    }

    /// The bytes written so far (valid UTF-8).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// `true` / `false`.
    #[inline]
    pub(crate) fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// An unsigned integer, formatted on the stack two digits at a time.
    pub(crate) fn u64(&mut self, mut n: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while n >= 100 {
            let d = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        }
        if n >= 10 {
            let d = n as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + n as u8;
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    /// A signed integer.
    pub(crate) fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// A float in Rust's shortest round-trip form (`{:?}`), which keeps a
    /// trailing `.0` on integral values as serde_json does. Non-finite
    /// values become `null`, also as serde_json does.
    pub(crate) fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    /// A quoted string. `"` `\` `\n` `\r` `\t` get short escapes, other
    /// control characters `\u00xx`; everything else is written raw.
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.extend_from_slice(esc.as_bytes());
            }
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
        self.level += 1;
    }

    /// Precedes each array element.
    #[inline]
    pub fn element(&mut self, first: bool) {
        if !first {
            self.out.push(b',');
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Closes an array.
    #[inline]
    pub fn end_array(&mut self, empty: bool) {
        self.close(b']', empty);
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.level += 1;
    }

    /// Writes a struct field's key: `quoted` is the name already in JSON
    /// form with its colon (`"name":`), as derive output spells it.
    #[inline]
    pub fn field(&mut self, first: bool, quoted: &str) {
        self.element(first);
        self.out.extend_from_slice(quoted.as_bytes());
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Writes an object key and its `:`; the value follows.
    #[inline]
    pub fn key(&mut self, first: bool, key: &str) {
        self.element(first);
        self.str(key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    /// Closes an object.
    #[inline]
    pub fn end_object(&mut self, empty: bool) {
        self.close(b'}', empty);
    }

    #[inline]
    fn close(&mut self, bracket: u8, empty: bool) {
        self.level -= 1;
        if self.pretty && !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        for _ in 0..self.level {
            self.out.extend_from_slice(b"  ");
        }
    }
}

/// A cursor over JSON text that yields one token at a time.
///
/// Containers are read as `begin_*`, then `next_element`, `next_key` or
/// `next_field` until it reports the end. The reader tracks whether the current
/// container is at its first entry, so a trailing or missing `,` is a
/// syntax error at the position it occurs.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// A syntax error at the current position.
    #[cold]
    fn error(&self, msg: &str) -> DeError {
        DeError(format!("json parse error at byte {}: {msg}", self.pos))
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        self.byte()
    }

    /// Requires that only whitespace remains.
    pub fn finish(&mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after value")),
        }
    }

    #[cold]
    fn unexpected(&self) -> DeError {
        match self.byte() {
            Some(b) => self.error(&format!("unexpected byte `{}`", b as char)),
            None => self.error("unexpected end of input"),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{kw}`")))
        }
    }

    /// Consumes `null` if it is the next token.
    #[inline]
    pub(crate) fn null(&mut self) -> Result<bool, DeError> {
        if self.peek() == Some(b'n') {
            self.keyword("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }

    #[inline]
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.byte() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number. Integers that fit are kept exact (`U64` when
    /// non-negative, `I64` when negative); everything else is `F64`.
    #[inline]
    pub(crate) fn number(&mut self) -> Result<Number, DeError> {
        self.peek();
        let start = self.pos;
        let neg = self.byte() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // The integer part's value, accumulated as it is scanned; exact
        // while it has fewer than 20 digits.
        let mut magnitude = 0u64;
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.byte() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add((d - b'0') as u64);
                    self.pos += 1;
                }
            }
            _ if neg => return Err(self.error("expected digit after `-`")),
            _ => return Err(self.unexpected()),
        }
        let digits = self.pos - start - neg as usize;
        match self.byte() {
            Some(b'0'..=b'9' | b'.' | b'e' | b'E') => self.number_tail(start),
            _ if digits >= 20 => self.number_tail(start),
            _ if !neg => Ok(Number::U64(magnitude)),
            _ if magnitude <= 1 << 63 => Ok(Number::I64((magnitude as i64).wrapping_neg())),
            _ => self.number_tail(start),
        }
    }

    /// The rest of a number whose integer part ends at the current
    /// position: a leading-zero error, a fraction or exponent, or an
    /// integer too wide for the fast path.
    #[cold]
    fn number_tail(&mut self, start: usize) -> Result<Number, DeError> {
        if let Some(b'0'..=b'9') = self.byte() {
            return Err(self.error("leading zero in number"));
        }
        let int_end = self.pos;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected digit after `.`"));
            }
        }
        if let Some(b'e' | b'E') = self.byte() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.byte() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected digit in exponent"));
            }
        }
        let text = &self.src[start..self.pos];
        if self.pos == int_end {
            if let Ok(n) = text.parse() {
                return Ok(Number::U64(n));
            }
            if let Ok(n) = text.parse() {
                return Ok(Number::I64(n));
            }
        }
        text.parse()
            .map(Number::F64)
            .map_err(|_| self.error("bad number"))
    }

    /// Reads a string, borrowing it from the input unless it contains
    /// escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected `\"`"));
        }
        self.pos += 1;
        let src = self.src;
        let bytes = src.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // The common case: a run of plain bytes up to the closing quote.
            self.pos += bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - self.pos);
            // Quotes and backslashes are ASCII, so every slice boundary
            // here is a char boundary.
            let head = &src[run..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut s) => {
                            s.push_str(head);
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(head),
                    });
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(head);
                    s.push(c);
                    run = self.pos;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a `\`.
    fn escape(&mut self) -> Result<char, DeError> {
        let Some(esc) = self.byte() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let hi = self.hex4()?;
                let cp = match hi {
                    0xD800..=0xDBFF => {
                        if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(self.error("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    cp => cp,
                };
                char::from_u32(cp).ok_or_else(|| self.error("invalid codepoint"))?
            }
            other => return Err(self.error(&format!("bad escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut cp = 0;
        for &h in hex {
            let d = (h as char)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            cp = cp * 16 + d;
        }
        self.pos += 4;
        Ok(cp)
    }

    #[inline]
    fn enter(&mut self, open: u8, what: &str, while_parsing: &str) -> Result<(), DeError> {
        if self.peek() != Some(open) {
            return Err(DeError::expected(what, while_parsing));
        }
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.first = true;
        Ok(())
    }

    /// Steps past `,` to the next entry, or past `close` to the end of the
    /// container (returning false).
    #[inline]
    fn next_entry(&mut self, close: u8) -> Result<bool, DeError> {
        let b = self.peek();
        if b == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if std::mem::take(&mut self.first) {
            return Ok(true);
        }
        if b == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.error(&format!("expected `,` or `{}`", close as char)))
    }

    /// Consumes `[`; `while_parsing` names the type for the error.
    #[inline]
    pub fn begin_array(&mut self, while_parsing: &str) -> Result<(), DeError> {
        self.enter(b'[', "array", while_parsing)
    }

    /// True when another element follows (positioned at it); false after
    /// consuming the closing `]`.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.next_entry(b']')
    }

    /// Consumes `{`; `while_parsing` names the type for the error.
    #[inline]
    pub fn begin_object(&mut self, while_parsing: &str) -> Result<(), DeError> {
        self.enter(b'{', "object", while_parsing)
    }

    /// Reads the next key and its `:`, positioned at the value; `None`
    /// after consuming the closing `}`.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        self.key().map(Some)
    }

    fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(key)
    }

    /// Reads the next key of a struct whose fields are `names`, each
    /// spelled as the writer spells it (`"name":`), and returns the key's
    /// index in `names` (`names.len()` for an unknown key), positioned at
    /// the value; `None` after consuming the closing `}`. `next` is a
    /// hint: the field after the previous match is tried first, as raw
    /// bytes, since encoders write fields in declaration order.
    #[inline]
    pub fn next_field(
        &mut self,
        names: &[&str],
        next: &mut usize,
    ) -> Result<Option<usize>, DeError> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        self.peek();
        let i = match names.get(*next) {
            Some(name) if self.src.as_bytes()[self.pos..].starts_with(name.as_bytes()) => {
                self.pos += name.len();
                *next
            }
            _ => {
                let key = self.key()?;
                names
                    .iter()
                    .position(|name| {
                        name.strip_prefix('"').and_then(|n| n.strip_suffix("\":")) == Some(&*key)
                    })
                    .unwrap_or(names.len())
            }
        };
        *next = i + 1;
        Ok(Some(i))
    }

    /// Validates and discards one value of any shape.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.str().map(drop),
            Some(b'[') => {
                self.begin_array("value")?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object("value")?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.number().map(drop),
        }
    }
}
