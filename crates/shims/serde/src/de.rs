//! The read half of the shim: a pull parser over JSON text.
//!
//! Derived and hand-written [`Deserialize`] impls pull tokens from a
//! [`Reader`] and build the typed result directly. Object keys come back
//! as slices of the input, allocated only when they contain escapes, and
//! numbers are parsed where they lie. Every read that opens an array or
//! object counts against [`MAX_DEPTH`], so the recursion of typed reads,
//! skipped values and [`crate::Value`] reads alike is bounded.
//!
//! The free functions at the bottom are what `#[derive(Deserialize)]`
//! expands to; they are not part of real serde's API.

use crate::{DeError, Deserialize};
use std::borrow::Cow;
use std::fmt::Display;

/// Nesting deeper than this many arrays and objects is an error, as in
/// serde_json.
pub const MAX_DEPTH: usize = 128;

/// A pull parser over one JSON text.
pub struct Reader<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
    /// Whether the innermost open array or object has yielded no item yet,
    /// so that no `,` precedes the next one. A single flag suffices because
    /// a nested container is always read to its end before its parent's
    /// next item.
    first: bool,
}

impl<'de> Reader<'de> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Reader { text, pos: 0, depth: 0, first: false }
    }

    /// Fails unless only whitespace is left.
    ///
    /// # Errors
    ///
    /// Reports the position of the first trailing character.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl Display) -> DeError {
        DeError(format!("{msg} at byte {}", self.pos))
    }

    /// An error naming what was expected and the byte found instead.
    pub fn unexpected(&mut self, expected: impl Display) -> DeError {
        match self.peek() {
            Ok(b) => self.error(format_args!(
                "expected {expected}, found `{}`",
                char::from(b).escape_default()
            )),
            Err(e) => e,
        }
    }

    /// The error for an enum tag that names no variant of `ty`; `payload`
    /// tells the `{"Tag": ...}` form from the bare `"Tag"` of a unit
    /// variant.
    pub fn unknown_variant(&self, tag: &str, payload: bool, ty: &str) -> DeError {
        let kind = if payload { "variant" } else { "unit variant" };
        self.error(format_args!("unknown {kind} `{tag}` for {ty}"))
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte after whitespace, not consumed.
    ///
    /// # Errors
    ///
    /// Fails at the end of the input.
    pub fn peek(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        match self.text.as_bytes().get(self.pos) {
            Some(&b) => Ok(b),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek()? != b {
            return Err(self.unexpected(format_args!("`{}`", char::from(b))));
        }
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        self.skip_ws();
        if !self.text.get(self.pos..).is_some_and(|rest| rest.starts_with(kw)) {
            return Err(self.unexpected(kw));
        }
        self.pos += kw.len();
        Ok(())
    }

    fn open(&mut self, b: u8, what: &str) -> Result<(), DeError> {
        if self.peek()? != b {
            return Err(self.unexpected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes the `[` opening an array; read its items with
    /// [`Self::next_elem`].
    ///
    /// # Errors
    ///
    /// Fails on any other token, or past [`MAX_DEPTH`].
    pub fn begin_array(&mut self) -> Result<(), DeError> {
        self.open(b'[', "array")
    }

    /// Steps to the next item of the innermost open array: `true` when one
    /// follows, `false` once its `]` is consumed.
    ///
    /// # Errors
    ///
    /// Fails when neither `,` nor `]` follows an item.
    pub fn next_elem(&mut self) -> Result<bool, DeError> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek()? {
            b']' => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.unexpected("`,` or `]`")),
        }
    }

    /// Consumes the `]` closing a tuple of `len` elements, read with
    /// [`elem`] after [`Self::begin_array`].
    ///
    /// # Errors
    ///
    /// Fails when more elements follow.
    pub fn end_tuple(&mut self, len: usize) -> Result<(), DeError> {
        if self.next_elem()? {
            return Err(self.error(format_args!("expected {len} tuple elements, found more")));
        }
        Ok(())
    }

    /// Consumes the `{` opening an object; read its entries with
    /// [`Self::next_key`].
    ///
    /// # Errors
    ///
    /// Fails on any other token, or past [`MAX_DEPTH`].
    pub fn begin_object(&mut self) -> Result<(), DeError> {
        self.open(b'{', "object")
    }

    /// Steps to the next entry of the innermost open object, returning its
    /// key with the reader left at the value, or `None` once its `}` is
    /// consumed.
    ///
    /// # Errors
    ///
    /// Fails on a malformed key or separator.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek()? {
            b'}' => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            _ if first => {}
            b',' => self.pos += 1,
            _ => return Err(self.unexpected("`,` or `}`")),
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an externally tagged value of enum `ty`: a string names a unit
    /// variant, returned with `false`; an object `{"Tag": payload}` returns
    /// its tag with `true` and leaves the reader at the payload, to be
    /// closed with [`Self::end_variant`].
    ///
    /// # Errors
    ///
    /// Fails on any other token or on an empty object.
    pub fn variant(&mut self, ty: &str) -> Result<(Cow<'de, str>, bool), DeError> {
        match self.peek()? {
            b'"' => Ok((self.str()?, false)),
            b'{' => {
                self.begin_object()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => {
                        Err(self.error(format_args!("expected a variant of {ty}, found `{{}}`")))
                    }
                }
            }
            _ => Err(self.unexpected(format_args!("enum {ty}"))),
        }
    }

    /// Consumes the `}` closing a variant opened by [`Self::variant`].
    ///
    /// # Errors
    ///
    /// Fails when the object holds a second key.
    pub fn end_variant(&mut self) -> Result<(), DeError> {
        match self.next_key()? {
            None => Ok(()),
            Some(key) => Err(self.error(format_args!(
                "enum object has a second key `{key}`; a variant is one key"
            ))),
        }
    }

    /// Consumes a `null` if one is next; reports whether it did.
    ///
    /// # Errors
    ///
    /// Fails on a token starting with `n` that is not `null`.
    pub fn null(&mut self) -> Result<bool, DeError> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.keyword("null")?;
        Ok(true)
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Fails on any other token.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek()? {
            b't' => self.keyword("true").map(|()| true),
            b'f' => self.keyword("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Reads a string: a slice of the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Fails on any other token, an unterminated string or a bad escape.
    pub fn str(&mut self) -> Result<Cow<'de, str>, DeError> {
        if self.peek()? != b'"' {
            return Err(self.unexpected("string"));
        }
        self.pos += 1;
        let run = self.plain_run();
        if self.text.as_bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.text.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => out.push_str(self.plain_run()),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Consumes bytes up to the next `"` or `\` (or the end), returning
    /// them. Both stops are ASCII, so the slice is whole characters.
    fn plain_run(&mut self) -> &'de str {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Decodes the escape after a `\`. Surrogate pairs are not decoded:
    /// the printer never writes them.
    fn escape(&mut self) -> Result<char, DeError> {
        let Some(&b) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.pos += 4;
                u32::from_str_radix(hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.error("invalid \\u scalar"))?
            }
            other => {
                return Err(self.error(format_args!(
                    "invalid escape `\\{}`",
                    char::from(other).escape_default()
                )))
            }
        })
    }

    /// Reads a number token's text, unparsed.
    ///
    /// # Errors
    ///
    /// Fails unless a number starts here.
    pub fn number(&mut self) -> Result<&'de str, DeError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected("number"));
        }
        let start = self.pos;
        let bytes = self.text.as_bytes();
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Reads a number as `f64`, rounding to nearest; `-0` reads as `-0.0`.
    ///
    /// # Errors
    ///
    /// Fails on a malformed number or one beyond `f64`'s range.
    pub fn f64(&mut self) -> Result<f64, DeError> {
        let text = self.number()?;
        self.parse_f64(text)
    }

    /// Parses a number token as a finite `f64`.
    ///
    /// # Errors
    ///
    /// Fails on a malformed number or one beyond `f64`'s range.
    pub fn parse_f64(&self, text: &str) -> Result<f64, DeError> {
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(f),
            Ok(_) => Err(self.error(format_args!("number `{text}` out of range"))),
            Err(_) => Err(self.error(format_args!("invalid number `{text}`"))),
        }
    }

    /// Reads an integer; a float with no fractional part within `±2^63`
    /// counts as one, since a float field may print that way.
    ///
    /// # Errors
    ///
    /// Fails on a malformed number or a fractional one.
    pub fn int(&mut self) -> Result<i128, DeError> {
        let text = self.number()?;
        if !text.contains(['.', 'e', 'E']) {
            return text
                .parse::<i128>()
                .map_err(|_| self.error(format_args!("invalid integer `{text}`")));
        }
        match self.parse_f64(text)? {
            f if f.fract() == 0.0 && f.abs() < 2f64.powi(63) => Ok(f as i128),
            _ => Err(self.error(format_args!("expected an integer, found `{text}`"))),
        }
    }

    /// Reads and discards one value of any shape.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, or past [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            b'[' => {
                self.begin_array()?;
                while self.next_elem()? {
                    self.skip_value()?;
                }
            }
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            b'"' => drop(self.str()?),
            b't' | b'f' => drop(self.bool()?),
            b'n' => drop(self.null()?),
            _ => drop(self.f64()?),
        }
        Ok(())
    }
}

impl DeError {
    /// Prefixes the message with where in the value the error arose.
    pub(crate) fn within(self, context: impl Display) -> DeError {
        DeError(format!("{context}: {}", self.0))
    }
}

/// Reads struct field `name` into `slot`; a key seen twice is an error.
///
/// # Errors
///
/// Fails on a duplicate key or when the value does not read as `T`.
pub fn field<T: Deserialize>(
    r: &mut Reader<'_>,
    slot: &mut Option<T>,
    name: &str,
) -> Result<(), DeError> {
    if slot.is_some() {
        return Err(r.error(format_args!("duplicate field `{name}`")));
    }
    *slot = Some(T::deserialize(r).map_err(|e| e.within(format_args!("field `{name}`")))?);
    Ok(())
}

/// The value of required field `name`: the one read, or
/// [`Deserialize::absent`] when its key was missing.
///
/// # Errors
///
/// Fails when the key was missing and `T` has no value for that.
pub fn required<T: Deserialize>(slot: Option<T>, name: &str) -> Result<T, DeError> {
    match slot {
        Some(v) => Ok(v),
        None => T::absent().ok_or_else(|| DeError(format!("missing field `{name}`"))),
    }
}

/// Reads element `idx` of a tuple opened with [`Reader::begin_array`].
///
/// # Errors
///
/// Fails when the array ends early or the element does not read as `T`.
pub fn elem<T: Deserialize>(r: &mut Reader<'_>, idx: usize) -> Result<T, DeError> {
    if !r.next_elem()? {
        return Err(r.error(format_args!("missing tuple element {idx}")));
    }
    T::deserialize(r).map_err(|e| e.within(format_args!("element {idx}")))
}
