//! The one byte codec: an append-only [`Writer`], a bounds-checked
//! [`Reader`], the [`DecodeError`] every decoder in the workspace returns
//! and the [`LenOverflow`] an encoder refuses a too-long field with.
//!
//! Sketch containers and certificates (`pres-core`'s `codec` and
//! `certificate`), VM snapshots ([`crate::snapshot`]) and the daemon's
//! journal, job status and wire protocol (`pres-svc`) are all written and
//! read here, each field by a `Writer` method and the `Reader` method of
//! the same name (a fixed-size `array` is written with `raw`). The
//! variable-width format is LEB128 varints and varint-prefixed byte
//! strings; the daemon's fixed-width fields are big-endian (`be_*`), with
//! `u32` length prefixes that the writer checks: a field over `u32::MAX`
//! bytes is a [`LenOverflow`] at the encode site, never a truncated prefix
//! that frames garbage.
//!
//! The reader never panics and never allocates: every accessor checks the
//! bytes that remain and fails with an offset-carrying [`DecodeError`],
//! and byte strings come back as borrowed slices. Two rules keep hostile
//! bytes from decoding into a wrong value:
//!
//! * **A varint fits `u64`.** It is at most ten bytes, and its tenth byte
//!   may carry only the top bit (`0` or `1`); anything larger would drop
//!   bits, and is refused as `varint overflow`. It is also minimal: a
//!   last byte of 0 after the first (`80 00` for 0) would give one value
//!   two encodings, and is refused as `overlong varint`. The [`Writer`]
//!   never emits either.
//! * **An id that is a `u32` is checked as one.** [`Reader::varint_u32`]
//!   refuses a value above `u32::MAX` as `<what> out of range` instead of
//!   truncating it.

use std::fmt;

/// A decoding failure: truncated or corrupt input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed (relative to the buffer the
    /// failing [`Reader`] was given).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// A field too long for a big-endian `u32` length prefix. Carries the
/// offending byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenOverflow(pub usize);

impl LenOverflow {
    /// `len` as a `u32` length prefix, or the refusal.
    pub fn check(len: usize) -> Result<u32, LenOverflow> {
        u32::try_from(len).map_err(|_| LenOverflow(len))
    }
}

impl fmt::Display for LenOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload of {} bytes exceeds the u32 length-prefix limit", self.0)
    }
}

impl std::error::Error for LenOverflow {}

impl From<LenOverflow> for std::io::Error {
    fn from(e: LenOverflow) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// An append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an LEB128 varint.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends bytes as they are, with no prefix.
    #[inline]
    pub fn raw(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Appends varint-length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, data: &[u8]) {
        self.varint(data.len() as u64);
        self.raw(data);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn be_u32(&mut self, v: u32) {
        self.raw(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn be_u64(&mut self, v: u64) {
        self.raw(&v.to_be_bytes());
    }

    /// Appends bytes behind a big-endian `u32` length prefix, refusing
    /// data the prefix cannot describe.
    pub fn be_bytes(&mut self, data: &[u8]) -> Result<(), LenOverflow> {
        self.be_u32(LenOverflow::check(data.len())?);
        self.raw(data);
        Ok(())
    }

    /// Appends a UTF-8 string behind a big-endian `u32` length prefix.
    pub fn be_str(&mut self, s: &str) -> Result<(), LenOverflow> {
        self.be_bytes(s.as_bytes())
    }

    /// Appends a tagged, length-prefixed section whose body `f` writes
    /// into a fresh writer.
    pub fn section(&mut self, tag: u8, f: impl FnOnce(&mut Writer)) {
        let mut body = Writer::new();
        f(&mut body);
        self.u8(tag);
        self.bytes(&body.buf);
    }

    /// Makes room for at least `additional` more bytes, so a writer that
    /// knows its final size grows once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consumes the writer and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// A [`DecodeError`] at the current offset.
    #[cold]
    pub fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err("eof"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a bool byte; only 0 and 1 are bools.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an LEB128 varint that fits `u64` (see the module docs).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let b = self.u8()?;
        if b & 0x80 == 0 {
            return Ok(u64::from(b));
        }
        self.varint_tail(b)
    }

    /// Reads the rest of a varint whose first byte, `first`, has its
    /// continuation bit set. Out of line, so that the one-byte case every
    /// caller inlines stays small.
    #[inline(never)]
    fn varint_tail(&mut self, first: u8) -> Result<u64, DecodeError> {
        let mut v = u64::from(first & 0x7f);
        let mut shift = 7u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(self.err("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 {
                    return Err(self.err("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit `u32`; a larger one is refused as
    /// `<what> out of range`, never truncated.
    #[inline]
    pub fn varint_u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} out of range")))
    }

    /// Reads an element count, refusing one the remaining bytes cannot
    /// hold at `min_bytes` per element — before anything is sized by it.
    #[inline]
    pub fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(self.err(format!("{what} count past eof")));
        }
        Ok(n as usize)
    }

    /// The next `len` bytes. `len` is compared against what remains, so no
    /// claimed length — however close to `u64::MAX` — can overflow the
    /// bounds check.
    #[inline]
    fn take(&mut self, len: u64) -> Result<&'a [u8], DecodeError> {
        if len > self.remaining() as u64 {
            return Err(self.err("byte slice past eof"));
        }
        let out = &self.buf[self.pos..self.pos + len as usize];
        self.pos += out.len();
        Ok(out)
    }

    /// Reads varint-length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint()?;
        self.take(len)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let raw = self.bytes()?;
        self.utf8(raw)
    }

    fn utf8(&self, raw: &'a [u8]) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(raw).map_err(|_| self.err("invalid utf-8"))
    }

    /// Reads exactly `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let head = self.take(N as u64)?;
        Ok(head.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads a big-endian `u32`.
    pub fn be_u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn be_u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads bytes behind a big-endian `u32` length prefix.
    pub fn be_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.be_u32()?;
        self.take(u64::from(len))
    }

    /// Reads a UTF-8 string behind a big-endian `u32` length prefix.
    pub fn be_str(&mut self) -> Result<&'a str, DecodeError> {
        let raw = self.be_bytes()?;
        self.utf8(raw)
    }

    /// Consumes and returns everything left — for payloads whose tail is
    /// opaque bytes with no length prefix.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer was consumed — decoders check this so
    /// trailing bytes are refused rather than ignored.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current byte offset into the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(result: Result<impl fmt::Debug, DecodeError>) -> (usize, String) {
        let e = result.unwrap_err();
        (e.offset, e.message)
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut w = Writer::new();
        for v in values {
            w.varint(v);
        }
        assert_eq!(w.len(), 1 + 1 + 1 + 2 + 2 + 2 + 3 + 5 + 10);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for v in values {
            assert_eq!(r.varint(), Ok(v));
        }
        assert!(r.at_end());
    }

    #[test]
    fn a_tenth_varint_byte_above_one_is_an_overflow_not_dropped_bits() {
        let mut bytes = [0xff; 11];
        bytes[9] = 0x01;
        assert_eq!(Reader::new(&bytes).varint(), Ok(u64::MAX));
        for tenth in [0x02, 0x03, 0x7f, 0x81, 0xff] {
            bytes[9] = tenth;
            let got = error(Reader::new(&bytes).varint());
            assert_eq!(got, (10, "varint overflow".into()), "tenth byte {tenth:#04x}");
        }
        bytes[9] = 0x00;
        assert_eq!(error(Reader::new(&bytes).varint()), (10, "overlong varint".into()));
        for overlong in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00], &[0xff, 0x00]] {
            let got = error(Reader::new(overlong).varint());
            assert_eq!(got, (overlong.len(), "overlong varint".into()), "{overlong:02x?}");
        }
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
        assert_eq!(Reader::new(&[0x80, 0x01]).varint(), Ok(128));
    }

    #[test]
    fn ids_counts_and_slices_are_checked_before_use() {
        let mut w = Writer::new();
        w.varint(u64::from(u32::MAX));
        w.varint(u64::from(u32::MAX) + 8);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint_u32("id"), Ok(u32::MAX));
        assert_eq!(error(r.varint_u32("thread id")), (10, "thread id out of range".into()));
        assert_eq!(error(Reader::new(&[3, 0, 0]).count(1, "entry")), (1, "entry count past eof".into()));
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0]).count(2, "pair"), Ok(2));
        let huge = [0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00];
        assert_eq!(error(Reader::new(&huge).bytes()), (10, "byte slice past eof".into()));
        assert_eq!(error(Reader::new(&[2, 0xff, 0xfe]).str()), (3, "invalid utf-8".into()));
        assert_eq!(error(Reader::new(&[2]).bool()), (1, "invalid bool byte 2".into()));
    }

    #[test]
    fn every_accessor_errors_at_eof_without_panicking() {
        let mut w = Writer::new();
        w.str("héllo");
        w.bool(true);
        w.section(7, |s| s.varint(300));
        w.be_u32(0xdead_beef);
        w.be_u64(u64::MAX - 7);
        w.be_str("abc").unwrap();
        w.be_bytes(&[1, 2, 3]).unwrap();
        w.raw(b"!");
        let buf = w.finish();
        let read = |buf: &[u8]| -> Result<(), DecodeError> {
            let mut r = Reader::new(buf);
            assert_eq!(r.str()?, "héllo");
            assert!(r.bool()?);
            assert_eq!(r.u8()?, 7);
            assert_eq!(Reader::new(r.bytes()?).varint()?, 300);
            assert_eq!(r.be_u32()?, 0xdead_beef);
            assert_eq!(r.be_u64()?, u64::MAX - 7);
            assert_eq!(r.be_str()?, "abc");
            assert_eq!(r.be_bytes()?, [1, 2, 3]);
            assert_eq!(r.array::<1>()?, *b"!");
            assert_eq!(r.rest(), b"");
            Ok(())
        };
        read(&buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_length_prefix_over_u32_is_refused_not_truncated() {
        assert_eq!(LenOverflow::check(u32::MAX as usize), Ok(u32::MAX));
        let too_big = u32::MAX as usize + 1;
        assert_eq!(LenOverflow::check(too_big), Err(LenOverflow(too_big)));
        let io: std::io::Error = LenOverflow(too_big).into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput);
    }
}
