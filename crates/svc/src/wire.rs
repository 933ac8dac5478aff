//! The u32-BE-prefixed encode helpers shared by the journal and the
//! network protocol.
//!
//! Everything the daemon persists or ships is built from fixed-width
//! big-endian integers, `u32`-length-prefixed byte strings and raw
//! digests. These `put_*` helpers write them; the read side is
//! [`pres_tvm::bytes::Reader`] (`be_u32`, `be_u64`, `be_bytes`, `be_str`,
//! `array`), the workspace's one never-panic byte codec, so malformed
//! input degrades into a [`pres_tvm::bytes::DecodeError`] at the call
//! site. Its two decode rules — a varint is canonical (it fits `u64` and
//! is not zero-padded), a `u32` id is checked rather than truncated —
//! cover the varint formats; the fields
//! here are fixed-width, so a `u32` is read as exactly four bytes.
//!
//! Length prefixes are `u32`, and the conversion from `usize` is
//! *checked*: a payload over `u32::MAX` bytes surfaces as a
//! [`LenOverflow`] at the encode site (a protocol or journal error to the
//! caller), never as a silently truncated prefix that frames garbage.

use crate::digest::Digest;

/// A payload too large for a `u32` length prefix. Carries the offending
/// byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenOverflow(pub usize);

impl std::fmt::Display for LenOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "payload of {} bytes exceeds the u32 length-prefix limit",
            self.0
        )
    }
}

impl std::error::Error for LenOverflow {}

impl From<LenOverflow> for std::io::Error {
    fn from(e: LenOverflow) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// Checked `usize` → `u32` length conversion.
pub fn check_len(len: usize) -> Result<u32, LenOverflow> {
    u32::try_from(len).map_err(|_| LenOverflow(len))
}

/// Appends a `u32` big-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u64` big-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u32` length prefix followed by the bytes; rejects data
/// whose length does not fit the prefix.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) -> Result<(), LenOverflow> {
    put_u32(out, check_len(data.len())?);
    out.extend_from_slice(data);
    Ok(())
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), LenOverflow> {
    put_bytes(out, s.as_bytes())
}

/// Appends a digest's 32 raw bytes.
pub fn put_digest(out: &mut Vec<u8>, d: &Digest) {
    out.extend_from_slice(&d.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;
    use pres_tvm::bytes::Reader;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 7);
        put_str(&mut buf, "héllo").unwrap();
        put_bytes(&mut buf, &[1, 2, 3]).unwrap();
        let d = sha256(b"x");
        put_digest(&mut buf, &d);

        let mut r = Reader::new(&buf);
        assert_eq!(r.be_u32(), Ok(0xdead_beef));
        assert_eq!(r.be_u64(), Ok(u64::MAX - 7));
        assert_eq!(r.be_str(), Ok("héllo"));
        assert_eq!(r.be_bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.array().map(Digest), Ok(d));
        assert!(r.at_end());
    }

    #[test]
    fn oversized_length_is_a_checked_error() {
        assert_eq!(check_len(0), Ok(0));
        assert_eq!(check_len(u32::MAX as usize), Ok(u32::MAX));
        let too_big = u32::MAX as usize + 1;
        assert_eq!(check_len(too_big), Err(LenOverflow(too_big)));
        let io: std::io::Error = LenOverflow(too_big).into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput);
    }
}
