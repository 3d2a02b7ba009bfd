//! Tiny dependency-free binary I/O: every byte the workspace persists goes
//! through this crate.
//!
//! It plays the role `byteorder`/`crc32fast`/`tempfile` would play in an
//! online build (the build environment has no registry access; see
//! `crates/shims/README.md`): an append-only little-endian [`ByteWriter`], a
//! fully checked [`ByteReader`] that never panics on malformed input, an
//! FNV-1a 64-bit hash for content addressing, the one CRC-32-checked frame
//! codec behind every on-disk format ([`frame`]: checkpoints, run-store
//! entries, parked checkpoints and journal records), and the one atomic
//! file writer ([`install`]: temp file, fsync, rename).
//!
//! Every multi-byte value is encoded little-endian with an explicit width;
//! `usize` quantities are always written as `u64` so the on-disk format is
//! identical across platforms. Reads return [`ReadError`] on any shortfall
//! or invalid payload — corruption surfaces as an `Err`, never a panic.
//!
//! # Example
//!
//! ```
//! use binio::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u32(7);
//! w.put_f64(1.5);
//! w.put_str("plane");
//! let bytes = w.into_vec();
//!
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.u32().unwrap(), 7);
//! assert_eq!(r.f64().unwrap(), 1.5);
//! assert_eq!(r.str().unwrap(), "plane");
//! assert!(r.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod file;
pub mod frame;

pub use file::{install, is_temp, temp_beside};

use std::fmt;

/// Error produced by [`ByteReader`] on malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The buffer ended before the requested number of bytes.
    UnexpectedEof {
        /// Bytes the caller asked for.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A stored length does not fit in `usize` or fails a sanity bound.
    BadLength(u64),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::UnexpectedEof { needed, available } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {available} available"
            ),
            ReadError::BadUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            ReadError::BadLength(n) => write!(f, "stored length {n} is out of range"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Result alias for checked reads.
pub type ReadResult<T> = Result<T, ReadError>;

/// Append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` little-endian (platform independent).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its raw IEEE-754 bits (bit-exact, NaN-safe).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` length prefix followed by the UTF-8 bytes of `v`.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.put_bytes(v.as_bytes());
    }

    /// Appends a `u64` element-count prefix followed by raw `f32` bits.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_len(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a `u64` element-count prefix followed by `u64` values
    /// (used for index vectors such as shuffle orders and segment maps).
    pub fn put_len_slice(&mut self, v: &[usize]) {
        self.put_len(v.len());
        for &x in v {
            self.put_len(x);
        }
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Checked little-endian cursor over a byte slice. All reads are bounds
/// checked and return [`ReadError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ReadError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> ReadResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> ReadResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> ReadResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length stored as `u64`, rejecting values that cannot index
    /// this platform's memory or that exceed the bytes remaining when each
    /// element takes at least one byte (cheap corruption guard).
    pub fn len(&mut self) -> ReadResult<usize> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| ReadError::BadLength(raw))
    }

    /// Reads an `f32` from raw IEEE-754 bits.
    pub fn f32(&mut self) -> ReadResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn f64(&mut self) -> ReadResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> ReadResult<&'a str> {
        let n = self.len()?;
        if n > self.remaining() {
            return Err(ReadError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        std::str::from_utf8(self.take(n)?).map_err(|_| ReadError::BadUtf8)
    }

    /// Reads a `u64` element count, then that many elements with `read`.
    /// A count the remaining bytes cannot hold at `min_bytes` (`>= 1`) per
    /// element is rejected before anything is allocated.
    pub fn vec<T>(
        &mut self,
        min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> ReadResult<T>,
    ) -> ReadResult<Vec<T>> {
        let n = self.len()?;
        if n > self.remaining() / min_bytes {
            return Err(ReadError::UnexpectedEof {
                needed: n.saturating_mul(min_bytes),
                available: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads a `u64`-count-prefixed vector of raw-bit `f32` values.
    pub fn f32_vec(&mut self) -> ReadResult<Vec<f32>> {
        self.vec(4, Self::f32)
    }

    /// Reads a `u64`-count-prefixed vector of `usize` values.
    pub fn len_vec(&mut self) -> ReadResult<Vec<usize>> {
        self.vec(8, Self::len)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Matches the checksum produced by zlib/`crc32fast` so frames could be
/// validated by external tooling. Crate-private: [`frame`] is its only
/// caller.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// FNV-1a 64-bit hash of `bytes` — the content-address function used to
/// derive store filenames from scenario keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("τ=16");
        w.put_f32_slice(&[f32::NAN, 1.0, f32::INFINITY]);
        w.put_len_slice(&[3, 1, 4]);
        let bytes = w.into_vec();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "τ=16");
        let v = r.f32_vec().unwrap();
        assert!(v[0].is_nan());
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], f32::INFINITY);
        assert_eq!(r.len_vec().unwrap(), vec![3, 1, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn little_endian_layout_is_explicit() {
        let mut w = ByteWriter::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(ReadError::UnexpectedEof { .. })));
    }

    #[test]
    fn oversized_vector_count_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.f32_vec().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.len_vec().is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_len(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str(), Err(ReadError::BadUtf8));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"persistent run store payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn reader_position_tracks_consumption() {
        let mut w = ByteWriter::with_capacity(16);
        w.put_u32(1);
        w.put_u32(2);
        assert_eq!(w.len(), 8);
        assert!(!w.is_empty());
        let bytes = w.clone().into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.position(), 0);
        let _ = r.u32().unwrap();
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 4);
    }
}
