//! The one self-validating frame every binary format on disk uses:
//!
//! ```text
//! magic [4] | version u32 | header fields | payload len u32/u64
//! | crc32(payload) u32 | payload
//! ```
//!
//! A format is a [`Format`] constant declared beside its owner. The
//! header fields are the owner's too: it writes them with a closure when
//! encoding and reads and validates them with a closure when decoding, so
//! a reject names the field that failed. Decoding never panics and never
//! copies: the payload comes back borrowed, and only once its checksum
//! passed.
//!
//! There is one torn-input policy — a frame that does not validate ends
//! the valid prefix. [`Format::decode`] (a file holding one frame)
//! rejects it, and rejects trailing bytes; a reader of a frame sequence
//! stops at the first [`Format::read`] error.

use crate::{crc32, ByteReader, ByteWriter, ReadError};

/// Width of a frame's payload-length field.
#[derive(Debug, Clone, Copy)]
pub enum LenWidth {
    /// A little-endian `u32`.
    U32,
    /// A little-endian `u64`.
    U64,
}

/// One frame layout.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// What the frame holds, as reject reasons name it.
    pub name: &'static str,
    /// The four bytes every frame opens with.
    pub magic: [u8; 4],
    /// Layout version; a reader rejects every other.
    pub version: u32,
    /// Width of the payload-length field.
    pub len: LenWidth,
    /// Largest payload a reader accepts.
    pub max_payload: u64,
}

impl Format {
    /// Frames `payload`, with `header` appending the header fields. A
    /// payload above `max_payload` encodes a frame every reader rejects.
    pub fn encode(&self, header: impl FnOnce(&mut ByteWriter), payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        w.put_bytes(&self.magic);
        w.put_u32(self.version);
        header(&mut w);
        match self.len {
            LenWidth::U32 => w.put_u32(payload.len() as u32),
            LenWidth::U64 => w.put_u64(payload.len() as u64),
        }
        w.put_u32(crc32(payload));
        w.put_bytes(payload);
        w.into_vec()
    }

    /// Reads one frame from the front of `r` and returns its payload;
    /// `header` reads and validates the header fields. Every failed check
    /// comes back as a reason naming it.
    pub fn read<'a>(
        &self,
        r: &mut ByteReader<'a>,
        header: impl FnOnce(&mut ByteReader<'a>) -> Result<(), String>,
    ) -> Result<&'a [u8], String> {
        let name = self.name;
        let truncated = |e: ReadError| format!("{name} frame header truncated: {e}");
        let magic = r.bytes(4).map_err(truncated)?;
        if magic != self.magic {
            return Err(format!(
                "not a {name} frame: bad magic \"{}\" (expected \"{}\")",
                magic.escape_ascii(),
                self.magic.escape_ascii()
            ));
        }
        let version = r.u32().map_err(truncated)?;
        if version != self.version {
            return Err(format!(
                "{name} format version {version} (expected {})",
                self.version
            ));
        }
        header(r)?;
        let len = match self.len {
            LenWidth::U32 => r.u32().map(u64::from),
            LenWidth::U64 => r.u64(),
        }
        .map_err(truncated)?;
        if len > self.max_payload {
            return Err(format!(
                "{name} payload length {len} exceeds the {}-byte bound",
                self.max_payload
            ));
        }
        let crc = r.u32().map_err(truncated)?;
        if len > r.remaining() as u64 {
            return Err(format!(
                "{name} payload is {} bytes but the header promises {len}",
                r.remaining()
            ));
        }
        let payload = r.bytes(len as usize).map_err(truncated)?;
        if crc32(payload) != crc {
            return Err(format!("{name} payload checksum mismatch"));
        }
        Ok(payload)
    }

    /// Decodes `bytes` as exactly one frame: [`Format::read`], and no
    /// trailing bytes.
    pub fn decode<'a>(
        &self,
        bytes: &'a [u8],
        header: impl FnOnce(&mut ByteReader<'a>) -> Result<(), String>,
    ) -> Result<&'a [u8], String> {
        let mut r = ByteReader::new(bytes);
        let payload = self.read(&mut r, header)?;
        if !r.is_empty() {
            return Err(format!(
                "{} trailing bytes after the {} frame",
                r.remaining(),
                self.name
            ));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYED: Format = Format {
        name: "keyed",
        magic: *b"TEST",
        version: 3,
        len: LenWidth::U64,
        max_payload: u64::MAX,
    };

    const SHORT: Format = Format {
        name: "short",
        magic: *b"SHRT",
        version: 1,
        len: LenWidth::U32,
        max_payload: 8,
    };

    fn keyed(key: &str, payload: &[u8]) -> Vec<u8> {
        KEYED.encode(|w| w.put_str(key), payload)
    }

    fn check_key<'a>(key: &'a str) -> impl FnOnce(&mut ByteReader<'_>) -> Result<(), String> + 'a {
        move |r| match r.str() {
            Ok(found) if found == key => Ok(()),
            Ok(_) => Err("key mismatch".into()),
            Err(e) => Err(format!("unreadable key: {e}")),
        }
    }

    #[test]
    fn layout_is_magic_version_header_len_crc_payload() {
        let bytes = SHORT.encode(|w| w.put_u8(9), b"ab");
        let mut want = b"SHRT".to_vec();
        want.extend(1u32.to_le_bytes());
        want.push(9);
        want.extend(2u32.to_le_bytes());
        want.extend(crc32(b"ab").to_le_bytes());
        want.extend(b"ab");
        assert_eq!(bytes, want);
        assert_eq!(keyed("k", b"").len(), 4 + 4 + 9 + 8 + 4);
    }

    #[test]
    fn every_reject_names_its_check() {
        let good = keyed("k", b"payload");
        assert_eq!(KEYED.decode(&good, check_key("k")), Ok(&b"payload"[..]));
        let reason = |bytes: &[u8], key| KEYED.decode(bytes, check_key(key)).unwrap_err();
        let with = |at: usize, byte: u8| {
            let mut bad = good.clone();
            bad[at] = byte;
            bad
        };
        assert!(reason(&with(0, b'X'), "k").contains("bad magic \"XEST\""));
        assert!(reason(&with(4, 4), "k").contains("keyed format version 4 (expected 3)"));
        assert!(reason(&good, "other").contains("key mismatch"));
        assert!(reason(&with(17, 8), "k").contains("promises 8"));
        assert!(reason(&with(29, b'P'), "k").contains("checksum mismatch"));
        assert!(reason(&[good.as_slice(), b"!"].concat(), "k").contains("1 trailing bytes"));
        assert!(reason(&good[..6], "k").contains("header truncated"));
        let long = SHORT.encode(|_| {}, b"0123456789");
        let err = SHORT.decode(&long, |_| Ok(())).unwrap_err();
        assert!(err.contains("exceeds the 8-byte bound"), "{err}");
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let good = keyed("key", b"some payload bytes");
        for cut in 0..good.len() {
            assert!(
                KEYED.decode(&good[..cut], check_key("key")).is_err(),
                "cut {cut}"
            );
        }
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    KEYED.decode(&bad, check_key("key")).is_err(),
                    "flip {byte}.{bit}"
                );
            }
        }
    }

    #[test]
    fn a_sequence_reads_up_to_its_first_bad_frame() {
        let mut bytes = [SHORT.encode(|_| {}, b"one"), SHORT.encode(|_| {}, b"two")].concat();
        bytes.extend_from_slice(&SHORT.encode(|_| {}, b"three")[..7]);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(SHORT.read(&mut r, |_| Ok(())), Ok(&b"one"[..]));
        assert_eq!(SHORT.read(&mut r, |_| Ok(())), Ok(&b"two"[..]));
        assert!(SHORT.read(&mut r, |_| Ok(())).is_err());
    }
}
