//! The framed container codec shared by netshed's two artifact formats, the
//! `.nstr` trace and the `.nsck` snapshot.
//!
//! Both formats are one header, a run of checksummed frames and an end
//! frame:
//!
//! ```text
//! header   magic [4] · version u16 · flags u16 · value u64
//!          · FNV-64 checksum over the 16 preceding bytes
//! frame*   kind u8 (non-zero) · metadata · body · checksum u64
//! end      kind 0 · count u64 · FNV-64 checksum over the kind and count
//! ```
//!
//! A frame checksum runs the kind byte and the frame's fixed metadata
//! through the byte-serial [`IncrementalFnv`] and the bulk body through the
//! word-parallel [`hash_block`], folding the halves with [`mix64`]: verifying
//! a payload-heavy container costs memory bandwidth, not a multiply per
//! byte. Every multi-byte value is little-endian.
//!
//! This module owns those pieces — header, end frame, frame checksum and a
//! bounds-checked [`ByteCursor`] — and nothing format-specific: a
//! [`ContainerFormat`] names the magic, version and checksum seed, and each
//! format maps [`ContainerError`] into its own error type.

use crate::hash::{hash_block, mix64, IncrementalFnv};
use std::ops::Range;

/// Length of the container header (16 fixed bytes + checksum).
pub const HEADER_LEN: usize = 24;
/// Kind byte of the end frame.
pub const FRAME_END: u8 = 0;

/// A header or end frame that failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerError {
    /// The input does not start with the format's magic.
    BadMagic {
        /// The bytes found where the magic should be (zero-padded when the
        /// input is shorter than the magic).
        found: [u8; 4],
    },
    /// The container was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The version this build reads.
        expected: u16,
    },
    /// A header or end-frame checksum did not match.
    ChecksumMismatch {
        /// `"header"` or `"end frame"`.
        location: &'static str,
    },
}

/// The identity of one container format: its magic, its (exact) version and
/// the seed of its checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerFormat {
    /// File magic.
    pub magic: [u8; 4],
    /// The only version readers accept.
    pub version: u16,
    /// Seed of every checksum in the container.
    pub seed: u64,
}

impl ContainerFormat {
    /// Encodes the header carrying `value` (flags are reserved as zero).
    pub fn encode_header(&self, value: u64) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&self.magic);
        header[4..6].copy_from_slice(&self.version.to_le_bytes());
        header[8..16].copy_from_slice(&value.to_le_bytes());
        let checksum = self.fnv(&header[..16]);
        header[16..].copy_from_slice(&checksum.to_le_bytes());
        header
    }

    /// Checks as much of the magic as `prefix` holds, so input that is both
    /// short and foreign reports [`ContainerError::BadMagic`].
    pub fn check_magic_prefix(&self, prefix: &[u8]) -> Result<(), ContainerError> {
        let len = prefix.len().min(4);
        if prefix[..len] != self.magic[..len] {
            let mut found = [0u8; 4];
            found[..len].copy_from_slice(&prefix[..len]);
            return Err(ContainerError::BadMagic { found });
        }
        Ok(())
    }

    /// Validates the magic and version of the 16 fixed header bytes and
    /// returns the header's value field. The checksum is verified separately
    /// ([`ContainerFormat::verify_header`]) so a reader can diagnose a
    /// foreign or skewed file before the checksum bytes are in.
    pub fn decode_header(&self, fixed: &[u8; 16]) -> Result<u64, ContainerError> {
        self.check_magic_prefix(&fixed[..4])?;
        let found = u16::from_le_bytes([fixed[4], fixed[5]]);
        if found != self.version {
            return Err(ContainerError::UnsupportedVersion { found, expected: self.version });
        }
        Ok(le_u64(&fixed[8..]))
    }

    /// Verifies the header checksum against the 16 fixed bytes.
    pub fn verify_header(&self, fixed: &[u8; 16], declared: [u8; 8]) -> Result<(), ContainerError> {
        if self.fnv(fixed) != u64::from_le_bytes(declared) {
            return Err(ContainerError::ChecksumMismatch { location: "header" });
        }
        Ok(())
    }

    /// Encodes the end frame carrying `count`.
    pub fn encode_end(&self, count: u64) -> [u8; 17] {
        let mut frame = [0u8; 17];
        frame[0] = FRAME_END;
        frame[1..9].copy_from_slice(&count.to_le_bytes());
        let checksum = self.fnv(&frame[..9]);
        frame[9..].copy_from_slice(&checksum.to_le_bytes());
        frame
    }

    /// Verifies an end frame (`rest` = count + checksum, the kind byte
    /// already consumed) and returns its count.
    pub fn decode_end(&self, rest: &[u8; 16]) -> Result<u64, ContainerError> {
        let mut fnv = IncrementalFnv::new(self.seed);
        fnv.write(&[FRAME_END]);
        fnv.write(&rest[..8]);
        if fnv.finish() != le_u64(&rest[8..]) {
            return Err(ContainerError::ChecksumMismatch { location: "end frame" });
        }
        Ok(le_u64(&rest[..8]))
    }

    /// The checksum of a frame whose kind byte and fixed metadata are
    /// `metadata` and whose bulk is `body`.
    pub fn frame_checksum(&self, metadata: &[u8], body: &[u8]) -> u64 {
        mix64(self.fnv(metadata) ^ hash_block(body, self.seed))
    }

    fn fnv(&self, bytes: &[u8]) -> u64 {
        let mut fnv = IncrementalFnv::new(self.seed);
        fnv.write(bytes);
        fnv.finish()
    }
}

/// A bounds-checked read position over a byte buffer. Reads that would run
/// past the end return `None` and leave the position unchanged; each format
/// turns that into its own truncation error.
#[derive(Debug, Clone)]
pub struct ByteCursor<B> {
    buf: B,
    pos: usize,
}

impl<B: AsRef<[u8]>> ByteCursor<B> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: B) -> Self {
        Self { buf, pos: 0 }
    }

    /// The underlying buffer.
    pub fn buffer(&self) -> &B {
        &self.buf
    }

    /// The read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left after the read position.
    pub fn remaining(&self) -> usize {
        self.buf.as_ref().len() - self.pos
    }

    /// Consumes `len` bytes, returning their range in the buffer.
    pub fn take(&mut self, len: usize) -> Option<Range<usize>> {
        if self.remaining() < len {
            return None;
        }
        let start = self.pos;
        self.pos += len;
        Some(start..self.pos)
    }

    /// Consumes `N` bytes into an array.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let range = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf.as_ref()[range]);
        Some(out)
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Decodes a little-endian `u64` from exactly eight bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

// Header, end-frame and checksum behaviour is pinned through both formats'
// exhaustive bit-flip and truncation sweeps (`.nstr` and `.nsck` tests).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut cursor = ByteCursor::new(&[1u8, 0, 0, 0, 0, 0, 0, 0, 9][..]);
        assert_eq!(cursor.u64(), Some(1));
        assert_eq!(cursor.array::<2>(), None, "a short read consumes nothing");
        assert_eq!(cursor.take(1), Some(8..9));
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.take(1), None);
    }
}
