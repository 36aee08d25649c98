//! Versioned, dependency-free binary snapshot encoding.
//!
//! A snapshot file is a single *frame*:
//!
//! ```text
//! magic `HYSN` (4 bytes) | format version (u32 LE) | payload length (u64 LE)
//! | payload bytes | hash64 checksum of the payload (u64 LE)
//! ```
//!
//! The payload itself is written field-by-field through [`SnapWriter`] and
//! read back through [`SnapReader`]; every multi-byte integer is
//! little-endian and every `f64` travels as its IEEE-754 bit pattern, so
//! snapshots are bit-identical across platforms. Decoding is strict: a bad
//! magic, a version mismatch, a truncated frame, or a checksum failure each
//! yield a distinct [`SnapshotError`] *before* any state is reconstructed —
//! restore is all-or-nothing by construction.

use std::error::Error;
use std::fmt;

/// The four magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HYSN";

/// The current snapshot format version.
///
/// Bump this on ANY change to the payload layout; old files then fail with
/// [`SnapshotError::VersionMismatch`] instead of misdecoding.
///
/// Version history: 1 = initial format; 2 = driver payloads append the
/// service-graph tracker state (a presence tag plus roots, hops, queued
/// child hops, and per-entry-point outcomes) and the cohort table carries
/// a per-slot admission time; 3 = the resilience layer — failure tallies
/// split into four kinds, the graph tracker carries retry/deadline/budget
/// state and stats, driver payloads append the resilience RNG stream, and
/// the cohort table carries a per-slot attempt counter; 4 = a container
/// writes one flow table (requests are flows of one member) and no
/// separate request list; 5 = response-time and end-to-end summaries are
/// written as `(value, weight)` records, one per completed flow rather
/// than one sample per member; 6 = those summaries write their moments,
/// NaN drop count and sorted flag, then their records in stored order
/// (which a percentile query may have sorted); 7 = driver payloads drop
/// the skipped-idle-tick tally; 8 = driver payloads move the trace
/// cursor from after the clock to the very end, outside the state the
/// end-of-run digest covers; 9 = the frame checksum (and every digest)
/// is [`hash64`] instead of the byte-serial FNV-1a.
pub const SNAPSHOT_VERSION: u32 = 9;

/// Bytes of frame header before the payload: magic, version, length.
const HEADER_LEN: usize = 16;

/// Word-at-a-time 64-bit hash of a byte slice: not cryptographic, and not
/// FNV-1a (which snapshot versions 1–8 used).
///
/// Used both as the frame checksum and as the state-digest primitive
/// throughout the snapshot subsystem. The state starts from the length,
/// absorbs each 8-byte little-endian word (then the zero-padded tail) by
/// xor, odd multiply and rotate, and ends with a 64-bit avalanche. Each
/// step is a bijection of both the state and the word, so any change
/// confined to one word (or the tail) always changes the hash.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    fn absorb(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(K).rotate_left(29)
    }
    let mut h = (bytes.len() as u64).wrapping_mul(K) ^ 0x2d35_8dcc_aa6c_78a5;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = absorb(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = absorb(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Errors raised while encoding, framing, or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file does not start with the `HYSN` magic bytes.
    BadMagic,
    /// The file's format version differs from this build's.
    VersionMismatch {
        /// Version this build reads and writes ([`SNAPSHOT_VERSION`]).
        expected: u32,
        /// Version found in the file header.
        found: u32,
    },
    /// The frame (or a field inside the payload) ended early.
    Truncated,
    /// The payload bytes do not match the recorded checksum.
    ChecksumMismatch,
    /// The payload decoded structurally but held an impossible value.
    Corrupt(String),
    /// The snapshot was taken under a different scenario configuration.
    ConfigMismatch {
        /// Digest of the configuration attempting the restore.
        expected: u64,
        /// Digest recorded in the snapshot.
        found: u64,
    },
    /// An underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { expected, found } => write!(
                f,
                "snapshot format version mismatch: expected {expected}, found {found}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot payload checksum mismatch (file corrupted)")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload is corrupt: {what}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different scenario configuration \
                 (config digest {found:#018x}, this scenario is {expected:#018x})"
            ),
            SnapshotError::Io(what) => write!(f, "snapshot i/o error: {what}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Field-by-field payload encoder.
///
/// Accumulates raw payload bytes after room for the frame header;
/// [`SnapWriter::finish`] fills in the header and appends the checksum, in
/// place, to make the versioned frame (magic, version, length, checksum).
#[derive(Debug)]
pub struct SnapWriter {
    /// The header's [`HEADER_LEN`] bytes (zero until `finish`), then the
    /// payload.
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter {
            buf: vec![0; HEADER_LEN],
        }
    }
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    fn payload(&self) -> &[u8] {
        &self.buf[HEADER_LEN..]
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an optional `f64` as a presence byte plus the bit pattern.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed raw byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Current payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload().len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.payload().is_empty()
    }

    /// [`hash64`] digest of the payload written so far.
    pub fn digest(&self) -> u64 {
        hash64(self.payload())
    }

    /// Consumes the writer and returns the complete framed snapshot:
    /// magic, version, payload length, payload, payload checksum.
    pub fn finish(self) -> Vec<u8> {
        let checksum = self.digest();
        let len = self.len() as u64;
        let mut out = self.buf;
        out[..4].copy_from_slice(&SNAPSHOT_MAGIC);
        out[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Strict field-by-field payload decoder.
///
/// [`SnapReader::open`] validates the entire frame (magic, version, length,
/// checksum) up front; the `get_*` accessors then walk the payload and fail
/// with [`SnapshotError::Truncated`] on any under-run.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates the frame around `bytes` and positions a reader at the
    /// start of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::VersionMismatch`],
    /// [`SnapshotError::Truncated`], or [`SnapshotError::ChecksumMismatch`],
    /// checked in that order.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 {
            return Err(if bytes.starts_with(&SNAPSHOT_MAGIC[..bytes.len()]) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let found = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if found != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found,
            });
        }
        let len = u64::from_le_bytes(bytes[8..HEADER_LEN].try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
        let Some(total) = len.checked_add(24) else {
            return Err(SnapshotError::Truncated);
        };
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after frame",
                bytes.len() - total
            )));
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
        let checksum =
            u64::from_le_bytes(bytes[HEADER_LEN + len..total].try_into().expect("8 bytes"));
        if hash64(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(SnapReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.payload.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool written by [`SnapWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on under-run; [`SnapshotError::Corrupt`]
    /// if the byte is neither 0 nor 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!(
                "bool byte must be 0 or 1, found {other}"
            ))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on under-run; [`SnapshotError::Corrupt`]
    /// if the value does not fit this platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("length {v} exceeds usize")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `f64` written by [`SnapWriter::put_opt_f64`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on under-run; [`SnapshotError::Corrupt`]
    /// on an invalid presence byte.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.get_bool()? {
            Ok(Some(self.get_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on under-run; [`SnapshotError::Corrupt`]
    /// on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not valid UTF-8".into()))
    }

    /// Reads a length-prefixed raw byte slice.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Bytes left unread in the payload.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if unread bytes remain.
    pub fn expect_done(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} unread payload bytes",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12);
        w.put_f64(-0.5);
        w.put_opt_f64(Some(3.25));
        w.put_opt_f64(None);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        w.finish()
    }

    #[test]
    fn round_trip_all_field_types() {
        let bytes = sample_frame();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_opt_f64().unwrap(), Some(3.25));
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        r.expect_done().unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_frame();
        bytes[0] = b'X';
        assert_eq!(
            SnapReader::open(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapReader::open(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_mismatch_reports_expected_and_found() {
        let mut bytes = sample_frame();
        bytes[4] = SNAPSHOT_VERSION as u8 + 1;
        assert_eq!(
            SnapReader::open(&bytes).unwrap_err(),
            SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: SNAPSHOT_VERSION + 1,
            }
        );
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = sample_frame();
        for cut in 0..bytes.len() {
            let err = SnapReader::open(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch
                ),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let mut bytes = sample_frame();
        bytes[20] ^= 0x40;
        assert_eq!(
            SnapReader::open(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = sample_frame();
        bytes.push(0);
        assert!(matches!(
            SnapReader::open(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn field_overrun_is_truncated() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u64().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn hash64_known_vectors() {
        // Pinned outputs: any change here changes every checksum and
        // digest, so it needs a SNAPSHOT_VERSION bump.
        assert_eq!(hash64(b""), 0x3360_5fe8_2fa6_0161);
        assert_eq!(hash64(b"a"), 0xfe49_eeb7_9275_5bc1);
        assert_eq!(hash64(b"\0"), 0xdc03_ee92_cd37_dd1e);
        assert_eq!(hash64(b"12345678"), 0x2b41_61a8_89af_64a2);
        assert_eq!(hash64(b"hello, world"), 0xb5bf_95dd_0faa_4e6a);
    }

    #[test]
    fn every_byte_flip_changes_the_checksum() {
        // 67 bytes: eight whole words, then a 3-byte tail.
        let payload: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(37)).collect();
        let mut w = SnapWriter::new();
        for &b in &payload {
            w.put_u8(b);
        }
        let frame = w.finish();
        assert_eq!(frame.len(), HEADER_LEN + 67 + 8);
        let clean = hash64(&payload);
        for i in 0..payload.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bytes = payload.clone();
                bytes[i] ^= flip;
                assert_ne!(hash64(&bytes), clean, "byte {i} ^ {flip:#04x}");
                let mut framed = frame.clone();
                framed[HEADER_LEN + i] ^= flip;
                assert_eq!(
                    SnapReader::open(&framed).unwrap_err(),
                    SnapshotError::ChecksumMismatch,
                    "byte {i} ^ {flip:#04x}"
                );
            }
        }
    }

    #[test]
    fn finish_frames_the_payload_in_place() {
        let mut w = SnapWriter::new();
        assert!(w.is_empty());
        w.put_str("payload");
        assert_eq!(w.len(), 15);
        let digest = w.digest();
        let frame = w.finish();
        assert_eq!(frame[..4], SNAPSHOT_MAGIC);
        assert_eq!(frame[4..8], SNAPSHOT_VERSION.to_le_bytes());
        assert_eq!(frame[8..HEADER_LEN], 15u64.to_le_bytes());
        assert_eq!(frame[HEADER_LEN + 8..HEADER_LEN + 15], *b"payload");
        assert_eq!(frame[HEADER_LEN + 15..], digest.to_le_bytes());
        assert_eq!(digest, hash64(&frame[HEADER_LEN..HEADER_LEN + 15]));
    }

    #[test]
    fn display_messages_are_descriptive() {
        let v = SnapshotError::VersionMismatch {
            expected: 1,
            found: 9,
        };
        assert_eq!(
            v.to_string(),
            "snapshot format version mismatch: expected 1, found 9"
        );
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
