//! Record framing for the on-disk store.
//!
//! Every record in the intent log and the snapshot file is one
//! [`arm_util::framing`] record — the header layout, CRC-32 and length cap
//! the wire codec also uses — with magic `b"ARMS"`, the [`RecordKind`] as
//! the header's tag byte and a JSON-encoded record body as payload.
//!
//! The reader is a cursor over a fully read file. Any defect — bad magic,
//! unknown version, oversized length, short tail, checksum mismatch —
//! stops iteration at that offset: a write-ahead log torn by a crash is
//! *expected* to end in a partial record, and replay simply truncates
//! there. Unknown record kinds are skipped (not fatal), so newer nodes
//! can add record types without breaking older readers.

use arm_util::framing::{Format, FrameError};
pub use arm_util::framing::{HEADER_LEN, MAX_PAYLOAD};
use std::fmt;

/// Leading bytes of every store record.
pub const MAGIC: [u8; 4] = *b"ARMS";
/// Current store format version, bumped on incompatible codec changes.
pub const STORE_VERSION: u8 = 1;

const STORE: Format = Format {
    magic: MAGIC,
    version: STORE_VERSION,
};

/// What a store record contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One [`Intent`](crate::controller::Intent) appended to the WAL.
    Intent,
    /// A full [`StoreSnapshot`](crate::snapshot::StoreSnapshot).
    Snapshot,
}

impl RecordKind {
    /// The header tag byte for this kind.
    pub fn tag(self) -> u8 {
        match self {
            RecordKind::Intent => 1,
            RecordKind::Snapshot => 2,
        }
    }

    /// Inverse of [`RecordKind::tag`]; `None` for tags from the future.
    pub fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::Intent),
            2 => Some(RecordKind::Snapshot),
            _ => None,
        }
    }
}

/// Why decoding stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The record does not start with [`MAGIC`] — framing is lost.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The record was written by an incompatible store format.
    Version {
        /// The version byte found.
        found: u8,
    },
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// The buffer ends mid-record (torn write at crash time).
    Truncated {
        /// Bytes present past the record start.
        have: usize,
        /// Bytes the header demanded.
        need: usize,
    },
    /// The payload checksum did not match (bit corruption at rest).
    Checksum {
        /// CRC announced in the header.
        expected: u32,
        /// CRC computed over the stored payload.
        found: u32,
    },
    /// The checksum matched but the payload did not parse as the
    /// expected record body.
    Payload(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => write!(f, "bad store magic {found:02x?}"),
            CodecError::Version { found } => {
                write!(
                    f,
                    "unsupported store format {found} (ours: {STORE_VERSION})"
                )
            }
            CodecError::Oversized { len } => {
                write!(f, "record length {len} exceeds cap {MAX_PAYLOAD}")
            }
            CodecError::Truncated { have, need } => {
                write!(f, "record truncated: {have} of {need} bytes")
            }
            CodecError::Checksum { expected, found } => {
                write!(
                    f,
                    "record checksum mismatch: header {expected:08x}, payload {found:08x}"
                )
            }
            CodecError::Payload(e) => write!(f, "record payload: {e}"),
        }
    }
}

impl From<FrameError> for CodecError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic { found } => CodecError::BadMagic { found },
            FrameError::Version { found } => CodecError::Version { found },
            FrameError::Oversized { len } => CodecError::Oversized { len },
            FrameError::Truncated { have, need } => CodecError::Truncated { have, need },
            FrameError::Checksum {
                expected, found, ..
            } => CodecError::Checksum { expected, found },
        }
    }
}

/// Encodes one record. Fails only when the payload exceeds
/// [`MAX_PAYLOAD`].
pub fn encode_record(kind: RecordKind, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    Ok(STORE.encode(kind.tag(), payload)?)
}

/// A decoded record borrowed from the reader's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// What the record contains; `None` for kinds from a newer format
    /// (the caller should skip those).
    pub kind: Option<RecordKind>,
    /// The checksummed payload bytes.
    pub payload: &'a [u8],
}

/// Cursor over a buffer of concatenated records.
///
/// [`RecordReader::next_record`] yields records until the buffer ends
/// cleanly (`None` with [`RecordReader::offset`] == buffer length) or a
/// defect is found (`Some(Err(_))`; the offset then points at the first
/// bad record, i.e. the replay truncation point).
#[derive(Debug)]
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Byte offset of the next (unconsumed) record.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Decodes the next record, advancing past it on success.
    pub fn next_record(&mut self) -> Option<Result<Record<'a>, CodecError>> {
        let rest = self.buf.get(self.pos..)?;
        if rest.is_empty() {
            return None;
        }
        Some(match STORE.parse(rest) {
            Ok(frame) => {
                self.pos += frame.frame_len();
                Ok(Record {
                    kind: RecordKind::from_tag(frame.tag),
                    payload: frame.payload,
                })
            }
            Err(e) => Err(e.into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_two_records() {
        let a = encode_record(RecordKind::Intent, b"alpha").unwrap();
        let b = encode_record(RecordKind::Snapshot, b"").unwrap();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let mut r = RecordReader::new(&buf);
        let first = r.next_record().unwrap().unwrap();
        assert_eq!(first.kind, Some(RecordKind::Intent));
        assert_eq!(first.payload, b"alpha");
        let second = r.next_record().unwrap().unwrap();
        assert_eq!(second.kind, Some(RecordKind::Snapshot));
        assert!(second.payload.is_empty());
        assert!(r.next_record().is_none());
        assert_eq!(r.offset(), buf.len());
    }

    #[test]
    fn torn_tail_reports_truncation_at_boundary() {
        let a = encode_record(RecordKind::Intent, b"first").unwrap();
        let b = encode_record(RecordKind::Intent, b"second").unwrap();
        let mut buf = a.clone();
        buf.extend_from_slice(&b[..b.len() - 3]); // crash mid-write
        let mut r = RecordReader::new(&buf);
        assert!(r.next_record().unwrap().is_ok());
        let stop = r.offset();
        assert_eq!(stop, a.len(), "offset marks the good prefix");
        assert!(matches!(
            r.next_record(),
            Some(Err(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn bit_flip_in_payload_is_checksum_error() {
        let mut buf = encode_record(RecordKind::Intent, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        let mut r = RecordReader::new(&buf);
        assert!(matches!(
            r.next_record(),
            Some(Err(CodecError::Checksum { .. }))
        ));
        assert_eq!(r.offset(), 0, "corrupt record is not consumed");
    }

    #[test]
    fn bad_magic_and_version_and_oversized() {
        let good = encode_record(RecordKind::Intent, b"x").unwrap();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            RecordReader::new(&bad_magic).next_record(),
            Some(Err(CodecError::BadMagic { .. }))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            RecordReader::new(&bad_version).next_record(),
            Some(Err(CodecError::Version { found: 99 }))
        ));
        let mut oversized = good.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            RecordReader::new(&oversized).next_record(),
            Some(Err(CodecError::Oversized { .. }))
        ));
    }

    #[test]
    fn unknown_kind_tag_yields_none_kind() {
        let mut buf = encode_record(RecordKind::Intent, b"future").unwrap();
        buf[5] = 200; // a record kind from a newer node
        let mut r = RecordReader::new(&buf);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.kind, None);
        assert_eq!(rec.payload, b"future");
    }
}
