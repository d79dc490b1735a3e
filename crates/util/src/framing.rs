//! Versioned, length-prefixed, checksummed record framing.
//!
//! The wire codec (`arm-wire`, magic `ARMW`) and the on-disk store
//! (`arm-store`, magic `ARMS`) frame their records identically; this module
//! is the one implementation both use. Every record has this layout (all
//! integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic (per stream, see [`Format`])
//! 4       1     format version (per stream)
//! 5       1     tag (message tag on the wire, record kind on disk)
//! 6       2     reserved (0)
//! 8       4     payload length N (u32)
//! 12      4     CRC-32 (IEEE) of the payload bytes
//! 16      N     payload
//! ```
//!
//! [`Format::parse`] validates in a fixed order — header present, magic,
//! version, length cap, payload present, checksum — and reports the first
//! defect as a [`FrameError`]. What a defect *means* is the caller's
//! business: a stream decoder waits on [`FrameError::Truncated`] and drops
//! the connection on a bad header, a log replay truncates at the first
//! defect of any kind.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects
    )
)]

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a payload; larger announced lengths are treated as
/// corruption, so a torn or hostile length field cannot trigger a giant
/// allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table.
#[allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: `i < 256` is the loop bound, and a bad index would fail the build"
)]
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
#[allow(
    clippy::indexing_slicing,
    reason = "the index is masked to 0..=255 and the table's length, 256, is in its type"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The first defect found while parsing a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the header (`need == HEADER_LEN`, `have`
    /// counts the bytes present) or before the payload (`need` is the
    /// announced payload length, `have` the payload bytes present).
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// The record does not start with the stream's magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The version byte is not the stream's version.
    Version {
        /// The version byte found.
        found: u8,
    },
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// The record boundary held but the payload checksum did not match.
    Checksum {
        /// CRC announced in the header.
        expected: u32,
        /// CRC computed over the payload.
        found: u32,
        /// Total size of the corrupt record, so a stream decoder can skip
        /// it and resume at the next boundary.
        frame_len: usize,
    },
}

/// A record whose header validated and whose checksum matched, borrowed
/// from the parsed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The header's tag byte (offset 5), uninterpreted.
    pub tag: u8,
    /// The checksummed payload bytes.
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Bytes the whole record occupies in the buffer it was parsed from.
    pub fn frame_len(&self) -> usize {
        HEADER_LEN.saturating_add(self.payload.len())
    }
}

/// One framed stream: its magic and the version it speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Leading bytes of every record.
    pub magic: [u8; 4],
    /// Version byte written and required.
    pub version: u8,
}

impl Format {
    /// Frames `payload` under `tag`. Fails only with
    /// [`FrameError::Oversized`].
    pub fn encode(&self, tag: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
        let len = match u32::try_from(payload.len()) {
            Ok(len) if payload.len() <= MAX_PAYLOAD => len,
            _ => return Err(FrameError::Oversized { len: payload.len() }),
        };
        let mut out = Vec::with_capacity(HEADER_LEN.saturating_add(payload.len()));
        out.extend_from_slice(&self.magic);
        out.push(self.version);
        out.push(tag);
        out.extend_from_slice(&[0, 0]); // reserved
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(out)
    }

    /// Parses the record at the start of `buf`. Never panics, whatever the
    /// bytes; trailing bytes past the record are ignored.
    pub fn parse<'a>(&self, buf: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        let Some((header, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
            return Err(FrameError::Truncated {
                have: buf.len(),
                need: HEADER_LEN,
            });
        };
        let &[m0, m1, m2, m3, version, tag, _, _, l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let found = [m0, m1, m2, m3];
        if found != self.magic {
            return Err(FrameError::BadMagic { found });
        }
        if version != self.version {
            return Err(FrameError::Version { found: version });
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let Some(payload) = rest.get(..len) else {
            return Err(FrameError::Truncated {
                have: rest.len(),
                need: len,
            });
        };
        let expected = u32::from_le_bytes([c0, c1, c2, c3]);
        let found = crc32(payload);
        if expected != found {
            return Err(FrameError::Checksum {
                expected,
                found,
                frame_len: HEADER_LEN.saturating_add(len),
            });
        }
        Ok(Frame { tag, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: Format = Format {
        magic: *b"ARMW",
        version: 1,
    };
    const STORE: Format = Format {
        magic: *b"ARMS",
        version: 1,
    };

    #[test]
    fn crc32_known_vector() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_prefix_of_two_records_yields_exactly_its_complete_records() {
        for format in [WIRE, STORE] {
            let records = [(7u8, &b"first payload"[..]), (9, &b""[..])];
            let first = format.encode(7, records[0].1).unwrap();
            let mut buf = first.clone();
            buf.extend_from_slice(&format.encode(9, records[1].1).unwrap());
            for cut in 0..=buf.len() {
                let mut rest = &buf[..cut];
                let mut seen = Vec::new();
                loop {
                    match format.parse(rest) {
                        Ok(frame) => {
                            seen.push((frame.tag, frame.payload));
                            rest = &rest[frame.frame_len()..];
                        }
                        Err(FrameError::Truncated { have, need }) => {
                            assert!(have < need);
                            break;
                        }
                        Err(e) => panic!("prefix {cut}: {e:?}"),
                    }
                }
                let complete = usize::from(cut >= first.len()) + usize::from(cut == buf.len());
                assert_eq!(seen, records[..complete], "prefix {cut}");
            }
        }
    }

    #[test]
    fn each_defect_maps_to_its_error_class() {
        for format in [WIRE, STORE] {
            let good = format.encode(1, b"payload").unwrap();
            let flipped = |at: usize, mask: u8| {
                let mut bytes = good.clone();
                bytes[at] ^= mask;
                bytes
            };
            for at in 0..4 {
                assert!(matches!(
                    format.parse(&flipped(at, 0x01)),
                    Err(FrameError::BadMagic { .. })
                ));
            }
            assert_eq!(
                format.parse(&flipped(4, 0x02)),
                Err(FrameError::Version { found: 3 })
            );
            // Bit 25 of the length: 32 MiB + 7, above the cap.
            assert_eq!(
                format.parse(&flipped(11, 0x02)),
                Err(FrameError::Oversized { len: (1 << 25) + 7 })
            );
            for at in HEADER_LEN..good.len() {
                assert!(matches!(
                    format.parse(&flipped(at, 0x10)),
                    Err(FrameError::Checksum { frame_len, .. }) if frame_len == good.len()
                ));
            }
            // A flipped CRC field is the same class as a flipped payload.
            assert!(matches!(
                format.parse(&flipped(12, 0x01)),
                Err(FrameError::Checksum { .. })
            ));
            // The other stream's records are foreign.
            let other = if format == WIRE { STORE } else { WIRE };
            assert!(matches!(
                other.parse(&good),
                Err(FrameError::BadMagic { .. })
            ));
        }
    }

    #[test]
    fn oversized_payload_is_refused_at_encode() {
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert_eq!(
            WIRE.encode(1, &big),
            Err(FrameError::Oversized { len: big.len() })
        );
        assert!(WIRE.encode(1, &big[..MAX_PAYLOAD]).is_ok());
    }
}
