//! The wire frame codec: [`WirePayload`]s in checksummed, versioned frames.
//!
//! The header layout, CRC-32 and length cap are [`arm_util::framing`]'s,
//! shared with the on-disk store. What is wire-specific: the magic is
//! `b"ARMW"`, the header's tag byte is the [`message_tag`] (0 = untagged,
//! accepted for frames from peers predating the tag), and the payload is a
//! JSON-encoded [`WirePayload`].
//!
//! The decoder is incremental: feed it arbitrary byte chunks ([`FrameDecoder::push`])
//! and pop complete frames ([`FrameDecoder::next_frame`]). Partial reads simply
//! return `Ok(None)`. Corruption is classified:
//!
//! * bad magic / unknown version / oversized length mean the byte stream can
//!   no longer be trusted at all — the decoder poisons itself and every later
//!   call returns the same error (the connection should be dropped);
//! * a checksum or payload error is confined to one frame — the frame's bytes
//!   are consumed, the error is returned once, and decoding can resume at the
//!   next frame boundary.

use crate::WirePayload;
pub use arm_util::framing::{crc32, HEADER_LEN, MAX_PAYLOAD};
use arm_util::framing::{Format, FrameError};
use std::fmt;

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ARMW";
/// Current protocol version, bumped on incompatible codec changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// The wire stream's framing (header layout, CRC and length cap live in
/// [`arm_util::framing`]).
const WIRE: Format = Format {
    magic: MAGIC,
    version: PROTOCOL_VERSION,
};

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with [`MAGIC`] — framing is lost.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks an incompatible protocol version.
    Version {
        /// The version byte found.
        found: u8,
    },
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// The payload checksum did not match (bit corruption in transit).
    Checksum {
        /// CRC announced in the header.
        expected: u32,
        /// CRC computed over the received payload.
        found: u32,
    },
    /// The checksum matched but the payload did not parse.
    Payload(String),
    /// The header's message tag disagrees with the decoded payload —
    /// framing metadata and content are out of sync (frame-local, like
    /// [`DecodeError::Checksum`]).
    TagMismatch {
        /// Tag carried in the frame header.
        header: u8,
        /// Tag computed from the decoded payload.
        payload: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            DecodeError::Version { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (ours: {PROTOCOL_VERSION})"
                )
            }
            DecodeError::Oversized { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            DecodeError::Checksum { expected, found } => {
                write!(
                    f,
                    "payload checksum mismatch (header {expected:08x}, computed {found:08x})"
                )
            }
            DecodeError::Payload(e) => write!(f, "undecodable payload: {e}"),
            DecodeError::TagMismatch { header, payload } => {
                write!(
                    f,
                    "header message tag {header} disagrees with payload tag {payload}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The per-variant message tag carried in every frame header (offset 5).
///
/// The tag makes the wire format self-describing one byte in: a receiver
/// can classify (and meter) a frame before parsing its payload, and the
/// decoder cross-checks it against the decoded payload so a codec that
/// serializes one variant but labels another is caught on the first
/// frame. Tag 0 is reserved for untagged frames from older peers.
///
/// An envelope's tag is its message's row in [`arm_proto::VOCABULARY`]
/// (2–21, 8 retired); the wire crate's own payloads take 1, 22 and 23. Both matches
/// are wildcard-free, so a new variant of either enum fails the build
/// until it has a tag.
pub fn message_tag(payload: &WirePayload) -> u8 {
    match payload {
        WirePayload::Hello(_) => 1,
        WirePayload::Envelope(env) => env.msg.tag(),
        WirePayload::StatusRequest(_) => 22,
        WirePayload::StatusReport(_) => 23,
    }
}

/// Encodes one payload into a complete frame.
///
/// # Panics
///
/// Panics if the serialized payload exceeds [`MAX_PAYLOAD`] — no message the
/// middleware produces comes near the cap.
#[allow(
    clippy::expect_used,
    clippy::panic,
    reason = "documented under `# Panics`; our own payload types always serialize"
)]
pub fn encode(payload: &WirePayload) -> Vec<u8> {
    let body = serde_json::to_string(payload)
        .expect("wire payloads always serialize")
        .into_bytes();
    WIRE.encode(message_tag(payload), &body)
        .unwrap_or_else(|_| panic!("payload of {} bytes exceeds MAX_PAYLOAD", body.len()))
}

/// Incremental frame decoder over a byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    poison: Option<DecodeError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// True once the stream has hit a poison-class error (bad magic,
    /// unknown version, oversized length): every later [`Self::next_frame`]
    /// returns the same error and the connection should be dropped.
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Drops consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn poison(&mut self, e: DecodeError) -> Result<Option<WirePayload>, DecodeError> {
        self.poison = Some(e.clone());
        Err(e)
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// Never panics, whatever the input bytes. See the module docs for which
    /// errors poison the stream versus skip one frame.
    pub fn next_frame(&mut self) -> Result<Option<WirePayload>, DecodeError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        // `start <= buf.len()` always: it only advances past decoded frames
        // and `compact()` resets it.
        let avail = self.buf.get(self.start..).unwrap_or_default();
        let (frame_len, parsed) = match WIRE.parse(avail) {
            Ok(frame) => (frame.frame_len(), decode_payload(frame.tag, frame.payload)),
            Err(FrameError::Truncated { .. }) => {
                self.compact();
                return Ok(None);
            }
            Err(FrameError::BadMagic { found }) => {
                return self.poison(DecodeError::BadMagic { found })
            }
            Err(FrameError::Version { found }) => {
                return self.poison(DecodeError::Version { found })
            }
            Err(FrameError::Oversized { len }) => {
                return self.poison(DecodeError::Oversized { len })
            }
            Err(FrameError::Checksum {
                expected,
                found,
                frame_len,
            }) => (frame_len, Err(DecodeError::Checksum { expected, found })),
        };
        // The frame boundary held, so consume the frame whether or not its
        // contents were good: decoding can resume at the next frame.
        self.start += frame_len;
        self.compact();
        parsed.map(Some)
    }
}

/// Parses a checksummed payload and cross-checks it against the header tag.
fn decode_payload(tag: u8, body: &[u8]) -> Result<WirePayload, DecodeError> {
    let text = std::str::from_utf8(body).map_err(|e| DecodeError::Payload(e.to_string()))?;
    let payload = serde_json::from_str::<WirePayload>(text)
        .map_err(|e| DecodeError::Payload(e.to_string()))?;
    let actual = message_tag(&payload);
    // Tag 0 = untagged sender; anything else must agree with the payload.
    if tag != 0 && tag != actual {
        return Err(DecodeError::TagMismatch {
            header: tag,
            payload: actual,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hello;
    use arm_proto::{Envelope, Message};
    use arm_util::{NodeId, SimTime};

    fn heartbeat_env() -> WirePayload {
        WirePayload::Envelope(Envelope::untraced(
            NodeId::new(1),
            NodeId::new(2),
            Message::Heartbeat {
                from: NodeId::new(1),
                sent_at: SimTime::from_millis(125),
            },
        ))
    }

    #[test]
    fn round_trip_single_frame() {
        let payload = heartbeat_env();
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(payload));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn partial_reads_reassemble() {
        let payload = heartbeat_env();
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        for chunk in bytes.chunks(3) {
            dec.push(chunk);
        }
        assert_eq!(dec.next_frame().unwrap(), Some(payload));
    }

    #[test]
    fn byte_at_a_time_never_yields_early() {
        let payload = heartbeat_env();
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            if i + 1 < bytes.len() {
                assert_eq!(dec.next_frame().unwrap(), None, "early yield at byte {i}");
            }
        }
        assert_eq!(dec.next_frame().unwrap(), Some(payload));
    }

    #[test]
    fn back_to_back_frames() {
        let a = heartbeat_env();
        let b = WirePayload::Hello(Hello {
            node: NodeId::new(9),
            listen: Some("127.0.0.1:19000".into()),
            peers: vec![(NodeId::new(1), "127.0.0.1:19001".into())],
        });
        let mut stream = encode(&a);
        stream.extend_from_slice(&encode(&b));
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(a));
        assert_eq!(dec.next_frame().unwrap(), Some(b));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn checksum_error_skips_one_frame() {
        let bad = {
            let mut bytes = encode(&heartbeat_env());
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40; // flip a payload bit
            bytes
        };
        let good = encode(&heartbeat_env());
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        dec.push(&good);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::Checksum { .. })
        ));
        // The stream resyncs at the next frame.
        assert_eq!(dec.next_frame().unwrap(), Some(heartbeat_env()));
    }

    #[test]
    fn header_carries_the_message_tag() {
        let env = heartbeat_env();
        let bytes = encode(&env);
        assert_eq!(bytes[5], message_tag(&env));
        assert_ne!(bytes[5], 0);
        let hello = WirePayload::Hello(Hello {
            node: NodeId::new(9),
            listen: None,
            peers: Vec::new(),
        });
        assert_eq!(encode(&hello)[5], message_tag(&hello));
        assert_ne!(message_tag(&hello), message_tag(&env));
    }

    #[test]
    fn tag_mismatch_is_frame_local() {
        let mut bad = encode(&heartbeat_env());
        bad[5] = bad[5].wrapping_add(1); // lie about the variant
        let good = encode(&heartbeat_env());
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        dec.push(&good);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::TagMismatch { .. })
        ));
        assert!(!dec.is_poisoned());
        // The stream resyncs at the next frame.
        assert_eq!(dec.next_frame().unwrap(), Some(heartbeat_env()));
    }

    #[test]
    fn untagged_frames_still_decode() {
        let mut bytes = encode(&heartbeat_env());
        bytes[5] = 0; // pre-tag sender
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(heartbeat_env()));
    }

    #[test]
    fn bad_magic_poisons() {
        let mut bytes = encode(&heartbeat_env());
        bytes[0] = b'X';
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::BadMagic { .. })
        ));
        // Still poisoned on the next call.
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode(&heartbeat_env());
        bytes[4] = PROTOCOL_VERSION + 1;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(DecodeError::Version {
                found: PROTOCOL_VERSION + 1
            })
        );
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut bytes = encode(&heartbeat_env());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_frame_waits_for_more() {
        let bytes = encode(&heartbeat_env());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..bytes.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.push(&bytes[bytes.len() - 1..]);
        assert!(dec.next_frame().unwrap().is_some());
    }
}
