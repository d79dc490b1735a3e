//! # arm-wire — framed wire codec and live transports
//!
//! The wire subsystem turns the sans-I/O middleware into a networked one.
//! It has three layers:
//!
//! * [`frame`] — a versioned, length-prefixed, checksummed binary frame
//!   codec for every [`arm_proto::Message`], with a streaming decoder that
//!   survives partial reads, truncated frames, corrupted payloads and
//!   version mismatches;
//! * [`transport`] — the [`Transport`] trait: identity-addressed,
//!   non-blocking sends plus per-link counters;
//! * implementations: [`TcpTransport`] over real `std::net` sockets and the
//!   deterministic [`InMemoryTransport`] (via [`MemHub`]) for tests.
//!
//! Everything that crosses a link is a [`WirePayload`]: either a [`Hello`]
//! handshake (identity + address gossip) or a protocol
//! [`Envelope`](arm_proto::Envelope). The `PeerNode` state machines in
//! `arm-core` never see any of this — `arm-runtime` adapts transports to the
//! same `Event`/`Action` interface the in-process channels use.

#![warn(missing_docs)]
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

pub mod frame;
pub mod mem;
pub mod status;
pub mod tcp;
pub mod transport;

pub use frame::{
    crc32, encode, message_tag, DecodeError, FrameDecoder, HEADER_LEN, MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
pub use mem::{InMemoryTransport, MemHub};
pub use status::{query_status, query_status_with, StatusProvider, StatusReport, StatusRequest};
pub use tcp::{TcpOptions, TcpTransport};
pub use transport::{
    InboundSink, LinkCounters, LinkStats, Transport, TransportError, TransportStats,
};

use arm_proto::Envelope;
use arm_util::NodeId;
use serde::{Deserialize, Serialize};

/// The handshake frame: the first thing each side of a fresh connection
/// sends. Carries the sender's identity, its listen address (if it accepts
/// connections), and a gossip of known `NodeId → address` routes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// The sending peer.
    pub node: NodeId,
    /// Address the sender's listener is bound to, if any.
    pub listen: Option<String>,
    /// Known routes, gossiped so joins can redirect across domains.
    pub peers: Vec<(NodeId, String)>,
}

/// Everything that can occupy a frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WirePayload {
    /// Connection handshake and address gossip.
    Hello(Hello),
    /// A routed protocol message.
    Envelope(Envelope),
    /// Introspection: an observer (`arm top`, `arm trace`) asks for a
    /// status snapshot. Answered on the same connection; no handshake or
    /// link registration required.
    StatusRequest(StatusRequest),
    /// Introspection: the queried node's snapshot (boxed — it dwarfs every
    /// other payload).
    StatusReport(Box<StatusReport>),
}
