//! The introspection protocol: [`StatusRequest`] / [`StatusReport`].
//!
//! Any tool that can open a TCP connection can interrogate a live node: it
//! writes one `StatusRequest` frame and reads back one `StatusReport` frame
//! on the same connection — no `Hello` handshake, no link registration, no
//! `NodeId` needed up front. The report bundles everything the `arm top`
//! and `arm trace` CLI verbs render: role and domain membership, load, the
//! node's metrics snapshot, per-link transport counters, open task spans
//! and (on request) a flight-recorder dump of the node's trace ring.
//!
//! Reports also gossip the node's address book (`peers`), so an observer
//! seeded with a single address can walk the whole reachable cluster —
//! exactly how `arm trace` collects every node's ring before merging one
//! causally-ordered timeline.

use crate::frame::encode;
use crate::tcp::{await_frame, resolve, AwaitError};
use crate::transport::{TransportError, TransportStats};
use crate::WirePayload;
use arm_telemetry::{HealthStatus, MetricsSnapshot, SeriesBatch, TraceEvent};
use arm_util::{DomainId, NodeId};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A status query from an observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusRequest {
    /// Who is asking (informational; not authenticated).
    pub observer: NodeId,
    /// Also dump the node's trace ring (the flight recorder). Costly on
    /// busy nodes — `arm top` leaves it off, `arm trace` turns it on.
    pub include_trace: bool,
    /// Scrape retained series at or after this sample cursor. `None` skips
    /// series entirely (cheapest); `Some(0)` fetches the full retained
    /// window; `Some(report.series.next_cursor)` of a previous answer
    /// fetches only new points — how `arm watch` polls without re-shipping
    /// history. Decodes to `None` on pre-pulse nodes' requests, and
    /// pre-pulse nodes asked with a cursor simply answer with no series.
    #[serde(default)]
    pub series_cursor: Option<u64>,
}

/// One node's full introspection snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// The reporting node.
    pub node: NodeId,
    /// Current protocol role (`"rm"`, `"member"`, `"joining"`, `"idle"`).
    pub role: String,
    /// Domain the node belongs to, once placed.
    pub domain: Option<DomainId>,
    /// The RM the node follows (itself, for an RM).
    pub rm: Option<NodeId>,
    /// Domain member count — RM nodes only.
    pub domain_size: Option<u64>,
    /// Active sessions in the domain — RM nodes only.
    pub sessions: Option<u64>,
    /// The node's current load.
    pub load: f64,
    /// Composed stream hops currently flowing through this node.
    pub active_hops: u64,
    /// Task spans opened but not yet terminal at this node.
    pub open_spans: u64,
    /// Trace events pushed out of the bounded ring before they could be
    /// collected.
    pub traces_dropped: u64,
    /// The node's metrics registry, frozen.
    pub metrics: MetricsSnapshot,
    /// Per-link wire counters.
    pub transport: TransportStats,
    /// Flight-recorder dump of the trace ring, when requested.
    pub trace: Option<Vec<TraceEvent>>,
    /// Retained-series scrape answering the request's `series_cursor`
    /// (empty when not asked, when the node predates pulse, or when pulse
    /// is disabled — observers cannot tell these apart, by design).
    #[serde(default, skip_serializing_if = "SeriesBatch::is_empty")]
    pub series: SeriesBatch,
    /// Current health-rule states (empty on pre-pulse / pulse-off nodes).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub health: Vec<HealthStatus>,
    /// The node's address book (`NodeId → listen addr`), for cluster
    /// discovery by observers.
    pub peers: Vec<(NodeId, String)>,
}

/// Server-side answerer installed on a transport
/// ([`TcpTransport::set_status_provider`](crate::TcpTransport::set_status_provider)):
/// called on a reader thread for each inbound [`StatusRequest`].
pub type StatusProvider = Box<dyn Fn(&StatusRequest) -> StatusReport + Send + Sync>;

/// Queries one node for its status over a fresh TCP connection.
///
/// Writes a single [`StatusRequest`] frame and waits up to `timeout` for
/// the [`StatusReport`] answer, skipping any other frames (e.g. a `Hello`
/// the remote may volunteer). The connection is dropped afterwards.
pub fn query_status(
    addr: &str,
    observer: NodeId,
    include_trace: bool,
    timeout: Duration,
) -> Result<StatusReport, TransportError> {
    query_status_with(
        addr,
        StatusRequest {
            observer,
            include_trace,
            series_cursor: None,
        },
        timeout,
    )
}

/// [`query_status`] with a caller-built request — the way to ask for a
/// retained-series scrape (`series_cursor`) alongside the snapshot.
pub fn query_status_with(
    addr: &str,
    request: StatusRequest,
    timeout: Duration,
) -> Result<StatusReport, TransportError> {
    let sockaddr = resolve(addr)?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)
        .map_err(|e| TransportError::Io(format!("dialing {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    stream
        .write_all(&encode(&WirePayload::StatusRequest(request)))
        .map_err(|e| TransportError::Io(format!("status request to {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Other frames (e.g. a `Hello` the remote may volunteer) are skipped.
    await_frame(&mut stream, timeout, |payload| match payload {
        WirePayload::StatusReport(report) => Some(*report),
        _ => None,
    })
    .map_err(|e| {
        TransportError::Io(match e {
            AwaitError::Deadline => format!("no status report from {addr}"),
            AwaitError::Closed => format!("{addr} closed before reporting status"),
            AwaitError::Decode { error, .. } => format!("status stream from {addr}: {error}"),
            AwaitError::Read(e) => format!("status read from {addr}: {e}"),
        })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame::FrameDecoder;

    /// A minimal but field-complete report for tests.
    pub(crate) fn sample_report(node: NodeId) -> StatusReport {
        StatusReport {
            node,
            role: "member".into(),
            domain: Some(DomainId::new(1)),
            rm: Some(NodeId::new(1)),
            domain_size: None,
            sessions: None,
            load: 12.5,
            active_hops: 2,
            open_spans: 1,
            traces_dropped: 0,
            metrics: MetricsSnapshot::default(),
            transport: TransportStats::default(),
            trace: None,
            series: SeriesBatch::default(),
            health: Vec::new(),
            peers: vec![(NodeId::new(1), "127.0.0.1:9000".into())],
        }
    }

    #[test]
    fn request_and_report_round_trip_the_codec() {
        let req = WirePayload::StatusRequest(StatusRequest {
            observer: NodeId::new(99),
            include_trace: true,
            series_cursor: Some(42),
        });
        let rep = WirePayload::StatusReport(Box::new(sample_report(NodeId::new(3))));
        for payload in [req, rep] {
            let bytes = encode(&payload);
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            assert_eq!(dec.next_frame().unwrap(), Some(payload));
        }
    }

    #[test]
    fn pre_pulse_frames_decode_with_empty_series_and_health() {
        // A report serialised without the series/health extension (what a
        // pre-pulse node sends — `skip_serializing_if` reproduces those
        // bytes exactly for an empty batch) must decode to the defaults.
        let report = sample_report(NodeId::new(5));
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("\"series\""));
        assert!(!json.contains("\"health\""));
        let back: StatusReport = serde_json::from_str(&json).unwrap();
        assert!(back.series.is_empty());
        assert!(back.health.is_empty());
        // Likewise an old observer's request with no cursor field.
        let old_req = "{\"observer\":7,\"include_trace\":false}";
        let req: StatusRequest = serde_json::from_str(old_req).unwrap();
        assert_eq!(req.series_cursor, None);
    }

    #[test]
    fn status_frames_have_their_own_tags() {
        use crate::frame::message_tag;
        let req = WirePayload::StatusRequest(StatusRequest {
            observer: NodeId::new(1),
            include_trace: false,
            series_cursor: None,
        });
        let rep = WirePayload::StatusReport(Box::new(sample_report(NodeId::new(1))));
        assert_eq!(message_tag(&req), 22);
        assert_eq!(message_tag(&rep), 23);
    }
}
