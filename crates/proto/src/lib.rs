//! Wire protocol of the middleware.
//!
//! Every interaction the paper describes maps to one [`Message`] variant:
//!
//! | Paper section | Messages |
//! |---|---|
//! | §4.1 overlay construction | [`Message::JoinRequest`], [`Message::JoinRedirect`], [`Message::JoinAccept`], [`Message::Leave`] |
//! | §4.1 failure detection | [`Message::Heartbeat`], [`Message::HeartbeatAck`] |
//! | §4.1 RM backup & failover | [`Message::BackupUpdate`], [`Message::PromoteAnnounce`] |
//! | §4.3 task allocation | [`Message::TaskQuery`], [`Message::TaskRedirect`], [`Message::TaskReply`], [`Message::Compose`], [`Message::ComposeAck`], [`Message::SessionEnd`] |
//! | §4.4 intra-domain feedback | [`Message::LoadReport`] |
//! | §4.4 inter-domain gossip | [`Message::GossipDigest`] |
//! | §4.5 adaptation | [`Message::Reassign`] (graph composition reuse) |
//!
//! Messages are plain serializable data. [`Message::size_bytes`] gives a
//! deterministic size estimate used by the bandwidth model and the
//! protocol-overhead experiments (E5, E10, E12).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use arm_model::{PeerView, ResourceGraph, ServiceGraph, TaskSpec};
use arm_profiler::LoadReport;
use arm_util::{BloomFilter, DomainId, NodeId, SessionId, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// Compact causal trace context carried by every message on the wire.
///
/// `trace_id` names the distributed trace (0 = untraced), `parent_span` the
/// sender's handling span that produced the message, and `flags` is
/// reserved for future sampling/priority bits. The context is a versioned
/// envelope extension: it serializes only when live, and frames from peers
/// that predate it decode to [`TraceCtx::NONE`], so mixed-version clusters
/// interoperate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceCtx {
    /// The distributed trace this message belongs to (0 = untraced).
    pub trace_id: u64,
    /// The sender-side span that emitted the message (0 = untraced).
    pub parent_span: u64,
    /// Reserved flag bits (sampling, priority); currently always 0.
    pub flags: u32,
}

impl TraceCtx {
    /// The empty context: untraced traffic (periodic heartbeats, gossip
    /// rounds not initiated by a traced operation).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
        flags: 0,
    };

    /// Whether this context carries no live trace (serialization skips it).
    pub fn is_none(&self) -> bool {
        *self == TraceCtx::NONE
    }
}

/// A peer's credentials for Resource-Manager candidacy (§4.1: "sufficient
/// bandwidth, sufficient processing power, sufficient uptime").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmCandidacy {
    /// The candidate peer.
    pub node: NodeId,
    /// Processing capacity, work units/second.
    pub capacity: f64,
    /// Link bandwidth, kbps.
    pub bandwidth_kbps: u32,
    /// Uptime so far, seconds.
    pub uptime_secs: f64,
}

impl RmCandidacy {
    /// The qualification score (§4.1: "according to how affluent a peer is
    /// in those resources, it is assigned a score, that determines its
    /// position in the list of peers … eligible for becoming Resource
    /// Managers").
    ///
    /// Geometric-mean-style product of normalized resources, so a peer
    /// must be adequate in *all three* to score well.
    pub fn score(&self) -> f64 {
        let cap = (self.capacity / 100.0).min(4.0);
        let bw = (self.bandwidth_kbps as f64 / 10_000.0).min(4.0);
        let up = (self.uptime_secs / 3_600.0).min(4.0);
        (cap * bw * up).cbrt()
    }

    /// Whether the peer meets the minimum bar to be considered at all.
    pub fn qualifies(&self, min: &RmRequirements) -> bool {
        self.capacity >= min.min_capacity
            && self.bandwidth_kbps >= min.min_bandwidth_kbps
            && self.uptime_secs >= min.min_uptime_secs
    }
}

/// Minimum requirements for RM candidacy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmRequirements {
    /// Minimum processing capacity.
    pub min_capacity: f64,
    /// Minimum bandwidth.
    pub min_bandwidth_kbps: u32,
    /// Minimum uptime.
    pub min_uptime_secs: f64,
}

impl Default for RmRequirements {
    fn default() -> Self {
        Self {
            min_capacity: 50.0,
            min_bandwidth_kbps: 1_000,
            min_uptime_secs: 60.0,
        }
    }
}

/// A consistent snapshot of a Resource Manager's information base, shipped
/// to the backup RM ("keeping an up-to-date copy of all the information the
/// Resource Manager stores", §4.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmSnapshot {
    /// The domain this state describes.
    pub domain: DomainId,
    /// The current RM.
    pub rm: NodeId,
    /// Per-peer loads and capacities.
    pub view: PeerView,
    /// The domain resource graph.
    pub resource_graph: ResourceGraph,
    /// Running sessions' service graphs.
    pub sessions: Vec<(SessionId, ServiceGraph)>,
    /// The ranked RM-candidate list (best first).
    pub candidates: Vec<RmCandidacy>,
    /// Monotone version for update ordering.
    pub version: u64,
}

/// Outcome of a task query, returned to the requesting peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskReplyKind {
    /// Allocated; streaming will begin. Carries the service graph.
    Allocated(ServiceGraph),
    /// Rejected: no feasible allocation anywhere the query travelled.
    Rejected {
        /// Human-readable reason (diagnostics only).
        reason: String,
    },
}

/// The inter-domain summary carried by gossip (§3.1: `SumO_k`, `SumS_k`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSummary {
    /// The domain summarized.
    pub domain: DomainId,
    /// Its Resource Manager at summary time.
    pub rm: NodeId,
    /// Bloom summary of available object names.
    pub objects: BloomFilter,
    /// Bloom summary of available service descriptors.
    pub services: BloomFilter,
    /// Mean utilization hint for redirect targeting.
    pub mean_utilization: f64,
    /// Monotone version (freshness).
    pub version: u64,
}

/// Every message exchanged between peers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// A peer asks to join the overlay (sent to its region's RM, or to any
    /// peer, which redirects).
    JoinRequest {
        /// The joining peer's credentials.
        candidacy: RmCandidacy,
    },
    /// "Ask that peer instead" — either the receiver is not an RM, or the
    /// receiver's domain is full and the joiner should try another RM.
    JoinRedirect {
        /// Whom to contact.
        to: NodeId,
    },
    /// The RM admits the peer to its domain.
    JoinAccept {
        /// The domain joined.
        domain: DomainId,
        /// The RM of that domain.
        rm: NodeId,
        /// True if the newcomer is accepted *as a new Resource Manager* of
        /// a fresh domain (§4.1 splitting).
        as_new_rm: bool,
        /// New domain id when `as_new_rm`.
        new_domain: Option<DomainId>,
        /// Other Resource Managers the accepting RM knows of, so the
        /// newcomer (especially a new RM) can gossip (§4.4).
        known_rms: Vec<(DomainId, NodeId)>,
    },
    /// A peer registers its hosted objects and offered services with its
    /// RM (§3.1 items 5–6); sent after joining and on inventory changes.
    Advertise {
        /// Media objects stored at the sender.
        objects: Vec<arm_model::MediaObject>,
        /// Services the sender can run.
        services: Vec<arm_model::ServiceSpec>,
    },
    /// Graceful departure announcement.
    Leave {
        /// The departing peer.
        node: NodeId,
    },
    /// Liveness probe (RM → peers and peers → RM).
    Heartbeat {
        /// Sender.
        from: NodeId,
        /// Send time (lets receivers estimate comm times, §3.2).
        sent_at: SimTime,
    },
    /// Liveness response.
    HeartbeatAck {
        /// Sender of the ack.
        from: NodeId,
        /// Echoed probe send time.
        probe_sent_at: SimTime,
    },
    /// Periodic full-state shipment RM → backup RM.
    BackupUpdate {
        /// The snapshot.
        snapshot: Box<RmSnapshot>,
    },
    /// A backup RM announces it has taken over the domain — also sent by
    /// a crash-recovered RM re-asserting its role.
    PromoteAnnounce {
        /// The new RM (the former backup, or the recovered RM itself).
        new_rm: NodeId,
        /// The domain affected.
        domain: DomainId,
        /// The announcer's information-base version (epoch). Competing
        /// claims to the same domain are reconciled on this: the higher
        /// epoch wins, ties break toward the lower node id. Absent in
        /// frames from older nodes (decodes as 0, i.e. "always yield").
        #[serde(default)]
        version: u64,
    },
    /// Periodic profiler report, peer → RM (§4.4).
    LoadReport(LoadReport),
    /// Lazy inter-domain summary exchange, RM → RM (§4.4).
    GossipDigest {
        /// Summaries known to the sender (its own domain's first).
        summaries: Vec<DomainSummary>,
    },
    /// A user submits a task to its domain RM (§4.3, Fig. 2A).
    TaskQuery {
        /// The task.
        task: TaskSpec,
    },
    /// RM forwards a task it cannot admit to another domain's RM (§4.5).
    TaskRedirect {
        /// The task.
        task: TaskSpec,
        /// Domains that already declined (loop prevention).
        tried_domains: Vec<DomainId>,
    },
    /// Allocation outcome, RM → requesting peer (Fig. 2B).
    TaskReply {
        /// The task answered.
        task: TaskId,
        /// The outcome.
        reply: TaskReplyKind,
    },
    /// Graph-composition message, RM → session participant (§4.3: "graph
    /// composition messages are sent to the nodes that will participate in
    /// the streaming graph").
    Compose {
        /// The session being set up.
        session: SessionId,
        /// The full service graph (peers establish their connections from
        /// it).
        graph: ServiceGraph,
        /// Which hop index the receiver hosts.
        hop: usize,
        /// Absolute deadline of the task, so the participant's Local
        /// Scheduler can order the setup computation by laxity (§2).
        deadline: SimTime,
    },
    /// Participant acknowledges its hop is established.
    ComposeAck {
        /// Session.
        session: SessionId,
        /// Acknowledged hop.
        hop: usize,
        /// Acknowledging peer.
        from: NodeId,
    },
    /// Session tear-down (stream completed), RM → participants.
    SessionEnd {
        /// Session being ended.
        session: SessionId,
    },
    /// Adaptive reassignment (§4.5): replace the session's service graph.
    Reassign {
        /// Session being migrated.
        session: SessionId,
        /// Replacement graph.
        graph: ServiceGraph,
    },
    /// A participant declines a composition (e.g. its Connection Manager
    /// is at its connection limit, §2). The RM re-allocates around it.
    ComposeNack {
        /// Declined session.
        session: SessionId,
        /// Declined hop.
        hop: usize,
        /// Declining peer.
        from: NodeId,
        /// Diagnostic reason.
        reason: NackReason,
    },
    /// QoS renegotiation (§4.5): the user "may reduce the requested
    /// bit-rate or relax their deadlines to cope with congested networks,
    /// or increase the QoS parameters if they assume resources are
    /// abundant". Sent requester → RM for a running task.
    RenegotiateQos {
        /// The task whose requirements change.
        task: TaskId,
        /// The new requirement set.
        new_qos: arm_model::QosSpec,
    },
}

/// Why a composition was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NackReason {
    /// The peer's Connection Manager is at its connection limit (§2).
    ConnectionLimit,
    /// The peer cannot sustain the hop's load any more.
    Overloaded,
}

impl Message {
    /// A deterministic estimate of the on-wire size in bytes, used by the
    /// bandwidth model and the overhead accounting of E5/E10/E12.
    pub fn size_bytes(&self) -> usize {
        // Calibrated against the arm-wire frame codec (header + JSON-shaped
        // envelope); the wire crate's `size_estimate` test pins every
        // variant's estimate to within 2x of the real encoded frame.
        const HDR: usize = 40; // frame header + envelope: src, dst, kind
        const FORMAT: usize = 60; // one serialized MediaFormat
        const HOP: usize = 280; // one ServiceHop (two formats + ids + cost)
        const CANDIDACY: usize = 90; // one RmCandidacy
        match self {
            Message::JoinRequest { .. } => HDR + CANDIDACY,
            Message::JoinRedirect { .. } => HDR + 8,
            Message::JoinAccept { known_rms, .. } => HDR + 60 + known_rms.len() * 16,
            Message::Advertise { objects, services } => {
                HDR + objects.iter().map(|o| 110 + o.name.len()).sum::<usize>()
                    + services.len() * 280
            }
            Message::Leave { .. } => HDR + 8,
            Message::Heartbeat { .. } | Message::HeartbeatAck { .. } => HDR + 30,
            Message::BackupUpdate { snapshot } => {
                HDR + 64
                    + snapshot.view.len() * 120
                    + snapshot.resource_graph.num_states() * FORMAT
                    + snapshot.resource_graph.num_edges() * 100
                    + snapshot
                        .sessions
                        .iter()
                        .map(|(_, g)| 24 + g.hops.len() * HOP)
                        .sum::<usize>()
                    + snapshot.candidates.len() * CANDIDACY
            }
            Message::PromoteAnnounce { .. } => HDR + 32,
            Message::LoadReport(_) => HDR + 130,
            Message::GossipDigest { summaries } => {
                // Bloom bits travel hex-encoded: 2 characters per byte.
                HDR + summaries
                    .iter()
                    .map(|s| 130 + 2 * (s.objects.byte_size() + s.services.byte_size()))
                    .sum::<usize>()
            }
            Message::TaskQuery { task } | Message::TaskRedirect { task, .. } => {
                HDR + 250 + task.acceptable_formats.len() * FORMAT + task.name.len()
            }
            Message::TaskReply { reply, .. } => match reply {
                TaskReplyKind::Allocated(g) => HDR + 40 + g.hops.len() * HOP,
                TaskReplyKind::Rejected { reason } => HDR + 40 + reason.len(),
            },
            Message::Compose { graph, .. } | Message::Reassign { graph, .. } => {
                HDR + 50 + graph.hops.len() * HOP
            }
            Message::ComposeAck { .. } => HDR + 30,
            Message::ComposeNack { .. } => HDR + 50,
            Message::RenegotiateQos { .. } => HDR + 110,
            Message::SessionEnd { .. } => HDR + 16,
        }
    }

    /// This variant's row of [`VOCABULARY`]. The one `match` from variant
    /// to row, and it stays wildcard-free, so rustc names a new variant
    /// here — and at [`Message::size_bytes`] — until it has a row. A `_`
    /// arm is denied whether it would swallow no variant (rustc), one or
    /// several (clippy has one lint for each). `kind()` and the wire frame
    /// tag both read the row.
    #[deny(
        unreachable_patterns,
        clippy::match_wildcard_for_single_variants,
        clippy::wildcard_enum_match_arm
    )]
    #[allow(
        clippy::indexing_slicing,
        reason = "`i` is one of the twenty literals below and the table's length is in its type"
    )]
    fn row(&self) -> MessageRow {
        let i = match self {
            Message::JoinRequest { .. } => 0,
            Message::JoinRedirect { .. } => 1,
            Message::JoinAccept { .. } => 2,
            Message::Advertise { .. } => 3,
            Message::Leave { .. } => 4,
            Message::Heartbeat { .. } => 5,
            Message::HeartbeatAck { .. } => 6,
            Message::BackupUpdate { .. } => 7,
            Message::PromoteAnnounce { .. } => 8,
            Message::LoadReport(_) => 9,
            Message::GossipDigest { .. } => 10,
            Message::TaskQuery { .. } => 11,
            Message::TaskRedirect { .. } => 12,
            Message::TaskReply { .. } => 13,
            Message::Compose { .. } => 14,
            Message::ComposeAck { .. } => 15,
            Message::SessionEnd { .. } => 16,
            Message::Reassign { .. } => 17,
            Message::ComposeNack { .. } => 18,
            Message::RenegotiateQos { .. } => 19,
        };
        VOCABULARY[i]
    }

    /// A short stable label for tracing and per-kind counters.
    pub fn kind(&self) -> &'static str {
        self.row().kind
    }

    /// The frame-header tag `arm-wire` writes for this variant.
    pub fn tag(&self) -> u8 {
        self.row().tag
    }
}

/// One row of the message vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct MessageRow {
    /// Frame-header tag (`arm_wire::message_tag`); 0 is "untagged", 1 and
    /// 22–23 belong to the wire crate's own `Hello` and status payloads.
    pub tag: u8,
    /// Stable label ([`Message::kind`]): trace events, per-kind counters
    /// and metric label values are keyed on it.
    pub kind: &'static str,
}

const fn row(tag: u8, kind: &'static str) -> MessageRow {
    MessageRow { tag, kind }
}

/// The message vocabulary, one row per [`Message`] variant in declaration
/// order. Tags and kinds are wire- and trace-visible: never renumber or
/// rename a row, append.
pub const VOCABULARY: [MessageRow; 20] = [
    row(2, "join_request"),
    row(3, "join_redirect"),
    row(4, "join_accept"),
    row(5, "advertise"),
    row(6, "leave"),
    row(7, "heartbeat"),
    row(8, "heartbeat_ack"),
    row(9, "backup_update"),
    row(10, "promote"),
    row(11, "load_report"),
    row(12, "gossip"),
    row(13, "task_query"),
    row(14, "task_redirect"),
    row(15, "task_reply"),
    row(16, "compose"),
    row(17, "compose_ack"),
    row(18, "session_end"),
    row(19, "reassign"),
    row(20, "compose_nack"),
    row(21, "renegotiate"),
];

/// An addressed message in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Causal trace context (omitted on the wire when empty; envelopes
    /// without it — including all pre-extension frames — decode to
    /// [`TraceCtx::NONE`]).
    #[serde(default, skip_serializing_if = "TraceCtx::is_none")]
    pub trace: TraceCtx,
    /// Payload.
    pub msg: Message,
}

impl Envelope {
    /// Builds an envelope carrying no trace context.
    pub fn untraced(from: NodeId, to: NodeId, msg: Message) -> Self {
        Envelope {
            from,
            to,
            trace: TraceCtx::NONE,
            msg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidacy(cap: f64, bw: u32, up: f64) -> RmCandidacy {
        RmCandidacy {
            node: NodeId::new(1),
            capacity: cap,
            bandwidth_kbps: bw,
            uptime_secs: up,
        }
    }

    #[test]
    fn score_monotone_in_resources() {
        let weak = candidacy(50.0, 1_000, 600.0);
        let strong = candidacy(200.0, 20_000, 7_200.0);
        assert!(strong.score() > weak.score());
    }

    #[test]
    fn score_requires_all_three() {
        // Huge capacity but negligible uptime scores poorly.
        let lopsided = candidacy(400.0, 40_000, 1.0);
        let balanced = candidacy(100.0, 10_000, 3_600.0);
        assert!(balanced.score() > lopsided.score());
    }

    #[test]
    fn qualification_bar() {
        let req = RmRequirements::default();
        assert!(candidacy(50.0, 1_000, 60.0).qualifies(&req));
        assert!(!candidacy(49.0, 1_000, 60.0).qualifies(&req));
        assert!(!candidacy(50.0, 999, 60.0).qualifies(&req));
        assert!(!candidacy(50.0, 1_000, 59.0).qualifies(&req));
    }

    #[test]
    fn vocabulary_rows_are_distinct() {
        use std::collections::BTreeSet;
        // Tags 0, 1, 22 and 23 are the wire crate's; ours are exactly 2..=21.
        let tags: Vec<u8> = VOCABULARY.iter().map(|r| r.tag).collect();
        assert_eq!(tags, (2..=21).collect::<Vec<u8>>());
        let kinds: BTreeSet<&str> = VOCABULARY.iter().map(|r| r.kind).collect();
        assert_eq!(kinds.len(), VOCABULARY.len(), "duplicate kind label");
        // First and last variant land on their own rows.
        let first = Message::JoinRequest {
            candidacy: candidacy(50.0, 1_000, 60.0),
        };
        assert_eq!((first.tag(), first.kind()), (2, "join_request"));
        let last = Message::RenegotiateQos {
            task: TaskId::new(1),
            new_qos: arm_model::QosSpec::default(),
        };
        assert_eq!((last.tag(), last.kind()), (21, "renegotiate"));
    }

    #[test]
    fn trace_ctx_none_is_default_and_detectable() {
        assert_eq!(TraceCtx::default(), TraceCtx::NONE);
        assert!(TraceCtx::NONE.is_none());
        let live = TraceCtx {
            trace_id: 7,
            parent_span: 9,
            flags: 0,
        };
        assert!(!live.is_none());
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = Message::GossipDigest { summaries: vec![] };
        let summary = DomainSummary {
            domain: DomainId::new(1),
            rm: NodeId::new(1),
            objects: BloomFilter::new(1024, 4),
            services: BloomFilter::new(1024, 4),
            mean_utilization: 0.3,
            version: 1,
        };
        let big = Message::GossipDigest {
            summaries: vec![summary.clone(), summary],
        };
        assert!(big.size_bytes() > small.size_bytes() + 2 * 256);
        // Heartbeats are small.
        let hb = Message::Heartbeat {
            from: NodeId::new(1),
            sent_at: SimTime::ZERO,
        };
        assert!(hb.size_bytes() < 100);
    }

    #[test]
    fn snapshot_size_scales_with_domain() {
        use arm_model::{PeerInfo, ResourceGraph};
        let mut view = PeerView::new();
        for i in 0..10u64 {
            view.upsert(NodeId::new(i), PeerInfo::idle(100.0, 1_000));
        }
        let (gr, _) = ResourceGraph::figure1();
        let snap = RmSnapshot {
            domain: DomainId::new(1),
            rm: NodeId::new(0),
            view,
            resource_graph: gr,
            sessions: vec![],
            candidates: vec![],
            version: 3,
        };
        let msg = Message::BackupUpdate {
            snapshot: Box::new(snap),
        };
        let base = 40 + 64;
        assert!(msg.size_bytes() > base + 10 * 40 + 8 * 48 - 1);
    }
}
