//! Shared by the wire integration tests: one exemplar per `Message`
//! variant and the builders they are made of.

use arm_model::{
    Codec, MediaFormat, MediaObject, QosSpec, Resolution, ResourceGraph, ServiceGraph, ServiceSpec,
    TaskSpec,
};
use arm_profiler::LoadReport;
use arm_proto::{
    DomainSummary, Message, NackReason, RmCandidacy, RmSnapshot, TaskReplyKind, VOCABULARY,
};
use arm_util::{
    BloomFilter, DomainId, NodeId, ObjectId, ServiceId, SessionId, SimDuration, SimTime, TaskId,
};
use std::collections::BTreeSet;

pub fn candidacy(id: u64) -> RmCandidacy {
    RmCandidacy {
        node: NodeId::new(id),
        capacity: 100.0,
        bandwidth_kbps: 10_000,
        uptime_secs: 3_600.0,
    }
}

pub fn service_graph() -> ServiceGraph {
    let (gr, path) = ResourceGraph::figure1();
    ServiceGraph::from_path(TaskId::new(1), NodeId::new(2), NodeId::new(3), &gr, &path)
}

pub fn task_spec() -> TaskSpec {
    TaskSpec {
        id: TaskId::new(1),
        name: "demo-movie".into(),
        requester: NodeId::new(4),
        initial_format: MediaFormat::paper_source(),
        acceptable_formats: vec![MediaFormat::paper_target(), MediaFormat::paper_source()],
        qos: QosSpec::with_deadline(SimDuration::from_secs(10)),
        submitted_at: SimTime::from_secs(1),
        session_secs: 60.0,
    }
}

pub fn summary(seed: u64) -> DomainSummary {
    let mut objects = BloomFilter::with_capacity(64, 0.01);
    let mut services = BloomFilter::with_capacity(64, 0.01);
    for i in 0..32u64 {
        objects.insert_u64(seed.wrapping_mul(1000) + i);
        services.insert_u64(seed.wrapping_mul(2000) + i);
    }
    DomainSummary {
        domain: DomainId::new(seed),
        rm: NodeId::new(seed),
        objects,
        services,
        mean_utilization: 0.42,
        version: 7,
    }
}

pub fn snapshot() -> RmSnapshot {
    use arm_model::{PeerInfo, PeerView};
    let mut view = PeerView::new();
    for i in 1..=6u64 {
        view.upsert(NodeId::new(i), PeerInfo::idle(100.0, 10_000));
    }
    let (gr, _) = ResourceGraph::figure1();
    RmSnapshot {
        domain: DomainId::new(1),
        rm: NodeId::new(1),
        view,
        resource_graph: gr,
        sessions: vec![
            (SessionId::new(1), service_graph()),
            (SessionId::new(2), service_graph()),
        ],
        candidates: vec![candidacy(2), candidacy(3)],
        version: 12,
    }
}

/// At least one representative value per `Message` variant,
/// content-bearing where the variant can carry content. The one exemplar
/// registry of the wire test suite; panics, naming the kinds, unless it has
/// a value for every row of [`arm_proto::VOCABULARY`].
pub fn exemplars() -> Vec<Message> {
    let exemplars = vec![
        Message::JoinRequest {
            candidacy: candidacy(5),
        },
        Message::JoinRedirect { to: NodeId::new(2) },
        Message::JoinAccept {
            domain: DomainId::new(1),
            rm: NodeId::new(1),
            as_new_rm: true,
            new_domain: Some(DomainId::new(2)),
            known_rms: vec![
                (DomainId::new(1), NodeId::new(1)),
                (DomainId::new(3), NodeId::new(9)),
            ],
        },
        Message::Advertise {
            objects: vec![MediaObject::new(
                ObjectId::new(1),
                "demo-movie",
                MediaFormat::paper_source(),
                60.0,
            )],
            services: vec![ServiceSpec::transcoder(
                ServiceId::new(1),
                MediaFormat::paper_source(),
                MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256),
                5.0,
            )],
        },
        Message::Leave {
            node: NodeId::new(3),
        },
        Message::Heartbeat {
            from: NodeId::new(1),
            sent_at: SimTime::from_millis(123),
        },
        Message::HeartbeatAck {
            from: NodeId::new(2),
            probe_sent_at: SimTime::from_millis(123),
        },
        Message::BackupUpdate {
            snapshot: Box::new(snapshot()),
        },
        Message::PromoteAnnounce {
            new_rm: NodeId::new(4),
            domain: DomainId::new(1),
            version: 17,
        },
        Message::LoadReport(LoadReport {
            node: NodeId::new(5),
            at: SimTime::from_secs(9),
            load: 42.5,
            capacity: 100.0,
            bandwidth_used_kbps: 1_200,
            bandwidth_capacity_kbps: 10_000,
            queue_len: 3,
        }),
        Message::GossipDigest {
            summaries: vec![summary(1), summary(2)],
        },
        Message::TaskQuery { task: task_spec() },
        Message::TaskRedirect {
            task: task_spec(),
            tried_domains: vec![DomainId::new(1), DomainId::new(2)],
        },
        Message::TaskReply {
            task: TaskId::new(1),
            reply: TaskReplyKind::Allocated(service_graph()),
        },
        Message::TaskReply {
            task: TaskId::new(2),
            reply: TaskReplyKind::Rejected {
                reason: "no feasible allocation".into(),
            },
        },
        Message::Compose {
            session: SessionId::new(1),
            graph: service_graph(),
            hop: 1,
            deadline: SimTime::from_secs(20),
        },
        Message::ComposeAck {
            session: SessionId::new(1),
            hop: 1,
            from: NodeId::new(3),
        },
        Message::SessionEnd {
            session: SessionId::new(1),
        },
        Message::Reassign {
            session: SessionId::new(1),
            graph: service_graph(),
        },
        Message::ComposeNack {
            session: SessionId::new(1),
            hop: 2,
            from: NodeId::new(6),
            reason: NackReason::ConnectionLimit,
        },
        Message::RenegotiateQos {
            task: TaskId::new(1),
            new_qos: QosSpec::with_deadline(SimDuration::from_secs(20)),
        },
    ];
    let have: BTreeSet<&str> = exemplars.iter().map(|m| m.kind()).collect();
    let missing: Vec<&str> = VOCABULARY
        .iter()
        .map(|r| r.kind)
        .filter(|k| !have.contains(k))
        .collect();
    assert!(missing.is_empty(), "no exemplar for kind(s) {missing:?}");
    exemplars
}
