//! The demo overlay: the one layout `arm cluster`, `examples/live_overlay`
//! and the live-stack tests all run, so "the demo works" means the same
//! thing everywhere.

use crate::PeerSpawn;
use arm_core::ProtocolConfig;
use arm_model::{Codec, MediaFormat, MediaObject, QosSpec, Resolution, ServiceSpec, TaskSpec};
use arm_util::{NodeId, ObjectId, ServiceId, SimDuration, SimTime, TaskId};

/// Millisecond-scale protocol periods so a live overlay converges in
/// seconds (the defaults are tuned for the paper's long simulated horizons).
pub fn live_protocol() -> ProtocolConfig {
    ProtocolConfig {
        heartbeat_period: SimDuration::from_millis(100),
        heartbeat_timeout: SimDuration::from_millis(400),
        report_period: SimDuration::from_millis(100),
        gossip_period: SimDuration::from_millis(400),
        backup_period: SimDuration::from_millis(200),
        adapt_period: SimDuration::from_millis(400),
        join_timeout: SimDuration::from_millis(400),
        compose_timeout: SimDuration::from_millis(1000),
        sched_poll: SimDuration::from_millis(10),
        ..ProtocolConfig::default()
    }
}

/// A peer with spare capacity and nothing to offer.
pub fn plain_spawn(id: u64, bootstrap: Option<u64>) -> PeerSpawn {
    PeerSpawn {
        id: NodeId::new(id),
        capacity: 100.0,
        bandwidth_kbps: 10_000,
        objects: vec![],
        services: vec![],
        bootstrap: bootstrap.map(NodeId::new),
    }
}

/// `peers` spawn specs: peer 1 founds the overlay (and so starts as RM),
/// peer 2 hosts the source object plus the first transcoding stage, peer 3
/// offers the second stage — so the composed path necessarily crosses
/// nodes — and the rest are plain capacity; everyone bootstraps off peer 1.
pub fn demo_spawns(peers: u64) -> Vec<PeerSpawn> {
    let intermediate = MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256);
    (1..=peers)
        .map(|i| {
            let mut spawn = plain_spawn(i, (i > 1).then_some(1));
            if i == 2 {
                spawn.objects = vec![MediaObject::new(
                    ObjectId::new(1),
                    "demo-movie",
                    MediaFormat::paper_source(),
                    60.0,
                )];
                spawn.services = vec![ServiceSpec::transcoder(
                    ServiceId::new(1),
                    MediaFormat::paper_source(),
                    intermediate,
                    5.0,
                )];
            }
            if i == 3 {
                spawn.services = vec![ServiceSpec::transcoder(
                    ServiceId::new(2),
                    intermediate,
                    MediaFormat::paper_target(),
                    5.0,
                )];
            }
            spawn
        })
        .collect()
}

/// The demo task: fetch "demo-movie" transcoded to the paper's target
/// format for one second, deadline a few seconds out.
pub fn demo_task(id: u64, requester: NodeId) -> TaskSpec {
    TaskSpec {
        id: TaskId::new(id),
        name: "demo-movie".into(),
        requester,
        initial_format: MediaFormat::paper_source(),
        acceptable_formats: vec![MediaFormat::paper_target()],
        qos: QosSpec::with_deadline(SimDuration::from_secs(10)),
        submitted_at: SimTime::ZERO,
        session_secs: 1.0,
    }
}
