//! Workspace-level integration: the live peer loop through the facade
//! crate, on real threads over the in-memory hub (synchronous delivery, no
//! ports). Every wait is on a condition read through the peers' status
//! plane, bounded by a hard deadline.

mod common;

use adaptive_p2p_rm::core::ProtocolConfig;
use adaptive_p2p_rm::model::TaskSpec;
use adaptive_p2p_rm::runtime::demo::{demo_spawns, live_protocol};
use adaptive_p2p_rm::runtime::net::{NetClock, NetMailbox, NetPeer, NetPeerConfig};
use adaptive_p2p_rm::runtime::{shared_telemetry, PeerSpawn, SharedTelemetry};
use adaptive_p2p_rm::util::{NodeId, TaskId};
use adaptive_p2p_rm::wire::{MemHub, StatusReport, StatusRequest, Transport};
use common::{demo_task, wait_for};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HARD_TIMEOUT: Duration = Duration::from_secs(20);

/// Peers on one in-memory hub, sharing a clock and a telemetry sink.
struct Overlay {
    telemetry: SharedTelemetry,
    peers: Vec<NetPeer>,
}

impl Overlay {
    fn start(spawns: Vec<PeerSpawn>, protocol: ProtocolConfig) -> Self {
        let config = NetPeerConfig {
            protocol,
            ..NetPeerConfig::default()
        };
        let clock = NetClock::new();
        let telemetry = shared_telemetry();
        let hub = MemHub::new();
        let peers = spawns
            .into_iter()
            .map(|spawn| {
                let mailbox = NetMailbox::new(clock.clone());
                let transport = Arc::new(hub.register(spawn.id, mailbox.sink()));
                NetPeer::start(
                    mailbox,
                    spawn,
                    transport as Arc<dyn Transport>,
                    &config,
                    Arc::clone(&telemetry),
                )
            })
            .collect();
        Self { telemetry, peers }
    }

    /// The node's status report, as its status endpoint would serve it.
    fn report(&self, node: NodeId) -> StatusReport {
        let request = StatusRequest {
            observer: NodeId::new(u64::MAX),
            include_trace: false,
            series_cursor: None,
        };
        self.peer(node)
            .status()
            .report(&request, Default::default(), Vec::new())
    }

    fn peer(&self, node: NodeId) -> &NetPeer {
        self.peers.iter().find(|p| p.id() == node).expect("peer")
    }

    /// How many messages of `kind` the node has handled.
    fn handled(&self, node: NodeId, kind: &str) -> u64 {
        self.report(node)
            .metrics
            .histogram(&format!("handle_seconds{{kind=\"{kind}\"}}"))
            .map_or(0, |h| h.total())
    }

    /// Stops one peer: a crash, or a graceful leave announced first.
    fn stop(&mut self, node: NodeId, graceful: bool) {
        let idx = self.peers.iter().position(|p| p.id() == node);
        self.peers.remove(idx.expect("peer")).stop(graceful);
    }
}

#[test]
fn live_overlay_completes_a_transcode() {
    let deadline = Instant::now() + HARD_TIMEOUT;
    let overlay = Overlay::start(demo_spawns(3), live_protocol());
    let rm = NodeId::new(1);
    // Both joiners' inventories have reached the RM.
    wait_for(deadline, "inventory advertisements", || {
        overlay.handled(rm, "advertise") >= 2
    });

    let requester = NodeId::new(3);
    overlay.peer(requester).submit(TaskSpec {
        session_secs: 0.5,
        ..demo_task(7, requester)
    });
    wait_for(deadline, "the transcode to complete", || {
        let t = overlay.telemetry.lock();
        t.outcomes
            .iter()
            .any(|(id, o, _)| *id == TaskId::new(7) && o.is_completed())
    });
}

#[test]
fn live_failover_promotes_backup() {
    let deadline = Instant::now() + HARD_TIMEOUT;
    // Uptime requirement must be tiny for a fast test.
    let mut protocol = live_protocol();
    protocol.rm_requirements.min_uptime_secs = 0.05;
    let mut overlay = Overlay::start(demo_spawns(4), protocol);
    let rm = NodeId::new(1);
    // The RM has designated a backup and shipped it a snapshot, so
    // failover has somewhere to go.
    wait_for(deadline, "a backup snapshot to ship", || {
        (2..=4).any(|i| overlay.handled(NodeId::new(i), "backup_update") >= 1)
    });
    overlay.stop(rm, false);
    wait_for(deadline, "a backup promotion", || {
        !overlay.telemetry.lock().promotions.is_empty()
    });
}

#[test]
fn live_graceful_leave_is_announced() {
    let deadline = Instant::now() + HARD_TIMEOUT;
    let mut overlay = Overlay::start(demo_spawns(3), live_protocol());
    let rm = NodeId::new(1);
    wait_for(deadline, "overlay formation", || {
        overlay.report(rm).domain_size == Some(3)
    });
    overlay.stop(NodeId::new(3), true);
    // The RM handled the departure announcement itself — heartbeats alone
    // cannot satisfy this — and dropped the member.
    wait_for(deadline, "the RM to handle the leave", || {
        overlay.handled(rm, "leave") >= 1 && overlay.report(rm).domain_size == Some(2)
    });
}
