//! Satellite: 8-peer loopback TCP cluster, end to end.
//!
//! Eight peers, each with its own [`TcpTransport`] on `127.0.0.1:0`, run
//! the unmodified sans-I/O protocol over real sockets: the overlay forms,
//! an RM is elected, a transcoding task is allocated, and the cluster
//! survives one killed connection (the link redials and the session keeps
//! working). Every wait is bounded by a hard deadline so a wedged cluster
//! fails the test instead of hanging CI.

mod common;

use adaptive_p2p_rm::runtime::demo::{demo_spawns, live_protocol};
use adaptive_p2p_rm::runtime::net::{NetCluster, NetPeerConfig};
use adaptive_p2p_rm::telemetry::TraceKind;
use adaptive_p2p_rm::util::{NodeId, TaskId};
use adaptive_p2p_rm::wire::TcpOptions;
use common::{count_kind, demo_task, wait_for};
use std::time::{Duration, Instant};

const PEERS: u64 = 8;
const HARD_TIMEOUT: Duration = Duration::from_secs(30);

#[test]
fn eight_peer_cluster_allocates_over_tcp_and_survives_a_killed_link() {
    let deadline = Instant::now() + HARD_TIMEOUT;
    let config = NetPeerConfig {
        protocol: live_protocol(),
        ..NetPeerConfig::default()
    };
    let cluster = NetCluster::start(demo_spawns(PEERS), &config, TcpOptions::default())
        .expect("cluster binds");

    // Overlay forms: all seven joiners accepted, exactly one RM elected.
    wait_for(deadline, "overlay formation", || {
        let t = cluster.telemetry();
        count_kind(&t, "join_accepted") >= (PEERS - 1) as usize
    });
    let t = cluster.telemetry();
    assert!(
        count_kind(&t, "rm_elected") >= 1,
        "overlay formed but no RM was elected"
    );
    let rm = t
        .traces
        .iter()
        .find_map(|ev| matches!(ev.kind, TraceKind::RmElected { .. }).then_some(ev.peer))
        .expect("rm_elected trace names the emitting RM");

    // Fault injection: kill a joiner's live connection to the RM. The
    // writer thread must redial transparently on the next load report.
    let victim = cluster
        .ids()
        .into_iter()
        .find(|&id| id != rm)
        .expect("at least one non-RM peer");
    cluster.kill_link(victim, rm);
    wait_for(deadline, "link reconnect after kill", || {
        cluster
            .transport_stats()
            .iter()
            .any(|s| s.node == victim && s.reconnects() >= 1)
    });

    // The task still allocates end to end over the healed overlay.
    let requester = NodeId::new(PEERS);
    cluster.submit(requester, demo_task(1, requester));
    wait_for(deadline, "task allocation reply", || {
        cluster
            .telemetry()
            .replies
            .iter()
            .any(|&(task, allocated, _)| task == TaskId::new(1) && allocated)
    });

    let stats = cluster.shutdown();
    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    assert_eq!(decode_errors, 0, "wire decode errors over loopback TCP");
    let total_msgs: u64 = stats.iter().map(|s| s.msgs_out()).sum();
    assert!(total_msgs > 0, "no messages crossed the transports");
}
