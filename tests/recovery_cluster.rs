//! Tentpole acceptance: kill-and-recover under churn, over real sockets.
//!
//! A 6-peer loopback cluster runs with `--state-dir`-style persistence
//! (a [`StoreConfig`] per peer). The elected RM is SIGKILL-style crashed
//! with [`NetCluster::stop_peer`] — no graceful shutdown, no final
//! snapshot — while a bystander peer churns away permanently. The RM is
//! then restarted against the *same* state directory: recovery loads the
//! periodic snapshot, replays the write-ahead log, re-announces with its
//! persisted epoch, and reconciles with whatever the survivors did in
//! the meantime (an interim backup promotion yields to the higher
//! epoch, or the recovered RM rejoins as a member if it lost the race).
//! Either way the overlay must end coherent: a task submitted after the
//! recovery allocates end to end.

mod common;

use adaptive_p2p_rm::runtime::demo::{demo_spawns, live_protocol};
use adaptive_p2p_rm::runtime::net::{NetCluster, NetPeerConfig, StoreConfig};
use adaptive_p2p_rm::runtime::Telemetry;
use adaptive_p2p_rm::store;
use adaptive_p2p_rm::telemetry::TraceKind;
use adaptive_p2p_rm::util::{NodeId, TaskId};
use adaptive_p2p_rm::wire::TcpOptions;
use common::{count_kind, demo_task, wait_for};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const PEERS: u64 = 6;
const HARD_TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn crashed_rm_recovers_from_its_state_dir_under_churn() {
    let deadline = Instant::now() + HARD_TIMEOUT;
    let state_root: PathBuf =
        std::env::temp_dir().join(format!("arm-recovery-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);

    // Frequent snapshots so the crash happens with real durable state.
    let mut store_cfg = StoreConfig::new(&state_root);
    store_cfg.snapshot_period = Duration::from_millis(200);
    let config = NetPeerConfig {
        protocol: live_protocol(),
        store: Some(store_cfg),
        ..NetPeerConfig::default()
    };

    let mut cluster = NetCluster::start(demo_spawns(PEERS), &config, TcpOptions::default())
        .expect("cluster binds");

    // Overlay forms and elects an RM.
    wait_for(deadline, "overlay formation", || {
        let t = cluster.telemetry();
        count_kind(&t, "join_accepted") >= (PEERS - 1) as usize
    });
    let t = cluster.telemetry();
    let rm = t
        .traces
        .iter()
        .find_map(|ev| matches!(ev.kind, TraceKind::RmElected { .. }).then_some(ev.peer))
        .expect("rm_elected trace names the RM");

    // A task allocates, so the RM has sessions worth persisting.
    cluster.submit(NodeId::new(PEERS), demo_task(1, NodeId::new(PEERS)));
    wait_for(deadline, "first task allocation", || {
        cluster
            .telemetry()
            .replies
            .iter()
            .any(|&(task, allocated, _)| task == TaskId::new(1) && allocated)
    });

    // Wait until the RM's periodic snapshot (or at least its WAL) is on
    // disk — that is what recovery will boot from.
    let rm_dir = state_root.join(format!("node-{}", rm.raw()));
    wait_for(
        deadline,
        "a durable snapshot under the RM's state dir",
        || rm_dir.join(store::SNAPSHOT_FILE).exists(),
    );

    // Crash the RM — stop_peer is abrupt: no graceful shutdown event, no
    // final flush, exactly like SIGKILL. The state dir stays dirty.
    let promotions_before = cluster.telemetry().promotions.len();
    assert!(cluster.stop_peer(rm), "RM was in the cluster");
    let (snap, note) = store::snapshot::load_snapshot(&rm_dir);
    let snap = snap.expect("crashed RM left a readable snapshot");
    assert!(note.is_none(), "snapshot corrupt: {note:?}");
    assert!(
        !snap.clean,
        "periodic snapshots must not claim a clean shutdown"
    );

    // Churn: a bystander leaves for good while the RM is down.
    let bystander = NodeId::new(4);
    if bystander != rm {
        assert!(cluster.stop_peer(bystander), "bystander was in the cluster");
    }

    // Give the survivors time to notice the dead RM (heartbeat timeouts,
    // possibly an interim backup promotion — both are fine).
    std::thread::sleep(Duration::from_millis(600));

    // Restart the crashed RM against the same state dir. Its bootstrap
    // points at a survivor in case recovery decides to rejoin instead of
    // resuming the RM role (it lost an epoch race).
    let mut respawn = demo_spawns(PEERS)
        .into_iter()
        .find(|s| s.id == rm)
        .expect("spawn spec for the RM");
    respawn.bootstrap = Some(if rm == NodeId::new(2) {
        NodeId::new(3)
    } else {
        NodeId::new(2)
    });
    cluster
        .restart_peer(respawn, &config, TcpOptions::default())
        .expect("restarted peer binds");

    // Recovery signal: someone re-assumed RM duties after the crash —
    // the recovered RM itself (snapshot resume re-announces and records
    // a promotion) or an interim backup it then yields to.
    wait_for(deadline, "post-crash RM promotion", || {
        cluster.telemetry().promotions.len() > promotions_before
    });

    // The healed overlay still serves: a fresh task allocates end to end
    // with the recovered peer back in the mesh. A rejection is retried —
    // right after the promotion the members' re-advertisements may still
    // be in flight, and a real requester resubmits (§4.5).
    cluster.submit(NodeId::new(5), demo_task(2, NodeId::new(5)));
    let mut submissions = 1usize;
    let allocated = |t: &Telemetry| {
        t.replies
            .iter()
            .any(|&(task, allocated, _)| task == TaskId::new(2) && allocated)
    };
    while !allocated(&cluster.telemetry()) {
        let rejections = cluster
            .telemetry()
            .replies
            .iter()
            .filter(|&&(task, allocated, _)| task == TaskId::new(2) && !allocated)
            .count();
        if rejections >= submissions {
            cluster.submit(NodeId::new(5), demo_task(2, NodeId::new(5)));
            submissions += 1;
        }
        if Instant::now() >= deadline {
            let t = cluster.telemetry();
            let tail: Vec<String> = t
                .traces
                .iter()
                .rev()
                .take(40)
                .map(|ev| format!("{:?} {}", ev.peer, ev.kind.name()))
                .collect();
            panic!(
                "timed out waiting for post-recovery allocation; \
                 promotions={:?} replies={:?} trace tail={:#?}",
                t.promotions, t.replies, tail
            );
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // Drive a status query over the wire: answering it runs the
    // reader-thread status path, where the provider takes the peer's status
    // lock and the transport's link lock one after the other. Debug builds
    // assert on every acquisition that no other lock is held — a nesting
    // across a callback, which the static analysis cannot connect.
    let addrs = cluster.listen_addrs();
    let (_, addr) = addrs
        .iter()
        .find(|(id, _)| *id == NodeId::new(5))
        .expect("peer 5 never churned");
    adaptive_p2p_rm::wire::query_status(addr, NodeId::new(999), true, Duration::from_secs(5))
        .expect("status query answers");

    let stats = cluster.shutdown();
    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    assert_eq!(decode_errors, 0, "wire decode errors over loopback TCP");
    let _ = std::fs::remove_dir_all(&state_root);
}
