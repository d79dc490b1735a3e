//! A live overlay on real OS threads: eight peers form a domain over the
//! in-memory transport, a user requests a transcode, the RM composes the
//! stream, and a crash of the Resource Manager is healed by backup
//! failover — all in real time. (`arm cluster` runs the same peers over
//! loopback TCP.)
//!
//! Run with: `cargo run --release --example live_overlay`

use adaptive_p2p_rm::runtime::demo::{demo_spawns, demo_task, live_protocol};
use adaptive_p2p_rm::runtime::net::{NetClock, NetMailbox, NetPeer, NetPeerConfig};
use adaptive_p2p_rm::runtime::shared_telemetry;
use adaptive_p2p_rm::util::NodeId;
use adaptive_p2p_rm::wire::{MemHub, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Millisecond-scale protocol periods so the demo runs in seconds, and
    // members qualify as backup RM almost at once.
    let mut protocol = live_protocol();
    protocol.rm_requirements.min_uptime_secs = 0.1;
    let config = NetPeerConfig {
        protocol,
        seed: 42,
        ..NetPeerConfig::default()
    };

    println!("spawning 8 peers on real threads...");
    let clock = NetClock::new();
    let telemetry = shared_telemetry();
    let hub = MemHub::new();
    let mut peers: Vec<NetPeer> = demo_spawns(8)
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
    std::thread::sleep(Duration::from_millis(600));

    println!("submitting a transcode request at peer n8...");
    peers[7].submit(demo_task(1, NodeId::new(8)));
    std::thread::sleep(Duration::from_millis(800));
    {
        let t = telemetry.lock();
        for (task, allocated, at) in &t.replies {
            println!("  reply for {task}: allocated={allocated} at t={at}");
        }
        for (task, outcome, at) in &t.outcomes {
            println!("  outcome for {task}: {outcome:?} at t={at}");
        }
    }

    println!("crashing the Resource Manager (peer n1)...");
    peers.remove(0).stop(false);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some((node, domain, at)) = telemetry.lock().promotions.first() {
            println!("  {node} promoted to RM of {domain} at t={at} — overlay healed");
            break;
        }
        if Instant::now() > deadline {
            println!("  (no promotion observed within 5s)");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    println!(
        "done: {} protocol messages exchanged on real threads",
        telemetry.lock().messages
    );
    for peer in peers {
        peer.stop(false);
    }
}
