//! `arm node` / `arm cluster`: the middleware as live networked processes.
//!
//! Both subcommands drive the same sans-I/O state machines as `simulate`,
//! but over real TCP sockets via `arm-wire` and the transport-backed
//! runtime in `arm_runtime::net`. `cluster` spins up N peers on loopback in
//! one process and runs the demo workload end-to-end; `node` runs a single
//! peer so a cluster can be assembled by hand across processes.

use arm_core::ProtocolConfig;
use arm_runtime::demo::{demo_spawns, demo_task, live_protocol, plain_spawn};
use arm_runtime::net::{
    BoundTcpPeer, NetClock, NetCluster, NetPeerConfig, PulseConfig, StoreConfig,
};
use arm_runtime::Telemetry;
use arm_telemetry::Recorder;
use arm_util::{NodeId, SimDuration, TaskId};
use arm_wire::{TcpOptions, Transport, TransportStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The live protocol with operator overrides applied. `--heartbeat-timeout-ms`
/// stretches the failover trigger: the CI recovery-smoke job sets it above
/// its kill window so a crashed RM is *recovered* (from its state dir)
/// rather than failed over, and `arm health` visibly reports `rm_stale`
/// in between.
fn tuned_protocol(flags: &BTreeMap<String, String>) -> Result<ProtocolConfig, String> {
    let mut protocol = live_protocol();
    let timeout = parse_u64(flags, "heartbeat-timeout-ms", 0)?;
    if timeout > 0 {
        protocol.heartbeat_timeout = SimDuration::from_millis(timeout);
    }
    Ok(protocol)
}

fn parse_u64(flags: &BTreeMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|e| format!("bad --{name}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// `--state-dir DIR [--snapshot-ms MS]` → crash-safe persistence config.
fn store_config(flags: &BTreeMap<String, String>) -> Result<Option<StoreConfig>, String> {
    let Some(dir) = flags.get("state-dir") else {
        return Ok(None);
    };
    let mut cfg = StoreConfig::new(dir);
    if let Some(ms) = flags.get("snapshot-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --snapshot-ms: {e}"))?;
        if ms == 0 {
            return Err("--snapshot-ms must be positive".into());
        }
        cfg.snapshot_period = Duration::from_millis(ms);
    }
    Ok(Some(cfg))
}

/// Set by the `SIGINT`/`SIGTERM` handler; polled by the `arm node` hold
/// loop to turn an asynchronous signal into a graceful shutdown.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)`, already linked through std. Dependency-free
    /// signal handling: the approved crate set has no `signal-hook`/`ctrlc`.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_stop_signal(_sig: i32) {
    // Only an atomic store: the one async-signal-safe thing a handler may
    // do. Everything else (snapshot flush, link teardown) happens on the
    // main thread once the hold loop observes the flag.
    STOP_REQUESTED.store(true, Ordering::SeqCst);
}

/// Routes Ctrl-C and SIGTERM into [`STOP_REQUESTED`]. After this, killing
/// the node politely gives it a clean exit (final snapshot, `Leave`
/// announcement, exit code 0); only SIGKILL still simulates a crash.
fn install_stop_handlers() {
    // SAFETY: `on_stop_signal` is async-signal-safe (a single atomic
    // store) and has the exact type signal(2) expects.
    unsafe {
        signal(SIGINT, on_stop_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_stop_signal as extern "C" fn(i32) as usize);
    }
}

/// Prints the same per-kind trace table as `simulate`.
fn print_trace_summary(telemetry: &Telemetry) {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in &telemetry.traces {
        *counts.entry(ev.kind.name()).or_default() += 1;
    }
    if counts.is_empty() {
        println!("no trace events recorded");
        return;
    }
    println!("trace events ({} kinds):", counts.len());
    for (kind, count) in &counts {
        println!("  {kind:<20} {count}");
    }
}

fn print_transport_summary(stats: &[TransportStats]) {
    let msgs_out: u64 = stats.iter().map(|s| s.msgs_out()).sum();
    let bytes_out: u64 = stats.iter().map(|s| s.bytes_out()).sum();
    let reconnects: u64 = stats.iter().map(|s| s.reconnects()).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped()).sum();
    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    let links: usize = stats.iter().map(|s| s.links.len()).sum();
    println!(
        "wire                 {msgs_out} msgs ({:.1} kB) over {links} links, \
         {reconnects} reconnects, {dropped} dropped, {decode_errors} decode errors",
        bytes_out as f64 / 1e3,
    );
}

/// Records transport counters into an `arm-telemetry` registry and writes
/// the snapshot to `path`.
fn write_metrics(stats: &[TransportStats], path: &str) -> Result<(), String> {
    let mut rec = Recorder::enabled(1 << 12);
    for s in stats {
        s.record_into(&mut rec);
    }
    let json = serde_json::to_string_pretty(&rec.snapshot()).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wire metrics written to {path}");
    Ok(())
}

/// `arm cluster --peers N`: N live peers over loopback TCP in one process.
pub fn cluster(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let peers = parse_u64(flags, "peers", 8)?;
    if peers < 2 {
        return Err("--peers must be at least 2".into());
    }
    let seed = parse_u64(flags, "seed", 7)?;
    let config = NetPeerConfig {
        protocol: tuned_protocol(flags)?,
        seed,
        tracing: true,
        // Sample fast enough that `arm watch` shows movement during the
        // short demo hold window.
        pulse: Some(PulseConfig {
            period: Duration::from_millis(250),
            ..PulseConfig::default()
        }),
        store: store_config(flags)?,
    };
    println!("starting {peers} live peers on loopback TCP (seed {seed})...");
    let cluster = NetCluster::start(demo_spawns(peers), &config, TcpOptions::default())
        .map_err(|e| format!("starting cluster: {e}"))?;

    // Publish the listen addresses (for `arm top` / `arm trace` observers
    // and the CI smoke job) before the overlay warms up.
    let addrs = cluster.listen_addrs();
    if let Some(path) = flags.get("addr-file") {
        let lines: String = addrs
            .iter()
            .map(|(id, addr)| format!("{} {addr}\n", id.raw()))
            .collect();
        std::fs::write(path, lines).map_err(|e| format!("writing {path}: {e}"))?;
        println!("listen addresses written to {path}");
    }

    // Let the overlay form (joins, heartbeats, first load reports).
    std::thread::sleep(Duration::from_millis(800));
    let requester = NodeId::new(peers);
    println!("overlay warm; submitting demo task at peer {requester}...");
    cluster.submit(requester, demo_task(1, requester));

    let deadline = Instant::now() + Duration::from_secs(20);
    let allocated = loop {
        let t = cluster.telemetry();
        if let Some((_, ok, _)) = t.replies.iter().find(|(id, ..)| *id == TaskId::new(1)) {
            break *ok;
        }
        if Instant::now() >= deadline {
            cluster.shutdown();
            return Err("demo task saw no reply within 20s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    // Give the session a moment to start streaming before tearing down.
    std::thread::sleep(Duration::from_millis(300));

    // Hold the cluster alive serving status queries so observers (`arm
    // top`, `arm trace`, the CI obs-smoke job) can interrogate it.
    let hold = parse_u64(flags, "hold-secs", 0)?;
    if hold > 0 {
        println!("holding cluster for {hold}s (status port open for arm top/trace)...");
        std::thread::sleep(Duration::from_secs(hold));
    }

    let telemetry = cluster.telemetry();
    let virtual_secs = cluster.clock().now().as_secs_f64();
    let stats = cluster.shutdown();

    println!();
    println!(
        "task allocated       {}",
        if allocated { "yes" } else { "no (rejected)" }
    );
    println!("messages             {}", telemetry.messages);
    println!("ran for              {virtual_secs:.1}s");
    print_transport_summary(&stats);
    println!();
    print_trace_summary(&telemetry);
    if let Some(path) = flags.get("metrics") {
        write_metrics(&stats, path)?;
    }

    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    if decode_errors > 0 {
        return Err(format!("{decode_errors} frames failed to decode"));
    }
    if !allocated {
        return Err("demo task was not allocated".into());
    }
    Ok(())
}

/// `arm node --listen ADDR [--bootstrap ADDR]`: one live peer, joined to an
/// existing overlay if a bootstrap address is given.
pub fn node(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let listen = flags
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let id = parse_u64(flags, "id", 1)?;
    let secs = parse_u64(flags, "secs", 10)?;
    let seed = parse_u64(flags, "seed", 7)?;
    let me = NodeId::new(id);

    let clock = NetClock::new();
    let telemetry = arm_runtime::shared_telemetry();
    let bound = BoundTcpPeer::bind(me, &listen, &clock, TcpOptions::default())
        .map_err(|e| e.to_string())?;
    println!("peer {me} listening on {}", bound.listen_addr());

    let bootstrap = flags.get("bootstrap").map(String::as_str);
    match bootstrap {
        Some(addr) => println!("joining the overlay through {addr}"),
        None => println!("no --bootstrap: founding a new overlay"),
    }
    let store = store_config(flags)?;
    if let Some(cfg) = &store {
        let dir = cfg.node_dir(me);
        if dir.join(arm_store::SNAPSHOT_FILE).exists() || dir.join(arm_store::LOG_FILE).exists() {
            println!("state dir {} has prior state; recovering", dir.display());
        } else {
            println!("persisting state under {}", dir.display());
        }
    }
    let config = NetPeerConfig {
        protocol: tuned_protocol(flags)?,
        seed,
        tracing: true,
        pulse: Some(PulseConfig::default()),
        store,
    };
    // Serving the introspection plane lets `arm top/trace/watch/health`
    // interrogate hand-assembled multi-process clusters too. The address
    // book only knows this node (and its bootstrap); observers merge the
    // books they collect.
    let (peer, transport) = bound
        .start(
            plain_spawn(id, None),
            bootstrap,
            &[],
            &config,
            Arc::clone(&telemetry),
        )
        .map_err(|e| e.to_string())?;

    install_stop_handlers();
    println!("running for {secs}s (Ctrl-C / SIGTERM stops gracefully)...");
    let deadline = Instant::now() + Duration::from_secs(secs);
    let stopped_by_signal = loop {
        if STOP_REQUESTED.load(Ordering::SeqCst) {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    if stopped_by_signal {
        println!("stop signal received; flushing state and leaving gracefully...");
    }
    // Graceful stop: the peer announces its departure and — with a state
    // dir — compacts everything into one final *clean* snapshot before the
    // thread joins; the transport then closes every link. Reaching exit
    // code 0 therefore certifies a clean stop; a crash (SIGKILL, panic,
    // power loss) can't get here and leaves a dirty state dir behind.
    peer.stop(true);
    let stats = vec![transport.stats()];
    transport.shutdown();

    let telemetry = telemetry.lock().clone();
    println!();
    println!("messages             {}", telemetry.messages);
    print_transport_summary(&stats);
    println!();
    print_trace_summary(&telemetry);
    if let Some(path) = flags.get("metrics") {
        write_metrics(&stats, path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_demo_completes_over_tcp() {
        let mut flags = BTreeMap::new();
        flags.insert("peers".to_string(), "4".to_string());
        cluster(&flags).unwrap();
    }

    #[test]
    fn single_node_founds_overlay() {
        let mut flags = BTreeMap::new();
        flags.insert("listen".to_string(), "127.0.0.1:0".to_string());
        flags.insert("secs".to_string(), "1".to_string());
        node(&flags).unwrap();
    }

    #[test]
    fn cluster_rejects_single_peer() {
        let mut flags = BTreeMap::new();
        flags.insert("peers".to_string(), "1".to_string());
        assert!(cluster(&flags).is_err());
    }
}
