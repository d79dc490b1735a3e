//! Crash-safety smoke benchmark: write-ahead append, snapshot install
//! and cold recovery for `arm-store`.
//!
//! Runs a pinned lifecycle workload against a real state directory and
//! records into `BENCH_store.json`:
//!
//! * **WAL append** — wall time per appended intent plus the encoded
//!   bytes per intent (deterministic: framing is versioned and the
//!   workload is pinned).
//! * **Snapshot install** — wall time to commit-and-compact a snapshot
//!   carrying a 64-peer RM information base with in-flight sessions,
//!   plus its on-disk size (deterministic), and the load-back time.
//! * **Cold recovery** — wall time for `Store::open` (snapshot load +
//!   WAL replay + truncation scan) and for rebuilding a
//!   [`StateController`] from the recovered state, with the recovered
//!   controller asserted equal to the pre-crash reference.
//!
//! ```text
//! store_smoke [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline`, the run exits non-zero if either deterministic
//! size — WAL bytes per intent or snapshot bytes — grew more than 10%
//! over the committed `BENCH_store.json`: format bloat shows up here
//! long before it shows up as CI timing noise. Losing a record, skipping
//! a record, or recovering to a different controller state fails
//! unconditionally.

use arm_bench::Smoke;
use arm_model::{EdgeId, MediaFormat, PeerInfo, PeerView, ServiceCost, ServiceGraph, ServiceHop};
use arm_proto::{RmCandidacy, RmSnapshot};
use arm_store::{
    load_snapshot, Intent, NodePhase, SessionPhase, StateController, Store, StoreSnapshot,
    LOG_FILE, SNAPSHOT_FILE, SNAPSHOT_FORMAT,
};
use arm_util::{DomainId, NodeId, ServiceId, SessionId, TaskId};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Lifecycle sessions driven through the WAL (2–3 intents each).
const SESSIONS: u64 = 4_000;
/// Peers in the snapshotted RM information base.
const SNAP_PEERS: u64 = 64;
/// In-flight sessions carried by the snapshot.
const SNAP_SESSIONS: u64 = 96;
/// Intents appended after the snapshot (the cold-recovery replay tail).
const TAIL_SESSIONS: u64 = 400;
/// Maximum tolerated growth of either deterministic size vs baseline.
const REGRESSION_SLACK: f64 = 1.10;

#[derive(Serialize)]
struct WalRow {
    intents: u64,
    /// On-disk log size after the full append run.
    bytes: u64,
    /// bytes / intents — deterministic, baseline-gated.
    bytes_per_intent: f64,
    append_ns_total: u64,
    append_ns_per_intent: u64,
}

#[derive(Serialize)]
struct SnapshotRow {
    peers: u64,
    sessions: u64,
    /// On-disk snapshot size — deterministic, baseline-gated.
    bytes: u64,
    /// Full `install_snapshot` commit (sync + atomic rename + log reset).
    install_ns: u64,
    /// `load_snapshot` read-back.
    load_ns: u64,
    roundtrip_identical: bool,
}

#[derive(Serialize)]
struct RecoveryRow {
    tail_intents: u64,
    /// `Store::open`: snapshot load + WAL replay + truncation scan.
    open_ns: u64,
    /// Controller restore + tail replay to a settled state.
    rebuild_ns: u64,
    replayed: u64,
    skipped: u64,
    truncated: bool,
    /// The recovered controller equals the pre-crash reference.
    controller_identical: bool,
}

#[derive(Serialize)]
struct Report {
    regression_slack: f64,
    wal: WalRow,
    snapshot: SnapshotRow,
    recovery: RecoveryRow,
}

/// The pinned append workload: a founder prelude, then `sessions` full
/// lifecycles round-robin across four concurrent slots — the interleaving
/// an RM under load actually writes.
fn lifecycle_script(sessions: u64) -> Vec<Intent> {
    let mut script = vec![
        Intent::NodeStarted { bootstrap: None },
        Intent::DomainFounded {
            domain: DomainId::new(1),
        },
    ];
    let mut slots: Vec<Vec<Intent>> = Vec::new();
    for s in 1..=sessions {
        let session = SessionId::new(s);
        let task = TaskId::new(s);
        let mut chain = vec![Intent::SessionAllocated { session, task }];
        if s % 5 == 0 {
            // A member joined or advertised while the session ran.
            chain.push(Intent::EpochAdvanced { version: s });
        }
        chain.push(Intent::SessionClosed { session });
        slots.push(chain);
        // Drain four slots round-robin once the window is full.
        if slots.len() == 4 {
            let mut cursor = 0;
            while slots.iter().any(|c| !c.is_empty()) {
                if !slots[cursor].is_empty() {
                    script.push(slots[cursor].remove(0));
                }
                cursor = (cursor + 1) % slots.len();
            }
            slots.clear();
        }
    }
    for chain in slots {
        script.extend(chain);
    }
    script
}

/// A 64-peer information base with live 2-hop sessions — the shape a
/// mid-size domain RM snapshots every few seconds.
fn pinned_snapshot() -> StoreSnapshot {
    let me = NodeId::new(1);
    let mut view = PeerView::new();
    for p in 1..=SNAP_PEERS {
        view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
    }
    let mut graph = arm_model::ResourceGraph::new();
    let src = MediaFormat::paper_source();
    let mid = MediaFormat::new(arm_model::Codec::Mpeg2, arm_model::Resolution::VGA, 256);
    let dst = MediaFormat::paper_target();
    let cost = ServiceCost {
        work_per_sec: 5.0,
        setup_work: 1.0,
        bandwidth_kbps: 256,
    };
    for p in 1..=SNAP_PEERS {
        let (input, output) = if p % 2 == 0 { (src, mid) } else { (mid, dst) };
        graph.add_service(input, output, NodeId::new(p), ServiceId::new(p), cost);
    }
    let sessions: Vec<(SessionId, ServiceGraph)> = (1..=SNAP_SESSIONS)
        .map(|s| {
            let first = NodeId::new(2 + (s * 2) % (SNAP_PEERS - 2));
            let second = NodeId::new(1 + (s * 2 + 1) % (SNAP_PEERS - 1));
            (
                SessionId::new((me.raw() << 24) | s),
                ServiceGraph {
                    task: TaskId::new(s),
                    source: first,
                    receiver: NodeId::new(1 + s % SNAP_PEERS),
                    hops: vec![
                        ServiceHop {
                            edge: EdgeId((s % SNAP_PEERS) as u32),
                            peer: first,
                            service: ServiceId::new(1),
                            input: src,
                            output: mid,
                            cost,
                        },
                        ServiceHop {
                            edge: EdgeId(((s + 1) % SNAP_PEERS) as u32),
                            peer: second,
                            service: ServiceId::new(2),
                            input: mid,
                            output: dst,
                            cost,
                        },
                    ],
                },
            )
        })
        .collect();
    let session_tags: Vec<(SessionId, u8)> = sessions
        .iter()
        .map(|(id, _)| (*id, SessionPhase::Streaming.tag()))
        .collect();
    let candidates: Vec<RmCandidacy> = (1..=8)
        .map(|p| RmCandidacy {
            node: NodeId::new(p),
            capacity: 100.0,
            bandwidth_kbps: 10_000,
            uptime_secs: 60.0 * p as f64,
        })
        .collect();
    StoreSnapshot {
        format: SNAPSHOT_FORMAT,
        node: me,
        phase: NodePhase::Rm.tag(),
        domain: Some(DomainId::new(1)),
        rm: Some(me),
        rm_state: Some(RmSnapshot {
            domain: DomainId::new(1),
            rm: me,
            view,
            resource_graph: graph,
            sessions,
            candidates,
            version: 41,
        }),
        sessions: session_tags,
        pulse_cursor: 0,
        wal_seq: 0,
        clean: false,
        written_at_us: 0,
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn bench_wal(dir: &Path) -> WalRow {
    let mut store = Store::fresh(dir).expect("fresh store");
    let script = lifecycle_script(SESSIONS);
    let intents = script.len() as u64;
    let started = Instant::now();
    for intent in &script {
        store.append(intent).expect("append");
    }
    let append_ns_total = started.elapsed().as_nanos() as u64;
    drop(store);
    let bytes = file_len(&dir.join(LOG_FILE));
    // Replay must hand back exactly what was appended.
    let (_, rec) = Store::open(dir).expect("reopen");
    assert_eq!(rec.intents, script, "WAL replay differs from the append");
    WalRow {
        intents,
        bytes,
        bytes_per_intent: bytes as f64 / intents as f64,
        append_ns_total,
        append_ns_per_intent: append_ns_total / intents.max(1),
    }
}

fn bench_snapshot(dir: &Path) -> SnapshotRow {
    let mut store = Store::fresh(dir).expect("fresh store");
    let reference = pinned_snapshot();
    // Median-of-5 installs: each is a full sync + rename commit.
    let mut installs = Vec::new();
    for _ in 0..5 {
        let mut snap = reference.clone();
        let started = Instant::now();
        store.install_snapshot(&mut snap).expect("install");
        installs.push(started.elapsed().as_nanos() as u64);
    }
    installs.sort_unstable();
    let bytes = file_len(&dir.join(SNAPSHOT_FILE));
    let started = Instant::now();
    let (loaded, note) = load_snapshot(dir);
    let load_ns = started.elapsed().as_nanos() as u64;
    assert!(note.is_none(), "snapshot load note: {note:?}");
    let loaded = loaded.expect("snapshot loads");
    // `install_snapshot` stamps wal_seq/written_at_us; compare the body.
    let mut expect = reference.clone();
    expect.wal_seq = loaded.wal_seq;
    expect.written_at_us = loaded.written_at_us;
    SnapshotRow {
        peers: SNAP_PEERS,
        sessions: SNAP_SESSIONS,
        bytes,
        install_ns: installs[installs.len() / 2],
        load_ns,
        roundtrip_identical: loaded == expect,
    }
}

fn bench_recovery(dir: &Path) -> RecoveryRow {
    // Stage a crash: snapshot committed, then a tail of intents appended,
    // then the process "dies" (drop without a final snapshot).
    let mut store = Store::fresh(dir).expect("fresh store");
    let mut snap = pinned_snapshot();
    store.install_snapshot(&mut snap).expect("install");
    let mut reference = StateController::restore(
        NodePhase::Rm,
        snap.rm,
        snap.live_sessions(),
        snap.rm_state.as_ref().map(|s| s.version).unwrap_or(0),
    );
    let tail = lifecycle_script(TAIL_SESSIONS);
    // The tail re-founds; skip the prelude so it extends the snapshot.
    let tail: Vec<Intent> = tail.into_iter().skip(2).collect();
    for intent in &tail {
        store.append(intent).expect("append");
    }
    reference.replay(&tail);
    drop(store);

    let started = Instant::now();
    let (_, rec) = Store::open(dir).expect("cold open");
    let open_ns = started.elapsed().as_nanos() as u64;
    let snap = rec.snapshot.expect("snapshot survives the crash");
    let started = Instant::now();
    let mut recovered = StateController::restore(
        snap.node_phase(),
        snap.rm,
        snap.live_sessions(),
        snap.rm_state.as_ref().map(|s| s.version).unwrap_or(0),
    );
    recovered.replay(&rec.intents);
    let rebuild_ns = started.elapsed().as_nanos() as u64;
    RecoveryRow {
        tail_intents: tail.len() as u64,
        open_ns,
        rebuild_ns,
        replayed: rec.report.replayed as u64,
        skipped: rec.report.skipped as u64,
        truncated: rec.report.truncated.is_some(),
        controller_identical: recovered == reference,
    }
}

fn main() {
    let smoke = Smoke::from_args("BENCH_store.json", true);

    let dir = std::env::temp_dir().join(format!("arm-store-smoke-{}", std::process::id()));

    let wal = bench_wal(&dir);
    println!(
        "     wal: {} intents  {} B ({:.1} B/intent)  {} ns/append",
        wal.intents, wal.bytes, wal.bytes_per_intent, wal.append_ns_per_intent
    );
    let snapshot = bench_snapshot(&dir);
    println!(
        "snapshot: {} peers x {} sessions  {} B  install {} µs  load {} µs  roundtrip={}",
        snapshot.peers,
        snapshot.sessions,
        snapshot.bytes,
        snapshot.install_ns / 1_000,
        snapshot.load_ns / 1_000,
        snapshot.roundtrip_identical
    );
    let recovery = bench_recovery(&dir);
    println!(
        "recovery: {} tail intents  open {} µs  rebuild {} µs  replayed={} skipped={} identical={}",
        recovery.tail_intents,
        recovery.open_ns / 1_000,
        recovery.rebuild_ns / 1_000,
        recovery.replayed,
        recovery.skipped,
        recovery.controller_identical
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut failures = Vec::new();
    if !snapshot.roundtrip_identical {
        failures.push("snapshot roundtrip changed the state".to_string());
    }
    if recovery.skipped != 0 || recovery.truncated {
        failures.push(format!(
            "cold recovery was lossy: {} skipped, truncated={}",
            recovery.skipped, recovery.truncated
        ));
    }
    if recovery.replayed != recovery.tail_intents {
        failures.push(format!(
            "replayed {} of {} appended tail intents",
            recovery.replayed, recovery.tail_intents
        ));
    }
    if !recovery.controller_identical {
        failures.push("recovered controller diverged from the live reference".to_string());
    }

    let report = Report {
        regression_slack: REGRESSION_SLACK,
        wal,
        snapshot,
        recovery,
    };

    if let Some(value) = smoke.baseline() {
        let base_wal = value
            .field("wal")
            .field("bytes_per_intent")
            .as_f64()
            .expect("baseline has wal.bytes_per_intent");
        let base_snap = value
            .field("snapshot")
            .field("bytes")
            .as_u64()
            .expect("baseline has snapshot.bytes");
        let wal_limit = base_wal * REGRESSION_SLACK;
        if report.wal.bytes_per_intent > wal_limit {
            failures.push(format!(
                "WAL bytes/intent {:.1} regressed >10% vs baseline {:.1}",
                report.wal.bytes_per_intent, base_wal
            ));
        }
        let snap_limit = base_snap as f64 * REGRESSION_SLACK;
        if report.snapshot.bytes as f64 > snap_limit {
            failures.push(format!(
                "snapshot bytes {} regressed >10% vs baseline {}",
                report.snapshot.bytes, base_snap
            ));
        }
        if report.wal.bytes_per_intent <= wal_limit && (report.snapshot.bytes as f64) <= snap_limit
        {
            println!(
                "baseline: wal {:.1} B/intent (limit {:.1}), snapshot {} B (limit {:.0}) OK",
                report.wal.bytes_per_intent, wal_limit, report.snapshot.bytes, snap_limit
            );
        }
    }

    smoke.finish(&report, &failures);
}
