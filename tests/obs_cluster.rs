//! Tentpole: cross-node causal timelines over live TCP.
//!
//! Eight peers run as real networked nodes. A task is submitted, travels
//! requester → RM → allocation → composition → stream, and every node
//! records its part of the journey in its own in-memory flight recorder.
//! The test then plays observer: it queries each node's status endpoint
//! over the wire (the same `StatusRequest` frames `arm trace` sends),
//! merges the per-node rings into one causally ordered timeline, and
//! reconstructs the task's full submit→terminal chain — proving the trace
//! context survived every hop between processes-worth of state machines.
//!
//! The whole procedure runs twice, from two fresh clusters; the causal
//! *shape* of the reconstructed chain (phase sequence and where each
//! phase ran relative to the requester) must come out identical.

mod common;

use adaptive_p2p_rm::runtime::demo::{demo_spawns, live_protocol};
use adaptive_p2p_rm::runtime::net::{NetCluster, NetPeerConfig, PulseConfig};
use adaptive_p2p_rm::telemetry::{merge_timeline, TaskPhase, TraceEvent, TraceKind};
use adaptive_p2p_rm::util::{NodeId, TaskId};
use adaptive_p2p_rm::wire::{query_status, TcpOptions};
use common::{demo_task, wait_for};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const PEERS: u64 = 8;
/// Generous: the test runs two full cluster lifecycles and shares the
/// machine with the rest of the (parallel) test suite.
const HARD_TIMEOUT: Duration = Duration::from_secs(60);
/// Node id the observer identifies as on the wire (never a cluster peer).
const OBSERVER: NodeId = NodeId::new(u64::MAX);

/// Pulls every node's flight-recorder ring over the wire, exactly as
/// `arm trace` does: one `StatusRequest` per listen address.
fn collect_rings(addrs: &[(NodeId, String)]) -> Vec<TraceEvent> {
    addrs
        .iter()
        .flat_map(|(id, addr)| {
            let report = query_status(addr, OBSERVER, true, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("status query to {id:?} at {addr}: {e:?}"));
            assert_eq!(report.node, *id, "status answered by the wrong node");
            report.trace.expect("ring requested but not returned")
        })
        .collect()
}

/// The task's causal chain, reduced to its run-independent shape: the
/// phases in causal order, each tagged with whether it ran on the
/// requester or was recorded remotely.
#[derive(Debug, PartialEq, Eq)]
struct ChainShape {
    phases: Vec<(&'static str, bool)>,
    cross_node: bool,
}

/// Reconstructs task 1's chain from a merged timeline: finds the trace
/// that carries its Submit, checks causal integrity (every parent span
/// resolves inside the trace) and returns the canonical shape.
fn reconstruct_chain(merged: &[TraceEvent], requester: NodeId) -> ChainShape {
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in merged {
        if ev.trace_id != 0 {
            by_trace.entry(ev.trace_id).or_default().push(ev);
        }
    }
    // The attempt that went the distance: its trace holds both the root
    // submission and the stream/terminal end (a rejected attempt, if the
    // first query raced the cluster warm-up, holds only the former).
    let phase_of = |ev: &TraceEvent, wanted: &[TaskPhase]| {
        matches!(
            ev.kind,
            TraceKind::TaskPhase { task, phase }
                if task == TaskId::new(1) && wanted.contains(&phase)
        )
    };
    let chain = by_trace
        .into_values()
        .find(|events| {
            events.iter().any(|ev| phase_of(ev, &[TaskPhase::Submit]))
                && events
                    .iter()
                    .any(|ev| phase_of(ev, &[TaskPhase::Stream, TaskPhase::Terminal]))
        })
        .expect("merged timeline contains task 1's completed trace");

    // Causal integrity: every non-root event's parent is a span some
    // event in the same trace actually opened.
    let spans: BTreeSet<u64> = chain.iter().map(|ev| ev.span).collect();
    for ev in &chain {
        assert!(
            ev.parent == 0 || spans.contains(&ev.parent),
            "orphan parent {:#x} on {:?}",
            ev.parent,
            ev.kind
        );
    }

    let peers: BTreeSet<NodeId> = chain.iter().map(|ev| ev.peer).collect();
    let phases = chain
        .iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::TaskPhase { task, phase } if task == TaskId::new(1) => {
                Some((phase.name(), ev.peer == requester))
            }
            _ => None,
        })
        .collect();
    ChainShape {
        phases,
        cross_node: peers.len() >= 2,
    }
}

/// One full cluster lifecycle: form, allocate, observe, tear down.
fn run_once() -> ChainShape {
    let deadline = Instant::now() + HARD_TIMEOUT;
    let config = NetPeerConfig {
        protocol: live_protocol(),
        seed: 7,
        tracing: true,
        pulse: Some(PulseConfig::default()),
        store: None,
    };
    let cluster = NetCluster::start(demo_spawns(PEERS), &config, TcpOptions::default())
        .expect("cluster binds");
    let addrs = cluster.listen_addrs();
    assert_eq!(addrs.len(), PEERS as usize);

    // Overlay forms before we submit (an RM exists to receive the query).
    wait_for(deadline, "overlay formation", || {
        let t = cluster.telemetry();
        t.traces
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::JoinAccepted { .. }))
            .count()
            >= (PEERS - 1) as usize
    });

    // Submit, tolerating a slow or initially rejected allocation: on a
    // loaded machine the first query can race the joiners' inventory
    // advertisements, and the protocol never retries a rejected task on
    // its own. Each resubmission roots a fresh trace; the reconstruction
    // below picks the attempt that actually reached the session.
    let requester = NodeId::new(PEERS);
    let allocated = |cluster: &NetCluster| {
        cluster
            .telemetry()
            .replies
            .iter()
            .any(|&(task, ok, _)| task == TaskId::new(1) && ok)
    };
    while !allocated(&cluster) {
        cluster.submit(requester, demo_task(1, requester));
        let attempt = Instant::now() + Duration::from_secs(5);
        while !allocated(&cluster) && Instant::now() < attempt {
            assert!(
                Instant::now() < deadline,
                "timed out after {HARD_TIMEOUT:?} waiting for task allocation reply"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    // Observe over the wire until the terminal phase lands in some ring
    // (the composition ack and stream start trail the allocation reply).
    let mut merged = Vec::new();
    wait_for(deadline, "terminal phase in a flight recorder", || {
        merged = merge_timeline(collect_rings(&addrs));
        merged.iter().any(|ev| {
            matches!(
                ev.kind,
                TraceKind::TaskPhase {
                    task,
                    phase: TaskPhase::Stream | TaskPhase::Terminal,
                } if task == TaskId::new(1)
            )
        })
    });
    cluster.shutdown();

    // The merge is causally ordered (time, then peer/span tie-breaks).
    assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
    reconstruct_chain(&merged, requester)
}

#[test]
fn causal_timeline_reconstructs_identically_across_two_cluster_runs() {
    let first = run_once();

    // The chain is complete: it opens with Submit, crosses node
    // boundaries, and reaches the stream/terminal end of the lifecycle.
    assert_eq!(first.phases.first(), Some(&("submit", true)));
    assert!(
        first.phases.iter().any(|(p, _)| *p == "allocation"),
        "chain records the allocation phase: {:?}",
        first.phases
    );
    assert!(first.cross_node, "chain never left the requester");

    let second = run_once();
    assert_eq!(
        first, second,
        "causal chain shape must be reproducible across runs"
    );
}
