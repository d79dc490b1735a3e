//! Inputs of the live workloads, made from the seed with `arm-workload`:
//! the peers with their inventories and the task stream. The program under
//! test receives only these; it never sees the seed or the workload name.

use crate::spec::{self, LiveSpec, Load};
use arm_model::{MediaFormat, TaskSpec};
use arm_runtime::PeerSpawn;
use arm_util::{DetRng, NodeId, SimTime};
use arm_workload::{generate_inventories, generate_tasks, Inventory};
use std::collections::{BTreeMap, BTreeSet};

/// The founding peer. It becomes the domain's Resource Manager and is kept
/// out of the requester set, so every task crosses the wire to reach it.
pub const FOUNDER: NodeId = NodeId::new(1);

/// One task of the stream.
#[derive(Debug, Clone)]
pub struct StreamTask {
    /// When the task falls due, in microseconds from the start of load.
    /// The open loop sends on this schedule; the closed loop ignores it.
    pub due_us: u64,
    pub requester: NodeId,
    pub task: TaskSpec,
}

/// Everything a live workload feeds the cluster.
#[derive(Debug, Clone)]
pub struct LiveInputs {
    pub spawns: Vec<PeerSpawn>,
    pub inventories: BTreeMap<NodeId, Inventory>,
    pub stream: Vec<StreamTask>,
    /// The request set-up probes a cluster with: part of the catalog, so
    /// `setup_s` does not depend on what the seed happens to ask first, and
    /// with a session of a millisecond, so probes sent while the overlay is
    /// still forming do not load the peers they land on.
    pub probe: TaskSpec,
}

/// Seed of the catalog: which peer stores which object and offers which
/// transcoders. It is part of the workload's definition, not of the run:
/// the random transcoder draw shapes the domain's resource graph, and with
/// it the cost of every Fig. 3 search (throughput on `mem32_alloc` ranged
/// 1 680-2 520 tasks/s across catalogs). `--seed` varies what is asked of
/// the cluster — objects, targets, deadlines, session lengths, arrival
/// times — not the cluster itself, so runs with different seeds measure the
/// same system.
const CATALOG_SEED: u64 = 2005;

/// Builds the inputs for `load_secs` seconds of load (warm-up, windows and
/// slack included).
pub fn live_inputs(spec: &LiveSpec, seed: u64, load_secs: f64) -> LiveInputs {
    let peers: Vec<NodeId> = (1..=spec.peers as u64).map(NodeId::new).collect();
    let users: Vec<NodeId> = peers.iter().copied().filter(|p| *p != FOUNDER).collect();
    // A closed loop consumes tasks as fast as the cluster completes them:
    // provide for twice the rate it ran at when sized. A cluster that
    // outruns that fails the pass (`stream_exhausted`) rather than starve.
    let rate = match spec.load {
        Load::Open { rate_per_s } => rate_per_s,
        Load::Closed { .. } => 2.0 * spec.nominal_rate_per_s,
    };
    let wanted = (rate * load_secs).ceil() as usize;
    let cfg = arm_workload::WorkloadConfig {
        // Head-room for the Poisson count and for requests the filter below
        // drops (none, with the catalogs `CATALOG_SEED` draws).
        arrival_rate: rate * 1.1,
        horizon: SimTime::from_secs_f64(load_secs),
        ..spec::bench_catalog(spec.transcoders_per_peer)
    };
    let inventories =
        generate_inventories(&peers, &cfg, &DetRng::new(CATALOG_SEED).stream("inventory"));
    let reachable = reachable_formats(&inventories);
    let servable = |t: &TaskSpec| {
        t.acceptable_formats
            .iter()
            .any(|f| reachable.contains(&(t.initial_format, *f)))
    };
    let probe_cfg = arm_workload::WorkloadConfig {
        arrival_rate: 100.0,
        horizon: SimTime::from_secs(1),
        ..cfg.clone()
    };
    let probe_rng = DetRng::new(CATALOG_SEED).stream("probe");
    let mut probe = generate_tasks(&users, &inventories, &probe_cfg, &probe_rng)
        .into_iter()
        .map(|a| a.task)
        .find(|t| servable(t))
        .expect("the catalog serves at least one request");
    probe.session_secs = 0.001;
    let root = DetRng::new(seed);
    let mut due_rng = root.stream("due");
    let mut due_secs = 0.0;
    let stream: Vec<StreamTask> = generate_tasks(&users, &inventories, &cfg, &root.stream("tasks"))
        .into_iter()
        // The random transcoder draw can leave a rung unreachable from a
        // stored format. Such a request is refused by design, not served
        // slowly; the benchmark offers only requests the catalog can serve.
        .filter(|a| servable(&a.task))
        .take(wanted)
        // Due times are drawn here, after the filter, so the offered rate
        // is the nominal one whatever share of requests was dropped.
        .map(|a| {
            due_secs += due_rng.exponential(1.0 / rate);
            StreamTask {
                due_us: (due_secs * 1e6) as u64,
                requester: a.requester,
                task: a.task,
            }
        })
        .collect();
    let spawns = peers
        .iter()
        .map(|&id| PeerSpawn {
            id,
            capacity: spec::PEER_CAPACITY,
            bandwidth_kbps: spec::PEER_BANDWIDTH_KBPS,
            objects: inventories[&id].objects.clone(),
            services: inventories[&id].services.clone(),
            bootstrap: (id != FOUNDER).then_some(FOUNDER),
        })
        .collect();
    LiveInputs {
        spawns,
        inventories,
        stream,
        probe,
    }
}

/// All `(from, to)` format pairs some chain of offered transcoders connects.
fn reachable_formats(
    inventories: &BTreeMap<NodeId, Inventory>,
) -> BTreeSet<(MediaFormat, MediaFormat)> {
    let steps: BTreeSet<(MediaFormat, MediaFormat)> = inventories
        .values()
        .flat_map(|i| i.services.iter().map(|s| (s.input, s.output)))
        .collect();
    let mut closure = steps.clone();
    // Extend every known chain by one step until nothing new appears; the
    // ladder has five rungs, so this settles in a few rounds.
    loop {
        let longer: Vec<_> = closure
            .iter()
            .flat_map(|&(a, b)| {
                steps
                    .iter()
                    .filter(move |s| s.0 == b)
                    .map(move |s| (a, s.1))
            })
            .filter(|pair| !closure.contains(pair))
            .collect();
        if longer.is_empty() {
            return closure;
        }
        closure.extend(longer);
    }
}
