//! Shared fixtures for the Criterion benches and the layer smoke bins.
//!
//! The benches cover every hot path of the middleware: the Fig. 3
//! allocator (E3), the fairness index (§4.2), the local scheduler (E8/§2),
//! Bloom summaries (§3.1), the DES kernel, resource-graph maintenance
//! (§3.4/§4.1), gossip digest construction (§4.4/E12) and whole
//! simulations per allocator (E4's inner loop).

#![warn(missing_docs)]

use arm_model::{
    Codec, MediaFormat, PeerInfo, PeerView, QosSpec, Resolution, ResourceGraph, ServiceCost,
    StateId,
};
use arm_sim::SimReport;
use arm_util::{DetRng, NodeId, ServiceId, SimDuration};

/// Maximum tolerated on-over-off wall-time ratio minus one for an
/// observability plane (`obs_smoke`: tracing, `health_smoke`: pulse).
pub const MAX_OVERHEAD: f64 = 0.05;
/// Back-to-back (off, on) measurement pairs per pass; the median of the
/// per-pair ratios is the overhead estimate.
const ROUNDS: usize = 9;

/// A paired on/off wall-time measurement of one workload.
pub struct Overhead<T> {
    /// Best wall time with the plane off.
    pub off_ns: u64,
    /// Best wall time with the plane on.
    pub on_ns: u64,
    /// Median over per-pair `on/off - 1` ratios.
    pub overhead: f64,
    /// Measurement passes taken (1, or 2 after a noise retry).
    pub passes: u32,
    /// Output of the last off run.
    pub off: T,
    /// Outputs of every on run of the reported pass, in run order.
    pub on: Vec<T>,
}

/// Estimates what switching a plane on costs `run(on) -> (wall ns, output)`.
///
/// Overhead is the median of per-pair wall-time ratios over [`ROUNDS`]
/// back-to-back (off, on) pairs with alternating order — adjacent pairing
/// cancels slow machine-speed drift that poisons cross-run minima, the
/// median discards scheduler hiccups, and alternation cancels the
/// allocator/page-cache advantage the second run of a pair inherits
/// (~0.7% observed on identical binaries). A pass above [`MAX_OVERHEAD`]
/// is re-measured once: the estimate is robust to hiccups within a pass,
/// not to sustained background load across it, and a genuine regression
/// fails the retry too.
pub fn measure_overhead<T>(mut run: impl FnMut(bool) -> (u64, T)) -> Overhead<T> {
    let mut pass = || {
        let mut off_ns = u64::MAX;
        let mut on_ns = u64::MAX;
        let mut off = None;
        let mut on = Vec::with_capacity(ROUNDS);
        let mut ratios = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let order = if round % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            let mut pair = [0u64; 2];
            for enabled in order {
                let (wall, output) = run(enabled);
                pair[usize::from(enabled)] = wall;
                if enabled {
                    on_ns = on_ns.min(wall);
                    on.push(output);
                } else {
                    off_ns = off_ns.min(wall);
                    off = Some(output);
                }
            }
            ratios.push(pair[1] as f64 / pair[0].max(1) as f64);
        }
        ratios.sort_by(f64::total_cmp);
        Overhead {
            off_ns,
            on_ns,
            overhead: ratios[ratios.len() / 2] - 1.0,
            passes: 1,
            off: off.expect("at least one round ran"),
            on,
        }
    };
    let first = pass();
    if first.overhead <= MAX_OVERHEAD {
        return first;
    }
    Overhead {
        passes: 2,
        ..pass()
    }
}

/// The perturbation gate: an observability plane must be purely
/// observational — both runs process the same DES events, deliver the
/// same messages and reach identical task outcomes.
pub fn same_outcome(a: &SimReport, b: &SimReport) -> bool {
    a.events_processed == b.events_processed
        && a.outcomes == b.outcomes
        && a.submitted == b.submitted
        && a.message_count() == b.message_count()
        && a.messages_lost == b.messages_lost
}

/// The command line and epilogue the layer smoke bins share: `--out PATH`
/// for the JSON report and, for a bin that gates against a committed
/// file, `--baseline PATH`.
pub struct Smoke {
    out: String,
    baseline: Option<String>,
}

impl Smoke {
    /// Parses the process arguments. Exits 2 on an unknown one — which
    /// `--baseline` is unless the bin `gates_baseline`.
    pub fn from_args(default_out: &str, gates_baseline: bool) -> Self {
        let mut smoke = Smoke {
            out: default_out.to_string(),
            baseline: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--out" => smoke.out = args.next().expect("--out needs a path"),
                "--baseline" if gates_baseline => {
                    smoke.baseline = Some(args.next().expect("--baseline needs a path"));
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        smoke
    }

    /// The committed report named by `--baseline`, parsed, if one was given.
    pub fn baseline(&self) -> Option<serde_json::Value> {
        let path = self.baseline.as_ref()?;
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Some(serde_json::parse(&text).expect("baseline parses as JSON"))
    }

    /// Writes `report` to `--out`, then prints `failures` and exits 1 if
    /// there are any.
    pub fn finish(&self, report: &impl serde::Serialize, failures: &[String]) {
        let json = serde_json::to_string_pretty(report).expect("report serialises");
        std::fs::write(&self.out, json + "\n").expect("write report");
        println!("wrote {}", self.out);
        if !failures.is_empty() {
            for f in failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// A mid-size layered allocation problem: ~26 states, 16 peers.
pub fn medium_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, view, init, goal) =
        arm_experiments::e03_alloc_scaling::layered_graph(7, 5, 4, 16, 0.7);
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (gr, view, init, goal, qos)
}

/// A large layered allocation problem for stress benches.
pub fn large_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, view, init, goal) =
        arm_experiments::e03_alloc_scaling::layered_graph(11, 7, 5, 32, 0.6);
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (gr, view, init, goal, qos)
}

/// A domain-scale allocation problem for the branch-and-bound / path-cache
/// benches: a fully-connected 6-layer conversion graph whose interior
/// width is `branching`, with every logical conversion offered by two
/// different peers (parallel service edges — the regime where duplicate
/// prefixes arise), over a `peers`-sized domain with uneven load.
///
/// Deterministic in `seed`; interior width `branching` keeps the state
/// count ≤ `4 * branching + 2`, so the u128 visited bitmap is always
/// active.
pub fn domain_problem(
    peers: usize,
    branching: usize,
    seed: u64,
) -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    const LAYERS: usize = 6;
    const COPIES: u64 = 2;
    let mut rng = DetRng::new(seed);
    let mut gr = ResourceGraph::new();
    let mut fmt_id = 0u32;
    let mut fresh = |gr: &mut ResourceGraph| {
        fmt_id += 1;
        gr.intern_state(MediaFormat::new(
            Codec::ALL[fmt_id as usize % Codec::ALL.len()],
            Resolution::new(100 + fmt_id as u16, 100),
            fmt_id,
        ))
    };
    let mut layer_states: Vec<Vec<StateId>> = Vec::new();
    for li in 0..LAYERS {
        let w = if li == 0 || li == LAYERS - 1 {
            1
        } else {
            branching
        };
        layer_states.push((0..w).map(|_| fresh(&mut gr)).collect());
    }
    let mut svc = 0u64;
    for li in 0..LAYERS - 1 {
        for &a in &layer_states[li] {
            for &b in &layer_states[li + 1] {
                for _ in 0..COPIES {
                    svc += 1;
                    gr.add_edge(
                        a,
                        b,
                        NodeId::new(rng.below(peers as u64)),
                        ServiceId::new(svc),
                        ServiceCost {
                            work_per_sec: rng.uniform(1.0, 6.0),
                            setup_work: rng.uniform(0.2, 1.0),
                            bandwidth_kbps: 64,
                        },
                    );
                }
            }
        }
    }
    let mut view = PeerView::new();
    for p in 0..peers as u64 {
        let mut info = PeerInfo::idle(100.0, 1_000_000);
        info.load = rng.uniform(0.0, 30.0);
        view.upsert(NodeId::new(p), info);
    }
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (
        gr,
        view,
        layer_states[0][0],
        layer_states[LAYERS - 1][0],
        qos,
    )
}

/// The cold-start allocation problem of a fresh homogeneous domain: `peers`
/// idle peers of one capacity and bandwidth, each offering
/// `transcoders_per_peer` steps of the default five-rung format ladder
/// (drawn as `arm_bench`'s `mem32_alloc` catalog draws them), asked to take
/// a stream from the top rung to the bottom one. Every load ties, so every
/// candidate ties on Jain's index and only the symmetry rule prunes.
pub fn idle_homogeneous_problem(
    peers: usize,
    transcoders_per_peer: usize,
) -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let ids: Vec<NodeId> = (1..=peers as u64).map(NodeId::new).collect();
    let cfg = arm_workload::WorkloadConfig {
        transcoders_per_peer,
        work_scale: 0.05,
        ..arm_workload::WorkloadConfig::default()
    };
    let inventories =
        arm_workload::generate_inventories(&ids, &cfg, &DetRng::new(2005).stream("inventory"));
    let mut gr = ResourceGraph::new();
    let mut view = PeerView::new();
    for (&id, inv) in &inventories {
        view.upsert(id, PeerInfo::idle(1000.0, 1_000_000));
        for s in &inv.services {
            gr.add_service(s.input, s.output, id, s.id, s.cost);
        }
    }
    let rung = |f: Option<&MediaFormat>| {
        f.and_then(|f| gr.state_of(*f))
            .expect("every rung of the ladder is some transcoder's endpoint")
    };
    let (init, goal) = (rung(cfg.formats.first()), rung(cfg.formats.last()));
    let qos = QosSpec::with_deadline(SimDuration::from_secs(8));
    (gr, view, init, goal, qos)
}

/// A domain as `sim_des` boots one: `peers` idle peers with `arm_net`'s
/// default log-normal capacities and bandwidths (σ 0.5 around 100 work
/// units/s and 10,000 kbps), each offering three of the seven steps of the
/// default five-rung format ladder at the default work scale — the
/// topology and inventory generators the simulator itself runs, seeded by
/// `seed`. Returns the rungs some transcoder touches, top first.
pub fn sim_domain(peers: usize, seed: u64) -> (ResourceGraph, PeerView, Vec<StateId>) {
    let rng = DetRng::new(seed);
    let topology = arm_net::Topology::uniform(
        peers,
        1.0,
        arm_net::Heterogeneity::default(),
        &mut rng.stream("topology"),
        1,
    );
    let ids: Vec<NodeId> = topology.peers.iter().map(|p| p.id).collect();
    let cfg = arm_workload::WorkloadConfig::default();
    let inventories = arm_workload::generate_inventories(&ids, &cfg, &rng.stream("inventory"));
    let mut gr = ResourceGraph::new();
    let mut view = PeerView::new();
    for spec in &topology.peers {
        view.upsert(spec.id, PeerInfo::idle(spec.capacity, spec.bandwidth_kbps));
        for s in inventories
            .get(&spec.id)
            .into_iter()
            .flat_map(|i| &i.services)
        {
            gr.add_service(s.input, s.output, spec.id, s.id, s.cost);
        }
    }
    let rungs = cfg.formats.iter().filter_map(|f| gr.state_of(*f)).collect();
    (gr, view, rungs)
}

/// The cold start of [`sim_domain`]: 32 idle peers of unequal capacity
/// asked to take a stream from the top rung of the ladder to the bottom
/// one. Every load ties while no capacity does.
pub fn idle_heterogeneous_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, view, rungs) = sim_domain(32, 2005);
    let (Some(&init), Some(&goal)) = (rungs.first(), rungs.last()) else {
        panic!("32 peers cover the ladder");
    };
    let qos = QosSpec::with_deadline(SimDuration::from_secs(8));
    (gr, view, init, goal, qos)
}

/// A loaded domain as `sim_des` runs one mid-way: [`sim_domain`]'s 32
/// peers and three ladder steps each, every peer carrying 4–32 times the
/// lightest transcoder's work. About 19 distinct loads among 32 (Jain index
/// about 0.88), so the bound prunes and ties still leave the symmetry rule
/// work. The request runs from the top rung to the bottom one.
pub fn loaded_heterogeneous_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, mut view, rungs) = sim_domain(32, 2005);
    let quantum = gr
        .edges()
        .map(|e| e.cost.work_per_sec)
        .fold(f64::INFINITY, f64::min);
    let mut rng = DetRng::new(2005).stream("loads");
    let ids: Vec<NodeId> = view.ids().collect();
    for id in ids {
        if let Some(info) = view.get_mut(id) {
            info.load = quantum * (4 + rng.index(29)) as f64;
        }
    }
    let (Some(&init), Some(&goal)) = (rungs.first(), rungs.last()) else {
        panic!("32 peers cover the ladder");
    };
    let qos = QosSpec::with_deadline(SimDuration::from_secs(8));
    (gr, view, init, goal, qos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_model::alloc::{AllocParams, AllocatorKind, ExplorationMode, FairnessAllocator};

    /// The loaded case's shape: loads below capacity, about 19 distinct
    /// among 32, Jain's index about 0.88.
    #[test]
    fn loaded_domain_has_the_mid_run_shape() {
        let (_, view, ..) = loaded_heterogeneous_problem();
        let loads = view.loads();
        let mut distinct = loads.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        let jain = arm_util::fairness_index(&loads);
        println!("{} distinct loads, Jain {jain:.3}", distinct.len());
        assert!(view.iter().all(|(_, i)| i.load < i.capacity));
        assert!(
            (16..=22).contains(&distinct.len()),
            "{} distinct",
            distinct.len()
        );
        assert!((0.85..0.91).contains(&jain), "Jain {jain}");
    }

    /// The domain `mem32_alloc` boots: while every load ties the bound
    /// prunes nothing, and without the symmetry rule the first allocation
    /// walks the whole 87,125-prefix tree.
    #[test]
    fn idle_32_peer_cold_start_searches_interchangeable_peers_once() {
        let (gr, view, init, goal, qos) = idle_homogeneous_problem(32, 4);
        let run = |mode| {
            let params = AllocParams {
                mode,
                ..AllocParams::default()
            };
            FairnessAllocator {
                params,
                kind: AllocatorKind::MaxFairness,
            }
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .expect("the ladder is connected")
        };
        let full = run(ExplorationMode::AllSimplePaths);
        let bnb = run(ExplorationMode::BranchAndBound);
        assert!(!full.truncated);
        assert_eq!(
            (&bnb.path, bnb.fairness.to_bits(), bnb.est_response),
            (&full.path, full.fairness.to_bits(), full.est_response)
        );
        assert_eq!(bnb.load_deltas, full.load_deltas);
        assert!(
            bnb.stats.explored_prefixes <= 5_000,
            "explored {}",
            bnb.stats.explored_prefixes
        );
        assert!(bnb.stats.pruned_dominated > 0);
    }
}
