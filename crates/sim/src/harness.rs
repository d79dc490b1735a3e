//! The simulation driver.

use crate::report::SimReport;
use crate::scenario::ScenarioConfig;
use arm_core::{Action, Event, HandleProfiler, PeerNode, Role};
use arm_des::Simulator;
use arm_model::task::TaskOutcome;
use arm_net::churn::{ChurnEvent, ChurnKind, ChurnTrace};
use arm_net::{NetworkModel, Topology};
use arm_proto::TraceCtx;
use arm_telemetry::{
    health::pulse_metrics, FixedHistogram, HealthThresholds, Labels, Pulse, Recorder,
};
use arm_util::{DetRng, NodeId, SimTime};
use arm_workload::{generate_inventories, generate_tasks, Inventory};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-node persisted WAL byte streams captured by
/// [`Simulation::enable_store`] (the DES twin of `--state-dir`).
pub type StoreCapture = Arc<crate::sync::Lock<BTreeMap<NodeId, Vec<u8>>>>;

/// Internal DES payload.
enum SimEvent {
    Node(NodeId, Event),
    Churn(ChurnEvent),
    Sample,
}

/// A fully wired simulation, ready to [`run`](Simulation::run).
pub struct Simulation {
    cfg: ScenarioConfig,
    topo: Topology,
    net: NetworkModel,
    net_rng: DetRng,
    sim: Simulator<SimEvent>,
    nodes: BTreeMap<NodeId, PeerNode>,
    alive: BTreeSet<NodeId>,
    inventories: BTreeMap<NodeId, Inventory>,
    cluster_of: BTreeMap<NodeId, usize>,
    leaders: Vec<NodeId>,
    rejoin_counts: BTreeMap<NodeId, u64>,
    report: SimReport,
    /// Delivered (count, bytes) per message kind; becomes
    /// [`SimReport::messages`] at finalize, so the per-message path
    /// allocates no key.
    delivered: BTreeMap<&'static str, (u64, u64)>,
    recorder: Recorder,
    profiler: HandleProfiler,
    /// Retained time-series/health plane; sampled at every [`SimEvent::Sample`]
    /// tick when enabled via [`enable_pulse`](Self::enable_pulse).
    pulse: Option<Pulse>,
    /// Peer-utilization samples batched outside the registry (one
    /// observation per alive peer per sample tick); merged into the
    /// recorder once, at finalize.
    util_hist: FixedHistogram,
    /// In-memory persistence sink: every `Action::Persist` intent is
    /// WAL-encoded (same codec as `--state-dir`) into the node's byte
    /// stream. `None` = persistence disabled (intents dropped).
    stores: Option<StoreCapture>,
}

impl Simulation {
    /// Builds topology, inventories, task trace and churn from the
    /// scenario, and schedules everything into the event list.
    pub fn new(cfg: ScenarioConfig) -> Self {
        let root = DetRng::new(cfg.seed);
        let mut topo_rng = root.stream("topology");
        let topo = Topology::clustered(
            cfg.clusters,
            cfg.peers_per_cluster,
            cfg.spread,
            cfg.heterogeneity,
            &mut topo_rng,
            0,
        );
        let mut net = NetworkModel::new(cfg.latency, cfg.jitter, cfg.loss, &topo);
        if cfg.transmission_delay {
            net = net.with_transmission_delay();
        }
        let peers: Vec<NodeId> = topo.peers.iter().map(|p| p.id).collect();
        let leaders: Vec<NodeId> = (0..cfg.clusters)
            .map(|c| peers[c * cfg.peers_per_cluster])
            .collect();
        let cluster_of: BTreeMap<NodeId, usize> =
            topo.peers.iter().map(|p| (p.id, p.cluster)).collect();

        // Workload: inventories over all peers; tasks start after warmup.
        let mut wl = cfg.workload.clone();
        wl.horizon = SimTime::from_micros(
            cfg.horizon
                .as_micros()
                .saturating_sub(cfg.warmup.as_micros()),
        );
        let inventories = generate_inventories(&peers, &wl, &root.stream("inventory"));
        let tasks = generate_tasks(&peers, &inventories, &wl, &root.stream("tasks"));

        let mut sim: Simulator<SimEvent> = Simulator::with_capacity(4 * tasks.len() + 1024);

        // Start-up: each cluster leader founds its own domain at t≈0 (the
        // paper's premise that peers group into geographic domains); the
        // rest join their cluster leader, staggered.
        for &leader in &leaders {
            sim.schedule_at(
                SimTime::ZERO,
                SimEvent::Node(leader, Event::Start { bootstrap: None }),
            );
        }
        // Out-of-band RM discovery bootstrap (documented substitution):
        // leaders learn of each other via stub gossip digests, as if a
        // rendezvous service had introduced them. Real summaries replace
        // the stubs at the first gossip round.
        let mut intro_time = SimTime::from_millis(10);
        for &a in &leaders {
            for &b in &leaders {
                if a != b {
                    let stub = arm_proto::DomainSummary {
                        domain: arm_util::DomainId::new(b.raw()),
                        rm: b,
                        objects: arm_util::BloomFilter::new(64, 1),
                        services: arm_util::BloomFilter::new(64, 1),
                        mean_utilization: 0.0,
                        version: 0,
                    };
                    sim.schedule_at(
                        intro_time,
                        SimEvent::Node(
                            a,
                            Event::msg(
                                b,
                                arm_proto::Message::GossipDigest {
                                    summaries: vec![stub],
                                },
                            ),
                        ),
                    );
                }
            }
            intro_time += arm_util::SimDuration::from_millis(1);
        }
        let mut t = SimTime::from_millis(100);
        for (i, &p) in peers.iter().enumerate() {
            if leaders.contains(&p) {
                continue;
            }
            let leader = leaders[i / cfg.peers_per_cluster];
            sim.schedule_at(
                t,
                SimEvent::Node(
                    p,
                    Event::Start {
                        bootstrap: Some(leader),
                    },
                ),
            );
            t += cfg.join_stagger;
        }

        // Task arrivals, shifted past warmup.
        let mut submitted = 0;
        for arrival in tasks {
            sim.schedule_at(
                arrival.at + cfg.warmup,
                SimEvent::Node(arrival.requester, Event::SubmitTask(arrival.task)),
            );
            submitted += 1;
        }

        // Churn trace.
        if let Some(params) = cfg.churn {
            let trace = ChurnTrace::generate(&topo, params, cfg.horizon, &mut root.stream("churn"));
            for ev in trace.events() {
                // Don't churn before the overlay has formed.
                let at = if ev.at < SimTime::ZERO + cfg.warmup {
                    SimTime::ZERO + cfg.warmup
                } else {
                    ev.at
                };
                sim.schedule_at(at, SimEvent::Churn(*ev));
            }
        }

        // Metric sampling.
        let mut s = SimTime::ZERO + cfg.sample_period;
        while s < cfg.horizon {
            sim.schedule_at(s, SimEvent::Sample);
            s += cfg.sample_period;
        }

        // Build the nodes.
        let mut nodes = BTreeMap::new();
        for spec in &topo.peers {
            let inv = &inventories[&spec.id];
            nodes.insert(
                spec.id,
                PeerNode::new(
                    spec.id,
                    spec.capacity,
                    spec.bandwidth_kbps,
                    inv.objects.clone(),
                    inv.services.clone(),
                    cfg.protocol.clone(),
                    cfg.seed,
                    SimTime::ZERO,
                ),
            );
        }

        let report = SimReport {
            submitted,
            ..SimReport::default()
        };

        Self {
            net_rng: root.stream("net"),
            cfg,
            topo,
            net,
            sim,
            alive: nodes.keys().copied().collect(),
            nodes,
            inventories,
            cluster_of,
            leaders,
            rejoin_counts: BTreeMap::new(),
            report,
            delivered: BTreeMap::new(),
            recorder: Recorder::disabled(),
            profiler: HandleProfiler::disabled(),
            pulse: None,
            util_hist: FixedHistogram::new(arm_profiler::UTILIZATION_BOUNDS),
            stores: None,
        }
    }

    /// The generated topology (for inspection).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Switches on telemetry for this run: every node emits structured
    /// trace events, the harness drives task-lifecycle spans and kernel
    /// metrics, and the final report carries a metrics snapshot. The trace
    /// ring keeps the most recent `trace_capacity` events in memory.
    pub fn enable_telemetry(&mut self, trace_capacity: usize) {
        self.recorder = Recorder::enabled(trace_capacity);
        // Stride-sampled: two clock reads per dispatch would otherwise be
        // a measurable share of the tracing overhead budget (the DES
        // drains hundreds of thousands of events per wall second).
        self.profiler = HandleProfiler::sampled(32);
        for node in self.nodes.values_mut() {
            node.set_tracing(true);
        }
    }

    /// Switches on the retained time-series and health plane: every sample
    /// tick also snapshots the metrics registry into bounded per-metric
    /// series and evaluates the standard health rules over them. Implies
    /// [`enable_telemetry`](Self::enable_telemetry) (the series sampler
    /// reads the recorder's registry). The final report then carries the
    /// full retained window in [`SimReport::series`] for convergence
    /// curves.
    pub fn enable_pulse(&mut self, capacity: usize) {
        if !self.recorder.is_enabled() {
            self.enable_telemetry(1 << 14);
        }
        self.pulse = Some(Pulse::new(capacity, &HealthThresholds::default()));
    }

    /// Switches on deterministic in-memory persistence: every
    /// [`Action::Persist`] intent is framed through the real arm-store
    /// codec into a per-node byte stream (the DES twin of `--state-dir`,
    /// without touching the filesystem). Returns the capture handle —
    /// read it after [`run`](Self::run); identically seeded runs must
    /// produce bit-identical streams.
    pub fn enable_store(&mut self) -> StoreCapture {
        let capture: StoreCapture = Arc::new(crate::sync::mutex("harness.stores", BTreeMap::new()));
        self.stores = Some(Arc::clone(&capture));
        capture
    }

    /// Runs to the horizon and returns the report.
    pub fn run(self) -> SimReport {
        self.run_traced().0
    }

    /// Runs to the horizon, returning the report plus the telemetry
    /// recorder (trace ring, metrics registry). The recorder is empty
    /// unless [`enable_telemetry`](Self::enable_telemetry) was called.
    pub fn run_traced(mut self) -> (SimReport, Recorder) {
        #[allow(
            clippy::disallowed_methods,
            reason = "wall-clock is only reported as the run's elapsed_ms; nothing in the \
                      simulation reads it"
        )]
        let started = std::time::Instant::now();
        self.run_to_horizon();
        self.finalize(started)
    }

    fn run_to_horizon(&mut self) {
        let horizon = self.cfg.horizon;
        while let Some(scheduled) = self.sim.step_until(horizon) {
            let now = scheduled.time;
            match scheduled.event {
                SimEvent::Node(target, event) => self.dispatch(now, target, event),
                SimEvent::Churn(ev) => self.apply_churn(now, ev),
                SimEvent::Sample => self.sample(now),
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, target: NodeId, event: Event) {
        if !self.alive.contains(&target) {
            return;
        }
        let Some(node) = self.nodes.get_mut(&target) else {
            return;
        };
        if self.recorder.is_enabled() {
            if let Event::SubmitTask(task) = &event {
                self.recorder.task_submitted(task.id, now);
            }
        }
        let msg_kind = match &event {
            Event::Msg { msg, .. } => Some(msg.kind()),
            _ => None,
        };
        #[allow(
            clippy::disallowed_methods,
            reason = "wall-clock only feeds the handler profiler's exported histograms; nothing \
                      the simulation schedules or decides ever reads it (sampling is a \
                      deterministic counter, not time-based)"
        )]
        let handle_started = if msg_kind.is_some() && self.profiler.should_sample() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let actions = node.on_event(now, event);
        if let (Some(kind), Some(started)) = (msg_kind, handle_started) {
            self.profiler.record(kind, started.elapsed().as_secs_f64());
        }
        // All sends of one handling batch share the node's outbound trace
        // context, so causality survives the simulated network hop.
        let ctx = node.out_ctx();
        for action in actions {
            self.apply_action(now, target, action, ctx);
        }
    }

    fn apply_action(&mut self, now: SimTime, from: NodeId, action: Action, ctx: TraceCtx) {
        match action {
            Action::Send { to, msg } => {
                let kind = msg.kind();
                if kind == "task_redirect" {
                    self.report.redirects += 1;
                }
                let bytes = msg.size_bytes();
                match self.net.sample_sized(from, to, bytes, &mut self.net_rng) {
                    Some(delay) => {
                        let entry = self.delivered.entry(kind).or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += bytes as u64;
                        self.sim.schedule_at(
                            now + delay,
                            SimEvent::Node(to, Event::Msg { from, msg, ctx }),
                        );
                    }
                    None => {
                        self.report.messages_lost += 1;
                    }
                }
            }
            Action::SetTimer { kind, after } => {
                self.sim
                    .schedule_at(now + after, SimEvent::Node(from, Event::Timer(kind)));
            }
            Action::Outcome {
                task,
                outcome,
                response,
                at,
            } => {
                match outcome {
                    TaskOutcome::CompletedOnTime => self.report.outcomes.on_time += 1,
                    TaskOutcome::CompletedLate => self.report.outcomes.late += 1,
                    TaskOutcome::Rejected => self.report.outcomes.rejected += 1,
                    TaskOutcome::Failed => self.report.outcomes.failed += 1,
                }
                if let Some(r) = response {
                    if outcome.is_completed() {
                        self.report.response_time.observe(r.as_secs_f64());
                    }
                }
                if self.recorder.is_enabled() {
                    let label = match outcome {
                        TaskOutcome::CompletedOnTime => "on_time",
                        TaskOutcome::CompletedLate => "late",
                        TaskOutcome::Rejected => "rejected",
                        TaskOutcome::Failed => "failed",
                    };
                    self.recorder.task_finished(task, label, at);
                }
            }
            // Not recorded: see `finalize` on `reply_latency`.
            Action::ReplyReceived { .. } => {}
            Action::Promoted { .. } => self.report.promotions += 1,
            Action::SessionRepaired { ok, .. } => {
                if ok {
                    self.report.repairs_ok += 1;
                } else {
                    self.report.repairs_failed += 1;
                }
            }
            Action::SessionReassigned { .. } => self.report.reassignments += 1,
            Action::Trace(ev) => self.recorder.record(ev),
            Action::Persist(intent) => {
                let Some(stores) = &self.stores else { return };
                // Frame through the real codec so the captured stream is
                // exactly what a `--state-dir` WAL would hold; encoding an
                // intent cannot fail, but a failure here must only lose
                // the record, never the run.
                let Ok(json) = serde_json::to_string(&intent) else {
                    return;
                };
                let Ok(record) =
                    arm_store::codec::encode_record(arm_store::RecordKind::Intent, json.as_bytes())
                else {
                    return;
                };
                let mut streams = stores.lock();
                streams.entry(from).or_default().extend_from_slice(&record);
            }
        }
    }

    fn apply_churn(&mut self, now: SimTime, ev: ChurnEvent) {
        match ev.kind {
            ChurnKind::Crash => {
                self.alive.remove(&ev.node);
                // Its disk dies with it: a restart logs a fresh stream.
                if let Some(stores) = &self.stores {
                    stores.lock().remove(&ev.node);
                }
            }
            ChurnKind::Leave => {
                self.dispatch(now, ev.node, Event::Shutdown { graceful: true });
                self.alive.remove(&ev.node);
            }
            ChurnKind::Join => {
                if self.alive.contains(&ev.node) {
                    return;
                }
                // Fresh state machine: crashes lose state, as in reality.
                let spec = self
                    .topo
                    .get(ev.node)
                    .expect("churned node is in the topology")
                    .clone();
                let inv = &self.inventories[&ev.node];
                let rejoins = self.rejoin_counts.entry(ev.node).or_insert(0);
                *rejoins += 1;
                let mut node = PeerNode::new(
                    ev.node,
                    spec.capacity,
                    spec.bandwidth_kbps,
                    inv.objects.clone(),
                    inv.services.clone(),
                    self.cfg.protocol.clone(),
                    self.cfg.seed ^ (*rejoins << 32),
                    now,
                );
                node.set_tracing(self.recorder.is_enabled());
                self.nodes.insert(ev.node, node);
                self.alive.insert(ev.node);
                let bootstrap = self.pick_bootstrap(ev.node);
                self.sim
                    .schedule_at(now, SimEvent::Node(ev.node, Event::Start { bootstrap }));
            }
        }
    }

    /// A rejoining peer contacts its cluster leader if alive, else any
    /// alive peer of its cluster, else any alive peer.
    fn pick_bootstrap(&self, node: NodeId) -> Option<NodeId> {
        let cluster = self.cluster_of[&node];
        let leader = self.leaders[cluster];
        if leader != node && self.alive.contains(&leader) {
            return Some(leader);
        }
        self.topo
            .peers
            .iter()
            .filter(|p| p.cluster == cluster && p.id != node && self.alive.contains(&p.id))
            .map(|p| p.id)
            .next()
            .or_else(|| self.alive.iter().find(|p| **p != node).copied())
    }

    fn sample(&mut self, now: SimTime) {
        self.check_gossip_convergence(now);
        #[cfg(feature = "check-invariants")]
        self.check_invariants(now);
        if self.recorder.is_enabled() {
            self.recorder
                .set_gauge("des_queue_depth", Labels::NONE, self.sim.pending() as f64);
            self.recorder
                .set_gauge("peers_alive", Labels::NONE, self.alive.len() as f64);
            // Per-peer series are batched: utilization into a local
            // histogram here, load gauges (last-value-wins anyway) once at
            // finalize. Touching the registry per peer per tick costs a
            // map lookup each and dominates tracing overhead.
            for id in &self.alive {
                self.util_hist
                    .observe(self.nodes[id].profiler().utilization());
            }
        }
        if self.pulse.is_some() {
            self.pulse_tick(now);
        }
        let mut loads = Vec::with_capacity(self.alive.len());
        let mut utils = Vec::with_capacity(self.alive.len());
        for id in &self.alive {
            let node = &self.nodes[id];
            if matches!(node.role(), Role::Member | Role::Rm) {
                loads.push(node.load());
                utils.push(node.load() / node.profiler().capacity());
            }
        }
        if !loads.is_empty() {
            self.report
                .fairness_series
                .push((now.as_secs_f64(), arm_util::fairness_index(&loads)));
            let mu = utils.iter().sum::<f64>() / utils.len() as f64;
            self.report.utilization_series.push((now.as_secs_f64(), mu));
        }
    }

    /// One pulse tick: publishes fleet-level health gauges (worst case
    /// across alive peers, so a single stalled domain is visible), then
    /// samples every registered metric into the retained series and
    /// evaluates the health rules. Everything here derives from sim time
    /// and node state — two identically seeded runs produce bit-identical
    /// series.
    fn pulse_tick(&mut self, now: SimTime) {
        let mut has_rm = 0.0;
        let mut rm_silence = 0.0f64;
        let mut gossip_age = 0.0f64;
        for id in &self.alive {
            let node = &self.nodes[id];
            match node.role() {
                Role::Rm => {
                    has_rm = 1.0;
                    if let Some(heard) = node.last_gossip_heard() {
                        gossip_age = gossip_age.max(now.saturating_since(heard).as_secs_f64());
                    }
                }
                Role::Member => {
                    if node.rm().is_some() {
                        has_rm = 1.0;
                        rm_silence = rm_silence
                            .max(now.saturating_since(node.last_rm_heard()).as_secs_f64());
                    }
                }
                Role::Idle | Role::Joining => {}
            }
        }
        self.recorder
            .set_gauge(pulse_metrics::HAS_RM, Labels::NONE, has_rm);
        self.recorder
            .set_gauge(pulse_metrics::RM_SILENCE_SECS, Labels::NONE, rm_silence);
        self.recorder
            .set_gauge(pulse_metrics::GOSSIP_AGE_SECS, Labels::NONE, gossip_age);
        self.recorder.set_gauge(
            pulse_metrics::QUEUE_DEPTH,
            Labels::NONE,
            self.sim.pending() as f64,
        );
        if let Some(pulse) = self.pulse.as_mut() {
            pulse.tick(now, &mut self.recorder, NodeId::new(0), None);
        }
    }

    /// Records the first time every alive RM holds fresh summaries of all
    /// other alive domains.
    fn check_gossip_convergence(&mut self, now: SimTime) {
        if self.report.gossip_converged_at.is_some() {
            return;
        }
        let rms: Vec<&PeerNode> = self
            .alive
            .iter()
            .map(|id| &self.nodes[id])
            .filter(|n| n.role() == Role::Rm)
            .collect();
        if rms.len() < 2 {
            return;
        }
        let domains: Vec<arm_util::DomainId> = rms.iter().filter_map(|n| n.domain()).collect();
        let converged = rms.iter().all(|n| {
            let state = n.rm_state().expect("RM role");
            domains
                .iter()
                .filter(|d| **d != state.domain)
                .all(|d| state.summaries.get(d).is_some_and(|s| s.version >= 1))
        });
        if converged {
            self.report.gossip_converged_at = Some(now.as_secs_f64());
        }
    }

    /// Structural invariants of the live overlay, re-checked at every
    /// sample tick when the `check-invariants` feature is on. These are
    /// properties no reachable protocol state should violate; a panic here
    /// means a state-machine bug, not a bad scenario.
    #[cfg(feature = "check-invariants")]
    fn check_invariants(&self, now: SimTime) {
        use std::collections::BTreeMap as Map;
        let mut rm_of_domain: Map<arm_util::DomainId, NodeId> = Map::new();
        for id in &self.alive {
            let node = &self.nodes[id];
            // Loads are finite and non-negative for every alive peer.
            let load = node.load();
            assert!(
                load.is_finite() && load >= 0.0,
                "t={now}: peer {id} has invalid load {load}"
            );
            // Role::Rm and rm_state are set and cleared together, and an
            // RM's own domain id agrees with its state.
            let state = node.rm_state();
            assert_eq!(
                node.role() == Role::Rm,
                state.is_some(),
                "t={now}: peer {id} role/rm_state mismatch (role {:?})",
                node.role()
            );
            let Some(state) = state else { continue };
            assert_eq!(
                node.domain(),
                Some(state.domain),
                "t={now}: RM {id} domain disagrees with its rm_state"
            );
            if let Some(prev) = rm_of_domain.insert(state.domain, *id) {
                panic!(
                    "t={now}: domain {:?} claimed by two alive RMs: {prev} and {id}",
                    state.domain
                );
            }
            // Resource-graph index consistency: the format→vertex index
            // round-trips every interned state, and every edge references
            // existing states under its own id.
            let graph = &state.graph;
            for (sid, format) in graph.states() {
                assert_eq!(
                    graph.state_of(format),
                    Some(sid),
                    "t={now}: RM {id} graph index lost state {sid:?} ({format})"
                );
                assert_eq!(graph.format(sid), format);
            }
            let num_states = graph.num_states() as u32;
            for edge in graph.edges() {
                assert_eq!(
                    graph.edge(edge.id),
                    edge,
                    "t={now}: RM {id} graph edge id does not index its own slot"
                );
                assert!(
                    edge.from.0 < num_states && edge.to.0 < num_states,
                    "t={now}: RM {id} graph edge {:?} references a missing state",
                    edge.id
                );
            }
        }
    }

    fn finalize(mut self, started: std::time::Instant) -> (SimReport, Recorder) {
        // The horizon may fall between sample ticks; check the final state.
        #[cfg(feature = "check-invariants")]
        self.check_invariants(self.sim.now());
        self.report.final_peers = self.alive.len();
        self.report.final_domains = self
            .alive
            .iter()
            .filter(|id| self.nodes[id].role() == Role::Rm)
            .count();
        // Not a measurement yet: `reply_latency` mirrors `response_time`.
        // Recording submit → first `ReplyReceived` reads ~40 % higher on a
        // 16-cluster run (a redirected task's reply crosses clusters, its
        // composition does not), which moves a gated benchmark row; it
        // lands with the re-measured baseline (ROADMAP item 1).
        self.report.reply_latency = self.report.response_time.clone();
        self.report.messages = std::mem::take(&mut self.delivered)
            .into_iter()
            .map(|(kind, tally)| (kind.to_string(), tally))
            .collect();
        self.report.wall_ms = started.elapsed().as_millis() as u64;
        self.report.events_processed = self.sim.processed();
        self.report.max_queue_depth = self.sim.max_queue_depth() as u64;
        // Allocator efficiency: sum search counters over the RMs
        // still alive (counters of crashed RMs die with them, like every
        // other piece of in-node state).
        let mut alloc_totals = arm_core::AllocMetrics::default();
        for id in &self.alive {
            let Some(rm) = self.nodes[id].rm_state() else {
                continue;
            };
            let m = rm.alloc_metrics;
            alloc_totals.merge(&m);
            if self.recorder.is_enabled() {
                let labels = Labels::domain(rm.domain);
                self.recorder
                    .add("alloc_explored_prefixes", labels, m.explored_prefixes);
                self.recorder
                    .add("alloc_pruned_bound", labels, m.pruned_bound);
            }
        }
        self.report.alloc = alloc_totals;
        if self.recorder.is_enabled() {
            self.recorder
                .add("des_events_processed", Labels::NONE, self.sim.processed());
            self.recorder
                .merge_histogram("peer_utilization", Labels::NONE, &self.util_hist);
            for id in &self.alive {
                let p = self.nodes[id].profiler();
                self.recorder
                    .set_gauge("peer_load", Labels::peer(*id), p.load());
            }
            self.profiler.export_into(&mut self.recorder);
            self.report.metrics = Some(self.recorder.snapshot());
            self.report.trace_counts = self
                .recorder
                .trace
                .kind_counts()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            self.report.traces_dropped = self.recorder.trace.dropped();
        }
        if let Some(pulse) = &self.pulse {
            self.report.series = pulse.store.collect_since(0);
            self.report.health = pulse.evaluator.statuses();
        }
        (self.report, self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_net::churn::ChurnParams;
    use arm_util::SimDuration;

    fn small_scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            clusters: 2,
            peers_per_cluster: 8,
            horizon: SimTime::from_secs(60),
            warmup: SimDuration::from_secs(5),
            workload: arm_workload::WorkloadConfig {
                arrival_rate: 0.4,
                session_mean_secs: 20.0,
                ..arm_workload::WorkloadConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn overlay_forms_and_tasks_complete() {
        let report = Simulation::new(small_scenario(1)).run();
        assert!(report.submitted > 5, "submitted {}", report.submitted);
        assert!(
            report.outcomes.total() >= report.submitted * 9 / 10,
            "most tasks get terminal outcomes: {:?} of {}",
            report.outcomes,
            report.submitted
        );
        assert!(
            report.outcomes.on_time > 0,
            "some tasks complete on time: {:?}",
            report.outcomes
        );
        assert_eq!(report.final_peers, 16);
        assert_eq!(report.final_domains, 2, "one RM per cluster");
        assert!(report.message_count() > 100);
        assert!(!report.fairness_series.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulation::new(small_scenario(7)).run();
        let b = Simulation::new(small_scenario(7)).run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.message_count(), b.message_count());
        assert_eq!(a.fairness_series, b.fairness_series);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(small_scenario(1)).run();
        let b = Simulation::new(small_scenario(2)).run();
        // Different topology/workload draws — reports differ somewhere.
        assert!(
            a.message_count() != b.message_count()
                || a.outcomes != b.outcomes
                || a.fairness_series != b.fairness_series
        );
    }

    #[test]
    fn churn_triggers_failovers_and_repairs() {
        let mut cfg = small_scenario(3);
        cfg.horizon = SimTime::from_secs(120);
        cfg.churn = Some(ChurnParams {
            mean_uptime_secs: 40.0,
            mean_downtime_secs: 15.0,
            crash_fraction: 1.0,
            churning_fraction: 0.6,
        });
        let report = Simulation::new(cfg).run();
        // Crashes happened and the overlay survived.
        assert!(report.final_peers > 4);
        assert!(report.final_domains >= 1);
        // Under heavy churn at least some liveness machinery fired.
        assert!(
            report.promotions > 0 || report.repairs_ok + report.repairs_failed > 0,
            "failover machinery exercised: {report:?}"
        );
    }

    /// With `--features check-invariants` every sample tick of the churn
    /// scenario above re-runs the structural checks; this test exists so
    /// the feature build has an explicitly-named invariant workout (the
    /// assertions themselves live in `check_invariants` and panic on
    /// violation).
    #[cfg(feature = "check-invariants")]
    #[test]
    fn invariants_hold_under_churn() {
        let mut cfg = small_scenario(11);
        cfg.horizon = SimTime::from_secs(120);
        cfg.churn = Some(ChurnParams {
            mean_uptime_secs: 30.0,
            mean_downtime_secs: 10.0,
            crash_fraction: 1.0,
            churning_fraction: 0.7,
        });
        let mut sim = Simulation::new(cfg);
        // Store capture runs the persistence path (and, with lock-witness,
        // its instrumented lock) through the whole churny run.
        let capture = sim.enable_store();
        let report = sim.run();
        // The run sampled (so the checks actually fired) and survived.
        assert!(!report.fairness_series.is_empty());
        assert!(report.final_peers > 0);
        assert!(!capture.lock().is_empty(), "churn run persisted records");

        // With instrumented locks, the heavy-churn workload must leave the
        // runtime lock-order witness violation-free.
        #[cfg(feature = "lock-witness")]
        arm_util::lockwitness::assert_clean();
    }

    /// The parallel sweep under instrumented locks: many worker threads
    /// hammer the per-slot result locks; the witness must stay clean.
    #[cfg(feature = "lock-witness")]
    #[test]
    fn lock_witness_clean_under_parallel_sweep() {
        let configs: Vec<ScenarioConfig> = (1..=4).map(small_scenario).collect();
        let reports = crate::parallel::run_parallel(configs, 4);
        assert_eq!(reports.len(), 4);
        arm_util::lockwitness::assert_clean();
    }

    #[test]
    fn transmission_delay_slows_responses() {
        let mut fast = small_scenario(5);
        fast.jitter = 0.0;
        let mut slow = fast.clone();
        slow.transmission_delay = true;
        let a = Simulation::new(fast).run();
        let b = Simulation::new(slow).run();
        // Same workload; size-dependent delays can only stretch responses.
        let mut ra = a.response_time.clone();
        let mut rb = b.response_time.clone();
        assert!(rb.quantile(0.5) >= ra.quantile(0.5));
        assert!(b.outcomes.on_time > 0);
    }

    #[test]
    fn degenerate_scenarios_run() {
        // Single cluster, minimum viable peers.
        let mut tiny = small_scenario(6);
        tiny.clusters = 1;
        tiny.peers_per_cluster = 2;
        tiny.workload.num_objects = 3;
        let r = Simulation::new(tiny).run();
        assert_eq!(r.final_peers, 2);
        assert_eq!(r.final_domains, 1);
        // Zero arrivals: a quiet overlay still heartbeats.
        let mut quiet = small_scenario(7);
        quiet.workload.arrival_rate = 1e-9;
        let r = Simulation::new(quiet).run();
        assert_eq!(r.submitted, 0);
        assert!(r.message_count() > 0);
        assert_eq!(r.outcomes.total(), 0);
    }

    #[test]
    fn telemetry_records_protocol_events_and_spans() {
        let mut sim = Simulation::new(small_scenario(1));
        sim.enable_telemetry(1 << 16);
        let (report, recorder) = sim.run_traced();
        assert!(recorder.is_enabled());
        // Protocol machinery leaves a trace: the overlay formed (elections,
        // joins), gossip ran, and tasks moved through their lifecycle.
        let counts = recorder.trace.kind_counts();
        assert!(
            counts.get("rm_elected").copied().unwrap_or(0) >= 2,
            "{counts:?}"
        );
        assert!(counts.get("join_accepted").copied().unwrap_or(0) > 0);
        assert!(counts.get("gossip_round").copied().unwrap_or(0) > 0);
        assert!(counts.get("bloom_exchange").copied().unwrap_or(0) > 0);
        assert!(counts.get("task_phase").copied().unwrap_or(0) > 0);
        assert!(counts.get("sched_decision").copied().unwrap_or(0) > 0);
        // The report carries the same tallies plus a metrics snapshot.
        assert_eq!(
            report.trace_counts.get("gossip_round").copied(),
            counts.get("gossip_round").copied()
        );
        let metrics = report.metrics.as_ref().expect("telemetry was enabled");
        let phase_samples: u64 = metrics
            .histograms
            .iter()
            .filter(|h| h.key.starts_with("task_phase_seconds"))
            .map(|h| h.histogram.total())
            .sum();
        assert!(phase_samples > 0, "per-phase latency histograms populated");
        let total: u64 = metrics
            .histograms
            .iter()
            .filter(|h| h.key.starts_with("task_total_seconds"))
            .map(|h| h.histogram.total())
            .sum();
        assert!(total > 0, "completed tasks close their spans");
        // Allocator efficiency counters are exported per domain and summed
        // into the report.
        assert!(
            report.alloc.explored_prefixes > 0,
            "allocations ran: {:?}",
            report.alloc
        );
        let explored: u64 = metrics
            .counters
            .iter()
            .filter(|c| c.key.starts_with("alloc_explored_prefixes"))
            .map(|c| c.value)
            .sum();
        assert_eq!(explored, report.alloc.explored_prefixes);

        // Telemetry must not perturb the simulation itself.
        let baseline = Simulation::new(small_scenario(1)).run();
        assert_eq!(baseline.outcomes, report.outcomes);
        assert_eq!(baseline.events_processed, report.events_processed);
        assert!(baseline.metrics.is_none());
        assert!(baseline.trace_counts.is_empty());
    }

    #[test]
    fn pulse_retains_series_and_is_deterministic() {
        let run = |seed| {
            let mut sim = Simulation::new(small_scenario(seed));
            sim.enable_pulse(256);
            sim.run()
        };
        let report = run(1);
        // The retained window covers the run's sample ticks and carries
        // both the harness gauges and the pulse health gauges.
        assert!(!report.series.is_empty());
        assert!(report.series.tick_count() > 10);
        let keys: Vec<&str> = report
            .series
            .series
            .iter()
            .map(|s| s.key.as_str())
            .collect();
        assert!(
            keys.iter().any(|k| k.starts_with("peers_alive")),
            "{keys:?}"
        );
        assert!(
            keys.iter().any(|k| k.starts_with("pulse_has_rm")),
            "{keys:?}"
        );
        // A healthy overlay ends with no rule firing.
        assert!(
            report.health.iter().all(|h| !h.firing),
            "{:?}",
            report.health
        );
        // Bit-identical series across identically seeded runs: the sampler
        // only ever reads sim time and node state.
        let again = run(1);
        assert!(report.series == again.series, "series differ across runs");
        // Pulse must not perturb the simulation itself.
        let baseline = Simulation::new(small_scenario(1)).run();
        assert_eq!(baseline.outcomes, report.outcomes);
        assert_eq!(baseline.events_processed, report.events_processed);
        assert!(baseline.series.is_empty());
    }

    #[test]
    fn persistence_is_deterministic_and_replayable() {
        let run = |seed| {
            let mut sim = Simulation::new(small_scenario(seed));
            let capture = sim.enable_store();
            let report = sim.run();
            let streams = capture.lock().clone();
            (report, streams)
        };
        let (report, streams) = run(9);
        // Lifecycle intents were persisted for (at least) the leaders.
        assert!(!streams.is_empty(), "no intents persisted");
        let total: usize = streams.values().map(|b| b.len()).sum();
        assert!(total > 0);
        // Every captured stream replays cleanly through the real WAL
        // decoder: no truncation, no skipped records.
        for (node, bytes) in &streams {
            let (intents, rep) = arm_store::log::replay_intents(bytes);
            assert!(rep.truncated.is_none(), "{node}: {:?}", rep.truncated);
            assert_eq!(rep.skipped, 0, "{node} skipped records");
            assert_eq!(rep.replayed, intents.len());
            assert!(!intents.is_empty(), "{node} persisted an empty stream");
        }
        // Same seed ⇒ bit-identical persistence, and persistence must not
        // perturb the simulation itself.
        let (again, streams2) = run(9);
        assert_eq!(streams, streams2, "persisted streams differ across runs");
        assert_eq!(again.outcomes, report.outcomes);
        let baseline = Simulation::new(small_scenario(9)).run();
        assert_eq!(baseline.outcomes, report.outcomes);
        assert_eq!(baseline.events_processed, report.events_processed);
    }

    /// A live node keeps no `StateController`; what the in-line one used
    /// to hold by construction is checked from outside: replaying an RM's
    /// captured WAL through a fresh controller lands on the session table
    /// the node actually has. And a log tail — what is left after a
    /// snapshot compacted the prefix away — folds to the sessions its
    /// current life allocated and did not close, whatever else it mentions.
    #[test]
    fn wal_replay_matches_live_session_table_under_churn() {
        let mut cfg = small_scenario(11);
        cfg.horizon = SimTime::from_secs(120);
        cfg.churn = Some(ChurnParams {
            mean_uptime_secs: 30.0,
            mean_downtime_secs: 10.0,
            crash_fraction: 0.5,
            churning_fraction: 0.7,
        });
        let mut sim = Simulation::new(cfg);
        let capture = sim.enable_store();
        sim.run_to_horizon();
        let streams = capture.lock().clone();
        let (mut rms, mut sessions) = (0, 0);
        for id in &sim.alive {
            let Some(rm) = sim.nodes[id].rm_state() else {
                continue;
            };
            let (intents, _) = arm_store::log::replay_intents(&streams[id]);
            // A promoted backup inherits sessions its own WAL never saw
            // allocated; only founders are replayable from their log alone.
            if intents
                .iter()
                .any(|i| matches!(i, arm_store::Intent::RmAssumed { .. }))
            {
                continue;
            }
            let mut replayed = arm_store::StateController::new();
            replayed.replay(&intents);
            assert_eq!(replayed.node_phase(), arm_store::NodePhase::Rm, "{id}");
            let keys: BTreeSet<_> = rm.sessions.keys().copied().collect();
            assert_eq!(replayed.live_sessions(), &keys, "{id}");
            rms += 1;
            sessions += keys.len();
        }
        assert!(rms > 0 && sessions > 0, "{rms} RMs, {sessions} sessions");

        use arm_store::Intent;
        let (mut tails, mut orphaned) = (0, 0);
        for (id, bytes) in &streams {
            let (intents, _) = arm_store::log::replay_intents(bytes);
            for cut in (0..intents.len()).step_by(7) {
                let tail = &intents[cut..];
                let (mut expect, mut stopped) = (BTreeSet::new(), false);
                for i in tail {
                    match i {
                        Intent::ShutdownRequested { .. } => stopped = true,
                        // A restart begins a new life with nothing live.
                        Intent::NodeStarted { .. } if stopped => {
                            (expect, stopped) = (BTreeSet::new(), false);
                        }
                        _ if stopped => {}
                        Intent::SessionAllocated { session, .. } => {
                            expect.insert(*session);
                        }
                        Intent::SessionClosed { session } => {
                            orphaned += usize::from(!expect.remove(session));
                        }
                        _ => {}
                    }
                }
                let mut replayed = arm_store::StateController::new();
                replayed.replay(tail);
                assert_eq!(replayed.live_sessions(), &expect, "{id} from record {cut}");
                tails += 1;
            }
        }
        assert!(orphaned > 0, "{tails} tails never ended an unknown session");
    }

    /// A crash-restarted RM's stream folds to its new life, not the old.
    #[test]
    fn a_crash_restarted_rm_logs_only_its_new_life() {
        let mut sim = Simulation::new(small_scenario(1));
        let capture = sim.enable_store();
        sim.cfg.horizon = SimTime::from_secs(30);
        sim.run_to_horizon();
        let rm = sim.leaders[0];
        assert!(!sim.nodes[&rm].rm_state().expect("RM").sessions.is_empty());
        let at = sim.sim.now();
        for kind in [ChurnKind::Crash, ChurnKind::Join] {
            sim.apply_churn(at, ChurnEvent { at, node: rm, kind });
        }
        sim.cfg.horizon = SimTime::from_secs(31);
        sim.run_to_horizon();
        let (intents, _) = arm_store::log::replay_intents(&capture.lock()[&rm]);
        let mut replayed = arm_store::StateController::new();
        replayed.replay(&intents);
        assert!(replayed.live_sessions().is_empty(), "{intents:?}");
    }

    #[test]
    fn message_loss_is_tolerated() {
        let mut cfg = small_scenario(4);
        cfg.loss = 0.05;
        let report = Simulation::new(cfg).run();
        assert!(report.messages_lost > 0);
        assert!(report.outcomes.on_time > 0, "{:?}", report.outcomes);
    }
}
