//! The live peer loop: the sans-I/O `PeerNode` state machine driven by an
//! [`arm_wire::Transport`].
//!
//! One thread per peer, a min-heap of due timers, wall-clock virtual time:
//!
//! * `Action::Send` goes through [`Transport::send`] (frames over TCP, or
//!   the synchronous in-memory hub);
//! * inbound frames arrive on transport reader threads and are forwarded
//!   into the peer's mailbox by the sink from [`NetMailbox::sink`].
//!
//! [`BoundTcpPeer`] is the one way to put a TCP peer on the air (bind,
//! seed routes, dial the bootstrap, start, serve status). [`NetCluster`]
//! is the convenience harness behind `arm cluster`: one such peer per
//! spawn spec on loopback, every routing book pre-seeded (a stand-in for
//! out-of-band discovery), all against a shared clock and telemetry sink.

use crate::{handle_actions, Delivery, PeerSpawn, Telemetry, TimerEntry};
use arm_core::{Action, Event, HandleProfiler, PeerNode, ProtocolConfig, Role};
use arm_model::TaskSpec;
use arm_store::{Intent, Store, StoreSnapshot};
use arm_telemetry::{
    health::pulse_metrics, HealthThresholds, Labels, Pulse, Recorder, SeriesStore,
};
use arm_util::{DomainId, Lock, NodeId, SimTime};
use arm_wire::{
    InboundSink, StatusReport, StatusRequest, TcpOptions, TcpTransport, Transport, TransportError,
    TransportStats,
};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trace-ring capacity of each live peer's flight recorder: big enough to
/// hold a whole task timeline plus ambient chatter, small enough to bound
/// memory on long-lived nodes (overflow bumps `traces_dropped`).
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Shared wall-clock virtual time source (`SimTime` = time elapsed since
/// the clock was created).
#[derive(Debug, Clone)]
pub struct NetClock {
    epoch: Instant,
}

impl NetClock {
    /// Starts the clock now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Virtual time elapsed since the clock started.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

impl Default for NetClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A peer's inbound mailbox, created *before* its transport so the
/// transport's sink can forward into it.
pub struct NetMailbox {
    clock: NetClock,
    tx: Sender<Delivery>,
    rx: Receiver<Delivery>,
}

impl NetMailbox {
    /// Creates an empty mailbox on the given clock.
    pub fn new(clock: NetClock) -> Self {
        let (tx, rx) = unbounded();
        Self { clock, tx, rx }
    }

    /// An [`InboundSink`] for transport construction: stamps each inbound
    /// protocol message with the current virtual time and enqueues it.
    pub fn sink(&self) -> InboundSink {
        let tx = self.tx.clone();
        let clock = self.clock.clone();
        Box::new(move |from, msg, ctx| {
            let _ = tx.send(Delivery::At(clock.now(), Event::Msg { from, msg, ctx }));
        })
    }
}

/// Continuously-updated introspection state of one live peer, shared
/// between its event loop (writer) and the transport's status provider
/// (reader, on transport reader threads).
///
/// This is the server side of the `StatusRequest`/`StatusReport` plane:
/// the peer loop refreshes the summary after every handled event batch and
/// feeds its flight recorder; [`NodeStatus::report`] freezes it all into
/// one [`StatusReport`] for `arm top` / `arm trace`.
pub struct NodeStatus {
    node: NodeId,
    inner: Lock<StatusInner>,
}

struct StatusInner {
    role: Role,
    domain: Option<DomainId>,
    rm: Option<NodeId>,
    domain_size: Option<u64>,
    sessions: Option<u64>,
    load: f64,
    active_hops: u64,
    recorder: Recorder,
    profiler: HandleProfiler,
    /// The arm-pulse plane, when sampling is configured (`None` = pulse
    /// disabled; scrapes then answer with empty series, like an old node).
    pulse: Option<Pulse>,
}

impl NodeStatus {
    fn new(node: NodeId, tracing: bool, pulse: Option<&PulseConfig>) -> Self {
        Self {
            node,
            inner: Lock::new(StatusInner {
                role: Role::Idle,
                domain: None,
                rm: None,
                domain_size: None,
                sessions: None,
                load: 0.0,
                active_hops: 0,
                // Pulse sampling reads the recorder's registry, so a
                // configured pulse keeps the recorder on even without
                // protocol tracing (the ring then only sees health edges).
                recorder: if tracing || pulse.is_some() {
                    Recorder::enabled(TRACE_RING_CAPACITY)
                } else {
                    Recorder::disabled()
                },
                profiler: if tracing {
                    HandleProfiler::enabled()
                } else {
                    HandleProfiler::disabled()
                },
                pulse: pulse.map(|cfg| Pulse::new(cfg.capacity, &cfg.thresholds)),
            }),
        }
    }

    /// Folds one handled event into the status plane under a single lock
    /// acquisition: the handler's wall-clock latency by message kind
    /// (`handled`), the batch's trace events into the flight recorder, and
    /// the summary fields refreshed from the peer state machine.
    fn observe(&self, node: &PeerNode, handled: Option<(&'static str, f64)>, actions: &[Action]) {
        let mut inner = self.inner.lock();
        if let Some((kind, secs)) = handled {
            inner.profiler.record(kind, secs);
        }
        if inner.recorder.is_enabled() {
            for action in actions {
                if let Action::Trace(ev) = action {
                    inner.recorder.record(ev.clone());
                }
            }
        }
        inner.role = node.role();
        inner.domain = node.domain();
        inner.rm = node.rm();
        inner.load = node.load();
        inner.active_hops = node.active_hops() as u64;
        let (size, sessions) = match node.rm_state() {
            Some(rm) => (
                Some(rm.members.len() as u64),
                Some(rm.sessions.len() as u64),
            ),
            None => (None, None),
        };
        inner.domain_size = size;
        inner.sessions = sessions;
    }

    /// One arm-pulse sampling tick (no-op when pulse is not configured):
    /// publishes the pulse gauges from the live peer state, sweeps the
    /// whole registry into the retained series, and re-evaluates the
    /// health rules — edges land in the flight recorder as `health` trace
    /// events plus the `health_alerts_total` / `health_firing` metrics.
    fn pulse_tick(&self, now: SimTime, node: &PeerNode, queue_depth: usize, reconnects: u64) {
        let mut inner = self.inner.lock();
        // Take the pulse out so the evaluator can borrow the recorder
        // mutably alongside it (both live behind the same lock).
        let Some(mut pulse) = inner.pulse.take() else {
            return;
        };
        let r = &mut inner.recorder;
        r.set_gauge(
            pulse_metrics::HAS_RM,
            Labels::NONE,
            if node.rm().is_some() { 1.0 } else { 0.0 },
        );
        // Only a member has an RM to fall silent: the RM is never stale to
        // itself, and a node without an RM is the election-stalled rule's
        // business, not this gauge's.
        let silence = node
            .last_rm_heard()
            .map_or(0.0, |heard| now.saturating_since(heard).as_secs_f64());
        r.set_gauge(pulse_metrics::RM_SILENCE_SECS, Labels::NONE, silence);
        // 0 until the first digest: single-domain clusters never gossip
        // and must not trip the staleness rule.
        let gossip_age = node
            .last_gossip_heard()
            .map_or(0.0, |t| now.saturating_since(t).as_secs_f64());
        r.set_gauge(pulse_metrics::GOSSIP_AGE_SECS, Labels::NONE, gossip_age);
        r.set_gauge(pulse_metrics::QUEUE_DEPTH, Labels::NONE, queue_depth as f64);
        r.set_gauge(
            pulse_metrics::LINK_RECONNECTS,
            Labels::NONE,
            reconnects as f64,
        );
        pulse.tick(now, r, self.node, node.domain());
        inner.pulse = Some(pulse);
    }

    /// Freezes everything into one wire-serialisable [`StatusReport`],
    /// answering the request's trace and series-scrape options.
    pub fn report(
        &self,
        request: &StatusRequest,
        transport: TransportStats,
        peers: Vec<(NodeId, String)>,
    ) -> StatusReport {
        let include_trace = request.include_trace;
        let inner = self.inner.lock();
        // Snapshot through a clone so the profiler's histograms appear in
        // the exported metrics without disturbing the live recorder.
        let mut recorder = inner.recorder.clone();
        inner.profiler.export_into(&mut recorder);
        StatusReport {
            node: self.node,
            role: match inner.role {
                Role::Idle => "idle",
                Role::Joining => "joining",
                Role::Member => "member",
                Role::Rm => "rm",
            }
            .to_string(),
            domain: inner.domain,
            rm: inner.rm,
            domain_size: inner.domain_size,
            sessions: inner.sessions,
            load: inner.load,
            active_hops: inner.active_hops,
            open_spans: inner.recorder.spans.open_count() as u64,
            traces_dropped: inner.recorder.trace.dropped(),
            metrics: recorder.snapshot(),
            transport,
            trace: include_trace.then(|| inner.recorder.trace.iter().cloned().collect()),
            series: match (&inner.pulse, request.series_cursor) {
                (Some(pulse), Some(cursor)) => pulse.store.collect_since(cursor),
                _ => Default::default(),
            },
            health: inner
                .pulse
                .as_ref()
                .map(|p| p.evaluator.statuses())
                .unwrap_or_default(),
            peers,
        }
    }
}

/// arm-pulse sampling parameters for a live peer.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// Wall interval between sample ticks.
    pub period: Duration,
    /// Retained samples per series.
    pub capacity: usize,
    /// Health-rule thresholds (tune `rm_silence_secs` etc. to the
    /// protocol's heartbeat cadence).
    pub thresholds: HealthThresholds,
}

impl Default for PulseConfig {
    fn default() -> Self {
        Self {
            period: Duration::from_secs(1),
            capacity: SeriesStore::DEFAULT_CAPACITY,
            thresholds: HealthThresholds::default(),
        }
    }
}

/// Durability parameters for a live peer (the `--state-dir` plane).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Base state directory; each peer persists under `node-<id>/` so one
    /// config can serve a whole in-process cluster.
    pub dir: PathBuf,
    /// Wall interval between compacting snapshots (the WAL is truncated at
    /// each; a crash replays at most one period's worth of intents).
    pub snapshot_period: Duration,
}

impl StoreConfig {
    /// A store rooted at `dir` with the default snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_period: Duration::from_secs(5),
        }
    }

    /// The subdirectory one peer persists into.
    pub fn node_dir(&self, node: NodeId) -> PathBuf {
        self.dir.join(format!("node-{}", node.raw()))
    }
}

/// Construction parameters for a [`NetPeer`].
#[derive(Debug, Clone)]
pub struct NetPeerConfig {
    /// Middleware protocol configuration.
    pub protocol: ProtocolConfig,
    /// Deterministic seed for the peer's internal randomness.
    pub seed: u64,
    /// Whether the peer emits structured trace events into telemetry.
    pub tracing: bool,
    /// Retained-series sampling and health evaluation (`None` disables the
    /// pulse plane entirely — zero overhead, empty series on scrape).
    pub pulse: Option<PulseConfig>,
    /// Crash-safe state persistence (`None` = in-memory only, the
    /// pre-`--state-dir` behaviour).
    pub store: Option<StoreConfig>,
}

impl Default for NetPeerConfig {
    fn default() -> Self {
        Self {
            protocol: ProtocolConfig::default(),
            seed: 7,
            tracing: true,
            pulse: Some(PulseConfig::default()),
            store: None,
        }
    }
}

/// One live peer: a `PeerNode` state machine on its own thread, reachable
/// through (and sending through) a [`Transport`].
pub struct NetPeer {
    id: NodeId,
    clock: NetClock,
    tx: Sender<Delivery>,
    status: Arc<NodeStatus>,
    handle: Option<JoinHandle<()>>,
}

impl NetPeer {
    /// Starts the peer thread and queues its `Start` event (which kicks off
    /// the §4.1 join protocol toward `spawn.bootstrap`, if any). The
    /// transport must already be able to route to the bootstrap peer — for
    /// TCP, call [`TcpTransport::connect`] first.
    pub fn start(
        mailbox: NetMailbox,
        spawn: PeerSpawn,
        transport: Arc<dyn Transport>,
        config: &NetPeerConfig,
        telemetry: crate::SharedTelemetry,
    ) -> Self {
        let NetMailbox { clock, tx, rx } = mailbox;
        let id = spawn.id;
        #[allow(
            clippy::expect_used,
            reason = "rx is alive in this scope, so the send cannot observe a disconnected channel"
        )]
        tx.send(Delivery::At(
            clock.now(),
            Event::Start {
                bootstrap: spawn.bootstrap,
            },
        ))
        .expect("own mailbox");
        let config = config.clone();
        let thread_clock = clock.clone();
        let status = Arc::new(NodeStatus::new(id, config.tracing, config.pulse.as_ref()));
        let thread_status = Arc::clone(&status);
        // Thread exhaustion at startup: the closure (and with it `rx`) is
        // dropped, every later send on `tx` fails silently, and `stop`/`Drop`
        // have nothing to join — the peer behaves as if it never started.
        let handle = std::thread::Builder::new()
            .name(format!("netpeer-{id}"))
            .spawn(move || {
                net_peer_main(
                    thread_clock,
                    rx,
                    spawn,
                    config,
                    transport,
                    telemetry,
                    thread_status,
                )
            })
            .ok();
        Self {
            id,
            clock,
            tx,
            status,
            handle,
        }
    }

    /// The peer's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The peer's live introspection state ([`BoundTcpPeer::start`] serves
    /// it over the transport's status plane).
    pub fn status(&self) -> Arc<NodeStatus> {
        Arc::clone(&self.status)
    }

    /// Submits a task at this peer.
    pub fn submit(&self, task: TaskSpec) {
        let _ = self
            .tx
            .send(Delivery::At(self.clock.now(), Event::SubmitTask(task)));
    }

    /// Stops the peer thread, optionally announcing a graceful departure
    /// first, and joins it.
    pub fn stop(mut self, graceful: bool) {
        if graceful {
            let _ = self
                .tx
                .send(Delivery::At(self.clock.now(), Event::Shutdown { graceful }));
        }
        let _ = self.tx.send(Delivery::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetPeer {
    fn drop(&mut self) {
        let _ = self.tx.send(Delivery::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The peer thread: fire due timers and deliveries, interpret the actions,
/// tick the pulse and durability planes, sleep until the next due entry.
fn net_peer_main(
    clock: NetClock,
    rx: Receiver<Delivery>,
    spawn: PeerSpawn,
    config: NetPeerConfig,
    transport: Arc<dyn Transport>,
    telemetry: crate::SharedTelemetry,
    status: Arc<NodeStatus>,
) {
    let mut node = PeerNode::new(
        spawn.id,
        spawn.capacity,
        spawn.bandwidth_kbps,
        spawn.objects,
        spawn.services,
        config.protocol,
        config.seed,
        clock.now(),
    );
    node.set_tracing(config.tracing);
    let mut pending: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let pulse_period = config.pulse.as_ref().map(|p| p.period);
    let mut next_pulse = pulse_period.map(|p| {
        SimTime::from_micros(clock.now().as_micros().saturating_add(p.as_micros() as u64))
    });

    // Durability plane: open the store (recovering any prior state) before
    // the first event is handled, so a crash-restart boots from its own
    // history instead of a blank slate. An unusable state dir degrades to
    // in-memory-only operation rather than refusing to serve.
    let mut store: Option<Store> = None;
    let mut recovery: Option<(Box<StoreSnapshot>, Vec<Intent>)> = None;
    if let Some(cfg) = &config.store {
        match Store::open(&cfg.node_dir(spawn.id)) {
            Ok((st, recovered)) => {
                if let Some(note) = &recovered.snapshot_note {
                    eprintln!("arm: node {}: {note}", spawn.id);
                }
                if recovered.snapshot.is_some() || !recovered.intents.is_empty() {
                    // Crash before the first snapshot: replay the WAL over
                    // a blank pre-join image.
                    let snap = recovered
                        .snapshot
                        .unwrap_or_else(|| StoreSnapshot::blank(spawn.id));
                    recovery = Some((Box::new(snap), recovered.intents));
                }
                store = Some(st);
            }
            Err(e) => {
                eprintln!(
                    "arm: node {}: state dir unusable ({e}); running without persistence",
                    spawn.id
                );
            }
        }
    }
    let snapshot_period = store
        .as_ref()
        .and(config.store.as_ref())
        .map(|c| c.snapshot_period);
    let mut next_snapshot = snapshot_period.map(|p| {
        SimTime::from_micros(clock.now().as_micros().saturating_add(p.as_micros() as u64))
    });
    let mut clean_stop = false;
    // The one action buffer: each event fills it, `handle_actions` drains it.
    let mut actions = Vec::new();

    loop {
        let now = clock.now();
        while pending.peek().is_some_and(|t| t.at <= now) {
            let Some(entry) = pending.pop() else { break };
            // Recovery hijacks the boot event: the queued `Start` becomes a
            // `Recover` carrying the snapshot plus the replayable WAL tail.
            let event = match (entry.event, recovery.take()) {
                (Event::Start { .. }, Some((snapshot, intents))) => {
                    Event::Recover { snapshot, intents }
                }
                (event, leftover) => {
                    recovery = leftover;
                    event
                }
            };
            if let Event::Shutdown { graceful: true } = &event {
                clean_stop = true;
            }
            // Profile the handler by message kind: the state machine itself
            // never sees a wall clock, so the driver times the dispatch.
            let msg_kind = match &event {
                Event::Msg { msg, .. } => Some(msg.kind()),
                _ => None,
            };
            let handle_started = Instant::now();
            node.on_event_into(clock.now(), event, &mut actions);
            // Trace actions also feed the node's flight recorder; all sends
            // of this batch share the node's outbound trace context.
            let handled = msg_kind.map(|kind| (kind, handle_started.elapsed().as_secs_f64()));
            status.observe(&node, handled, &actions);
            let ctx = node.out_ctx();
            let at = clock.now();
            handle_actions(
                &telemetry,
                &mut pending,
                spawn.id,
                at,
                &mut actions,
                |to, msg| {
                    if transport.send(to, msg, ctx).is_ok() {
                        telemetry.lock().messages += 1;
                    }
                },
                |intent| {
                    if let Some(st) = store.as_mut() {
                        // An append failure (disk full, dir vanished) loses
                        // WAL coverage but must not take the overlay down;
                        // the next snapshot restores durability.
                        let _ = st.append(&intent);
                    }
                },
            );
        }
        // The arm-pulse sampling tick: driver-timed, so the state machine
        // stays wall-clock-free. Queue depth counts both the undelivered
        // mailbox and the due-timer heap.
        if let (Some(period), Some(due)) = (pulse_period, next_pulse) {
            let now = clock.now();
            if now >= due {
                status.pulse_tick(
                    now,
                    &node,
                    rx.len() + pending.len(),
                    transport.stats().reconnects(),
                );
                next_pulse = Some(SimTime::from_micros(
                    now.as_micros().saturating_add(period.as_micros() as u64),
                ));
            }
        }
        // The durability tick: periodically compact the WAL into a fresh
        // (dirty) snapshot — `clean` is only ever set by the final flush of
        // a graceful stop.
        if let (Some(st), Some(period), Some(due)) =
            (store.as_mut(), snapshot_period, next_snapshot)
        {
            let now = clock.now();
            if now >= due {
                let mut snap = node.store_snapshot(now, 0, false, now.as_micros());
                let _ = st.install_snapshot(&mut snap);
                next_snapshot = Some(SimTime::from_micros(
                    now.as_micros().saturating_add(period.as_micros() as u64),
                ));
            }
        }
        let mut timeout = pending
            .peek()
            .map(|t| {
                Duration::from_micros(t.at.as_micros().saturating_sub(clock.now().as_micros()))
            })
            .unwrap_or(Duration::from_millis(50));
        if let Some(due) = next_pulse {
            let until_pulse =
                Duration::from_micros(due.as_micros().saturating_sub(clock.now().as_micros()));
            timeout = timeout.min(until_pulse);
        }
        if let Some(due) = next_snapshot {
            let until_snapshot =
                Duration::from_micros(due.as_micros().saturating_sub(clock.now().as_micros()));
            timeout = timeout.min(until_snapshot);
        }
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(Delivery::At(at, event)) => {
                pending.push(TimerEntry { at, event });
            }
            Ok(Delivery::Stop) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Final flush: a graceful stop compacts everything into one *clean*
    // snapshot, so the next boot starts fresh instead of resuming phases.
    // An abrupt stop flushes nothing — exactly like a crash — and recovery
    // replays the WAL.
    if clean_stop {
        if let Some(st) = store.as_mut() {
            let now = clock.now();
            let mut snap = node.store_snapshot(now, 0, true, now.as_micros());
            let _ = st.install_snapshot(&mut snap);
        }
    }
}

/// One TCP peer between bind and start: its listen address is known — so a
/// cluster can collect every address before any peer runs — but its thread
/// is not yet running. `bind` then `start` is the one way to put a TCP peer
/// on the air; [`NetCluster`] and `arm node` both go through it.
pub struct BoundTcpPeer {
    mailbox: NetMailbox,
    transport: Arc<TcpTransport>,
}

impl BoundTcpPeer {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`) for peer `id`, with the
    /// transport's inbound sink feeding a fresh mailbox on `clock`.
    pub fn bind(
        id: NodeId,
        listen: &str,
        clock: &NetClock,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        let mailbox = NetMailbox::new(clock.clone());
        let transport = Arc::new(TcpTransport::bind(id, listen, mailbox.sink(), opts)?);
        Ok(Self { mailbox, transport })
    }

    /// The address the peer actually listens on (resolves `:0` ports).
    pub fn listen_addr(&self) -> String {
        self.transport.listen_addr().to_string()
    }

    /// Seeds the routing book with `routes` (the peer's own entry, if
    /// listed, is skipped), dials `bootstrap` — the handshake names the
    /// peer the join protocol then targets, overriding `spawn.bootstrap` —
    /// starts the peer thread, and serves the introspection plane with an
    /// address book of this node, `routes` and the bootstrap.
    pub fn start(
        self,
        mut spawn: PeerSpawn,
        bootstrap: Option<&str>,
        routes: &[(NodeId, String)],
        config: &NetPeerConfig,
        telemetry: crate::SharedTelemetry,
    ) -> Result<(NetPeer, Arc<TcpTransport>), TransportError> {
        let Self { mailbox, transport } = self;
        let mut book = vec![(spawn.id, transport.listen_addr().to_string())];
        for (node, addr) in routes {
            if *node != spawn.id {
                transport.add_route(*node, addr)?;
                book.push((*node, addr.clone()));
            }
        }
        if let Some(addr) = bootstrap {
            let remote = transport.connect(addr)?;
            if remote == spawn.id {
                return Err(TransportError::Io(format!(
                    "bootstrap {addr} has our own id ({remote}); pick a unique id"
                )));
            }
            if !book.iter().any(|(node, _)| *node == remote) {
                book.push((remote, addr.to_string()));
            }
            spawn.bootstrap = Some(remote);
        }
        let peer = NetPeer::start(
            mailbox,
            spawn,
            Arc::clone(&transport) as Arc<dyn Transport>,
            config,
            telemetry,
        );
        // The provider reads the peer's live status and the transport's own
        // counters. A weak handle avoids a transport → provider → transport
        // cycle.
        let status = peer.status();
        let weak = Arc::downgrade(&transport);
        transport.set_status_provider(Box::new(move |req| {
            let stats = weak.upgrade().map(|t| t.stats()).unwrap_or_default();
            status.report(req, stats, book.clone())
        }));
        Ok((peer, transport))
    }
}

/// A whole overlay of TCP-backed peers in one process: the harness behind
/// `arm cluster` and the loopback integration tests.
pub struct NetCluster {
    clock: NetClock,
    telemetry: crate::SharedTelemetry,
    peers: Vec<(NetPeer, Arc<TcpTransport>)>,
}

impl NetCluster {
    /// Binds one loopback [`TcpTransport`] per spawn spec, seeds all routing
    /// books with every peer's address (out-of-band discovery), dials each
    /// peer's bootstrap, and starts all peer threads.
    pub fn start(
        spawns: Vec<PeerSpawn>,
        config: &NetPeerConfig,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        let mut cluster = Self {
            clock: NetClock::new(),
            telemetry: crate::shared_telemetry(),
            peers: Vec::with_capacity(spawns.len()),
        };
        // Bind every transport first so all listen addresses are known.
        let mut bound = Vec::with_capacity(spawns.len());
        for spawn in spawns {
            let peer = BoundTcpPeer::bind(spawn.id, "127.0.0.1:0", &cluster.clock, opts.clone())?;
            bound.push((spawn, peer));
        }
        // Full-mesh routing books: in one process we know every address.
        let routes: Vec<(NodeId, String)> = bound
            .iter()
            .map(|(spawn, peer)| (spawn.id, peer.listen_addr()))
            .collect();
        for (spawn, peer) in bound {
            let bootstrap = spawn.bootstrap.and_then(|b| addr_of(&routes, b));
            let telemetry = Arc::clone(&cluster.telemetry);
            cluster
                .peers
                .push(peer.start(spawn, bootstrap, &routes, config, telemetry)?);
        }
        Ok(cluster)
    }

    /// The cluster's shared clock.
    pub fn clock(&self) -> &NetClock {
        &self.clock
    }

    /// Ids of all peers, in spawn order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.peers.iter().map(|(p, _)| p.id()).collect()
    }

    /// Listen addresses of all peers, in spawn order (for observers:
    /// `arm top` / `arm trace` dial these).
    pub fn listen_addrs(&self) -> Vec<(NodeId, String)> {
        self.peers
            .iter()
            .map(|(p, t)| (p.id(), t.listen_addr().to_string()))
            .collect()
    }

    /// Submits a task at the given peer.
    pub fn submit(&self, node: NodeId, task: TaskSpec) {
        if let Some((peer, _)) = self.peers.iter().find(|(p, _)| p.id() == node) {
            peer.submit(task);
        }
    }

    /// Snapshot of the shared telemetry.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.lock().clone()
    }

    /// Transport counters for every peer (ordered by spawn order).
    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.peers.iter().map(|(_, t)| t.stats()).collect()
    }

    /// Kills the live connection from `from` to `to` (fault injection); the
    /// link reconnects with backoff on the next send.
    pub fn kill_link(&self, from: NodeId, to: NodeId) {
        if let Some((_, t)) = self.peers.iter().find(|(p, _)| p.id() == from) {
            t.kill_link(to);
        }
    }

    /// Permanently stops one peer and tears down its transport (fault
    /// injection: a crash, not a graceful leave — unlike [`kill_link`],
    /// nothing redials). Returns false if the peer is not in the cluster.
    ///
    /// [`kill_link`]: NetCluster::kill_link
    pub fn stop_peer(&mut self, node: NodeId) -> bool {
        let Some(idx) = self.peers.iter().position(|(p, _)| p.id() == node) else {
            return false;
        };
        let (peer, transport) = self.peers.remove(idx);
        peer.stop(false);
        transport.shutdown();
        true
    }

    /// (Re)starts a peer: binds a fresh loopback transport, refreshes the
    /// routing mesh in both directions (the peer's old address, if any, is
    /// dead — live links redial the new one on their next write), dials the
    /// bootstrap, and starts the peer thread. With a [`StoreConfig`] in
    /// `config`, the peer first recovers from its snapshot + WAL under the
    /// state dir — this is the crash-recovery path [`stop_peer`] sets up.
    ///
    /// [`stop_peer`]: NetCluster::stop_peer
    pub fn restart_peer(
        &mut self,
        spawn: PeerSpawn,
        config: &NetPeerConfig,
        opts: TcpOptions,
    ) -> Result<(), TransportError> {
        let peer = BoundTcpPeer::bind(spawn.id, "127.0.0.1:0", &self.clock, opts)?;
        let addr = peer.listen_addr();
        for (_, t) in &self.peers {
            t.add_route(spawn.id, &addr)?;
        }
        let routes = self.listen_addrs();
        let bootstrap = spawn.bootstrap.and_then(|b| addr_of(&routes, b));
        let telemetry = Arc::clone(&self.telemetry);
        self.peers
            .push(peer.start(spawn, bootstrap, &routes, config, telemetry)?);
        Ok(())
    }

    /// Stops all peers (gracefully), then tears down all transports.
    pub fn shutdown(self) -> Vec<TransportStats> {
        let stats = self.transport_stats();
        for (peer, transport) in self.peers {
            peer.stop(false);
            transport.shutdown();
        }
        stats
    }
}

/// The address `routes` lists for `node`.
fn addr_of(routes: &[(NodeId, String)], node: NodeId) -> Option<&str> {
    routes
        .iter()
        .find(|(n, _)| *n == node)
        .map(|(_, addr)| addr.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_spawns, demo_task, live_protocol, plain_spawn};
    use arm_util::TaskId;

    #[test]
    fn overlay_forms_over_tcp() {
        let config = NetPeerConfig {
            protocol: live_protocol(),
            ..NetPeerConfig::default()
        };
        let spawns = (1..=4u64)
            .map(|i| plain_spawn(i, (i > 1).then_some(1)))
            .collect();
        let cluster = NetCluster::start(spawns, &config, TcpOptions::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let t = cluster.telemetry();
            if t.messages > 20 {
                break;
            }
            assert!(Instant::now() < deadline, "no TCP chatter: {t:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = cluster.shutdown();
        assert!(stats.iter().all(|s| s.decode_errors == 0));
        assert!(stats.iter().map(|s| s.msgs_out()).sum::<u64>() > 20);
    }

    #[test]
    fn task_completes_over_tcp() {
        let config = NetPeerConfig {
            protocol: live_protocol(),
            ..NetPeerConfig::default()
        };
        let cluster = NetCluster::start(demo_spawns(4), &config, TcpOptions::default()).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        cluster.submit(NodeId::new(4), demo_task(1, NodeId::new(4)));
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let t = cluster.telemetry();
            if t.replies
                .iter()
                .any(|(id, ok, _)| *id == TaskId::new(1) && *ok)
            {
                break;
            }
            assert!(Instant::now() < deadline, "TCP task timed out: {t:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = cluster.shutdown();
        assert!(stats.iter().all(|s| s.decode_errors == 0), "{stats:?}");
    }

    #[test]
    fn cluster_serves_status_reports() {
        use arm_wire::query_status;
        let config = NetPeerConfig {
            protocol: live_protocol(),
            ..NetPeerConfig::default()
        };
        let spawns = (1..=3u64)
            .map(|i| plain_spawn(i, (i > 1).then_some(1)))
            .collect();
        let cluster = NetCluster::start(spawns, &config, TcpOptions::default()).unwrap();
        let addrs = cluster.listen_addrs();
        assert_eq!(addrs.len(), 3);
        // Wait for the overlay to form, then interrogate the founder.
        let deadline = Instant::now() + Duration::from_secs(10);
        let report = loop {
            let report =
                query_status(&addrs[0].1, NodeId::new(99), true, Duration::from_secs(2)).unwrap();
            if report.role == "rm" && report.domain_size == Some(3) {
                break report;
            }
            assert!(
                Instant::now() < deadline,
                "overlay never formed: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(30));
        };
        assert_eq!(report.node, NodeId::new(1));
        assert_eq!(report.rm, Some(NodeId::new(1)));
        // The flight recorder was requested and carries protocol events.
        let trace = report.trace.as_deref().unwrap_or_default();
        assert!(!trace.is_empty(), "rm ring is empty");
        // The address book covers the whole cluster (observer discovery).
        assert_eq!(report.peers.len(), 3);
        // Handler profiling surfaces per-kind latency series.
        assert!(
            report
                .metrics
                .histograms
                .iter()
                .any(|h| h.key.starts_with(arm_core::HANDLE_METRIC)),
            "no handle_seconds series in {:?}",
            report.metrics.histograms.len()
        );
        cluster.shutdown();
    }

    #[test]
    fn net_peer_over_in_memory_transport() {
        use arm_wire::MemHub;
        let config = NetPeerConfig {
            protocol: live_protocol(),
            ..NetPeerConfig::default()
        };
        let clock = NetClock::new();
        let telemetry = crate::shared_telemetry();
        let hub = MemHub::new();
        let mut peers = Vec::new();
        for i in 1..=3u64 {
            let mailbox = NetMailbox::new(clock.clone());
            let transport = Arc::new(hub.register(NodeId::new(i), mailbox.sink()));
            peers.push(NetPeer::start(
                mailbox,
                plain_spawn(i, (i > 1).then_some(1)),
                transport as Arc<dyn Transport>,
                &config,
                Arc::clone(&telemetry),
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if telemetry.lock().messages > 10 {
                break;
            }
            assert!(Instant::now() < deadline, "no in-memory chatter");
            std::thread::sleep(Duration::from_millis(20));
        }
        for p in peers {
            p.stop(false);
        }
    }
}
