//! The per-node protocol state machine.
//!
//! Every node in the overlay runs a [`PeerNode`]; it embeds the three
//! per-processor components of §2 — the **Connection Manager** (overlay
//! membership, join/leave/heartbeats), the **Profiler** (load accounting
//! and report propagation) and the **Local Scheduler** (least-laxity
//! execution of setup computations) — plus, when the node leads a domain,
//! the **Resource Manager** role ([`RmState`]).
//!
//! The machine is sans-I/O: `on_event(now, event) → Vec<Action>`. Drivers
//! (the DES in `arm-sim`, threads in `arm-runtime`) own delivery.
//!
//! One `impl PeerNode` per role, one file each:
//!
//! * this file — the struct, its accessors, the event loop (`on_event`,
//!   the `on_msg`/`on_timer` dispatch matches) and the user-facing
//!   submit/shutdown handlers;
//! * `membership` — Connection Manager: join handshake, domain founding,
//!   heartbeats, orphan rejoin, backup promotion and epoch reconciliation;
//! * `worker` — Profiler + Local Scheduler: the hops this peer executes,
//!   their setup jobs, and the periodic load report;
//! * `rm_duties` — what only a Resource Manager does: admission and
//!   allocation, composition tracking, repair, reassignment, gossip and
//!   backup shipping;
//! * `recovery` — the durable snapshot and booting back from it.
//!
//! The roles share `role`, `rm_state` and the local hop table (an RM is
//! also a worker and closes its own hops), which is why they are `impl`
//! blocks over one struct rather than components handing state around.

mod membership;
mod recovery;
mod rm_duties;
mod worker;

use crate::config::ProtocolConfig;
use crate::events::{Action, Event, TimerKind};
use crate::rm::RmState;
use arm_model::{MediaObject, ServiceSpec, TaskSpec};
use arm_profiler::Profiler;
use arm_proto::{Message, RmCandidacy, RmSnapshot, TaskReplyKind, TraceCtx};
use arm_sched::{JobId, LocalScheduler, SchedulerConfig};
use arm_store::Intent;
use arm_telemetry::{TaskPhase, TraceEvent, TraceKind};
use arm_util::{DetRng, DomainId, NodeId, SessionId, SimDuration, SimTime};
use std::collections::BTreeMap;
use worker::LocalHop;

/// The node's current overlay role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Not part of any overlay (before `Start` / after `Shutdown`).
    Idle,
    /// Join handshake in progress (§4.1).
    Joining,
    /// Ordinary domain member.
    Member,
    /// Resource Manager of a domain.
    Rm,
}

/// What one [`PeerNode::on_event`] call emits, and the trace scope it
/// emits under. `on_event` builds it once and every handler takes it, so
/// a handler can emit while it holds `rm_state` mutably and never spells
/// out who, when and in which causal episode it is.
struct Emit {
    actions: Vec<Action>,
    /// Whether [`Emit::trace`] records anything (see
    /// [`PeerNode::set_tracing`]).
    tracing: bool,
    now: SimTime,
    node: NodeId,
    /// The node's domain; `PeerNode::enter_domain` keeps it current.
    domain: Option<DomainId>,
    /// Trace id this episode belongs to (0 = untraced).
    trace: u64,
    /// Span id of the event being handled: `(node_id << 32) | counter`.
    span: u64,
    /// Causal parent of `span` — the sender-side span whose message
    /// triggered this episode (0 = root or untraced).
    parent: u64,
}

impl Emit {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.actions.push(Action::Send { to, msg });
    }

    fn timer(&mut self, kind: TimerKind, after: SimDuration) {
        self.actions.push(Action::SetTimer { kind, after });
    }

    /// Emits a lifecycle intent for the driver's write-ahead log.
    fn persist(&mut self, intent: Intent) {
        self.actions.push(Action::Persist(intent));
    }

    /// Reports that this node now leads `domain` and logs it with the
    /// epoch it assumed.
    fn promoted(&mut self, domain: DomainId, version: u64) {
        self.actions.push(Action::Promoted {
            domain,
            at: self.now,
        });
        self.persist(Intent::RmAssumed { domain, version });
    }

    /// Traces `kind` as part of the episode being handled.
    fn trace(&mut self, kind: TraceKind) {
        self.trace_under((self.trace, self.parent), kind);
    }

    /// Traces a session-scoped `kind` under the session's `anchor` (see
    /// [`Emit::anchor`]) instead of whatever event happened to trigger it.
    /// Causal fields are attached only when a live trace is being followed
    /// (`trace != 0`), so periodic/untraced events keep all-zero causal
    /// fields and serialize exactly as before.
    fn trace_under(&mut self, (trace, parent): (u64, u64), kind: TraceKind) {
        if self.tracing {
            let mut event = TraceEvent::new(self.now, self.node, self.domain, kind);
            if trace != 0 {
                event = event.causal(trace, self.span, parent);
            }
            self.actions.push(Action::Trace(event));
        }
    }

    /// The `(trace id, allocation span)` pair session-scoped events hang
    /// off: the one `recorded` when the session was allocated, else this
    /// episode's own.
    fn anchor(&self, recorded: Option<&(u64, u64)>) -> (u64, u64) {
        recorded.copied().unwrap_or((self.trace, self.parent))
    }

    /// What outbound messages of this episode carry: the live trace plus
    /// this episode's span as the receiver's causal parent.
    fn out_ctx(&self) -> TraceCtx {
        if self.trace == 0 {
            TraceCtx::NONE
        } else {
            TraceCtx {
                trace_id: self.trace,
                parent_span: self.span,
                flags: 0,
            }
        }
    }
}

/// The full per-node state machine. See the crate docs for the driver
/// contract and the module docs for which file holds which handlers.
/// Handlers never push onto a bare action list: they emit through the
/// per-event `Emit` context `on_event` hands them.
pub struct PeerNode {
    id: NodeId,
    cfg: ProtocolConfig,
    capacity: f64,
    bandwidth_kbps: u32,
    objects: Vec<MediaObject>,
    services: Vec<ServiceSpec>,
    started_at: SimTime,

    role: Role,
    domain: Option<DomainId>,
    rm: Option<NodeId>,
    bootstrap: Option<NodeId>,
    /// Remaining redirect hops for the current join attempt. Each
    /// `JoinRetry` refreshes it; without a budget, rings of full domains
    /// would bounce a joiner (and its accumulated retry chains) forever.
    join_hops_left: u8,
    last_rm_heard: SimTime,
    /// Last `LoadReport` to the RM (or the join); heartbeat ticks within a period of it stay silent.
    last_report_sent: Option<SimTime>,
    /// When the last inter-domain gossip digest arrived (`None` until the
    /// first). Surfaced to the pulse health plane as gossip staleness.
    last_gossip_heard: Option<SimTime>,

    profiler: Profiler,
    sched: LocalScheduler,
    sched_poll_armed: bool,
    hb_armed: bool,
    report_armed: bool,
    rm_timers_armed: bool,

    local_hops: BTreeMap<(SessionId, usize), LocalHop>,
    pending_setups: BTreeMap<JobId, (SessionId, usize)>,
    backup_snapshot: Option<RmSnapshot>,
    rm_state: Option<RmState>,
    rng: DetRng,
    /// When true, protocol decisions additionally emit [`Action::Trace`]
    /// events (off by default; see [`PeerNode::set_tracing`]).
    tracing: bool,
    /// Last backup choice announced via a `Qualification` trace event, so
    /// the periodic backup tick only traces *changes*.
    traced_backup: Option<NodeId>,
    /// Logical count of events handled so far. Incremented for *every*
    /// event — traced or not — so span ids are identical whether or not
    /// tracing is on, and merged traces are reproducible across runs.
    span_counter: u64,
    /// Outbound trace context of the last handled event (see
    /// [`PeerNode::out_ctx`]).
    last_ctx: TraceCtx,
    /// Per-session `(trace_id, allocation span)` links, so session timers
    /// (`SessionEnd`, `ComposeTimeout`) and late acks re-enter the trace
    /// that allocated the session with a deterministic parent.
    session_traces: BTreeMap<SessionId, (u64, u64)>,
    /// Last information-base version persisted via
    /// [`Intent::EpochAdvanced`], so the epilogue only logs changes.
    last_logged_version: u64,
    /// Highest RM epoch witnessed in a `PromoteAnnounce` (member side),
    /// so stale announcements from superseded RMs are ignored.
    rm_epoch: u64,
}

impl PeerNode {
    /// Creates a node that has not yet joined any overlay.
    #[allow(
        clippy::too_many_arguments,
        reason = "the constructor mirrors the paper's peer parameters one-to-one; a builder would \
                  only obscure the correspondence"
    )]
    pub fn new(
        id: NodeId,
        capacity: f64,
        bandwidth_kbps: u32,
        objects: Vec<MediaObject>,
        services: Vec<ServiceSpec>,
        cfg: ProtocolConfig,
        seed: u64,
        started_at: SimTime,
    ) -> Self {
        let profiler = Profiler::new(id, capacity, bandwidth_kbps);
        let mut sched = LocalScheduler::new(SchedulerConfig {
            policy: cfg.sched_policy,
            capacity,
            quantum: Some(cfg.sched_poll),
            abort_late: false,
        });
        sched.advance_to(started_at);
        Self {
            id,
            capacity,
            bandwidth_kbps,
            objects,
            services,
            started_at,
            role: Role::Idle,
            domain: None,
            rm: None,
            bootstrap: None,
            join_hops_left: 0,
            last_rm_heard: started_at,
            last_report_sent: None,
            last_gossip_heard: None,
            profiler,
            sched,
            sched_poll_armed: false,
            hb_armed: false,
            report_armed: false,
            rm_timers_armed: false,
            local_hops: BTreeMap::new(),
            pending_setups: BTreeMap::new(),
            backup_snapshot: None,
            rm_state: None,
            rng: DetRng::new(seed).stream_idx("peer", id.raw()),
            tracing: false,
            traced_backup: None,
            span_counter: 0,
            last_ctx: TraceCtx::NONE,
            session_traces: BTreeMap::new(),
            last_logged_version: 0,
            rm_epoch: 0,
            cfg,
        }
    }

    /// Switches structured trace emission on or off. While on, protocol
    /// decisions (election, splits, gossip, admission, repair, ...) emit
    /// [`Action::Trace`] events for the driver's
    /// [`arm_telemetry::Recorder`]. Off by default: untraced runs produce
    /// byte-identical action streams to builds without telemetry.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    // ---- accessors -------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The domain this node belongs to, if joined.
    pub fn domain(&self) -> Option<DomainId> {
        self.domain
    }

    /// The Resource Manager this node reports to (itself when RM).
    pub fn rm(&self) -> Option<NodeId> {
        self.rm
    }

    /// RM state, when this node leads a domain.
    pub fn rm_state(&self) -> Option<&RmState> {
        self.rm_state.as_ref()
    }

    /// The node's profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Current processing load (sustained sessions).
    pub fn load(&self) -> f64 {
        self.profiler.load()
    }

    /// Number of session hops this peer currently executes.
    pub fn active_hops(&self) -> usize {
        self.local_hops.len()
    }

    /// When this node last heard from its resource manager (its own start
    /// time until it has one; refreshed by any message from the RM).
    pub fn last_rm_heard(&self) -> SimTime {
        self.last_rm_heard
    }

    /// When the last inter-domain gossip digest arrived, if ever. Single-
    /// domain clusters legitimately never gossip, hence the `Option`.
    pub fn last_gossip_heard(&self) -> Option<SimTime> {
        self.last_gossip_heard
    }

    fn candidacy(&self, now: SimTime) -> RmCandidacy {
        RmCandidacy {
            node: self.id,
            capacity: self.capacity,
            bandwidth_kbps: self.bandwidth_kbps,
            uptime_secs: now.saturating_since(self.started_at).as_secs_f64(),
        }
    }

    /// Sends this node's inventory to `rm` so its information base learns
    /// what the node offers.
    fn advertise_to(&self, rm: NodeId, out: &mut Emit) {
        out.send(
            rm,
            Message::Advertise {
                objects: self.objects.clone(),
                services: self.services.clone(),
            },
        );
    }

    // ---- the event loop ----------------------------------------------------

    /// The trace context outbound messages of the current handling episode
    /// carry: the live trace plus this episode's span as the receiver's
    /// causal parent. [`TraceCtx::NONE`] while no trace is being followed.
    /// Drivers read this *after* [`on_event`](Self::on_event) returns and
    /// attach it to the envelopes of that batch's `Send` actions.
    pub fn out_ctx(&self) -> TraceCtx {
        self.last_ctx
    }

    /// Feeds one event; returns the actions the driver must execute.
    pub fn on_event(&mut self, now: SimTime, event: Event) -> Vec<Action> {
        // Every handled event opens a fresh span — traced or not — so span
        // ids (node id × logical counter) are identical whether tracing is
        // on and merged traces are reproducible.
        self.span_counter += 1;
        let span = (self.id.raw() << 32) | self.span_counter;
        let (trace, parent) = match &event {
            Event::Msg { ctx, .. } => (ctx.trace_id, ctx.parent_span),
            // A local submission roots a fresh trace at its own span. The
            // span id doubles as the trace id: unique per (node, event).
            Event::SubmitTask(_) => (span, 0),
            // Session timers re-enter the trace that allocated the session,
            // parented to the allocation span.
            Event::Timer(TimerKind::SessionEnd(s) | TimerKind::ComposeTimeout(s)) => {
                self.session_traces.get(s).copied().unwrap_or((0, 0))
            }
            _ => (0, 0),
        };
        let mut out = Emit {
            actions: Vec::new(),
            tracing: self.tracing,
            now,
            node: self.id,
            domain: self.domain,
            trace,
            span,
            parent,
        };
        // Drive the local scheduler up to now and harvest completions
        // before handling anything else.
        self.sched.advance_to(now);
        self.harvest_setups(&mut out);

        match event {
            Event::Start { bootstrap } => self.on_start(now, bootstrap, &mut out),
            Event::Msg { from, msg, .. } => self.on_msg(now, from, msg, &mut out),
            Event::Timer(kind) => self.on_timer(now, kind, &mut out),
            Event::SubmitTask(task) => self.on_submit(now, task, &mut out),
            Event::Renegotiate { task, new_qos } => match self.role {
                Role::Rm => self.rm_on_renegotiate(task, new_qos),
                Role::Member => {
                    if let Some(rm) = self.rm {
                        out.send(rm, Message::RenegotiateQos { task, new_qos });
                    }
                }
                _ => {}
            },
            Event::Shutdown { graceful } => self.on_shutdown(graceful, &mut out),
            Event::Recover { snapshot, intents } => {
                self.on_recover(now, *snapshot, intents, &mut out)
            }
        }
        // Durability epilogue: persist information-base epoch advances
        // (join/leave/advertise/edge retirement all bump `version`) once
        // per event.
        if let Some(state) = self.rm_state.as_ref() {
            if state.version != self.last_logged_version {
                self.last_logged_version = state.version;
                out.persist(Intent::EpochAdvanced {
                    version: state.version,
                });
            }
        }
        self.last_ctx = out.out_ctx();
        out.actions
    }

    // ---- messages ----------------------------------------------------------

    fn on_msg(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut Emit) {
        if self.role == Role::Idle {
            return;
        }
        // One causal hop: a traced message reached this peer. Untraced
        // traffic (periodic heartbeats, gossip) stays silent.
        if out.tracing && out.trace != 0 {
            out.trace(TraceKind::Hop {
                msg: msg.kind().into(),
                from,
            });
        }
        if Some(from) == self.rm {
            self.last_rm_heard = now;
        }
        if let Some(rm) = self.rm_state.as_mut() {
            rm.touch(from, now);
        }
        match msg {
            Message::JoinRequest { candidacy } => self.on_join_request(now, candidacy, out),
            Message::JoinRedirect { to } => self.on_join_redirect(now, to, out),
            Message::JoinAccept {
                domain,
                rm,
                as_new_rm,
                new_domain,
                known_rms,
            } => self.on_join_accept(now, domain, rm, as_new_rm, new_domain, known_rms, out),
            Message::Advertise { objects, services } => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.register_inventory(from, &objects, &services);
                }
            }
            Message::Leave { node } => self.on_leave(now, node, out),
            Message::Heartbeat { .. } => {} // the refresh above is all it carries
            Message::BackupUpdate { snapshot } => {
                if snapshot.domain == self.domain.unwrap_or(DomainId::new(u64::MAX)) {
                    self.backup_snapshot = Some(*snapshot);
                }
            }
            Message::PromoteAnnounce {
                new_rm,
                domain,
                version,
            } => self.on_promote_announce(now, new_rm, domain, version, out),
            Message::LoadReport(report) => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.apply_report(&report);
                }
            }
            Message::GossipDigest { summaries } => {
                if let Some(state) = self.rm_state.as_mut() {
                    self.last_gossip_heard = Some(now);
                    for s in summaries {
                        state.merge_summary(s);
                    }
                }
            }
            Message::TaskQuery { task } => {
                if self.role == Role::Rm {
                    self.rm_handle_task(now, task, Vec::new(), out);
                } else if let Some(rm) = self.rm {
                    // Not an RM (e.g. post-failover stale client): forward.
                    out.send(rm, Message::TaskQuery { task });
                }
            }
            Message::TaskRedirect {
                task,
                tried_domains,
            } => {
                if self.role == Role::Rm {
                    self.rm_handle_task(now, task, tried_domains, out);
                }
            }
            Message::TaskReply { task, reply } => {
                out.actions.push(Action::ReplyReceived {
                    task,
                    allocated: matches!(reply, TaskReplyKind::Allocated(_)),
                    at: now,
                });
            }
            Message::Compose {
                session,
                graph,
                hop,
                deadline,
            } => self.on_compose(now, from, session, &graph, hop, deadline, out),
            Message::ComposeAck { session, hop, .. } => {
                self.rm_on_compose_ack(now, session, hop, out)
            }
            Message::SessionEnd { session } => self.close_session_hops(session),
            Message::ComposeNack { session, hop, .. } => {
                self.rm_on_compose_nack(now, session, hop, out)
            }
            Message::RenegotiateQos { task, new_qos } => {
                if self.role == Role::Rm {
                    self.rm_on_renegotiate(task, new_qos);
                }
            }
            Message::Reassign { session, graph } => self.on_reassign(from, session, &graph),
        }
    }

    // ---- timers -------------------------------------------------------------

    fn on_timer(&mut self, now: SimTime, kind: TimerKind, out: &mut Emit) {
        if self.role == Role::Idle {
            return;
        }
        match kind {
            TimerKind::Heartbeat => self.on_heartbeat_tick(now, out),
            TimerKind::Report => self.on_report_tick(now, out),
            TimerKind::Gossip => self.on_gossip_tick(out),
            TimerKind::Backup => self.on_backup_tick(now, out),
            TimerKind::Adapt => self.on_adapt_tick(now, out),
            TimerKind::SchedPoll => {
                self.sched_poll_armed = false;
                self.harvest_setups(out);
                self.maybe_arm_sched_poll(out);
            }
            TimerKind::JoinRetry => self.on_join_retry(now, out),
            TimerKind::SessionEnd(session) => self.rm_on_session_end(session, out),
            TimerKind::ComposeTimeout(session) => self.rm_on_compose_timeout(now, session, out),
        }
    }

    // ---- user & lifecycle ------------------------------------------------------

    fn on_submit(&mut self, now: SimTime, mut task: TaskSpec, out: &mut Emit) {
        task.submitted_at = now;
        task.requester = self.id;
        // Root of the task's causal timeline: a submission opens a fresh
        // trace (trace == span, parent 0 — see `on_event`).
        out.trace(TraceKind::TaskPhase {
            task: task.id,
            phase: TaskPhase::Submit,
        });
        match self.role {
            Role::Rm => self.rm_handle_task(now, task, Vec::new(), out),
            Role::Member => {
                if let Some(rm) = self.rm {
                    out.send(rm, Message::TaskQuery { task });
                }
            }
            _ => {}
        }
    }

    fn on_shutdown(&mut self, graceful: bool, out: &mut Emit) {
        out.persist(Intent::ShutdownRequested { graceful });
        if graceful {
            match self.role {
                Role::Rm => {
                    if let Some(state) = self.rm_state.as_mut() {
                        if let Some(b) = state.backup {
                            if b != self.id {
                                // Final snapshot before leaving. Time is not
                                // available in on_shutdown; the stored last
                                // candidate ranking suffices.
                                let snapshot = state.snapshot(&self.cfg, SimTime::MAX);
                                out.send(
                                    b,
                                    Message::BackupUpdate {
                                        snapshot: Box::new(snapshot),
                                    },
                                );
                                out.send(b, Message::Leave { node: self.id });
                            }
                        }
                    }
                }
                Role::Member => {
                    if let Some(rm) = self.rm {
                        out.send(rm, Message::Leave { node: self.id });
                    }
                }
                _ => {}
            }
        }
        self.role = Role::Idle;
        self.rm_state = None;
        self.backup_snapshot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ActionBatch;
    use arm_model::{MediaFormat, QosSpec};
    use arm_util::TaskId;

    pub(super) fn node(id: u64) -> PeerNode {
        PeerNode::new(
            NodeId::new(id),
            100.0,
            10_000,
            vec![],
            vec![],
            ProtocolConfig::default(),
            7,
            SimTime::ZERO,
        )
    }

    /// A node started against bootstrap 1 and accepted into domain 1.
    pub(super) fn member(id: u64) -> PeerNode {
        let mut n = node(id);
        n.on_event(
            SimTime::ZERO,
            Event::Start {
                bootstrap: Some(NodeId::new(1)),
            },
        );
        n.on_event(
            SimTime::from_millis(20),
            Event::msg(
                NodeId::new(1),
                Message::JoinAccept {
                    domain: DomainId::new(1),
                    rm: NodeId::new(1),
                    as_new_rm: false,
                    new_domain: None,
                    known_rms: vec![],
                },
            ),
        );
        assert_eq!(n.role(), Role::Member);
        n
    }

    fn task(id: u64) -> TaskSpec {
        TaskSpec {
            id: TaskId::new(id),
            name: "x".into(),
            requester: NodeId::new(7),
            initial_format: MediaFormat::paper_source(),
            acceptable_formats: vec![MediaFormat::paper_target()],
            qos: QosSpec::with_deadline(SimDuration::from_secs(5)),
            submitted_at: SimTime::ZERO,
            session_secs: 1.0,
        }
    }

    #[test]
    fn submit_at_member_forwards_to_rm() {
        let mut n = member(7);
        let actions = n.on_event(SimTime::from_secs(1), Event::SubmitTask(task(1)));
        let sends = actions.sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId::new(1));
        match sends[0].1 {
            Message::TaskQuery { task } => {
                // Submission stamps time and requester.
                assert_eq!(task.submitted_at, SimTime::from_secs(1));
                assert_eq!(task.requester, NodeId::new(7));
            }
            other => panic!("expected TaskQuery, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_idles_and_stops_timers() {
        let mut n = node(8);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        n.on_event(SimTime::from_secs(1), Event::Shutdown { graceful: false });
        assert_eq!(n.role(), Role::Idle);
        // Stale timers are swallowed silently.
        let actions = n.on_event(SimTime::from_secs(2), Event::Timer(TimerKind::Heartbeat));
        assert!(actions.is_empty());
        // And messages are ignored.
        let actions = n.on_event(
            SimTime::from_secs(3),
            Event::msg(
                NodeId::new(1),
                Message::Heartbeat {
                    from: NodeId::new(1),
                    sent_at: SimTime::from_secs(3),
                },
            ),
        );
        assert!(actions.is_empty());
    }
}
