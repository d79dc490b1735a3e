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

use crate::config::ProtocolConfig;
use crate::events::{Action, Event, TimerKind};
use crate::rm::RmState;
use arm_model::task::TaskOutcome;
use arm_model::{MediaObject, PeerInfo, ServiceSpec, TaskSpec};
use arm_profiler::Profiler;
use arm_proto::{Message, RmCandidacy, RmSnapshot, TaskReplyKind, TraceCtx};
use arm_sched::{Job, JobId, LocalScheduler, SchedulerConfig};
use arm_store::snapshot::{node_phase_tag, session_phase_tag};
use arm_store::{Intent, NodePhase, StateController, StoreSnapshot, SNAPSHOT_FORMAT};
use arm_telemetry::{TaskPhase, TraceEvent, TraceKind};
use arm_util::{DetRng, DomainId, NodeId, SessionId, SimTime};
use std::collections::BTreeMap;

/// Appends an [`Action::Trace`] when tracing is on. A free function (not a
/// method) so callsites can use it while `self.rm_state` is mutably
/// borrowed. `causal` is the `(trace_id, span, parent)` triple of the
/// handling episode; it is attached only when a live trace is being
/// followed (`trace_id != 0`), so periodic/untraced events keep all-zero
/// causal fields and serialize exactly as before.
fn push_trace(
    actions: &mut Vec<Action>,
    tracing: bool,
    at: SimTime,
    peer: NodeId,
    domain: Option<DomainId>,
    causal: (u64, u64, u64),
    kind: TraceKind,
) {
    if tracing {
        let mut event = TraceEvent::new(at, peer, domain, kind);
        let (trace_id, span, parent) = causal;
        if trace_id != 0 {
            event = event.causal(trace_id, span, parent);
        }
        actions.push(Action::Trace(event));
    }
}

/// Queues a lifecycle intent with the state controller *and* emits it as
/// an [`Action::Persist`] for the driver's write-ahead log. A free
/// function so callsites can use it while `self.rm_state` is mutably
/// borrowed (the controller is a disjoint field).
fn intend(controller: &mut StateController, actions: &mut Vec<Action>, intent: Intent) {
    controller.enqueue(intent.clone());
    actions.push(Action::Persist(intent));
}

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

/// A hop of a session this peer executes locally.
#[derive(Debug, Clone)]
struct LocalHop {
    work_per_sec: f64,
    bandwidth_kbps: u32,
    /// Who composed it (acks go there).
    composer: NodeId,
    /// The peer feeding this hop (Connection Manager accounting, §2).
    upstream: NodeId,
    /// The peer this hop streams to.
    downstream: NodeId,
    /// Setup job if still queued.
    setup_job: Option<JobId>,
    acked: bool,
}

/// The full per-node state machine. See the crate docs for the driver
/// contract.
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
    /// Span id of the event currently being handled:
    /// `(node_id << 32) | span_counter`.
    cur_span: u64,
    /// Trace id the current handling episode belongs to (0 = untraced).
    cur_trace: u64,
    /// Causal parent of the current span — the sender-side span whose
    /// message triggered this episode (0 = root or untraced).
    cur_parent: u64,
    /// Per-session `(trace_id, allocation span)` links, so session timers
    /// (`SessionEnd`, `ComposeTimeout`) and late acks re-enter the trace
    /// that allocated the session with a deterministic parent.
    session_traces: BTreeMap<SessionId, (u64, u64)>,
    /// The lifecycle state controller (arm-store). Protocol handlers only
    /// enqueue intents; the controller's tick at the end of every
    /// [`PeerNode::on_event`] is the single place lifecycle phases change.
    controller: StateController,
    /// Last information-base version persisted via
    /// [`Intent::EpochAdvanced`], so the epilogue only logs changes.
    last_logged_version: u64,
    /// Highest RM epoch witnessed in a `PromoteAnnounce` (member side),
    /// so stale announcements from superseded RMs are ignored.
    rm_epoch: u64,
}

impl PeerNode {
    /// Creates a node that has not yet joined any overlay.
    // lint: the constructor mirrors the paper's peer parameters one-to-one;
    // a builder would only obscure the correspondence.
    #[allow(clippy::too_many_arguments)]
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
        let profiler = Profiler::new(id, capacity, bandwidth_kbps, cfg.report_period);
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
            cur_span: 0,
            cur_trace: 0,
            cur_parent: 0,
            session_traces: BTreeMap::new(),
            controller: StateController::new(),
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

    /// The lifecycle state controller (arm-store).
    pub fn controller(&self) -> &StateController {
        &self.controller
    }

    /// Builds the durable snapshot of this node for `--state-dir`
    /// persistence: lifecycle phases from the controller, plus the full
    /// RM information base when this node leads a domain. `pulse_cursor`
    /// is the driver's retained-metrics sequence; `clean` marks a
    /// graceful-shutdown flush; `written_at_us` is informational
    /// wall-clock (never fed back into protocol time).
    pub fn store_snapshot(
        &self,
        now: SimTime,
        pulse_cursor: u64,
        clean: bool,
        written_at_us: u64,
    ) -> StoreSnapshot {
        StoreSnapshot {
            format: SNAPSHOT_FORMAT,
            node: self.id,
            phase: node_phase_tag(self.controller.node_phase()),
            domain: self.domain,
            rm: self.rm,
            rm_state: self.rm_state.as_ref().map(|s| s.snapshot(&self.cfg, now)),
            sessions: self
                .controller
                .live_sessions()
                .into_iter()
                .map(|(s, p)| (s, session_phase_tag(p)))
                .collect(),
            pulse_cursor,
            wal_seq: 0,
            clean,
            written_at_us,
        }
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

    // ---- the event loop ----------------------------------------------------

    /// The trace context outbound messages of the current handling episode
    /// carry: the live trace plus this episode's span as the receiver's
    /// causal parent. [`TraceCtx::NONE`] while no trace is being followed.
    /// Drivers read this *after* [`on_event`](Self::on_event) returns and
    /// attach it to the envelopes of that batch's `Send` actions.
    pub fn out_ctx(&self) -> TraceCtx {
        if self.cur_trace == 0 {
            TraceCtx::NONE
        } else {
            TraceCtx {
                trace_id: self.cur_trace,
                parent_span: self.cur_span,
                flags: 0,
            }
        }
    }

    /// Feeds one event; returns the actions the driver must execute.
    pub fn on_event(&mut self, now: SimTime, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        // Every handled event opens a fresh span — traced or not — so span
        // ids (node id × logical counter) are identical whether tracing is
        // on and merged traces are reproducible.
        self.span_counter += 1;
        self.cur_span = (self.id.raw() << 32) | self.span_counter;
        (self.cur_trace, self.cur_parent) = match &event {
            Event::Msg { ctx, .. } => (ctx.trace_id, ctx.parent_span),
            // A local submission roots a fresh trace at its own span. The
            // span id doubles as the trace id: unique per (node, event).
            Event::SubmitTask(_) => (self.cur_span, 0),
            // Session timers re-enter the trace that allocated the session,
            // parented to the allocation span.
            Event::Timer(TimerKind::SessionEnd(s) | TimerKind::ComposeTimeout(s)) => {
                self.session_traces.get(s).copied().unwrap_or((0, 0))
            }
            _ => (0, 0),
        };
        // Drive the local scheduler up to now and harvest completions
        // before handling anything else.
        self.sched.advance_to(now);
        self.harvest_setups(now, &mut actions);

        match event {
            Event::Start { bootstrap } => self.on_start(now, bootstrap, &mut actions),
            Event::Msg { from, msg, .. } => self.on_msg(now, from, msg, &mut actions),
            Event::Timer(kind) => self.on_timer(now, kind, &mut actions),
            Event::SubmitTask(task) => self.on_submit(now, task, &mut actions),
            Event::Renegotiate { task, new_qos } => match self.role {
                Role::Rm => self.rm_on_renegotiate(task, new_qos),
                Role::Member => {
                    if let Some(rm) = self.rm {
                        actions.push(Action::Send {
                            to: rm,
                            msg: Message::RenegotiateQos { task, new_qos },
                        });
                    }
                }
                _ => {}
            },
            Event::Shutdown { graceful } => self.on_shutdown(graceful, &mut actions),
            Event::Recover { snapshot, intents } => {
                self.on_recover(now, *snapshot, intents, &mut actions)
            }
        }
        // Durability epilogue. Telemetry actions mark exactly the terminal
        // and repair transitions, so derive their intents centrally instead
        // of scattering them through every handler.
        let mut derived: Vec<Intent> = Vec::new();
        for a in actions.iter() {
            match a {
                Action::Outcome { task, outcome, .. } => derived.push(Intent::TaskResolved {
                    task: *task,
                    outcome: *outcome,
                }),
                Action::SessionRepaired { session, ok, .. } => {
                    derived.push(Intent::RepairFinished {
                        session: *session,
                        ok: *ok,
                    })
                }
                Action::SessionReassigned { session, .. } => {
                    derived.push(Intent::SessionMigrated { session: *session })
                }
                Action::Promoted { domain, .. } => derived.push(Intent::RmAssumed {
                    domain: *domain,
                    version: self.rm_state.as_ref().map(|s| s.version).unwrap_or(0),
                }),
                _ => {}
            }
        }
        for i in derived {
            intend(&mut self.controller, &mut actions, i);
        }
        // Persist information-base epoch advances (join/leave/advertise/
        // edge retirement all bump `version`) once per event.
        if let Some(state) = self.rm_state.as_ref() {
            if state.version != self.last_logged_version {
                self.last_logged_version = state.version;
                intend(
                    &mut self.controller,
                    &mut actions,
                    Intent::EpochAdvanced {
                        version: state.version,
                    },
                );
            }
        }
        // The idempotent handler loop: every event doubles as its periodic
        // tick, retrying deferred transitions (NVIDIA BMM pattern).
        self.controller.tick();
        actions
    }

    fn on_start(&mut self, now: SimTime, bootstrap: Option<NodeId>, actions: &mut Vec<Action>) {
        if self.role != Role::Idle {
            return;
        }
        self.bootstrap = bootstrap;
        intend(
            &mut self.controller,
            actions,
            Intent::NodeStarted { bootstrap },
        );
        match bootstrap {
            None => {
                // Found the overlay: become the first RM.
                self.become_rm(DomainId::new(self.id.raw()), now, Vec::new(), actions);
            }
            Some(contact) => {
                self.role = Role::Joining;
                self.join_hops_left = 8;
                actions.push(Action::Send {
                    to: contact,
                    msg: Message::JoinRequest {
                        candidacy: self.candidacy(now),
                    },
                });
                actions.push(Action::SetTimer {
                    kind: TimerKind::JoinRetry,
                    after: self.cfg.join_timeout,
                });
            }
        }
    }

    fn become_rm(
        &mut self,
        domain: DomainId,
        now: SimTime,
        known_rms: Vec<(DomainId, NodeId)>,
        actions: &mut Vec<Action>,
    ) {
        self.role = Role::Rm;
        self.domain = Some(domain);
        self.rm = Some(self.id);
        self.last_rm_heard = now;
        intend(
            &mut self.controller,
            actions,
            Intent::DomainFounded { domain },
        );
        let mut state = RmState::new(
            domain,
            self.id,
            PeerInfo::idle(self.capacity, self.bandwidth_kbps),
            self.candidacy(now),
            now,
        );
        for (d, n) in known_rms {
            if d != domain {
                state.known_rms.insert(d, n);
            }
        }
        state.register_inventory(self.id, &self.objects, &self.services);
        let members = state.domain_size() as u64;
        self.rm_state = Some(state);
        push_trace(
            actions,
            self.tracing,
            now,
            self.id,
            Some(domain),
            (self.cur_trace, self.cur_span, self.cur_parent),
            TraceKind::RmElected { members },
        );
        self.arm_common_timers(actions);
        self.arm_rm_timers(actions);
    }

    fn arm_common_timers(&mut self, actions: &mut Vec<Action>) {
        if !self.hb_armed {
            self.hb_armed = true;
            actions.push(Action::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.cfg.heartbeat_period,
            });
        }
        if !self.report_armed {
            self.report_armed = true;
            actions.push(Action::SetTimer {
                kind: TimerKind::Report,
                after: self.cfg.report_period,
            });
        }
    }

    fn arm_rm_timers(&mut self, actions: &mut Vec<Action>) {
        if self.rm_timers_armed {
            return;
        }
        self.rm_timers_armed = true;
        actions.push(Action::SetTimer {
            kind: TimerKind::Gossip,
            after: self.cfg.gossip_period,
        });
        actions.push(Action::SetTimer {
            kind: TimerKind::Backup,
            after: self.cfg.backup_period,
        });
        actions.push(Action::SetTimer {
            kind: TimerKind::Adapt,
            after: self.cfg.adapt_period,
        });
    }

    // ---- messages ----------------------------------------------------------

    fn on_msg(&mut self, now: SimTime, from: NodeId, msg: Message, actions: &mut Vec<Action>) {
        if self.role == Role::Idle {
            return;
        }
        // One causal hop: a traced message reached this peer. Untraced
        // traffic (periodic heartbeats, gossip) stays silent.
        if self.tracing && self.cur_trace != 0 {
            push_trace(
                actions,
                true,
                now,
                self.id,
                self.domain,
                (self.cur_trace, self.cur_span, self.cur_parent),
                TraceKind::Hop {
                    msg: msg.kind().into(),
                    from,
                },
            );
        }
        if Some(from) == self.rm {
            self.last_rm_heard = now;
        }
        if let Some(rm) = self.rm_state.as_mut() {
            rm.touch(from, now);
        }
        match msg {
            Message::JoinRequest { candidacy } => self.on_join_request(now, candidacy, actions),
            Message::JoinRedirect { to } => {
                // Follow the redirect within the hop budget; the pending
                // JoinRetry timer (armed at Start/retry) is the only thing
                // that re-initiates an attempt, so redirect rings cannot
                // multiply request chains.
                if self.role == Role::Joining && to != self.id && self.join_hops_left > 0 {
                    self.join_hops_left -= 1;
                    actions.push(Action::Send {
                        to,
                        msg: Message::JoinRequest {
                            candidacy: self.candidacy(now),
                        },
                    });
                }
            }
            Message::JoinAccept {
                domain,
                rm,
                as_new_rm,
                new_domain,
                known_rms,
            } => self.on_join_accept(now, domain, rm, as_new_rm, new_domain, known_rms, actions),
            Message::Advertise { objects, services } => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.register_inventory(from, &objects, &services);
                }
            }
            Message::Leave { node } => self.on_leave(now, node, actions),
            Message::Heartbeat {
                from: hb_from,
                sent_at,
            } => {
                actions.push(Action::Send {
                    to: hb_from,
                    msg: Message::HeartbeatAck {
                        from: self.id,
                        probe_sent_at: sent_at,
                    },
                });
            }
            Message::HeartbeatAck {
                from: ack_from,
                probe_sent_at,
            } => {
                let rtt = now.saturating_since(probe_sent_at).as_secs_f64();
                self.profiler.observe_comm(ack_from, rtt);
            }
            Message::BackupUpdate { snapshot } => {
                if snapshot.domain == self.domain.unwrap_or(DomainId::new(u64::MAX)) {
                    self.backup_snapshot = Some(*snapshot);
                }
            }
            Message::PromoteAnnounce {
                new_rm,
                domain,
                version,
            } => self.on_promote_announce(now, new_rm, domain, version, actions),
            Message::LoadReport(report) => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.apply_report(&report, now);
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
                    self.rm_handle_task(now, task, Vec::new(), actions);
                } else if let Some(rm) = self.rm {
                    // Not an RM (e.g. post-failover stale client): forward.
                    actions.push(Action::Send {
                        to: rm,
                        msg: Message::TaskQuery { task },
                    });
                }
            }
            Message::TaskRedirect {
                task,
                tried_domains,
            } => {
                if self.role == Role::Rm {
                    self.rm_handle_task(now, task, tried_domains, actions);
                }
            }
            Message::TaskReply { task, reply } => {
                actions.push(Action::ReplyReceived {
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
            } => self.on_compose(now, from, session, &graph, hop, deadline, actions),
            Message::ComposeAck {
                session,
                hop,
                from: acker,
            } => {
                self.rm_on_compose_ack(now, session, hop, acker, actions);
            }
            Message::SessionEnd { session } => self.on_session_end_local(session),
            Message::ComposeNack {
                session,
                hop,
                from: nacker,
                ..
            } => self.rm_on_compose_nack(now, session, hop, nacker, actions),
            Message::RenegotiateQos { task, new_qos } => {
                if self.role == Role::Rm {
                    self.rm_on_renegotiate(task, new_qos);
                }
            }
            Message::Reassign { session, graph } => {
                // Offline-established migration (§4.5): swap local hops
                // without setup jobs or acks.
                self.close_session_hops(session);
                for (i, h) in graph.hops.iter().enumerate() {
                    if h.peer == self.id {
                        self.profiler
                            .session_opened(h.cost.work_per_sec, h.cost.bandwidth_kbps);
                        let upstream = if i == 0 {
                            graph.source
                        } else {
                            graph.hops[i - 1].peer
                        };
                        let downstream = graph
                            .hops
                            .get(i + 1)
                            .map(|n| n.peer)
                            .unwrap_or(graph.receiver);
                        self.local_hops.insert(
                            (session, i),
                            LocalHop {
                                work_per_sec: h.cost.work_per_sec,
                                bandwidth_kbps: h.cost.bandwidth_kbps,
                                composer: from,
                                upstream,
                                downstream,
                                setup_job: None,
                                acked: true,
                            },
                        );
                    }
                }
            }
        }
    }

    fn on_join_request(&mut self, now: SimTime, candidacy: RmCandidacy, actions: &mut Vec<Action>) {
        let tracing = self.tracing;
        let me = self.id;
        match self.role {
            Role::Rm => {
                // Role and rm_state are updated together, but a panic here
                // would take the whole peer down on a protocol hiccup —
                // degrade to dropping the request instead.
                let Some(state) = self.rm_state.as_mut() else {
                    return;
                };
                let my_domain = state.domain;
                let known: Vec<(DomainId, NodeId)> = std::iter::once((state.domain, state.me))
                    .chain(state.known_rms.iter().map(|(d, n)| (*d, *n)))
                    .collect();
                if state.domain_size() < self.cfg.max_domain_size {
                    state.admit_member(candidacy.clone(), now);
                    actions.push(Action::Send {
                        to: candidacy.node,
                        msg: Message::JoinAccept {
                            domain: state.domain,
                            rm: self.id,
                            as_new_rm: false,
                            new_domain: None,
                            known_rms: known,
                        },
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::JoinAccepted {
                            member: candidacy.node,
                        },
                    );
                } else if candidacy.qualifies(&self.cfg.rm_requirements) {
                    // Domain full and the newcomer qualifies: it founds a
                    // new domain (§4.1 splitting).
                    let new_domain = DomainId::new(candidacy.node.raw());
                    state.known_rms.insert(new_domain, candidacy.node);
                    actions.push(Action::Send {
                        to: candidacy.node,
                        msg: Message::JoinAccept {
                            domain: state.domain,
                            rm: self.id,
                            as_new_rm: true,
                            new_domain: Some(new_domain),
                            known_rms: known,
                        },
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::Qualification {
                            candidate: candidacy.node,
                            score: candidacy.score(),
                        },
                    );
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::DomainSplit {
                            new_domain,
                            new_rm: candidacy.node,
                            moved: 1,
                        },
                    );
                } else if let Some((_, other_rm)) = state
                    .known_rms
                    .iter()
                    .map(|(d, n)| (*d, *n))
                    .find(|(_, n)| *n != self.id)
                {
                    actions.push(Action::Send {
                        to: candidacy.node,
                        msg: Message::JoinRedirect { to: other_rm },
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::JoinRedirected {
                            member: candidacy.node,
                            to: other_rm,
                        },
                    );
                } else {
                    // No alternative exists: admit anyway rather than
                    // orphan the peer (pragmatic deviation, documented).
                    state.admit_member(candidacy.clone(), now);
                    actions.push(Action::Send {
                        to: candidacy.node,
                        msg: Message::JoinAccept {
                            domain: state.domain,
                            rm: self.id,
                            as_new_rm: false,
                            new_domain: None,
                            known_rms: known,
                        },
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::JoinAccepted {
                            member: candidacy.node,
                        },
                    );
                }
            }
            Role::Member => {
                if let Some(rm) = self.rm {
                    actions.push(Action::Send {
                        to: candidacy.node,
                        msg: Message::JoinRedirect { to: rm },
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        self.domain,
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::JoinRedirected {
                            member: candidacy.node,
                            to: rm,
                        },
                    );
                }
            }
            Role::Joining | Role::Idle => {}
        }
    }

    // lint: the argument list is the JoinAccept wire payload, destructured
    // by the caller's match; bundling it back up would just re-invent the enum.
    #[allow(clippy::too_many_arguments)]
    fn on_join_accept(
        &mut self,
        now: SimTime,
        domain: DomainId,
        rm: NodeId,
        as_new_rm: bool,
        new_domain: Option<DomainId>,
        known_rms: Vec<(DomainId, NodeId)>,
        actions: &mut Vec<Action>,
    ) {
        if self.role != Role::Joining {
            return;
        }
        if as_new_rm {
            let nd = new_domain.unwrap_or_else(|| DomainId::new(self.id.raw()));
            self.become_rm(nd, now, known_rms, actions);
        } else {
            self.role = Role::Member;
            self.domain = Some(domain);
            self.rm = Some(rm);
            self.last_rm_heard = now;
            intend(
                &mut self.controller,
                actions,
                Intent::JoinAccepted { domain, rm },
            );
            actions.push(Action::Send {
                to: rm,
                msg: Message::Advertise {
                    objects: self.objects.clone(),
                    services: self.services.clone(),
                },
            });
            self.arm_common_timers(actions);
        }
    }

    /// Reconciles a domain-takeover claim. Members follow the freshest
    /// epoch; an RM hearing a competing claim for its own domain yields
    /// to a strictly fresher epoch (ties break toward the lower node id)
    /// or re-asserts its claim otherwise — the rule that lets a crash-
    /// recovered RM and an interim promoted backup converge on one leader.
    fn on_promote_announce(
        &mut self,
        now: SimTime,
        new_rm: NodeId,
        domain: DomainId,
        version: u64,
        actions: &mut Vec<Action>,
    ) {
        if Some(domain) != self.domain || new_rm == self.id {
            return;
        }
        match self.role {
            Role::Member => {
                if version >= self.rm_epoch {
                    // A changed RM or a bumped epoch both mean the leader
                    // rebuilt its information base from a snapshot — which
                    // carries the resource graph but not the object
                    // directory. Same-RM same-epoch re-assertions skip the
                    // re-advertise.
                    let adopted = self.rm != Some(new_rm) || version > self.rm_epoch;
                    self.rm_epoch = version;
                    self.rm = Some(new_rm);
                    self.last_rm_heard = now;
                    if adopted {
                        actions.push(Action::Send {
                            to: new_rm,
                            msg: Message::Advertise {
                                objects: self.objects.clone(),
                                services: self.services.clone(),
                            },
                        });
                    }
                }
            }
            Role::Rm => {
                let mine = self.rm_state.as_ref().map(|s| s.version).unwrap_or(0);
                let theirs_win = version > mine || (version == mine && new_rm < self.id);
                if theirs_win {
                    // Stale epoch dropped: step down to member under the
                    // winner and re-advertise local inventory so its
                    // information base learns this node's offerings.
                    self.rm_state = None;
                    self.rm_timers_armed = false;
                    self.role = Role::Member;
                    self.rm = Some(new_rm);
                    self.rm_epoch = version;
                    self.last_rm_heard = now;
                    intend(
                        &mut self.controller,
                        actions,
                        Intent::RmYielded { to: new_rm },
                    );
                    actions.push(Action::Send {
                        to: new_rm,
                        msg: Message::Advertise {
                            objects: self.objects.clone(),
                            services: self.services.clone(),
                        },
                    });
                } else if let Some(state) = self.rm_state.as_ref() {
                    // Our epoch is fresher: re-assert so stale members (and
                    // the losing claimant) converge back to us.
                    let mut targets: Vec<NodeId> = state
                        .members
                        .keys()
                        .copied()
                        .filter(|m| *m != self.id)
                        .collect();
                    if !targets.contains(&new_rm) {
                        targets.push(new_rm);
                    }
                    for m in targets {
                        actions.push(Action::Send {
                            to: m,
                            msg: Message::PromoteAnnounce {
                                new_rm: self.id,
                                domain,
                                version: mine,
                            },
                        });
                    }
                }
            }
            Role::Joining | Role::Idle => {}
        }
    }

    fn on_leave(&mut self, now: SimTime, node: NodeId, actions: &mut Vec<Action>) {
        if self.role == Role::Rm {
            self.rm_handle_member_loss(now, node, actions);
        } else if Some(node) == self.rm {
            // Our RM left gracefully. If we hold the backup, take over.
            self.try_promote(now, actions);
        }
    }

    // ---- timers -------------------------------------------------------------

    fn on_timer(&mut self, now: SimTime, kind: TimerKind, actions: &mut Vec<Action>) {
        if self.role == Role::Idle {
            return;
        }
        match kind {
            TimerKind::Heartbeat => self.on_heartbeat_tick(now, actions),
            TimerKind::Report => self.on_report_tick(now, actions),
            TimerKind::Gossip => self.on_gossip_tick(now, actions),
            TimerKind::Backup => self.on_backup_tick(now, actions),
            TimerKind::Adapt => self.on_adapt_tick(now, actions),
            TimerKind::SchedPoll => {
                self.sched_poll_armed = false;
                self.harvest_setups(now, actions);
                self.maybe_arm_sched_poll(actions);
            }
            TimerKind::JoinRetry => {
                if self.role == Role::Joining {
                    self.join_hops_left = 8;
                    if let Some(contact) = self.bootstrap {
                        actions.push(Action::Send {
                            to: contact,
                            msg: Message::JoinRequest {
                                candidacy: self.candidacy(now),
                            },
                        });
                        actions.push(Action::SetTimer {
                            kind: TimerKind::JoinRetry,
                            after: self.cfg.join_timeout,
                        });
                    } else {
                        self.become_rm(DomainId::new(self.id.raw()), now, Vec::new(), actions);
                    }
                }
            }
            TimerKind::SessionEnd(session) => self.rm_on_session_end(now, session, actions),
            TimerKind::ComposeTimeout(session) => self.rm_on_compose_timeout(now, session, actions),
        }
    }

    fn on_heartbeat_tick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        match self.role {
            Role::Rm => {
                let Some(state) = self.rm_state.as_mut() else {
                    return;
                };
                let members: Vec<NodeId> = state
                    .members
                    .keys()
                    .copied()
                    .filter(|m| *m != self.id)
                    .collect();
                for m in &members {
                    actions.push(Action::Send {
                        to: *m,
                        msg: Message::Heartbeat {
                            from: self.id,
                            sent_at: now,
                        },
                    });
                }
                let silent = state.silent_members(now, self.cfg.heartbeat_timeout);
                for dead in silent {
                    self.rm_handle_member_loss(now, dead, actions);
                }
            }
            Role::Member => {
                if let Some(rm) = self.rm {
                    actions.push(Action::Send {
                        to: rm,
                        msg: Message::Heartbeat {
                            from: self.id,
                            sent_at: now,
                        },
                    });
                }
                let silence = now.saturating_since(self.last_rm_heard);
                if silence > self.cfg.heartbeat_timeout {
                    if self.backup_snapshot.is_some() {
                        self.try_promote(now, actions);
                    } else if silence > self.cfg.heartbeat_timeout * 2 {
                        // Orphaned: rejoin through the original contact.
                        self.role = Role::Joining;
                        self.join_hops_left = 8;
                        self.rm = None;
                        if let Some(contact) = self.bootstrap {
                            actions.push(Action::Send {
                                to: contact,
                                msg: Message::JoinRequest {
                                    candidacy: self.candidacy(now),
                                },
                            });
                            actions.push(Action::SetTimer {
                                kind: TimerKind::JoinRetry,
                                after: self.cfg.join_timeout,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        if matches!(self.role, Role::Rm | Role::Member) {
            actions.push(Action::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.cfg.heartbeat_period,
            });
        } else {
            self.hb_armed = false;
        }
    }

    fn on_report_tick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        self.profiler.set_transient(0.0, self.sched.queue_len());
        let report = self.profiler.make_report(now);
        match self.role {
            Role::Rm => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.apply_report(&report, now);
                }
            }
            Role::Member => {
                if let Some(rm) = self.rm {
                    actions.push(Action::Send {
                        to: rm,
                        msg: Message::LoadReport(report),
                    });
                }
            }
            _ => {}
        }
        if matches!(self.role, Role::Rm | Role::Member) {
            actions.push(Action::SetTimer {
                kind: TimerKind::Report,
                after: self.cfg.report_period,
            });
        } else {
            self.report_armed = false;
        }
    }

    fn on_gossip_tick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if self.role != Role::Rm {
            self.rm_timers_armed = false;
            return;
        }
        let Some(state) = self.rm_state.as_ref() else {
            return;
        };
        let mut summaries = vec![state.own_summary(&self.cfg)];
        summaries.extend(state.summaries.values().cloned());
        let targets: Vec<NodeId> = state
            .known_rms
            .values()
            .copied()
            .filter(|n| *n != self.id)
            .collect();
        if !targets.is_empty() {
            let k = self.cfg.gossip_fanout.min(targets.len());
            let picks = self.rng.sample_indices(targets.len(), k);
            // Set-bit density of our own Bloom object summary: how much
            // we are telling the remote RM about.
            let bits_set = summaries
                .first()
                .map(|own| (own.objects.fill_ratio() * own.objects.num_bits() as f64) as u64)
                .unwrap_or(0);
            push_trace(
                actions,
                self.tracing,
                now,
                self.id,
                self.domain,
                (self.cur_trace, self.cur_span, self.cur_parent),
                TraceKind::GossipRound {
                    fanout: picks.len() as u64,
                },
            );
            for i in picks {
                actions.push(Action::Send {
                    to: targets[i],
                    msg: Message::GossipDigest {
                        summaries: summaries.clone(),
                    },
                });
                push_trace(
                    actions,
                    self.tracing,
                    now,
                    self.id,
                    self.domain,
                    (self.cur_trace, self.cur_span, self.cur_parent),
                    TraceKind::BloomExchange {
                        with: targets[i],
                        bits_set,
                    },
                );
            }
        }
        actions.push(Action::SetTimer {
            kind: TimerKind::Gossip,
            after: self.cfg.gossip_period,
        });
    }

    fn on_backup_tick(&mut self, _now: SimTime, actions: &mut Vec<Action>) {
        if self.role != Role::Rm {
            return;
        }
        let tracing = self.tracing;
        let me = self.id;
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let my_domain = state.domain;
        let backup = state.choose_backup(&self.cfg, _now);
        // Trace the qualification outcome only when the choice changes —
        // the periodic re-election usually re-confirms the incumbent.
        if tracing && backup != self.traced_backup {
            if let Some(b) = backup {
                let score = state
                    .members
                    .get(&b)
                    .map(|m| m.candidacy.score())
                    .unwrap_or(0.0);
                push_trace(
                    actions,
                    true,
                    _now,
                    me,
                    Some(my_domain),
                    (self.cur_trace, self.cur_span, self.cur_parent),
                    TraceKind::Qualification {
                        candidate: b,
                        score,
                    },
                );
            }
            self.traced_backup = backup;
        }
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        if let Some(b) = backup {
            if b != self.id {
                let snapshot = state.snapshot(&self.cfg, _now);
                actions.push(Action::Send {
                    to: b,
                    msg: Message::BackupUpdate {
                        snapshot: Box::new(snapshot),
                    },
                });
            }
        }
        actions.push(Action::SetTimer {
            kind: TimerKind::Backup,
            after: self.cfg.backup_period,
        });
    }

    fn on_adapt_tick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if self.role != Role::Rm {
            return;
        }
        if self.cfg.reassignment_enabled {
            self.rm_reassign_hot_sessions(now, actions);
        }
        actions.push(Action::SetTimer {
            kind: TimerKind::Adapt,
            after: self.cfg.adapt_period,
        });
    }

    // ---- local sessions (participant side) ----------------------------------

    // lint: the argument list is the Compose wire payload, destructured by
    // the caller's match; see on_join_accept.
    #[allow(clippy::too_many_arguments)]
    fn on_compose(
        &mut self,
        now: SimTime,
        from: NodeId,
        session: SessionId,
        graph: &arm_model::ServiceGraph,
        hop: usize,
        deadline: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let Some(h) = graph.hops.get(hop) else {
            return;
        };
        if h.peer != self.id {
            return;
        }
        let key = (session, hop);
        if let Some(existing) = self.local_hops.get(&key) {
            if existing.acked {
                // Repair re-send: we are already running it; re-ack.
                actions.push(Action::Send {
                    to: from,
                    msg: Message::ComposeAck {
                        session,
                        hop,
                        from: self.id,
                    },
                });
            }
            return;
        }
        // Dependencies (§3.2 item 5): upstream feeds us, downstream
        // receives from us.
        let upstream = if hop == 0 {
            graph.source
        } else {
            graph.hops[hop - 1].peer
        };
        let downstream = graph
            .hops
            .get(hop + 1)
            .map(|n| n.peer)
            .unwrap_or(graph.receiver);

        // Connection Manager limit (§2): would this hop push the set of
        // connected peers past the cap? Count the RM plus every adjacent
        // peer of every active hop plus the new pair.
        let mut connected: Vec<NodeId> = self
            .local_hops
            .values()
            .flat_map(|l| [l.upstream, l.downstream])
            .chain(self.rm)
            .chain([upstream, downstream])
            .collect();
        connected.sort_unstable();
        connected.dedup();
        connected.retain(|p| *p != self.id);
        if connected.len() > self.cfg.max_connections {
            actions.push(Action::Send {
                to: from,
                msg: Message::ComposeNack {
                    session,
                    hop,
                    from: self.id,
                    reason: arm_proto::NackReason::ConnectionLimit,
                },
            });
            return;
        }

        self.profiler
            .session_opened(h.cost.work_per_sec, h.cost.bandwidth_kbps);
        self.profiler.add_upstream(upstream);
        self.profiler.add_downstream(downstream);

        if h.cost.setup_work <= 0.0 {
            self.local_hops.insert(
                key,
                LocalHop {
                    work_per_sec: h.cost.work_per_sec,
                    bandwidth_kbps: h.cost.bandwidth_kbps,
                    composer: from,
                    upstream,
                    downstream,
                    setup_job: None,
                    acked: true,
                },
            );
            actions.push(Action::Send {
                to: from,
                msg: Message::ComposeAck {
                    session,
                    hop,
                    from: self.id,
                },
            });
            return;
        }

        // Queue the setup computation through the Local Scheduler (§2).
        let job_id = self.sched.next_job_id();
        self.sched.submit(Job {
            id: job_id,
            arrival: now,
            deadline,
            work: h.cost.setup_work,
            importance: arm_model::Importance::NORMAL,
        });
        self.pending_setups.insert(job_id, (session, hop));
        self.local_hops.insert(
            key,
            LocalHop {
                work_per_sec: h.cost.work_per_sec,
                bandwidth_kbps: h.cost.bandwidth_kbps,
                composer: from,
                upstream,
                downstream,
                setup_job: Some(job_id),
                acked: false,
            },
        );
        self.maybe_arm_sched_poll(actions);
    }

    fn maybe_arm_sched_poll(&mut self, actions: &mut Vec<Action>) {
        if !self.sched_poll_armed && self.sched.is_busy() {
            self.sched_poll_armed = true;
            actions.push(Action::SetTimer {
                kind: TimerKind::SchedPoll,
                after: self.cfg.sched_poll,
            });
        }
    }

    /// Collects finished setup jobs and acks their composition.
    fn harvest_setups(&mut self, _now: SimTime, actions: &mut Vec<Action>) {
        // Drain the scheduler's dispatch log every harvest (so it cannot
        // grow unbounded); it only becomes trace events while tracing.
        let decisions = self.sched.take_decisions();
        if self.tracing {
            for d in decisions {
                actions.push(Action::Trace(TraceEvent::new(
                    d.at,
                    self.id,
                    self.domain,
                    TraceKind::SchedDecision {
                        job: d.job.raw(),
                        laxity_us: d.laxity_us,
                    },
                )));
            }
        }
        if self.pending_setups.is_empty() {
            // Still drain completion records so history does not grow.
            let _ = self.sched.take_completed();
            return;
        }
        for done in self.sched.take_completed() {
            let Some((session, hop)) = self.pending_setups.remove(&done.job.id) else {
                continue;
            };
            let Some(local) = self.local_hops.get_mut(&(session, hop)) else {
                continue; // session ended while the job was queued
            };
            local.setup_job = None;
            local.acked = true;
            let composer = local.composer;
            self.profiler.observe_execution(
                arm_util::ServiceId::new(0),
                done.response_time().as_secs_f64(),
            );
            actions.push(Action::Send {
                to: composer,
                msg: Message::ComposeAck {
                    session,
                    hop,
                    from: self.id,
                },
            });
        }
    }

    fn close_session_hops(&mut self, session: SessionId) {
        let keys: Vec<(SessionId, usize)> = self
            .local_hops
            .keys()
            .filter(|(s, _)| *s == session)
            .copied()
            .collect();
        for key in keys {
            if let Some(h) = self.local_hops.remove(&key) {
                self.profiler
                    .session_closed(h.work_per_sec, h.bandwidth_kbps);
                if let Some(job) = h.setup_job {
                    self.pending_setups.remove(&job);
                }
            }
        }
    }

    fn on_session_end_local(&mut self, session: SessionId) {
        self.close_session_hops(session);
    }

    /// Ends `session` on each distinct peer of `peers` in id order: locally
    /// when the peer is this node, by `SessionEnd` otherwise.
    fn end_session_on(
        &mut self,
        session: SessionId,
        mut peers: Vec<NodeId>,
        actions: &mut Vec<Action>,
    ) {
        peers.sort_unstable();
        peers.dedup();
        for p in peers {
            if p == self.id {
                self.close_session_hops(session);
            } else {
                actions.push(Action::Send {
                    to: p,
                    msg: Message::SessionEnd { session },
                });
            }
        }
    }

    // ---- RM duties -----------------------------------------------------------

    fn rm_handle_task(
        &mut self,
        now: SimTime,
        task: TaskSpec,
        tried: Vec<DomainId>,
        actions: &mut Vec<Action>,
    ) {
        let tracing = self.tracing;
        let me = self.id;
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let my_domain = state.domain;
        push_trace(
            actions,
            tracing,
            now,
            me,
            Some(my_domain),
            (self.cur_trace, self.cur_span, self.cur_parent),
            TraceKind::TaskPhase {
                task: task.id,
                phase: TaskPhase::Query,
            },
        );

        let critical = self
            .cfg
            .critical_bypass
            .is_some_and(|floor| task.qos.importance.value() >= floor);
        let overloaded = self.cfg.admission_enabled && !critical && state.overloaded(&self.cfg);
        let alloc_result = if overloaded {
            Err(arm_model::alloc::AllocError::NoFeasiblePath { explored: 0 })
        } else {
            push_trace(
                actions,
                tracing,
                now,
                me,
                Some(my_domain),
                (self.cur_trace, self.cur_span, self.cur_parent),
                TraceKind::TaskPhase {
                    task: task.id,
                    phase: TaskPhase::Allocation,
                },
            );
            state.allocate_task(&task, &self.cfg, &mut self.rng)
        };

        match alloc_result {
            Ok((alloc, source)) => {
                let session = state.next_session_id();
                let deadline = task.absolute_deadline();
                let requester = task.requester;
                let task_id = task.id;
                let session_secs = task.session_secs;
                let submitted_at = task.submitted_at;
                let rec = state.commit_session(session, task, &alloc, source, now);
                let graph = rec.graph.clone();
                intend(
                    &mut self.controller,
                    actions,
                    Intent::SessionAllocated {
                        session,
                        task: task_id,
                    },
                );
                // Anchor later session-scoped events (Stream on compose-ack,
                // Terminal, repair) to this allocation decision so their
                // parentage is deterministic regardless of ack arrival order.
                if self.cur_trace != 0 {
                    self.session_traces
                        .insert(session, (self.cur_trace, self.cur_span));
                }
                push_trace(
                    actions,
                    tracing,
                    now,
                    me,
                    Some(my_domain),
                    (self.cur_trace, self.cur_span, self.cur_parent),
                    TraceKind::AdmissionAccepted { task: task_id },
                );

                actions.push(Action::Send {
                    to: requester,
                    msg: Message::TaskReply {
                        task: task_id,
                        reply: TaskReplyKind::Allocated(graph.clone()),
                    },
                });
                push_trace(
                    actions,
                    tracing,
                    now,
                    me,
                    Some(my_domain),
                    (self.cur_trace, self.cur_span, self.cur_parent),
                    TraceKind::TaskPhase {
                        task: task_id,
                        phase: if graph.hops.is_empty() {
                            // Direct fetch: nothing to compose.
                            TaskPhase::Stream
                        } else {
                            TaskPhase::Composition
                        },
                    },
                );
                if graph.hops.is_empty() {
                    // Direct fetch: streaming starts immediately.
                    if let Some(rec) = state.sessions.get_mut(&session) {
                        rec.outcome_reported = true;
                    }
                    intend(
                        &mut self.controller,
                        actions,
                        Intent::StreamStarted { session },
                    );
                    let on_time = now <= deadline;
                    actions.push(Action::Outcome {
                        task: task_id,
                        outcome: if on_time {
                            TaskOutcome::CompletedOnTime
                        } else {
                            TaskOutcome::CompletedLate
                        },
                        at: now,
                        response: Some(now.saturating_since(submitted_at)),
                    });
                    push_trace(
                        actions,
                        tracing,
                        now,
                        me,
                        Some(my_domain),
                        (self.cur_trace, self.cur_span, self.cur_parent),
                        TraceKind::TaskPhase {
                            task: task_id,
                            phase: TaskPhase::Terminal,
                        },
                    );
                    actions.push(Action::SetTimer {
                        kind: TimerKind::SessionEnd(session),
                        after: arm_util::SimDuration::from_secs_f64(session_secs.max(0.001)),
                    });
                } else {
                    intend(
                        &mut self.controller,
                        actions,
                        Intent::ComposeLaunched { session },
                    );
                    for (i, h) in graph.hops.iter().enumerate() {
                        actions.push(Action::Send {
                            to: h.peer,
                            msg: Message::Compose {
                                session,
                                graph: graph.clone(),
                                hop: i,
                                deadline,
                            },
                        });
                    }
                    actions.push(Action::SetTimer {
                        kind: TimerKind::ComposeTimeout(session),
                        after: self.cfg.compose_timeout,
                    });
                }
            }
            Err(_) => {
                // Trace the local refusal even when the task is then
                // redirected — each domain's admission verdict is its own
                // observable decision.
                push_trace(
                    actions,
                    tracing,
                    now,
                    me,
                    Some(my_domain),
                    (self.cur_trace, self.cur_span, self.cur_parent),
                    TraceKind::AdmissionRejected {
                        task: task.id,
                        reason: if overloaded {
                            "domain_overloaded".into()
                        } else {
                            "no_feasible_allocation".into()
                        },
                    },
                );
                // Redirect to another domain (§4.5) or reject.
                let mut tried = tried;
                if !tried.contains(&my_domain) {
                    tried.push(my_domain);
                }
                let target = if tried.len() <= self.cfg.max_redirects {
                    state.pick_redirect(&task.name, &tried)
                } else {
                    None
                };
                match target {
                    Some((_, rm_node)) => {
                        actions.push(Action::Send {
                            to: rm_node,
                            msg: Message::TaskRedirect {
                                task,
                                tried_domains: tried,
                            },
                        });
                    }
                    None => {
                        actions.push(Action::Send {
                            to: task.requester,
                            msg: Message::TaskReply {
                                task: task.id,
                                reply: TaskReplyKind::Rejected {
                                    reason: if overloaded {
                                        "domain overloaded".into()
                                    } else {
                                        "no feasible allocation".into()
                                    },
                                },
                            },
                        });
                        actions.push(Action::Outcome {
                            task: task.id,
                            outcome: TaskOutcome::Rejected,
                            at: now,
                            response: None,
                        });
                        push_trace(
                            actions,
                            tracing,
                            now,
                            me,
                            Some(my_domain),
                            (self.cur_trace, self.cur_span, self.cur_parent),
                            TraceKind::TaskPhase {
                                task: task.id,
                                phase: TaskPhase::Terminal,
                            },
                        );
                    }
                }
            }
        }
    }

    fn rm_on_compose_ack(
        &mut self,
        now: SimTime,
        session: SessionId,
        hop: usize,
        _acker: NodeId,
        actions: &mut Vec<Action>,
    ) {
        let tracing = self.tracing;
        let me = self.id;
        let my_domain = self.domain;
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let Some(rec) = state.sessions.get_mut(&session) else {
            return;
        };
        rec.pending_acks.remove(&hop);
        if rec.fully_acked() && rec.composed_at.is_none() {
            rec.composed_at = Some(now);
            intend(
                &mut self.controller,
                actions,
                Intent::StreamStarted { session },
            );
            // Parent the Stream/Terminal events on the *allocation* span
            // recorded at commit time, not on whichever participant's ack
            // happened to arrive last — that keeps merged timelines
            // reproducible when ack order varies between drivers.
            let (trace, alloc_span) = self
                .session_traces
                .get(&session)
                .copied()
                .unwrap_or((self.cur_trace, self.cur_parent));
            push_trace(
                actions,
                tracing,
                now,
                me,
                my_domain,
                (trace, self.cur_span, alloc_span),
                TraceKind::TaskPhase {
                    task: rec.task.id,
                    phase: TaskPhase::Stream,
                },
            );
            let deadline = rec.task.absolute_deadline();
            if !rec.outcome_reported {
                rec.outcome_reported = true;
                let outcome = if now <= deadline {
                    TaskOutcome::CompletedOnTime
                } else {
                    TaskOutcome::CompletedLate
                };
                actions.push(Action::Outcome {
                    task: rec.task.id,
                    outcome,
                    at: now,
                    response: Some(now.saturating_since(rec.task.submitted_at)),
                });
                push_trace(
                    actions,
                    tracing,
                    now,
                    me,
                    my_domain,
                    (trace, self.cur_span, alloc_span),
                    TraceKind::TaskPhase {
                        task: rec.task.id,
                        phase: TaskPhase::Terminal,
                    },
                );
            }
            actions.push(Action::SetTimer {
                kind: TimerKind::SessionEnd(session),
                after: arm_util::SimDuration::from_secs_f64(rec.task.session_secs.max(0.001)),
            });
        }
    }

    /// A participant declined a hop (§2 connection limit). Retire that
    /// specific service edge from the resource graph — the peer cannot
    /// take more connections — and re-allocate the session around it.
    fn rm_on_compose_nack(
        &mut self,
        now: SimTime,
        session: SessionId,
        hop: usize,
        _nacker: NodeId,
        actions: &mut Vec<Action>,
    ) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let Some(rec) = state.sessions.get(&session) else {
            return;
        };
        if let Some(h) = rec.graph.hops.get(hop) {
            let edge = h.edge;
            state.graph.edge_mut(edge).alive = false;
            state.version += 1;
        }
        self.rm_repair_session(now, session, actions);
    }

    /// QoS renegotiation (§4.5): replace the requirement set of a running
    /// task. Future repairs and reassignments of the session use the new
    /// requirements.
    fn rm_on_renegotiate(&mut self, task: arm_util::TaskId, new_qos: arm_model::QosSpec) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        if let Some(rec) = state.sessions.values_mut().find(|rec| rec.task.id == task) {
            rec.task.qos = new_qos;
        }
    }

    fn rm_on_session_end(&mut self, now: SimTime, session: SessionId, actions: &mut Vec<Action>) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        if !state.sessions.contains_key(&session) {
            return;
        }
        state.release_session_resources(session);
        let Some(rec) = state.sessions.remove(&session) else {
            return;
        };
        intend(
            &mut self.controller,
            actions,
            Intent::SessionClosed { session },
        );
        self.session_traces.remove(&session);
        // Record this episode before fanning out `SessionEnd` messages:
        // they carry this span as the receivers' causal parent, and an
        // unrecorded span would leave their hop events orphaned in the
        // merged timeline.
        push_trace(
            actions,
            self.tracing,
            now,
            self.id,
            self.domain,
            (self.cur_trace, self.cur_span, self.cur_parent),
            TraceKind::SessionClosed { session },
        );
        let peers = rec.graph.hops.iter().map(|h| h.peer).collect();
        self.end_session_on(session, peers, actions);
    }

    fn rm_on_compose_timeout(
        &mut self,
        now: SimTime,
        session: SessionId,
        actions: &mut Vec<Action>,
    ) {
        let Some(state) = self.rm_state.as_ref() else {
            return;
        };
        let Some(rec) = state.sessions.get(&session) else {
            return;
        };
        if rec.composed_at.is_some() {
            return; // completed in time; stale timer
        }
        self.rm_repair_session(now, session, actions);
    }

    fn rm_handle_member_loss(&mut self, now: SimTime, node: NodeId, actions: &mut Vec<Action>) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let was_backup = state.backup == Some(node);
        let affected = state.remove_member(node);
        for session in affected {
            self.rm_repair_session(now, session, actions);
        }
        if was_backup {
            self.on_backup_tick(now, actions);
            // on_backup_tick re-arms its timer; drop the duplicate so only
            // one Backup timer chain stays alive.
            if let Some(pos) = actions.iter().rposition(|a| {
                matches!(
                    a,
                    Action::SetTimer {
                        kind: TimerKind::Backup,
                        ..
                    }
                )
            }) {
                actions.remove(pos);
            }
        }
    }

    /// Re-allocates a session after a participant died (§4.1) or its
    /// composition timed out. The task's QoS deadline is interpreted
    /// relative to the repair instant.
    fn rm_repair_session(&mut self, now: SimTime, session: SessionId, actions: &mut Vec<Action>) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let Some(rec) = state.sessions.get(&session) else {
            return;
        };
        let old_peers: Vec<NodeId> = rec.graph.hops.iter().map(|h| h.peer).collect();
        let task = rec.task.clone();
        let repairs = rec.repairs;
        let was_reported = rec.outcome_reported;
        // Repairs triggered by member loss arrive on an untraced event;
        // re-anchor to the task's own trace via the session record so its
        // timeline stays connected.
        let (trace, alloc_span) = self
            .session_traces
            .get(&session)
            .copied()
            .unwrap_or((self.cur_trace, self.cur_parent));
        intend(
            &mut self.controller,
            actions,
            Intent::RepairStarted { session },
        );
        state.release_session_resources(session);
        state.sessions.remove(&session);

        let give_up = repairs >= 2 || !state.view.contains(task.requester);
        let result = if give_up {
            Err(arm_model::alloc::AllocError::NoFeasiblePath { explored: 0 })
        } else {
            state.allocate_task(&task, &self.cfg, &mut self.rng)
        };

        match result {
            Ok((alloc, source)) => {
                let deadline = now + task.qos.deadline;
                let rec = state.commit_session(session, task, &alloc, source, now);
                rec.repairs = repairs + 1;
                rec.outcome_reported = was_reported;
                let graph = rec.graph.clone();
                let new_peers: Vec<NodeId> = graph.hops.iter().map(|h| h.peer).collect();
                // Tear down on peers no longer used.
                let leaving = old_peers
                    .iter()
                    .copied()
                    .filter(|p| !new_peers.contains(p))
                    .collect();
                self.end_session_on(session, leaving, actions);
                for (i, h) in graph.hops.iter().enumerate() {
                    actions.push(Action::Send {
                        to: h.peer,
                        msg: Message::Compose {
                            session,
                            graph: graph.clone(),
                            hop: i,
                            deadline,
                        },
                    });
                }
                if graph.hops.is_empty() {
                    if let Some(rec) = self
                        .rm_state
                        .as_mut()
                        .and_then(|s| s.sessions.get_mut(&session))
                    {
                        rec.composed_at = Some(now);
                    }
                } else {
                    actions.push(Action::SetTimer {
                        kind: TimerKind::ComposeTimeout(session),
                        after: self.cfg.compose_timeout,
                    });
                }
                actions.push(Action::SessionRepaired {
                    session,
                    ok: true,
                    at: now,
                });
                push_trace(
                    actions,
                    self.tracing,
                    now,
                    self.id,
                    self.domain,
                    (trace, self.cur_span, alloc_span),
                    TraceKind::SessionRepair { session, ok: true },
                );
            }
            Err(_) => {
                self.end_session_on(session, old_peers, actions);
                if !was_reported {
                    actions.push(Action::Outcome {
                        task: task.id,
                        outcome: TaskOutcome::Failed,
                        at: now,
                        response: None,
                    });
                    push_trace(
                        actions,
                        self.tracing,
                        now,
                        self.id,
                        self.domain,
                        (trace, self.cur_span, alloc_span),
                        TraceKind::TaskPhase {
                            task: task.id,
                            phase: TaskPhase::Terminal,
                        },
                    );
                }
                actions.push(Action::SessionRepaired {
                    session,
                    ok: false,
                    at: now,
                });
                push_trace(
                    actions,
                    self.tracing,
                    now,
                    self.id,
                    self.domain,
                    (trace, self.cur_span, alloc_span),
                    TraceKind::SessionRepair { session, ok: false },
                );
                // The session is gone for good; drop its trace anchor.
                self.session_traces.remove(&session);
            }
        }
    }

    /// Adaptation loop (§4.5): migrate sessions off hot peers when a
    /// fairer placement exists.
    fn rm_reassign_hot_sessions(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let threshold = self.cfg.overload_threshold;
        let hot: Vec<NodeId> = state
            .view
            .iter()
            .filter(|(_, info)| info.utilization() > threshold)
            .map(|(id, _)| *id)
            .collect();
        if hot.is_empty() {
            return;
        }
        let candidates: Vec<SessionId> = state
            .sessions
            .iter()
            .filter(|(_, rec)| {
                rec.composed_at.is_some() && rec.graph.hops.iter().any(|h| hot.contains(&h.peer))
            })
            .map(|(id, _)| *id)
            .take(self.cfg.max_reassign_per_tick)
            .collect();

        for session in candidates {
            let Some(state) = self.rm_state.as_mut() else {
                return;
            };
            let Some(rec) = state.sessions.get(&session) else {
                continue;
            };
            let task = rec.task.clone();
            let old_path = rec.graph.path();
            let old_peers: Vec<NodeId> = rec.graph.hops.iter().map(|h| h.peer).collect();
            let old_fairness = state.view.fairness();

            // Evaluate a fresh allocation against the view *minus* this
            // session's own footprint.
            let mut probe = state.clone();
            probe.release_session_resources(session);
            let Ok((alloc, source)) = probe.allocate_task_with(
                &task,
                &self.cfg,
                arm_model::alloc::AllocatorKind::MaxFairness,
                &mut self.rng,
            ) else {
                continue;
            };
            if alloc.path == old_path || alloc.fairness < old_fairness + self.cfg.reassign_margin {
                continue;
            }

            // Commit the migration for real.
            let Some(state) = self.rm_state.as_mut() else {
                return;
            };
            state.release_session_resources(session);
            let Some(old_rec) = state.sessions.remove(&session) else {
                continue;
            };
            let rec = state.commit_session(session, task, &alloc, source, now);
            rec.repairs = old_rec.repairs;
            rec.outcome_reported = old_rec.outcome_reported;
            rec.composed_at = old_rec.composed_at;
            rec.pending_acks.clear(); // offline establishment: no acks
            let graph = rec.graph.clone();
            let new_peers: Vec<NodeId> = graph.hops.iter().map(|h| h.peer).collect();

            let leaving = old_peers
                .iter()
                .copied()
                .filter(|p| !new_peers.contains(p))
                .collect();
            self.end_session_on(session, leaving, actions);
            let mut joined: Vec<NodeId> = new_peers.clone();
            joined.sort_unstable();
            joined.dedup();
            for p in joined {
                actions.push(Action::Send {
                    to: p,
                    msg: Message::Reassign {
                        session,
                        graph: graph.clone(),
                    },
                });
            }
            actions.push(Action::SessionReassigned {
                session,
                fairness_gain: alloc.fairness - old_fairness,
                at: now,
            });
            push_trace(
                actions,
                self.tracing,
                now,
                self.id,
                self.domain,
                (self.cur_trace, self.cur_span, self.cur_parent),
                TraceKind::SessionReassigned {
                    session,
                    fairness_gain: alloc.fairness - old_fairness,
                },
            );
        }
    }

    // ---- user & lifecycle ------------------------------------------------------

    fn on_submit(&mut self, now: SimTime, mut task: TaskSpec, actions: &mut Vec<Action>) {
        task.submitted_at = now;
        task.requester = self.id;
        intend(
            &mut self.controller,
            actions,
            Intent::TaskSubmitted { task: task.id },
        );
        // Root of the task's causal timeline: a submission opens a fresh
        // trace (cur_trace == cur_span, parent 0 — see `on_event`).
        push_trace(
            actions,
            self.tracing,
            now,
            self.id,
            self.domain,
            (self.cur_trace, self.cur_span, self.cur_parent),
            TraceKind::TaskPhase {
                task: task.id,
                phase: TaskPhase::Submit,
            },
        );
        match self.role {
            Role::Rm => self.rm_handle_task(now, task, Vec::new(), actions),
            Role::Member => {
                if let Some(rm) = self.rm {
                    actions.push(Action::Send {
                        to: rm,
                        msg: Message::TaskQuery { task },
                    });
                }
            }
            _ => {}
        }
    }

    fn on_shutdown(&mut self, graceful: bool, actions: &mut Vec<Action>) {
        intend(
            &mut self.controller,
            actions,
            Intent::ShutdownRequested { graceful },
        );
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
                                actions.push(Action::Send {
                                    to: b,
                                    msg: Message::BackupUpdate {
                                        snapshot: Box::new(snapshot),
                                    },
                                });
                                actions.push(Action::Send {
                                    to: b,
                                    msg: Message::Leave { node: self.id },
                                });
                            }
                        }
                    }
                }
                Role::Member => {
                    if let Some(rm) = self.rm {
                        actions.push(Action::Send {
                            to: rm,
                            msg: Message::Leave { node: self.id },
                        });
                    }
                }
                _ => {}
            }
        }
        self.role = Role::Idle;
        self.rm_state = None;
        self.backup_snapshot = None;
    }

    /// Backup → RM promotion (§4.1 failover).
    fn try_promote(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let Some(snapshot) = self.backup_snapshot.take() else {
            return;
        };
        if Some(snapshot.domain) != self.domain {
            return;
        }
        let domain = snapshot.domain;
        let old_rm = snapshot.rm;
        let mut state = RmState::from_snapshot(snapshot, self.id, now);
        // Carry over whatever this node knows locally.
        state.register_inventory(self.id, &self.objects, &self.services);
        let members: Vec<NodeId> = state
            .members
            .keys()
            .copied()
            .filter(|m| *m != self.id)
            .collect();
        let sessions: Vec<SessionId> = state.sessions.keys().copied().collect();
        state.choose_backup(&self.cfg, now);
        let version = state.version;
        self.rm_state = Some(state);
        self.role = Role::Rm;
        self.rm = Some(self.id);
        self.rm_epoch = version;
        for m in members {
            actions.push(Action::Send {
                to: m,
                msg: Message::PromoteAnnounce {
                    new_rm: self.id,
                    domain,
                    version,
                },
            });
        }
        // Bound inherited sessions: end them after a grace period (their
        // exact remaining duration died with the old RM).
        for s in sessions {
            actions.push(Action::SetTimer {
                kind: TimerKind::SessionEnd(s),
                after: arm_util::SimDuration::from_secs(30),
            });
        }
        self.arm_rm_timers(actions);
        actions.push(Action::Promoted { domain, at: now });
        push_trace(
            actions,
            self.tracing,
            now,
            self.id,
            Some(domain),
            (self.cur_trace, self.cur_span, self.cur_parent),
            TraceKind::BackupPromoted { old_rm },
        );
    }

    /// Boots from persisted state (`--state-dir`): restores the state
    /// controller from the snapshot, replays the write-ahead intents
    /// through it, then re-enters the overlay in the recovered role —
    /// an RM resumes its information base and re-announces with a bumped
    /// epoch; a member rejoins through its last known RM. Sessions the
    /// WAL closed stay closed; sessions allocated after the snapshot
    /// (whose graphs died with the process) are cleanly aborted.
    fn on_recover(
        &mut self,
        now: SimTime,
        snap: StoreSnapshot,
        intents: Vec<Intent>,
        actions: &mut Vec<Action>,
    ) {
        if self.role != Role::Idle {
            return;
        }
        let phase = snap.node_phase();
        if snap.clean || matches!(phase, NodePhase::Stopped | NodePhase::Idle) {
            // Clean stop or pre-join crash: nothing to resume. Boot fresh,
            // using the last known RM as the join contact.
            let contact = snap.rm.filter(|r| *r != self.id);
            self.controller = StateController::new();
            self.on_start(now, contact, actions);
            return;
        }
        let epoch = snap.rm_state.as_ref().map(|s| s.version).unwrap_or(0);
        self.controller =
            StateController::restore(phase, snap.domain, snap.rm, snap.live_sessions(), epoch);
        for i in intents {
            self.controller.enqueue(i);
        }
        self.controller.tick();
        self.rm_epoch = self.controller.epoch();

        if self.controller.node_phase() == NodePhase::Rm {
            if let Some(rm_snap) = snap.rm_state {
                let domain = rm_snap.domain;
                let mut state = RmState::from_snapshot_resume(rm_snap, self.id, now);
                state.register_inventory(self.id, &self.objects, &self.services);
                // Sessions the WAL closed after the snapshot must not
                // resurrect: the controller's phase map is authoritative.
                let live: BTreeMap<SessionId, _> =
                    self.controller.live_sessions().into_iter().collect();
                let stale: Vec<SessionId> = state
                    .sessions
                    .keys()
                    .copied()
                    .filter(|s| !live.contains_key(s))
                    .collect();
                for s in stale {
                    state.release_session_resources(s);
                    state.sessions.remove(&s);
                }
                // Sessions allocated after the snapshot have no persisted
                // graph to resume from; abort them (§4.5 — the requester
                // resubmits or times out).
                let resumable: Vec<SessionId> = state.sessions.keys().copied().collect();
                for s in live.keys() {
                    if !resumable.contains(s) {
                        intend(
                            &mut self.controller,
                            actions,
                            Intent::SessionClosed { session: *s },
                        );
                    }
                }
                state.choose_backup(&self.cfg, now);
                let members: Vec<NodeId> = state
                    .members
                    .keys()
                    .copied()
                    .filter(|m| *m != self.id)
                    .collect();
                let version = state.version; // snapshot version + 1: a fresh epoch
                self.role = Role::Rm;
                self.domain = Some(domain);
                self.rm = Some(self.id);
                self.rm_epoch = version;
                self.last_rm_heard = now;
                self.last_logged_version = version;
                self.rm_state = Some(state);
                // Re-announce with the bumped epoch: live members adopt the
                // recovered RM; an interim backup-promoted RM reconciles via
                // `on_promote_announce` (higher epoch wins).
                for m in members {
                    actions.push(Action::Send {
                        to: m,
                        msg: Message::PromoteAnnounce {
                            new_rm: self.id,
                            domain,
                            version,
                        },
                    });
                }
                // Bound resumed sessions with a grace end — their precise
                // remaining durations died with the pre-crash timers.
                for s in resumable {
                    actions.push(Action::SetTimer {
                        kind: TimerKind::SessionEnd(s),
                        after: arm_util::SimDuration::from_secs(30),
                    });
                }
                actions.push(Action::Promoted { domain, at: now });
                self.arm_common_timers(actions);
                self.arm_rm_timers(actions);
                return;
            }
        }
        // Member-style recovery (also the fallback when an RM snapshot is
        // missing): rejoin through the last known RM, or refound.
        let contact = self
            .controller
            .rm()
            .or(snap.rm)
            .filter(|r| *r != self.id)
            .or(self.bootstrap);
        match contact {
            Some(c) => {
                self.role = Role::Joining;
                self.bootstrap = Some(c);
                self.join_hops_left = 8;
                actions.push(Action::Send {
                    to: c,
                    msg: Message::JoinRequest {
                        candidacy: self.candidacy(now),
                    },
                });
                actions.push(Action::SetTimer {
                    kind: TimerKind::JoinRetry,
                    after: self.cfg.join_timeout,
                });
            }
            None => {
                // Nobody to call: refound the overlay.
                self.on_start(now, None, actions);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ActionBatch;
    use arm_model::{MediaFormat, QosSpec};
    use arm_util::{SimDuration, TaskId};

    fn node(id: u64) -> PeerNode {
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

    #[test]
    fn founder_becomes_rm_with_timers() {
        let mut n = node(1);
        let actions = n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        assert_eq!(n.role(), Role::Rm);
        assert_eq!(n.rm(), Some(NodeId::new(1)));
        assert_eq!(n.domain(), Some(DomainId::new(1)));
        let timers: Vec<TimerKind> = actions.timers().iter().map(|(k, _)| *k).collect();
        for k in [
            TimerKind::Heartbeat,
            TimerKind::Report,
            TimerKind::Gossip,
            TimerKind::Backup,
            TimerKind::Adapt,
        ] {
            assert!(timers.contains(&k), "missing {k:?}");
        }
        // The RM's own view contains itself.
        assert!(n.rm_state().unwrap().view.contains(NodeId::new(1)));
    }

    #[test]
    fn joiner_sends_request_and_arms_retry() {
        let mut n = node(2);
        let actions = n.on_event(
            SimTime::ZERO,
            Event::Start {
                bootstrap: Some(NodeId::new(1)),
            },
        );
        assert_eq!(n.role(), Role::Joining);
        let sends = actions.sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId::new(1));
        assert!(matches!(sends[0].1, Message::JoinRequest { .. }));
        assert!(actions
            .timers()
            .iter()
            .any(|(k, _)| *k == TimerKind::JoinRetry));
    }

    #[test]
    fn join_retry_refounds_without_bootstrap_contact() {
        // A node started with no bootstrap has already founded; a node in
        // Joining whose contact vanished re-founds on retry when it has no
        // contact to fall back to.
        let mut n = node(3);
        n.on_event(
            SimTime::ZERO,
            Event::Start {
                bootstrap: Some(NodeId::new(99)),
            },
        );
        // Simulate the retry timer with the bootstrap erased (as after an
        // orphan rejoin attempt).
        n.bootstrap = None;
        let _ = n.on_event(SimTime::from_secs(2), Event::Timer(TimerKind::JoinRetry));
        assert_eq!(n.role(), Role::Rm, "orphan founds its own domain");
    }

    #[test]
    fn double_start_is_ignored() {
        let mut n = node(4);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        let before = n.domain();
        let actions = n.on_event(SimTime::from_secs(1), Event::Start { bootstrap: None });
        assert!(actions.is_empty());
        assert_eq!(n.domain(), before);
    }

    #[test]
    fn heartbeat_is_answered_with_ack() {
        let mut n = node(5);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        let actions = n.on_event(
            SimTime::from_secs(1),
            Event::msg(
                NodeId::new(9),
                Message::Heartbeat {
                    from: NodeId::new(9),
                    sent_at: SimTime::from_millis(990),
                },
            ),
        );
        let sends = actions.sends();
        assert!(sends.iter().any(|(to, m)| *to == NodeId::new(9)
            && matches!(m, Message::HeartbeatAck { probe_sent_at, .. }
                if *probe_sent_at == SimTime::from_millis(990))));
    }

    #[test]
    fn heartbeat_ack_feeds_comm_estimate() {
        let mut n = node(6);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        n.on_event(
            SimTime::from_millis(1_040),
            Event::msg(
                NodeId::new(9),
                Message::HeartbeatAck {
                    from: NodeId::new(9),
                    probe_sent_at: SimTime::from_millis(1_000),
                },
            ),
        );
        let est = n.profiler().comm_estimate(NodeId::new(9)).unwrap();
        assert!((est - 0.040).abs() < 1e-9);
    }

    #[test]
    fn submit_at_member_forwards_to_rm() {
        let mut n = node(7);
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
        let task = TaskSpec {
            id: TaskId::new(1),
            name: "x".into(),
            requester: NodeId::new(7),
            initial_format: MediaFormat::paper_source(),
            acceptable_formats: vec![MediaFormat::paper_target()],
            qos: QosSpec::with_deadline(SimDuration::from_secs(5)),
            submitted_at: SimTime::ZERO,
            session_secs: 1.0,
        };
        let actions = n.on_event(SimTime::from_secs(1), Event::SubmitTask(task));
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

    #[test]
    fn member_join_request_redirects_to_rm() {
        let mut n = node(9);
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
        let actions = n.on_event(
            SimTime::from_secs(1),
            Event::msg(
                NodeId::new(42),
                Message::JoinRequest {
                    candidacy: arm_proto::RmCandidacy {
                        node: NodeId::new(42),
                        capacity: 100.0,
                        bandwidth_kbps: 10_000,
                        uptime_secs: 100.0,
                    },
                },
            ),
        );
        let sends = actions.sends();
        assert!(sends.iter().any(|(to, m)| *to == NodeId::new(42)
            && matches!(m, Message::JoinRedirect { to } if *to == NodeId::new(1))));
    }
}
