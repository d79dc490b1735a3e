//! Participant side (§2 Profiler + Local Scheduler): the session hops this
//! peer executes, their setup jobs, and the periodic load report. The hop
//! table is also the Connection Manager's record of who this peer is
//! connected to (§3.2 item 5) — there is no second copy.

use super::{Emit, PeerNode, Role};
use crate::events::{Action, TimerKind};
use arm_model::{ServiceGraph, ServiceHop};
use arm_proto::Message;
use arm_sched::{Job, JobId};
use arm_telemetry::{TraceEvent, TraceKind};
use arm_util::{NodeId, SessionId, SimTime};

/// A hop of a session this peer executes locally.
#[derive(Debug, Clone)]
pub(super) struct LocalHop {
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

impl LocalHop {
    /// Hop `i` (`h`) of `graph` as already running: the source feeds hop
    /// 0, the last hop streams to the receiver.
    fn running(graph: &ServiceGraph, i: usize, h: &ServiceHop, composer: NodeId) -> Self {
        let peer_at = |j: Option<usize>| j.and_then(|j| graph.hops.get(j)).map(|n| n.peer);
        Self {
            work_per_sec: h.cost.work_per_sec,
            bandwidth_kbps: h.cost.bandwidth_kbps,
            composer,
            upstream: peer_at(i.checked_sub(1)).unwrap_or(graph.source),
            downstream: peer_at(i.checked_add(1)).unwrap_or(graph.receiver),
            setup_job: None,
            acked: true,
        }
    }
}

impl PeerNode {
    #[allow(
        clippy::too_many_arguments,
        reason = "the argument list is the Compose wire payload, destructured by the caller's \
                  match; see on_join_accept"
    )]
    pub(super) fn on_compose(
        &mut self,
        now: SimTime,
        from: NodeId,
        session: SessionId,
        graph: &ServiceGraph,
        hop: usize,
        deadline: SimTime,
        out: &mut Emit,
    ) {
        let Some(h) = graph.hops.get(hop) else {
            return;
        };
        if h.peer != self.id {
            return;
        }
        let mut local = LocalHop::running(graph, hop, h, from);
        let ack = Message::ComposeAck {
            session,
            hop,
            from: self.id,
        };
        let key = (session, hop);
        if let Some(existing) = self.local_hops.get(&key) {
            if existing.acked {
                // Repair re-send: we are already running it; re-ack.
                out.send(from, ack);
            }
            return;
        }

        // Connection Manager limit (§2): would this hop push the set of
        // connected peers past the cap? Count the RM plus every adjacent
        // peer of every active hop plus the new pair.
        let mut connected: Vec<NodeId> = self
            .local_hops
            .values()
            .chain([&local])
            .flat_map(|l| [l.upstream, l.downstream])
            .chain(self.rm)
            .collect();
        connected.sort_unstable();
        connected.dedup();
        connected.retain(|p| *p != self.id);
        if connected.len() > self.cfg.max_connections {
            out.send(
                from,
                Message::ComposeNack {
                    session,
                    hop,
                    from: self.id,
                    reason: arm_proto::NackReason::ConnectionLimit,
                },
            );
            return;
        }

        self.profiler
            .session_opened(local.work_per_sec, local.bandwidth_kbps);
        if h.cost.setup_work <= 0.0 {
            self.local_hops.insert(key, local);
            out.send(from, ack);
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
        self.pending_setups.insert(job_id, key);
        local.setup_job = Some(job_id);
        local.acked = false;
        self.local_hops.insert(key, local);
        self.maybe_arm_sched_poll(out);
    }

    /// Offline-established migration (§4.5): swap local hops without
    /// setup jobs or acks.
    pub(super) fn on_reassign(&mut self, from: NodeId, session: SessionId, graph: &ServiceGraph) {
        self.close_session_hops(session);
        for (i, h) in graph.hops.iter().enumerate() {
            if h.peer == self.id {
                let local = LocalHop::running(graph, i, h, from);
                self.profiler
                    .session_opened(local.work_per_sec, local.bandwidth_kbps);
                self.local_hops.insert((session, i), local);
            }
        }
    }

    pub(super) fn maybe_arm_sched_poll(&mut self, out: &mut Emit) {
        if !self.sched_poll_armed && self.sched.is_busy() {
            self.sched_poll_armed = true;
            out.timer(TimerKind::SchedPoll, self.cfg.sched_poll);
        }
    }

    /// Collects finished setup jobs and acks their composition.
    pub(super) fn harvest_setups(&mut self, out: &mut Emit) {
        // Drain the scheduler's dispatch log every harvest (so it cannot
        // grow unbounded); it only becomes trace events while tracing.
        // They carry the dispatch instant and stay outside any task trace.
        let decisions = self.sched.take_decisions();
        if out.tracing {
            for d in decisions {
                out.actions.push(Action::Trace(TraceEvent::new(
                    d.at,
                    out.node,
                    out.domain,
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
            out.send(
                composer,
                Message::ComposeAck {
                    session,
                    hop,
                    from: self.id,
                },
            );
        }
    }

    pub(super) fn close_session_hops(&mut self, session: SessionId) {
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

    pub(super) fn on_report_tick(&mut self, now: SimTime, out: &mut Emit) {
        self.profiler.set_transient(0.0, self.sched.queue_len());
        let report = self.profiler.make_report(now);
        match self.role {
            Role::Rm => {
                if let Some(state) = self.rm_state.as_mut() {
                    state.apply_report(&report);
                }
            }
            Role::Member => {
                if let Some(rm) = self.rm {
                    out.send(rm, Message::LoadReport(report));
                    self.last_report_sent = Some(now);
                }
            }
            _ => {}
        }
        if matches!(self.role, Role::Rm | Role::Member) {
            out.timer(TimerKind::Report, self.cfg.report_period);
        } else {
            self.report_armed = false;
        }
    }
}
