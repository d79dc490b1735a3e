//! What only a Resource Manager does (§4.2–§4.5): admission and Fig. 3
//! allocation, composition tracking, session repair and adaptive
//! reassignment, inter-domain gossip and backup shipping.

use super::{Emit, PeerNode, Role};
use crate::events::{Action, TimerKind};
use arm_model::alloc::{AllocError, AllocatorKind};
use arm_model::task::TaskOutcome;
use arm_model::{ServiceGraph, TaskSpec};
use arm_proto::{Message, TaskReplyKind};
use arm_store::Intent;
use arm_telemetry::{TaskPhase, TraceKind};
use arm_util::{DomainId, NodeId, SessionId, SimDuration, SimTime, TaskId};

/// On time or late, by the task's deadline.
fn completed(now: SimTime, deadline: SimTime) -> TaskOutcome {
    if now <= deadline {
        TaskOutcome::CompletedOnTime
    } else {
        TaskOutcome::CompletedLate
    }
}

fn terminal(task: TaskId) -> TraceKind {
    TraceKind::TaskPhase {
        task,
        phase: TaskPhase::Terminal,
    }
}

/// Most sessions one adaptation tick migrates off hot peers.
const MAX_REASSIGN_PER_TICK: usize = 4;

fn stream_secs(task: &TaskSpec) -> SimDuration {
    SimDuration::from_secs_f64(task.session_secs.max(0.001))
}

impl PeerNode {
    // ---- periodic RM ticks ---------------------------------------------------

    pub(super) fn on_gossip_tick(&mut self, out: &mut Emit) {
        if self.role != Role::Rm {
            self.rm_timers_armed = false;
            return;
        }
        let Some(state) = self.rm_state.as_ref() else {
            return;
        };
        let mut summaries = vec![state.own_summary()];
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
            out.trace(TraceKind::GossipRound {
                fanout: picks.len() as u64,
            });
            for target in picks.into_iter().filter_map(|i| targets.get(i).copied()) {
                out.send(
                    target,
                    Message::GossipDigest {
                        summaries: summaries.clone(),
                    },
                );
                out.trace(TraceKind::BloomExchange {
                    with: target,
                    bits_set,
                });
            }
        }
        out.timer(TimerKind::Gossip, self.cfg.gossip_period);
    }

    pub(super) fn on_backup_tick(&mut self, now: SimTime, out: &mut Emit) {
        if self.role != Role::Rm {
            return;
        }
        self.refresh_backup(now, out);
        out.timer(TimerKind::Backup, self.cfg.backup_period);
    }

    /// Chooses the backup RM, traces the choice if it changed and ships the
    /// chosen peer a fresh snapshot. Arms nothing: the `Backup` timer chain
    /// belongs to [`on_backup_tick`](Self::on_backup_tick).
    fn refresh_backup(&mut self, now: SimTime, out: &mut Emit) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let backup = state.choose_backup(&self.cfg, now);
        // Trace the qualification outcome only when the choice changes —
        // the periodic re-election usually re-confirms the incumbent.
        if out.tracing && backup != self.traced_backup {
            if let Some(b) = backup {
                let score = state
                    .members
                    .get(&b)
                    .map(|m| m.candidacy.score())
                    .unwrap_or(0.0);
                out.trace(TraceKind::Qualification {
                    candidate: b,
                    score,
                });
            }
            self.traced_backup = backup;
        }
        if let Some(b) = backup {
            if b != self.id {
                let snapshot = state.snapshot(&self.cfg, now);
                out.send(
                    b,
                    Message::BackupUpdate {
                        snapshot: Box::new(snapshot),
                    },
                );
            }
        }
    }

    pub(super) fn on_adapt_tick(&mut self, now: SimTime, out: &mut Emit) {
        if self.role != Role::Rm {
            return;
        }
        if self.cfg.reassignment_enabled {
            self.rm_reassign_hot_sessions(now, out);
        }
        out.timer(TimerKind::Adapt, self.cfg.adapt_period);
    }

    // ---- sessions --------------------------------------------------------------

    /// Ends `session` on each distinct peer of `peers` in id order: locally
    /// when the peer is this node, by `SessionEnd` otherwise.
    fn end_session_on(&mut self, session: SessionId, mut peers: Vec<NodeId>, out: &mut Emit) {
        peers.sort_unstable();
        peers.dedup();
        for p in peers {
            if p == self.id {
                self.close_session_hops(session);
            } else {
                out.send(p, Message::SessionEnd { session });
            }
        }
    }

    /// Fans `Compose` out to every hop of `graph` and arms the timeout
    /// that repairs the session if an ack goes missing.
    fn launch_compose(
        &self,
        session: SessionId,
        graph: &ServiceGraph,
        deadline: SimTime,
        out: &mut Emit,
    ) {
        for (i, h) in graph.hops.iter().enumerate() {
            out.send(
                h.peer,
                Message::Compose {
                    session,
                    graph: graph.clone(),
                    hop: i,
                    deadline,
                },
            );
        }
        out.timer(TimerKind::ComposeTimeout(session), self.cfg.compose_timeout);
    }

    pub(super) fn rm_handle_task(
        &mut self,
        now: SimTime,
        task: TaskSpec,
        tried: Vec<DomainId>,
        out: &mut Emit,
    ) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let my_domain = state.domain;
        let task_id = task.id;
        let task_phase = |phase| TraceKind::TaskPhase {
            task: task_id,
            phase,
        };
        out.trace(task_phase(TaskPhase::Query));

        let overloaded = self.cfg.admission_enabled && state.overloaded(&self.cfg);
        let alloc_result = if overloaded {
            Err(AllocError::NoFeasiblePath { explored: 0 })
        } else {
            out.trace(task_phase(TaskPhase::Allocation));
            state.allocate_task(&task, &self.cfg, &mut self.rng)
        };

        match alloc_result {
            Ok((alloc, source)) => {
                let session = state.next_session_id();
                let deadline = task.absolute_deadline();
                let requester = task.requester;
                let session_len = stream_secs(&task);
                let submitted_at = task.submitted_at;
                let rec = state.commit_session(session, task, &alloc, source, now);
                let graph = rec.graph.clone();
                out.persist(Intent::SessionAllocated {
                    session,
                    task: task_id,
                });
                // Anchor later session-scoped events (Stream on compose-ack,
                // Terminal, repair) to this allocation decision so their
                // parentage is deterministic regardless of ack arrival order.
                if out.trace != 0 {
                    self.session_traces.insert(session, (out.trace, out.span));
                }
                out.trace(TraceKind::AdmissionAccepted { task: task_id });

                out.send(
                    requester,
                    Message::TaskReply {
                        task: task_id,
                        reply: TaskReplyKind::Allocated(graph.clone()),
                    },
                );
                if graph.hops.is_empty() {
                    // Direct fetch: nothing to compose, streaming starts
                    // immediately.
                    out.trace(task_phase(TaskPhase::Stream));
                    rec.outcome_reported = true;
                    out.actions.push(Action::Outcome {
                        task: task_id,
                        outcome: completed(now, deadline),
                        at: now,
                        response: Some(now.saturating_since(submitted_at)),
                    });
                    out.trace(terminal(task_id));
                    out.timer(TimerKind::SessionEnd(session), session_len);
                } else {
                    out.trace(task_phase(TaskPhase::Composition));
                    self.launch_compose(session, &graph, deadline, out);
                }
            }
            Err(_) => {
                // Trace the local refusal even when the task is then
                // redirected — each domain's admission verdict is its own
                // observable decision.
                out.trace(TraceKind::AdmissionRejected {
                    task: task_id,
                    reason: if overloaded {
                        "domain_overloaded".into()
                    } else {
                        "no_feasible_allocation".into()
                    },
                });
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
                    Some((_, rm_node)) => out.send(
                        rm_node,
                        Message::TaskRedirect {
                            task,
                            tried_domains: tried,
                        },
                    ),
                    None => {
                        out.send(
                            task.requester,
                            Message::TaskReply {
                                task: task_id,
                                reply: TaskReplyKind::Rejected {
                                    reason: if overloaded {
                                        "domain overloaded".into()
                                    } else {
                                        "no feasible allocation".into()
                                    },
                                },
                            },
                        );
                        out.actions.push(Action::Outcome {
                            task: task_id,
                            outcome: TaskOutcome::Rejected,
                            at: now,
                            response: None,
                        });
                        out.trace(terminal(task_id));
                    }
                }
            }
        }
    }

    pub(super) fn rm_on_compose_ack(
        &mut self,
        now: SimTime,
        session: SessionId,
        hop: usize,
        out: &mut Emit,
    ) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let Some(rec) = state.sessions.get_mut(&session) else {
            return;
        };
        rec.pending_acks.remove(&hop);
        if rec.fully_acked() && rec.composed_at.is_none() {
            rec.composed_at = Some(now);
            // Parent the Stream/Terminal events on the *allocation* span
            // recorded at commit time, not on whichever participant's ack
            // happened to arrive last — that keeps merged timelines
            // reproducible when ack order varies between drivers.
            let anchor = out.anchor(self.session_traces.get(&session));
            out.trace_under(
                anchor,
                TraceKind::TaskPhase {
                    task: rec.task.id,
                    phase: TaskPhase::Stream,
                },
            );
            if !rec.outcome_reported {
                rec.outcome_reported = true;
                out.actions.push(Action::Outcome {
                    task: rec.task.id,
                    outcome: completed(now, rec.task.absolute_deadline()),
                    at: now,
                    response: Some(now.saturating_since(rec.task.submitted_at)),
                });
                out.trace_under(anchor, terminal(rec.task.id));
            }
            out.timer(TimerKind::SessionEnd(session), stream_secs(&rec.task));
        }
    }

    /// A participant declined a hop (§2 connection limit). Retire that
    /// specific service edge from the resource graph — the peer cannot
    /// take more connections — and re-allocate the session around it.
    pub(super) fn rm_on_compose_nack(
        &mut self,
        now: SimTime,
        session: SessionId,
        hop: usize,
        out: &mut Emit,
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
        self.rm_repair_session(now, session, out);
    }

    /// QoS renegotiation (§4.5): replace the requirement set of a running
    /// task. Future repairs and reassignments of the session use the new
    /// requirements.
    pub(super) fn rm_on_renegotiate(&mut self, task: TaskId, new_qos: arm_model::QosSpec) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        if let Some(rec) = state.sessions.values_mut().find(|rec| rec.task.id == task) {
            rec.task.qos = new_qos;
        }
    }

    pub(super) fn rm_on_session_end(&mut self, session: SessionId, out: &mut Emit) {
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
        out.persist(Intent::SessionClosed { session });
        self.session_traces.remove(&session);
        // Record this episode before fanning out `SessionEnd` messages:
        // they carry this span as the receivers' causal parent, and an
        // unrecorded span would leave their hop events orphaned in the
        // merged timeline.
        out.trace(TraceKind::SessionClosed { session });
        let peers = rec.graph.hops.iter().map(|h| h.peer).collect();
        self.end_session_on(session, peers, out);
    }

    pub(super) fn rm_on_compose_timeout(
        &mut self,
        now: SimTime,
        session: SessionId,
        out: &mut Emit,
    ) {
        let composing = self
            .rm_state
            .as_ref()
            .and_then(|state| state.sessions.get(&session))
            .is_some_and(|rec| rec.composed_at.is_none());
        // Otherwise it completed in time (or is gone): a stale timer.
        if composing {
            self.rm_repair_session(now, session, out);
        }
    }

    pub(super) fn rm_handle_member_loss(&mut self, now: SimTime, node: NodeId, out: &mut Emit) {
        let Some(state) = self.rm_state.as_mut() else {
            return;
        };
        let was_backup = state.backup == Some(node);
        let affected = state.remove_member(node);
        for session in affected {
            self.rm_repair_session(now, session, out);
        }
        if was_backup {
            self.refresh_backup(now, out);
        }
    }

    /// Re-allocates a session after a participant died (§4.1) or its
    /// composition timed out. The task's QoS deadline is interpreted
    /// relative to the repair instant.
    fn rm_repair_session(&mut self, now: SimTime, session: SessionId, out: &mut Emit) {
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
        let anchor = out.anchor(self.session_traces.get(&session));
        state.release_session_resources(session);
        state.sessions.remove(&session);

        let give_up = repairs >= 2 || !state.view.contains(task.requester);
        let result = if give_up {
            Err(AllocError::NoFeasiblePath { explored: 0 })
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
                // Tear down on peers no longer used.
                let leaving = old_peers
                    .iter()
                    .copied()
                    .filter(|p| !graph.hops.iter().any(|h| h.peer == *p))
                    .collect();
                self.end_session_on(session, leaving, out);
                // A direct fetch has nothing to compose (and
                // `commit_session` already marked it composed).
                if !graph.hops.is_empty() {
                    self.launch_compose(session, &graph, deadline, out);
                }
                out.actions.push(Action::SessionRepaired {
                    session,
                    ok: true,
                    at: now,
                });
                out.trace_under(anchor, TraceKind::SessionRepair { session, ok: true });
            }
            Err(_) => {
                out.persist(Intent::SessionClosed { session });
                self.end_session_on(session, old_peers, out);
                if !was_reported {
                    out.actions.push(Action::Outcome {
                        task: task.id,
                        outcome: TaskOutcome::Failed,
                        at: now,
                        response: None,
                    });
                    out.trace_under(anchor, terminal(task.id));
                }
                out.actions.push(Action::SessionRepaired {
                    session,
                    ok: false,
                    at: now,
                });
                out.trace_under(anchor, TraceKind::SessionRepair { session, ok: false });
                // The session is gone for good; drop its trace anchor.
                self.session_traces.remove(&session);
            }
        }
    }

    /// Adaptation loop (§4.5): migrate sessions off hot peers when a
    /// fairer placement exists.
    fn rm_reassign_hot_sessions(&mut self, now: SimTime, out: &mut Emit) {
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
            .take(MAX_REASSIGN_PER_TICK)
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
                AllocatorKind::MaxFairness,
                &mut self.rng,
            ) else {
                continue;
            };
            if alloc.path == old_path || alloc.fairness < old_fairness + self.cfg.reassign_margin {
                continue;
            }

            // Commit the migration for real.
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
            self.end_session_on(session, leaving, out);
            let mut joined = new_peers;
            joined.sort_unstable();
            joined.dedup();
            for p in joined {
                out.send(
                    p,
                    Message::Reassign {
                        session,
                        graph: graph.clone(),
                    },
                );
            }
            let fairness_gain = alloc.fairness - old_fairness;
            out.actions.push(Action::SessionReassigned {
                session,
                fairness_gain,
                at: now,
            });
            out.trace(TraceKind::SessionReassigned {
                session,
                fairness_gain,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::node;
    use super::*;
    use crate::events::{ActionBatch, Event};

    #[test]
    fn losing_the_backup_ships_the_next_one_without_a_second_timer_chain() {
        let mut rm = node(1);
        rm.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        for id in [2, 3] {
            let candidacy = arm_proto::RmCandidacy {
                node: NodeId::new(id),
                capacity: 100.0,
                bandwidth_kbps: 10_000,
                uptime_secs: 100.0 * id as f64,
            };
            rm.on_event(
                SimTime::from_secs(1),
                Event::msg(NodeId::new(id), Message::JoinRequest { candidacy }),
            );
        }
        let tick = rm.on_event(SimTime::from_secs(5), Event::Timer(TimerKind::Backup));
        let backup = rm.rm_state().unwrap().backup.expect("a member qualifies");
        let other = NodeId::new(if backup == NodeId::new(2) { 3 } else { 2 });
        assert!(tick.timers().iter().any(|(k, _)| *k == TimerKind::Backup));

        let lost = rm.on_event(
            SimTime::from_secs(6),
            Event::msg(backup, Message::Leave { node: backup }),
        );
        let backup_timers = lost
            .timers()
            .into_iter()
            .filter(|(k, _)| *k == TimerKind::Backup);
        assert!(backup_timers.count() <= 1);
        let updates: Vec<NodeId> = lost
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, Message::BackupUpdate { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(updates, vec![other]);
        assert_eq!(rm.rm_state().unwrap().backup, Some(other));
    }
}
