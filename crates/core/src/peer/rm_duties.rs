//! What only a Resource Manager does (§4.2–§4.5): admission and Fig. 3
//! allocation, composition tracking, session repair and adaptive
//! reassignment, inter-domain gossip and backup shipping.

use super::{Emit, Membership, PeerNode};
use crate::events::{Action, TimerKind};
use crate::rm::{RmState, SessionRec};
use arm_model::alloc::{AllocError, Allocation, AllocatorKind};
use arm_model::task::TaskOutcome;
use arm_model::{ServiceGraph, ServiceHop, TaskSpec};
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

/// Opens `session` on the allocated path and logs `SessionAllocated` with
/// it — the one way a session begins. Its later events hang off this
/// episode's trace.
fn open_session<'a>(
    state: &'a mut RmState,
    session: SessionId,
    task: TaskSpec,
    alloc: &Allocation,
    source: NodeId,
    out: &mut Emit,
) -> Option<&'a mut SessionRec> {
    out.persist(Intent::SessionAllocated {
        session,
        task: task.id,
    });
    let rec = state.commit_session(session, task, alloc, source)?;
    rec.anchor = (out.trace != 0).then_some((out.trace, out.span));
    Some(rec)
}

/// Releases `session`'s footprint, drops its record and logs
/// `SessionClosed` with it — the one way a session ends, whether its
/// stream ran out or a repair found no path.
fn close_session(state: &mut RmState, session: SessionId, out: &mut Emit) -> Option<SessionRec> {
    let rec = state.remove_session(session)?;
    out.persist(Intent::SessionClosed { session });
    Some(rec)
}

impl PeerNode {
    // ---- periodic RM ticks ---------------------------------------------------

    pub(super) fn on_gossip_tick(&mut self, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
            self.stop_rm_chain(TimerKind::Gossip);
            return;
        };
        let targets: Vec<NodeId> = state
            .known_rms
            .values()
            .copied()
            .filter(|n| *n != self.id)
            .collect();
        if !targets.is_empty() {
            let own = state.own_summary();
            // Set-bit density of our own Bloom object summary: how much
            // we are telling the remote RM about.
            let bits_set = (own.objects.fill_ratio() * own.objects.num_bits() as f64) as u64;
            let mut summaries = vec![own];
            summaries.extend(state.summaries.values().cloned());
            let k = self.cfg.gossip_fanout.min(targets.len());
            let picks = self.rng.sample_indices(targets.len(), k);
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
        if !matches!(self.membership, Membership::Rm(_)) {
            self.stop_rm_chain(TimerKind::Backup);
            return;
        }
        self.refresh_backup(now, out);
        out.timer(TimerKind::Backup, self.cfg.backup_period);
    }

    /// Chooses the backup RM, traces the choice if it changed and ships the
    /// chosen peer a fresh snapshot. Arms nothing: the `Backup` timer chain
    /// belongs to [`on_backup_tick`](Self::on_backup_tick).
    fn refresh_backup(&mut self, now: SimTime, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
            return;
        };
        // One ranking serves the choice and the snapshot shipped with it.
        let ranked = state.rank_candidates(&self.cfg, now);
        state.backup = ranked.first().map(|c| c.node);
        let backup = state.backup;
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
                let snapshot = state.snapshot_ranked(ranked);
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
        if !matches!(self.membership, Membership::Rm(_)) {
            self.stop_rm_chain(TimerKind::Adapt);
            return;
        }
        if self.cfg.reassignment_enabled {
            self.rm_reassign_hot_sessions(now, out);
        }
        out.timer(TimerKind::Adapt, self.cfg.adapt_period);
    }

    // ---- sessions --------------------------------------------------------------

    /// Ends `session` on each distinct peer of `peers` that no hop in
    /// `staying` keeps, in id order: locally when the peer is this node, by
    /// `SessionEnd` otherwise.
    pub(super) fn end_session_on(
        &mut self,
        session: SessionId,
        mut peers: Vec<NodeId>,
        staying: &[ServiceHop],
        out: &mut Emit,
    ) {
        peers.retain(|p| !staying.iter().any(|h| h.peer == *p));
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
        let Membership::Rm(state) = &mut self.membership else {
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
                // Unique across RMs: this node's id in the high bits.
                let session = SessionId::new((self.id.raw() << 24) | self.next_session);
                self.next_session += 1;
                let deadline = task.absolute_deadline();
                let requester = task.requester;
                let session_len = stream_secs(&task);
                let submitted_at = task.submitted_at;
                let Some(rec) = open_session(state, session, task, &alloc, source, out) else {
                    return;
                };
                let graph = rec.graph.clone();
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
        let Membership::Rm(state) = &mut self.membership else {
            return;
        };
        let Some(rec) = state.sessions.get_mut(&session) else {
            return;
        };
        // The ack that empties the set composes the session; a duplicate or
        // late one removes nothing and changes nothing.
        if rec.pending_acks.remove(&hop) && rec.fully_acked() {
            // Parent the Stream/Terminal events on the *allocation* span
            // recorded at commit time, not on whichever participant's ack
            // happened to arrive last — that keeps merged timelines
            // reproducible when ack order varies between drivers.
            let anchor = out.anchor(rec.anchor);
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
        let Membership::Rm(state) = &mut self.membership else {
            return;
        };
        let Some(rec) = state.sessions.get(&session) else {
            return;
        };
        if let Some(h) = rec.graph.hops.get(hop) {
            let edge = h.edge;
            state.retire_edge(edge);
        }
        self.rm_repair_session(now, session, out);
    }

    pub(super) fn rm_on_session_end(&mut self, session: SessionId, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
            return;
        };
        let Some(rec) = close_session(state, session, out) else {
            return;
        };
        // Record this episode before fanning out `SessionEnd` messages:
        // they carry this span as the receivers' causal parent, and an
        // unrecorded span would leave their hop events orphaned in the
        // merged timeline.
        out.trace(TraceKind::SessionClosed { session });
        let peers = rec.graph.hops.iter().map(|h| h.peer).collect();
        self.end_session_on(session, peers, &[], out);
    }

    pub(super) fn rm_on_compose_timeout(
        &mut self,
        now: SimTime,
        session: SessionId,
        out: &mut Emit,
    ) {
        let composing = self
            .rm_state()
            .and_then(|state| state.sessions.get(&session))
            .is_some_and(|rec| !rec.fully_acked());
        // Otherwise it completed in time (or is gone): a stale timer.
        if composing {
            self.rm_repair_session(now, session, out);
        }
    }

    pub(super) fn rm_handle_member_loss(&mut self, now: SimTime, node: NodeId, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
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
    /// composition timed out: re-paths it in place, or closes it when no
    /// path is left. The task's QoS deadline is interpreted relative to the
    /// repair instant.
    fn rm_repair_session(&mut self, now: SimTime, session: SessionId, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
            return;
        };
        let Some(rec) = state.sessions.get(&session) else {
            return;
        };
        let task = rec.task.clone();
        // Repairs triggered by member loss arrive on an untraced event;
        // re-anchor to the task's own trace via the session record so its
        // timeline stays connected.
        let anchor = out.anchor(rec.anchor);
        let give_up = rec.repairs >= 2 || !state.view.contains(task.requester);
        // The new path is searched with the old one's footprint given back.
        let old_peers: Vec<NodeId> = state.release_path(session).iter().map(|h| h.peer).collect();
        let result = if give_up {
            Err(AllocError::NoFeasiblePath { explored: 0 })
        } else {
            state.allocate_task(&task, &self.cfg, &mut self.rng)
        };

        match result {
            Ok((alloc, source)) => {
                let Some(rec) = state.repath_session(session, &alloc, source) else {
                    return;
                };
                rec.repairs += 1;
                let graph = rec.graph.clone();
                // Tear down on peers no longer used.
                self.end_session_on(session, old_peers, &graph.hops, out);
                // A direct fetch has nothing to compose (and is composed
                // already: no hop awaits an ack).
                if !graph.hops.is_empty() {
                    self.launch_compose(session, &graph, now + task.qos.deadline, out);
                }
                out.actions.push(Action::SessionRepaired {
                    session,
                    ok: true,
                    at: now,
                });
                out.trace_under(anchor, TraceKind::SessionRepair { session, ok: true });
            }
            Err(_) => {
                let Some(rec) = close_session(state, session, out) else {
                    return;
                };
                self.end_session_on(session, old_peers, &[], out);
                if !rec.outcome_reported {
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
            }
        }
    }

    /// Adaptation loop (§4.5): migrate sessions off hot peers when a
    /// fairer placement exists.
    fn rm_reassign_hot_sessions(&mut self, now: SimTime, out: &mut Emit) {
        let Membership::Rm(state) = &mut self.membership else {
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
                rec.fully_acked() && rec.graph.hops.iter().any(|h| hot.contains(&h.peer))
            })
            .map(|(id, _)| *id)
            .take(MAX_REASSIGN_PER_TICK)
            .collect();

        for session in candidates {
            let Membership::Rm(state) = &mut self.membership else {
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
            probe.release_path(session);
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
            let Some(rec) = state.repath_session(session, &alloc, source) else {
                continue;
            };
            rec.pending_acks.clear(); // offline establishment: no acks
            let graph = rec.graph.clone();
            self.end_session_on(session, old_peers, &graph.hops, out);
            let mut joined: Vec<NodeId> = graph.hops.iter().map(|h| h.peer).collect();
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
