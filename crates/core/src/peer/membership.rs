//! Connection Manager (§2, §4.1): the join handshake, domain founding and
//! splitting, heartbeats and orphan rejoin, backup promotion, and the
//! epoch rule that reconciles competing claims to one domain.

use super::{Emit, PeerNode, Role};
use crate::events::TimerKind;
use crate::rm::RmState;
use arm_model::PeerInfo;
use arm_proto::{Message, RmCandidacy};
use arm_store::Intent;
use arm_telemetry::TraceKind;
use arm_util::{DomainId, NodeId, SessionId, SimDuration, SimTime};

/// Redirect hops one join attempt may follow.
const JOIN_HOPS: u8 = 8;

/// A periodic duty of the liveness tick ([`TimerKind::Heartbeat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Duty {
    /// Heartbeats and silence checks, every `heartbeat_period`.
    Heartbeat,
    /// The load report to the RM, every `report_period`.
    Report,
}

impl PeerNode {
    pub(super) fn on_start(&mut self, now: SimTime, bootstrap: Option<NodeId>, out: &mut Emit) {
        if self.role != Role::Idle {
            return;
        }
        self.bootstrap = bootstrap;
        out.persist(Intent::NodeStarted { bootstrap });
        match bootstrap {
            // Found the overlay: become the first RM.
            None => self.become_rm(DomainId::new(self.id.raw()), now, Vec::new(), out),
            Some(contact) => self.start_joining(now, contact, out),
        }
    }

    /// Enters `Joining` and opens a join attempt through `contact`.
    pub(super) fn start_joining(&mut self, now: SimTime, contact: NodeId, out: &mut Emit) {
        self.role = Role::Joining;
        self.request_join(now, contact, out);
    }

    /// One join attempt: a fresh redirect budget, a `JoinRequest` to
    /// `contact`, and the retry timer that re-initiates it.
    fn request_join(&mut self, now: SimTime, contact: NodeId, out: &mut Emit) {
        self.join_hops_left = JOIN_HOPS;
        out.send(
            contact,
            Message::JoinRequest {
                candidacy: self.candidacy(now),
            },
        );
        out.timer(TimerKind::JoinRetry, self.cfg.join_timeout);
    }

    /// Records the domain this node now belongs to, for itself and for the
    /// rest of this event's trace scope.
    pub(super) fn enter_domain(
        &mut self,
        domain: DomainId,
        rm: NodeId,
        now: SimTime,
        out: &mut Emit,
    ) {
        self.domain = Some(domain);
        out.domain = Some(domain);
        self.rm = Some(rm);
        self.last_rm_heard = now;
    }

    fn become_rm(
        &mut self,
        domain: DomainId,
        now: SimTime,
        known_rms: Vec<(DomainId, NodeId)>,
        out: &mut Emit,
    ) {
        self.role = Role::Rm;
        self.enter_domain(domain, self.id, now, out);
        out.persist(Intent::DomainFounded { domain });
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
        out.trace(TraceKind::RmElected { members });
        self.arm_common_timers(now, out);
        self.arm_rm_timers(out);
    }

    /// Starts each liveness duty that is not running, due a period from
    /// now, and sets the tick if a duty now falls due before the tick
    /// already set.
    pub(super) fn arm_common_timers(&mut self, now: SimTime, out: &mut Emit) {
        let set = self.next_duty();
        for duty in [Duty::Heartbeat, Duty::Report] {
            if self.duties.iter().all(|(d, _)| *d != duty) {
                self.duties.push((duty, now + self.duty_period(duty)));
            }
        }
        self.set_liveness_tick(set, now, out);
    }

    fn duty_period(&self, duty: Duty) -> SimDuration {
        match duty {
            Duty::Heartbeat => self.cfg.heartbeat_period,
            Duty::Report => self.cfg.report_period,
        }
    }

    /// When the earliest liveness duty falls due.
    fn next_duty(&self) -> Option<SimTime> {
        self.duties.iter().map(|(_, at)| *at).min()
    }

    /// Sets the liveness tick for the earliest due duty, unless the tick
    /// already `set` fires no later.
    fn set_liveness_tick(&self, set: Option<SimTime>, now: SimTime, out: &mut Emit) {
        if let Some(next) = self
            .next_duty()
            .filter(|next| set.is_none_or(|set| *next < set))
        {
            out.timer(TimerKind::Heartbeat, next.saturating_since(now));
        }
    }

    /// The liveness tick: runs the duties due by `now` in the order they
    /// were armed, re-arms each a period on while the node is in the
    /// overlay, and sets the tick for the next one due. A tick that finds
    /// nothing due was superseded by an earlier one and sets nothing.
    pub(super) fn on_liveness_tick(&mut self, now: SimTime, out: &mut Emit) {
        let mut due = [None; 2];
        let due_now = self.duties.iter().filter(|(_, at)| *at <= now);
        for (slot, (duty, _)) in due.iter_mut().zip(due_now) {
            *slot = Some(*duty);
        }
        if due[0].is_none() {
            return;
        }
        self.duties.retain(|(_, at)| *at > now);
        for duty in due.into_iter().flatten() {
            match duty {
                Duty::Heartbeat => self.heartbeat(now, out),
                Duty::Report => self.report_load(now, out),
            }
            if matches!(self.role, Role::Rm | Role::Member) {
                self.duties.push((duty, now + self.duty_period(duty)));
            }
        }
        self.set_liveness_tick(None, now, out);
    }

    pub(super) fn arm_rm_timers(&mut self, out: &mut Emit) {
        if self.rm_timers_armed {
            return;
        }
        self.rm_timers_armed = true;
        out.timer(TimerKind::Gossip, self.cfg.gossip_period);
        out.timer(TimerKind::Backup, self.cfg.backup_period);
        out.timer(TimerKind::Adapt, self.cfg.adapt_period);
    }

    pub(super) fn on_join_request(&mut self, now: SimTime, candidacy: RmCandidacy, out: &mut Emit) {
        let joiner = candidacy.node;
        match self.role {
            Role::Rm => {
                // Role and rm_state are updated together, but a panic here
                // would take the whole peer down on a protocol hiccup —
                // degrade to dropping the request instead.
                let Some(state) = self.rm_state.as_mut() else {
                    return;
                };
                let known: Vec<(DomainId, NodeId)> = std::iter::once((state.domain, state.me))
                    .chain(state.known_rms.iter().map(|(d, n)| (*d, *n)))
                    .collect();
                let accept = |known_rms, new_domain: Option<DomainId>| Message::JoinAccept {
                    domain: state.domain,
                    rm: state.me,
                    as_new_rm: new_domain.is_some(),
                    new_domain,
                    known_rms,
                };
                if state.domain_size() < self.cfg.max_domain_size {
                    out.send(joiner, accept(known, None));
                    state.admit_member(candidacy, now);
                    out.trace(TraceKind::JoinAccepted { member: joiner });
                } else if candidacy.qualifies(&self.cfg.rm_requirements) {
                    // Domain full and the newcomer qualifies: it founds a
                    // new domain (§4.1 splitting).
                    let new_domain = DomainId::new(joiner.raw());
                    out.send(joiner, accept(known, Some(new_domain)));
                    state.known_rms.insert(new_domain, joiner);
                    out.trace(TraceKind::Qualification {
                        candidate: joiner,
                        score: candidacy.score(),
                    });
                    out.trace(TraceKind::DomainSplit {
                        new_domain,
                        new_rm: joiner,
                        moved: 1,
                    });
                } else if let Some(other_rm) =
                    state.known_rms.values().copied().find(|n| *n != self.id)
                {
                    out.send(joiner, Message::JoinRedirect { to: other_rm });
                    out.trace(TraceKind::JoinRedirected {
                        member: joiner,
                        to: other_rm,
                    });
                } else {
                    // No alternative exists: admit anyway rather than
                    // orphan the peer (pragmatic deviation, documented).
                    out.send(joiner, accept(known, None));
                    state.admit_member(candidacy, now);
                    out.trace(TraceKind::JoinAccepted { member: joiner });
                }
            }
            Role::Member => {
                if let Some(rm) = self.rm {
                    out.send(joiner, Message::JoinRedirect { to: rm });
                    out.trace(TraceKind::JoinRedirected {
                        member: joiner,
                        to: rm,
                    });
                }
            }
            Role::Joining | Role::Idle => {}
        }
    }

    /// Follows a redirect within the hop budget; the pending `JoinRetry`
    /// timer (armed at Start/retry) is the only thing that re-initiates an
    /// attempt, so redirect rings cannot multiply request chains.
    pub(super) fn on_join_redirect(&mut self, now: SimTime, to: NodeId, out: &mut Emit) {
        if self.role == Role::Joining && to != self.id && self.join_hops_left > 0 {
            self.join_hops_left -= 1;
            out.send(
                to,
                Message::JoinRequest {
                    candidacy: self.candidacy(now),
                },
            );
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the argument list is the JoinAccept wire payload, destructured by the caller's \
                  match; bundling it back up would just re-invent the enum"
    )]
    pub(super) fn on_join_accept(
        &mut self,
        now: SimTime,
        domain: DomainId,
        rm: NodeId,
        as_new_rm: bool,
        new_domain: Option<DomainId>,
        known_rms: Vec<(DomainId, NodeId)>,
        out: &mut Emit,
    ) {
        if self.role != Role::Joining {
            return;
        }
        if as_new_rm {
            let nd = new_domain.unwrap_or_else(|| DomainId::new(self.id.raw()));
            self.become_rm(nd, now, known_rms, out);
        } else {
            self.role = Role::Member;
            self.enter_domain(domain, rm, now, out);
            self.last_report_sent = Some(now);
            out.persist(Intent::JoinAccepted { domain, rm });
            self.advertise_to(rm, out);
            self.arm_common_timers(now, out);
        }
    }

    pub(super) fn on_join_retry(&mut self, now: SimTime, out: &mut Emit) {
        if self.role != Role::Joining {
            return;
        }
        match self.bootstrap {
            Some(contact) => self.request_join(now, contact, out),
            None => self.become_rm(DomainId::new(self.id.raw()), now, Vec::new(), out),
        }
    }

    /// Reconciles a domain-takeover claim. Members follow the freshest
    /// epoch; an RM hearing a competing claim for its own domain yields
    /// to a strictly fresher epoch (ties break toward the lower node id)
    /// or re-asserts its claim otherwise — the rule that lets a crash-
    /// recovered RM and an interim promoted backup converge on one leader.
    pub(super) fn on_promote_announce(
        &mut self,
        now: SimTime,
        new_rm: NodeId,
        domain: DomainId,
        version: u64,
        out: &mut Emit,
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
                        self.advertise_to(new_rm, out);
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
                    out.persist(Intent::RmYielded { to: new_rm });
                    self.advertise_to(new_rm, out);
                } else if let Some(state) = self.rm_state.as_ref() {
                    // Our epoch is fresher: re-assert so stale members (and
                    // the losing claimant) converge back to us.
                    let mut targets = state.other_members();
                    if !targets.contains(&new_rm) {
                        targets.push(new_rm);
                    }
                    self.announce_promotion(targets, domain, mine, out);
                }
            }
            Role::Joining | Role::Idle => {}
        }
    }

    /// Tells `targets` this node leads `domain` at epoch `version`.
    pub(super) fn announce_promotion(
        &self,
        targets: Vec<NodeId>,
        domain: DomainId,
        version: u64,
        out: &mut Emit,
    ) {
        for m in targets {
            out.send(
                m,
                Message::PromoteAnnounce {
                    new_rm: self.id,
                    domain,
                    version,
                },
            );
        }
    }

    /// Bounds sessions taken over from a snapshot: end them after a grace
    /// period (their exact remaining durations died with the old timers).
    pub(super) fn arm_grace_ends(sessions: Vec<SessionId>, out: &mut Emit) {
        for s in sessions {
            out.timer(TimerKind::SessionEnd(s), SimDuration::from_secs(30));
        }
    }

    pub(super) fn on_leave(&mut self, now: SimTime, node: NodeId, out: &mut Emit) {
        if self.role == Role::Rm {
            self.rm_handle_member_loss(now, node, out);
        } else if Some(node) == self.rm {
            // Our RM left gracefully. If we hold the backup, take over.
            self.try_promote(now, out);
        }
    }

    /// The heartbeat duty of the liveness tick (§4.1): an RM probes its
    /// members and drops the silent ones; a member probes its RM on quiet
    /// ticks and takes over or rejoins when the RM has fallen silent.
    fn heartbeat(&mut self, now: SimTime, out: &mut Emit) {
        let probe = Message::Heartbeat {
            from: self.id,
            sent_at: now,
        };
        match self.role {
            Role::Rm => {
                let Some(state) = self.rm_state.as_mut() else {
                    return;
                };
                for m in state.other_members() {
                    out.send(m, probe.clone());
                }
                let silent = state.silent_members(now, self.cfg.heartbeat_timeout);
                for dead in silent {
                    self.rm_handle_member_loss(now, dead, out);
                }
            }
            Role::Member => {
                // A report within the last period already told the RM.
                let quiet = self
                    .last_report_sent
                    .is_none_or(|at| now.saturating_since(at) > self.cfg.heartbeat_period);
                if let Some(rm) = self.rm.filter(|_| quiet) {
                    out.send(rm, probe);
                }
                let silence = now.saturating_since(self.last_rm_heard);
                if silence > self.cfg.heartbeat_timeout {
                    if self.backup_snapshot.is_some() {
                        self.try_promote(now, out);
                    } else if silence > self.cfg.heartbeat_timeout * 2 {
                        // Orphaned: rejoin through the original contact.
                        self.role = Role::Joining;
                        self.join_hops_left = JOIN_HOPS;
                        self.rm = None;
                        if let Some(contact) = self.bootstrap {
                            self.request_join(now, contact, out);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Backup → RM promotion (§4.1 failover).
    fn try_promote(&mut self, now: SimTime, out: &mut Emit) {
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
        let members = state.other_members();
        let sessions: Vec<SessionId> = state.sessions.keys().copied().collect();
        self.skip_session_ids(sessions.iter().copied());
        state.choose_backup(&self.cfg, now);
        let version = state.version;
        self.rm_state = Some(state);
        self.role = Role::Rm;
        self.rm = Some(self.id);
        self.rm_epoch = version;
        self.announce_promotion(members, domain, version, out);
        Self::arm_grace_ends(sessions, out);
        self.arm_rm_timers(out);
        out.promoted(domain, version);
        out.trace(TraceKind::BackupPromoted { old_rm });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{allocated, clip, holder, member, node};
    use super::*;
    use crate::events::{ActionBatch, Event};

    /// An RM that yields, then is promoted from a backup snapshot still
    /// holding a session it minted, mints a fresh id rather than that one.
    #[test]
    fn a_repromoted_rm_never_reissues_a_live_session_id() {
        let (two, domain) = (NodeId::new(2), DomainId::new(1));
        let mut n = holder(1);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        let first = allocated(&n.on_event(SimTime::from_secs(1), Event::SubmitTask(clip(1))));
        // Node 2 will back the information base, that session included, up
        // here as its own.
        let mut snapshot = Box::new(n.rm_state().unwrap().snapshot(&n.cfg, SimTime::ZERO));
        snapshot.rm = two;
        snapshot.view.upsert(two, PeerInfo::idle(100.0, 10_000));
        let version = 50;
        let announce = Message::PromoteAnnounce {
            new_rm: two,
            domain,
            version,
        };
        n.on_event(SimTime::from_secs(2), Event::msg(two, announce));
        assert_eq!(n.role(), Role::Member);
        snapshot.version = version;
        n.on_event(
            SimTime::from_secs(3),
            Event::msg(two, Message::BackupUpdate { snapshot }),
        );
        // Node 2 falls silent; node 1 takes over and serves another task.
        let later = SimTime::from_secs(4) + n.cfg.heartbeat_timeout;
        n.on_event(later, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Rm);
        let second = allocated(&n.on_event(later, Event::SubmitTask(clip(2))));
        assert_ne!(second, first);
        assert_eq!(n.rm_state().unwrap().sessions.len(), 2);
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
    fn member_join_request_redirects_to_rm() {
        let mut n = member(9);
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
