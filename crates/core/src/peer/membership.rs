//! Connection Manager (§2, §4.1): the join handshake, domain founding and
//! splitting, heartbeats and orphan rejoin, backup promotion, and the
//! epoch rule that reconciles competing claims to one domain.

use super::{Emit, Membership, PeerNode, Role};
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
        if !matches!(self.membership, Membership::Idle(..)) {
            return;
        }
        self.bootstrap = bootstrap;
        out.persist(Intent::NodeStarted { bootstrap });
        match bootstrap {
            // Found the overlay: become the first RM.
            None => self.become_rm(None, now, Vec::new(), out),
            Some(contact) => self.start_joining(now, Some(contact), out),
        }
    }

    /// Enters `Joining`, keeping the domain the node was in, and opens a
    /// join attempt through `contact` when it has one.
    pub(super) fn start_joining(&mut self, now: SimTime, contact: Option<NodeId>, out: &mut Emit) {
        let joining = Membership::Joining {
            hops_left: JOIN_HOPS,
            left_domain: self.domain(),
        };
        self.set_membership(joining, out);
        if let Some(contact) = contact {
            self.request_join(now, contact, out);
        }
    }

    /// One join attempt through `contact`, and the retry timer that
    /// re-initiates it.
    fn request_join(&self, now: SimTime, contact: NodeId, out: &mut Emit) {
        self.send_join_request(now, contact, out);
        out.timer(TimerKind::JoinRetry, self.cfg.join_timeout);
    }

    fn send_join_request(&self, now: SimTime, to: NodeId, out: &mut Emit) {
        let candidacy = self.candidacy(now);
        out.send(to, Message::JoinRequest { candidacy });
    }

    /// Founds `domain` (by default, the one named after this node) as its RM.
    fn become_rm(
        &mut self,
        domain: Option<DomainId>,
        now: SimTime,
        known_rms: Vec<(DomainId, NodeId)>,
        out: &mut Emit,
    ) {
        let domain = domain.unwrap_or(DomainId::new(self.id.raw()));
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
        self.set_membership(Membership::Rm(Box::new(state)), out);
        out.persist(Intent::DomainFounded { domain });
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
            if matches!(self.role(), Role::Rm | Role::Member) {
                self.duties.push((duty, now + self.duty_period(duty)));
            }
        }
        self.set_liveness_tick(None, now, out);
    }

    /// Starts each RM timer chain that is not running.
    pub(super) fn arm_rm_timers(&mut self, out: &mut Emit) {
        for (kind, period) in [
            (TimerKind::Gossip, self.cfg.gossip_period),
            (TimerKind::Backup, self.cfg.backup_period),
            (TimerKind::Adapt, self.cfg.adapt_period),
        ] {
            if !self.rm_chains.contains(&kind) {
                self.rm_chains.push(kind);
                out.timer(kind, period);
            }
        }
    }

    /// Stops the RM chain `kind`: its tick found the node no longer RM.
    pub(super) fn stop_rm_chain(&mut self, kind: TimerKind) {
        self.rm_chains.retain(|k| *k != kind);
    }

    pub(super) fn on_join_request(&mut self, now: SimTime, candidacy: RmCandidacy, out: &mut Emit) {
        let joiner = candidacy.node;
        match &mut self.membership {
            Membership::Rm(state) => {
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
            Membership::Member(m) => {
                out.send(joiner, Message::JoinRedirect { to: m.rm });
                out.trace(TraceKind::JoinRedirected {
                    member: joiner,
                    to: m.rm,
                });
            }
            Membership::Joining { .. } | Membership::Idle(..) => {}
        }
    }

    /// Follows a redirect within the hop budget; the pending `JoinRetry`
    /// timer (armed at Start/retry) is the only thing that re-initiates an
    /// attempt, so redirect rings cannot multiply request chains.
    pub(super) fn on_join_redirect(&mut self, now: SimTime, to: NodeId, out: &mut Emit) {
        let Membership::Joining { hops_left, .. } = &mut self.membership else {
            return;
        };
        if to != self.id && *hops_left > 0 {
            *hops_left -= 1;
            self.send_join_request(now, to, out);
        }
    }

    /// Joining → member of `domain` under `rm`; or, when the accept makes
    /// this node an RM and lists the RMs it knows (`founding`), → RM of
    /// `new_domain` (§4.1 splitting).
    pub(super) fn on_join_accept(
        &mut self,
        now: SimTime,
        domain: DomainId,
        rm: NodeId,
        new_domain: Option<DomainId>,
        founding: Option<Vec<(DomainId, NodeId)>>,
        out: &mut Emit,
    ) {
        if !matches!(self.membership, Membership::Joining { .. }) {
            return;
        }
        if let Some(known_rms) = founding {
            self.become_rm(new_domain, now, known_rms, out);
        } else {
            self.set_membership(Membership::member(domain, rm, 0, now), out);
            self.last_report_sent = Some(now);
            out.persist(Intent::JoinAccepted { domain, rm });
            self.advertise_to(rm, out);
            self.arm_common_timers(now, out);
        }
    }

    pub(super) fn on_join_retry(&mut self, now: SimTime, out: &mut Emit) {
        let Membership::Joining { hops_left, .. } = &mut self.membership else {
            return;
        };
        match self.bootstrap {
            Some(contact) => {
                *hops_left = JOIN_HOPS;
                self.request_join(now, contact, out);
            }
            None => self.become_rm(None, now, Vec::new(), out),
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
        if Some(domain) != self.domain() || new_rm == self.id {
            return;
        }
        match &mut self.membership {
            Membership::Member(m) => {
                if version >= m.epoch {
                    // A changed RM or a bumped epoch both mean the leader
                    // rebuilt its information base from a snapshot — which
                    // carries the resource graph but not the object
                    // directory. Same-RM same-epoch re-assertions skip the
                    // re-advertise.
                    let adopted = m.rm != new_rm || version > m.epoch;
                    m.epoch = version;
                    m.rm = new_rm;
                    m.last_heard = now;
                    if adopted {
                        self.advertise_to(new_rm, out);
                    }
                }
            }
            Membership::Rm(state) => {
                let mine = state.version;
                if version > mine || (version == mine && new_rm < self.id) {
                    self.yield_to(now, domain, new_rm, version, out);
                } else {
                    // Our epoch is fresher: re-assert so stale members (and
                    // the losing claimant) converge back to us.
                    let mut targets = state.other_members();
                    if !targets.contains(&new_rm) {
                        targets.push(new_rm);
                    }
                    self.announce_promotion(targets, domain, mine, out);
                }
            }
            Membership::Joining { .. } | Membership::Idle(..) => {}
        }
    }

    /// RM → member under `new_rm`, whose claim beat ours: the information
    /// base goes and the winner's learns this node's inventory.
    fn yield_to(&mut self, now: SimTime, domain: DomainId, new_rm: NodeId, v: u64, out: &mut Emit) {
        self.set_membership(Membership::member(domain, new_rm, v, now), out);
        out.persist(Intent::RmYielded { to: new_rm });
        self.advertise_to(new_rm, out);
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
        match &self.membership {
            Membership::Rm(_) => self.rm_handle_member_loss(now, node, out),
            // Our RM left gracefully. If we hold the backup, take over.
            Membership::Member(m) if m.rm == node => self.try_promote(now, out),
            _ => {}
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
        match &self.membership {
            Membership::Rm(state) => {
                for m in state.other_members() {
                    out.send(m, probe.clone());
                }
                let silent = state.silent_members(now, self.cfg.heartbeat_timeout);
                for dead in silent {
                    self.rm_handle_member_loss(now, dead, out);
                }
            }
            Membership::Member(m) => {
                // A report within the last period already told the RM.
                let quiet = self
                    .last_report_sent
                    .is_none_or(|at| now.saturating_since(at) > self.cfg.heartbeat_period);
                if quiet {
                    out.send(m.rm, probe);
                }
                let silence = now.saturating_since(m.last_heard);
                if silence > self.cfg.heartbeat_timeout {
                    if m.backup.is_some() {
                        self.try_promote(now, out);
                    } else if silence > self.cfg.heartbeat_timeout * 2 {
                        // Orphaned: rejoin through the original contact.
                        self.start_joining(now, self.bootstrap, out);
                    }
                }
            }
            Membership::Joining { .. } | Membership::Idle(..) => {}
        }
    }

    /// Member → RM from the backup snapshot (§4.1 failover). A member
    /// keeps only a snapshot of its own domain, so it is this one.
    fn try_promote(&mut self, now: SimTime, out: &mut Emit) {
        let Membership::Member(m) = &mut self.membership else {
            return;
        };
        let Some(snapshot) = m.backup.take() else {
            return;
        };
        let domain = snapshot.domain;
        let old_rm = snapshot.rm;
        let mut state = RmState::from_snapshot(*snapshot, self.id, now);
        // Carry over whatever this node knows locally.
        state.register_inventory(self.id, &self.objects, &self.services);
        let members = state.other_members();
        let sessions: Vec<SessionId> = state.sessions.keys().copied().collect();
        self.skip_session_ids(sessions.iter().copied());
        state.choose_backup(&self.cfg, now);
        let version = state.version;
        self.set_membership(Membership::Rm(Box::new(state)), out);
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
    use crate::events::{Action, ActionBatch, Event};

    /// Node 1 founds domain 1 and serves `clip(1)`, yields at 2 s to node 2
    /// at epoch 50, is sent node 2's backup snapshot (that session
    /// included) at 3 s, and takes over once node 2 falls silent. Returns
    /// the node, the session it first allocated, and the instant and
    /// actions of the takeover.
    fn yield_and_take_over() -> (PeerNode, Vec<SessionId>, SimTime, Vec<Action>) {
        let (two, domain) = (NodeId::new(2), DomainId::new(1));
        let mut n = holder(1);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        let first = allocated(&n.on_event(SimTime::from_secs(1), Event::SubmitTask(clip(1))));
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
        let later = SimTime::from_secs(4) + n.cfg.heartbeat_timeout;
        let takeover = n.on_event(later, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Rm);
        (n, first, later, takeover)
    }

    /// An RM that yields, then is promoted from a backup snapshot still
    /// holding a session it minted, mints a fresh id rather than that one.
    #[test]
    fn a_repromoted_rm_never_reissues_a_live_session_id() {
        let (mut n, first, later, _) = yield_and_take_over();
        let second = allocated(&n.on_event(later, Event::SubmitTask(clip(2))));
        assert_ne!(second, first);
        assert_eq!(n.rm_state().unwrap().sessions.len(), 2);
    }

    /// The founding life's `Gossip` tick is still pending when the node
    /// takes over again at 8 s: that chain carries on, and the promotion
    /// starts no second one beside it.
    #[test]
    fn a_repromoted_rm_runs_one_gossip_chain() {
        let (mut n, _, later, takeover) = yield_and_take_over();
        let stale = SimTime::ZERO + n.cfg.gossip_period;
        assert!(later < stale);
        let tick = n.on_event(stale, Event::Timer(TimerKind::Gossip));
        let gossip = |actions: &[Action]| {
            let timers = actions.timers();
            timers
                .iter()
                .filter(|(k, _)| *k == TimerKind::Gossip)
                .count()
        };
        assert_eq!(gossip(&takeover) + gossip(&tick), 1);
    }

    /// A member's RM epoch belongs to its domain. After an orphan rejoin
    /// into another domain, that domain's announcements count from 0.
    #[test]
    fn an_accept_into_another_domain_starts_the_epoch_afresh() {
        let announce = |new_rm: u64, domain: u64, version| {
            let new_rm = NodeId::new(new_rm);
            let domain = DomainId::new(domain);
            Event::msg(
                new_rm,
                Message::PromoteAnnounce {
                    new_rm,
                    domain,
                    version,
                },
            )
        };
        let mut n = member(7);
        n.on_event(SimTime::from_secs(1), announce(2, 1, 50));
        assert_eq!(n.rm(), Some(NodeId::new(2)));
        let hb = n.cfg.heartbeat_timeout;
        let later = SimTime::from_secs(1) + hb * 3;
        n.on_event(later, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Joining);
        let five = NodeId::new(5);
        let accept = Message::JoinAccept {
            domain: DomainId::new(5),
            rm: five,
            as_new_rm: false,
            new_domain: None,
            known_rms: vec![],
        };
        n.on_event(later, Event::msg(five, accept));
        assert_eq!(n.rm(), Some(five));
        n.on_event(later + hb, announce(6, 5, 3));
        assert_eq!(n.rm(), Some(NodeId::new(6)));
    }

    /// A member with no backup snapshot waits out one heartbeat timeout of
    /// RM silence, and past two it is orphaned: it goes back to joining
    /// through its bootstrap, still traced under the domain it left.
    #[test]
    fn a_member_whose_rm_falls_silent_rejoins_through_its_bootstrap() {
        let mut n = member(7);
        n.set_tracing(true);
        let (one, hb) = (NodeId::new(1), n.cfg.heartbeat_timeout);
        let accepted = SimTime::from_millis(20);
        let silent = accepted + hb + SimDuration::from_secs(1);
        let actions = n.on_event(silent, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Member);
        assert!(!actions
            .sends()
            .iter()
            .any(|(_, m)| matches!(m, Message::JoinRequest { .. })));

        let orphaned = accepted + hb * 3;
        let actions = n.on_event(orphaned, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Joining);
        assert_eq!(n.rm(), None);
        let requests: Vec<NodeId> = actions
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, Message::JoinRequest { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(requests, vec![one]);

        let submitted = n.on_event(orphaned, Event::SubmitTask(clip(1)));
        let traced: Vec<Option<DomainId>> = submitted
            .iter()
            .filter_map(|a| match a {
                Action::Trace(ev) => Some(ev.domain),
                _ => None,
            })
            .collect();
        assert_eq!(traced, vec![Some(DomainId::new(1))]);
        assert!(submitted.sends().is_empty());
    }

    /// Only a member keeps a backup snapshot. One that reaches an RM for
    /// its own domain is dropped, so after yielding the node holds none and,
    /// once its new RM falls silent, it is orphaned rather than promoted.
    #[test]
    fn an_rm_drops_a_backup_snapshot_of_its_own_domain() {
        let (two, domain) = (NodeId::new(2), DomainId::new(1));
        let mut n = node(1);
        n.on_event(SimTime::ZERO, Event::Start { bootstrap: None });
        let mut snapshot = Box::new(n.rm_state().unwrap().snapshot(&n.cfg, SimTime::ZERO));
        snapshot.rm = two;
        snapshot.version = 50;
        n.on_event(
            SimTime::from_secs(1),
            Event::msg(two, Message::BackupUpdate { snapshot }),
        );
        let announce = Message::PromoteAnnounce {
            new_rm: two,
            domain,
            version: 50,
        };
        n.on_event(SimTime::from_secs(2), Event::msg(two, announce));
        assert_eq!(n.role(), Role::Member);
        let later = SimTime::from_secs(2) + n.cfg.heartbeat_timeout * 3;
        n.on_event(later, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Joining);
        assert_eq!(n.domain(), Some(domain));
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
