//! Durability: the snapshot a node persists and booting back from it.
//!
//! Live, lifecycle state has one owner: `role`/`domain`/`rm` and
//! `RmState::sessions`, assigned by the handlers, which log each
//! transition as an [`Intent`]. The snapshot derives its phases from that
//! state; arm-store's [`StateController`] appears only in
//! [`PeerNode::on_recover`], folding the WAL tail over the snapshot to say
//! where the crashed process had got to.

use super::{Emit, PeerNode, Role};
use crate::events::Action;
use crate::rm::RmState;
use arm_store::{Intent, NodePhase, SessionPhase, StateController, StoreSnapshot, SNAPSHOT_FORMAT};
use arm_util::{SessionId, SimTime};
use std::collections::BTreeMap;

impl PeerNode {
    /// Builds the durable snapshot of this node for `--state-dir`
    /// persistence: lifecycle phases derived from the role and the RM's
    /// session table, plus the full RM information base when this node
    /// leads a domain. `pulse_cursor` is the driver's retained-metrics
    /// sequence; `clean` marks a graceful-shutdown flush; `written_at_us`
    /// is informational wall-clock (never fed back into protocol time).
    pub fn store_snapshot(
        &self,
        now: SimTime,
        pulse_cursor: u64,
        clean: bool,
        written_at_us: u64,
    ) -> StoreSnapshot {
        let phase = match self.role {
            Role::Idle => NodePhase::Idle,
            Role::Joining => NodePhase::Joining,
            Role::Member => NodePhase::Member,
            Role::Rm => NodePhase::Rm,
        };
        let sessions = self.rm_state.iter().flat_map(|s| &s.sessions);
        StoreSnapshot {
            format: SNAPSHOT_FORMAT,
            node: self.id,
            phase: phase.tag(),
            domain: self.domain,
            rm: self.rm,
            rm_state: self.rm_state.as_ref().map(|s| s.snapshot(&self.cfg, now)),
            sessions: sessions
                .map(|(id, rec)| {
                    let phase = match rec.composed_at {
                        Some(_) => SessionPhase::Streaming,
                        None => SessionPhase::Composing,
                    };
                    (*id, phase.tag())
                })
                .collect(),
            pulse_cursor,
            wal_seq: 0,
            clean,
            written_at_us,
        }
    }

    /// Boots from persisted state (`--state-dir`): restores a state
    /// controller from the snapshot, folds the write-ahead intents
    /// over it, then re-enters the overlay in the recovered role —
    /// an RM resumes its information base and re-announces with a bumped
    /// epoch; a member rejoins through its last known RM. Sessions the
    /// WAL closed stay closed; sessions allocated after the snapshot
    /// (whose graphs died with the process) are cleanly aborted.
    pub(super) fn on_recover(
        &mut self,
        now: SimTime,
        snap: StoreSnapshot,
        intents: Vec<Intent>,
        out: &mut Emit,
    ) {
        if self.role != Role::Idle {
            return;
        }
        let phase = snap.node_phase();
        if snap.clean || matches!(phase, NodePhase::Stopped | NodePhase::Idle) {
            // Clean stop or pre-join crash: nothing to resume. Boot fresh,
            // using the last known RM as the join contact.
            let contact = snap.rm.filter(|r| *r != self.id);
            self.on_start(now, contact, out);
            return;
        }
        let epoch = snap.rm_state.as_ref().map(|s| s.version).unwrap_or(0);
        let mut replayed =
            StateController::restore(phase, snap.domain, snap.rm, snap.live_sessions(), epoch);
        replayed.replay(&intents);
        self.rm_epoch = replayed.epoch();

        if replayed.node_phase() == NodePhase::Rm {
            if let Some(rm_snap) = snap.rm_state {
                let domain = rm_snap.domain;
                let mut state = RmState::from_snapshot_resume(rm_snap, self.id, now);
                state.register_inventory(self.id, &self.objects, &self.services);
                // Sessions the WAL closed after the snapshot must not
                // resurrect: the replayed phase map is authoritative.
                let live: BTreeMap<SessionId, _> = replayed.live_sessions().into_iter().collect();
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
                        out.persist(Intent::SessionClosed { session: *s });
                    }
                }
                state.choose_backup(&self.cfg, now);
                let members = state.other_members();
                let version = state.version; // snapshot version + 1: a fresh epoch
                self.role = Role::Rm;
                self.enter_domain(domain, self.id, now, out);
                self.rm_epoch = version;
                self.last_logged_version = version;
                self.rm_state = Some(state);
                // Re-announce with the bumped epoch: live members adopt the
                // recovered RM; an interim backup-promoted RM reconciles via
                // `on_promote_announce` (higher epoch wins).
                self.announce_promotion(members, domain, version, out);
                Self::arm_grace_ends(resumable, out);
                out.actions.push(Action::Promoted { domain, at: now });
                self.arm_common_timers(out);
                self.arm_rm_timers(out);
                return;
            }
        }
        // Member-style recovery (also the fallback when an RM snapshot is
        // missing): rejoin through the last known RM, or refound.
        let contact = replayed
            .rm()
            .or(snap.rm)
            .filter(|r| *r != self.id)
            .or(self.bootstrap);
        match contact {
            Some(c) => {
                self.bootstrap = Some(c);
                self.start_joining(now, c, out);
            }
            // Nobody to call: refound the overlay.
            None => self.on_start(now, None, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::member;
    use super::*;
    use crate::events::{Event, TimerKind};
    use arm_util::NodeId;

    #[test]
    fn snapshot_phase_follows_the_role() {
        let mut n = member(7);
        let hb = n.cfg.heartbeat_timeout;
        let snap = n.store_snapshot(SimTime::from_secs(1), 0, false, 0);
        assert_eq!(snap.node_phase(), NodePhase::Member);
        assert_eq!(snap.rm, Some(NodeId::new(1)));

        // The RM falls silent past 2× the timeout and no backup snapshot
        // ever arrived: the member is orphaned and goes back to joining. No
        // intent marks that, so only the role can tell the snapshot.
        let later = SimTime::from_millis(20) + hb * 2 + hb;
        n.on_event(later, Event::Timer(TimerKind::Heartbeat));
        assert_eq!(n.role(), Role::Joining);
        let snap = n.store_snapshot(later, 0, false, 0);
        assert_eq!(snap.node_phase(), NodePhase::Joining);
        assert_eq!(snap.rm, None);

        // After shutdown the node is idle; recovery boots fresh from
        // `Idle` exactly as it does from `Stopped`.
        n.on_event(later, Event::Shutdown { graceful: false });
        let snap = n.store_snapshot(later, 0, false, 0);
        assert_eq!(snap.node_phase(), NodePhase::Idle);
    }
}
