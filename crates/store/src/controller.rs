//! The lifecycle state controller: recovery's fold.
//!
//! Live, a node's handlers own its lifecycle state and log every
//! transition as an [`Intent`]. At boot, [`StateController::restore`]
//! takes the phases the snapshot persisted and [`StateController::replay`]
//! folds the write-ahead intents over them, in log order, through one
//! exhaustive and idempotent transition match — so a crash between a
//! snapshot's rename and the log reset only re-applies intents as no-ops,
//! and `snapshot ∘ replay` says where the crashed process had got to.
//!
//! An intent that cannot apply changes nothing: a hop ack for a session
//! already closed, anything after `ShutdownRequested`, or an intent for a
//! session the state never saw allocated (its `SessionAllocated` was
//! compacted into a snapshot that no longer lists the session — it ended).

use arm_model::task::TaskOutcome;
use arm_util::{DomainId, NodeId, SessionId, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Declares a lifecycle enum and its disk tags from one list, so a phase
/// cannot have an encoder without a decoder: the enum, `tag`, `from_tag`
/// and `ALL` are all this list.
macro_rules! phase_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident = $tag:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every phase, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The small integer a snapshot stores for this phase.
            pub fn tag(self) -> u8 {
                match self {
                    $($name::$variant => $tag,)+
                }
            }

            /// Inverse of [`Self::tag`]; `None` for a tag from a newer
            /// format.
            pub fn from_tag(tag: u8) -> Option<Self> {
                match tag {
                    $($tag => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

phase_enum! {
    /// Where the node is in its own lifecycle.
    NodePhase {
        /// Not started (or recovered into a pre-start state).
        Idle = 0,
        /// Running the §4.1 join handshake.
        Joining = 1,
        /// Admitted member of a domain.
        Member = 2,
        /// Resource Manager of a domain.
        Rm = 3,
        /// Shut down; no further transitions.
        Stopped = 4,
    }
}

phase_enum! {
    /// Where a session is in the task lifecycle
    /// (submit→query→allocation→composition→stream→terminal, §4.2–§4.5).
    SessionPhase {
        /// Allocation committed; composition not yet launched.
        Allocated = 0,
        /// Compose fan-out sent; hop acks pending.
        Composing = 1,
        /// Every hop acked (or direct fetch): media is streaming.
        Streaming = 2,
        /// A participant died or composition timed out; re-allocation in
        /// flight (§4.1 repair).
        Repairing = 3,
        /// Ended cleanly; resources released.
        Closed = 4,
        /// Repair gave up or the session was aborted.
        Failed = 5,
    }
}

/// A lifecycle transition record. Every variant is durable: the peer
/// appends it to the write-ahead log as its handler makes the transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Intent {
    /// The node booted (founding or joining the overlay).
    NodeStarted {
        /// Contact peer, `None` when founding.
        bootstrap: Option<NodeId>,
    },
    /// The node founded a domain and became its RM.
    DomainFounded {
        /// The new domain.
        domain: DomainId,
    },
    /// The node was admitted into a domain as a member.
    JoinAccepted {
        /// The domain joined.
        domain: DomainId,
        /// Its RM.
        rm: NodeId,
    },
    /// The node assumed RM duties: backup promotion (§4.1) or crash
    /// recovery resuming a persisted RM role.
    RmAssumed {
        /// The domain taken over.
        domain: DomainId,
        /// Information-base version at assumption (epoch).
        version: u64,
    },
    /// The node stepped down in favour of another RM whose announce
    /// carried a fresher epoch (stale-epoch reconciliation).
    RmYielded {
        /// The RM yielded to.
        to: NodeId,
    },
    /// The node began shutting down.
    ShutdownRequested {
        /// Whether departure was announced (§4.1 intentional disconnect).
        graceful: bool,
    },
    /// A task was submitted at this node (Fig. 2A).
    TaskSubmitted {
        /// The task.
        task: TaskId,
    },
    /// This RM committed an allocation for the task.
    SessionAllocated {
        /// The new session.
        session: SessionId,
        /// The task it serves.
        task: TaskId,
    },
    /// Composition fan-out launched for the session.
    ComposeLaunched {
        /// The session.
        session: SessionId,
    },
    /// Every hop acknowledged; streaming began.
    StreamStarted {
        /// The session.
        session: SessionId,
    },
    /// A repair re-allocation began (participant loss / compose timeout).
    RepairStarted {
        /// The session.
        session: SessionId,
    },
    /// A repair finished.
    RepairFinished {
        /// The session.
        session: SessionId,
        /// Whether a replacement allocation was found.
        ok: bool,
    },
    /// The adaptation loop migrated the session to a fairer placement
    /// (§4.5); it keeps streaming.
    SessionMigrated {
        /// The session.
        session: SessionId,
    },
    /// The session ended and its resources were released.
    SessionClosed {
        /// The session.
        session: SessionId,
    },
    /// Terminal verdict for a task decided at this node.
    TaskResolved {
        /// The task.
        task: TaskId,
        /// What happened.
        outcome: TaskOutcome,
    },
    /// The information base advanced to a new monotone version (join,
    /// leave, advertise — the epoch the recovery reconciliation compares).
    EpochAdvanced {
        /// The new version.
        version: u64,
    },
}

/// A node's lifecycle phases as recovery rebuilds them: the snapshot's
/// persisted phases with the WAL tail folded over them.
#[derive(Debug, Clone, PartialEq)]
pub struct StateController {
    /// Node lifecycle phase.
    node: NodePhase,
    /// Domain, once known.
    domain: Option<DomainId>,
    /// The RM this node follows (itself when `node == Rm`).
    rm: Option<NodeId>,
    /// Live sessions and their phases. Terminal sessions leave the map.
    sessions: BTreeMap<SessionId, SessionPhase>,
    /// Highest information-base version witnessed (the epoch).
    epoch: u64,
}

impl Default for StateController {
    fn default() -> Self {
        Self::new()
    }
}

impl StateController {
    /// The state of a cold-started node.
    pub fn new() -> Self {
        Self::restore(NodePhase::Idle, None, None, Vec::new(), 0)
    }

    /// The phases a snapshot persisted. The caller then
    /// [`replay`](Self::replay)s the WAL intents appended after it.
    pub fn restore(
        node: NodePhase,
        domain: Option<DomainId>,
        rm: Option<NodeId>,
        sessions: Vec<(SessionId, SessionPhase)>,
        epoch: u64,
    ) -> Self {
        Self {
            node,
            domain,
            rm,
            sessions: sessions.into_iter().collect(),
            epoch,
        }
    }

    /// Current node phase.
    pub fn node_phase(&self) -> NodePhase {
        self.node
    }

    /// Current domain, once known.
    pub fn domain(&self) -> Option<DomainId> {
        self.domain
    }

    /// The RM this node follows.
    pub fn rm(&self) -> Option<NodeId> {
        self.rm
    }

    /// Highest information-base version witnessed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Phase of a live session.
    pub fn session_phase(&self, session: SessionId) -> Option<SessionPhase> {
        self.sessions.get(&session).copied()
    }

    /// Live sessions and their phases, for snapshots.
    pub fn live_sessions(&self) -> Vec<(SessionId, SessionPhase)> {
        self.sessions.iter().map(|(s, p)| (*s, *p)).collect()
    }

    /// Folds `intents` over the state in log order. Idempotent: replaying
    /// intents already reflected changes nothing.
    pub fn replay(&mut self, intents: &[Intent]) {
        for intent in intents {
            self.apply(intent);
        }
    }

    /// The one exhaustive transition match. Every [`Intent`] variant and
    /// every [`SessionPhase`] / [`NodePhase`] variant is named here: no
    /// arm is a wildcard, so rustc holds this function to that. An arm
    /// with an empty body is an intent already reflected or one that can
    /// no longer apply.
    fn apply(&mut self, intent: &Intent) {
        if self.node == NodePhase::Stopped {
            // Shutdown is final; `ShutdownRequested` again is a no-op too.
            return;
        }
        match intent {
            // Founders pass through Joining too; DomainFounded lands them
            // in Rm.
            Intent::NodeStarted { bootstrap: _ } => match self.node {
                NodePhase::Idle => self.node = NodePhase::Joining,
                NodePhase::Joining | NodePhase::Member | NodePhase::Rm | NodePhase::Stopped => {}
            },
            Intent::DomainFounded { domain } => match self.node {
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member => {
                    self.domain = Some(*domain);
                    self.node = NodePhase::Rm;
                }
                NodePhase::Rm | NodePhase::Stopped => {}
            },
            Intent::JoinAccepted { domain, rm } => match self.node {
                // From `Member` this is a re-accept after an orphan rejoin:
                // adopt the new RM.
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member => {
                    self.domain = Some(*domain);
                    self.rm = Some(*rm);
                    self.node = NodePhase::Member;
                }
                NodePhase::Rm | NodePhase::Stopped => {}
            },
            Intent::RmAssumed { domain, version } => match self.node {
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member => {
                    self.domain = Some(*domain);
                    self.epoch = self.epoch.max(*version);
                    self.node = NodePhase::Rm;
                }
                NodePhase::Rm => self.epoch = self.epoch.max(*version),
                NodePhase::Stopped => {}
            },
            Intent::RmYielded { to } => match self.node {
                NodePhase::Rm => {
                    self.rm = Some(*to);
                    self.node = NodePhase::Member;
                }
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member | NodePhase::Stopped => {}
            },
            Intent::ShutdownRequested { graceful: _ } => self.node = NodePhase::Stopped,
            // Per-task state has no reader at recovery; the records stay
            // in the log format.
            Intent::TaskSubmitted { task: _ } | Intent::TaskResolved { .. } => {}
            Intent::SessionAllocated { session, task: _ } => {
                self.sessions
                    .entry(*session)
                    .or_insert(SessionPhase::Allocated);
            }
            Intent::ComposeLaunched { session } => match self.sessions.get(session) {
                Some(SessionPhase::Allocated) => {
                    self.set_session(*session, SessionPhase::Composing)
                }
                Some(
                    SessionPhase::Composing
                    | SessionPhase::Streaming
                    | SessionPhase::Repairing
                    | SessionPhase::Closed
                    | SessionPhase::Failed,
                )
                | None => {}
            },
            Intent::StreamStarted { session } => match self.sessions.get(session) {
                Some(
                    SessionPhase::Allocated | SessionPhase::Composing | SessionPhase::Repairing,
                ) => self.set_session(*session, SessionPhase::Streaming),
                Some(SessionPhase::Streaming | SessionPhase::Closed | SessionPhase::Failed)
                | None => {}
            },
            Intent::RepairStarted { session } => match self.sessions.get(session) {
                Some(
                    SessionPhase::Allocated | SessionPhase::Composing | SessionPhase::Streaming,
                ) => self.set_session(*session, SessionPhase::Repairing),
                Some(SessionPhase::Repairing | SessionPhase::Closed | SessionPhase::Failed)
                | None => {}
            },
            Intent::RepairFinished { session, ok } => match self.sessions.get(session) {
                Some(
                    SessionPhase::Repairing
                    | SessionPhase::Allocated
                    | SessionPhase::Composing
                    | SessionPhase::Streaming,
                ) => {
                    if *ok {
                        // Repaired sessions re-compose, then stream again.
                        self.set_session(*session, SessionPhase::Composing);
                    } else {
                        self.sessions.remove(session);
                    }
                }
                Some(SessionPhase::Closed | SessionPhase::Failed) | None => {}
            },
            Intent::SessionMigrated { session } => match self.sessions.get(session) {
                // Migration is an offline re-establishment: the session
                // keeps (or resumes) streaming on the new placement.
                Some(
                    SessionPhase::Allocated
                    | SessionPhase::Composing
                    | SessionPhase::Streaming
                    | SessionPhase::Repairing,
                ) => self.set_session(*session, SessionPhase::Streaming),
                Some(SessionPhase::Closed | SessionPhase::Failed) | None => {}
            },
            Intent::SessionClosed { session } => match self.sessions.get(session) {
                Some(
                    SessionPhase::Allocated
                    | SessionPhase::Composing
                    | SessionPhase::Streaming
                    | SessionPhase::Repairing,
                ) => {
                    self.sessions.remove(session);
                }
                Some(SessionPhase::Closed | SessionPhase::Failed) | None => {}
            },
            Intent::EpochAdvanced { version } => self.epoch = self.epoch.max(*version),
        }
    }

    fn set_session(&mut self, session: SessionId, to: SessionPhase) {
        self.sessions.insert(session, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SessionId {
        SessionId::new(n)
    }
    fn tid(n: u64) -> TaskId {
        TaskId::new(n)
    }
    fn allocated(n: u64) -> Intent {
        Intent::SessionAllocated {
            session: sid(n),
            task: tid(n),
        }
    }

    #[test]
    fn happy_path_reaches_streaming_then_closed() {
        let mut c = StateController::new();
        c.replay(&[
            Intent::NodeStarted { bootstrap: None },
            Intent::DomainFounded {
                domain: DomainId::new(1),
            },
            Intent::TaskSubmitted { task: tid(1) },
            allocated(1),
            Intent::ComposeLaunched { session: sid(1) },
            Intent::StreamStarted { session: sid(1) },
        ]);
        assert_eq!(c.node_phase(), NodePhase::Rm);
        assert_eq!(c.domain(), Some(DomainId::new(1)));
        assert_eq!(c.session_phase(sid(1)), Some(SessionPhase::Streaming));
        c.replay(&[
            Intent::SessionClosed { session: sid(1) },
            Intent::TaskResolved {
                task: tid(1),
                outcome: TaskOutcome::CompletedOnTime,
            },
        ]);
        assert_eq!(c.session_phase(sid(1)), None);
        assert!(c.live_sessions().is_empty());
    }

    #[test]
    fn intent_for_a_session_never_allocated_is_ignored() {
        // The shape a compacted log has: the allocation went into a
        // snapshot that no longer lists the session.
        let mut c = StateController::new();
        let before = c.clone();
        c.replay(&[
            Intent::StreamStarted { session: sid(7) },
            Intent::ComposeLaunched { session: sid(7) },
            Intent::RepairStarted { session: sid(7) },
            Intent::RepairFinished {
                session: sid(7),
                ok: true,
            },
            Intent::SessionMigrated { session: sid(7) },
            Intent::SessionClosed { session: sid(7) },
        ]);
        assert_eq!(c, before, "no residue");
        // Nothing was held back to fire once the id does get allocated.
        c.replay(&[allocated(7)]);
        assert_eq!(c.session_phase(sid(7)), Some(SessionPhase::Allocated));
    }

    #[test]
    fn reapplying_is_idempotent() {
        let script = [allocated(1), Intent::StreamStarted { session: sid(1) }];
        let mut c = StateController::new();
        c.replay(&script);
        let once = c.clone();
        c.replay(&script);
        c.replay(&script[1..]);
        assert_eq!(c, once);
        assert_eq!(c.session_phase(sid(1)), Some(SessionPhase::Streaming));
    }

    #[test]
    fn intents_after_close_do_not_resurrect() {
        let mut c = StateController::new();
        c.replay(&[
            allocated(1),
            Intent::SessionClosed { session: sid(1) },
            Intent::StreamStarted { session: sid(1) },
            Intent::SessionMigrated { session: sid(1) },
        ]);
        assert_eq!(c.session_phase(sid(1)), None);
    }

    #[test]
    fn failed_repair_ends_session() {
        let mut c = StateController::new();
        c.replay(&[
            allocated(2),
            Intent::ComposeLaunched { session: sid(2) },
            Intent::RepairStarted { session: sid(2) },
            Intent::RepairFinished {
                session: sid(2),
                ok: false,
            },
        ]);
        assert_eq!(c.session_phase(sid(2)), None);
        // A successful repair instead re-enters composition.
        c.replay(&[
            allocated(3),
            Intent::RepairStarted { session: sid(3) },
            Intent::RepairFinished {
                session: sid(3),
                ok: true,
            },
        ]);
        assert_eq!(c.session_phase(sid(3)), Some(SessionPhase::Composing));
    }

    #[test]
    fn promotion_and_yield_swap_roles() {
        let mut c = StateController::new();
        c.replay(&[
            Intent::NodeStarted {
                bootstrap: Some(NodeId::new(1)),
            },
            Intent::JoinAccepted {
                domain: DomainId::new(1),
                rm: NodeId::new(1),
            },
        ]);
        assert_eq!(c.node_phase(), NodePhase::Member);
        c.replay(&[Intent::RmAssumed {
            domain: DomainId::new(1),
            version: 9,
        }]);
        assert_eq!(c.node_phase(), NodePhase::Rm);
        assert_eq!(c.epoch(), 9);
        c.replay(&[Intent::RmYielded { to: NodeId::new(4) }]);
        assert_eq!(c.node_phase(), NodePhase::Member);
        assert_eq!(c.rm(), Some(NodeId::new(4)));
    }

    #[test]
    fn stopped_node_only_accepts_shutdown() {
        let mut c = StateController::new();
        c.replay(&[Intent::ShutdownRequested { graceful: true }]);
        assert_eq!(c.node_phase(), NodePhase::Stopped);
        let stopped = c.clone();
        c.replay(&[
            allocated(1),
            Intent::NodeStarted { bootstrap: None },
            Intent::EpochAdvanced { version: 5 },
            Intent::ShutdownRequested { graceful: false },
        ]);
        assert_eq!(c, stopped);
    }

    #[test]
    fn epoch_is_monotone() {
        let mut c = StateController::new();
        c.replay(&[
            Intent::EpochAdvanced { version: 5 },
            Intent::EpochAdvanced { version: 3 },
        ]);
        assert_eq!(c.epoch(), 5);
    }
}
