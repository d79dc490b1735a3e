//! The lifecycle state controller: recovery's fold.
//!
//! Live, a node's handlers own its lifecycle state and log as an
//! [`Intent`] each transition recovery reads back. At boot,
//! [`StateController::restore`] takes what the snapshot persisted and
//! [`StateController::replay`] folds the write-ahead intents over it, in
//! log order, through one exhaustive and idempotent transition match — so
//! a crash between a snapshot's rename and the log reset only re-applies
//! intents as no-ops, and `snapshot ∘ replay` says where the crashed
//! process had got to.
//!
//! The fold holds the four facts recovery reads: the node phase, the RM
//! (or boot contact) to rejoin through, the epoch, and the set of live
//! sessions. A session is live from its `SessionAllocated` until its
//! `SessionClosed`; nothing else about it is logged. An intent that
//! cannot apply changes nothing: a close for a session the state never saw
//! allocated (its `SessionAllocated` was compacted into a snapshot that no
//! longer lists the session — it ended), or anything but the next
//! `NodeStarted` after `ShutdownRequested`.

use arm_util::{DomainId, NodeId, SessionId, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

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
        /// Shut down; only the next `NodeStarted` begins another life.
        Stopped = 4,
    }
}

phase_enum! {
    /// The tag a snapshot writes beside each live session. Recovery reads
    /// only the session ids; the tag keeps the snapshot format unchanged.
    SessionPhase {
        /// Compose fan-out sent; hop acks pending.
        Composing = 1,
        /// Every hop acked (or direct fetch): media is streaming.
        Streaming = 2,
    }
}

/// A lifecycle transition record the peer appends to the write-ahead log
/// as its handler makes the transition. Each kind moves a fact
/// [`StateController`] holds.
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
    /// This RM committed an allocation for the task.
    SessionAllocated {
        /// The new session.
        session: SessionId,
        /// The task it serves.
        task: TaskId,
    },
    /// A repair finished. Only older nodes wrote this (a failed repair now
    /// logs `SessionClosed`); it stays readable so their state dirs
    /// recover the same sessions.
    RepairFinished {
        /// The session.
        session: SessionId,
        /// Whether a replacement allocation was found.
        ok: bool,
    },
    /// The session ended (closed, failed repair or aborted at recovery)
    /// and its resources were released.
    SessionClosed {
        /// The session.
        session: SessionId,
    },
    /// The information base advanced to a new monotone version (join,
    /// leave, advertise — the epoch the recovery reconciliation compares).
    EpochAdvanced {
        /// The new version.
        version: u64,
    },
}

/// A node's lifecycle as recovery rebuilds it: the snapshot's persisted
/// state with the WAL tail folded over it.
#[derive(Debug, Clone, PartialEq)]
pub struct StateController {
    /// Node lifecycle phase.
    node: NodePhase,
    /// The RM this node follows, or the contact its current life booted
    /// through until it has one.
    rm: Option<NodeId>,
    /// Highest information-base version witnessed (the epoch).
    epoch: u64,
    /// Sessions allocated and not yet closed.
    live: BTreeSet<SessionId>,
}

impl Default for StateController {
    fn default() -> Self {
        Self::new()
    }
}

impl StateController {
    /// The state of a cold-started node.
    pub fn new() -> Self {
        Self::restore(NodePhase::Idle, None, [], 0)
    }

    /// The state a snapshot persisted. The caller then
    /// [`replay`](Self::replay)s the WAL intents appended after it.
    pub fn restore(
        node: NodePhase,
        rm: Option<NodeId>,
        live: impl IntoIterator<Item = SessionId>,
        epoch: u64,
    ) -> Self {
        Self {
            node,
            rm,
            epoch,
            live: live.into_iter().collect(),
        }
    }

    /// Current node phase.
    pub fn node_phase(&self) -> NodePhase {
        self.node
    }

    /// The RM this node follows, or its boot contact.
    pub fn rm(&self) -> Option<NodeId> {
        self.rm
    }

    /// Highest information-base version witnessed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sessions allocated and not yet closed.
    pub fn live_sessions(&self) -> &BTreeSet<SessionId> {
        &self.live
    }

    /// Folds `intents` over the state in log order. Idempotent: replaying
    /// intents already reflected changes nothing.
    pub fn replay(&mut self, intents: &[Intent]) {
        for intent in intents {
            self.apply(intent);
        }
    }

    /// The one exhaustive transition match. Every [`Intent`] variant and
    /// every [`NodePhase`] variant is named here: no arm is a wildcard, so
    /// rustc holds this function to that. An arm with an empty body is an
    /// intent already reflected or one that can no longer apply.
    fn apply(&mut self, intent: &Intent) {
        if self.node == NodePhase::Stopped && !matches!(intent, Intent::NodeStarted { .. }) {
            // Shutdown ends a life; `ShutdownRequested` again is a no-op too.
            return;
        }
        match intent {
            // Founders pass through Joining too; DomainFounded lands them
            // in Rm. The contact is the last resort recovery rejoins
            // through.
            Intent::NodeStarted { bootstrap } => match self.node {
                NodePhase::Idle => {
                    self.node = NodePhase::Joining;
                    self.rm = *bootstrap;
                }
                // A restart: of the life that ended only the epoch, which
                // never falls, carries over.
                NodePhase::Stopped => {
                    *self = Self::restore(NodePhase::Joining, *bootstrap, [], self.epoch)
                }
                NodePhase::Joining | NodePhase::Member | NodePhase::Rm => {}
            },
            Intent::DomainFounded { domain: _ } => match self.node {
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member => {
                    self.node = NodePhase::Rm
                }
                NodePhase::Rm | NodePhase::Stopped => {}
            },
            Intent::JoinAccepted { domain: _, rm } => match self.node {
                // From `Member` this is a re-accept after an orphan rejoin:
                // adopt the new RM.
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member => {
                    self.rm = Some(*rm);
                    self.node = NodePhase::Member;
                }
                NodePhase::Rm | NodePhase::Stopped => {}
            },
            Intent::RmAssumed { domain: _, version } => match self.node {
                NodePhase::Idle | NodePhase::Joining | NodePhase::Member | NodePhase::Rm => {
                    self.epoch = self.epoch.max(*version);
                    self.node = NodePhase::Rm;
                }
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
            Intent::SessionAllocated { session, task: _ } => {
                self.live.insert(*session);
            }
            // A repaired session keeps its id and stays live.
            Intent::RepairFinished {
                session: _,
                ok: true,
            } => {}
            Intent::RepairFinished { session, ok: false } | Intent::SessionClosed { session } => {
                self.live.remove(session);
            }
            Intent::EpochAdvanced { version } => self.epoch = self.epoch.max(*version),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SessionId {
        SessionId::new(n)
    }
    fn allocated(n: u64) -> Intent {
        Intent::SessionAllocated {
            session: sid(n),
            task: TaskId::new(n),
        }
    }
    fn closed(n: u64) -> Intent {
        Intent::SessionClosed { session: sid(n) }
    }
    fn live(ids: &[u64]) -> BTreeSet<SessionId> {
        ids.iter().copied().map(sid).collect()
    }

    #[test]
    fn allocated_sessions_stay_live_until_closed() {
        let mut c = StateController::new();
        c.replay(&[
            Intent::NodeStarted { bootstrap: None },
            Intent::DomainFounded {
                domain: DomainId::new(1),
            },
            allocated(1),
            allocated(2),
        ]);
        assert_eq!(c.node_phase(), NodePhase::Rm);
        assert_eq!(c.live_sessions(), &live(&[1, 2]));
        c.replay(&[closed(1)]);
        assert_eq!(c.live_sessions(), &live(&[2]));
    }

    #[test]
    fn close_for_a_session_never_allocated_is_ignored() {
        // The shape a compacted log has: the allocation went into a
        // snapshot that no longer lists the session.
        let mut c = StateController::new();
        let before = c.clone();
        c.replay(&[
            closed(7),
            Intent::RepairFinished {
                session: sid(7),
                ok: false,
            },
        ]);
        assert_eq!(c, before, "no residue");
        // Nothing was held back to fire once the id does get allocated.
        c.replay(&[allocated(7)]);
        assert_eq!(c.live_sessions(), &live(&[7]));
    }

    #[test]
    fn reapplying_is_idempotent() {
        let script = [allocated(1), allocated(2), closed(2)];
        let mut c = StateController::new();
        c.replay(&script);
        let once = c.clone();
        c.replay(&script);
        c.replay(&script[1..]);
        assert_eq!(c, once);
        assert_eq!(c.live_sessions(), &live(&[1]));
    }

    #[test]
    fn legacy_repair_records_close_only_on_failure() {
        let mut c = StateController::restore(NodePhase::Rm, None, [sid(2), sid(3)], 0);
        c.replay(&[
            Intent::RepairFinished {
                session: sid(2),
                ok: false,
            },
            Intent::RepairFinished {
                session: sid(3),
                ok: true,
            },
        ]);
        assert_eq!(c.live_sessions(), &live(&[3]));
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
    fn boot_contact_is_the_rm_until_a_join_names_one() {
        let mut c = StateController::new();
        c.replay(&[Intent::NodeStarted {
            bootstrap: Some(NodeId::new(1)),
        }]);
        assert_eq!(c.node_phase(), NodePhase::Joining);
        assert_eq!(c.rm(), Some(NodeId::new(1)));
        c.replay(&[Intent::JoinAccepted {
            domain: DomainId::new(3),
            rm: NodeId::new(3),
        }]);
        assert_eq!(c.rm(), Some(NodeId::new(3)));
    }

    #[test]
    fn stopped_node_absorbs_all_but_the_next_boot() {
        let mut c = StateController::new();
        c.replay(&[allocated(1), Intent::ShutdownRequested { graceful: true }]);
        assert_eq!(c.node_phase(), NodePhase::Stopped);
        let stopped = c.clone();
        c.replay(&[
            allocated(2),
            closed(1),
            Intent::EpochAdvanced { version: 5 },
            Intent::ShutdownRequested { graceful: false },
        ]);
        assert_eq!(c, stopped);
    }

    #[test]
    fn a_restart_in_the_same_log_begins_a_new_life() {
        let mut c = StateController::new();
        c.replay(&[
            Intent::NodeStarted { bootstrap: None },
            Intent::DomainFounded {
                domain: DomainId::new(4),
            },
            Intent::EpochAdvanced { version: 6 },
            allocated(1),
            allocated(2),
            Intent::ShutdownRequested { graceful: false },
            Intent::NodeStarted {
                bootstrap: Some(NodeId::new(2)),
            },
        ]);
        assert_eq!(
            c,
            StateController::restore(NodePhase::Joining, Some(NodeId::new(2)), [], 6)
        );
        // The new life's intents apply; the old life's sessions stay gone.
        c.replay(&[
            Intent::JoinAccepted {
                domain: DomainId::new(2),
                rm: NodeId::new(2),
            },
            Intent::EpochAdvanced { version: 3 },
            allocated(3),
            closed(2),
        ]);
        assert_eq!(c.node_phase(), NodePhase::Member);
        assert_eq!(c.rm(), Some(NodeId::new(2)));
        assert_eq!(c.epoch(), 6, "the epoch only rises");
        assert_eq!(c.live_sessions(), &live(&[3]));
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
