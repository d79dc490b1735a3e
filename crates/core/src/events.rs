//! Events consumed and actions emitted by the state machines.

use arm_model::task::TaskOutcome;
use arm_model::TaskSpec;
use arm_proto::{Message, TraceCtx};
use arm_store::{Intent, StoreSnapshot};
use arm_telemetry::TraceEvent;
use arm_util::{DomainId, NodeId, SessionId, SimDuration, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// One-shot timers a node can arm. Firing delivers
/// [`Event::Timer`]; state machines re-arm recurring ones themselves and
/// ignore stale fires (e.g. a `SessionEnd` for a session already gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// The peer's one periodic liveness tick: runs whichever of its two
    /// duties are due — heartbeats and silence checks, and the Profiler's
    /// load report (§4.4) — and is set again for the next one due.
    Heartbeat,
    /// Inter-domain gossip tick (RM only).
    Gossip,
    /// Backup snapshot shipping tick (RM only).
    Backup,
    /// Adaptation tick: overload detection + session reassignment (RM).
    Adapt,
    /// Local scheduler polling while jobs are queued.
    SchedPoll,
    /// Join handshake retry.
    JoinRetry,
    /// End of a streaming session (RM side).
    SessionEnd(SessionId),
    /// Composition deadline for a session (RM side).
    ComposeTimeout(SessionId),
}

/// An input to [`PeerNode::on_event`](crate::PeerNode::on_event).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The node boots. With `bootstrap: None` it founds the overlay as the
    /// first Resource Manager; otherwise it runs the §4.1 join protocol
    /// against the given contact peer.
    Start {
        /// A peer already in the overlay, or `None` to found it.
        bootstrap: Option<NodeId>,
    },
    /// A protocol message arrived.
    Msg {
        /// The sending peer.
        from: NodeId,
        /// The payload.
        msg: Message,
        /// Causal trace context the message's envelope carried
        /// ([`TraceCtx::NONE`] for untraced traffic and legacy frames).
        ctx: TraceCtx,
    },
    /// A previously armed timer fired.
    Timer(TimerKind),
    /// The local user submits an application task (Fig. 2A).
    SubmitTask(TaskSpec),
    /// The local user renegotiates a running task's QoS (§4.5: "users may
    /// change QoS requirements dynamically").
    Renegotiate {
        /// The task whose requirements change.
        task: TaskId,
        /// The new requirement set.
        new_qos: arm_model::QosSpec,
    },
    /// The node shuts down. `graceful` announces departure (§4.1 "peers
    /// may disconnect intentionally"); otherwise it is a crash and peers
    /// find out by timeout.
    Shutdown {
        /// Whether departure is announced.
        graceful: bool,
    },
    /// The node boots from persisted state instead of cold ([`Event::Start`]):
    /// the driver loaded the snapshot and replayed the write-ahead log from
    /// `--state-dir`. The node restores its lifecycle phases, re-announces
    /// itself, and reconciles with the live overlay (stale epochs yield).
    Recover {
        /// The last committed snapshot, if one survived.
        snapshot: Box<StoreSnapshot>,
        /// Intents logged after that snapshot, in append order.
        intents: Vec<Intent>,
    },
}

impl Event {
    /// Convenience: an inbound message with no trace context, for drivers
    /// and tests that don't propagate causality.
    pub fn msg(from: NodeId, msg: Message) -> Self {
        Event::Msg {
            from,
            msg,
            ctx: TraceCtx::NONE,
        }
    }
}

/// An output of the state machine, executed by the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit a message.
    Send {
        /// Destination peer.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Arm a one-shot timer `after` from now.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay.
        after: SimDuration,
    },
    /// Telemetry: a terminal decision about a task was made at this node
    /// (allocation completed, rejected, or failed). Emitted by the RM that
    /// made the call; the driver aggregates these into experiment metrics.
    Outcome {
        /// The task.
        task: TaskId,
        /// What happened.
        outcome: TaskOutcome,
        /// When the decision landed.
        at: SimTime,
        /// Response time from submission, when known (allocation +
        /// composition latency for completed tasks).
        response: Option<SimDuration>,
    },
    /// Telemetry: the requesting peer received its `TaskReply`.
    ReplyReceived {
        /// The task.
        task: TaskId,
        /// True if an allocation was returned.
        allocated: bool,
        /// Arrival time of the reply.
        at: SimTime,
    },
    /// Telemetry: this node promoted itself from backup to RM (§4.1).
    Promoted {
        /// The domain taken over.
        domain: DomainId,
        /// When.
        at: SimTime,
    },
    /// Telemetry: a session repair was attempted after a participant died.
    SessionRepaired {
        /// The session.
        session: SessionId,
        /// Whether a replacement allocation was found.
        ok: bool,
        /// When.
        at: SimTime,
    },
    /// Telemetry: a running session was migrated by the adaptation loop
    /// (§4.5).
    SessionReassigned {
        /// The session.
        session: SessionId,
        /// Fairness before → after.
        fairness_gain: f64,
        /// When.
        at: SimTime,
    },
    /// Telemetry: a structured trace event (see [`arm_telemetry::trace`]).
    /// Only emitted when tracing is switched on via
    /// [`PeerNode::set_tracing`](crate::PeerNode::set_tracing); the driver
    /// forwards these to its [`arm_telemetry::Recorder`].
    Trace(TraceEvent),
    /// Durability: append this lifecycle intent to the write-ahead log
    /// before (or as) the driver executes the batch's other actions.
    /// Drivers without a `--state-dir` simply drop it — persistence is
    /// opt-in and the state machine never blocks on it.
    Persist(Intent),
}

/// Convenience extractors over action batches, used by drivers and tests.
pub trait ActionBatch {
    /// All `Send` actions as `(to, msg)` pairs.
    fn sends(&self) -> Vec<(NodeId, &Message)>;
    /// All armed timers.
    fn timers(&self) -> Vec<(TimerKind, SimDuration)>;
}

impl ActionBatch for [Action] {
    fn sends(&self) -> Vec<(NodeId, &Message)> {
        self.iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn timers(&self) -> Vec<(TimerKind, SimDuration)> {
        self.iter()
            .filter_map(|a| match a {
                Action::SetTimer { kind, after } => Some((*kind, *after)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_batch_extractors() {
        let actions = [
            Action::Send {
                to: NodeId::new(1),
                msg: Message::Leave {
                    node: NodeId::new(2),
                },
            },
            Action::SetTimer {
                kind: TimerKind::Heartbeat,
                after: SimDuration::from_secs(1),
            },
            Action::Promoted {
                domain: DomainId::new(1),
                at: SimTime::ZERO,
            },
        ];
        assert_eq!(actions.sends().len(), 1);
        assert_eq!(actions.sends()[0].0, NodeId::new(1));
        assert_eq!(
            actions.timers(),
            vec![(TimerKind::Heartbeat, SimDuration::from_secs(1))]
        );
    }
}
