//! Live runtime: the middleware on real OS threads.
//!
//! The discrete-event simulator (`arm-sim`) gives reproducible
//! experiments; this runtime demonstrates that the *same* sans-I/O state
//! machines are a real concurrent middleware, not just a model. Each peer
//! runs on its own thread as an actor ([`net::NetPeer`]):
//!
//! * protocol messages travel through an [`arm_wire::Transport`] — framed
//!   TCP between processes, or the in-memory hub inside one,
//! * timers are kept in a per-peer heap and woken with `recv_timeout`,
//! * virtual time is wall-clock time since the clock was created, so the
//!   state machines observe real concurrency, real races and real delays.
//!
//! This module holds what the peer loop and its observers share: the
//! [`Telemetry`] sink, the [`PeerSpawn`] spec and the one `Action`
//! interpreter of the live side.
//!
//! The async substrate the calibration notes suggested (tokio) is not in
//! the approved crate set; OS threads + channels provide the same
//! decentralized-actor semantics (DESIGN.md §2, substitution 3).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use arm_core::{Action, Event};
use arm_model::task::TaskOutcome;
use arm_model::{MediaObject, ServiceSpec};
use arm_proto::Message;
use arm_telemetry::TraceEvent;
use arm_util::{DomainId, Lock, NodeId, SessionId, SimTime, TaskId};
use std::collections::BinaryHeap;
use std::sync::Arc;

pub mod demo;
pub mod net;

/// What happened during a run, shared across peer threads.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    /// Terminal task outcomes (task, outcome, at).
    pub outcomes: Vec<(TaskId, TaskOutcome, SimTime)>,
    /// Replies received by requesters (task, allocated, at).
    pub replies: Vec<(TaskId, bool, SimTime)>,
    /// Backup promotions (node, domain, at).
    pub promotions: Vec<(NodeId, DomainId, SimTime)>,
    /// Session repairs (session, ok, at).
    pub repairs: Vec<(SessionId, bool, SimTime)>,
    /// Messages handed to the transport.
    pub messages: u64,
    /// Structured trace events (populated when peers have tracing on,
    /// see [`arm_core::PeerNode::set_tracing`]).
    pub traces: Vec<TraceEvent>,
}

/// Retention cap for each [`Telemetry`] event series. A long-running
/// overlay emits outcomes/replies/traces forever; when a series reaches
/// the cap the oldest half is dropped so observers keep the recent window
/// without the process growing without bound.
pub const TELEMETRY_CAP: usize = 65_536;

/// Shared handle to a [`Telemetry`] sink, passed to networked peers.
pub type SharedTelemetry = Arc<Lock<Telemetry>>;

/// A fresh shared [`Telemetry`] sink.
pub fn shared_telemetry() -> SharedTelemetry {
    Arc::new(Lock::new(Telemetry::default()))
}

/// Appends to a telemetry series, dropping the oldest half at the cap.
fn push_capped<T>(series: &mut Vec<T>, item: T) {
    if series.len() >= TELEMETRY_CAP {
        series.drain(..TELEMETRY_CAP / 2);
    }
    series.push(item);
}

/// A message en route to a peer thread.
enum Delivery {
    /// Deliver `event` once `at` is reached.
    At(SimTime, Event),
    /// Terminate the peer thread.
    Stop,
}

/// Per-peer spec for spawning.
#[derive(Debug, Clone)]
pub struct PeerSpawn {
    /// Peer id (unique).
    pub id: NodeId,
    /// Processing capacity, work units/second.
    pub capacity: f64,
    /// Link bandwidth, kbps.
    pub bandwidth_kbps: u32,
    /// Hosted media objects.
    pub objects: Vec<MediaObject>,
    /// Offered services.
    pub services: Vec<ServiceSpec>,
    /// Contact peer (`None` founds the overlay).
    pub bootstrap: Option<NodeId>,
}

struct TimerEntry {
    at: SimTime,
    event: Event,
}
impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // min-heap
    }
}

/// The live side's one `Action` interpreter: records outcomes into
/// `telemetry`, arms timers in `pending`, forwards `Send` actions through
/// the caller's medium (`send` — an [`arm_wire::Transport`]), and hands
/// `Persist` intents to `persist` (the write-ahead log when a
/// `--state-dir` is configured; a no-op otherwise). Drains `actions`, the
/// actor's one buffer, so the next event starts from an empty one.
fn handle_actions<F, P>(
    telemetry: &Lock<Telemetry>,
    pending: &mut BinaryHeap<TimerEntry>,
    me: NodeId,
    now: SimTime,
    actions: &mut Vec<Action>,
    mut send: F,
    mut persist: P,
) where
    F: FnMut(NodeId, Message),
    P: FnMut(arm_store::Intent),
{
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => send(to, msg),
            Action::Persist(intent) => persist(intent),
            Action::SetTimer { kind, after } => {
                pending.push(TimerEntry {
                    at: now + after,
                    event: Event::Timer(kind),
                });
            }
            Action::Outcome {
                task, outcome, at, ..
            } => {
                push_capped(&mut telemetry.lock().outcomes, (task, outcome, at));
            }
            Action::ReplyReceived {
                task,
                allocated,
                at,
            } => {
                push_capped(&mut telemetry.lock().replies, (task, allocated, at));
            }
            Action::Promoted { domain, at } => {
                push_capped(&mut telemetry.lock().promotions, (me, domain, at));
            }
            Action::SessionRepaired { session, ok, at } => {
                push_capped(&mut telemetry.lock().repairs, (session, ok, at));
            }
            Action::SessionReassigned { .. } => {}
            Action::Trace(ev) => {
                push_capped(&mut telemetry.lock().traces, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_core::{PeerNode, ProtocolConfig};

    /// A driver of one founding peer: the interpreter's outputs.
    struct Driver {
        node: PeerNode,
        telemetry: Lock<Telemetry>,
        pending: BinaryHeap<TimerEntry>,
        sent: Vec<(NodeId, &'static str)>,
        persisted: usize,
    }

    impl Driver {
        fn new() -> Self {
            let node = PeerNode::new(
                NodeId::new(1),
                100.0,
                10_000,
                vec![],
                vec![],
                ProtocolConfig::default(),
                7,
                SimTime::ZERO,
            );
            Driver {
                node,
                telemetry: Lock::new(Telemetry::default()),
                pending: BinaryHeap::new(),
                sent: Vec::new(),
                persisted: 0,
            }
        }

        fn interpret(&mut self, now: SimTime, actions: &mut Vec<Action>) {
            let (sent, persisted) = (&mut self.sent, &mut self.persisted);
            handle_actions(
                &self.telemetry,
                &mut self.pending,
                NodeId::new(1),
                now,
                actions,
                |to, msg| sent.push((to, msg.kind())),
                |_| *persisted += 1,
            );
        }

        /// Everything the interpreter has applied so far.
        fn applied(&self) -> Applied {
            let mut timers: Vec<SimTime> = self.pending.iter().map(|t| t.at).collect();
            timers.sort();
            let telemetry = self.telemetry.lock();
            Applied {
                timers,
                sent: self.sent.clone(),
                persisted: self.persisted,
                outcomes: telemetry.outcomes.len(),
                traces: telemetry.traces.len(),
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct Applied {
        timers: Vec<SimTime>,
        sent: Vec<(NodeId, &'static str)>,
        persisted: usize,
        outcomes: usize,
        traces: usize,
    }

    /// The actor loop keeps one action buffer: `on_event_into` appends to
    /// it and `handle_actions` drains it. Twin peers see the same events,
    /// one through that buffer and one through a fresh list per event;
    /// after every event both have applied exactly the same timers, sends,
    /// WAL intents and outcomes, so no event re-applies an earlier one's.
    #[test]
    fn a_second_event_does_not_reapply_the_first_events_actions() {
        let (mut reused, mut fresh) = (Driver::new(), Driver::new());
        reused.node.set_tracing(true);
        fresh.node.set_tracing(true);
        let mut buffer = Vec::new();
        let mut events = vec![
            (SimTime::ZERO, Event::Start { bootstrap: None }),
            (
                SimTime::from_secs(1),
                Event::SubmitTask(demo::demo_task(1, NodeId::new(1))),
            ),
        ];
        for step in 0..14 {
            if events.len() <= step {
                // Then the node's own timers, earliest first.
                let (Some(a), Some(b)) = (fresh.pending.pop(), reused.pending.pop()) else {
                    break;
                };
                assert_eq!((a.at, &a.event), (b.at, &b.event));
                events.push((a.at, a.event));
            }
            let (now, event) = events[step].clone();
            reused.node.on_event_into(now, event.clone(), &mut buffer);
            reused.interpret(now, &mut buffer);
            assert!(buffer.is_empty(), "the interpreter drains the buffer");
            let mut own = fresh.node.on_event(now, event);
            fresh.interpret(now, &mut own);
            assert_eq!(reused.applied(), fresh.applied(), "after event {step}");
        }
        let applied = reused.applied();
        assert!(!applied.timers.is_empty() && applied.persisted > 0);
        assert!(applied.outcomes == 1 && applied.traces > 0);
    }
}
