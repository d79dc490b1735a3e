//! Deterministic discrete-event simulation kernel.
//!
//! The middleware's protocol logic is written sans-I/O; this crate supplies
//! the virtual-time engine that drives it in experiments. The kernel is a
//! classic event-list simulator:
//!
//! * events are scheduled at absolute [`SimTime`](arm_util::SimTime)
//!   instants and delivered in non-decreasing time order;
//! * ties are broken by scheduling sequence number, so runs are *exactly*
//!   deterministic — two events at the same instant are delivered in the
//!   order they were scheduled;
//! * events can be cancelled in O(log n) amortised (tombstoning), which the
//!   middleware uses for timers that are superseded (e.g. a failure-detector
//!   timeout re-armed on every heartbeat).
//!
//! The kernel is generic over the event payload type and knows nothing
//! about peers or messages; `arm-net` and `arm-sim` layer those on top.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod kernel;

pub use kernel::{EventId, Scheduled, Simulator};
