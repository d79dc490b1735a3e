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
//! * the binary heap orders 24-byte `(time, seq, slot)` keys, never
//!   payloads: each payload sits in a slab slot (a `Vec` plus a free list)
//!   until it is delivered, so a sift moves keys however large the event
//!   type is;
//! * nothing is cancelled: every key names a full slot, so a pop
//!   delivers at once. (`arm-sim` needs no cancellation: a restarted
//!   peer's old timers fire and are dropped by the life they are stamped
//!   with.)
//!
//! The kernel is generic over the event payload type and knows nothing
//! about peers or messages; `arm-net` and `arm-sim` layer those on top.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::arithmetic_side_effects)
)]

mod kernel;

pub use kernel::{Scheduled, Simulator};
