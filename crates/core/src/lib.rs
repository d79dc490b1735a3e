//! The middleware core: sans-I/O protocol state machines.
//!
//! This crate implements every behaviour the paper describes — overlay
//! construction and domain splitting (§4.1), RM election, backup and
//! failover (§4.1), the information base (§3), intra-domain load feedback
//! and inter-domain gossip (§4.4), fairness-maximising task allocation
//! (§4.3), admission control, query redirection and adaptive reassignment
//! (§4.5) — as a *pure state machine*:
//!
//! ```text
//! PeerNode::on_event(now, Event) -> Vec<Action>
//! ```
//!
//! No I/O, no clocks, no threads. A driver (the discrete-event simulator in
//! `arm-sim`, or the live threaded runtime in `arm-runtime`) feeds events
//! and executes actions (send message, arm timer). The same state machine
//! therefore runs identically under deterministic simulation and on real
//! threads — the property the whole evaluation rests on.
//!
//! Every node runs a [`PeerNode`]. A node *may* additionally hold the
//! Resource Manager role for its domain, in which case it carries an
//! [`rm::RmState`] with the domain view, resource graph, session table,
//! candidate ranking, and gossip summaries.

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

pub mod config;
pub mod events;
pub mod peer;
pub mod profile;
pub mod rm;

pub use config::ProtocolConfig;
pub use events::{Action, Event, TimerKind};
pub use peer::{PeerNode, Role};
pub use profile::{HandleProfiler, HANDLE_BUCKETS_SECS, HANDLE_METRIC};
pub use rm::{AllocMetrics, RmState};
