//! Local real-time scheduling for peers.
//!
//! §2 of the paper: "The Local Scheduler of every peer determines the
//! execution sequence of the applications at the peer … Our scheduling
//! algorithm is based on the Least Laxity Scheduling (LLS) algorithm that
//! exploits the deadlines of the applications and the actual computation
//! and execution times on the processors to determine an efficient
//! schedule."
//!
//! [`LocalScheduler`] is a preemptive single-processor simulation over
//! virtual time: jobs (units of application computation with absolute
//! deadlines) are submitted, and [`LocalScheduler::advance_to`] executes
//! them under the configured [`PolicyKind`]:
//!
//! * [`PolicyKind::LeastLaxity`] — the paper's choice: run the job with the
//!   smallest laxity `(deadline − now) − remaining/capacity`.
//! * [`PolicyKind::Edf`] — earliest deadline first (classical optimal
//!   single-CPU baseline).
//! * [`PolicyKind::Fifo`] — arrival order, non-deadline-aware baseline.
//! * [`PolicyKind::Sjf`] — shortest remaining work first.
//! * [`PolicyKind::ImportanceFirst`] — benefit-driven (Jensen-style):
//!   highest importance, EDF within a level.
//!
//! Laxity ties and all other comparisons break deterministically by job id.
//! Experiment E8 regenerates the miss-rate-vs-load comparison.

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
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects
    )
)]

mod policy;
mod scheduler;

pub use policy::PolicyKind;
pub use scheduler::{
    CompletedJob, DispatchDecision, Job, JobId, LocalScheduler, SchedulerConfig, SchedulerStats,
};
