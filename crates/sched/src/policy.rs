//! Scheduling policies: which ready job runs next.

use crate::scheduler::ReadyJob;
use arm_util::SimTime;
use serde::{Deserialize, Serialize};

/// The scheduling discipline of a peer's Local Scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least Laxity Scheduling — the paper's algorithm (§2).
    #[default]
    LeastLaxity,
    /// Earliest Deadline First.
    Edf,
    /// First-In First-Out (arrival order).
    Fifo,
    /// Shortest remaining work first.
    Sjf,
    /// Highest importance first; EDF among equals (value-based scheduling
    /// à la Jensen et al. \[10\] / Stankovic et al. \[26\]).
    ImportanceFirst,
}

impl PolicyKind {
    /// All policies, for experiment sweeps.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::LeastLaxity,
        PolicyKind::Edf,
        PolicyKind::Fifo,
        PolicyKind::Sjf,
        PolicyKind::ImportanceFirst,
    ];

    /// A short stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::LeastLaxity => "LLS",
            PolicyKind::Edf => "EDF",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Sjf => "SJF",
            PolicyKind::ImportanceFirst => "IMP",
        }
    }

    /// Picks the index of the job to run among `ready` at virtual time
    /// `now` on a CPU of the given `capacity`; `None` when nothing is ready.
    ///
    /// All policies tiebreak by ascending job id so scheduling is a pure
    /// deterministic function of the ready set.
    pub fn pick(self, ready: &[ReadyJob], now: SimTime, capacity: f64) -> Option<usize> {
        let key = |j: &ReadyJob| -> (f64, u64) {
            match self {
                PolicyKind::LeastLaxity => (j.laxity(now, capacity), j.job.id.raw()),
                PolicyKind::Edf => (j.job.deadline.as_micros() as f64, j.job.id.raw()),
                PolicyKind::Fifo => (j.job.arrival.as_micros() as f64, j.job.id.raw()),
                PolicyKind::Sjf => (j.remaining, j.job.id.raw()),
                PolicyKind::ImportanceFirst => (
                    // negative importance (max first), deadline as a fractional part
                    -(j.job.importance.value() as f64) * 1e15 + j.job.deadline.as_micros() as f64,
                    j.job.id.raw(),
                ),
            }
        };
        let mut best = 0;
        let mut best_key = key(ready.first()?);
        for (i, j) in ready.iter().enumerate().skip(1) {
            let k = key(j);
            if k.0 < best_key.0 - 1e-12 || ((k.0 - best_key.0).abs() <= 1e-12 && k.1 < best_key.1) {
                best = i;
                best_key = k;
            }
        }
        Some(best)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
