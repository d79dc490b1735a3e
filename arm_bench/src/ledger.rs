//! The generator's books: what was sent when, what came back when, and
//! which measurement window each figure belongs to.
//!
//! All times are microseconds on the cluster's own `NetClock`, so a
//! latency is `at` of the program's reply or outcome minus the task's
//! **due** time. Charging from the due time, not the send time, is what
//! makes the open loop honest: when the generator or the cluster stalls,
//! the tasks that fell due meanwhile carry the wait.

use arm_model::task::TaskOutcome;
use std::collections::HashMap;

/// Consecutive measurement windows `[b0,b1) [b1,b2) ...` on the cluster
/// clock. Times before `b0` are warm-up, times from the last bound on are
/// drain; neither belongs to a window.
#[derive(Debug, Clone)]
pub struct Windows {
    bounds_us: Vec<u64>,
}

impl Windows {
    /// `count` windows of `len_us` each, the first starting at `start_us`.
    pub fn new(start_us: u64, len_us: u64, count: usize) -> Self {
        Self {
            bounds_us: (0..=count as u64).map(|i| start_us + i * len_us).collect(),
        }
    }

    pub fn count(&self) -> usize {
        self.bounds_us.len() - 1
    }

    pub fn start_us(&self, w: usize) -> u64 {
        self.bounds_us[w]
    }

    pub fn end_us(&self) -> u64 {
        self.bounds_us[self.count()]
    }

    /// The window `t_us` falls in, if any.
    pub fn index(&self, t_us: u64) -> Option<usize> {
        if t_us < self.bounds_us[0] || t_us >= self.end_us() {
            return None;
        }
        Some(self.bounds_us.partition_point(|b| *b <= t_us) - 1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    due_us: u64,
    window: Option<usize>,
    replied: bool,
}

/// What one window saw.
#[derive(Debug, Clone, Default)]
pub struct WindowBook {
    /// Due -> `TaskReply` handled at the requester, ms, tasks due in the window.
    pub reply_ms: Vec<f64>,
    /// Due -> terminal `Outcome`, ms, on-time tasks due in the window.
    pub terminal_ms: Vec<f64>,
    /// Send time minus due time, us: how late the generator ran.
    pub lag_us: Vec<f64>,
    /// Tasks due in the window, and how many of them the RM refused.
    pub submitted: u64,
    pub rejected: u64,
    /// On-time outcomes whose `at` stamp falls in the window.
    pub completed_on_time: u64,
}

/// The whole run's books.
#[derive(Debug)]
pub struct Ledger {
    windows: Windows,
    pending: HashMap<u64, Pending>,
    pub books: Vec<WindowBook>,
    /// Tasks due inside any window, and how many of them ended on time.
    pub submitted: u64,
    pub on_time: u64,
    /// Tasks sent in all (warm-up included), and how they ended.
    pub sent: u64,
    pub late: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Outcomes for a task that is not (or no longer) pending: a second
    /// terminal outcome for one task, which the output check refuses.
    pub stray_outcomes: u64,
}

impl Ledger {
    pub fn new(windows: Windows) -> Self {
        Self {
            books: vec![WindowBook::default(); windows.count()],
            windows,
            pending: HashMap::new(),
            submitted: 0,
            on_time: 0,
            sent: 0,
            late: 0,
            rejected: 0,
            failed: 0,
            stray_outcomes: 0,
        }
    }

    /// Tasks sent and not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// A task fell due at `due_us` and was handed to its peer at `sent_us`.
    pub fn sent(&mut self, task: u64, due_us: u64, sent_us: u64) {
        let window = self.windows.index(due_us);
        self.sent += 1;
        if let Some(w) = window {
            self.submitted += 1;
            self.books[w].submitted += 1;
            self.books[w]
                .lag_us
                .push(sent_us.saturating_sub(due_us) as f64);
        }
        self.pending.insert(
            task,
            Pending {
                due_us,
                window,
                replied: false,
            },
        );
    }

    /// The requester handled the task's `TaskReply` at `at_us`.
    pub fn reply(&mut self, task: u64, at_us: u64) {
        if let Some(p) = self.pending.get_mut(&task) {
            if let (Some(w), false) = (p.window, p.replied) {
                self.books[w]
                    .reply_ms
                    .push(at_us.saturating_sub(p.due_us) as f64 / 1e3);
            }
            p.replied = true;
        }
    }

    /// The task reached a terminal outcome at `at_us`.
    pub fn outcome(&mut self, task: u64, outcome: TaskOutcome, at_us: u64) {
        let Some(p) = self.pending.remove(&task) else {
            self.stray_outcomes += 1;
            return;
        };
        match outcome {
            TaskOutcome::CompletedOnTime => {
                if let Some(w) = p.window {
                    self.on_time += 1;
                    self.books[w]
                        .terminal_ms
                        .push(at_us.saturating_sub(p.due_us) as f64 / 1e3);
                }
                if let Some(w) = self.windows.index(at_us) {
                    self.books[w].completed_on_time += 1;
                }
            }
            TaskOutcome::CompletedLate => self.late += 1,
            TaskOutcome::Rejected => {
                self.rejected += 1;
                if let Some(w) = p.window {
                    self.books[w].rejected += 1;
                }
            }
            TaskOutcome::Failed => self.failed += 1,
        }
    }

    /// Gives up on every task due before `before_us` that is still pending
    /// (its outcome never came): it is failed, and its slot is free again.
    pub fn expire(&mut self, before_us: u64) {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.due_us >= before_us);
        self.failed += (before - self.pending.len()) as u64;
    }

    /// Tasks that did not end on time, of all sent (warm-up and drain
    /// included) — the run's `failed` count.
    pub fn not_on_time(&self) -> u64 {
        self.late + self.rejected + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_index_covers_half_open_ranges() {
        let w = Windows::new(1000, 500, 3);
        assert_eq!(w.count(), 3);
        assert_eq!(w.index(999), None);
        assert_eq!(w.index(1000), Some(0));
        assert_eq!(w.index(1499), Some(0));
        assert_eq!(w.index(1500), Some(1));
        assert_eq!(w.index(2499), Some(2));
        assert_eq!(w.index(2500), None);
        assert_eq!((w.start_us(2), w.end_us()), (2000, 2500));
    }

    /// Open loop against a stalled clock: three tasks fall due while the
    /// generator is stuck and are all sent late. Their latency must count
    /// from when they were due, and the lag must be reported.
    #[test]
    fn stall_is_charged_to_the_tasks_that_waited() {
        let mut l = Ledger::new(Windows::new(0, 10_000, 1));
        let stalled_until = 5_000;
        for (task, due) in [(1, 1_000), (2, 1_500), (3, 2_000)] {
            l.sent(task, due, stalled_until);
        }
        for task in 1..=3 {
            l.reply(task, 5_200);
            l.outcome(task, TaskOutcome::CompletedOnTime, 5_400);
        }
        let b = &l.books[0];
        assert_eq!(b.lag_us, vec![4_000.0, 3_500.0, 3_000.0]);
        assert_eq!(b.reply_ms, vec![4.2, 3.7, 3.2]);
        assert_eq!(b.terminal_ms, vec![4.4, 3.9, 3.4]);
        assert_eq!((l.submitted, l.on_time, b.completed_on_time), (3, 3, 3));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn warmup_tasks_are_tracked_but_not_measured() {
        let mut l = Ledger::new(Windows::new(1_000, 1_000, 2));
        l.sent(1, 500, 500); // warm-up
        l.sent(2, 1_900, 1_900); // window 0, completes in window 1
        l.outcome(1, TaskOutcome::CompletedOnTime, 1_200);
        l.outcome(2, TaskOutcome::CompletedOnTime, 2_100);
        assert_eq!((l.sent, l.submitted, l.on_time), (2, 1, 1));
        // Task 1 completed inside window 0 and counts towards its rate.
        assert_eq!(l.books[0].completed_on_time, 1);
        assert_eq!(l.books[1].completed_on_time, 1);
        assert_eq!(l.books[0].terminal_ms, vec![0.2]);
        assert!(l.books[1].terminal_ms.is_empty());
    }

    #[test]
    fn second_outcome_is_stray_and_missing_outcome_is_failed() {
        let mut l = Ledger::new(Windows::new(0, 10_000, 1));
        l.sent(1, 100, 100);
        l.sent(2, 200, 200);
        l.sent(3, 300, 300);
        l.outcome(1, TaskOutcome::CompletedOnTime, 400);
        l.outcome(1, TaskOutcome::CompletedOnTime, 500);
        l.outcome(2, TaskOutcome::Rejected, 500);
        assert_eq!(l.stray_outcomes, 1);
        l.expire(u64::MAX);
        assert_eq!((l.on_time, l.rejected, l.failed), (1, 1, 1));
        assert_eq!(l.not_on_time(), 2);
        assert_eq!(l.in_flight(), 0);
    }
}
