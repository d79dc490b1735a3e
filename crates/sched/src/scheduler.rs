//! The preemptive single-CPU scheduler simulation.

use crate::policy::PolicyKind;
use arm_model::Importance;
use arm_util::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies a job within one scheduler (unique per peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl JobId {
    /// The raw value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A unit of application computation with a soft deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id (also the deterministic tiebreak).
    pub id: JobId,
    /// When the job became ready.
    pub arrival: SimTime,
    /// Absolute soft deadline.
    pub deadline: SimTime,
    /// Total work, in the same units as CPU capacity × seconds.
    pub work: f64,
    /// Relative importance (`Importance_t`).
    pub importance: Importance,
}

/// A job in the ready queue, with its execution progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadyJob {
    /// The job.
    pub job: Job,
    /// Work still to be done.
    pub remaining: f64,
}

impl ReadyJob {
    /// Laxity at `now` on a CPU of `capacity`:
    /// `(deadline − now) − remaining/capacity`. Negative laxity means the
    /// job can no longer finish on time even if run exclusively.
    pub fn laxity(&self, now: SimTime, capacity: f64) -> f64 {
        let ahead = self.job.deadline.saturating_since(now).as_secs_f64();
        let behind = now.saturating_since(self.job.deadline).as_secs_f64();
        ahead - behind - self.remaining / capacity
    }
}

/// One dispatch decision: the moment the scheduler switched the CPU to a
/// different job than it was running before.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DispatchDecision {
    /// When the switch happened.
    pub at: SimTime,
    /// The job granted the CPU.
    pub job: JobId,
    /// The job's laxity at decision time, in microseconds (negative means
    /// it can no longer finish on time even running exclusively).
    pub laxity_us: i64,
}

/// A finished (or aborted) job record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedJob {
    /// The job.
    pub job: Job,
    /// When it finished executing (or was aborted).
    pub finished: SimTime,
    /// True if it finished after its deadline.
    pub missed: bool,
    /// True if it was abandoned rather than run to completion
    /// (only with [`SchedulerConfig::abort_late`]).
    pub aborted: bool,
}

impl CompletedJob {
    /// Response time (finish − arrival).
    pub fn response_time(&self) -> SimDuration {
        self.finished.saturating_since(self.job.arrival)
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Scheduling discipline.
    pub policy: PolicyKind,
    /// CPU capacity in work units per second.
    pub capacity: f64,
    /// If set, the scheduler also re-evaluates its choice every quantum
    /// even without an arrival/completion (needed for true least-laxity
    /// behaviour, where waiting jobs lose laxity over time).
    pub quantum: Option<SimDuration>,
    /// If true, a job whose deadline has passed is aborted instead of
    /// completing late (shed; counted as missed + aborted).
    pub abort_late: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::LeastLaxity,
            capacity: 1.0,
            quantum: Some(SimDuration::from_millis(10)),
            abort_late: false,
        }
    }
}

/// Aggregate statistics of a scheduler's history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Jobs completed on time.
    pub on_time: u64,
    /// Jobs that finished (or were aborted) after their deadline.
    pub missed: u64,
    /// Of the missed, how many were aborted.
    pub aborted: u64,
    /// Total busy CPU time in seconds.
    pub busy_secs: f64,
    /// Sum of response times in seconds (mean = / (on_time+missed)).
    pub response_secs_sum: f64,
}

impl SchedulerStats {
    /// Deadline miss ratio over all finished jobs.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.on_time.saturating_add(self.missed);
        if total == 0 {
            0.0
        } else {
            self.missed as f64 / total as f64
        }
    }

    /// Mean response time in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        let total = self.on_time.saturating_add(self.missed);
        if total == 0 {
            0.0
        } else {
            self.response_secs_sum / total as f64
        }
    }
}

/// A preemptive single-CPU scheduler over virtual time.
///
/// Drive it by calling [`LocalScheduler::submit`] and
/// [`LocalScheduler::advance_to`]; the scheduler executes the policy's
/// chosen job continuously between decision points (arrivals, completions,
/// quantum expiries).
///
/// # Examples
///
/// ```
/// use arm_sched::{LocalScheduler, SchedulerConfig};
/// use arm_model::Importance;
/// use arm_util::{SimDuration, SimTime};
///
/// let mut sched = LocalScheduler::new(SchedulerConfig::default()); // LLS, capacity 1
/// sched.submit_now(0.5, SimDuration::from_secs(2), Importance::NORMAL);
/// sched.advance_to(SimTime::from_secs(1));
/// assert_eq!(sched.stats().on_time, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LocalScheduler {
    config: SchedulerConfig,
    now: SimTime,
    ready: Vec<ReadyJob>,
    completed: Vec<CompletedJob>,
    decisions: Vec<DispatchDecision>,
    running: Option<JobId>,
    stats: SchedulerStats,
    next_job_id: u64,
}

impl LocalScheduler {
    /// Creates a scheduler at time zero.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.capacity > 0.0, "zero-capacity CPU");
        Self {
            config,
            now: SimTime::ZERO,
            ready: Vec::new(),
            completed: Vec::new(),
            decisions: Vec::new(),
            running: None,
            stats: SchedulerStats::default(),
            next_job_id: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Allocates a fresh job id.
    pub fn next_job_id(&mut self) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id = self.next_job_id.wrapping_add(1);
        id
    }

    /// Submits a job. Its arrival must not precede the current time.
    pub fn submit(&mut self, job: Job) {
        assert!(
            job.arrival >= self.now,
            "job arrives in the past: {} < {}",
            job.arrival,
            self.now
        );
        assert!(job.work > 0.0, "zero-work job");
        // Advance to the arrival instant first so execution accounting of
        // earlier jobs is correct.
        self.advance_to(job.arrival);
        self.ready.push(ReadyJob {
            remaining: job.work,
            job,
        });
    }

    /// Convenience: submits a job arriving now with a relative deadline.
    pub fn submit_now(
        &mut self,
        work: f64,
        relative_deadline: SimDuration,
        importance: Importance,
    ) -> JobId {
        let id = self.next_job_id();
        let arrival = self.now;
        self.submit(Job {
            id,
            arrival,
            deadline: arrival.saturating_add(relative_deadline),
            work,
            importance,
        });
        id
    }

    /// Number of jobs in the ready queue.
    pub fn queue_len(&self) -> usize {
        self.ready.len()
    }

    /// Outstanding work in the ready queue, in work units.
    pub fn backlog(&self) -> f64 {
        self.ready.iter().map(|r| r.remaining).sum()
    }

    /// Instantaneous utilization proxy: 1 if any job is ready, else 0.
    /// (Sustained utilization comes from [`SchedulerStats::busy_secs`].)
    pub fn is_busy(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Completed-job history.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Drains the completed-job history, returning it.
    pub fn take_completed(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }

    /// Dispatch decisions recorded since the last drain. One entry per CPU
    /// *switch* (not per quantum), so the log stays proportional to
    /// preemptions rather than simulated time.
    pub fn decisions(&self) -> &[DispatchDecision] {
        &self.decisions
    }

    /// Drains the dispatch-decision log, returning it.
    pub fn take_decisions(&mut self) -> Vec<DispatchDecision> {
        std::mem::take(&mut self.decisions)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Executes until virtual time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance backwards");
        while self.now < t {
            // Shed late jobs first if configured; the survivors' earliest
            // deadline is then in the future.
            let mut next_expiry = None;
            if self.config.abort_late {
                let now = self.now;
                let mut i = 0;
                while let Some(r) = self.ready.get(i) {
                    if r.job.deadline <= now {
                        let r = self.ready.swap_remove(i);
                        self.finish(r, now, true);
                    } else {
                        i = i.saturating_add(1);
                    }
                }
                next_expiry = self.ready.iter().map(|r| r.job.deadline).min();
            }

            let picked = self
                .config
                .policy
                .pick(&self.ready, self.now, self.config.capacity);
            let Some((idx, r)) = picked.and_then(|i| self.ready.get_mut(i).map(|r| (i, r))) else {
                // Nothing ready: idle until `t`.
                self.running = None;
                self.now = t;
                return;
            };
            if self.running != Some(r.job.id) {
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "float-to-int `as` saturates; the sub-microsecond part is dropped on purpose"
                )]
                let laxity_us = (r.laxity(self.now, self.config.capacity) * 1e6) as i64;
                self.decisions.push(DispatchDecision {
                    at: self.now,
                    job: r.job.id,
                    laxity_us,
                });
                self.running = Some(r.job.id);
            }
            let to_completion = SimDuration::from_secs_f64(r.remaining / self.config.capacity);
            // Run until: target time, completion, or quantum expiry.
            let mut slice = t.saturating_since(self.now).min(to_completion);
            if let Some(q) = self.config.quantum {
                slice = slice.min(q);
            }
            // If abort_late, also stop at the next deadline expiry so
            // shedding happens promptly.
            if let Some(min_dl) = next_expiry {
                slice = slice.min(min_dl.saturating_since(self.now));
            }
            // Guard against zero-length slices from rounding: always make
            // at least 1µs of progress when work remains.
            if slice.is_zero() {
                slice = SimDuration::from_micros(1).min(t.saturating_since(self.now));
                if slice.is_zero() {
                    return;
                }
            }

            let done_work = slice.as_secs_f64() * self.config.capacity;
            self.now = self.now.saturating_add(slice);
            self.stats.busy_secs += slice.as_secs_f64();
            r.remaining -= done_work;
            if r.remaining <= 1e-9 {
                let finished = self.ready.swap_remove(idx);
                let now = self.now;
                self.finish(finished, now, false);
            }
        }
    }

    fn finish(&mut self, r: ReadyJob, at: SimTime, aborted: bool) {
        let missed = at > r.job.deadline || aborted;
        if missed {
            self.stats.missed = self.stats.missed.saturating_add(1);
            if aborted {
                self.stats.aborted = self.stats.aborted.saturating_add(1);
            }
        } else {
            self.stats.on_time = self.stats.on_time.saturating_add(1);
        }
        self.stats.response_secs_sum += at.saturating_since(r.job.arrival).as_secs_f64();
        self.completed.push(CompletedJob {
            job: r.job,
            finished: at,
            missed,
            aborted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: PolicyKind) -> LocalScheduler {
        LocalScheduler::new(SchedulerConfig {
            policy,
            capacity: 10.0, // 10 work units per second
            quantum: Some(SimDuration::from_millis(10)),
            abort_late: false,
        })
    }

    fn job(id: u64, arrival_s: u64, deadline_s: u64, work: f64) -> Job {
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival_s),
            deadline: SimTime::from_secs(deadline_s),
            work,
            importance: Importance::NORMAL,
        }
    }

    #[test]
    fn laxity_before_at_and_after_the_deadline() {
        // 2 work units left on a capacity-4 CPU: 0.5 s to completion.
        let ready = ReadyJob {
            job: job(1, 0, 3, 8.0),
            remaining: 2.0,
        };
        let at = |ms| ready.laxity(SimTime::from_millis(ms), 4.0);
        assert_eq!(at(2_000), 0.5); // 1 s before the deadline
        assert_eq!(at(3_000), -0.5); // at the deadline
        assert_eq!(at(4_500), -2.0); // 1.5 s past it
    }

    #[test]
    fn single_job_completes_on_time() {
        let mut s = sched(PolicyKind::LeastLaxity);
        s.submit(job(1, 0, 2, 10.0)); // 1s of work, 2s deadline
        s.advance_to(SimTime::from_secs(5));
        assert_eq!(s.completed().len(), 1);
        let c = &s.completed()[0];
        assert_eq!(c.finished, SimTime::from_secs(1));
        assert!(!c.missed);
        assert_eq!(s.stats().on_time, 1);
        assert!((s.stats().busy_secs - 1.0).abs() < 1e-9);
        assert_eq!(c.response_time(), SimDuration::from_secs(1));
    }

    #[test]
    fn overload_causes_misses() {
        let mut s = sched(PolicyKind::Edf);
        // 3 jobs of 1s work each, all due at t=2: only two can make it.
        for i in 0..3 {
            s.submit(job(i, 0, 2, 10.0));
        }
        s.advance_to(SimTime::from_secs(10));
        assert_eq!(s.completed().len(), 3);
        assert_eq!(s.stats().on_time, 2);
        assert_eq!(s.stats().missed, 1);
        assert!((s.stats().miss_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut s = sched(PolicyKind::Edf);
        s.submit(job(1, 0, 10, 5.0)); // late deadline
        s.submit(job(2, 0, 1, 5.0)); // early deadline
        s.advance_to(SimTime::from_secs(5));
        // Job 2 (earlier deadline) finishes first.
        assert_eq!(s.completed()[0].job.id, JobId(2));
        assert!(!s.completed()[0].missed);
    }

    #[test]
    fn fifo_ignores_deadlines() {
        let mut s = sched(PolicyKind::Fifo);
        s.submit(job(1, 0, 10, 10.0)); // runs 0..1s under FIFO
        s.advance_to(SimTime::from_millis(100));
        s.submit(Job {
            id: JobId(2),
            arrival: SimTime::from_millis(100),
            deadline: SimTime::from_secs(1),
            work: 5.0,
            importance: Importance::NORMAL,
        }); // would need to preempt to make it
        s.advance_to(SimTime::from_secs(5));
        // FIFO runs job 1 to completion; job 2 misses.
        assert_eq!(s.completed()[0].job.id, JobId(1));
        assert!(s.completed()[1].missed);
    }

    #[test]
    fn lls_preempts_for_lower_laxity() {
        let mut s = sched(PolicyKind::LeastLaxity);
        // Job 1: plenty of laxity (deadline 10, work 0.5s).
        s.submit(job(1, 0, 10, 5.0));
        s.advance_to(SimTime::from_millis(100));
        // Job 2: tight (deadline 0.7s from now, work 0.5s ⇒ laxity 0.1).
        s.submit(Job {
            id: JobId(2),
            arrival: SimTime::from_millis(100),
            deadline: SimTime::from_millis(800),
            work: 5.0,
            importance: Importance::NORMAL,
        });
        s.advance_to(SimTime::from_secs(3));
        assert_eq!(s.completed()[0].job.id, JobId(2));
        assert!(!s.completed()[0].missed);
        assert!(!s.completed()[1].missed, "job 1 had slack to spare");
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let mut s = sched(PolicyKind::Sjf);
        s.submit(job(1, 0, 100, 50.0));
        s.submit(job(2, 0, 100, 1.0));
        s.advance_to(SimTime::from_secs(20));
        assert_eq!(s.completed()[0].job.id, JobId(2));
    }

    #[test]
    fn importance_first_prefers_critical() {
        let mut s = sched(PolicyKind::ImportanceFirst);
        let mut j1 = job(1, 0, 100, 10.0);
        j1.importance = Importance::LOW;
        let mut j2 = job(2, 0, 100, 10.0);
        j2.importance = Importance::CRITICAL;
        s.submit(j1);
        s.submit(j2);
        s.advance_to(SimTime::from_secs(5));
        assert_eq!(s.completed()[0].job.id, JobId(2));
    }

    #[test]
    fn abort_late_sheds_hopeless_jobs() {
        let mut s = LocalScheduler::new(SchedulerConfig {
            policy: PolicyKind::Edf,
            capacity: 10.0,
            quantum: Some(SimDuration::from_millis(10)),
            abort_late: true,
        });
        for i in 0..3 {
            s.submit(job(i, 0, 1, 10.0)); // 3s of work, all due at t=1
        }
        s.advance_to(SimTime::from_secs(5));
        // One completes on time; the others are aborted at the deadline.
        assert_eq!(s.stats().on_time, 1);
        assert_eq!(s.stats().missed, 2);
        assert_eq!(s.stats().aborted, 2);
        // Aborted jobs freed the CPU: busy time well under 3s.
        assert!(s.stats().busy_secs < 1.5);
    }

    #[test]
    fn no_policy_picks_from_an_empty_ready_set() {
        for policy in PolicyKind::ALL {
            assert_eq!(policy.pick(&[], SimTime::ZERO, 10.0), None);
        }
    }

    #[test]
    fn idle_gap_advances_time() {
        let mut s = sched(PolicyKind::LeastLaxity);
        s.advance_to(SimTime::from_secs(10));
        assert_eq!(s.now(), SimTime::from_secs(10));
        assert_eq!(s.stats().busy_secs, 0.0);
        s.submit(job(1, 20, 25, 10.0));
        assert_eq!(s.now(), SimTime::from_secs(20)); // submit advanced time
        s.advance_to(SimTime::from_secs(30));
        assert_eq!(s.stats().on_time, 1);
    }

    #[test]
    #[should_panic(expected = "arrives in the past")]
    fn rejects_past_arrival() {
        let mut s = sched(PolicyKind::Fifo);
        s.advance_to(SimTime::from_secs(5));
        s.submit(job(1, 1, 10, 1.0));
    }

    #[test]
    fn submit_now_uses_current_clock() {
        let mut s = sched(PolicyKind::LeastLaxity);
        s.advance_to(SimTime::from_secs(3));
        let id = s.submit_now(10.0, SimDuration::from_secs(2), Importance::NORMAL);
        s.advance_to(SimTime::from_secs(10));
        let c = &s.completed()[0];
        assert_eq!(c.job.id, id);
        assert_eq!(c.job.arrival, SimTime::from_secs(3));
        assert_eq!(c.job.deadline, SimTime::from_secs(5));
        assert!(!c.missed);
    }

    #[test]
    fn backlog_and_queue_len() {
        let mut s = sched(PolicyKind::Fifo);
        s.submit(job(1, 0, 10, 5.0));
        s.submit(job(2, 0, 10, 3.0));
        assert_eq!(s.queue_len(), 2);
        assert!((s.backlog() - 8.0).abs() < 1e-9);
        assert!(s.is_busy());
        s.advance_to(SimTime::from_secs(2)); // enough to finish both
        assert_eq!(s.queue_len(), 0);
        assert!(!s.is_busy());
    }

    #[test]
    fn take_completed_drains() {
        let mut s = sched(PolicyKind::Fifo);
        s.submit(job(1, 0, 10, 1.0));
        s.advance_to(SimTime::from_secs(1));
        assert_eq!(s.take_completed().len(), 1);
        assert!(s.completed().is_empty());
    }

    #[test]
    fn decisions_logged_per_switch_not_per_quantum() {
        let mut s = sched(PolicyKind::LeastLaxity);
        // One job running alone for many quanta: exactly one dispatch.
        s.submit(job(1, 0, 10, 5.0)); // 0.5s of work = 50 quanta
        s.advance_to(SimTime::from_millis(300));
        assert_eq!(s.decisions().len(), 1);
        assert_eq!(s.decisions()[0].job, JobId(1));
        assert!(s.decisions()[0].laxity_us > 0);
        // A tighter job arrives and preempts: second dispatch; when it
        // completes the first resumes: third dispatch.
        s.submit(Job {
            id: JobId(2),
            arrival: SimTime::from_millis(300),
            deadline: SimTime::from_millis(600),
            work: 2.0,
            importance: Importance::NORMAL,
        });
        s.advance_to(SimTime::from_secs(5));
        let log = s.take_decisions();
        let jobs: Vec<u64> = log.iter().map(|d| d.job.raw()).collect();
        assert_eq!(jobs, vec![1, 2, 1]);
        assert!(s.decisions().is_empty());
    }

    #[test]
    fn laxity_computation() {
        let r = ReadyJob {
            job: Job {
                id: JobId(1),
                arrival: SimTime::ZERO,
                deadline: SimTime::from_secs(10),
                work: 20.0,
                importance: Importance::NORMAL,
            },
            remaining: 20.0,
        };
        // capacity 10 ⇒ needs 2s; at t=0 laxity = 10 - 2 = 8.
        assert!((r.laxity(SimTime::ZERO, 10.0) - 8.0).abs() < 1e-9);
        // past the deadline laxity is negative
        assert!(r.laxity(SimTime::from_secs(11), 10.0) < 0.0);
    }

    /// LLS and EDF both achieve zero misses on a feasible set where FIFO
    /// fails — the motivating property for deadline-aware scheduling.
    #[test]
    fn deadline_aware_beats_fifo_on_feasible_set() {
        let make = |policy| {
            let mut s = sched(policy);
            s.submit(job(1, 0, 10, 40.0)); // loose: 4s work, 10s deadline
            s.submit(job(2, 0, 1, 5.0)); // tight: 0.5s work, 1s deadline
            s.advance_to(SimTime::from_secs(20));
            s.stats().missed
        };
        assert_eq!(make(PolicyKind::LeastLaxity), 0);
        assert_eq!(make(PolicyKind::Edf), 0);
        assert!(make(PolicyKind::Fifo) > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_jobs() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
        // (arrival ms, relative deadline ms, work units)
        proptest::collection::vec((0u64..5_000, 100u64..5_000, 0.1f64..20.0), 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Work conservation: total busy time equals total submitted work /
        /// capacity (no abort), for every policy.
        #[test]
        fn work_conserving(jobs in arb_jobs(), policy_idx in 0usize..5) {
            let policy = PolicyKind::ALL[policy_idx];
            let mut s = LocalScheduler::new(SchedulerConfig {
                policy,
                capacity: 10.0,
                quantum: Some(SimDuration::from_millis(10)),
                abort_late: false,
            });
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|&(a, _, _)| a);
            let mut total_work = 0.0;
            for (i, &(a, d, w)) in sorted.iter().enumerate() {
                total_work += w;
                s.submit(Job {
                    id: JobId(i as u64),
                    arrival: SimTime::from_millis(a),
                    deadline: SimTime::from_millis(a + d),
                    work: w,
                    importance: Importance::NORMAL,
                });
            }
            s.advance_to(SimTime::from_secs(10_000));
            prop_assert_eq!(s.completed().len(), sorted.len());
            // Completion slices round to whole microseconds; allow 2µs of
            // drift per job.
            let tol = 2e-6 * sorted.len() as f64 + 1e-9;
            prop_assert!((s.stats().busy_secs - total_work / 10.0).abs() < tol);
        }

        /// EDF optimality (single CPU, preemptive): if EDF misses nothing,
        /// the job set was feasible; if EDF misses, no tested policy can
        /// complete *all* jobs on time. We check the weaker, still useful
        /// direction: every policy's on-time count never exceeds the number
        /// of jobs, and EDF's miss count is minimal among deadline-aware
        /// policies on feasible sets (miss==0 ⇒ LLS also misses 0 is NOT
        /// guaranteed in general with quantum granularity, so we only
        /// assert EDF==0 ⇒ EDF is weakly best).
        #[test]
        fn edf_weakly_best_when_feasible(jobs in arb_jobs()) {
            let run = |policy: PolicyKind| {
                let mut s = LocalScheduler::new(SchedulerConfig {
                    policy,
                    capacity: 10.0,
                    quantum: Some(SimDuration::from_millis(5)),
                    abort_late: false,
                });
                let mut sorted = jobs.clone();
                sorted.sort_by_key(|&(a, _, _)| a);
                for (i, &(a, d, w)) in sorted.iter().enumerate() {
                    s.submit(Job {
                        id: JobId(i as u64),
                        arrival: SimTime::from_millis(a),
                        deadline: SimTime::from_millis(a + d),
                        work: w,
                        importance: Importance::NORMAL,
                    });
                }
                s.advance_to(SimTime::from_secs(10_000));
                s.stats().missed
            };
            let edf = run(PolicyKind::Edf);
            if edf == 0 {
                for p in [PolicyKind::Fifo, PolicyKind::Sjf, PolicyKind::LeastLaxity] {
                    prop_assert!(run(p) >= edf);
                }
            }
        }

        /// Completions never happen before enough time has elapsed to do
        /// the work, and never before arrival.
        #[test]
        fn no_time_travel(jobs in arb_jobs()) {
            let mut s = LocalScheduler::new(SchedulerConfig::default());
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|&(a, _, _)| a);
            for (i, &(a, d, w)) in sorted.iter().enumerate() {
                s.submit(Job {
                    id: JobId(i as u64),
                    arrival: SimTime::from_millis(a),
                    deadline: SimTime::from_millis(a + d),
                    work: w,
                    importance: Importance::NORMAL,
                });
            }
            s.advance_to(SimTime::from_secs(10_000));
            for c in s.completed() {
                let min_duration = c.job.work / 1.0; // capacity 1.0 default
                let elapsed = c.finished.saturating_since(c.job.arrival).as_secs_f64();
                prop_assert!(elapsed + 1e-6 >= min_duration);
            }
        }
    }
}
