//! Run results.

use arm_core::AllocMetrics;
use arm_telemetry::{HealthStatus, MetricsSnapshot, SeriesBatch};
use arm_util::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Terminal task outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Completed within deadline.
    pub on_time: usize,
    /// Completed after the deadline.
    pub late: usize,
    /// Rejected at admission (nowhere to run).
    pub rejected: usize,
    /// Started but lost (unrepaired failure).
    pub failed: usize,
}

impl OutcomeCounts {
    /// All terminal outcomes.
    pub fn total(&self) -> usize {
        self.on_time + self.late + self.rejected + self.failed
    }

    /// Deadline miss ratio among *admitted* tasks (late + failed over
    /// completed + failed).
    pub fn miss_ratio(&self) -> f64 {
        let admitted = self.on_time + self.late + self.failed;
        if admitted == 0 {
            0.0
        } else {
            (self.late + self.failed) as f64 / admitted as f64
        }
    }

    /// Fraction of all submitted tasks that completed on time (the
    /// paper's goal: "maximize the number of applications that meet their
    /// deadlines", §3.3).
    pub fn goodput(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.on_time as f64 / self.total() as f64
        }
    }

    /// Fraction rejected.
    pub fn rejection_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.rejected as f64 / self.total() as f64
        }
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Tasks injected.
    pub submitted: usize,
    /// Outcome tallies.
    pub outcomes: OutcomeCounts,
    /// A copy of `response_time`, not yet a measurement of its own (see
    /// `Simulation::finalize`).
    pub reply_latency: Summary,
    /// Submission→stream-start response time (seconds) of completed tasks.
    pub response_time: Summary,
    /// (t_secs, Jain fairness of ground-truth peer loads) samples.
    pub fairness_series: Vec<(f64, f64)>,
    /// (t_secs, mean utilization) samples.
    pub utilization_series: Vec<(f64, f64)>,
    /// Messages delivered, by kind: (count, bytes).
    pub messages: BTreeMap<String, (u64, u64)>,
    /// Messages lost in the network.
    pub messages_lost: u64,
    /// Backup→RM promotions observed.
    pub promotions: usize,
    /// Session repairs that found a replacement allocation.
    pub repairs_ok: usize,
    /// Session repairs that failed.
    pub repairs_failed: usize,
    /// Adaptive session migrations (§4.5).
    pub reassignments: usize,
    /// Task queries redirected between domains.
    pub redirects: u64,
    /// Number of RMs alive at the end.
    pub final_domains: usize,
    /// Number of peers alive at the end.
    pub final_peers: usize,
    /// Wall-clock milliseconds the run took (host time; informational).
    pub wall_ms: u64,
    /// Total events processed by the DES kernel.
    pub events_processed: u64,
    /// High-water mark of the DES event-list depth.
    pub max_queue_depth: u64,
    /// First instant (seconds) at which every alive RM held a fresh
    /// (version ≥ 1) summary of every other alive domain — the gossip
    /// convergence point (E12). `None` if never reached.
    pub gossip_converged_at: Option<f64>,
    /// Allocator efficiency totals summed over every RM alive at the end
    /// of the run: prefixes explored/pruned by the path search.
    pub alloc: AllocMetrics,
    /// Metrics snapshot; present when the run had telemetry enabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Structured trace events recorded per kind, *including* events the
    /// in-memory ring buffer evicted. Empty when telemetry was off.
    pub trace_counts: BTreeMap<String, u64>,
    /// Trace events evicted from the bounded ring before export (absent in
    /// pre-tracing reports, hence the default).
    #[serde(default)]
    pub traces_dropped: u64,
    /// The full retained time-series window (delta-encoded, shared tick
    /// axis) when the run had the pulse plane enabled — the raw material
    /// for convergence curves. Empty (and omitted from JSON) otherwise.
    #[serde(default, skip_serializing_if = "SeriesBatch::is_empty")]
    pub series: SeriesBatch,
    /// Final health-rule evaluations when the pulse plane was enabled.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub health: Vec<HealthStatus>,
}

impl SimReport {
    /// Total messages delivered.
    pub fn message_count(&self) -> u64 {
        self.messages.values().map(|(c, _)| c).sum()
    }

    /// Total bytes delivered.
    pub fn message_bytes(&self) -> u64 {
        self.messages.values().map(|(_, b)| b).sum()
    }

    /// Mean of the fairness samples (time-averaged load balance).
    pub fn mean_fairness(&self) -> f64 {
        if self.fairness_series.is_empty() {
            return 1.0;
        }
        self.fairness_series.iter().map(|(_, f)| f).sum::<f64>() / self.fairness_series.len() as f64
    }

    /// Mean of the utilization samples.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization_series.is_empty() {
            return 0.0;
        }
        self.utilization_series.iter().map(|(_, u)| u).sum::<f64>()
            / self.utilization_series.len() as f64
    }

    /// Control-message overhead in messages per peer per second.
    pub fn control_msgs_per_peer_sec(&self, peers: usize, secs: f64) -> f64 {
        if peers == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.message_count() as f64 / peers as f64 / secs
    }

    /// Folds another run's results into this one, for aggregating sweeps
    /// or sharded runs: tallies add, latency summaries pool their samples
    /// (quantiles stay exact), time series concatenate, metric snapshots
    /// merge, and the queue-depth high-water mark takes the maximum.
    pub fn merge(&mut self, other: &SimReport) {
        self.submitted += other.submitted;
        self.outcomes.on_time += other.outcomes.on_time;
        self.outcomes.late += other.outcomes.late;
        self.outcomes.rejected += other.outcomes.rejected;
        self.outcomes.failed += other.outcomes.failed;
        self.reply_latency.merge(&other.reply_latency);
        self.response_time.merge(&other.response_time);
        self.fairness_series
            .extend(other.fairness_series.iter().copied());
        self.utilization_series
            .extend(other.utilization_series.iter().copied());
        for (kind, (count, bytes)) in &other.messages {
            let entry = self.messages.entry(kind.clone()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += bytes;
        }
        self.messages_lost += other.messages_lost;
        self.promotions += other.promotions;
        self.repairs_ok += other.repairs_ok;
        self.repairs_failed += other.repairs_failed;
        self.reassignments += other.reassignments;
        self.redirects += other.redirects;
        self.final_domains += other.final_domains;
        self.final_peers += other.final_peers;
        self.wall_ms += other.wall_ms;
        self.events_processed += other.events_processed;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.alloc.merge(&other.alloc);
        self.gossip_converged_at = match (self.gossip_converged_at, other.gossip_converged_at) {
            // Merged runs all converged: report the slowest of them.
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        match (&mut self.metrics, &other.metrics) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.metrics = Some(theirs.clone()),
            _ => {}
        }
        for (kind, count) in &other.trace_counts {
            *self.trace_counts.entry(kind.clone()).or_insert(0) += count;
        }
        self.traces_dropped += other.traces_dropped;
        // Series rings have per-run tick axes that don't concatenate
        // meaningfully; keep the first non-empty window. Health statuses
        // pool (each carries its rule name).
        if self.series.is_empty() && !other.series.is_empty() {
            self.series = other.series.clone();
        }
        self.health.extend(other.health.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_ratios() {
        let c = OutcomeCounts {
            on_time: 6,
            late: 2,
            rejected: 1,
            failed: 1,
        };
        assert_eq!(c.total(), 10);
        assert!((c.miss_ratio() - 3.0 / 9.0).abs() < 1e-12);
        assert!((c.goodput() - 0.6).abs() < 1e-12);
        assert!((c.rejection_ratio() - 0.1).abs() < 1e-12);
        let empty = OutcomeCounts::default();
        assert_eq!(empty.miss_ratio(), 0.0);
        assert_eq!(empty.goodput(), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let mut r = SimReport::default();
        r.messages.insert("heartbeat".into(), (10, 560));
        r.messages.insert("task_query".into(), (2, 300));
        assert_eq!(r.message_count(), 12);
        assert_eq!(r.message_bytes(), 860);
        r.fairness_series = vec![(1.0, 0.8), (2.0, 0.6)];
        assert!((r.mean_fairness() - 0.7).abs() < 1e-12);
        assert!((r.control_msgs_per_peer_sec(4, 3.0) - 1.0).abs() < 1e-12);
        assert_eq!(SimReport::default().mean_fairness(), 1.0);
    }

    #[test]
    fn merge_pools_tallies_and_samples() {
        let mut a = SimReport {
            submitted: 10,
            outcomes: OutcomeCounts {
                on_time: 7,
                late: 1,
                rejected: 1,
                failed: 1,
            },
            messages_lost: 2,
            wall_ms: 5,
            events_processed: 100,
            max_queue_depth: 40,
            gossip_converged_at: Some(3.0),
            ..SimReport::default()
        };
        a.response_time.observe(0.1);
        a.messages.insert("heartbeat".into(), (10, 560));
        a.trace_counts.insert("gossip_round".into(), 4);

        let mut b = SimReport {
            submitted: 5,
            outcomes: OutcomeCounts {
                on_time: 5,
                ..OutcomeCounts::default()
            },
            wall_ms: 7,
            events_processed: 50,
            max_queue_depth: 60,
            gossip_converged_at: Some(2.0),
            ..SimReport::default()
        };
        b.response_time.observe(0.3);
        b.messages.insert("heartbeat".into(), (4, 224));
        b.messages.insert("task_query".into(), (1, 100));
        b.trace_counts.insert("gossip_round".into(), 6);
        b.trace_counts.insert("rm_elected".into(), 1);

        a.merge(&b);
        assert_eq!(a.submitted, 15);
        assert_eq!(a.outcomes.on_time, 12);
        assert_eq!(a.response_time.count(), 2);
        assert_eq!(a.messages["heartbeat"], (14, 784));
        assert_eq!(a.messages["task_query"], (1, 100));
        assert_eq!(a.wall_ms, 12);
        assert_eq!(a.events_processed, 150);
        assert_eq!(a.max_queue_depth, 60);
        assert_eq!(a.gossip_converged_at, Some(3.0));
        assert_eq!(a.trace_counts["gossip_round"], 10);
        assert_eq!(a.trace_counts["rm_elected"], 1);

        // A shard that never converged poisons the merged convergence.
        a.merge(&SimReport::default());
        assert_eq!(a.gossip_converged_at, None);
    }
}
