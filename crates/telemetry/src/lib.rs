//! Deterministic observability for the adaptive P2P resource-management
//! middleware.
//!
//! Three pillars, all driven exclusively by *simulation* time so recordings
//! are reproducible bit-for-bit from a scenario seed:
//!
//! * a metrics registry ([`metrics`]) — counters, gauges and fixed-bucket
//!   histograms keyed by `(peer, domain, kind)` labels, with mergeable
//!   serialisable snapshots;
//! * a structured trace log ([`trace`]) — a bounded ring buffer of typed
//!   protocol events (election, split, gossip, admission, repair, ...) with
//!   JSONL export;
//! * task-lifecycle spans ([`span`]) — submit → query → allocation →
//!   composition → stream → terminal phase timing feeding per-phase latency
//!   histograms.
//!
//! The [`Recorder`] bundles all three behind one handle. A disabled recorder
//! ([`Recorder::disabled`], the default) drops everything at the first
//! branch, so uninstrumented runs pay one predictable-taken branch per
//! callsite and nothing else.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod health;
pub mod metrics;
pub mod series;
pub mod span;
pub mod trace;

pub use health::{
    standard_rules, HealthEvaluator, HealthRule, HealthStatus, HealthThresholds, HealthTransition,
    Predicate, HEALTH_ALERTS_TOTAL, HEALTH_FIRING,
};
pub use metrics::{
    FixedHistogram, Labels, MetricKey, MetricsRegistry, MetricsSnapshot, COUNT_BUCKETS,
    LATENCY_BUCKETS_SECS,
};
pub use series::{SeriesBatch, SeriesKind, SeriesSlice, SeriesStore};
pub use span::{SpanTracker, TaskPhase, PHASE_METRIC, TOTAL_METRIC};
pub use trace::{
    merge_timeline, merge_timelines, write_jsonl, TraceEvent, TraceKind, TraceLog, TRACE_SCHEMA,
};

use arm_util::{DomainId, NodeId, SimTime};

/// One handle bundling the metrics registry, trace log and span tracker.
///
/// Created disabled by default: every recording method returns immediately.
/// [`Recorder::enabled`] turns on all three pillars.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    /// Metric series recorded so far.
    pub metrics: MetricsRegistry,
    /// Structured protocol events recorded so far.
    pub trace: TraceLog,
    /// Open task-lifecycle spans.
    pub spans: SpanTracker,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that drops everything (the zero-cost default).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            metrics: MetricsRegistry::new(),
            trace: TraceLog::new(1),
            spans: SpanTracker::new(),
        }
    }

    /// A recorder that keeps up to `trace_capacity` trace events in memory.
    pub fn enabled(trace_capacity: usize) -> Self {
        Recorder {
            enabled: true,
            metrics: MetricsRegistry::new(),
            trace: TraceLog::new(trace_capacity),
            spans: SpanTracker::new(),
        }
    }

    /// Whether this recorder is recording at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a trace event (drops it when disabled). A
    /// [`TraceKind::TaskPhase`] event also advances that task's span.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            if let TraceKind::TaskPhase { task, phase } = event.kind {
                self.spans.advance(task, phase, event.at);
            }
            // arm-lint: allow(unbounded-growth) -- TraceLog::push evicts its oldest event at capacity
            self.trace.push(event);
        }
    }

    /// Increments a counter by 1 (no-op when disabled).
    #[inline]
    pub fn inc(&mut self, name: &'static str, labels: Labels) {
        if self.enabled {
            self.metrics.inc(name, labels);
        }
    }

    /// Increments a counter by `delta` (no-op when disabled).
    #[inline]
    pub fn add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        if self.enabled {
            self.metrics.add(name, labels, delta);
        }
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, labels: Labels, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(name, labels, value);
        }
    }

    /// Records a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&mut self, name: &'static str, labels: Labels, bounds: &[f64], value: f64) {
        if self.enabled {
            self.metrics.observe(name, labels, bounds, value);
        }
    }

    /// Merges a pre-aggregated histogram into a series (no-op when
    /// disabled).
    #[inline]
    pub fn merge_histogram(&mut self, name: &'static str, labels: Labels, hist: &FixedHistogram) {
        if self.enabled {
            self.metrics.merge_histogram(name, labels, hist);
        }
    }

    /// Opens a task span (no-op when disabled).
    #[inline]
    pub fn task_submitted(&mut self, task: arm_util::TaskId, now: SimTime) {
        if self.enabled {
            self.spans.submit(task, now);
        }
    }

    /// Closes a task span with `outcome` (no-op when disabled).
    #[inline]
    pub fn task_finished(&mut self, task: arm_util::TaskId, outcome: &'static str, now: SimTime) {
        if self.enabled {
            self.spans.finish(task, outcome, now);
        }
    }

    /// Freezes the metric state into a serialisable snapshot, folding in
    /// the span tracker's buffered phase/total latency histograms (the hot
    /// path batches those locally instead of touching the registry).
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.enabled {
            return self.metrics.snapshot();
        }
        let mut merged = self.metrics.clone();
        self.spans.flush_into(&mut merged);
        merged.snapshot()
    }
}

/// The arm-pulse driver state: a retained-series store plus a health
/// evaluator, advanced by one [`Pulse::tick`] per sampling period.
///
/// Drivers (the net-peer event loop, the sim harness) create a `Pulse`
/// only when sampling is enabled — its absence is the zero-cost path,
/// mirroring how a disabled [`Recorder`] drops everything.
#[derive(Debug, Clone)]
pub struct Pulse {
    /// Retained per-metric series.
    pub store: SeriesStore,
    /// Health rules evaluated after every sample.
    pub evaluator: HealthEvaluator,
}

impl Pulse {
    /// A pulse retaining `capacity` samples per series, running the
    /// standard rule set with the given thresholds.
    pub fn new(capacity: usize, thresholds: &HealthThresholds) -> Self {
        Pulse {
            store: SeriesStore::new(capacity),
            evaluator: HealthEvaluator::standard(thresholds),
        }
    }

    /// One sampling tick: sweeps the recorder's registry into the series
    /// store, re-evaluates every health rule, and records each rule edge
    /// back into the recorder as a `health` trace event plus the
    /// `health_alerts_total` / `health_firing` metrics. Returns the edges.
    pub fn tick(
        &mut self,
        now: SimTime,
        recorder: &mut Recorder,
        peer: NodeId,
        domain: Option<DomainId>,
    ) -> Vec<HealthTransition> {
        self.store.sample(now, &recorder.metrics);
        let edges = self.evaluator.evaluate(&self.store);
        for edge in &edges {
            if edge.firing {
                recorder.inc(HEALTH_ALERTS_TOTAL, Labels::kind(edge.rule));
            }
            recorder.set_gauge(
                HEALTH_FIRING,
                Labels::kind(edge.rule),
                if edge.firing { 1.0 } else { 0.0 },
            );
            recorder.record(TraceEvent::new(
                now,
                peer,
                domain,
                TraceKind::Health {
                    rule: edge.rule.into(),
                    firing: edge.firing,
                    value: edge.value,
                },
            ));
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::{NodeId, TaskId};

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.inc("c", Labels::NONE);
        r.record(TraceEvent::new(
            SimTime::ZERO,
            NodeId::new(1),
            None,
            TraceKind::GossipRound { fanout: 3 },
        ));
        r.task_submitted(TaskId::new(1), SimTime::ZERO);
        r.task_finished(TaskId::new(1), "on_time", SimTime::from_secs(1));
        assert_eq!(r.metrics.counter("c", Labels::NONE), 0);
        assert!(r.trace.is_empty());
        assert_eq!(r.spans.open_count(), 0);
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn pulse_tick_samples_and_reports_rule_edges() {
        let mut r = Recorder::enabled(64);
        let mut pulse = Pulse::new(
            32,
            &HealthThresholds {
                sustain: 2,
                queue_depth: 10.0,
                ..Default::default()
            },
        );
        let me = NodeId::new(1);
        r.set_gauge(health::pulse_metrics::QUEUE_DEPTH, Labels::NONE, 100.0);
        assert!(pulse.tick(SimTime::ZERO, &mut r, me, None).is_empty());
        let edges = pulse.tick(SimTime::from_secs(1), &mut r, me, None);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, "queue_saturated");
        assert!(pulse.evaluator.any_firing());
        assert_eq!(
            r.metrics
                .counter(HEALTH_ALERTS_TOTAL, Labels::kind("queue_saturated")),
            1
        );
        assert_eq!(r.trace.count_of("health"), 1);
        // Recovery clears the rule and traces the clear edge.
        r.set_gauge(health::pulse_metrics::QUEUE_DEPTH, Labels::NONE, 0.0);
        let edges = pulse.tick(SimTime::from_secs(2), &mut r, me, None);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].firing);
        assert_eq!(
            r.metrics
                .gauge(HEALTH_FIRING, Labels::kind("queue_saturated")),
            Some(0.0)
        );
        assert_eq!(pulse.store.samples_taken(), 3);
    }

    #[test]
    fn enabled_recorder_records_everything() {
        let mut r = Recorder::enabled(8);
        r.inc("c", Labels::NONE);
        r.record(TraceEvent::new(
            SimTime::ZERO,
            NodeId::new(1),
            None,
            TraceKind::GossipRound { fanout: 3 },
        ));
        r.task_submitted(TaskId::new(1), SimTime::ZERO);
        // A phase event is both kept in the ring and advances the span.
        r.record(TraceEvent::new(
            SimTime::from_millis(5),
            NodeId::new(1),
            None,
            TraceKind::TaskPhase {
                task: TaskId::new(1),
                phase: TaskPhase::Stream,
            },
        ));
        r.task_finished(TaskId::new(1), "on_time", SimTime::from_secs(1));
        assert_eq!(r.metrics.counter("c", Labels::NONE), 1);
        assert_eq!(r.trace.len(), 2);
        let snap = r.snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.key.starts_with(PHASE_METRIC)));
        assert!(snap
            .histogram("task_total_seconds{kind=\"on_time\"}")
            .is_some());
    }
}
