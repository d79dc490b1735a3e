//! Deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by a metric name plus `(peer, domain, kind)` labels.
//!
//! All storage is `BTreeMap`-ordered so iteration, snapshots and exports are
//! byte-for-byte reproducible for a given run. Values carry *simulation*
//! quantities only — no wall-clock time ever enters a metric value.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use arm_util::{DomainId, NodeId};

/// Default latency buckets, in seconds: 1 ms .. 30 s, roughly log-spaced.
pub const LATENCY_BUCKETS_SECS: [f64; 14] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// Small bucket set for counts-per-round style distributions (0 .. 256).
pub const COUNT_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// The label set attached to every metric: which peer, which domain, and a
/// free-form `kind` discriminator (message kind, phase name, reject reason...).
/// All parts are optional; omitted parts simply don't appear in the rendered
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    /// Peer the observation belongs to, if attributable to one.
    pub peer: Option<NodeId>,
    /// Domain the observation belongs to, if attributable to one.
    pub domain: Option<DomainId>,
    /// Free-form discriminator (message kind, task phase, reason, ...).
    pub kind: Option<&'static str>,
}

impl Labels {
    /// No labels at all — a global series.
    pub const NONE: Labels = Labels {
        peer: None,
        domain: None,
        kind: None,
    };

    /// A `kind`-only label set.
    pub fn kind(kind: &'static str) -> Labels {
        Labels {
            kind: Some(kind),
            ..Labels::NONE
        }
    }

    /// A peer-only label set.
    pub fn peer(peer: NodeId) -> Labels {
        Labels {
            peer: Some(peer),
            ..Labels::NONE
        }
    }

    /// A domain-only label set.
    pub fn domain(domain: DomainId) -> Labels {
        Labels {
            domain: Some(domain),
            ..Labels::NONE
        }
    }

    /// Adds/replaces the kind label.
    pub fn with_kind(mut self, kind: &'static str) -> Labels {
        self.kind = Some(kind);
        self
    }
}

/// A metric series identity: name plus labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `"task_phase_seconds"`.
    pub name: &'static str,
    /// Label set distinguishing series under the same name.
    pub labels: Labels,
}

impl MetricKey {
    /// Renders `name{peer=n3,domain=d1,kind="gossip"}` (label parts that are
    /// unset are omitted; a fully unlabelled key renders as just `name`).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.labels.peer {
            parts.push(format!("peer={p}"));
        }
        if let Some(d) = self.labels.domain {
            parts.push(format!("domain={d}"));
        }
        if let Some(k) = self.labels.kind {
            parts.push(format!("kind=\"{k}\""));
        }
        if parts.is_empty() {
            self.name.to_string()
        } else {
            format!("{}{{{}}}", self.name, parts.join(","))
        }
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// Buckets are half-open `(prev, bound]` ranges (Prometheus `le` semantics);
/// values above the last bound land in an implicit overflow bucket. Fixed
/// bounds make histograms from different runs of the same scenario mergeable
/// bucket-by-bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedHistogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counters; the last one is the overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl FixedHistogram {
    /// Creates an empty histogram over the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observed values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper
    /// bound of the bucket the rank falls into. Returns `None` when empty,
    /// `f64::INFINITY` when the rank lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// Adds another histogram's observations into this one. Panics if the
    /// bucket bounds differ — merging is only meaningful across identical
    /// layouts (e.g. repetitions of the same scenario).
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

/// The in-memory registry all instrumented components write into.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, FixedHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter by 1.
    pub fn inc(&mut self, name: &'static str, labels: Labels) {
        self.add(name, labels, 1);
    }

    /// Increments a counter by `delta`.
    pub fn add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        *self.counters.entry(MetricKey { name, labels }).or_insert(0) += delta;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, labels: Labels, value: f64) {
        // arm-lint: allow(unbounded-growth) -- keyed by the recorder's fixed metric-name x label vocabulary
        self.gauges.insert(MetricKey { name, labels }, value);
    }

    /// Records `value` into the histogram series, creating it over `bounds`
    /// on first use.
    pub fn observe(&mut self, name: &'static str, labels: Labels, bounds: &[f64], value: f64) {
        self.histograms
            .entry(MetricKey { name, labels })
            .or_insert_with(|| FixedHistogram::new(bounds))
            .observe(value);
    }

    /// Merges a pre-aggregated histogram into the series, creating it (with
    /// the incoming bounds) on first use. Components that batch observations
    /// locally — e.g. the per-message-kind handle profiler — flush through
    /// this at snapshot time instead of paying a map lookup per observation.
    pub fn merge_histogram(&mut self, name: &'static str, labels: Labels, hist: &FixedHistogram) {
        self.histograms
            .entry(MetricKey { name, labels })
            .and_modify(|h| h.merge(hist))
            .or_insert_with(|| hist.clone());
    }

    /// Reads a counter (0 when the series doesn't exist).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.counters
            .get(&MetricKey { name, labels })
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge, if the series exists.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<f64> {
        self.gauges.get(&MetricKey { name, labels }).copied()
    }

    /// Reads a histogram series, if it exists.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&FixedHistogram> {
        self.histograms.get(&MetricKey { name, labels })
    }

    /// Iterates all counter series in key order. Cheap (no rendering) —
    /// this is what the pulse sampler sweeps every tick.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates all gauge series in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates all histogram series in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &FixedHistogram)> {
        self.histograms.iter()
    }

    /// Freezes the registry into a serialisable, mergeable snapshot with
    /// rendered string keys.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| CounterEntry {
                    key: k.render(),
                    value: v,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, &v)| GaugeEntry {
                    key: k.render(),
                    value: v,
                    samples: 1,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| HistogramEntry {
                    key: k.render(),
                    histogram: h.clone(),
                })
                .collect(),
        }
    }
}

/// One exported counter series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Rendered `name{labels}` key.
    pub key: String,
    /// Accumulated count.
    pub value: u64,
}

/// One exported gauge series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Rendered `name{labels}` key.
    pub key: String,
    /// Gauge value; after a merge, the mean across merged snapshots.
    pub value: f64,
    /// How many snapshots contributed to `value` (for merge averaging).
    pub samples: u64,
}

/// One exported histogram series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Rendered `name{labels}` key.
    pub key: String,
    /// The bucketed distribution.
    pub histogram: FixedHistogram,
}

/// A frozen, serialisable view of a [`MetricsRegistry`].
///
/// Snapshots from repeated runs of the same scenario merge entry-wise:
/// counters and histogram buckets add, gauges average.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counter series, sorted by key.
    pub counters: Vec<CounterEntry>,
    /// All gauge series, sorted by key.
    pub gauges: Vec<GaugeEntry>,
    /// All histogram series, sorted by key.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// Looks up a counter by its rendered key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|e| e.key == key).map(|e| e.value)
    }

    /// Looks up a histogram by its rendered key.
    pub fn histogram(&self, key: &str) -> Option<&FixedHistogram> {
        self.histograms
            .iter()
            .find(|e| e.key == key)
            .map(|e| &e.histogram)
    }

    /// Merges `other` into `self`: counters add, histograms merge
    /// bucket-wise (when bounds agree; mismatched layouts keep `self`'s),
    /// gauges accumulate a running mean. Series present in only one side are
    /// kept as-is.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for e in &other.counters {
            match self.counters.iter_mut().find(|m| m.key == e.key) {
                Some(m) => m.value += e.value,
                // arm-lint: allow(unbounded-growth) -- per-scrape fold; the snapshot is dropped after rendering
                None => self.counters.push(e.clone()),
            }
        }
        for e in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.key == e.key) {
                Some(m) => {
                    let total = m.value * m.samples as f64 + e.value * e.samples as f64;
                    m.samples += e.samples;
                    m.value = total / m.samples as f64;
                }
                // arm-lint: allow(unbounded-growth) -- per-scrape fold; the snapshot is dropped after rendering
                None => self.gauges.push(e.clone()),
            }
        }
        for e in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.key == e.key) {
                Some(m) if m.histogram.bounds() == e.histogram.bounds() => {
                    m.histogram.merge(&e.histogram);
                }
                Some(_) => {}
                // arm-lint: allow(unbounded-growth) -- per-scrape fold; the snapshot is dropped after rendering
                None => self.histograms.push(e.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.key.cmp(&b.key));
        self.gauges.sort_by(|a, b| a.key.cmp(&b.key));
        self.histograms.sort_by(|a, b| a.key.cmp(&b.key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_le_inclusive() {
        let mut h = FixedHistogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (le)
        h.observe(1.0001); // bucket 1
        h.observe(2.0); // bucket 1
        h.observe(4.0); // bucket 2
        h.observe(100.0); // overflow
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn quantile_returns_bucket_upper_bound() {
        let mut h = FixedHistogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(3.0);
        }
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(4.0));
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = FixedHistogram::new(&LATENCY_BUCKETS_SECS);
        let mut b = FixedHistogram::new(&LATENCY_BUCKETS_SECS);
        a.observe(0.002);
        b.observe(0.002);
        b.observe(7.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!((a.sum() - 7.004).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = FixedHistogram::new(&[1.0]);
        let b = FixedHistogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn key_rendering() {
        let key = MetricKey {
            name: "messages_sent",
            labels: Labels::peer(NodeId::new(3)).with_kind("gossip"),
        };
        assert_eq!(key.render(), "messages_sent{peer=n3,kind=\"gossip\"}");
        let bare = MetricKey {
            name: "events",
            labels: Labels::NONE,
        };
        assert_eq!(bare.render(), "events");
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x", Labels::NONE);
        reg.add("x", Labels::NONE, 4);
        reg.inc("x", Labels::kind("a"));
        assert_eq!(reg.counter("x", Labels::NONE), 5);
        assert_eq!(reg.counter("x", Labels::kind("a")), 1);
        assert_eq!(reg.counter("y", Labels::NONE), 0);
        reg.set_gauge("g", Labels::NONE, 2.5);
        reg.set_gauge("g", Labels::NONE, 3.5);
        assert_eq!(reg.gauge("g", Labels::NONE), Some(3.5));
    }

    #[test]
    fn snapshot_merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.inc("c", Labels::NONE);
        a.set_gauge("g", Labels::NONE, 1.0);
        a.observe("h", Labels::NONE, &[1.0, 2.0], 0.5);
        let mut b = MetricsRegistry::new();
        b.add("c", Labels::NONE, 2);
        b.set_gauge("g", Labels::NONE, 3.0);
        b.observe("h", Labels::NONE, &[1.0, 2.0], 1.5);
        b.inc("only_b", Labels::NONE);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.counter("only_b"), Some(1));
        let g = snap.gauges.iter().find(|e| e.key == "g").unwrap();
        assert!((g.value - 2.0).abs() < 1e-12);
        assert_eq!(snap.histogram("h").unwrap().total(), 2);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut reg = MetricsRegistry::new();
        reg.inc("c", Labels::kind("k"));
        reg.observe("h", Labels::NONE, &[1.0, 2.0], 1.5);
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counter("c{kind=\"k\"}"), Some(1));
        assert_eq!(back.histogram("h").unwrap(), snap.histogram("h").unwrap());
    }
}
