//! Retained time series: the `arm-pulse` sampling plane.
//!
//! A [`SeriesStore`] periodically sweeps a [`MetricsRegistry`] and appends
//! one point per metric per tick into bounded per-series rings: counters
//! and gauges verbatim, histograms as their p50/p99 quantile estimates.
//! Ticks are *driver* time — deterministic sim-time in the DES harness,
//! wall-interval virtual time on live nodes — so two identically seeded
//! simulation runs produce byte-identical series.
//!
//! Retention is cursor-addressed: every tick gets a monotonically
//! increasing sample sequence number, rings evict from the front when
//! full, and [`SeriesStore::collect_since`] exports everything at or after
//! a cursor as a delta-encoded [`SeriesBatch`] — the incremental scrape
//! payload the `StatusRequest`/`StatusReport` plane ships to observers
//! (`arm watch`), so polling a cluster never re-sends history.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

use arm_util::SimTime;

use crate::metrics::{MetricKey, MetricsRegistry};

/// Which aspect of a metric a series tracks. Counters and gauges have one
/// series each; histograms contribute one series per tracked quantile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Cumulative counter value.
    Counter,
    /// Last-written gauge value.
    Gauge,
    /// Histogram median (bucket-upper-bound estimate).
    P50,
    /// Histogram 99th percentile (bucket-upper-bound estimate).
    P99,
}

impl SeriesKind {
    /// Stable lowercase name, used as the wire discriminator.
    pub fn name(&self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::P50 => "p50",
            SeriesKind::P99 => "p99",
        }
    }
}

/// One bounded per-metric ring of sampled values. Values are contiguous:
/// the `i`-th retained value belongs to sample seq `first_seq + i` (series
/// born mid-run simply start at a later `first_seq`; front eviction
/// advances it).
#[derive(Debug, Clone)]
struct SeriesRing {
    first_seq: u64,
    values: VecDeque<f64>,
}

/// The in-memory retained-series store of one node (or one simulation).
#[derive(Debug, Clone)]
pub struct SeriesStore {
    capacity: usize,
    next_seq: u64,
    /// Tick timestamps, aligned so `ticks[i]` is the time of sample seq
    /// `next_seq - ticks.len() + i`.
    ticks: VecDeque<SimTime>,
    series: BTreeMap<(MetricKey, SeriesKind), SeriesRing>,
}

impl SeriesStore {
    /// Default per-series retention (samples).
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Creates a store retaining at most `capacity` samples per series.
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            capacity: capacity.max(2),
            next_seq: 0,
            ticks: VecDeque::new(),
            series: BTreeMap::new(),
        }
    }

    /// The cursor one past the newest retained sample — what an observer
    /// should send next to receive only new points.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of sample ticks taken so far (including evicted ones).
    pub fn samples_taken(&self) -> u64 {
        self.next_seq
    }

    /// Number of distinct series currently retained.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Takes one sample tick at `now`: appends the current value of every
    /// registered counter and gauge, and the p50/p99 of every histogram.
    pub fn sample(&mut self, now: SimTime, metrics: &MetricsRegistry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ticks.len() == self.capacity {
            self.ticks.pop_front();
        }
        self.ticks.push_back(now);
        for (key, value) in metrics.counters() {
            self.record(*key, SeriesKind::Counter, seq, value as f64);
        }
        for (key, value) in metrics.gauges() {
            self.record(*key, SeriesKind::Gauge, seq, value);
        }
        for (key, hist) in metrics.histograms() {
            // Overflow-bucket quantiles report the largest finite bound:
            // the estimate stays plottable and JSON-serialisable.
            let cap = hist.bounds().last().copied().unwrap_or(0.0);
            let q = |q: f64| hist.quantile(q).map_or(0.0, |v| v.min(cap));
            self.record(*key, SeriesKind::P50, seq, q(0.5));
            self.record(*key, SeriesKind::P99, seq, q(0.99));
        }
    }

    fn record(&mut self, key: MetricKey, kind: SeriesKind, seq: u64, value: f64) {
        let ring = self.series.entry((key, kind)).or_insert(SeriesRing {
            first_seq: seq,
            values: VecDeque::new(),
        });
        if ring.values.len() == self.capacity {
            ring.values.pop_front();
            ring.first_seq += 1;
        }
        debug_assert_eq!(
            ring.first_seq + ring.values.len() as u64,
            seq,
            "series sampled out of sequence"
        );
        ring.values.push_back(value);
    }

    /// The retained values of one series, newest last, capped to the last
    /// `window` samples. Used by the health evaluator and tests.
    pub fn tail(&self, key: &MetricKey, kind: SeriesKind, window: usize) -> Vec<f64> {
        match self.series.get(&(*key, kind)) {
            Some(ring) => {
                let skip = ring.values.len().saturating_sub(window);
                ring.values.iter().skip(skip).copied().collect()
            }
            None => Vec::new(),
        }
    }

    /// Sums the last `window` samples across every series whose metric
    /// *name* matches, aligned by sample seq (a series born mid-window
    /// contributes 0 before its birth). Returns newest-last, one entry per
    /// retained tick in the window; empty when no series matches.
    pub fn window_sum(&self, name: &str, kind: SeriesKind, window: usize) -> Vec<f64> {
        let newest = match self.next_seq.checked_sub(1) {
            Some(n) => n,
            None => return Vec::new(),
        };
        let retained = self.ticks.len().min(window);
        let start = newest + 1 - retained as u64;
        let mut out = vec![0.0; retained];
        let mut matched = false;
        for ((key, k), ring) in &self.series {
            if *k != kind || key.name != name {
                continue;
            }
            matched = true;
            for (i, slot) in out.iter_mut().enumerate() {
                let seq = start + i as u64;
                if seq >= ring.first_seq {
                    let idx = (seq - ring.first_seq) as usize;
                    if let Some(v) = ring.values.get(idx) {
                        *slot += v;
                    }
                }
            }
        }
        if matched {
            out
        } else {
            Vec::new()
        }
    }

    /// Exports every sample at or after `cursor` as a delta-encoded batch.
    /// `collect_since(0)` dumps the full retained history;
    /// `collect_since(batch.next_cursor)` of a previous batch returns only
    /// what was sampled since — the incremental scrape the wire plane uses.
    pub fn collect_since(&self, cursor: u64) -> SeriesBatch {
        let retained_start = self.next_seq - self.ticks.len() as u64;
        let start = cursor.max(retained_start);
        if start >= self.next_seq {
            return SeriesBatch {
                next_cursor: self.next_seq,
                ..SeriesBatch::default()
            };
        }
        let tick_off = (start - retained_start) as usize;
        let ticks: Vec<SimTime> = self.ticks.iter().skip(tick_off).copied().collect();
        let first_tick_us = ticks.first().map_or(0, |t| t.as_micros());
        let tick_deltas_us = ticks
            .windows(2)
            .map(|w| w[1].as_micros() - w[0].as_micros())
            .collect();
        let mut series = Vec::new();
        for ((key, kind), ring) in &self.series {
            let s_start = start.max(ring.first_seq);
            let end = ring.first_seq + ring.values.len() as u64;
            if s_start >= end {
                continue;
            }
            let off = (s_start - ring.first_seq) as usize;
            let vals: Vec<f64> = ring.values.iter().skip(off).copied().collect();
            series.push(SeriesSlice {
                key: key.render(),
                kind: kind.name().to_string(),
                start_seq: s_start,
                first: vals[0],
                deltas: vals.windows(2).map(|w| w[1] - w[0]).collect(),
            });
        }
        SeriesBatch {
            next_cursor: self.next_seq,
            start_seq: start,
            first_tick_us,
            tick_deltas_us,
            series,
        }
    }
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(Self::DEFAULT_CAPACITY)
    }
}

/// One series' worth of points in a batch: delta-encoded from `first`, so
/// monotone counters serialise compactly. `start_seq` anchors the slice on
/// the batch's shared tick axis (series born mid-batch start later).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSlice {
    /// Rendered `name{labels}` metric key.
    pub key: String,
    /// `"counter"`, `"gauge"`, `"p50"` or `"p99"`.
    pub kind: String,
    /// Sample seq of `first`.
    pub start_seq: u64,
    /// First value of the slice.
    pub first: f64,
    /// Successive differences; `len + 1` points total.
    pub deltas: Vec<f64>,
}

impl SeriesSlice {
    /// Decodes the slice back into `(seq, value)` points.
    pub fn points(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.deltas.len() + 1);
        let mut v = self.first;
        out.push((self.start_seq, v));
        for (i, d) in self.deltas.iter().enumerate() {
            v += d;
            out.push((self.start_seq + 1 + i as u64, v));
        }
        out
    }
}

/// A cursor-addressed export of retained series: the scrape payload.
///
/// The default (empty) batch is what pre-pulse nodes implicitly answer —
/// observers treat it as "no series support, nothing new".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SeriesBatch {
    /// Cursor to send next for an incremental follow-up scrape.
    pub next_cursor: u64,
    /// Sample seq of the first included tick.
    pub start_seq: u64,
    /// Timestamp (µs of driver time) of the first included tick.
    pub first_tick_us: u64,
    /// Deltas between consecutive tick timestamps (µs).
    pub tick_deltas_us: Vec<u64>,
    /// Per-series point slices, sorted by rendered key then kind.
    pub series: Vec<SeriesSlice>,
}

impl SeriesBatch {
    /// Whether the batch carries no points at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of sample ticks included.
    pub fn tick_count(&self) -> usize {
        if self.series.is_empty() {
            0
        } else {
            self.tick_deltas_us.len() + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Labels;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn samples_accumulate_and_export_delta_encoded() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(16);
        for i in 0..4u64 {
            reg.add("msgs", Labels::NONE, 10);
            reg.set_gauge("load", Labels::NONE, i as f64 * 0.5);
            store.sample(t(i), &reg);
        }
        let batch = store.collect_since(0);
        assert_eq!(batch.next_cursor, 4);
        assert_eq!(batch.tick_count(), 4);
        let msgs = batch.series.iter().find(|s| s.key == "msgs").unwrap();
        assert_eq!(msgs.kind, "counter");
        assert_eq!(msgs.first, 10.0);
        assert_eq!(msgs.deltas, vec![10.0, 10.0, 10.0]);
        assert_eq!(
            msgs.points(),
            vec![(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)]
        );
        let load = batch.series.iter().find(|s| s.key == "load").unwrap();
        assert_eq!(load.kind, "gauge");
        assert_eq!(load.points().last(), Some(&(3, 1.5)));
    }

    #[test]
    fn incremental_scrape_returns_only_new_points() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(16);
        reg.inc("c", Labels::NONE);
        store.sample(t(0), &reg);
        let first = store.collect_since(0);
        assert_eq!(first.series[0].points().len(), 1);
        let none = store.collect_since(first.next_cursor);
        assert!(none.is_empty());
        assert_eq!(none.next_cursor, 1);
        reg.inc("c", Labels::NONE);
        store.sample(t(1), &reg);
        store.sample(t(2), &reg);
        let more = store.collect_since(first.next_cursor);
        assert_eq!(more.start_seq, 1);
        assert_eq!(more.series[0].points(), vec![(1, 2.0), (2, 2.0)]);
    }

    #[test]
    fn rings_evict_from_the_front_and_cursors_stay_valid() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(4);
        for i in 0..10u64 {
            reg.set_gauge("g", Labels::NONE, i as f64);
            store.sample(t(i), &reg);
        }
        // Only the last 4 samples survive; an old cursor clamps forward.
        let batch = store.collect_since(0);
        assert_eq!(batch.start_seq, 6);
        assert_eq!(
            batch.series[0].points(),
            vec![(6, 6.0), (7, 7.0), (8, 8.0), (9, 9.0)]
        );
        assert_eq!(batch.first_tick_us, t(6).as_micros());
    }

    #[test]
    fn series_born_mid_run_anchor_at_their_first_sample() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(16);
        store.sample(t(0), &reg);
        store.sample(t(1), &reg);
        reg.inc("late", Labels::kind("x"));
        store.sample(t(2), &reg);
        let batch = store.collect_since(0);
        let late = batch
            .series
            .iter()
            .find(|s| s.key.contains("late"))
            .unwrap();
        assert_eq!(late.start_seq, 2);
        assert_eq!(late.points(), vec![(2, 1.0)]);
    }

    #[test]
    fn histograms_sample_p50_and_p99() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(8);
        for _ in 0..50 {
            reg.observe("lat", Labels::NONE, &[1.0, 2.0, 4.0], 0.5);
        }
        for _ in 0..50 {
            reg.observe("lat", Labels::NONE, &[1.0, 2.0, 4.0], 100.0);
        }
        store.sample(t(0), &reg);
        let batch = store.collect_since(0);
        let p50 = batch
            .series
            .iter()
            .find(|s| s.key == "lat" && s.kind == "p50")
            .unwrap();
        assert_eq!(p50.first, 1.0);
        let p99 = batch
            .series
            .iter()
            .find(|s| s.key == "lat" && s.kind == "p99")
            .unwrap();
        // The rank lands in the overflow bucket; clamped to the last bound.
        assert_eq!(p99.first, 4.0);
    }

    #[test]
    fn window_sum_aligns_across_labelled_series() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(8);
        reg.add("hits", Labels::kind("a"), 1);
        store.sample(t(0), &reg);
        reg.add("hits", Labels::kind("b"), 5);
        store.sample(t(1), &reg);
        let sums = store.window_sum("hits", SeriesKind::Counter, 8);
        assert_eq!(sums, vec![1.0, 6.0]);
        assert!(store
            .window_sum("absent", SeriesKind::Counter, 8)
            .is_empty());
    }

    #[test]
    fn batches_roundtrip_through_json() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(8);
        reg.inc("c", Labels::kind("k"));
        reg.set_gauge("g", Labels::NONE, 2.5);
        store.sample(t(0), &reg);
        store.sample(t(1), &reg);
        let batch = store.collect_since(0);
        let text = serde_json::to_string(&batch).unwrap();
        let back: SeriesBatch = serde_json::from_str(&text).unwrap();
        assert_eq!(back, batch);
    }
}
