//! Peer-side profiling (§2, §3.2, §4.4 of the paper).
//!
//! "The Profiler on the processor is responsible for measuring the current
//! processor and network load of the peer and monitoring the computation
//! and communication times of the applications as they execute. The
//! Profiler measurements will be propagated to the Resource Manager of the
//! domain."
//!
//! The [`Profiler`] maintains:
//!
//! * the peer's sustained processing load `l_i` (capacity × utilization)
//!   and used bandwidth `bw_i`, accounted from session opens/closes plus a
//!   transient component the local scheduler reports;
//! * EWMA estimates of per-service execution times (§3.2: "local
//!   application execution … times"; communication times are not
//!   measured).
//!
//! The §4.4 report *schedule* is not kept here: the load-report duty of
//! the node's one liveness tick (`TimerKind::Heartbeat`), due every
//! `ProtocolConfig::report_period` (E10's knob), is the one report clock,
//! and each time it runs it calls [`Profiler::make_report`].
//!
//! The peer's current service dependencies — "which peers are currently
//! receiving services by this peer or offering services to this peer"
//! (§3.2 item 5) — are not kept here: the hop table in `arm-core`
//! (`LocalHop::{upstream, downstream}`) is that record, and the §2
//! connection limit reads it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use arm_util::{Ewma, NodeId, ServiceId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Histogram bucket bounds for peer utilization (fraction of capacity;
/// the open `+Inf` bucket catches transient overload above 1.0).
pub const UTILIZATION_BOUNDS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

/// A point-in-time load report propagated to the Resource Manager (§4.4,
/// intra-domain propagation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Reporting peer.
    pub node: NodeId,
    /// Virtual time the sample was taken.
    pub at: SimTime,
    /// Processing load `l_i` in work units per second.
    pub load: f64,
    /// Processing capacity in work units per second (lets the RM compute
    /// utilization without a second lookup).
    pub capacity: f64,
    /// Used bandwidth `bw_i` in kbps.
    pub bandwidth_used_kbps: u32,
    /// Total link bandwidth in kbps.
    pub bandwidth_capacity_kbps: u32,
    /// Ready-queue length at the local scheduler (a congestion signal).
    pub queue_len: usize,
}

impl LoadReport {
    /// Utilization in [0, ∞).
    pub fn utilization(&self) -> f64 {
        if self.capacity <= 0.0 {
            0.0
        } else {
            self.load / self.capacity
        }
    }
}

/// Per-peer profiler state.
#[derive(Debug, Clone)]
pub struct Profiler {
    node: NodeId,
    capacity: f64,
    bw_capacity_kbps: u32,
    session_load: f64,
    session_bw_kbps: u32,
    transient_load: f64,
    queue_len: usize,
    exec_estimates: BTreeMap<ServiceId, Ewma>,
    ewma_alpha: f64,
}

impl Profiler {
    /// Creates a profiler for a peer with the given capacities.
    pub fn new(node: NodeId, capacity: f64, bw_capacity_kbps: u32) -> Self {
        assert!(capacity > 0.0);
        Self {
            node,
            capacity,
            bw_capacity_kbps,
            session_load: 0.0,
            session_bw_kbps: 0,
            transient_load: 0.0,
            queue_len: 0,
            exec_estimates: BTreeMap::new(),
            ewma_alpha: 0.2,
        }
    }

    /// Processing capacity in work units per second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    // ---- load accounting -------------------------------------------------

    /// Records a session starting on this peer: `work_per_sec` of sustained
    /// processing and `bw_kbps` of bandwidth.
    pub fn session_opened(&mut self, work_per_sec: f64, bw_kbps: u32) {
        debug_assert!(work_per_sec >= 0.0);
        self.session_load += work_per_sec;
        self.session_bw_kbps = self.session_bw_kbps.saturating_add(bw_kbps);
    }

    /// Records a session ending.
    pub fn session_closed(&mut self, work_per_sec: f64, bw_kbps: u32) {
        self.session_load = (self.session_load - work_per_sec).max(0.0);
        self.session_bw_kbps = self.session_bw_kbps.saturating_sub(bw_kbps);
    }

    /// Sets the transient load component (e.g. the local scheduler's
    /// current execution rate) and ready-queue length.
    pub fn set_transient(&mut self, load: f64, queue_len: usize) {
        debug_assert!(load >= 0.0);
        self.transient_load = load;
        self.queue_len = queue_len;
    }

    /// Current total processing load `l_i`.
    pub fn load(&self) -> f64 {
        self.session_load + self.transient_load
    }

    /// Current utilization (load / capacity).
    pub fn utilization(&self) -> f64 {
        self.load() / self.capacity
    }

    /// Current used bandwidth `bw_i` in kbps.
    pub fn bandwidth_used_kbps(&self) -> u32 {
        self.session_bw_kbps
    }

    // ---- execution time estimation -------------------------------------------

    /// Feeds an observed execution time of a service run on this peer.
    pub fn observe_execution(&mut self, service: ServiceId, secs: f64) {
        self.exec_estimates
            .entry(service)
            .or_insert_with(|| Ewma::new(self.ewma_alpha))
            .observe(secs);
    }

    /// Current execution-time estimate for a service, if any runs have
    /// been observed.
    pub fn execution_estimate(&self, service: ServiceId) -> Option<f64> {
        self.exec_estimates.get(&service).and_then(|e| e.value())
    }

    // ---- reporting (§4.4) --------------------------------------------------

    /// Builds a load report at `now`.
    pub fn make_report(&self, now: SimTime) -> LoadReport {
        LoadReport {
            node: self.node,
            at: now,
            load: self.load(),
            capacity: self.capacity,
            bandwidth_used_kbps: self.session_bw_kbps,
            bandwidth_capacity_kbps: self.bw_capacity_kbps,
            queue_len: self.queue_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> Profiler {
        Profiler::new(NodeId::new(7), 100.0, 1_000)
    }

    #[test]
    fn load_accounting_roundtrip() {
        let mut p = profiler();
        assert_eq!(p.load(), 0.0);
        p.session_opened(30.0, 500);
        p.session_opened(20.0, 300);
        assert!((p.load() - 50.0).abs() < 1e-12);
        assert_eq!(p.bandwidth_used_kbps(), 800);
        assert!((p.utilization() - 0.5).abs() < 1e-12);
        p.session_closed(30.0, 500);
        assert!((p.load() - 20.0).abs() < 1e-12);
        assert_eq!(p.bandwidth_used_kbps(), 300);
    }

    #[test]
    fn close_clamps_at_zero() {
        let mut p = profiler();
        p.session_opened(10.0, 100);
        p.session_closed(50.0, 700);
        assert_eq!(p.load(), 0.0);
        assert_eq!(p.bandwidth_used_kbps(), 0);
    }

    #[test]
    fn transient_load_adds() {
        let mut p = profiler();
        p.session_opened(40.0, 0);
        p.set_transient(10.0, 3);
        assert!((p.load() - 50.0).abs() < 1e-12);
        let r = p.make_report(SimTime::from_secs(2));
        assert_eq!(r.queue_len, 3);
        assert!((r.load - 50.0).abs() < 1e-12);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn execution_estimates_converge() {
        let mut p = profiler();
        let s = ServiceId::new(1);
        assert_eq!(p.execution_estimate(s), None);
        for _ in 0..50 {
            p.observe_execution(s, 0.25);
        }
        assert!((p.execution_estimate(s).unwrap() - 0.25).abs() < 1e-6);
        // Independent services tracked separately.
        p.observe_execution(ServiceId::new(2), 1.0);
        assert!((p.execution_estimate(ServiceId::new(2)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_capacity_fields() {
        let p = profiler();
        let r = p.make_report(SimTime::ZERO);
        assert_eq!(r.capacity, 100.0);
        assert_eq!(r.bandwidth_capacity_kbps, 1_000);
        assert_eq!(r.utilization(), 0.0);
    }
}
