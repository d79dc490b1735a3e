//! Per-task QoS requirements.
//!
//! §3.3 of the paper: each task `t` carries `Deadline_t` ("the time
//! interval, starting at task initiation, within which the task should
//! complete, specified by the end user") and `Importance_t` ("the relative
//! importance of the application, specified by the end user"). The
//! transcoding example adds acceptable output formats and a bandwidth
//! floor. §4.5: users may *renegotiate* — relax deadlines or reduce
//! requested bitrate under congestion.

use crate::task::Importance;
use arm_util::SimDuration;
use serde::{Deserialize, Serialize};

/// QoS requirement set `q` handed to the allocation algorithm (Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosSpec {
    /// Relative deadline: the task must complete within this interval of
    /// its initiation.
    pub deadline: SimDuration,
    /// Relative importance; the local scheduler and overload-shedding use
    /// it to favour critical tasks.
    pub importance: Importance,
    /// Minimum end-to-end bandwidth the allocation must sustain, in kbps.
    /// Zero means "no bandwidth floor".
    pub min_bandwidth_kbps: u32,
    /// Upper bound on the number of service hops the user tolerates
    /// (each hop adds latency and jitter). `None` means unbounded.
    pub max_hops: Option<usize>,
}

impl QosSpec {
    /// A requirement set with the given deadline and defaults elsewhere.
    pub fn with_deadline(deadline: SimDuration) -> Self {
        Self {
            deadline,
            importance: Importance::default(),
            min_bandwidth_kbps: 0,
            max_hops: None,
        }
    }

    /// Builder: sets importance.
    pub fn importance(mut self, importance: Importance) -> Self {
        self.importance = importance;
        self
    }

    /// Builder: sets the bandwidth floor.
    pub fn min_bandwidth(mut self, kbps: u32) -> Self {
        self.min_bandwidth_kbps = kbps;
        self
    }

    /// Builder: bounds the hop count.
    pub fn max_hops(mut self, hops: usize) -> Self {
        self.max_hops = Some(hops);
        self
    }

    /// QoS renegotiation (§4.5): returns a relaxed copy with the deadline
    /// stretched by `factor ≥ 1` and the bandwidth floor scaled by
    /// `1/factor` — what a user does "to cope with congested networks".
    pub fn relaxed(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "relaxation factor must be >= 1");
        #[allow(
            clippy::cast_possible_truncation,
            reason = "factor >= 1 keeps the quotient within u32; the fraction is dropped on purpose"
        )]
        let min_bandwidth_kbps = (self.min_bandwidth_kbps as f64 / factor) as u32;
        Self {
            deadline: self.deadline.mul_f64(factor),
            importance: self.importance,
            min_bandwidth_kbps,
            max_hops: self.max_hops,
        }
    }
}

impl Default for QosSpec {
    fn default() -> Self {
        Self::with_deadline(SimDuration::from_secs(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let q = QosSpec::with_deadline(SimDuration::from_secs(2))
            .importance(Importance::new(7))
            .min_bandwidth(256)
            .max_hops(3);
        assert_eq!(q.deadline, SimDuration::from_secs(2));
        assert_eq!(q.importance.value(), 7);
        assert_eq!(q.min_bandwidth_kbps, 256);
        assert_eq!(q.max_hops, Some(3));
    }

    #[test]
    fn relaxation_stretches_deadline_and_lowers_bandwidth() {
        let q = QosSpec::with_deadline(SimDuration::from_secs(2)).min_bandwidth(100);
        let r = q.relaxed(2.0);
        assert_eq!(r.deadline, SimDuration::from_secs(4));
        assert_eq!(r.min_bandwidth_kbps, 50);
        assert_eq!(r.importance, q.importance);
    }

    #[test]
    #[should_panic]
    fn relax_rejects_sub_one_factor() {
        QosSpec::default().relaxed(0.5);
    }

    #[test]
    fn default_is_sane() {
        let q = QosSpec::default();
        assert!(q.deadline > SimDuration::ZERO);
        assert_eq!(q.min_bandwidth_kbps, 0);
        assert_eq!(q.max_hops, None);
    }
}
