//! Services peers can offer, and their cost model.
//!
//! §3.1 item 6: the RM records "the services `S_ij` each processor can
//! offer — for a transcoding application, these would be the transcoding
//! services available in each processor". A service is a *capability*
//! (transcode format A → format B); instantiating it on a peer produces a
//! resource-graph edge.

use crate::media::MediaFormat;
use arm_util::ServiceId;
use serde::{Deserialize, Serialize};

/// The processing and network cost of running a service for one session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceCost {
    /// Sustained processing load while the session is active, in work
    /// units per second — this is what accumulates into the peer's `l_i`.
    pub work_per_sec: f64,
    /// One-off setup computation, in work units (connection establishment,
    /// codec init).
    pub setup_work: f64,
    /// Bandwidth occupied on the peer's links while active, in kbps
    /// (input stream + output stream).
    pub bandwidth_kbps: u32,
}

impl ServiceCost {
    /// A zero-cost service (used by pass-through/relay edges).
    pub const FREE: ServiceCost = ServiceCost {
        work_per_sec: 0.0,
        setup_work: 0.0,
        bandwidth_kbps: 0,
    };
}

/// A service specification: what transformation it performs and what it
/// costs. Peers advertise sets of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Unique id of the service *type*.
    pub id: ServiceId,
    /// Input application state.
    pub input: MediaFormat,
    /// Output application state.
    pub output: MediaFormat,
    /// Cost of one active session of this service.
    pub cost: ServiceCost,
}

impl ServiceSpec {
    /// Builds a transcoder between two formats with a cost derived from the
    /// standard work model (`MediaFormat::transcode_work_from`), scaled by
    /// `work_scale` (work units per abstract transcode unit).
    pub fn transcoder(
        id: ServiceId,
        input: MediaFormat,
        output: MediaFormat,
        work_scale: f64,
    ) -> Self {
        let work = output.transcode_work_from(input) * work_scale;
        Self {
            id,
            input,
            output,
            cost: ServiceCost {
                work_per_sec: work,
                setup_work: work * 0.25,
                bandwidth_kbps: input
                    .bandwidth_kbps()
                    .saturating_add(output.bandwidth_kbps()),
            },
        }
    }

    /// True if this service can start from `format`.
    pub fn accepts(&self, format: MediaFormat) -> bool {
        self.input == format
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{Codec, Resolution};

    #[test]
    fn transcoder_costs_follow_work_model() {
        let a = MediaFormat::paper_source();
        let b = MediaFormat::paper_target();
        let s = ServiceSpec::transcoder(ServiceId::new(1), a, b, 10.0);
        assert!(s.cost.work_per_sec > 0.0);
        assert!((s.cost.setup_work - s.cost.work_per_sec * 0.25).abs() < 1e-12);
        assert_eq!(s.cost.bandwidth_kbps, 512 + 64);
        assert!(s.accepts(a));
        assert!(!s.accepts(b));
    }

    #[test]
    fn identity_transcoder_is_free_work() {
        let a = MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 128);
        let s = ServiceSpec::transcoder(ServiceId::new(2), a, a, 10.0);
        assert_eq!(s.cost.work_per_sec, 0.0);
        assert_eq!(s.cost.bandwidth_kbps, 256);
    }

    #[test]
    fn free_cost_constant() {
        assert_eq!(ServiceCost::FREE.work_per_sec, 0.0);
        assert_eq!(ServiceCost::FREE.bandwidth_kbps, 0);
    }
}
