//! Scenario configuration: everything a run needs, in one struct.

use arm_core::ProtocolConfig;
use arm_net::churn::ChurnParams;
use arm_net::{Heterogeneity, LatencyModel};
use arm_util::{SimDuration, SimTime};
use arm_workload::WorkloadConfig;
use serde::{Deserialize, Serialize};

/// Full description of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Number of geographic clusters (→ initial domains).
    pub clusters: usize,
    /// Peers per cluster (including the cluster's founding RM).
    pub peers_per_cluster: usize,
    /// Geographic scatter within a cluster (see
    /// [`Topology::clustered`](arm_net::Topology::clustered)).
    pub spread: f64,
    /// Capacity/bandwidth heterogeneity.
    pub heterogeneity: Heterogeneity,
    /// Pairwise latency model.
    pub latency: LatencyModel,
    /// Multiplicative latency jitter (0 = none).
    pub jitter: f64,
    /// Message loss probability.
    pub loss: f64,
    /// Add store-and-forward transmission delay (message size over the
    /// bottleneck access link) on top of propagation latency. Off by
    /// default so recorded experiment tables stay latency-dominated.
    pub transmission_delay: bool,
    /// Middleware protocol parameters.
    pub protocol: ProtocolConfig,
    /// Workload parameters (the workload horizon is clamped to
    /// `horizon − warmup` at build time).
    pub workload: WorkloadConfig,
    /// Churn parameters; `None` disables churn.
    pub churn: Option<ChurnParams>,
    /// Delay between consecutive peer joins at start-up.
    pub join_stagger: SimDuration,
    /// Time reserved for overlay formation before the first task arrives.
    pub warmup: SimDuration,
    /// Total virtual run length.
    pub horizon: SimTime,
    /// Period of global metric sampling (fairness, utilization).
    pub sample_period: SimDuration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            clusters: 2,
            peers_per_cluster: 16,
            spread: 0.05,
            heterogeneity: Heterogeneity::default(),
            latency: LatencyModel::default(),
            jitter: 0.1,
            loss: 0.0,
            transmission_delay: false,
            protocol: ProtocolConfig::default(),
            workload: WorkloadConfig::default(),
            churn: None,
            join_stagger: SimDuration::from_millis(50),
            warmup: SimDuration::from_secs(5),
            horizon: SimTime::from_secs(300),
            sample_period: SimDuration::from_secs(1),
        }
    }
}

impl ScenarioConfig {
    /// Total number of peers.
    pub fn num_peers(&self) -> usize {
        self.clusters * self.peers_per_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let c = ScenarioConfig::default();
        assert_eq!(c.num_peers(), 32);
        assert!(c.horizon > SimTime::ZERO + c.warmup);
    }
    /// `arm scaffold` wrote every `ProtocolConfig` field; files scaffolded
    /// before `summary_bits`, `summary_hashes`, `max_reassign_per_tick` and
    /// `critical_bypass` became constants (or went) must keep loading.
    #[test]
    fn scaffold_carrying_the_removed_protocol_keys_still_loads() {
        let json = serde_json::to_string(&ScenarioConfig::default()).unwrap();
        let old = json.replacen(
            "\"protocol\":{",
            "\"protocol\":{\"summary_bits\":4096,\"summary_hashes\":4,\
             \"max_reassign_per_tick\":4,\"critical_bypass\":null,",
            1,
        );
        assert_ne!(old, json, "no `protocol` object in the scaffold");
        let loaded: ScenarioConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(loaded.protocol, ScenarioConfig::default().protocol);
    }
}
