//! Protocol configuration.

use arm_model::alloc::{AllocParams, AllocatorKind, ExplorationMode};
use arm_proto::RmRequirements;
use arm_sched::PolicyKind;
use arm_util::SimDuration;
use serde::{Deserialize, Serialize};

/// All tunables of the middleware. Experiments sweep individual fields and
/// keep the rest at [`ProtocolConfig::default`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    // ---- overlay construction (§4.1) ----
    /// Maximum number of processors one RM manages; reaching it triggers
    /// domain splitting ("the only parameter determining the domain size").
    pub max_domain_size: usize,
    /// Minimum resources to qualify for RM candidacy.
    pub rm_requirements: RmRequirements,
    /// How long a joining peer waits for a `JoinAccept` before retrying.
    pub join_timeout: SimDuration,

    // ---- liveness ----
    /// Heartbeat period (RM → members each period; member → RM on quiet ticks only).
    /// The heartbeat duty and the load-report duty (`report_period`) ride
    /// one liveness timer, set for whichever is due first.
    pub heartbeat_period: SimDuration,
    /// Silence threshold after which a peer is declared dead.
    pub heartbeat_timeout: SimDuration,

    // ---- feedback (§4.4) ----
    /// Profiler load-report period (the E10 sweep knob). Any period works:
    /// the report duty rides the same liveness timer as the heartbeat duty.
    pub report_period: SimDuration,
    /// Gossip period for inter-domain summaries.
    pub gossip_period: SimDuration,
    /// How many random RM peers each gossip round contacts.
    pub gossip_fanout: usize,
    /// Backup-snapshot shipping period (RM → backup RM).
    pub backup_period: SimDuration,

    // ---- allocation (§4.3) ----
    /// Path-search parameters.
    pub alloc_params: AllocParams,
    /// Allocation objective (the paper uses `MaxFairness`; baselines are
    /// swept in E4).
    pub allocator: AllocatorKind,
    /// How long the RM waits for all `ComposeAck`s before declaring the
    /// composition failed and attempting repair.
    pub compose_timeout: SimDuration,

    // ---- admission & adaptation (§4.5) ----
    /// Utilization above which a peer counts as overloaded; when *all*
    /// peers exceed it the domain rejects/redirects new tasks.
    pub overload_threshold: f64,
    /// Enable admission control (E9 ablation).
    pub admission_enabled: bool,
    /// Maximum times a query may be redirected between domains.
    pub max_redirects: usize,
    /// Adaptation check period (reassignment of running sessions).
    pub adapt_period: SimDuration,
    /// Enable adaptive reassignment (E11 ablation).
    pub reassignment_enabled: bool,
    /// Minimum fairness improvement to justify a migration.
    pub reassign_margin: f64,

    // ---- connection management (§2) ----
    /// Maximum simultaneous peer connections the Connection Manager
    /// allows ("the number of connections is typically limited by the
    /// resources at the peer"). Compositions that would exceed it are
    /// declined with a `ComposeNack`.
    pub max_connections: usize,

    // ---- local scheduling (§2) ----
    /// Local scheduler policy.
    pub sched_policy: PolicyKind,
    /// Local scheduler polling period while jobs are queued.
    pub sched_poll: SimDuration,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            max_domain_size: 32,
            rm_requirements: RmRequirements::default(),
            join_timeout: SimDuration::from_secs(2),
            heartbeat_period: SimDuration::from_secs(1),
            heartbeat_timeout: SimDuration::from_secs(4),
            report_period: SimDuration::from_secs(1),
            gossip_period: SimDuration::from_secs(10),
            gossip_fanout: 2,
            backup_period: SimDuration::from_secs(5),
            // Branch-and-bound returns the exact same allocation as the
            // paper's exhaustive enumeration (proven by the identity
            // property tests) while exploring a fraction of the prefixes,
            // so the middleware defaults to the pruned search.
            alloc_params: AllocParams {
                mode: ExplorationMode::BranchAndBound,
                ..AllocParams::default()
            },
            allocator: AllocatorKind::MaxFairness,
            compose_timeout: SimDuration::from_secs(3),
            overload_threshold: 0.85,
            admission_enabled: true,
            max_redirects: 3,
            adapt_period: SimDuration::from_secs(5),
            reassignment_enabled: true,
            reassign_margin: 0.01,
            max_connections: 64,
            sched_policy: PolicyKind::LeastLaxity,
            sched_poll: SimDuration::from_millis(20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = ProtocolConfig::default();
        assert!(c.heartbeat_timeout > c.heartbeat_period * 2);
        assert!(c.max_domain_size >= 2);
        assert!((0.0..=1.0).contains(&c.overload_threshold));
        assert!(c.gossip_fanout >= 1);
        assert!(c.reassign_margin >= 0.0);
    }
}
