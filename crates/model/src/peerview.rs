//! The Resource Manager's view of its domain's peers.
//!
//! §3.1 items 3–4: the RM tracks, per processor, "the current processor
//! load `l_i` … expressed as the product of processing power with current
//! utilization" and "the currently used network bandwidth `bw_i`". This
//! module is that table, kept as plain data so the allocator can be a pure
//! function over it.
//!
//! Loads here are whatever the RM last *heard* (profiler reports are
//! periodic, §4.4), so they can be stale relative to ground truth — the
//! staleness experiment (E10) quantifies the consequences.

use arm_util::{fairness_index, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-peer resource information as known by a Resource Manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// Processing capacity in work units per second ("processing power").
    pub capacity: f64,
    /// Current processing load `l_i` in work units per second
    /// (capacity × utilization).
    pub load: f64,
    /// Total link bandwidth in kbps.
    pub bandwidth_capacity_kbps: u32,
    /// Currently used bandwidth `bw_i` in kbps.
    pub bandwidth_used_kbps: u32,
}

impl PeerInfo {
    /// A peer with the given capacities and no load.
    pub fn idle(capacity: f64, bandwidth_capacity_kbps: u32) -> Self {
        Self {
            capacity,
            load: 0.0,
            bandwidth_capacity_kbps,
            bandwidth_used_kbps: 0,
        }
    }

    /// CPU utilization in `[0, 1]` (can exceed 1 transiently when the RM's
    /// view lags behind reality; callers clamp where it matters).
    pub fn utilization(&self) -> f64 {
        if self.capacity <= 0.0 {
            0.0
        } else {
            self.load / self.capacity
        }
    }

    /// Remaining processing headroom, floored at a small epsilon so time
    /// estimates stay finite on saturated peers.
    pub fn available_capacity(&self) -> f64 {
        (self.capacity - self.load).max(self.capacity * 1e-3)
    }

    /// Remaining bandwidth headroom in kbps.
    pub fn available_bandwidth_kbps(&self) -> u32 {
        self.bandwidth_capacity_kbps
            .saturating_sub(self.bandwidth_used_kbps)
    }
}

/// The RM's table of peers: an ordered map so iteration is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PeerView {
    peers: BTreeMap<NodeId, PeerInfo>,
}

impl PeerView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a peer.
    pub fn upsert(&mut self, id: NodeId, info: PeerInfo) {
        self.peers.insert(id, info);
    }

    /// Removes a peer (it left or failed).
    pub fn remove(&mut self, id: NodeId) -> Option<PeerInfo> {
        self.peers.remove(&id)
    }

    /// Looks up a peer.
    pub fn get(&self, id: NodeId) -> Option<&PeerInfo> {
        self.peers.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut PeerInfo> {
        self.peers.get_mut(&id)
    }

    /// True if the peer is known.
    pub fn contains(&self, id: NodeId) -> bool {
        self.peers.contains_key(&id)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True if no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Deterministic iteration in NodeId order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &PeerInfo)> {
        self.peers.iter()
    }

    /// The peer ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.keys().copied()
    }

    /// The load vector in NodeId order.
    pub fn loads(&self) -> Vec<f64> {
        self.peers.values().map(|p| p.load).collect()
    }

    /// Jain's fairness index of the current load distribution (§4.2).
    pub fn fairness(&self) -> f64 {
        fairness_index(&self.loads())
    }

    /// Mean CPU utilization across peers.
    pub fn mean_utilization(&self) -> f64 {
        if self.peers.is_empty() {
            return 0.0;
        }
        self.peers.values().map(|p| p.utilization()).sum::<f64>() / self.peers.len() as f64
    }

    /// True if every peer's utilization is at or above `threshold` — the
    /// paper's domain-overload predicate ("if the processor or network load
    /// is constantly above a certain threshold for all peers", §4.5).
    pub fn all_above(&self, threshold: f64) -> bool {
        !self.peers.is_empty() && self.peers.values().all(|p| p.utilization() >= threshold)
    }

    /// Applies a load delta to a peer (clamped at zero), e.g. when the RM
    /// commits an allocation before the next profiler report arrives.
    pub fn add_load(&mut self, id: NodeId, delta: f64) {
        if let Some(p) = self.peers.get_mut(&id) {
            p.load = (p.load + delta).max(0.0);
        }
    }

    /// Applies a bandwidth delta to a peer (saturating).
    pub fn add_bandwidth(&mut self, id: NodeId, delta_kbps: i64) {
        if let Some(p) = self.peers.get_mut(&id) {
            let new = i64::from(p.bandwidth_used_kbps).saturating_add(delta_kbps);
            let capacity = p.bandwidth_capacity_kbps;
            p.bandwidth_used_kbps =
                u32::try_from(new.clamp(0, i64::from(capacity))).unwrap_or(capacity);
        }
    }
}

impl FromIterator<(NodeId, PeerInfo)> for PeerView {
    fn from_iter<T: IntoIterator<Item = (NodeId, PeerInfo)>>(iter: T) -> Self {
        Self {
            peers: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> PeerView {
        let mut v = PeerView::new();
        v.upsert(NodeId::new(1), PeerInfo::idle(100.0, 1000));
        v.upsert(NodeId::new(2), PeerInfo::idle(50.0, 500));
        v
    }

    #[test]
    fn utilization_and_headroom() {
        let mut p = PeerInfo::idle(100.0, 1000);
        assert_eq!(p.utilization(), 0.0);
        assert_eq!(p.available_capacity(), 100.0);
        p.load = 60.0;
        assert!((p.utilization() - 0.6).abs() < 1e-12);
        assert!((p.available_capacity() - 40.0).abs() < 1e-12);
        p.bandwidth_used_kbps = 400;
        assert_eq!(p.available_bandwidth_kbps(), 600);
    }

    #[test]
    fn saturated_peer_has_epsilon_headroom() {
        let mut p = PeerInfo::idle(100.0, 1000);
        p.load = 150.0;
        assert!(p.available_capacity() > 0.0);
        assert!(p.utilization() > 1.0);
    }

    #[test]
    fn upsert_get_remove() {
        let mut v = view();
        assert_eq!(v.len(), 2);
        assert!(v.contains(NodeId::new(1)));
        v.remove(NodeId::new(1));
        assert!(!v.contains(NodeId::new(1)));
        assert_eq!(v.len(), 1);
        assert!(v.get(NodeId::new(2)).is_some());
    }

    #[test]
    fn fairness_of_view() {
        let mut v = view();
        assert_eq!(v.fairness(), 1.0); // both idle
        v.add_load(NodeId::new(1), 10.0);
        assert!(v.fairness() < 1.0);
    }

    #[test]
    fn load_and_bandwidth_deltas_clamp() {
        let mut v = view();
        v.add_load(NodeId::new(1), -5.0);
        assert_eq!(v.get(NodeId::new(1)).unwrap().load, 0.0);
        v.add_bandwidth(NodeId::new(1), 2_000);
        assert_eq!(v.get(NodeId::new(1)).unwrap().bandwidth_used_kbps, 1000);
        v.add_bandwidth(NodeId::new(1), -5_000);
        assert_eq!(v.get(NodeId::new(1)).unwrap().bandwidth_used_kbps, 0);
    }

    #[test]
    fn overload_predicate() {
        let mut v = view();
        assert!(!v.all_above(0.8));
        v.get_mut(NodeId::new(1)).unwrap().load = 90.0;
        assert!(!v.all_above(0.8)); // peer 2 still idle
        v.get_mut(NodeId::new(2)).unwrap().load = 45.0;
        assert!(v.all_above(0.8));
        assert!((v.mean_utilization() - 0.9).abs() < 1e-12);
        assert!(!PeerView::new().all_above(0.1)); // empty never overloaded
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut v = PeerView::new();
        for raw in [5u64, 1, 9, 3] {
            v.upsert(NodeId::new(raw), PeerInfo::idle(1.0, 1));
        }
        let ids: Vec<u64> = v.ids().map(|n| n.raw()).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
