//! Message delay and loss models.

use crate::topology::{Coord, Topology};
use arm_util::{DetRng, NodeId, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How base one-way latency between two peers is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Fixed latency for every pair.
    Constant(SimDuration),
    /// `base + distance(a,b) × per_unit` using virtual coordinates — the
    /// "topological proximity" model: peers of the same geographic cluster
    /// are milliseconds apart, peers of different clusters tens of ms.
    Euclidean {
        /// Floor latency (serialization, last hop).
        base: SimDuration,
        /// Latency per unit of coordinate distance.
        per_unit: SimDuration,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        // One coordinate grid unit ≈ 40 ms: WAN-ish inter-cluster latency.
        LatencyModel::Euclidean {
            base: SimDuration::from_millis(2),
            per_unit: SimDuration::from_millis(40),
        }
    }
}

/// The network model: pairwise delays with jitter and loss, optionally
/// plus store-and-forward transmission delay through the peers' access
/// links.
///
/// Deterministic given the RNG stream the caller supplies at each send.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    latency: LatencyModel,
    /// Multiplicative jitter: each message's delay is scaled by a uniform
    /// factor in `[1, 1 + jitter]`.
    jitter: f64,
    /// Probability a message is silently dropped.
    loss_prob: f64,
    coords: BTreeMap<NodeId, Coord>,
    /// Access-link rates in kbps, used by [`NetworkModel::sample_sized`].
    access_kbps: BTreeMap<NodeId, u32>,
    /// Whether message size contributes transmission delay.
    transmission_delay: bool,
}

impl NetworkModel {
    /// Creates a model over the peers of a topology.
    pub fn new(latency: LatencyModel, jitter: f64, loss_prob: f64, topo: &Topology) -> Self {
        assert!((0.0..=1.0).contains(&loss_prob));
        assert!(jitter >= 0.0);
        Self {
            latency,
            jitter,
            loss_prob,
            coords: topo.coords().collect(),
            access_kbps: topo
                .peers
                .iter()
                .map(|p| (p.id, p.bandwidth_kbps))
                .collect(),
            transmission_delay: false,
        }
    }

    /// Enables store-and-forward transmission delay: each message adds
    /// `bits / min(access rate of sender, receiver)` to its latency when
    /// sampled via [`NetworkModel::sample_sized`].
    pub fn with_transmission_delay(mut self) -> Self {
        self.transmission_delay = true;
        self
    }

    /// A loss-free constant-latency model over the given peer ids (handy in
    /// tests).
    pub fn constant(delay: SimDuration, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let coords: BTreeMap<NodeId, Coord> = ids
            .into_iter()
            .map(|id| (id, Coord::new(0.0, 0.0)))
            .collect();
        Self {
            latency: LatencyModel::Constant(delay),
            jitter: 0.0,
            loss_prob: 0.0,
            access_kbps: coords.keys().map(|id| (*id, 10_000)).collect(),
            coords,
            transmission_delay: false,
        }
    }

    /// The deterministic base latency between two peers (no jitter).
    pub fn base_latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        match self.latency {
            LatencyModel::Constant(d) => d,
            LatencyModel::Euclidean { base, per_unit } => {
                let (Some(&a), Some(&b)) = (self.coords.get(&from), self.coords.get(&to)) else {
                    return SimDuration::from_millis(50); // unknown peer: WAN default
                };
                base + per_unit.mul_f64(a.distance(b))
            }
        }
    }

    /// Samples the delay of one message, or `None` if the message is lost.
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> Option<SimDuration> {
        if self.loss_prob > 0.0 && rng.chance(self.loss_prob) {
            return None;
        }
        let base = self.base_latency(from, to);
        let delay = if self.jitter > 0.0 {
            base.mul_f64(rng.uniform(1.0, 1.0 + self.jitter))
        } else {
            base
        };
        Some(delay)
    }

    /// Samples the delay of a message of `bytes` bytes, adding
    /// transmission delay through the bottleneck access link when enabled.
    pub fn sample_sized(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut DetRng,
    ) -> Option<SimDuration> {
        let base = self.sample(from, to, rng)?;
        if !self.transmission_delay {
            return Some(base);
        }
        let rate_kbps = self
            .access_kbps
            .get(&from)
            .copied()
            .unwrap_or(10_000)
            .min(self.access_kbps.get(&to).copied().unwrap_or(10_000))
            .max(1);
        let tx_secs = (bytes as f64 * 8.0 / 1_000.0) / rate_kbps as f64;
        Some(base + SimDuration::from_secs_f64(tx_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Heterogeneity;

    fn topo() -> Topology {
        Topology::clustered(2, 3, 0.05, Heterogeneity::default(), &mut DetRng::new(1), 0)
    }

    #[test]
    fn constant_model() {
        let m = NetworkModel::constant(SimDuration::from_millis(10), (0..4).map(NodeId::new));
        assert_eq!(
            m.base_latency(NodeId::new(0), NodeId::new(3)),
            SimDuration::from_millis(10)
        );
        let mut rng = DetRng::new(2);
        assert_eq!(
            m.sample(NodeId::new(0), NodeId::new(1), &mut rng),
            Some(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn euclidean_scales_with_distance() {
        let t = topo();
        let m = NetworkModel::new(LatencyModel::default(), 0.0, 0.0, &t);
        // Same cluster (ids 0,1) vs cross cluster (ids 0,5).
        let near = m.base_latency(NodeId::new(0), NodeId::new(1));
        let far = m.base_latency(NodeId::new(0), NodeId::new(5));
        assert!(far > near * 2, "near {near}, far {far}");
    }

    #[test]
    fn latency_is_symmetric() {
        let t = topo();
        let m = NetworkModel::new(LatencyModel::default(), 0.0, 0.0, &t);
        for a in 0..6u64 {
            for b in 0..6u64 {
                assert_eq!(
                    m.base_latency(NodeId::new(a), NodeId::new(b)),
                    m.base_latency(NodeId::new(b), NodeId::new(a))
                );
            }
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let t = topo();
        let m = NetworkModel::new(
            LatencyModel::Constant(SimDuration::from_millis(100)),
            0.5,
            0.0,
            &t,
        );
        let mut rng = DetRng::new(3);
        for _ in 0..200 {
            let d = m.sample(NodeId::new(0), NodeId::new(1), &mut rng).unwrap();
            assert!(d >= SimDuration::from_millis(100));
            assert!(d <= SimDuration::from_millis(150));
        }
    }

    #[test]
    fn loss_rate_approximate() {
        let t = topo();
        let m = NetworkModel::new(
            LatencyModel::Constant(SimDuration::from_millis(1)),
            0.0,
            0.2,
            &t,
        );
        let mut rng = DetRng::new(4);
        let lost = (0..10_000)
            .filter(|_| m.sample(NodeId::new(0), NodeId::new(1), &mut rng).is_none())
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn unknown_peer_gets_default() {
        let t = topo();
        let m = NetworkModel::new(LatencyModel::default(), 0.0, 0.0, &t);
        let d = m.base_latency(NodeId::new(0), NodeId::new(999));
        assert_eq!(d, SimDuration::from_millis(50));
    }

    #[test]
    fn transmission_delay_scales_with_size_and_bottleneck() {
        let t = topo();
        let m = NetworkModel::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            0.0,
            0.0,
            &t,
        )
        .with_transmission_delay();
        let mut rng = DetRng::new(9);
        let small = m
            .sample_sized(NodeId::new(0), NodeId::new(1), 100, &mut rng)
            .unwrap();
        let big = m
            .sample_sized(NodeId::new(0), NodeId::new(1), 100_000, &mut rng)
            .unwrap();
        assert!(big > small);
        assert!(small >= SimDuration::from_millis(10));
        // Disabled by default: size has no effect.
        let m2 = NetworkModel::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            0.0,
            0.0,
            &t,
        );
        let a = m2
            .sample_sized(NodeId::new(0), NodeId::new(1), 100, &mut rng)
            .unwrap();
        let b = m2
            .sample_sized(NodeId::new(0), NodeId::new(1), 100_000, &mut rng)
            .unwrap();
        assert_eq!(a, b);
    }
}
