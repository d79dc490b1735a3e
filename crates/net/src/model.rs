//! Message delay and loss models.

use crate::topology::{Coord, PeerSpec, Topology};
use arm_util::{DetRng, NodeId, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

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
    /// The peers: each one's coordinate, and its access-link rate in kbps
    /// (used by [`NetworkModel::sample_sized`]).
    topo: Topology,
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
            topo: topo.clone(),
            transmission_delay: false,
        }
    }

    /// `id`'s coordinate and access rate, if it is one of the model's peers.
    #[inline]
    fn peer(&self, id: NodeId) -> Option<(Coord, u32)> {
        self.topo.get(id).map(|p| (p.coord, p.bandwidth_kbps))
    }

    /// Enables store-and-forward transmission delay: each message adds
    /// `bits / min(access rate of sender, receiver)` to its latency when
    /// sampled via [`NetworkModel::sample_sized`].
    pub fn with_transmission_delay(mut self) -> Self {
        self.transmission_delay = true;
        self
    }

    /// A loss-free constant-latency model over the given peer ids (handy
    /// in tests): each sits at the origin with a 10,000 kbps link.
    pub fn constant(delay: SimDuration, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let ids: BTreeSet<NodeId> = ids.into_iter().collect();
        let peers = ids.into_iter().map(|id| PeerSpec {
            id,
            coord: Coord::new(0.0, 0.0),
            cluster: 0,
            capacity: 1.0,
            bandwidth_kbps: 10_000,
            stability: 0.0,
        });
        let topo = Topology {
            peers: peers.collect(),
            clusters: 1,
        };
        Self::new(LatencyModel::Constant(delay), 0.0, 0.0, &topo)
    }

    /// The deterministic base latency between two peers (no jitter).
    pub fn base_latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        match self.latency {
            LatencyModel::Constant(d) => d,
            LatencyModel::Euclidean { base, per_unit } => {
                let (Some((a, _)), Some((b, _))) = (self.peer(from), self.peer(to)) else {
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
        let kbps = |id| self.peer(id).map_or(10_000, |(_, kbps)| kbps);
        let rate_kbps = kbps(from).min(kbps(to)).max(1);
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
        // Over ids that do not start at zero, with links: 10,000 kbps on
        // every one, known or not, so 1,000 kbit take 100 ms.
        let ids = (40..44).map(NodeId::new);
        let m = NetworkModel::constant(SimDuration::from_millis(7), ids).with_transmission_delay();
        for (a, b) in [(40, 43), (43, 40), (40, 0), (99, 41)] {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            assert_eq!(m.base_latency(a, b), SimDuration::from_millis(7));
            let got = m.sample_sized(a, b, 125_000, &mut rng);
            assert_eq!(got, Some(SimDuration::from_millis(107)));
        }
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
        let t = Topology::clustered(
            2,
            3,
            0.05,
            Heterogeneity::default(),
            &mut DetRng::new(1),
            100,
        );
        let m = NetworkModel::new(LatencyModel::default(), 0.0, 0.0, &t).with_transmission_delay();
        let (first, below, above) = (NodeId::new(100), NodeId::new(99), NodeId::new(106));
        for unknown in [below, above, NodeId::new(999), NodeId::new(u64::MAX)] {
            assert_eq!(m.base_latency(first, unknown), SimDuration::from_millis(50));
            assert_eq!(m.base_latency(unknown, first), SimDuration::from_millis(50));
        }
        assert!(m.base_latency(first, NodeId::new(105)) != SimDuration::from_millis(50));
        // One unknown endpoint: the bottleneck is the known peer's link or
        // the 10,000 kbps default, whichever is slower.
        let mut rng = DetRng::new(5);
        let bytes = 125_000; // 1,000 kbit
        let known_kbps = t.peers[0].bandwidth_kbps.min(10_000);
        let got = m.sample_sized(first, above, bytes, &mut rng).unwrap();
        let tx = SimDuration::from_secs_f64(1_000.0 / known_kbps as f64);
        assert_eq!(got, SimDuration::from_millis(50) + tx);
        let both_unknown = m.sample_sized(below, above, bytes, &mut rng).unwrap();
        assert_eq!(both_unknown, SimDuration::from_millis(150));
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
