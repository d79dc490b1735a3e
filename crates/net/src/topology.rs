//! Peer placement and capacity generation.

use arm_util::{DetRng, NodeId};
use serde::{Deserialize, Serialize};

/// A point in the virtual geography. One distance unit ≈ one latency unit
/// under [`LatencyModel::Euclidean`](crate::LatencyModel::Euclidean).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    /// Horizontal position.
    pub x: f64,
    /// Vertical position.
    pub y: f64,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another coordinate.
    pub fn distance(self, other: Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A generated peer: its identity, placement and capacities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerSpec {
    /// The peer's id.
    pub id: NodeId,
    /// Placement in the virtual geography.
    pub coord: Coord,
    /// Index of the geographic cluster it was generated into (a *hint* for
    /// domain formation, not an assignment — the overlay protocol still
    /// decides domains at runtime).
    pub cluster: usize,
    /// Processing capacity in work units per second.
    pub capacity: f64,
    /// Link bandwidth in kbps.
    pub bandwidth_kbps: u32,
    /// Mean intended session length in the churn model, in seconds; also a
    /// proxy for "uptime" in RM qualification.
    pub stability: f64,
}

/// A set of generated peers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// The peers, in id order.
    pub peers: Vec<PeerSpec>,
    /// Number of geographic clusters used during generation.
    pub clusters: usize,
}

/// Knobs for capacity heterogeneity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Heterogeneity {
    /// Log-normal sigma of capacity spread. 0 = homogeneous.
    pub capacity_sigma: f64,
    /// Mean capacity (work units/second).
    pub capacity_mean: f64,
    /// Mean bandwidth in kbps.
    pub bandwidth_mean: f64,
    /// Log-normal sigma of bandwidth spread.
    pub bandwidth_sigma: f64,
}

impl Default for Heterogeneity {
    fn default() -> Self {
        Self {
            capacity_sigma: 0.5,
            capacity_mean: 100.0,
            bandwidth_mean: 10_000.0,
            bandwidth_sigma: 0.5,
        }
    }
}

impl Topology {
    /// Generates `clusters` geographic clusters of `per_cluster` peers
    /// each. Cluster centres sit on a coarse grid with unit spacing;
    /// members scatter within `spread` of their centre, so intra-cluster
    /// distances (≈ latencies) are much smaller than inter-cluster ones.
    ///
    /// Node ids are assigned sequentially starting at `base_id`.
    pub fn clustered(
        clusters: usize,
        per_cluster: usize,
        spread: f64,
        het: Heterogeneity,
        rng: &mut DetRng,
        base_id: u64,
    ) -> Self {
        assert!(clusters > 0 && per_cluster > 0);
        assert!(
            (0.0..0.5).contains(&spread),
            "spread must stay below grid spacing"
        );
        let side = (clusters as f64).sqrt().ceil() as usize;
        let mut peers = Vec::with_capacity(clusters * per_cluster);
        let mut next = base_id;
        for c in 0..clusters {
            let centre = Coord::new((c % side) as f64, (c / side) as f64);
            for _ in 0..per_cluster {
                let coord = Coord::new(
                    centre.x + rng.uniform(-spread, spread),
                    centre.y + rng.uniform(-spread, spread),
                );
                peers.push(Self::make_peer(NodeId::new(next), coord, c, het, rng));
                next += 1;
            }
        }
        Self { peers, clusters }
    }

    /// Generates `n` peers uniformly over a `size × size` square
    /// (single cluster).
    pub fn uniform(
        n: usize,
        size: f64,
        het: Heterogeneity,
        rng: &mut DetRng,
        base_id: u64,
    ) -> Self {
        assert!(n > 0 && size > 0.0);
        let peers = (0..n)
            .map(|i| {
                let coord = Coord::new(rng.uniform(0.0, size), rng.uniform(0.0, size));
                Self::make_peer(NodeId::new(base_id + i as u64), coord, 0, het, rng)
            })
            .collect();
        Self { peers, clusters: 1 }
    }

    fn make_peer(
        id: NodeId,
        coord: Coord,
        cluster: usize,
        het: Heterogeneity,
        rng: &mut DetRng,
    ) -> PeerSpec {
        // Log-normal with median = mean parameter (mu = ln mean).
        let capacity = if het.capacity_sigma > 0.0 {
            rng.lognormal(het.capacity_mean.ln(), het.capacity_sigma)
        } else {
            het.capacity_mean
        };
        let bandwidth = if het.bandwidth_sigma > 0.0 {
            rng.lognormal(het.bandwidth_mean.ln(), het.bandwidth_sigma)
        } else {
            het.bandwidth_mean
        };
        PeerSpec {
            id,
            coord,
            cluster,
            capacity: capacity.max(1.0),
            bandwidth_kbps: bandwidth.max(64.0) as u32,
            stability: rng.pareto(300.0, 1.5), // heavy-tailed lifetimes, ≥5 min
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True if no peers were generated (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Where peer `id` sits in [`Topology::peers`]. Both generators number
    /// peers consecutively from the first one's id, so that id's offset is
    /// the answer; a topology built by hand, if in id order, is searched.
    #[inline]
    pub fn position(&self, id: NodeId) -> Option<usize> {
        let offset = id.raw().checked_sub(self.peers.first()?.id.raw())?;
        let guess = usize::try_from(offset).ok()?;
        match self.peers.get(guess) {
            Some(p) if p.id == id => Some(guess),
            _ => self.peers.binary_search_by_key(&id, |p| p.id).ok(),
        }
    }

    /// Looks up a peer by id.
    pub fn get(&self, id: NodeId) -> Option<&PeerSpec> {
        self.position(id).map(|i| &self.peers[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_distance() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn clustered_topology_shape() {
        let mut rng = DetRng::new(1);
        let t = Topology::clustered(4, 8, 0.1, Heterogeneity::default(), &mut rng, 100);
        assert_eq!(t.len(), 32);
        assert_eq!(t.clusters, 4);
        assert_eq!(t.peers[0].id, NodeId::new(100));
        assert_eq!(t.peers[31].id, NodeId::new(131));
        // Each peer is near its cluster centre.
        for p in &t.peers {
            assert!(p.cluster < 4);
        }
    }

    #[test]
    fn clusters_are_tighter_than_intercluster() {
        let mut rng = DetRng::new(2);
        let t = Topology::clustered(4, 10, 0.05, Heterogeneity::default(), &mut rng, 0);
        // Mean intra-cluster distance << mean inter-cluster distance.
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for a in &t.peers {
            for b in &t.peers {
                if a.id >= b.id {
                    continue;
                }
                let d = a.coord.distance(b.coord);
                if a.cluster == b.cluster {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            intra_mean * 5.0 < inter_mean,
            "intra {intra_mean} vs inter {inter_mean}"
        );
    }

    #[test]
    fn uniform_topology_bounds() {
        let mut rng = DetRng::new(3);
        let t = Topology::uniform(50, 2.0, Heterogeneity::default(), &mut rng, 0);
        assert_eq!(t.len(), 50);
        for p in &t.peers {
            assert!((0.0..=2.0).contains(&p.coord.x));
            assert!((0.0..=2.0).contains(&p.coord.y));
            assert!(p.capacity >= 1.0);
            assert!(p.bandwidth_kbps >= 64);
            assert!(p.stability >= 300.0);
        }
    }

    #[test]
    fn homogeneous_when_sigma_zero() {
        let mut rng = DetRng::new(4);
        let het = Heterogeneity {
            capacity_sigma: 0.0,
            bandwidth_sigma: 0.0,
            ..Heterogeneity::default()
        };
        let t = Topology::uniform(10, 1.0, het, &mut rng, 0);
        assert!(t.peers.iter().all(|p| p.capacity == 100.0));
        assert!(t.peers.iter().all(|p| p.bandwidth_kbps == 10_000));
    }

    #[test]
    fn heterogeneity_spreads_capacity() {
        let mut rng = DetRng::new(5);
        let het = Heterogeneity {
            capacity_sigma: 1.0,
            ..Heterogeneity::default()
        };
        let t = Topology::uniform(200, 1.0, het, &mut rng, 0);
        let min = t.peers.iter().map(|p| p.capacity).fold(f64::MAX, f64::min);
        let max = t.peers.iter().map(|p| p.capacity).fold(0.0, f64::max);
        assert!(max / min > 5.0, "spread {min}..{max} too narrow");
    }

    #[test]
    fn deterministic_generation() {
        let t1 = Topology::clustered(2, 5, 0.1, Heterogeneity::default(), &mut DetRng::new(7), 0);
        let t2 = Topology::clustered(2, 5, 0.1, Heterogeneity::default(), &mut DetRng::new(7), 0);
        assert_eq!(t1, t2);
    }

    #[test]
    fn get_by_id() {
        let mut rng = DetRng::new(8);
        let t = Topology::uniform(5, 1.0, Heterogeneity::default(), &mut rng, 10);
        assert!(t.get(NodeId::new(12)).is_some());
        assert!(t.get(NodeId::new(99)).is_none());
    }

    #[test]
    fn position_is_the_offset_from_the_first_id() {
        let mut rng = DetRng::new(8);
        let mut t = Topology::clustered(2, 3, 0.1, Heterogeneity::default(), &mut rng, 40);
        for (i, p) in t.peers.iter().enumerate() {
            assert_eq!(t.position(p.id), Some(i));
        }
        for unknown in [0, 39, 46, u64::MAX] {
            assert_eq!(t.position(NodeId::new(unknown)), None);
        }
        // A gap in hand-built ids: the peers past it are still found.
        t.peers.remove(2);
        for (i, p) in t.peers.iter().enumerate() {
            assert_eq!(t.position(p.id), Some(i));
        }
        assert_eq!(t.position(NodeId::new(42)), None);
        assert_eq!(
            Topology {
                peers: Vec::new(),
                clusters: 0
            }
            .position(NodeId::new(0)),
            None
        );
    }
}
