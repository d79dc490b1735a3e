//! Per-task application service graphs `G_s` (§3.3, Fig. 1B).
//!
//! "While `G_r` represents the number of available services and current
//! resource usage in the system, every produced `G_s` refers only to a
//! particular application task execution." A service graph is the chain of
//! service invocations the allocator chose for one task: an ordered list of
//! *hops*, each binding a resource-graph edge, the peer that hosts it and
//! the service it runs.

use crate::media::MediaFormat;
use crate::resource_graph::{EdgeId, ResourceGraph};
use crate::service::ServiceCost;
use arm_util::{NodeId, ServiceId, TaskId};
use serde::{Deserialize, Serialize};

/// One service invocation within a task's service graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceHop {
    /// The resource-graph edge this hop was allocated from.
    pub edge: EdgeId,
    /// The peer executing the service (a vertex of Fig. 1B).
    pub peer: NodeId,
    /// The service type being run.
    pub service: ServiceId,
    /// Input format of the hop.
    pub input: MediaFormat,
    /// Output format of the hop.
    pub output: MediaFormat,
    /// Cost charged to the peer while the hop is active.
    pub cost: ServiceCost,
}

/// The service graph `G_s` of one task: source → hops → receiver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceGraph {
    /// The task this graph executes.
    pub task: TaskId,
    /// The peer holding the source object (start of the stream).
    pub source: NodeId,
    /// The requesting peer (end of the stream).
    pub receiver: NodeId,
    /// The service hops, in stream order.
    pub hops: Vec<ServiceHop>,
}

impl ServiceGraph {
    /// Builds a service graph from an allocated path through `G_r`.
    pub fn from_path(
        task: TaskId,
        source: NodeId,
        receiver: NodeId,
        gr: &ResourceGraph,
        path: &[EdgeId],
    ) -> Self {
        let hops = path
            .iter()
            .map(|&eid| {
                let e = gr.edge(eid);
                ServiceHop {
                    edge: eid,
                    peer: e.peer,
                    service: e.service,
                    input: gr.format(e.from),
                    output: gr.format(e.to),
                    cost: e.cost,
                }
            })
            .collect();
        Self {
            task,
            source,
            receiver,
            hops,
        }
    }

    /// Every peer participating in the graph, in stream order, including
    /// source and receiver, without duplicates.
    pub fn participants(&self) -> Vec<NodeId> {
        let mut ps = vec![self.source];
        for h in &self.hops {
            if !ps.contains(&h.peer) {
                ps.push(h.peer);
            }
        }
        if !ps.contains(&self.receiver) {
            ps.push(self.receiver);
        }
        ps
    }

    /// True if `peer` executes any hop of this graph (the §4.1 check: "if
    /// the service graph included the peer in question as one of its
    /// vertices … an application task has been interrupted").
    pub fn uses_peer(&self, peer: NodeId) -> bool {
        self.hops.iter().any(|h| h.peer == peer)
    }

    /// The output format delivered to the receiver (output of the final
    /// hop, or `None` for an empty graph — a direct, transcode-free fetch).
    pub fn delivered_format(&self) -> Option<MediaFormat> {
        self.hops.last().map(|h| h.output)
    }

    /// Total sustained work per second this graph charges each peer:
    /// `(peer, work_per_sec)` pairs, aggregated over hops.
    pub fn load_by_peer(&self) -> Vec<(NodeId, f64)> {
        let mut acc: Vec<(NodeId, f64)> = Vec::with_capacity(self.hops.len());
        for h in &self.hops {
            if let Some(entry) = acc.iter_mut().find(|(p, _)| *p == h.peer) {
                entry.1 += h.cost.work_per_sec;
            } else {
                acc.push((h.peer, h.cost.work_per_sec));
            }
        }
        acc
    }

    /// The edge ids of the underlying `G_r` path.
    pub fn path(&self) -> Vec<EdgeId> {
        self.hops.iter().map(|h| h.edge).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_graph::ResourceGraph;

    fn graph_e1e2() -> (ResourceGraph, ServiceGraph) {
        let (gr, e) = ResourceGraph::figure1();
        let gs = ServiceGraph::from_path(
            TaskId::new(1),
            NodeId::new(10),
            NodeId::new(20),
            &gr,
            &[e[0], e[1]],
        );
        (gr, gs)
    }

    #[test]
    fn from_path_binds_edges() {
        let (gr, gs) = graph_e1e2();
        assert_eq!(gs.hops.len(), 2);
        assert_eq!(gs.hops[0].peer, NodeId::new(1));
        assert_eq!(gs.hops[1].peer, NodeId::new(2));
        assert_eq!(gs.hops[0].input, MediaFormat::paper_source());
        assert_eq!(gs.hops[1].output, MediaFormat::paper_target());
        assert_eq!(gs.delivered_format(), Some(MediaFormat::paper_target()));
        assert_eq!(gs.path(), vec![gs.hops[0].edge, gs.hops[1].edge]);
        assert!(gs.uses_peer(NodeId::new(2)));
        assert!(!gs.uses_peer(NodeId::new(99)));
        let _ = gr;
    }

    #[test]
    fn participants_in_stream_order() {
        let (_, gs) = graph_e1e2();
        assert_eq!(
            gs.participants(),
            vec![
                NodeId::new(10),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(20)
            ]
        );
    }

    #[test]
    fn load_by_peer_aggregates() {
        let (gr, e) = ResourceGraph::figure1();
        // Path e1,e4: peers 1 and 4; then add e6 also on peer 4.
        let gs = ServiceGraph::from_path(
            TaskId::new(2),
            NodeId::new(10),
            NodeId::new(20),
            &gr,
            &[e[0], e[3], e[5]],
        );
        let loads = gs.load_by_peer();
        assert_eq!(loads.len(), 2);
        let p4 = loads.iter().find(|(p, _)| *p == NodeId::new(4)).unwrap();
        assert!((p4.1 - (5.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_direct_fetch() {
        let (gr, _) = ResourceGraph::figure1();
        let gs =
            ServiceGraph::from_path(TaskId::new(3), NodeId::new(10), NodeId::new(20), &gr, &[]);
        assert_eq!(gs.delivered_format(), None);
        assert_eq!(gs.participants(), vec![NodeId::new(10), NodeId::new(20)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::media::{Codec, MediaFormat, Resolution};
    use crate::resource_graph::ResourceGraph;
    use crate::service::ServiceCost;
    use arm_util::ServiceId;
    use proptest::prelude::*;

    /// Builds a random chain graph and a service graph over all of it.
    fn chain(hops: usize, peers: &[u64]) -> (ResourceGraph, ServiceGraph) {
        let mut gr = ResourceGraph::new();
        let mut prev = gr.intern_state(MediaFormat::new(Codec::Mpeg2, Resolution::SVGA, 512));
        let mut path = Vec::new();
        for i in 0..hops {
            let next = gr.intern_state(MediaFormat::new(
                Codec::ALL[i % Codec::ALL.len()],
                Resolution::new(100 + i as u16, 100),
                500 - i as u32,
            ));
            let eid = gr.add_edge(
                prev,
                next,
                arm_util::NodeId::new(peers[i % peers.len()]),
                ServiceId::new(i as u64),
                ServiceCost {
                    work_per_sec: 1.0 + i as f64,
                    setup_work: 0.5,
                    bandwidth_kbps: 100,
                },
            );
            path.push(eid);
            prev = next;
        }
        let gs = ServiceGraph::from_path(
            arm_util::TaskId::new(1),
            arm_util::NodeId::new(1000),
            arm_util::NodeId::new(2000),
            &gr,
            &path,
        );
        (gr, gs)
    }

    proptest! {
        #[test]
        fn participants_cover_all_hop_peers(
            hops in 1usize..12,
            peers in proptest::collection::vec(0u64..6, 1..6),
        ) {
            let (_, gs) = chain(hops, &peers);
            let participants = gs.participants();
            prop_assert_eq!(participants[0], arm_util::NodeId::new(1000));
            prop_assert_eq!(*participants.last().unwrap(), arm_util::NodeId::new(2000));
            for h in &gs.hops {
                prop_assert!(participants.contains(&h.peer));
                prop_assert!(gs.uses_peer(h.peer));
            }
            // No duplicates.
            let mut sorted = participants.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), participants.len());
        }

        #[test]
        fn load_by_peer_conserves_total_work(
            hops in 1usize..12,
            peers in proptest::collection::vec(0u64..4, 1..4),
        ) {
            let (_, gs) = chain(hops, &peers);
            let per_peer: f64 = gs.load_by_peer().iter().map(|(_, w)| w).sum();
            let per_hop: f64 = gs.hops.iter().map(|h| h.cost.work_per_sec).sum();
            prop_assert!((per_peer - per_hop).abs() < 1e-9);
        }

        #[test]
        fn hop_formats_chain(hops in 1usize..12) {
            let (_, gs) = chain(hops, &[1, 2, 3]);
            for w in gs.hops.windows(2) {
                prop_assert_eq!(w[0].output, w[1].input);
            }
        }
    }
}
