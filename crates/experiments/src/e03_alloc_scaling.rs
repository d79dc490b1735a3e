//! E3 — Figure 3 reproduction: the allocation algorithm's cost and the
//! exploration-mode ablation.
//!
//! The paper gives the algorithm (Fig. 3) but no measurements. We measure
//! what matters for its practicality: how search cost grows with resource-
//! graph size, and what the literal global-visited pseudocode loses versus
//! full simple-path enumeration (see
//! `ExplorationMode`).

use crate::{f2, f3, Table};
use arm_model::alloc::{AllocParams, AllocatorKind, ExplorationMode, FairnessAllocator};
use arm_model::{
    Codec, MediaFormat, PeerInfo, PeerView, QosSpec, Resolution, ResourceGraph, ServiceCost,
    StateId,
};
use arm_util::{DetRng, NodeId, ServiceId, SimDuration};
use std::time::Instant;

/// Builds a layered random graph with `layers × width` states.
pub fn layered_graph(
    seed: u64,
    layers: usize,
    width: usize,
    peers: usize,
    edge_prob: f64,
) -> (ResourceGraph, PeerView, StateId, StateId) {
    let mut rng = DetRng::new(seed);
    let mut gr = ResourceGraph::new();
    let mut fmt = 0u32;
    let mut fresh = |gr: &mut ResourceGraph| {
        fmt += 1;
        gr.intern_state(MediaFormat::new(
            Codec::ALL[fmt as usize % Codec::ALL.len()],
            Resolution::new((100 + fmt % 1000) as u16, (100 + fmt / 1000) as u16),
            fmt,
        ))
    };
    let mut layer_states: Vec<Vec<StateId>> = Vec::new();
    for li in 0..layers {
        let w = if li == 0 || li == layers - 1 {
            1
        } else {
            width
        };
        layer_states.push((0..w).map(|_| fresh(&mut gr)).collect());
    }
    let mut svc = 0u64;
    for li in 0..layers - 1 {
        for &a in &layer_states[li] {
            for &b in &layer_states[li + 1] {
                if rng.chance(edge_prob) || b == layer_states[li + 1][0] {
                    svc += 1;
                    gr.add_edge(
                        a,
                        b,
                        NodeId::new(rng.below(peers as u64)),
                        ServiceId::new(svc),
                        ServiceCost {
                            work_per_sec: rng.uniform(1.0, 6.0),
                            setup_work: rng.uniform(0.2, 1.0),
                            bandwidth_kbps: 64,
                        },
                    );
                }
            }
        }
    }
    let mut view = PeerView::new();
    for p in 0..peers as u64 {
        let mut info = PeerInfo::idle(100.0, 1_000_000);
        info.load = rng.uniform(0.0, 30.0);
        view.upsert(NodeId::new(p), info);
    }
    (gr, view, layer_states[0][0], layer_states[layers - 1][0])
}

/// Runs the scaling sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let shapes: Vec<(usize, usize)> = if quick {
        vec![(3, 2), (4, 3), (5, 3), (5, 4)]
    } else {
        vec![(3, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5)]
    };
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    let mut t = Table::new(
        "Allocation cost vs graph size: full enumeration vs literal Fig. 3 (GlobalVisited)",
        &[
            "layers×width",
            "|V|",
            "|E|",
            "full: paths",
            "full: µs",
            "full: fairness",
            "literal: paths",
            "literal: µs",
            "literal: fairness",
        ],
    );
    for (layers, width) in shapes {
        // Average over a few seeds for stability.
        let seeds = if quick { 3 } else { 10 };
        let mut acc = [0.0f64; 6];
        let mut v_e = (0usize, 0usize);
        let mut counted = 0usize;
        for seed in 0..seeds {
            let (gr, view, init, goal) = layered_graph(seed, layers, width, 16, 0.7);
            v_e = (gr.num_states(), gr.num_edges());
            let run_mode = |mode: ExplorationMode| {
                let alloc = FairnessAllocator {
                    params: AllocParams {
                        mode,
                        ..AllocParams::default()
                    },
                    kind: AllocatorKind::MaxFairness,
                };
                let t0 = Instant::now();
                let r = alloc.allocate(&gr, &view, init, &[goal], &qos, None);
                (r, t0.elapsed().as_secs_f64() * 1e6)
            };
            let (full, full_us) = run_mode(ExplorationMode::AllSimplePaths);
            let (lit, lit_us) = run_mode(ExplorationMode::GlobalVisited);
            if let (Ok(f), Ok(l)) = (full, lit) {
                acc[0] += f.explored as f64;
                acc[1] += full_us;
                acc[2] += f.fairness;
                acc[3] += l.explored as f64;
                acc[4] += lit_us;
                acc[5] += l.fairness;
                counted += 1;
            }
        }
        if counted == 0 {
            continue;
        }
        let n = counted as f64;
        t.row(vec![
            format!("{layers}×{width}"),
            v_e.0.to_string(),
            v_e.1.to_string(),
            format!("{:.0}", acc[0] / n),
            format!("{:.0}", acc[1] / n),
            f3(acc[2] / n),
            format!("{:.0}", acc[3] / n),
            format!("{:.0}", acc[4] / n),
            f3(acc[5] / n),
        ]);
    }

    // Capped-search comparison: on a dense graph, which exploration order
    // finds the best allocation within a fixed budget?
    let mut t_cap = Table::new(
        "Approximate argmax under an exploration cap (dense 5×6 layered graph, 24 peers, \
         mean fairness over seeds)",
        &[
            "cap",
            "truncated BFS",
            "branch-and-bound",
            "exhaustive (reference)",
        ],
    );
    let caps: Vec<usize> = if quick {
        vec![60, 500]
    } else {
        vec![30, 60, 120, 500, 2_000]
    };
    let seeds = if quick { 5 } else { 15 };
    let qos_dense = QosSpec::with_deadline(SimDuration::from_secs(60));
    for cap in caps {
        // Per mode: (sum of fairness over successful seeds, successes).
        let mut acc = [(0.0f64, 0usize); 3];
        for seed in 0..seeds {
            let (gr, view, init, goal) = layered_graph(seed, 5, 6, 24, 1.0);
            let run_mode = |mode: ExplorationMode, cap: usize| {
                FairnessAllocator {
                    params: AllocParams {
                        mode,
                        max_explored: cap,
                        ..AllocParams::default()
                    },
                    kind: AllocatorKind::MaxFairness,
                }
                .allocate(&gr, &view, init, &[goal], &qos_dense, None)
            };
            let results = [
                run_mode(ExplorationMode::AllSimplePaths, cap),
                run_mode(ExplorationMode::BranchAndBound, cap),
                run_mode(ExplorationMode::AllSimplePaths, 2_000_000),
            ];
            for (slot, r) in acc.iter_mut().zip(results) {
                if let Ok(a) = r {
                    slot.0 += a.fairness;
                    slot.1 += 1;
                }
            }
        }
        // "A truncated search that finds nothing" is the key outcome to
        // surface, not hide: report found-rate alongside mean fairness.
        let cell = |(sum, found): (f64, usize)| -> String {
            if found == 0 {
                format!("none (0/{seeds})")
            } else {
                format!("{} ({found}/{seeds})", f2(sum / found as f64))
            }
        };
        t_cap.row(vec![
            cap.to_string(),
            cell(acc[0]),
            cell(acc[1]),
            cell(acc[2]),
        ]);
    }

    vec![t, t_cap]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnb_dominates_truncated_bfs_under_caps() {
        let tables = run(true);
        let t = &tables[1];
        assert!(t.len() >= 2);
        let value = |cell: &str| -> (f64, usize) {
            if cell.starts_with("none") {
                return (0.0, 0);
            }
            let mut parts = cell.split_whitespace();
            let v: f64 = parts.next().unwrap().parse().unwrap();
            let frac = parts.next().unwrap(); // "(k/n)"
            let k: usize = frac[1..frac.find('/').unwrap()].parse().unwrap();
            (v, k)
        };
        for r in 0..t.len() {
            let (bfs, bfs_found) = value(t.cell(r, 1));
            let (bnb, bnb_found) = value(t.cell(r, 2));
            let (exact, exact_found) = value(t.cell(r, 3));
            let cap = t.cell(r, 0);
            assert!(
                bnb_found >= bfs_found,
                "branch-and-bound finds at least as often"
            );
            assert!(exact_found > 0);
            if bfs_found > 0 && bnb_found > 0 {
                assert!(
                    bnb >= bfs - 0.01,
                    "branch-and-bound at cap {cap}: {bnb} vs BFS {bfs}"
                );
            }
            if bnb_found > 0 {
                assert!(bnb <= exact + 0.01, "cannot beat the exhaustive optimum");
            }
        }
    }

    #[test]
    fn sweep_produces_rows_and_literal_never_beats_full() {
        let tables = run(true);
        let t = &tables[0];
        assert!(t.len() >= 3);
        for r in 0..t.len() {
            let full: f64 = t.cell(r, 5).parse().unwrap();
            let lit: f64 = t.cell(r, 8).parse().unwrap();
            assert!(
                lit <= full + 1e-6,
                "literal mode cannot average better fairness: {lit} vs {full}"
            );
            let full_paths: f64 = t.cell(r, 3).parse().unwrap();
            let lit_paths: f64 = t.cell(r, 6).parse().unwrap();
            assert!(lit_paths <= full_paths + 1e-6);
        }
    }
}
