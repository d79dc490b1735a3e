//! The branch-and-bound search production runs returns the exhaustive
//! search's allocation bit for bit on the domains `sim_des` forms: unequal
//! capacities and bandwidths from `arm_net`'s topology generator,
//! transcoders from `arm_workload`'s inventory generator, and loads that
//! tie — all idle, or whole multiples of one transcoder's work.

use arm_bench::sim_domain;
use arm_core::ProtocolConfig;
use arm_model::alloc::{AllocatorKind, ExplorationMode, FairnessAllocator};
use arm_model::QosSpec;
use arm_util::{DetRng, SimDuration};

#[test]
fn bnb_identical_on_simulated_domains() {
    let production = ProtocolConfig::default().alloc_params;
    assert_eq!(production.mode, ExplorationMode::BranchAndBound);
    let bnb = FairnessAllocator {
        params: production,
        kind: AllocatorKind::MaxFairness,
    };
    let mut exhaustive = bnb.clone();
    exhaustive.params.mode = ExplorationMode::AllSimplePaths;

    let mut skipped = 0;
    for seed in 0..500 {
        let mut rng = DetRng::new(seed).stream("request");
        let (gr, mut view, rungs) = sim_domain(8 + rng.index(25), seed);
        if seed % 2 == 1 {
            // Quantised loads: 0, 1 or 2 sessions' worth of one transcoder.
            let quantum = gr.edges().map(|e| e.cost.work_per_sec).fold(0.0, f64::max);
            let ids: Vec<_> = view.ids().collect();
            for id in ids {
                if let Some(info) = view.get_mut(id) {
                    let load = quantum * rng.index(3) as f64;
                    if load < info.capacity {
                        info.load = load;
                    }
                }
            }
        }
        // Requests start at the top rung present and end at any lower one.
        let init = rungs[0];
        let goal = rungs[1 + rng.index(rungs.len() - 1)];
        // Deadlines log-uniform from 50 ms, where setup on a slow peer
        // binds, up to the workload's 8 s.
        let deadline = rng.uniform(0.05f64.ln(), 8f64.ln()).exp();
        let qos = QosSpec::with_deadline(SimDuration::from_secs_f64(deadline));
        let full = exhaustive.allocate(&gr, &view, init, &[goal], &qos, None);
        let pruned = bnb.allocate(&gr, &view, init, &[goal], &qos, None);
        match (&full, &pruned) {
            (Ok(f), Ok(b)) => {
                assert!(!f.truncated, "seed {seed}: exhaustive search truncated");
                assert_eq!(f.path, b.path, "seed {seed}: paths differ");
                assert_eq!(f.fairness.to_bits(), b.fairness.to_bits(), "seed {seed}");
                assert_eq!(f.est_response, b.est_response, "seed {seed}");
                assert_eq!(f.load_deltas, b.load_deltas, "seed {seed}");
                skipped += b.stats.pruned_dominated;
            }
            (Err(f), Err(b)) => assert_eq!(
                std::mem::discriminant(f),
                std::mem::discriminant(b),
                "seed {seed}"
            ),
            (f, b) => panic!("seed {seed}: {f:?} vs {b:?}"),
        }
    }
    assert!(skipped > 0, "the symmetry rule never fired");
}
