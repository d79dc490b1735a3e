//! Data-parallel scenario sweeps.
//!
//! Experiments compare many independent scenario runs (allocators × rates
//! × seeds). Each run is single-threaded and deterministic, so a sweep is
//! embarrassingly parallel: [`run_parallel`] fans the configurations out
//! over a bounded pool of OS threads (scoped — no `'static` bounds, no
//! leaked threads) and returns reports in input order.

use crate::{ScenarioConfig, SimReport, Simulation};
use arm_model::alloc::{AllocError, Allocation, FairnessAllocator};
use arm_model::{PeerView, QosSpec, ResourceGraph, StateId};

/// Runs every scenario, using up to `threads` worker threads (0 = one per
/// available CPU, capped at the number of scenarios). Results come back in
/// the same order as the input; determinism per scenario is unaffected by
/// the parallelism.
pub fn run_parallel(configs: Vec<ScenarioConfig>, threads: usize) -> Vec<SimReport> {
    map_parallel(&configs, threads, |cfg| Simulation::new(cfg.clone()).run())
}

/// Applies `run` to every job on up to `threads` scoped worker threads
/// (0 = one per available CPU, capped at the job count): work-stealing by
/// atomic index, slots keyed by input position so output order is the
/// input order whatever the interleaving.
fn map_parallel<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    run: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n)
    .max(1);

    if workers == 1 {
        return jobs.iter().map(run).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slot_refs: Vec<crate::sync::Lock<&mut Option<R>>> = slots
        .iter_mut()
        .map(|s| crate::sync::mutex("parallel.slot", s))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run(&jobs[i]);
                **slot_refs[i].lock() = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// One independent allocation request for [`allocate_batch`]: a domain's
/// resource graph and load view plus the request shape. Domains are
/// disjoint, so a batch of these is embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct AllocJob<'a> {
    /// The domain's resource graph.
    pub graph: &'a ResourceGraph,
    /// The domain's peer load view.
    pub view: &'a PeerView,
    /// Initial application state.
    pub init: StateId,
    /// Acceptable goal states.
    pub goals: &'a [StateId],
    /// The task's QoS requirements.
    pub qos: &'a QosSpec,
}

/// Runs one allocation per job over up to `threads` scoped worker threads
/// (0 = one per available CPU, capped at the job count) and returns the
/// results **in input order** — the same results, bit for bit, as calling
/// [`FairnessAllocator::allocate`] on each job sequentially, because every
/// job is a pure function of its own inputs.
///
/// No RNG crosses threads: a [`arm_model::AllocatorKind::Random`] allocator
/// deterministically degrades to its documented no-RNG fallback (first
/// feasible candidate). Use the sequential API when per-job RNG draws
/// matter.
pub fn allocate_batch(
    allocator: &FairnessAllocator,
    jobs: &[AllocJob<'_>],
    threads: usize,
) -> Vec<Result<Allocation, AllocError>> {
    map_parallel(jobs, threads, |j| {
        allocator.allocate(j.graph, j.view, j.init, j.goals, j.qos, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::{SimDuration, SimTime};

    fn scenario(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed,
            clusters: 1,
            peers_per_cluster: 6,
            horizon: SimTime::from_secs(40),
            warmup: SimDuration::from_secs(5),
            ..ScenarioConfig::default()
        };
        cfg.workload.arrival_rate = 0.4;
        cfg
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<ScenarioConfig> = (1..=6).map(scenario).collect();
        let seq = run_parallel(configs.clone(), 1);
        let par = run_parallel(configs, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                a.outcomes, b.outcomes,
                "parallelism must not change results"
            );
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.message_count(), b.message_count());
        }
    }

    #[test]
    fn results_in_input_order() {
        // Seeds map 1:1 to reports; distinct seeds give distinct runs.
        let configs: Vec<ScenarioConfig> = vec![scenario(10), scenario(20), scenario(10)];
        let reports = run_parallel(configs, 3);
        assert_eq!(
            reports[0].outcomes, reports[2].outcomes,
            "same seed, same slot result"
        );
        assert_eq!(reports[0].events_processed, reports[2].events_processed);
    }

    #[test]
    fn empty_and_zero_threads() {
        assert!(run_parallel(vec![], 4).is_empty());
        let r = run_parallel(vec![scenario(1)], 0);
        assert_eq!(r.len(), 1);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use arm_model::{AllocatorKind, Codec, MediaFormat, PeerInfo, Resolution, ServiceCost};
    use arm_util::{DetRng, NodeId, ServiceId, SimDuration};

    /// Builds `n` independent single-domain worlds (layered graph + loaded
    /// view) differing only by seed.
    fn domains(n: u64) -> Vec<(ResourceGraph, PeerView, StateId, StateId)> {
        (0..n)
            .map(|seed| {
                let mut rng = DetRng::new(1000 + seed);
                let mut gr = ResourceGraph::new();
                let mut fmt = 0u32;
                let mut fresh = |gr: &mut ResourceGraph| {
                    fmt += 1;
                    gr.intern_state(MediaFormat::new(
                        Codec::ALL[fmt as usize % Codec::ALL.len()],
                        Resolution::new(100 + fmt as u16, 100),
                        fmt,
                    ))
                };
                let layers = 4usize;
                let mut states: Vec<Vec<StateId>> = Vec::new();
                for li in 0..layers {
                    let w = if li == 0 || li == layers - 1 { 1 } else { 3 };
                    states.push((0..w).map(|_| fresh(&mut gr)).collect());
                }
                let mut svc = 0u64;
                for li in 0..layers - 1 {
                    for &a in &states[li] {
                        for &b in &states[li + 1] {
                            svc += 1;
                            gr.add_edge(
                                a,
                                b,
                                NodeId::new(rng.below(6)),
                                ServiceId::new(svc),
                                ServiceCost {
                                    work_per_sec: rng.uniform(1.0, 8.0),
                                    setup_work: rng.uniform(0.5, 2.0),
                                    bandwidth_kbps: 64,
                                },
                            );
                        }
                    }
                }
                let mut view = PeerView::new();
                for p in 0..6u64 {
                    let mut info = PeerInfo::idle(rng.uniform(50.0, 150.0), 100_000);
                    info.load = rng.uniform(0.0, 40.0);
                    view.upsert(NodeId::new(p), info);
                }
                let init = states[0][0];
                let goal = states[layers - 1][0];
                (gr, view, init, goal)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let worlds = domains(8);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let goals: Vec<[StateId; 1]> = worlds.iter().map(|w| [w.3]).collect();
        let jobs: Vec<AllocJob<'_>> = worlds
            .iter()
            .zip(&goals)
            .map(|(w, g)| AllocJob {
                graph: &w.0,
                view: &w.1,
                init: w.2,
                goals: g,
                qos: &qos,
            })
            .collect();
        let allocator = FairnessAllocator::paper();
        let seq = allocate_batch(&allocator, &jobs, 1);
        let par = allocate_batch(&allocator, &jobs, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.path, y.path);
                    assert_eq!(x.fairness.to_bits(), y.fairness.to_bits());
                    assert_eq!(x.est_response, y.est_response);
                    assert_eq!(x.load_deltas, y.load_deltas);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("parallel changed outcome: {x:?} vs {y:?}"),
            }
        }
        // And both match direct sequential calls.
        for (job, r) in jobs.iter().zip(&seq) {
            let direct =
                allocator.allocate(job.graph, job.view, job.init, job.goals, job.qos, None);
            assert_eq!(&direct, r);
        }
    }

    #[test]
    fn batch_supports_branch_and_bound() {
        let worlds = domains(4);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let goals: Vec<[StateId; 1]> = worlds.iter().map(|w| [w.3]).collect();
        let jobs: Vec<AllocJob<'_>> = worlds
            .iter()
            .zip(&goals)
            .map(|(w, g)| AllocJob {
                graph: &w.0,
                view: &w.1,
                init: w.2,
                goals: g,
                qos: &qos,
            })
            .collect();
        let mut bnb = FairnessAllocator::paper();
        bnb.params.mode = arm_model::ExplorationMode::BranchAndBound;
        let full = allocate_batch(&FairnessAllocator::paper(), &jobs, 0);
        let pruned = allocate_batch(&bnb, &jobs, 0);
        for (a, b) in full.iter().zip(&pruned) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.path, y.path);
                    assert_eq!(x.fairness.to_bits(), y.fairness.to_bits());
                    assert!(y.stats.explored_prefixes <= x.stats.explored_prefixes);
                }
                (Err(x), Err(y)) => {
                    assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y))
                }
                (x, y) => panic!("modes disagree: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn batch_random_without_rng_is_deterministic() {
        let worlds = domains(3);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let goals: Vec<[StateId; 1]> = worlds.iter().map(|w| [w.3]).collect();
        let jobs: Vec<AllocJob<'_>> = worlds
            .iter()
            .zip(&goals)
            .map(|(w, g)| AllocJob {
                graph: &w.0,
                view: &w.1,
                init: w.2,
                goals: g,
                qos: &qos,
            })
            .collect();
        let random = FairnessAllocator::with_kind(AllocatorKind::Random);
        let a = allocate_batch(&random, &jobs, 3);
        let b = allocate_batch(&random, &jobs, 3);
        assert_eq!(a, b, "no-RNG fallback must be reproducible");
    }

    #[test]
    fn batch_empty_is_empty() {
        let allocator = FairnessAllocator::paper();
        assert!(allocate_batch(&allocator, &[], 4).is_empty());
    }
}
