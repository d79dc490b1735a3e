//! Allocator smoke benchmark.
//!
//! Runs the pinned domain scenarios from the `alloc` bench group once with
//! wall-clock timing, verifies the answer-identity and search-efficiency
//! contracts of the branch-and-bound search, and writes the results to
//! `BENCH_alloc.json` (wall time *and* explored-prefix counters, unlike
//! the criterion export which only has wall time).
//!
//! ```text
//! alloc_smoke [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline`, the run exits non-zero if `explored_bnb` for the
//! pinned 64-peer / branching-4 scenario, or for either idle 32-peer
//! domain only the symmetry rule prunes (one capacity, or the log-normal
//! capacities `sim_des` boots), regressed more than 10% against the
//! committed baseline. Explored-prefix counts are
//! deterministic, so this gate is immune to CI timing noise.
//!
//! The run also fails if the pinned scenario stops meeting the acceptance
//! floors, both exhaustive vs the branch-and-bound search production runs:
//! >= 5x explored-prefix reduction and >= 3x wall-clock speedup.

use arm_bench::{
    domain_problem, idle_heterogeneous_problem, idle_homogeneous_problem,
    loaded_heterogeneous_problem, Smoke,
};
use arm_model::alloc::{
    AllocParams, Allocation, AllocatorKind, ExplorationMode, FairnessAllocator,
};
use arm_model::{PeerView, QosSpec, ResourceGraph, StateId};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Pinned scenario: the acceptance-criteria domain.
const PINNED: &str = "p64_b4";
/// Cold start: a fresh homogeneous 32-peer domain, every load 0.
const IDLE_HOMOG: &str = "p32_idle_homog";
/// Cold start of the domain `sim_des` forms: 32 idle peers, log-normal
/// capacities and bandwidths, three ladder steps each.
const IDLE_HET: &str = "p32_idle_het";
/// The same domain loaded as `sim_des` runs it mid-way: about 19 distinct
/// loads among 32, Jain's index about 0.88.
const LOADED_HET: &str = "p32_loaded_het";
/// Maximum tolerated growth of a gated `explored_bnb` vs baseline.
const REGRESSION_SLACK: f64 = 1.10;
/// Acceptance floor: exhaustive/bnb explored-prefix ratio at the pin.
const MIN_EXPLORED_RATIO: f64 = 5.0;
/// Acceptance floor: exhaustive_ns / bnb_ns at the pin.
const MIN_SPEEDUP: f64 = 3.0;

#[derive(Serialize)]
struct ScenarioRow {
    scenario: String,
    peers: usize,
    branching: usize,
    explored_exhaustive: u64,
    explored_bnb: u64,
    pruned_bound: u64,
    pruned_dominated: u64,
    /// explored_exhaustive / explored_bnb.
    explored_ratio: f64,
    exhaustive_ns: u64,
    bnb_ns: u64,
    /// exhaustive_ns / bnb_ns.
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    pinned_scenario: String,
    pinned_explored_ratio: f64,
    pinned_speedup: f64,
    scenarios: Vec<ScenarioRow>,
}

fn allocator(mode: ExplorationMode) -> FairnessAllocator {
    FairnessAllocator {
        params: AllocParams {
            mode,
            max_explored: 2_000_000,
            ..AllocParams::default()
        },
        kind: AllocatorKind::MaxFairness,
    }
}

/// Times `f` over a small fixed budget and returns (mean ns, last result).
fn time_ns<T>(mut f: impl FnMut() -> T) -> (u64, T) {
    let mut out = f(); // warmup
    let budget = Duration::from_millis(120);
    let start = Instant::now();
    let mut iters: u32 = 0;
    while iters < 3 || (start.elapsed() < budget && iters < 2_000) {
        out = f();
        iters += 1;
    }
    ((start.elapsed().as_nanos() / u128::from(iters)) as u64, out)
}

fn assert_identical(scenario: &str, a: &Allocation, b: &Allocation) {
    assert_eq!(a.path, b.path, "{scenario}: paths differ");
    assert_eq!(
        a.fairness.to_bits(),
        b.fairness.to_bits(),
        "{scenario}: fairness differs"
    );
    assert_eq!(a.est_response, b.est_response, "{scenario}: est differs");
    assert_eq!(a.load_deltas, b.load_deltas, "{scenario}: deltas differ");
}

fn run_scenario(
    scenario: String,
    branching: usize,
    (gr, view, init, goal, qos): (ResourceGraph, PeerView, StateId, StateId, QosSpec),
) -> ScenarioRow {
    let exhaustive = allocator(ExplorationMode::AllSimplePaths);
    let bnb = allocator(ExplorationMode::BranchAndBound);

    let (exhaustive_ns, full) = time_ns(|| {
        exhaustive
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .expect("exhaustive allocation succeeds")
    });
    let (bnb_ns, pruned) = time_ns(|| {
        bnb.allocate(&gr, &view, init, &[goal], &qos, None)
            .expect("bnb allocation succeeds")
    });
    assert_identical(&scenario, &full, &pruned);
    assert!(!full.truncated, "{scenario}: exhaustive search truncated");

    let explored_exhaustive = full.stats.explored_prefixes;
    let explored_bnb = pruned.stats.explored_prefixes;
    ScenarioRow {
        scenario,
        peers: view.len(),
        branching,
        explored_exhaustive,
        explored_bnb,
        pruned_bound: pruned.stats.pruned_bound,
        pruned_dominated: pruned.stats.pruned_dominated,
        explored_ratio: explored_exhaustive as f64 / explored_bnb.max(1) as f64,
        exhaustive_ns,
        bnb_ns,
        speedup: exhaustive_ns as f64 / bnb_ns.max(1) as f64,
    }
}

fn main() {
    let smoke = Smoke::from_args("BENCH_alloc.json", true);

    let shapes: &[(usize, usize)] = &[(16, 4), (64, 4), (64, 6), (256, 4)];
    let scenarios: Vec<ScenarioRow> = shapes
        .iter()
        .map(|&(p, b)| run_scenario(format!("p{p}_b{b}"), b, domain_problem(p, b, 7)))
        // Ladder branching: a rung converts to the next one or skips one.
        .chain([
            run_scenario(IDLE_HOMOG.to_string(), 2, idle_homogeneous_problem(32, 4)),
            run_scenario(IDLE_HET.to_string(), 2, idle_heterogeneous_problem()),
            run_scenario(LOADED_HET.to_string(), 2, loaded_heterogeneous_problem()),
        ])
        .inspect(|row| {
            println!(
                "{:>14}: explored {:>6} -> {:>5} ({:>5.1}x)  wall {:>9}ns -> {:>8}ns ({:.1}x)",
                row.scenario,
                row.explored_exhaustive,
                row.explored_bnb,
                row.explored_ratio,
                row.exhaustive_ns,
                row.bnb_ns,
                row.speedup,
            );
        })
        .collect();

    let pinned = scenarios
        .iter()
        .find(|s| s.scenario == PINNED)
        .expect("pinned scenario present");
    let report = Report {
        pinned_scenario: PINNED.to_string(),
        pinned_explored_ratio: pinned.explored_ratio,
        pinned_speedup: pinned.speedup,
        scenarios,
    };

    let mut failures = Vec::new();
    if report.pinned_explored_ratio < MIN_EXPLORED_RATIO {
        failures.push(format!(
            "pinned explored ratio {:.2}x below the {MIN_EXPLORED_RATIO}x floor",
            report.pinned_explored_ratio
        ));
    }
    if report.pinned_speedup < MIN_SPEEDUP {
        failures.push(format!(
            "pinned speedup {:.2}x below the {MIN_SPEEDUP}x floor",
            report.pinned_speedup
        ));
    }

    if let Some(value) = smoke.baseline() {
        for gated in [PINNED, IDLE_HOMOG, IDLE_HET] {
            let now = report
                .scenarios
                .iter()
                .find(|s| s.scenario == gated)
                .expect("gated scenario present")
                .explored_bnb;
            let base = value
                .field("scenarios")
                .as_array()
                .and_then(|rows| {
                    rows.iter()
                        .find(|r| r.field("scenario").as_str() == Some(gated))
                })
                .and_then(|r| r.field("explored_bnb").as_u64())
                .unwrap_or_else(|| panic!("baseline has no explored_bnb for {gated}"));
            let limit = base as f64 * REGRESSION_SLACK;
            if now as f64 > limit {
                failures.push(format!(
                    "{gated} explored_bnb {now} regressed >10% vs baseline {base}"
                ));
            } else {
                println!(
                    "baseline: {gated} explored_bnb {now} vs committed {base} (limit {limit:.0}) OK"
                );
            }
        }
    }

    smoke.finish(&report, &failures);
}
