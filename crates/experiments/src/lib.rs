//! Experiment harness: regenerates every figure of the paper and every
//! quantitative claim's synthetic experiment (DESIGN.md §5, E1–E12).
//!
//! Each experiment lives in its own module with a `run(quick) -> Vec<Table>`
//! entry point, is listed once in the `EXPERIMENTS` table, and has a binary
//! (`src/bin/eNN_*.rs`) that prints the tables recorded in EXPERIMENTS.md.
//! `quick` shrinks sweep sizes for CI; the recorded tables use
//! `quick = false`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod e01_figure1;
pub mod e02_figure2;
pub mod e03_alloc_scaling;
pub mod e04_fairness;
pub mod e05_scalability;
pub mod e06_heterogeneity;
pub mod e07_churn;
pub mod e08_scheduling;
pub mod e09_admission;
pub mod e10_update_period;
pub mod e11_reassignment;
pub mod e12_gossip;
pub mod e13_loss;
pub mod e14_domain_size;

mod table;

pub use table::Table;

use arm_sim::ScenarioConfig;
use arm_util::{SimDuration, SimTime};

/// An experiment's entry point; the flag is `quick`.
type Run = fn(bool) -> Vec<Table>;

/// Every experiment as `(id, title, run)`, in EXPERIMENTS.md order: the
/// one list `arm experiment`, `run_all` and the per-experiment binaries
/// dispatch through.
const EXPERIMENTS: &[(&str, &str, Run)] = &[
    (
        "e01",
        "Figure 1: resource graph and produced service graph",
        e01_figure1::run,
    ),
    (
        "e02",
        "Figure 2: task assignment walkthrough",
        e02_figure2::run,
    ),
    (
        "e03",
        "Figure 3: allocation algorithm cost and exploration ablation",
        e03_alloc_scaling::run,
    ),
    (
        "e04",
        "Load-balancing fairness vs baseline allocators",
        e04_fairness::run,
    ),
    (
        "e05",
        "Scalability with the number of peers",
        e05_scalability::run,
    ),
    (
        "e06",
        "Heterogeneous peer capacities",
        e06_heterogeneity::run,
    ),
    ("e07", "Churn, failover and session repair", e07_churn::run),
    (
        "e08",
        "Local scheduling: LLS vs EDF/FIFO/SJF/IMP",
        e08_scheduling::run,
    ),
    (
        "e09",
        "Admission control and Bloom-guided redirection",
        e09_admission::run,
    ),
    (
        "e10",
        "Load-report period trade-off",
        e10_update_period::run,
    ),
    (
        "e11",
        "Adaptive session reassignment",
        e11_reassignment::run,
    ),
    (
        "e12",
        "Gossip convergence of inter-domain summaries",
        e12_gossip::run,
    ),
    ("e13", "Message-loss resilience (extension)", e13_loss::run),
    (
        "e14",
        "Domain granularity (extension)",
        e14_domain_size::run,
    ),
];

/// Runs experiment `id` — or every one, for `"all"` — and prints a header
/// plus each table as markdown. `quick` shrinks the sweeps.
pub fn run_and_print(id: &str, quick: bool) -> Result<(), String> {
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(eid, ..)| id == "all" || *eid == id)
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown experiment '{id}' (e01..e14 or all)"));
    }
    for (eid, title, run) in selected {
        println!("## {eid} — {title}\n");
        for t in run(quick) {
            t.print_markdown();
            println!();
        }
    }
    Ok(())
}

/// `main` of the experiment binaries: [`run_and_print`] with `--quick`
/// (or `-q`) read from the command line.
pub fn bin_main(id: &str) {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    if let Err(e) = run_and_print(id, quick) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// The baseline scenario shared by the simulation experiments: 2 clusters
/// × 16 peers, 300 virtual seconds, moderate load. Individual experiments
/// override single knobs.
pub fn base_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        clusters: 2,
        peers_per_cluster: 16,
        horizon: SimTime::from_secs(300),
        warmup: SimDuration::from_secs(5),
        workload: arm_workload::WorkloadConfig {
            arrival_rate: 1.0,
            session_mean_secs: 45.0,
            ..arm_workload::WorkloadConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
