//! Tracing-overhead smoke benchmark.
//!
//! Runs two pinned simulation workloads — a DES-flavoured protocol mix and
//! a gossip-heavy multi-domain mix — twice each: once with the causal
//! tracing plane (recorder, span tracker, handler profiler) disabled and
//! once enabled. Writes the results to `BENCH_obs.json` and enforces two
//! contracts:
//!
//! * **Overhead gate**: the traced run must stay within 5% of the
//!   untraced wall time on each workload. Overhead is estimated as the
//!   median of per-pair wall-time ratios over several back-to-back
//!   (untraced, traced) pairs with alternating order — adjacent pairing
//!   cancels slow machine-speed drift that poisons cross-run minima, the
//!   median discards scheduler hiccups, and alternation cancels the
//!   allocator/page-cache advantage the second run of a pair inherits.
//!   A workload that still fails is re-measured once before failing CI
//!   (a genuine regression fails both passes).
//! * **Perturbation gate**: tracing must be purely observational — both
//!   runs must process the same number of DES events, deliver the same
//!   messages and reach identical task outcomes.
//!
//! ```text
//! obs_smoke [--out PATH]
//! ```

use arm_bench::{measure_overhead, same_outcome, Overhead, Smoke, MAX_OVERHEAD};
use arm_sim::{ScenarioConfig, SimReport, Simulation};
use serde::Serialize;
use std::time::Instant;

/// Trace-ring capacity for the traced runs (same as `arm simulate`).
const TRACE_CAPACITY: usize = 1 << 18;

#[derive(Serialize)]
struct WorkloadRow {
    workload: String,
    peers: usize,
    /// Best untraced wall time.
    off_ns: u64,
    /// Best traced wall time.
    on_ns: u64,
    /// Median over per-pair `traced/untraced - 1` ratios.
    overhead: f64,
    /// Measurement passes taken (1, or 2 after a noise retry).
    passes: u32,
    /// DES events processed (identical across both runs, asserted).
    events_processed: u64,
    /// Trace events recorded by the traced run, across all kinds.
    trace_events: u64,
    /// Events the traced run's ring evicted before export.
    traces_dropped: u64,
    /// Distinct message kinds with a `handle_seconds` profile.
    profiled_kinds: usize,
}

#[derive(Serialize)]
struct Report {
    gate: f64,
    max_overhead: f64,
    workloads: Vec<WorkloadRow>,
}

/// Protocol-heavy mix: two production-sized domains (32 peers each) under
/// sustained task load, so handlers do the allocation/composition work the
/// overhead claim is about. Tiny clusters with near-no-op handlers would
/// overstate tracing's relative cost by an order of magnitude.
fn des_workload() -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: 7,
        clusters: 2,
        peers_per_cluster: 32,
        horizon: arm_util::SimTime::from_secs(120),
        ..ScenarioConfig::default()
    };
    cfg.workload.arrival_rate = 4.0;
    cfg
}

/// Gossip-heavy mix: eight 16-peer domains on a fast gossip period, so
/// inter-RM summary exchange and bloom reconciliation dominate the
/// message mix.
fn gossip_workload() -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: 11,
        clusters: 8,
        peers_per_cluster: 16,
        horizon: arm_util::SimTime::from_secs(90),
        ..ScenarioConfig::default()
    };
    cfg.protocol.gossip_period = arm_util::SimDuration::from_secs(2);
    cfg
}

fn run_once(cfg: &ScenarioConfig, traced: bool) -> (u64, (SimReport, usize)) {
    let mut sim = Simulation::new(cfg.clone());
    if traced {
        sim.enable_telemetry(TRACE_CAPACITY);
    }
    let started = Instant::now();
    let (report, recorder) = sim.run_traced();
    let wall = started.elapsed().as_nanos() as u64;
    let profiled = recorder
        .snapshot()
        .histograms
        .iter()
        .filter(|h| h.key.starts_with(arm_core::HANDLE_METRIC))
        .count();
    (wall, (report, profiled))
}

fn run_workload(name: &str, cfg: &ScenarioConfig) -> (WorkloadRow, Vec<String>) {
    let mut failures = Vec::new();
    let Overhead {
        off_ns,
        on_ns,
        overhead,
        passes,
        off: (off_report, _),
        mut on,
    } = measure_overhead(|traced| run_once(cfg, traced));
    let (on_report, profiled_kinds) = on.pop().expect("at least one round ran");
    if !same_outcome(&off_report, &on_report) {
        failures.push(format!(
            "{name}: tracing perturbed the simulation \
             ({} vs {} events, {} vs {} messages)",
            off_report.events_processed,
            on_report.events_processed,
            off_report.message_count(),
            on_report.message_count()
        ));
    }
    let trace_events: u64 = on_report.trace_counts.values().sum();
    if trace_events == 0 {
        failures.push(format!("{name}: traced run recorded no trace events"));
    }
    if profiled_kinds == 0 {
        failures.push(format!("{name}: traced run profiled no handler kinds"));
    }
    if overhead > MAX_OVERHEAD {
        failures.push(format!(
            "{name}: tracing overhead {:+.2}% above the {:.0}% gate \
             (best untraced {off_ns} ns, best traced {on_ns} ns)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }
    let row = WorkloadRow {
        workload: name.to_string(),
        peers: cfg.num_peers(),
        off_ns,
        on_ns,
        overhead,
        passes,
        events_processed: on_report.events_processed,
        trace_events,
        traces_dropped: on_report.traces_dropped,
        profiled_kinds,
    };
    println!(
        "{name:>8}: off {:>9} µs  on {:>9} µs  ({:+.2}%)  {} events, {} traced, {} kinds profiled",
        off_ns / 1_000,
        on_ns / 1_000,
        overhead * 100.0,
        row.events_processed,
        row.trace_events,
        row.profiled_kinds
    );
    (row, failures)
}

fn main() {
    let smoke = Smoke::from_args("BENCH_obs.json", false);

    let mut workloads = Vec::new();
    let mut failures = Vec::new();
    for (name, cfg) in [("des", des_workload()), ("gossip", gossip_workload())] {
        let (row, fails) = run_workload(name, &cfg);
        workloads.push(row);
        failures.extend(fails);
    }

    let report = Report {
        gate: MAX_OVERHEAD,
        max_overhead: workloads
            .iter()
            .map(|w| w.overhead)
            .fold(f64::NEG_INFINITY, f64::max),
        workloads,
    };
    smoke.finish(&report, &failures);
}
