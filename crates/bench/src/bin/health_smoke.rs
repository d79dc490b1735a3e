//! Pulse-plane smoke benchmark: retained-series sampling overhead, scrape
//! cost, and health-rule evaluation latency.
//!
//! Runs a pinned protocol-heavy simulation twice per pair — once with
//! telemetry alone and once with telemetry *plus* the pulse plane (series
//! sampling + health evaluation every sample tick) — and enforces:
//!
//! * **Overhead gate**: the pulse run must stay within 5% of the
//!   telemetry-only wall time (median of per-pair ratios over alternating
//!   back-to-back pairs, retried once on noise — the same estimator as
//!   `obs_smoke`).
//! * **Perturbation gate**: pulse must be purely observational — identical
//!   DES events, messages and task outcomes either way.
//! * **Determinism gate**: two identically seeded pulse runs must retain
//!   bit-identical series (the series derive only from sim time and node
//!   state).
//!
//! It also micro-measures the scrape path on a synthetic store — encoded
//! bytes for a full-window scrape vs. the steady-state incremental poll —
//! and the latency of one standard-rules evaluation pass. Results land in
//! `BENCH_health.json`.
//!
//! ```text
//! health_smoke [--out PATH]
//! ```

use arm_bench::{measure_overhead, same_outcome, Smoke, MAX_OVERHEAD};
use arm_sim::{ScenarioConfig, SimReport, Simulation};
use arm_telemetry::{
    health::pulse_metrics, HealthEvaluator, HealthThresholds, Labels, MetricsRegistry, SeriesStore,
};
use arm_util::SimTime;
use serde::Serialize;
use std::time::Instant;

/// Trace-ring capacity (matches `arm simulate`).
const TRACE_CAPACITY: usize = 1 << 18;
/// Retained samples per series in the pulse runs.
const PULSE_CAPACITY: usize = 512;

#[derive(Serialize)]
struct WorkloadRow {
    workload: String,
    peers: usize,
    /// Best telemetry-only wall time.
    off_ns: u64,
    /// Best telemetry+pulse wall time.
    on_ns: u64,
    /// Median over per-pair `pulse/baseline - 1` ratios.
    overhead: f64,
    /// Measurement passes taken (1, or 2 after a noise retry).
    passes: u32,
    /// DES events processed (identical across both runs, asserted).
    events_processed: u64,
    /// Distinct retained series the pulse run accumulated.
    series_count: usize,
    /// Sample ticks in the retained window.
    series_ticks: usize,
    /// Two same-seed pulse runs retained bit-identical series.
    series_deterministic: bool,
}

#[derive(Serialize)]
struct ScrapeRow {
    /// Series in the synthetic store.
    series_count: usize,
    /// Ticks sampled into it.
    ticks: u64,
    /// Encoded bytes of a from-zero full-window scrape.
    full_scrape_bytes: usize,
    /// Mean encoded bytes of a steady-state one-tick incremental poll.
    incremental_bytes_per_poll: u64,
    /// Mean nanoseconds for one standard-rules evaluation pass.
    rule_eval_ns: u64,
}

#[derive(Serialize)]
struct Report {
    gate: f64,
    max_overhead: f64,
    workloads: Vec<WorkloadRow>,
    scrape: ScrapeRow,
}

/// Protocol-heavy mix sized so handlers do real allocation/composition
/// work; the pulse plane's relative cost is measured against that, not
/// against near-no-op handlers.
fn protocol_workload() -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: 7,
        clusters: 2,
        peers_per_cluster: 24,
        horizon: arm_util::SimTime::from_secs(90),
        ..ScenarioConfig::default()
    };
    cfg.workload.arrival_rate = 4.0;
    cfg
}

fn run_once(cfg: &ScenarioConfig, pulse: bool) -> (u64, SimReport) {
    let mut sim = Simulation::new(cfg.clone());
    sim.enable_telemetry(TRACE_CAPACITY);
    if pulse {
        sim.enable_pulse(PULSE_CAPACITY);
    }
    let started = Instant::now();
    let report = sim.run();
    (started.elapsed().as_nanos() as u64, report)
}

fn run_workload(name: &str, cfg: &ScenarioConfig) -> (WorkloadRow, Vec<String>) {
    let mut failures = Vec::new();
    let m = measure_overhead(|pulse| run_once(cfg, pulse));
    // Series windows from two distinct pulse runs, for the determinism gate.
    let series_json =
        |rep: &SimReport| serde_json::to_string(&rep.series).expect("series serialize");
    let (first_on, on_report) = (m.on.first())
        .zip(m.on.last())
        .expect("at least one round ran");
    if !same_outcome(&m.off, on_report) {
        failures.push(format!(
            "{name}: pulse perturbed the simulation \
             ({} vs {} events, {} vs {} messages)",
            m.off.events_processed,
            on_report.events_processed,
            m.off.message_count(),
            on_report.message_count()
        ));
    }
    let series_deterministic = series_json(first_on) == series_json(on_report);
    if !series_deterministic {
        failures.push(format!(
            "{name}: same-seed pulse runs retained different series"
        ));
    }
    if on_report.series.is_empty() {
        failures.push(format!("{name}: pulse run retained no series"));
    }
    if m.overhead > MAX_OVERHEAD {
        failures.push(format!(
            "{name}: pulse overhead {:+.2}% above the {:.0}% gate \
             (best baseline {} ns, best pulse {} ns)",
            m.overhead * 100.0,
            MAX_OVERHEAD * 100.0,
            m.off_ns,
            m.on_ns
        ));
    }
    let row = WorkloadRow {
        workload: name.to_string(),
        peers: cfg.num_peers(),
        off_ns: m.off_ns,
        on_ns: m.on_ns,
        overhead: m.overhead,
        passes: m.passes,
        events_processed: on_report.events_processed,
        series_count: on_report.series.series.len(),
        series_ticks: on_report.series.tick_count(),
        series_deterministic,
    };
    println!(
        "{name:>8}: off {:>9} µs  on {:>9} µs  ({:+.2}%)  {} series x {} ticks, deterministic: {}",
        row.off_ns / 1_000,
        row.on_ns / 1_000,
        row.overhead * 100.0,
        row.series_count,
        row.series_ticks,
        row.series_deterministic
    );
    (row, failures)
}

/// A synthetic store shaped like a busy node's registry: counters, gauges
/// (including the pulse health gauges, so every standard rule has its
/// metric) and histograms, sampled over `ticks` ticks.
fn synthetic_store(ticks: u64) -> SeriesStore {
    let mut reg = MetricsRegistry::new();
    let mut store = SeriesStore::new(PULSE_CAPACITY);
    for t in 0..ticks {
        for k in 0..8u64 {
            reg.add("msgs", Labels::kind(KINDS[k as usize]), 1 + (t + k) % 5);
        }
        for k in 0..4u64 {
            reg.set_gauge(
                "load",
                Labels::kind(KINDS[k as usize]),
                (t as f64 * 0.1 + k as f64).sin().abs() * 10.0,
            );
        }
        reg.set_gauge(pulse_metrics::HAS_RM, Labels::NONE, 1.0);
        reg.set_gauge(pulse_metrics::RM_SILENCE_SECS, Labels::NONE, 0.2);
        reg.set_gauge(pulse_metrics::GOSSIP_AGE_SECS, Labels::NONE, 1.0);
        reg.set_gauge(pulse_metrics::QUEUE_DEPTH, Labels::NONE, (t % 64) as f64);
        reg.set_gauge(
            pulse_metrics::LINK_RECONNECTS,
            Labels::NONE,
            (t / 50) as f64,
        );
        for k in 0..4u64 {
            reg.observe(
                "handle_seconds",
                Labels::kind(KINDS[k as usize]),
                &[1e-5, 1e-4, 1e-3, 1e-2, 0.1],
                1e-5 * (1 + (t + k) % 7) as f64,
            );
        }
        store.sample(SimTime::from_millis(t * 250), &reg);
    }
    store
}

const KINDS: [&str; 8] = [
    "heartbeat",
    "gossip",
    "task_query",
    "load_report",
    "join",
    "bloom",
    "promote",
    "stream",
];

fn scrape_costs() -> ScrapeRow {
    const TICKS: u64 = 512;
    let store = synthetic_store(TICKS);
    let full = store.collect_since(0);
    let full_scrape_bytes = serde_json::to_string(&full).expect("batch serialize").len();

    // Steady state: one new tick per poll. Replay the last 64 ticks as
    // individual polls and average the encoded size.
    let mut incremental_total = 0u64;
    let polls = 64u64.min(TICKS);
    for i in 0..polls {
        let cursor = full.next_cursor - polls + i;
        let batch = store.collect_since(cursor);
        incremental_total += serde_json::to_string(&batch)
            .expect("batch serialize")
            .len() as u64;
    }

    let mut evaluator = HealthEvaluator::standard(&HealthThresholds::default());
    // Warm once so edge transitions settle, then time steady-state passes.
    evaluator.evaluate(&store);
    const EVALS: u32 = 2_000;
    let started = Instant::now();
    for _ in 0..EVALS {
        evaluator.evaluate(&store);
    }
    let rule_eval_ns = (started.elapsed().as_nanos() / u128::from(EVALS)) as u64;

    ScrapeRow {
        series_count: full.series.len(),
        ticks: TICKS,
        full_scrape_bytes,
        incremental_bytes_per_poll: incremental_total / polls,
        rule_eval_ns,
    }
}

fn main() {
    let smoke = Smoke::from_args("BENCH_health.json", false);

    let mut workloads = Vec::new();
    let mut failures = Vec::new();
    let (row, fails) = run_workload("protocol", &protocol_workload());
    workloads.push(row);
    failures.extend(fails);

    let scrape = scrape_costs();
    println!(
        "  scrape: {} series x {} ticks — full {} B, steady-state {} B/poll, rule eval {} ns",
        scrape.series_count,
        scrape.ticks,
        scrape.full_scrape_bytes,
        scrape.incremental_bytes_per_poll,
        scrape.rule_eval_ns
    );
    if scrape.incremental_bytes_per_poll * 4 > scrape.full_scrape_bytes as u64 {
        failures.push(format!(
            "incremental poll ({} B) is not materially cheaper than a full scrape ({} B)",
            scrape.incremental_bytes_per_poll, scrape.full_scrape_bytes
        ));
    }

    let report = Report {
        gate: MAX_OVERHEAD,
        max_overhead: workloads
            .iter()
            .map(|w| w.overhead)
            .fold(f64::NEG_INFINITY, f64::max),
        workloads,
        scrape,
    };
    smoke.finish(&report, &failures);
}
