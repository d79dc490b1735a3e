//! The `sim_des` workload: the same `PeerNode` state machines under
//! `arm_sim::Simulation` — no wire, no runtime, no threads — so event counts
//! repeat exactly per seed and anchor the exact-count metrics.

use crate::procfs;
use crate::spec;
use crate::stats;
use arm_des::Simulator;
use arm_net::churn::ChurnParams;
use arm_sim::{ScenarioConfig, SimReport, Simulation};
use arm_util::{DetRng, SimDuration, SimTime};
use arm_workload::WorkloadConfig;
use std::time::Instant;

const CLUSTERS: usize = 16;
const PEERS_PER_CLUSTER: usize = 32;
const HORIZON_SECS: u64 = 600;

/// The scenario: 512 peers in 16 clusters for 600 simulated seconds, ten
/// requests a second, a fifth of the peers churning, default protocol.
/// `small` cuts it to 64 peers and a minute for smoke runs.
pub fn scenario(seed: u64, small: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        clusters: if small { 2 } else { CLUSTERS },
        peers_per_cluster: PEERS_PER_CLUSTER,
        horizon: SimTime::from_secs(if small { 60 } else { HORIZON_SECS }),
        workload: WorkloadConfig {
            arrival_rate: 10.0,
            ..WorkloadConfig::default()
        },
        churn: Some(ChurnParams {
            mean_uptime_secs: 300.0,
            mean_downtime_secs: 30.0,
            churning_fraction: 0.2,
            ..ChurnParams::default()
        }),
        ..ScenarioConfig::default()
    }
}

/// One simulation, timed from outside.
pub struct SimRun {
    pub seed: u64,
    pub build_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub report: SimReport,
}

impl SimRun {
    pub fn peer_sim_s_per_s(&self) -> f64 {
        (CLUSTERS * PEERS_PER_CLUSTER) as f64 * HORIZON_SECS as f64 / self.run_s
    }

    pub fn msgs_per_peer_s(&self) -> f64 {
        self.report.message_count() as f64
            / (CLUSTERS * PEERS_PER_CLUSTER * HORIZON_SECS as usize) as f64
    }

    /// What must repeat exactly when the seed repeats.
    pub fn fingerprint(&self) -> (u64, usize, usize, usize, usize, usize) {
        let o = &self.report.outcomes;
        (
            self.report.events_processed,
            self.report.submitted,
            o.on_time,
            o.late,
            o.rejected,
            o.failed,
        )
    }
}

/// Builds and runs the scenario for `seed`.
pub fn run_one(seed: u64, small: bool) -> SimRun {
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    let sim = Simulation::new(scenario(seed, small));
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sim.run();
    let run = SimRun {
        seed,
        build_s,
        run_s: t1.elapsed().as_secs_f64(),
        cpu_s: procfs::thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9,
        report,
    };
    let o = &run.report.outcomes;
    eprintln!(
        "  sim seed {seed}: {:.3} s  {} events  {} submitted: {} on time, {} late, {} rejected, {} failed",
        run.run_s, run.report.events_processed, run.report.submitted, o.on_time, o.late, o.rejected, o.failed
    );
    run
}

/// Runs seeds `seed, seed, seed+1, seed+2, ...` back to back until
/// `seconds` have passed (at least the first two). The seed is run twice so
/// that every invocation checks determinism; both runs are timing samples.
pub fn run_for(seed: u64, seconds: f64, small: bool) -> Result<Vec<SimRun>, String> {
    let started = Instant::now();
    let mut runs = vec![run_one(seed, small), run_one(seed, small)];
    if runs[0].fingerprint() != runs[1].fingerprint() {
        return Err(format!(
            "sim_des seed {seed} did not repeat: {:?} then {:?}",
            runs[0].fingerprint(),
            runs[1].fingerprint()
        ));
    }
    let mut next = seed + 1;
    while started.elapsed().as_secs_f64() < seconds {
        runs.push(run_one(next, small));
        next += 1;
    }
    Ok(runs)
}

/// Median over the runs of a per-run figure.
pub fn median_of<'a>(
    runs: impl IntoIterator<Item = &'a SimRun>,
    f: impl Fn(&SimRun) -> f64,
) -> f64 {
    stats::median(&runs.into_iter().map(f).collect::<Vec<_>>())
}

/// The quietest runs, [`spec::QUIET_WINDOWS`] of them: those that took the
/// least wall time per event (per event, because seeds differ a little in
/// how many events they make). The timing figures come from these.
pub fn quietest(runs: &[SimRun]) -> Vec<&SimRun> {
    let per_event = |r: &SimRun| r.run_s / r.report.events_processed.max(1) as f64;
    let mut by_speed: Vec<&SimRun> = runs.iter().collect();
    by_speed.sort_by(|a, b| per_event(a).total_cmp(&per_event(b)));
    by_speed.truncate(spec::QUIET_WINDOWS);
    by_speed
}

/// A quantile of a simulated-time latency summary, in milliseconds.
pub fn latency_ms(summary: &arm_util::stats::Summary, q: f64) -> f64 {
    let mut s = summary.clone();
    if s.count() == 0 {
        0.0
    } else {
        s.quantile(q) * 1e3
    }
}

/// Nanoseconds per event of a bare `Simulator` loop the size of a run:
/// `events` schedule/step pairs over a list kept `depth` deep. This is what
/// the kernel alone costs; the rest of a run is `PeerNode`, `arm-net` and
/// the harness.
pub fn kernel_ns_per_event(events: u64, depth: u64) -> f64 {
    let mut sim: Simulator<u64> = Simulator::with_capacity(depth as usize + 1);
    let mut rng = DetRng::new(1);
    for i in 0..depth {
        sim.schedule_at(SimTime::from_micros(rng.below(1_000_000)), i);
    }
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..events {
        let Some(ev) = sim.step() else { break };
        sum = sum.wrapping_add(ev.event);
        sim.schedule_in(SimDuration::from_micros(1 + rng.below(1_000_000)), ev.event);
    }
    let ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(sum);
    ns / events.max(1) as f64
}
