//! `arm` — command-line front end for the adaptive P2P resource-management
//! middleware.
//!
//! ```text
//! arm scaffold [--out scenario.json]        write a default scenario config
//! arm simulate [--config scenario.json]     run it; print a summary
//!              [--peers N]                  override the total peer count
//!              [--out report.json]          also dump the full report as JSON
//!              [--seed N]                   override the config's seed
//!              [--trace out.jsonl]          write structured trace events
//!              [--metrics out.json]         write the metrics snapshot
//! arm topology [--clusters N] [--per-cluster M] [--seed S]
//!                                           print a generated topology
//! arm experiment <e01..e14|all> [--quick]   run a reproduction experiment
//! arm cluster [--peers N] [--seed S]        live loopback TCP cluster running
//!             [--metrics out.json]          the demo workload end-to-end
//!             [--hold-secs S]               keep serving status after the demo
//!             [--addr-file path]            write "id addr" lines on boot
//!             [--state-dir DIR]             crash-safe state under DIR/node-<id>/
//! arm node --listen ADDR [--id N]           one live peer over TCP
//!          [--bootstrap ADDR] [--secs S]
//!          [--state-dir DIR]                WAL + snapshots; restart recovers
//!          [--snapshot-ms MS]               snapshot cadence (default 5000)
//! arm top --addr HOST:PORT [--iters N]      live cluster table over the wire
//!         [--json]                          machine-readable cluster view
//! arm trace --addr HOST:PORT                merge every node's trace ring
//!           [--out merged.jsonl]            into one causal JSONL timeline
//!           [--expect-chain]                fail unless a submit→terminal
//!                                           cross-node chain is complete
//! arm watch --addr HOST:PORT                live per-node sparklines of the
//!           [--metric SUBSTR]               retained series (incremental
//!           [--iters N] [--period-ms MS]    cursor scrape) + firing rules
//! arm health --addr HOST:PORT [--json]      one-shot fleet health probe;
//!                                           exits non-zero on firing rules
//! ```
//!
//! Argument parsing is deliberately dependency-free (no CLI crates in the
//! approved set); flags are `--name value` pairs.

use arm_sim::{ScenarioConfig, Simulation};
use arm_util::DetRng;
use std::collections::BTreeMap;
use std::process::ExitCode;

mod live;
mod obs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "scaffold" => scaffold(&flags),
        "simulate" => simulate(&flags),
        "topology" => topology(&flags),
        "experiment" => experiment(&args[1..]),
        "cluster" => live::cluster(&flags),
        "node" => live::node(&flags),
        "top" => obs::top(&flags),
        "trace" => obs::trace(&flags),
        "watch" => obs::watch(&flags),
        "health" => obs::health(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
arm — adaptive P2P resource-management middleware

USAGE:
  arm scaffold [--out scenario.json]
  arm simulate [--config scenario.json] [--peers N] [--out report.json] [--seed N]
               [--trace events.jsonl] [--metrics metrics.json]
  arm topology [--clusters N] [--per-cluster M] [--seed S]
  arm experiment <e01..e14|all> [--quick]
  arm cluster [--peers N] [--seed S] [--metrics out.json] [--hold-secs S] [--addr-file path]
              [--state-dir DIR] [--snapshot-ms MS]
  arm node --listen ADDR [--id N] [--bootstrap ADDR] [--secs S] [--metrics out.json]
           [--state-dir DIR] [--snapshot-ms MS] [--heartbeat-timeout-ms MS]
           (SIGTERM/Ctrl-C stop gracefully: final snapshot, links closed, exit 0;
            a crash leaves a dirty state dir that the next run recovers from)
  arm top --addr HOST:PORT [--iters N] [--period-ms MS] [--json]
  arm trace --addr HOST:PORT [--out merged.jsonl] [--expect-chain]
  arm watch --addr HOST:PORT [--metric SUBSTR] [--iters N] [--period-ms MS]
  arm health --addr HOST:PORT [--json]";

/// `--name value` pairs (a trailing flag without a value maps to "true").
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".into());
            let advanced = if value == "true" && args.get(i + 1).map(|v| v.as_str()) != Some("true")
            {
                1
            } else {
                2
            };
            flags.insert(name.to_string(), value);
            i += advanced;
        } else {
            i += 1;
        }
    }
    flags
}

fn scaffold(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("scenario.json");
    let cfg = ScenarioConfig::default();
    let json = serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote default scenario to {path}; edit and run `arm simulate --config {path}`");
    Ok(())
}

fn simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mut cfg: ScenarioConfig = match flags.get("config") {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde_json::from_str(&raw).map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => {
            // Without a config, run a demo scenario with mild churn and a
            // hot workload so the whole protocol (failover, repair,
            // admission control, reassignment) is exercised.
            let mut cfg = ScenarioConfig {
                churn: Some(arm_net::churn::ChurnParams {
                    mean_uptime_secs: 120.0,
                    mean_downtime_secs: 20.0,
                    crash_fraction: 0.7,
                    churning_fraction: 0.3,
                }),
                ..ScenarioConfig::default()
            };
            cfg.workload.arrival_rate = 3.0;
            cfg.workload.session_mean_secs = 180.0;
            // Low overload threshold: hot peers show up even in a short
            // demo run, so §4.5 reassignment visibly fires.
            cfg.protocol.overload_threshold = 0.05;
            cfg
        }
    };
    if let Some(seed) = flags.get("seed") {
        cfg.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    if let Some(peers) = flags.get("peers") {
        let peers: usize = peers.parse().map_err(|e| format!("bad --peers: {e}"))?;
        if peers == 0 {
            return Err("--peers must be positive".into());
        }
        // Spread the requested total across the configured clusters.
        cfg.peers_per_cluster = peers.div_ceil(cfg.clusters.max(1));
    }
    let telemetry = flags.contains_key("trace") || flags.contains_key("metrics");
    let peers = cfg.num_peers();
    let horizon = cfg.horizon.as_secs_f64();
    println!(
        "running {peers} peers for {horizon:.0}s of virtual time (seed {})...",
        cfg.seed
    );
    let mut sim = Simulation::new(cfg);
    if telemetry {
        sim.enable_telemetry(1 << 18);
    }
    let (report, recorder) = sim.run_traced();

    println!();
    println!("submitted            {}", report.submitted);
    println!(
        "on time / late       {} / {} (goodput {:.1}%)",
        report.outcomes.on_time,
        report.outcomes.late,
        report.outcomes.goodput() * 100.0
    );
    println!(
        "rejected / failed    {} / {}",
        report.outcomes.rejected, report.outcomes.failed
    );
    let mut resp = report.response_time.clone();
    println!(
        "response p50/p95     {:.0} ms / {:.0} ms",
        resp.quantile(0.5) * 1e3,
        resp.quantile(0.95) * 1e3
    );
    println!("mean fairness        {:.3}", report.mean_fairness());
    println!("mean utilization     {:.2}", report.mean_utilization());
    println!(
        "domains / peers      {} / {}",
        report.final_domains, report.final_peers
    );
    println!(
        "messages             {} ({:.1} MB), {} lost",
        report.message_count(),
        report.message_bytes() as f64 / 1e6,
        report.messages_lost
    );
    println!(
        "adaptation           {} repairs, {} migrations, {} promotions, {} redirects",
        report.repairs_ok + report.repairs_failed,
        report.reassignments,
        report.promotions,
        report.redirects
    );
    println!(
        "simulated in         {} ms ({} events)",
        report.wall_ms, report.events_processed
    );

    if telemetry && !report.trace_counts.is_empty() {
        println!();
        println!("trace events ({} kinds):", report.trace_counts.len());
        for (kind, count) in &report.trace_counts {
            println!("  {kind:<20} {count}");
        }
    }
    if telemetry {
        print_derived_rates(&report, &recorder.snapshot());
    }

    if let Some(out) = flags.get("trace") {
        let mut buf = Vec::new();
        recorder
            .trace
            .write_jsonl(&mut buf)
            .map_err(|e| format!("serialising trace: {e}"))?;
        std::fs::write(out, buf).map_err(|e| format!("writing {out}: {e}"))?;
        let recorded: u64 = recorder.trace.kind_counts().values().sum();
        println!(
            "trace written to {out} ({} events retained of {recorded} recorded)",
            recorder.trace.len()
        );
    }
    if let Some(out) = flags.get("metrics") {
        let json = serde_json::to_string_pretty(&recorder.snapshot()).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("metrics written to {out}");
    }
    if let Some(out) = flags.get("out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("full report written to {out}");
    }
    Ok(())
}

/// Rates derived from the raw counters: trace-ring eviction pressure and
/// per-message-kind handler latency quantiles from the profiler's
/// `handle_seconds{kind=...}` histograms.
fn print_derived_rates(report: &arm_sim::SimReport, snapshot: &arm_telemetry::MetricsSnapshot) {
    println!();
    println!("derived rates:");
    let recorded: u64 = report.trace_counts.values().sum();
    if recorded > 0 {
        println!(
            "  traces dropped       {:.2}% ({} of {recorded} evicted from the ring)",
            report.traces_dropped as f64 / recorded as f64 * 100.0,
            report.traces_dropped
        );
    }
    let prefix = format!("{}{{", arm_core::HANDLE_METRIC);
    let mut handled = false;
    for entry in &snapshot.histograms {
        let Some(rest) = entry.key.strip_prefix(&prefix) else {
            continue;
        };
        // Key renders as `handle_seconds{kind="heartbeat"}`.
        let kind = rest
            .split("kind=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or(rest);
        let (Some(p50), Some(p99)) = (
            entry.histogram.quantile(0.5),
            entry.histogram.quantile(0.99),
        ) else {
            continue;
        };
        if !handled {
            println!(
                "  handle p50/p99 (µs, {} kinds):",
                snapshot
                    .histograms
                    .iter()
                    .filter(|h| h.key.starts_with(&prefix))
                    .count()
            );
            handled = true;
        }
        println!(
            "    {kind:<18} {:>8.1} / {:>8.1}  ({} samples)",
            p50 * 1e6,
            p99 * 1e6,
            entry.histogram.total()
        );
    }
}

fn topology(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let clusters: usize = flags
        .get("clusters")
        .map(|v| v.parse().map_err(|e| format!("bad --clusters: {e}")))
        .transpose()?
        .unwrap_or(2);
    let per: usize = flags
        .get("per-cluster")
        .map(|v| v.parse().map_err(|e| format!("bad --per-cluster: {e}")))
        .transpose()?
        .unwrap_or(8);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    let mut rng = DetRng::new(seed).stream("topology");
    let topo = arm_net::Topology::clustered(
        clusters,
        per,
        0.05,
        arm_net::Heterogeneity::default(),
        &mut rng,
        0,
    );
    println!(
        "{:<6} {:<8} {:<18} {:>10} {:>10} {:>10}",
        "peer", "cluster", "coord", "capacity", "bw kbps", "stability"
    );
    for p in &topo.peers {
        println!(
            "{:<6} {:<8} ({:>6.2},{:>6.2})   {:>10.1} {:>10} {:>9.0}s",
            p.id.to_string(),
            p.cluster,
            p.coord.x,
            p.coord.y,
            p.capacity,
            p.bandwidth_kbps,
            p.stability
        );
    }
    Ok(())
}

fn experiment(args: &[String]) -> Result<(), String> {
    let Some(id) = args.first() else {
        return Err("experiment requires an id (e01..e14 or all)".into());
    };
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    arm_experiments::run_and_print(id, quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--config", "x.json", "--quick", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args);
        assert_eq!(flags["config"], "x.json");
        assert_eq!(flags["seed"], "7");
        assert_eq!(flags["quick"], "true");
    }

    #[test]
    fn scaffold_and_simulate_roundtrip() {
        let dir = std::env::temp_dir().join("arm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("scenario.json");
        let out_path = dir.join("report.json");
        let mut flags = BTreeMap::new();
        flags.insert("out".to_string(), cfg_path.to_str().unwrap().to_string());
        scaffold(&flags).unwrap();

        // Shrink the scenario so the test is fast.
        let raw = std::fs::read_to_string(&cfg_path).unwrap();
        let mut cfg: ScenarioConfig = serde_json::from_str(&raw).unwrap();
        cfg.horizon = arm_util::SimTime::from_secs(30);
        cfg.peers_per_cluster = 4;
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

        let mut flags = BTreeMap::new();
        flags.insert("config".to_string(), cfg_path.to_str().unwrap().to_string());
        flags.insert("out".to_string(), out_path.to_str().unwrap().to_string());
        flags.insert("seed".to_string(), "5".to_string());
        simulate(&flags).unwrap();
        let report: arm_sim::SimReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(report.events_processed > 0);
    }

    #[test]
    fn simulate_writes_trace_and_metrics() {
        let dir = std::env::temp_dir().join("arm-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("events.jsonl");
        let metrics_path = dir.join("metrics.json");
        // Shrunk scenario so the test is fast.
        let cfg_path = dir.join("scenario.json");
        let cfg = ScenarioConfig {
            horizon: arm_util::SimTime::from_secs(45),
            ..ScenarioConfig::default()
        };
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let mut flags = BTreeMap::new();
        flags.insert("config".to_string(), cfg_path.to_str().unwrap().to_string());
        flags.insert("peers".to_string(), "8".to_string());
        flags.insert(
            "trace".to_string(),
            trace_path.to_str().unwrap().to_string(),
        );
        flags.insert(
            "metrics".to_string(),
            metrics_path.to_str().unwrap().to_string(),
        );
        simulate(&flags).unwrap();

        let jsonl = std::fs::read_to_string(&trace_path).unwrap();
        let events = arm_telemetry::TraceLog::parse_jsonl(&jsonl).unwrap();
        assert!(!events.is_empty(), "trace JSONL has events");
        let snapshot: arm_telemetry::MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(
            snapshot
                .histograms
                .iter()
                .any(|h| h.key.starts_with("task_phase_seconds")),
            "metrics snapshot has per-phase latency histograms"
        );
    }

    #[test]
    fn topology_runs() {
        let mut flags = BTreeMap::new();
        flags.insert("clusters".to_string(), "2".to_string());
        flags.insert("per-cluster".to_string(), "3".to_string());
        topology(&flags).unwrap();
    }

    #[test]
    fn unknown_experiment_errors() {
        let args = vec!["e99".to_string()];
        assert!(experiment(&args).is_err());
    }
}
