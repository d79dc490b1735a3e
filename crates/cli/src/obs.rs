//! `arm top` / `arm trace` / `arm watch` / `arm health`: live introspection
//! over the wire.
//!
//! All four verbs are pure observers: they speak only the
//! `StatusRequest`/`StatusReport` frames (no `Hello`, no `NodeId` of their
//! own) and discover the cluster by walking the address books the reports
//! gossip back. Seeded with one `--addr`, they reach every node any
//! reachable node knows about.
//!
//! * `arm top --addr HOST:PORT [--iters N] [--period-ms MS] [--json]` — a
//!   live refreshing cluster table: role, domain, load, active hops, open
//!   task spans, wire counters. `--json` emits the same machine-readable
//!   cluster view `arm health --json` uses.
//! * `arm trace --addr HOST:PORT [--out merged.jsonl] [--expect-chain]` —
//!   collects every node's trace ring and merges them into one
//!   causally-ordered JSONL timeline. With `--expect-chain` it fails unless
//!   the merged timeline contains a complete submit→terminal causal chain.
//! * `arm watch --addr HOST:PORT [--iters N] [--period-ms MS] [--metric S]`
//!   — live per-node sparkline table of the retained series, scraped
//!   incrementally (cursor per node; only new points cross the wire), plus
//!   each node's firing health rules.
//! * `arm health --addr HOST:PORT [--json]` — one-shot fleet health probe;
//!   exits non-zero if any reachable node has a firing rule (or nobody
//!   answers). Unreachable peers are warnings, not failures.

use arm_telemetry::{merge_timelines, write_jsonl, HealthStatus, TaskPhase, TraceEvent, TraceKind};
use arm_util::NodeId;
use arm_wire::{query_status_with, StatusReport, StatusRequest};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// Observers introduce themselves with this id (informational only).
const OBSERVER: NodeId = NodeId::new(u64::MAX);

/// Upper bound on the cluster walk, so a malicious or buggy address book
/// cannot make an observer dial forever.
const MAX_WALK: usize = 256;

fn parse_flag_u64(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: u64,
) -> Result<u64, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|e| format!("bad --{name}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// Walks the cluster from one seed address: queries it, then every address
/// its report gossips, breadth-first, deduplicating by node id. Unreachable
/// peers are skipped (reported in the returned error list), not fatal. The
/// request sent to each node comes from `request_for(addr)`, so callers can
/// thread per-node scrape cursors; each report is returned with the address
/// that produced it.
fn collect_reports_with(
    seed: &str,
    mut request_for: impl FnMut(&str) -> StatusRequest,
    timeout: Duration,
) -> (Vec<(String, StatusReport)>, Vec<String>) {
    let mut reports: BTreeMap<NodeId, (String, StatusReport)> = BTreeMap::new();
    let mut errors = Vec::new();
    let mut seen_addrs: BTreeSet<String> = BTreeSet::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    queue.push_back(seed.to_string());
    seen_addrs.insert(seed.to_string());
    while let Some(addr) = queue.pop_front() {
        if reports.len() >= MAX_WALK {
            errors.push(format!("cluster walk capped at {MAX_WALK} nodes"));
            break;
        }
        match query_status_with(&addr, request_for(&addr), timeout) {
            Ok(report) => {
                for (peer, peer_addr) in &report.peers {
                    if !reports.contains_key(peer) && seen_addrs.insert(peer_addr.clone()) {
                        queue.push_back(peer_addr.clone());
                    }
                }
                reports.insert(report.node, (addr, report));
            }
            Err(e) => errors.push(format!("{addr}: {e}")),
        }
    }
    (reports.into_values().collect(), errors)
}

fn collect_reports(
    seed: &str,
    include_trace: bool,
    timeout: Duration,
) -> (Vec<StatusReport>, Vec<String>) {
    let request = StatusRequest {
        observer: OBSERVER,
        include_trace,
        series_cursor: None,
    };
    let (reports, errors) = collect_reports_with(seed, |_| request, timeout);
    (reports.into_iter().map(|(_, r)| r).collect(), errors)
}

/// One machine-readable cluster snapshot, shared verbatim by `arm top
/// --json` and `arm health --json` so scripts parse a single shape.
#[derive(Debug, Serialize)]
struct ClusterView {
    /// True when any reachable node has a firing health rule.
    firing: bool,
    nodes: Vec<NodeView>,
    /// Addresses that did not answer, with the error.
    unreachable: Vec<String>,
}

#[derive(Debug, Serialize)]
struct NodeView {
    node: u64,
    role: String,
    domain: Option<u64>,
    rm: Option<u64>,
    load: f64,
    active_hops: u64,
    open_spans: u64,
    sessions: Option<u64>,
    msgs_in: u64,
    msgs_out: u64,
    traces_dropped: u64,
    /// Every health rule the node evaluates, firing or not. Empty on
    /// nodes without the pulse plane.
    health: Vec<HealthStatus>,
}

fn cluster_view(reports: &[StatusReport], errors: &[String]) -> ClusterView {
    ClusterView {
        firing: reports.iter().any(|r| r.health.iter().any(|h| h.firing)),
        nodes: reports
            .iter()
            .map(|r| NodeView {
                node: r.node.raw(),
                role: r.role.clone(),
                domain: r.domain.map(|d| d.raw()),
                rm: r.rm.map(|n| n.raw()),
                load: r.load,
                active_hops: r.active_hops,
                open_spans: r.open_spans,
                sessions: r.sessions,
                msgs_in: r.transport.msgs_in(),
                msgs_out: r.transport.msgs_out(),
                traces_dropped: r.traces_dropped,
                health: r.health.clone(),
            })
            .collect(),
        unreachable: errors.to_vec(),
    }
}

fn render_table(reports: &[StatusReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<8} {:<8} {:<6} {:>8} {:>6} {:>6} {:>7} {:>10} {:>10} {:>8}\n",
        "node",
        "role",
        "domain",
        "rm",
        "load",
        "hops",
        "spans",
        "sess",
        "msgs in",
        "msgs out",
        "dropped"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<6} {:<8} {:<8} {:<6} {:>8.1} {:>6} {:>6} {:>7} {:>10} {:>10} {:>8}\n",
            r.node.to_string(),
            r.role,
            r.domain
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            r.rm.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
            r.load,
            r.active_hops,
            r.open_spans,
            r.sessions
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            r.transport.msgs_in(),
            r.transport.msgs_out(),
            r.traces_dropped,
        ));
    }
    out
}

/// `arm top --addr HOST:PORT [--iters N] [--period-ms MS] [--json]`.
pub fn top(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let Some(addr) = flags.get("addr") else {
        return Err("top requires --addr HOST:PORT".into());
    };
    let json = flags.contains_key("json");
    // JSON defaults to one shot (a stream of documents is rarely wanted);
    // an explicit --iters still wins.
    let iters = parse_flag_u64(flags, "iters", if json { 1 } else { 0 })?; // 0 = forever
    let period = Duration::from_millis(parse_flag_u64(flags, "period-ms", 1000)?);
    let timeout = Duration::from_millis(parse_flag_u64(flags, "timeout-ms", 2000)?);
    let mut round: u64 = 0;
    loop {
        round += 1;
        let (reports, errors) = collect_reports(addr, false, timeout);
        if reports.is_empty() {
            return Err(format!(
                "no node answered a status request: {}",
                errors.join("; ")
            ));
        }
        if json {
            let view = cluster_view(&reports, &errors);
            println!(
                "{}",
                serde_json::to_string_pretty(&view).map_err(|e| e.to_string())?
            );
        } else {
            // Repaint in place on refresh; plain append on a single shot so
            // the output stays pipeable.
            if iters != 1 && round > 1 {
                print!("\x1b[2J\x1b[H");
            }
            let rms = reports.iter().filter(|r| r.role == "rm").count();
            println!(
                "arm top — {} nodes, {} domains (round {round})",
                reports.len(),
                rms
            );
            print!("{}", render_table(&reports));
            for e in &errors {
                println!("unreachable: {e}");
            }
        }
        if iters != 0 && round >= iters {
            return Ok(());
        }
        std::thread::sleep(period);
    }
}

/// `arm health --addr HOST:PORT [--json]`: one-shot fleet health probe.
///
/// Walks the cluster, prints every node's rule evaluations, and errors
/// (non-zero exit) when any reachable node has a firing rule — so the verb
/// slots directly into scripts and CI gates. Unreachable peers are
/// reported but do not fail the probe; a cluster where *nobody* answers
/// does.
pub fn health(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let Some(addr) = flags.get("addr") else {
        return Err("health requires --addr HOST:PORT".into());
    };
    let timeout = Duration::from_millis(parse_flag_u64(flags, "timeout-ms", 2000)?);
    let (reports, errors) = collect_reports(addr, false, timeout);
    if reports.is_empty() {
        return Err(format!(
            "no node answered a status request: {}",
            errors.join("; ")
        ));
    }
    let view = cluster_view(&reports, &errors);
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&view).map_err(|e| e.to_string())?
        );
    } else {
        for node in &view.nodes {
            let verdict = if node.health.is_empty() {
                "no pulse".to_string()
            } else if node.health.iter().any(|h| h.firing) {
                "UNHEALTHY".to_string()
            } else {
                format!("ok ({} rules quiet)", node.health.len())
            };
            println!("node n{:<4} {:<8} {verdict}", node.node, node.role);
            for h in node.health.iter().filter(|h| h.firing) {
                println!(
                    "  {:<16} {} (value {:.2}, threshold {:.2})",
                    h.rule, h.reason, h.value, h.threshold
                );
            }
        }
        for e in &errors {
            println!("unreachable: {e}");
        }
    }
    if view.firing {
        let firing: Vec<String> = view
            .nodes
            .iter()
            .flat_map(|n| {
                n.health
                    .iter()
                    .filter(|h| h.firing)
                    .map(move |h| format!("n{}:{}", n.node, h.rule))
            })
            .collect();
        return Err(format!("health rules firing: {}", firing.join(", ")));
    }
    Ok(())
}

/// Points a sparkline row keeps (also caps what one poll can append).
const WATCH_WINDOW: usize = 32;

/// Renders `points` as a unicode sparkline, scaled to the window's own
/// min/max (a flat series renders as a low bar, not noise).
fn sparkline(points: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = points.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    points
        .iter()
        .map(|v| {
            if !v.is_finite() {
                '?'
            } else if max <= min {
                BARS[0]
            } else {
                let t = (v - min) / (max - min);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// `arm watch --addr HOST:PORT [--iters N] [--period-ms MS] [--metric S]`.
///
/// Polls the cluster's retained series incrementally: each node is asked
/// for everything after the cursor its previous answer returned, so steady
/// state ships only the new points. Rows are `(node, series)` sparklines
/// over the last [`WATCH_WINDOW`] samples; nodes with firing health rules
/// are flagged inline.
pub fn watch(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let Some(addr) = flags.get("addr") else {
        return Err("watch requires --addr HOST:PORT".into());
    };
    let iters = parse_flag_u64(flags, "iters", 0)?; // 0 = forever
    let period = Duration::from_millis(parse_flag_u64(flags, "period-ms", 1000)?);
    let timeout = Duration::from_millis(parse_flag_u64(flags, "timeout-ms", 2000)?);
    // Default to the pulse gauges — the fleet-health signals — rather than
    // every registered metric (a live node's registry is large).
    let filter = flags
        .get("metric")
        .cloned()
        .unwrap_or_else(|| "pulse_".into());

    let mut cursors: BTreeMap<String, u64> = BTreeMap::new();
    let mut history: BTreeMap<(NodeId, String), VecDeque<f64>> = BTreeMap::new();
    let mut round: u64 = 0;
    loop {
        round += 1;
        let (reports, errors) = collect_reports_with(
            addr,
            |a| StatusRequest {
                observer: OBSERVER,
                include_trace: false,
                series_cursor: Some(cursors.get(a).copied().unwrap_or(0)),
            },
            timeout,
        );
        if reports.is_empty() {
            return Err(format!(
                "no node answered a status request: {}",
                errors.join("; ")
            ));
        }
        for (from_addr, report) in &reports {
            if !report.series.is_empty() || report.series.next_cursor > 0 {
                cursors.insert(from_addr.clone(), report.series.next_cursor);
            }
            for slice in &report.series.series {
                if !slice.key.contains(filter.as_str()) {
                    continue;
                }
                let row = history
                    .entry((report.node, format!("{} {}", slice.key, slice.kind)))
                    .or_default();
                for (_, p) in slice.points() {
                    if row.len() == WATCH_WINDOW {
                        row.pop_front();
                    }
                    row.push_back(p);
                }
            }
        }
        if round > 1 {
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "arm watch — {} nodes, {} series (round {round}, every {}ms, filter '{filter}')",
            reports.len(),
            history.len(),
            period.as_millis()
        );
        for (_, report) in &reports {
            let firing: Vec<&str> = report
                .health
                .iter()
                .filter(|h| h.firing)
                .map(|h| h.rule.as_str())
                .collect();
            let flag = if firing.is_empty() {
                String::new()
            } else {
                format!("  !! {}", firing.join(", "))
            };
            println!(
                "node {:<4} {:<8}{flag}",
                report.node.to_string(),
                report.role
            );
            for ((node, key), row) in &history {
                if *node != report.node || row.is_empty() {
                    continue;
                }
                let points: Vec<f64> = row.iter().copied().collect();
                println!(
                    "  {:<44} {} {:>12.2}",
                    key,
                    sparkline(&points),
                    points.last().copied().unwrap_or(0.0)
                );
            }
        }
        for e in &errors {
            println!("unreachable: {e}");
        }
        if iters != 0 && round >= iters {
            return Ok(());
        }
        std::thread::sleep(period);
    }
}

/// Verifies the merged timeline contains at least one complete causal
/// chain: a trace whose events include a `Submit` and a `Terminal` task
/// phase, whose every parent span resolves within the same trace, and
/// which crosses at least two peers. Returns a description of the best
/// chain, or an error naming what was missing.
fn verify_chain(events: &[TraceEvent]) -> Result<String, String> {
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.trace_id != 0) {
        by_trace.entry(ev.trace_id).or_default().push(ev);
    }
    if by_trace.is_empty() {
        return Err("no causally-tagged events in the merged timeline".into());
    }
    let mut best_failure = String::from("no trace carries a submit phase");
    for (trace, evs) in &by_trace {
        let has_submit = evs.iter().any(|e| {
            matches!(
                e.kind,
                TraceKind::TaskPhase {
                    phase: TaskPhase::Submit,
                    ..
                }
            )
        });
        if !has_submit {
            continue;
        }
        let has_terminal = evs.iter().any(|e| {
            matches!(
                e.kind,
                TraceKind::TaskPhase {
                    phase: TaskPhase::Terminal,
                    ..
                }
            )
        });
        if !has_terminal {
            best_failure = format!("trace {trace:#x} has a submit but no terminal phase");
            continue;
        }
        let spans: BTreeSet<u64> = evs.iter().map(|e| e.span).collect();
        if let Some(orphan) = evs
            .iter()
            .find(|e| e.parent != 0 && !spans.contains(&e.parent))
        {
            best_failure = format!(
                "trace {trace:#x}: span {:#x} has unresolvable parent {:#x}",
                orphan.span, orphan.parent
            );
            continue;
        }
        let peers: BTreeSet<NodeId> = evs.iter().map(|e| e.peer).collect();
        if peers.len() < 2 {
            best_failure = format!("trace {trace:#x} never crossed a node boundary");
            continue;
        }
        return Ok(format!(
            "trace {trace:#x}: {} events across {} nodes, submit→terminal chain complete",
            evs.len(),
            peers.len()
        ));
    }
    Err(best_failure)
}

/// `arm trace --addr HOST:PORT [--out merged.jsonl] [--expect-chain]`.
pub fn trace(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let Some(addr) = flags.get("addr") else {
        return Err("trace requires --addr HOST:PORT".into());
    };
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("merged.jsonl");
    let timeout = Duration::from_millis(parse_flag_u64(flags, "timeout-ms", 2000)?);
    let (mut reports, errors) = collect_reports(addr, true, timeout);
    if reports.is_empty() {
        return Err(format!(
            "no node answered a status request: {}",
            errors.join("; ")
        ));
    }
    // Each node's ring is already time-ordered, so the rings k-way merge
    // in one streaming pass instead of a full re-sort of the concatenation.
    let mut rings = Vec::with_capacity(reports.len());
    let mut dropped_total: u64 = 0;
    for r in &mut reports {
        let ring = r.trace.take().unwrap_or_default();
        println!(
            "node {:<4} ring {:>6} events, {} dropped",
            r.node.to_string(),
            ring.len(),
            r.traces_dropped
        );
        dropped_total += r.traces_dropped;
        rings.push(ring);
    }
    for e in &errors {
        println!("unreachable: {e}");
    }
    let merged = merge_timelines(rings);
    let mut buf = Vec::new();
    write_jsonl(&mut buf, merged.iter()).map_err(|e| format!("serialising timeline: {e}"))?;
    std::fs::write(out, buf).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "merged timeline: {} events from {} nodes ({} dropped before collection) -> {out}",
        merged.len(),
        reports.len(),
        dropped_total
    );
    if flags.contains_key("expect-chain") {
        let summary = verify_chain(&merged).map_err(|e| format!("causal chain incomplete: {e}"))?;
        println!("{summary}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::SimTime;

    fn phase_event(
        at: u64,
        peer: u64,
        trace: u64,
        span: u64,
        parent: u64,
        phase: TaskPhase,
    ) -> TraceEvent {
        TraceEvent::new(
            SimTime::from_millis(at),
            NodeId::new(peer),
            None,
            TraceKind::TaskPhase {
                task: arm_util::TaskId::new(1),
                phase,
            },
        )
        .causal(trace, span, parent)
    }

    #[test]
    fn chain_verification_accepts_a_complete_cross_node_chain() {
        let events = vec![
            phase_event(1, 4, 77, 100, 0, TaskPhase::Submit),
            phase_event(2, 1, 77, 200, 100, TaskPhase::Allocation),
            phase_event(3, 1, 77, 300, 200, TaskPhase::Terminal),
        ];
        let summary = verify_chain(&events).unwrap();
        assert!(summary.contains("2 nodes"), "{summary}");
    }

    #[test]
    fn sparkline_scales_and_tolerates_non_finite() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let line = sparkline(&[0.0, 0.5, 1.0, f64::NAN]);
        assert_eq!(line.chars().count(), 4);
        assert!(line.starts_with('▁'), "{line}");
        assert!(line.contains('█'), "{line}");
        assert!(line.ends_with('?'), "{line}");
    }

    fn fast_net_config(seed: u64) -> arm_runtime::net::NetPeerConfig {
        use arm_runtime::net::{NetPeerConfig, PulseConfig};
        NetPeerConfig {
            protocol: arm_runtime::demo::live_protocol(),
            seed,
            pulse: Some(PulseConfig {
                period: Duration::from_millis(100),
                ..PulseConfig::default()
            }),
            ..NetPeerConfig::default()
        }
    }

    /// Polls until `pred` holds on the collected reports, or panics.
    fn wait_for(
        seed_addr: &str,
        what: &str,
        secs: u64,
        mut pred: impl FnMut(&[StatusReport]) -> bool,
    ) {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        loop {
            let (reports, _) = collect_reports(seed_addr, false, Duration::from_secs(2));
            if pred(&reports) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{what} not reached within {secs}s: {reports:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn top_and_trace_observe_a_live_cluster() {
        use arm_runtime::net::NetCluster;

        let cluster = NetCluster::start(
            arm_runtime::demo::demo_spawns(3),
            &fast_net_config(11),
            arm_wire::TcpOptions::default(),
        )
        .unwrap();
        let seed_addr = cluster.listen_addrs()[0].1.clone();

        // Wait until the overlay has formed before observing.
        wait_for(&seed_addr, "overlay", 10, |reports| {
            reports.len() == 3 && reports.iter().any(|r| r.role == "rm")
        });

        let mut flags = BTreeMap::new();
        flags.insert("addr".to_string(), seed_addr.clone());
        flags.insert("iters".to_string(), "1".to_string());
        top(&flags).unwrap();
        // The JSON view parses and carries every node with health rules.
        flags.insert("json".to_string(), "true".to_string());
        top(&flags).unwrap();

        // Two fast watch rounds exercise the cursor protocol (second poll
        // is incremental) and the sparkline renderer.
        let mut flags = BTreeMap::new();
        flags.insert("addr".to_string(), seed_addr.clone());
        flags.insert("iters".to_string(), "2".to_string());
        flags.insert("period-ms".to_string(), "150".to_string());
        watch(&flags).unwrap();

        let out = std::env::temp_dir().join("arm-cli-obs-test.jsonl");
        let mut flags = BTreeMap::new();
        flags.insert("addr".to_string(), seed_addr);
        flags.insert("out".to_string(), out.to_str().unwrap().to_string());
        trace(&flags).unwrap();
        cluster.shutdown();

        let jsonl = std::fs::read_to_string(&out).unwrap();
        let events = arm_telemetry::TraceLog::parse_jsonl(&jsonl).unwrap();
        assert!(!events.is_empty(), "merged timeline has events");
        // The merged file carries the schema header and is causally ordered.
        assert!(jsonl.lines().next().unwrap().contains("\"schema\""));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// The acceptance path for the pulse plane: kill the RM of a live
    /// cluster, watch the silence rules fire (`arm health` exits non-zero),
    /// then watch failover promote a replacement and the rules clear.
    #[test]
    fn health_detects_rm_failure_and_recovery() {
        use arm_runtime::net::{NetCluster, PulseConfig};
        use arm_telemetry::HealthThresholds;

        let mut config = fast_net_config(13);
        // Failover slow enough that the rm_stale rule (0.8s silence,
        // sustained over 3 of the 100ms pulse ticks) fires well before the
        // backup promotes.
        config.protocol.heartbeat_timeout = arm_util::SimDuration::from_millis(2500);
        // Failover needs a backup holding a snapshot. The default 60 s of
        // uptime to qualify never names one within this test's lifetime,
        // and an RM that dies before naming a backup orphans its members
        // for good (ROADMAP, fault-schedule item).
        config.protocol.rm_requirements.min_uptime_secs = 0.05;
        config.pulse = Some(PulseConfig {
            period: Duration::from_millis(100),
            thresholds: HealthThresholds {
                rm_silence_secs: 0.8,
                ..HealthThresholds::default()
            },
            ..PulseConfig::default()
        });
        let mut cluster = NetCluster::start(
            arm_runtime::demo::demo_spawns(4),
            &config,
            arm_wire::TcpOptions::default(),
        )
        .unwrap();
        let addrs = cluster.listen_addrs();
        let seed_addr = addrs[0].1.clone();

        let mut rm_id = None;
        wait_for(&seed_addr, "overlay with an RM", 10, |reports| {
            rm_id = reports.iter().find(|r| r.role == "rm").map(|r| r.node);
            reports.len() == 4 && rm_id.is_some()
        });
        let rm_id = rm_id.unwrap();
        // Observe through a node that survives the fault.
        let observer_addr = addrs
            .iter()
            .find(|(id, _)| *id != rm_id)
            .expect("a non-RM node")
            .1
            .clone();
        let mut flags = BTreeMap::new();
        flags.insert("addr".to_string(), observer_addr);

        // Healthy overlay: the probe passes (text and JSON shapes both).
        health(&flags).unwrap();

        // The RM must have designated its backup before we kill it, so
        // recovery has somewhere to go: some survivor has handled a
        // `backup_update` (read through the status plane, which needs the
        // handler profiler that tracing turns on).
        wait_for(&seed_addr, "a designated backup", 10, |reports| {
            reports.iter().any(|r| {
                r.node != rm_id
                    && r.metrics
                        .histogram("handle_seconds{kind=\"backup_update\"}")
                        .is_some_and(|h| h.total() >= 1)
            })
        });
        assert!(cluster.stop_peer(rm_id), "the RM was running");

        // The fault is detected: rm_stale fires and the probe exits
        // non-zero, naming the rule.
        let deadline = std::time::Instant::now() + Duration::from_secs(8);
        loop {
            match health(&flags) {
                Err(e) => {
                    assert!(
                        e.contains("rm_stale") || e.contains("election_stalled"),
                        "unexpected failure: {e}"
                    );
                    break;
                }
                Ok(()) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "health never saw the dead RM"
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        // Failover promotes the backup; the silence clears and the probe
        // passes again (the dead node's address stays a warning only).
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while health(&flags).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "health never cleared after failover"
            );
            std::thread::sleep(Duration::from_millis(200));
        }
        cluster.shutdown();
    }

    #[test]
    fn chain_verification_rejects_orphans_and_single_node_traces() {
        // Orphan parent.
        let orphan = vec![
            phase_event(1, 4, 77, 100, 0, TaskPhase::Submit),
            phase_event(3, 1, 77, 300, 999, TaskPhase::Terminal),
        ];
        assert!(verify_chain(&orphan).unwrap_err().contains("unresolvable"));
        // Never left one node.
        let local = vec![
            phase_event(1, 4, 77, 100, 0, TaskPhase::Submit),
            phase_event(3, 4, 77, 300, 100, TaskPhase::Terminal),
        ];
        assert!(verify_chain(&local).unwrap_err().contains("node boundary"));
        // No terminal.
        let open = vec![phase_event(1, 4, 77, 100, 0, TaskPhase::Submit)];
        assert!(verify_chain(&open).unwrap_err().contains("no terminal"));
        // Nothing tagged at all.
        assert!(verify_chain(&[]).is_err());
    }
}
