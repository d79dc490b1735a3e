//! What the benchmark runs and what it reports: the four workloads, the
//! fixed protocol profile they share, and every metric name with its unit
//! and direction. `/BENCHMARK.json` is generated from these tables
//! (`arm_bench manifest`) and a unit test keeps the two in step.

use arm_core::ProtocolConfig;
use arm_util::SimDuration;
use arm_workload::WorkloadConfig;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `/BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 28;

/// Clusters set up per untraced run; `setup_s` is the median. The first
/// carries the load; the rest are torn down as soon as they serve.
pub const SETUPS_PER_RUN: usize = 15;

/// Load applied after set-up and before the first window. Also clears the
/// idle-cluster allocator tie case (`alloc.allocate_idle_us`): until the
/// first sessions spread the loads, every Fig. 3 search ties on fairness
/// and prunes nothing.
pub const WARMUP_SECS: f64 = 2.0;

/// A pass cuts its measuring time into windows of this length on one
/// cluster (a whole number of them, at least [`MIN_WINDOWS`]). In the traced
/// pass the odd windows run with recording on and the even ones with it off.
pub const WINDOW_SECS: f64 = 1.0;
/// Fewest windows a pass is cut into, however short it is (a smoke run).
pub const MIN_WINDOWS: usize = 4;

/// A pass's figures come from its quietest windows, this many of them: those
/// with the lowest median terminal latency (on `sim_des`, the runs with the
/// least wall time per event). Each figure is the median of its values in
/// them. The box is one guest among many and its neighbours only ever slow
/// a window down, for a second or for minutes, so the quiet windows are the
/// ones that say most about the program: in a noisy spell they moved a
/// quarter less from run to run than the median over all windows of a run,
/// in a calm one the same (README, the note on bounds).
pub const QUIET_WINDOWS: usize = 3;

/// After the last window the generator stops and waits this long for
/// in-flight tasks; a task with no terminal outcome by then is failed.
pub const DRAIN_SECS: f64 = 2.0;

/// Every peer of the live workloads: capacity in work units/s and a
/// 1 Gbps access link.
pub const PEER_CAPACITY: f64 = 1000.0;
/// See [`PEER_CAPACITY`].
pub const PEER_BANDWIDTH_KBPS: u32 = 1_000_000;

/// How a live workload's peers reach each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// `TcpTransport` on loopback: real sockets, reader and writer threads.
    Tcp,
    /// `InMemoryTransport`: the same frames, delivered by a function call.
    Mem,
}

/// How tasks are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Tasks fall due on a Poisson schedule whatever the cluster does.
    Open { rate_per_s: f64 },
    /// A fixed number of tasks in flight; a slot's next task is sent when
    /// its previous one reaches a terminal outcome.
    Closed { in_flight: usize },
}

/// One live-cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub peers: usize,
    pub substrate: Substrate,
    /// Production `NetPeerConfig` (tracing, pulse, WAL) or the lean one.
    pub production: bool,
    pub transcoders_per_peer: usize,
    pub max_domain_size: usize,
    pub load: Load,
    /// The rate the workload runs at: offered, on the open loop; measured
    /// while sizing, on the closed loops. The inline pass injects at it (a
    /// virtual clock cannot be paced by completions) and a closed loop's
    /// task stream provides for twice it.
    pub nominal_rate_per_s: f64,
}

/// What a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Live(LiveSpec),
    /// `arm_sim::Simulation`, 16 clusters x 32 peers, churn, 600 s.
    SimDes,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The four workloads. Names are final: later issues cite them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp8_open",
        why: "8 peers on loopback TCP, lean config, open loop at 1500 tasks/s (about a third of saturation): the latency a requester feels; wire transits and the 1 ms LLF poll dominate, the allocator is about 2%",
        kind: Kind::Live(LiveSpec {
            peers: 8,
            substrate: Substrate::Tcp,
            production: false,
            transcoders_per_peer: 3,
            max_domain_size: 32,
            load: Load::Open { rate_per_s: 1500.0 },
            nominal_rate_per_s: 1500.0,
        }),
    },
    Workload {
        name: "tcp8_full",
        why: "same 8-peer TCP cluster, production config (tracing, pulse, WAL), closed loop with 16 in flight: CPU-saturated capacity where codec, PeerNode handling, socket threads, telemetry and WAL all pay",
        kind: Kind::Live(LiveSpec {
            peers: 8,
            substrate: Substrate::Tcp,
            production: true,
            transcoders_per_peer: 3,
            max_domain_size: 32,
            load: Load::Closed { in_flight: 16 },
            nominal_rate_per_s: 5000.0,
        }),
    },
    Workload {
        name: "mem32_alloc",
        why: "32 peers in one domain over the in-memory transport, 4 transcoders per peer, closed loop with 8 in flight: sockets bypassed, the RM thread is the bottleneck and Fig. 3 allocation its largest row",
        kind: Kind::Live(LiveSpec {
            peers: 32,
            substrate: Substrate::Mem,
            production: false,
            transcoders_per_peer: 4,
            max_domain_size: 64,
            load: Load::Closed { in_flight: 8 },
            nominal_rate_per_s: 2700.0,
        }),
    },
    Workload {
        name: "sim_des",
        why: "discrete-event simulation of 16 clusters x 32 peers for 600 s with churn, default protocol config: PeerNode + arm-des + arm-net with no wire, runtime or threads; event counts repeat exactly per seed",
        kind: Kind::SimDes,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fixed protocol profile of the live workloads: timers scaled to a
/// run of seconds rather than the default profile's minutes, so that
/// heartbeats, load reports, gossip, backup shipping and adaptation all
/// fire many times inside every window.
pub fn bench_protocol(max_domain_size: usize) -> ProtocolConfig {
    ProtocolConfig {
        max_domain_size,
        heartbeat_period: SimDuration::from_millis(100),
        heartbeat_timeout: SimDuration::from_secs(2),
        report_period: SimDuration::from_millis(100),
        gossip_period: SimDuration::from_millis(400),
        backup_period: SimDuration::from_millis(200),
        adapt_period: SimDuration::from_millis(400),
        join_timeout: SimDuration::from_millis(400),
        compose_timeout: SimDuration::from_secs(1),
        sched_poll: SimDuration::from_millis(1),
        ..ProtocolConfig::default()
    }
}

/// The fixed catalog and task profile of the live workloads; the caller
/// sets rate and horizon.
pub fn bench_catalog(transcoders_per_peer: usize) -> WorkloadConfig {
    WorkloadConfig {
        num_objects: 20,
        object_replicas: 2,
        zipf_exponent: 0.8,
        transcoders_per_peer,
        work_scale: 0.05,
        session_mean_secs: 0.2,
        deadline_secs: (2.0, 8.0),
        ..WorkloadConfig::default()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the middleware sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The nine end-to-end metrics, reported by every workload (see the README
/// for what each means on `sim_des`, where time is simulated).
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "task_reply_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "task_terminal_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "task_terminal_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_task",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peer_sim_s_per_s",
        unit: "peer-s/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "on_time_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// Message and event kinds the per-kind rows break out, as metric-name
/// suffixes. `Message::kind()` calls gossip digests `gossip`; the metric
/// name spells the message out.
pub const HANDLE_KINDS: [&str; 13] = [
    "submit",
    "task_query",
    "task_reply",
    "compose",
    "compose_ack",
    "session_end",
    "load_report",
    "heartbeat",
    "heartbeat_ack",
    "gossip_digest",
    "backup_update",
    "timer_sched_poll",
    "timer_other",
];

/// Message kinds the frame-codec rows break out.
pub const CODEC_KINDS: [&str; 6] = [
    "task_query",
    "task_reply",
    "compose",
    "compose_ack",
    "load_report",
    "gossip_digest",
];

/// A per-layer metric: name, unit, direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    // arm-wire, frame codec (inline pass).
    add("wire.frame.encode_ns", "ns", Lower);
    add("wire.frame.decode_ns", "ns", Lower);
    for k in CODEC_KINDS {
        add(&format!("wire.frame.encode_ns.{k}"), "ns", Lower);
    }
    for k in CODEC_KINDS {
        add(&format!("wire.frame.decode_ns.{k}"), "ns", Lower);
    }
    add("wire.frame.bytes_per_task", "B", Lower);
    add("wire.msgs_per_task", "count", Lower);
    // arm-wire, transport (traced pass).
    add("wire.tcp.send_call_us", "us", Lower);
    add("wire.tcp.transit_p50_us", "us", Lower);
    add("wire.tcp.transit_p90_us", "us", Lower);
    add("wire.mem.send_call_us", "us", Lower);
    add("wire.tcp.dropped", "count", Lower);
    add("wire.tcp.reconnects", "count", Lower);
    add("wire.decode_errors", "count", Lower);
    add("wire.tcp.threads", "count", Lower);
    // arm-runtime, NetPeer loop (traced pass).
    add("runtime.enqueue_ns", "ns", Lower);
    add("runtime.submit_to_query_us", "us", Lower);
    add("runtime.rm_turnaround_us", "us", Lower);
    add("runtime.hop_turnaround_us", "us", Lower);
    add("runtime.ack_to_outcome_us", "us", Lower);
    add("runtime.rm_mailbox_wait_us", "us", Lower);
    add("runtime.rm_thread_cpu_us_per_task", "us", Lower);
    add("runtime.unattributed_cpu_us_per_task", "us", Lower);
    // arm-core, PeerNode (inline pass).
    for k in HANDLE_KINDS {
        add(&format!("core.handle_ns.{k}"), "ns", Lower);
    }
    for k in HANDLE_KINDS {
        add(&format!("core.calls_per_task.{k}"), "count", Lower);
    }
    add("core.cpu_us_per_task", "us", Lower);
    add("core.background_cpu_us_per_peer_s", "us", Lower);
    add("core.trace_tax_share", "ratio", Lower);
    // arm-model / arm_core::rm, Fig. 3 (inline pass).
    add("alloc.allocate_us", "us", Lower);
    add("alloc.allocate_p90_us", "us", Lower);
    add("alloc.allocate_idle_us", "us", Lower);
    add("alloc.explored_per_task", "count", Lower);
    add("alloc.pruned_per_task", "count", Higher);
    add("alloc.cache_hit_ratio", "ratio", Higher);
    add("alloc.share_of_rm_busy", "ratio", Lower);
    // arm-sched.
    add("sched.setup_wait_us", "us", Lower);
    add("sched.submit_ns", "ns", Lower);
    add("sched.advance_ns", "ns", Lower);
    // arm-store (inline pass).
    add("store.append_us", "us", Lower);
    add("store.append_p90_us", "us", Lower);
    add("store.persists_per_task", "count", Lower);
    add("store.wal_bytes_per_task", "B", Lower);
    add("store.snapshot_ms", "ms", Lower);
    // arm-telemetry.
    add("telemetry.trace_events_per_task", "count", Lower);
    add("telemetry.drain_backlog_max", "count", Lower);
    // arm-des / arm-sim / arm-net.
    add("des.events", "count", Lower);
    add("sim.events_per_s", "1/s", Higher);
    add("des.max_queue_depth", "count", Lower);
    add("sim.msgs_per_peer_s", "1/s", Lower);
    add("sim.build_ms", "ms", Lower);
    add("des.kernel_ns_per_event", "ns", Lower);
    add("des.kernel_share", "ratio", Lower);
    // Budget rows.
    add("budget.latency_coverage", "ratio", Higher);
    add("budget.cpu_coverage", "ratio", Higher);
    add("trace_overhead_share", "ratio", Lower);
    // Ungated diagnostics of the bench's own generator and of the tail.
    add("tail.task_reply_p90_ms", "ms", Lower);
    add("tail.task_reply_p99_ms", "ms", Lower);
    add("tail.task_terminal_p99_ms", "ms", Lower);
    add("tail.task_terminal_p999_ms", "ms", Lower);
    add("tail.samples", "count", Higher);
    add("gen.lag_p50_us", "us", Lower);
    add("gen.lag_max_us", "us", Lower);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn contract_limits_hold() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
