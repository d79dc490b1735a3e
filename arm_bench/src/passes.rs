//! The passes over a workload: the untraced one behind the end-to-end
//! metrics, and the traced one (with the inline pass in tow) behind the
//! per-layer metrics. Both check the program's outputs as they go.

use crate::gen::{self, LiveInputs};
use crate::inline::{self, InlineResult};
use crate::live::{self, LoadResult, Timing};
use crate::procfs;
use crate::report::{Metrics, PassResult};
use crate::simdes::{self, SimRun};
use crate::spec::{self, Kind, LiveSpec, Substrate, Workload};
use crate::stats;
use crate::trace::{self, Rec, Segments};
use arm_model::ServiceGraph;
use std::collections::HashMap;

/// How much a pass does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds a live pass measures and `sim_des` keeps starting runs.
    pub seconds: f64,
    /// Clusters set up per untraced live pass; `setup_s` is their median.
    pub setups: usize,
    /// Tasks the inline pass injects.
    pub inline_tasks: usize,
    /// Simulate a 64-peer minute instead of the 512-peer ten minutes.
    pub small_sim: bool,
}

impl Scale {
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            setups: spec::SETUPS_PER_RUN,
            inline_tasks: inline::TASKS,
            small_sim: false,
        }
    }

    /// Every code path in a few seconds; the numbers mean nothing.
    pub fn smoke() -> Self {
        Self {
            seconds: 1.0,
            setups: 3,
            inline_tasks: 300,
            small_sim: true,
        }
    }
}

/// The untraced pass: end-to-end metrics only.
pub fn untraced(w: &Workload, seed: u64, scale: &Scale) -> Result<PassResult, String> {
    match w.kind {
        Kind::Live(spec) => untraced_live(&spec, seed, scale),
        Kind::SimDes => {
            let runs = simdes::run_for(seed, scale.seconds, scale.small_sim)?;
            let m = sim_end_to_end(&runs);
            Ok(PassResult {
                metrics: m.end_to_end()?,
                attempted: runs.len() as u64,
                failed: 0,
                problems: sim_problems(&runs),
            })
        }
    }
}

/// The traced pass: per-layer metrics only.
pub fn traced(w: &Workload, seed: u64, scale: &Scale) -> Result<PassResult, String> {
    match w.kind {
        Kind::Live(spec) => traced_live(w.name, &spec, seed, scale.seconds, scale.inline_tasks),
        Kind::SimDes => {
            let runs = simdes::run_for(seed, scale.seconds, scale.small_sim)?;
            Ok(PassResult {
                metrics: sim_per_layer(&runs).per_layer(),
                attempted: runs.len() as u64,
                failed: 0,
                problems: sim_problems(&runs),
            })
        }
    }
}

fn untraced_live(spec: &LiveSpec, seed: u64, scale: &Scale) -> Result<PassResult, String> {
    let timing = Timing::for_seconds(scale.seconds);
    let inputs = gen::live_inputs(spec, seed, timing.load_secs());
    let (cluster, secs) = live::set_up(spec, &inputs, false)?;
    let mut setups = vec![secs];
    let r = live::drive(&cluster, spec, &inputs.stream, timing);
    let wire = cluster.transport_stats();
    // Read before the extra set-ups below: the peak is the loaded cluster's.
    let peak_rss_mb = procfs::peak_rss_mb();
    cluster.shutdown();
    // More set-ups, torn down at once, so `setup_s` is a median of several.
    while setups.len() < scale.setups {
        let (cluster, secs) = live::set_up(spec, &inputs, false)?;
        cluster.shutdown();
        setups.push(secs);
    }
    eprintln!("  set-ups: {setups:.4?} s");
    let all: Vec<usize> = (0..timing.windows).collect();
    let e = live::end_to_end(&r, &all);
    for w in 0..timing.windows {
        let t = live::end_to_end(&r, &[w]);
        eprintln!(
            "  window {w:>2}{} reply p50 {:.3} ms  terminal p50 {:.3} p90 {:.3} ms  {:.0} tasks/s  {:.4} cpu-ms/task",
            if e.quiet.contains(&w) { " (quiet):" } else { ":        " },
            t.task_reply_p50_ms, t.task_terminal_p50_ms, t.task_terminal_p90_ms,
            t.tasks_per_s, t.cpu_ms_per_task
        );
    }
    let (n, windows) = (e.samples as u64, e.quiet.len() as u64);
    let on_time_share = e.on_time as f64 / e.admitted.max(1) as f64;
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), setups.len() as u64);
    m.set("task_reply_p50_ms", e.task_reply_p50_ms, n);
    m.set("task_terminal_p50_ms", e.task_terminal_p50_ms, n);
    m.set("task_terminal_p90_ms", e.task_terminal_p90_ms, n);
    m.set("tasks_per_s", e.tasks_per_s, windows);
    m.set("cpu_ms_per_task", e.cpu_ms_per_task, windows);
    // The protocol clock of a live cluster is the wall clock, so this reads
    // the peer count; `sim_des` is where it is a speed.
    m.set(
        "peer_sim_s_per_s",
        spec.peers as f64 * e.clock_s_per_wall_s,
        windows,
    );
    m.set("on_time_share", on_time_share, e.admitted);
    m.set("peak_rss_mb", peak_rss_mb, 1);

    Ok(PassResult {
        metrics: m.end_to_end()?,
        attempted: r.ledger.sent,
        failed: r.ledger.not_on_time(),
        problems: live::check_cluster(&r, &wire),
    })
}

fn traced_live(
    name: &str,
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    inline_tasks: usize,
) -> Result<PassResult, String> {
    let timing = Timing::for_seconds(seconds);
    let inputs = gen::live_inputs(spec, seed, timing.load_secs());
    let (cluster, _) = live::set_up(spec, &inputs, true)?;
    let r = live::drive(&cluster, spec, &inputs.stream, timing);
    let threads = procfs::thread_count();
    let wire = cluster.transport_stats();
    let (recs, replies) = cluster
        .tracer
        .as_ref()
        .map(|t| t.take())
        .unwrap_or_default();
    cluster.shutdown();
    let segments = trace::match_segments(&recs, &r.stamps);
    let span_file = live::scratch_dir().join(format!("trace-{name}.jsonl"));
    trace::write_spans(&span_file, &segments)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    let inline = inline::run(spec, &inputs, &live::scratch_dir(), inline_tasks)?;

    let mut problems = live::check_cluster(&r, &wire);
    problems.extend(check_reply_graphs(&replies, &inputs));
    if segments.is_empty() {
        problems.push("traced pass matched no task end to end".into());
    }

    let (on, off): (Vec<usize>, Vec<usize>) =
        (0..timing.windows).partition(|&w| live::traced_window(w));
    let untraced = live::end_to_end(&r, &off);
    let traced = live::end_to_end(&r, &on);
    let mut m = Metrics::default();
    put_wire_and_runtime(&mut m, spec, &recs, &segments, &wire, threads);
    put_inline(&mut m, spec, &inline);
    put_budget(&mut m, spec, &segments, &inline, &untraced, &traced);
    put_tail(&mut m, &r);
    m.set("telemetry.drain_backlog_max", r.drain_backlog_max as f64, 1);
    Ok(PassResult {
        metrics: m.per_layer(),
        attempted: r.ledger.sent,
        failed: r.ledger.not_on_time(),
        problems,
    })
}

/// Every allocated service graph must chain from the task's stored format
/// to a format it accepts, over hops whose peers really offer that service.
fn check_reply_graphs(replies: &[ServiceGraph], inputs: &LiveInputs) -> Vec<String> {
    let tasks: HashMap<u64, &arm_model::TaskSpec> = inputs
        .stream
        .iter()
        .map(|t| (t.task.id.raw(), &t.task))
        .collect();
    let mut bad = 0usize;
    let mut first = None;
    for g in replies {
        let Some(task) = tasks.get(&g.task.raw()) else {
            continue;
        }; // a set-up probe
        let chained = g
            .hops
            .first()
            .is_some_and(|h| h.input == task.initial_format)
            && g.hops.windows(2).all(|p| p[0].output == p[1].input)
            && g.hops.last().is_some_and(|h| task.accepts(h.output));
        let offered = g.hops.iter().all(|h| {
            inputs.inventories.get(&h.peer).is_some_and(|inv| {
                inv.services
                    .iter()
                    .any(|s| s.input == h.input && s.output == h.output)
            })
        });
        if !(chained && offered) {
            bad += 1;
            first.get_or_insert(g.task);
        }
    }
    match first {
        Some(task) => vec![format!(
            "{bad} TaskReply graph(s) invalid, first for {task}"
        )],
        None => Vec::new(),
    }
}

fn us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|n| n as f64 / 1e3).collect()
}

fn put_wire_and_runtime(
    m: &mut Metrics,
    spec: &LiveSpec,
    recs: &[Rec],
    segments: &[Segments],
    wire: &[arm_wire::TransportStats],
    threads: f64,
) {
    let tcp = spec.substrate == Substrate::Tcp;
    // Send-call time over every message kind, background included.
    let send_call = us(recs.iter().filter(|r| r.sent).map(|r| r.t1 - r.t0));
    let name = if tcp {
        "wire.tcp.send_call_us"
    } else {
        "wire.mem.send_call_us"
    };
    m.set(name, stats::mean(&send_call), send_call.len() as u64);
    let enqueue: Vec<f64> = recs
        .iter()
        .filter(|r| !r.sent)
        .map(|r| (r.t1 - r.t0) as f64)
        .collect();
    m.set(
        "runtime.enqueue_ns",
        stats::mean(&enqueue),
        enqueue.len() as u64,
    );
    if tcp {
        // Transit of the task-path messages: send start -> sink invoked.
        let mut transit = us(segments.iter().flat_map(|s| {
            [
                s.transit_query,
                s.transit_reply,
                s.transit_compose,
                s.transit_ack,
            ]
        }));
        let n = transit.len() as u64;
        m.set(
            "wire.tcp.transit_p50_us",
            stats::percentile_or_zero(&mut transit, 0.5),
            n,
        );
        m.set(
            "wire.tcp.transit_p90_us",
            stats::percentile_or_zero(&mut transit, 0.9),
            n,
        );
        m.set(
            "wire.tcp.dropped",
            wire.iter().map(|s| s.dropped()).sum::<u64>() as f64,
            1,
        );
        m.set(
            "wire.tcp.reconnects",
            wire.iter().map(|s| s.reconnects()).sum::<u64>() as f64,
            1,
        );
        m.set("wire.tcp.threads", threads, 1);
    }
    m.set(
        "wire.decode_errors",
        wire.iter().map(|s| s.decode_errors).sum::<u64>() as f64,
        1,
    );
    let n = segments.len() as u64;
    let med = |f: fn(&Segments) -> u64| stats::median(&us(segments.iter().map(f)));
    m.set("runtime.submit_to_query_us", med(|s| s.submit_to_query), n);
    m.set("runtime.rm_turnaround_us", med(|s| s.rm_turnaround), n);
    m.set("runtime.hop_turnaround_us", med(|s| s.hop_turnaround), n);
    m.set("runtime.ack_to_outcome_us", med(|s| s.ack_to_outcome), n);
}

fn put_inline(m: &mut Metrics, spec: &LiveSpec, i: &InlineResult) {
    let e = &i.exec;
    let msgs = e.encode.total_calls();
    m.set(
        "wire.frame.encode_ns",
        e.encode.total_ns() as f64 / msgs.max(1) as f64,
        msgs,
    );
    m.set(
        "wire.frame.decode_ns",
        e.decode.total_ns() as f64 / msgs.max(1) as f64,
        msgs,
    );
    for k in spec::CODEC_KINDS {
        let n = e.encode.calls.get(k).copied().unwrap_or(0);
        m.set(&format!("wire.frame.encode_ns.{k}"), e.encode.mean_ns(k), n);
        m.set(&format!("wire.frame.decode_ns.{k}"), e.decode.mean_ns(k), n);
    }
    m.set(
        "wire.frame.bytes_per_task",
        i.per_task(e.frame_bytes),
        i.tasks,
    );
    m.set("wire.msgs_per_task", i.per_task(msgs), i.tasks);
    for k in spec::HANDLE_KINDS {
        let n = e.handle.calls.get(k).copied().unwrap_or(0);
        m.set(&format!("core.handle_ns.{k}"), e.handle.mean_ns(k), n);
        m.set(&format!("core.calls_per_task.{k}"), i.per_task(n), i.tasks);
    }
    m.set(
        "core.cpu_us_per_task",
        e.handle.total_ns() as f64 / 1e3 / i.tasks.max(1) as f64,
        e.handle.total_calls(),
    );
    m.set(
        "core.background_cpu_us_per_peer_s",
        i.background_us_per_peer_s,
        spec.peers as u64,
    );
    m.set(
        "core.trace_tax_share",
        i.trace_tax_share,
        u64::from(spec.production) * i.tasks,
    );
    let probes = e.alloc_us.len() as u64;
    m.set("alloc.allocate_us", stats::mean(&e.alloc_us), probes);
    m.set("alloc.allocate_p90_us", i.alloc_us_p90(), probes);
    m.set(
        "alloc.allocate_idle_us",
        stats::mean(&e.alloc_idle_us),
        e.alloc_idle_us.len() as u64,
    );
    m.set(
        "alloc.explored_per_task",
        i.per_task(e.alloc.explored_prefixes),
        i.tasks,
    );
    m.set(
        "alloc.pruned_per_task",
        i.per_task(e.alloc.pruned_bound + e.alloc.pruned_dominated),
        i.tasks,
    );
    let lookups = e.alloc.cache_hits + e.alloc.cache_misses;
    m.set(
        "alloc.cache_hit_ratio",
        e.alloc.cache_hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    m.set(
        "sched.submit_ns",
        i.sched_submit_ns,
        e.handle.calls.get("compose").copied().unwrap_or(0),
    );
    m.set(
        "sched.advance_ns",
        i.sched_advance_ns,
        e.handle.calls.get("compose").copied().unwrap_or(0),
    );
    m.set("store.append_us", stats::mean(&e.append_us), e.persists);
    m.set("store.append_p90_us", i.append_us_p90(), e.persists);
    m.set("store.persists_per_task", i.per_task(e.persists), i.tasks);
    m.set("store.wal_bytes_per_task", i.per_task(e.wal_bytes), i.tasks);
    m.set(
        "store.snapshot_ms",
        e.snapshot_ms,
        u64::from(spec.production),
    );
    m.set(
        "telemetry.trace_events_per_task",
        i.per_task(e.trace_events),
        i.tasks,
    );
}

fn put_budget(
    m: &mut Metrics,
    spec: &LiveSpec,
    segments: &[Segments],
    inline: &InlineResult,
    untraced: &live::EndToEnd,
    traced: &live::EndToEnd,
) {
    let n = segments.len() as u64;
    // Latency: the medians of the critical-path segments against the median
    // terminal latency of the same tasks.
    let terminal = stats::median(&us(segments.iter().map(|s| s.terminal())));
    let parts: f64 = (0..8)
        .map(|k| stats::median(&us(segments.iter().map(|s| s.critical_path()[k].1))))
        .sum();
    m.set(
        "budget.latency_coverage",
        if terminal > 0.0 {
            parts / terminal
        } else {
            0.0
        },
        n,
    );
    // The RM's turnaround less the time its handler itself takes is time the
    // query sat in the mailbox (or the thread sat off-CPU).
    let handle_query_us = inline.exec.handle.mean_ns("task_query") / 1e3;
    m.set(
        "runtime.rm_mailbox_wait_us",
        (m.get("runtime.rm_turnaround_us") - handle_query_us).max(0.0),
        n,
    );
    // Likewise a hop's turnaround less its Compose handler: the LLF queue
    // and the poll quantum.
    let handle_compose_us = inline.exec.handle.mean_ns("compose") / 1e3;
    m.set(
        "sched.setup_wait_us",
        (m.get("runtime.hop_turnaround_us") - handle_compose_us).max(0.0),
        n,
    );
    // Fig. 3 against everything the RM's thread burns per task (handling,
    // encoding and queueing its sends, waking up): the share an allocator
    // speed-up can win back where that thread is the bottleneck.
    m.set(
        "runtime.rm_thread_cpu_us_per_task",
        untraced.rm_cpu_us_per_task,
        1,
    );
    let share = if untraced.rm_cpu_us_per_task > 0.0 {
        m.get("alloc.allocate_us") / untraced.rm_cpu_us_per_task
    } else {
        0.0
    };
    m.set(
        "alloc.share_of_rm_busy",
        share,
        inline.exec.alloc_us.len() as u64,
    );
    // CPU: what the inline rows add up to against what the process burned.
    let cpu_us = untraced.cpu_ms_per_task * 1e3;
    let attributed = inline.attributed_cpu_us_per_task();
    m.set(
        "budget.cpu_coverage",
        if cpu_us > 0.0 {
            attributed / cpu_us
        } else {
            0.0
        },
        inline.tasks,
    );
    m.set(
        "runtime.unattributed_cpu_us_per_task",
        (cpu_us - attributed).max(0.0),
        inline.tasks,
    );
    // Tracing overhead: same cluster, the quietest windows with recording
    // off against the quietest with it on. An
    // open loop holds its rate whatever it costs, so there the latency shows
    // the overhead; a closed loop shows it in its rate.
    let overhead = match spec.load {
        spec::Load::Open { .. } => {
            traced.task_terminal_p50_ms / untraced.task_terminal_p50_ms - 1.0
        }
        spec::Load::Closed { .. } => 1.0 - traced.tasks_per_s / untraced.tasks_per_s,
    };
    m.set(
        "trace_overhead_share",
        overhead,
        (untraced.quiet.len() + traced.quiet.len()) as u64,
    );
}

fn put_tail(m: &mut Metrics, r: &LoadResult) {
    let books = &r.ledger.books;
    let mut reply: Vec<f64> = books
        .iter()
        .flat_map(|b| b.reply_ms.iter().copied())
        .collect();
    let mut terminal: Vec<f64> = books
        .iter()
        .flat_map(|b| b.terminal_ms.iter().copied())
        .collect();
    let mut lag: Vec<f64> = books
        .iter()
        .flat_map(|b| b.lag_us.iter().copied())
        .collect();
    let n = terminal.len() as u64;
    m.set(
        "tail.task_reply_p90_ms",
        stats::percentile_or_zero(&mut reply, 0.9),
        reply.len() as u64,
    );
    m.set(
        "tail.task_reply_p99_ms",
        stats::percentile_or_zero(&mut reply, 0.99),
        reply.len() as u64,
    );
    m.set(
        "tail.task_terminal_p99_ms",
        stats::percentile_or_zero(&mut terminal, 0.99),
        n,
    );
    m.set(
        "tail.task_terminal_p999_ms",
        stats::percentile_or_zero(&mut terminal, 0.999),
        n,
    );
    m.set("tail.samples", n as f64, n);
    m.set(
        "gen.lag_p50_us",
        stats::percentile_or_zero(&mut lag, 0.5),
        lag.len() as u64,
    );
    m.set(
        "gen.lag_max_us",
        lag.last().copied().unwrap_or(0.0),
        lag.len() as u64,
    );
}

fn sim_problems(runs: &[SimRun]) -> Vec<String> {
    runs.iter()
        .filter(|r| r.report.outcomes.on_time == 0)
        .map(|r| format!("sim_des seed {} completed no task", r.seed))
        .collect()
}

/// `sim_des` end to end. Latencies are in *simulated* milliseconds: what a
/// simulated requester waits, a property of the protocol that a change to
/// the program must not move by accident. Rates are against the wall clock.
fn sim_end_to_end(runs: &[SimRun]) -> Metrics {
    let n = runs.len() as u64;
    let quiet = simdes::quietest(runs);
    let q = quiet.len() as u64;
    let mut m = Metrics::default();
    // What the seeds decide: the median over every run made.
    let med = |f: &dyn Fn(&SimRun) -> f64| simdes::median_of(runs, f);
    // What the machine decides: the median over the quietest runs.
    let timed = |f: &dyn Fn(&SimRun) -> f64| simdes::median_of(quiet.iter().copied(), f);
    m.set("setup_s", med(&|r| r.build_s), n);
    m.set(
        "task_reply_p50_ms",
        med(&|r| simdes::latency_ms(&r.report.reply_latency, 0.5)),
        n,
    );
    m.set(
        "task_terminal_p50_ms",
        med(&|r| simdes::latency_ms(&r.report.response_time, 0.5)),
        n,
    );
    m.set(
        "task_terminal_p90_ms",
        med(&|r| simdes::latency_ms(&r.report.response_time, 0.9)),
        n,
    );
    // Per task *submitted*: how many of them end on time swings with the
    // seed's churn draw (3 283 to 5 677 of about 5 950), the number offered
    // does not.
    m.set(
        "tasks_per_s",
        timed(&|r| r.report.submitted as f64 / r.run_s),
        q,
    );
    m.set(
        "cpu_ms_per_task",
        timed(&|r| r.cpu_s * 1e3 / r.report.submitted.max(1) as f64),
        q,
    );
    m.set("peer_sim_s_per_s", timed(&|r| r.peer_sim_s_per_s()), q);
    m.set(
        "on_time_share",
        med(&|r| 1.0 - r.report.outcomes.miss_ratio()),
        n,
    );
    m.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    m
}

fn sim_per_layer(runs: &[SimRun]) -> Metrics {
    let n = runs.len() as u64;
    let first = &runs[0];
    let mut m = Metrics::default();
    let quiet = simdes::quietest(runs);
    let q = quiet.len() as u64;
    let timed = |f: &dyn Fn(&SimRun) -> f64| simdes::median_of(quiet.iter().copied(), f);
    // Exact per seed: reported for the seed the run was asked for.
    m.set("des.events", first.report.events_processed as f64, 1);
    m.set(
        "des.max_queue_depth",
        first.report.max_queue_depth as f64,
        1,
    );
    m.set("sim.msgs_per_peer_s", first.msgs_per_peer_s(), 1);
    m.set(
        "sim.events_per_s",
        timed(&|r| r.report.events_processed as f64 / r.run_s),
        q,
    );
    m.set(
        "sim.build_ms",
        simdes::median_of(runs, |r| r.build_s * 1e3),
        n,
    );
    let kernel_ns =
        simdes::kernel_ns_per_event(first.report.events_processed, first.report.max_queue_depth);
    m.set(
        "des.kernel_ns_per_event",
        kernel_ns,
        first.report.events_processed,
    );
    let run_ns_per_event = timed(&|r| r.run_s * 1e9 / r.report.events_processed.max(1) as f64);
    m.set("des.kernel_share", kernel_ns / run_ns_per_event, q);
    let a = &first.report.alloc;
    let submitted = first.report.submitted.max(1) as u64;
    m.set(
        "alloc.explored_per_task",
        a.explored_prefixes as f64 / submitted as f64,
        submitted,
    );
    m.set(
        "alloc.pruned_per_task",
        (a.pruned_bound + a.pruned_dominated) as f64 / submitted as f64,
        submitted,
    );
    m.set(
        "alloc.cache_hit_ratio",
        a.cache_hits as f64 / (a.cache_hits + a.cache_misses).max(1) as f64,
        a.cache_hits + a.cache_misses,
    );
    m
}
