//! The live workloads: a cluster assembled from the public parts, one
//! generator thread driving it, and the end-to-end figures read from the
//! program's own telemetry stamps.
//!
//! The harness assembles the cluster itself (`NetPeer::start` over
//! `TcpTransport::bind` or `MemHub::register`) rather than through
//! `NetCluster`, so it owns the `SharedTelemetry` and can *drain* it under
//! the lock; `NetCluster::telemetry()` clones vectors of up to 65 536
//! entries per poll, which at bench rates would dominate the run.

use crate::gen::{LiveInputs, StreamTask, FOUNDER};
use crate::ledger::{Ledger, Windows};
use crate::procfs;
use crate::spec::{self, LiveSpec, Load, Substrate};
use crate::stats;
use crate::trace::{TaskStamps, Tracer};
use arm_model::task::TaskOutcome;
use arm_model::TaskSpec;
use arm_runtime::net::{NetClock, NetMailbox, NetPeer, NetPeerConfig, PulseConfig, StoreConfig};
use arm_runtime::{shared_telemetry, SharedTelemetry};
use arm_util::{NodeId, SimTime, TaskId};
use arm_wire::{MemHub, StatusRequest, TcpOptions, TcpTransport, Transport, TransportStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probe task ids start here, far above any stream task id.
const PROBE_ID_BASE: u64 = 1 << 40;
/// How long set-up may take before the run is abandoned.
const SETUP_LIMIT: Duration = Duration::from_secs(30);
/// A set-up probe with no outcome after this long is taken for lost and
/// sent again. Far longer than a fresh 32-peer RM takes over its first
/// allocation (the better part of 0.1 s): with 50 ms every probe re-sent
/// meanwhile queued another 10 ms search on tied loads behind it, and
/// set-up took 0.1 s on a calm host and up to 0.25 s on a slow one.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// The generator's nap between polls. Short enough that a closed-loop slot
/// idles for a few percent of a task's life, long enough that the generator
/// leaves the two cores to the cluster.
const POLL_NAP: Duration = Duration::from_micros(150);
/// A task this long overdue will not resolve (compose timeout is 1 s, the
/// longest deadline 8 s; nothing legitimate is pending for 10 s): it is
/// failed and its closed-loop slot freed.
const STUCK_US: u64 = 10_000_000;

/// A running cluster.
pub struct Cluster {
    pub clock: NetClock,
    pub telemetry: SharedTelemetry,
    peers: Vec<NetPeer>,
    transports: Vec<Arc<dyn Transport>>,
    /// Present in the traced pass: every sink and transport is wrapped.
    pub tracer: Option<Arc<Tracer>>,
    /// The WAL directory of a production-config cluster, removed at shutdown.
    store_dir: Option<PathBuf>,
}

impl Cluster {
    /// Binds transports, wires routes and starts every peer; `traced` wraps
    /// each peer's sink and transport in a [`Tracer`]. A production-config
    /// cluster gets a WAL directory of its own: a second cluster opening the
    /// first one's directory would boot by recovery, not by joining.
    pub fn start(spec: &LiveSpec, inputs: &LiveInputs, traced: bool) -> Result<Self, String> {
        let store_dir = spec.production.then(fresh_store_dir).transpose()?;
        let clock = NetClock::new();
        let tracer = traced.then(|| Tracer::new(spec.peers, &clock));
        let tracer = tracer.as_ref();
        let telemetry = shared_telemetry();
        let config = NetPeerConfig {
            protocol: spec::bench_protocol(spec.max_domain_size),
            seed: 7,
            tracing: spec.production,
            pulse: spec.production.then(PulseConfig::default),
            store: store_dir.as_ref().map(StoreConfig::new),
        };
        let sink_for = |id: NodeId, mailbox: &NetMailbox| match tracer {
            Some(t) => t.wrap_sink(id, mailbox.sink()),
            None => mailbox.sink(),
        };
        let mut mailboxes = Vec::new();
        let mut transports: Vec<Arc<dyn Transport>> = Vec::new();
        match spec.substrate {
            Substrate::Tcp => {
                let mut bound: Vec<Arc<TcpTransport>> = Vec::new();
                for spawn in &inputs.spawns {
                    let mailbox = NetMailbox::new(clock.clone());
                    let sink = sink_for(spawn.id, &mailbox);
                    let t =
                        TcpTransport::bind(spawn.id, "127.0.0.1:0", sink, TcpOptions::default())
                            .map_err(|e| format!("bind peer {}: {e}", spawn.id))?;
                    bound.push(Arc::new(t));
                    mailboxes.push(mailbox);
                }
                // Full-mesh routing books: in one process every address is known.
                let addrs: Vec<(NodeId, String)> = bound
                    .iter()
                    .map(|t| (t.node(), t.listen_addr().to_string()))
                    .collect();
                for t in &bound {
                    for (node, addr) in addrs.iter().filter(|(n, _)| *n != t.node()) {
                        t.add_route(*node, addr).map_err(|e| e.to_string())?;
                    }
                }
                for (t, spawn) in bound.iter().zip(&inputs.spawns) {
                    if let Some(b) = spawn.bootstrap {
                        let addr = &addrs
                            .iter()
                            .find(|(n, _)| *n == b)
                            .expect("bootstrap bound")
                            .1;
                        t.connect(addr)
                            .map_err(|e| format!("dial bootstrap: {e}"))?;
                    }
                }
                transports.extend(bound.into_iter().map(|t| t as Arc<dyn Transport>));
            }
            Substrate::Mem => {
                let hub = MemHub::new();
                for spawn in &inputs.spawns {
                    let mailbox = NetMailbox::new(clock.clone());
                    let sink = sink_for(spawn.id, &mailbox);
                    transports.push(Arc::new(hub.register(spawn.id, sink)));
                    mailboxes.push(mailbox);
                }
            }
        }
        let peers = mailboxes
            .into_iter()
            .zip(&inputs.spawns)
            .zip(&transports)
            .map(|((mailbox, spawn), transport)| {
                let transport = match tracer {
                    Some(t) => t.wrap_transport(Arc::clone(transport)),
                    None => Arc::clone(transport),
                };
                NetPeer::start(
                    mailbox,
                    spawn.clone(),
                    transport,
                    &config,
                    Arc::clone(&telemetry),
                )
            })
            .collect();
        Ok(Self {
            clock,
            telemetry,
            peers,
            transports,
            tracer: tracer.cloned(),
            store_dir,
        })
    }

    fn now_us(&self) -> u64 {
        self.clock.now().as_micros()
    }

    fn submit(&self, at: NodeId, task: TaskSpec) {
        self.peers[at.raw() as usize - 1].submit(task);
    }

    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.transports.iter().map(|t| t.stats()).collect()
    }

    /// Stops every peer thread, then every transport, and joins them all.
    pub fn shutdown(self) {
        for peer in self.peers {
            peer.stop(false);
        }
        for t in self.transports {
            t.shutdown();
        }
        if let Some(dir) = self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What the generator pulled out of telemetry in one poll.
#[derive(Default)]
struct Drained {
    replies: Vec<(TaskId, bool, SimTime)>,
    outcomes: Vec<(TaskId, TaskOutcome, SimTime)>,
    traces: Vec<arm_telemetry::TraceEvent>,
    promotions: usize,
}

impl Drained {
    /// Swaps the filled series out under the lock; the vectors swapped in
    /// keep their capacity, so neither side reallocates in steady state.
    fn poll(&mut self, telemetry: &SharedTelemetry) {
        // Cleared here, outside the lock: trace events own strings.
        self.replies.clear();
        self.outcomes.clear();
        self.traces.clear();
        let mut t = telemetry.lock();
        std::mem::swap(&mut t.replies, &mut self.replies);
        std::mem::swap(&mut t.outcomes, &mut self.outcomes);
        std::mem::swap(&mut t.traces, &mut self.traces);
        self.promotions += t.promotions.len();
        t.promotions.clear();
        t.repairs.clear();
    }
}

/// Starts a cluster and waits until it has formed and serves: the founder
/// reports every peer in its domain (read through the status plane, as
/// `arm top` would), then a probe task from each of the two peers started
/// last completes on time. Returns the cluster and the seconds from before
/// the first bind to that moment. Nothing sleeps a fixed time.
///
/// Each requester has one probe outstanding at a time; it is sent again
/// when it ends any other way than on time (the RM may not have heard the
/// whole inventory yet) or not at all. Probes are load: sent blindly every
/// half millisecond they outran the 32-peer cluster's RM, whose backlog then
/// delayed heartbeats until it declared its members dead.
pub fn set_up(
    spec: &LiveSpec,
    inputs: &LiveInputs,
    traced: bool,
) -> Result<(Cluster, f64), String> {
    let started = Instant::now();
    let cluster = Cluster::start(spec, inputs, traced)?;
    let timed_out = |what: &str| format!("cluster not {what} after {SETUP_LIMIT:?}");
    let last = spec.peers as u64;
    let requesters = [NodeId::new(last - 1), NodeId::new(last)];
    let ask = StatusRequest {
        observer: NodeId::new(0),
        include_trace: false,
        series_cursor: None,
    };
    let status = |peer: &NetPeer| {
        peer.status()
            .report(&ask, TransportStats::default(), Vec::new())
    };
    // Formed: the founder counts every peer in, and the two requesters know
    // they are members (the founder admits a peer one message before the
    // peer hears of it, and a peer still joining swallows a submission).
    let formed = || {
        status(&cluster.peers[0]).domain_size == Some(last)
            && requesters
                .iter()
                .all(|r| status(&cluster.peers[r.raw() as usize - 1]).role == "member")
    };
    while !formed() {
        if started.elapsed() > SETUP_LIMIT {
            cluster.shutdown();
            return Err(timed_out("formed"));
        }
        std::thread::sleep(POLL_NAP);
    }

    let mut served = [false; 2];
    // (probe id, when sent) per requester; id parity names the requester.
    let mut pending: [Option<(u64, Instant)>; 2] = [None; 2];
    let mut next_id = PROBE_ID_BASE;
    let mut drained = Drained::default();
    while served != [true; 2] {
        if started.elapsed() > SETUP_LIMIT {
            cluster.shutdown();
            return Err(timed_out("serving"));
        }
        for i in (0..2).filter(|&i| !served[i]) {
            if pending[i].is_none_or(|(_, sent)| sent.elapsed() > PROBE_TIMEOUT) {
                next_id += 2;
                pending[i] = Some((next_id + i as u64, Instant::now()));
                let mut probe = inputs.probe.clone();
                probe.id = TaskId::new(next_id + i as u64);
                cluster.submit(requesters[i], probe);
            }
        }
        std::thread::sleep(POLL_NAP);
        drained.poll(&cluster.telemetry);
        for (task, outcome, _) in &drained.outcomes {
            let i = (task.raw() % 2) as usize;
            if pending[i].is_some_and(|(id, _)| id == task.raw()) {
                pending[i] = None;
                served[i] = *outcome == TaskOutcome::CompletedOnTime;
            }
        }
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// How the load on one cluster is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup_secs: f64,
    pub window_secs: f64,
    pub windows: usize,
    pub drain_secs: f64,
}

impl Timing {
    /// Warm-up, windows of about [`spec::WINDOW_SECS`] filling `seconds`, drain.
    pub fn for_seconds(seconds: f64) -> Self {
        let windows = ((seconds / spec::WINDOW_SECS).round() as usize).max(spec::MIN_WINDOWS);
        Self {
            warmup_secs: spec::WARMUP_SECS.min(seconds / 2.0),
            window_secs: seconds / windows as f64,
            windows,
            drain_secs: spec::DRAIN_SECS,
        }
    }

    /// Seconds of task stream one cluster can consume.
    pub fn load_secs(&self) -> f64 {
        self.warmup_secs + self.window_secs * self.windows as f64 + 0.5
    }
}

/// Whether the traced pass records in window `w`.
pub fn traced_window(w: usize) -> bool {
    w % 2 == 1
}

/// A reading taken as the generator passes a window bound.
struct Mark {
    cpu_ns: u64,
    rm_cpu_ns: u64,
    wall: Instant,
    clock_us: u64,
}

/// What one window cost: the difference between the marks at its bounds.
#[derive(Debug, Clone, Copy)]
pub struct WindowCost {
    /// Process CPU minus the generator thread's, ns.
    pub cpu_ns: u64,
    /// The founder's (RM's) thread CPU, ns.
    pub rm_cpu_ns: u64,
    /// Wall length of the window as the generator saw it, s, and how far
    /// the cluster's own clock moved meanwhile.
    pub wall_s: f64,
    pub clock_s: f64,
}

/// Per-window figures of one pass, and what was seen over all of it.
#[derive(Debug)]
pub struct LoadResult {
    pub ledger: Ledger,
    pub costs: Vec<WindowCost>,
    /// The generator ran out of generated tasks before the load ended: the
    /// figures are those of a starved cluster, and the output check says so.
    pub stream_exhausted: bool,
    /// Most replies+outcomes+trace events one poll found waiting.
    pub drain_backlog_max: usize,
    pub promotions: usize,
    /// Per-task stamps for span matching (traced pass only).
    pub stamps: HashMap<u64, TaskStamps>,
}

/// Drives the task stream through a serving cluster: warm-up, windows,
/// drain. On a traced cluster recording is on in the odd windows and off in
/// the even ones, so one cluster yields both sides of `trace_overhead_share`
/// and a slow drift of the cluster (throughput on `mem32_alloc` sinks by a
/// few percent over a run) weighs on both sides alike.
///
/// Every figure is later taken from the quietest windows
/// ([`spec::QUIET_WINDOWS`]), so a stalled window (the box stalls for tens of
/// milliseconds now and then) or a slow spell cannot set the result.
pub fn drive(
    cluster: &Cluster,
    spec: &LiveSpec,
    stream: &[StreamTask],
    timing: Timing,
) -> LoadResult {
    let tracer = cluster.tracer.as_ref();
    let us = |secs: f64| (secs * 1e6) as u64;
    let load_start = cluster.now_us() + 1_000;
    let windows = Windows::new(
        load_start + us(timing.warmup_secs),
        us(timing.window_secs),
        timing.windows,
    );
    let load_end = windows.end_us();
    let mut ledger = Ledger::new(windows.clone());
    let mut drained = Drained::default();
    let mut stamps: HashMap<u64, TaskStamps> = HashMap::new();
    let mut next = 0usize;
    let mut drain_backlog_max = 0usize;
    let mut stream_exhausted = false;
    // Readings at each window bound, taken when the generator first passes it.
    let mut marks: Vec<Mark> = Vec::new();
    let rm_thread = format!("netpeer-{FOUNDER}");
    let mark = || Mark {
        cpu_ns: procfs::process_cpu_ns().saturating_sub(procfs::thread_cpu_ns()),
        rm_cpu_ns: procfs::named_thread_cpu_ns(&rm_thread),
        wall: Instant::now(),
        clock_us: cluster.now_us(),
    };
    let mut last_sweep = load_start;

    loop {
        let now = cluster.now_us();
        // Window bounds: sample CPU, and switch recording.
        while marks.len() <= timing.windows
            && now >= windows.start_us(0) + marks.len() as u64 * us(timing.window_secs)
        {
            // Bound k opens window k (the last bound opens the drain).
            let k = marks.len();
            marks.push(mark());
            if let Some(t) = tracer {
                t.set_recording(k < timing.windows && traced_window(k));
            }
        }
        let loading = now < load_end;
        if !loading && (ledger.in_flight() == 0 || now >= load_end + us(timing.drain_secs)) {
            break;
        }

        drained.poll(&cluster.telemetry);
        drain_backlog_max = drain_backlog_max
            .max(drained.replies.len() + drained.outcomes.len() + drained.traces.len());
        for (task, _, at) in &drained.replies {
            ledger.reply(task.raw(), at.as_micros());
            if let (Some(tr), Some(s)) = (tracer, stamps.get_mut(&task.raw())) {
                s.reply_at = Some(tr.clock_us_to_ns(at.as_micros()));
            }
        }
        for (task, outcome, at) in &drained.outcomes {
            if task.raw() > PROBE_ID_BASE {
                continue; // a set-up probe resolving late
            }
            ledger.outcome(task.raw(), *outcome, at.as_micros());
            if let (Some(tr), Some(s)) = (tracer, stamps.get_mut(&task.raw())) {
                s.outcome_at = (*outcome == TaskOutcome::CompletedOnTime)
                    .then(|| tr.clock_us_to_ns(at.as_micros()));
            }
        }
        if now.saturating_sub(last_sweep) > 100_000 {
            last_sweep = now;
            ledger.expire(now.saturating_sub(STUCK_US));
        }

        let mut nap = POLL_NAP;
        if loading {
            let mut send = |t: &StreamTask, due: u64, ledger: &mut Ledger| {
                let sent = cluster.now_us();
                if let Some(tr) = tracer {
                    stamps.insert(
                        t.task.id.raw(),
                        TaskStamps {
                            due: tr.clock_us_to_ns(due),
                            sent: tr.now_ns(),
                            ..TaskStamps::default()
                        },
                    );
                }
                cluster.submit(t.requester, t.task.clone());
                ledger.sent(t.task.id.raw(), due, sent);
            };
            match spec.load {
                Load::Open { .. } => loop {
                    let Some(t) = stream.get(next) else {
                        stream_exhausted = true;
                        break;
                    };
                    let due = load_start + t.due_us;
                    if due > now || due >= load_end {
                        // Sleep to the next due time, but never past a poll.
                        nap = nap.min(Duration::from_micros(due.saturating_sub(now).max(20)));
                        break;
                    }
                    send(t, due, &mut ledger);
                    next += 1;
                },
                Load::Closed { in_flight } => {
                    while ledger.in_flight() < in_flight {
                        let Some(t) = stream.get(next) else {
                            stream_exhausted = true;
                            break;
                        };
                        send(t, cluster.now_us(), &mut ledger);
                        next += 1;
                    }
                }
            }
        }
        std::thread::sleep(nap);
    }
    if let Some(t) = tracer {
        t.set_recording(false);
    }
    ledger.expire(u64::MAX);
    while marks.len() <= timing.windows {
        marks.push(mark());
    }
    LoadResult {
        ledger,
        costs: marks
            .windows(2)
            .map(|m| WindowCost {
                cpu_ns: m[1].cpu_ns.saturating_sub(m[0].cpu_ns),
                rm_cpu_ns: m[1].rm_cpu_ns.saturating_sub(m[0].rm_cpu_ns),
                wall_s: m[1].wall.duration_since(m[0].wall).as_secs_f64(),
                clock_s: (m[1].clock_us - m[0].clock_us) as f64 / 1e6,
            })
            .collect(),
        stream_exhausted,
        drain_backlog_max,
        promotions: drained.promotions,
        stamps,
    }
}

/// The end-to-end figures of one pass: each the median of its values in the
/// quietest windows.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub task_reply_p50_ms: f64,
    pub task_terminal_p50_ms: f64,
    pub task_terminal_p90_ms: f64,
    pub tasks_per_s: f64,
    pub cpu_ms_per_task: f64,
    /// The RM thread's CPU per completed task, us.
    pub rm_cpu_us_per_task: f64,
    /// Seconds the cluster's clock advanced per wall second.
    pub clock_s_per_wall_s: f64,
    /// The windows the figures above are from.
    pub quiet: Vec<usize>,
    /// Terminal-latency samples in the quiet windows.
    pub samples: usize,
    /// Over all the windows asked for: tasks due in them that the RM
    /// admitted, and how many of those ended on time.
    pub admitted: u64,
    pub on_time: u64,
}

/// The `q`-quantile of unsorted `samples`, if they support one.
fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, q)
}

/// The [`spec::QUIET_WINDOWS`] of `which` with the lowest median terminal
/// latency; a window too short of samples for a median is never quiet.
fn quietest(r: &LoadResult, which: &[usize]) -> Vec<usize> {
    let mut by_p50: Vec<(f64, usize)> = which
        .iter()
        .filter_map(|&w| Some((quantile(&r.ledger.books[w].terminal_ms, 0.5)?, w)))
        .collect();
    by_p50.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_p50.truncate(spec::QUIET_WINDOWS);
    by_p50.into_iter().map(|(_, w)| w).collect()
}

/// Reduces the windows named by `which` to end-to-end figures.
pub fn end_to_end(r: &LoadResult, which: &[usize]) -> EndToEnd {
    let books = &r.ledger.books;
    let quiet = quietest(r, which);
    let median_of = |f: &dyn Fn(usize) -> f64| -> f64 {
        stats::median(&quiet.iter().map(|&w| f(w)).collect::<Vec<_>>())
    };
    let completed = |w: usize| books[w].completed_on_time.max(1) as f64;
    EndToEnd {
        task_reply_p50_ms: median_of(&|w| quantile(&books[w].reply_ms, 0.5).unwrap_or(0.0)),
        task_terminal_p50_ms: median_of(&|w| quantile(&books[w].terminal_ms, 0.5).unwrap_or(0.0)),
        task_terminal_p90_ms: median_of(&|w| quantile(&books[w].terminal_ms, 0.9).unwrap_or(0.0)),
        tasks_per_s: median_of(&|w| books[w].completed_on_time as f64 / r.costs[w].wall_s),
        cpu_ms_per_task: median_of(&|w| r.costs[w].cpu_ns as f64 / 1e6 / completed(w)),
        rm_cpu_us_per_task: median_of(&|w| r.costs[w].rm_cpu_ns as f64 / 1e3 / completed(w)),
        clock_s_per_wall_s: median_of(&|w| r.costs[w].clock_s / r.costs[w].wall_s),
        samples: quiet.iter().map(|&w| books[w].terminal_ms.len()).sum(),
        admitted: which
            .iter()
            .map(|&w| books[w].submitted - books[w].rejected)
            .sum(),
        on_time: which
            .iter()
            .map(|&w| books[w].terminal_ms.len() as u64)
            .sum(),
        quiet,
    }
}

/// Where a pass may write: WAL directories and span files go under the
/// build's target directory, inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("arm-bench")
}

/// A fresh WAL directory for one cluster of a production-config workload.
fn fresh_store_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_dir().join(format!("wal-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Share of the tasks sent that may end any other way than on time before a
/// live pass's outputs count as wrong (the issue's `failed_share` <= 0.002).
const MAX_FAILED_SHARE: f64 = 0.002;

/// The output checks of a live pass: the founder is still the only Resource
/// Manager the run saw, the wire stayed clean, every task got one terminal
/// outcome, and all but a sliver of them on time. The reasons, if not.
pub fn check_cluster(r: &LoadResult, stats: &[TransportStats]) -> Vec<String> {
    let mut problems = Vec::new();
    let (not_on_time, sent) = (r.ledger.not_on_time(), r.ledger.sent);
    if not_on_time as f64 > MAX_FAILED_SHARE * sent as f64 {
        problems.push(format!(
            "{not_on_time} of {sent} tasks did not end on time (more than {MAX_FAILED_SHARE})"
        ));
    }
    if r.stream_exhausted {
        problems.push(
            "the generator ran out of tasks before the load ended; provide for a higher rate in gen.rs"
                .into(),
        );
    }
    if r.promotions > 0 {
        problems.push(format!(
            "{} RM promotion(s) during the run (founder {FOUNDER} lost)",
            r.promotions
        ));
    }
    let decode: u64 = stats.iter().map(|s| s.decode_errors).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped()).sum();
    if decode > 0 {
        problems.push(format!("wire.decode_errors = {decode}"));
    }
    if dropped > 0 {
        problems.push(format!("wire.tcp.dropped = {dropped}"));
    }
    if r.ledger.stray_outcomes > 0 {
        problems.push(format!(
            "{} task(s) got a second terminal outcome",
            r.ledger.stray_outcomes
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result in which every task due in window `w` got its reply after
    /// `ms[w] / 2` and its outcome after `ms[w]` milliseconds, at `ms[w]`
    /// milliseconds of CPU a task; `None` is a window in which nothing ran.
    fn result(ms: &[Option<f64>]) -> LoadResult {
        const WINDOW_US: u64 = 1_000_000;
        const TASKS: u64 = 200;
        let mut ledger = Ledger::new(Windows::new(0, WINDOW_US, ms.len()));
        for (w, ms) in ms.iter().enumerate() {
            for i in 0..ms.map_or(0, |_| TASKS) {
                let task = w as u64 * TASKS + i;
                let due = w as u64 * WINDOW_US + i * 1_000;
                let after = |share: f64| due + (ms.unwrap() * 1e3 * share) as u64;
                ledger.sent(task, due, due);
                ledger.reply(task, after(0.5));
                ledger.outcome(task, TaskOutcome::CompletedOnTime, after(1.0));
            }
        }
        LoadResult {
            ledger,
            costs: ms
                .iter()
                .map(|ms| WindowCost {
                    cpu_ns: (ms.unwrap_or(0.0) * 1e6) as u64 * TASKS,
                    rm_cpu_ns: 0,
                    wall_s: 1.0,
                    clock_s: 1.0,
                })
                .collect(),
            stream_exhausted: false,
            drain_backlog_max: 0,
            promotions: 0,
            stamps: HashMap::new(),
        }
    }

    #[test]
    fn figures_are_medians_over_the_quietest_windows() {
        let r = result(&[5.0, 2.0, 9.0, 3.0, 88.0, 2.5].map(Some));
        let e = end_to_end(&r, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(e.quiet, vec![1, 5, 3]);
        assert_eq!(e.task_terminal_p50_ms, 2.5);
        assert_eq!(e.task_terminal_p90_ms, 2.5);
        assert_eq!(e.task_reply_p50_ms, 1.25);
        assert_eq!(e.cpu_ms_per_task, 2.5);
        assert_eq!(e.tasks_per_s, 200.0);
        // The sample count is the quiet windows'; the on-time share is
        // taken over every window asked for.
        assert_eq!((e.samples, e.admitted, e.on_time), (600, 1200, 1200));
    }

    #[test]
    fn only_the_windows_asked_for_and_never_an_empty_one() {
        let r = result(&[Some(5.0), Some(2.0), None, Some(3.0), Some(4.0)]);
        // Window 1 is the quietest of all but was not asked for; window 2
        // has no samples to take a median of.
        let e = end_to_end(&r, &[0, 2, 4]);
        assert_eq!(e.quiet, vec![4, 0]);
        assert_eq!(e.task_terminal_p50_ms, 4.5);
        let one = end_to_end(&r, &[3]);
        assert_eq!((one.quiet, one.task_terminal_p50_ms), (vec![3], 3.0));
    }

    #[test]
    fn a_pass_is_cut_into_whole_windows_of_about_a_second() {
        let t = Timing::for_seconds(28.0);
        assert_eq!((t.windows, t.window_secs), (28, 1.0));
        let t = Timing::for_seconds(10.4);
        assert_eq!((t.windows, t.window_secs), (10, 1.04));
        // A smoke run still has windows for both sides of the traced pass.
        let t = Timing::for_seconds(1.0);
        assert_eq!((t.windows, t.window_secs), (spec::MIN_WINDOWS, 0.25));
        assert!(t.warmup_secs <= 0.5);
    }
}
