//! The inline pass: each layer's public functions timed in isolation, on
//! the live workload's own cluster shape, config and task stream.
//!
//! The harness owns N `PeerNode`s on a virtual clock and is their driver:
//! messages are delivered FIFO with zero latency, timers fire at their
//! virtual due time, and every `on_event` call is timed. Each `Send` is
//! round-tripped through the real frame codec (timed), each `Persist`
//! appended to a real WAL (timed), and before the RM handles a `TaskQuery`
//! the Fig. 3 search is timed on an untimed clone of its state. No thread,
//! socket or wall-clock sleep is involved, so every *count* this pass
//! yields repeats exactly for equal inputs; the run checks that by
//! executing it twice.

use crate::gen::LiveInputs;
use crate::spec::{self, LiveSpec};
use crate::stats;
use arm_core::{Action, AllocMetrics, Event, PeerNode, ProtocolConfig, RmState, TimerKind};
use arm_des::Simulator;
use arm_model::task::TaskOutcome;
use arm_model::Importance;
use arm_proto::{Envelope, Message};
use arm_sched::{Job, LocalScheduler, SchedulerConfig};
use arm_store::{Store, LOG_FILE};
use arm_util::{DetRng, NodeId, SimDuration, SimTime};
use arm_wire::{FrameDecoder, WirePayload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Tasks the inline pass injects. At the workloads' rates this is 0.6 to
/// 1.5 virtual seconds: several session lifetimes, so the RM's session
/// table and the peers' loads reach their steady state.
pub const TASKS: usize = 3000;
/// Virtual time given to the overlay to form before the first task.
const BOOT: SimDuration = SimDuration::from_secs(1);
/// Virtual time run on after the last task, so sessions end and release.
const TAIL: SimDuration = SimDuration::from_millis(500);
/// Virtual seconds of the zero-task run behind `core.background_*`.
const BACKGROUND_SECS: u64 = 2;
/// Tasks whose Fig. 3 search is also timed against the idle (all loads
/// equal) state; that tie case runs to 16 ms a search on 32 peers.
const IDLE_PROBES: usize = 40;

/// What to measure besides `on_event` itself.
#[derive(Debug, Clone, Copy)]
struct Probes {
    /// Round-trip every message through the frame codec, timed.
    codec: bool,
    /// Time `RmState::allocate_task` on a clone before each `TaskQuery`.
    alloc: bool,
    /// `PeerNode::set_tracing`.
    tracing: bool,
}

/// Which `core.handle_ns.*` row an event belongs to.
fn handle_kind(event: &Event) -> &'static str {
    match event {
        Event::SubmitTask(_) => "submit",
        Event::Timer(TimerKind::SchedPoll) => "timer_sched_poll",
        Event::Timer(_) => "timer_other",
        Event::Msg { msg, .. } => codec_kind(msg),
        _ => "other",
    }
}

/// `Message::kind()` under the metric's spelling.
fn codec_kind(msg: &Message) -> &'static str {
    match msg.kind() {
        "gossip" => "gossip_digest",
        k => k,
    }
}

/// Calls and nanoseconds, by kind.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub calls: BTreeMap<&'static str, u64>,
    pub ns: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn add(&mut self, kind: &'static str, ns: u64) {
        *self.calls.entry(kind).or_default() += 1;
        *self.ns.entry(kind).or_default() += ns;
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.values().sum()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.values().sum()
    }

    /// Mean nanoseconds per call of `kind` (0 when never called).
    pub fn mean_ns(&self, kind: &str) -> f64 {
        match (self.ns.get(kind), self.calls.get(kind)) {
            (Some(&ns), Some(&calls)) if calls > 0 => ns as f64 / calls as f64,
            _ => 0.0,
        }
    }
}

/// One execution of the virtual-clock harness.
#[derive(Debug, Clone, Default)]
pub struct Execution {
    /// `on_event` calls during the task phase, by handle kind.
    pub handle: Tally,
    /// Frame encodes / decodes during the task phase, by message kind.
    pub encode: Tally,
    pub decode: Tally,
    pub frame_bytes: u64,
    /// `Action::Persist` and `Action::Trace` during the task phase.
    pub persists: u64,
    pub trace_events: u64,
    pub on_time: u64,
    pub not_on_time: u64,
    /// The RM's allocator counters over the task phase.
    pub alloc: AllocMetrics,
    /// Fig. 3 search time per task on the cloned live state, us.
    pub alloc_us: Vec<f64>,
    /// The same search on the idle state, us.
    pub alloc_idle_us: Vec<f64>,
    /// WAL appends, us each, and the WAL bytes they produced.
    pub append_us: Vec<f64>,
    pub wal_bytes: u64,
    pub snapshot_ms: f64,
    /// Setup jobs the hop peers queued, for the scheduler replay.
    jobs: Vec<Job>,
}

impl Execution {
    /// Every count that must repeat exactly for equal inputs.
    pub fn exact_counts(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .handle
            .calls
            .iter()
            .map(|(k, c)| (format!("calls.{k}"), *c))
            .collect();
        v.extend(
            self.encode
                .calls
                .iter()
                .map(|(k, c)| (format!("msgs.{k}"), *c)),
        );
        v.extend([
            ("frame_bytes".to_string(), self.frame_bytes),
            ("persists".to_string(), self.persists),
            ("trace_events".to_string(), self.trace_events),
            ("on_time".to_string(), self.on_time),
            ("not_on_time".to_string(), self.not_on_time),
            ("explored".to_string(), self.alloc.explored_prefixes),
            ("pruned_bound".to_string(), self.alloc.pruned_bound),
            ("pruned_dominated".to_string(), self.alloc.pruned_dominated),
            ("cache_hits".to_string(), self.alloc.cache_hits),
            ("cache_misses".to_string(), self.alloc.cache_misses),
        ]);
        v
    }
}

struct Harness {
    cfg: ProtocolConfig,
    nodes: Vec<PeerNode>,
    /// The virtual clock and event list: `(node index, event)` in time
    /// order, FIFO among equal times.
    queue: Simulator<(usize, Event)>,
    probes: Probes,
    decoder: FrameDecoder,
    stores: Option<Vec<Store>>,
    probe_rng: DetRng,
    idle_state: Option<RmState>,
    idle_probes_left: usize,
    /// Tallies are kept only while this is set (the task phase).
    measuring: bool,
    out: Execution,
}

impl Harness {
    fn new(
        spec: &LiveSpec,
        inputs: &LiveInputs,
        probes: Probes,
        store_root: Option<&Path>,
    ) -> Result<Self, String> {
        let cfg = spec::bench_protocol(spec.max_domain_size);
        let nodes = inputs
            .spawns
            .iter()
            .map(|s| {
                let mut n = PeerNode::new(
                    s.id,
                    s.capacity,
                    s.bandwidth_kbps,
                    s.objects.clone(),
                    s.services.clone(),
                    cfg.clone(),
                    7,
                    SimTime::ZERO,
                );
                n.set_tracing(probes.tracing);
                n
            })
            .collect();
        let stores = store_root
            .map(|root| {
                inputs
                    .spawns
                    .iter()
                    .map(|s| {
                        Store::fresh(&root.join(format!("node-{}", s.id.raw())))
                            .map_err(|e| format!("open WAL: {e:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let mut h = Self {
            cfg,
            nodes,
            queue: Simulator::new(),
            probes,
            decoder: FrameDecoder::new(),
            stores,
            probe_rng: DetRng::new(11),
            idle_state: None,
            idle_probes_left: IDLE_PROBES,
            measuring: false,
            out: Execution::default(),
        };
        for s in &inputs.spawns {
            h.push(
                SimTime::ZERO,
                s.id,
                Event::Start {
                    bootstrap: s.bootstrap,
                },
            );
        }
        Ok(h)
    }

    fn push(&mut self, at: SimTime, to: NodeId, event: Event) {
        self.queue.schedule_at(at, (to.raw() as usize - 1, event));
    }

    /// Handles everything due up to and including `until`.
    fn run_until(&mut self, until: SimTime) -> Result<(), String> {
        while let Some(due) = self.queue.step_until(until) {
            let (node, event) = due.event;
            self.handle(node, event)?;
        }
        Ok(())
    }

    fn handle(&mut self, idx: usize, event: Event) -> Result<(), String> {
        let me = self.nodes[idx].id();
        let kind = handle_kind(&event);
        if self.measuring {
            self.before_handle(idx, &event);
        }
        let started = Instant::now();
        let actions = self.nodes[idx].on_event(self.queue.now(), event);
        let ns = started.elapsed().as_nanos() as u64;
        if self.measuring {
            self.out.handle.add(kind, ns);
        }
        let ctx = self.nodes[idx].out_ctx();
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let msg = if self.probes.codec {
                        self.round_trip(Envelope {
                            from: me,
                            to,
                            trace: ctx,
                            msg,
                        })?
                    } else {
                        msg
                    };
                    if (to.raw() as usize) <= self.nodes.len() && to.raw() > 0 {
                        self.push(self.queue.now(), to, Event::Msg { from: me, msg, ctx });
                    }
                }
                Action::SetTimer { kind, after } => {
                    self.push(self.queue.now() + after, me, Event::Timer(kind))
                }
                Action::Outcome { outcome, .. } => {
                    if outcome == TaskOutcome::CompletedOnTime {
                        self.out.on_time += 1;
                    } else {
                        self.out.not_on_time += 1;
                    }
                }
                Action::Persist(intent) => {
                    if let Some(stores) = self.stores.as_mut() {
                        let started = Instant::now();
                        stores[idx]
                            .append(&intent)
                            .map_err(|e| format!("WAL append: {e:?}"))?;
                        let us = started.elapsed().as_nanos() as f64 / 1e3;
                        if self.measuring {
                            self.out.persists += 1;
                            self.out.append_us.push(us);
                        }
                    }
                }
                Action::Trace(_) if self.measuring => self.out.trace_events += 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Side measurements taken before the node sees the event: the Fig. 3
    /// probe ahead of a `TaskQuery` at the RM, and the setup job a
    /// `Compose` is about to queue.
    fn before_handle(&mut self, idx: usize, event: &Event) {
        let Event::Msg { msg, .. } = event else {
            return;
        };
        match msg {
            Message::TaskQuery { task } if self.probes.alloc => {
                let Some(state) = self.nodes[idx].rm_state() else {
                    return;
                };
                let mut live = state.clone();
                let started = Instant::now();
                let _ =
                    std::hint::black_box(live.allocate_task(task, &self.cfg, &mut self.probe_rng));
                self.out
                    .alloc_us
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
                if self.idle_probes_left > 0 {
                    if let Some(idle) = self.idle_state.as_mut() {
                        self.idle_probes_left -= 1;
                        let started = Instant::now();
                        let _ = std::hint::black_box(idle.allocate_task(
                            task,
                            &self.cfg,
                            &mut self.probe_rng,
                        ));
                        self.out
                            .alloc_idle_us
                            .push(started.elapsed().as_nanos() as f64 / 1e3);
                    }
                }
            }
            Message::Compose {
                graph,
                hop,
                deadline,
                ..
            } => {
                if let Some(h) = graph.hops.get(*hop).filter(|h| h.cost.setup_work > 0.0) {
                    self.out.jobs.push(Job {
                        id: arm_sched::JobId(self.out.jobs.len() as u64),
                        arrival: self.queue.now(),
                        deadline: *deadline,
                        work: h.cost.setup_work,
                        importance: Importance::NORMAL,
                    });
                }
            }
            _ => {}
        }
    }

    /// Encodes the envelope, decodes the frame, and hands back the decoded
    /// message — what `InMemoryTransport` does, with a stopwatch on each half.
    fn round_trip(&mut self, env: Envelope) -> Result<Message, String> {
        let kind = codec_kind(&env.msg);
        let payload = WirePayload::Envelope(env);
        let started = Instant::now();
        let bytes = arm_wire::encode(&payload);
        let enc_ns = started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        self.decoder.push(&bytes);
        let decoded = self.decoder.next_frame();
        let dec_ns = started.elapsed().as_nanos() as u64;
        if self.measuring {
            self.out.encode.add(kind, enc_ns);
            self.out.decode.add(kind, dec_ns);
            self.out.frame_bytes += bytes.len() as u64;
        }
        match decoded {
            Ok(Some(WirePayload::Envelope(env))) => Ok(env.msg),
            other => Err(format!("frame round-trip of a {kind} failed: {other:?}")),
        }
    }
}

/// Runs the harness once over the first [`TASKS`] tasks of the stream.
fn execute(
    spec: &LiveSpec,
    inputs: &LiveInputs,
    tasks: usize,
    probes: Probes,
    store_root: Option<&Path>,
) -> Result<Execution, String> {
    let mut h = Harness::new(spec, inputs, probes, store_root)?;
    h.run_until(SimTime::ZERO + BOOT)?;
    if h.nodes[0]
        .rm_state()
        .is_none_or(|s| s.members.len() != spec.peers)
    {
        return Err("inline pass: the overlay did not form in the boot second".into());
    }
    h.idle_state = h.nodes[0].rm_state().cloned();
    let alloc_before = h.nodes[0]
        .rm_state()
        .map(|s| s.alloc_metrics)
        .unwrap_or_default();
    // Evenly spaced at the workload's rate: a virtual clock cannot be paced
    // by completions, and even spacing keeps the counts independent of the
    // arrival draw.
    let gap_us = 1e6 / spec.nominal_rate_per_s;
    let mut last = h.queue.now();
    for (i, t) in inputs.stream.iter().take(tasks).enumerate() {
        last = SimTime::ZERO + BOOT + SimDuration::from_micros((i as f64 * gap_us) as u64);
        h.push(last, t.requester, Event::SubmitTask(t.task.clone()));
    }
    h.measuring = true;
    h.run_until(last + TAIL)?;
    h.measuring = false;
    let alloc_after = h.nodes[0]
        .rm_state()
        .map(|s| s.alloc_metrics)
        .unwrap_or_default();
    h.out.alloc = AllocMetrics {
        explored_prefixes: alloc_after.explored_prefixes - alloc_before.explored_prefixes,
        pruned_bound: alloc_after.pruned_bound - alloc_before.pruned_bound,
        pruned_dominated: alloc_after.pruned_dominated - alloc_before.pruned_dominated,
        cache_hits: alloc_after.cache_hits - alloc_before.cache_hits,
        cache_misses: alloc_after.cache_misses - alloc_before.cache_misses,
    };
    if let (Some(stores), Some(root)) = (h.stores.as_mut(), store_root) {
        h.out.wal_bytes = inputs
            .spawns
            .iter()
            .filter_map(|s| {
                std::fs::metadata(root.join(format!("node-{}", s.id.raw())).join(LOG_FILE)).ok()
            })
            .map(|m| m.len())
            .sum();
        let now = h.queue.now();
        let mut snap = h.nodes[0].store_snapshot(now, 0, false, now.as_micros());
        let started = Instant::now();
        stores[0]
            .install_snapshot(&mut snap)
            .map_err(|e| format!("install snapshot: {e:?}"))?;
        h.out.snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    }
    Ok(h.out)
}

/// Mean ns per `LocalScheduler::submit` and per `advance_to`, replaying the
/// captured setup-job stream into one scheduler configured like a peer's.
fn replay_scheduler(jobs: &[Job], cfg: &ProtocolConfig) -> (f64, f64) {
    let mut sched = LocalScheduler::new(SchedulerConfig {
        policy: cfg.sched_policy,
        capacity: spec::PEER_CAPACITY,
        quantum: Some(cfg.sched_poll),
        abort_late: false,
    });
    let (mut submit_ns, mut advance_ns) = (0u64, 0u64);
    for job in jobs {
        let started = Instant::now();
        sched.advance_to(job.arrival);
        advance_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        sched.submit(job.clone());
        submit_ns += started.elapsed().as_nanos() as u64;
        // What `harvest_setups` does on every event, or the logs grow.
        let _ = sched.take_completed();
        let _ = sched.take_decisions();
    }
    let n = jobs.len().max(1) as f64;
    (submit_ns as f64 / n, advance_ns as f64 / n)
}

/// Everything the inline pass reports for one live workload.
#[derive(Debug, Clone, Default)]
pub struct InlineResult {
    pub tasks: u64,
    pub exec: Execution,
    pub sched_submit_ns: f64,
    pub sched_advance_ns: f64,
    /// `on_event` us per peer per virtual second with no tasks at all.
    pub background_us_per_peer_s: f64,
    /// Share of `on_event` time that `set_tracing(true)` adds; 0 unless the
    /// workload runs the production config.
    pub trace_tax_share: f64,
}

impl InlineResult {
    pub fn per_task(&self, count: u64) -> f64 {
        count as f64 / self.tasks.max(1) as f64
    }

    /// CPU the inline rows account for, us per task: `PeerNode` handling
    /// (Fig. 3 and LLF included), frame encode and decode, WAL appends.
    pub fn attributed_cpu_us_per_task(&self) -> f64 {
        let e = &self.exec;
        let ns = e.handle.total_ns() + e.encode.total_ns() + e.decode.total_ns();
        (ns as f64 / 1e3 + e.append_us.iter().sum::<f64>()) / self.tasks.max(1) as f64
    }

    pub fn alloc_us_p90(&self) -> f64 {
        stats::percentile_or_zero(&mut self.exec.alloc_us.clone(), 0.9)
    }

    pub fn append_us_p90(&self) -> f64 {
        stats::percentile_or_zero(&mut self.exec.append_us.clone(), 0.9)
    }
}

/// The whole inline pass for one live workload. `scratch` is where the WAL
/// of a production-config workload goes. Fails if a task misses its
/// deadline or if a second execution counts anything differently.
pub fn run(
    spec: &LiveSpec,
    inputs: &LiveInputs,
    scratch: &Path,
    tasks: usize,
) -> Result<InlineResult, String> {
    let tasks = tasks.min(inputs.stream.len());
    let store_root = scratch.join(format!("inline-wal-{}", std::process::id()));
    let full = Probes {
        codec: true,
        alloc: true,
        tracing: spec.production,
    };
    let store = spec.production.then_some(store_root.as_path());
    let exec = execute(spec, inputs, tasks, full, store)?;
    // Same inputs again; only the counts are compared, so the Fig. 3 probe
    // (which counts nothing) is left out.
    let again = execute(
        spec,
        inputs,
        tasks,
        Probes {
            alloc: false,
            ..full
        },
        store,
    )?;
    let _ = std::fs::remove_dir_all(&store_root);
    if exec.on_time != tasks as u64 || exec.not_on_time != 0 {
        return Err(format!(
            "inline pass: {} of {tasks} injected tasks on time, {} otherwise",
            exec.on_time, exec.not_on_time
        ));
    }
    if exec.exact_counts() != again.exact_counts() {
        let diff: Vec<_> = exec
            .exact_counts()
            .into_iter()
            .zip(again.exact_counts())
            .filter(|(a, b)| a != b)
            .collect();
        return Err(format!(
            "inline pass: counts differ between two executions: {diff:?}"
        ));
    }

    // Tracing tax: the same input with `set_tracing` off and on, nothing
    // else measured; each side the smaller of two runs, taken alternately.
    let handling_ns = |tracing: bool| -> Result<u64, String> {
        let probes = Probes {
            codec: false,
            alloc: false,
            tracing,
        };
        Ok(execute(spec, inputs, tasks, probes, None)?
            .handle
            .total_ns())
    };
    let trace_tax_share = if spec.production {
        let (off1, on1, off2, on2) = (
            handling_ns(false)?,
            handling_ns(true)?,
            handling_ns(false)?,
            handling_ns(true)?,
        );
        let (off, on) = (off1.min(off2), on1.min(on2));
        on.saturating_sub(off) as f64 / on.max(1) as f64
    } else {
        0.0
    };
    // Background: a formed overlay left alone — heartbeats, load reports,
    // backup shipping, adaptation ticks — for BACKGROUND_SECS virtual seconds.
    let background_us_per_peer_s = {
        let probes = Probes {
            codec: false,
            alloc: false,
            tracing: spec.production,
        };
        let mut h = Harness::new(spec, inputs, probes, None)?;
        h.run_until(SimTime::ZERO + BOOT)?;
        h.measuring = true;
        h.run_until(SimTime::ZERO + BOOT + SimDuration::from_secs(BACKGROUND_SECS))?;
        h.out.handle.total_ns() as f64 / 1e3 / (spec.peers as f64 * BACKGROUND_SECS as f64)
    };
    let cfg = spec::bench_protocol(spec.max_domain_size);
    let (sched_submit_ns, sched_advance_ns) = replay_scheduler(&exec.jobs, &cfg);
    Ok(InlineResult {
        tasks: tasks as u64,
        exec,
        sched_submit_ns,
        sched_advance_ns,
        background_us_per_peer_s,
        trace_tax_share,
    })
}
