//! The traced pass: spans recorded at the layer boundaries, from outside.
//!
//! Nothing in the program is instrumented. A [`TracedTransport`] (the public
//! `Transport` trait around the real transport) stamps every send, and a
//! wrapped `InboundSink` stamps every delivery into a peer's mailbox. With
//! the generator's submit stamps and the program's own reply/outcome stamps
//! that is enough to cut a task's life into boundary-to-boundary segments
//! that telescope: they sum to its terminal latency exactly.

use arm_model::ServiceGraph;
use arm_proto::{Message, TaskReplyKind, TraceCtx};
use arm_runtime::net::NetClock;
use arm_util::NodeId;
use arm_wire::{InboundSink, Transport, TransportError, TransportStats};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four messages on a task's path; everything else is background.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    TaskQuery,
    TaskReply,
    Compose,
    ComposeAck,
    Other,
}

/// One boundary crossing: a `send` call or a delivery into a mailbox.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub sent: bool,
    pub kind: Kind,
    /// Task id (query, reply) or session id (compose, ack); 0 for `Other`.
    pub key: u64,
    pub hop: u32,
    /// The task a `Compose` names; 0 elsewhere.
    pub task: u64,
    /// Start and end of the call, ns since the tracer's epoch.
    pub t0: u64,
    pub t1: u64,
}

fn classify(msg: &Message) -> (Kind, u64, u32, u64) {
    match msg {
        Message::TaskQuery { task } => (Kind::TaskQuery, task.id.raw(), 0, 0),
        Message::TaskReply { task, .. } => (Kind::TaskReply, task.raw(), 0, 0),
        Message::Compose {
            session,
            hop,
            graph,
            ..
        } => (Kind::Compose, session.raw(), *hop as u32, graph.task.raw()),
        Message::ComposeAck { session, hop, .. } => {
            (Kind::ComposeAck, session.raw(), *hop as u32, 0)
        }
        _ => (Kind::Other, 0, 0, 0),
    }
}

/// Collects boundary records from every peer of one cluster.
pub struct Tracer {
    epoch: Instant,
    /// Tracer time minus the cluster's `NetClock` time, ns.
    clock_offset_ns: i64,
    recording: AtomicBool,
    // One buffer per peer and direction, so the only contention is between
    // a peer's own socket reader threads.
    bufs: Vec<Mutex<Vec<Rec>>>,
    replies: Mutex<Vec<ServiceGraph>>,
}

impl Tracer {
    /// A tracer for peers `1..=peers` of the cluster that runs on `clock`.
    ///
    /// The tracer stamps in nanoseconds, the program stamps replies and
    /// outcomes in `NetClock` microseconds, and segments are differences
    /// between the two, so the offset between the clocks is measured here:
    /// the smallest of many tracer-minus-`NetClock` readings is the one taken
    /// just as a microsecond ticked over, which leaves the offset itself.
    pub fn new(peers: usize, clock: &NetClock) -> Arc<Self> {
        let epoch = Instant::now();
        let clock_offset_ns = (0..500)
            .map(|_| {
                let before = epoch.elapsed().as_nanos() as i64;
                let clock_ns = clock.now().as_micros() as i64 * 1_000;
                let after = epoch.elapsed().as_nanos() as i64;
                (before + after) / 2 - clock_ns
            })
            .min()
            .unwrap_or(0);
        Arc::new(Self {
            epoch,
            clock_offset_ns,
            recording: AtomicBool::new(false),
            bufs: (0..2 * peers).map(|_| Mutex::new(Vec::new())).collect(),
            replies: Mutex::new(Vec::new()),
        })
    }

    /// A `NetClock` stamp in tracer time, ns.
    pub fn clock_us_to_ns(&self, us: u64) -> u64 {
        (us as i64 * 1_000 + self.clock_offset_ns).max(0) as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switches recording; off, the wrappers cost one relaxed load.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn on(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn push(&self, at: NodeId, rec: Rec) {
        let idx = 2 * (at.raw() as usize - 1) + usize::from(rec.sent);
        if let Some(buf) = self.bufs.get(idx) {
            buf.lock().expect("trace buffer lock").push(rec);
        }
    }

    /// Wraps the sink that feeds `me`'s mailbox.
    pub fn wrap_sink(self: &Arc<Self>, me: NodeId, inner: InboundSink) -> InboundSink {
        let tracer = Arc::clone(self);
        Box::new(move |from: NodeId, msg: Message, ctx: TraceCtx| {
            if !tracer.on() {
                return inner(from, msg, ctx);
            }
            let (kind, key, hop, task) = classify(&msg);
            if let Message::TaskReply {
                reply: TaskReplyKind::Allocated(graph),
                ..
            } = &msg
            {
                tracer
                    .replies
                    .lock()
                    .expect("reply buffer lock")
                    .push(graph.clone());
            }
            let t0 = tracer.now_ns();
            inner(from, msg, ctx);
            let t1 = tracer.now_ns();
            tracer.push(
                me,
                Rec {
                    sent: false,
                    kind,
                    key,
                    hop,
                    task,
                    t0,
                    t1,
                },
            );
        })
    }

    /// Wraps a peer's transport.
    pub fn wrap_transport(self: &Arc<Self>, inner: Arc<dyn Transport>) -> Arc<dyn Transport> {
        Arc::new(TracedTransport {
            tracer: Arc::clone(self),
            inner,
        })
    }

    /// Everything recorded so far, and the allocated service graphs seen.
    pub fn take(&self) -> (Vec<Rec>, Vec<ServiceGraph>) {
        let mut recs = Vec::new();
        for buf in &self.bufs {
            recs.append(&mut buf.lock().expect("trace buffer lock"));
        }
        let replies = std::mem::take(&mut *self.replies.lock().expect("reply buffer lock"));
        (recs, replies)
    }
}

/// The public `Transport` trait around the real transport.
struct TracedTransport {
    tracer: Arc<Tracer>,
    inner: Arc<dyn Transport>,
}

impl Transport for TracedTransport {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, to: NodeId, msg: Message, ctx: TraceCtx) -> Result<(), TransportError> {
        if !self.tracer.on() {
            return self.inner.send(to, msg, ctx);
        }
        let (kind, key, hop, task) = classify(&msg);
        let t0 = self.tracer.now_ns();
        let result = self.inner.send(to, msg, ctx);
        let t1 = self.tracer.now_ns();
        self.tracer.push(
            self.inner.node(),
            Rec {
                sent: true,
                kind,
                key,
                hop,
                task,
                t0,
                t1,
            },
        );
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// What the generator and the program's telemetry know about one task, ns
/// since the tracer's epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskStamps {
    pub due: u64,
    /// When `NetPeer::submit` was called.
    pub sent: u64,
    /// `at` of the requester's `ReplyReceived`.
    pub reply_at: Option<u64>,
    /// `at` of the on-time terminal `Outcome`.
    pub outcome_at: Option<u64>,
}

/// One task's critical path, cut at the layer boundaries (all ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segments {
    pub task: u64,
    pub due: u64,
    /// Due -> `submit` called: the generator's own lag.
    pub gen_lag: u64,
    /// `submit` called -> requester starts sending `TaskQuery`.
    pub submit_to_query: u64,
    pub transit_query: u64,
    /// `TaskQuery` delivered at the RM -> RM starts sending the critical
    /// hop's `Compose` (mailbox wait + handling incl. Fig. 3 + earlier sends).
    pub rm_to_compose: u64,
    pub transit_compose: u64,
    /// `Compose` delivered -> hop peer starts sending `ComposeAck`.
    pub hop_turnaround: u64,
    pub transit_ack: u64,
    /// Last `ComposeAck` delivered at the RM -> terminal outcome stamped.
    pub ack_to_outcome: u64,
    /// `TaskQuery` delivered at the RM -> RM starts sending `TaskReply`.
    pub rm_turnaround: u64,
    pub transit_reply: u64,
    /// `TaskReply` delivered -> requester handles it.
    pub reply_to_handled: u64,
    /// Which hop's ack arrived last and so set the terminal time.
    pub critical_hop: u32,
}

impl Segments {
    /// The segments that block the terminal outcome, in path order.
    pub fn critical_path(&self) -> [(&'static str, u64); 8] {
        [
            ("gen.lag", self.gen_lag),
            ("runtime.submit_to_query", self.submit_to_query),
            ("wire.transit.task_query", self.transit_query),
            ("runtime.rm_to_compose", self.rm_to_compose),
            ("wire.transit.compose", self.transit_compose),
            ("runtime.hop_turnaround", self.hop_turnaround),
            ("wire.transit.compose_ack", self.transit_ack),
            ("runtime.ack_to_outcome", self.ack_to_outcome),
        ]
    }

    pub fn terminal(&self) -> u64 {
        self.critical_path().iter().map(|(_, d)| d).sum()
    }
}

/// Matches boundary records into per-task critical paths. Tasks with a
/// record missing (sent before recording started, still in flight when it
/// stopped, or rejected) are skipped; the count of matched tasks is the
/// sample count of every traced-pass timing.
pub fn match_segments(recs: &[Rec], stamps: &HashMap<u64, TaskStamps>) -> Vec<Segments> {
    // (sent, kind, key, hop) -> (t0, t1). Keys are unique per message:
    // one query and one reply per task, one compose and one ack per
    // (session, hop). Redirects and repairs re-send under the same key;
    // the first record wins and the rest only blur that task.
    let mut by_key: HashMap<(bool, Kind, u64, u32), &Rec> = HashMap::new();
    let mut hops_of_task: HashMap<u64, Vec<(u64, u32)>> = HashMap::new();
    for r in recs.iter().filter(|r| r.kind != Kind::Other) {
        by_key.entry((r.sent, r.kind, r.key, r.hop)).or_insert(r);
        if r.sent && r.kind == Kind::Compose {
            hops_of_task.entry(r.task).or_default().push((r.key, r.hop));
        }
    }
    let get = |sent: bool, kind: Kind, key: u64, hop: u32| by_key.get(&(sent, kind, key, hop));
    let mut out = Vec::new();
    for (&task, st) in stamps {
        let (Some(outcome_at), Some(reply_at)) = (st.outcome_at, st.reply_at) else {
            continue;
        };
        let found = (|| {
            let q_send = get(true, Kind::TaskQuery, task, 0)?;
            let q_recv = get(false, Kind::TaskQuery, task, 0)?;
            let r_send = get(true, Kind::TaskReply, task, 0)?;
            let r_recv = get(false, Kind::TaskReply, task, 0)?;
            // The hop whose ack reached the RM last set the outcome time.
            let mut critical: Option<(&Rec, &Rec, &Rec, &Rec)> = None;
            for &(session, hop) in hops_of_task.get(&task)? {
                let c_send = get(true, Kind::Compose, session, hop)?;
                let c_recv = get(false, Kind::Compose, session, hop)?;
                let a_send = get(true, Kind::ComposeAck, session, hop)?;
                let a_recv = get(false, Kind::ComposeAck, session, hop)?;
                if critical.is_none_or(|c| a_recv.t0 > c.3.t0) {
                    critical = Some((c_send, c_recv, a_send, a_recv));
                }
            }
            let (c_send, c_recv, a_send, a_recv) = critical?;
            let d = |later: u64, earlier: u64| later.checked_sub(earlier);
            Some(Segments {
                task,
                due: st.due,
                gen_lag: d(st.sent, st.due)?,
                submit_to_query: d(q_send.t0, st.sent)?,
                transit_query: d(q_recv.t0, q_send.t0)?,
                rm_to_compose: d(c_send.t0, q_recv.t0)?,
                transit_compose: d(c_recv.t0, c_send.t0)?,
                hop_turnaround: d(a_send.t0, c_recv.t0)?,
                transit_ack: d(a_recv.t0, a_send.t0)?,
                ack_to_outcome: d(outcome_at, a_recv.t0)?,
                rm_turnaround: d(r_send.t0, q_recv.t0)?,
                transit_reply: d(r_recv.t0, r_send.t0)?,
                reply_to_handled: d(reply_at, r_recv.t0)?,
                critical_hop: c_send.hop,
            })
        })();
        out.extend(found);
    }
    out.sort_by_key(|s| (s.due, s.task));
    out
}

/// Writes one root span per task and one child span per segment, as JSON
/// lines `{id, name, start_us, end_us, parent, task}`.
pub fn write_spans(path: &std::path::Path, segments: &[Segments]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut id = 0u64;
    let us = |ns: u64| ns as f64 / 1e3;
    for s in segments {
        id += 1;
        let root = id;
        writeln!(
            out,
            "{{\"id\":{root},\"name\":\"task\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":null,\"task\":{}}}",
            us(s.due),
            us(s.due + s.terminal()),
            s.task
        )?;
        let mut at = s.due;
        for (name, dur) in s.critical_path() {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{name}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{root},\"task\":{}}}",
                us(at),
                us(at + dur),
                s.task
            )?;
            at += dur;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sent: bool, kind: Kind, key: u64, hop: u32, task: u64, t0: u64) -> Rec {
        Rec {
            sent,
            kind,
            key,
            hop,
            task,
            t0,
            t1: t0 + 50,
        }
    }

    /// A synthetic two-hop task: the segments must telescope to the terminal
    /// latency, and the hop whose ack lands last must be the critical one.
    #[test]
    fn segments_sum_to_terminal_latency() {
        let task = 7;
        let session = 40;
        let recs = vec![
            rec(true, Kind::TaskQuery, task, 0, 0, 1_300),
            rec(false, Kind::TaskQuery, task, 0, 0, 1_900),
            rec(true, Kind::TaskReply, task, 0, 0, 2_400),
            rec(false, Kind::TaskReply, task, 0, 0, 2_950),
            rec(true, Kind::Compose, session, 0, task, 2_500),
            rec(false, Kind::Compose, session, 0, task, 3_000),
            rec(true, Kind::Compose, session, 1, task, 2_600),
            rec(false, Kind::Compose, session, 1, task, 3_200),
            rec(true, Kind::ComposeAck, session, 0, 0, 4_100),
            rec(false, Kind::ComposeAck, session, 0, 0, 4_600),
            rec(true, Kind::ComposeAck, session, 1, 0, 4_000),
            rec(false, Kind::ComposeAck, session, 1, 0, 4_400),
            // Background chatter and another task's partial records.
            rec(true, Kind::Other, 0, 0, 0, 1_000),
            rec(true, Kind::TaskQuery, 99, 0, 0, 1_000),
        ];
        let mut stamps = HashMap::new();
        stamps.insert(
            task,
            TaskStamps {
                due: 1_000,
                sent: 1_100,
                reply_at: Some(3_100),
                outcome_at: Some(4_900),
            },
        );
        stamps.insert(99, TaskStamps::default());
        let segs = match_segments(&recs, &stamps);
        assert_eq!(segs.len(), 1, "the unmatched task is skipped");
        let s = segs[0];
        assert_eq!(s.critical_hop, 0, "hop 0's ack arrived last");
        assert_eq!(s.terminal(), 4_900 - 1_000);
        assert_eq!(
            (s.gen_lag, s.submit_to_query, s.transit_query),
            (100, 200, 600)
        );
        assert_eq!(
            (s.rm_to_compose, s.transit_compose, s.hop_turnaround),
            (600, 500, 1_100)
        );
        assert_eq!((s.transit_ack, s.ack_to_outcome), (500, 300));
        assert_eq!(
            (s.rm_turnaround, s.transit_reply, s.reply_to_handled),
            (500, 550, 150)
        );
    }

    #[test]
    fn task_without_outcome_is_skipped() {
        let mut stamps = HashMap::new();
        stamps.insert(
            1,
            TaskStamps {
                due: 0,
                sent: 0,
                reply_at: Some(5),
                outcome_at: None,
            },
        );
        assert!(match_segments(&[], &stamps).is_empty());
    }
}
