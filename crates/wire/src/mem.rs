//! Deterministic in-memory transport for tests.
//!
//! [`MemHub`] is a process-local "network": every [`InMemoryTransport`]
//! registered with the same hub can reach every other by `NodeId`. Delivery
//! is synchronous — `send` encodes the message through the real frame codec,
//! decodes it on the receiving side, and invokes the destination's sink
//! before returning — so tests see a fully deterministic ordering while
//! still exercising the exact bytes that would cross a socket.
//!
//! Fault injection: [`MemHub::partition`] makes a directed pair unreachable
//! (sends drop and count), [`MemHub::heal`] restores it.

use crate::frame::{encode, FrameDecoder};
use crate::transport::{InboundSink, LinkCounters, Transport, TransportError, TransportStats};
use crate::WirePayload;
use arm_proto::{Envelope, Message, TraceCtx};
use arm_util::{Lock, NodeId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct Endpoint {
    sink: InboundSink,
    /// Counters for traffic *into* this endpoint, keyed by sender.
    inbound: Lock<HashMap<NodeId, Arc<LinkCounters>>>,
}

#[derive(Default)]
struct HubInner {
    endpoints: Lock<HashMap<NodeId, Arc<Endpoint>>>,
    /// Directed `(from, to)` pairs currently unreachable.
    cuts: Lock<HashSet<(NodeId, NodeId)>>,
}

/// A process-local network connecting [`InMemoryTransport`] endpoints.
#[derive(Clone, Default)]
pub struct MemHub {
    inner: Arc<HubInner>,
}

impl MemHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `node` on the hub, delivering its inbound messages to
    /// `sink`. Replaces any previous endpoint for the same id.
    pub fn register(&self, node: NodeId, sink: InboundSink) -> InMemoryTransport {
        let endpoint = Arc::new(Endpoint {
            sink,
            inbound: Lock::new(HashMap::new()),
        });
        self.inner.endpoints.lock().insert(node, endpoint);
        InMemoryTransport {
            node,
            hub: self.clone(),
            links: Arc::new(Lock::new(HashMap::new())),
            decode_errors: Arc::new(AtomicU64::new(0)),
            down: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Makes messages from `from` to `to` drop until [`MemHub::heal`].
    pub fn partition(&self, from: NodeId, to: NodeId) {
        self.inner.cuts.lock().insert((from, to));
    }

    /// Restores the directed pair cut by [`MemHub::partition`].
    pub fn heal(&self, from: NodeId, to: NodeId) {
        self.inner.cuts.lock().remove(&(from, to));
    }
}

/// One endpoint on a [`MemHub`]; implements [`Transport`] with synchronous,
/// deterministic delivery through the real frame codec.
pub struct InMemoryTransport {
    node: NodeId,
    hub: MemHub,
    /// Outbound counters keyed by destination.
    links: Arc<Lock<HashMap<NodeId, Arc<LinkCounters>>>>,
    decode_errors: Arc<AtomicU64>,
    down: Arc<AtomicBool>,
}

impl InMemoryTransport {
    fn out_counters(&self, to: NodeId) -> Arc<LinkCounters> {
        let mut links = self.links.lock();
        let counters = links.entry(to).or_default();
        counters.connected.store(true, Ordering::Relaxed);
        Arc::clone(counters)
    }
}

impl Transport for InMemoryTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&self, to: NodeId, msg: Message, ctx: TraceCtx) -> Result<(), TransportError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(TransportError::Shutdown);
        }
        let counters = self.out_counters(to);
        if self.hub.inner.cuts.lock().contains(&(self.node, to)) {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let endpoint = match self.hub.inner.endpoints.lock().get(&to) {
            Some(ep) => Arc::clone(ep),
            None => return Err(TransportError::Unroutable(to)),
        };
        // Round-trip the real codec so in-memory tests cover the exact bytes
        // a socket would carry.
        let bytes = encode(&WirePayload::Envelope(Envelope {
            from: self.node,
            to,
            trace: ctx,
            msg,
        }));
        counters.msgs_out.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        match dec.next_frame() {
            Ok(Some(WirePayload::Envelope(env))) => {
                let in_counters = Arc::clone(endpoint.inbound.lock().entry(self.node).or_default());
                in_counters.msgs_in.fetch_add(1, Ordering::Relaxed);
                in_counters
                    .bytes_in
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                (endpoint.sink)(env.from, env.msg, env.trace);
                Ok(())
            }
            other => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                Err(TransportError::Io(format!(
                    "in-memory codec round-trip failed: {other:?}"
                )))
            }
        }
    }

    fn stats(&self) -> TransportStats {
        // Merge outbound counters with inbound counters recorded on our own
        // endpoint, keyed by remote peer.
        let mut merged: Vec<_> = self
            .links
            .lock()
            .iter()
            .map(|(peer, c)| c.snapshot(*peer))
            .collect();
        let own = self.hub.inner.endpoints.lock().get(&self.node).cloned();
        if let Some(ep) = own {
            for (peer, c) in ep.inbound.lock().iter() {
                let snap = c.snapshot(*peer);
                match merged.iter_mut().find(|l| l.peer == *peer) {
                    Some(l) => {
                        l.msgs_in = l.msgs_in.saturating_add(snap.msgs_in);
                        l.bytes_in = l.bytes_in.saturating_add(snap.bytes_in);
                    }
                    None => merged.push(snap),
                }
            }
        }
        merged.sort_by_key(|l| l.peer);
        TransportStats {
            node: self.node,
            links: merged,
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            // The in-memory hub has no byte streams to poison and no
            // kill_link fault injection.
            poisoned_streams: 0,
            killed_links: 0,
        }
    }

    fn shutdown(&self) {
        self.down.store(true, Ordering::SeqCst);
        self.hub.inner.endpoints.lock().remove(&self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::SimTime;
    use std::sync::mpsc::channel;

    fn hb(from: u64) -> Message {
        Message::Heartbeat {
            from: NodeId::new(from),
            sent_at: SimTime::from_millis(1),
        }
    }

    #[test]
    fn synchronous_delivery_through_codec() {
        let hub = MemHub::new();
        let (tx, rx) = channel();
        let a = hub.register(NodeId::new(1), Box::new(|_, _, _| {}));
        let _b = hub.register(
            NodeId::new(2),
            Box::new(move |from, msg, _ctx| {
                let _ = tx.send((from, msg));
            }),
        );
        a.send(NodeId::new(2), hb(1), TraceCtx::NONE).unwrap();
        // Delivery is synchronous: already in the channel.
        let (from, msg) = rx.try_recv().unwrap();
        assert_eq!(from, NodeId::new(1));
        assert_eq!(msg, hb(1));
        let stats = a.stats();
        assert_eq!(stats.msgs_out(), 1);
        assert!(stats.bytes_out() > 0);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn unknown_destination_is_unroutable() {
        let hub = MemHub::new();
        let a = hub.register(NodeId::new(1), Box::new(|_, _, _| {}));
        assert_eq!(
            a.send(NodeId::new(9), hb(1), TraceCtx::NONE),
            Err(TransportError::Unroutable(NodeId::new(9)))
        );
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let hub = MemHub::new();
        let (tx, rx) = channel();
        let a = hub.register(NodeId::new(1), Box::new(|_, _, _| {}));
        let _b = hub.register(
            NodeId::new(2),
            Box::new(move |from, msg, _ctx| {
                let _ = tx.send((from, msg));
            }),
        );
        hub.partition(NodeId::new(1), NodeId::new(2));
        a.send(NodeId::new(2), hb(1), TraceCtx::NONE).unwrap();
        assert!(rx.try_recv().is_err());
        assert_eq!(a.stats().dropped(), 1);
        hub.heal(NodeId::new(1), NodeId::new(2));
        a.send(NodeId::new(2), hb(1), TraceCtx::NONE).unwrap();
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn trace_context_survives_the_codec() {
        let hub = MemHub::new();
        let (tx, rx) = channel();
        let a = hub.register(NodeId::new(1), Box::new(|_, _, _| {}));
        let _b = hub.register(
            NodeId::new(2),
            Box::new(move |from, msg, ctx| {
                let _ = tx.send((from, msg, ctx));
            }),
        );
        let ctx = TraceCtx {
            trace_id: 7,
            parent_span: (1u64 << 32) | 3,
            flags: 1,
        };
        a.send(NodeId::new(2), hb(1), ctx).unwrap();
        let (_, _, got) = rx.try_recv().unwrap();
        assert_eq!(got, ctx);
    }

    #[test]
    fn inbound_counters_appear_in_stats() {
        let hub = MemHub::new();
        let a = hub.register(NodeId::new(1), Box::new(|_, _, _| {}));
        let b = hub.register(NodeId::new(2), Box::new(|_, _, _| {}));
        a.send(NodeId::new(2), hb(1), TraceCtx::NONE).unwrap();
        let stats = b.stats();
        assert_eq!(stats.msgs_in(), 1);
        assert!(stats.bytes_in() > 0);
    }
}
