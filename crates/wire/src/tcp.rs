//! [`TcpTransport`]: the wire subsystem over real `std::net` sockets.
//!
//! # Threading model
//!
//! * one **accept loop** thread per transport;
//! * one **reader** thread per live socket — reads chunks, runs the
//!   [`FrameDecoder`], hands decoded messages to the inbound sink;
//! * one **writer** thread per link (`NodeId` destination) — drains a
//!   bounded outbound queue, owns the connection lifecycle: it dials (with
//!   capped exponential backoff), adopts sockets accepted by the listener,
//!   and redials transparently when a connection dies.
//!
//! # Handshake
//!
//! The first frame in each direction of a fresh connection is a
//! [`Hello`](crate::Hello): the dialer introduces itself, the acceptor
//! replies in kind. Hellos carry the sender's listen address plus a gossip
//! of its address book, so `NodeId → address` mappings propagate along the
//! overlay without a central registry — a joining peer only needs its
//! bootstrap address, exactly like the §4.1 join protocol only needs a
//! contact peer.
//!
//! # Loss semantics
//!
//! `send` never blocks: a full outbound queue or an unroutable destination
//! drops the message and bumps a counter. The middleware is built for lossy
//! links (heartbeats, load reports and gossip are periodic; joins retry), so
//! dropping under pressure beats unbounded buffering.

use crate::frame::{encode, DecodeError, FrameDecoder};
use crate::status::StatusProvider;
use crate::transport::{InboundSink, LinkCounters, Transport, TransportError, TransportStats};
use crate::{Hello, WirePayload};
use arm_proto::{Envelope, Message, TraceCtx};
use arm_util::{Lock, NodeId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`TcpTransport`]. Every caller runs [`TcpOptions::default`];
/// the fields are crate-private so only this module's tests move them.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Outbound queue capacity per link (frames). A full queue drops.
    pub(crate) outbound_queue: usize,
    /// First reconnect delay; doubles per failed attempt.
    pub(crate) base_backoff: Duration,
    /// Backoff ceiling.
    pub(crate) max_backoff: Duration,
    /// Dial attempts per reconnect episode before the frame is dropped.
    pub(crate) max_dial_attempts: u32,
    /// Per-dial TCP connect timeout.
    pub(crate) dial_timeout: Duration,
    /// Socket read poll interval (bounds shutdown latency).
    pub(crate) read_timeout: Duration,
    /// How long `connect` waits for the remote `Hello`.
    pub(crate) hello_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            outbound_queue: 1024,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            max_dial_attempts: 6,
            dial_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_millis(100),
            hello_timeout: Duration::from_secs(3),
        }
    }
}

/// Commands consumed by a link's writer thread.
enum WriterCmd {
    /// Write one encoded frame.
    Frame(Vec<u8>),
    /// Take ownership of the write half of an accepted socket.
    Adopt(TcpStream),
    /// Close the current connection (testing / fault injection). The link
    /// itself survives: the next frame triggers a reconnect.
    KillConn,
    /// Writer thread exits.
    Shutdown,
}

struct Link {
    tx: SyncSender<WriterCmd>,
    counters: Arc<LinkCounters>,
}

/// Address-book capacity. The book is a gossip-learned routing hint —
/// connections re-learn addresses from `Hello` handshakes — so beyond the
/// cap an arbitrary entry is evicted rather than letting unbounded peer
/// churn grow the map forever.
const BOOK_CAP: usize = 8192;

struct Inner {
    node: NodeId,
    listen: SocketAddr,
    opts: TcpOptions,
    sink: InboundSink,
    /// Answers inbound `StatusRequest` frames (introspection plane); unset
    /// transports simply ignore them. Set once and read without a lock, so
    /// the provider never runs under a guard.
    status: OnceLock<StatusProvider>,
    links: Lock<HashMap<NodeId, Link>>,
    book: Lock<HashMap<NodeId, SocketAddr>>,
    decode_errors: AtomicU64,
    poisoned_streams: AtomicU64,
    killed_links: AtomicU64,
    shutdown: AtomicBool,
    threads: Lock<Vec<JoinHandle<()>>>,
}

/// The wire subsystem over real TCP sockets. See the module docs.
pub struct TcpTransport {
    inner: Arc<Inner>,
}

impl TcpTransport {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`) and starts the accept loop.
    pub fn bind(
        node: NodeId,
        listen: &str,
        sink: InboundSink,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(listen)
            .map_err(|e| TransportError::Io(format!("binding {listen}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let inner = Arc::new(Inner {
            node,
            listen: local,
            opts,
            sink,
            status: OnceLock::new(),
            links: Lock::new(HashMap::new()),
            book: Lock::new(HashMap::new()),
            decode_errors: AtomicU64::new(0),
            poisoned_streams: AtomicU64::new(0),
            killed_links: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            threads: Lock::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(format!("wire-accept-{node}"))
            .spawn(move || accept_main(accept_inner, listener))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        inner.track_thread(handle);
        Ok(Self { inner })
    }

    /// The address the transport actually listens on (resolves `:0` ports).
    pub fn listen_addr(&self) -> SocketAddr {
        self.inner.listen
    }

    /// Dials a peer by address, exchanges `Hello`s, registers the link, and
    /// returns the remote peer's id. This is how a node bootstraps: it knows
    /// only an address, and learns the `NodeId` from the handshake.
    pub fn connect(&self, addr: &str) -> Result<NodeId, TransportError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(TransportError::Shutdown);
        }
        let sockaddr = resolve(addr)?;
        let mut stream = TcpStream::connect_timeout(&sockaddr, inner.opts.dial_timeout)
            .map_err(|e| TransportError::Io(format!("dialing {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .write_all(&inner.hello_frame())
            .map_err(|e| TransportError::Io(format!("handshake write to {addr}: {e}")))?;
        let _ = stream.set_read_timeout(Some(inner.opts.read_timeout));
        // Wait for the remote Hello; deliver any envelopes that arrive early.
        let timeout = inner.opts.hello_timeout;
        let hello = await_frame(&mut stream, timeout, |payload| match payload {
            WirePayload::Hello(h) => Some(h),
            WirePayload::Envelope(env) => {
                (inner.sink)(env.from, env.msg, env.trace);
                None
            }
            // Introspection frames are not expected during a handshake;
            // skip them.
            WirePayload::StatusRequest(_) | WirePayload::StatusReport(_) => None,
        })
        .map_err(|e| {
            TransportError::Io(match e {
                AwaitError::Deadline => format!("no Hello from {addr}"),
                AwaitError::Closed => format!("{addr} closed during handshake"),
                AwaitError::Decode { error, poisoned } => {
                    inner.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if poisoned {
                        inner.poisoned_streams.fetch_add(1, Ordering::Relaxed);
                    }
                    format!("handshake with {addr}: {error}")
                }
                AwaitError::Read(e) => format!("handshake read from {addr}: {e}"),
            })
        })?;
        // The address we dialed is authoritative for this peer.
        inner.remember_route(hello.node, sockaddr, true);
        inner.learn(&hello);
        let link = inner.ensure_link(hello.node);
        if let Ok(clone) = stream.try_clone() {
            let _ = link.try_send(WriterCmd::Adopt(clone));
        }
        inner.spawn_reader(stream, Some(hello.node), false);
        Ok(hello.node)
    }

    /// Forcibly closes the current connection to `to` (fault injection for
    /// tests). The link survives; the next send reconnects with backoff.
    pub fn kill_link(&self, to: NodeId) {
        if let Some(link) = self.inner.links.lock().get(&to) {
            if link.tx.try_send(WriterCmd::KillConn).is_ok() {
                self.inner.killed_links.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Registers an address for a peer without connecting yet.
    pub fn add_route(&self, node: NodeId, addr: &str) -> Result<(), TransportError> {
        let sockaddr = resolve(addr)?;
        self.inner.remember_route(node, sockaddr, true);
        Ok(())
    }

    /// Installs the answerer for inbound [`StatusRequest`](crate::StatusRequest)
    /// frames. The provider runs on reader threads, so it must be cheap and
    /// must not call back into the transport. It is set once: a second call
    /// is ignored and the first provider stays.
    pub fn set_status_provider(&self, provider: StatusProvider) {
        let _ = self.inner.status.set(provider);
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn send(&self, to: NodeId, msg: Message, ctx: TraceCtx) -> Result<(), TransportError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(TransportError::Shutdown);
        }
        if to == inner.node {
            // Loopback short-circuit: no frame, no socket.
            (inner.sink)(inner.node, msg, ctx);
            return Ok(());
        }
        let linked = inner.links.lock().contains_key(&to);
        let routable = linked || inner.book.lock().contains_key(&to);
        if !routable {
            return Err(TransportError::Unroutable(to));
        }
        let bytes = encode(&WirePayload::Envelope(Envelope {
            from: inner.node,
            to,
            trace: ctx,
            msg,
        }));
        let link = inner.ensure_link(to);
        match link.try_send(WriterCmd::Frame(bytes)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                if let Some(l) = inner.links.lock().get(&to) {
                    l.counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(TransportError::QueueFull(to))
            }
            Err(TrySendError::Disconnected(_)) => Err(TransportError::Shutdown),
        }
    }

    fn stats(&self) -> TransportStats {
        let mut links: Vec<_> = self
            .inner
            .links
            .lock()
            .iter()
            .map(|(peer, link)| link.counters.snapshot(*peer))
            .collect();
        links.sort_by_key(|l| l.peer);
        TransportStats {
            node: self.inner.node,
            links,
            decode_errors: self.inner.decode_errors.load(Ordering::Relaxed),
            poisoned_streams: self.inner.poisoned_streams.load(Ordering::Relaxed),
            killed_links: self.inner.killed_links.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        let inner = &self.inner;
        if inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for link in inner.links.lock().values() {
            let _ = link.tx.try_send(WriterCmd::Shutdown);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&inner.listen, Duration::from_millis(250));
        // Two passes: joining the first batch may let spawning threads
        // finish registering their children.
        for _ in 0..2 {
            let handles: Vec<_> = std::mem::take(&mut *inner.threads.lock());
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A handle for enqueueing onto a link without holding the links lock.
struct LinkHandle {
    tx: SyncSender<WriterCmd>,
}

impl LinkHandle {
    fn try_send(&self, cmd: WriterCmd) -> Result<(), TrySendError<WriterCmd>> {
        self.tx.try_send(cmd)
    }
}

impl Inner {
    fn hello_frame(&self) -> Vec<u8> {
        // Gossip a bounded slice of the address book so routes spread along
        // the overlay without unbounded hello frames.
        let peers: Vec<(NodeId, String)> = self
            .book
            .lock()
            .iter()
            .take(64)
            .map(|(n, a)| (*n, a.to_string()))
            .collect();
        encode(&WirePayload::Hello(Hello {
            node: self.node,
            listen: Some(self.listen.to_string()),
            peers,
        }))
    }

    /// Records `node → addr` in the address book, evicting an arbitrary
    /// other entry at [`BOOK_CAP`]. Authoritative updates (handshakes,
    /// explicit routes) overwrite; gossip only fills gaps.
    fn remember_route(&self, node: NodeId, addr: SocketAddr, authoritative: bool) {
        let mut book = self.book.lock();
        if book.len() >= BOOK_CAP && !book.contains_key(&node) {
            if let Some(stale) = book.keys().next().copied() {
                book.remove(&stale);
            }
        }
        match book.entry(node) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if authoritative {
                    e.insert(addr);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(addr);
            }
        }
    }

    /// Merges addressing information from a received `Hello`.
    fn learn(&self, hello: &Hello) {
        if let Some(listen) = &hello.listen {
            if let Ok(addr) = resolve(listen) {
                // A peer is authoritative about its own listen address.
                self.remember_route(hello.node, addr, true);
            }
        }
        for (node, addr) in &hello.peers {
            if *node == self.node {
                continue;
            }
            if let Ok(addr) = resolve(addr) {
                self.remember_route(*node, addr, false);
            }
        }
    }

    /// Returns a send handle for the link to `to`, creating the link (and
    /// its writer thread) on first use.
    fn ensure_link(self: &Arc<Self>, to: NodeId) -> LinkHandle {
        let mut links = self.links.lock();
        if let Some(link) = links.get(&to) {
            return LinkHandle {
                tx: link.tx.clone(),
            };
        }
        let (tx, rx) = sync_channel::<WriterCmd>(self.opts.outbound_queue);
        let counters = Arc::new(LinkCounters::default());
        links.insert(
            to,
            Link {
                tx: tx.clone(),
                counters: Arc::clone(&counters),
            },
        );
        drop(links);
        let inner = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("wire-writer-{}-{to}", self.node))
            .spawn(move || writer_main(inner, to, rx, counters));
        if let Ok(handle) = spawned {
            self.track_thread(handle);
        } else {
            // Thread exhaustion: unregister the stillborn link. The closure
            // (and `rx`) was dropped, so sends on this handle fail cleanly
            // and the next send re-attempts the spawn.
            self.links.lock().remove(&to);
        }
        LinkHandle { tx }
    }

    fn counters_of(&self, peer: NodeId) -> Option<Arc<LinkCounters>> {
        self.links
            .lock()
            .get(&peer)
            .map(|l| Arc::clone(&l.counters))
    }

    /// Tracks a worker thread for join-on-shutdown, first reaping handles
    /// whose threads already exited — reconnect churn would otherwise
    /// accumulate dead `JoinHandle`s for the lifetime of the transport.
    fn track_thread(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }

    fn spawn_reader(self: &Arc<Self>, stream: TcpStream, peer: Option<NodeId>, accepted: bool) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(self);
        let name = format!("wire-reader-{}", self.node);
        // On spawn failure (thread exhaustion) the closure — and the stream —
        // is dropped, closing the socket; the remote sees a plain disconnect.
        if let Ok(handle) = std::thread::Builder::new()
            .name(name)
            .spawn(move || reader_main(inner, stream, peer, accepted))
        {
            self.track_thread(handle);
        }
    }
}

pub(crate) fn resolve(addr: &str) -> Result<SocketAddr, TransportError> {
    addr.to_socket_addrs()
        .map_err(|e| TransportError::Io(format!("resolving {addr}: {e}")))?
        .next()
        .ok_or_else(|| TransportError::Io(format!("{addr} resolves to nothing")))
}

/// Why [`await_frame`] gave up; each caller words its own error.
pub(crate) enum AwaitError {
    /// The timeout passed first.
    Deadline,
    /// The remote closed the connection.
    Closed,
    /// The stream did not decode.
    Decode {
        error: DecodeError,
        /// The decoder lost framing for good (see
        /// [`FrameDecoder::is_poisoned`]).
        poisoned: bool,
    },
    /// The socket failed.
    Read(std::io::Error),
}

/// Reads `stream` until `want` accepts a frame or `timeout` passes,
/// offering it every frame that arrives in between. The stream's read
/// timeout is the caller's and bounds how late the timeout is noticed.
pub(crate) fn await_frame<T>(
    stream: &mut TcpStream,
    timeout: Duration,
    mut want: impl FnMut(WirePayload) -> Option<T>,
) -> Result<T, AwaitError> {
    let started = Instant::now();
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if started.elapsed() > timeout {
            return Err(AwaitError::Deadline);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(AwaitError::Closed),
            Ok(n) => {
                // `read` returns at most `buf.len()`.
                dec.push(buf.get(..n).unwrap_or(&buf));
                loop {
                    match dec.next_frame() {
                        Ok(None) => break,
                        Ok(Some(payload)) => {
                            if let Some(found) = want(payload) {
                                return Ok(found);
                            }
                        }
                        Err(error) => {
                            let poisoned = dec.is_poisoned();
                            return Err(AwaitError::Decode { error, poisoned });
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(AwaitError::Read(e)),
        }
    }
}

fn accept_main(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                inner.spawn_reader(stream, None, true);
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Reads frames off one socket until EOF, error, or shutdown.
///
/// For accepted sockets the first frame must be the dialer's `Hello`; the
/// reader replies with its own `Hello` and hands the write half to the
/// link's writer thread.
fn reader_main(inner: Arc<Inner>, mut stream: TcpStream, peer: Option<NodeId>, accepted: bool) {
    let _ = stream.set_read_timeout(Some(inner.opts.read_timeout));
    let mut peer = peer;
    let mut counters = peer.and_then(|p| inner.counters_of(p));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(c) = &counters {
                    c.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                }
                // `read` returns at most `buf.len()`.
                dec.push(buf.get(..n).unwrap_or(&buf));
                loop {
                    match dec.next_frame() {
                        Ok(None) => break,
                        Ok(Some(WirePayload::Hello(h))) => {
                            inner.learn(&h);
                            let first_hello = peer.is_none();
                            peer = Some(h.node);
                            if accepted && first_hello {
                                // Introduce ourselves on the same socket,
                                // then give its write half to the writer.
                                if stream.write_all(&inner.hello_frame()).is_err() {
                                    return;
                                }
                                let link = inner.ensure_link(h.node);
                                if let Ok(clone) = stream.try_clone() {
                                    let _ = link.try_send(WriterCmd::Adopt(clone));
                                }
                            }
                            counters = inner.counters_of(h.node);
                        }
                        Ok(Some(WirePayload::Envelope(env))) => {
                            if let Some(c) = &counters {
                                c.msgs_in.fetch_add(1, Ordering::Relaxed);
                            }
                            (inner.sink)(env.from, env.msg, env.trace);
                        }
                        Ok(Some(WirePayload::StatusRequest(req))) => {
                            // Introspection: answer on this same socket. An
                            // unset provider ignores the probe.
                            let report = inner.status.get().map(|p| p(&req));
                            if let Some(report) = report {
                                let frame = encode(&WirePayload::StatusReport(Box::new(report)));
                                if stream.write_all(&frame).is_err() {
                                    return;
                                }
                            }
                        }
                        Ok(Some(WirePayload::StatusReport(_))) => {
                            // Unsolicited report; nothing to do with it here.
                        }
                        Err(_) => {
                            inner.decode_errors.fetch_add(1, Ordering::Relaxed);
                            if dec.is_poisoned() {
                                inner.poisoned_streams.fetch_add(1, Ordering::Relaxed);
                            }
                            let _ = stream.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// Drains a link's outbound queue; owns the connection lifecycle.
fn writer_main(
    inner: Arc<Inner>,
    peer: NodeId,
    rx: Receiver<WriterCmd>,
    counters: Arc<LinkCounters>,
) {
    let mut conn: Option<TcpStream> = None;
    // How many times this link has had a live connection; establishes past
    // the first are reconnects.
    let mut establishes: u64 = 0;
    loop {
        let cmd = match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(cmd) => cmd,
            Err(RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match cmd {
            WriterCmd::Shutdown => break,
            WriterCmd::KillConn => {
                if let Some(c) = conn.take() {
                    let _ = c.shutdown(Shutdown::Both);
                }
                counters.connected.store(false, Ordering::Relaxed);
            }
            WriterCmd::Adopt(stream) => {
                if conn.is_none() {
                    conn = Some(stream);
                    mark_established(&counters, &mut establishes);
                }
                // With a live connection already (simultaneous dial-in from
                // both sides) the extra socket still serves reads on its own
                // reader thread; writes stay on the existing connection.
            }
            WriterCmd::Frame(bytes) => {
                if write_frame(&inner, peer, &mut conn, &counters, &mut establishes, &bytes) {
                    counters.msgs_out.fetch_add(1, Ordering::Relaxed);
                    counters
                        .bytes_out
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                } else {
                    counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    if let Some(c) = conn.take() {
        let _ = c.shutdown(Shutdown::Both);
    }
    counters.connected.store(false, Ordering::Relaxed);
    // Drain whatever is still queued so a stopping transport exits promptly
    // instead of burning a dial episode per leftover frame: frames count as
    // dropped, stray adopted sockets close immediately.
    while let Ok(cmd) = rx.try_recv() {
        match cmd {
            WriterCmd::Frame(_) => {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            WriterCmd::Adopt(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            WriterCmd::KillConn | WriterCmd::Shutdown => {}
        }
    }
}

/// Sleeps `total` in short slices, bailing out as soon as the transport
/// shuts down. Returns false if shutdown interrupted the sleep — callers
/// abandon the reconnect episode instead of finishing the backoff.
fn backoff_sleep(inner: &Inner, total: Duration) -> bool {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let nap = remaining.min(slice);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
    }
    !inner.shutdown.load(Ordering::SeqCst)
}

fn mark_established(counters: &LinkCounters, establishes: &mut u64) {
    if *establishes > 0 {
        counters.reconnects.fetch_add(1, Ordering::Relaxed);
    }
    *establishes = establishes.saturating_add(1);
    counters.connected.store(true, Ordering::Relaxed);
}

/// Writes one frame, (re)dialing as needed. Returns false if the frame had
/// to be dropped.
fn write_frame(
    inner: &Arc<Inner>,
    peer: NodeId,
    conn: &mut Option<TcpStream>,
    counters: &Arc<LinkCounters>,
    establishes: &mut u64,
    bytes: &[u8],
) -> bool {
    // At most two tries: current connection, then one reconnect episode.
    for _ in 0..2 {
        if conn.is_none() {
            *conn = dial(inner, peer, counters, establishes);
        }
        let Some(stream) = conn.as_mut() else {
            return false;
        };
        match stream.write_all(bytes) {
            Ok(()) => return true,
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                *conn = None;
                counters.connected.store(false, Ordering::Relaxed);
            }
        }
    }
    false
}

/// One reconnect episode: up to `max_dial_attempts` dials with exponential
/// backoff capped at `max_backoff`.
fn dial(
    inner: &Arc<Inner>,
    peer: NodeId,
    counters: &Arc<LinkCounters>,
    establishes: &mut u64,
) -> Option<TcpStream> {
    let mut backoff = inner.opts.base_backoff;
    for attempt in 0..inner.opts.max_dial_attempts {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let addr = *inner.book.lock().get(&peer)?;
        match TcpStream::connect_timeout(&addr, inner.opts.dial_timeout) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                if stream.write_all(&inner.hello_frame()).is_err() {
                    if !backoff_sleep(inner, backoff) {
                        return None;
                    }
                    backoff = backoff.saturating_mul(2).min(inner.opts.max_backoff);
                    continue;
                }
                if let Ok(clone) = stream.try_clone() {
                    inner.spawn_reader(clone, Some(peer), false);
                }
                mark_established(counters, establishes);
                return Some(stream);
            }
            Err(_) => {
                if attempt.saturating_add(1) < inner.opts.max_dial_attempts {
                    if !backoff_sleep(inner, backoff) {
                        return None;
                    }
                    backoff = backoff.saturating_mul(2).min(inner.opts.max_backoff);
                }
            }
        }
    }
    None
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

    fn quick_opts() -> TcpOptions {
        TcpOptions {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            read_timeout: Duration::from_millis(25),
            ..TcpOptions::default()
        }
    }

    /// The writer thread bumps counters after the socket write, so the
    /// receiver can observe a frame before the sender's stats do — poll
    /// instead of asserting a single snapshot.
    fn wait_for_stats(t: &TcpTransport, pred: impl Fn(&TransportStats) -> bool) -> TransportStats {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let s = t.stats();
            if pred(&s) || std::time::Instant::now() > deadline {
                return s;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn two_nodes_exchange_messages() {
        let (tx_a, rx_a) = channel::<(NodeId, Message)>();
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(move |from, msg, _ctx| {
                let _ = tx_a.send((from, msg));
            }),
            quick_opts(),
        )
        .unwrap();
        let (tx_b, rx_b) = channel::<(NodeId, Message)>();
        let b = TcpTransport::bind(
            NodeId::new(2),
            "127.0.0.1:0",
            Box::new(move |from, msg, _ctx| {
                let _ = tx_b.send((from, msg));
            }),
            quick_opts(),
        )
        .unwrap();

        let remote = b.connect(&a.listen_addr().to_string()).unwrap();
        assert_eq!(remote, NodeId::new(1));

        // b → a over the dialed socket.
        b.send(NodeId::new(1), hb(2), TraceCtx::NONE).unwrap();
        let (from, msg) = rx_a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId::new(2));
        assert_eq!(msg, hb(2));

        // a → b over the accepted socket (adopted write half).
        a.send(NodeId::new(2), hb(1), TraceCtx::NONE).unwrap();
        let (from, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId::new(1));
        assert_eq!(msg, hb(1));

        let sa = wait_for_stats(&a, |s| s.msgs_out() == 1);
        assert_eq!(sa.decode_errors, 0);
        assert_eq!(sa.msgs_out(), 1);
        assert!(sa.bytes_out() > 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unroutable_destination_errors() {
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(|_, _, _| {}),
            quick_opts(),
        )
        .unwrap();
        assert_eq!(
            a.send(NodeId::new(99), hb(1), TraceCtx::NONE),
            Err(TransportError::Unroutable(NodeId::new(99)))
        );
        a.shutdown();
    }

    #[test]
    fn killed_connection_reconnects() {
        let (tx_a, rx_a) = channel::<(NodeId, Message)>();
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(move |from, msg, _ctx| {
                let _ = tx_a.send((from, msg));
            }),
            quick_opts(),
        )
        .unwrap();
        let b = TcpTransport::bind(
            NodeId::new(2),
            "127.0.0.1:0",
            Box::new(|_, _, _| {}),
            quick_opts(),
        )
        .unwrap();
        b.connect(&a.listen_addr().to_string()).unwrap();
        b.send(NodeId::new(1), hb(2), TraceCtx::NONE).unwrap();
        rx_a.recv_timeout(Duration::from_secs(5)).unwrap();

        b.kill_link(NodeId::new(1));
        // Give the writer a moment to process the kill.
        std::thread::sleep(Duration::from_millis(100));
        // The next sends must come through again via a fresh connection.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            let _ = b.send(NodeId::new(1), hb(2), TraceCtx::NONE);
            if rx_a.recv_timeout(Duration::from_millis(200)).is_ok() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "no delivery after kill: {:?}", b.stats());
        assert!(
            b.stats().reconnects() >= 1,
            "reconnect not counted: {:?}",
            b.stats()
        );
        assert_eq!(a.stats().decode_errors, 0);
        assert!(
            b.stats().killed_links >= 1,
            "kill_link not counted: {:?}",
            b.stats()
        );
        assert_eq!(b.stats().poisoned_streams, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn garbage_stream_counts_as_poisoned() {
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(|_, _, _| {}),
            quick_opts(),
        )
        .unwrap();
        // Dial the listener raw and write bytes that cannot be a frame
        // header: the reader's decoder poisons the stream and drops it.
        let mut s = std::net::TcpStream::connect(a.listen_addr()).unwrap();
        s.write_all(b"definitely not an ARMW frame header").unwrap();
        let _ = s.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while a.stats().poisoned_streams == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = a.stats();
        assert_eq!(stats.poisoned_streams, 1, "stats: {stats:?}");
        assert!(stats.decode_errors >= 1);
        assert_eq!(stats.killed_links, 0);
        a.shutdown();
    }

    #[test]
    fn status_provider_answers_query_status() {
        use crate::status::{query_status, tests::sample_report};
        let a = TcpTransport::bind(
            NodeId::new(7),
            "127.0.0.1:0",
            Box::new(|_, _, _| {}),
            quick_opts(),
        )
        .unwrap();
        // No provider installed yet: the probe times out quietly.
        let early = query_status(
            &a.listen_addr().to_string(),
            NodeId::new(99),
            false,
            Duration::from_millis(300),
        );
        assert!(early.is_err(), "unset provider must not answer: {early:?}");
        a.set_status_provider(Box::new(|req| {
            let mut report = sample_report(NodeId::new(7));
            report.open_spans = u64::from(req.include_trace);
            report
        }));
        // Set once: a second provider is ignored.
        a.set_status_provider(Box::new(|_| sample_report(NodeId::new(8))));
        let report = query_status(
            &a.listen_addr().to_string(),
            NodeId::new(99),
            true,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(report.node, NodeId::new(7));
        assert_eq!(report.open_spans, 1, "request fields must reach provider");
        // The status socket never handshook: no link, no decode errors.
        let stats = a.stats();
        assert_eq!(stats.decode_errors, 0);
        a.shutdown();
    }

    #[test]
    fn shutdown_drains_backlogged_writer_queue_promptly() {
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(|_, _, _| {}),
            quick_opts(),
        )
        .unwrap();
        // Route to an address nothing listens on, then backlog the queue:
        // every frame would cost a full dial episode (6 dials + backoff).
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        a.add_route(NodeId::new(9), &dead_addr).unwrap();
        for _ in 0..64 {
            let _ = a.send(NodeId::new(9), hb(1), TraceCtx::NONE);
        }
        // Without the shutdown drain the writer grinds through the backlog
        // frame by frame and this join takes tens of seconds.
        let started = std::time::Instant::now();
        a.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown leaked into the writer backlog: {:?}",
            started.elapsed()
        );
        let stats = a.stats();
        let dropped: u64 = stats.links.iter().map(|l| l.dropped).sum();
        assert!(
            dropped > 0,
            "drained frames must count as dropped: {stats:?}"
        );
    }

    #[test]
    fn loopback_send_short_circuits() {
        let (tx, rx) = channel::<(NodeId, Message)>();
        let a = TcpTransport::bind(
            NodeId::new(1),
            "127.0.0.1:0",
            Box::new(move |from, msg, _ctx| {
                let _ = tx.send((from, msg));
            }),
            quick_opts(),
        )
        .unwrap();
        a.send(NodeId::new(1), hb(1), TraceCtx::NONE).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().0,
            NodeId::new(1)
        );
        a.shutdown();
    }
}
