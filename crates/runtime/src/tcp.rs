//! The framed-TCP transport backend with per-peer connection supervision.
//!
//! Every worker binds one loopback/LAN listener. For each (sender,
//! receiver) pair a *link* exists on the sending side: an unbounded
//! outbox plus a writer thread that owns the connection lifecycle —
//! dialing with exponential backoff and deterministic jitter,
//! heartbeating when idle, requeueing the in-hand frame and redialing on
//! any write error. The accepting side runs one reader thread per
//! established connection that pushes data frames into the worker's
//! [`TcpInbox`], plus a flusher thread that returns drain acks
//! (*credits*) over the same connection.
//!
//! ## One buffering contract for both fabrics
//!
//! Like the channel fabric, [`TcpTransport::send`] never blocks and never
//! drops: a frame waits in the outbox, the socket, or the destination
//! inbox until the destination worker pops it. Workers pop only at their
//! next barrier command, so a round's whole traffic must be buffered
//! before anyone drains it; a send window below that volume deadlocks
//! the round, and one above it never binds. The fabric therefore has
//! none, and the round structure bounds what is buffered.
//!
//! ## Supervision and convergence
//!
//! Delivery is asynchronous, so the controller folds
//! [`TcpTransport::in_flight`] — queued outbox frames plus every frame
//! the writer popped whose drain ack has not come back (see
//! [`CreditLedger`]), i.e. everything sent but not yet drained by the
//! destination worker — into its convergence checks. On reconnect the
//! unacked count resets and [`TrafficStats::reconnects`] ticks;
//! reconnects count as losses, so frames that died in a severed
//! connection's kernel buffers always trigger a BGP resync and can never
//! fake a converged round.
//!
//! A writer that drops a connection shuts its socket down, so the peer's
//! reader and this link's credit reader see EOF at once instead of
//! waiting out [`TcpConfig::peer_silence_timeout`]; shutdown joins every
//! thread the transport spawned.

use crate::codec::Wire;
use crate::faults::FaultState;
use crate::sidecar::{TrafficStats, WorkerId};
use crate::credit::CreditLedger;
use crate::transport::{Inbox, Transport, TransportError};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use s2_obs::{lock, Stopwatch};
use std::time::Duration;

/// Stream envelope kinds (`kind:u8 len:u32 payload`, length big-endian).
pub(crate) const K_HELLO: u8 = 0;
pub(crate) const K_DATA: u8 = 1;
pub(crate) const K_CREDIT: u8 = 2;
pub(crate) const K_HEARTBEAT: u8 = 3;
pub(crate) const K_COMMAND: u8 = 4;
pub(crate) const K_REPLY: u8 = 5;
pub(crate) const K_REGISTER: u8 = 6;
pub(crate) const K_SETUP: u8 = 7;

/// Tuning knobs of the TCP backend.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-attempt dial timeout.
    pub connect_timeout: Duration,
    /// First reconnect backoff; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Idle interval after which a connected peer is probed with a
    /// heartbeat envelope (both directions).
    pub heartbeat_interval: Duration,
    /// A connection that stays silent this long (no data, credits, or
    /// heartbeats) is declared dead and torn down for reconnect.
    pub peer_silence_timeout: Duration,
    /// Hard cap on a single envelope payload; larger announcements are
    /// rejected as a protocol violation (adversarial-peer defence).
    pub max_frame_len: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(1),
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(500),
            heartbeat_interval: Duration::from_millis(200),
            peer_silence_timeout: Duration::from_secs(2),
            max_frame_len: 64 << 20,
        }
    }
}

/// Writes one `kind len payload` envelope.
pub(crate) fn write_envelope(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let [l0, l1, l2, l3] = (payload.len() as u32).to_be_bytes();
    let head = [kind, l0, l1, l2, l3];
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one envelope, rejecting payloads above `max_len`.
pub(crate) fn read_envelope(r: &mut impl Read, max_len: usize) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let [kind, l0, l1, l2, l3] = head;
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("envelope of {} bytes exceeds the {} byte cap", len, max_len),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((kind, payload))
}

/// Sends one [`Wire`] value as a `kind` envelope.
pub fn send<T: Wire>(w: &mut impl Write, kind: u8, value: &T) -> io::Result<()> {
    write_envelope(w, kind, &value.to_bytes())
}

/// Reads one envelope and decodes its payload as a `T`. An envelope of
/// another kind, or a payload that is not exactly one well-formed `T`,
/// is `InvalidData`.
pub fn recv<T: Wire>(r: &mut impl Read, kind: u8, max_len: usize) -> io::Result<T> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let (got, payload) = read_envelope(r, max_len)?;
    if got != kind {
        return Err(invalid(format!("expected envelope kind {kind}, got {got}")));
    }
    T::from_bytes(Bytes::from(payload)).map_err(|e| invalid(format!("envelope kind {kind}: {e}")))
}

/// Per-connection drain-ack accumulator on the accepting side. Popping
/// a frame from the inbox grants a credit here; the connection's flusher
/// thread batches pending credits into `Credit` envelopes back to the
/// sender.
#[derive(Debug, Default)]
pub(crate) struct CreditHandle {
    state: Mutex<CreditState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct CreditState {
    pending: u32,
    closed: bool,
}

impl CreditHandle {
    fn grant(&self, n: u32) {
        let mut st = lock(&self.state);
        st.pending += n;
        self.cond.notify_all();
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.cond.notify_all();
    }

    /// Waits for credits to flush (or a heartbeat to become due).
    /// Returns `None` when the connection is closed, `Some(0)` for a
    /// heartbeat, `Some(n)` for `n` credits.
    fn next_flush(&self, heartbeat: Duration) -> Option<u32> {
        let mut st = lock(&self.state);
        loop {
            if st.pending > 0 {
                let n = st.pending;
                st.pending = 0;
                return Some(n);
            }
            if st.closed {
                return None;
            }
            let (g, timeout) = self
                .cond
                .wait_timeout(st, heartbeat)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
            if timeout.timed_out() && st.pending == 0 && !st.closed {
                return Some(0);
            }
        }
    }
}

/// A queued frame paired with the credit to return when it is popped.
type CreditedFrame = (Option<Arc<CreditHandle>>, Bytes);

/// A worker's shared receive queue, fed by the acceptor threads. Popping
/// a frame returns its credit to the sending link.
#[derive(Debug, Clone, Default)]
pub struct TcpInbox {
    q: Arc<Mutex<VecDeque<CreditedFrame>>>,
}

impl TcpInbox {
    /// Pops the next frame, acking it to the sending link.
    pub fn pop(&self) -> Option<Bytes> {
        let popped = lock(&self.q).pop_front();
        popped.map(|(credit, frame)| {
            if let Some(c) = credit {
                c.grant(1);
            }
            frame
        })
    }

    fn push(&self, credit: Option<Arc<CreditHandle>>, frame: Bytes) {
        lock(&self.q).push_back((credit, frame));
    }

    /// Discards everything queued, still acking each frame so senders'
    /// `in_flight` does not leak (worker respawn).
    fn clear(&self) {
        let drained: Vec<_> = lock(&self.q).drain(..).collect();
        for (credit, _) in drained {
            if let Some(c) = credit {
                c.grant(1);
            }
        }
    }
}

/// Sending-side state of one (src, dst) link. The race-prone ack /
/// generation bookkeeping lives in [`CreditLedger`], a pure state
/// machine shared with the loom model check (`tests/loom.rs`).
#[derive(Debug)]
struct LinkState {
    outbox: VecDeque<Bytes>,
    /// Unacked count, connection-generation fence, frame-in-hand marker.
    ledger: CreditLedger,
    /// Data frames handed to the writer so far (per-link fault index).
    frames_attempted: u64,
    writer_spawned: bool,
    closed: bool,
}

#[derive(Debug)]
struct Link {
    src: WorkerId,
    dst: WorkerId,
    state: Mutex<LinkState>,
    cond: Condvar,
}

impl Link {
    fn new(src: WorkerId, dst: WorkerId) -> Self {
        Link {
            src,
            dst,
            state: Mutex::new(LinkState {
                outbox: VecDeque::new(),
                ledger: CreditLedger::default(),
                frames_attempted: 0,
                writer_spawned: false,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Outbox frames plus unacked ones: everything accepted from the
    /// sender but not yet drained by the destination worker.
    fn in_flight(&self) -> usize {
        let st = lock(&self.state);
        st.outbox.len() + st.ledger.outstanding()
    }
}

type ThreadRegistry = Arc<Mutex<Vec<thread::JoinHandle<()>>>>;

/// The TCP backend. Built either as an in-process full mesh
/// ([`TcpTransport::mesh`], every worker in this process) or as a single
/// worker's endpoint ([`TcpTransport::single`], multi-process mode).
#[derive(Debug)]
pub struct TcpTransport {
    cfg: TcpConfig,
    num_workers: u32,
    /// Data-fabric address of every worker.
    addrs: Vec<SocketAddr>,
    /// `links[src * num_workers + dst]`; `None` for non-local senders.
    links: Vec<Option<Arc<Link>>>,
    /// Per-worker inboxes; `None` for workers hosted elsewhere.
    inboxes: Vec<Option<TcpInbox>>,
    stats: Arc<TrafficStats>,
    faults: Arc<FaultState>,
    closed: Arc<AtomicBool>,
    threads: ThreadRegistry,
}

impl TcpTransport {
    /// Builds an in-process mesh: one listener, inbox, and set of
    /// outgoing links per worker, all over loopback.
    pub fn mesh(
        num_workers: u32,
        cfg: TcpConfig,
        stats: Arc<TrafficStats>,
        faults: Arc<FaultState>,
    ) -> io::Result<(Arc<TcpTransport>, Vec<Inbox>)> {
        let mut listeners = Vec::with_capacity(num_workers as usize);
        for _ in 0..num_workers {
            listeners.push(TcpListener::bind("127.0.0.1:0")?);
        }
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        let local: Vec<WorkerId> = (0..num_workers).collect();
        let t = Self::assemble(num_workers, cfg, stats, faults, &local, addrs, listeners)?;
        let inboxes = (0..num_workers).map(|w| Inbox::Tcp(t.inbox_of(w))).collect();
        Ok((t, inboxes))
    }

    /// Builds the endpoint of one worker in a multi-process cluster.
    /// `listener` is this worker's already-bound data listener (bound
    /// early so its address could be registered with the controller);
    /// `addrs[w]` must be every worker's data address.
    pub fn single(
        worker: WorkerId,
        num_workers: u32,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        cfg: TcpConfig,
        stats: Arc<TrafficStats>,
        faults: Arc<FaultState>,
    ) -> io::Result<(Arc<TcpTransport>, Inbox)> {
        let t = Self::assemble(num_workers, cfg, stats, faults, &[worker], addrs, vec![listener])?;
        let inbox = Inbox::Tcp(t.inbox_of(worker));
        Ok((t, inbox))
    }

    /// Common construction: links for every local sender, an acceptor per
    /// local worker (`listeners[i]` serves `local[i]`).
    fn assemble(
        num_workers: u32,
        cfg: TcpConfig,
        stats: Arc<TrafficStats>,
        faults: Arc<FaultState>,
        local: &[WorkerId],
        addrs: Vec<SocketAddr>,
        listeners: Vec<TcpListener>,
    ) -> io::Result<Arc<TcpTransport>> {
        let n = num_workers as usize;
        // `addrs` and `local` can come from a remote controller's Setup
        // message: validate the shape here, at the trust boundary, so no
        // later lookup can be out of range.
        if addrs.len() != n || local.iter().any(|&w| (w as usize) >= n) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "transport setup inconsistent: {} addrs / {} local workers for a {}-worker mesh",
                    addrs.len(),
                    local.len(),
                    n
                ),
            ));
        }
        let is_local = |w: WorkerId| local.contains(&w);
        let links: Vec<Option<Arc<Link>>> = (0..n * n)
            .map(|i| {
                let (src, dst) = ((i / n) as WorkerId, (i % n) as WorkerId);
                is_local(src).then(|| Arc::new(Link::new(src, dst)))
            })
            .collect();
        let inboxes: Vec<Option<TcpInbox>> = (0..num_workers)
            .map(|w| is_local(w).then(TcpInbox::default))
            .collect();
        let t = Arc::new(TcpTransport {
            cfg,
            num_workers,
            addrs,
            links,
            inboxes,
            stats,
            faults,
            closed: Arc::new(AtomicBool::new(false)),
            threads: Arc::new(Mutex::new(Vec::new())),
        });
        for (listener, &w) in listeners.into_iter().zip(local) {
            listener.set_nonblocking(true)?;
            let inbox = t.inbox_of(w);
            let (cfg, stats) = (t.cfg.clone(), t.stats.clone());
            let (closed, registry) = (t.closed.clone(), t.threads.clone());
            let handle = thread::spawn(move || {
                accept_loop(listener, inbox, cfg, stats, closed, registry)
            });
            lock(&t.threads).push(handle);
        }
        Ok(t)
    }

    fn link(&self, src: WorkerId, dst: WorkerId) -> Option<&Arc<Link>> {
        self.links
            .get(src as usize * self.num_workers as usize + dst as usize)?
            .as_ref()
    }

    /// The inbox of a local worker. Out-of-range or non-local ids yield
    /// a fresh detached inbox rather than a panic — callers treat it as
    /// an empty queue.
    fn inbox_of(&self, w: WorkerId) -> TcpInbox {
        self.inboxes
            .get(w as usize)
            .and_then(Clone::clone)
            .unwrap_or_default()
    }

    /// Ensures the link's writer thread runs (first send only).
    fn spawn_writer_if_needed(&self, link: &Arc<Link>, st: &mut LinkState) {
        if st.writer_spawned {
            return;
        }
        st.writer_spawned = true;
        let Some(addr) = self.addrs.get(link.dst as usize).copied() else {
            // Unreachable: `assemble` validated `addrs.len()` against the
            // mesh size and `link()` bounds every dst. Counted, not paniced.
            self.stats.protocol_violations.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let ctx = WriterCtx {
            link: link.clone(),
            addr,
            cfg: self.cfg.clone(),
            stats: self.stats.clone(),
            faults: self.faults.clone(),
            threads: self.threads.clone(),
        };
        let handle = thread::spawn(move || writer_loop(ctx));
        lock(&self.threads).push(handle);
    }
}

impl Transport for TcpTransport {
    fn send(&self, src: WorkerId, dst: WorkerId, frame: Bytes) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        let link = self.link(src, dst).ok_or(TransportError::Closed)?;
        let mut st = lock(&link.state);
        if st.closed {
            return Err(TransportError::Closed);
        }
        st.outbox.push_back(frame);
        self.spawn_writer_if_needed(link, &mut st);
        link.cond.notify_all();
        Ok(())
    }

    fn replace_inbox(&self, w: WorkerId) -> Inbox {
        // The queue object is shared with the acceptor threads, so it is
        // drained (granting credits) rather than swapped; staleness of
        // frames sent to the dead worker is handled by the epoch filter
        // in `Sidecar::drain`.
        let inbox = self.inbox_of(w);
        inbox.clear();
        Inbox::Tcp(inbox)
    }

    fn in_flight(&self) -> usize {
        self.links
            .iter()
            .flatten()
            .map(|l| l.in_flight())
            .sum()
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        for link in self.links.iter().flatten() {
            lock(&link.state).closed = true;
            link.cond.notify_all();
        }
        for inbox in self.inboxes.iter().flatten() {
            inbox.clear();
        }
        // Two passes: the first joins the acceptors and writers, which
        // are the only threads that spawn more; a writer shuts its socket
        // down on the way out, which lets its credit reader and the
        // peer's reader/flusher (registered concurrently) exit for the
        // second.
        for _ in 0..2 {
            let handles: Vec<_> = lock(&self.threads).drain(..).collect();
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

/// Everything a link's writer thread needs.
struct WriterCtx {
    link: Arc<Link>,
    addr: SocketAddr,
    cfg: TcpConfig,
    stats: Arc<TrafficStats>,
    faults: Arc<FaultState>,
    /// Where the link's credit readers are registered for shutdown.
    threads: ThreadRegistry,
}

/// What the writer decided to do after waiting on the link state.
enum Wake {
    /// A data frame to transmit: payload and per-link frame index.
    Frame(Bytes, u64),
    Heartbeat,
    Closed,
}

/// Deterministic backoff with jitter: `base * 2^attempt` capped at `max`,
/// plus a jitter derived from the link identity and attempt number (no
/// RNG, so chaos runs reproduce).
fn backoff(cfg: &TcpConfig, src: WorkerId, dst: WorkerId, attempt: u32) -> Duration {
    let base = cfg.backoff_base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    let capped = exp.min(cfg.backoff_max);
    let jitter_ms =
        (u64::from(src) * 31 + u64::from(dst) * 17 + u64::from(attempt) * 7) % (base.as_millis().max(1) as u64);
    capped + Duration::from_millis(jitter_ms)
}

/// The sending half of one link: owns the connection, its reconnect
/// policy, and the fault hooks for sever / partition / throttle.
fn writer_loop(ctx: WriterCtx) {
    let link = &ctx.link;
    let mut conn: Option<TcpStream> = None;
    let mut had_conn = false;
    let mut last_write = Stopwatch::start();
    loop {
        let wake = {
            let mut st = lock(&link.state);
            loop {
                if st.closed {
                    break Wake::Closed;
                }
                if st.ledger.take_conn_dead() {
                    hang_up(&mut conn);
                }
                if let Some(frame) = st.outbox.pop_front() {
                    st.ledger.begin_send();
                    let idx = st.frames_attempted;
                    st.frames_attempted += 1;
                    break Wake::Frame(frame, idx);
                }
                let (g, timeout) = link
                    .cond
                    .wait_timeout(st, ctx.cfg.heartbeat_interval)
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
                if timeout.timed_out()
                    && conn.is_some()
                    && last_write.elapsed() >= ctx.cfg.heartbeat_interval
                {
                    break Wake::Heartbeat;
                }
            }
        };
        match wake {
            Wake::Closed => {
                hang_up(&mut conn);
                return;
            }
            Wake::Heartbeat => {
                if let Some(stream) = conn.as_mut() {
                    if write_envelope(stream, K_HEARTBEAT, &[]).is_err() {
                        hang_up(&mut conn);
                    } else {
                        ctx.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                        last_write = Stopwatch::start();
                    }
                }
            }
            Wake::Frame(frame, idx) => {
                // Fault: sever the connection carrying this link's nth
                // data frame. The frame itself travels on the fresh
                // connection; anything buffered in the dead one is lost
                // and healed by the reconnect-loss accounting. Only a
                // live connection can be severed — connections are
                // dialed lazily, so the trigger waits (`idx >= n`) for
                // the first frame that finds one up.
                if conn.is_some() && ctx.faults.should_sever(link.src, link.dst, idx) {
                    hang_up(&mut conn);
                }
                // Fault: partition — the link is unusable until the
                // window elapses. Park the frame back and poll.
                if ctx.faults.partition_active(link.src, link.dst) {
                    hang_up(&mut conn);
                    requeue(link, frame);
                    thread::sleep(Duration::from_millis(2));
                    continue;
                }
                if conn.is_none() {
                    match dial(&ctx, had_conn) {
                        Some(stream) => {
                            had_conn = true;
                            conn = Some(stream);
                        }
                        None => {
                            // Shut down while dialing; frame dies with
                            // the link.
                            return;
                        }
                    }
                }
                // Fault: throttle — slow this link down per frame.
                if let Some(ms) = ctx.faults.throttle_of(link.src, link.dst) {
                    thread::sleep(Duration::from_millis(ms));
                }
                let mut wrote = false;
                if let Some(stream) = conn.as_mut() {
                    wrote = write_envelope(stream, K_DATA, &frame).is_ok();
                }
                if wrote {
                    last_write = Stopwatch::start();
                    // Delivered to the socket: the frame stays counted
                    // until the receiver pops it and acks.
                    lock(&link.state).ledger.sent();
                } else {
                    // Requeue at the front: the frame is retried on the
                    // next connection in order.
                    hang_up(&mut conn);
                    requeue(link, frame);
                }
            }
        }
    }
}

/// Drops the writer's connection. Shutting the socket down (not just
/// closing this handle) matters: the link's credit reader holds a clone,
/// so without it neither that reader nor the peer's would see EOF before
/// the peer silence timeout.
fn hang_up(conn: &mut Option<TcpStream>) {
    if let Some(stream) = conn.take() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Puts a frame back at the head of the outbox (connection loss or
/// partition), where the outbox length counts it again.
fn requeue(link: &Arc<Link>, frame: Bytes) {
    let mut st = lock(&link.state);
    st.outbox.push_front(frame);
    st.frames_attempted = st.frames_attempted.saturating_sub(1);
    st.ledger.requeue();
}

/// Dials the peer with exponential backoff until it answers or the link
/// closes; returns `None` on closure. A successful dial performs the
/// `Hello` handshake, resets the unacked count, and starts (and
/// registers) the credit reader for the new connection.
///
/// When this is a *re*connect, [`TrafficStats::reconnects`] is bumped
/// strictly before the unacked count resets: the controller samples
/// `in_flight` before `disturbances`, so at least one of the two always
/// exposes frames that died with the previous connection.
fn dial(ctx: &WriterCtx, reconnect: bool) -> Option<TcpStream> {
    let link = &ctx.link;
    let mut attempt: u32 = 0;
    loop {
        {
            let st = lock(&link.state);
            if st.closed {
                return None;
            }
        }
        if ctx.faults.partition_active(link.src, link.dst) {
            thread::sleep(Duration::from_millis(2));
            continue;
        }
        match TcpStream::connect_timeout(&ctx.addr, ctx.cfg.connect_timeout) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                let hello = u32::to_be_bytes(link.src);
                if write_envelope(&mut stream, K_HELLO, &hello).is_err() {
                    attempt = attempt.saturating_add(1);
                    thread::sleep(backoff(&ctx.cfg, link.src, link.dst, attempt));
                    continue;
                }
                if reconnect {
                    ctx.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    s2_obs::event!("tcp.reconnect", link.dst);
                }
                let gen = lock(&link.state).ledger.reconnect();
                if let Ok(read_half) = stream.try_clone() {
                    let (link, cfg) = (link.clone(), ctx.cfg.clone());
                    let stats = ctx.stats.clone();
                    let handle =
                        thread::spawn(move || credit_reader(link, read_half, cfg, stats, gen));
                    lock(&ctx.threads).push(handle);
                } else {
                    attempt = attempt.saturating_add(1);
                    thread::sleep(backoff(&ctx.cfg, link.src, link.dst, attempt));
                    continue;
                }
                return Some(stream);
            }
            Err(_) => {
                attempt = attempt.saturating_add(1);
                thread::sleep(backoff(&ctx.cfg, link.src, link.dst, attempt));
            }
        }
    }
}

/// Reads `Credit` (drain ack) and `Heartbeat` envelopes coming back from
/// the receiver.
/// Exits (marking the connection dead for the writer) on any read error,
/// EOF, or peer silence beyond the timeout. The generation check stops a
/// stale reader from killing a newer connection.
fn credit_reader(
    link: Arc<Link>,
    mut stream: TcpStream,
    cfg: TcpConfig,
    stats: Arc<TrafficStats>,
    gen: u64,
) {
    let _ = stream.set_read_timeout(Some(cfg.peer_silence_timeout));
    loop {
        match read_envelope(&mut stream, cfg.max_frame_len) {
            Ok((K_CREDIT, payload)) if payload.len() == 4 => {
                let Ok(bytes) = <[u8; 4]>::try_from(payload.as_slice()) else {
                    continue; // unreachable: length checked by the guard
                };
                let n = u32::from_be_bytes(bytes);
                if !lock(&link.state).ledger.ack(n, gen) {
                    return; // stale generation: this reader is done
                }
            }
            Ok((K_HEARTBEAT, _)) => {}
            Ok(_) => {
                stats.protocol_violations.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let mut st = lock(&link.state);
                if st.ledger.connection_lost(gen) {
                    link.cond.notify_all();
                }
                return;
            }
        }
    }
}

/// Accepts inbound data connections for one worker. Non-blocking polling
/// so shutdown is prompt; each accepted connection gets a reader thread
/// (data → inbox) and a flusher thread (credits/heartbeats → sender).
fn accept_loop(
    listener: TcpListener,
    inbox: TcpInbox,
    cfg: TcpConfig,
    stats: Arc<TrafficStats>,
    closed: Arc<AtomicBool>,
    registry: ThreadRegistry,
) {
    loop {
        if closed.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let (inbox, cfg, stats) = (inbox.clone(), cfg.clone(), stats.clone());
                let closed = closed.clone();
                let handle =
                    thread::spawn(move || serve_connection(stream, inbox, cfg, stats, closed));
                lock(&registry).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One accepted connection: handshake, then data frames to the inbox and
/// credits back out.
fn serve_connection(
    mut stream: TcpStream,
    inbox: TcpInbox,
    cfg: TcpConfig,
    stats: Arc<TrafficStats>,
    closed: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(cfg.peer_silence_timeout));
    // First envelope must be a well-formed Hello.
    match read_envelope(&mut stream, cfg.max_frame_len) {
        Ok((K_HELLO, payload)) if payload.len() == 4 => {}
        Ok(_) => {
            stats.protocol_violations.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(_) => return,
    }
    let credit = Arc::new(CreditHandle::default());
    let flusher = {
        let credit = credit.clone();
        let stats = stats.clone();
        let interval = cfg.heartbeat_interval;
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        thread::spawn(move || credit_flusher(write_half, credit, stats, interval))
    };
    loop {
        if closed.load(Ordering::Relaxed) {
            break;
        }
        match read_envelope(&mut stream, cfg.max_frame_len) {
            Ok((K_DATA, payload)) => {
                inbox.push(Some(credit.clone()), Bytes::from(payload));
            }
            Ok((K_HEARTBEAT, _)) => {}
            Ok(_) => {
                stats.protocol_violations.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => break,
        }
    }
    credit.close();
    let _ = flusher.join();
}

/// Batches drain acks into `Credit` envelopes; heartbeats when idle
/// so the sender's silence detector stays quiet.
fn credit_flusher(
    mut stream: TcpStream,
    credit: Arc<CreditHandle>,
    stats: Arc<TrafficStats>,
    interval: Duration,
) {
    while let Some(n) = credit.next_flush(interval) {
        let result = if n > 0 {
            write_envelope(&mut stream, K_CREDIT, &n.to_be_bytes())
        } else {
            stats.heartbeats.fetch_add(1, Ordering::Relaxed);
            write_envelope(&mut stream, K_HEARTBEAT, &[])
        };
        if result.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use s2_obs::Deadline;

    fn mesh(n: u32, cfg: TcpConfig) -> (Arc<TcpTransport>, Vec<Inbox>) {
        TcpTransport::mesh(
            n,
            cfg,
            Arc::new(TrafficStats::default()),
            Arc::new(FaultState::default()),
        )
        .expect("loopback mesh binds")
    }

    fn pop_within(inbox: &mut Inbox, timeout: Duration) -> Option<Bytes> {
        let deadline = Deadline::after(timeout);
        while !deadline.expired() {
            if let Some(b) = inbox.try_recv() {
                return Some(b);
            }
            thread::sleep(Duration::from_millis(1));
        }
        None
    }

    /// Waits until every popped frame's drain ack is back.
    fn wait_drained(t: &TcpTransport) {
        let deadline = Deadline::after(Duration::from_secs(5));
        while t.in_flight() > 0 && !deadline.expired() {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(t.in_flight(), 0, "every drained frame was acked");
    }

    #[test]
    fn frames_cross_the_mesh_in_order() {
        let (t, mut inboxes) = mesh(2, TcpConfig::default());
        for i in 0..50u8 {
            t.send(0, 1, Bytes::from(vec![i])).unwrap();
        }
        for i in 0..50u8 {
            let got = pop_within(&mut inboxes[1], Duration::from_secs(5)).expect("frame arrives");
            assert_eq!(got.as_ref(), &[i]);
        }
        wait_drained(&t);
        t.shutdown();
    }

    /// A worker pops only at its next barrier command, so one round's
    /// whole burst must be accepted while the receiver does not drain:
    /// no send may block or drop, however large the burst.
    #[test]
    fn undrained_burst_never_blocks_send() {
        let (t, mut inboxes) = mesh(2, TcpConfig::default());
        let burst = 4096u32;
        let started = Stopwatch::start();
        for i in 0..burst {
            assert_eq!(
                t.send(0, 1, Bytes::from(i.to_be_bytes().to_vec())),
                Ok(()),
                "send {i} of an undrained burst"
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the burst blocked for {:?}",
            started.elapsed()
        );
        assert!(t.in_flight() > 0, "nothing was drained yet");
        for i in 0..burst {
            let got = pop_within(&mut inboxes[1], Duration::from_secs(5)).expect("frame arrives");
            assert_eq!(got.as_ref(), &i.to_be_bytes(), "frame {i} in order");
        }
        wait_drained(&t);
        t.shutdown();
    }

    /// A writer that exits shuts its socket down, so the peer's reader
    /// sees EOF at once: shutdown does not wait out the silence timeout.
    #[test]
    fn connected_mesh_shuts_down_promptly() {
        let cfg = TcpConfig::default();
        let bound = cfg.peer_silence_timeout / 2;
        let (t, mut inboxes) = mesh(2, cfg);
        for (src, dst) in [(0, 1), (1, 0)] {
            t.send(src, dst, Bytes::from_static(b"x")).unwrap();
            assert!(pop_within(&mut inboxes[dst as usize], Duration::from_secs(5)).is_some());
        }
        wait_drained(&t);
        let started = Stopwatch::start();
        t.shutdown();
        assert!(
            started.elapsed() < bound,
            "shutdown took {:?} (bound {bound:?})",
            started.elapsed()
        );
    }

    #[test]
    fn in_flight_tracks_undrained_frames() {
        let (t, mut inboxes) = mesh(2, TcpConfig::default());
        t.send(0, 1, Bytes::from_static(b"x")).unwrap();
        // Until the frame is popped, at least one unit is in flight.
        let deadline = Deadline::after(Duration::from_secs(5));
        while !deadline.expired() {
            if t.in_flight() > 0 {
                break;
            }
        }
        assert!(t.in_flight() > 0);
        assert!(pop_within(&mut inboxes[1], Duration::from_secs(5)).is_some());
        wait_drained(&t);
        t.shutdown();
    }

    #[test]
    fn sever_reconnects_and_keeps_delivering() {
        #[cfg(feature = "obs")]
        s2_obs::trace::set_enabled(true);
        let stats = Arc::new(TrafficStats::default());
        let faults = Arc::new(FaultState::new(FaultPlan::new().sever_connection(0, 1, 3)));
        let (t, mut inboxes) =
            TcpTransport::mesh(2, TcpConfig::default(), stats.clone(), faults).unwrap();
        for i in 0..8u8 {
            t.send(0, 1, Bytes::from(vec![i])).unwrap();
        }
        // The sever races frame delivery: the old connection's reader may
        // still be draining kernel-buffered frames while the fresh
        // connection delivers the requeued one, so arrival *order* across
        // the reconnect is not guaranteed — only exactly-once delivery
        // is. Assert the multiset, not the sequence.
        let mut got: Vec<u8> = (0..8u8)
            .map(|_| {
                pop_within(&mut inboxes[1], Duration::from_secs(10)).expect("survives sever")[0]
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8u8).collect::<Vec<_>>(), "every frame exactly once");
        // The reconnect is counted inside `dial`, before the requeued
        // frame is written, so delivery of all 8 frames implies the
        // counter is already visible — but bound the check by a deadline
        // rather than assuming.
        let deadline = Deadline::after(Duration::from_secs(5));
        while stats.reconnects.load(Ordering::Relaxed) == 0 && !deadline.expired() {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(
            stats.reconnects.load(Ordering::Relaxed) >= 1,
            "sever forced a reconnect"
        );
        // The flight recorder retained the reconnect event (obs builds).
        #[cfg(feature = "obs")]
        assert!(
            s2_obs::recorder::recent()
                .iter()
                .any(|e| s2_obs::trace::name_of(e.name) == "tcp.reconnect"),
            "flight recorder saw the reconnect"
        );
        t.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_send_fails_after() {
        let (t, _inboxes) = mesh(2, TcpConfig::default());
        t.send(0, 1, Bytes::from_static(b"x")).unwrap();
        t.shutdown();
        t.shutdown();
        assert_eq!(
            t.send(0, 1, Bytes::from_static(b"y")),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn envelope_roundtrip_and_oversize_rejection() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, K_DATA, b"payload").unwrap();
        let (kind, payload) = read_envelope(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!((kind, payload.as_slice()), (K_DATA, b"payload".as_slice()));
        // Oversize claim is rejected without allocating.
        let mut huge = vec![K_DATA];
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_envelope(&mut huge.as_slice(), 1024).is_err());
        // Truncation surfaces as an error, not a panic.
        assert!(read_envelope(&mut buf[..3].as_ref(), 1024).is_err());
    }
}
