//! The pluggable inter-worker transport.
//!
//! [`SidecarNet`](crate::sidecar::SidecarNet) frames every cross-worker
//! message and hands the framed bytes to a [`Transport`], which delivers
//! them into the destination worker's [`Inbox`]. Two backends exist:
//!
//! * [`ChannelTransport`] — in-process std `mpsc` channels, the default.
//!   Delivery is synchronous (a frame is in the destination inbox the
//!   moment `send` returns) and infallible; this is the seed behaviour
//!   and what tier-1 tests run against.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — length-prefixed framed
//!   TCP with per-peer connection supervision: heartbeats, automatic
//!   reconnect with exponential backoff and jitter. Like the channels it
//!   buffers without bound and never blocks a send; delivery is
//!   asynchronous, and the controller compensates by folding
//!   [`Transport::in_flight`] into its convergence checks.
//!
//! The backend is chosen per cluster through [`TransportKind`] in
//! [`RuntimeConfig`](crate::RuntimeConfig).

// r1: peer bytes reach this module, so nothing here may panic on them
// (DESIGN.md § "Static analysis"); tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::sidecar::WorkerId;
use crate::tcp::TcpConfig;
use bytes::Bytes;
use s2_obs::lock;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Failures of a transport send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The transport (or the destination inbox) is shut down.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Which data-fabric backend a cluster runs on.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// In-process std `mpsc` channels (the default; synchronous delivery).
    #[default]
    Channel,
    /// Framed TCP over loopback with connection supervision; every worker
    /// gets its own listener and per-peer supervised links even when all
    /// workers share the process.
    Tcp(TcpConfig),
}

impl TransportKind {
    /// A TCP backend with default supervision parameters.
    pub fn tcp() -> Self {
        TransportKind::Tcp(TcpConfig::default())
    }
}

/// A handle a sidecar drains frames from.
///
/// For the TCP backend, popping a frame also acks it to the sending peer
/// — the frame counts as in flight until the receiving *worker* (not
/// merely the receiving socket) has it.
#[derive(Debug)]
pub enum Inbox {
    /// Receiver half of a std `mpsc` channel.
    Channel(Receiver<Bytes>),
    /// Shared queue fed by the TCP acceptor threads.
    Tcp(crate::tcp::TcpInbox),
}

impl Inbox {
    /// Pops the next queued frame, if any.
    pub fn try_recv(&mut self) -> Option<Bytes> {
        match self {
            Inbox::Channel(rx) => rx.try_recv().ok(),
            Inbox::Tcp(q) => q.pop(),
        }
    }
}

/// The inter-worker data fabric: delivers framed messages into per-worker
/// inboxes.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Queues `frame` (sent by worker `src`) for delivery to `dst`'s
    /// inbox. Never blocks: a round's traffic is buffered until the
    /// destination drains it at its next barrier command.
    fn send(&self, src: WorkerId, dst: WorkerId, frame: Bytes) -> Result<(), TransportError>;

    /// Replaces worker `w`'s inbox with a fresh, empty one and returns it
    /// (worker respawn during recovery). Frames queued in the old inbox
    /// die with it.
    fn replace_inbox(&self, w: WorkerId) -> Inbox;

    /// Frames accepted by [`Transport::send`] that have not yet been
    /// drained by the destination worker (outboxes, wire, inboxes). The
    /// controller refuses to declare a fix-point round converged while
    /// this is non-zero. Synchronous backends return 0.
    fn in_flight(&self) -> usize;

    /// Stops supervision threads and closes sockets (no-op for channels).
    fn shutdown(&self) {}
}

/// The default backend: one unbounded in-process channel per worker.
///
/// Senders are swappable so a respawned worker gets a fresh inbox; frames
/// still queued in the old channel die with the old receiver.
#[derive(Debug)]
pub struct ChannelTransport {
    senders: Vec<Mutex<Sender<Bytes>>>,
}

impl ChannelTransport {
    /// Builds channels for `num_workers` workers, returning the transport
    /// plus each worker's inbox.
    pub fn build(num_workers: u32) -> (Arc<ChannelTransport>, Vec<Inbox>) {
        let mut senders = Vec::with_capacity(num_workers as usize);
        let mut inboxes = Vec::with_capacity(num_workers as usize);
        for _ in 0..num_workers {
            let (tx, rx) = channel();
            senders.push(Mutex::new(tx));
            inboxes.push(Inbox::Channel(rx));
        }
        (Arc::new(ChannelTransport { senders }), inboxes)
    }
}

impl Transport for ChannelTransport {
    fn send(&self, _src: WorkerId, dst: WorkerId, frame: Bytes) -> Result<(), TransportError> {
        // A closed inbox means the cluster is shutting down, and an
        // out-of-range dst means a corrupt proxy frame; dropping the
        // frame is correct in both cases.
        if let Some(tx) = self.senders.get(dst as usize) {
            let _ = lock(tx).send(frame);
        }
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "only the controller respawns a worker, and it names one of its own"
    )]
    fn replace_inbox(&self, w: WorkerId) -> Inbox {
        let (tx, rx) = channel();
        *lock(&self.senders[w as usize]) = tx;
        Inbox::Channel(rx)
    }

    fn in_flight(&self) -> usize {
        // Channel delivery is synchronous with respect to the barrier
        // protocol: every frame sent during an export phase is in its
        // destination inbox before the apply phase drains, so nothing is
        // ever in flight at a convergence check.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transport_roundtrips() {
        let (t, mut inboxes) = ChannelTransport::build(2);
        t.send(0, 1, Bytes::from_static(b"hi")).unwrap();
        assert_eq!(inboxes[1].try_recv().unwrap().as_ref(), b"hi");
        assert!(inboxes[1].try_recv().is_none());
        assert!(inboxes[0].try_recv().is_none());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn replace_inbox_discards_queued_frames() {
        let (t, _inboxes) = ChannelTransport::build(1);
        t.send(0, 0, Bytes::from_static(b"stale")).unwrap();
        let mut fresh = t.replace_inbox(0);
        assert!(fresh.try_recv().is_none());
        t.send(0, 0, Bytes::from_static(b"fresh")).unwrap();
        assert_eq!(fresh.try_recv().unwrap().as_ref(), b"fresh");
    }
}
