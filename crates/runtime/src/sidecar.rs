//! Sidecars: the message routers between workers (§3.2).
//!
//! Each worker owns a [`Sidecar`] holding its inbox receiver plus the
//! shared [`SidecarNet`] — the node→worker map and the senders to every
//! other sidecar. A node sending a route or packet to a remote node hands
//! the encoded message to its sidecar, which looks up the owning worker
//! and forwards it; the receiving sidecar delivers it to the right local
//! node. Per-link traffic statistics are kept so experiments can report
//! communication volume.
//!
//! ## Hardening
//!
//! Every delivery is wrapped in a checksummed [`wire`] frame carrying the
//! sending worker, the controller *epoch*, and a per-link sequence
//! number. The receiving sidecar validates each frame and treats failures
//! as per-message events, never fatal to the worker:
//!
//! * checksum / length / decode failures → counted in
//!   [`TrafficStats::wire_errors`], frame skipped;
//! * stale epoch (a zombie worker replaced during recovery) → counted in
//!   [`TrafficStats::stale_drops`], frame skipped;
//! * replayed sequence number (duplicated frame) → counted in
//!   [`TrafficStats::dup_skips`], frame skipped;
//! * sequence gap (frames lost in transit) → counted in
//!   [`TrafficStats::seq_gaps`]; the controller uses the disturbance
//!   counters to keep fix-point rounds going until the loss is healed.
//!
//! The net also hosts the [`FaultState`] hooks (drop / duplicate /
//! corrupt / delay of the n-th frame) used by the chaos tests, and the
//! sender side of worker recovery: [`SidecarNet::replace_inbox`] swaps a
//! dead worker's inbox for a fresh channel so a respawned worker starts
//! from a clean slate.

use crate::faults::FaultState;
use crate::tcp::TcpTransport;
use crate::transport::{ChannelTransport, Inbox, Transport, TransportKind};
use crate::wire::{self, Message};
use bytes::Bytes;
use s2_net::topology::NodeId;
use s2_obs::lock;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Worker index.
pub type WorkerId = u32;

/// Cumulative cross-worker traffic counters (shared, lock-free).
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Messages forwarded between distinct workers.
    pub messages: AtomicU64,
    /// Bytes forwarded between distinct workers (message payload, before
    /// framing).
    pub bytes: AtomicU64,
    /// Frames rejected by the receiver (checksum, length, decode).
    pub wire_errors: AtomicU64,
    /// Frames skipped because their sequence number was already seen.
    pub dup_skips: AtomicU64,
    /// Sequence numbers skipped over (frames lost in transit).
    pub seq_gaps: AtomicU64,
    /// Frames dropped for carrying a stale controller epoch.
    pub stale_drops: AtomicU64,
    /// Frames dropped by fault injection.
    pub injected_drops: AtomicU64,
    /// Frames duplicated by fault injection.
    pub injected_dups: AtomicU64,
    /// Frames corrupted by fault injection.
    pub injected_corruptions: AtomicU64,
    /// Frames delayed by fault injection.
    pub injected_delays: AtomicU64,
    /// TCP connections re-established after a failure (frames buffered in
    /// the dead connection may be lost, so reconnects count as losses).
    pub reconnects: AtomicU64,
    /// Keepalive probes written on idle connections.
    pub heartbeats: AtomicU64,
    /// Messages or envelopes a peer sent that violated the protocol
    /// (unknown kind, malformed handshake, non-local target…); each one
    /// is skipped, never fatal.
    pub protocol_violations: AtomicU64,
    /// Per-switch scratch-buffer reuses in the forwarding hot loop —
    /// each one is a `StepOutput` (three Vecs) that was *not* freshly
    /// allocated. An allocation-pressure metric, not a wire event.
    pub scratch_reuses: AtomicU64,
}

impl TrafficStats {
    /// Snapshot of (messages, bytes).
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    /// Events that can leave a receiver missing traffic this round:
    /// injected drops and delays plus every rejected frame. The
    /// controller samples this around each fix-point round — a non-zero
    /// delta means the round cannot prove convergence and (for BGP)
    /// triggers a resync of the incremental-export caches.
    pub fn disturbances(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
            + self.injected_delays.load(Ordering::Relaxed)
            + self.wire_errors.load(Ordering::Relaxed)
            + self.reconnects.load(Ordering::Relaxed)
            + self.protocol_violations.load(Ordering::Relaxed)
    }

    /// Frames lost to the receiver (injected drops, rejected frames,
    /// reconnects with possibly-buffered frames, protocol-violating
    /// messages that were skipped) — the subset of disturbances that
    /// needs active healing.
    pub fn losses(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
            + self.wire_errors.load(Ordering::Relaxed)
            + self.reconnects.load(Ordering::Relaxed)
            + self.protocol_violations.load(Ordering::Relaxed)
    }

    /// A plain-value copy of every counter (for reports and for shipping
    /// worker-side statistics to a remote controller).
    pub fn full_snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            dup_skips: self.dup_skips.load(Ordering::Relaxed),
            seq_gaps: self.seq_gaps.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            injected_dups: self.injected_dups.load(Ordering::Relaxed),
            injected_corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            protocol_violations: self.protocol_violations.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of [`TrafficStats`] — what run statistics and
/// remote workers report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// See [`TrafficStats::messages`].
    pub messages: u64,
    /// See [`TrafficStats::bytes`].
    pub bytes: u64,
    /// See [`TrafficStats::wire_errors`].
    pub wire_errors: u64,
    /// See [`TrafficStats::dup_skips`].
    pub dup_skips: u64,
    /// See [`TrafficStats::seq_gaps`].
    pub seq_gaps: u64,
    /// See [`TrafficStats::stale_drops`].
    pub stale_drops: u64,
    /// See [`TrafficStats::injected_drops`].
    pub injected_drops: u64,
    /// See [`TrafficStats::injected_dups`].
    pub injected_dups: u64,
    /// See [`TrafficStats::injected_corruptions`].
    pub injected_corruptions: u64,
    /// See [`TrafficStats::injected_delays`].
    pub injected_delays: u64,
    /// See [`TrafficStats::reconnects`].
    pub reconnects: u64,
    /// See [`TrafficStats::heartbeats`].
    pub heartbeats: u64,
    /// See [`TrafficStats::protocol_violations`].
    pub protocol_violations: u64,
    /// See [`TrafficStats::scratch_reuses`].
    pub scratch_reuses: u64,
}

impl TrafficSnapshot {
    /// Field-wise sum (aggregating per-process snapshots of a
    /// multi-process cluster).
    pub fn merge(&mut self, other: &TrafficSnapshot) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.wire_errors += other.wire_errors;
        self.dup_skips += other.dup_skips;
        self.seq_gaps += other.seq_gaps;
        self.stale_drops += other.stale_drops;
        self.injected_drops += other.injected_drops;
        self.injected_dups += other.injected_dups;
        self.injected_corruptions += other.injected_corruptions;
        self.injected_delays += other.injected_delays;
        self.reconnects += other.reconnects;
        self.heartbeats += other.heartbeats;
        self.protocol_violations += other.protocol_violations;
        self.scratch_reuses += other.scratch_reuses;
    }

    /// Mirror of [`TrafficStats::disturbances`] over plain values.
    pub fn disturbances(&self) -> u64 {
        self.injected_drops
            + self.injected_delays
            + self.wire_errors
            + self.reconnects
            + self.protocol_violations
    }

    /// Mirror of [`TrafficStats::losses`] over plain values.
    pub fn losses(&self) -> u64 {
        self.injected_drops + self.wire_errors + self.reconnects + self.protocol_violations
    }
}

/// A frame held back by an injected delay.
#[derive(Debug)]
struct HeldMessage {
    rounds_left: u32,
    src: WorkerId,
    dst: WorkerId,
    payload: Bytes,
}

/// The shared fabric connecting all sidecars.
#[derive(Debug, Clone)]
pub struct SidecarNet {
    node_owner: Arc<Vec<WorkerId>>,
    /// The pluggable data fabric frames travel on.
    transport: Arc<dyn Transport>,
    stats: Arc<TrafficStats>,
    /// Current controller epoch; bumped on every recovery so frames from
    /// replaced (zombie) workers identify themselves as stale.
    epoch: Arc<AtomicU32>,
    /// Per-(sender, receiver) sequence counters.
    seq: Arc<Vec<Vec<AtomicU64>>>,
    faults: Arc<FaultState>,
    held: Arc<Mutex<Vec<HeldMessage>>>,
}

impl SidecarNet {
    /// Builds the fabric for `num_workers` workers given the node→worker
    /// assignment, returning the net plus each worker's inbox (channel
    /// backend).
    pub fn build(node_owner: Vec<WorkerId>, num_workers: u32) -> (SidecarNet, Vec<Inbox>) {
        Self::build_with_faults(node_owner, num_workers, Arc::new(FaultState::default()))
    }

    /// [`SidecarNet::build`] with an armed fault plan (channel backend).
    pub fn build_with_faults(
        node_owner: Vec<WorkerId>,
        num_workers: u32,
        faults: Arc<FaultState>,
    ) -> (SidecarNet, Vec<Inbox>) {
        // Built directly (not through `build_with_transport`) so this
        // path is statically infallible: only socket binds can fail.
        let stats = Arc::new(TrafficStats::default());
        let (transport, inboxes) = ChannelTransport::build(num_workers);
        (
            Self::assemble(node_owner, num_workers, faults, transport, stats),
            inboxes,
        )
    }

    /// Builds the fabric on the requested transport backend. Only the TCP
    /// backend can fail (socket binds).
    pub fn build_with_transport(
        node_owner: Vec<WorkerId>,
        num_workers: u32,
        faults: Arc<FaultState>,
        kind: TransportKind,
    ) -> io::Result<(SidecarNet, Vec<Inbox>)> {
        let stats = Arc::new(TrafficStats::default());
        let (transport, inboxes): (Arc<dyn Transport>, Vec<Inbox>) = match kind {
            TransportKind::Channel => {
                let (t, inboxes) = ChannelTransport::build(num_workers);
                (t, inboxes)
            }
            TransportKind::Tcp(cfg) => {
                let (t, inboxes) =
                    TcpTransport::mesh(num_workers, cfg, stats.clone(), faults.clone())?;
                (t, inboxes)
            }
        };
        Ok((
            Self::assemble(node_owner, num_workers, faults, transport, stats),
            inboxes,
        ))
    }

    /// Builds the fabric around an externally constructed transport (the
    /// multi-process worker endpoint, where the single-worker TCP
    /// transport is built from the controller's `Setup` message).
    pub fn with_transport(
        node_owner: Vec<WorkerId>,
        num_workers: u32,
        faults: Arc<FaultState>,
        transport: Arc<dyn Transport>,
        stats: Arc<TrafficStats>,
    ) -> SidecarNet {
        Self::assemble(node_owner, num_workers, faults, transport, stats)
    }

    fn assemble(
        node_owner: Vec<WorkerId>,
        num_workers: u32,
        faults: Arc<FaultState>,
        transport: Arc<dyn Transport>,
        stats: Arc<TrafficStats>,
    ) -> SidecarNet {
        let seq = (0..num_workers)
            .map(|_| (0..num_workers).map(|_| AtomicU64::new(0)).collect())
            .collect();
        SidecarNet {
            node_owner: Arc::new(node_owner),
            transport,
            stats,
            epoch: Arc::new(AtomicU32::new(0)),
            seq: Arc::new(seq),
            faults,
            held: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Frames accepted by the transport but not yet drained by their
    /// destination worker (always 0 on the synchronous channel backend).
    pub fn in_flight(&self) -> usize {
        self.transport.in_flight()
    }

    /// Shuts the transport down (closes sockets, joins supervision
    /// threads; no-op for channels).
    pub fn shutdown_transport(&self) {
        self.transport.shutdown();
    }

    /// The worker hosting `node`.
    #[inline]
    pub fn owner(&self, node: NodeId) -> WorkerId {
        // s2-lint: allow(r1-panic-freedom): wire-supplied node ids are range-checked against node_owner in Sidecar::drain before surfacing; all other callers pass locally-owned topology ids that node_owner covers by construction.
        self.node_owner[node.index()]
    }

    /// Whether `node` exists in the node→worker map (the range check
    /// [`drain`](Sidecar::drain) applies to peer-supplied node ids).
    #[inline]
    pub fn knows_node(&self, node: NodeId) -> bool {
        node.index() < self.node_owner.len()
    }

    /// Cross-worker traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The current controller epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Starts a new epoch (called by the controller during recovery);
    /// in-flight frames from the old epoch will be dropped as stale.
    pub fn bump_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Replaces worker `w`'s inbox with a fresh, empty one and returns it
    /// (for the respawned worker). Frames still queued in the old inbox
    /// are discarded.
    pub fn replace_inbox(&self, w: WorkerId) -> Inbox {
        self.transport.replace_inbox(w)
    }

    /// Messages currently held back by injected delays.
    pub fn held_count(&self) -> usize {
        lock(&self.held).len()
    }

    /// Advances injected delays by one barrier round, delivering every
    /// message whose hold expired. Returns how many were released.
    pub fn tick_delayed(&self) -> usize {
        let due: Vec<HeldMessage> = {
            let mut held = lock(&self.held);
            for h in held.iter_mut() {
                h.rounds_left = h.rounds_left.saturating_sub(1);
            }
            let (due, keep): (Vec<_>, Vec<_>) =
                held.drain(..).partition(|h| h.rounds_left == 0);
            *held = keep;
            due
        };
        let released = due.len();
        for h in due {
            // Framed at release time: sequence numbers reflect delivery
            // order, so a delayed message is late, not "from the past".
            self.deliver(h.src, h.dst, &h.payload, false);
        }
        released
    }

    /// Discards every held message (recovery: the resync logic re-sends
    /// fresher state than anything still in the delay queue).
    pub fn discard_held(&self) {
        lock(&self.held).clear();
    }

    /// Frames `payload` and pushes it into `dst`'s inbox, optionally
    /// corrupted.
    fn deliver(&self, src: WorkerId, dst: WorkerId, payload: &Bytes, corrupt: bool) {
        // s2-lint: allow(r1-panic-freedom): src is this process's own worker id and dst comes from node_owner, validated against num_workers at setup (remote::serve) or built locally by the controller; seq is num_workers².
        let seq = self.seq[src as usize][dst as usize].fetch_add(1, Ordering::Relaxed);
        let framed = wire::frame(src, self.epoch(), seq, payload);
        let framed = if corrupt {
            let mut raw: Vec<u8> = framed.as_ref().to_vec();
            // Flip the last byte: always inside the message payload, so
            // the receiver's checksum (not the length check) catches it.
            if let Some(b) = raw.last_mut() {
                *b ^= 0xff;
            }
            Bytes::from(raw)
        } else {
            framed
        };
        // A send fails only once the transport is shut down, when the
        // frame has nowhere to go.
        let _ = self.transport.send(src, dst, framed);
    }

    /// Routes an encoded message from worker `src` to the worker owning
    /// `target` (see [`SidecarNet::send_to_worker`]).
    pub fn send_to_node(&self, src: WorkerId, target: NodeId, payload: Bytes) {
        self.send_to_worker(src, self.owner(target), payload);
    }

    /// Routes an encoded message from worker `src` to worker `dst`. The
    /// counters only tick for genuinely remote deliveries; callers
    /// short-circuit local traffic before encoding (real-node fast
    /// path). Fault-plan hooks apply here, indexed by a cluster-wide
    /// attempt counter.
    pub fn send_to_worker(&self, src: WorkerId, dst: WorkerId, payload: Bytes) {
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);

        let idx = self.faults.next_send_index();
        if self.faults.drops(idx) {
            self.stats.injected_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(rounds) = self.faults.delay_of(idx) {
            self.stats.injected_delays.fetch_add(1, Ordering::Relaxed);
            lock(&self.held).push(HeldMessage {
                rounds_left: rounds.max(1),
                src,
                dst,
                payload,
            });
            return;
        }
        let corrupt = self.faults.corrupts(idx);
        if corrupt {
            self.stats
                .injected_corruptions
                .fetch_add(1, Ordering::Relaxed);
        }
        self.deliver(src, dst, &payload, corrupt);
        if self.faults.duplicates(idx) {
            self.stats.injected_dups.fetch_add(1, Ordering::Relaxed);
            // Replay the frame verbatim (fresh frame, same intent): the
            // receiver must drop it by sequence number.
            // s2-lint: allow(r1-panic-freedom): same bounds argument as `deliver` above — src/dst are setup-validated worker ids.
            let seq = self.seq[src as usize][dst as usize].load(Ordering::Relaxed) - 1;
            let framed = wire::frame(src, self.epoch(), seq, &payload);
            let _ = self.transport.send(src, dst, framed);
        }
    }
}

/// One worker's endpoint: its inbox plus the shared fabric.
#[derive(Debug)]
pub struct Sidecar {
    /// This worker's id.
    pub worker: WorkerId,
    net: SidecarNet,
    inbox: Inbox,
    /// The epoch this worker believes is current (updated by the
    /// controller's `FlushInbox` during recovery).
    epoch: u32,
    /// Highest sequence number accepted per sending worker.
    last_seq: BTreeMap<WorkerId, u64>,
}

impl Sidecar {
    /// Wraps a worker's endpoint.
    pub fn new(worker: WorkerId, net: SidecarNet, inbox: Inbox) -> Self {
        let epoch = net.epoch();
        Sidecar {
            worker,
            net,
            inbox,
            epoch,
            last_seq: BTreeMap::new(),
        }
    }

    /// The shared fabric.
    pub fn net(&self) -> &SidecarNet {
        &self.net
    }

    /// Whether `node` is hosted by this worker (a **real** node here, a
    /// shadow node everywhere else).
    #[inline]
    pub fn is_local(&self, node: NodeId) -> bool {
        self.net.owner(node) == self.worker
    }

    /// Sends `msg` toward the worker owning `target` (must be remote).
    pub fn send(&self, target: NodeId, msg: &Message) {
        debug_assert!(!self.is_local(target), "local traffic must not use the sidecar");
        self.net.send_to_node(self.worker, target, wire::encode(msg));
    }

    /// Sends `msg` to worker `dst` (must be another worker).
    pub fn send_to_worker(&self, dst: WorkerId, msg: &Message) {
        debug_assert_ne!(dst, self.worker, "local traffic must not use the sidecar");
        self.net.send_to_worker(self.worker, dst, wire::encode(msg));
    }

    /// Discards everything queued in the inbox, adopts `epoch` as
    /// current, and resets sequence tracking — the receiver half of the
    /// controller's recovery protocol.
    pub fn flush(&mut self, epoch: u32) {
        while self.inbox.try_recv().is_some() {}
        self.epoch = epoch;
        self.last_seq.clear();
    }

    /// Drains and decodes every valid message currently queued in the
    /// inbox. Invalid frames (bad checksum/length/decode), stale-epoch
    /// frames, and sequence replays are counted in [`TrafficStats`] and
    /// skipped — a mis-transmitted message never takes the worker down.
    pub fn drain(&mut self) -> Vec<Message> {
        let stats = self.net.stats.clone();
        let mut out = Vec::new();
        loop {
            let bytes = match self.inbox.try_recv() {
                Some(bytes) => bytes,
                None => return out,
            };
            let frame = match wire::deframe(bytes) {
                Ok(f) => f,
                Err(_) => {
                    stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if frame.epoch != self.epoch {
                stats.stale_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match self.last_seq.get(&frame.src) {
                Some(&last) if frame.seq <= last => {
                    stats.dup_skips.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Some(&last) if frame.seq > last + 1 => {
                    stats
                        .seq_gaps
                        .fetch_add(frame.seq - last - 1, Ordering::Relaxed);
                }
                Some(_) => {}
                // First contact on this link (or after a flush): accept
                // whatever sequence the sender is at.
                None => {}
            }
            self.last_seq.insert(frame.src, frame.seq);
            match wire::decode(frame.payload) {
                // Peer-supplied node ids are range-checked here, at the
                // trust boundary, so downstream ownership lookups and
                // switch-table indexing cannot go out of bounds.
                Ok(msg) if self.targets_known_nodes(&msg) => out.push(msg),
                Ok(_) => {
                    stats.protocol_violations.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Every node id carried by `msg` exists in the node→worker map, and
    /// a shared-body advertisement lists at least one target. A packet
    /// batch naming one unknown node is rejected whole.
    fn targets_known_nodes(&self, msg: &Message) -> bool {
        match msg {
            Message::BgpAdvertisement { target_node, .. }
            | Message::OspfAdvertisement { target_node, .. } => self.net.knows_node(*target_node),
            Message::BgpClassAdvertisement { targets, .. } => {
                !targets.is_empty() && targets.iter().all(|&(n, _)| self.net.knows_node(n))
            }
            Message::PacketBatch { packets, .. } => packets
                .iter()
                .all(|p| self.net.knows_node(p.src) && self.net.knows_node(p.node)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn two_worker_net() -> (SidecarNet, Vec<Sidecar>) {
        faulty_two_worker_net(FaultPlan::new())
    }

    fn faulty_two_worker_net(plan: FaultPlan) -> (SidecarNet, Vec<Sidecar>) {
        // Nodes 0,1 on worker 0; node 2 on worker 1.
        let (net, rxs) =
            SidecarNet::build_with_faults(vec![0, 0, 1], 2, Arc::new(FaultState::new(plan)));
        let sidecars = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| Sidecar::new(i as u32, net.clone(), rx))
            .collect();
        (net, sidecars)
    }

    fn bgp_msg(session: u32) -> Message {
        Message::BgpAdvertisement {
            target_node: NodeId(2),
            target_session: session,
            routes: vec![],
        }
    }

    #[test]
    fn ownership_lookup() {
        let (net, sidecars) = two_worker_net();
        assert_eq!(net.owner(NodeId(0)), 0);
        assert_eq!(net.owner(NodeId(2)), 1);
        assert!(sidecars[0].is_local(NodeId(1)));
        assert!(!sidecars[0].is_local(NodeId(2)));
    }

    #[test]
    fn messages_route_to_owning_worker() {
        let (_, mut sidecars) = two_worker_net();
        let msg = bgp_msg(0);
        sidecars[0].send(NodeId(2), &msg);
        let got = sidecars[1].drain();
        assert_eq!(got, vec![msg]);
        assert!(sidecars[0].drain().is_empty());
    }

    #[test]
    fn traffic_counters_tick() {
        let (net, mut sidecars) = two_worker_net();
        let msg = Message::OspfAdvertisement {
            target_node: NodeId(2),
            via_iface: s2_net::topology::InterfaceId(0),
            entries: vec![],
        };
        sidecars[0].send(NodeId(2), &msg);
        sidecars[0].send(NodeId(2), &msg);
        let (m, b) = net.stats().snapshot();
        assert_eq!(m, 2);
        assert!(b > 0);
        assert_eq!(sidecars[1].drain().len(), 2);
        assert_eq!(net.stats().wire_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drain_preserves_order_per_sender() {
        let (_, mut sidecars) = two_worker_net();
        for session in 0..5 {
            sidecars[0].send(NodeId(2), &bgp_msg(session));
        }
        let got = sidecars[1].drain();
        let sessions: Vec<u32> = got
            .iter()
            .map(|m| match m {
                Message::BgpAdvertisement { target_session, .. } => *target_session,
                _ => panic!("unexpected message"),
            })
            .collect();
        assert_eq!(sessions, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn corrupted_frame_is_counted_and_skipped() {
        let (net, mut sidecars) = faulty_two_worker_net(FaultPlan::new().corrupt_message(0));
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        sidecars[0].send(NodeId(2), &bgp_msg(1));
        let got = sidecars[1].drain();
        assert_eq!(got, vec![bgp_msg(1)], "corrupted frame skipped");
        assert_eq!(net.stats().wire_errors.load(Ordering::Relaxed), 1);
        assert!(net.stats().disturbances() >= 1);
    }

    #[test]
    fn duplicated_frame_is_deduped_by_sequence() {
        let (net, mut sidecars) = faulty_two_worker_net(FaultPlan::new().duplicate_message(0));
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        assert_eq!(sidecars[1].drain(), vec![bgp_msg(0)]);
        assert_eq!(net.stats().dup_skips.load(Ordering::Relaxed), 1);
        assert_eq!(net.stats().injected_dups.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropped_frame_counts_and_later_frames_reveal_gap() {
        let (net, mut sidecars) = faulty_two_worker_net(FaultPlan::new().drop_message(0));
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        sidecars[0].send(NodeId(2), &bgp_msg(1));
        assert_eq!(sidecars[1].drain(), vec![bgp_msg(1)]);
        assert_eq!(net.stats().injected_drops.load(Ordering::Relaxed), 1);
        // Dropping happens before framing, so no gap: the drop is counted
        // at the sender instead.
        assert!(net.stats().losses() >= 1);
    }

    #[test]
    fn delayed_frame_arrives_after_ticks() {
        let (net, mut sidecars) = faulty_two_worker_net(FaultPlan::new().delay_message(0, 2));
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        assert!(sidecars[1].drain().is_empty());
        assert_eq!(net.held_count(), 1);
        assert_eq!(net.tick_delayed(), 0);
        assert_eq!(net.tick_delayed(), 1);
        assert_eq!(sidecars[1].drain(), vec![bgp_msg(0)]);
        assert_eq!(net.held_count(), 0);
    }

    #[test]
    fn stale_epoch_frames_are_dropped_after_flush() {
        let (net, mut sidecars) = two_worker_net();
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        // Recovery: epoch bumps while the frame is still in flight…
        let e = net.bump_epoch();
        sidecars[0].send(NodeId(2), &bgp_msg(1));
        // …the receiver flushes to the new epoch, discarding the queue.
        sidecars[1].flush(e);
        sidecars[0].send(NodeId(2), &bgp_msg(2));
        assert_eq!(sidecars[1].drain(), vec![bgp_msg(2)]);
        // Nothing stale survived; only the flushed-away frames are gone.
        assert_eq!(net.stats().stale_drops.load(Ordering::Relaxed), 0);

        // A zombie still sending with the old epoch is filtered out.
        let (net2, mut sidecars2) = two_worker_net();
        sidecars2[0].send(NodeId(2), &bgp_msg(0));
        sidecars2[1].flush(net2.epoch() + 1); // receiver is ahead
        sidecars2[0].send(NodeId(2), &bgp_msg(1));
        assert!(sidecars2[1].drain().is_empty());
        assert_eq!(net2.stats().stale_drops.load(Ordering::Relaxed), 1);
    }

    /// A batch naming one node outside the map is one protocol
    /// violation, and none of its packets is delivered.
    #[test]
    fn batch_naming_an_unknown_node_is_one_violation() {
        use crate::wire::PacketRef;
        let (net, mut sidecars) = two_worker_net();
        let packet = |node| PacketRef {
            src: NodeId(0),
            node: NodeId(node),
            ingress: None,
            hops: 1,
            bdd: 0,
        };
        let batch = |nodes: &[u32]| Message::PacketBatch {
            bdds: vec![Bytes::from_static(&[0])],
            packets: nodes.iter().map(|&n| packet(n)).collect(),
        };
        sidecars[0].send_to_worker(1, &batch(&[2, 3, 2]));
        sidecars[0].send_to_worker(1, &batch(&[2]));
        assert_eq!(sidecars[1].drain(), vec![batch(&[2])]);
        assert_eq!(net.stats().protocol_violations.load(Ordering::Relaxed), 1);
        assert_eq!(net.stats().wire_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn replace_inbox_starts_clean() {
        let (net, sidecars) = two_worker_net();
        sidecars[0].send(NodeId(2), &bgp_msg(0));
        // Worker 1 "dies"; its queued frame dies with the old channel.
        let rx = net.replace_inbox(1);
        let mut fresh = Sidecar::new(1, net.clone(), rx);
        assert!(fresh.drain().is_empty());
        sidecars[0].send(NodeId(2), &bgp_msg(1));
        assert_eq!(fresh.drain(), vec![bgp_msg(1)]);
    }
}
