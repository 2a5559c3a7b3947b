//! Multi-process mode: the control-channel protocol between a controller
//! process and `s2 worker` processes.
//!
//! The data fabric (routes, packets) between workers is the [`crate::tcp`]
//! transport; this module adds the *control* dimension: every
//! [`Command`]/[`Reply`] that the in-process cluster moves over crossbeam
//! channels is serialized into the same `kind:u8 len:u32 payload` stream
//! envelope the data sockets use, over one TCP connection per worker.
//!
//! Handshake:
//!
//! 1. the worker process binds its data listener, connects to the
//!    controller's `--listen` address, and sends `Register{data_addr}`,
//! 2. the controller accepts all `num_workers` registrations, assigns
//!    worker ids in accept order, and answers each with
//!    `Setup{worker_id, num_workers, node_owner, peers, memory_budget}`,
//! 3. the worker builds its [`crate::tcp::TcpTransport`] endpoint from
//!    `peers` and enters a command loop; the controller wraps each
//!    connection in a proxy thread ([`spawn_proxy`]) so the barrier logic
//!    upstream is byte-for-byte the single-process code path.
//!
//! The command loop is strict request/reply: one `Reply` per `Command`,
//! except `Shutdown` which has no reply. A decode failure or socket error
//! on either side tears the control connection down; the controller then
//! observes a closed proxy channel, which surfaces as the same
//! `WorkerLost` error a crashed in-process worker produces.
//!
//! All codecs here are defensive in the [`crate::wire`] style: every read
//! is bounds-checked, every tag validated, and a malformed peer yields a
//! [`WireError`] — never a panic.

use crate::faults::FaultState;
use crate::memstats::MemReport;
use crate::sidecar::{Sidecar, SidecarNet, TrafficSnapshot, TrafficStats};
use crate::tcp::{
    read_envelope, write_envelope, TcpConfig, TcpTransport, K_COMMAND, K_REGISTER, K_REPLY,
    K_SETUP,
};
use crate::wire::{
    cap, get_bool, get_final_kind, get_node_pairs, get_prefix, get_rib_route, get_rib_snapshot,
    get_str, need, put_bool, put_final_kind, put_node_pairs, put_prefix, put_rib_route,
    put_rib_snapshot, put_str, WireError,
};
use crate::worker::{Command, Reply, Worker};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use s2_routing::NetworkModel;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Upper bound on a control-channel envelope. `DpSetup` ships the full
/// converged RIB snapshot, so this is far larger than the data-plane
/// frame cap — but still bounded, so a corrupt length prefix cannot ask
/// the receiver to allocate without limit.
pub const MAX_CONTROL_FRAME: usize = 256 << 20;

// ---- primitive codecs ----

fn put_addr(buf: &mut BytesMut, addr: &SocketAddr) {
    put_str(buf, &addr.to_string());
}

fn get_addr(buf: &mut Bytes) -> Result<SocketAddr, WireError> {
    get_str(buf)?
        .parse()
        .map_err(|_| WireError::BadValue("socket address"))
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u64(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_u64(buf: &mut impl Buf) -> Result<Option<u64>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 8)?;
            Ok(Some(buf.get_u64()))
        }
        _ => Err(WireError::BadValue("option discriminant")),
    }
}

fn put_traffic(buf: &mut BytesMut, t: &TrafficSnapshot) {
    for v in [
        t.messages,
        t.bytes,
        t.wire_errors,
        t.dup_skips,
        t.seq_gaps,
        t.stale_drops,
        t.injected_drops,
        t.injected_dups,
        t.injected_corruptions,
        t.injected_delays,
        t.reconnects,
        t.send_drops,
        t.backpressure_stalls,
        t.heartbeats,
        t.protocol_violations,
        t.scratch_reuses,
    ] {
        buf.put_u64(v);
    }
}

fn put_cache_stats(buf: &mut BytesMut, c: &crate::memstats::CacheStats) {
    for v in [
        c.unique_lookups,
        c.unique_hits,
        c.unique_probe_misses,
        c.unique_resizes,
        c.bin_lookups,
        c.bin_hits,
        c.not_lookups,
        c.not_hits,
        c.memo_lookups,
        c.memo_hits,
        c.generation_clears,
    ] {
        buf.put_u64(v);
    }
}

fn get_cache_stats(buf: &mut impl Buf) -> Result<crate::memstats::CacheStats, WireError> {
    need(buf, 11 * 8)?;
    Ok(crate::memstats::CacheStats {
        unique_lookups: buf.get_u64(),
        unique_hits: buf.get_u64(),
        unique_probe_misses: buf.get_u64(),
        unique_resizes: buf.get_u64(),
        bin_lookups: buf.get_u64(),
        bin_hits: buf.get_u64(),
        not_lookups: buf.get_u64(),
        not_hits: buf.get_u64(),
        memo_lookups: buf.get_u64(),
        memo_hits: buf.get_u64(),
        generation_clears: buf.get_u64(),
    })
}

fn get_traffic(buf: &mut impl Buf) -> Result<TrafficSnapshot, WireError> {
    need(buf, 16 * 8)?;
    Ok(TrafficSnapshot {
        messages: buf.get_u64(),
        bytes: buf.get_u64(),
        wire_errors: buf.get_u64(),
        dup_skips: buf.get_u64(),
        seq_gaps: buf.get_u64(),
        stale_drops: buf.get_u64(),
        injected_drops: buf.get_u64(),
        injected_dups: buf.get_u64(),
        injected_corruptions: buf.get_u64(),
        injected_delays: buf.get_u64(),
        reconnects: buf.get_u64(),
        send_drops: buf.get_u64(),
        backpressure_stalls: buf.get_u64(),
        heartbeats: buf.get_u64(),
        protocol_violations: buf.get_u64(),
        scratch_reuses: buf.get_u64(),
    })
}

fn get_node(buf: &mut impl Buf) -> Result<NodeId, WireError> {
    need(buf, 4)?;
    Ok(NodeId(buf.get_u32()))
}

// ---- handshake messages ----

/// The worker's first message on the control channel: where its data
/// listener can be reached by peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Address of the worker's bound data listener.
    pub data_addr: SocketAddr,
}

/// Encodes a [`Register`].
pub fn encode_register(r: &Register) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    put_addr(&mut buf, &r.data_addr);
    buf.freeze()
}

/// Decodes a [`Register`].
pub fn decode_register(mut buf: Bytes) -> Result<Register, WireError> {
    let data_addr = get_addr(&mut buf)?;
    Ok(Register { data_addr })
}

/// The controller's answer to a [`Register`]: everything the worker
/// process needs to become a cluster member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Setup {
    /// The id assigned to this worker.
    pub worker_id: u32,
    /// Cluster size.
    pub num_workers: u32,
    /// Node index → owning worker.
    pub node_owner: Vec<u32>,
    /// Every worker's data address, indexed by worker id.
    pub peers: Vec<SocketAddr>,
    /// Per-worker memory budget in bytes, if any.
    pub memory_budget: Option<usize>,
    /// Intra-worker evaluation threads (see `RuntimeConfig`); 0 and 1
    /// both mean sequential.
    pub intra_worker_threads: u32,
}

/// Encodes a [`Setup`].
pub fn encode_setup(s: &Setup) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + 4 * s.node_owner.len());
    buf.put_u32(s.worker_id);
    buf.put_u32(s.num_workers);
    buf.put_u32(s.node_owner.len() as u32);
    for &w in &s.node_owner {
        buf.put_u32(w);
    }
    buf.put_u32(s.peers.len() as u32);
    for p in &s.peers {
        put_addr(&mut buf, p);
    }
    put_opt_u64(&mut buf, s.memory_budget.map(|b| b as u64));
    buf.put_u32(s.intra_worker_threads);
    buf.freeze()
}

/// Decodes a [`Setup`].
pub fn decode_setup(mut buf: Bytes) -> Result<Setup, WireError> {
    need(&buf, 12)?;
    let worker_id = buf.get_u32();
    let num_workers = buf.get_u32();
    let n = buf.get_u32() as usize;
    need(&buf, n * 4)?;
    let node_owner = (0..n).map(|_| buf.get_u32()).collect();
    need(&buf, 4)?;
    let m = buf.get_u32() as usize;
    let mut peers = Vec::with_capacity(cap(m));
    for _ in 0..m {
        peers.push(get_addr(&mut buf)?);
    }
    let memory_budget = get_opt_u64(&mut buf)?.map(|b| b as usize);
    need(&buf, 4)?;
    let intra_worker_threads = buf.get_u32();
    Ok(Setup {
        worker_id,
        num_workers,
        node_owner,
        peers,
        memory_budget,
        intra_worker_threads,
    })
}

// ---- Command codec ----

/// Encodes a [`Command`] for the control channel.
pub fn encode_command(cmd: &Command) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    match cmd {
        Command::OspfExport => buf.put_u8(1),
        Command::OspfApply => buf.put_u8(2),
        Command::BgpBegin { shard } => {
            buf.put_u8(3);
            match shard {
                None => buf.put_u8(0),
                Some(set) => {
                    buf.put_u8(1);
                    buf.put_u32(set.len() as u32);
                    // BTreeSet iterates in prefix order, so the wire
                    // bytes are a pure function of the shard contents
                    // (R2: re-runs and replicas must produce identical
                    // frames).
                    for p in set.iter() {
                        put_prefix(&mut buf, p);
                    }
                }
            }
        }
        Command::BgpExport => buf.put_u8(4),
        Command::BgpApply => buf.put_u8(5),
        Command::CollectBaseRib => buf.put_u8(6),
        Command::CollectBgpRib => buf.put_u8(7),
        Command::DpSetup {
            rib,
            meta_bits,
            waypoints,
            max_hops,
        } => {
            buf.put_u8(8);
            put_rib_snapshot(&mut buf, rib);
            buf.put_u16(*meta_bits);
            buf.put_u32(waypoints.len() as u32);
            for (node, bit) in waypoints.iter() {
                buf.put_u32(node.0);
                buf.put_u16(*bit);
            }
            buf.put_u16(*max_hops);
        }
        Command::Inject { injections } => {
            buf.put_u8(9);
            buf.put_u32(injections.len() as u32);
            for (node, prefix) in injections.iter() {
                buf.put_u32(node.0);
                put_prefix(&mut buf, prefix);
            }
        }
        Command::ForwardRound => buf.put_u8(10),
        Command::CheckArrivals {
            sources,
            expected,
            transits,
        } => {
            buf.put_u8(11);
            buf.put_u32(sources.len() as u32);
            for s in sources.iter() {
                buf.put_u32(s.0);
            }
            put_node_prefixes(&mut buf, expected);
            buf.put_u32(transits.len() as u32);
            for (node, bit) in transits.iter() {
                buf.put_u32(node.0);
                buf.put_u16(*bit);
            }
        }
        Command::CollectFinals => buf.put_u8(12),
        Command::CollectPrefixes => buf.put_u8(13),
        Command::CollectObservedDeps => buf.put_u8(14),
        Command::MemReport => buf.put_u8(15),
        Command::Ping(nonce) => {
            buf.put_u8(16);
            buf.put_u64(*nonce);
        }
        Command::FlushInbox { epoch } => {
            buf.put_u8(17);
            buf.put_u32(*epoch);
        }
        Command::BgpResync => buf.put_u8(18),
        Command::NetStats => buf.put_u8(19),
        Command::Shutdown => buf.put_u8(20),
        Command::Metrics => buf.put_u8(21),
        Command::ScenarioCheckpoint => buf.put_u8(22),
        Command::ScenarioBegin { failed, restore } => {
            buf.put_u8(23);
            put_ports(&mut buf, failed);
            put_bool(&mut buf, *restore);
        }
        Command::ScenarioRollback => buf.put_u8(24),
        Command::DpPatch {
            rib,
            changed,
            failed_ports,
        } => {
            buf.put_u8(25);
            put_rib_snapshot(&mut buf, rib);
            buf.put_u32(changed.len() as u32);
            for n in changed.iter() {
                buf.put_u32(n.0);
            }
            put_ports(&mut buf, failed_ports);
        }
        Command::DpScope { scopes } => {
            buf.put_u8(26);
            put_node_prefixes(&mut buf, scopes);
        }
        Command::DpCompile => buf.put_u8(27),
        Command::CtxWrap {
            epoch,
            parent,
            inner,
        } => {
            buf.put_u8(28);
            buf.put_u64(*epoch);
            buf.put_u64(*parent);
            let inner_bytes = encode_command(inner);
            buf.put_u32(inner_bytes.len() as u32);
            buf.put_slice(&inner_bytes);
        }
        Command::TraceDrain => buf.put_u8(29),
    }
    buf.freeze()
}

/// `(node, prefixes)` list codec, shared by `CheckArrivals`, `DpScope`
/// and `ChangedDst`.
fn put_node_prefixes(buf: &mut BytesMut, entries: &[(NodeId, Vec<Prefix>)]) {
    buf.put_u32(entries.len() as u32);
    for (node, prefixes) in entries {
        buf.put_u32(node.0);
        buf.put_u32(prefixes.len() as u32);
        for p in prefixes {
            put_prefix(buf, p);
        }
    }
}

fn get_node_prefixes(buf: &mut Bytes) -> Result<Vec<(NodeId, Vec<Prefix>)>, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    let mut entries = Vec::with_capacity(cap(n));
    for _ in 0..n {
        let node = get_node(buf)?;
        need(buf, 4)?;
        let np = buf.get_u32() as usize;
        let mut prefixes = Vec::with_capacity(cap(np));
        for _ in 0..np {
            prefixes.push(get_prefix(buf)?);
        }
        entries.push((node, prefixes));
    }
    Ok(entries)
}

fn put_ports(buf: &mut BytesMut, ports: &[(NodeId, InterfaceId)]) {
    buf.put_u32(ports.len() as u32);
    for (node, iface) in ports {
        buf.put_u32(node.0);
        buf.put_u16(iface.0);
    }
}

fn get_ports(buf: &mut Bytes) -> Result<Vec<(NodeId, InterfaceId)>, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    need(buf, n * 6)?;
    Ok((0..n)
        .map(|_| (NodeId(buf.get_u32()), InterfaceId(buf.get_u16())))
        .collect())
}

/// Decodes a [`Command`] from the control channel.
pub fn decode_command(mut buf: Bytes) -> Result<Command, WireError> {
    need(&buf, 1)?;
    Ok(match buf.get_u8() {
        1 => Command::OspfExport,
        2 => Command::OspfApply,
        3 => {
            need(&buf, 1)?;
            let shard = match buf.get_u8() {
                0 => None,
                1 => {
                    need(&buf, 4)?;
                    let n = buf.get_u32() as usize;
                    let mut set = BTreeSet::new();
                    for _ in 0..n {
                        set.insert(get_prefix(&mut buf)?);
                    }
                    Some(Arc::new(set))
                }
                _ => return Err(WireError::BadValue("option discriminant")),
            };
            Command::BgpBegin { shard }
        }
        4 => Command::BgpExport,
        5 => Command::BgpApply,
        6 => Command::CollectBaseRib,
        7 => Command::CollectBgpRib,
        8 => {
            let rib = Arc::new(get_rib_snapshot(&mut buf)?);
            need(&buf, 6)?;
            let meta_bits = buf.get_u16();
            let w = buf.get_u32() as usize;
            let mut waypoints = BTreeMap::new();
            for _ in 0..w {
                need(&buf, 6)?;
                let node = NodeId(buf.get_u32());
                let bit = buf.get_u16();
                waypoints.insert(node, bit);
            }
            need(&buf, 2)?;
            let max_hops = buf.get_u16();
            Command::DpSetup {
                rib,
                meta_bits,
                waypoints: Arc::new(waypoints),
                max_hops,
            }
        }
        9 => {
            need(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut injections = Vec::with_capacity(cap(n));
            for _ in 0..n {
                let node = get_node(&mut buf)?;
                let prefix = get_prefix(&mut buf)?;
                injections.push((node, prefix));
            }
            Command::Inject {
                injections: Arc::new(injections),
            }
        }
        10 => Command::ForwardRound,
        11 => {
            need(&buf, 4)?;
            let ns = buf.get_u32() as usize;
            need(&buf, ns * 4)?;
            let sources = (0..ns).map(|_| NodeId(buf.get_u32())).collect();
            let expected = get_node_prefixes(&mut buf)?;
            need(&buf, 4)?;
            let nt = buf.get_u32() as usize;
            need(&buf, nt * 6)?;
            let transits = (0..nt)
                .map(|_| (NodeId(buf.get_u32()), buf.get_u16()))
                .collect();
            Command::CheckArrivals {
                sources: Arc::new(sources),
                expected: Arc::new(expected),
                transits: Arc::new(transits),
            }
        }
        12 => Command::CollectFinals,
        13 => Command::CollectPrefixes,
        14 => Command::CollectObservedDeps,
        15 => Command::MemReport,
        16 => {
            need(&buf, 8)?;
            Command::Ping(buf.get_u64())
        }
        17 => {
            need(&buf, 4)?;
            Command::FlushInbox {
                epoch: buf.get_u32(),
            }
        }
        18 => Command::BgpResync,
        19 => Command::NetStats,
        20 => Command::Shutdown,
        21 => Command::Metrics,
        22 => Command::ScenarioCheckpoint,
        23 => {
            let failed = Arc::new(get_ports(&mut buf)?);
            need(&buf, 1)?;
            Command::ScenarioBegin {
                failed,
                restore: buf.get_u8() != 0,
            }
        }
        24 => Command::ScenarioRollback,
        25 => {
            let rib = Arc::new(get_rib_snapshot(&mut buf)?);
            need(&buf, 4)?;
            let nc = buf.get_u32() as usize;
            need(&buf, nc * 4)?;
            let changed = (0..nc).map(|_| NodeId(buf.get_u32())).collect();
            Command::DpPatch {
                rib,
                changed: Arc::new(changed),
                failed_ports: Arc::new(get_ports(&mut buf)?),
            }
        }
        26 => Command::DpScope {
            scopes: Arc::new(get_node_prefixes(&mut buf)?),
        },
        27 => Command::DpCompile,
        28 => {
            need(&buf, 20)?;
            let epoch = buf.get_u64();
            let parent = buf.get_u64();
            let n = buf.get_u32() as usize;
            need(&buf, n)?;
            let inner_bytes = buf.copy_to_bytes(n);
            // Reject nesting *before* recursing: a hostile stream of
            // stacked wrap tags must not be able to wind the decoder's
            // stack (R1 — peer input never panics).
            if inner_bytes.first() == Some(&28) {
                return Err(WireError::BadValue("nested trace-context wrap"));
            }
            Command::CtxWrap {
                epoch,
                parent,
                inner: Box::new(decode_command(inner_bytes)?),
            }
        }
        29 => Command::TraceDrain,
        t => return Err(WireError::BadTag(t)),
    })
}

// ---- Reply codec ----

fn put_prefix_pairs(buf: &mut BytesMut, pairs: &[(Prefix, Prefix)]) {
    buf.put_u32(pairs.len() as u32);
    for (a, b) in pairs {
        put_prefix(buf, a);
        put_prefix(buf, b);
    }
}

fn get_prefix_pairs(buf: &mut Bytes) -> Result<Vec<(Prefix, Prefix)>, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    let mut pairs = Vec::with_capacity(cap(n));
    for _ in 0..n {
        let a = get_prefix(buf)?;
        let b = get_prefix(buf)?;
        pairs.push((a, b));
    }
    Ok(pairs)
}

/// Encodes a [`Reply`] for the control channel.
pub fn encode_reply(reply: &Reply) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    match reply {
        Reply::Ok => buf.put_u8(1),
        Reply::Changed(changed) => {
            buf.put_u8(2);
            put_bool(&mut buf, *changed);
        }
        Reply::Rib(per_node) => {
            buf.put_u8(3);
            buf.put_u32(per_node.len() as u32);
            for (node, routes) in per_node {
                buf.put_u32(node.0);
                buf.put_u32(routes.len() as u32);
                for r in routes {
                    put_rib_route(&mut buf, r);
                }
            }
        }
        Reply::Forwarded {
            processed,
            sent_remote,
        } => {
            buf.put_u8(4);
            buf.put_u64(*processed as u64);
            buf.put_u64(*sent_remote as u64);
        }
        Reply::Arrivals {
            reachable,
            unreachable,
            waypoint_violations,
        } => {
            buf.put_u8(5);
            put_node_pairs(&mut buf, reachable);
            put_node_pairs(&mut buf, unreachable);
            buf.put_u32(waypoint_violations.len() as u32);
            for (s, d, t) in waypoint_violations {
                buf.put_u32(s.0);
                buf.put_u32(d.0);
                buf.put_u32(t.0);
            }
        }
        Reply::Finals {
            loops,
            blackholes,
            splices,
            sets,
        } => {
            buf.put_u8(6);
            buf.put_u64(*loops as u64);
            buf.put_u64(*blackholes as u64);
            buf.put_u64(*splices);
            buf.put_u32(sets.len() as u32);
            for (node, kind, bytes) in sets {
                buf.put_u32(node.0);
                put_final_kind(&mut buf, *kind);
                buf.put_u32(bytes.len() as u32);
                buf.put_slice(bytes);
            }
        }
        Reply::Prefixes {
            all,
            aggregates,
            deps,
        } => {
            buf.put_u8(7);
            buf.put_u32(all.len() as u32);
            for p in all {
                put_prefix(&mut buf, p);
            }
            buf.put_u32(aggregates.len() as u32);
            for p in aggregates {
                put_prefix(&mut buf, p);
            }
            put_prefix_pairs(&mut buf, deps);
        }
        Reply::Deps(deps) => {
            buf.put_u8(8);
            put_prefix_pairs(&mut buf, deps);
        }
        Reply::Mem(report) => {
            buf.put_u8(9);
            buf.put_u64(report.route_bytes as u64);
            buf.put_u64(report.bdd_bytes as u64);
            buf.put_u64(report.peak_bytes as u64);
            buf.put_u64(report.bdd_peak_nodes as u64);
            put_cache_stats(&mut buf, &report.bdd_cache);
        }
        Reply::OutOfMemory { budget, observed } => {
            buf.put_u8(10);
            buf.put_u64(*budget as u64);
            buf.put_u64(*observed as u64);
        }
        Reply::Pong(nonce) => {
            buf.put_u8(11);
            buf.put_u64(*nonce);
        }
        Reply::Net { traffic, in_flight } => {
            buf.put_u8(12);
            put_traffic(&mut buf, traffic);
            buf.put_u64(*in_flight);
        }
        Reply::Violation(what) => {
            buf.put_u8(13);
            put_str(&mut buf, what);
        }
        // The metrics snapshot crosses as its canonical JSON encoding:
        // deterministic (BTreeMap order) and schema-tagged, so the
        // controller-side decode is exact.
        Reply::Metrics(snapshot) => {
            buf.put_u8(14);
            put_str(&mut buf, &snapshot.to_json());
        }
        Reply::ChangedDst(entries) => {
            buf.put_u8(15);
            put_node_prefixes(&mut buf, entries);
        }
        Reply::TraceEvents {
            now_ns,
            names,
            events,
        } => {
            buf.put_u8(16);
            buf.put_u64(*now_ns);
            buf.put_u32(names.len() as u32);
            for n in names {
                put_str(&mut buf, n);
            }
            buf.put_u32(events.len() as u32);
            // Field-by-field (not `Event::pack`): the packed form is an
            // obs-feature implementation detail of the flight-recorder
            // ring, while this wire layout must hold with obs off too.
            for e in events {
                buf.put_u16(e.name);
                buf.put_u8(e.kind);
                buf.put_u16(e.lane);
                buf.put_u16(e.depth);
                buf.put_u64(e.ts_ns);
                buf.put_u64(e.dur_ns);
                buf.put_u64(e.arg);
                buf.put_u64(e.span);
                buf.put_u64(e.parent);
            }
        }
    }
    buf.freeze()
}

/// Decodes a [`Reply`] from the control channel.
pub fn decode_reply(mut buf: Bytes) -> Result<Reply, WireError> {
    need(&buf, 1)?;
    Ok(match buf.get_u8() {
        1 => Reply::Ok,
        2 => Reply::Changed(get_bool(&mut buf)?),
        3 => {
            need(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut per_node = Vec::with_capacity(cap(n));
            for _ in 0..n {
                let node = get_node(&mut buf)?;
                need(&buf, 4)?;
                let m = buf.get_u32() as usize;
                let mut routes = Vec::with_capacity(cap(m));
                for _ in 0..m {
                    routes.push(get_rib_route(&mut buf)?);
                }
                per_node.push((node, routes));
            }
            Reply::Rib(per_node)
        }
        4 => {
            need(&buf, 16)?;
            Reply::Forwarded {
                processed: buf.get_u64() as usize,
                sent_remote: buf.get_u64() as usize,
            }
        }
        5 => {
            let reachable = get_node_pairs(&mut buf)?;
            let unreachable = get_node_pairs(&mut buf)?;
            need(&buf, 4)?;
            let nw = buf.get_u32() as usize;
            need(&buf, nw * 12)?;
            let waypoint_violations = (0..nw)
                .map(|_| {
                    (
                        NodeId(buf.get_u32()),
                        NodeId(buf.get_u32()),
                        NodeId(buf.get_u32()),
                    )
                })
                .collect();
            Reply::Arrivals {
                reachable,
                unreachable,
                waypoint_violations,
            }
        }
        6 => {
            need(&buf, 28)?;
            let loops = buf.get_u64() as usize;
            let blackholes = buf.get_u64() as usize;
            let splices = buf.get_u64();
            let n = buf.get_u32() as usize;
            let mut sets = Vec::with_capacity(cap(n));
            for _ in 0..n {
                need(&buf, 9)?;
                let node = NodeId(buf.get_u32());
                let kind = get_final_kind(&mut buf)?;
                let blen = buf.get_u32() as usize;
                need(&buf, blen)?;
                sets.push((node, kind, buf.copy_to_bytes(blen)));
            }
            Reply::Finals {
                loops,
                blackholes,
                splices,
                sets,
            }
        }
        7 => {
            need(&buf, 4)?;
            let na = buf.get_u32() as usize;
            let mut all = Vec::with_capacity(cap(na));
            for _ in 0..na {
                all.push(get_prefix(&mut buf)?);
            }
            need(&buf, 4)?;
            let ng = buf.get_u32() as usize;
            let mut aggregates = Vec::with_capacity(cap(ng));
            for _ in 0..ng {
                aggregates.push(get_prefix(&mut buf)?);
            }
            let deps = get_prefix_pairs(&mut buf)?;
            Reply::Prefixes {
                all,
                aggregates,
                deps,
            }
        }
        8 => Reply::Deps(get_prefix_pairs(&mut buf)?),
        9 => {
            need(&buf, 32)?;
            Reply::Mem(MemReport {
                route_bytes: buf.get_u64() as usize,
                bdd_bytes: buf.get_u64() as usize,
                peak_bytes: buf.get_u64() as usize,
                bdd_peak_nodes: buf.get_u64() as usize,
                bdd_cache: get_cache_stats(&mut buf)?,
            })
        }
        10 => {
            need(&buf, 16)?;
            Reply::OutOfMemory {
                budget: buf.get_u64() as usize,
                observed: buf.get_u64() as usize,
            }
        }
        11 => {
            need(&buf, 8)?;
            Reply::Pong(buf.get_u64())
        }
        12 => {
            let traffic = get_traffic(&mut buf)?;
            need(&buf, 8)?;
            Reply::Net {
                traffic,
                in_flight: buf.get_u64(),
            }
        }
        13 => Reply::Violation(get_str(&mut buf)?),
        14 => {
            let json = get_str(&mut buf)?;
            let snapshot = s2_obs::MetricsSnapshot::from_json(&json)
                .map_err(|_| WireError::BadValue("metrics snapshot"))?;
            Reply::Metrics(snapshot)
        }
        15 => Reply::ChangedDst(get_node_prefixes(&mut buf)?),
        16 => {
            need(&buf, 12)?;
            let now_ns = buf.get_u64();
            let nn = buf.get_u32() as usize;
            let mut names = Vec::with_capacity(cap(nn));
            for _ in 0..nn {
                names.push(get_str(&mut buf)?);
            }
            need(&buf, 4)?;
            let ne = buf.get_u32() as usize;
            need(&buf, ne.saturating_mul(47))?;
            let mut events = Vec::with_capacity(cap(ne));
            for _ in 0..ne {
                let e = s2_obs::trace::Event {
                    name: buf.get_u16(),
                    kind: buf.get_u8(),
                    lane: buf.get_u16(),
                    depth: buf.get_u16(),
                    ts_ns: buf.get_u64(),
                    dur_ns: buf.get_u64(),
                    arg: buf.get_u64(),
                    span: buf.get_u64(),
                    parent: buf.get_u64(),
                };
                if usize::from(e.name) >= names.len() {
                    return Err(WireError::BadValue("trace event name index"));
                }
                events.push(e);
            }
            Reply::TraceEvents {
                now_ns,
                names,
                events,
            }
        }
        t => return Err(WireError::BadTag(t)),
    })
}

// ---- controller side ----

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Accepts `num_workers` worker-process registrations on `listener`,
/// assigns worker ids in accept order, and sends each its [`Setup`].
/// Returns the control streams indexed by assigned worker id.
pub fn accept_fleet(
    listener: &TcpListener,
    num_workers: u32,
    node_owner: &[u32],
    memory_budget: Option<usize>,
    intra_worker_threads: u32,
) -> io::Result<Vec<TcpStream>> {
    let mut fleet: Vec<(TcpStream, SocketAddr)> = Vec::with_capacity(num_workers as usize);
    for _ in 0..num_workers {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let (kind, payload) = read_envelope(&mut stream, MAX_CONTROL_FRAME)?;
        if kind != K_REGISTER {
            return Err(bad_data("expected worker registration"));
        }
        let reg = decode_register(Bytes::from(payload))
            .map_err(|e| bad_data(&format!("bad registration: {e}")))?;
        fleet.push((stream, reg.data_addr));
    }
    let peers: Vec<SocketAddr> = fleet.iter().map(|(_, addr)| *addr).collect();
    let mut streams = Vec::with_capacity(fleet.len());
    for (w, (mut stream, _)) in fleet.into_iter().enumerate() {
        let setup = Setup {
            worker_id: w as u32,
            num_workers,
            node_owner: node_owner.to_vec(),
            peers: peers.clone(),
            memory_budget,
            intra_worker_threads,
        };
        write_envelope(&mut stream, K_SETUP, &encode_setup(&setup))?;
        streams.push(stream);
    }
    Ok(streams)
}

/// Wraps one worker's control stream in a proxy thread that translates
/// the controller's channel protocol to the socket protocol: each
/// [`Command`] received on the returned sender is written as a
/// `K_COMMAND` envelope, and (except for `Shutdown`) exactly one
/// `K_REPLY` envelope is read back and forwarded to the returned
/// receiver. Any socket or decode error ends the thread, closing both
/// channels — which the controller's barrier observes as the same
/// `WorkerLost` a crashed in-process worker produces.
pub fn spawn_proxy(
    w: u32,
    mut stream: TcpStream,
) -> io::Result<(Sender<Command>, Receiver<Reply>, JoinHandle<()>)> {
    let (cmd_tx, cmd_rx) = unbounded::<Command>();
    let (reply_tx, reply_rx) = unbounded::<Reply>();
    let handle = thread::Builder::new()
        .name(format!("s2-proxy-{w}"))
        .spawn(move || {
            while let Ok(cmd) = cmd_rx.recv() {
                let is_shutdown = matches!(cmd, Command::Shutdown);
                // When tracing, carry the controller's published context
                // on every command so worker-process spans stitch under
                // the controller span that dispatched them. `Shutdown`
                // stays bare: its no-reply fast path must not depend on
                // the remote end unwrapping anything.
                let cmd = if s2_obs::trace::enabled()
                    && !is_shutdown
                    && !matches!(cmd, Command::CtxWrap { .. })
                {
                    let (epoch, parent) = s2_obs::trace::published_ctx();
                    Command::CtxWrap {
                        epoch,
                        parent,
                        inner: Box::new(cmd),
                    }
                } else {
                    cmd
                };
                if write_envelope(&mut stream, K_COMMAND, &encode_command(&cmd)).is_err() {
                    return;
                }
                if is_shutdown {
                    return;
                }
                let reply = match read_envelope(&mut stream, MAX_CONTROL_FRAME) {
                    Ok((K_REPLY, payload)) => match decode_reply(Bytes::from(payload)) {
                        Ok(r) => r,
                        Err(_) => return,
                    },
                    _ => return,
                };
                if reply_tx.send(reply).is_err() {
                    return;
                }
            }
        })?;
    Ok((cmd_tx, reply_rx, handle))
}

// ---- worker side ----

/// Drains this process's buffered trace events into a [`Reply`] batch:
/// the process-local interned name ids are remapped onto a dense table
/// shipped alongside (they mean nothing to the controller), and the
/// current clock goes with them as the rebasing anchor. Deterministic
/// remap order (sorted distinct ids — R2) so identical drains encode
/// identically.
fn drain_trace_events() -> Reply {
    let events = s2_obs::trace::take_events();
    let mut ids: Vec<u16> = events.iter().map(|e| e.name).collect();
    ids.sort_unstable();
    ids.dedup();
    let index: BTreeMap<u16, u16> = ids
        .iter()
        .enumerate()
        .map(|(dense, &id)| (id, dense as u16))
        .collect();
    Reply::TraceEvents {
        now_ns: s2_obs::time::now_ns(),
        names: ids
            .iter()
            .map(|&id| s2_obs::trace::name_of(id).to_string())
            .collect(),
        events: events
            .into_iter()
            .map(|mut e| {
                e.name = index[&e.name];
                e
            })
            .collect(),
    }
}

/// Runs one worker process to completion: registers with the controller
/// at `connect`, receives its [`Setup`], joins the TCP data fabric, and
/// serves commands until `Shutdown` or the control connection closes.
///
/// `bind` is the local address for the data listener (use
/// `"127.0.0.1:0"` for an ephemeral local port; bind a routable address
/// when workers run on different hosts).
pub fn serve(model: Arc<NetworkModel>, connect: &str, bind: &str) -> io::Result<()> {
    let data_listener = TcpListener::bind(bind)?;
    let data_addr = data_listener.local_addr()?;
    let mut ctrl = TcpStream::connect(connect)?;
    ctrl.set_nodelay(true)?;
    write_envelope(
        &mut ctrl,
        K_REGISTER,
        &encode_register(&Register { data_addr }),
    )?;
    let (kind, payload) = read_envelope(&mut ctrl, MAX_CONTROL_FRAME)?;
    if kind != K_SETUP {
        return Err(bad_data("expected setup from controller"));
    }
    let setup = decode_setup(Bytes::from(payload))
        .map_err(|e| bad_data(&format!("bad setup: {e}")))?;
    if setup.worker_id >= setup.num_workers
        || setup.peers.len() != setup.num_workers as usize
        || setup
            .node_owner
            .iter()
            .any(|&owner| owner >= setup.num_workers)
    {
        return Err(bad_data("inconsistent setup"));
    }

    // Join the data fabric. Remote workers run without fault injection:
    // chaos plans live in the controller process (and the in-process
    // harness); real networks supply the faults out here.
    let stats = Arc::new(TrafficStats::default());
    let faults = Arc::new(FaultState::default());
    let (transport, inbox) = TcpTransport::single(
        setup.worker_id,
        setup.num_workers,
        data_listener,
        setup.peers.clone(),
        TcpConfig::default(),
        stats.clone(),
        faults.clone(),
    )?;
    let net = SidecarNet::with_transport(
        setup.node_owner.clone(),
        setup.num_workers,
        faults.clone(),
        transport,
        stats,
    );
    let sidecar = Sidecar::new(setup.worker_id, net.clone(), inbox);
    let local_nodes: Vec<NodeId> = setup
        .node_owner
        .iter()
        .enumerate()
        .filter(|&(_, &owner)| owner == setup.worker_id)
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    let worker = Worker::with_faults(
        sidecar,
        model,
        local_nodes,
        setup.memory_budget,
        faults,
        setup.intra_worker_threads as usize,
    );

    // Claim this process's span-id space and trace lane so ids and
    // lanes from different fleet processes never collide when the
    // controller stitches the drained events into one trace.
    let lane = (setup.worker_id as u16).saturating_add(1);
    s2_obs::trace::set_id_space(lane);

    // The worker keeps its thread-based shape; this loop is the channel
    // half of the proxy pair on the controller side.
    let (cmd_tx, cmd_rx) = unbounded::<Command>();
    let (reply_tx, reply_rx) = unbounded::<Reply>();
    let worker_thread = thread::Builder::new()
        .name(format!("s2-worker-{}", setup.worker_id))
        .spawn(move || {
            s2_obs::trace::set_lane(lane);
            worker.run(cmd_rx, reply_tx)
        })?;

    // Any error — controller gone, unknown kind, malformed payload, dead
    // worker thread — breaks the loop and tears the process down cleanly.
    while let Ok((kind, payload)) = read_envelope(&mut ctrl, MAX_CONTROL_FRAME) {
        if kind != K_COMMAND {
            break;
        }
        let cmd = match decode_command(Bytes::from(payload)) {
            Ok(cmd) => cmd,
            Err(_) => break,
        };
        // Unwrap the controller's trace context before dispatching. A
        // wrap arriving at all means the controller is tracing, so
        // mirror that here; the epoch follows the controller's so
        // contexts captured before a recovery stop being adopted.
        let cmd = match cmd {
            Command::CtxWrap {
                epoch,
                parent,
                inner,
            } => {
                s2_obs::trace::set_enabled(true);
                s2_obs::trace::sync_epoch(epoch);
                s2_obs::trace::adopt(epoch, parent);
                s2_obs::trace::publish_ctx();
                *inner
            }
            other => other,
        };
        // Trace drains are answered here, not by the worker thread: the
        // event sink is process-global, and pairing the reply in-loop
        // keeps the strict one-reply-per-command protocol intact.
        if matches!(cmd, Command::TraceDrain) {
            let reply = drain_trace_events();
            if write_envelope(&mut ctrl, K_REPLY, &encode_reply(&reply)).is_err() {
                break;
            }
            continue;
        }
        let is_shutdown = matches!(cmd, Command::Shutdown);
        if cmd_tx.send(cmd).is_err() {
            break; // worker thread died
        }
        if is_shutdown {
            break;
        }
        let reply = match reply_rx.recv() {
            Ok(r) => r,
            Err(_) => break,
        };
        // A remote process's registry counters (BDD churn, DPV verdict
        // work, pool claims) are invisible to the controller's own
        // global registry, so fold them into the metrics reply here.
        // In-process fleets never take this path — there the controller
        // folds the shared registry exactly once itself.
        let reply = match reply {
            Reply::Metrics(mut snapshot) => {
                snapshot.merge(&s2_obs::Registry::global().snapshot());
                Reply::Metrics(snapshot)
            }
            other => other,
        };
        if write_envelope(&mut ctrl, K_REPLY, &encode_reply(&reply)).is_err() {
            break;
        }
    }
    drop(cmd_tx);
    let _ = worker_thread.join();
    net.shutdown_transport();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_dataplane::FinalKind;
    use s2_net::policy::Protocol;
    use s2_routing::{RibRoute, RibSnapshot};

    fn sample_rib_route() -> RibRoute {
        RibRoute {
            prefix: "10.0.0.0/8".parse().unwrap(),
            protocol: Protocol::Bgp,
            egress: vec![InterfaceId(1), InterfaceId(4)],
            is_local: false,
            as_path_len: 3,
        }
    }

    #[test]
    fn handshake_roundtrip() {
        let reg = Register {
            data_addr: "127.0.0.1:4821".parse().unwrap(),
        };
        assert_eq!(decode_register(encode_register(&reg)).unwrap(), reg);

        let setup = Setup {
            worker_id: 2,
            num_workers: 3,
            node_owner: vec![0, 1, 2, 2, 0],
            peers: vec![
                "127.0.0.1:1001".parse().unwrap(),
                "127.0.0.1:1002".parse().unwrap(),
                "127.0.0.1:1003".parse().unwrap(),
            ],
            memory_budget: Some(64 << 20),
            intra_worker_threads: 4,
        };
        assert_eq!(decode_setup(encode_setup(&setup)).unwrap(), setup);
    }

    #[test]
    fn simple_commands_roundtrip() {
        for cmd in [
            Command::OspfExport,
            Command::OspfApply,
            Command::BgpExport,
            Command::BgpApply,
            Command::CollectBaseRib,
            Command::CollectBgpRib,
            Command::ForwardRound,
            Command::CollectFinals,
            Command::CollectPrefixes,
            Command::CollectObservedDeps,
            Command::MemReport,
            Command::Ping(0xdead_beef),
            Command::FlushInbox { epoch: 7 },
            Command::BgpResync,
            Command::NetStats,
            Command::Metrics,
            Command::ScenarioCheckpoint,
            Command::ScenarioRollback,
            Command::DpCompile,
            Command::TraceDrain,
            Command::Shutdown,
        ] {
            let encoded = encode_command(&cmd);
            let decoded = decode_command(encoded).unwrap();
            assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));
        }
    }

    #[test]
    fn payload_commands_roundtrip() {
        let shard: BTreeSet<Prefix> = ["10.0.0.0/8".parse().unwrap(), "192.168.1.0/24".parse().unwrap()]
            .into_iter()
            .collect();
        let cmd = Command::BgpBegin {
            shard: Some(Arc::new(shard.clone())),
        };
        match decode_command(encode_command(&cmd)).unwrap() {
            Command::BgpBegin { shard: Some(s) } => assert_eq!(*s, shard),
            other => panic!("wrong decode: {other:?}"),
        }

        let rib = RibSnapshot {
            per_node: vec![vec![sample_rib_route()], vec![]],
        };
        let waypoints: BTreeMap<NodeId, u16> = [(NodeId(1), 2u16)].into_iter().collect();
        let cmd = Command::DpSetup {
            rib: Arc::new(rib.clone()),
            meta_bits: 3,
            waypoints: Arc::new(waypoints.clone()),
            max_hops: 64,
        };
        match decode_command(encode_command(&cmd)).unwrap() {
            Command::DpSetup {
                rib: r,
                meta_bits,
                waypoints: w,
                max_hops,
            } => {
                assert_eq!(r.per_node, rib.per_node);
                assert_eq!(meta_bits, 3);
                assert_eq!(*w, waypoints);
                assert_eq!(max_hops, 64);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let cmd = Command::CheckArrivals {
            sources: Arc::new(vec![NodeId(0), NodeId(3)]),
            expected: Arc::new(vec![(NodeId(3), vec!["10.0.0.0/8".parse().unwrap()])]),
            transits: Arc::new(vec![(NodeId(1), 0u16)]),
        };
        let decoded = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::ScenarioBegin {
            failed: Arc::new(vec![(NodeId(4), InterfaceId(1)), (NodeId(9), InterfaceId(0))]),
            restore: false,
        };
        let decoded = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::DpPatch {
            rib: Arc::new(RibSnapshot {
                per_node: vec![vec![], vec![sample_rib_route()]],
            }),
            changed: Arc::new(vec![NodeId(1)]),
            failed_ports: Arc::new(vec![(NodeId(1), InterfaceId(4))]),
        };
        let decoded = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::DpScope {
            scopes: Arc::new(vec![
                (NodeId(0), vec!["10.0.0.0/24".parse().unwrap()]),
                (NodeId(7), vec![]),
            ]),
        };
        let decoded = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::CtxWrap {
            epoch: 3,
            parent: (2u64 << 48) | 77,
            inner: Box::new(Command::Ping(0xfeed)),
        };
        let decoded = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));
    }

    /// A wrap inside a wrap never decodes — checked on the raw tag
    /// before recursing, so stacked wrap bytes cannot wind the stack.
    #[test]
    fn nested_ctx_wrap_is_rejected() {
        let inner = Command::CtxWrap {
            epoch: 1,
            parent: 2,
            inner: Box::new(Command::Ping(9)),
        };
        let mut raw = BytesMut::new();
        raw.put_u8(28);
        raw.put_u64(1);
        raw.put_u64(2);
        let inner_bytes = encode_command(&inner);
        raw.put_u32(inner_bytes.len() as u32);
        raw.put_slice(&inner_bytes);
        assert!(decode_command(raw.freeze()).is_err());

        // Depth-1 wrapping of every simple command stays fine.
        let ok = Command::CtxWrap {
            epoch: 1,
            parent: 2,
            inner: Box::new(Command::DpCompile),
        };
        assert!(decode_command(encode_command(&ok)).is_ok());
    }

    #[test]
    fn replies_roundtrip() {
        let replies = vec![
            Reply::Ok,
            Reply::Changed(true),
            Reply::Rib(vec![(NodeId(4), vec![sample_rib_route()])]),
            Reply::Forwarded {
                processed: 10,
                sent_remote: 2,
            },
            Reply::Arrivals {
                reachable: vec![(NodeId(0), NodeId(1))],
                unreachable: vec![(NodeId(2), NodeId(3))],
                waypoint_violations: vec![(NodeId(0), NodeId(1), NodeId(5))],
            },
            Reply::Finals {
                loops: 1,
                blackholes: 2,
                splices: 7,
                sets: vec![(NodeId(9), FinalKind::Loop, Bytes::from_static(b"bddbits"))],
            },
            Reply::Prefixes {
                all: vec!["10.0.0.0/8".parse().unwrap()],
                aggregates: vec![],
                deps: vec![(
                    "10.0.0.0/8".parse().unwrap(),
                    "10.1.0.0/16".parse().unwrap(),
                )],
            },
            Reply::Deps(vec![]),
            Reply::Mem(MemReport {
                route_bytes: 1,
                bdd_bytes: 2,
                peak_bytes: 3,
                bdd_peak_nodes: 4,
                bdd_cache: crate::memstats::CacheStats {
                    unique_lookups: 5,
                    bin_hits: 6,
                    ..Default::default()
                },
            }),
            Reply::OutOfMemory {
                budget: 100,
                observed: 150,
            },
            Reply::Pong(42),
            Reply::Net {
                traffic: TrafficSnapshot {
                    messages: 5,
                    reconnects: 1,
                    ..TrafficSnapshot::default()
                },
                in_flight: 3,
            },
            Reply::Violation("bad phase".to_string()),
            Reply::Metrics({
                let mut m = s2_obs::MetricsSnapshot::default();
                m.counter("bdd.unique.hits", 42);
                m.gauge_max("mem.peak_bytes", 1 << 20);
                m
            }),
            Reply::ChangedDst(vec![
                (NodeId(2), vec!["10.0.0.0/24".parse().unwrap()]),
                (NodeId(5), vec![]),
            ]),
            Reply::TraceEvents {
                now_ns: 123_456_789,
                names: vec!["dpv.verdict".to_string(), "cp.round".to_string()],
                events: vec![
                    s2_obs::trace::Event {
                        name: 1,
                        kind: 0,
                        lane: 3,
                        depth: 2,
                        ts_ns: 1_000,
                        dur_ns: 500,
                        arg: 42,
                        span: (3u64 << 48) | 7,
                        parent: 11,
                    },
                    s2_obs::trace::Event {
                        name: 0,
                        kind: 1,
                        lane: 3,
                        depth: 0,
                        ts_ns: 2_000,
                        dur_ns: 0,
                        arg: 0,
                        span: 0,
                        parent: (3u64 << 48) | 7,
                    },
                ],
            },
            Reply::TraceEvents {
                now_ns: 0,
                names: vec![],
                events: vec![],
            },
        ];
        for reply in replies {
            let decoded = decode_reply(encode_reply(&reply)).unwrap();
            assert_eq!(format!("{reply:?}"), format!("{decoded:?}"));
        }
    }

    proptest::proptest! {
        /// Adversarial control-channel payloads must never panic either
        /// decoder — a malformed peer degrades to a closed connection,
        /// not a crashed process.
        #[test]
        fn prop_arbitrary_control_bytes_never_panic(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let bytes = Bytes::from(raw);
            let _ = decode_command(bytes.clone());
            let _ = decode_reply(bytes.clone());
            let _ = decode_register(bytes.clone());
            let _ = decode_setup(bytes);
        }
    }

    #[test]
    fn truncated_and_garbage_control_payloads_error() {
        // Garbage tags.
        assert!(decode_command(Bytes::from_static(&[99])).is_err());
        assert!(decode_reply(Bytes::from_static(&[99])).is_err());
        assert!(decode_command(Bytes::new()).is_err());
        assert!(decode_reply(Bytes::new()).is_err());
        // Every prefix of a valid encoding must error, never panic.
        let cmd = Command::CheckArrivals {
            sources: Arc::new(vec![NodeId(0)]),
            expected: Arc::new(vec![(NodeId(1), vec!["10.0.0.0/8".parse().unwrap()])]),
            transits: Arc::new(vec![(NodeId(2), 1u16)]),
        };
        let bytes = encode_command(&cmd);
        for cut in 0..bytes.len() {
            assert!(decode_command(bytes.slice(..cut)).is_err());
        }
        let reply = Reply::Rib(vec![(NodeId(4), vec![sample_rib_route()])]);
        let bytes = encode_reply(&reply);
        for cut in 0..bytes.len() {
            assert!(decode_reply(bytes.slice(..cut)).is_err());
        }
        let cmd = Command::DpScope {
            scopes: Arc::new(vec![(NodeId(3), vec!["10.1.0.0/16".parse().unwrap()])]),
        };
        let bytes = encode_command(&cmd);
        for cut in 0..bytes.len() {
            assert!(decode_command(bytes.slice(..cut)).is_err());
        }
        let reply = Reply::ChangedDst(vec![(NodeId(3), vec!["10.1.0.0/16".parse().unwrap()])]);
        let bytes = encode_reply(&reply);
        for cut in 0..bytes.len() {
            assert!(decode_reply(bytes.slice(..cut)).is_err());
        }
        let cmd = Command::CtxWrap {
            epoch: 5,
            parent: 6,
            inner: Box::new(Command::Metrics),
        };
        let bytes = encode_command(&cmd);
        for cut in 0..bytes.len() {
            assert!(decode_command(bytes.slice(..cut)).is_err());
        }
        let reply = Reply::TraceEvents {
            now_ns: 7,
            names: vec!["a".to_string()],
            events: vec![s2_obs::trace::Event {
                name: 0,
                kind: 0,
                lane: 1,
                depth: 0,
                ts_ns: 1,
                dur_ns: 2,
                arg: 3,
                span: 4,
                parent: 0,
            }],
        };
        let bytes = encode_reply(&reply);
        for cut in 0..bytes.len() {
            assert!(decode_reply(bytes.slice(..cut)).is_err());
        }
        // An event naming past the shipped table is rejected, not
        // deferred to a panic at stitch time.
        let reply = Reply::TraceEvents {
            now_ns: 7,
            names: vec![],
            events: vec![s2_obs::trace::Event {
                name: 3,
                kind: 0,
                lane: 1,
                depth: 0,
                ts_ns: 1,
                dur_ns: 2,
                arg: 3,
                span: 4,
                parent: 0,
            }],
        };
        assert!(decode_reply(encode_reply(&reply)).is_err());
    }
}
