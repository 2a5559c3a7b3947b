//! Multi-process mode: the control-channel protocol between a controller
//! process and `s2 worker` processes.
//!
//! The data fabric (routes, packets) between workers is the [`crate::tcp`]
//! transport; this module adds the *control* dimension: every
//! [`Command`]/[`Reply`] that the in-process cluster moves over std
//! `mpsc` channels is serialized into the same `kind:u8 len:u32
//! payload` stream envelope the data sockets use, over one TCP
//! connection per worker.
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
//! `Register`, `Setup`, [`Command`] and [`Reply`] are [`Wire`] values
//! built from the crate's one codec ([`crate::codec`]; DESIGN.md §
//! "Byte formats" has the tag tables): a malformed peer yields a
//! `WireError` — never a panic.

use crate::codec::{wire_struct, Wire};
use crate::faults::FaultState;
use crate::sidecar::{Sidecar, SidecarNet, TrafficSnapshot, TrafficStats};
use crate::tcp::{recv, send, TcpConfig, TcpTransport, K_COMMAND, K_REGISTER, K_REPLY, K_SETUP};
use crate::wire::WireError;
use crate::worker::{Command, PatchStage, Reply, Worker};
use bytes::{Bytes, BytesMut};
use s2_net::topology::NodeId;
use s2_routing::NetworkModel;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Upper bound on a control-channel envelope. `DpSetup` ships the full
/// converged RIB snapshot (a scenario's `ChangedDst` only the rows that
/// moved), so this is far larger than the data-plane
/// frame cap — but still bounded, so a corrupt length prefix cannot ask
/// the receiver to allocate without limit.
pub const MAX_CONTROL_FRAME: usize = 256 << 20;

// ---- handshake messages ----

/// The worker's first message on the control channel: where its data
/// listener can be reached by peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Address of the worker's bound data listener.
    pub data_addr: SocketAddr,
}

wire_struct!(Register { data_addr });

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

wire_struct!(Setup {
    worker_id,
    num_workers,
    node_owner,
    peers,
    memory_budget,
    intra_worker_threads,
});

// ---- Command / Reply codec ----

wire_struct!(TrafficSnapshot {
    messages,
    bytes,
    wire_errors,
    dup_skips,
    seq_gaps,
    stale_drops,
    injected_drops,
    injected_dups,
    injected_corruptions,
    injected_delays,
    reconnects,
    heartbeats,
    protocol_violations,
    scratch_reuses,
});

// Field-by-field (not `Event::pack`): the packed form is an obs-feature
// implementation detail of the flight-recorder ring, while this wire
// layout must hold with obs off too.
wire_struct!(s2_obs::trace::Event {
    name,
    kind,
    lane,
    depth,
    ts_ns,
    dur_ns,
    arg,
    span,
    parent,
});

/// Tag byte of [`Command::CtxWrap`].
const T_CTX_WRAP: u8 = 28;

impl Wire for PatchStage {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            PatchStage::Transient => 0u8.put(buf),
            PatchStage::Reconverged => 1u8.put(buf),
        }
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::take(buf)? {
            0 => Ok(PatchStage::Transient),
            1 => Ok(PatchStage::Reconverged),
            _ => Err(WireError::BadValue("patch stage")),
        }
    }
}

impl Wire for Command {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Command::OspfExport => 1u8.put(buf),
            Command::OspfApply => 2u8.put(buf),
            Command::BgpBegin { shard } => {
                3u8.put(buf);
                shard.put(buf);
            }
            Command::BgpExport => 4u8.put(buf),
            Command::BgpApply => 5u8.put(buf),
            Command::CollectBaseRib => 6u8.put(buf),
            Command::CollectBgpRib => 7u8.put(buf),
            Command::DpSetup {
                rib,
                meta_bits,
                waypoints,
                max_hops,
            } => {
                8u8.put(buf);
                rib.put(buf);
                meta_bits.put(buf);
                waypoints.put(buf);
                max_hops.put(buf);
            }
            Command::Inject { injections } => {
                9u8.put(buf);
                injections.put(buf);
            }
            Command::ForwardRound => 10u8.put(buf),
            Command::CheckArrivals {
                sources,
                expected,
                transits,
            } => {
                11u8.put(buf);
                sources.put(buf);
                expected.put(buf);
                transits.put(buf);
            }
            Command::CollectFinals => 12u8.put(buf),
            Command::CollectPrefixes => 13u8.put(buf),
            Command::CollectObservedDeps => 14u8.put(buf),
            Command::Ping(nonce) => {
                16u8.put(buf);
                nonce.put(buf);
            }
            Command::FlushInbox { epoch } => {
                17u8.put(buf);
                epoch.put(buf);
            }
            Command::BgpResync => 18u8.put(buf),
            Command::NetStats => 19u8.put(buf),
            Command::Shutdown => 20u8.put(buf),
            Command::Metrics => 21u8.put(buf),
            Command::ScenarioCheckpoint => 22u8.put(buf),
            Command::ScenarioBegin { failed } => {
                23u8.put(buf);
                failed.put(buf);
            }
            Command::ScenarioRollback => 24u8.put(buf),
            Command::DpPatch {
                stage,
                failed_ports,
            } => {
                30u8.put(buf);
                stage.put(buf);
                failed_ports.put(buf);
            }
            Command::DpScope { scopes } => {
                26u8.put(buf);
                scopes.put(buf);
            }
            Command::DpCompile => 27u8.put(buf),
            Command::CtxWrap {
                epoch,
                parent,
                inner,
            } => {
                T_CTX_WRAP.put(buf);
                epoch.put(buf);
                parent.put(buf);
                // Not transparent: the inner command crosses as a
                // length-prefixed byte string, so the decoder can look at
                // its tag before descending.
                inner.to_bytes().put(buf);
            }
            Command::TraceDrain => 29u8.put(buf),
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => Command::OspfExport,
            2 => Command::OspfApply,
            3 => Command::BgpBegin {
                shard: Wire::take(buf)?,
            },
            4 => Command::BgpExport,
            5 => Command::BgpApply,
            6 => Command::CollectBaseRib,
            7 => Command::CollectBgpRib,
            8 => Command::DpSetup {
                rib: Wire::take(buf)?,
                meta_bits: Wire::take(buf)?,
                waypoints: Wire::take(buf)?,
                max_hops: Wire::take(buf)?,
            },
            9 => Command::Inject {
                injections: Wire::take(buf)?,
            },
            10 => Command::ForwardRound,
            11 => Command::CheckArrivals {
                sources: Wire::take(buf)?,
                expected: Wire::take(buf)?,
                transits: Wire::take(buf)?,
            },
            12 => Command::CollectFinals,
            13 => Command::CollectPrefixes,
            14 => Command::CollectObservedDeps,
            16 => Command::Ping(Wire::take(buf)?),
            17 => Command::FlushInbox {
                epoch: Wire::take(buf)?,
            },
            18 => Command::BgpResync,
            19 => Command::NetStats,
            20 => Command::Shutdown,
            21 => Command::Metrics,
            22 => Command::ScenarioCheckpoint,
            23 => Command::ScenarioBegin {
                failed: Wire::take(buf)?,
            },
            24 => Command::ScenarioRollback,
            30 => Command::DpPatch {
                stage: Wire::take(buf)?,
                failed_ports: Wire::take(buf)?,
            },
            26 => Command::DpScope {
                scopes: Wire::take(buf)?,
            },
            27 => Command::DpCompile,
            T_CTX_WRAP => {
                let epoch = Wire::take(buf)?;
                let parent = Wire::take(buf)?;
                let inner = Bytes::take(buf)?;
                // Reject nesting *before* recursing: a hostile stream of
                // stacked wrap tags must not be able to wind the decoder's
                // stack (R1 — peer input never panics).
                if inner.first() == Some(&T_CTX_WRAP) {
                    return Err(WireError::BadValue("nested trace-context wrap"));
                }
                Command::CtxWrap {
                    epoch,
                    parent,
                    inner: Box::new(Command::from_bytes(inner)?),
                }
            }
            29 => Command::TraceDrain,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for Reply {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Reply::Ok => 1u8.put(buf),
            Reply::Changed(changed) => {
                2u8.put(buf);
                changed.put(buf);
            }
            Reply::Rib(per_node) => {
                3u8.put(buf);
                per_node.put(buf);
            }
            Reply::Forwarded {
                processed,
                sent_remote,
            } => {
                4u8.put(buf);
                processed.put(buf);
                sent_remote.put(buf);
            }
            Reply::Arrivals {
                reachable,
                unreachable,
                waypoint_violations,
            } => {
                5u8.put(buf);
                reachable.put(buf);
                unreachable.put(buf);
                waypoint_violations.put(buf);
            }
            Reply::Finals {
                loops,
                blackholes,
                splices,
                sets,
            } => {
                6u8.put(buf);
                loops.put(buf);
                blackholes.put(buf);
                splices.put(buf);
                sets.put(buf);
            }
            Reply::Prefixes {
                all,
                aggregates,
                deps,
            } => {
                7u8.put(buf);
                all.put(buf);
                aggregates.put(buf);
                deps.put(buf);
            }
            Reply::Deps(deps) => {
                8u8.put(buf);
                deps.put(buf);
            }
            Reply::OutOfMemory { budget, observed } => {
                10u8.put(buf);
                budget.put(buf);
                observed.put(buf);
            }
            Reply::Pong(nonce) => {
                11u8.put(buf);
                nonce.put(buf);
            }
            Reply::Net { traffic, in_flight } => {
                12u8.put(buf);
                traffic.put(buf);
                in_flight.put(buf);
            }
            Reply::Violation(what) => {
                13u8.put(buf);
                what.put(buf);
            }
            Reply::Metrics(snapshot) => {
                14u8.put(buf);
                snapshot.put(buf);
            }
            Reply::ChangedDst { dst, rows } => {
                17u8.put(buf);
                dst.put(buf);
                rows.put(buf);
            }
            Reply::TraceEvents {
                now_ns,
                names,
                events,
            } => {
                16u8.put(buf);
                now_ns.put(buf);
                names.put(buf);
                events.put(buf);
            }
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => Reply::Ok,
            2 => Reply::Changed(Wire::take(buf)?),
            3 => Reply::Rib(Wire::take(buf)?),
            4 => Reply::Forwarded {
                processed: Wire::take(buf)?,
                sent_remote: Wire::take(buf)?,
            },
            5 => Reply::Arrivals {
                reachable: Wire::take(buf)?,
                unreachable: Wire::take(buf)?,
                waypoint_violations: Wire::take(buf)?,
            },
            6 => Reply::Finals {
                loops: Wire::take(buf)?,
                blackholes: Wire::take(buf)?,
                splices: Wire::take(buf)?,
                sets: Wire::take(buf)?,
            },
            7 => Reply::Prefixes {
                all: Wire::take(buf)?,
                aggregates: Wire::take(buf)?,
                deps: Wire::take(buf)?,
            },
            8 => Reply::Deps(Wire::take(buf)?),
            10 => Reply::OutOfMemory {
                budget: Wire::take(buf)?,
                observed: Wire::take(buf)?,
            },
            11 => Reply::Pong(Wire::take(buf)?),
            12 => Reply::Net {
                traffic: Wire::take(buf)?,
                in_flight: Wire::take(buf)?,
            },
            13 => Reply::Violation(Wire::take(buf)?),
            14 => Reply::Metrics(Wire::take(buf)?),
            17 => Reply::ChangedDst {
                dst: Wire::take(buf)?,
                rows: Wire::take(buf)?,
            },
            16 => {
                let now_ns = Wire::take(buf)?;
                let names: Vec<String> = Wire::take(buf)?;
                let events: Vec<s2_obs::trace::Event> = Wire::take(buf)?;
                // An event naming past the shipped table is rejected
                // here, not deferred to a panic at stitch time.
                if events.iter().any(|e| usize::from(e.name) >= names.len()) {
                    return Err(WireError::BadValue("trace event name index"));
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
}

// ---- controller side ----

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
        let reg: Register = recv(&mut stream, K_REGISTER, MAX_CONTROL_FRAME)?;
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
        send(&mut stream, K_SETUP, &setup)?;
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
    let (cmd_tx, cmd_rx) = channel::<Command>();
    let (reply_tx, reply_rx) = channel::<Reply>();
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
                if send(&mut stream, K_COMMAND, &cmd).is_err() || is_shutdown {
                    return;
                }
                let Ok(reply) = recv(&mut stream, K_REPLY, MAX_CONTROL_FRAME) else {
                    return;
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
    send(&mut ctrl, K_REGISTER, &Register { data_addr })?;
    let setup: Setup = recv(&mut ctrl, K_SETUP, MAX_CONTROL_FRAME)?;
    if setup.worker_id >= setup.num_workers
        || setup.peers.len() != setup.num_workers as usize
        || setup
            .node_owner
            .iter()
            .any(|&owner| owner >= setup.num_workers)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "inconsistent setup",
        ));
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
    let (cmd_tx, cmd_rx) = channel::<Command>();
    let (reply_tx, reply_rx) = channel::<Reply>();
    let worker_thread = thread::Builder::new()
        .name(format!("s2-worker-{}", setup.worker_id))
        .spawn(move || {
            s2_obs::trace::set_lane(lane);
            worker.run(cmd_rx, reply_tx)
        })?;

    // Any error — controller gone, unknown kind, malformed payload, dead
    // worker thread — breaks the loop and tears the process down cleanly.
    while let Ok(cmd) = recv(&mut ctrl, K_COMMAND, MAX_CONTROL_FRAME) {
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
            if send(&mut ctrl, K_REPLY, &drain_trace_events()).is_err() {
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
        if send(&mut ctrl, K_REPLY, &reply).is_err() {
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
    use bytes::BufMut;
    use s2_dataplane::FinalKind;
    use s2_net::policy::Protocol;
    use s2_net::topology::InterfaceId;
    use s2_net::Prefix;
    use s2_routing::{RibRoute, RibSnapshot};
    use std::collections::BTreeSet;

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
        assert_eq!(Register::from_bytes(reg.to_bytes()).unwrap(), reg);

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
        assert_eq!(Setup::from_bytes(setup.to_bytes()).unwrap(), setup);
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
            let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
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
        match Command::from_bytes(cmd.to_bytes()).unwrap() {
            Command::BgpBegin { shard: Some(s) } => assert_eq!(*s, shard),
            other => panic!("wrong decode: {other:?}"),
        }

        let rib = RibSnapshot {
            per_node: vec![Arc::from([sample_rib_route()]), Arc::from([])],
        };
        let waypoints: BTreeMap<NodeId, u16> = [(NodeId(1), 2u16)].into_iter().collect();
        let cmd = Command::DpSetup {
            rib: Arc::new(rib.clone()),
            meta_bits: 3,
            waypoints: Arc::new(waypoints.clone()),
            max_hops: 64,
        };
        match Command::from_bytes(cmd.to_bytes()).unwrap() {
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
        let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::ScenarioBegin {
            failed: Arc::new(vec![(NodeId(4), InterfaceId(1)), (NodeId(9), InterfaceId(0))]),
        };
        let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::DpPatch {
            stage: PatchStage::Reconverged,
            failed_ports: Arc::new(vec![(NodeId(1), InterfaceId(4))]),
        };
        let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::DpScope {
            scopes: Arc::new(vec![
                (NodeId(0), vec!["10.0.0.0/24".parse().unwrap()]),
                (NodeId(7), vec![]),
            ]),
        };
        let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
        assert_eq!(format!("{cmd:?}"), format!("{decoded:?}"));

        let cmd = Command::CtxWrap {
            epoch: 3,
            parent: (2u64 << 48) | 77,
            inner: Box::new(Command::Ping(0xfeed)),
        };
        let decoded = Command::from_bytes(cmd.to_bytes()).unwrap();
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
        inner.to_bytes().put(&mut raw);
        assert!(Command::from_bytes(raw.freeze()).is_err());

        // Depth-1 wrapping of every simple command stays fine.
        let ok = Command::CtxWrap {
            epoch: 1,
            parent: 2,
            inner: Box::new(Command::DpCompile),
        };
        assert!(Command::from_bytes(ok.to_bytes()).is_ok());
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
            Reply::ChangedDst {
                dst: vec![(NodeId(2), vec!["10.0.0.0/24".parse().unwrap()]), (NodeId(5), vec![])],
                rows: vec![(NodeId(2), Arc::from([sample_rib_route()]))],
            },
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
            let decoded = Reply::from_bytes(reply.to_bytes()).unwrap();
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
            let _ = Command::from_bytes(bytes.clone());
            let _ = Reply::from_bytes(bytes.clone());
            let _ = Register::from_bytes(bytes.clone());
            let _ = Setup::from_bytes(bytes);
        }
    }

    // Truncation at every prefix of every payload shape is asserted by
    // `tests/wire_golden.rs` over the golden vectors.
    #[test]
    fn garbage_control_payloads_error() {
        let garbage = Bytes::from_static(&[99]);
        assert_eq!(Command::from_bytes(garbage.clone()).err(), Some(WireError::BadTag(99)));
        assert_eq!(Reply::from_bytes(garbage).err(), Some(WireError::BadTag(99)));
        assert_eq!(Command::from_bytes(Bytes::new()).err(), Some(WireError::Truncated));
        assert_eq!(Reply::from_bytes(Bytes::new()).err(), Some(WireError::Truncated));
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
        assert!(Reply::from_bytes(reply.to_bytes()).is_err());
    }
}
