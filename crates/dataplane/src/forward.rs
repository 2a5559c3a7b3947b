//! Symbolic packet forwarding (§4.3).
//!
//! The single-hop transformation ([`step`]) is shared by the monolithic
//! engine here and by the distributed S2 runtime: it consumes a
//! [`SymbolicPacket`] at a node and produces forwarded packets (one per
//! egress port with a non-empty set — ECMP copies the packet, which is how
//! all paths are explored) plus packets that reached a *final state*:
//!
//! * [`FinalKind::Arrive`] — destination held by the node,
//! * [`FinalKind::Exit`] — sent out an unconnected (edge) port,
//! * [`FinalKind::Blackhole`] — no route / discard route / ACL deny,
//! * [`FinalKind::Loop`] — TTL exhausted.

use crate::packetspace::PacketSpace;
use crate::predicates::NodePredicates;
use s2_bdd::{Bdd, BddManager};
use s2_net::topology::{InterfaceId, NodeId, Topology};
use std::collections::BTreeMap;

/// A symbolic packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicPacket {
    /// The node the packet was injected at.
    pub src: NodeId,
    /// The node currently holding the packet.
    pub node: NodeId,
    /// The ingress class it arrived in, named by the class's lowest port
    /// (see [`crate::predicates::ingress_class`]); `None` right after
    /// injection. Under `no_merge` it is the arrival port itself.
    pub ingress: Option<InterfaceId>,
    /// The set of headers, as a BDD in the engine's manager.
    pub set: Bdd,
    /// Hops taken so far.
    pub hops: u16,
}

/// Terminal classification of a packet set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FinalKind {
    /// Arrived at a node holding the destination.
    Arrive,
    /// Left the network through an edge port.
    Exit,
    /// Dropped (no route, discard route, or ACL).
    Blackhole,
    /// Still circulating after `max_hops` — a forwarding loop.
    Loop,
}

/// A packet set that reached a final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalPacket {
    /// Injection node.
    pub src: NodeId,
    /// Node where the final state was reached.
    pub node: NodeId,
    /// The terminal classification.
    pub kind: FinalKind,
    /// The header set.
    pub set: Bdd,
}

/// One traversed edge, for path reconstruction (Fig. 11 style output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Injection node of the packet.
    pub src: NodeId,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Hop count after the step.
    pub hops: u16,
}

/// Forwarding options.
#[derive(Debug, Clone, Default)]
pub struct ForwardOptions {
    /// TTL: a packet exceeding this many hops is classified as a Loop.
    /// `0` selects [`DEFAULT_MAX_HOPS`].
    pub max_hops: u16,
    /// Waypoint write rules: node → metadata bit set when the packet
    /// traverses that node.
    pub waypoint_bits: BTreeMap<NodeId, u16>,
    /// Record traversed edges in [`ForwardResult::trace`].
    pub record_trace: bool,
    /// Disable fragment merging (ablation only): fragments are processed
    /// path-by-path and keep their true ingress port, reproducing the
    /// exponential ECMP blow-up the merge exists to prevent. Results are
    /// identical; only cost changes.
    pub no_merge: bool,
    /// Ports failed for the current scenario (resilience sweeps): traffic
    /// a FIB still sends out a failed port is finalized as a
    /// [`FinalKind::Blackhole`] instead of being forwarded. This models
    /// the *transient* window after a link failure, before the control
    /// plane reconverges.
    pub failed_ports: std::collections::BTreeSet<(NodeId, InterfaceId)>,
}

/// Default TTL.
pub const DEFAULT_MAX_HOPS: u16 = 32;

impl ForwardOptions {
    fn ttl(&self) -> u16 {
        if self.max_hops == 0 {
            DEFAULT_MAX_HOPS
        } else {
            self.max_hops
        }
    }
}

/// Output of one forwarding step.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Packets forwarded to neighboring nodes.
    pub forwarded: Vec<SymbolicPacket>,
    /// Packet sets that terminated at this node.
    pub finals: Vec<FinalPacket>,
    /// Edges traversed (only when tracing).
    pub trace: Vec<TraceStep>,
}

impl StepOutput {
    /// Empties the buffers, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        self.forwarded.clear();
        self.finals.clear();
        self.trace.clear();
    }
}

/// Executes one hop of symbolic forwarding at `pkt.node`, applying Eq. (1):
/// `pkt ← pkt ∧ p1_in ∧ p2_fwd ∧ p2_out`.
pub fn step(
    topology: &Topology,
    preds: &NodePredicates,
    space: &PacketSpace,
    manager: &mut BddManager,
    pkt: SymbolicPacket,
    opts: &ForwardOptions,
) -> StepOutput {
    let mut out = StepOutput::default();
    step_into(topology, preds, space, manager, pkt, opts, &mut out);
    out
}

/// [`step`] into a caller-owned [`StepOutput`], *appending* to its
/// buffers. Hot loops keep one `StepOutput` per worker and [`clear`]
/// (`StepOutput::clear`) it between switches, avoiding three Vec
/// allocations per step.
#[allow(clippy::too_many_arguments)]
pub fn step_into(
    topology: &Topology,
    preds: &NodePredicates,
    space: &PacketSpace,
    manager: &mut BddManager,
    pkt: SymbolicPacket,
    opts: &ForwardOptions,
    out: &mut StepOutput,
) {
    debug_assert_eq!(preds.node, pkt.node);
    let finalize = |kind: FinalKind, set: Bdd, out: &mut StepOutput| {
        if !set.is_false() {
            out.finals.push(FinalPacket {
                src: pkt.src,
                node: pkt.node,
                kind,
                set,
            });
        }
    };

    // Inbound ACL.
    let acl_in = preds.acl_in(pkt.ingress);
    let mut set = manager.and(pkt.set, acl_in);
    let denied = manager.diff(pkt.set, acl_in);
    finalize(FinalKind::Blackhole, denied, &mut *out);
    if set.is_false() {
        return;
    }

    // Waypoint write rule.
    if let Some(&bit) = opts.waypoint_bits.get(&pkt.node) {
        set = space.set_meta(manager, set, bit);
    }

    // Local delivery.
    let arrived = manager.and(set, preds.local);
    finalize(FinalKind::Arrive, arrived, &mut *out);
    let remaining = manager.diff(set, preds.local);
    if remaining.is_false() {
        return;
    }

    // Explicit drops.
    let dropped = manager.and(remaining, preds.drop);
    finalize(FinalKind::Blackhole, dropped, &mut *out);

    // Forwarding, one copy per egress port (ECMP explores all paths).
    for (&port, &fwd) in &preds.fwd {
        let egress_set = manager.and(remaining, fwd);
        if egress_set.is_false() {
            continue;
        }
        // A failed port drops everything the FIB still points at it.
        if !opts.failed_ports.is_empty() && opts.failed_ports.contains(&(pkt.node, port)) {
            finalize(FinalKind::Blackhole, egress_set, &mut *out);
            continue;
        }
        let acl_out = preds.acl_out(port);
        let permitted = manager.and(egress_set, acl_out);
        let blocked = manager.diff(egress_set, acl_out);
        finalize(FinalKind::Blackhole, blocked, &mut *out);
        if permitted.is_false() {
            continue;
        }
        match topology.peer_of(pkt.node, port) {
            None => finalize(FinalKind::Exit, permitted, &mut *out),
            Some((peer, peer_if)) => {
                if pkt.hops + 1 > opts.ttl() {
                    finalize(FinalKind::Loop, permitted, &mut *out);
                } else {
                    if opts.record_trace {
                        out.trace.push(TraceStep {
                            src: pkt.src,
                            from: pkt.node,
                            to: peer,
                            hops: pkt.hops + 1,
                        });
                    }
                    // The one place a fragment gets its ingress: the
                    // class, so ECMP fan-in through ports that share an
                    // inbound ACL merges into one fragment downstream.
                    let class = match preds.peer_class.get(&port) {
                        Some(&class) if !opts.no_merge => class,
                        _ => peer_if,
                    };
                    out.forwarded.push(SymbolicPacket {
                        src: pkt.src,
                        node: peer,
                        ingress: Some(class),
                        set: permitted,
                        hops: pkt.hops + 1,
                    });
                }
            }
        }
    }
}

/// Result of a full forwarding run.
#[derive(Debug, Default)]
pub struct ForwardResult {
    /// Every packet set that reached a final state.
    pub finals: Vec<FinalPacket>,
    /// Total forwarding steps executed (work metric).
    pub steps: usize,
    /// Traversed edges (when tracing was enabled).
    pub trace: Vec<TraceStep>,
}

impl ForwardResult {
    /// Union of all `Arrive` sets at `node` injected at `src`.
    pub fn arrived_at(&self, manager: &mut BddManager, src: NodeId, node: NodeId) -> Bdd {
        let sets = self
            .finals
            .iter()
            .filter(|f| f.kind == FinalKind::Arrive && f.src == src && f.node == node)
            .map(|f| f.set)
            .collect::<Vec<_>>();
        manager.or_all(sets)
    }

    /// All finals of a given kind.
    pub fn of_kind(&self, kind: FinalKind) -> impl Iterator<Item = &FinalPacket> {
        self.finals.iter().filter(move |f| f.kind == kind)
    }
}

/// The merge key of a packet fragment: fragments with the same injection
/// source, location, ingress class and hop count are processed identically
/// (the class fixes the inbound ACL, the only thing a step reads from the
/// ingress), so their header sets can be unioned before the next hop. In
/// ECMP-rich fabrics this collapses the per-path fragment explosion
/// (exponential in depth) down to `O(nodes × sources × hops)`, and — in
/// the distributed engine — slashes the number of BDDs serialized across
/// workers.
pub type PacketKey = (NodeId, NodeId, Option<InterfaceId>, u16);

/// The merge key of `pkt`.
pub fn packet_key(pkt: &SymbolicPacket) -> PacketKey {
    (pkt.src, pkt.node, pkt.ingress, pkt.hops)
}

/// Merges `pkt` into a level map, unioning header sets per [`PacketKey`].
pub fn merge_packet(
    manager: &mut BddManager,
    level: &mut std::collections::BTreeMap<PacketKey, Bdd>,
    pkt: SymbolicPacket,
) {
    let entry = level.entry(packet_key(&pkt)).or_insert(Bdd::FALSE);
    *entry = manager.or(*entry, pkt.set);
}

/// Runs the monolithic forwarding engine: injects each `(source, set)` and
/// processes fragments level-synchronously (by hop count), merging
/// same-context fragments between levels, until every set reaches a final
/// state.
///
/// The distributed runtime replaces this loop with per-worker level maps
/// and serialized cross-worker packets, but reuses [`step`] and the same
/// merge discipline, so both engines do identical symbolic work.
pub fn forward(
    topology: &Topology,
    preds: &[NodePredicates],
    space: &PacketSpace,
    manager: &mut BddManager,
    injections: Vec<(NodeId, Bdd)>,
    opts: &ForwardOptions,
) -> ForwardResult {
    let mut result = ForwardResult::default();
    let mut level: std::collections::BTreeMap<PacketKey, Bdd> = std::collections::BTreeMap::new();
    for (src, set) in injections {
        if !set.is_false() {
            merge_packet(
                manager,
                &mut level,
                SymbolicPacket {
                    src,
                    node: src,
                    ingress: None,
                    set,
                    hops: 0,
                },
            );
        }
    }

    if opts.no_merge {
        // Ablation path: plain BFS over individual fragments.
        let mut queue: std::collections::VecDeque<SymbolicPacket> = level
            .into_iter()
            .map(|((src, node, ingress, hops), set)| SymbolicPacket {
                src,
                node,
                ingress,
                set,
                hops,
            })
            .collect();
        while let Some(pkt) = queue.pop_front() {
            let out = step(topology, &preds[pkt.node.index()], space, manager, pkt, opts);
            result.steps += 1;
            result.finals.extend(out.finals);
            result.trace.extend(out.trace);
            queue.extend(out.forwarded);
        }
        return result;
    }

    while !level.is_empty() {
        let mut next = std::collections::BTreeMap::new();
        for ((src, node, ingress, hops), set) in std::mem::take(&mut level) {
            let pkt = SymbolicPacket {
                src,
                node,
                ingress,
                set,
                hops,
            };
            let out = step(topology, &preds[node.index()], space, manager, pkt, opts);
            result.steps += 1;
            result.finals.extend(out.finals);
            result.trace.extend(out.trace);
            for fwd in out.forwarded {
                merge_packet(manager, &mut next, fwd);
            }
        }
        level = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::Fib;
    use s2_net::config::{DeviceConfig, InterfaceConfig, StaticRoute, Vendor};
    use s2_net::policy::Protocol;
    use s2_net::{Ipv4Addr, Prefix};
    use s2_routing::{NetworkModel, RibRoute};

    /// Chain a—b—c. a forwards 10.9.0.0/16 to b, b to c, c holds it.
    fn chain_model() -> NetworkModel {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.connect(a, b);
        topo.connect(b, c);
        let mk = |name: &str, ifaces: Vec<(&str, Ipv4Addr)>| {
            let mut cfg = DeviceConfig::new(name, Vendor::A);
            for (n, addr) in ifaces {
                cfg.interfaces.push(InterfaceConfig::new(n, addr, 31));
            }
            cfg
        };
        let ip = Ipv4Addr::new;
        NetworkModel::build(
            topo,
            vec![
                mk("a", vec![("e0", ip(172, 16, 0, 0))]),
                mk("b", vec![("e0", ip(172, 16, 0, 1)), ("e1", ip(172, 16, 1, 0))]),
                mk("c", vec![("e0", ip(172, 16, 1, 1))]),
            ],
        )
        .unwrap()
    }

    fn rib(prefix: &str, egress: Vec<u16>, is_local: bool) -> RibRoute {
        RibRoute {
            prefix: prefix.parse().unwrap(),
            protocol: Protocol::Bgp,
            egress: egress.into_iter().map(InterfaceId).collect(),
            is_local,
            as_path_len: 0,
        }
    }

    fn compile_all(model: &NetworkModel, ribs: Vec<Vec<RibRoute>>, space: &PacketSpace, mgr: &mut BddManager) -> Vec<NodePredicates> {
        ribs.iter()
            .enumerate()
            .map(|(i, r)| {
                let fib = Fib::from_rib(r);
                NodePredicates::compile(model, NodeId(i as u32), &fib, space, mgr)
            })
            .collect()
    }

    #[test]
    fn end_to_end_arrival() {
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &ForwardOptions::default());
        let arrived = res.arrived_at(&mut mgr, NodeId(0), NodeId(2));
        assert_eq!(arrived, inject);
        assert_eq!(res.of_kind(FinalKind::Loop).count(), 0);
        assert_eq!(res.steps, 3);
    }

    #[test]
    fn unrouted_packets_blackhole_at_first_hop() {
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "11.0.0.0/8".parse().unwrap());
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &ForwardOptions::default());
        let bh: Vec<_> = res.of_kind(FinalKind::Blackhole).collect();
        assert_eq!(bh.len(), 1);
        assert_eq!(bh[0].node, NodeId(0));
        assert_eq!(bh[0].set, inject);
    }

    #[test]
    fn forwarding_loop_hits_ttl() {
        // a and b forward the prefix to each other.
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![0], false)], // back to a!
                vec![],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let opts = ForwardOptions { max_hops: 6, ..Default::default() };
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &opts);
        let loops: Vec<_> = res.of_kind(FinalKind::Loop).collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].set, inject);
    }

    #[test]
    fn ecmp_copies_explore_both_paths() {
        // b has two egress ports for the prefix (e0 back to a, e1 to c):
        // both copies are explored; the one to c arrives, the one to a is
        // dropped there (a has no route for it in this setup).
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![],
                vec![rib("10.9.0.0/16", vec![0, 1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(1), inject)], &ForwardOptions::default());
        let arrived = res.arrived_at(&mut mgr, NodeId(1), NodeId(2));
        assert_eq!(arrived, inject);
        let bh = res.of_kind(FinalKind::Blackhole).next().unwrap();
        assert_eq!(bh.node, NodeId(0));
    }

    #[test]
    fn waypoint_bit_is_written() {
        let model = chain_model();
        let space = PacketSpace::new(1);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let dst = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let clear = space.meta_clear(&mut mgr);
        let inject = mgr.and(dst, clear);
        let mut opts = ForwardOptions::default();
        opts.waypoint_bits.insert(NodeId(1), 0); // waypoint = b
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &opts);
        let arrived = res.arrived_at(&mut mgr, NodeId(0), NodeId(2));
        assert!(!arrived.is_false());
        // Every arrived header passed through b: bit 0 is set.
        let with_bit = space.with_meta(&mut mgr, arrived, 0);
        assert_eq!(with_bit, arrived);
    }

    #[test]
    fn trace_records_edges() {
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let opts = ForwardOptions { record_trace: true, ..Default::default() };
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &opts);
        assert_eq!(res.trace.len(), 2);
        assert_eq!((res.trace[0].from, res.trace[0].to), (NodeId(0), NodeId(1)));
        assert_eq!((res.trace[1].from, res.trace[1].to), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn failed_port_blackholes_transient_traffic() {
        let model = chain_model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let preds = compile_all(
            &model,
            vec![
                vec![rib("10.9.0.0/16", vec![0], false)],
                vec![rib("10.9.0.0/16", vec![1], false)],
                vec![rib("10.9.0.0/16", vec![], true)],
            ],
            &space,
            &mut mgr,
        );
        let inject = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        // Fail the b—c link at b's egress: the stale FIB still points
        // there, so the whole set blackholes at b.
        let mut opts = ForwardOptions::default();
        opts.failed_ports.insert((NodeId(1), InterfaceId(1)));
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(NodeId(0), inject)], &opts);
        assert!(res.arrived_at(&mut mgr, NodeId(0), NodeId(2)).is_false());
        let bh: Vec<_> = res.of_kind(FinalKind::Blackhole).collect();
        assert_eq!(bh.len(), 1);
        assert_eq!(bh[0].node, NodeId(1));
        assert_eq!(bh[0].set, inject);
    }

    #[test]
    fn static_route_fields_are_modelled() {
        // Coverage for StaticRoute in model-building combination with
        // forwarding inputs (egress resolution happens in s2-routing).
        let s = StaticRoute {
            prefix: "0.0.0.0/0".parse::<Prefix>().unwrap(),
            next_hop: None,
        };
        assert!(s.next_hop.is_none());
    }
}
