//! Fragments merged across sources against a walker that keeps them
//! apart.
//!
//! `forward()` tags each source's injection with its source-id and steps
//! one fragment per `(node, ingress class, hops)` for every source at
//! once; a destination-scoped pass then splices its unions against one
//! mask over all sources (`PacketSpace::scope_mask`,
//! `properties::splice_unions`). The walker here steps each source alone,
//! in a space without source-id bits, and splices each source against its
//! own scope. On random small nets with ACL bindings, waypoints, failed
//! ports and random per-source scopes, both must decide the same
//! per-(source, destination) verdicts, serialize the same per-(source,
//! kind) verdict bytes and count the same loops and blackholes.

use proptest::prelude::*;
use s2_bdd::serialize::to_bytes;
use s2_bdd::splice::Splicer;
use s2_bdd::{Bdd, BddManager};
use s2_dataplane::properties::{self, PairVerdict};
use s2_dataplane::{
    forward, step, Fib, FinalKind, FinalPacket, ForwardOptions, ForwardResult, NodePredicates,
    PacketSpace, Sources, SymbolicPacket,
};
use s2_net::acl::{Acl, AclAction, AclEntry, PortRange};
use s2_net::config::DeviceConfig;
use s2_net::topology::{InterfaceId, NodeId, Topology};
use s2_net::Prefix;
use s2_routing::{
    converge_bgp, converge_ospf, merge_row, NetworkModel, SwitchModel, DEFAULT_MAX_ROUNDS,
};
use s2_topogen::dcn::{self, DcnParams};
use s2_topogen::fattree::{self, FatTreeParams};
use std::collections::{BTreeMap, BTreeSet};

/// A converged net: its model, each node's FIB and the prefixes its BGP
/// originates (what a destination must receive).
struct Net {
    model: NetworkModel,
    fibs: Vec<Fib>,
    wants: Vec<Vec<Prefix>>,
}

/// Net `shape` (a FatTree k=2 or one of four one-cluster DCNs, 5 to 11
/// nodes), each `(host, prefix, ports)` of `acls` binding an inbound ACL
/// that denies half of an originated prefix to the drawn ports of the
/// drawn host, converged.
fn net(shape: usize, acls: &[(usize, usize, u8)]) -> Net {
    let (topology, mut configs): (Topology, Vec<DeviceConfig>) = match shape % 5 {
        0 => {
            let ft = fattree::generate(FatTreeParams::new(2));
            (ft.topology, ft.configs)
        }
        s => {
            let (tors, width) = [(2, 1), (3, 1), (2, 2), (3, 2)][s - 1];
            let d = dcn::generate(DcnParams::scaled(1, tors, width));
            (d.topology, d.configs)
        }
    };
    let wants: Vec<Vec<Prefix>> = configs
        .iter()
        .map(|c| c.bgp.iter().flat_map(|b| &b.networks).map(|n| n.prefix).collect())
        .collect();
    let originated: Vec<Prefix> = wants.iter().flatten().copied().collect();
    for &(host, prefix, ports) in acls {
        let p = originated[prefix % originated.len()];
        // The lower half of the prefix: part of a destination's space.
        let denied = Prefix::new(p.addr(), (p.len() + 1).min(32));
        let cfg = &mut configs[host % topology.node_count()];
        cfg.acls.insert("BLOCK".into(), deny(denied));
        for (i, iface) in cfg.interfaces.iter_mut().enumerate() {
            if ports >> (i % 8) & 1 == 1 {
                iface.acl_in = Some("BLOCK".into());
            }
        }
    }
    let model = NetworkModel::build(topology, configs).unwrap();
    let mut switches: Vec<SwitchModel> =
        model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
    converge_ospf(&model, &mut switches, DEFAULT_MAX_ROUNDS).unwrap();
    converge_bgp(&mut switches, None, DEFAULT_MAX_ROUNDS).unwrap();
    let fibs = switches
        .iter()
        .map(|s| merge_row(s.base_rib_routes().into_iter().chain(s.bgp_rib_routes())))
        .map(|row| Fib::from_rib(&row))
        .collect();
    Net { model, fibs, wants }
}

fn deny(dst: Prefix) -> Acl {
    Acl {
        entries: vec![
            AclEntry {
                action: AclAction::Deny,
                src: Prefix::DEFAULT,
                dst,
                proto: None,
                src_ports: PortRange::ANY,
                dst_ports: PortRange::ANY,
            },
            AclEntry::any(AclAction::Permit),
        ],
    }
}

fn compile(net: &Net, space: &PacketSpace, m: &mut BddManager) -> Vec<NodePredicates> {
    let nodes = net.model.topology.nodes();
    nodes.map(|n| NodePredicates::compile(&net.model, n, &net.fibs[n.index()], space, m)).collect()
}

/// One question: sources, waypoints, the scenario's failed ports, each
/// source's scope and the TTL.
struct Query {
    sources: Vec<NodeId>,
    transits: Vec<(NodeId, u16)>,
    failed: BTreeSet<(NodeId, InterfaceId)>,
    scopes: Vec<(NodeId, Vec<Prefix>)>,
    max_hops: u16,
}

/// What either engine decided after splicing the scoped pass into the
/// full-space one.
#[derive(Debug, PartialEq)]
struct Decided {
    pairs: BTreeMap<(NodeId, NodeId), PairVerdict>,
    bytes: BTreeMap<(NodeId, FinalKind), Vec<u8>>,
    loops: usize,
    blackholes: usize,
}

impl Decided {
    fn new() -> Self {
        Decided { pairs: BTreeMap::new(), bytes: BTreeMap::new(), loops: 0, blackholes: 0 }
    }

    /// Records source `src`'s spliced per-node arrivals and per-kind
    /// unions, the source-id bits already gone.
    fn record(
        &mut self,
        (net, q): (&Net, &Query),
        (space, m): (&PacketSpace, &mut BddManager),
        src: NodeId,
        arrivals: &BTreeMap<NodeId, Bdd>,
        kinds: &BTreeMap<FinalKind, Bdd>,
    ) {
        for dst in net.model.topology.nodes().filter(|&d| d != src) {
            let prefixes = &net.wants[dst.index()];
            if prefixes.is_empty() {
                continue;
            }
            let want = space.dst_in_any(m, prefixes);
            let arrived = arrivals.get(&dst).copied().unwrap_or(Bdd::FALSE);
            let verdict = properties::judge_pair(m, space, want, arrived, &q.transits);
            self.pairs.insert((src, dst), verdict);
        }
        for (&kind, &set) in kinds.iter().filter(|(_, set)| !set.is_false()) {
            self.bytes.insert((src, kind), to_bytes(m, set));
            self.loops += usize::from(kind == FinalKind::Loop);
            self.blackholes += usize::from(kind == FinalKind::Blackhole);
        }
    }
}

fn options(q: &Query, failed: bool) -> ForwardOptions {
    ForwardOptions {
        waypoint_bits: q.transits.iter().copied().collect(),
        failed_ports: if failed { q.failed.clone() } else { BTreeSet::new() },
        max_hops: q.max_hops,
        ..Default::default()
    }
}

/// The merged engine: every source in one walk, in one manager whose
/// space carries the source-ids; a scoped pass over the failed ports
/// spliced against one mask. Also returns the steps both walks took.
fn merged(net: &Net, q: &Query) -> (Decided, usize) {
    let sources = Sources::new(q.sources.iter().copied());
    let space = PacketSpace::with_sources(q.transits.len() as u16, &sources);
    let mut m = space.manager();
    let preds = compile(net, &space, &mut m);
    let topo = &net.model.topology;
    let clear = space.meta_clear(&mut m);
    let all: Vec<(NodeId, Bdd)> = q.sources.iter().map(|&s| (s, clear)).collect();
    let base = forward(topo, &preds, &space, &mut m, all, &options(q, false));
    let base_arrivals = properties::arrivals(&mut m, &base.finals);
    let base_kinds = properties::kind_unions(&mut m, &space, &base.finals);

    let scopes = space.source_scopes(&mut m, &sources, &q.scopes).unwrap();
    let mask = space.scope_mask(&mut m, &scopes);
    let mut splicer = Splicer::new(&mut m, mask);
    let scoped: Vec<(NodeId, Bdd)> = q
        .scopes
        .iter()
        .map(|(s, prefixes)| {
            let dst = space.dst_in_any(&mut m, prefixes);
            (*s, m.and(dst, clear))
        })
        .collect();
    let fresh = forward(topo, &preds, &space, &mut m, scoped, &options(q, true));
    let fresh_arrivals = properties::arrivals(&mut m, &fresh.finals);
    let arrivals = properties::splice_unions(&mut m, &mut splicer, &base_arrivals, fresh_arrivals);
    let fresh_kinds = properties::kind_unions(&mut m, &space, &fresh.finals);
    let kinds = properties::splice_unions(&mut m, &mut splicer, &base_kinds, fresh_kinds);

    let mut decided = Decided::new();
    for &src in sources.nodes() {
        let (arrivals, kinds) =
            (of_source(&fresh, &mut m, src, &arrivals), of_source(&fresh, &mut m, src, &kinds));
        decided.record((net, q), (&space, &mut m), src, &arrivals, &kinds);
    }
    (decided, base.steps + fresh.steps)
}

/// Each union of `map` restricted to what `src` injected.
fn of_source<K: Ord + Copy>(
    res: &ForwardResult,
    m: &mut BddManager,
    src: NodeId,
    map: &BTreeMap<K, Bdd>,
) -> BTreeMap<K, Bdd> {
    map.iter().map(|(&k, &set)| (k, res.of_source(m, src, set))).collect()
}

/// The per-source walker: steps one source's fragments, keyed by
/// `(node, ingress class, hops)`, until each reaches a final state.
/// Returns the finals and the steps taken.
fn walk(
    (topo, preds): (&Topology, &[NodePredicates]),
    (space, m): (&PacketSpace, &mut BddManager),
    src: NodeId,
    set: Bdd,
    opts: &ForwardOptions,
) -> (Vec<FinalPacket>, usize) {
    type Key = (NodeId, Option<InterfaceId>, u16);
    let mut level: BTreeMap<Key, Bdd> = BTreeMap::new();
    if !set.is_false() {
        level.insert((src, None, 0), set);
    }
    let (mut finals, mut steps) = (Vec::new(), 0);
    while !level.is_empty() {
        let mut next: BTreeMap<Key, Bdd> = BTreeMap::new();
        for ((node, ingress, hops), set) in std::mem::take(&mut level) {
            let pkt = SymbolicPacket { node, ingress, set, hops };
            let out = step(topo, &preds[node.index()], space, m, pkt, opts);
            steps += 1;
            finals.extend(out.finals);
            for f in out.forwarded {
                let entry = next.entry((f.node, f.ingress, f.hops)).or_insert(Bdd::FALSE);
                *entry = m.or(*entry, f.set);
            }
        }
        level = next;
    }
    (finals, steps)
}

/// The oracle: each source walked alone, in a space without source-id
/// bits, and spliced against its own scope.
fn per_source(net: &Net, q: &Query) -> (Decided, usize) {
    let space = PacketSpace::new(q.transits.len() as u16);
    let mut m = space.manager();
    let preds = compile(net, &space, &mut m);
    let engine = (&net.model.topology, preds.as_slice());
    let clear = space.meta_clear(&mut m);
    let mut decided = Decided::new();
    let mut steps = 0;
    for (src, prefixes) in &q.scopes {
        let (base, s0) = walk(engine, (&space, &mut m), *src, clear, &options(q, false));
        let scope = space.dst_in_any(&mut m, prefixes);
        let scoped = m.and(scope, clear);
        let (fresh, s1) = walk(engine, (&space, &mut m), *src, scoped, &options(q, true));
        steps += s0 + s1;
        let mut splicer = Splicer::new(&mut m, scope);
        let (b, f) = (properties::arrivals(&mut m, &base), properties::arrivals(&mut m, &fresh));
        let arrivals = properties::splice_unions(&mut m, &mut splicer, &b, f);
        let b = properties::kind_unions(&mut m, &space, &base);
        let f = properties::kind_unions(&mut m, &space, &fresh);
        let kinds = properties::splice_unions(&mut m, &mut splicer, &b, f);
        decided.record((net, q), (&space, &mut m), *src, &arrivals, &kinds);
    }
    (decided, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_sources_decide_what_each_source_alone_decides(
        shape in 0usize..5,
        acls in proptest::collection::vec((0usize..16, 0usize..16, any::<u8>()), 0..3),
        picks in proptest::collection::vec((0usize..16, any::<u16>()), 1..6),
        transits in proptest::collection::vec(0usize..16, 0..3),
        failed in proptest::collection::vec((0usize..16, 0u16..8), 0..3),
        ttl in 0u16..4,
    ) {
        let net = net(shape, &acls);
        let topo = &net.model.topology;
        let n = topo.node_count();
        let originated: Vec<Prefix> = net.wants.iter().flatten().copied().collect();
        // Each drawn source once, its scope the drawn subset of the
        // originated prefixes (possibly none: a skipped source).
        let mut scopes: BTreeMap<NodeId, Vec<Prefix>> = BTreeMap::new();
        for &(node, bits) in &picks {
            let scope = originated.iter().enumerate().filter(|(i, _)| bits >> (i % 16) & 1 == 1);
            scopes.insert(NodeId((node % n) as u32), scope.map(|(_, &p)| p).collect());
        }
        let transits: BTreeSet<NodeId> = transits.iter().map(|&t| NodeId((t % n) as u32)).collect();
        let failed = failed
            .iter()
            .map(|&(node, port)| {
                let node = NodeId((node % n) as u32);
                (node, InterfaceId(port % topo.interface_count(node)))
            })
            .collect();
        let q = Query {
            sources: scopes.keys().copied().collect(),
            transits: transits.into_iter().zip(0..).collect(),
            failed,
            scopes: scopes.into_iter().collect(),
            // A short TTL turns the longer paths into loops.
            max_hops: [0, 2, 3, 4][usize::from(ttl)],
        };
        let (merged, merged_steps) = merged(&net, &q);
        let (alone, alone_steps) = per_source(&net, &q);
        prop_assert!(!merged.pairs.is_empty());
        prop_assert_eq!(&merged, &alone);
        prop_assert!(merged_steps <= alone_steps, "{} > {}", merged_steps, alone_steps);
    }
}
