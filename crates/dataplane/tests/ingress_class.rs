//! The ingress-class merge against the walker that does not merge.
//!
//! `forward()` keys fragments by ingress *class* (ports of a node bound to
//! the same inbound ACL); `no_merge: true` walks path by path and keeps
//! the true arrival port on every fragment. Both must reach the same
//! per-`(src, node, kind)` header sets whatever the ACL bindings are.

use proptest::prelude::*;
use s2_bdd::{Bdd, BddManager};
use s2_dataplane::predicates::ingress_class;
use s2_dataplane::{
    forward, Fib, FinalKind, ForwardOptions, ForwardResult, NodePredicates, PacketSpace, Sources,
};
use s2_net::acl::{Acl, AclAction, AclEntry, PortRange};
use s2_net::config::{DeviceConfig, InterfaceConfig, Vendor};
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId, Topology};
use s2_net::{Ipv4Addr, Prefix};
use s2_routing::{NetworkModel, RibRoute};
use std::collections::BTreeMap;

/// The two routed prefixes; together they are `SPACE`.
const PREFIXES: [&str; 2] = ["10.8.0.0/16", "10.9.0.0/16"];
const SPACE: &str = "10.8.0.0/15";

/// The ACLs every device defines, by name and denied destination. `A`
/// and `C` deny the same space under different names: distinct classes.
const ACLS: [(&str, &str); 4] = [
    ("A", "10.9.0.0/17"),
    ("B", "10.8.128.0/17"),
    ("C", "10.9.0.0/17"),
    ("ALL", "0.0.0.0/0"),
];

fn deny_dst(dst: &str) -> Acl {
    Acl {
        entries: vec![
            AclEntry {
                action: AclAction::Deny,
                src: Prefix::DEFAULT,
                dst: dst.parse().unwrap(),
                proto: None,
                src_ports: PortRange::ANY,
                dst_ports: PortRange::ANY,
            },
            AclEntry::any(AclAction::Permit),
        ],
    }
}

/// `n` nodes joined by `links`; `bind(link, end)` names the inbound ACL of
/// the port at that end of the link (`end` 0 is the link's first node).
fn model(
    n: usize,
    links: &[(usize, usize)],
    bind: impl Fn(usize, usize) -> Option<&'static str>,
) -> NetworkModel {
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| topo.add_node(format!("n{i}"))).collect();
    let mut configs: Vec<DeviceConfig> = (0..n)
        .map(|i| {
            let mut cfg = DeviceConfig::new(format!("n{i}"), Vendor::A);
            cfg.acls = ACLS.iter().map(|&(name, dst)| (name.to_string(), deny_dst(dst))).collect();
            cfg
        })
        .collect();
    for (l, &(a, b)) in links.iter().enumerate() {
        topo.connect(nodes[a], nodes[b]);
        for (end, node) in [a, b].into_iter().enumerate() {
            // One /31 per link: model building binds ports by subnet.
            let mut iface = InterfaceConfig::new(
                format!("l{l}"),
                Ipv4Addr::new(172, 16, l as u8, end as u8),
                31,
            );
            iface.acl_in = bind(l, end).map(str::to_string);
            configs[node].interfaces.push(iface);
        }
    }
    NetworkModel::build(topo, configs).unwrap()
}

fn route(prefix: &str, egress: Vec<u16>, is_local: bool) -> RibRoute {
    RibRoute {
        prefix: prefix.parse().unwrap(),
        protocol: Protocol::Bgp,
        egress: egress.into_iter().map(InterfaceId).collect(),
        is_local,
        as_path_len: 0,
    }
}

/// Injects `SPACE` at every node of `sources` and forwards it.
fn run(
    model: &NetworkModel,
    ribs: &[Vec<RibRoute>],
    sources: &[u32],
    opts: &ForwardOptions,
    space: &PacketSpace,
    mgr: &mut BddManager,
) -> ForwardResult {
    let preds: Vec<NodePredicates> = model
        .topology
        .nodes()
        .map(|n| NodePredicates::compile(model, n, &Fib::from_rib(&ribs[n.index()]), space, mgr))
        .collect();
    let inject = space.dst_in(mgr, SPACE.parse().unwrap());
    let injections = sources.iter().map(|&s| (NodeId(s), inject)).collect();
    forward(&model.topology, &preds, space, mgr, injections, opts)
}

/// Per `(source, node, kind)`, the finals' union: each source's cofactor
/// of the per-`(node, kind)` union.
fn unions(res: &ForwardResult, mgr: &mut BddManager) -> BTreeMap<(NodeId, NodeId, FinalKind), Bdd> {
    let mut merged = BTreeMap::new();
    for f in &res.finals {
        let entry = merged.entry((f.node, f.kind)).or_insert(Bdd::FALSE);
        *entry = mgr.or(*entry, f.set);
    }
    let mut out = BTreeMap::new();
    for ((node, kind), set) in merged {
        for &src in res.sources.nodes() {
            let part = res.of_source(mgr, src, set);
            if !part.is_false() {
                out.insert((src, node, kind), part);
            }
        }
    }
    out
}

/// s — l, s — r, l — d, r — d: `d` has one port from each of `l` and `r`.
const DIAMOND: [(usize, usize); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];

fn diamond_ribs() -> Vec<Vec<RibRoute>> {
    vec![
        vec![route(PREFIXES[1], vec![0, 1], false)],
        vec![route(PREFIXES[1], vec![1], false)],
        vec![route(PREFIXES[1], vec![1], false)],
        vec![route(PREFIXES[1], vec![], true)],
    ]
}

#[test]
fn ports_bound_to_different_acls_are_never_merged() {
    // d's port from l is bound to A, its port from r to C: the same
    // denied space, but two bindings, so two classes and two steps at d.
    let apart = model(4, &DIAMOND, |link, end| match (link, end) {
        (2, 1) => Some("A"),
        (3, 1) => Some("C"),
        _ => None,
    });
    let d = NodeId(3);
    assert_eq!(ingress_class(&apart, d, InterfaceId(0)), InterfaceId(0));
    assert_eq!(ingress_class(&apart, d, InterfaceId(1)), InterfaceId(1));
    let space = PacketSpace::new(0);
    let mut mgr = space.manager();
    let opts = ForwardOptions::default();
    let res = run(&apart, &diamond_ribs(), &[0], &opts, &space, &mut mgr);
    assert_eq!(res.steps, 5, "s, l, r and one step per ingress class of d");
    let denied = space.dst_in(&mut mgr, "10.9.0.0/17".parse().unwrap());
    assert_eq!(unions(&res, &mut mgr)[&(NodeId(0), d, FinalKind::Blackhole)], denied);

    // Bound to one ACL (or to none) the two ports are one class.
    for name in [Some("A"), None] {
        let together = model(4, &DIAMOND, |link, end| if end == 1 && link >= 2 { name } else { None });
        assert_eq!(ingress_class(&together, d, InterfaceId(1)), InterfaceId(0));
        let mut mgr = space.manager();
        let res = run(&together, &diamond_ribs(), &[0], &opts, &space, &mut mgr);
        assert_eq!(res.steps, 4, "d steps once for both arrivals ({name:?})");
    }
}

#[test]
fn injected_fragments_bypass_inbound_acls() {
    // Every port of every node denies everything inbound; traffic
    // injected at d still sees TRUE there and is delivered whole.
    let sealed = model(4, &DIAMOND, |_, _| Some("ALL"));
    let space = PacketSpace::new(0);
    let mut mgr = space.manager();
    let res = run(&sealed, &diamond_ribs(), &[3], &ForwardOptions::default(), &space, &mut mgr);
    let local = space.dst_in(&mut mgr, PREFIXES[1].parse().unwrap());
    assert_eq!(res.arrived_at(&mut mgr, NodeId(3), NodeId(3)), local);
    assert!(res
        .of_kind(FinalKind::Blackhole)
        .all(|f| !mgr.intersects(f.set, local)));
}

/// All pairs of five nodes, the pool random topologies draw links from.
fn pairs() -> Vec<(usize, usize)> {
    (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs, random per-port bindings (unbound, shared names,
    /// distinct names), random ECMP routes that may loop: the class merge
    /// and the unmerged walk agree on every `(src, node, kind)` union.
    #[test]
    fn class_merge_matches_unmerged_walk(
        present in proptest::collection::vec(any::<bool>(), 10),
        bindings in proptest::collection::vec(0usize..4, 20),
        routes in proptest::collection::vec((any::<u8>(), 0u8..6), 10),
    ) {
        let links: Vec<(usize, usize)> = pairs()
            .into_iter()
            .zip(&present)
            .filter_map(|(pair, &on)| on.then_some(pair))
            .collect();
        let model = model(5, &links, |link, end| {
            [None, Some("A"), Some("B"), Some("C")][bindings[2 * link + end]]
        });
        // Per node and prefix: deliver locally (one draw in six), or send
        // out the drawn subset of the node's ports (none = no route).
        let ribs: Vec<Vec<RibRoute>> = model
            .topology
            .nodes()
            .map(|n| {
                let ports = model.topology.interface_count(n);
                PREFIXES
                    .iter()
                    .enumerate()
                    .filter_map(|(p, prefix)| {
                        let (mask, local) = routes[2 * n.index() + p];
                        let egress: Vec<u16> = (0..ports).filter(|i| mask >> i & 1 == 1).collect();
                        match (local == 0, egress.is_empty()) {
                            (true, _) => Some(route(prefix, vec![], true)),
                            (false, false) => Some(route(prefix, egress, false)),
                            (false, true) => None,
                        }
                    })
                    .collect()
            })
            .collect();

        let space = PacketSpace::with_sources(0, &Sources::new([NodeId(0), NodeId(1)]));
        let mut mgr = space.manager();
        // A short TTL bounds the unmerged walk on looping routes.
        let merged = ForwardOptions { max_hops: 4, ..Default::default() };
        let unmerged = ForwardOptions { no_merge: true, ..merged.clone() };
        let a = run(&model, &ribs, &[0, 1], &merged, &space, &mut mgr);
        let b = run(&model, &ribs, &[0, 1], &unmerged, &space, &mut mgr);
        prop_assert_eq!(unions(&a, &mut mgr), unions(&b, &mut mgr));
        prop_assert!(a.steps <= b.steps);
    }
}
