//! Port predicates: compiled forwarding and ACL behaviour of one node.
//!
//! For every node S2 precomputes (§4.3):
//!
//! * `fwd[p]` — packets forwarded out port `p` (longest-prefix-match
//!   semantics compiled away),
//! * `local` — packets that have arrived (destination held by the node),
//! * `drop`  — packets discarded (no route, or a discard route),
//! * `acl_in[p]` / `acl_out[p]` — packets permitted in/out of port `p`.
//!
//! Forwarding then reduces to the pure BDD transformation of Eq. (1):
//! `pkt ← pkt ∧ p1_in ∧ p2_fwd ∧ p2_out`.

use crate::fib::Fib;
use crate::packetspace::{PacketSpace, DST_OFFSET};
use s2_bdd::{Bdd, BddManager};
use s2_net::config::DeviceConfig;
use s2_net::topology::{InterfaceId, NodeId};
use s2_routing::NetworkModel;
use std::collections::BTreeMap;

/// The compiled data-plane behaviour of one node.
#[derive(Debug, Clone)]
pub struct NodePredicates {
    /// The node.
    pub node: NodeId,
    /// Forwarding predicate per egress port.
    pub fwd: BTreeMap<InterfaceId, Bdd>,
    /// Packets that terminate here (Arrive).
    pub local: Bdd,
    /// Packets dropped here (no matching route / discard route).
    pub drop: Bdd,
    /// Inbound ACL per port (TRUE when no ACL configured).
    pub acl_in: BTreeMap<InterfaceId, Bdd>,
    /// Outbound ACL per port (TRUE when no ACL configured).
    pub acl_out: BTreeMap<InterfaceId, Bdd>,
    /// Per connected port, the [`ingress_class`] of the port at the far
    /// end of its link: the ingress a fragment sent out that port carries.
    pub peer_class: BTreeMap<InterfaceId, InterfaceId>,
}

/// The ingress class of `port` at `node`, named by its lowest member: the
/// lowest port of the node with the same inbound-ACL binding (the same ACL
/// name, or none). `acl_in` is compiled from that binding alone, so every
/// port of a class has the same inbound predicate and fragments arriving
/// on any of them are stepped identically.
pub fn ingress_class(model: &NetworkModel, node: NodeId, port: InterfaceId) -> InterfaceId {
    let binding = |p: InterfaceId| model.iface_config(node, p).and_then(|ic| ic.acl_in.as_deref());
    let mine = binding(port);
    (0..port.0)
        .map(InterfaceId)
        .find(|&p| binding(p) == mine)
        .unwrap_or(port)
}

impl NodePredicates {
    /// Compiles `fib` plus the node's ACL bindings into predicates, using
    /// (and populating) the worker-local `manager`.
    ///
    /// The FIB's LPM semantics are compiled in one walk of its trie
    /// ([`BddManager::encode_prefix_classes`]): entries are grouped into
    /// forwarding classes — local, drop (discard routes and no route) and
    /// one per egress set — and each class's destination set is built
    /// bottom-up, then handed to `local`, `drop` or its egress ports.
    pub fn compile(
        model: &NetworkModel,
        node: NodeId,
        fib: &Fib,
        space: &PacketSpace,
        manager: &mut BddManager,
    ) -> Self {
        let _span = s2_obs::span!("dpv.compile_preds", fib.len());
        let (fwd, local, drop) = compile_forwarding(fib, manager);

        // ACL predicates from the interface bindings.
        let mut acl_in = BTreeMap::new();
        let mut acl_out = BTreeMap::new();
        let cfg: &DeviceConfig = &model.configs[node.index()];
        let ifcount = model.topology.interface_count(node);
        for i in 0..ifcount {
            let port = InterfaceId(i);
            let icfg = model.iface_config(node, port);
            let compile_acl = |name: &Option<String>, manager: &mut BddManager| -> Bdd {
                match name.as_ref().and_then(|n| cfg.acls.get(n)) {
                    Some(acl) => space.acl_permits(manager, acl),
                    None => Bdd::TRUE,
                }
            };
            let (inp, outp) = match icfg {
                Some(ic) => (
                    compile_acl(&ic.acl_in, manager),
                    compile_acl(&ic.acl_out, manager),
                ),
                None => (Bdd::TRUE, Bdd::TRUE),
            };
            acl_in.insert(port, inp);
            acl_out.insert(port, outp);
        }

        let peer_class = model
            .topology
            .neighbors(node)
            .iter()
            .map(|&(port, peer, peer_if)| (port, ingress_class(model, peer, peer_if)))
            .collect();

        NodePredicates {
            node,
            fwd,
            local,
            drop,
            acl_in,
            acl_out,
            peer_class,
        }
    }

    /// The inbound ACL for `port` (TRUE for unknown ports, e.g. injection).
    pub fn acl_in(&self, port: Option<InterfaceId>) -> Bdd {
        match port {
            Some(p) => self.acl_in.get(&p).copied().unwrap_or(Bdd::TRUE),
            None => Bdd::TRUE,
        }
    }

    /// The outbound ACL for `port`.
    pub fn acl_out(&self, port: InterfaceId) -> Bdd {
        self.acl_out.get(&port).copied().unwrap_or(Bdd::TRUE)
    }
}

/// Forwarding class of discard routes and of addresses with no route.
const DROP: u32 = 0;
/// Forwarding class of local delivery.
const LOCAL: u32 = 1;
/// Forwarding class of the first distinct egress set; the others follow.
const FIRST_EGRESS: u32 = 2;

/// The `fwd`, `local` and `drop` predicates of `fib`, compiled by one walk
/// of its trie. Each address takes the class of its longest matching
/// entry, so the classes partition the space and no `covered` union is
/// needed; forwarding classes sharing a port are joined there.
fn compile_forwarding(
    fib: &Fib,
    manager: &mut BddManager,
) -> (BTreeMap<InterfaceId, Bdd>, Bdd, Bdd) {
    let mut egress_sets: Vec<&[InterfaceId]> = Vec::new();
    let prefixes: Vec<(u32, u8, u32)> = fib
        .iter()
        .map(|(prefix, entry)| {
            let class = if entry.is_local {
                LOCAL
            } else if entry.is_discard() {
                DROP
            } else {
                let i = match egress_sets.iter().position(|&s| s == entry.egress.as_slice()) {
                    Some(i) => i,
                    None => {
                        egress_sets.push(&entry.egress);
                        egress_sets.len() - 1
                    }
                };
                FIRST_EGRESS + i as u32
            };
            (prefix.addr().0, prefix.len(), class)
        })
        .collect();

    let mut fwd: BTreeMap<InterfaceId, Bdd> = BTreeMap::new();
    let mut local = Bdd::FALSE;
    let mut drop = Bdd::FALSE;
    for (class, set) in manager.encode_prefix_classes(DST_OFFSET, DROP, &prefixes) {
        match class {
            DROP => drop = set,
            LOCAL => local = set,
            _ => {
                for port in egress_sets[(class - FIRST_EGRESS) as usize] {
                    let cur = fwd.entry(*port).or_insert(Bdd::FALSE);
                    *cur = manager.or(*cur, set);
                }
            }
        }
    }
    (fwd, local, drop)
}

/// The walk [`compile_forwarding`] replaced, kept as its oracle: entries
/// longest prefix first, each masked with the union of everything more
/// specific already seen.
#[cfg(test)]
fn compile_reference(
    fib: &Fib,
    space: &PacketSpace,
    manager: &mut BddManager,
) -> (BTreeMap<InterfaceId, Bdd>, Bdd, Bdd) {
    let mut fwd: BTreeMap<InterfaceId, Bdd> = BTreeMap::new();
    let mut local = Bdd::FALSE;
    let mut drop = Bdd::FALSE;
    let mut covered = Bdd::FALSE;

    let mut longest_first: Vec<_> = fib.iter().collect();
    longest_first.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
    for (prefix, entry) in longest_first {
        let p = space.dst_in(manager, prefix);
        let effective = manager.diff(p, covered);
        covered = manager.or(covered, p);
        if effective.is_false() {
            continue;
        }
        if entry.is_local {
            local = manager.or(local, effective);
        } else if entry.is_discard() {
            drop = manager.or(drop, effective);
        } else {
            for port in &entry.egress {
                let cur = fwd.entry(*port).or_insert(Bdd::FALSE);
                *cur = manager.or(*cur, effective);
            }
        }
    }
    // Anything not covered by any FIB entry is dropped (no route).
    let unrouted = manager.not(covered);
    drop = manager.or(drop, unrouted);
    (fwd, local, drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::Fib;
    use proptest::prelude::*;
    use s2_net::config::{BgpNeighbor, BgpProcess, InterfaceConfig, Network, Vendor};
    use s2_net::topology::Topology;
    use s2_net::Ipv4Addr;
    use s2_net::policy::Protocol;
    use s2_routing::{
        converge_bgp, converge_ospf, RibRoute, RibSnapshot, RibStore, SwitchModel, DEFAULT_MAX_ROUNDS,
    };

    /// Minimal two-node model for predicate compilation.
    fn model() -> NetworkModel {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b);
        let mut ca = DeviceConfig::new("a", Vendor::A);
        ca.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 0), 31));
        let mut bgp_a = BgpProcess::new(1, Ipv4Addr::new(1, 1, 1, 1));
        bgp_a.networks.push(Network { prefix: "10.1.0.0/24".parse().unwrap() });
        bgp_a.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 1),
            remote_as: 2,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        ca.bgp = Some(bgp_a);
        let mut cb = DeviceConfig::new("b", Vendor::A);
        cb.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 1), 31));
        let mut bgp_b = BgpProcess::new(2, Ipv4Addr::new(1, 1, 1, 2));
        bgp_b.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 0),
            remote_as: 1,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        cb.bgp = Some(bgp_b);
        NetworkModel::build(topo, vec![ca, cb]).unwrap()
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

    #[test]
    fn lpm_shadowing_compiles_correctly() {
        let m = model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let fib = Fib::from_rib(&[
            rib("10.0.0.0/8", vec![0], false),
            rib("10.1.0.0/16", vec![], true), // local island inside /8
        ]);
        let p = NodePredicates::compile(&m, NodeId(0), &fib, &space, &mut mgr);

        let in_16 = space.dst_in(&mut mgr, "10.1.0.0/16".parse().unwrap());
        let in_8 = space.dst_in(&mut mgr, "10.0.0.0/8".parse().unwrap());

        // /16 space is local, not forwarded.
        assert_eq!(mgr.and(p.local, in_16), in_16);
        let fwd0 = p.fwd[&InterfaceId(0)];
        assert!(mgr.and(fwd0, in_16).is_false());
        // The rest of the /8 is forwarded.
        let rest = mgr.diff(in_8, in_16);
        assert_eq!(mgr.and(fwd0, rest), rest);
        // Outside the /8 everything drops.
        let outside = mgr.not(in_8);
        assert_eq!(mgr.and(p.drop, outside), outside);
    }

    #[test]
    fn discard_routes_feed_drop() {
        let m = model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let fib = Fib::from_rib(&[rib("10.0.0.0/8", vec![], false)]);
        let p = NodePredicates::compile(&m, NodeId(0), &fib, &space, &mut mgr);
        let in_8 = space.dst_in(&mut mgr, "10.0.0.0/8".parse().unwrap());
        assert_eq!(mgr.and(p.drop, in_8), in_8);
        assert!(p.fwd.is_empty());
    }

    #[test]
    fn default_acls_are_true() {
        let m = model();
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let p = NodePredicates::compile(&m, NodeId(0), &Fib::default(), &space, &mut mgr);
        assert!(p.acl_in(Some(InterfaceId(0))).is_true());
        assert!(p.acl_in(None).is_true());
        assert!(p.acl_out(InterfaceId(0)).is_true());
        // No FIB: everything drops.
        assert!(p.drop.is_true());
    }

    #[test]
    fn bound_acl_is_compiled() {
        let mut m = model();
        // Attach a deny-all ACL inbound on a's eth0.
        let mut cfg = (*m.configs[0]).clone();
        cfg.acls.insert("BLOCK".into(), s2_net::acl::Acl::default());
        cfg.interfaces[0].acl_in = Some("BLOCK".into());
        m.configs[0] = std::sync::Arc::new(cfg);

        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let p = NodePredicates::compile(&m, NodeId(0), &Fib::default(), &space, &mut mgr);
        assert!(p.acl_in(Some(InterfaceId(0))).is_false());
    }

    /// Compiles `fib` with the trie walk and with the oracle into one
    /// manager and asserts equal handles, and that `local`, `drop` and
    /// the union of `fwd` partition the space.
    fn assert_matches_reference(fib: &Fib, space: &PacketSpace, mgr: &mut BddManager) {
        let (fwd, local, drop) = compile_forwarding(fib, mgr);
        let (ref_fwd, ref_local, ref_drop) = compile_reference(fib, space, mgr);
        assert_eq!(fwd, ref_fwd, "fwd");
        assert_eq!(local, ref_local, "local");
        assert_eq!(drop, ref_drop, "drop");

        assert!(mgr.and(local, drop).is_false(), "local and drop overlap");
        for (port, &f) in &fwd {
            assert!(mgr.and(f, local).is_false(), "fwd[{port:?}] overlaps local");
            assert!(mgr.and(f, drop).is_false(), "fwd[{port:?}] overlaps drop");
        }
        let forwarded = mgr.or_all(fwd.values().copied());
        let handled = mgr.or(local, drop);
        assert!(mgr.or(handled, forwarded).is_true(), "some packet has no fate");
    }

    /// Converged RIBs of a generated network, every prefix in one pass.
    fn converged_ribs(topology: Topology, configs: Vec<DeviceConfig>) -> RibSnapshot {
        let model = NetworkModel::build(topology, configs).unwrap();
        let mut switches: Vec<SwitchModel> =
            model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
        converge_ospf(&model, &mut switches, DEFAULT_MAX_ROUNDS).unwrap();
        converge_bgp(&mut switches, None, DEFAULT_MAX_ROUNDS).unwrap();
        let mut store = RibStore::new(switches.len());
        for s in &switches {
            store.insert_all(s.node, s.base_rib_routes());
            store.insert_all(s.node, s.bgp_rib_routes());
        }
        store.into_snapshot()
    }

    #[test]
    fn converged_fibs_match_reference() {
        let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(8));
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        let space = PacketSpace::new(0);
        for rib in [converged_ribs(ft.topology, ft.configs), converged_ribs(dcn.topology, dcn.configs)] {
            let mut mgr = space.manager();
            let mut compiled = 0;
            for routes in &rib.per_node {
                let fib = Fib::from_rib(routes);
                compiled += fib.len();
                assert_matches_reference(&fib, &space, &mut mgr);
            }
            assert!(compiled > 10 * rib.per_node.len(), "the network converged to real FIBs");
        }
    }

    proptest! {
        /// Random FIBs with nesting prefixes (`/0` and `/32` included),
        /// local, discard and ECMP entries, and egress sets repeated
        /// across entries or listed in another order.
        #[test]
        fn prop_random_fibs_match_reference(
            raw in proptest::collection::vec((0usize..9, any::<u32>(), 0u8..=32, 0usize..8), 0..30),
        ) {
            const POOL: [u32; 6] = [0, 0x0A00_0000, 0x0A01_0000, 0x0A01_0180, 0xC0A8_0101, u32::MAX];
            const EGRESS: [&[u16]; 6] = [&[0], &[1], &[0, 1], &[1, 0], &[2, 3, 0], &[3]];
            let routes: Vec<RibRoute> = raw
                .into_iter()
                .map(|(pick, bits, len, kind)| {
                    let addr = POOL.get(pick).copied().unwrap_or(bits);
                    let egress = EGRESS.get(kind).copied().unwrap_or_default();
                    RibRoute {
                        prefix: s2_net::Prefix::new(Ipv4Addr(addr), len),
                        protocol: Protocol::Bgp,
                        egress: egress.iter().copied().map(InterfaceId).collect(),
                        is_local: kind == EGRESS.len(),
                        as_path_len: 0,
                    }
                })
                .collect();
            let space = PacketSpace::new(0);
            let mut mgr = space.manager();
            assert_matches_reference(&Fib::from_rib(&routes), &space, &mut mgr);
        }
    }
}
