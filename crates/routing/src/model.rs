//! The resolved network model: topology + configurations + inferred L3
//! adjacencies + established BGP sessions.
//!
//! This mirrors Batfish's pipeline: vendor-independent configurations are
//! bound to topology nodes by hostname, interface configurations are bound
//! to topology ports by shared link subnets (L3 adjacency inference), and
//! BGP sessions are established only when both endpoints agree (addresses
//! reachable on a connected subnet, reciprocal `remote-as`). Misconfigured
//! sessions are not errors — they surface as [`SessionDiagnostic`]s and,
//! downstream, as reachability violations.

use s2_net::config::DeviceConfig;
use s2_net::topology::{InterfaceId, NodeId, Topology};
use s2_net::{Ipv4Addr, NetError, Prefix};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A resolved, mutually agreed eBGP session endpoint on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpSession {
    /// Local topology interface the session runs over.
    pub local_if: InterfaceId,
    /// Local interface address (becomes NEXT_HOP on exports).
    pub local_addr: Ipv4Addr,
    /// The peer node.
    pub peer_node: NodeId,
    /// The peer's interface address (as configured in `neighbor`).
    pub peer_addr: Ipv4Addr,
    /// The peer's ASN (verified against the peer's BGP process).
    pub remote_as: u32,
    /// Index into this device's `bgp.neighbors` (for policies).
    pub neighbor_index: usize,
    /// Index of the reciprocal session in the peer's session table; lets
    /// the simulator deliver advertisements without any lookup.
    pub peer_session_index: u32,
}

/// An OSPF adjacency: both endpoints run OSPF on the connecting link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OspfAdj {
    /// Local interface.
    pub local_if: InterfaceId,
    /// Cost of sending out `local_if`.
    pub cost: u32,
    /// Peer node.
    pub peer_node: NodeId,
}

/// Why a configured BGP neighbor did not come up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionDiagnostic {
    /// No local interface subnet contains the configured peer address.
    PeerAddressUnreachable {
        /// The node with the dangling neighbor statement.
        node: NodeId,
        /// The configured peer address.
        peer: Ipv4Addr,
    },
    /// The interface's link peer does not own the configured address.
    PeerAddressMismatch {
        /// The node with the neighbor statement.
        node: NodeId,
        /// The configured peer address.
        peer: Ipv4Addr,
        /// The node actually on the other end of the link.
        actual_node: NodeId,
    },
    /// The peer exists but its ASN differs from the configured `remote-as`.
    AsnMismatch {
        /// The node with the neighbor statement.
        node: NodeId,
        /// Configured remote AS.
        configured: u32,
        /// The peer's actual AS.
        actual: u32,
    },
    /// The peer has no reciprocal neighbor statement for this node.
    NotReciprocal {
        /// The node with the one-sided neighbor statement.
        node: NodeId,
        /// The configured peer address.
        peer: Ipv4Addr,
    },
}

/// The fully resolved model every verifier component consumes.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// The physical topology.
    pub topology: Topology,
    /// Configuration of each node, indexed by `NodeId`.
    pub configs: Vec<Arc<DeviceConfig>>,
    /// `iface_binding[node][interface] = index into configs[node].interfaces`
    /// for ports bound by L3 adjacency inference.
    pub iface_binding: Vec<Vec<Option<usize>>>,
    /// Established BGP sessions per node, in neighbor-statement order.
    pub bgp_sessions: Vec<Vec<BgpSession>>,
    /// OSPF adjacencies per node.
    pub ospf_adj: Vec<Vec<OspfAdj>>,
    /// Sessions that failed to establish, with reasons.
    pub session_diagnostics: Vec<SessionDiagnostic>,
}

impl NetworkModel {
    /// Builds the model. `configs` are matched to topology nodes by
    /// hostname; every node must have exactly one configuration.
    pub fn build(topology: Topology, configs: Vec<DeviceConfig>) -> Result<Self, NetError> {
        // Bind configurations to nodes by hostname.
        #[expect(clippy::disallowed_types, reason = "hostname lookups only; never iterated")]
        let mut by_host = std::collections::HashMap::<&str, &DeviceConfig>::new();
        for c in &configs {
            if by_host.insert(c.hostname.as_str(), c).is_some() {
                return Err(NetError::Inconsistent(format!(
                    "duplicate configuration for host {}",
                    c.hostname
                )));
            }
        }
        let mut bound: Vec<Arc<DeviceConfig>> = Vec::with_capacity(topology.node_count());
        for node in topology.nodes() {
            let name = topology.name(node);
            let cfg = by_host.get(name).ok_or_else(|| {
                NetError::Inconsistent(format!("no configuration for host {name}"))
            })?;
            (*cfg).validate()?;
            bound.push(Arc::new((*cfg).clone()));
        }

        // L3 adjacency inference: bind topology ports to interface configs
        // by shared link subnet.
        let mut iface_binding: Vec<Vec<Option<usize>>> = topology
            .nodes()
            .map(|n| vec![None; topology.interface_count(n) as usize])
            .collect();
        // Per-node subnet → interface-config index (non-host subnets only).
        let subnet_maps: Vec<BTreeMap<Prefix, usize>> = bound
            .iter()
            .map(|cfg| {
                cfg.interfaces
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.prefix.len() < 32)
                    .map(|(idx, i)| (i.prefix, idx))
                    .collect()
            })
            .collect();
        for link in topology.links() {
            let (na, ia) = link.a;
            let (nb, ib) = link.b;
            // The link's subnet is any subnet both endpoints configure with
            // distinct addresses.
            for (subnet, &cfg_a) in &subnet_maps[na.index()] {
                if let Some(&cfg_b) = subnet_maps[nb.index()].get(subnet) {
                    let addr_a = bound[na.index()].interfaces[cfg_a].addr;
                    let addr_b = bound[nb.index()].interfaces[cfg_b].addr;
                    if addr_a != addr_b
                        && iface_binding[na.index()][ia.index()].is_none()
                        && iface_binding[nb.index()][ib.index()].is_none()
                    {
                        iface_binding[na.index()][ia.index()] = Some(cfg_a);
                        iface_binding[nb.index()][ib.index()] = Some(cfg_b);
                        break;
                    }
                }
            }
        }

        let mut model = NetworkModel {
            topology,
            configs: bound,
            iface_binding,
            bgp_sessions: Vec::new(),
            ospf_adj: Vec::new(),
            session_diagnostics: Vec::new(),
        };
        model.resolve_bgp_sessions();
        model.resolve_ospf();
        Ok(model)
    }

    /// The interface config bound to a topology port, if any.
    pub fn iface_config(&self, node: NodeId, ifid: InterfaceId) -> Option<&s2_net::config::InterfaceConfig> {
        let idx = self.iface_binding[node.index()][ifid.index()]?;
        Some(&self.configs[node.index()].interfaces[idx])
    }

    /// Finds the topology port of `node` bound to the interface config
    /// whose subnet contains `addr` (excluding the node's own address).
    fn port_for_peer_addr(&self, node: NodeId, addr: Ipv4Addr) -> Option<InterfaceId> {
        for (ifid, _, _) in self.topology.neighbors(node) {
            if let Some(icfg) = self.iface_config(node, *ifid) {
                if icfg.prefix.contains_addr(addr) && icfg.addr != addr {
                    return Some(*ifid);
                }
            }
        }
        None
    }

    fn resolve_bgp_sessions(&mut self) {
        // First pass: find candidate sessions (local resolution + peer
        // address/ASN verification).
        #[derive(Clone)]
        struct Half {
            node: NodeId,
            local_if: InterfaceId,
            local_addr: Ipv4Addr,
            peer_node: NodeId,
            peer_addr: Ipv4Addr,
            remote_as: u32,
            neighbor_index: usize,
        }
        let mut halves: Vec<Half> = Vec::new();
        let mut diags = Vec::new();

        for node in self.topology.nodes() {
            let cfg = self.configs[node.index()].clone();
            let Some(bgp) = cfg.bgp.as_ref() else { continue };
            for (ni, n) in bgp.neighbors.iter().enumerate() {
                let Some(local_if) = self.port_for_peer_addr(node, n.peer) else {
                    diags.push(SessionDiagnostic::PeerAddressUnreachable {
                        node,
                        peer: n.peer,
                    });
                    continue;
                };
                let local_addr = self.iface_config(node, local_if).expect("bound port").addr;
                let (peer_node, peer_if) = self
                    .topology
                    .peer_of(node, local_if)
                    .expect("port belongs to a link");
                let peer_cfg = &self.configs[peer_node.index()];
                let peer_if_addr = self.iface_config(peer_node, peer_if).map(|i| i.addr);
                if peer_if_addr != Some(n.peer) {
                    diags.push(SessionDiagnostic::PeerAddressMismatch {
                        node,
                        peer: n.peer,
                        actual_node: peer_node,
                    });
                    continue;
                }
                let Some(peer_bgp) = peer_cfg.bgp.as_ref() else {
                    diags.push(SessionDiagnostic::NotReciprocal { node, peer: n.peer });
                    continue;
                };
                if peer_bgp.asn != n.remote_as {
                    diags.push(SessionDiagnostic::AsnMismatch {
                        node,
                        configured: n.remote_as,
                        actual: peer_bgp.asn,
                    });
                    continue;
                }
                // Reciprocity: the peer must have a neighbor statement for
                // our address with our ASN.
                let our_asn = bgp.asn;
                let reciprocal = peer_bgp
                    .neighbors
                    .iter()
                    .any(|pn| pn.peer == local_addr && pn.remote_as == our_asn);
                if !reciprocal {
                    diags.push(SessionDiagnostic::NotReciprocal { node, peer: n.peer });
                    continue;
                }
                halves.push(Half {
                    node,
                    local_if,
                    local_addr,
                    peer_node,
                    peer_addr: n.peer,
                    remote_as: n.remote_as,
                    neighbor_index: ni,
                });
            }
        }

        // Second pass: index the halves per node and link them pairwise.
        let mut sessions: Vec<Vec<BgpSession>> = self.topology.nodes().map(|_| Vec::new()).collect();
        for h in &halves {
            sessions[h.node.index()].push(BgpSession {
                local_if: h.local_if,
                local_addr: h.local_addr,
                peer_node: h.peer_node,
                peer_addr: h.peer_addr,
                remote_as: h.remote_as,
                neighbor_index: h.neighbor_index,
                peer_session_index: u32::MAX,
            });
        }
        // Fill in peer_session_index by matching (peer_node, addresses).
        let snapshot = sessions.clone();
        for node_sessions in sessions.iter_mut() {
            for s in node_sessions.iter_mut() {
                let peer_sessions = &snapshot[s.peer_node.index()];
                if let Some(idx) = peer_sessions
                    .iter()
                    .position(|ps| ps.peer_addr == s.local_addr && ps.local_addr == s.peer_addr)
                {
                    s.peer_session_index = idx as u32;
                }
            }
        }
        // Reciprocity guaranteed both halves exist; assert in debug builds.
        debug_assert!(sessions
            .iter()
            .flatten()
            .all(|s| s.peer_session_index != u32::MAX));

        self.bgp_sessions = sessions;
        self.session_diagnostics = diags;
    }

    fn resolve_ospf(&mut self) {
        let mut adj: Vec<Vec<OspfAdj>> = self.topology.nodes().map(|_| Vec::new()).collect();
        for node in self.topology.nodes() {
            let cfg = &self.configs[node.index()];
            let Some(ospf) = cfg.ospf.as_ref() else { continue };
            for (ifid, peer, peer_if) in self.topology.neighbors(node) {
                let Some(icfg) = self.iface_config(node, *ifid) else { continue };
                if !ospf.interfaces.contains(&icfg.name) {
                    continue;
                }
                // The peer must also run OSPF on the connecting interface.
                let peer_cfg = &self.configs[peer.index()];
                let Some(peer_ospf) = peer_cfg.ospf.as_ref() else { continue };
                let Some(peer_icfg) = self.iface_config(*peer, *peer_if) else { continue };
                if !peer_ospf.interfaces.contains(&peer_icfg.name) {
                    continue;
                }
                let cost = icfg.ospf_cost.unwrap_or(ospf.default_cost);
                adj[node.index()].push(OspfAdj {
                    local_if: *ifid,
                    cost,
                    peer_node: *peer,
                });
            }
        }
        self.ospf_adj = adj;
    }

    /// Total number of established (directed) BGP session endpoints.
    pub fn session_count(&self) -> usize {
        self.bgp_sessions.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::config::{BgpNeighbor, BgpProcess, InterfaceConfig, Vendor};

    /// Builds a two-node back-to-back network with an eBGP session.
    fn two_node(asn_b_configured: u32) -> (Topology, Vec<DeviceConfig>) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b);

        let mut ca = DeviceConfig::new("a", Vendor::A);
        ca.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 0), 31));
        let mut bgp_a = BgpProcess::new(65001, Ipv4Addr::new(1, 0, 0, 1));
        bgp_a.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 1),
            remote_as: asn_b_configured,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        ca.bgp = Some(bgp_a);

        let mut cb = DeviceConfig::new("b", Vendor::B);
        cb.interfaces.push(InterfaceConfig::new("xe0", Ipv4Addr::new(10, 0, 0, 1), 31));
        let mut bgp_b = BgpProcess::new(65002, Ipv4Addr::new(1, 0, 0, 2));
        bgp_b.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 0),
            remote_as: 65001,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        cb.bgp = Some(bgp_b);

        (topo, vec![ca, cb])
    }

    #[test]
    fn session_establishes_when_consistent() {
        let (topo, cfgs) = two_node(65002);
        let m = NetworkModel::build(topo, cfgs).unwrap();
        assert!(m.session_diagnostics.is_empty(), "{:?}", m.session_diagnostics);
        assert_eq!(m.session_count(), 2);
        let sa = &m.bgp_sessions[0][0];
        assert_eq!(sa.peer_node, NodeId(1));
        assert_eq!(sa.remote_as, 65002);
        assert_eq!(sa.peer_session_index, 0);
        // Interface binding resolved by shared subnet.
        assert_eq!(m.iface_config(NodeId(0), sa.local_if).unwrap().name, "eth0");
    }

    #[test]
    fn asn_mismatch_is_diagnosed_not_fatal() {
        let (topo, cfgs) = two_node(64999);
        let m = NetworkModel::build(topo, cfgs).unwrap();
        // a's half fails with AsnMismatch; b's half fails reciprocity
        // (a's statement is wrong, so from b's view... a targets b with a
        // wrong AS but b's check is about a's config of b; b sees a
        // reciprocal statement with wrong ASN -> NotReciprocal).
        assert_eq!(m.session_count(), 0);
        assert!(m
            .session_diagnostics
            .iter()
            .any(|d| matches!(d, SessionDiagnostic::AsnMismatch { configured: 64999, actual: 65002, .. })));
    }

    #[test]
    fn unreachable_peer_addr_is_diagnosed() {
        let (topo, mut cfgs) = two_node(65002);
        cfgs[0].bgp.as_mut().unwrap().neighbors[0].peer = Ipv4Addr::new(192, 168, 0, 1);
        let m = NetworkModel::build(topo, cfgs).unwrap();
        assert!(m
            .session_diagnostics
            .iter()
            .any(|d| matches!(d, SessionDiagnostic::PeerAddressUnreachable { .. })));
        assert_eq!(m.session_count(), 0);
    }

    #[test]
    fn missing_config_is_fatal() {
        let (topo, mut cfgs) = two_node(65002);
        cfgs.pop();
        assert!(NetworkModel::build(topo, cfgs).is_err());
    }

    #[test]
    fn duplicate_hostname_is_fatal() {
        let (topo, mut cfgs) = two_node(65002);
        cfgs[1].hostname = "a".into();
        assert!(NetworkModel::build(topo, cfgs).is_err());
    }

    #[test]
    fn ospf_adjacency_requires_both_sides() {
        let (topo, mut cfgs) = two_node(65002);
        cfgs[0].interfaces[0].ospf_cost = Some(5);
        cfgs[0].ospf = Some(s2_net::config::OspfProcess {
            interfaces: vec!["eth0".into()],
            default_cost: 10,
        });
        // Only one side runs OSPF: no adjacency.
        let m = NetworkModel::build(topo.clone(), cfgs.clone()).unwrap();
        assert!(m.ospf_adj.iter().all(Vec::is_empty));

        cfgs[1].ospf = Some(s2_net::config::OspfProcess {
            interfaces: vec!["xe0".into()],
            default_cost: 10,
        });
        let m = NetworkModel::build(topo, cfgs).unwrap();
        assert_eq!(m.ospf_adj[0].len(), 1);
        assert_eq!(m.ospf_adj[0][0].cost, 5);
        assert_eq!(m.ospf_adj[1].len(), 1);
        assert_eq!(m.ospf_adj[1][0].cost, 10); // default cost
    }
}
