//! The per-switch control-plane state machine.
//!
//! A [`SwitchModel`] is the "off-the-shelf switch model" of the paper: it
//! owns the node's adjacency RIBs and local RIB and exposes exactly the
//! operations the round-based fix-point needs:
//!
//! * [`SwitchModel::begin_bgp`] — (re)originate local routes, optionally
//!   restricted to a prefix shard,
//! * [`SwitchModel::bgp_export`] — compute the advertisements from the
//!   current local RIB (export policy, aggregation suppression,
//!   `remove-private-as`, ASN prepending), one body per [`ExportClass`]
//!   of sessions,
//! * [`SwitchModel::bgp_receive`] — import an advertisement (next hop,
//!   loop check, vendor quirks, import policy) into the per-session
//!   Adj-RIB-In,
//! * [`SwitchModel::bgp_decide`] — rerun best-path selection and
//!   aggregation activation over all candidates.
//!
//! The same state machine is driven by the monolithic baseline and by the
//! distributed S2 runtime — the *only* difference is who transports the
//! advertisements, which is precisely the decoupling the paper advocates.

use crate::bgp::{select_multipath, Candidate};
use crate::model::{BgpSession, NetworkModel};
use crate::ospf::OspfState;
use crate::policy_eval::{self, PolicyVerdict};
use crate::route::{BgpRoute, Origin, RibRoute, LOCAL_WEIGHT, DEFAULT_LOCAL_PREF};
use s2_net::config::{DeviceConfig, VendorQuirks};
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::{Ipv4Addr, Prefix};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// The sessions of one switch that advertise the same routes, and that
/// shared body (see [`SwitchModel::bgp_export`]).
#[derive(Debug, Clone)]
pub struct ExportClass {
    /// Member session indices, ascending.
    pub sessions: Vec<usize>,
    /// The advertised routes, next hop unspecified: the receiver writes
    /// it on import.
    pub routes: Arc<[BgpRoute]>,
}

/// A resolved static route: destination plus egress decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticVia {
    Interface(InterfaceId),
    Discard,
}

/// Per-switch control-plane state.
#[derive(Debug, Clone)]
pub struct SwitchModel {
    /// The node this model simulates.
    pub node: NodeId,
    cfg: Arc<DeviceConfig>,
    /// Established sessions (shared with the network model).
    pub sessions: Vec<BgpSession>,
    quirks: VendorQuirks,
    asn: u32,
    max_ecmp: u8,
    /// OSPF state (run to convergence before BGP starts).
    pub ospf: OspfState,
    /// Adj-RIB-In per session: the latest advertisement from that peer.
    adj_in: Vec<BTreeMap<Prefix, BgpRoute>>,
    /// Locally originated routes for the current shard.
    local_routes: Vec<BgpRoute>,
    /// The local RIB: selected multipath candidates per prefix.
    loc_rib: BTreeMap<Prefix, Vec<Candidate>>,
    /// Resolved static routes.
    statics: Vec<(Prefix, StaticVia)>,
    /// Prefix dependencies observed while computing routes (aggregate
    /// activations, conditional-advertisement evaluations). The §7
    /// soundness check compares these against the shard plan.
    observed_deps: std::collections::BTreeSet<(Prefix, Prefix)>,
    /// Interfaces failed for the current scenario (resilience sweeps,
    /// chaos plans). A session on a failed interface exports nothing —
    /// the peer sees a full withdrawal — and the interface's connected
    /// route leaves the base RIB.
    failed_ifaces: HashSet<InterfaceId>,
    /// Connected prefixes of the failed interfaces (precomputed so
    /// `base_rib_routes` needs no model access).
    failed_connected: HashSet<Prefix>,
}

impl SwitchModel {
    /// Builds the switch model for `node` from the resolved network model.
    pub fn new(model: &NetworkModel, node: NodeId) -> Self {
        let cfg = model.configs[node.index()].clone();
        let sessions = model.bgp_sessions[node.index()].clone();
        let (asn, max_ecmp) = cfg
            .bgp
            .as_ref()
            .map(|b| (b.asn, b.max_ecmp))
            .unwrap_or((0, 1));
        let statics = cfg
            .static_routes
            .iter()
            .map(|s| {
                let via = match s.next_hop {
                    None => StaticVia::Discard,
                    Some(nh) => {
                        // Resolve via a connected subnet's topology port.
                        let mut found = StaticVia::Discard;
                        for (ifid, _, _) in model.topology.neighbors(node) {
                            if let Some(icfg) = model.iface_config(node, *ifid) {
                                if icfg.prefix.contains_addr(nh) && icfg.addr != nh {
                                    found = StaticVia::Interface(*ifid);
                                    break;
                                }
                            }
                        }
                        found
                    }
                };
                (s.prefix, via)
            })
            .collect();
        let adj_in = vec![BTreeMap::new(); sessions.len()];
        SwitchModel {
            node,
            quirks: cfg.vendor.quirks(),
            sessions,
            asn,
            max_ecmp,
            ospf: OspfState::originate(model, node),
            adj_in,
            local_routes: Vec::new(),
            loc_rib: BTreeMap::new(),
            statics,
            observed_deps: std::collections::BTreeSet::new(),
            failed_ifaces: HashSet::new(),
            failed_connected: HashSet::new(),
            cfg,
        }
    }

    /// Marks `ifaces` as failed, replacing any previous failure set. The
    /// same switch model then computes the post-failure control plane
    /// through the ordinary export/receive/decide machinery: exports on
    /// failed sessions become empty (so peers withdraw on their next
    /// apply) and the interfaces' connected routes vanish from
    /// [`SwitchModel::base_rib_routes`]. Pass an empty set to restore the
    /// healthy state.
    pub fn set_failed_interfaces(
        &mut self,
        model: &NetworkModel,
        ifaces: impl IntoIterator<Item = InterfaceId>,
    ) {
        self.failed_ifaces = ifaces.into_iter().collect();
        self.failed_connected = self
            .failed_ifaces
            .iter()
            .filter_map(|&i| model.iface_config(self.node, i).map(|c| c.prefix))
            .collect();
    }

    /// The interfaces currently failed on this switch.
    pub fn failed_interfaces(&self) -> &HashSet<InterfaceId> {
        &self.failed_ifaces
    }

    /// Drains the dependencies observed since the last call.
    pub fn take_observed_deps(&mut self) -> Vec<(Prefix, Prefix)> {
        std::mem::take(&mut self.observed_deps).into_iter().collect()
    }

    /// Statically known prefix dependencies of this device's configuration:
    /// each conditional advertisement makes `advertise` depend on
    /// `condition`. (Aggregate→contributor edges are derived from prefix
    /// coverage by the shard planner itself.)
    pub fn prefix_dependencies(&self) -> Vec<(Prefix, Prefix)> {
        self.cfg
            .bgp
            .as_ref()
            .map(|b| {
                b.conditional
                    .iter()
                    .map(|c| (c.advertise, c.condition))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether the conditional-advertisement gates allow exporting routes
    /// for `prefix` given the current local RIB.
    fn conditionals_allow(&self, prefix: Prefix) -> bool {
        let Some(bgp) = self.cfg.bgp.as_ref() else { return true };
        bgp.conditional.iter().all(|c| {
            if c.advertise != prefix {
                return true;
            }
            let present = self.loc_rib.contains_key(&c.condition);
            present == c.when_present
        })
    }

    /// This switch's ASN (0 if BGP is not configured).
    pub fn asn(&self) -> u32 {
        self.asn
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// All prefixes this node can originate into BGP (networks, statics,
    /// connected and OSPF redistribution targets, aggregates). Used by the
    /// prefix-sharding planner to build the dependency graph.
    pub fn originated_prefixes(&self) -> Vec<(Prefix, Protocol)> {
        let mut out = Vec::new();
        if let Some(bgp) = self.cfg.bgp.as_ref() {
            for n in &bgp.networks {
                out.push((n.prefix, Protocol::Bgp));
            }
            for a in &bgp.aggregates {
                out.push((a.prefix, Protocol::Aggregate));
            }
            for proto in &bgp.redistribute {
                match proto {
                    Protocol::Connected => {
                        for i in &self.cfg.interfaces {
                            out.push((i.prefix, Protocol::Connected));
                        }
                    }
                    Protocol::Static => {
                        for (p, _) in &self.statics {
                            out.push((*p, Protocol::Static));
                        }
                    }
                    Protocol::Ospf => {
                        for p in self.ospf.table.keys() {
                            out.push((*p, Protocol::Ospf));
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Starts a BGP computation round-set: clears all BGP state and
    /// originates local routes, restricted to `shard` when given.
    ///
    /// OSPF must already be converged (redistribution reads its table).
    pub fn begin_bgp(&mut self, shard: Option<&BTreeSet<Prefix>>) {
        for m in &mut self.adj_in {
            m.clear();
        }
        self.loc_rib.clear();
        self.local_routes.clear();
        let Some(bgp) = self.cfg.bgp.as_ref() else { return };
        let in_shard = |p: Prefix| shard.is_none_or(|s| s.contains(&p));

        let mut seen: HashSet<Prefix> = HashSet::new();
        for n in &bgp.networks {
            if in_shard(n.prefix) && seen.insert(n.prefix) {
                self.local_routes
                    .push(BgpRoute::local(n.prefix, Origin::Igp, Protocol::Bgp));
            }
        }
        for proto in &bgp.redistribute {
            match proto {
                Protocol::Connected => {
                    for i in &self.cfg.interfaces {
                        if in_shard(i.prefix) && seen.insert(i.prefix) {
                            self.local_routes.push(BgpRoute::local(
                                i.prefix,
                                Origin::Incomplete,
                                Protocol::Connected,
                            ));
                        }
                    }
                }
                Protocol::Static => {
                    for (p, _) in &self.statics {
                        if in_shard(*p) && seen.insert(*p) {
                            self.local_routes.push(BgpRoute::local(
                                *p,
                                Origin::Incomplete,
                                Protocol::Static,
                            ));
                        }
                    }
                }
                Protocol::Ospf => {
                    for p in self.ospf.table.keys() {
                        if in_shard(*p) && seen.insert(*p) {
                            self.local_routes.push(BgpRoute::local(
                                *p,
                                Origin::Incomplete,
                                Protocol::Ospf,
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        // Every conditional advertisement is a prefix dependency the
        // moment the computation starts, whichever way it evaluates.
        for (a, c) in self.prefix_dependencies() {
            self.observed_deps.insert((a, c));
        }
        // Install the initial local RIB.
        self.bgp_decide(shard);
    }

    /// Active summary-only aggregate prefixes (present in the local RIB).
    fn active_summary_aggregates(&self) -> Vec<Prefix> {
        let Some(bgp) = self.cfg.bgp.as_ref() else { return Vec::new() };
        bgp.aggregates
            .iter()
            .filter(|a| a.summary_only && self.loc_rib.contains_key(&a.prefix))
            .map(|a| a.prefix)
            .collect()
    }

    /// Computes this switch's advertisements from the current local RIB,
    /// one body per export class. Pure with respect to `self`; the
    /// fix-point engine snapshots all exports before applying any
    /// (synchronous rounds).
    ///
    /// A session's advertisement depends only on its neighbor's export
    /// route-map, its `remove-private-as` flag, whether its interface is
    /// failed, and the next hop. The next hop is the session's local
    /// address, which the receiver knows as its own session's peer
    /// address, so [`SwitchModel::bgp_receive`] writes it on import and
    /// the body leaves it unspecified. Sessions agreeing on the other
    /// three share one evaluation and one `Arc`'d body. Classes come in
    /// first-session order, sessions within a class ascending.
    pub fn bgp_export(&self) -> Vec<ExportClass> {
        let Some(bgp) = self.cfg.bgp.as_ref() else { return Vec::new() };
        let mut keys: Vec<(Option<&str>, bool, bool)> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (si, session) in self.sessions.iter().enumerate() {
            let neighbor = &bgp.neighbors[session.neighbor_index];
            let key = (
                neighbor.export_policy.as_deref(),
                neighbor.remove_private_as,
                self.failed_ifaces.contains(&session.local_if),
            );
            match keys.iter().position(|k| *k == key) {
                Some(c) => members[c].push(si),
                None => {
                    keys.push(key);
                    members.push(vec![si]);
                }
            }
        }
        // Suppression and conditional gates depend on the prefix alone:
        // evaluated once for every class.
        let suppressors = self.active_summary_aggregates();
        let eligible: Vec<&BgpRoute> = self
            .loc_rib
            .iter()
            .filter(|(prefix, _)| {
                // Summary-only suppression: more-specific contributors of
                // an active aggregate are not advertised.
                !suppressors.iter().any(|agg| agg.covers(**prefix) && **prefix != *agg)
                    && self.conditionals_allow(**prefix)
            })
            .map(|(_, cands)| &cands[0].route)
            .collect();
        keys.into_iter()
            .zip(members)
            .map(|((export_policy, remove_private_as, failed), sessions)| {
                // A session on a failed interface is down: it advertises
                // nothing, which the two-phase rounds deliver to the peer
                // as a withdrawal of everything previously advertised.
                let routes = if failed {
                    Vec::new()
                } else {
                    eligible
                        .iter()
                        .filter_map(|best| self.export_route(best, export_policy, remove_private_as))
                        .collect()
                };
                ExportClass {
                    sessions,
                    routes: routes.into(),
                }
            })
            .collect()
    }

    /// One best route as an export class advertises it, or `None` if the
    /// export policy denies it.
    fn export_route(
        &self,
        best: &BgpRoute,
        export_policy: Option<&str>,
        remove_private_as: bool,
    ) -> Option<BgpRoute> {
        let mut r = best.clone();
        // Local-only attributes are not advertised, and the next hop is
        // the receiver's to write.
        r.weight = 0;
        r.local_pref = DEFAULT_LOCAL_PREF;
        r.med = 0;
        r.next_hop = Ipv4Addr::UNSPECIFIED;
        if let Some(map) = export_policy {
            match policy_eval::run_route_map(&self.cfg, map, &r) {
                PolicyVerdict::Permit(pr) => r = pr,
                PolicyVerdict::Deny => return None,
            }
        }
        if remove_private_as {
            policy_eval::remove_private_as(&mut r.as_path, self.quirks.remove_private_as);
        }
        r.as_path.insert(0, self.asn);
        r.source_protocol = Protocol::Bgp;
        Some(r)
    }

    /// Ingests a full advertisement from the peer on session `si`,
    /// replacing that session's Adj-RIB-In. Returns whether it changed.
    ///
    /// Every route's next hop becomes the session's peer address: the
    /// peer's local address on the reciprocal session (session pairing
    /// matches the two bit for bit), which is what the peer would have
    /// written on export. No route-map matches or sets the next hop, so
    /// writing it here instead of there changes no policy outcome.
    pub fn bgp_receive(&mut self, si: usize, routes: &[BgpRoute]) -> bool {
        let mut new_map: BTreeMap<Prefix, BgpRoute> = BTreeMap::new();
        let session = &self.sessions[si];
        let next_hop = session.peer_addr;
        let import_policy = self
            .cfg
            .bgp
            .as_ref()
            .map(|b| b.neighbors[session.neighbor_index].import_policy.clone())
            .unwrap_or(None);
        for r in routes {
            // eBGP loop prevention.
            if r.as_path_contains(self.asn) {
                continue;
            }
            // Vendor-specific: some vendors reject empty eBGP AS paths.
            if r.as_path.is_empty() && !self.quirks.accept_empty_ebgp_as_path {
                continue;
            }
            let mut r = r.clone();
            r.weight = 0;
            r.next_hop = next_hop;
            if let Some(map) = &import_policy {
                match policy_eval::run_route_map(&self.cfg, map, &r) {
                    PolicyVerdict::Permit(pr) => r = pr,
                    PolicyVerdict::Deny => continue,
                }
            }
            new_map.entry(r.prefix).or_insert(r);
        }
        if new_map != self.adj_in[si] {
            self.adj_in[si] = new_map;
            true
        } else {
            false
        }
    }

    /// Reruns best-path selection and aggregation over all candidates.
    /// Returns whether the local RIB changed.
    pub fn bgp_decide(&mut self, shard: Option<&BTreeSet<Prefix>>) -> bool {
        let mut cands: BTreeMap<Prefix, Vec<Candidate>> = BTreeMap::new();
        for r in &self.local_routes {
            cands.entry(r.prefix).or_default().push(Candidate {
                route: r.clone(),
                peer: None,
                session: u32::MAX,
            });
        }
        for (si, map) in self.adj_in.iter().enumerate() {
            let peer = self.sessions[si].peer_addr;
            for r in map.values() {
                cands.entry(r.prefix).or_default().push(Candidate {
                    route: r.clone(),
                    peer: Some(peer),
                    session: si as u32,
                });
            }
        }
        let mut new_rib: BTreeMap<Prefix, Vec<Candidate>> = cands
            .into_iter()
            .map(|(p, cs)| (p, select_multipath(cs, self.max_ecmp)))
            .collect();

        // Aggregation: most specific aggregates first so aggregates can
        // contribute to covering aggregates.
        if let Some(bgp) = self.cfg.bgp.as_ref() {
            let mut aggs: Vec<_> = bgp.aggregates.iter().collect();
            aggs.sort_by(|a, b| b.prefix.len().cmp(&a.prefix.len()).then(a.prefix.cmp(&b.prefix)));
            for agg in aggs {
                if let Some(s) = shard {
                    if !s.contains(&agg.prefix) {
                        continue;
                    }
                }
                let contributors: Vec<Prefix> = new_rib
                    .keys()
                    .filter(|p| agg.prefix.covers(**p) && **p != agg.prefix)
                    .copied()
                    .collect();
                if contributors.is_empty() {
                    continue;
                }
                for c in contributors {
                    self.observed_deps.insert((agg.prefix, c));
                }
                let mut route = BgpRoute::local(agg.prefix, Origin::Incomplete, Protocol::Aggregate);
                route.weight = LOCAL_WEIGHT;
                for c in &agg.communities {
                    route.add_community(*c);
                }
                let entry = new_rib.entry(agg.prefix).or_default();
                entry.push(Candidate {
                    route,
                    peer: None,
                    session: u32::MAX,
                });
                *entry = select_multipath(std::mem::take(entry), self.max_ecmp);
            }
        }

        if new_rib != self.loc_rib {
            self.loc_rib = new_rib;
            true
        } else {
            false
        }
    }

    /// Read access to the local RIB (tests, diagnostics).
    pub fn loc_rib(&self) -> &BTreeMap<Prefix, Vec<Candidate>> {
        &self.loc_rib
    }

    /// Number of paths (prefix × ECMP alternatives) in the local RIB —
    /// the paper's "number of routes" metric.
    pub fn loc_rib_path_count(&self) -> usize {
        self.loc_rib.values().map(Vec::len).sum()
    }

    /// Approximate bytes held by BGP state (Adj-RIB-Ins + local RIB), the
    /// quantity prefix sharding exists to bound.
    pub fn approx_bgp_bytes(&self) -> usize {
        let adj: usize = self
            .adj_in
            .iter()
            .flat_map(|m| m.values())
            .map(BgpRoute::approx_bytes)
            .sum();
        let rib: usize = self
            .loc_rib
            .values()
            .flatten()
            .map(|c| c.route.approx_bytes())
            .sum();
        adj + rib
    }

    /// Extracts the BGP portion of the final RIB (call once per shard,
    /// after convergence).
    pub fn bgp_rib_routes(&self) -> Vec<RibRoute> {
        let mut out = Vec::new();
        for (prefix, cands) in &self.loc_rib {
            let best = &cands[0];
            let protocol = best.route.source_protocol;
            // A locally *redistributed* route (OSPF/static/connected pulled
            // into BGP) exists for advertisement only; the source
            // protocol's entry — emitted by `base_rib_routes` — carries the
            // real forwarding state on this router. Installing the BGP
            // copy would wrongly claim local delivery and, with BGP's
            // lower administrative distance, shadow the IGP route.
            if best.session == u32::MAX
                && !matches!(protocol, Protocol::Bgp | Protocol::Aggregate)
            {
                continue;
            }
            let is_local = best.session == u32::MAX && protocol != Protocol::Aggregate;
            let mut egress: Vec<InterfaceId> = cands
                .iter()
                .filter(|c| c.session != u32::MAX)
                .map(|c| self.sessions[c.session as usize].local_if)
                .filter(|i| !self.failed_ifaces.contains(i))
                .collect();
            egress.sort();
            egress.dedup();
            out.push(RibRoute {
                prefix: *prefix,
                protocol: if protocol == Protocol::Aggregate {
                    Protocol::Aggregate
                } else {
                    Protocol::Bgp
                },
                egress,
                is_local,
                as_path_len: best.route.as_path.len() as u32,
            });
        }
        out
    }

    /// Extracts the non-BGP portion of the final RIB: connected, static and
    /// OSPF routes (call once, independent of sharding).
    pub fn base_rib_routes(&self) -> Vec<RibRoute> {
        let mut out = Vec::new();
        for i in &self.cfg.interfaces {
            if self.failed_connected.contains(&i.prefix) {
                continue;
            }
            out.push(RibRoute {
                prefix: i.prefix,
                protocol: Protocol::Connected,
                egress: Vec::new(),
                is_local: true,
                as_path_len: 0,
            });
        }
        for (p, via) in &self.statics {
            out.push(RibRoute {
                prefix: *p,
                protocol: Protocol::Static,
                egress: match via {
                    StaticVia::Interface(i) if !self.failed_ifaces.contains(i) => vec![*i],
                    _ => Vec::new(),
                },
                is_local: false,
                as_path_len: 0,
            });
        }
        for (p, r) in &self.ospf.table {
            if r.is_local {
                continue; // covered by connected
            }
            out.push(RibRoute {
                prefix: *p,
                protocol: Protocol::Ospf,
                egress: r
                    .egress
                    .iter()
                    .copied()
                    .filter(|e| !self.failed_ifaces.contains(e))
                    .collect(),
                is_local: false,
                as_path_len: 0,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkModel;
    use s2_net::config::{BgpNeighbor, BgpProcess, InterfaceConfig, Network, Vendor};
    use s2_net::policy::{community, CommunityAction, PolicyAction, RouteMap};
    use s2_net::topology::Topology;
    use s2_net::Ipv4Addr;

    /// Two nodes, a (AS 65001, originates 10.1.0.0/24) — b (AS 65002).
    fn pair() -> (NetworkModel, SwitchModel, SwitchModel) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b);

        let mut ca = DeviceConfig::new("a", Vendor::A);
        ca.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 0), 31));
        ca.interfaces.push(InterfaceConfig::new("lo0", Ipv4Addr::new(10, 1, 0, 1), 24));
        let mut bgp_a = BgpProcess::new(65001, Ipv4Addr::new(1, 0, 0, 1));
        bgp_a.networks.push(Network { prefix: "10.1.0.0/24".parse().unwrap() });
        bgp_a.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 1),
            remote_as: 65002,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        ca.bgp = Some(bgp_a);

        let mut cb = DeviceConfig::new("b", Vendor::A);
        cb.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 1), 31));
        let mut bgp_b = BgpProcess::new(65002, Ipv4Addr::new(1, 0, 0, 2));
        bgp_b.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 0),
            remote_as: 65001,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        cb.bgp = Some(bgp_b);

        let model = NetworkModel::build(topo, vec![ca, cb]).unwrap();
        let sa = SwitchModel::new(&model, NodeId(0));
        let sb = SwitchModel::new(&model, NodeId(1));
        (model, sa, sb)
    }

    /// The body session `si` advertises.
    fn advert(sw: &SwitchModel, si: usize) -> Arc<[BgpRoute]> {
        sw.bgp_export()
            .into_iter()
            .find(|c| c.sessions.contains(&si))
            .map(|c| c.routes)
            .expect("every session is in one class")
    }

    fn converge_pair(sa: &mut SwitchModel, sb: &mut SwitchModel) {
        sa.begin_bgp(None);
        sb.begin_bgp(None);
        for _ in 0..8 {
            let a_out = advert(sa, 0);
            let b_out = advert(sb, 0);
            let mut changed = sb.bgp_receive(0, &a_out);
            changed |= sa.bgp_receive(0, &b_out);
            changed |= sa.bgp_decide(None);
            changed |= sb.bgp_decide(None);
            if !changed {
                break;
            }
        }
    }

    #[test]
    fn origination_and_propagation() {
        let (_, mut sa, mut sb) = pair();
        converge_pair(&mut sa, &mut sb);
        let p: Prefix = "10.1.0.0/24".parse().unwrap();
        // a holds its network locally.
        assert_eq!(sa.loc_rib()[&p][0].session, u32::MAX);
        // b learned it with AS path [65001].
        let b_route = &sb.loc_rib()[&p][0];
        assert_eq!(b_route.route.as_path, vec![65001]);
        assert_eq!(b_route.route.next_hop, Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(b_route.session, 0);
    }

    #[test]
    fn loop_prevention_rejects_own_asn() {
        let (_, mut sa, mut sb) = pair();
        converge_pair(&mut sa, &mut sb);
        // b advertises a's own prefix back; a must reject it (path holds
        // 65001 after b's export prepends 65002 to [65001]).
        let b_out = advert(&sb, 0);
        let back: Vec<_> = b_out
            .iter()
            .filter(|r| r.prefix == "10.1.0.0/24".parse().unwrap())
            .collect();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].as_path, vec![65002, 65001]);
        // a's adj-in for that prefix stays empty (loop check).
        assert!(!sa.bgp_receive(0, &b_out) || !sa.loc_rib()[&"10.1.0.0/24".parse().unwrap()]
            .iter()
            .any(|c| c.session != u32::MAX));
        let changed = sa.bgp_decide(None);
        assert!(!changed, "loop-rejected route must not alter the RIB");
    }

    #[test]
    fn export_resets_local_attributes() {
        let (_, mut sa, _) = pair();
        sa.begin_bgp(None);
        let out = advert(&sa, 0);
        let r = out.iter().find(|r| r.prefix == "10.1.0.0/24".parse().unwrap()).unwrap();
        assert_eq!(r.weight, 0);
        assert_eq!(r.local_pref, DEFAULT_LOCAL_PREF);
        assert_eq!(r.as_path, vec![65001]);
    }

    #[test]
    fn sharding_filters_origination() {
        let (_, mut sa, _) = pair();
        let empty: BTreeSet<Prefix> = BTreeSet::new();
        sa.begin_bgp(Some(&empty));
        assert!(sa.loc_rib().is_empty());
        let mut shard = BTreeSet::new();
        shard.insert("10.1.0.0/24".parse::<Prefix>().unwrap());
        sa.begin_bgp(Some(&shard));
        assert_eq!(sa.loc_rib().len(), 1);
    }

    #[test]
    fn rib_routes_report_egress() {
        let (_, mut sa, mut sb) = pair();
        converge_pair(&mut sa, &mut sb);
        let rib_b = sb.bgp_rib_routes();
        let r = rib_b.iter().find(|r| r.prefix == "10.1.0.0/24".parse().unwrap()).unwrap();
        assert_eq!(r.egress.len(), 1);
        assert!(!r.is_local);
        assert_eq!(r.as_path_len, 1);
        let rib_a = sa.bgp_rib_routes();
        let ra = rib_a.iter().find(|r| r.prefix == "10.1.0.0/24".parse().unwrap()).unwrap();
        assert!(ra.is_local);
        assert!(ra.egress.is_empty());
    }

    #[test]
    fn base_rib_contains_connected() {
        let (_, sa, _) = pair();
        let base = sa.base_rib_routes();
        assert!(base
            .iter()
            .any(|r| r.protocol == Protocol::Connected && r.prefix == "10.0.0.0/31".parse().unwrap()));
        assert!(base.iter().all(|r| r.protocol != Protocol::Bgp));
    }

    #[test]
    fn failed_interface_withdraws_and_drops_connected() {
        let (model, mut sa, mut sb) = pair();
        converge_pair(&mut sa, &mut sb);
        let p: Prefix = "10.1.0.0/24".parse().unwrap();
        assert!(sb.loc_rib().contains_key(&p));

        // Fail the a—b link on both endpoints (both sessions ride eth0).
        sa.set_failed_interfaces(&model, [InterfaceId(0)]);
        sb.set_failed_interfaces(&model, [InterfaceId(0)]);
        // Re-run rounds *without* begin_bgp: the warm state withdraws.
        for _ in 0..8 {
            let a_out = advert(&sa, 0);
            let b_out = advert(&sb, 0);
            let mut changed = sb.bgp_receive(0, &a_out);
            changed |= sa.bgp_receive(0, &b_out);
            changed |= sa.bgp_decide(None);
            changed |= sb.bgp_decide(None);
            if !changed {
                break;
            }
        }
        assert!(advert(&sa, 0).is_empty(), "failed session exports nothing");
        assert!(!sb.loc_rib().contains_key(&p), "peer withdrew the route");
        // The connected /31 left the base RIB on both sides.
        let link: Prefix = "10.0.0.0/31".parse().unwrap();
        assert!(!sa.base_rib_routes().iter().any(|r| r.prefix == link));
        assert!(!sb.base_rib_routes().iter().any(|r| r.prefix == link));
        // lo0's /24 connected route survives on a.
        assert!(sa.base_rib_routes().iter().any(|r| r.prefix == p));

        // Restoring the empty failure set heals the model.
        sa.set_failed_interfaces(&model, []);
        sb.set_failed_interfaces(&model, []);
        assert!(sa.failed_interfaces().is_empty());
        for _ in 0..8 {
            let a_out = advert(&sa, 0);
            let b_out = advert(&sb, 0);
            let mut changed = sb.bgp_receive(0, &a_out);
            changed |= sa.bgp_receive(0, &b_out);
            changed |= sa.bgp_decide(None);
            changed |= sb.bgp_decide(None);
            if !changed {
                break;
            }
        }
        assert!(sb.loc_rib().contains_key(&p), "route relearned after repair");
    }

    #[test]
    fn route_counting_and_memory() {
        let (_, mut sa, mut sb) = pair();
        converge_pair(&mut sa, &mut sb);
        assert!(sb.loc_rib_path_count() >= 1);
        assert!(sb.approx_bgp_bytes() > 0);
    }

    /// A hub (AS 65001, originates 10.1.0.0/24) with five leaves. Leaf
    /// sessions 0 and 1 share a plain export; 2 tags a community through
    /// a route-map; 3 strips private ASNs; 4 is plain but on a failed
    /// interface.
    fn hub_and_leaves() -> (NetworkModel, Vec<SwitchModel>) {
        const LEAVES: u8 = 5;
        let mut topo = Topology::new();
        let hub = topo.add_node("hub");
        let mut hub_cfg = DeviceConfig::new("hub", Vendor::A);
        hub_cfg.interfaces.push(InterfaceConfig::new("lo0", Ipv4Addr::new(10, 1, 0, 1), 24));
        let mut hub_bgp = BgpProcess::new(65001, Ipv4Addr::new(1, 0, 0, 1));
        hub_bgp.networks.push(Network { prefix: "10.1.0.0/24".parse().unwrap() });
        let mut tag = RouteMap::permit_all();
        tag.clauses[0]
            .actions
            .push(PolicyAction::Community(CommunityAction::Add(community(65001, 7))));
        hub_cfg.route_maps.insert("TAG".into(), tag);
        let mut configs = Vec::new();
        for l in 0..LEAVES {
            let name = format!("leaf{l}");
            let leaf = topo.add_node(name.as_str());
            topo.connect(hub, leaf);
            let (hub_addr, leaf_addr) = (Ipv4Addr::new(172, 16, l, 0), Ipv4Addr::new(172, 16, l, 1));
            hub_cfg.interfaces.push(InterfaceConfig::new(format!("e{l}"), hub_addr, 31));
            hub_bgp.neighbors.push(BgpNeighbor {
                peer: leaf_addr,
                remote_as: 65100 + u32::from(l),
                import_policy: None,
                export_policy: (l == 2).then(|| "TAG".to_string()),
                remove_private_as: l == 3,
            });
            let mut cfg = DeviceConfig::new(name, Vendor::A);
            cfg.interfaces.push(InterfaceConfig::new("e0", leaf_addr, 31));
            let mut bgp = BgpProcess::new(65100 + u32::from(l), Ipv4Addr::new(1, 0, 1, l));
            bgp.neighbors.push(BgpNeighbor {
                peer: hub_addr,
                remote_as: 65001,
                import_policy: None,
                export_policy: None,
                remove_private_as: false,
            });
            cfg.bgp = Some(bgp);
            configs.push(cfg);
        }
        hub_cfg.bgp = Some(hub_bgp);
        configs.insert(0, hub_cfg);
        let model = NetworkModel::build(topo, configs).unwrap();
        let switches = model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
        (model, switches)
    }

    #[test]
    fn export_classes_share_one_body_per_policy() {
        let (model, mut sw) = hub_and_leaves();
        let failed_if = sw[0].sessions[4].local_if;
        sw[0].set_failed_interfaces(&model, [failed_if]);
        for s in &mut sw {
            s.begin_bgp(None);
        }
        let classes = sw[0].bgp_export();
        // Sessions 0 and 1 are one class: one evaluation, one `Arc`.
        let members: Vec<Vec<usize>> = classes.iter().map(|c| c.sessions.clone()).collect();
        assert_eq!(members, vec![vec![0, 1], vec![2], vec![3], vec![4]]);
        assert!(classes[3].routes.is_empty(), "a failed session withdraws everything");
        assert_eq!(classes[0].routes.len(), 1);

        // Each leaf's Adj-RIB-In holds what a per-session export with the
        // session's own next hop would have delivered.
        let p: Prefix = "10.1.0.0/24".parse().unwrap();
        let expected = |l: u8, communities: Vec<u32>| BgpRoute {
            prefix: p,
            next_hop: Ipv4Addr::new(172, 16, l, 0),
            as_path: vec![65001],
            local_pref: DEFAULT_LOCAL_PREF,
            med: 0,
            origin: Origin::Igp,
            communities,
            weight: 0,
            source_protocol: Protocol::Bgp,
        };
        for class in &classes {
            for &si in &class.sessions {
                let session = sw[0].sessions[si].clone();
                let leaf = &mut sw[session.peer_node.index()];
                leaf.bgp_receive(session.peer_session_index as usize, &class.routes);
                let got = leaf.adj_in[session.peer_session_index as usize].get(&p).cloned();
                let want = match si {
                    2 => Some(expected(2, vec![community(65001, 7)])),
                    4 => None,
                    l => Some(expected(l as u8, Vec::new())),
                };
                assert_eq!(got, want, "session {si}");
            }
        }
    }
}
