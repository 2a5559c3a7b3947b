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
//!   Adj-RIB-In, noting the prefixes whose candidates changed,
//! * [`SwitchModel::bgp_decide`] — rerun best-path selection and
//!   aggregation activation for those prefixes.
//!
//! The same state machine is driven by the monolithic baseline and by the
//! distributed S2 runtime — the *only* difference is who transports the
//! advertisements, which is precisely the decoupling the paper advocates.

use crate::bgp::{select_multipath, Candidate, CandidateRef};
use crate::model::{BgpSession, NetworkModel};
use crate::ospf::OspfState;
use crate::policy_eval::{self, PolicyVerdict};
use crate::route::{BgpRoute, Origin, RibRoute, LOCAL_WEIGHT, DEFAULT_LOCAL_PREF};
use s2_net::config::{Aggregate, DeviceConfig, VendorQuirks};
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::{Ipv4Addr, Prefix};
use std::cmp::Ordering;
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

/// A local-RIB entry: a prefix's multipath selection, stored as what is
/// read of it. Export and the final RIB read the best member; of the
/// others only the session (the egress) and the route bytes are read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Installed {
    /// The best member, next hop written.
    pub best: Candidate,
    /// Every member's session, in selection order, best first;
    /// `u32::MAX` for a local or aggregate route.
    pub sessions: Box<[u32]>,
    /// The route bytes of every member (see [`BgpRoute::approx_bytes`]).
    pub bytes: usize,
}

/// One session's Adj-RIB-In: the latest advertisement from that peer.
#[derive(Debug, Clone)]
enum AdjIn {
    /// No import route-map: the received body itself, shared with the
    /// sender and every other receiver of it. It is sorted by prefix,
    /// holds each prefix once and has weight 0 throughout (a body that
    /// is not is normalised on receipt). Loop prevention, the
    /// empty-AS-path quirk and the next hop apply when a route is read
    /// (see [`Admission`] and [`CandidateRef::materialise`]).
    Shared(Arc<[BgpRoute]>),
    /// An import route-map: the routes it admitted, materialised.
    Filtered {
        /// The route-map's name.
        policy: String,
        /// The admitted routes, next hop and weight written.
        routes: BTreeMap<Prefix, BgpRoute>,
    },
}

impl AdjIn {
    /// The admitted route for `prefix`, next hop aside. A shared body is
    /// searched from `cursor`, which is left on the first route not below
    /// `prefix`, so ascending lookups walk the body once.
    fn get(&self, prefix: Prefix, admission: Admission, cursor: &mut usize) -> Option<&BgpRoute> {
        match self {
            AdjIn::Shared(body) => {
                *cursor = seek(body, *cursor, prefix);
                body.get(*cursor).filter(|r| r.prefix == prefix && admission.admits(r))
            }
            AdjIn::Filtered { routes, .. } => routes.get(&prefix),
        }
    }

    fn clear(&mut self) {
        match self {
            AdjIn::Shared(body) => *body = Arc::from([]),
            AdjIn::Filtered { routes, .. } => routes.clear(),
        }
    }
}

/// The index of the first route of `body` (sorted by prefix) not below
/// `prefix`, searched from `from`: galloping forward, so a walk of
/// ascending prefixes costs what their distances in `body` do, or anew
/// when `prefix` lies behind `from`.
fn seek(body: &[BgpRoute], from: usize, prefix: Prefix) -> usize {
    let (behind, rest) = body.split_at(from.min(body.len()));
    if behind.last().is_some_and(|r| r.prefix >= prefix) {
        return behind.partition_point(|r| r.prefix < prefix);
    }
    // Every route before `step / 2` in `rest` is below `prefix`.
    let mut step = 1;
    while rest.get(step - 1).is_some_and(|r| r.prefix < prefix) {
        step *= 2;
    }
    let lo = step / 2;
    let window = rest.get(lo..step.min(rest.len())).unwrap_or_default();
    behind.len() + lo + window.partition_point(|r| r.prefix < prefix)
}

/// The import checks every received route passes before it is a
/// candidate: eBGP loop prevention and the empty-AS-path vendor quirk.
#[derive(Debug, Clone, Copy)]
struct Admission {
    asn: u32,
    accept_empty_path: bool,
}

impl Admission {
    fn admits(self, r: &BgpRoute) -> bool {
        !r.as_path_contains(self.asn) && (self.accept_empty_path || !r.as_path.is_empty())
    }
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
    /// Adj-RIB-In per session.
    adj_in: Vec<AdjIn>,
    /// Per session, the bytes its Adj-RIB-In is charged: what a
    /// materialised copy of the admitted routes would hold (see
    /// [`SwitchModel::approx_bgp_bytes`]).
    adj_bytes: Vec<usize>,
    /// Locally originated routes for the current shard.
    local_routes: BTreeMap<Prefix, BgpRoute>,
    /// The local RIB: each prefix's multipath selection.
    loc_rib: BTreeMap<Prefix, Installed>,
    /// The bytes the local RIB's routes hold.
    rib_bytes: usize,
    /// Prefixes whose candidates changed since the last
    /// [`SwitchModel::bgp_decide`], which drains it.
    dirty: Vec<Prefix>,
    /// Whether the next [`SwitchModel::bgp_decide`] re-observes the
    /// contributors of every active aggregate, not just of those it
    /// recomputes: set at construction and whenever the observed
    /// dependencies are drained, so each drained set holds every
    /// dependency in force since the previous drain.
    reobserve: bool,
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
        let adj_in: Vec<AdjIn> = sessions
            .iter()
            .map(|s| {
                let bgp = cfg.bgp.as_ref();
                match bgp.and_then(|b| b.neighbors[s.neighbor_index].import_policy.clone()) {
                    Some(policy) => AdjIn::Filtered {
                        policy,
                        routes: BTreeMap::new(),
                    },
                    None => AdjIn::Shared(Arc::from([])),
                }
            })
            .collect();
        SwitchModel {
            node,
            quirks: cfg.vendor.quirks(),
            sessions,
            asn,
            max_ecmp,
            ospf: OspfState::originate(model, node),
            adj_bytes: vec![0; adj_in.len()],
            adj_in,
            local_routes: BTreeMap::new(),
            loc_rib: BTreeMap::new(),
            rib_bytes: 0,
            dirty: Vec::new(),
            reobserve: true,
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
        self.reobserve = true;
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
        self.adj_bytes.fill(0);
        self.loc_rib.clear();
        self.rib_bytes = 0;
        self.local_routes.clear();
        self.dirty.clear();
        let Some(bgp) = self.cfg.bgp.as_ref() else { return };
        let in_shard = |p: Prefix| shard.is_none_or(|s| s.contains(&p));

        // The first statement naming a prefix originates it.
        let mut originate = |prefix: Prefix, origin: Origin, protocol: Protocol| {
            if in_shard(prefix) {
                self.local_routes
                    .entry(prefix)
                    .or_insert_with(|| BgpRoute::local(prefix, origin, protocol));
            }
        };
        for n in &bgp.networks {
            originate(n.prefix, Origin::Igp, Protocol::Bgp);
        }
        for proto in &bgp.redistribute {
            match proto {
                Protocol::Connected => {
                    for i in &self.cfg.interfaces {
                        originate(i.prefix, Origin::Incomplete, Protocol::Connected);
                    }
                }
                Protocol::Static => {
                    for (p, _) in &self.statics {
                        originate(*p, Origin::Incomplete, Protocol::Static);
                    }
                }
                Protocol::Ospf => {
                    for p in self.ospf.table.keys() {
                        originate(*p, Origin::Incomplete, Protocol::Ospf);
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
        self.dirty.extend(self.local_routes.keys().copied());
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
            .map(|(_, entry)| &entry.best.route)
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
    /// export policy denies it. The advertised path is built in one
    /// allocation, own ASN first, then the old path, stripped where
    /// configured; without a policy the old path is read from `best`.
    fn export_route(
        &self,
        best: &BgpRoute,
        export_policy: Option<&str>,
        remove_private_as: bool,
    ) -> Option<BgpRoute> {
        let strip = remove_private_as.then_some(self.quirks.remove_private_as);
        let prepended = |path: &[u32]| policy_eval::prepend_path(&[self.asn], path, strip);
        let mut r = match export_policy {
            None => advertised(best, prepended(&best.as_path)),
            Some(map) => {
                // The policy sees the route as advertised, own ASN aside.
                let r = advertised(best, best.as_path.clone());
                let PolicyVerdict::Permit(mut r) = policy_eval::run_route_map(&self.cfg, map, &r)
                else {
                    return None;
                };
                r.as_path = prepended(&r.as_path);
                r
            }
        };
        r.source_protocol = Protocol::Bgp;
        Some(r)
    }

    /// The import checks of this switch (see [`Admission`]).
    fn admission(&self) -> Admission {
        Admission {
            asn: self.asn,
            accept_empty_path: self.quirks.accept_empty_ebgp_as_path,
        }
    }

    /// Ingests a full advertisement from the peer on session `si`,
    /// replacing that session's Adj-RIB-In, and notes every prefix whose
    /// admitted route changed for the next [`SwitchModel::bgp_decide`].
    /// Returns whether any did.
    ///
    /// Every route's next hop becomes the session's peer address: the
    /// peer's local address on the reciprocal session (session pairing
    /// matches the two bit for bit), which is what the peer would have
    /// written on export. No route-map matches or sets the next hop, so
    /// writing it here instead of there changes no policy outcome.
    ///
    /// A session without an import route-map keeps `routes` itself, so
    /// the usual body — sorted by prefix, one route per prefix, weight 0,
    /// as [`SwitchModel::bgp_export`] builds it — is shared, not copied.
    /// Any other body is peer input to normalise: routes failing the
    /// import checks dropped, the first remaining route per prefix kept,
    /// weights zeroed.
    pub fn bgp_receive(&mut self, si: usize, routes: &Arc<[BgpRoute]>) -> bool {
        let admission = self.admission();
        let before = self.dirty.len();
        let (adj, bytes) = match &self.adj_in[si] {
            AdjIn::Shared(old) => {
                if Arc::ptr_eq(old, routes) {
                    return false;
                }
                let canonical = routes.windows(2).all(|w| w[0].prefix < w[1].prefix)
                    && routes.iter().all(|r| r.weight == 0);
                let body: Arc<[BgpRoute]> = if canonical {
                    routes.clone()
                } else {
                    let mut kept: Vec<&BgpRoute> =
                        routes.iter().filter(|r| admission.admits(r)).collect();
                    // Stable: the first route of each prefix leads its run.
                    kept.sort_by_key(|r| r.prefix);
                    kept.dedup_by_key(|r| r.prefix);
                    kept.into_iter().map(|r| BgpRoute { weight: 0, ..r.clone() }).collect()
                };
                let admitted = |r: &&BgpRoute| admission.admits(r);
                let (old, new) = (old.iter().filter(admitted), body.iter().filter(admitted));
                diff_sorted(old, new, &mut self.dirty);
                let bytes = body.iter().filter(admitted).map(BgpRoute::approx_bytes).sum();
                (AdjIn::Shared(body), bytes)
            }
            AdjIn::Filtered { policy, routes: old } => {
                let next_hop = self.sessions[si].peer_addr;
                let mut new_map: BTreeMap<Prefix, BgpRoute> = BTreeMap::new();
                for r in routes.iter().filter(|r| admission.admits(r)) {
                    let mut r = r.clone();
                    r.weight = 0;
                    r.next_hop = next_hop;
                    match policy_eval::run_route_map(&self.cfg, policy, &r) {
                        PolicyVerdict::Permit(pr) => r = pr,
                        PolicyVerdict::Deny => continue,
                    }
                    new_map.entry(r.prefix).or_insert(r);
                }
                diff_sorted(old.values(), new_map.values(), &mut self.dirty);
                if self.dirty.len() == before {
                    return false;
                }
                let bytes = new_map.values().map(BgpRoute::approx_bytes).sum();
                let policy = policy.clone();
                (
                    AdjIn::Filtered {
                        policy,
                        routes: new_map,
                    },
                    bytes,
                )
            }
        };
        self.adj_in[si] = adj;
        self.adj_bytes[si] = bytes;
        self.dirty.len() > before
    }

    /// Reruns best-path selection for the prefixes received since the
    /// last call, and aggregation for the aggregates covering them.
    /// Returns whether the local RIB changed.
    ///
    /// `shard` must be the one given to [`SwitchModel::begin_bgp`]: it
    /// selects the aggregates that may activate.
    pub fn bgp_decide(&mut self, shard: Option<&BTreeSet<Prefix>>) -> bool {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let cfg = self.cfg.clone();
        // Most specific aggregates first so aggregates can contribute to
        // covering aggregates.
        let mut aggs: Vec<&Aggregate> = cfg
            .bgp
            .iter()
            .flat_map(|b| &b.aggregates)
            .filter(|a| shard.is_none_or(|s| s.contains(&a.prefix)))
            .collect();
        aggs.sort_by(|a, b| b.prefix.len().cmp(&a.prefix.len()).then(a.prefix.cmp(&b.prefix)));

        // One cursor per session into its shared body: the plain pass
        // looks prefixes up in ascending order.
        let mut cursors = vec![0; self.adj_in.len()];
        let mut changed = false;
        for &prefix in &dirty {
            if !aggs.iter().any(|a| a.prefix == prefix) {
                changed |= self.reselect(prefix, &[], &mut cursors);
            }
        }
        // An aggregate's entry depends on its own candidates and on which
        // prefixes it covers are in the RIB: recompute it when any prefix
        // it covers, itself included, is dirty. Every prefix it covers is
        // final by now — plain ones above, more specific aggregates
        // earlier in this loop.
        for group in aggs.chunk_by(|a, b| a.prefix == b.prefix) {
            let prefix = group[0].prefix;
            // The dirty prefixes `prefix` covers are the sorted run from
            // the first one not below it.
            let first = dirty.partition_point(|d| *d < prefix);
            if dirty.get(first).is_some_and(|d| prefix.covers(*d)) {
                changed |= self.reselect(prefix, group, &mut cursors);
            }
        }
        if std::mem::take(&mut self.reobserve) {
            for agg in &aggs {
                for c in self.contributors(agg.prefix) {
                    self.observed_deps.insert((agg.prefix, c));
                }
            }
        }
        changed
    }

    /// The prefixes in the local RIB strictly covered by `prefix`.
    fn contributors(&self, prefix: Prefix) -> Vec<Prefix> {
        self.loc_rib
            .range(prefix..=Prefix::new(prefix.last_addr(), 32))
            .map(|(p, _)| *p)
            .filter(|p| prefix.covers(*p) && *p != prefix)
            .collect()
    }

    /// Every candidate for `prefix`, borrowed: the local route first,
    /// then the sessions' admitted routes in session order. `cursors`
    /// holds one position per session (see [`AdjIn::get`]).
    fn candidates(&self, prefix: Prefix, cursors: &mut [usize]) -> Vec<CandidateRef<'_>> {
        let admission = self.admission();
        let local = self.local_routes.get(&prefix).map(|route| CandidateRef {
            route,
            peer: None,
            session: u32::MAX,
        });
        let sessions = self.adj_in.iter().zip(&self.sessions).zip(cursors);
        let learned = sessions.enumerate().filter_map(|(si, ((adj, s), cursor))| {
            adj.get(prefix, admission, cursor).map(|route| CandidateRef {
                route,
                peer: Some(s.peer_addr),
                session: si as u32,
            })
        });
        // Sized for every session up front, so it never grows.
        let mut out = Vec::with_capacity(1 + self.adj_in.len());
        out.extend(local);
        out.extend(learned);
        out
    }

    /// Selects `prefix`'s multipath set anew, then lets each of
    /// `aggregates` (all for `prefix`, in configuration order) join it if
    /// it has contributors. Installs the result unless it equals the
    /// installed entry; returns whether it did.
    ///
    /// Only the best member is stored whole, so a non-best member whose
    /// attributes change but whose bytes do not leaves the entry as it
    /// is: what the switch exports and forwards on is the same.
    fn reselect(
        &mut self,
        prefix: Prefix,
        aggregates: &[&Aggregate],
        cursors: &mut [usize],
    ) -> bool {
        #[cfg(test)]
        tests::SELECTIONS.with(|n| n.set(n.get() + 1));
        let contributors = if aggregates.is_empty() {
            Vec::new()
        } else {
            self.contributors(prefix)
        };
        let agg_routes: Vec<BgpRoute> = if contributors.is_empty() {
            Vec::new()
        } else {
            for &c in &contributors {
                self.observed_deps.insert((prefix, c));
            }
            aggregates.iter().map(|a| aggregate_route(a)).collect()
        };
        let mut selection = select_multipath(self.candidates(prefix, cursors), self.max_ecmp);
        for route in &agg_routes {
            selection.push(CandidateRef {
                route,
                peer: None,
                session: u32::MAX,
            });
            selection = select_multipath(selection, self.max_ecmp);
        }
        let bytes: usize = selection.iter().map(|c| c.route.approx_bytes()).sum();
        let sessions = selection.iter().map(|c| c.session);
        let unchanged = match (self.loc_rib.get(&prefix), selection.first()) {
            (Some(installed), Some(best)) => {
                installed.bytes == bytes
                    && installed.sessions.iter().copied().eq(sessions.clone())
                    && best.matches(&installed.best)
            }
            (installed, best) => installed.is_none() && best.is_none(),
        };
        if unchanged {
            return false;
        }
        let entry = selection.first().map(|best| Installed {
            best: best.materialise(),
            sessions: sessions.collect(),
            bytes,
        });
        let old = match entry {
            Some(entry) => self.loc_rib.insert(prefix, entry),
            None => self.loc_rib.remove(&prefix),
        };
        self.rib_bytes = self.rib_bytes + bytes - old.map_or(0, |e| e.bytes);
        true
    }

    /// Read access to the local RIB (tests, diagnostics).
    pub fn loc_rib(&self) -> &BTreeMap<Prefix, Installed> {
        &self.loc_rib
    }

    /// Number of paths (prefix × ECMP alternatives) in the local RIB —
    /// the paper's "number of routes" metric.
    pub fn loc_rib_path_count(&self) -> usize {
        self.loc_rib.values().map(|e| e.sessions.len()).sum()
    }

    /// Approximate bytes held by BGP state (Adj-RIB-Ins + local RIB), the
    /// quantity prefix sharding exists to bound. A shared Adj-RIB-In is
    /// charged as the materialised copy of its admitted routes it stands
    /// in for, so the figure does not depend on how bodies are shared.
    pub fn approx_bgp_bytes(&self) -> usize {
        self.adj_bytes.iter().sum::<usize>() + self.rib_bytes
    }

    /// Extracts the BGP portion of the final RIB (call once per shard,
    /// after convergence).
    pub fn bgp_rib_routes(&self) -> Vec<RibRoute> {
        let mut out = Vec::new();
        for (prefix, entry) in &self.loc_rib {
            let best = &entry.best;
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
            let mut egress: Vec<InterfaceId> = entry
                .sessions
                .iter()
                .filter(|&&si| si != u32::MAX)
                .map(|&si| self.sessions[si as usize].local_if)
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

/// `route` with `as_path` as a session advertises it: the local-only
/// attributes reset, and the next hop left for the receiver to write.
fn advertised(route: &BgpRoute, as_path: Arc<[u32]>) -> BgpRoute {
    BgpRoute {
        prefix: route.prefix,
        next_hop: Ipv4Addr::UNSPECIFIED,
        as_path,
        local_pref: DEFAULT_LOCAL_PREF,
        med: 0,
        origin: route.origin,
        communities: route.communities.clone(),
        weight: 0,
        source_protocol: route.source_protocol,
    }
}

/// An aggregate's route, as it enters its prefix's selection.
fn aggregate_route(agg: &Aggregate) -> BgpRoute {
    let mut route = BgpRoute::local(agg.prefix, Origin::Incomplete, Protocol::Aggregate);
    route.weight = LOCAL_WEIGHT;
    for c in &agg.communities {
        route.add_community(*c);
    }
    route
}

/// Walks one session's old and new admitted routes, each sorted by prefix
/// with no prefix twice, in one merge pass and pushes every prefix whose
/// route differs or is present on one side only onto `dirty`. Next hops
/// are not compared: the session's peer address replaces them all.
fn diff_sorted<'a>(
    old: impl Iterator<Item = &'a BgpRoute>,
    new: impl Iterator<Item = &'a BgpRoute>,
    dirty: &mut Vec<Prefix>,
) {
    let (mut old, mut new) = (old.peekable(), new.peekable());
    loop {
        let step = match (old.peek(), new.peek()) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(o), Some(n)) => o.prefix.cmp(&n.prefix),
        };
        match step {
            Ordering::Less => dirty.extend(old.next().map(|o| o.prefix)),
            Ordering::Greater => dirty.extend(new.next().map(|n| n.prefix)),
            Ordering::Equal => {
                if let (Some(o), Some(n)) = (old.next(), new.next()) {
                    if !o.same_attributes(n) {
                        dirty.push(n.prefix);
                    }
                }
            }
        }
    }
}

/// The materialising Adj-RIB-In and the from-scratch decision process
/// that [`SwitchModel::bgp_receive`] and [`SwitchModel::bgp_decide`]
/// must agree with.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Session `si`'s Adj-RIB-In as the decision process sees it: the
    /// admitted routes, next hop and weight written.
    pub(crate) fn adj_view(sw: &SwitchModel, si: usize) -> BTreeMap<Prefix, BgpRoute> {
        match &sw.adj_in[si] {
            AdjIn::Shared(body) => body
                .iter()
                .filter(|r| sw.admission().admits(r))
                .map(|r| {
                    let mut r = r.clone();
                    r.weight = 0;
                    r.next_hop = sw.sessions[si].peer_addr;
                    (r.prefix, r)
                })
                .collect(),
            AdjIn::Filtered { routes, .. } => routes.clone(),
        }
    }

    /// The Adj-RIB-In a materialising receive of `routes` on session
    /// `si` builds: one clone per admitted route, first per prefix wins.
    pub(crate) fn receive(
        sw: &SwitchModel,
        si: usize,
        routes: &[BgpRoute],
    ) -> BTreeMap<Prefix, BgpRoute> {
        let mut new_map: BTreeMap<Prefix, BgpRoute> = BTreeMap::new();
        let session = &sw.sessions[si];
        let next_hop = session.peer_addr;
        let import_policy = sw
            .cfg
            .bgp
            .as_ref()
            .map(|b| b.neighbors[session.neighbor_index].import_policy.clone())
            .unwrap_or(None);
        for r in routes {
            // eBGP loop prevention.
            if r.as_path_contains(sw.asn) {
                continue;
            }
            // Vendor-specific: some vendors reject empty eBGP AS paths.
            if r.as_path.is_empty() && !sw.quirks.accept_empty_ebgp_as_path {
                continue;
            }
            let mut r = r.clone();
            r.weight = 0;
            r.next_hop = next_hop;
            if let Some(map) = &import_policy {
                match policy_eval::run_route_map(&sw.cfg, map, &r) {
                    PolicyVerdict::Permit(pr) => r = pr,
                    PolicyVerdict::Deny => continue,
                }
            }
            new_map.entry(r.prefix).or_insert(r);
        }
        new_map
    }

    /// The multipath set of `candidates`, moved out of it.
    fn select(candidates: Vec<Candidate>, max_ecmp: u8) -> Vec<Candidate> {
        let views = candidates.iter().map(Candidate::view).collect();
        let picked: Vec<usize> = select_multipath(views, max_ecmp)
            .iter()
            .filter_map(|c| candidates.iter().position(|o| std::ptr::eq(&o.route, c.route)))
            .collect();
        let mut slots: Vec<Option<Candidate>> = candidates.into_iter().map(Some).collect();
        picked.into_iter().filter_map(|i| slots[i].take()).collect()
    }

    /// The bytes the routes of a local RIB hold.
    pub(crate) fn rib_bytes(rib: &BTreeMap<Prefix, Installed>) -> usize {
        rib.values().map(|e| e.bytes).sum()
    }

    /// The local RIB a selection over every candidate and every
    /// aggregate builds, each selection as the entry it installs, and
    /// the aggregate dependencies it observes.
    pub(crate) fn decide(
        sw: &SwitchModel,
        shard: Option<&BTreeSet<Prefix>>,
    ) -> (BTreeMap<Prefix, Installed>, BTreeSet<(Prefix, Prefix)>) {
        let mut deps = BTreeSet::new();
        let mut cands: BTreeMap<Prefix, Vec<Candidate>> = BTreeMap::new();
        for r in sw.local_routes.values() {
            cands.entry(r.prefix).or_default().push(Candidate {
                route: r.clone(),
                peer: None,
                session: u32::MAX,
            });
        }
        for si in 0..sw.adj_in.len() {
            let peer = sw.sessions[si].peer_addr;
            for r in adj_view(sw, si).into_values() {
                cands.entry(r.prefix).or_default().push(Candidate {
                    route: r,
                    peer: Some(peer),
                    session: si as u32,
                });
            }
        }
        let mut new_rib: BTreeMap<Prefix, Vec<Candidate>> = cands
            .into_iter()
            .map(|(p, cs)| (p, select(cs, sw.max_ecmp)))
            .collect();

        // Aggregation: most specific aggregates first so aggregates can
        // contribute to covering aggregates.
        if let Some(bgp) = sw.cfg.bgp.as_ref() {
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
                    deps.insert((agg.prefix, c));
                }
                let entry = new_rib.entry(agg.prefix).or_default();
                entry.push(Candidate {
                    route: aggregate_route(agg),
                    peer: None,
                    session: u32::MAX,
                });
                *entry = select(std::mem::take(entry), sw.max_ecmp);
            }
        }
        let installed = new_rib.into_iter().map(|(p, selection)| (p, install(selection)));
        (installed.collect(), deps)
    }

    /// The entry a non-empty `selection` installs.
    fn install(selection: Vec<Candidate>) -> Installed {
        Installed {
            sessions: selection.iter().map(|c| c.session).collect(),
            bytes: selection.iter().map(|c| c.route.approx_bytes()).sum(),
            best: selection.into_iter().next().expect("a selection is never empty"),
        }
    }

    /// The bytes a walk of the materialised state finds: every admitted
    /// route once per session, as a clone (the stored route where an
    /// import route-map built it), and the local RIB.
    pub(crate) fn walked_bytes(sw: &SwitchModel) -> usize {
        let adj: usize = (0..sw.adj_in.len())
            .map(|si| match &sw.adj_in[si] {
                AdjIn::Shared(_) => adj_view(sw, si).values().map(BgpRoute::approx_bytes).sum(),
                AdjIn::Filtered { routes, .. } => {
                    routes.values().map(BgpRoute::approx_bytes).sum::<usize>()
                }
            })
            .sum();
        adj + rib_bytes(&sw.loc_rib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkModel;
    use s2_net::config::{BgpNeighbor, BgpProcess, InterfaceConfig, Network, Vendor};
    use s2_net::policy::{
        community, CommunityAction, MatchCondition, PolicyAction, RouteMap, RouteMapClause,
        RouteMapDisposition,
    };
    use s2_net::topology::Topology;
    use s2_net::Ipv4Addr;

    thread_local! {
        /// Multipath selections `bgp_decide` ran on this thread, one per
        /// prefix it recomputed.
        pub(super) static SELECTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Two nodes, a (AS 65001, originates 10.1.0.0/24) — b (AS 65002).
    fn pair() -> (NetworkModel, SwitchModel, SwitchModel) {
        pair_importing(None)
    }

    /// [`pair`], with b importing through `import` when given.
    fn pair_importing(import: Option<RouteMap>) -> (NetworkModel, SwitchModel, SwitchModel) {
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
        let import_policy = import.map(|map| {
            cb.route_maps.insert("IN".into(), map);
            "IN".to_string()
        });
        bgp_b.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 0),
            remote_as: 65001,
            import_policy,
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
        rerun_pair(sa, sb);
    }

    /// Rounds between the pair, from its current state, until quiet.
    fn rerun_pair(sa: &mut SwitchModel, sb: &mut SwitchModel) {
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
        assert_eq!(sa.loc_rib()[&p].best.session, u32::MAX);
        // b learned it with AS path [65001].
        let b_route = &sb.loc_rib()[&p].best;
        assert_eq!(b_route.route.as_path, vec![65001].into());
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
        assert_eq!(back[0].as_path, vec![65002, 65001].into());
        // a's adj-in for that prefix stays empty (loop check).
        assert!(!sa.bgp_receive(0, &b_out) || !sa.loc_rib()[&"10.1.0.0/24".parse().unwrap()]
            .sessions
            .iter()
            .any(|&si| si != u32::MAX));
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
        assert_eq!(r.as_path, vec![65001].into());
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
        rerun_pair(&mut sa, &mut sb);
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
        rerun_pair(&mut sa, &mut sb);
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
            as_path: vec![65001].into(),
            local_pref: DEFAULT_LOCAL_PREF,
            med: 0,
            origin: Origin::Igp,
            communities: communities.into(),
            weight: 0,
            source_protocol: Protocol::Bgp,
        };
        for class in &classes {
            for &si in &class.sessions {
                let session = sw[0].sessions[si].clone();
                let leaf = &mut sw[session.peer_node.index()];
                leaf.bgp_receive(session.peer_session_index as usize, &class.routes);
                let got = oracle::adj_view(leaf, session.peer_session_index as usize).remove(&p);
                let want = match si {
                    2 => Some(expected(2, vec![community(65001, 7)])),
                    4 => None,
                    l => Some(expected(l as u8, Vec::new())),
                };
                assert_eq!(got, want, "session {si}");
            }
        }
    }

    /// The gauge charges a route what an owned copy holds, so a class's
    /// exported routes (the Adj-RIB-Out) and each receiver's Adj-RIB-In
    /// and installed copy cost the same: no allocator slack from the
    /// exporter's prepend.
    #[test]
    fn exported_and_received_routes_are_charged_alike() {
        let (_, mut sw) = hub_and_leaves();
        for s in &mut sw {
            s.begin_bgp(None);
        }
        for class in sw[0].bgp_export() {
            let sent: usize = class.routes.iter().map(BgpRoute::approx_bytes).sum();
            // One AS in the path; the tagged class adds one community.
            let tagged = class.sessions == [2];
            assert_eq!(sent, 84 + if tagged { 4 } else { 0 }, "sessions {:?}", class.sessions);
            for &si in &class.sessions {
                let session = sw[0].sessions[si].clone();
                let leaf = &mut sw[session.peer_node.index()];
                leaf.bgp_receive(session.peer_session_index as usize, &class.routes);
                leaf.bgp_decide(None);
                assert_eq!(oracle::rib_bytes(leaf.loc_rib()), sent, "session {si}: local RIB");
                assert_eq!(leaf.approx_bgp_bytes(), 2 * sent, "session {si}: Adj-RIB-In + RIB");
            }
        }
    }

    /// A route a's side could advertise to b: `prefix` with `as_path`.
    fn adv(prefix: &str, as_path: &[u32]) -> BgpRoute {
        BgpRoute {
            as_path: as_path.into(),
            weight: 0,
            ..BgpRoute::local(prefix.parse().unwrap(), Origin::Igp, Protocol::Bgp)
        }
    }

    /// Feeds `bodies` to b's session 0 in turn. After each, the session's
    /// admitted view must be the materialising receive's map, the
    /// returned flag whether that map differs from the previous view,
    /// and the local RIB the full decide's.
    fn check_receives(mut b: SwitchModel, bodies: &[Vec<BgpRoute>]) {
        b.begin_bgp(None);
        for (i, body) in bodies.iter().enumerate() {
            let before = oracle::adj_view(&b, 0);
            let want = oracle::receive(&b, 0, body);
            let changed = b.bgp_receive(0, &Arc::from(body.as_slice()));
            assert_eq!(oracle::adj_view(&b, 0), want, "body {i}: admitted view");
            assert_eq!(changed, want != before, "body {i}: changed flag");
            b.bgp_decide(None);
            assert_eq!(*b.loc_rib(), oracle::decide(&b, None).0, "body {i}: local RIB");
            assert_eq!(b.approx_bgp_bytes(), oracle::walked_bytes(&b), "body {i}: bytes");
        }
    }

    #[test]
    fn receive_matches_the_materialising_receive() {
        let (p1, p2, p3) = ("10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24");
        let lp = |mut r: BgpRoute, local_pref: u32| {
            r.local_pref = local_pref;
            r
        };
        let heavy = BgpRoute { weight: 7, ..adv(p2, &[65001]) };
        let tagged =
            BgpRoute { communities: vec![community(65001, 1)].into(), ..adv(p3, &[65001]) };
        let bodies = vec![
            // Canonical, then equal content in a fresh body: unchanged.
            vec![adv(p1, &[65001]), adv(p2, &[65001])],
            vec![adv(p1, &[65001]), adv(p2, &[65001])],
            // Unsorted: the same admitted view.
            vec![adv(p2, &[65001]), adv(p1, &[65001])],
            // Duplicate prefixes: the first wins, also when unsorted.
            vec![lp(adv(p1, &[65001]), 50), adv(p2, &[65001]), lp(adv(p1, &[65001]), 300)],
            vec![adv(p2, &[65001]), lp(adv(p1, &[65001]), 300), adv(p1, &[65001])],
            // Weight is local-only: a peer's is zeroed.
            vec![adv(p1, &[65001]), heavy.clone()],
            // Own ASN in the path: dropped, and a later duplicate of the
            // prefix takes its place.
            vec![adv(p1, &[65001, 65002]), adv(p2, &[65001])],
            vec![adv(p1, &[65001]), adv(p1, &[65002, 65001]), adv(p1, &[65001, 7])],
            vec![adv(p2, &[65002]), adv(p2, &[65001, 9]), adv(p1, &[65001])],
            // A peer's next hop is overwritten: unchanged.
            vec![
                BgpRoute { next_hop: Ipv4Addr::new(9, 9, 9, 9), ..adv(p1, &[65001]) },
                adv(p2, &[65002]),
            ],
            vec![adv(p1, &[65001]), adv(p2, &[65002])],
            // Empty AS path (quirk-dependent), a community, a withdrawal.
            vec![adv(p1, &[]), tagged.clone()],
            vec![tagged],
            Vec::new(),
        ];
        for accept_empty in [true, false] {
            let (_, _, mut b) = pair();
            b.quirks.accept_empty_ebgp_as_path = accept_empty;
            check_receives(b, &bodies);
        }
        // An import route-map that denies the tagged route and one that
        // rewrites every route: the Adj-RIB-In stays materialised.
        let mut deny = RouteMap::permit_all();
        deny.push_clause(RouteMapClause {
            seq: 5,
            disposition: RouteMapDisposition::Deny,
            matches: vec![MatchCondition::Community(community(65001, 1))],
            actions: Vec::new(),
        });
        let mut rewrite = RouteMap::permit_all();
        rewrite.clauses[0].actions = vec![
            PolicyAction::SetLocalPref(250),
            PolicyAction::Community(CommunityAction::Add(community(65002, 2))),
        ];
        for map in [deny, rewrite] {
            let (_, _, b) = pair_importing(Some(map));
            check_receives(b, &bodies);
        }
    }

    #[test]
    fn canonical_body_is_shared_not_copied() {
        let body: Arc<[BgpRoute]> =
            Arc::from([adv("10.1.0.0/24", &[65001]), adv("10.2.0.0/24", &[65001])]);
        let (_, _, mut b) = pair();
        b.begin_bgp(None);
        let before = Arc::strong_count(&body);
        assert!(b.bgp_receive(0, &body));
        assert_eq!(Arc::strong_count(&body), before + 1, "the Adj-RIB-In holds the body itself");
        assert!(matches!(&b.adj_in[0], AdjIn::Shared(held) if Arc::ptr_eq(held, &body)));
        // Behind an import route-map the routes are materialised instead.
        let (_, _, mut filtered) = pair_importing(Some(RouteMap::permit_all()));
        filtered.begin_bgp(None);
        assert!(filtered.bgp_receive(0, &body));
        assert_eq!(Arc::strong_count(&body), before + 1);
    }

    /// From every start, behind or ahead of the target, `seek` finds
    /// what a search of the whole body finds.
    #[test]
    fn seek_finds_the_first_route_not_below_from_any_cursor() {
        let body: Vec<BgpRoute> =
            (1..=9).map(|i| adv(&format!("10.{}.0.0/16", 2 * i), &[65001])).collect();
        for target in 0..=20 {
            let prefix: Prefix = format!("10.{target}.0.0/16").parse().unwrap();
            let want = body.partition_point(|r| r.prefix < prefix);
            for from in 0..=body.len() + 1 {
                assert_eq!(seek(&body, from, prefix), want, "from {from} to 10.{target}/16");
            }
        }
        assert_eq!(seek(&[], 3, "10.0.0.0/8".parse().unwrap()), 0);
    }

    /// The hub learns one prefix from leaves 0 and 1 at equal cost; leaf
    /// 0's lower peer address makes it best. When the other member's
    /// communities change, its bytes do and so does the entry; when its
    /// AS path changes at equal length, nothing the switch stores, exports
    /// or forwards on does.
    #[test]
    fn a_non_best_member_is_stored_as_its_session_and_bytes() {
        let (_, mut sw) = hub_and_leaves();
        let mut hub = sw.swap_remove(0);
        hub.max_ecmp = 4;
        hub.begin_bgp(None);
        let p: Prefix = "10.7.0.0/24".parse().unwrap();
        let body = |route: BgpRoute| Arc::from([route]);
        hub.bgp_receive(0, &body(adv("10.7.0.0/24", &[65100])));
        hub.bgp_receive(1, &body(adv("10.7.0.0/24", &[65101])));
        assert!(hub.bgp_decide(None));
        let check = |hub: &SwitchModel| {
            assert_eq!(*hub.loc_rib(), oracle::decide(hub, None).0);
            assert_eq!(hub.approx_bgp_bytes(), oracle::walked_bytes(hub));
        };
        check(&hub);
        assert_eq!(*hub.loc_rib()[&p].sessions, [0, 1]);
        assert_eq!(hub.loc_rib()[&p].bytes, 2 * 84);

        let tagged = |as_path: &[u32]| BgpRoute {
            communities: vec![community(65101, 1)].into(),
            ..adv("10.7.0.0/24", as_path)
        };
        let before = hub.approx_bgp_bytes();
        assert!(hub.bgp_receive(1, &body(tagged(&[65101]))));
        assert!(hub.bgp_decide(None), "the member's bytes changed");
        check(&hub);
        assert_eq!(hub.loc_rib()[&p].bytes, 2 * 84 + 4);
        assert_eq!(hub.approx_bgp_bytes(), before + 2 * 4, "its Adj-RIB-In and the entry");

        let exported = advert(&hub, 2);
        assert!(hub.bgp_receive(1, &body(tagged(&[65102]))));
        assert!(!hub.bgp_decide(None), "a non-best AS path of equal length and bytes");
        check(&hub);
        assert_eq!(*advert(&hub, 2), *exported);
    }

    /// On the DCN (aggregates, communities, route-maps), every decide
    /// runs one selection per dirty prefix plus one per aggregate
    /// covering one, and those are far fewer than a full decide runs.
    #[test]
    fn decide_selects_only_dirty_prefixes_and_covering_aggregates() {
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        let model = NetworkModel::build(dcn.topology, dcn.configs).unwrap();
        let mut sw: Vec<SwitchModel> =
            model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
        for s in &mut sw {
            s.begin_bgp(None);
        }
        let (mut selections, mut full) = (0, 0);
        for _ in 0..64 {
            let changed = crate::fixpoint::tests::reference_round(&mut sw, |s| {
                let dirty: BTreeSet<Prefix> = s.dirty.iter().copied().collect();
                let covering = s
                    .cfg
                    .bgp
                    .iter()
                    .flat_map(|b| &b.aggregates)
                    .map(|a| a.prefix)
                    .filter(|a| dirty.iter().any(|d| a.covers(*d)));
                let expected = dirty.iter().copied().chain(covering).collect::<BTreeSet<_>>().len();
                SELECTIONS.with(|n| n.set(0));
                let changed = s.bgp_decide(None);
                assert_eq!(SELECTIONS.with(std::cell::Cell::get), expected, "{}", s.node);
                selections += expected;
                full += oracle::decide(s, None).0.len();
                changed
            });
            if !changed {
                assert!(
                    selections * 2 < full,
                    "{selections} selections where a full decide runs {full}"
                );
                return;
            }
        }
        panic!("BGP did not converge");
    }
}
