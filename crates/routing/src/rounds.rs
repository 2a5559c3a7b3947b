//! The BGP round engine of both the monolithic fix point (every peer
//! hosted) and each distributed worker (remote peers reached through a
//! caller sink).
//!
//! Only switches whose local RIB changed export, a body equal to the one
//! last sent on a session (the Adj-RIB-Out) is not delivered, and only
//! switches that got a delivery decide. `bgp_export` and `bgp_decide` are
//! pure in the switch and an equal body diffs into no change, so every
//! round's `changed` flag, the round count and the RIBs are those of a
//! loop that re-exports and re-decides everything (DESIGN § "BGP rounds").

use crate::model::NetworkModel;
use crate::route::BgpRoute;
use crate::switch::{ExportClass, SwitchModel};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An advertisement body, shared by every session of one export class
/// (see [`SwitchModel::bgp_export`]) and by every target it reaches.
pub type Body = Arc<[BgpRoute]>;

/// A delivery: (target node, target session, body).
pub type Delivery = (NodeId, u32, Body);

/// Runs a per-switch step over independent switches, possibly
/// concurrently: a step touches its own switch only.
pub trait SwitchMap {
    /// `f` applied to every item, results in item order.
    fn map<T: Send, R: Send>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R>;
}

/// The in-order [`SwitchMap`].
pub struct Sequential;

impl SwitchMap for Sequential {
    fn map<T: Send, R: Send>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
        items.iter_mut().map(f).collect()
    }
}

/// An Adj-RIB-Out entry: a body and its route bytes, summed once.
#[derive(Clone)]
struct Sent {
    body: Body,
    bytes: usize,
}

/// The hosted switches and their round state. `Clone` is the checkpoint:
/// switches and Adj-RIB-Out together, copy-on-write. A clone shares
/// every switch and every switch's Adj-RIB-Out row with its source, and
/// each write goes through [`Arc::make_mut`], so the first write to a
/// switch or row after a clone or a [`BgpRounds::restore`] copies that
/// one alone: a restore costs what the scenario touched.
#[derive(Clone)]
pub struct BgpRounds {
    /// In node order.
    switches: Vec<Arc<SwitchModel>>,
    /// Per switch and session, the body last sent.
    adj_out: Vec<Arc<Vec<Option<Sent>>>>,
    /// Switches whose local RIB changed since their last export (all of
    /// them after a reset or resync).
    export_dirty: Vec<bool>,
    /// Switches due to decide in the next decide pass: reset, or given a
    /// delivery since the last one.
    decide_dirty: Vec<bool>,
    /// Switches whose forwarding row may have moved since the last
    /// [`BgpRounds::checkpoint`] or [`BgpRounds::restore`]: reset,
    /// decided a local-RIB change, failed ports or written through
    /// [`BgpRounds::switches_mut`] (OSPF). A superset of the switches
    /// whose row differs from the checkpoint's.
    rib_moved: Vec<bool>,
    /// Deliveries to hosted peers, staged by the export half and applied
    /// by the next receive (the Jacobi schedule).
    staged: Vec<Delivery>,
}

impl BgpRounds {
    /// Hosts `switches`; nothing is due until [`BgpRounds::begin`].
    pub fn new(mut switches: Vec<SwitchModel>) -> Self {
        switches.sort_by_key(|s| s.node);
        let n = switches.len();
        BgpRounds {
            adj_out: switches.iter().map(|s| Arc::new(vec![None; s.sessions.len()])).collect(),
            switches: switches.into_iter().map(Arc::new).collect(),
            export_dirty: vec![false; n],
            decide_dirty: vec![false; n],
            rib_moved: vec![false; n],
            staged: Vec::new(),
        }
    }

    /// The hosted switches, in node order.
    pub fn into_switches(self) -> Vec<SwitchModel> {
        self.switches.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// The hosted switches, in node order.
    pub fn switches(&self) -> impl ExactSizeIterator<Item = &SwitchModel> + Clone {
        self.switches.iter().map(|s| &**s)
    }

    /// The hosted switches of the nodes `which` selects, mutably (OSPF,
    /// dependency draining), in node order. Each is copied here if a
    /// checkpoint shares it. A change to a switch's BGP state must go
    /// through this type. Each one yielded counts as moved (see
    /// [`BgpRounds::rib_moved`]).
    pub fn switches_mut(
        &mut self,
        which: impl Fn(NodeId) -> bool,
    ) -> impl Iterator<Item = &mut SwitchModel> {
        self.switches.iter_mut().zip(&mut self.rib_moved).filter(move |(s, _)| which(s.node)).map(
            |(s, moved)| {
                *moved = true;
                Arc::make_mut(s)
            },
        )
    }

    fn slot(&self, node: NodeId) -> Option<usize> {
        self.switches.binary_search_by_key(&node, |s| s.node).ok()
    }

    /// The hosted switch of `node`.
    pub fn switch(&self, node: NodeId) -> Option<&SwitchModel> {
        self.slot(node).map(|i| &*self.switches[i])
    }

    /// Resets BGP and originates the routes of `shard` on every switch;
    /// every switch then exports and decides in the next round.
    pub fn begin(&mut self, shard: Option<&BTreeSet<Prefix>>) {
        for s in &mut self.switches {
            Arc::make_mut(s).begin_bgp(shard);
        }
        self.staged.clear();
        self.resync();
        self.decide_dirty.fill(true);
        self.rib_moved.fill(true);
    }

    /// Forgets the Adj-RIB-Out, so the next export re-sends every body.
    pub fn resync(&mut self) {
        for row in &mut self.adj_out {
            *row = Arc::new(vec![None; row.len()]);
        }
        self.export_dirty.fill(true);
    }

    /// Drops the deliveries staged by an aborted round.
    pub fn drop_staged(&mut self) {
        self.staged.clear();
    }

    /// The checkpoint of a converged engine: a clone that shares every
    /// switch and row. Nothing has moved since it.
    pub fn checkpoint(&mut self) -> BgpRounds {
        self.rib_moved.fill(false);
        self.clone()
    }

    /// Returns to `checkpoint`, a converged clone: nothing is due until
    /// something perturbs it, and nothing has moved. Every switch and
    /// row is shared with `checkpoint` again, so this copies nothing;
    /// it frees the copies the writes since the last restore made.
    pub fn restore(&mut self, checkpoint: &BgpRounds) {
        *self = checkpoint.clone();
        self.staged.clear();
        self.export_dirty.fill(false);
        self.decide_dirty.fill(false);
        self.rib_moved.fill(false);
    }

    /// Makes `ports` the failed interfaces of each hosted switch they
    /// name (replacing its failure set). Its sessions on them now export
    /// empty bodies, so it exports next.
    pub fn fail_ports(&mut self, model: &NetworkModel, ports: &[(NodeId, InterfaceId)]) {
        let mut by_node: BTreeMap<NodeId, Vec<InterfaceId>> = BTreeMap::new();
        for &(node, iface) in ports {
            by_node.entry(node).or_default().push(iface);
        }
        for (node, ifaces) in by_node {
            if let Some(i) = self.slot(node) {
                Arc::make_mut(&mut self.switches[i]).set_failed_interfaces(model, ifaces);
                self.export_dirty[i] = true;
                self.rib_moved[i] = true;
            }
        }
    }

    /// The export half. Deliveries to hosted peers are staged for the
    /// next [`BgpRounds::receive`]; each class's remote
    /// `(peer, peer session)` targets go to `remote` with the body, in
    /// node order and first-session order. Returns the number of routes
    /// delivered: advertisements equal to the Adj-RIB-Out are not.
    pub fn export(
        &mut self,
        map: &impl SwitchMap,
        mut remote: impl FnMut(&Body, &[(NodeId, u32)]),
    ) -> usize {
        let dirty: Vec<usize> = (0..self.switches.len())
            .filter(|&i| std::mem::take(&mut self.export_dirty[i]))
            .collect();
        let mut due: Vec<&SwitchModel> = dirty.iter().map(|&i| &*self.switches[i]).collect();
        let exports = map.map(&mut due, |s| s.bgp_export());
        let mut delivered = 0;
        for (&i, classes) in dirty.iter().zip(exports) {
            for ExportClass { sessions, routes } in classes {
                let bytes = routes.iter().map(BgpRoute::approx_bytes).sum();
                // Members mostly share their previous body too, so each
                // distinct previous body is compared once.
                let mut compared: Vec<(Body, bool)> = Vec::new();
                let mut targets = Vec::new();
                for si in sessions {
                    let sent = &mut Arc::make_mut(&mut self.adj_out[i])[si];
                    let unchanged = sent.as_ref().is_some_and(|prev| {
                        match compared.iter().find(|(body, _)| Arc::ptr_eq(body, &prev.body)) {
                            Some(&(_, same)) => same,
                            None => {
                                let same = *prev.body == *routes;
                                compared.push((prev.body.clone(), same));
                                same
                            }
                        }
                    });
                    *sent = Some(Sent { body: routes.clone(), bytes });
                    if unchanged {
                        continue;
                    }
                    delivered += routes.len();
                    let session = &self.switches[i].sessions[si];
                    let target = (session.peer_node, session.peer_session_index);
                    if self.slot(target.0).is_some() {
                        self.staged.push((target.0, target.1, routes.clone()));
                    } else {
                        targets.push(target);
                    }
                }
                if !targets.is_empty() {
                    remote(&routes, &targets);
                }
            }
        }
        delivered
    }

    /// The receive half: the staged deliveries, then `remote` (whose
    /// target node and session the caller has checked are hosted and in
    /// range), received in arrival order per switch, then every switch
    /// that got any, or was reset, decides. Returns whether anything
    /// changed. The same as [`BgpRounds::receive`] then
    /// [`BgpRounds::decide`].
    pub fn receive_and_decide(
        &mut self,
        map: &impl SwitchMap,
        remote: Vec<Delivery>,
        shard: Option<&BTreeSet<Prefix>>,
    ) -> bool {
        let received = self.receive(map, remote);
        self.decide(map, shard) | received
    }

    /// The receive pass of [`BgpRounds::receive_and_decide`]: each
    /// switch that gets a delivery is due to decide. Returns whether any
    /// Adj-RIB-In changed.
    pub fn receive(&mut self, map: &impl SwitchMap, remote: Vec<Delivery>) -> bool {
        let mut batches: Vec<Vec<(usize, Body)>> = vec![Vec::new(); self.switches.len()];
        for (node, session, body) in std::mem::take(&mut self.staged).into_iter().chain(remote) {
            if let Some(i) = self.slot(node) {
                batches[i].push((session as usize, body));
                self.decide_dirty[i] = true;
            }
        }
        let mut due: Vec<_> =
            self.switches.iter_mut().zip(batches).filter(|(_, batch)| !batch.is_empty()).collect();
        let changed = map.map(&mut due, |(s, batch)| {
            let s = Arc::make_mut(s);
            let mut received = false;
            for (si, body) in batch.iter() {
                received |= s.bgp_receive(*si, body);
            }
            received
        });
        changed.contains(&true)
    }

    /// The decide pass: every switch due since the last one decides, and
    /// those whose local RIB changed export next. Returns whether any
    /// did change. Each switch decides on its own state only, so the
    /// passes give what one receive-then-decide per switch gives.
    pub fn decide(&mut self, map: &impl SwitchMap, shard: Option<&BTreeSet<Prefix>>) -> bool {
        let marks = self.export_dirty.iter_mut().zip(&mut self.rib_moved);
        let switches = self.switches.iter_mut().zip(marks);
        let mut due: Vec<_> = switches
            .zip(&mut self.decide_dirty)
            .filter_map(|(switch, due)| std::mem::take(due).then_some(switch))
            .collect();
        let changed = map.map(&mut due, |(s, (export, moved))| {
            let decided = Arc::make_mut(s).bgp_decide(shard);
            **export |= decided;
            **moved |= decided;
            decided
        });
        changed.contains(&true)
    }

    /// Route bytes of the switches' Adj-RIB-Ins and local RIBs.
    pub fn switch_bytes(&self) -> usize {
        self.switches.iter().map(|s| s.approx_bgp_bytes()).sum()
    }

    /// Route bytes of the Adj-RIB-Out, each distinct body of a switch
    /// once: its class members share it.
    pub fn adj_out_bytes(&self) -> usize {
        let mut total = 0;
        for sessions in &self.adj_out {
            let mut bodies: Vec<&Body> = Vec::new();
            for sent in sessions.iter().flatten() {
                if !bodies.iter().any(|seen| Arc::ptr_eq(seen, &sent.body)) {
                    bodies.push(&sent.body);
                    total += sent.bytes;
                }
            }
        }
        total
    }

    /// The switches due to export in the next round.
    pub fn export_due(&self) -> impl Iterator<Item = &SwitchModel> {
        self.switches.iter().zip(&self.export_dirty).filter(|(_, d)| **d).map(|(s, _)| &**s)
    }

    /// The switches whose forwarding row may have moved since the last
    /// checkpoint or restore, in node order: every switch whose row
    /// differs from the checkpoint's is among them.
    pub fn rib_moved(&self) -> impl Iterator<Item = &SwitchModel> {
        self.switches.iter().zip(&self.rib_moved).filter(|(_, m)| **m).map(|(s, _)| &**s)
    }

    /// The switches due to decide in the next decide pass.
    pub fn decide_due(&self) -> impl Iterator<Item = &SwitchModel> {
        self.switches.iter().zip(&self.decide_dirty).filter(|(_, d)| **d).map(|(s, _)| &**s)
    }

    /// The Adj-RIB-Out: `(node, session, body last sent)`.
    pub fn adj_out(&self) -> impl Iterator<Item = (NodeId, usize, &Body)> {
        self.switches.iter().zip(&self.adj_out).flat_map(|(s, sessions)| {
            sessions
                .iter()
                .enumerate()
                .filter_map(move |(si, sent)| sent.as_ref().map(|sent| (s.node, si, &sent.body)))
        })
    }
}
