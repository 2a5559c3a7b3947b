//! The final RIB store: per-node routing tables accumulated across
//! protocols and prefix shards, merged by administrative distance.

use crate::route::RibRoute;
use s2_net::policy::Protocol;
use s2_net::topology::NodeId;
use s2_net::Prefix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One node's winning routes in prefix order. Shared: a scenario
/// snapshot holds the rows it did not patch by reference to its
/// baseline's.
pub type RibRow = Arc<[RibRoute]>;

/// Whether `new` displaces `held` for their prefix: the one merge rule
/// of every RIB. The lower administrative distance wins and ties keep
/// the route inserted first, which callers exploit by inserting
/// protocols in a fixed order.
fn displaces(new: &RibRoute, held: &RibRoute) -> bool {
    new.protocol.admin_distance() < held.protocol.admin_distance()
}

/// One node's row from its routes in insertion order (base, then BGP),
/// merged by the rule [`RibStore::insert`] applies. A stable sort keeps
/// each prefix's routes in insertion order, and the merge keeps the
/// first of them that no later one displaces.
pub fn merge_row(routes: impl IntoIterator<Item = RibRoute>) -> RibRow {
    let mut row: Vec<RibRoute> = routes.into_iter().collect();
    row.sort_by_key(|r| r.prefix);
    row.dedup_by(|later, kept| {
        if later.prefix != kept.prefix {
            return false;
        }
        if displaces(later, kept) {
            std::mem::swap(later, kept);
        }
        true
    });
    row.into()
}

/// The entry of one prefix's row from its routes in insertion order
/// (base, then BGP): the first that no later one displaces, the rule
/// [`merge_row`] applies per prefix. `None` without routes.
pub fn merge_entry(routes: impl IntoIterator<Item = RibRoute>) -> Option<RibRoute> {
    let mut kept: Option<RibRoute> = None;
    for route in routes {
        if kept.as_ref().is_none_or(|held| displaces(&route, held)) {
            kept = Some(route);
        }
    }
    kept
}

/// The entry `row` (one route per prefix, in prefix order) holds for
/// `prefix`.
pub fn row_entry(row: &[RibRoute], prefix: Prefix) -> Option<&RibRoute> {
    row.binary_search_by_key(&prefix, |r| r.prefix).ok().map(|i| &row[i])
}

/// `row` (one route per prefix, in prefix order) with the entry of each
/// prefix of `entries` (ascending, each once) replaced, `None` dropping
/// it: one walk that copies the untouched runs.
pub fn patch_row(row: &[RibRoute], entries: Vec<(Prefix, Option<RibRoute>)>) -> RibRow {
    let mut out = Vec::with_capacity(row.len() + entries.len());
    let mut rest = row;
    for (prefix, entry) in entries {
        let at = rest.partition_point(|r| r.prefix < prefix);
        out.extend_from_slice(&rest[..at]);
        let held = rest.get(at).is_some_and(|r| r.prefix == prefix);
        rest = &rest[at + usize::from(held)..];
        out.extend(entry);
    }
    out.extend_from_slice(rest);
    out.into()
}

/// Accumulates RIB routes per node; the winning route per prefix is decided
/// by administrative distance (see [`displaces`]).
#[derive(Debug, Clone, Default)]
pub struct RibStore {
    per_node: Vec<BTreeMap<Prefix, RibRoute>>,
}

impl RibStore {
    /// A store for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        RibStore {
            per_node: vec![BTreeMap::new(); nodes],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Inserts a route, keeping the lower administrative distance on
    /// conflict. A node id beyond the store's size is ignored: remote
    /// RIB frames carry node ids chosen by the peer, and an
    /// out-of-range id must not be able to panic the worker.
    pub fn insert(&mut self, node: NodeId, route: RibRoute) {
        let Some(table) = self.per_node.get_mut(node.index()) else {
            return;
        };
        match table.get(&route.prefix) {
            Some(held) if !displaces(&route, held) => {}
            _ => {
                table.insert(route.prefix, route);
            }
        }
    }

    /// Inserts many routes for one node.
    pub fn insert_all(&mut self, node: NodeId, routes: impl IntoIterator<Item = RibRoute>) {
        for r in routes {
            self.insert(node, r);
        }
    }

    /// The winning routes of `node`, in prefix order.
    pub fn routes(&self, node: NodeId) -> impl Iterator<Item = &RibRoute> {
        self.per_node[node.index()].values()
    }

    /// Total number of installed routes across all nodes.
    pub fn total_routes(&self) -> usize {
        self.per_node.iter().map(BTreeMap::len).sum()
    }

    /// Freezes the store into a snapshot for equality comparison and FIB
    /// construction. The routes move: nothing is copied.
    pub fn into_snapshot(self) -> RibSnapshot {
        RibSnapshot {
            per_node: self.per_node.into_iter().map(|t| t.into_values().collect()).collect(),
        }
    }

    /// Merges another store into this one (used when gathering per-worker
    /// results; distinct nodes only, so no distance conflicts arise).
    pub fn merge(&mut self, other: RibStore) {
        assert_eq!(self.per_node.len(), other.per_node.len());
        for (node, table) in other.per_node.into_iter().enumerate() {
            for (_, r) in table {
                self.insert(NodeId(node as u32), r);
            }
        }
    }
}

/// An immutable, comparable snapshot of every node's final RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibSnapshot {
    /// `per_node[n]` = node n's routes in prefix order.
    pub per_node: Vec<RibRow>,
}

impl RibSnapshot {
    /// This snapshot with `rows` in place of their nodes' rows; every
    /// other row is shared with `self`, so the copy costs a reference
    /// count per node and nothing per route.
    pub fn patched(&self, rows: impl IntoIterator<Item = (NodeId, RibRow)>) -> RibSnapshot {
        let mut per_node = self.per_node.clone();
        for (node, row) in rows {
            per_node[node.index()] = row;
        }
        RibSnapshot { per_node }
    }

    /// Nodes whose row differs between `self` and `other`, in node
    /// order. A row shared between the two compares by pointer, so two
    /// patches of one baseline compare only their patched rows.
    pub fn changed_nodes(&self, other: &RibSnapshot) -> Vec<NodeId> {
        self.per_node
            .iter()
            .zip(&other.per_node)
            .enumerate()
            .filter(|(_, (a, b))| !Arc::ptr_eq(a, b) && a != b)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Routes of one node.
    pub fn node(&self, node: NodeId) -> &[RibRoute] {
        &self.per_node[node.index()]
    }

    /// Total route count.
    pub fn total_routes(&self) -> usize {
        self.per_node.iter().map(|row| row.len()).sum()
    }

    /// Count of routes per protocol, for diagnostics.
    pub fn protocol_histogram(&self) -> BTreeMap<Protocol, usize> {
        let mut h = BTreeMap::new();
        for r in self.per_node.iter().flat_map(|row| row.iter()) {
            *h.entry(r.protocol).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(prefix: &str, protocol: Protocol) -> RibRoute {
        RibRoute {
            prefix: prefix.parse().unwrap(),
            protocol,
            egress: Vec::new(),
            is_local: false,
            as_path_len: 0,
        }
    }

    #[test]
    fn admin_distance_decides_conflicts() {
        let mut store = RibStore::new(1);
        store.insert(NodeId(0), route("10.0.0.0/24", Protocol::Ospf));
        store.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        let routes: Vec<_> = store.routes(NodeId(0)).collect();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].protocol, Protocol::Bgp);
        // Inserting a worse protocol afterwards does not displace it.
        store.insert(NodeId(0), route("10.0.0.0/24", Protocol::Aggregate));
        assert_eq!(store.routes(NodeId(0)).next().unwrap().protocol, Protocol::Bgp);
        // Connected beats everything.
        store.insert(NodeId(0), route("10.0.0.0/24", Protocol::Connected));
        assert_eq!(store.routes(NodeId(0)).next().unwrap().protocol, Protocol::Connected);
    }

    #[test]
    fn snapshot_equality_is_order_independent() {
        let mut s1 = RibStore::new(2);
        s1.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        s1.insert(NodeId(0), route("10.0.1.0/24", Protocol::Bgp));
        let mut s2 = RibStore::new(2);
        s2.insert(NodeId(0), route("10.0.1.0/24", Protocol::Bgp));
        s2.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        assert_eq!(s1.into_snapshot(), s2.into_snapshot());
    }

    #[test]
    fn merge_combines_per_worker_results() {
        let mut a = RibStore::new(2);
        a.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        let mut b = RibStore::new(2);
        b.insert(NodeId(1), route("10.0.1.0/24", Protocol::Bgp));
        a.merge(b);
        assert_eq!(a.total_routes(), 2);
        assert_eq!(a.into_snapshot().node(NodeId(1)).len(), 1);
    }

    /// A row merged from base then BGP routes equals what the store
    /// keeps for them, duplicates and distance ties included.
    #[test]
    fn merge_row_keeps_what_the_store_keeps() {
        let tied = |len| RibRoute { as_path_len: len, ..route("10.0.3.0/24", Protocol::Ospf) };
        let routes = vec![
            route("10.0.1.0/24", Protocol::Ospf),
            tied(1),
            route("10.0.0.0/24", Protocol::Connected),
            route("10.0.1.0/24", Protocol::Static),
            tied(2),
            route("10.0.0.0/24", Protocol::Bgp),
            route("10.0.1.0/24", Protocol::Bgp),
            route("10.0.2.0/24", Protocol::Aggregate),
            tied(3),
        ];
        let mut store = RibStore::new(1);
        store.insert_all(NodeId(0), routes.clone());
        let row = merge_row(routes);
        assert_eq!(*row, *store.into_snapshot().node(NodeId(0)));
        // Of equal distances, the first inserted holds.
        assert_eq!(row.iter().map(|r| r.as_path_len).collect::<Vec<_>>(), [0, 0, 0, 1]);
    }

    /// Patching a row at the prefixes whose routes changed builds the
    /// row `merge_row` builds from all the new routes: replaced, added
    /// (before, between and after the held ones) and dropped entries.
    #[test]
    fn patched_rows_equal_the_merged_ones() {
        let old = vec![
            route("10.0.1.0/24", Protocol::Ospf),
            route("10.0.1.0/24", Protocol::Bgp),
            route("10.0.3.0/24", Protocol::Bgp),
            route("10.0.5.0/24", Protocol::Bgp),
        ];
        let new = vec![
            route("10.0.0.0/24", Protocol::Bgp),
            route("10.0.1.0/24", Protocol::Ospf),
            route("10.0.2.0/24", Protocol::Aggregate),
            route("10.0.3.0/24", Protocol::Static),
            route("10.0.3.0/24", Protocol::Bgp),
            route("10.0.9.0/24", Protocol::Bgp),
        ];
        let moved: Vec<Prefix> = ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.5.0/24"]
            .iter()
            .chain(["10.0.9.0/24"].iter())
            .map(|p| p.parse().unwrap())
            .collect();
        let entries = moved
            .iter()
            .map(|&p| (p, merge_entry(new.iter().filter(|r| r.prefix == p).cloned())))
            .collect();
        let old_row = merge_row(old);
        assert_eq!(row_entry(&old_row, moved[3]).map(|r| r.protocol), Some(Protocol::Bgp));
        assert!(row_entry(&old_row, moved[0]).is_none());
        assert_eq!(*patch_row(&old_row, entries), *merge_row(new));
        assert_eq!(*patch_row(&old_row, Vec::new()), *old_row);
    }

    #[test]
    fn a_patch_shares_the_rows_it_does_not_replace() {
        let mut store = RibStore::new(3);
        store.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        store.insert(NodeId(2), route("10.0.2.0/24", Protocol::Bgp));
        let base = store.into_snapshot();
        let row = merge_row([route("10.0.9.0/24", Protocol::Bgp)]);
        let patch = base.patched([(NodeId(1), row.clone())]);
        assert!(Arc::ptr_eq(&patch.per_node[0], &base.per_node[0]));
        assert!(Arc::ptr_eq(&patch.per_node[1], &row));
        assert_eq!(base.changed_nodes(&patch), vec![NodeId(1)]);
        // Equal contents behind distinct rows are unchanged.
        let same = base.patched([(NodeId(2), base.per_node[2].to_vec().into())]);
        assert_eq!(base.changed_nodes(&same), Vec::<NodeId>::new());
        assert_eq!(same.changed_nodes(&patch), vec![NodeId(1)]);
    }

    #[test]
    fn histogram_counts_protocols() {
        let mut s = RibStore::new(1);
        s.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        s.insert(NodeId(0), route("10.0.1.0/24", Protocol::Connected));
        let h = s.into_snapshot().protocol_histogram();
        assert_eq!(h[&Protocol::Bgp], 1);
        assert_eq!(h[&Protocol::Connected], 1);
    }
}
