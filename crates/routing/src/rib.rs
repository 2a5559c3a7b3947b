//! The final RIB store: per-node routing tables accumulated across
//! protocols and prefix shards, merged by administrative distance.

use crate::route::RibRoute;
use s2_net::policy::Protocol;
use s2_net::topology::NodeId;
use s2_net::Prefix;
use std::collections::BTreeMap;

/// Accumulates RIB routes per node; the winning route per prefix is decided
/// by administrative distance (ties keep the first inserted, which callers
/// exploit by inserting protocols in a fixed order).
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
            Some(existing)
                if existing.protocol.admin_distance() <= route.protocol.admin_distance() => {}
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
    /// construction.
    pub fn snapshot(&self) -> RibSnapshot {
        RibSnapshot {
            per_node: self
                .per_node
                .iter()
                .map(|t| t.values().cloned().collect())
                .collect(),
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
    pub per_node: Vec<Vec<RibRoute>>,
}

impl RibSnapshot {
    /// Routes of one node.
    pub fn node(&self, node: NodeId) -> &[RibRoute] {
        &self.per_node[node.index()]
    }

    /// Total route count.
    pub fn total_routes(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum()
    }

    /// Count of routes per protocol, for diagnostics.
    pub fn protocol_histogram(&self) -> BTreeMap<Protocol, usize> {
        let mut h = BTreeMap::new();
        for r in self.per_node.iter().flatten() {
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
        assert_eq!(s1.snapshot(), s2.snapshot());
    }

    #[test]
    fn merge_combines_per_worker_results() {
        let mut a = RibStore::new(2);
        a.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        let mut b = RibStore::new(2);
        b.insert(NodeId(1), route("10.0.1.0/24", Protocol::Bgp));
        a.merge(b);
        assert_eq!(a.total_routes(), 2);
        assert_eq!(a.snapshot().node(NodeId(1)).len(), 1);
    }

    #[test]
    fn histogram_counts_protocols() {
        let mut s = RibStore::new(1);
        s.insert(NodeId(0), route("10.0.0.0/24", Protocol::Bgp));
        s.insert(NodeId(0), route("10.0.1.0/24", Protocol::Connected));
        let h = s.snapshot().protocol_histogram();
        assert_eq!(h[&Protocol::Bgp], 1);
        assert_eq!(h[&Protocol::Connected], 1);
    }
}
