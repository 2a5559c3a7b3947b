//! The physical topology graph: nodes (switches), interfaces and links.
//!
//! Node identity is a dense integer [`NodeId`] assigned in insertion order;
//! every other crate (partitioner, runtime, data plane) indexes its arrays
//! with it. Hostnames are kept for diagnostics and for the vendor parsers.

use std::fmt;

/// Dense identifier of a switch in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usable array index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Identifier of an interface (port) local to a node.
///
/// Interface indices are dense per node; `(NodeId, InterfaceId)` globally
/// identifies a port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceId(pub u16);

impl InterfaceId {
    /// The id as a usable array index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InterfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

impl fmt::Debug for InterfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An undirected point-to-point link between two ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// One endpoint.
    pub a: (NodeId, InterfaceId),
    /// The other endpoint.
    pub b: (NodeId, InterfaceId),
}

impl Link {
    /// Given one endpoint's node, returns `(local interface, remote node,
    /// remote interface)`, or `None` if `node` is not an endpoint.
    pub fn from_node(&self, node: NodeId) -> Option<(InterfaceId, NodeId, InterfaceId)> {
        if self.a.0 == node {
            Some((self.a.1, self.b.0, self.b.1))
        } else if self.b.0 == node {
            Some((self.b.1, self.a.0, self.a.1))
        } else {
            None
        }
    }
}

/// The network topology: a set of named nodes and point-to-point links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    names: Vec<String>,
    #[expect(
        clippy::disallowed_types,
        reason = "name lookups only; never iterated, so hash order reaches no output"
    )]
    by_name: std::collections::HashMap<String, NodeId>,
    links: Vec<Link>,
    /// `adjacency[n]` lists `(local ifid, peer node, peer ifid)` for node n.
    adjacency: Vec<Vec<(InterfaceId, NodeId, InterfaceId)>>,
    /// Number of interfaces allocated on each node.
    if_counts: Vec<u16>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node; returns its id. Adding an existing name returns the
    /// existing id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.adjacency.push(Vec::new());
        self.if_counts.push(0);
        id
    }

    /// Allocates a fresh interface on `node`.
    pub fn add_interface(&mut self, node: NodeId) -> InterfaceId {
        let c = &mut self.if_counts[node.index()];
        let id = InterfaceId(*c);
        *c += 1;
        id
    }

    /// Connects two nodes with a new link, allocating one interface on each
    /// side. Returns the link.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> Link {
        let ia = self.add_interface(a);
        let ib = self.add_interface(b);
        let link = Link {
            a: (a, ia),
            b: (b, ib),
        };
        self.links.push(link);
        self.adjacency[a.index()].push((ia, b, ib));
        self.adjacency[b.index()].push((ib, a, ia));
        link
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The hostname of `node`.
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Looks a node up by hostname.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Neighbors of `node` as `(local ifid, peer, peer ifid)` triples, in
    /// link insertion order (deterministic).
    pub fn neighbors(&self, node: NodeId) -> &[(InterfaceId, NodeId, InterfaceId)] {
        &self.adjacency[node.index()]
    }

    /// Degree (number of links) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Number of interfaces allocated on `node`.
    pub fn interface_count(&self, node: NodeId) -> u16 {
        self.if_counts[node.index()]
    }

    /// The peer `(node, interface)` reached by leaving `node` through
    /// `ifid`, or `None` if the interface is unconnected.
    pub fn peer_of(&self, node: NodeId, ifid: InterfaceId) -> Option<(NodeId, InterfaceId)> {
        self.adjacency[node.index()]
            .iter()
            .find(|(local, _, _)| *local == ifid)
            .map(|&(_, peer, pif)| (peer, pif))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_is_idempotent() {
        let mut t = Topology::new();
        let a = t.add_node("leaf0");
        let b = t.add_node("leaf0");
        assert_eq!(a, b);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.name(a), "leaf0");
        assert_eq!(t.node_by_name("leaf0"), Some(a));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn connect_builds_symmetric_adjacency() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l = t.connect(a, b);
        t.connect(a, c);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.degree(b), 1);
        assert_eq!(t.neighbors(b)[0].1, a);
        assert_eq!(l.from_node(a).unwrap().1, b);
        assert_eq!(l.from_node(b).unwrap().1, a);
        assert_eq!(l.from_node(c), None);
    }

    #[test]
    fn interfaces_are_dense_per_node() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.connect(a, b);
        t.connect(a, b); // parallel link
        assert_eq!(t.interface_count(a), 2);
        assert_eq!(t.interface_count(b), 2);
        let (ifa0, peer, pif) = t.neighbors(a)[0];
        assert_eq!((ifa0, peer, pif), (InterfaceId(0), b, InterfaceId(0)));
        assert_eq!(t.peer_of(a, InterfaceId(1)), Some((b, InterfaceId(1))));
        assert_eq!(t.peer_of(a, InterfaceId(9)), None);
    }

    #[test]
    fn nodes_iterates_in_insertion_order() {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..5).map(|i| t.add_node(format!("n{i}"))).collect();
        assert_eq!(t.nodes().collect::<Vec<_>>(), ids);
    }
}
