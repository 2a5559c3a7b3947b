//! Destination scoping of a scenario DPV pass: which sources a changed
//! destination set can perturb, walked backwards over the baseline
//! forwarding graph.
//!
//! [`ScopeIndex`] is built once per scenario checkpoint, so a scenario
//! walks only the edges of routes whose prefix overlaps a changed one,
//! not every route of the baseline RIB.

use s2_net::topology::NodeId;
use s2_net::Prefix;
use s2_routing::{NetworkModel, RibSnapshot};
use std::collections::{BTreeMap, BTreeSet};

/// The baseline forwarding graph reversed, by route prefix: for each
/// prefix some baseline route carries, one `(peer, node)` edge per
/// egress of each such route, where `node` forwards into `peer`, sorted.
pub struct ScopeIndex {
    nodes: usize,
    edges: BTreeMap<Prefix, Vec<(u32, u32)>>,
}

impl ScopeIndex {
    /// Indexes every route of `base`.
    pub fn build(model: &NetworkModel, base: &RibSnapshot) -> Self {
        let mut edges: BTreeMap<Prefix, Vec<(u32, u32)>> = BTreeMap::new();
        for (m, routes) in base.per_node.iter().enumerate() {
            let from = NodeId(m as u32);
            // Per local interface, the peer it faces.
            let mut peer = vec![None; model.topology.interface_count(from) as usize];
            for &(local, n, _) in model.topology.neighbors(from) {
                peer[local.0 as usize] = Some(n.0);
            }
            for r in routes.iter().filter(|r| !r.egress.is_empty()) {
                let list = edges.entry(r.prefix).or_default();
                let peers = r
                    .egress
                    .iter()
                    .filter_map(|e| peer.get(e.0 as usize).copied().flatten());
                list.extend(peers.map(|n| (n, m as u32)));
            }
        }
        edges.retain(|_, list| !list.is_empty());
        edges.values_mut().for_each(|e| e.sort_unstable());
        ScopeIndex {
            nodes: base.per_node.len(),
            edges,
        }
    }

    /// The edge lists of every indexed prefix that overlaps `p`: the
    /// shorter prefixes covering it, then the range of prefixes it
    /// covers (in `(address, length)` order these start at `p` and end
    /// before the first address past it).
    fn overlapping(&self, p: Prefix) -> impl Iterator<Item = &[(u32, u32)]> {
        let covering =
            (0..p.len()).filter_map(move |len| self.edges.get(&Prefix::new(p.addr(), len)));
        let covered = self
            .edges
            .range(p..=Prefix::host(p.last_addr()))
            .map(|(_, e)| e);
        covering.chain(covered).map(Vec::as_slice)
    }
}

/// Per-source changed-destination scopes: changed prefix `p` lands in
/// `scope(s)` iff `s` can reach a node whose forwarding for `p` changed,
/// walking the *baseline* forwarding graph restricted to routes whose
/// prefix overlaps `p` — every hop a packet destined into `p` could
/// take before the first changed node. Outside its scope a source
/// provably forwards exactly as the baseline did: any path from `s` to
/// a destination not in `scope(s)` crosses only nodes whose behaviour
/// for that destination is unchanged, so the baseline verdict stands.
pub fn scope_sources(
    index: &ScopeIndex,
    changed_dst: &BTreeMap<NodeId, BTreeSet<Prefix>>,
    sources: &[NodeId],
) -> BTreeMap<NodeId, BTreeSet<Prefix>> {
    let nodes = index.nodes;
    let mut scopes: BTreeMap<NodeId, BTreeSet<Prefix>> =
        sources.iter().map(|&s| (s, BTreeSet::new())).collect();
    for (p, seeds) in by_prefix(changed_dst) {
        // The reverse adjacency of the p-overlap forwarding graph.
        let lists: Vec<&[(u32, u32)]> = index.overlapping(p).collect();
        let reached = reach(nodes, &seeds, |n| {
            lists.iter().flat_map(move |list| {
                let from = list.partition_point(|e| e.0 < n);
                list[from..]
                    .iter()
                    .take_while(move |e| e.0 == n)
                    .map(|e| e.1)
            })
        });
        for (s, scope) in scopes.iter_mut() {
            if reached.get(s.index()).copied().unwrap_or(false) {
                scope.insert(p);
            }
        }
    }
    scopes
}

/// Inverts `changed_dst`: changed prefix → the nodes changed for it.
fn by_prefix(changed_dst: &BTreeMap<NodeId, BTreeSet<Prefix>>) -> BTreeMap<Prefix, Vec<NodeId>> {
    let mut by_prefix: BTreeMap<Prefix, Vec<NodeId>> = BTreeMap::new();
    for (&n, ps) in changed_dst {
        for &p in ps {
            by_prefix.entry(p).or_default().push(n);
        }
    }
    by_prefix
}

/// The nodes of `0..nodes` that reach a seed, given each node's
/// predecessors.
fn reach<I: Iterator<Item = u32>>(
    nodes: usize,
    seeds: &[NodeId],
    mut preds: impl FnMut(u32) -> I,
) -> Vec<bool> {
    let mut reached = vec![false; nodes];
    let mut queue: Vec<u32> = Vec::new();
    for &s in seeds {
        if s.index() < nodes && !reached[s.index()] {
            reached[s.index()] = true;
            queue.push(s.0);
        }
    }
    while let Some(n) = queue.pop() {
        for m in preds(n) {
            if !reached[m as usize] {
                reached[m as usize] = true;
                queue.push(m);
            }
        }
    }
    reached
}

/// The unindexed walk [`scope_sources`] replaced: for each changed
/// prefix, a reverse graph built from a scan of every baseline route.
/// The oracle of the indexed one.
#[cfg(test)]
pub(crate) fn scope_sources_scan(
    model: &NetworkModel,
    base: &RibSnapshot,
    changed_dst: &BTreeMap<NodeId, BTreeSet<Prefix>>,
    sources: &[NodeId],
) -> BTreeMap<NodeId, BTreeSet<Prefix>> {
    let nodes = base.per_node.len();
    let mut scopes: BTreeMap<NodeId, BTreeSet<Prefix>> =
        sources.iter().map(|&s| (s, BTreeSet::new())).collect();
    for (p, seeds) in by_prefix(changed_dst) {
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for m in 0..nodes {
            let from = NodeId(m as u32);
            for r in base.node(from) {
                if !r.prefix.overlaps(p) {
                    continue;
                }
                for &e in &r.egress {
                    if let Some((n, _)) = model.topology.peer_of(from, e) {
                        rev[n.index()].push(m as u32);
                    }
                }
            }
        }
        let reached = reach(nodes, &seeds, |n| rev[n as usize].iter().copied());
        for (s, scope) in scopes.iter_mut() {
            if reached.get(s.index()).copied().unwrap_or(false) {
                scope.insert(p);
            }
        }
    }
    scopes
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::config::{DeviceConfig, Vendor};
    use s2_net::policy::Protocol;
    use s2_net::topology::{InterfaceId, Topology};
    use s2_routing::RibRoute;
    use std::sync::Arc;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The overlap lookup finds exactly the indexed prefixes that
    /// overlap the query: covering, equal and covered ones, none beside.
    #[test]
    fn overlapping_finds_covering_and_covered_prefixes_only() {
        let indexed = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.3.0/24",
            "10.2.0.0/16",
            "10.1.255.255/32",
            "10.2.0.0/32",
            "11.0.0.0/8",
        ];
        let index = ScopeIndex {
            nodes: 1,
            edges: indexed
                .iter()
                .enumerate()
                .map(|(i, p)| (pfx(p), vec![(i as u32, 0)]))
                .collect(),
        };
        for query in [
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.0.0.0/7",
            "10.1.2.7/32",
            "12.0.0.0/8",
            "0.0.0.0/0",
        ] {
            let q = pfx(query);
            let mut got: Vec<&str> = index
                .overlapping(q)
                .flatten()
                .map(|&(i, _)| indexed[i as usize])
                .collect();
            got.sort_unstable();
            let mut want: Vec<&str> = indexed
                .iter()
                .copied()
                .filter(|p| pfx(p).overlaps(q))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "{query}");
        }
    }

    /// A line n0 → n1 → n2 for a /16 at n2 and, on n1 only, a covered
    /// /24 and a covering /8: a change at n2 reaches every node for the
    /// /16, and only n1 for a /24 no other node routes.
    #[test]
    fn scopes_equal_the_scan_on_a_line_with_nested_routes() {
        let mut topo = Topology::new();
        let n: Vec<NodeId> = ["n0", "n1", "n2"]
            .iter()
            .map(|s| topo.add_node(*s))
            .collect();
        topo.connect(n[0], n[1]);
        topo.connect(n[1], n[2]);
        let configs = ["n0", "n1", "n2"]
            .map(|s| DeviceConfig::new(s, Vendor::A))
            .to_vec();
        let model = NetworkModel::build(topo, configs).unwrap();
        let via = |from: NodeId, to: NodeId| -> InterfaceId {
            model
                .topology
                .neighbors(from)
                .iter()
                .find(|(_, m, _)| *m == to)
                .unwrap()
                .0
        };
        let route = |p: &str, egress: Vec<InterfaceId>| RibRoute {
            prefix: pfx(p),
            protocol: Protocol::Static,
            egress,
            is_local: false,
            as_path_len: 0,
        };
        let base = RibSnapshot {
            per_node: vec![
                Arc::from([route("10.1.0.0/16", vec![via(n[0], n[1])])]),
                Arc::from([
                    route("10.0.0.0/8", vec![via(n[1], n[0])]),
                    route("10.1.0.0/16", vec![via(n[1], n[2])]),
                    route("10.1.7.0/24", vec![via(n[1], n[2])]),
                ]),
                Arc::from([]),
            ],
        };
        let index = ScopeIndex::build(&model, &base);
        let sources = [n[0], n[1], n[2]];
        for (changed, want) in [
            ("10.1.0.0/16", vec![0, 1, 2]),
            ("10.1.7.0/24", vec![0, 1, 2]),
            ("10.9.0.0/16", vec![2]),
        ] {
            let changed_dst = BTreeMap::from([(n[2], BTreeSet::from([pfx(changed)]))]);
            let scopes = scope_sources(&index, &changed_dst, &sources);
            assert_eq!(
                scopes,
                scope_sources_scan(&model, &base, &changed_dst, &sources),
                "{changed}"
            );
            let got: Vec<usize> = scopes
                .iter()
                .filter(|(_, ps)| !ps.is_empty())
                .map(|(s, _)| s.index())
                .collect();
            assert_eq!(got, want, "{changed}");
        }
    }
}
