//! Per-node load estimation (§4.1).
//!
//! The partitioner needs node weights *before* any simulation has run. For
//! standard FatTrees the paper uses closed forms — core and aggregation
//! switches process ≈ k³/2 routes, edge switches ≈ k³/4 — and for
//! nonstandard networks it assumes uniform loads. We detect roles from the
//! generator's hostname convention (`core*`, `pod*-agg*`, `pod*-edge*`);
//! anything else falls back to uniform.

use s2_net::topology::Topology;

/// The role of a switch in a FatTree, as far as load estimation cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatTreeRole {
    /// Core switch.
    Core,
    /// Aggregation switch.
    Aggregation,
    /// Edge (ToR) switch.
    Edge,
}

/// Parses the generator's hostname convention into a role.
pub fn role_of(name: &str) -> Option<FatTreeRole> {
    if name.starts_with("core") {
        Some(FatTreeRole::Core)
    } else if name.contains("-agg") {
        Some(FatTreeRole::Aggregation)
    } else if name.contains("-edge") {
        Some(FatTreeRole::Edge)
    } else {
        None
    }
}

/// The paper's closed-form route-count estimate for a FatTree with `k`
/// pods.
pub fn fattree_load(k: u64, role: FatTreeRole) -> u64 {
    match role {
        FatTreeRole::Core | FatTreeRole::Aggregation => k * k * k / 2,
        FatTreeRole::Edge => k * k * k / 4,
    }
}

/// Infers the FatTree parameter k from the topology, assuming the
/// generator's naming convention: k = number of distinct pods.
fn infer_k(topology: &Topology) -> Option<u64> {
    let mut pods = std::collections::BTreeSet::new();
    for n in topology.nodes() {
        let name = topology.name(n);
        if let Some(rest) = name.strip_prefix("pod") {
            if let Some((pod, _)) = rest.split_once('-') {
                pods.insert(pod.to_string());
            }
        }
    }
    if pods.is_empty() {
        None
    } else {
        Some(pods.len() as u64)
    }
}

/// Estimates the load of every node. FatTree names get closed-form
/// estimates; all other nodes get the uniform weight 1 — and if *any* node
/// is unrecognized, the whole network falls back to uniform (the paper's
/// behaviour for nonstandard networks like its DCN).
pub fn estimate_loads(topology: &Topology) -> Vec<u64> {
    let roles: Vec<Option<FatTreeRole>> = topology
        .nodes()
        .map(|n| role_of(topology.name(n)))
        .collect();
    if roles.iter().any(Option::is_none) {
        return vec![1; topology.node_count()];
    }
    let k = infer_k(topology).unwrap_or(4);
    roles
        .into_iter()
        .map(|r| fattree_load(k, r.expect("checked above")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parsing() {
        assert_eq!(role_of("core3"), Some(FatTreeRole::Core));
        assert_eq!(role_of("pod2-agg1"), Some(FatTreeRole::Aggregation));
        assert_eq!(role_of("pod2-edge0"), Some(FatTreeRole::Edge));
        assert_eq!(role_of("cl1-l3-s4"), None);
    }

    #[test]
    fn closed_forms_match_paper() {
        assert_eq!(fattree_load(4, FatTreeRole::Core), 32);
        assert_eq!(fattree_load(4, FatTreeRole::Aggregation), 32);
        assert_eq!(fattree_load(4, FatTreeRole::Edge), 16);
        // FatTree60 example from §2.2: k=60 → edge ≈ 54000.
        assert_eq!(fattree_load(60, FatTreeRole::Edge), 54000);
    }

    #[test]
    fn fattree_topology_gets_shaped_loads() {
        let mut t = Topology::new();
        t.add_node("core0");
        t.add_node("pod0-agg0");
        t.add_node("pod0-edge0");
        t.add_node("pod1-agg0");
        let loads = estimate_loads(&t);
        // k inferred = 2 pods → core/agg = 4, edge = 2.
        assert_eq!(loads, vec![4, 4, 2, 4]);
    }

    #[test]
    fn mixed_names_fall_back_to_uniform() {
        let mut t = Topology::new();
        t.add_node("core0");
        t.add_node("mystery-switch");
        assert_eq!(estimate_loads(&t), vec![1, 1]);
    }

    #[test]
    fn dcn_names_are_uniform() {
        let mut t = Topology::new();
        t.add_node("cl0-l0-s0");
        t.add_node("cl0-l1-s0");
        assert_eq!(estimate_loads(&t), vec![1, 1]);
    }
}
