//! The partition schemes evaluated in §5.6: `metis` (our greedy+refine
//! substitute), `random`, `expert`, and the two adversarial extremes
//! `imbalanced` and `comm-heavy`.

use crate::estimate::{estimate_loads, role_of, FatTreeRole};
use crate::greedy::{partition as greedy_partition, GreedyOptions};
use crate::{Partition, WorkerId};
use s2_net::rng::SeededRng;
use s2_net::topology::Topology;

/// A partition scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Load-balanced graph partitioning (the METIS role; default).
    Metis,
    /// Shuffle all switches evenly across segments.
    Random {
        /// RNG seed so experiments are repeatable.
        seed: u64,
    },
    /// Topology-aware manual strategy: FatTree pods stay together with
    /// cores spread round-robin; other networks are name-sorted and
    /// chunked (the operators' heuristic for the real DCN).
    Expert,
    /// Adversarial: ~3/4 of all switches on worker 0, the rest spread
    /// evenly (§5.6's load-imbalance extreme).
    Imbalanced,
    /// Adversarial: aggregation switches separated from core+edge so
    /// almost every FatTree link crosses workers (§5.6's
    /// communication-heavy extreme).
    CommHeavy,
}

impl Scheme {
    /// Human-readable name used by the benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Metis => "metis",
            Scheme::Random { .. } => "random",
            Scheme::Expert => "expert",
            Scheme::Imbalanced => "imbalanced",
            Scheme::CommHeavy => "comm-heavy",
        }
    }
}

/// Computes the partition of `topology` into `num_workers` segments under
/// `scheme`.
pub fn compute(topology: &Topology, num_workers: u32, scheme: Scheme) -> Partition {
    let n = topology.node_count();
    if num_workers <= 1 {
        return Partition::new(vec![0; n], 1);
    }
    match scheme {
        Scheme::Metis => {
            let loads = estimate_loads(topology);
            greedy_partition(topology, &loads, num_workers, &GreedyOptions::default())
        }
        Scheme::Random { seed } => {
            let mut order: Vec<usize> = (0..n).collect();
            SeededRng::seed_from_u64(seed).shuffle(&mut order);
            let mut assignment = vec![0 as WorkerId; n];
            for (pos, node) in order.into_iter().enumerate() {
                assignment[node] = (pos % num_workers as usize) as WorkerId;
            }
            Partition::new(assignment, num_workers)
        }
        Scheme::Expert => expert(topology, num_workers),
        Scheme::Imbalanced => {
            let mut assignment = vec![0 as WorkerId; n];
            let big = n * 3 / 4;
            for (i, a) in assignment.iter_mut().enumerate().skip(big) {
                let others = (num_workers - 1).max(1) as usize;
                *a = 1 + ((i - big) % others) as WorkerId;
            }
            Partition::new(assignment, num_workers)
        }
        Scheme::CommHeavy => comm_heavy(topology, num_workers),
    }
}

/// Expert strategy: FatTree pods are kept together (pod p → worker
/// p mod W), cores spread round-robin; for non-FatTree networks the
/// name-sorted node list is chunked evenly — the paper's heuristic that
/// "switches whose names have similar prefixes are more likely adjacent".
fn expert(topology: &Topology, num_workers: u32) -> Partition {
    let n = topology.node_count();
    let mut assignment = vec![0 as WorkerId; n];
    let is_fattree = topology
        .nodes()
        .all(|nd| role_of(topology.name(nd)).is_some());
    if is_fattree {
        let mut core_counter = 0u32;
        for node in topology.nodes() {
            let name = topology.name(node);
            assignment[node.index()] = match role_of(name) {
                Some(FatTreeRole::Core) => {
                    let w = core_counter % num_workers;
                    core_counter += 1;
                    w
                }
                _ => {
                    // pod<p>-suffix
                    let pod: u32 = name
                        .strip_prefix("pod")
                        .and_then(|r| r.split('-').next())
                        .and_then(|p| p.parse().ok())
                        .unwrap_or(0);
                    pod % num_workers
                }
            };
        }
    } else {
        let mut names: Vec<(String, usize)> = topology
            .nodes()
            .map(|nd| (topology.name(nd).to_string(), nd.index()))
            .collect();
        names.sort();
        let chunk = n.div_ceil(num_workers as usize);
        for (pos, (_, idx)) in names.into_iter().enumerate() {
            assignment[idx] = (pos / chunk) as WorkerId;
        }
    }
    Partition::new(assignment, num_workers)
}

/// Communication-heavy strategy: aggregation switches go to the upper half
/// of workers, cores and edges to the lower half, so every edge–agg and
/// agg–core link crosses workers on a FatTree. Non-FatTree networks get an
/// alternating assignment (also cut-maximizing for chains/meshes).
fn comm_heavy(topology: &Topology, num_workers: u32) -> Partition {
    let n = topology.node_count();
    let half = (num_workers / 2).max(1);
    let mut assignment = vec![0 as WorkerId; n];
    let mut low_counter = 0u32;
    let mut high_counter = 0u32;
    for node in topology.nodes() {
        let name = topology.name(node);
        assignment[node.index()] = match role_of(name) {
            Some(FatTreeRole::Aggregation) => {
                let w = half + (high_counter % (num_workers - half));
                high_counter += 1;
                w
            }
            Some(_) => {
                let w = low_counter % half;
                low_counter += 1;
                w
            }
            None => {
                let w = (node.index() as u32) % num_workers;
                low_counter += 1;
                w
            }
        };
    }
    Partition::new(assignment, num_workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::topology::NodeId;

    /// A toy 2-pod FatTree naming layout: 2 cores, 2 pods × (1 agg + 1
    /// edge), fully meshed pod-internally and agg-core.
    fn mini_fattree() -> Topology {
        let mut t = Topology::new();
        let c0 = t.add_node("core0");
        let c1 = t.add_node("core1");
        let a0 = t.add_node("pod0-agg0");
        let e0 = t.add_node("pod0-edge0");
        let a1 = t.add_node("pod1-agg0");
        let e1 = t.add_node("pod1-edge0");
        t.connect(a0, e0);
        t.connect(a1, e1);
        t.connect(c0, a0);
        t.connect(c0, a1);
        t.connect(c1, a0);
        t.connect(c1, a1);
        t
    }

    #[test]
    fn all_schemes_cover_every_node() {
        let t = mini_fattree();
        for scheme in [
            Scheme::Metis,
            Scheme::Random { seed: 7 },
            Scheme::Expert,
            Scheme::Imbalanced,
            Scheme::CommHeavy,
        ] {
            let p = compute(&t, 2, scheme);
            assert_eq!(p.assignment.len(), 6, "{}", scheme.name());
            assert_eq!(p.sizes().iter().sum::<usize>(), 6);
        }
    }

    #[test]
    fn random_is_even_and_seeded() {
        let t = mini_fattree();
        let p1 = compute(&t, 3, Scheme::Random { seed: 42 });
        let p2 = compute(&t, 3, Scheme::Random { seed: 42 });
        assert_eq!(p1, p2);
        let sizes = p1.sizes();
        assert_eq!(sizes, vec![2, 2, 2]);
        let p3 = compute(&t, 3, Scheme::Random { seed: 43 });
        // Different seed very likely differs (fixed-seed check keeps this
        // deterministic).
        assert_ne!(p1.assignment, p3.assignment);
    }

    #[test]
    fn expert_keeps_pods_together() {
        let t = mini_fattree();
        let p = compute(&t, 2, Scheme::Expert);
        assert_eq!(p.worker_of(NodeId(2)), p.worker_of(NodeId(3)), "pod0 split");
        assert_eq!(p.worker_of(NodeId(4)), p.worker_of(NodeId(5)), "pod1 split");
        assert_ne!(p.worker_of(NodeId(2)), p.worker_of(NodeId(4)));
    }

    #[test]
    fn imbalanced_puts_three_quarters_on_zero() {
        let mut t = Topology::new();
        for i in 0..8 {
            t.add_node(format!("n{i}"));
        }
        let p = compute(&t, 4, Scheme::Imbalanced);
        assert_eq!(p.sizes()[0], 6);
        let loads = vec![1u64; 8];
        assert!(p.load_imbalance(&loads) > 2.0);
    }

    #[test]
    fn comm_heavy_separates_aggs() {
        let t = mini_fattree();
        let p = compute(&t, 2, Scheme::CommHeavy);
        // Aggs on worker 1, cores/edges on worker 0 → every link crosses.
        assert_eq!(p.edge_cut(&t), t.link_count());
    }

    #[test]
    fn metis_beats_random_on_cut() {
        let t = mini_fattree();
        let metis = compute(&t, 2, Scheme::Metis);
        let ch = compute(&t, 2, Scheme::CommHeavy);
        assert!(metis.edge_cut(&t) <= ch.edge_cut(&t));
    }

    #[test]
    fn single_worker_short_circuits() {
        let t = mini_fattree();
        let p = compute(&t, 1, Scheme::Random { seed: 1 });
        assert!(p.assignment.iter().all(|&w| w == 0));
    }

    #[test]
    fn expert_chunk_for_dcn_names() {
        let mut t = Topology::new();
        for c in 0..2 {
            for s in 0..3 {
                t.add_node(format!("cl{c}-l0-s{s}"));
            }
        }
        let p = compute(&t, 2, Scheme::Expert);
        // Sorted names chunked: cl0-* together, cl1-* together.
        assert_eq!(p.worker_of(NodeId(0)), p.worker_of(NodeId(1)));
        assert_ne!(p.worker_of(NodeId(0)), p.worker_of(NodeId(5)));
    }
}
