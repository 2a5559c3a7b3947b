//! # s2-partition
//!
//! Network partitioning for S2 (§4.1): splits the topology into segments,
//! one per worker, prioritizing **balanced load** over minimal edge cut —
//! the paper's measurements (Fig. 7) show S2's performance is dominated by
//! load balance, with inter-worker communication a distant second.
//!
//! * [`estimate`] — per-node load estimation (FatTree closed forms k³/2 and
//!   k³/4, uniform fallback for nonstandard networks),
//! * [`greedy`] — the balanced greedy partitioner with Kernighan–Lin-style
//!   boundary refinement (the METIS substitute),
//! * [`schemes`] — the evaluation's partition schemes: `metis`, `random`,
//!   `expert`, plus the two adversarial extremes `imbalanced` and
//!   `comm-heavy` (§5.6).

#![deny(missing_docs)]

pub mod estimate;
pub mod greedy;
pub mod schemes;

use s2_net::topology::{NodeId, Topology};

/// Identifier of a worker (= segment index).
pub type WorkerId = u32;

/// An assignment of every node to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[node] = worker`.
    pub assignment: Vec<WorkerId>,
    /// Number of workers.
    pub num_workers: u32,
}

impl Partition {
    /// Validates and wraps an assignment.
    ///
    /// # Panics
    /// Panics if any worker index is out of range.
    pub fn new(assignment: Vec<WorkerId>, num_workers: u32) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        assert!(
            assignment.iter().all(|&w| w < num_workers),
            "worker index out of range"
        );
        Partition {
            assignment,
            num_workers,
        }
    }

    /// The worker hosting `node`.
    #[inline]
    pub fn worker_of(&self, node: NodeId) -> WorkerId {
        self.assignment[node.index()]
    }

    /// Nodes assigned to `worker`, in id order.
    pub fn nodes_of(&self, worker: WorkerId) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &w)| w == worker)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of nodes per worker.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_workers as usize];
        for &w in &self.assignment {
            sizes[w as usize] += 1;
        }
        sizes
    }

    /// Number of topology links whose endpoints live on different workers
    /// (the communication cost proxy).
    pub fn edge_cut(&self, topology: &Topology) -> usize {
        topology
            .links()
            .iter()
            .filter(|l| self.worker_of(l.a.0) != self.worker_of(l.b.0))
            .count()
    }

    /// Load imbalance: max worker load / mean worker load, given per-node
    /// loads. 1.0 is perfectly balanced.
    pub fn load_imbalance(&self, loads: &[u64]) -> f64 {
        let mut per_worker = vec![0u64; self.num_workers as usize];
        for (i, &w) in self.assignment.iter().enumerate() {
            per_worker[w as usize] += loads[i];
        }
        let total: u64 = per_worker.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.num_workers as f64;
        let max = *per_worker.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..n).map(|i| t.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            t.connect(w[0], w[1]);
        }
        t
    }

    #[test]
    fn partition_accessors() {
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.worker_of(NodeId(2)), 1);
        assert_eq!(p.nodes_of(0), vec![NodeId(0), NodeId(1)]);
        assert_eq!(p.sizes(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_worker_rejected() {
        Partition::new(vec![0, 2], 2);
    }

    #[test]
    fn edge_cut_counts_cross_links() {
        let t = line(4);
        // 0-1 | 2-3: one cut link (1-2).
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_cut(&t), 1);
        // Alternating: all 3 links cut.
        let p = Partition::new(vec![0, 1, 0, 1], 2);
        assert_eq!(p.edge_cut(&t), 3);
    }

    #[test]
    fn imbalance_metric() {
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let loads = vec![1, 1, 1, 1];
        assert!((p.load_imbalance(&loads) - 1.5).abs() < 1e-9);
        let balanced = Partition::new(vec![0, 0, 1, 1], 2);
        assert!((balanced.load_imbalance(&loads) - 1.0).abs() < 1e-9);
        assert_eq!(balanced.load_imbalance(&[0, 0, 0, 0]), 1.0);
    }
}
