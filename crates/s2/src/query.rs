//! Verification requests: the user-facing form of the paper's
//! `(H, V_s, V_d, V_t)` query 4-tuple (§4.4).

use s2_net::topology::NodeId;
use s2_net::Prefix;
use s2_runtime::DpvQuery;
use std::sync::Arc;

/// What to verify on the converged data plane.
#[derive(Debug, Clone)]
pub struct VerificationRequest {
    /// Injection nodes (`V_s`).
    pub sources: Vec<NodeId>,
    /// Expected arrivals (`V_d` with their prefixes): every source must
    /// deliver each destination's prefixes to it.
    pub expected: Vec<(NodeId, Vec<Prefix>)>,
    /// The injected destination header space (`H`, destination dimension).
    pub dst_space: Prefix,
    /// Waypoint nodes every delivered packet must traverse (`V_t`).
    pub transits: Vec<NodeId>,
}

impl VerificationRequest {
    /// All-pair reachability among `endpoints`: every endpoint is both a
    /// source and an expected destination for its own prefixes.
    pub fn all_pair_reachability(
        endpoints: Vec<(NodeId, Vec<Prefix>)>,
        dst_space: Prefix,
    ) -> Self {
        VerificationRequest {
            sources: endpoints.iter().map(|(n, _)| *n).collect(),
            expected: endpoints,
            dst_space,
            transits: Vec::new(),
        }
    }

    /// Single-pair reachability: `src` must reach `dst`'s `prefix`.
    pub fn single_pair(src: NodeId, dst: NodeId, prefix: Prefix) -> Self {
        VerificationRequest {
            sources: vec![src],
            expected: vec![(dst, vec![prefix])],
            dst_space: prefix,
            transits: Vec::new(),
        }
    }

    /// Adds a waypoint constraint.
    pub fn via(mut self, transit: NodeId) -> Self {
        self.transits.push(transit);
        self
    }

    /// The runtime form of this request: shared handles on the sources
    /// and expectations, and each transit mapped to its metadata bit
    /// (bits `0..n` in `transits` order). Build it once per request —
    /// every DPV pass borrows the same handles.
    pub fn dpv_query(&self) -> DpvQuery {
        DpvQuery {
            sources: Arc::new(self.sources.clone()),
            expected: Arc::new(self.expected.clone()),
            dst_space: self.dst_space,
            waypoints: Arc::new(
                self.transits
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (n, i as u16))
                    .collect(),
            ),
        }
    }

    /// The number of `(source, destination)` pairs this request checks.
    pub fn pair_count(&self) -> usize {
        self.sources
            .iter()
            .map(|s| self.expected.iter().filter(|(d, _)| d != s).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pair_builder() {
        let endpoints = vec![
            (NodeId(0), vec!["10.0.0.0/24".parse().unwrap()]),
            (NodeId(1), vec!["10.0.1.0/24".parse().unwrap()]),
            (NodeId(2), vec!["10.0.2.0/24".parse().unwrap()]),
        ];
        let q = VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap());
        assert_eq!(q.sources.len(), 3);
        assert_eq!(q.pair_count(), 6);
        assert!(q.transits.is_empty());
    }

    #[test]
    fn single_pair_builder_with_waypoint() {
        let q = VerificationRequest::single_pair(NodeId(0), NodeId(5), "10.0.0.0/24".parse().unwrap())
            .via(NodeId(3));
        assert_eq!(q.pair_count(), 1);
        assert_eq!(q.transits, vec![NodeId(3)]);
        let dq = q.via(NodeId(1)).dpv_query();
        assert_eq!(*dq.sources, vec![NodeId(0)]);
        assert_eq!(dq.waypoints.get(&NodeId(3)), Some(&0));
        assert_eq!(dq.waypoints.get(&NodeId(1)), Some(&1));
    }
}
