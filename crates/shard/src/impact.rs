//! Impact analysis for link-failure scenarios.
//!
//! The resilience sweep (`s2::sweep`) enumerates every ≤k link-failure
//! set; most of them cannot change the verification outcome at all,
//! and many of the rest are interchangeable. This module reduces a
//! scenario to its *impact*: which of its failed links the baseline
//! actually forwards over (the **relevant set**), and which prefixes'
//! routing can be perturbed (closed over DPDG components, since a
//! dependent prefix can change whenever its dependee does). Two
//! scenarios with the same relevant set are **impact-equivalent** —
//! failing an unused link alongside a used one adds nothing — so the
//! sweep re-verifies one representative per class and shares the
//! verdict.

use crate::dpdg::Dpdg;
use s2_net::topology::{InterfaceId, Link, NodeId};
use s2_net::Prefix;
use s2_routing::RibSnapshot;
use std::collections::{BTreeMap, BTreeSet};

/// An undirected link as its two ports, normalised (smaller port first)
/// so a link has exactly one key regardless of orientation.
pub type LinkKey = ((NodeId, InterfaceId), (NodeId, InterfaceId));

/// The normalised [`LinkKey`] of a topology link.
pub fn link_key(link: &Link) -> LinkKey {
    if link.a <= link.b {
        (link.a, link.b)
    } else {
        (link.b, link.a)
    }
}

/// Which ports the baseline RIBs forward over, and the prefixes each
/// port serves — the index behind relevant-set reduction.
#[derive(Debug, Clone, Default)]
pub struct LinkUsage {
    by_port: BTreeMap<(NodeId, InterfaceId), BTreeSet<Prefix>>,
}

impl LinkUsage {
    /// Indexes a baseline RIB snapshot: every `(node, egress)` pair of
    /// every route is a used port serving that route's prefix.
    pub fn from_baseline(rib: &RibSnapshot) -> LinkUsage {
        let mut by_port: BTreeMap<(NodeId, InterfaceId), BTreeSet<Prefix>> = BTreeMap::new();
        for (n, routes) in rib.per_node.iter().enumerate() {
            let node = NodeId(n as u32);
            for r in routes.iter() {
                for &e in &r.egress {
                    by_port.entry((node, e)).or_default().insert(r.prefix);
                }
            }
        }
        LinkUsage { by_port }
    }

    /// Whether the baseline forwards over either port of `link`.
    pub fn is_used(&self, link: &LinkKey) -> bool {
        self.by_port.contains_key(&link.0) || self.by_port.contains_key(&link.1)
    }

    /// The prefixes whose baseline routes egress over either port of
    /// `link`.
    pub fn link_prefixes(&self, link: &LinkKey) -> BTreeSet<Prefix> {
        let mut out = BTreeSet::new();
        for port in [&link.0, &link.1] {
            if let Some(ps) = self.by_port.get(port) {
                out.extend(ps.iter().copied());
            }
        }
        out
    }

    /// Number of distinct used ports.
    pub fn used_ports(&self) -> usize {
        self.by_port.len()
    }
}

/// A scenario's impact against the baseline: its equivalence class and
/// the prefixes it can perturb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioImpact {
    /// The failed links the baseline actually uses, sorted — the
    /// impact-equivalence class key. Empty means the scenario cannot
    /// change any verdict (no baseline path crosses a failed link).
    pub relevant: Vec<LinkKey>,
    /// Prefixes whose routing can change, closed over DPDG components.
    pub affected_prefixes: BTreeSet<Prefix>,
}

impl ScenarioImpact {
    /// Whether the scenario provably leaves every verdict at baseline.
    pub fn is_baseline_equivalent(&self) -> bool {
        self.relevant.is_empty()
    }
}

/// Closes `affected` over the weakly connected components of `dpdg`:
/// any component touching the set is absorbed whole, since a dependent
/// prefix can change whenever its dependee does. No-op on an empty set.
///
/// Shared by the sweep's impact classes and the destination-scoped DPV
/// patcher, which both need the same "what else can this perturb"
/// closure before trusting a changed-prefix set. To close many sets
/// over one graph, build its [`Components`] once.
pub fn close_over_components(affected: &mut BTreeSet<Prefix>, dpdg: &Dpdg) {
    if !affected.is_empty() {
        Components::of(dpdg).close(affected);
    }
}

/// The weakly connected components of a DPDG, indexed by prefix: a set
/// closes over them in time proportional to its size and to the
/// components it touches, not to the graph.
#[derive(Debug, Clone)]
pub struct Components {
    members: Vec<Vec<Prefix>>,
    of: BTreeMap<Prefix, usize>,
}

impl Components {
    /// Computes and indexes the components of `dpdg`.
    pub fn of(dpdg: &Dpdg) -> Components {
        let members = dpdg.weakly_connected_components();
        let of = members
            .iter()
            .enumerate()
            .flat_map(|(c, ps)| ps.iter().map(move |&p| (p, c)))
            .collect();
        Components { members, of }
    }

    /// [`close_over_components`] over the indexed graph.
    pub fn close(&self, affected: &mut BTreeSet<Prefix>) {
        let touched: BTreeSet<usize> = affected.iter().filter_map(|p| self.of.get(p).copied()).collect();
        for c in touched {
            affected.extend(self.members[c].iter().copied());
        }
    }
}

/// Reduces a failure scenario to its impact: drops links the baseline
/// never forwards over, then closes the surviving links' prefixes over
/// the weakly connected components of `dpdg` (failing a dependee can
/// re-route every prefix in its component).
pub fn scenario_impact(scenario: &[LinkKey], usage: &LinkUsage, dpdg: &Dpdg) -> ScenarioImpact {
    let mut relevant: Vec<LinkKey> = scenario
        .iter()
        .copied()
        .filter(|l| usage.is_used(l))
        .collect();
    relevant.sort();
    relevant.dedup();
    let mut affected: BTreeSet<Prefix> = relevant
        .iter()
        .flat_map(|l| usage.link_prefixes(l))
        .collect();
    close_over_components(&mut affected, dpdg);
    ScenarioImpact {
        relevant,
        affected_prefixes: affected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::policy::Protocol;
    use s2_routing::RibRoute;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str, egress: &[u16]) -> RibRoute {
        RibRoute {
            prefix: p(prefix),
            protocol: Protocol::Bgp,
            egress: egress.iter().map(|&i| InterfaceId(i)).collect(),
            is_local: false,
            as_path_len: 1,
        }
    }

    fn key(a: u32, ai: u16, b: u32, bi: u16) -> LinkKey {
        ((NodeId(a), InterfaceId(ai)), (NodeId(b), InterfaceId(bi)))
    }

    /// Node 0 forwards 10.0.0.0/24 out of interface 0 (towards node 1);
    /// the 1—2 link carries nothing.
    fn usage() -> LinkUsage {
        LinkUsage::from_baseline(&RibSnapshot {
            per_node: [vec![route("10.0.0.0/24", &[0])], vec![], vec![]].map(Into::into).into(),
        })
    }

    fn flat_dpdg(prefixes: &[&str]) -> Dpdg {
        let set: BTreeSet<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        Dpdg::build(&set, &BTreeSet::new())
    }

    #[test]
    fn unused_links_are_baseline_equivalent() {
        let dpdg = flat_dpdg(&["10.0.0.0/24"]);
        let unused = key(1, 1, 2, 0);
        let impact = scenario_impact(&[unused], &usage(), &dpdg);
        assert!(impact.is_baseline_equivalent());
        assert!(impact.affected_prefixes.is_empty());
    }

    #[test]
    fn used_link_contributes_its_prefixes() {
        let dpdg = flat_dpdg(&["10.0.0.0/24"]);
        let used = key(0, 0, 1, 0);
        let impact = scenario_impact(&[used], &usage(), &dpdg);
        assert_eq!(impact.relevant, vec![used]);
        assert_eq!(
            impact.affected_prefixes,
            [p("10.0.0.0/24")].into_iter().collect()
        );
    }

    #[test]
    fn irrelevant_links_do_not_split_the_class() {
        // {used} and {used, unused} must reduce to the same class key.
        let dpdg = flat_dpdg(&["10.0.0.0/24"]);
        let used = key(0, 0, 1, 0);
        let unused = key(1, 1, 2, 0);
        let solo = scenario_impact(&[used], &usage(), &dpdg);
        let padded = scenario_impact(&[used, unused], &usage(), &dpdg);
        assert_eq!(solo.relevant, padded.relevant);
    }

    #[test]
    fn indexed_components_close_as_the_component_scan() {
        // Two aggregates over two contributors each, a lone prefix, and
        // a prefix outside the graph.
        let set: BTreeSet<Prefix> =
            ["10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/16", "10.1.0.0/24", "172.16.0.0/24"]
                .into_iter()
                .map(p)
                .collect();
        let aggs: BTreeSet<Prefix> = [p("10.0.0.0/16"), p("10.1.0.0/16")].into_iter().collect();
        let dpdg = Dpdg::build(&set, &aggs);
        let components = Components::of(&dpdg);
        for affected in [&[][..], &["10.0.1.0/24"], &["10.1.0.0/16", "172.16.0.0/24"], &["192.168.0.0/24"]] {
            let mut got: BTreeSet<Prefix> = affected.iter().map(|s| p(s)).collect();
            let mut want = got.clone();
            components.close(&mut got);
            for component in dpdg.weakly_connected_components() {
                if component.iter().any(|q| want.contains(q)) {
                    want.extend(component);
                }
            }
            assert_eq!(got, want, "{affected:?}");
        }
    }

    #[test]
    fn affected_prefixes_close_over_dpdg_components() {
        // 10.0.0.0/16 aggregates 10.0.0.0/24: perturbing the /24 can
        // (de)activate the /16, so both are affected.
        let set: BTreeSet<Prefix> = [p("10.0.0.0/16"), p("10.0.0.0/24"), p("192.168.0.0/24")]
            .into_iter()
            .collect();
        let aggs: BTreeSet<Prefix> = [p("10.0.0.0/16")].into_iter().collect();
        let dpdg = Dpdg::build(&set, &aggs);
        let impact = scenario_impact(&[key(0, 0, 1, 0)], &usage(), &dpdg);
        assert!(impact.affected_prefixes.contains(&p("10.0.0.0/16")));
        assert!(impact.affected_prefixes.contains(&p("10.0.0.0/24")));
        assert!(!impact.affected_prefixes.contains(&p("192.168.0.0/24")));
    }

    #[test]
    fn link_key_is_orientation_invariant() {
        let l = Link {
            a: (NodeId(3), InterfaceId(1)),
            b: (NodeId(1), InterfaceId(2)),
        };
        let r = Link { a: l.b, b: l.a };
        assert_eq!(link_key(&l), link_key(&r));
        assert_eq!(link_key(&l).0 .0, NodeId(1));
    }
}
