//! Property checking over forwarding results (§4.4).
//!
//! S2 supports five query types, all expressed over the final states of a
//! forwarding run: reachability, waypoint, multipath consistency,
//! loop-freedom and blackhole-freedom. This module is the one place a
//! verdict is decided: the workers, the controller and the monolithic
//! baseline all index their finals with [`arrivals`] and [`kind_unions`]
//! and judge them with [`judge_pair`] and [`multipath_inconsistent`].

use crate::forward::{FinalKind, FinalPacket};
use crate::packetspace::PacketSpace;
use s2_bdd::{Bdd, BddManager};
use s2_net::topology::NodeId;
use std::collections::BTreeMap;

/// Per-`(source, node)` union of the `Arrive` finals. Metadata bits are
/// kept: the waypoint check reads them.
pub fn arrivals(
    manager: &mut BddManager,
    finals: &[FinalPacket],
) -> BTreeMap<(NodeId, NodeId), Bdd> {
    let mut out: BTreeMap<(NodeId, NodeId), Bdd> = BTreeMap::new();
    for f in finals.iter().filter(|f| f.kind == FinalKind::Arrive) {
        let entry = out.entry((f.src, f.node)).or_insert(Bdd::FALSE);
        *entry = manager.or(*entry, f.set);
    }
    out
}

/// Per-`(source, kind)` union of the finals with the metadata bits
/// existentially quantified away: two fragments that took different
/// paths differ in waypoint bits even when they carry the same 5-tuple,
/// and the loop, blackhole and multipath verdicts are about the 5-tuple.
/// These are the sets the verdict bytes serialize.
pub fn kind_unions(
    manager: &mut BddManager,
    space: &PacketSpace,
    finals: &[FinalPacket],
) -> BTreeMap<(NodeId, FinalKind), Bdd> {
    let meta_vars: Vec<u16> = (0..space.meta_bits).map(|i| space.meta_var(i)).collect();
    let mut out: BTreeMap<(NodeId, FinalKind), Bdd> = BTreeMap::new();
    for f in finals {
        let stripped = manager.exists_all(f.set, meta_vars.iter().copied());
        let entry = out.entry((f.src, f.kind)).or_insert(Bdd::FALSE);
        *entry = manager.or(*entry, stripped);
    }
    out
}

/// The judgement of one `(source, destination)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairVerdict {
    /// Every wanted header arrived: `want ⊆ ∃meta. arrived`, whatever
    /// transits it crossed.
    pub reachable: bool,
    /// The transits whose metadata bit some arrived header lacks, in
    /// `transits` order: the waypoint violations.
    pub missed: Vec<NodeId>,
}

/// Judges one pair: `want` is the header set the destination must
/// receive (metadata free), `arrived` its `Arrive` union from
/// [`arrivals`] (metadata kept), `transits` each waypoint with its
/// metadata bit. Reachability is judged on `arrived` with the metadata
/// quantified away, as [`kind_unions`] builds it: a header whose every
/// copy crossed a transit, or none did, still arrived. Only the
/// waypoint test reads the metadata.
pub fn judge_pair(
    manager: &mut BddManager,
    space: &PacketSpace,
    want: Bdd,
    arrived: Bdd,
    transits: &[(NodeId, u16)],
) -> PairVerdict {
    let stripped = manager.exists_all(arrived, (0..space.meta_bits).map(|i| space.meta_var(i)));
    let reachable = manager.implies(want, stripped);
    let mut missed = Vec::new();
    for &(transit, bit) in transits {
        if space.with_meta(manager, arrived, bit) != arrived {
            missed.push(transit);
        }
    }
    PairVerdict { reachable, missed }
}

/// Multipath consistency (Batfish's property, §4.4) for one source:
/// given its per-kind sets (metadata quantified away, as
/// [`kind_unions`] builds them), whether two overlap — the same traffic
/// succeeds on one path and fails on another.
pub fn multipath_inconsistent(manager: &mut BddManager, kinds: &[Bdd]) -> bool {
    for (i, &a) in kinds.iter().enumerate() {
        for &b in &kinds[i + 1..] {
            if manager.intersects(a, b) {
                return true;
            }
        }
    }
    false
}

/// How one source's verdicts changed between a baseline run and a
/// failure-scenario run (resilience sweeps).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictDelta {
    /// Sources with headers that blackhole under the scenario but not in
    /// the baseline.
    pub new_blackholes: Vec<NodeId>,
    /// Sources with headers that loop under the scenario but not in the
    /// baseline.
    pub new_loops: Vec<NodeId>,
    /// Sources whose baseline-arriving headers no longer all arrive.
    pub lost_arrivals: Vec<NodeId>,
}

impl VerdictDelta {
    /// Whether the scenario preserved every baseline verdict.
    pub fn is_clean(&self) -> bool {
        self.new_blackholes.is_empty() && self.new_loops.is_empty() && self.lost_arrivals.is_empty()
    }

    /// Total number of per-source regressions.
    pub fn regressions(&self) -> usize {
        self.new_blackholes.len() + self.new_loops.len() + self.lost_arrivals.len()
    }
}

/// Diffs two collections of serialized per-`(source, kind)` verdict sets
/// (the `DpvRunStats::verdict_sets` shape: metadata already stripped,
/// sorted, one union per key). Decoding happens into `manager`, which
/// must cover the packet-space variables the sets were built over.
///
/// Semantics per source: a *new* blackhole/loop is scenario-set ∧
/// ¬baseline-set ≠ ∅; a *lost* arrival is baseline-arrive ∧
/// ¬scenario-arrive ≠ ∅. Exit finals are ignored (edge ports do not
/// change meaning under internal link failures).
pub fn verdict_delta(
    manager: &mut BddManager,
    baseline: &[(NodeId, FinalKind, Vec<u8>)],
    scenario: &[(NodeId, FinalKind, Vec<u8>)],
) -> Result<VerdictDelta, String> {
    let decode = |sets: &[(NodeId, FinalKind, Vec<u8>)],
                      manager: &mut BddManager|
     -> Result<BTreeMap<(NodeId, FinalKind), Bdd>, String> {
        let mut out: BTreeMap<(NodeId, FinalKind), Bdd> = BTreeMap::new();
        for (src, kind, bytes) in sets {
            let set = s2_bdd::serialize::from_bytes(manager, bytes)
                .map_err(|e| format!("verdict set for ({src}, {kind:?}): {e}"))?;
            let entry = out.entry((*src, *kind)).or_insert(Bdd::FALSE);
            *entry = manager.or(*entry, set);
        }
        Ok(out)
    };
    let base = decode(baseline, manager)?;
    let scen = decode(scenario, manager)?;

    let mut delta = VerdictDelta::default();
    let mut srcs: Vec<NodeId> = base.keys().chain(scen.keys()).map(|(s, _)| *s).collect();
    srcs.sort_unstable();
    srcs.dedup();
    let lookup = |m: &BTreeMap<(NodeId, FinalKind), Bdd>, src: NodeId, kind: FinalKind| {
        m.get(&(src, kind)).copied().unwrap_or(Bdd::FALSE)
    };
    for src in srcs {
        for (kind, out) in [
            (FinalKind::Blackhole, &mut delta.new_blackholes),
            (FinalKind::Loop, &mut delta.new_loops),
        ] {
            let b = lookup(&base, src, kind);
            let s = lookup(&scen, src, kind);
            if !manager.diff(s, b).is_false() {
                out.push(src);
            }
        }
        let b = lookup(&base, src, FinalKind::Arrive);
        let s = lookup(&scen, src, FinalKind::Arrive);
        if !manager.diff(b, s).is_false() {
            delta.lost_arrivals.push(src);
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::Fib;
    use crate::forward::{forward, ForwardOptions};
    use crate::predicates::NodePredicates;
    use s2_net::config::{DeviceConfig, InterfaceConfig, Vendor};
    use s2_net::policy::Protocol;
    use s2_net::topology::{InterfaceId, Topology};
    use s2_net::Ipv4Addr;
    use s2_routing::{NetworkModel, RibRoute};

    /// Diamond: s—(l,r)—d. Both paths lead to d, where 10.9/16 is local.
    fn diamond() -> NetworkModel {
        let mut topo = Topology::new();
        let s = topo.add_node("s");
        let l = topo.add_node("l");
        let r = topo.add_node("r");
        let d = topo.add_node("d");
        topo.connect(s, l);
        topo.connect(s, r);
        topo.connect(l, d);
        topo.connect(r, d);
        let ip = Ipv4Addr::new;
        let mk = |name: &str, ifaces: Vec<(&str, Ipv4Addr)>| {
            let mut cfg = DeviceConfig::new(name, Vendor::A);
            for (n, a) in ifaces {
                cfg.interfaces.push(InterfaceConfig::new(n, a, 31));
            }
            cfg
        };
        NetworkModel::build(
            topo,
            vec![
                mk("s", vec![("e0", ip(172, 16, 0, 0)), ("e1", ip(172, 16, 1, 0))]),
                mk("l", vec![("e0", ip(172, 16, 0, 1)), ("e1", ip(172, 16, 2, 0))]),
                mk("r", vec![("e0", ip(172, 16, 1, 1)), ("e1", ip(172, 16, 3, 0))]),
                mk("d", vec![("e0", ip(172, 16, 2, 1)), ("e1", ip(172, 16, 3, 1))]),
            ],
        )
        .unwrap()
    }

    fn rib(prefix: &str, egress: Vec<u16>, is_local: bool) -> RibRoute {
        RibRoute {
            prefix: prefix.parse().unwrap(),
            protocol: Protocol::Bgp,
            egress: egress.into_iter().map(InterfaceId).collect(),
            is_local,
            as_path_len: 0,
        }
    }

    /// What the judge functions decide about source s and destination d
    /// after forwarding all of 10.9/16 from s.
    struct Judged {
        pair: PairVerdict,
        unions: BTreeMap<(NodeId, FinalKind), Bdd>,
        multipath: bool,
    }

    fn run(
        model: &NetworkModel,
        ribs: Vec<Vec<RibRoute>>,
        transits: Vec<NodeId>,
        meta_bits: u16,
    ) -> Judged {
        let (s, d) = (NodeId(0), NodeId(3));
        let space = PacketSpace::new(meta_bits);
        let mut mgr = space.manager();
        let preds: Vec<NodePredicates> = ribs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                NodePredicates::compile(model, NodeId(i as u32), &Fib::from_rib(r), &space, &mut mgr)
            })
            .collect();
        let want = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let clear = space.meta_clear(&mut mgr);
        let h = mgr.and(clear, want);
        let transits: Vec<(NodeId, u16)> = transits.into_iter().zip(0..).collect();
        let opts = ForwardOptions {
            waypoint_bits: transits.iter().copied().collect(),
            ..Default::default()
        };
        let res = forward(&model.topology, &preds, &space, &mut mgr, vec![(s, h)], &opts);
        let arrived = arrivals(&mut mgr, &res.finals)
            .get(&(s, d))
            .copied()
            .unwrap_or(Bdd::FALSE);
        let pair = judge_pair(&mut mgr, &space, want, arrived, &transits);
        let unions = kind_unions(&mut mgr, &space, &res.finals);
        let sets: Vec<Bdd> = unions.values().copied().collect();
        let multipath = multipath_inconsistent(&mut mgr, &sets);
        Judged { pair, unions, multipath }
    }

    fn healthy_ribs() -> Vec<Vec<RibRoute>> {
        vec![
            vec![rib("10.9.0.0/16", vec![0, 1], false)], // s: ECMP via l and r
            vec![rib("10.9.0.0/16", vec![1], false)],    // l -> d
            vec![rib("10.9.0.0/16", vec![1], false)],    // r -> d
            vec![rib("10.9.0.0/16", vec![], true)],      // d local
        ]
    }

    fn kinds(judged: &Judged) -> Vec<FinalKind> {
        judged.unions.keys().map(|&(_, kind)| kind).collect()
    }

    #[test]
    fn reachability_holds_on_healthy_network() {
        let model = diamond();
        let judged = run(&model, healthy_ribs(), vec![], 0);
        assert_eq!(judged.pair, PairVerdict { reachable: true, missed: vec![] });
        assert_eq!(kinds(&judged), vec![FinalKind::Arrive]);
        assert!(!judged.multipath);
    }

    #[test]
    fn waypoint_violation_detected_on_bypass_path() {
        let model = diamond();
        // Transit required through l (node 1), but ECMP also goes via r.
        let judged = run(&model, healthy_ribs(), vec![NodeId(1)], 1);
        // The copy through r arrives without the l-bit: violation.
        assert_eq!(judged.pair, PairVerdict { reachable: true, missed: vec![NodeId(1)] });
        // The two copies differ only in the l-bit; quantified away, both
        // are one Arrive set, so the paths agree.
        assert_eq!(kinds(&judged), vec![FinalKind::Arrive]);
        assert!(!judged.multipath);
    }

    #[test]
    fn waypoint_satisfied_when_single_path() {
        let model = diamond();
        let mut ribs = healthy_ribs();
        ribs[0] = vec![rib("10.9.0.0/16", vec![0], false)]; // only via l
        let judged = run(&model, ribs, vec![NodeId(1)], 1);
        assert_eq!(kinds(&judged), vec![FinalKind::Arrive]);
        // No transit missed, and every arrived header carries the l-bit:
        // reachability quantifies the bit away, so the pair is reachable
        // although `want`, which leaves the bit free, is not ⊆ `arrived`.
        assert_eq!(judged.pair, PairVerdict { reachable: true, missed: vec![] });
    }

    #[test]
    fn multipath_inconsistency_detected() {
        let model = diamond();
        let mut ribs = healthy_ribs();
        // Break the right path: r drops the prefix.
        ribs[2] = vec![rib("10.9.0.0/16", vec![], false)];
        let judged = run(&model, ribs, vec![], 0);
        // Same headers arrive via l but blackhole via r: inconsistency,
        // though every wanted header still arrives.
        assert!(judged.pair.reachable);
        assert_eq!(kinds(&judged), vec![FinalKind::Arrive, FinalKind::Blackhole]);
        assert!(judged.multipath);
    }

    #[test]
    fn consistent_single_outcome_is_not_flagged() {
        let model = diamond();
        let mut ribs = healthy_ribs();
        // Both paths blackhole: consistent (all traffic fails equally).
        ribs[1] = vec![rib("10.9.0.0/16", vec![], false)];
        ribs[2] = vec![rib("10.9.0.0/16", vec![], false)];
        let judged = run(&model, ribs, vec![], 0);
        assert!(!judged.multipath);
        assert_eq!(judged.pair, PairVerdict { reachable: false, missed: vec![] });
    }

    #[test]
    fn partial_arrival_is_not_reachable() {
        let space = PacketSpace::new(1);
        let mut mgr = space.manager();
        let want = space.dst_in(&mut mgr, "10.9.0.0/16".parse().unwrap());
        let half = space.dst_in(&mut mgr, "10.9.0.0/17".parse().unwrap());
        let t = [(NodeId(7), 0)];
        assert!(judge_pair(&mut mgr, &space, want, want, &[]).reachable);
        assert!(!judge_pair(&mut mgr, &space, want, half, &[]).reachable);
        // Nothing arrived: nothing missed a transit either.
        assert_eq!(
            judge_pair(&mut mgr, &space, want, Bdd::FALSE, &t),
            PairVerdict { reachable: false, missed: vec![] }
        );
        let visited = space.set_meta(&mut mgr, half, 0);
        assert!(judge_pair(&mut mgr, &space, half, visited, &t).missed.is_empty());
    }

    #[test]
    fn verdict_delta_flags_regressions_only() {
        let space = PacketSpace::new(0);
        let mut mgr = space.manager();
        let p1 = space.dst_in(&mut mgr, "10.0.0.0/24".parse().unwrap());
        let p2 = space.dst_in(&mut mgr, "10.0.1.0/24".parse().unwrap());
        let both = mgr.or(p1, p2);
        let ser = |m: &BddManager, b: Bdd| s2_bdd::serialize::to_bytes(m, b);
        let s = NodeId(0);

        // Baseline: everything arrives, one pre-existing blackhole set.
        let baseline = vec![
            (s, FinalKind::Arrive, ser(&mgr, both)),
            (s, FinalKind::Blackhole, ser(&mgr, p2)),
        ];
        // Scenario: p1 stops arriving and newly blackholes; p2's
        // blackhole is pre-existing (not a regression).
        let scenario = vec![
            (s, FinalKind::Arrive, ser(&mgr, p2)),
            (s, FinalKind::Blackhole, ser(&mgr, both)),
        ];
        let d = verdict_delta(&mut mgr, &baseline, &scenario).unwrap();
        assert_eq!(d.new_blackholes, vec![s]);
        assert_eq!(d.lost_arrivals, vec![s]);
        assert!(d.new_loops.is_empty());
        assert_eq!(d.regressions(), 2);

        // Identical runs diff clean.
        let d = verdict_delta(&mut mgr, &baseline, &baseline).unwrap();
        assert!(d.is_clean());

        // A scenario that *fixes* a baseline blackhole is also clean.
        let improved = vec![(s, FinalKind::Arrive, ser(&mgr, both))];
        let d = verdict_delta(&mut mgr, &baseline, &improved).unwrap();
        assert!(d.is_clean());
    }
}
