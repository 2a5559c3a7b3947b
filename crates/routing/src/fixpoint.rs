//! The synchronous fix-point engine (Algorithm 1 of the paper).
//!
//! Rounds are Jacobi-style: all advertisements are computed from the state
//! at the start of the round, then delivered and applied. This makes the
//! converged result independent of node iteration order and of how nodes
//! are spread over workers — the property behind the paper's claim that S2
//! and Batfish "output the same set of RIBs" (§5.3). [`converge_bgp`], the
//! Batfish-like baseline's fix point, hosts every switch in one
//! [`BgpRounds`]; each worker hosts its own nodes in another and ships
//! the remote deliveries. This module's tests check the engine split
//! over two halves against the all-local run, and against a plain
//! re-export-everything loop round by round.

use crate::model::NetworkModel;
use crate::rounds::{BgpRounds, Sequential};
use crate::switch::SwitchModel;
use s2_net::Prefix;
use std::collections::BTreeSet;

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// The fix point was not reached within the round budget (the paper's
    /// §7 limitation: a non-converging control plane cannot terminate).
    NotConverged {
        /// Which protocol failed to converge.
        protocol: &'static str,
        /// The round budget that was exhausted.
        rounds: usize,
    },
    /// A worker exceeded its memory budget (used by the distributed
    /// runtime and the OOM-aware benchmarks).
    OutOfMemory {
        /// The memory budget in bytes.
        budget: usize,
        /// Observed peak in bytes.
        observed: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::NotConverged { protocol, rounds } => {
                write!(f, "{protocol} did not converge within {rounds} rounds")
            }
            RoutingError::OutOfMemory { budget, observed } => {
                write!(f, "out of memory: {observed} bytes used, budget {budget}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Statistics from one BGP fix-point run (one shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BgpStats {
    /// Rounds until convergence.
    pub rounds: usize,
    /// Advertised routes delivered in total (message volume); a body
    /// equal to the one last sent on a session is not delivered.
    pub routes_exchanged: usize,
    /// Peak of the summed per-switch BGP memory estimate (Adj-RIB-Ins and
    /// local RIBs, not the Adj-RIB-Out), in bytes.
    pub peak_bytes: usize,
    /// Total installed paths at convergence.
    pub total_paths: usize,
}

/// Default round budget: generous for any realistic DC diameter.
pub const DEFAULT_MAX_ROUNDS: usize = 256;

/// Runs OSPF on all switches to convergence (monolithic).
pub fn converge_ospf(
    model: &NetworkModel,
    switches: &mut [SwitchModel],
    max_rounds: usize,
) -> Result<usize, RoutingError> {
    for round in 0..max_rounds {
        let exports: Vec<_> = switches.iter().map(|s| s.ospf.export()).collect();
        let mut changed = false;
        for node in model.topology.nodes() {
            for adj in &model.ospf_adj[node.index()] {
                let adv = &exports[adj.peer_node.index()];
                changed |= switches[node.index()]
                    .ospf
                    .receive(adv, adj.cost, adj.local_if);
            }
        }
        if !changed {
            return Ok(round + 1);
        }
    }
    Err(RoutingError::NotConverged {
        protocol: "ospf",
        rounds: max_rounds,
    })
}

/// Runs BGP on all switches to convergence for one (optional) prefix
/// shard, every peer hosted in one [`BgpRounds`]. `begin_bgp` must not
/// have been called by the caller — this function does it. `switches`
/// come back in node order.
pub fn converge_bgp(
    switches: &mut Vec<SwitchModel>,
    shard: Option<&BTreeSet<Prefix>>,
    max_rounds: usize,
) -> Result<BgpStats, RoutingError> {
    let mut rounds = BgpRounds::new(std::mem::take(switches));
    rounds.begin(shard);
    #[cfg(test)]
    tests::check_round(rounds.switches(), shard, true);
    let mut stats = BgpStats::default();
    let mut converged = false;
    while !converged && stats.rounds < max_rounds {
        stats.routes_exchanged += rounds.export(&Sequential, |_, _| {});
        converged = !rounds.receive_and_decide(&Sequential, Vec::new(), shard);
        #[cfg(test)]
        tests::check_round(rounds.switches(), shard, false);
        stats.peak_bytes = stats.peak_bytes.max(rounds.switch_bytes());
        stats.rounds += 1;
    }
    stats.total_paths = rounds.switches().map(SwitchModel::loc_rib_path_count).sum();
    *switches = rounds.into_switches();
    if !converged {
        return Err(RoutingError::NotConverged {
            protocol: "bgp",
            rounds: max_rounds,
        });
    }
    Ok(stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use s2_net::config::{
        Aggregate, BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, Vendor,
    };
    use s2_net::policy::community;
    use crate::switch::oracle;
    use s2_net::config::ConditionalAdvertisement;
    use s2_net::topology::{NodeId, Topology};
    use s2_net::Ipv4Addr;
    use std::cell::RefCell;

    thread_local! {
        /// Per switch, the dependencies the from-scratch decision process
        /// observed since the last `begin_bgp` on this thread.
        static ORACLE_DEPS: RefCell<Vec<BTreeSet<(Prefix, Prefix)>>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Runs after `begin_bgp` (`begun`) and after every round of every
    /// `converge_bgp` in this crate's tests: each switch's local RIB must
    /// be the one a selection over all of its candidates builds, and its
    /// running byte sums what a walk of the materialised state finds.
    pub(super) fn check_round<'a>(
        switches: impl Iterator<Item = &'a SwitchModel> + Clone,
        shard: Option<&BTreeSet<Prefix>>,
        begun: bool,
    ) {
        ORACLE_DEPS.with(|all| {
            let mut all = all.borrow_mut();
            if begun {
                *all = switches
                    .clone()
                    .map(|s| s.prefix_dependencies().into_iter().collect())
                    .collect();
            }
            for (s, deps) in switches.zip(all.iter_mut()) {
                let (rib, observed) = oracle::decide(s, shard);
                assert_eq!(*s.loc_rib(), rib, "{}: RIB differs from a full decide", s.node);
                assert_eq!(s.approx_bgp_bytes(), oracle::walked_bytes(s), "{}", s.node);
                deps.extend(observed);
            }
        });
    }

    /// A 4-node line: t0(65000) — m1(65001) — m2(65002) — t3(65003).
    /// t0 originates 10.0.0.0/24 and 10.0.1.0/24; m2 aggregates 10.0.0.0/16
    /// summary-only with a community tag.
    fn line_with_aggregation() -> NetworkModel {
        let mut topo = Topology::new();
        let names = ["t0", "m1", "m2", "t3"];
        let ids: Vec<NodeId> = names.iter().map(|n| topo.add_node(*n)).collect();
        topo.connect(ids[0], ids[1]);
        topo.connect(ids[1], ids[2]);
        topo.connect(ids[2], ids[3]);

        let link_subnets = [
            (Ipv4Addr::new(172, 16, 0, 0), Ipv4Addr::new(172, 16, 0, 1)),
            (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(172, 16, 0, 3)),
            (Ipv4Addr::new(172, 16, 0, 4), Ipv4Addr::new(172, 16, 0, 5)),
        ];

        let mut cfgs: Vec<DeviceConfig> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut c = DeviceConfig::new(*n, Vendor::A);
                c.bgp = Some(BgpProcess::new(
                    65000 + i as u32,
                    Ipv4Addr::new(1, 1, 1, i as u8 + 1),
                ));
                c
            })
            .collect();

        let add_link = |cfgs: &mut Vec<DeviceConfig>, i: usize, j: usize, li: usize| {
            let (ai, aj) = link_subnets[li];
            let ifname_i = format!("eth{li}_a");
            let ifname_j = format!("eth{li}_b");
            cfgs[i].interfaces.push(InterfaceConfig::new(ifname_i, ai, 31));
            cfgs[j].interfaces.push(InterfaceConfig::new(ifname_j, aj, 31));
            let asn_i = cfgs[i].bgp.as_ref().unwrap().asn;
            let asn_j = cfgs[j].bgp.as_ref().unwrap().asn;
            cfgs[i].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
                peer: aj,
                remote_as: asn_j,
                import_policy: None,
                export_policy: None,
                remove_private_as: false,
            });
            cfgs[j].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
                peer: ai,
                remote_as: asn_i,
                import_policy: None,
                export_policy: None,
                remove_private_as: false,
            });
        };
        add_link(&mut cfgs, 0, 1, 0);
        add_link(&mut cfgs, 1, 2, 1);
        add_link(&mut cfgs, 2, 3, 2);

        for p in ["10.0.0.0/24", "10.0.1.0/24"] {
            cfgs[0]
                .bgp
                .as_mut()
                .unwrap()
                .networks
                .push(Network { prefix: p.parse().unwrap() });
        }
        cfgs[2].bgp.as_mut().unwrap().aggregates.push(Aggregate {
            prefix: "10.0.0.0/16".parse().unwrap(),
            summary_only: true,
            communities: vec![community(65000, 99)],
        });

        NetworkModel::build(topo, cfgs).unwrap()
    }

    fn fresh(model: &NetworkModel) -> Vec<SwitchModel> {
        model.topology.nodes().map(|n| SwitchModel::new(model, n)).collect()
    }

    fn run(model: &NetworkModel) -> (Vec<SwitchModel>, BgpStats) {
        let mut switches = fresh(model);
        let stats = converge_bgp(&mut switches, None, DEFAULT_MAX_ROUNDS).unwrap();
        (switches, stats)
    }

    #[test]
    fn routes_propagate_end_to_end() {
        let model = line_with_aggregation();
        let (switches, stats) = run(&model);
        assert!(stats.rounds >= 3, "needs at least diameter rounds");
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        // m1 and m2 learn the specific.
        assert_eq!(switches[1].loc_rib()[&p].best.route.as_path, vec![65000].into());
        assert_eq!(switches[2].loc_rib()[&p].best.route.as_path, vec![65001, 65000].into());
    }

    #[test]
    fn summary_only_aggregate_suppresses_specifics_downstream() {
        let model = line_with_aggregation();
        let (switches, _) = run(&model);
        let spec: Prefix = "10.0.0.0/24".parse().unwrap();
        let agg: Prefix = "10.0.0.0/16".parse().unwrap();
        // m2 has both the specifics and the active aggregate.
        assert!(switches[2].loc_rib().contains_key(&spec));
        assert!(switches[2].loc_rib().contains_key(&agg));
        // t3 sees only the aggregate, tagged with the community.
        assert!(!switches[3].loc_rib().contains_key(&spec));
        let t3_agg = &switches[3].loc_rib()[&agg].best.route;
        assert_eq!(t3_agg.as_path, vec![65002].into());
        assert!(t3_agg.has_community(community(65000, 99)));
        // Upstream (m1) still sees the specifics — they arrived from t0
        // directly, and the aggregate also propagates backwards.
        assert!(switches[1].loc_rib().contains_key(&spec));
    }

    #[test]
    fn sharded_union_equals_unsharded() {
        let model = line_with_aggregation();
        let (unsharded, _) = run(&model);

        // Shard 1: the aggregate and its contributors; shard 2: empty-ish.
        // Dependencies force all three prefixes into one shard; we emulate
        // the planner's output here.
        let mut shard1: BTreeSet<Prefix> = BTreeSet::new();
        shard1.insert("10.0.0.0/24".parse().unwrap());
        shard1.insert("10.0.1.0/24".parse().unwrap());
        shard1.insert("10.0.0.0/16".parse().unwrap());

        let mut switches = fresh(&model);
        converge_bgp(&mut switches, Some(&shard1), DEFAULT_MAX_ROUNDS).unwrap();
        for node in model.topology.nodes() {
            assert_eq!(
                switches[node.index()].loc_rib(),
                unsharded[node.index()].loc_rib(),
                "node {node} differs"
            );
        }
    }

    #[test]
    fn stats_track_volume_and_memory() {
        let model = line_with_aggregation();
        let (_, stats) = run(&model);
        assert!(stats.routes_exchanged > 0);
        assert!(stats.peak_bytes > 0);
        assert!(stats.total_paths >= 8);
    }

    /// The conditional-advertisement fixture: primary (originates
    /// 10.1.0.0/24) — mid — backup, which advertises 10.9.0.0/24 only
    /// while 10.1.0.0/24 is absent from its RIB.
    fn conditional_net() -> NetworkModel {
        let mut topo = Topology::new();
        let names = ["primary", "mid", "backup"];
        let ids: Vec<NodeId> = names.iter().map(|n| topo.add_node(*n)).collect();
        topo.connect(ids[0], ids[1]);
        topo.connect(ids[1], ids[2]);
        let mut cfgs: Vec<DeviceConfig> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut c = DeviceConfig::new(*n, Vendor::A);
                let router_id = Ipv4Addr::new(1, 1, 1, i as u8 + 1);
                c.bgp = Some(BgpProcess::new(65001 + i as u32, router_id));
                c
            })
            .collect();
        for (li, (i, j)) in [(0usize, 1usize), (1, 2)].into_iter().enumerate() {
            let ai = Ipv4Addr::new(172, 16, 0, 2 * li as u8);
            let aj = Ipv4Addr::new(172, 16, 0, 2 * li as u8 + 1);
            cfgs[i].interfaces.push(InterfaceConfig::new(format!("e{li}a"), ai, 31));
            cfgs[j].interfaces.push(InterfaceConfig::new(format!("e{li}b"), aj, 31));
            for (from, peer, remote) in [(i, aj, j), (j, ai, i)] {
                cfgs[from].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
                    peer,
                    remote_as: 65001 + remote as u32,
                    import_policy: None,
                    export_policy: None,
                    remove_private_as: false,
                });
            }
        }
        let p = |s: &str| -> Prefix { s.parse().unwrap() };
        cfgs[0].bgp.as_mut().unwrap().networks.push(Network { prefix: p("10.1.0.0/24") });
        let backup = cfgs[2].bgp.as_mut().unwrap();
        backup.networks.push(Network { prefix: p("10.9.0.0/24") });
        backup.conditional.push(ConditionalAdvertisement {
            advertise: p("10.9.0.0/24"),
            condition: p("10.1.0.0/24"),
            when_present: false,
        });
        NetworkModel::build(topo, cfgs).unwrap()
    }

    /// The FatTree, the DCN (aggregates, route-maps) and the conditional
    /// advertisement.
    fn test_nets() -> [NetworkModel; 3] {
        let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(4));
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        [
            NetworkModel::build(ft.topology, ft.configs).unwrap(),
            NetworkModel::build(dcn.topology, dcn.configs).unwrap(),
            conditional_net(),
        ]
    }

    /// The plain Jacobi round, kept as the engine's oracle:
    /// every switch exports every class to every member's peer, and every
    /// switch receives, then runs `decide` (its `bgp_decide`). Returns
    /// whether anything changed.
    pub(crate) fn reference_round(
        switches: &mut [SwitchModel],
        mut decide: impl FnMut(&mut SwitchModel) -> bool,
    ) -> bool {
        let mut deliveries: Vec<Vec<(u32, crate::rounds::Body)>> = vec![Vec::new(); switches.len()];
        for s in switches.iter() {
            for class in s.bgp_export() {
                for &si in &class.sessions {
                    let session = &s.sessions[si];
                    deliveries[session.peer_node.index()]
                        .push((session.peer_session_index, class.routes.clone()));
                }
            }
        }
        let mut changed = false;
        for (s, batch) in switches.iter_mut().zip(deliveries) {
            for (si, body) in batch {
                changed |= s.bgp_receive(si as usize, &body);
            }
            changed |= decide(s);
        }
        changed
    }

    /// One round over engines hosting the nodes dealt alternately (node
    /// `n` on engine `n mod len`), each remote delivery carried to the
    /// engine hosting its target. Returns whether anything changed.
    fn round(fleet: &mut [BgpRounds], shard: Option<&BTreeSet<Prefix>>) -> bool {
        let len = fleet.len();
        let mut inboxes: Vec<Vec<crate::rounds::Delivery>> = vec![Vec::new(); len];
        for engine in fleet.iter_mut() {
            engine.export(&Sequential, |body, targets| {
                for &(n, s) in targets {
                    inboxes[n.index() % len].push((n, s, body.clone()));
                }
            });
        }
        let halves = fleet.iter_mut().zip(inboxes);
        halves.fold(false, |c, (e, inbox)| e.receive_and_decide(&Sequential, inbox, shard) | c)
    }

    /// Runs the engine and the reference from equal states to their fix
    /// point in lockstep: every round both must report the same `changed`
    /// and hold the same local RIBs, and the engine passes `check_round`.
    fn lockstep(engine: &mut BgpRounds, reference: &mut [SwitchModel], shard: Option<&BTreeSet<Prefix>>) {
        for r in 1..=DEFAULT_MAX_ROUNDS {
            let changed = round(std::slice::from_mut(engine), shard);
            let decided = reference_round(reference, |s| s.bgp_decide(shard, &mut Vec::new()));
            assert_eq!(changed, decided, "round {r}");
            for (e, re) in engine.switches().zip(reference.iter()) {
                assert_eq!(e.loc_rib(), re.loc_rib(), "round {r}: {}", e.node);
            }
            check_round(engine.switches(), shard, false);
            if !changed {
                return;
            }
        }
        panic!("no fix point in {DEFAULT_MAX_ROUNDS} rounds");
    }

    /// Unsharded, then two shards that split aggregates from some of
    /// their contributors, then warm after failing every link of the
    /// first node: the engine skips clean switches and unchanged bodies,
    /// the reference does not, and no round may tell them apart.
    #[test]
    fn engine_matches_the_reference_round_by_round() {
        for model in &test_nets() {
            let mut engine = BgpRounds::new(fresh(model));
            let mut reference = fresh(model);
            let all: BTreeSet<Prefix> =
                reference.iter().flat_map(|s| s.originated_prefixes()).map(|(p, _)| p).collect();
            let halves: [BTreeSet<Prefix>; 2] =
                [0, 1].map(|h| all.iter().skip(h).step_by(2).copied().collect());
            let shards = [None, Some(&halves[0]), Some(&halves[1])];
            for shard in shards {
                engine.begin(shard);
                reference.iter_mut().for_each(|s| s.begin_bgp(shard));
                check_round(engine.switches(), shard, true);
                lockstep(&mut engine, &mut reference, shard);
                drain_and_compare_deps(engine.switches_mut(|_| true));
                drain_and_compare_deps(reference.iter_mut());
            }
            let node = NodeId(0);
            let ports: Vec<_> =
                model.topology.neighbors(node).iter().map(|(i, _, _)| (node, *i)).collect();
            engine.set_failed_ports(model, &ports);
            reference[0].set_failed_interfaces(model, ports.iter().map(|p| p.1));
            ORACLE_DEPS.with(|all| all.borrow_mut().iter_mut().for_each(BTreeSet::clear));
            lockstep(&mut engine, &mut reference, shards[2]);
            // Only the reference: after a drain the engine re-observes a
            // switch's aggregates at its next decide, and a warm round
            // decides only the switches it perturbs.
            drain_and_compare_deps(reference.iter_mut());
        }
    }

    /// The engine split over two node halves, the remote deliveries
    /// carried across: the RIBs and the round count of the all-local run.
    #[test]
    fn split_fleet_equals_the_all_local_run() {
        for model in &test_nets() {
            let (local, stats) = run(model);
            let (even, odd): (Vec<_>, Vec<_>) =
                fresh(model).into_iter().partition(|s| s.node.index() % 2 == 0);
            let mut fleet = [BgpRounds::new(even), BgpRounds::new(odd)];
            fleet.iter_mut().for_each(|half| half.begin(None));
            let rounds = (1..=DEFAULT_MAX_ROUNDS).find(|_| !round(&mut fleet, None));
            assert_eq!(rounds, Some(stats.rounds));
            let mut split: Vec<SwitchModel> =
                fleet.into_iter().flat_map(BgpRounds::into_switches).collect();
            split.sort_by_key(|s| s.node);
            for (s, l) in split.iter().zip(&local) {
                assert_eq!(s.loc_rib(), l.loc_rib(), "{}", s.node);
            }
        }
    }

    /// Each switch's drained dependencies must be the full decide's.
    fn drain_and_compare_deps<'a>(switches: impl Iterator<Item = &'a mut SwitchModel>) {
        ORACLE_DEPS.with(|all| {
            for (s, want) in switches.zip(all.borrow().iter()) {
                let got: BTreeSet<_> = s.take_observed_deps().into_iter().collect();
                assert_eq!(got, *want, "{}: observed dependencies", s.node);
            }
        });
    }

    /// The CP work of FatTree k=8, unsharded and over three shards, and
    /// of the DCN: a switch-model or round-engine change that keeps the
    /// RIBs must keep the rounds, the delivered routes, the installed
    /// paths and the charged peak too.
    #[test]
    fn work_counts_are_pinned() {
        let stats = |rounds, routes_exchanged, peak_bytes, total_paths| BgpStats {
            rounds,
            routes_exchanged,
            peak_bytes,
            total_paths,
        };
        let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(8));
        let ft = NetworkModel::build(ft.topology, ft.configs).unwrap();
        assert_eq!(run(&ft).1, stats(6, 18048, 2082688, 8224), "FatTree k=8");
        let mut switches = fresh(&ft);
        let all: BTreeSet<Prefix> = switches
            .iter()
            .flat_map(|s| s.originated_prefixes())
            .map(|(p, _)| p)
            .collect();
        let sharded: Vec<BgpStats> = (0..3)
            .map(|h| {
                let shard: BTreeSet<Prefix> = all.iter().skip(h).step_by(3).copied().collect();
                converge_bgp(&mut switches, Some(&shard), DEFAULT_MAX_ROUNDS).unwrap()
            })
            .collect();
        assert_eq!(
            sharded,
            [
                stats(6, 6184, 715924, 2827),
                stats(6, 6184, 715924, 2827),
                stats(6, 5616, 650840, 2570)
            ],
            "FatTree k=8, 3 shards"
        );
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        let dcn = NetworkModel::build(dcn.topology, dcn.configs).unwrap();
        assert_eq!(run(&dcn).1, stats(9, 1876, 114592, 604), "DCN");
    }

    #[test]
    fn zero_round_budget_fails() {
        let model = line_with_aggregation();
        assert!(matches!(
            converge_bgp(&mut fresh(&model), None, 0),
            Err(RoutingError::NotConverged { protocol: "bgp", .. })
        ));
    }
}
