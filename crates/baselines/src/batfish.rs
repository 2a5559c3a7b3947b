//! The monolithic baseline verifier (the Batfish role).
//!
//! One logical server: a single fix-point engine over all switches and a
//! single BDD manager for the whole data plane. Everything — switch
//! models, policies, predicates, forwarding — is shared with S2; only the
//! execution strategy differs, which is exactly how the paper built S2 on
//! top of Batfish. An optional memory budget models the `-Xmx` limit of a
//! logical server: a run whose tracked peak exceeds the budget fails with
//! [`RoutingError::OutOfMemory`], which is how the benchmarks reproduce
//! "Batfish cannot scale past FatTree40" at our scaled-down sizes.

use s2_bdd::Bdd;
use s2_dataplane::{
    forward, properties, FinalKind, Fib, ForwardOptions, NodePredicates, PacketSpace,
};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use s2_routing::{
    converge_bgp, converge_ospf, NetworkModel, RibSnapshot, RibStore, RoutingError, SwitchModel,
    DEFAULT_MAX_ROUNDS,
};
use s2_shard::ShardPlan;
use s2_obs::Stopwatch;
use std::time::Duration;

/// Options for the monolithic run.
#[derive(Debug, Clone)]
pub struct MonolithicOptions {
    /// Number of prefix shards; 0 or 1 disables sharding.
    pub shards: usize,
    /// Seed for the shard planner's equal-size shuffle.
    pub shard_seed: u64,
    /// Memory budget in (model-tracked) bytes; `None` = unlimited.
    pub memory_budget: Option<usize>,
    /// Fix-point round budget.
    pub max_rounds: usize,
    /// Links (as node pairs, either orientation) to fail *before*
    /// convergence — the brute-force oracle for the resilience sweep:
    /// a cold full re-verify under the failure, against which the warm
    /// incremental path is checked.
    pub failed_links: Vec<(NodeId, NodeId)>,
}

impl Default for MonolithicOptions {
    fn default() -> Self {
        MonolithicOptions {
            shards: 1,
            shard_seed: 7,
            memory_budget: None,
            max_rounds: DEFAULT_MAX_ROUNDS,
            failed_links: Vec::new(),
        }
    }
}

/// Resolves failed node-pair links to the `(node, interface)` ports on
/// both ends. Pairs that match no topology link are ignored.
pub fn failed_ports(
    model: &NetworkModel,
    failed_links: &[(NodeId, NodeId)],
) -> Vec<(NodeId, InterfaceId)> {
    let mut ports = Vec::new();
    for link in model.topology.links() {
        let ends = (link.a.0, link.b.0);
        if failed_links
            .iter()
            .any(|&(a, b)| ends == (a, b) || ends == (b, a))
        {
            ports.push(link.a);
            ports.push(link.b);
        }
    }
    ports
}

/// Control-plane statistics.
#[derive(Debug, Clone, Default)]
pub struct CpStats {
    /// OSPF rounds to convergence.
    pub ospf_rounds: usize,
    /// Total BGP rounds across shards.
    pub bgp_rounds: usize,
    /// Number of shards executed.
    pub shards: usize,
    /// Peak tracked route memory (bytes) across shards — per-shard state
    /// is freed between shards, so this is a max, not a sum.
    pub peak_route_bytes: usize,
    /// Total installed paths (the paper's "number of routes").
    pub total_paths: usize,
    /// Wall-clock time of the control-plane phase.
    pub elapsed: Duration,
}

/// Data-plane verification report.
#[derive(Debug, Clone, Default)]
pub struct DpvReport {
    /// `(src, dst)` pairs whose expected prefixes fully arrived.
    pub reachable_pairs: usize,
    /// Pairs with missing reachability.
    pub unreachable_pairs: Vec<(NodeId, NodeId)>,
    /// Number of sources with looping traffic.
    pub loops: usize,
    /// Number of sources with blackholed traffic.
    pub blackholed_sources: usize,
    /// Forwarding steps executed.
    pub steps: usize,
    /// Peak BDD bytes.
    pub bdd_peak_bytes: usize,
    /// Time spent compiling predicates.
    pub pred_time: Duration,
    /// Time spent forwarding symbolic packets.
    pub fwd_time: Duration,
}

/// Full report of a monolithic verification run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// The final RIBs (identical to S2's, by construction and by test).
    pub rib: RibSnapshot,
    /// Control-plane statistics.
    pub cp: CpStats,
    /// Data-plane statistics.
    pub dpv: DpvReport,
}

/// Simulates the control plane on a single logical server, with optional
/// prefix sharding, returning the final RIBs.
pub fn simulate_control_plane(
    model: &NetworkModel,
    opts: &MonolithicOptions,
) -> Result<(RibSnapshot, CpStats), RoutingError> {
    let start = Stopwatch::start();
    let mut switches: Vec<SwitchModel> = model
        .topology
        .nodes()
        .map(|n| SwitchModel::new(model, n))
        .collect();
    if !opts.failed_links.is_empty() {
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<InterfaceId>> =
            std::collections::BTreeMap::new();
        for (node, iface) in failed_ports(model, &opts.failed_links) {
            by_node.entry(node).or_default().push(iface);
        }
        for (node, ifaces) in by_node {
            switches[node.index()].set_failed_interfaces(model, ifaces);
        }
    }

    let mut stats = CpStats {
        ospf_rounds: converge_ospf(model, &mut switches, opts.max_rounds)?,
        ..CpStats::default()
    };

    let plan = if opts.shards <= 1 {
        ShardPlan::single(s2_shard::collect_prefixes(&switches))
    } else {
        s2_shard::plan(&switches, opts.shards, opts.shard_seed)
    };
    stats.shards = plan.shards.len();

    let mut store = RibStore::new(model.topology.node_count());
    for node in model.topology.nodes() {
        store.insert_all(node, switches[node.index()].base_rib_routes());
    }

    for shard in &plan.shards {
        let bgp_stats = converge_bgp(&mut switches, Some(shard), opts.max_rounds)?;
        stats.bgp_rounds += bgp_stats.rounds;
        stats.peak_route_bytes = stats.peak_route_bytes.max(bgp_stats.peak_bytes);
        stats.total_paths += bgp_stats.total_paths;
        if let Some(budget) = opts.memory_budget {
            if bgp_stats.peak_bytes > budget {
                return Err(RoutingError::OutOfMemory {
                    budget,
                    observed: bgp_stats.peak_bytes,
                });
            }
        }
        // Flush the shard's results to the persistent store, then the
        // in-memory state is dropped when the next shard begins.
        for node in model.topology.nodes() {
            store.insert_all(node, switches[node.index()].bgp_rib_routes());
        }
    }

    stats.elapsed = start.elapsed();
    Ok((store.into_snapshot(), stats))
}

/// Runs data-plane verification on a single BDD manager: compiles every
/// node's predicates, injects the full `dst_space` at each source, and
/// checks that each `(source, destination)` pair's expected prefixes
/// arrive. `expected[d]` lists the prefixes destination `d` must receive.
pub fn run_dpv(
    model: &NetworkModel,
    rib: &RibSnapshot,
    sources: &[NodeId],
    expected: &[(NodeId, Vec<Prefix>)],
    dst_space: Prefix,
    budget: Option<usize>,
) -> Result<DpvReport, RoutingError> {
    run_dpv_with_failures(model, rib, sources, expected, dst_space, budget, &[])
}

/// [`run_dpv`] with a set of failed ports masked in the forwarding step
/// (traffic whose egress lands on a failed port blackholes there) — the
/// data-plane half of the resilience-sweep oracle.
pub fn run_dpv_with_failures(
    model: &NetworkModel,
    rib: &RibSnapshot,
    sources: &[NodeId],
    expected: &[(NodeId, Vec<Prefix>)],
    dst_space: Prefix,
    budget: Option<usize>,
    failed: &[(NodeId, InterfaceId)],
) -> Result<DpvReport, RoutingError> {
    let space = PacketSpace::new(0);
    let mut manager = space.manager();
    let mut report = DpvReport::default();
    let fwd_opts = ForwardOptions {
        failed_ports: failed.iter().copied().collect(),
        ..ForwardOptions::default()
    };

    let t0 = Stopwatch::start();
    let preds: Vec<NodePredicates> = model
        .topology
        .nodes()
        .map(|n| {
            let fib = Fib::from_rib(rib.node(n));
            NodePredicates::compile(model, n, &fib, &space, &mut manager)
        })
        .collect();
    report.pred_time = t0.elapsed();

    let t1 = Stopwatch::start();
    let inject_set = space.dst_in(&mut manager, dst_space);
    for &src in sources {
        let result = forward(
            &model.topology,
            &preds,
            &space,
            &mut manager,
            vec![(src, inject_set)],
            &fwd_opts,
        );
        report.steps += result.steps;
        // Finals are never empty, so one final of a kind is a non-empty
        // `(src, kind)` union: the count S2's workers report, without
        // building the unions.
        let has = |kind| usize::from(result.of_kind(kind).next().is_some());
        report.loops += has(FinalKind::Loop);
        report.blackholed_sources += has(FinalKind::Blackhole);
        let arrivals = properties::arrivals(&mut manager, &result.finals);
        for (dst, prefixes) in expected {
            if *dst == src {
                continue;
            }
            let arrived = arrivals.get(dst).copied().unwrap_or(Bdd::FALSE);
            let arrived = result.of_source(&mut manager, src, arrived);
            let want = space.dst_in_any(&mut manager, prefixes);
            if properties::judge_pair(&mut manager, &space, want, arrived, &[]).reachable {
                report.reachable_pairs += 1;
            } else {
                report.unreachable_pairs.push((src, *dst));
            }
        }
        report.bdd_peak_bytes = report.bdd_peak_bytes.max(manager.approx_bytes());
        if let Some(b) = budget {
            if manager.approx_bytes() > b {
                return Err(RoutingError::OutOfMemory {
                    budget: b,
                    observed: manager.approx_bytes(),
                });
            }
        }
    }
    report.fwd_time = t1.elapsed();
    Ok(report)
}

/// Full monolithic verification: control plane, then all-pair reachability
/// over `sources` (each source must receive every other source's expected
/// prefixes).
pub fn verify(
    model: &NetworkModel,
    sources: &[(NodeId, Vec<Prefix>)],
    dst_space: Prefix,
    opts: &MonolithicOptions,
) -> Result<BaselineReport, RoutingError> {
    let (rib, cp) = simulate_control_plane(model, opts)?;
    let src_nodes: Vec<NodeId> = sources.iter().map(|(n, _)| *n).collect();
    let dpv = run_dpv_with_failures(
        model,
        &rib,
        &src_nodes,
        sources,
        dst_space,
        opts.memory_budget,
        &failed_ports(model, &opts.failed_links),
    )?;
    Ok(BaselineReport { rib, cp, dpv })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

    fn fattree_model(k: usize) -> (NetworkModel, Vec<(NodeId, Vec<Prefix>)>) {
        let ft = generate(FatTreeParams::new(k));
        let sources: Vec<(NodeId, Vec<Prefix>)> = (0..k)
            .flat_map(|p| {
                let ft = &ft;
                (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
            })
            .collect();
        let model = NetworkModel::build(ft.topology, ft.configs).unwrap();
        (model, sources)
    }

    #[test]
    fn fattree4_all_pairs_reachable() {
        let (model, sources) = fattree_model(4);
        let report = verify(
            &model,
            &sources,
            "10.0.0.0/8".parse().unwrap(),
            &MonolithicOptions::default(),
        )
        .unwrap();
        let n = sources.len();
        assert_eq!(report.dpv.reachable_pairs, n * (n - 1), "{:?}", report.dpv.unreachable_pairs);
        assert_eq!(report.dpv.loops, 0);
        assert!(report.cp.total_paths > 0);
        // Every edge holds every server prefix (8 prefixes × 20 switches).
        assert!(report.rib.total_routes() >= 8 * 20);
    }

    #[test]
    fn sharded_run_produces_identical_ribs() {
        let (model, _) = fattree_model(4);
        let (rib1, s1) = simulate_control_plane(&model, &MonolithicOptions::default()).unwrap();
        let opts = MonolithicOptions {
            shards: 4,
            ..Default::default()
        };
        let (rib4, s4) = simulate_control_plane(&model, &opts).unwrap();
        assert_eq!(rib1, rib4);
        assert_eq!(s4.shards, 4);
        // Sharding lowers the peak (each shard holds ~1/4 of the routes).
        assert!(
            s4.peak_route_bytes < s1.peak_route_bytes,
            "sharded {} !< unsharded {}",
            s4.peak_route_bytes,
            s1.peak_route_bytes
        );
        // ...but costs extra rounds overall.
        assert!(s4.bgp_rounds > s1.bgp_rounds);
    }

    #[test]
    fn memory_budget_triggers_oom() {
        let (model, _) = fattree_model(4);
        let opts = MonolithicOptions {
            memory_budget: Some(1), // absurdly small
            ..Default::default()
        };
        assert!(matches!(
            simulate_control_plane(&model, &opts),
            Err(RoutingError::OutOfMemory { .. })
        ));
    }

    /// The failed-link oracle: one agg uplink of an edge survives via
    /// the other (ECMP), but failing *both* isolates the edge entirely.
    #[test]
    fn failed_links_reverify_cold() {
        let ft = generate(FatTreeParams::new(4));
        let (model, sources) = fattree_model(4);
        let victim = ft.edge(0, 0);
        let n = sources.len();

        let one = MonolithicOptions {
            failed_links: vec![(victim, ft.agg(0, 0))],
            ..Default::default()
        };
        let report = verify(&model, &sources, "10.0.0.0/8".parse().unwrap(), &one).unwrap();
        assert_eq!(
            report.dpv.reachable_pairs,
            n * (n - 1),
            "ECMP must survive a single uplink failure: {:?}",
            report.dpv.unreachable_pairs
        );

        let both = MonolithicOptions {
            failed_links: vec![(victim, ft.agg(0, 0)), (victim, ft.agg(0, 1))],
            ..Default::default()
        };
        let report = verify(&model, &sources, "10.0.0.0/8".parse().unwrap(), &both).unwrap();
        // Every pair that starts or ends at the isolated edge is lost.
        assert_eq!(report.dpv.reachable_pairs, (n - 1) * (n - 2));
        assert!(report
            .dpv
            .unreachable_pairs
            .iter()
            .all(|&(s, d)| s == victim || d == victim));
    }

    #[test]
    fn broken_origination_is_detected() {
        let ft = generate(FatTreeParams::new(4));
        let mut configs = ft.configs.clone();
        s2_topogen::inject::drop_network_statement(
            &mut configs,
            "pod0-edge0",
            FatTree::server_prefix(0, 0),
        );
        let sources: Vec<(NodeId, Vec<Prefix>)> = (0..4)
            .flat_map(|p| {
                let ft = &ft;
                (0..2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
            })
            .collect();
        let model = NetworkModel::build(ft.topology.clone(), configs).unwrap();
        let report = verify(
            &model,
            &sources,
            "10.0.0.0/8".parse().unwrap(),
            &MonolithicOptions::default(),
        )
        .unwrap();
        // Every other edge fails to reach pod0-edge0.
        let victim = ft.edge(0, 0);
        assert_eq!(report.dpv.unreachable_pairs.len(), 7);
        assert!(report.dpv.unreachable_pairs.iter().all(|(_, d)| *d == victim));
        // The missing prefix blackholes somewhere for every source.
        assert_eq!(report.dpv.blackholed_sources, 8);
    }
}
