//! Oracle equivalence suite for destination-scoped DPV.
//!
//! Every scenario here is verified twice: **warm** — scoped injection
//! plus verdict splicing on a checkpointed fleet (the `s2 sweep` /
//! `s2 daemon` hot path) — and **cold** — a full-space
//! [`Cluster::run_dpv`] over the same reconverged scenario RIB on a
//! fresh fleet that never saw a scenario. ROBDD serialization is
//! canonical, so the spliced verdict sets must be *byte*-identical to
//! the cold recompute, not merely semantically equal.
//!
//! The matrix covers every FatTree k=4 single-link failure, a sample
//! of double failures (including isolating double-uplink pairs), a
//! handful of k=6 singles, the empty-changed-set edge (a spare link
//! carrying no routes: zero injections, baseline passthrough), and the
//! everything-changed edge (a dst space fully covered by the change:
//! scoping falls back to an unscoped full drive). Stacked scenarios, each
//! committed on top of the last, are compared with a second fleet that
//! replays the whole overlay from its warm-up checkpoint.
//!
//! [`Cluster::run_dpv`]: s2_runtime::Cluster::run_dpv

use crate::delta::WarmFleet;
use crate::query::VerificationRequest;
use crate::sweep::tests::fattree_request;
use crate::sweep::{enumerate_failure_sets, scenario_ports, LinkKey};
use crate::verifier::{S2Options, S2Verifier};
use s2_routing::{NetworkModel, RibSnapshot};
use s2_runtime::{DpvRunStats, PatchStage};
use s2_shard::impact::link_key;
use s2_topogen::fattree::{generate, FatTree, FatTreeParams};
use std::sync::Arc;

fn verifier(model: NetworkModel, workers: u32) -> S2Verifier {
    S2Verifier::new(model, &S2Options { workers, ..Default::default() }).unwrap()
}

/// A warm fleet for `model`, as the daemon would hold it.
fn warm_fleet(model: NetworkModel, workers: u32, request: &VerificationRequest) -> WarmFleet {
    WarmFleet::warm_up(verifier(model, workers), request).map_err(|(_, e)| e).unwrap()
}

/// Drives one warm scenario with the daemon's step sequence (begin →
/// reconverge → scoped check), rolls the fleet back, and returns the
/// reconverged RIB plus the spliced stats.
fn warm_scenario(fleet: &WarmFleet, links: &[LinkKey]) -> (Arc<RibSnapshot>, DpvRunStats) {
    let ports = scenario_ports(links);
    fleet.begin(&ports).unwrap();
    fleet.reconverge().unwrap();
    let pass = fleet.check(PatchStage::Reconverged, &ports).unwrap();
    fleet.restore_baseline().unwrap();
    (pass.rib, pass.dpv)
}

/// Cold oracle: a full-space DPV of `rib` on a fleet with no scenario
/// state (warm reconvergence leaves no route egressing a failed port,
/// so the port masks are immaterial and plain `run_dpv` is exact).
fn cold_oracle(
    oracle: &S2Verifier,
    request: &VerificationRequest,
    rib: Arc<RibSnapshot>,
) -> DpvRunStats {
    oracle
        .cluster
        .run_dpv(rib, &request.dpv_query(), &oracle.cluster_opts())
        .unwrap()
}

/// Byte-level equivalence of a spliced warm outcome and its cold
/// recompute: verdict BDDs, plus every derived verdict field.
fn assert_byte_identical(scenario: &[LinkKey], warm: &DpvRunStats, cold: &DpvRunStats) {
    assert_eq!(
        warm.verdict_sets, cold.verdict_sets,
        "scenario {scenario:?}: spliced verdict BDDs differ from cold recompute"
    );
    assert_eq!(warm.unreachable_pairs, cold.unreachable_pairs, "{scenario:?}");
    assert_eq!(warm.multipath_violations, cold.multipath_violations, "{scenario:?}");
    assert_eq!(warm.loops, cold.loops, "scenario {scenario:?}: loop count");
    assert_eq!(warm.blackholes, cold.blackholes, "scenario {scenario:?}: blackhole count");
}

/// Runs the matrix on one model: warm fleet + cold oracle fleet, every
/// scenario compared byte-for-byte.
fn run_matrix(k: usize, workers: u32, scenarios: &[Vec<LinkKey>]) {
    let ft = generate(FatTreeParams::new(k));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);
    let fleet = warm_fleet(model.clone(), workers, &request);
    let oracle = verifier(model, workers);
    for scenario in scenarios {
        let (rib, warm) = warm_scenario(&fleet, scenario);
        let scoped = warm
            .scoped
            .as_ref()
            .unwrap_or_else(|| panic!("scenario {scenario:?}: warm run was not scoped"));
        assert_eq!(
            scoped.skipped_sources + scoped.injected_sources,
            request.sources.len(),
            "{scenario:?}: every source is either injected or skipped"
        );
        let cold = cold_oracle(&oracle, &request, rib);
        assert_byte_identical(scenario, &warm, &cold);
    }
    fleet.into_verifier().shutdown();
    oracle.shutdown();
}

/// Every single-link failure of FatTree k=4 plus a sample of double
/// failures (every 37th pair — includes isolating double-uplinks and
/// cross-tier pairs).
#[test]
fn fattree4_chaos_matrix_is_byte_identical_to_cold_oracle() {
    let ft = generate(FatTreeParams::new(4));
    let links: Vec<LinkKey> = ft.topology.links().iter().map(link_key).collect();
    let mut scenarios: Vec<Vec<LinkKey>> = links.iter().map(|&l| vec![l]).collect();
    scenarios.extend(
        enumerate_failure_sets(links.len(), 2)
            .into_iter()
            .filter(|s| s.len() == 2)
            .step_by(37)
            .map(|s| s.into_iter().map(|i| links[i]).collect::<Vec<_>>()),
    );
    assert!(scenarios.len() >= 32 + 10);
    run_matrix(4, 2, &scenarios);
}

/// A spread of k=6 singles across both fabric tiers.
#[test]
fn fattree6_single_failures_are_byte_identical_to_cold_oracle() {
    let ft = generate(FatTreeParams::new(6));
    let links: Vec<LinkKey> = ft.topology.links().iter().map(link_key).collect();
    let scenarios: Vec<Vec<LinkKey>> =
        links.iter().step_by(links.len() / 5).map(|&l| vec![l]).collect();
    assert!(scenarios.len() >= 5);
    run_matrix(6, 2, &scenarios);
}

/// Empty-changed-set edge: failing a spare link that carries no routes
/// changes nothing, so every source is skipped, nothing is injected,
/// and the spliced verdicts are the baseline verdicts, byte for byte.
#[test]
fn empty_changed_set_skips_every_source_and_passes_baseline_through() {
    let ft = generate(FatTreeParams::new(4));
    let mut topology = ft.topology.clone();
    let spare = topology.connect(ft.edge(0, 0), ft.edge(1, 1));
    let model = NetworkModel::build(topology, ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);
    let fleet = warm_fleet(model, 2, &request);
    let scenario = vec![link_key(&spare)];
    let (rib, warm) = warm_scenario(&fleet, &scenario);
    let baseline = fleet.baseline();
    assert_eq!(*rib, *baseline.rib, "a route-free link must not move the RIB");
    let scoped = warm.scoped.as_ref().unwrap();
    assert_eq!(scoped.changed_prefixes, 0);
    assert_eq!(scoped.injected_sources, 0);
    assert_eq!(scoped.skipped_sources, request.sources.len());
    assert!(!scoped.fallback_full);
    assert_eq!(
        warm.verdict_sets, baseline.dpv.verdict_sets,
        "zero injections must pass the baseline verdicts through unchanged"
    );
    assert_eq!(warm.unreachable_pairs, baseline.dpv.unreachable_pairs);
    assert_eq!(warm.loops, baseline.dpv.loops);
    assert_eq!(warm.blackholes, baseline.dpv.blackholes);
    fleet.into_verifier().shutdown();
}

/// Everything-changed edge: with the dst space narrowed to a single
/// server prefix, failing that server's uplink changes routes covering
/// the *entire* injected space — scoping must fall back to a full
/// unscoped drive and still match the cold oracle byte for byte.
#[test]
fn full_space_change_falls_back_to_unscoped_full_drive() {
    let ft = generate(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let victim = ft.edge(0, 0);
    let victim_prefix = FatTree::server_prefix(0, 0);
    let request = VerificationRequest::all_pair_reachability(
        vec![(victim, vec![victim_prefix]), (ft.edge(1, 0), vec![victim_prefix])],
        victim_prefix,
    );
    let fleet = warm_fleet(model.clone(), 2, &request);
    // The victim's first uplink: failing it withdraws routes for the
    // victim's server prefix on the aggregation tier, so the changed
    // set covers all of `dst_space`.
    let uplink = ft
        .topology
        .links()
        .iter()
        .map(link_key)
        .find(|((a, _), (b, _))| *a == victim || *b == victim)
        .unwrap();
    let scenario = vec![uplink];
    let (rib, warm) = warm_scenario(&fleet, &scenario);
    fleet.into_verifier().shutdown();
    let scoped = warm.scoped.as_ref().unwrap();
    assert!(
        scoped.fallback_full,
        "a fully-covered dst space must fall back to the unscoped drive \
         (fraction {})",
        scoped.changed_dst_fraction
    );
    let oracle = verifier(model, 2);
    let cold = cold_oracle(&oracle, &request, rib);
    oracle.shutdown();
    assert_byte_identical(&scenario, &warm, &cold);
}

/// Stacked commits: a non-LIFO sequence of link deltas (down A, B, C;
/// up B; down D; up A, C, D) over edge-aggregation and
/// aggregation-core links of four pods, each verified and committed on
/// top of the last. After every commit the committed RIB equals the RIB
/// a second fleet converges to when it replays the whole overlay from
/// its warm-up checkpoint, and the spliced verdicts equal a cold
/// full-space pass over it, byte for byte.
#[test]
fn stacked_commits_equal_a_replay_from_warm_up() {
    let ft = generate(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);
    let topo = &ft.topology;
    let link = |x: &str, y: &str| {
        let (x, y) = (topo.node_by_name(x).unwrap(), topo.node_by_name(y).unwrap());
        let l = topo.links().iter().find(|l| (l.a.0, l.b.0) == (x, y) || (l.a.0, l.b.0) == (y, x));
        link_key(l.unwrap())
    };
    let (a, b) = (link("pod0-edge0", "pod0-agg0"), link("pod1-agg1", "core3"));
    let (c, d) = (link("pod2-edge1", "pod2-agg0"), link("pod3-agg0", "core1"));
    let steps = [
        (a, true),
        (b, true),
        (c, true),
        (b, false),
        (d, true),
        (a, false),
        (c, false),
        (d, false),
    ];
    for workers in [1, 2] {
        let mut fleet = warm_fleet(model.clone(), workers, &request);
        let replay = warm_fleet(model.clone(), workers, &request);
        let oracle = verifier(model.clone(), workers);
        let mut overlay: Vec<LinkKey> = Vec::new();
        for &(l, fail) in &steps {
            if fail {
                overlay.push(l);
            } else {
                overlay.retain(|&k| k != l);
            }
            let ports = scenario_ports(&overlay);
            fleet.begin(&ports).unwrap();
            fleet.reconverge().unwrap();
            let pass = fleet.check(PatchStage::Reconverged, &ports).unwrap();
            assert!(pass.dpv.scoped.is_some(), "{overlay:?}: the pass was not scoped");
            fleet.commit(&pass).unwrap();

            replay.begin(&ports).unwrap();
            replay.reconverge().unwrap();
            let replayed = replay.verifier().cluster.collect_full_rib().unwrap();
            replay.restore_baseline().unwrap();
            assert_eq!(*pass.rib, replayed, "workers={workers} {overlay:?}: committed RIB");
            let cold = cold_oracle(&oracle, &request, pass.rib.clone());
            assert_byte_identical(&overlay, &pass.dpv, &cold);
        }
        assert!(overlay.is_empty());
        for v in [fleet.into_verifier(), replay.into_verifier(), oracle] {
            v.shutdown();
        }
    }
}
