//! Invariants of the distributed runtime: verdicts never depend on the
//! partition, traffic accounting behaves, OOM isolation, and randomized
//! partition fuzzing.

use proptest::prelude::*;
use s2::{NetworkModel, RuntimeConfig, S2Options, S2Verifier, Scheme, VerificationRequest};
use s2_baselines::{simulate_control_plane, MonolithicOptions};
use s2_bdd::serialize::{from_bytes, to_bytes};
use s2_bdd::Bdd;
use s2_dataplane::{forward, Fib, FinalKind, ForwardOptions, NodePredicates, PacketSpace};
use s2_net::topology::NodeId;
use s2_net::Prefix;
use s2_partition::Partition;
use s2_topogen::fattree::{generate as gen_ft, FatTree, FatTreeParams};
use std::collections::BTreeMap;

fn fattree4() -> (NetworkModel, VerificationRequest) {
    let ft = gen_ft(FatTreeParams::new(4));
    let mut endpoints: Vec<(NodeId, Vec<Prefix>)> = Vec::new();
    for p in 0..4 {
        for e in 0..2 {
            endpoints.push((ft.edge(p, e), vec![FatTree::server_prefix(p, e)]));
        }
    }
    let request =
        VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap());
    (NetworkModel::build(ft.topology, ft.configs).unwrap(), request)
}

#[test]
fn single_worker_has_zero_cross_traffic() {
    let (model, request) = fattree4();
    let verifier = S2Verifier::new(model, &S2Options::default()).unwrap();
    let report = verifier.verify(&request).unwrap();
    verifier.shutdown();
    assert_eq!(report.cp.messages, 0, "one worker must never use the sidecar");
    assert_eq!(report.cp.bytes, 0);
    assert!(report.all_clear());
}

#[test]
fn cross_traffic_scales_with_edge_cut() {
    let (model, request) = fattree4();
    let mut traffic = Vec::new();
    for scheme in [Scheme::Expert, Scheme::CommHeavy] {
        let opts = S2Options {
            workers: 4,
            scheme,
            ..Default::default()
        };
        let verifier = S2Verifier::new(model.clone(), &opts).unwrap();
        let cut = verifier.partition().edge_cut(&verifier.model().topology);
        let report = verifier.verify(&request).unwrap();
        verifier.shutdown();
        traffic.push((cut, report.cp.messages));
    }
    // The comm-heavy partition cuts more links and therefore moves more
    // messages than the expert partition.
    assert!(traffic[1].0 > traffic[0].0);
    assert!(traffic[1].1 > traffic[0].1, "{traffic:?}");
}

#[test]
fn per_worker_memory_shrinks_with_more_workers() {
    let (model, request) = fattree4();
    let mut peaks = Vec::new();
    for workers in [1u32, 2, 4] {
        let opts = S2Options {
            workers,
            shards: 1,
            ..Default::default()
        };
        let verifier = S2Verifier::new(model.clone(), &opts).unwrap();
        let report = verifier.verify(&request).unwrap();
        verifier.shutdown();
        peaks.push(report.cp.max_worker_peak());
    }
    assert!(peaks[1] < peaks[0], "{peaks:?}");
    assert!(peaks[2] < peaks[1], "{peaks:?}");
}

#[test]
fn oom_reports_the_overloaded_worker() {
    let (model, _) = fattree4();
    // Pathological partition: everything on worker 0 of 2, with a budget
    // only the empty worker can respect.
    let n = model.topology.node_count();
    let partition = Partition::new(vec![0; n], 2);
    let opts = S2Options {
        workers: 2,
        runtime: RuntimeConfig { memory_budget: Some(4096), ..Default::default() },
        ..Default::default()
    };
    let verifier = S2Verifier::with_partition(model, partition, &opts).unwrap();
    let err = verifier.simulate().unwrap_err();
    verifier.shutdown();
    match err {
        s2::verifier::S2Error::Runtime(s2_runtime::RuntimeError::OutOfMemory {
            worker, ..
        }) => assert_eq!(worker, 0),
        other => panic!("expected OOM, got {other:?}"),
    }
}

/// ECMP fan-in into ACL'd ingress ports across a worker boundary. Both
/// aggregation switches of pod 2 sit alone on worker 1, so the two
/// fragments each receives from its cores arrive as wire frames: at agg0
/// through two ports sharing one ACL (one ingress class, merged by the
/// sender), at agg1 through ports bound to two different ACLs (two
/// classes). The reference is the monolithic path-by-path walk, which
/// never merges and keeps the true ingress port.
#[test]
fn acl_fan_in_across_workers_matches_monolithic_verdict_bytes() {
    let ft = gen_ft(FatTreeParams::new(4));
    let (agg0, agg1) = (ft.agg(2, 0), ft.agg(2, 1));
    let mut configs = ft.configs.clone();
    s2_topogen::inject::acl_block_dst(&mut configs, "pod2-agg0", "10.2.0.0/25".parse().unwrap());
    // agg1: the same filter on its first core-facing port only, under
    // its own name; the second stays unbound.
    let probe = NetworkModel::build(ft.topology.clone(), configs.clone()).unwrap();
    let uplink = probe
        .topology
        .neighbors(agg1)
        .iter()
        .find(|(_, peer, _)| ft.cores.contains(peer))
        .and_then(|(port, _, _)| probe.iface_binding[agg1.index()][port.index()])
        .unwrap();
    s2_topogen::inject::acl_block_dst(&mut configs, "pod2-agg1", "10.2.1.0/25".parse().unwrap());
    for (i, iface) in configs[agg1.index()].interfaces.iter_mut().enumerate() {
        if i != uplink {
            iface.acl_in = None;
        }
    }
    let model = NetworkModel::build(ft.topology.clone(), configs).unwrap();
    let (_, request) = fattree4();

    let assignment = model
        .topology
        .nodes()
        .map(|n| u32::from(n == agg0 || n == agg1))
        .collect();
    let opts = S2Options { workers: 2, ..Default::default() };
    let v = S2Verifier::with_partition(model.clone(), Partition::new(assignment, 2), &opts).unwrap();
    let report = v.verify(&request).unwrap();
    v.shutdown();
    assert!(report.dpv.blackholes > 0, "the filters must drop something");

    let space = PacketSpace::new(0);
    let mut mgr = space.manager();
    let (rib, _) = simulate_control_plane(&model, &MonolithicOptions::default()).unwrap();
    let preds: Vec<NodePredicates> = model
        .topology
        .nodes()
        .map(|n| NodePredicates::compile(&model, n, &Fib::from_rib(rib.node(n)), &space, &mut mgr))
        .collect();
    let inject = space.dst_in(&mut mgr, request.dst_space);
    let walk = forward(
        &model.topology,
        &preds,
        &space,
        &mut mgr,
        request.sources.iter().map(|&s| (s, inject)).collect(),
        &ForwardOptions { no_merge: true, ..Default::default() },
    );
    let mut expected: BTreeMap<(NodeId, FinalKind), Bdd> = BTreeMap::new();
    for f in &walk.finals {
        let entry = expected.entry((f.src, f.kind)).or_insert(Bdd::FALSE);
        *entry = mgr.or(*entry, f.set);
    }
    // S2 reports one set per worker that saw the (src, kind).
    let mut got: BTreeMap<(NodeId, FinalKind), Bdd> = BTreeMap::new();
    for (src, kind, bytes) in &report.dpv.verdict_sets {
        let set = from_bytes(&mut mgr, bytes).unwrap();
        let entry = got.entry((*src, *kind)).or_insert(Bdd::FALSE);
        *entry = mgr.or(*entry, set);
    }
    let bytes = |sets: BTreeMap<(NodeId, FinalKind), Bdd>| -> Vec<_> {
        sets.into_iter().map(|(key, set)| (key, to_bytes(&mgr, set))).collect()
    };
    assert_eq!(bytes(got), bytes(expected));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any valid random partition yields the same verdicts and RIBs.
    #[test]
    fn prop_arbitrary_partitions_are_equivalent(
        assignment in proptest::collection::vec(0u32..3, 20),
    ) {
        let (model, request) = fattree4();
        let reference = {
            let v = S2Verifier::new(model.clone(), &S2Options::default()).unwrap();
            let r = v.verify(&request).unwrap();
            v.shutdown();
            r
        };
        let partition = Partition::new(assignment, 3);
        let v = S2Verifier::with_partition(
            model,
            partition,
            &S2Options { workers: 3, ..Default::default() },
        )
        .unwrap();
        let report = v.verify(&request).unwrap();
        v.shutdown();
        prop_assert_eq!(report.rib, reference.rib);
        prop_assert_eq!(report.dpv.reachable_pairs, reference.dpv.reachable_pairs);
        prop_assert_eq!(&report.dpv.unreachable_pairs, &reference.dpv.unreachable_pairs);
        prop_assert_eq!(report.dpv.loops, reference.dpv.loops);
    }
}
