//! Intra-worker parallelism must be invisible in every observable
//! artifact: the thread pool only reorders *computation*, never results.
//!
//! For proptest-chosen topogen networks (FatTree and DCN families, varied
//! arity/shape/worker count/shard count), a verification at thread width
//! 1 and one at width 4 must produce
//!
//! * byte-identical `CollectBgpRib` payloads — the converged RIBs, wire-
//!   encoded exactly as the workers' `Reply::Rib` frames are, and
//! * byte-identical serialized BDD verdicts — the per-(source, kind)
//!   final sets exactly as they crossed the wire during DPV.

use proptest::prelude::*;
use s2::{NetworkModel, S2Options, S2Report, S2Verifier, VerificationRequest};
use s2_net::topology::NodeId;
use s2_runtime::worker::Reply;
use s2_runtime::Wire;
use s2_topogen::dcn::{self, Dcn, DcnParams};
use s2_topogen::fattree::{self, FatTree, FatTreeParams};

/// A proptest-generated workload: a topogen network plus its all-pair
/// reachability request.
#[derive(Debug, Clone)]
enum Topo {
    FatTree { k: usize },
    Dcn { clusters: usize, tors: usize },
}

fn build(topo: &Topo) -> (NetworkModel, VerificationRequest) {
    match *topo {
        Topo::FatTree { k } => {
            let ft = fattree::generate(FatTreeParams::new(k));
            let endpoints: Vec<(NodeId, Vec<s2_net::Prefix>)> = (0..k)
                .flat_map(|p| {
                    let ft = &ft;
                    (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
                })
                .collect();
            let request = VerificationRequest::all_pair_reachability(
                endpoints,
                "10.0.0.0/8".parse().unwrap(),
            );
            let model = NetworkModel::build(ft.topology, ft.configs).unwrap();
            (model, request)
        }
        Topo::Dcn { clusters, tors } => {
            let d = dcn::generate(DcnParams::scaled(clusters, tors, 2));
            let mut endpoints = Vec::new();
            for (c, cluster_tors) in d.tors.iter().enumerate() {
                for (t, &tor) in cluster_tors.iter().enumerate() {
                    endpoints.push((tor, vec![Dcn::server_prefix(c, t)]));
                }
            }
            let request = VerificationRequest::all_pair_reachability(
                endpoints,
                "10.0.0.0/7".parse().unwrap(),
            );
            let model = NetworkModel::build(d.topology, d.configs).unwrap();
            (model, request)
        }
    }
}

fn run(model: &NetworkModel, request: &VerificationRequest, opts: &S2Options) -> S2Report {
    let verifier = S2Verifier::new(model.clone(), opts).expect("model is valid");
    let report = verifier.verify(request).expect("verification succeeds");
    verifier.shutdown();
    report
}

/// The `CollectBgpRib` payload of the converged run: every node's final
/// routes, wire-encoded exactly as a worker's `Reply::Rib` frame.
fn rib_payload(report: &S2Report) -> Vec<u8> {
    let rows: Vec<(NodeId, Vec<s2_routing::RibRoute>)> = report
        .rib
        .per_node
        .iter()
        .enumerate()
        .map(|(n, routes)| (NodeId(n as u32), routes.to_vec()))
        .collect();
    Reply::Rib(rows).to_bytes().to_vec()
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (2usize..=3).prop_map(|half| Topo::FatTree { k: half * 2 }),
        (2usize..=3, 2usize..=3).prop_map(|(clusters, tors)| Topo::Dcn { clusters, tors }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn thread_width_is_invisible(
        topo in topo_strategy(),
        workers in 1u32..=3,
        shards in 1usize..=2,
    ) {
        let (model, request) = build(&topo);
        let base = S2Options {
            workers,
            shards,
            ..Default::default()
        };
        let seq = run(&model, &request, &S2Options { intra_worker_threads: 1, ..base.clone() });
        let par = run(&model, &request, &S2Options { intra_worker_threads: 4, ..base });

        // Byte-identical CollectBgpRib payloads.
        prop_assert_eq!(rib_payload(&seq), rib_payload(&par),
            "wire-encoded RIBs diverge between thread widths ({topo:?})");
        prop_assert_eq!(&seq.rib, &par.rib);

        // Byte-identical serialized BDD verdicts.
        prop_assert_eq!(&seq.dpv.verdict_sets, &par.dpv.verdict_sets,
            "serialized final BDD sets diverge between thread widths ({topo:?})");

        // And identical property verdicts on top, event counts included:
        // they count non-empty verdict unions, not final fragments.
        prop_assert_eq!(seq.dpv.reachable_pairs, par.dpv.reachable_pairs);
        prop_assert_eq!(&seq.dpv.unreachable_pairs, &par.dpv.unreachable_pairs);
        prop_assert_eq!(&seq.dpv.waypoint_violations, &par.dpv.waypoint_violations);
        prop_assert_eq!(&seq.dpv.multipath_violations, &par.dpv.multipath_violations);
        prop_assert_eq!(seq.dpv.loops, par.dpv.loops);
        prop_assert_eq!(seq.dpv.blackholes, par.dpv.blackholes);
    }
}

/// The pinned pair the CI job always exercises: a FatTree4 on two workers
/// at widths 1 vs 4 (no proptest indirection, so a failure names itself).
#[test]
fn fattree4_two_workers_width_4_matches_width_1() {
    let (model, request) = build(&Topo::FatTree { k: 4 });
    let base = S2Options {
        workers: 2,
        ..Default::default()
    };
    let seq = run(&model, &request, &S2Options { intra_worker_threads: 1, ..base.clone() });
    let par = run(&model, &request, &S2Options { intra_worker_threads: 4, ..base });
    assert_eq!(rib_payload(&seq), rib_payload(&par));
    assert_eq!(seq.dpv.verdict_sets, par.dpv.verdict_sets);
    assert!(!seq.dpv.verdict_sets.is_empty(), "DPV produced verdict material");
    assert_eq!(seq.dpv.reachable_pairs, 8 * 7);
}
