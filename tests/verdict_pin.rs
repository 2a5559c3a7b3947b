//! Pins the verdicts themselves: for each case below, the verdict hash
//! of the S2 run (the FNV digest of the serialized per-`(source, kind)`
//! BDDs) and its full judgement — reachable count, unreachable pairs,
//! waypoint violations, multipath violations, loops and blackholes —
//! plus the monolithic baseline's reachable count, unreachable pairs
//! and loop count. Other suites compare runs with each other (engines,
//! worker counts, shards, fabrics); a change that moved every engine's
//! answer alike passes there and fails here.

use s2::{NetworkModel, S2Options, S2Verifier, VerificationRequest};
use s2_baselines::{run_dpv, simulate_control_plane, MonolithicOptions};
use s2_net::rng::SeededRng;
use s2_net::topology::NodeId;
use s2_runtime::admin::verdict_hash;
use s2_runtime::TransportKind;
use s2_topogen::dcn::{generate as gen_dcn, Dcn, DcnParams};
use s2_topogen::fattree::{generate as gen_ft, FatTree, FatTreeParams};

/// What S2 decided about one request.
#[derive(Debug, PartialEq, Eq)]
struct Judgement {
    verdict_hash: u64,
    reachable: usize,
    unreachable: Vec<(NodeId, NodeId)>,
    waypoint_violations: Vec<(NodeId, NodeId, NodeId)>,
    multipath_violations: Vec<NodeId>,
    loops: usize,
    blackholes: usize,
}

/// What the monolithic baseline decided about the same request.
#[derive(Debug, PartialEq, Eq)]
struct Baseline {
    reachable: usize,
    unreachable: Vec<(NodeId, NodeId)>,
    loops: usize,
}

/// S2 on 2 workers under `opts`' runtime config.
fn s2_judge(model: &NetworkModel, request: &VerificationRequest, mut opts: S2Options) -> Judgement {
    opts.workers = 2;
    let verifier = S2Verifier::new(model.clone(), &opts).expect("fleet spawns");
    let report = verifier.verify(request).expect("S2 verifies");
    verifier.shutdown();
    let dpv = report.dpv;
    Judgement {
        verdict_hash: verdict_hash(&dpv.verdict_sets),
        reachable: dpv.reachable_pairs,
        unreachable: dpv.unreachable_pairs,
        waypoint_violations: dpv.waypoint_violations,
        multipath_violations: dpv.multipath_violations,
        loops: dpv.loops,
        blackholes: dpv.blackholes,
    }
}

fn baseline_judge(model: &NetworkModel, request: &VerificationRequest) -> Baseline {
    let (rib, _) =
        simulate_control_plane(model, &MonolithicOptions::default()).expect("baseline converges");
    let dpv = run_dpv(
        model,
        &rib,
        &request.sources,
        &request.expected,
        request.dst_space,
        None,
    )
    .expect("baseline verifies");
    Baseline {
        reachable: dpv.reachable_pairs,
        unreachable: dpv.unreachable_pairs,
        loops: dpv.loops,
    }
}

fn fattree_model(ft: &FatTree) -> NetworkModel {
    NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap()
}

/// All-pair reachability among the edge switches' server prefixes, as
/// `s2 verify --fattree K` builds it.
fn fattree_request(ft: &FatTree) -> VerificationRequest {
    let k = ft.params.k;
    let endpoints = (0..k)
        .flat_map(|p| (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)])))
        .collect();
    VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap())
}

/// Every pair reachable, no violation; `blackholes` sources drop the
/// unrouted rest of the injected space.
fn clean(verdict_hash: u64, pairs: usize, blackholes: usize) -> Judgement {
    Judgement {
        verdict_hash,
        reachable: pairs,
        unreachable: Vec::new(),
        waypoint_violations: Vec::new(),
        multipath_violations: Vec::new(),
        loops: 0,
        blackholes,
    }
}

const FATTREE4: u64 = 0x4f27_724f_a8ed_7b95;
const FATTREE8: u64 = 0xa67c_86e0_0315_9005;

#[test]
fn fattree4_verdicts_are_pinned() {
    let ft = gen_ft(FatTreeParams::new(4));
    let (model, request) = (fattree_model(&ft), fattree_request(&ft));
    assert_eq!(s2_judge(&model, &request, S2Options::default()), clean(FATTREE4, 56, 8));
    assert_eq!(
        baseline_judge(&model, &request),
        Baseline { reachable: 56, unreachable: Vec::new(), loops: 0 }
    );
}

#[test]
fn fattree4_over_tcp_verdicts_are_pinned() {
    let ft = gen_ft(FatTreeParams::new(4));
    let mut opts = S2Options::default();
    opts.runtime.transport = TransportKind::tcp();
    let judgement = s2_judge(&fattree_model(&ft), &fattree_request(&ft), opts);
    assert_eq!(judgement, clean(FATTREE4, 56, 8));
}

#[test]
fn fattree8_verdicts_are_pinned() {
    let ft = gen_ft(FatTreeParams::new(8));
    let (model, request) = (fattree_model(&ft), fattree_request(&ft));
    assert_eq!(s2_judge(&model, &request, S2Options::default()), clean(FATTREE8, 992, 32));
    assert_eq!(
        baseline_judge(&model, &request),
        Baseline { reachable: 992, unreachable: Vec::new(), loops: 0 }
    );
}

/// Two clusters, one server prefix left unannounced by a seeded ToR of
/// the 5-layer cluster; cluster 0's ToRs must reach every ToR's prefix.
fn dcn_with_missing_announcement(seed: u64) -> (NetworkModel, VerificationRequest, NodeId) {
    let mut d = gen_dcn(DcnParams::scaled(2, 4, 2));
    let tor = (SeededRng::seed_from_u64(seed).next_u64() % 4) as usize;
    let faulty = d.tors[1][tor];
    let host = d.topology.name(faulty).to_string();
    s2_topogen::inject::drop_network_statement(&mut d.configs, &host, Dcn::server_prefix(1, tor));
    let expected = d
        .tors
        .iter()
        .enumerate()
        .flat_map(|(c, ts)| ts.iter().enumerate().map(move |(t, &n)| (n, vec![Dcn::server_prefix(c, t)])))
        .collect();
    let request = VerificationRequest {
        sources: d.tors[0].clone(),
        expected,
        dst_space: "10.0.0.0/7".parse().unwrap(),
        transits: Vec::new(),
    };
    let model = NetworkModel::build(d.topology, d.configs).unwrap();
    (model, request, faulty)
}

#[test]
fn dcn_missing_announcement_verdicts_are_pinned() {
    let (model, request, faulty) = dcn_with_missing_announcement(1);
    let lost: Vec<(NodeId, NodeId)> = request.sources.iter().map(|&s| (s, faulty)).collect();
    let opts = S2Options {
        shards: 3,
        ..S2Options::default()
    };
    assert_eq!(
        s2_judge(&model, &request, opts),
        Judgement {
            verdict_hash: 0x3384_413b_7fc5_e565,
            reachable: 24,
            unreachable: lost.clone(),
            waypoint_violations: Vec::new(),
            multipath_violations: Vec::new(),
            loops: 0,
            blackholes: 8,
        }
    );
    assert_eq!(
        baseline_judge(&model, &request),
        Baseline { reachable: 24, unreachable: lost, loops: 0 }
    );
}

#[test]
fn bypassed_waypoint_verdicts_are_pinned() {
    let ft = gen_ft(FatTreeParams::new(4));
    let (src, dst) = (ft.edge(0, 0), ft.edge(1, 0));
    let request =
        VerificationRequest::single_pair(src, dst, FatTree::server_prefix(1, 0)).via(ft.cores[0]);
    let model = fattree_model(&ft);
    assert_eq!(
        s2_judge(&model, &request, S2Options::default()),
        Judgement {
            verdict_hash: 0x2d1d_82ff_02c7_1ae3,
            reachable: 1,
            unreachable: Vec::new(),
            waypoint_violations: vec![(src, dst, ft.cores[0])],
            multipath_violations: Vec::new(),
            loops: 0,
            blackholes: 0,
        }
    );
    assert_eq!(
        baseline_judge(&model, &request),
        Baseline { reachable: 1, unreachable: Vec::new(), loops: 0 }
    );
}

#[test]
fn acl_misconfig_verdicts_are_pinned() {
    let ft = gen_ft(FatTreeParams::new(4));
    let mut configs = ft.configs.clone();
    s2_topogen::inject::acl_block_dst(&mut configs, "core0", "10.0.0.0/24".parse().unwrap());
    let model = NetworkModel::build(ft.topology.clone(), configs).unwrap();
    let request = fattree_request(&ft);
    assert_eq!(
        s2_judge(&model, &request, S2Options::default()),
        Judgement {
            verdict_hash: 0xcfca_8489_2f39_2f67,
            reachable: 56,
            unreachable: Vec::new(),
            waypoint_violations: Vec::new(),
            // The pod-1..3 edges: their copies to pod0-edge0 arrive
            // through cores 1-3 and blackhole at core0.
            multipath_violations: [10, 11, 14, 15, 18, 19].map(NodeId).to_vec(),
            loops: 0,
            blackholes: 11,
        }
    );
    assert_eq!(
        baseline_judge(&model, &request),
        Baseline { reachable: 56, unreachable: Vec::new(), loops: 0 }
    );
}

/// A waypoint no path crosses: the intra-pod pair never leaves pod 0,
/// so every arrived header lacks the core's bit. The pair is reachable
/// (as the baseline, which ignores waypoints, finds) and violates the
/// waypoint.
#[test]
fn waypoint_no_path_crosses_keeps_the_pair_reachable() {
    let ft = gen_ft(FatTreeParams::new(4));
    let (src, dst) = (ft.edge(0, 0), ft.edge(0, 1));
    let request =
        VerificationRequest::single_pair(src, dst, FatTree::server_prefix(0, 1)).via(ft.cores[0]);
    let model = fattree_model(&ft);
    let baseline = baseline_judge(&model, &request);
    assert_eq!(baseline, Baseline { reachable: 1, unreachable: Vec::new(), loops: 0 });
    let s2 = s2_judge(&model, &request, S2Options::default());
    assert_eq!((s2.reachable, &s2.unreachable), (baseline.reachable, &baseline.unreachable));
    assert_eq!(s2.waypoint_violations, vec![(src, dst, ft.cores[0])]);
}

/// A waypoint every path crosses: the source itself, whose bit every
/// injected header takes. The pair is reachable and keeps the waypoint.
#[test]
fn waypoint_every_path_crosses_keeps_the_pair_reachable() {
    let ft = gen_ft(FatTreeParams::new(4));
    let (src, dst) = (ft.edge(0, 0), ft.edge(1, 0));
    let request = VerificationRequest::single_pair(src, dst, FatTree::server_prefix(1, 0)).via(src);
    let model = fattree_model(&ft);
    let baseline = baseline_judge(&model, &request);
    assert_eq!(baseline, Baseline { reachable: 1, unreachable: Vec::new(), loops: 0 });
    let s2 = s2_judge(&model, &request, S2Options::default());
    assert_eq!((s2.reachable, &s2.unreachable), (baseline.reachable, &baseline.unreachable));
    assert!(s2.waypoint_violations.is_empty(), "{:?}", s2.waypoint_violations);
}
