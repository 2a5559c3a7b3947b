//! Forwarding rounds are deterministic: the fragments a run steps and
//! the batches it sends depend on the network and its partition alone,
//! not on which worker thread finished a round first. Repeated runs of
//! FatTree k=8 and k=16 on two workers must agree on the stepped
//! fragments, the frames sent, the scratch reuses and the verdict hash.

use s2::{NetworkModel, S2Options, S2Verifier, VerificationRequest};
use s2_runtime::admin::verdict_hash;
use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

/// What one run did and decided.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    forward_rounds: usize,
    stepped: usize,
    sent_remote: usize,
    messages: u64,
    scratch_reuses: u64,
    verdict_hash: u64,
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

fn run(model: &NetworkModel, request: &VerificationRequest) -> Run {
    let opts = S2Options { workers: 2, ..Default::default() };
    let verifier = S2Verifier::new(model.clone(), &opts).expect("fleet spawns");
    let report = verifier.verify(request).expect("S2 verifies");
    verifier.shutdown();
    let dpv = report.dpv;
    Run {
        forward_rounds: dpv.forward_rounds,
        stepped: dpv.packets_processed,
        sent_remote: dpv.remote_packets,
        messages: dpv.traffic.messages,
        scratch_reuses: dpv.traffic.scratch_reuses,
        verdict_hash: verdict_hash(&dpv.verdict_sets),
    }
}

#[test]
fn forwarding_repeats_exactly_on_two_workers() {
    for k in [8, 16] {
        let ft = generate(FatTreeParams::new(k));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);
        let first = run(&model, &request);
        assert!(first.sent_remote > 0, "k={k}: the fragments cross workers");
        for attempt in 1..5 {
            assert_eq!(run(&model, &request), first, "k={k}, run {attempt}");
        }
    }
}
