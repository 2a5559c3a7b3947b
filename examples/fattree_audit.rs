//! FatTree audit: plant three classic misconfigurations into a healthy
//! FatTree and show that S2 catches each one — the verifier's reason for
//! existing (§2 of the paper).
//!
//! ```text
//! cargo run --example fattree_audit
//! ```

use s2::{S2Options, S2Verifier, VerificationRequest};
use s2_routing::NetworkModel;
use s2_topogen::fattree::{generate, FatTree, FatTreeParams};
use s2_topogen::inject;

fn request_for(ft: &FatTree) -> VerificationRequest {
    let k = ft.params.k;
    let endpoints: Vec<_> = (0..k)
        .flat_map(|p| (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)])))
        .collect();
    VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap())
}

fn verify(ft: &FatTree, configs: Vec<s2_net::config::DeviceConfig>) -> s2::S2Report {
    let model = NetworkModel::build(ft.topology.clone(), configs).expect("model builds");
    let verifier = S2Verifier::new(
        model,
        &S2Options {
            workers: 2,
            shards: 4,
            ..Default::default()
        },
    )
    .expect("fleet spawns");
    let report = verifier.verify(&request_for(ft)).expect("verification completes");
    verifier.shutdown();
    report
}

fn main() {
    let ft = generate(FatTreeParams::new(4));

    println!("--- baseline: healthy FatTree4 ---");
    let healthy = verify(&ft, ft.configs.clone());
    assert!(healthy.all_clear());
    println!("clean: {}\n", healthy.summary());

    println!("--- bug 1: forgotten network statement on pod0-edge0 ---");
    let mut cfgs = ft.configs.clone();
    inject::drop_network_statement(&mut cfgs, "pod0-edge0", FatTree::server_prefix(0, 0));
    let r1 = verify(&ft, cfgs);
    assert!(!r1.dpv.unreachable_pairs.is_empty());
    println!(
        "CAUGHT: {} unreachable pairs (all targeting pod0-edge0), {} sources blackhole\n",
        r1.dpv.unreachable_pairs.len(),
        r1.dpv.blackholes
    );

    println!("--- bug 2: over-broad ACL on core0 dropping 10.0.0.0/24 ---");
    let mut cfgs = ft.configs.clone();
    inject::acl_block_dst(&mut cfgs, "core0", "10.0.0.0/24".parse().unwrap());
    let r2 = verify(&ft, cfgs);
    // ECMP routes around the bad core, so reachability still holds — but
    // the same headers arrive on some paths and die on others: a
    // multipath-consistency violation, exactly what that property is for.
    assert!(!r2.dpv.multipath_violations.is_empty());
    println!(
        "CAUGHT: multipath inconsistency at {} sources ({} blackhole verdicts) — \
         traffic survives only because ECMP routes around core0\n",
        r2.dpv.multipath_violations.len(),
        r2.dpv.blackholes
    );

    println!("--- bug 3: wrong remote-as on a pod0-edge0 uplink ---");
    let mut cfgs = ft.configs.clone();
    inject::break_session(&mut cfgs, "pod0-edge0", 0);
    let model = NetworkModel::build(ft.topology.clone(), cfgs).expect("model builds");
    println!(
        "CAUGHT at model build: {} session diagnostics, e.g. {:?}",
        model.session_diagnostics.len(),
        model.session_diagnostics.first().expect("at least one")
    );
    let verifier = S2Verifier::new(
        model,
        &S2Options {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("fleet spawns");
    let r3 = verifier.verify(&request_for(&ft)).expect("verification completes");
    verifier.shutdown();
    // The network still verifies reachable (the other uplink carries the
    // traffic), but the report is not "all clear" because of the session
    // diagnostics.
    assert!(!r3.all_clear());
    println!(
        "report is not clean: {} diagnostics, reachability {}/{}",
        r3.session_diagnostics.len(),
        r3.dpv.reachable_pairs,
        r3.dpv.reachable_pairs + r3.dpv.unreachable_pairs.len()
    );
}
