//! Pins the converged RIBs themselves, not just their agreement: the
//! digest of the `Wire`-encoded `RibSnapshot` from the distributed
//! runtime and from the monolithic baseline must equal the constants
//! below. `tests/equivalence.rs` compares the two engines against each
//! other, so a change to the shared `SwitchModel` that moved both alike
//! would pass there; it cannot pass here.

use s2::{NetworkModel, RibSnapshot, S2Options, S2Verifier};
use s2_baselines::{simulate_control_plane, MonolithicOptions};
use s2_net::topology::NodeId;
use s2_runtime::admin::fnv1a64;
use s2_runtime::{FaultPlan, TransportKind, Wire};
use s2_topogen::dcn::{generate as gen_dcn, DcnParams};
use s2_topogen::fattree::{generate as gen_ft, FatTreeParams};

fn digest(rib: &RibSnapshot) -> u64 {
    fnv1a64(&rib.to_bytes())
}

fn fattree(k: usize) -> NetworkModel {
    let ft = gen_ft(FatTreeParams::new(k));
    NetworkModel::build(ft.topology, ft.configs).unwrap()
}

/// Two clusters (one 3-layer, one 5-layer): aggregation with
/// communities, AS_PATH overwrite and both `remove-private-as` dialects.
fn dcn() -> NetworkModel {
    let dcn = gen_dcn(DcnParams::scaled(2, 4, 2));
    NetworkModel::build(dcn.topology, dcn.configs).unwrap()
}

/// The DCN's first topology link, as the node pair a fault plan takes.
fn first_link(model: &NetworkModel) -> (NodeId, NodeId) {
    let link = model.topology.links().first().expect("the DCN has links");
    (link.a.0, link.b.0)
}

/// S2 with 2 workers and 3 prefix shards under `opts`' runtime config.
fn s2_digest(model: &NetworkModel, mut opts: S2Options) -> u64 {
    opts.workers = 2;
    opts.shards = 3;
    let verifier = S2Verifier::new(model.clone(), &opts).expect("fleet spawns");
    let (rib, _, _) = verifier.simulate().expect("S2 converges");
    verifier.shutdown();
    digest(&rib)
}

fn batfish_digest(model: &NetworkModel, failed_links: Vec<(NodeId, NodeId)>) -> u64 {
    let opts = MonolithicOptions {
        failed_links,
        ..Default::default()
    };
    let (rib, _) = simulate_control_plane(model, &opts).expect("baseline converges");
    digest(&rib)
}

const FATTREE6: u64 = 0x387d_874b_a903_fde2;
const DCN: u64 = 0xbbc5_d8fc_dcf0_a241;
const DCN_FAILED_LINK: u64 = 0x0a9c_cd88_347c_4bf5;
const FATTREE4: u64 = 0x252f_82d4_ebb0_1171;

#[test]
fn fattree6_ribs_are_pinned() {
    let model = fattree(6);
    assert_eq!(s2_digest(&model, S2Options::default()), FATTREE6);
    assert_eq!(batfish_digest(&model, Vec::new()), FATTREE6);
}

#[test]
fn dcn_ribs_are_pinned() {
    let model = dcn();
    assert_eq!(s2_digest(&model, S2Options::default()), DCN);
    assert_eq!(batfish_digest(&model, Vec::new()), DCN);
}

#[test]
fn dcn_with_a_failed_link_ribs_are_pinned() {
    let model = dcn();
    let (a, b) = first_link(&model);
    let mut opts = S2Options::default();
    opts.runtime.faults = FaultPlan::new().fail_link(a, b);
    assert_eq!(s2_digest(&model, opts), DCN_FAILED_LINK);
    assert_eq!(batfish_digest(&model, vec![(a, b)]), DCN_FAILED_LINK);
    assert_ne!(DCN_FAILED_LINK, DCN, "the failure moves some route");
}

#[test]
fn fattree4_over_tcp_ribs_are_pinned() {
    let model = fattree(4);
    let mut opts = S2Options::default();
    opts.runtime.transport = TransportKind::tcp();
    assert_eq!(s2_digest(&model, opts), FATTREE4);
    assert_eq!(batfish_digest(&model, Vec::new()), FATTREE4);
}
