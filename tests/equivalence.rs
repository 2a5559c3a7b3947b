//! The §5.3 headline claim: S2 and the monolithic baseline "output the
//! same set of RIBs" — on FatTrees and the DCN, across worker counts,
//! partition schemes and shard counts.

use s2::{NetworkModel, RibSnapshot, S2Options, S2Verifier, Scheme};
use s2_baselines::{simulate_control_plane, MonolithicOptions};
use s2_topogen::dcn::{generate as gen_dcn, DcnParams};
use s2_topogen::fattree::{generate as gen_ft, FatTreeParams};

fn reference_rib(model: &NetworkModel) -> RibSnapshot {
    let (rib, _) = simulate_control_plane(model, &MonolithicOptions::default())
        .expect("baseline converges");
    rib
}

fn s2_rib(model: &NetworkModel, workers: u32, shards: usize, scheme: Scheme) -> RibSnapshot {
    let opts = S2Options {
        workers,
        shards,
        scheme,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &opts).expect("fleet spawns");
    let (rib, _, _) = verifier.simulate().expect("S2 converges");
    verifier.shutdown();
    rib
}

#[test]
fn fattree_ribs_identical_across_configurations() {
    let ft = gen_ft(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology, ft.configs).unwrap();
    let reference = reference_rib(&model);
    assert!(reference.total_routes() > 0);

    for (workers, shards, scheme) in [
        (1, 1, Scheme::Metis),
        (2, 1, Scheme::Metis),
        (4, 4, Scheme::Random { seed: 9 }),
        (8, 7, Scheme::Expert),
        (3, 2, Scheme::Imbalanced),
        (4, 5, Scheme::CommHeavy),
    ] {
        let rib = s2_rib(&model, workers, shards, scheme);
        assert_eq!(
            rib, reference,
            "RIBs differ for workers={workers} shards={shards} scheme={}",
            scheme.name()
        );
    }
}

#[test]
fn dcn_ribs_identical_with_policies_active() {
    // The DCN exercises route maps, AS_PATH overwrite, aggregation,
    // remove-private-as with both vendor semantics, and mixed ECMP — the
    // equality must survive all of it.
    let dcn = gen_dcn(DcnParams::small());
    let model = NetworkModel::build(dcn.topology, dcn.configs).unwrap();
    let reference = reference_rib(&model);

    for (workers, shards) in [(1, 1), (2, 4), (4, 8), (6, 3)] {
        let rib = s2_rib(&model, workers, shards, Scheme::Metis);
        assert_eq!(rib, reference, "RIBs differ for workers={workers} shards={shards}");
    }
}

#[test]
fn sharded_monolithic_matches_unsharded() {
    let dcn = gen_dcn(DcnParams::small());
    let model = NetworkModel::build(dcn.topology, dcn.configs).unwrap();
    let reference = reference_rib(&model);
    for shards in [2usize, 5, 12] {
        let opts = MonolithicOptions {
            shards,
            ..Default::default()
        };
        let (rib, stats) = simulate_control_plane(&model, &opts).unwrap();
        assert_eq!(rib, reference, "shards={shards}");
        assert!(stats.shards <= shards);
    }
}

#[test]
fn route_counts_match_the_quadratic_growth() {
    // Every edge prefix lands on every switch: routes ≈ prefixes × nodes
    // (§2.2's "quadric to the number of switches" observation).
    for k in [4usize, 6] {
        let ft = gen_ft(FatTreeParams::new(k));
        let model = NetworkModel::build(ft.topology, ft.configs).unwrap();
        let rib = reference_rib(&model);
        let nodes = k * k + k * k / 4;
        let prefixes = k * k / 2;
        let bgp_routes: usize = rib
            .per_node
            .iter()
            .flat_map(|row| row.iter())
            .filter(|r| r.protocol == s2_net::policy::Protocol::Bgp)
            .count();
        assert_eq!(bgp_routes, nodes * prefixes, "k={k}");
    }
}

mod random_networks {
    use super::*;
    use proptest::prelude::*;
    use s2_net::config::{BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, Vendor};
    use s2_net::topology::Topology;
    use s2_net::{Ipv4Addr, Prefix};

    /// Builds a random connected eBGP network: a spanning tree over `n`
    /// nodes plus `extra` random chords, unique ASNs, a random subset of
    /// nodes originating one /24 each.
    fn random_network(
        n: usize,
        extra_edges: &[(usize, usize)],
        originators: &[bool],
    ) -> NetworkModel {
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..n).map(|i| topo.add_node(format!("r{i}"))).collect();
        let mut links: Vec<(usize, usize)> = (1..n).map(|i| (i / 2, i)).collect(); // tree
        for &(a, b) in extra_edges {
            let (a, b) = (a % n, b % n);
            if a != b && !links.contains(&(a.min(b), a.max(b))) {
                links.push((a.min(b), a.max(b)));
            }
        }

        let mut cfgs: Vec<DeviceConfig> = (0..n)
            .map(|i| {
                let mut c = DeviceConfig::new(format!("r{i}"), if i % 2 == 0 { Vendor::A } else { Vendor::B });
                let mut bgp = BgpProcess::new(65000 + i as u32, Ipv4Addr::new(1, 1, 1, i as u8 + 1));
                bgp.max_ecmp = 16;
                c.bgp = Some(bgp);
                c
            })
            .collect();

        for (li, &(a, b)) in links.iter().enumerate() {
            let base = 0xac10_0000u32 + (li as u32) * 2;
            let (aa, ab) = (Ipv4Addr(base), Ipv4Addr(base + 1));
            let ifc = |idx: usize| format!("e{idx}");
            let ia = cfgs[a].interfaces.len();
            let ib = cfgs[b].interfaces.len();
            cfgs[a].interfaces.push(InterfaceConfig::new(ifc(ia), aa, 31));
            cfgs[b].interfaces.push(InterfaceConfig::new(ifc(ib), ab, 31));
            cfgs[a].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
                peer: ab,
                remote_as: 65000 + b as u32,
                import_policy: None,
                export_policy: None,
                remove_private_as: false,
            });
            cfgs[b].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
                peer: aa,
                remote_as: 65000 + a as u32,
                import_policy: None,
                export_policy: None,
                remove_private_as: false,
            });
            topo.connect(ids[a], ids[b]);
        }
        for (i, &orig) in originators.iter().enumerate() {
            if orig && i < n {
                cfgs[i].bgp.as_mut().unwrap().networks.push(Network {
                    prefix: Prefix::new(Ipv4Addr::new(10, 0, i as u8, 0), 24),
                });
            }
        }
        NetworkModel::build(topo, cfgs).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// On arbitrary random connected graphs with random originations,
        /// S2 (random worker count, scheme, shard count) and the
        /// monolithic baseline compute identical RIBs.
        #[test]
        fn prop_random_graphs_equivalent(
            n in 3usize..14,
            extra in proptest::collection::vec((0usize..16, 0usize..16), 0..8),
            orig_bits in proptest::collection::vec(any::<bool>(), 14),
            workers in 1u32..5,
            shards in 1usize..6,
            seed in any::<u64>(),
        ) {
            // Ensure at least one originator.
            let mut originators = orig_bits;
            originators[0] = true;
            let model = random_network(n, &extra, &originators);
            let reference = reference_rib(&model);
            let rib = s2_rib(&model, workers, shards, Scheme::Random { seed });
            prop_assert_eq!(rib, reference);
        }
    }
}
