//! A synthetic stand-in for the paper's proprietary hyper-scale DCN
//! (§2.3 / §5.3).
//!
//! The paper's real network cannot be released, but §2.3 describes exactly
//! which behaviours give it its distinct verification profile. This
//! generator reproduces every one of them:
//!
//! * **Multi-layer Clos clusters of mixed depth** — larger clusters have 5
//!   layers, smaller ones 3, joined by a spine layer and border routers.
//! * **Per-layer ASNs** — switches at the same layer of the same cluster
//!   share an ASN; even layers use private ASNs, odd layers public ones
//!   (so `remove-private-as` has observable, vendor-dependent effects).
//! * **AS_PATH overwrite** — the layer-1 switches overwrite the AS path on
//!   routes exported down to ToRs, preventing the route drops that
//!   repeated per-layer ASNs would otherwise cause.
//! * **Route aggregation with community tagging** — the top layer of each
//!   5-layer cluster originates summary-only aggregates of the cluster's
//!   server and loopback space, tagged with communities the borders match.
//! * **ECMP variation** — alternate switches get different `max_ecmp`.
//! * **Mixed vendors** — switches alternate between the two dialects, so
//!   both `remove-private-as` semantics are active in one network.

use crate::LinkAddrAllocator;
use s2_net::config::{
    Aggregate, BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, StaticRoute,
    Vendor,
};
use s2_net::policy::{
    community, AsPathAction, MatchCondition, PolicyAction, PrefixList, PrefixListEntry,
    RouteMapClause, RouteMapDisposition,
};
use s2_net::topology::{NodeId, Topology};
use s2_net::{Ipv4Addr, Prefix};

/// Shape of one cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of layers (3 or 5 in the paper's DCN).
    pub layers: usize,
    /// Number of ToR switches (layer 0).
    pub tors: usize,
    /// Number of switches in each layer above the ToRs.
    pub width: usize,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct DcnParams {
    /// Cluster shapes.
    pub clusters: Vec<ClusterSpec>,
    /// Number of spine switches interconnecting clusters.
    pub spines: usize,
    /// Number of border routers above the spines.
    pub borders: usize,
}

impl DcnParams {
    /// A small mixed network: one 3-layer and one 5-layer cluster.
    pub fn small() -> Self {
        DcnParams {
            clusters: vec![
                ClusterSpec { layers: 3, tors: 4, width: 2 },
                ClusterSpec { layers: 5, tors: 4, width: 2 },
            ],
            spines: 2,
            borders: 2,
        }
    }

    /// Scales the small shape up by duplicating clusters and widening.
    pub fn scaled(clusters: usize, tors: usize, width: usize) -> Self {
        DcnParams {
            clusters: (0..clusters)
                .map(|c| ClusterSpec {
                    layers: if c % 2 == 0 { 3 } else { 5 },
                    tors,
                    width,
                })
                .collect(),
            spines: width.max(2),
            borders: 2,
        }
    }

    /// Total switch count.
    pub fn switch_count(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.tors + (c.layers - 1) * c.width)
            .sum::<usize>()
            + self.spines
            + self.borders
    }
}

/// The community tagged onto every cluster aggregate.
pub const AGG_COMMUNITY: u32 = community(60000, 99);

/// The per-cluster aggregate community.
pub fn cluster_community(cluster: usize) -> u32 {
    community(60000, cluster as u16)
}

/// The generated DCN.
#[derive(Debug, Clone)]
pub struct Dcn {
    /// The physical topology.
    pub topology: Topology,
    /// Per-node configurations.
    pub configs: Vec<DeviceConfig>,
    /// Parameters used.
    pub params: DcnParams,
    /// ToR node ids per cluster.
    pub tors: Vec<Vec<NodeId>>,
    /// Border router node ids.
    pub borders: Vec<NodeId>,
    /// Spine node ids.
    pub spines: Vec<NodeId>,
}

impl Dcn {
    /// Server prefix of ToR `t` in cluster `c`.
    pub fn server_prefix(cluster: usize, tor: usize) -> Prefix {
        Prefix::new(Ipv4Addr::new(10, cluster as u8, tor as u8, 0), 24)
    }

    /// Management loopback prefix of ToR `t` in cluster `c`.
    pub fn loopback_prefix(cluster: usize, tor: usize) -> Prefix {
        Prefix::new(Ipv4Addr::new(11, cluster as u8, tor as u8, 1), 32)
    }

    /// The cluster-wide server aggregate.
    pub fn server_aggregate(cluster: usize) -> Prefix {
        Prefix::new(Ipv4Addr::new(10, cluster as u8, 0, 0), 16)
    }

    /// The cluster-wide loopback aggregate.
    pub fn loopback_aggregate(cluster: usize) -> Prefix {
        Prefix::new(Ipv4Addr::new(11, cluster as u8, 0, 0), 16)
    }
}

/// ASN of a cluster layer: even layers private, odd layers public, unique
/// per (cluster, layer).
fn layer_asn(cluster: usize, layer: usize) -> u32 {
    if layer.is_multiple_of(2) {
        64512 + (cluster * 8 + layer) as u32
    } else {
        60000 + (cluster * 8 + layer) as u32
    }
}

/// Spines share one public ASN (they are one layer, per the paper).
const SPINE_ASN: u32 = 65000;

fn border_asn(i: usize) -> u32 {
    400 + i as u32
}

/// Generates the DCN.
pub fn generate(params: DcnParams) -> Dcn {
    let mut topo = Topology::new();
    let mut alloc = LinkAddrAllocator::new();

    // ---- Nodes ----
    let mut cluster_layers: Vec<Vec<Vec<NodeId>>> = Vec::new(); // [cluster][layer][i]
    for (c, spec) in params.clusters.iter().enumerate() {
        let mut layers = Vec::new();
        let tors: Vec<NodeId> = (0..spec.tors)
            .map(|i| topo.add_node(format!("cl{c}-l0-s{i}")))
            .collect();
        layers.push(tors);
        for l in 1..spec.layers {
            layers.push(
                (0..spec.width)
                    .map(|i| topo.add_node(format!("cl{c}-l{l}-s{i}")))
                    .collect(),
            );
        }
        cluster_layers.push(layers);
    }
    let spines: Vec<NodeId> = (0..params.spines)
        .map(|i| topo.add_node(format!("spine{i}")))
        .collect();
    let borders: Vec<NodeId> = (0..params.borders)
        .map(|i| topo.add_node(format!("border{i}")))
        .collect();

    // ---- Base configurations ----
    let mut configs: Vec<DeviceConfig> = topo
        .nodes()
        .map(|n| {
            let name = topo.name(n).to_string();
            let vendor = if n.0 % 2 == 0 { Vendor::A } else { Vendor::B };
            let mut cfg = DeviceConfig::new(name, vendor);
            let id = n.0;
            let mut bgp = BgpProcess::new(
                0, // filled in below
                Ipv4Addr::new(2, (id >> 16) as u8, (id >> 8) as u8, id as u8),
            );
            // ECMP variation: even switches 64, odd 32 (§2.3).
            bgp.max_ecmp = if id % 2 == 0 { 64 } else { 32 };
            cfg.bgp = Some(bgp);
            cfg
        })
        .collect();
    for (c, layers) in cluster_layers.iter().enumerate() {
        for (l, nodes) in layers.iter().enumerate() {
            for n in nodes {
                configs[n.index()].bgp.as_mut().unwrap().asn = layer_asn(c, l);
            }
        }
    }
    for s in &spines {
        configs[s.index()].bgp.as_mut().unwrap().asn = SPINE_ASN;
    }
    for (i, b) in borders.iter().enumerate() {
        configs[b.index()].bgp.as_mut().unwrap().asn = border_asn(i);
    }

    // ---- Policies ----
    // Layer-1 switches overwrite the AS path on routes sent down to ToRs,
    // scoped to the DC address space by a prefix list.
    let dc_space = PrefixList {
        entries: vec![
            PrefixListEntry {
                prefix: "10.0.0.0/8".parse().unwrap(),
                ge: Some(9),
                le: Some(32),
                permit: true,
            },
            PrefixListEntry {
                prefix: "11.0.0.0/8".parse().unwrap(),
                ge: Some(9),
                le: Some(32),
                permit: true,
            },
        ],
    };
    let overwrite_map = {
        let mut rm = s2_net::policy::RouteMap::default();
        rm.push_clause(RouteMapClause {
            seq: 10,
            disposition: RouteMapDisposition::Permit,
            matches: vec![MatchCondition::PrefixList("DC-SPACE".into())],
            actions: vec![PolicyAction::AsPath(AsPathAction::Overwrite(Vec::new()))],
        });
        rm.push_clause(RouteMapClause {
            seq: 20,
            disposition: RouteMapDisposition::Permit,
            matches: vec![],
            actions: vec![],
        });
        rm
    };
    // Borders prefer tagged aggregates.
    let border_import = {
        let mut rm = s2_net::policy::RouteMap::default();
        rm.push_clause(RouteMapClause {
            seq: 10,
            disposition: RouteMapDisposition::Permit,
            matches: vec![MatchCondition::Community(AGG_COMMUNITY)],
            actions: vec![PolicyAction::SetLocalPref(200)],
        });
        rm.push_clause(RouteMapClause {
            seq: 20,
            disposition: RouteMapDisposition::Permit,
            matches: vec![],
            actions: vec![],
        });
        rm
    };

    // ---- Wiring ----
    let mut iface_counter = vec![0usize; topo.node_count()];
    let mut connect = |topo: &mut Topology,
                       configs: &mut Vec<DeviceConfig>,
                       alloc: &mut LinkAddrAllocator,
                       x: NodeId,
                       y: NodeId,
                       export_x: Option<&str>,
                       remove_private_x: bool| {
        topo.connect(x, y);
        let (ax, ay) = alloc.next_pair();
        let asn_x = configs[x.index()].bgp.as_ref().unwrap().asn;
        let asn_y = configs[y.index()].bgp.as_ref().unwrap().asn;
        for (node, addr, peer_addr, peer_asn, export, rp) in [
            (x, ax, ay, asn_y, export_x, remove_private_x),
            (y, ay, ax, asn_x, None, false),
        ] {
            let idx = iface_counter[node.index()];
            iface_counter[node.index()] += 1;
            configs[node.index()]
                .interfaces
                .push(InterfaceConfig::new(format!("eth{idx}"), addr, 31));
            configs[node.index()]
                .bgp
                .as_mut()
                .expect("all switches run BGP")
                .neighbors
                .push(BgpNeighbor {
                    peer: peer_addr,
                    remote_as: peer_asn,
                    import_policy: None,
                    export_policy: export.map(str::to_string),
                    remove_private_as: rp,
                });
        }
    };

    for (c, layers) in cluster_layers.iter().enumerate() {
        // Full bipartite between adjacent layers. Layer-1 exports to ToRs
        // through the overwrite map.
        for l in 0..layers.len() - 1 {
            for &hi in &layers[l + 1] {
                for &lo in &layers[l] {
                    let export = if l == 0 { Some("TO-TOR") } else { None };
                    connect(&mut topo, &mut configs, &mut alloc, hi, lo, export, false);
                }
            }
        }
        // Cluster top layer to all spines.
        let top = layers.last().expect("clusters have at least one layer");
        for &t in top {
            for &s in &spines {
                connect(&mut topo, &mut configs, &mut alloc, t, s, None, false);
            }
        }
        let _ = c;
    }
    // Spines to borders, with remove-private-as on the spine side.
    for &s in &spines {
        for &b in &borders {
            connect(&mut topo, &mut configs, &mut alloc, s, b, None, true);
        }
    }
    // Borders peer with each other (exchange filtered routes, §2.3).
    for i in 0..borders.len() {
        for j in (i + 1)..borders.len() {
            connect(&mut topo, &mut configs, &mut alloc, borders[i], borders[j], None, false);
        }
    }

    // ---- Originations, aggregation, policy attachment ----
    for (c, layers) in cluster_layers.iter().enumerate() {
        for (t, &tor) in layers[0].iter().enumerate() {
            let bgp = configs[tor.index()].bgp.as_mut().unwrap();
            bgp.networks.push(Network {
                prefix: Dcn::server_prefix(c, t),
            });
            bgp.networks.push(Network {
                prefix: Dcn::loopback_prefix(c, t),
            });
        }
        // Layer-1 switches need the overwrite map + prefix list installed.
        for &n in &layers[1] {
            let cfg = &mut configs[n.index()];
            cfg.prefix_lists.insert("DC-SPACE".into(), dc_space.clone());
            cfg.route_maps.insert("TO-TOR".into(), overwrite_map.clone());
        }
        // Aggregation at the top of 5-layer clusters (§2.3: layer ≥ 3).
        if layers.len() >= 4 {
            for &n in layers.last().unwrap() {
                let bgp = configs[n.index()].bgp.as_mut().unwrap();
                bgp.aggregates.push(Aggregate {
                    prefix: Dcn::server_aggregate(c),
                    summary_only: true,
                    communities: vec![AGG_COMMUNITY, cluster_community(c)],
                });
                bgp.aggregates.push(Aggregate {
                    prefix: Dcn::loopback_aggregate(c),
                    summary_only: true,
                    communities: vec![AGG_COMMUNITY, cluster_community(c)],
                });
            }
        }
    }
    for &b in &borders {
        let cfg = &mut configs[b.index()];
        cfg.route_maps.insert("FROM-FABRIC".into(), border_import.clone());
        let bgp = cfg.bgp.as_mut().unwrap();
        for n in bgp.neighbors.iter_mut() {
            n.import_policy = Some("FROM-FABRIC".into());
        }
        // Borders discard unknown DC space (exercises static routes).
        cfg.static_routes.push(StaticRoute {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: None,
        });
    }

    let tors = cluster_layers.iter().map(|l| l[0].clone()).collect();
    Dcn {
        topology: topo,
        configs,
        params,
        tors,
        borders,
        spines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_routing::NetworkModel;

    #[test]
    fn counts_match_spec() {
        let params = DcnParams::small();
        let expected = params.switch_count();
        let dcn = generate(params);
        assert_eq!(dcn.topology.node_count(), expected);
        // 3-layer: 4 ToR + 2*2; 5-layer: 4 + 4*2; + 2 spines + 2 borders.
        assert_eq!(expected, 8 + 12 + 4);
    }

    #[test]
    fn sessions_all_establish() {
        let dcn = generate(DcnParams::small());
        let model = NetworkModel::build(dcn.topology.clone(), dcn.configs.clone()).unwrap();
        assert!(model.session_diagnostics.is_empty(), "{:?}", model.session_diagnostics);
        assert_eq!(model.session_count(), dcn.topology.link_count() * 2);
    }

    #[test]
    fn layer_asns_shared_and_parity_split() {
        let dcn = generate(DcnParams::small());
        let asn_of = |name: &str| {
            let n = dcn.topology.node_by_name(name).unwrap();
            dcn.configs[n.index()].bgp.as_ref().unwrap().asn
        };
        assert_eq!(asn_of("cl0-l0-s0"), asn_of("cl0-l0-s3"));
        assert_ne!(asn_of("cl0-l0-s0"), asn_of("cl1-l0-s0"));
        assert!(s2_net::policy::is_private_asn(asn_of("cl0-l0-s0"))); // even layer
        assert!(!s2_net::policy::is_private_asn(asn_of("cl0-l1-s0"))); // odd layer
    }

    #[test]
    fn five_layer_cluster_aggregates_three_layer_does_not() {
        let dcn = generate(DcnParams::small());
        let has_agg = |name: &str| {
            let n = dcn.topology.node_by_name(name).unwrap();
            !dcn.configs[n.index()].bgp.as_ref().unwrap().aggregates.is_empty()
        };
        assert!(!has_agg("cl0-l2-s0"), "3-layer cluster must not aggregate");
        assert!(has_agg("cl1-l4-s0"), "5-layer top must aggregate");
        let n = dcn.topology.node_by_name("cl1-l4-s0").unwrap();
        let agg = &dcn.configs[n.index()].bgp.as_ref().unwrap().aggregates[0];
        assert!(agg.summary_only);
        assert!(agg.communities.contains(&AGG_COMMUNITY));
    }

    #[test]
    fn vendors_and_ecmp_are_mixed() {
        let dcn = generate(DcnParams::small());
        let vendors: std::collections::BTreeSet<_> =
            dcn.configs.iter().map(|c| c.vendor).collect();
        assert_eq!(vendors.len(), 2);
        let ecmps: std::collections::BTreeSet<_> = dcn
            .configs
            .iter()
            .map(|c| c.bgp.as_ref().unwrap().max_ecmp)
            .collect();
        assert_eq!(ecmps, [32u8, 64].into_iter().collect());
    }

    #[test]
    fn tor_overwrite_policy_is_installed() {
        let dcn = generate(DcnParams::small());
        let n = dcn.topology.node_by_name("cl0-l1-s0").unwrap();
        let cfg = &dcn.configs[n.index()];
        assert!(cfg.route_maps.contains_key("TO-TOR"));
        assert!(cfg.prefix_lists.contains_key("DC-SPACE"));
        // The map is referenced by the down-facing neighbors.
        let bgp = cfg.bgp.as_ref().unwrap();
        assert!(bgp
            .neighbors
            .iter()
            .any(|nb| nb.export_policy.as_deref() == Some("TO-TOR")));
    }

    #[test]
    fn configs_roundtrip_through_both_dialects() {
        let dcn = generate(DcnParams::small());
        let texts = crate::emit_configs(&dcn.configs);
        let parsed = crate::parse_configs(&texts).unwrap();
        assert_eq!(parsed, dcn.configs);
    }

    #[test]
    fn scaled_params_grow() {
        let p = DcnParams::scaled(4, 6, 3);
        assert_eq!(p.clusters.len(), 4);
        assert!(p.switch_count() > DcnParams::small().switch_count());
    }
}
