//! Micro-benchmarks of the substrate hot paths: the wire codec and the
//! frame checksum (every cross-worker route pays these), BDD DAG
//! serialization (every cross-worker packet pays this), LPM trie
//! lookups, route-map evaluation, best-path selection and the BGP
//! fix point (FatTree k=8, and k=16 over three shards), graph
//! partitioning, the data plane's predicate compile, the two fixed
//! steps of a warm sweep scenario (scoping its changed destinations,
//! restoring the checkpoint) and a daemon link-down on top of committed
//! ones.
//!
//! `cargo bench -p bench --bench micro -- NAME` runs only the bodies
//! whose `group/label` contains `NAME`; a group none of whose bodies
//! match skips its set-up too.
//!
//! These quantify the constants behind the distributed design's
//! trade-offs: e.g. one serialized route costs ~100ns while a local
//! delivery is free, which is why the adj-RIB-out delta-send and
//! fragment-merging optimizations exist.

use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use s2_bdd::{serialize as bdd_io, BddManager};
use s2_net::policy::Protocol;
use s2_net::{Ipv4Addr, Prefix, PrefixTrie};
use s2_routing::{BgpRoute, Origin};
use s2_runtime::Wire;

fn sample_route(i: u32) -> BgpRoute {
    BgpRoute {
        prefix: Prefix::new(Ipv4Addr(0x0a000000 | (i << 8)), 24),
        next_hop: Ipv4Addr(0xac100001),
        as_path: vec![65000 + i, 65001, 65002, 65003].into(),
        local_pref: 100,
        med: 0,
        origin: Origin::Igp,
        communities: vec![1, 2, 3].into(),
        weight: 0,
        source_protocol: Protocol::Bgp,
    }
}

/// The first spine of a converged DCN (8 clusters of 16 ToRs, width 4:
/// the `dcn_cold` fabric), from converged OSPF and BGP.
fn dcn_spine() -> s2_routing::SwitchModel {
    use s2_routing::{converge_bgp, converge_ospf, NetworkModel, SwitchModel, DEFAULT_MAX_ROUNDS};
    let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(8, 16, 4));
    let model = NetworkModel::build(dcn.topology, dcn.configs).unwrap();
    let mut switches: Vec<SwitchModel> =
        model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
    converge_ospf(&model, &mut switches, DEFAULT_MAX_ROUNDS).unwrap();
    converge_bgp(&mut switches, None, DEFAULT_MAX_ROUNDS).unwrap();
    switches.swap_remove(dcn.spines[0].index())
}

fn bench_wire(c: &mut Criterion) {
    use std::sync::Arc;

    let labels = ["encode_64_routes", "decode_64_routes", "decode_class_body", "crc32_1500"];
    if !c.any_selected("micro_wire", &labels) {
        return;
    }
    let mut g = c.benchmark_group("micro_wire");
    let routes: Vec<BgpRoute> = (0..64).map(sample_route).collect();
    g.bench_function("encode_64_routes", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(4096);
            for r in &routes {
                black_box(r).put(&mut buf);
            }
            buf
        })
    });
    let mut buf = BytesMut::new();
    for r in &routes {
        r.put(&mut buf);
    }
    let bytes = buf.freeze();
    g.bench_function("decode_64_routes", |b| {
        b.iter(|| {
            let mut slice = bytes.clone();
            let mut out = Vec::with_capacity(64);
            for _ in 0..64 {
                out.push(BgpRoute::take(&mut slice).unwrap());
            }
            out
        })
    });
    // The body a DCN spine's first export class carries, as a worker
    // decodes it off a tag-4 frame: one shared slice.
    let body = dcn_spine().bgp_export().swap_remove(0).routes;
    let bytes = body.to_bytes();
    g.bench_function("decode_class_body", |b| {
        b.iter(|| Arc::<[BgpRoute]>::from_bytes(black_box(bytes.clone())).unwrap())
    });
    // The frame checksum over one Ethernet-MTU payload; every frame pays
    // it twice (sender and receiver).
    let payload: Vec<u8> = (0..1500u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    g.bench_function("crc32_1500", |b| b.iter(|| s2_runtime::wire::crc32(black_box(&payload))));
    g.finish();
}

fn bench_bdd_serialize(c: &mut Criterion) {
    let labels = ["serialize_packet_set", "reencode_packet_set", "and_packet_sets"];
    if !c.any_selected("micro_bdd", &labels) {
        return;
    }
    let mut g = c.benchmark_group("micro_bdd");
    // A realistic symbolic packet: union of 32 /24 destination prefixes.
    let mut m = BddManager::new(104);
    let prefixes: Vec<_> = (0..32u32)
        .map(|i| m.encode_prefix(0, 0x0a000000 | (i << 8), 24))
        .collect();
    let set = m.or_all(prefixes);
    g.bench_function("serialize_packet_set", |b| {
        b.iter(|| bdd_io::to_bytes(&m, black_box(set)))
    });
    let bytes = bdd_io::to_bytes(&m, set);
    g.bench_function("reencode_packet_set", |b| {
        // Cold destination manager each iteration: the real cross-worker
        // cost the first time a fragment reaches a worker.
        b.iter(|| {
            let mut dst = BddManager::new(104);
            bdd_io::from_bytes(&mut dst, black_box(&bytes)).unwrap()
        })
    });
    g.bench_function("and_packet_sets", |b| {
        let other = m.encode_prefix(0, 0x0a000000, 16);
        b.iter(|| m.and(black_box(set), black_box(other)))
    });
    g.finish();
}

fn bench_trie(c: &mut Criterion) {
    if !c.any_selected("micro_trie", &["lpm_lookup_1k_entries"]) {
        return;
    }
    let mut g = c.benchmark_group("micro_trie");
    let trie: PrefixTrie<u32> = (0..1024u32)
        .map(|i| (Prefix::new(Ipv4Addr(0x0a000000 | (i << 8)), 24), i))
        .collect();
    g.bench_function("lpm_lookup_1k_entries", |b| {
        b.iter(|| trie.lookup(black_box(Ipv4Addr(0x0a00f007))))
    });
    g.finish();
}

fn bench_bgp(c: &mut Criterion) {
    use s2_routing::bgp::{select_multipath, Candidate};
    use s2_routing::{converge_bgp, converge_ospf, NetworkModel, SwitchModel, DEFAULT_MAX_ROUNDS};
    use std::sync::Arc;

    let labels = [
        "select_multipath_16",
        "converge_fattree8",
        "converge_fattree16_3shards",
        "receive_body",
        "decide_dirty",
        "export_class",
    ];
    if !c.any_selected("micro_bgp", &labels) {
        return;
    }
    let mut g = c.benchmark_group("micro_bgp");
    let candidates: Vec<Candidate> = (0..16)
        .map(|i| Candidate {
            route: sample_route(i),
            peer: Some(Ipv4Addr(0xac100000 + i)),
            session: i,
        })
        .collect();
    g.bench_function("select_multipath_16", |b| {
        b.iter(|| select_multipath(black_box(candidates.iter().map(Candidate::view).collect()), 8))
    });

    // A cold BGP fix point of FatTree k=8 through the round engine, from
    // converged OSPF.
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(8));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let mut switches: Vec<SwitchModel> =
        model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
    converge_ospf(&model, &mut switches, DEFAULT_MAX_ROUNDS).unwrap();
    let ospf = switches.clone();
    g.bench_function("converge_fattree8", |b| {
        b.iter(|| converge_bgp(&mut ospf.clone(), None, DEFAULT_MAX_ROUNDS).unwrap().rounds)
    });
    // The same at k=16 over three prefix shards, as the monolithic
    // baseline runs it: one fix point per shard on the same switches.
    let ft16 = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(16));
    let model16 = NetworkModel::build(ft16.topology, ft16.configs).unwrap();
    let mut ospf16: Vec<SwitchModel> =
        model16.topology.nodes().map(|n| SwitchModel::new(&model16, n)).collect();
    converge_ospf(&model16, &mut ospf16, DEFAULT_MAX_ROUNDS).unwrap();
    let plan = s2_shard::plan(&ospf16, 3, 7);
    g.bench_function("converge_fattree16_3shards", |b| {
        b.iter(|| {
            let mut switches = ospf16.clone();
            let rounds = plan.shards.iter().map(|shard| {
                converge_bgp(&mut switches, Some(shard), DEFAULT_MAX_ROUNDS).unwrap().rounds
            });
            rounds.sum::<usize>()
        })
    });

    // One core switch of the converged FatTree and the full body its
    // first session's peer advertises to it.
    converge_bgp(&mut switches, None, DEFAULT_MAX_ROUNDS).unwrap();
    let mut core = switches[ft.cores[0].index()].clone();
    let session = core.sessions[0].clone();
    let body: Arc<[BgpRoute]> = switches[session.peer_node.index()]
        .bgp_export()
        .into_iter()
        .find(|class| class.sessions.contains(&(session.peer_session_index as usize)))
        .map(|class| class.routes)
        .expect("every session is in one export class");
    let empty: Arc<[BgpRoute]> = Arc::from([]);
    // The same routes in a body of their own: the receive walks all of
    // them against the Adj-RIB-In and finds nothing changed.
    g.bench_function("receive_body", |b| {
        b.iter(|| {
            let copy: Arc<[BgpRoute]> = Arc::from(body.to_vec());
            core.bgp_receive(0, black_box(&copy))
        })
    });
    // The session withdraws everything, then re-announces it: each
    // decide reselects every prefix the body carries.
    g.bench_function("decide_dirty", |b| {
        b.iter(|| {
            core.bgp_receive(0, &empty);
            let withdrawn = core.bgp_decide(None);
            core.bgp_receive(0, &body);
            withdrawn & core.bgp_decide(None)
        })
    });
    // Every export class of a converged DCN spine: export policy,
    // aggregate suppression and the prepended AS path per route.
    let spine = dcn_spine();
    g.bench_function("export_class", |b| b.iter(|| black_box(&spine).bgp_export()));
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    if !c.any_selected("micro_partition", &["greedy_kl_fattree10_8way"]) {
        return;
    }
    let mut g = c.benchmark_group("micro_partition");
    g.sample_size(10);
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(10));
    let loads = s2_partition::estimate::estimate_loads(&ft.topology);
    g.bench_function("greedy_kl_fattree10_8way", |b| {
        b.iter(|| {
            s2_partition::greedy::partition(
                &ft.topology,
                &loads,
                8,
                &s2_partition::greedy::GreedyOptions::default(),
            )
        })
    });
    g.finish();
}

fn bench_dpv(c: &mut Criterion) {
    use s2_baselines::{simulate_control_plane, MonolithicOptions};
    use s2_dataplane::{Fib, NodePredicates, PacketSpace};
    use s2_net::config::DeviceConfig;
    use s2_net::topology::Topology;
    use s2_routing::NetworkModel;
    use s2_topogen::{dcn, fattree};

    if !c.any_selected("micro_dpv", &["compile_preds/fattree16", "compile_preds/dcn_8_16_4"]) {
        return;
    }
    let mut g = c.benchmark_group("micro_dpv");
    g.sample_size(10);
    // The converged FIBs of every other node — one of two workers' share —
    // compiled into one fresh manager, as a worker's `dp_setup` does.
    let space = PacketSpace::new(0);
    let mut bench = |name: &str, topology: Topology, configs: Vec<DeviceConfig>| {
        let model = NetworkModel::build(topology, configs).unwrap();
        let (rib, _) = simulate_control_plane(&model, &MonolithicOptions::default()).unwrap();
        let fibs: Vec<_> =
            model.topology.nodes().step_by(2).map(|n| (n, Fib::from_rib(rib.node(n)))).collect();
        g.bench_function(BenchmarkId::new("compile_preds", name), |b| {
            b.iter(|| {
                let mut mgr = space.manager();
                for (n, fib) in &fibs {
                    black_box(NodePredicates::compile(&model, *n, fib, &space, &mut mgr));
                }
                mgr.node_count()
            })
        });
    };
    let ft = fattree::generate(fattree::FatTreeParams::new(16));
    bench("fattree16", ft.topology, ft.configs);
    let d = dcn::generate(dcn::DcnParams::scaled(8, 16, 4));
    bench("dcn_8_16_4", d.topology, d.configs);
    g.finish();
}

fn bench_merge_ablation(c: &mut Criterion) {
    use s2_baselines::{simulate_control_plane, MonolithicOptions};
    use s2_dataplane::{forward, Fib, ForwardOptions, NodePredicates, PacketSpace};
    use s2_routing::NetworkModel;

    let ablations = [
        ("ablation_fragment_merging", ["merged", "unmerged"]),
        ("ablation_ingress_class_merge", ["by_class", "by_port"]),
    ];
    if !ablations.iter().any(|(group, labels)| c.any_selected(group, labels)) {
        return;
    }
    let mut g = c.benchmark_group("ablation_fragment_merging");
    g.sample_size(10);
    // All-pair injection over the DCN-like dense fabric is where merging
    // matters: paths converge at every layer.
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(6));
    let sources: Vec<_> = (0..6).flat_map(|p| (0..3).map(move |e| (p, e))).collect();
    let srcs: Vec<_> = sources.iter().map(|&(p, e)| ft.edge(p, e)).collect();
    let space = PacketSpace::new(0);
    let bench = |g: &mut criterion::BenchmarkGroup<'_>, name: &str, configs, no_merge| {
        let model = NetworkModel::build(ft.topology.clone(), configs).unwrap();
        let (rib, _) = simulate_control_plane(&model, &MonolithicOptions::default()).unwrap();
        let mut mgr = space.manager();
        let preds: Vec<NodePredicates> = model
            .topology
            .nodes()
            .map(|n| NodePredicates::compile(&model, n, &Fib::from_rib(rib.node(n)), &space, &mut mgr))
            .collect();
        let inject = space.dst_in(&mut mgr, "10.0.0.0/8".parse::<Prefix>().unwrap());
        let opts = ForwardOptions {
            no_merge,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                forward(
                    &model.topology,
                    &preds,
                    &space,
                    &mut mgr,
                    srcs.iter().map(|&s| (s, inject)).collect(),
                    black_box(&opts),
                )
            })
        });
    };
    bench(&mut g, "merged", ft.configs.clone(), false);
    bench(&mut g, "unmerged", ft.configs.clone(), true);
    g.finish();

    // The merged walk with the ingress *class* taken away: a port bound
    // to a permit-all ACL under a name of its own is a class of its own,
    // which leaves the per-port merge key forwarding had before classes.
    let mut g = c.benchmark_group("ablation_ingress_class_merge");
    g.sample_size(10);
    let mut per_port = ft.configs.clone();
    for cfg in &mut per_port {
        for (i, iface) in cfg.interfaces.iter_mut().enumerate() {
            let name = format!("PERMIT-{i}");
            cfg.acls.insert(name.clone(), s2_net::acl::Acl::permit_all());
            iface.acl_in = Some(name);
        }
    }
    bench(&mut g, "by_class", ft.configs.clone(), false);
    bench(&mut g, "by_port", per_port, false);
    g.finish();
}

/// The per-scenario steps of a warm sweep on FatTree k=12, on four
/// single-link scenarios (edge-aggregation and aggregation-core links):
/// the destination scope walk over the checkpointed RIB, and the
/// checkpoint restore of a one-worker engine after each scenario
/// converged. `scenario_rib` builds the first scenario's RIB and
/// changed nodes both ways: `collect` gathers every switch's routes
/// into a store and diffs the whole snapshot against the baseline (the
/// path before patched rows), `patch` rebuilds only the switches that
/// moved and shares every other row with the baseline.
fn bench_sweep(c: &mut Criterion) {
    use s2_net::topology::{InterfaceId, NodeId};
    use s2_routing::rounds::Sequential;
    use s2_routing::{
        converge_ospf, merge_row, BgpRounds, NetworkModel, RibRoute, RibRow, RibSnapshot, RibStore,
    };
    use s2_routing::{SwitchModel, DEFAULT_MAX_ROUNDS};
    use s2_runtime::scope::{scope_sources, ScopeIndex};
    use std::collections::{BTreeMap, BTreeSet};

    fn converge(engine: &mut BgpRounds) {
        engine.export(&Sequential, |_, _| {});
        while engine.receive_and_decide(&Sequential, Vec::new(), None) {
            engine.export(&Sequential, |_, _| {});
        }
    }
    fn rib(engine: &BgpRounds, nodes: usize) -> RibSnapshot {
        let mut store = RibStore::new(nodes);
        for s in engine.switches() {
            store.insert_all(s.node, s.base_rib_routes());
            store.insert_all(s.node, s.bgp_rib_routes());
        }
        store.into_snapshot()
    }
    /// The rows of the switches that moved since the checkpoint and
    /// differ from `base`, as a worker's `DpPatch` builds them.
    fn patched_rows(engine: &BgpRounds, base: &RibSnapshot) -> Vec<(NodeId, RibRow)> {
        engine
            .rib_moved()
            .filter_map(|s| {
                let row = merge_row(s.base_rib_routes().into_iter().chain(s.bgp_rib_routes()));
                (*row != *base.node(s.node)).then_some((s.node, row))
            })
            .collect()
    }
    /// Per node, the prefixes whose routes moved or that left by a
    /// failed port: what `DpPatch` reports.
    fn changed_dst(
        base: &RibSnapshot,
        scenario: &RibSnapshot,
        failed: &[(NodeId, InterfaceId)],
    ) -> BTreeMap<NodeId, BTreeSet<Prefix>> {
        let by_prefix = |routes: &[RibRoute]| {
            let mut m: BTreeMap<Prefix, Vec<RibRoute>> = BTreeMap::new();
            routes.iter().for_each(|r| m.entry(r.prefix).or_default().push(r.clone()));
            m
        };
        let mut out: BTreeMap<NodeId, BTreeSet<Prefix>> = BTreeMap::new();
        for (n, (old, new)) in base.per_node.iter().zip(&scenario.per_node).enumerate() {
            let (old, new) = (by_prefix(old), by_prefix(new));
            let moved = old.keys().chain(new.keys()).filter(|p| old.get(p) != new.get(p));
            out.entry(NodeId(n as u32)).or_default().extend(moved);
        }
        for &(n, iface) in failed {
            let routes = base.node(n).iter().chain(scenario.node(n));
            let gone = routes.filter(|r| r.egress.contains(&iface)).map(|r| r.prefix);
            out.entry(n).or_default().extend(gone);
        }
        out.retain(|_, ps| !ps.is_empty());
        out
    }

    let labels =
        ["scope_index", "scope_sources", "scenario_rib/collect", "scenario_rib/patch", "restore"];
    if !c.any_selected("micro_sweep", &labels) {
        return;
    }
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(12));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let nodes = model.topology.node_count();
    let mut switches: Vec<SwitchModel> =
        model.topology.nodes().map(|n| SwitchModel::new(&model, n)).collect();
    converge_ospf(&model, &mut switches, DEFAULT_MAX_ROUNDS).unwrap();
    let mut engine = BgpRounds::new(switches);
    engine.begin(None);
    converge(&mut engine);
    let checkpoint = engine.checkpoint();
    let base = rib(&checkpoint, nodes);
    let links = model.topology.links();
    let mut scenarios: Vec<BgpRounds> = Vec::new();
    let mut changed: Vec<BTreeMap<NodeId, BTreeSet<Prefix>>> = Vec::new();
    for link in links.iter().step_by(links.len() / 4).take(4) {
        let failed = [link.a, link.b];
        let mut engine = checkpoint.clone();
        engine.set_failed_ports(&model, &failed);
        converge(&mut engine);
        changed.push(changed_dst(&base, &rib(&engine, nodes), &failed));
        scenarios.push(engine);
    }
    let sources: Vec<NodeId> =
        (0..12).flat_map(|p| (0..6).map(move |e| (p, e))).map(|(p, e)| ft.edge(p, e)).collect();

    let mut g = c.benchmark_group("micro_sweep");
    g.bench_function("scope_index", |b| b.iter(|| ScopeIndex::build(&model, &base)));
    let index = ScopeIndex::build(&model, &base);
    g.bench_function("scope_sources", |b| {
        b.iter(|| changed.iter().map(|c| scope_sources(&index, c, &sources).len()).sum::<usize>())
    });
    let scenario = &scenarios[0];
    g.bench_function("scenario_rib/collect", |b| {
        b.iter(|| {
            let rib = rib(scenario, nodes);
            base.changed_nodes(&rib).len()
        })
    });
    g.bench_function("scenario_rib/patch", |b| {
        b.iter(|| {
            let rows = patched_rows(scenario, &base);
            let changed: Vec<NodeId> = rows.iter().map(|(n, _)| *n).collect();
            black_box(base.patched(rows));
            changed.len()
        })
    });
    assert_eq!(
        base.patched(patched_rows(scenario, &base)),
        rib(scenario, nodes),
        "the patched RIB is the collected one"
    );
    g.bench_function("restore", |b| {
        b.iter(|| scenarios.iter_mut().for_each(|engine| engine.restore(&checkpoint)))
    });
    g.finish();
}

/// One daemon link-down on FatTree k=12 over two workers, on top of no
/// committed link-down (`link_down_depth/1`) and on top of two
/// (`link_down_depth/3`): the same edge-aggregation link each time, after
/// one flap of it, so the two differ only in what is already committed.
fn bench_daemon(c: &mut Criterion) {
    use s2::{Daemon, DaemonConfig, S2Options, VerificationRequest};
    use s2_runtime::admin::{AdminResponse, DeltaSpec};
    use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

    if !c.any_selected("micro_daemon", &["link_down_depth/1", "link_down_depth/3"]) {
        return;
    }
    let k = 12;
    let ft = generate(FatTreeParams::new(k));
    let endpoints = (0..k)
        .flat_map(|p| (0..k / 2).map(move |e| (p, e)))
        .map(|(p, e)| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
        .collect();
    let space = "10.0.0.0/8".parse().unwrap();
    let request = VerificationRequest::all_pair_reachability(endpoints, space);
    let mut cfg = DaemonConfig::new(ft.topology.clone(), ft.configs.clone(), request);
    cfg.opts = S2Options { workers: 2, shards: 1, intra_worker_threads: 1, ..Default::default() };
    let down = |a: &str, b: &str| DeltaSpec::LinkDown { a: a.into(), b: b.into() };
    let link = down("pod0-edge0", "pod0-agg0");
    let flap = [link.clone(), DeltaSpec::LinkUp { a: "pod0-edge0".into(), b: "pod0-agg0".into() }];
    let below = [down("pod3-agg2", "core13"), down("pod7-edge4", "pod7-agg5")];

    let mut g = c.benchmark_group("micro_daemon");
    for depth in [1, 3] {
        let mut daemon = Daemon::open(cfg.clone()).unwrap();
        for delta in flap.iter().chain(&below[..depth - 1]) {
            daemon.apply(delta).unwrap();
        }
        g.bench_function(BenchmarkId::new("link_down_depth", depth), |b| {
            b.iter(|| {
                let committed = daemon.apply(&link).unwrap();
                assert!(matches!(committed, AdminResponse::Committed { escalated: false, .. }));
            })
        });
        daemon.shutdown();
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_wire,
    bench_bdd_serialize,
    bench_trie,
    bench_bgp,
    bench_partition,
    bench_dpv,
    bench_merge_ablation,
    bench_sweep,
    bench_daemon
);
criterion_main!(benches);
