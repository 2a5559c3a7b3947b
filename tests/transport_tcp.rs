//! Chaos tests for the TCP transport: the framed-TCP fabric must produce
//! RIBs and verdicts bit-identical to the in-process channel fabric —
//! including at a scale where one round's traffic exceeds any send
//! window, which only works because the fabric, like the channels,
//! buffers a round without bound — survive a severed connection
//! mid-fixpoint via supervised reconnect, heal a timed partition, and
//! keep the verdict under a throttled link.

use s2::{NetworkModel, S2Options, S2Verifier, VerificationRequest};
use s2_net::config::{BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, Vendor};
use s2_net::topology::{NodeId, Topology};
use s2_net::Ipv4Addr;
use s2_routing::RibSnapshot;
use s2_runtime::admin::verdict_hash;
use s2_runtime::{Cluster, ClusterOptions, FaultPlan, RuntimeConfig, TransportKind};
use s2_shard::ShardPlan;
use s2_topogen::fattree::{generate as gen_ft, FatTree, FatTreeParams};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The 4-node eBGP line t0—m1—m2—t3; t0 announces two prefixes. Workers
/// split {t0, m1} / {m2, t3}, so every m1—m2 exchange crosses the fabric.
fn line_model() -> NetworkModel {
    let mut topo = Topology::new();
    let names = ["t0", "m1", "m2", "t3"];
    let ids: Vec<NodeId> = names.iter().map(|n| topo.add_node(*n)).collect();
    topo.connect(ids[0], ids[1]);
    topo.connect(ids[1], ids[2]);
    topo.connect(ids[2], ids[3]);

    let mut cfgs: Vec<DeviceConfig> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut c = DeviceConfig::new(*n, Vendor::A);
            c.bgp = Some(BgpProcess::new(
                65000 + i as u32,
                Ipv4Addr::new(1, 1, 1, i as u8 + 1),
            ));
            c
        })
        .collect();
    let subnets = [
        (Ipv4Addr::new(172, 16, 0, 0), Ipv4Addr::new(172, 16, 0, 1)),
        (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(172, 16, 0, 3)),
        (Ipv4Addr::new(172, 16, 0, 4), Ipv4Addr::new(172, 16, 0, 5)),
    ];
    for (li, (i, j)) in [(0usize, 1usize), (1, 2), (2, 3)].iter().copied().enumerate() {
        let (ai, aj) = subnets[li];
        cfgs[i]
            .interfaces
            .push(InterfaceConfig::new(format!("e{li}a"), ai, 31));
        cfgs[j]
            .interfaces
            .push(InterfaceConfig::new(format!("e{li}b"), aj, 31));
        let asn_i = 65000 + i as u32;
        let asn_j = 65000 + j as u32;
        cfgs[i].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
            peer: aj,
            remote_as: asn_j,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
        cfgs[j].bgp.as_mut().unwrap().neighbors.push(BgpNeighbor {
            peer: ai,
            remote_as: asn_i,
            import_policy: None,
            export_policy: None,
            remove_private_as: false,
        });
    }
    for p in ["10.0.0.0/24", "10.0.1.0/24"] {
        cfgs[0].bgp.as_mut().unwrap().networks.push(Network {
            prefix: p.parse().unwrap(),
        });
    }
    NetworkModel::build(topo, cfgs).unwrap()
}

fn line_plan(model: &Arc<NetworkModel>) -> ShardPlan {
    let switches: Vec<_> = model
        .topology
        .nodes()
        .map(|n| s2_routing::SwitchModel::new(model, n))
        .collect();
    ShardPlan::single(s2_shard::collect_prefixes(&switches))
}

fn run_line(model: &Arc<NetworkModel>, config: RuntimeConfig) -> (RibSnapshot, Cluster) {
    let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
    let plan = line_plan(model);
    let (rib, _) = cluster
        .run_control_plane(&plan, &ClusterOptions::default())
        .unwrap();
    (rib, cluster)
}

fn line_reference(model: &Arc<NetworkModel>) -> RibSnapshot {
    let (rib, cluster) = run_line(model, RuntimeConfig::default());
    cluster.shutdown();
    rib
}

#[test]
fn tcp_fabric_matches_channel_ribs_on_line() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        transport: TransportKind::tcp(),
        ..RuntimeConfig::default()
    };
    let (rib, cluster) = run_line(&model, config);
    let messages = cluster.net_stats().messages.load(Ordering::Relaxed);
    cluster.shutdown();
    assert_eq!(rib, reference, "TCP fabric changed the verdict");
    assert!(messages > 0, "cross-worker frames must traverse the sockets");
}

#[test]
fn severed_connection_mid_fixpoint_reconnects_bit_identical() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    // Sever the live m1↔m2 sockets at several points of the BGP fixpoint
    // (each direction of the line's only cross-worker adjacency carries
    // two data frames); the supervisor must reconnect, the loss
    // accounting must keep the round from converging on the dead frames,
    // and the resync must re-send — bit-identical RIBs every time.
    for (src, dst, nth) in [(0u32, 1u32, 0u64), (0, 1, 1), (1, 0, 0), (1, 0, 1)] {
        let config = RuntimeConfig {
            transport: TransportKind::tcp(),
            faults: FaultPlan::new().sever_connection(src, dst, nth),
            ..RuntimeConfig::default()
        };
        let (rib, cluster) = run_line(&model, config);
        let reconnects = cluster.net_stats().reconnects.load(Ordering::Relaxed);
        cluster.shutdown();
        assert_eq!(
            rib, reference,
            "sever of {src}→{dst} at frame {nth} changed the verdict"
        );
        assert!(
            reconnects >= 1,
            "sever of {src}→{dst} at frame {nth} must force a reconnect (got {reconnects})"
        );
    }
}

#[test]
fn partitioned_worker_heals_bit_identical() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    // Every cross-worker frame in the line model touches worker 1, so
    // the frame that arms the partition is itself parked until the
    // window elapses: the run must take at least the window, and the
    // parked (not lost) frames must still produce identical RIBs.
    let window = Duration::from_millis(300);
    let config = RuntimeConfig {
        transport: TransportKind::tcp(),
        faults: FaultPlan::new().partition_worker(1, 2, window),
        ..RuntimeConfig::default()
    };
    let started = s2_obs::Stopwatch::start();
    let (rib, cluster) = run_line(&model, config);
    let elapsed = started.elapsed();
    cluster.shutdown();
    assert_eq!(rib, reference, "partition changed the verdict");
    assert!(
        elapsed >= window,
        "the armed partition must have stalled the run (took {elapsed:?})"
    );
}

fn fattree_request(ft: &FatTree) -> VerificationRequest {
    let k = ft.params.k;
    let endpoints = (0..k)
        .flat_map(|p| (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)])))
        .collect();
    VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap())
}

#[test]
fn full_verification_over_tcp_matches_channel() {
    let ft = gen_ft(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);

    let channel_opts = S2Options {
        workers: 3,
        shards: 2,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &channel_opts).unwrap();
    let reference = verifier.verify(&request).unwrap();
    verifier.shutdown();
    assert!(reference.all_clear());

    let mut tcp_opts = channel_opts.clone();
    tcp_opts.runtime.transport = TransportKind::tcp();
    let verifier = S2Verifier::new(model, &tcp_opts).unwrap();
    let report = verifier.verify(&request).unwrap();
    verifier.shutdown();
    assert_eq!(report.rib, reference.rib, "TCP RIBs must be bit-identical");
    assert!(report.all_clear(), "{}", report.summary());
    assert_eq!(report.dpv.reachable_pairs, reference.dpv.reachable_pairs);
    assert!(report.cp.traffic.messages > 0);
}

#[test]
fn throttled_link_backpressures_sender_without_unbounded_buffering() {
    let ft = gen_ft(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);

    let channel_opts = S2Options {
        workers: 2,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &channel_opts).unwrap();
    let reference = verifier.verify(&request).unwrap();
    verifier.shutdown();

    // A slow 0→1 link: export bursts outpace the 3ms-per-frame writer,
    // so frames queue in the outbox and trickle out while the receiver
    // waits at its barrier; `in_flight` must hold every round open until
    // they are drained, and the verdict must not change.
    let mut tcp_opts = channel_opts.clone();
    tcp_opts.runtime.transport = TransportKind::tcp();
    tcp_opts.runtime.faults = FaultPlan::new().throttle_link(0, 1, 3);
    let verifier = S2Verifier::new(model, &tcp_opts).unwrap();
    let report = verifier.verify(&request).unwrap();
    verifier.shutdown();

    assert_eq!(report.rib, reference.rib, "throttle changed the verdict");
    assert!(report.all_clear(), "{}", report.summary());
}

/// FatTree k=12 on 2 workers: one forwarding round sends more frames
/// between the two workers than a 256-frame send window plus a
/// 1024-frame outbox hold, and neither worker drains before the
/// barrier, so a send-side bound of that size stalls the round. The
/// TCP fabric must finish well inside the barrier timeout with the
/// channel run's RIBs and verdicts.
#[test]
fn fattree12_over_tcp_matches_channel_verdict_hash() {
    let ft = gen_ft(FatTreeParams::new(12));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let request = fattree_request(&ft);
    let opts = |transport: TransportKind| {
        let mut opts = S2Options {
            workers: 2,
            ..Default::default()
        };
        opts.runtime.transport = transport;
        opts.runtime.barrier_timeout = Duration::from_secs(20);
        opts
    };

    let verifier = S2Verifier::new(model.clone(), &opts(TransportKind::Channel)).unwrap();
    let reference = verifier.verify(&request).unwrap();
    verifier.shutdown();

    // The TCP run reports from its own thread, before its shutdown: a
    // stalled fabric fails the test at the deadline instead of hanging
    // it in a shutdown that waits on stalled sends.
    let (tx, rx) = std::sync::mpsc::channel();
    let tcp_run = std::thread::spawn(move || {
        let verifier = S2Verifier::new(model, &opts(TransportKind::tcp())).unwrap();
        let _ = tx.send(verifier.verify(&request).map_err(|e| e.to_string()));
        verifier.shutdown();
    });
    let report = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the TCP run finishes")
        .expect("the TCP run verifies");
    tcp_run.join().expect("the TCP run shuts down");

    assert_eq!(report.rib, reference.rib, "TCP RIBs must be bit-identical");
    assert_eq!(
        verdict_hash(&report.dpv.verdict_sets),
        verdict_hash(&reference.dpv.verdict_sets),
        "TCP verdicts must be bit-identical"
    );
    assert!(report.all_clear(), "{}", report.summary());
}

#[test]
fn faults_from_prior_pr_compose_with_tcp_fabric() {
    // The PR-1 fault set (drop/duplicate/corrupt) is injected above the
    // transport, so it must compose with the TCP backend unchanged.
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        transport: TransportKind::tcp(),
        faults: FaultPlan::new()
            .drop_message(1)
            .duplicate_message(2)
            .corrupt_message(3),
        ..RuntimeConfig::default()
    };
    let (rib, cluster) = run_line(&model, config);
    cluster.shutdown();
    assert_eq!(rib, reference, "injected faults over TCP changed the verdict");
}
