//! Chaos tests for the fault-tolerant runtime: deterministic fault plans
//! (worker kill / hang, frame drop / duplication / corruption / delay)
//! must leave the verdict bit-identical to an undisturbed run, memory
//! pressure must degrade into shard bisection instead of aborting, and
//! the failure-detection knobs (barrier timeout, fatal wire errors) must
//! fire as configured.

use s2::{NetworkModel, S2Options, S2Verifier};
use s2_net::config::{BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, Vendor};
use s2_net::topology::{NodeId, Topology};
use s2_net::Ipv4Addr;
use s2_routing::RibSnapshot;
use s2_runtime::{Cluster, ClusterOptions, CpRunStats, FaultPlan, RuntimeConfig, RuntimeError};
use s2_shard::ShardPlan;
use s2_topogen::fattree::{generate as gen_ft, FatTree, FatTreeParams};
use std::sync::Arc;
use std::time::Duration;

/// The 4-node eBGP line t0—m1—m2—t3; t0 announces two prefixes.
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

/// Runs the line-model control plane under `config`, returning the RIBs
/// and stats. Workers 0 hosts {t0, m1}; worker 1 hosts {m2, t3}, so every
/// m1—m2 exchange crosses the wire.
fn run_line(model: &Arc<NetworkModel>, config: RuntimeConfig) -> (RibSnapshot, CpRunStats, Cluster) {
    let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
    let plan = line_plan(model);
    let (rib, stats) = cluster
        .run_control_plane(&plan, &ClusterOptions::default())
        .unwrap();
    (rib, stats, cluster)
}

fn line_reference(model: &Arc<NetworkModel>) -> RibSnapshot {
    let (rib, _, cluster) = run_line(model, RuntimeConfig::default());
    cluster.shutdown();
    rib
}

#[test]
fn killed_worker_recovers_bit_identical_on_line() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    // Sweep kill points across the phases: early OSPF, prefix collection,
    // and mid-BGP.
    for nth in [2u64, 5, 9, 14] {
        let config = RuntimeConfig {
            barrier_timeout: Duration::from_secs(10),
            faults: FaultPlan::new().kill_worker(1, nth),
            ..RuntimeConfig::default()
        };
        let (rib, stats, cluster) = run_line(&model, config);
        cluster.shutdown();
        assert_eq!(rib, reference, "kill at command {nth} changed the verdict");
        assert!(stats.recoveries >= 1, "kill at {nth} must trigger recovery");
    }
}

#[test]
fn killed_worker_recovers_bit_identical_on_fattree() {
    let ft = gen_ft(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
    let mut endpoints = Vec::new();
    for p in 0..4 {
        for e in 0..2 {
            endpoints.push((ft.edge(p, e), vec![FatTree::server_prefix(p, e)]));
        }
    }
    let request =
        s2::VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap());

    let clean_opts = S2Options {
        workers: 2,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &clean_opts).unwrap();
    let reference = verifier.verify(&request).unwrap();
    verifier.shutdown();
    assert!(reference.all_clear());

    let faulty_opts = S2Options {
        workers: 2,
        runtime: RuntimeConfig {
            barrier_timeout: Duration::from_secs(10),
            faults: FaultPlan::new().kill_worker(1, 30),
            ..RuntimeConfig::default()
        },
        ..Default::default()
    };
    let verifier = S2Verifier::new(model, &faulty_opts).unwrap();
    let report = verifier.verify(&request).unwrap();
    verifier.shutdown();
    assert_eq!(report.rib, reference.rib, "recovered RIBs must be bit-identical");
    assert!(report.all_clear());
    assert!(
        report.cp.recoveries + report.dpv.recoveries >= 1,
        "the kill must have triggered a recovery (cp={}, dpv={})",
        report.cp.recoveries,
        report.dpv.recoveries
    );
}

#[test]
fn hung_worker_trips_barrier_timeout_and_recovers() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        barrier_timeout: Duration::from_millis(500),
        faults: FaultPlan::new().hang_worker(1, 6),
        ..RuntimeConfig::default()
    };
    let started = s2_obs::Stopwatch::start();
    let (rib, stats, cluster) = run_line(&model, config);
    cluster.shutdown();
    let elapsed = started.elapsed();
    assert_eq!(rib, reference, "hang recovery changed the verdict");
    assert!(stats.recoveries >= 1, "hang must trigger a timeout recovery");
    // One timeout to detect the hang, one to confirm it during recovery,
    // plus the re-run — generous bound proves the run is wall-clock
    // bounded rather than stuck.
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}

#[test]
fn corrupted_frame_is_detected_counted_and_healed() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        faults: FaultPlan::new().corrupt_message(3),
        ..RuntimeConfig::default()
    };
    let (rib, stats, cluster) = run_line(&model, config);
    let wire_errors = cluster
        .net_stats()
        .wire_errors
        .load(std::sync::atomic::Ordering::Relaxed);
    cluster.shutdown();
    assert_eq!(rib, reference, "corruption changed the verdict");
    assert!(wire_errors >= 1, "the bad checksum must be counted");
    assert_eq!(stats.wire_errors, wire_errors);
}

#[test]
fn dropped_frame_is_healed_by_resync() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    // Drop each of the four BGP frames the fault-free line run sends
    // (this model runs no IGP, so all cross-worker traffic is BGP and
    // every loss must be healed by an adj-out resync).
    for nth in [0u64, 1, 2, 3] {
        let config = RuntimeConfig {
            faults: FaultPlan::new().drop_message(nth),
            ..RuntimeConfig::default()
        };
        let (rib, _, cluster) = run_line(&model, config);
        let drops = cluster
            .net_stats()
            .injected_drops
            .load(std::sync::atomic::Ordering::Relaxed);
        cluster.shutdown();
        assert_eq!(rib, reference, "drop of frame {nth} changed the verdict");
        assert_eq!(drops, 1, "frame {nth} must exist and be dropped");
    }
}

#[test]
fn duplicated_frame_is_deduplicated_by_sequence() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        faults: FaultPlan::new().duplicate_message(2),
        ..RuntimeConfig::default()
    };
    let (rib, _, cluster) = run_line(&model, config);
    let dup_skips = cluster
        .net_stats()
        .dup_skips
        .load(std::sync::atomic::Ordering::Relaxed);
    cluster.shutdown();
    assert_eq!(rib, reference, "duplication changed the verdict");
    assert!(dup_skips >= 1, "the duplicate must be skipped by seq dedup");
}

#[test]
fn delayed_frame_cannot_corrupt_the_fixpoint() {
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    for (nth, rounds) in [(0u64, 1u32), (1, 2), (2, 3), (3, 1)] {
        let config = RuntimeConfig {
            faults: FaultPlan::new().delay_message(nth, rounds),
            ..RuntimeConfig::default()
        };
        let (rib, _, cluster) = run_line(&model, config);
        cluster.shutdown();
        assert_eq!(
            rib, reference,
            "delaying frame {nth} by {rounds} rounds changed the verdict"
        );
    }
}

#[test]
fn fatal_wire_errors_aborts_the_run() {
    let model = Arc::new(line_model());
    let config = RuntimeConfig {
        fatal_wire_errors: true,
        faults: FaultPlan::new().corrupt_message(1),
        ..RuntimeConfig::default()
    };
    let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
    let plan = line_plan(&model);
    let err = cluster
        .run_control_plane(&plan, &ClusterOptions::default())
        .unwrap_err();
    cluster.shutdown();
    assert!(matches!(err, RuntimeError::Wire { errors } if errors >= 1), "{err:?}");
}

#[test]
fn over_budget_shard_completes_via_bisection_on_fattree() {
    let ft = gen_ft(FatTreeParams::new(4));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();

    // Empirically bracket the budget: the peak of an unsharded run (too
    // big) vs the peak of a heavily sharded run (fits), then demand the
    // unsharded plan complete under the midpoint.
    let unsharded = S2Options {
        workers: 2,
        shards: 1,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &unsharded).unwrap();
    let (reference_rib, full_stats, _) = verifier.simulate().unwrap();
    verifier.shutdown();

    let sharded = S2Options {
        workers: 2,
        shards: 8,
        ..Default::default()
    };
    let verifier = S2Verifier::new(model.clone(), &sharded).unwrap();
    let (_, split_stats, _) = verifier.simulate().unwrap();
    verifier.shutdown();

    let full_peak = full_stats.max_worker_peak();
    let split_peak = split_stats.max_worker_peak();
    assert!(
        split_peak < full_peak,
        "sharding must reduce peak memory ({split_peak} vs {full_peak})"
    );
    let budget = (full_peak + split_peak) / 2;

    let budgeted = S2Options {
        workers: 2,
        shards: 1,
        runtime: RuntimeConfig { memory_budget: Some(budget), ..Default::default() },
        ..Default::default()
    };
    let verifier = S2Verifier::new(model, &budgeted).unwrap();
    let (rib, stats, shards) = verifier.simulate().unwrap();
    verifier.shutdown();
    assert_eq!(rib, reference_rib, "degraded run must be bit-identical");
    assert!(stats.oom_splits >= 1, "the budget must force a bisection");
    assert!(shards >= 2, "the single shard must have been split");
    assert!(
        stats.shard_retries >= stats.oom_splits,
        "every split implies a retried shard"
    );
}

#[test]
fn minimal_shard_over_budget_is_still_fatal() {
    // A budget nothing fits under must surface OOM even with adaptive
    // degradation available.
    let model = Arc::new(line_model());
    let config = RuntimeConfig {
        memory_budget: Some(8),
        ..RuntimeConfig::default()
    };
    let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
    let plan = line_plan(&model);
    let err = cluster
        .run_control_plane(&plan, &ClusterOptions::default())
        .unwrap_err();
    cluster.shutdown();
    assert!(matches!(err, RuntimeError::OutOfMemory { .. }), "{err:?}");
}

#[test]
fn double_recovery_restores_rib_store_across_two_epoch_bumps() {
    // Recovery during recovery: a kill bumps the fabric epoch and
    // respawns worker 1 from the RIB-store checkpoint; a later hang
    // trips the barrier timeout on the *recovered* run, forcing a
    // second epoch bump and a second restore. The fixpoint must still
    // land bit-identical with no zombie frames crossing either epoch.
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        barrier_timeout: Duration::from_secs(5),
        faults: FaultPlan::new().kill_worker(1, 5).hang_worker(0, 20),
        ..RuntimeConfig::default()
    };
    let (rib, stats, cluster) = run_line(&model, config);
    cluster.shutdown();
    assert_eq!(rib, reference, "double recovery changed the verdict");
    assert!(
        stats.recoveries >= 2,
        "expected two epoch bumps, got {}",
        stats.recoveries
    );
    assert_eq!(
        stats.traffic.protocol_violations, 0,
        "zombie frames must be discarded by the epoch filter, not flagged"
    );
}

#[test]
fn combined_faults_still_converge_to_the_reference() {
    // Kitchen sink: a kill, a drop, a duplicate, and a delay in one run.
    let model = Arc::new(line_model());
    let reference = line_reference(&model);
    let config = RuntimeConfig {
        barrier_timeout: Duration::from_secs(10),
        faults: FaultPlan::new()
            .kill_worker(0, 11)
            .drop_message(1)
            .duplicate_message(2)
            .delay_message(3, 2),
        ..RuntimeConfig::default()
    };
    let (rib, stats, cluster) = run_line(&model, config);
    cluster.shutdown();
    assert_eq!(rib, reference, "combined faults changed the verdict");
    assert!(stats.recoveries >= 1);
}

