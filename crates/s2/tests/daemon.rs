//! Integration and chaos tests for the incremental verification daemon:
//! verify-then-commit deltas, worker loss mid-delta, injected daemon
//! crashes at every phase, and checkpoint corruption — always comparing
//! post-recovery verdicts against a cold oracle.

use s2::{Daemon, DaemonConfig, S2Options, VerificationRequest};
use s2_runtime::admin::{AdminRequest, AdminResponse, DeltaSpec};
use s2_runtime::{DaemonPhase, FaultPlan};
use s2_topogen::fattree::{generate, FatTree, FatTreeParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_CKPT: AtomicUsize = AtomicUsize::new(0);

/// A unique checkpoint path per test (the file may not exist yet).
fn ckpt_path(name: &str) -> PathBuf {
    let n = NEXT_CKPT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("s2-daemon-test-{name}-{}-{n}.ckpt", std::process::id()))
}

/// FatTree k=4 daemon config with the standard all-pair edge request.
fn ft_config() -> DaemonConfig {
    fattree_config(4, 2)
}

/// FatTree k=`k` daemon config over `workers` workers with the
/// standard all-pair edge request.
fn fattree_config(k: usize, workers: u32) -> DaemonConfig {
    let ft = generate(FatTreeParams::new(k));
    let ft_ref = &ft;
    let endpoints = (0..k)
        .flat_map(|p| {
            (0..k / 2).map(move |e| (ft_ref.edge(p, e), vec![FatTree::server_prefix(p, e)]))
        })
        .collect();
    let request =
        VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap());
    let mut cfg = DaemonConfig::new(ft.topology.clone(), ft.configs.clone(), request);
    cfg.opts = S2Options { workers, ..Default::default() };
    cfg
}

fn link_down(a: &str, b: &str) -> DeltaSpec {
    DeltaSpec::LinkDown { a: a.into(), b: b.into() }
}

fn link_up(a: &str, b: &str) -> DeltaSpec {
    DeltaSpec::LinkUp { a: a.into(), b: b.into() }
}

/// Applies a delta that must commit; returns (generation, escalated).
fn must_commit(d: &mut Daemon, delta: &DeltaSpec) -> (u64, bool) {
    match d.apply(delta).expect("no injected crash") {
        AdminResponse::Committed { generation, escalated, all_clear, .. } => {
            assert!(all_clear, "{} should leave the network clean", delta.kind());
            (generation, escalated)
        }
        other => panic!("{} should commit, got {other:?}", delta.kind()),
    }
}

fn must_reject(d: &mut Daemon, delta: &DeltaSpec) -> String {
    match d.apply(delta).expect("no injected crash") {
        AdminResponse::Rejected { reason, .. } => reason,
        other => panic!("{} should be rejected, got {other:?}", delta.kind()),
    }
}

/// A link flap (down, then up) commits warm on both edges and restores
/// the baseline verdicts byte-for-byte.
#[test]
fn link_flap_commits_warm_and_restores_verdicts() {
    let mut d = Daemon::open(ft_config()).unwrap();
    assert!(!d.warm_start());
    assert_eq!(d.generation(), 0);
    let h0 = d.verdict_hash();

    match d.apply(&link_down("pod0-edge0", "pod0-agg0")).unwrap() {
        AdminResponse::Committed { generation, escalated, changed_nodes, all_clear, .. } => {
            assert_eq!(generation, 1);
            assert!(!escalated, "single link-down should replay warm");
            assert!(changed_nodes > 0, "the flap must move some RIBs");
            assert!(all_clear, "FatTree k=4 survives one link failure");
        }
        other => panic!("link-down should commit: {other:?}"),
    }
    match d.status() {
        AdminResponse::Status { generation, failed_links, committed, rejected, .. } => {
            assert_eq!((generation, failed_links, committed, rejected), (1, 1, 1, 0));
        }
        other => panic!("status: {other:?}"),
    }

    let (generation, escalated) = must_commit(&mut d, &link_up("pod0-edge0", "pod0-agg0"));
    assert_eq!(generation, 2);
    assert!(!escalated);
    assert_eq!(d.verdict_hash(), h0, "restoring the link must restore the baseline verdicts");
    d.shutdown();
}

/// Stacked link deltas, each committed warm on top of the last: a
/// non-LIFO sequence reaching three links down, over edge-aggregation and
/// aggregation-core links of four pods. After every commit the verdicts
/// equal a cold open with the committed links failed in the model, the
/// nodes the commit reports moved are those whose row differs between
/// the cold RIBs before and after it (all-pair verdicts alone do not see
/// which links carry the traffic), and the sequence ends on the open's
/// verdicts.
#[test]
fn stacked_deltas_match_a_cold_open_after_every_commit() {
    let links = [
        ("pod0-edge0", "pod0-agg0"),
        ("pod1-agg1", "core3"),
        ("pod2-edge1", "pod2-agg0"),
        ("pod3-agg0", "core1"),
    ];
    let (a, b, c, d) = (links[0], links[1], links[2], links[3]);
    let steps = [
        (a, true),
        (b, true),
        (c, true),
        (b, false),
        (d, true),
        (a, false),
        (c, false),
        (d, false),
    ];
    for k in [4, 6] {
        for workers in [1, 2] {
            let mut daemon = Daemon::open(fattree_config(k, workers)).unwrap();
            let open = daemon.verdict_hash();
            let mut down: Vec<(&str, &str)> = Vec::new();
            let mut deepest = 0;
            let mut rib = cold_rib(fattree_config(k, workers));
            for (generation, &(link, fail)) in (1..).zip(&steps) {
                let delta = if fail { link_down(link.0, link.1) } else { link_up(link.0, link.1) };
                let moved = match daemon.apply(&delta).expect("no injected crash") {
                    AdminResponse::Committed { generation: g, escalated, changed_nodes, .. } => {
                        assert_eq!((g, escalated), (generation, false));
                        changed_nodes as usize
                    }
                    other => panic!("k={k} w={workers} {delta:?}: {other:?}"),
                };
                if fail {
                    down.push(link);
                } else {
                    down.retain(|&l| l != link);
                }
                deepest = deepest.max(down.len());
                let mut cfg = fattree_config(k, workers);
                let topo = &cfg.topology;
                let node = |name: &str| topo.node_by_name(name).unwrap();
                cfg.opts.runtime.faults = down
                    .iter()
                    .fold(FaultPlan::new(), |plan, &(x, y)| plan.fail_link(node(x), node(y)));
                let next = cold_rib(cfg.clone());
                let what = format!("k={k} w={workers}: after {delta:?} with {down:?} down");
                assert_eq!(moved, rib.changed_nodes(&next).len(), "{what}: moved nodes");
                rib = next;
                let oracle = Daemon::open(cfg).unwrap();
                assert_eq!(daemon.verdict_hash(), oracle.verdict_hash(), "{what}");
                oracle.shutdown();
            }
            assert_eq!(deepest, 3);
            assert_eq!(daemon.verdict_hash(), open, "k={k} w={workers}: back to the open verdicts");
            daemon.shutdown();
        }
    }
}

/// The RIB a cold verify of `cfg`'s snapshot converges to.
fn cold_rib(cfg: DaemonConfig) -> std::sync::Arc<s2::RibSnapshot> {
    let model = s2::NetworkModel::build(cfg.topology, cfg.configs).unwrap();
    let verifier = s2::S2Verifier::new(model, &cfg.opts).unwrap();
    let rib = verifier.verify(&cfg.request).unwrap().rib;
    verifier.shutdown();
    rib
}

/// Malformed or inapplicable deltas are rejected without touching the
/// committed state.
#[test]
fn invalid_deltas_reject_without_state_change() {
    let mut d = Daemon::open(ft_config()).unwrap();
    let h0 = d.verdict_hash();

    let r = must_reject(&mut d, &link_down("pod0-edge0", "no-such-node"));
    assert!(r.contains("no-such-node"), "{r}");
    let r = must_reject(&mut d, &link_up("pod0-edge0", "pod0-agg0"));
    assert!(r.contains("not down"), "{r}");
    let r = must_reject(
        &mut d,
        &DeltaSpec::PrefixAdd {
            device: "pod0-edge0".into(),
            prefix: FatTree::server_prefix(0, 0),
        },
    );
    assert!(r.contains("already originates"), "{r}");
    let r = must_reject(
        &mut d,
        &DeltaSpec::PrefixWithdraw {
            device: "pod0-edge0".into(),
            prefix: "10.99.0.0/16".parse().unwrap(),
        },
    );
    assert!(r.contains("does not originate"), "{r}");
    assert_eq!(d.verdict_hash(), h0, "rejections must not touch committed verdicts");
    assert_eq!(d.generation(), 0);

    // A committed link-down makes a second one for the same link invalid.
    must_commit(&mut d, &link_down("pod0-edge0", "pod0-agg0"));
    let r = must_reject(&mut d, &link_down("pod0-edge0", "pod0-agg0"));
    assert!(r.contains("already"), "{r}");

    match d.status() {
        AdminResponse::Status { generation, committed, rejected, .. } => {
            assert_eq!((generation, committed, rejected), (1, 1, 5));
        }
        other => panic!("status: {other:?}"),
    }
    d.shutdown();
}

/// Config-changing deltas escalate to a blue/green rebuild; withdrawing
/// the added prefix returns the verdicts to the baseline bytes.
#[test]
fn prefix_add_escalates_and_withdraw_restores_baseline() {
    let mut d = Daemon::open(ft_config()).unwrap();
    let h0 = d.verdict_hash();
    let prefix = "10.250.0.0/16".parse().unwrap();

    let (generation, escalated) =
        must_commit(&mut d, &DeltaSpec::PrefixAdd { device: "pod0-edge0".into(), prefix });
    assert_eq!(generation, 1);
    assert!(escalated, "a config delta cannot replay warm");

    let (generation, escalated) =
        must_commit(&mut d, &DeltaSpec::PrefixWithdraw { device: "pod0-edge0".into(), prefix });
    assert_eq!(generation, 2);
    assert!(escalated);
    assert_eq!(d.verdict_hash(), h0, "withdrawing the prefix must restore baseline verdicts");
    d.shutdown();
}

/// A route-map edit whose config text names a different device is
/// rejected; re-submitting the device's own config commits (escalated).
#[test]
fn route_map_edit_checks_hostname_and_escalates() {
    let mut d = Daemon::open(ft_config()).unwrap();
    let h0 = d.verdict_hash();
    let ft = generate(FatTreeParams::new(4));
    let texts = s2_topogen::emit_configs(&ft.configs);
    let own = texts.iter().find(|(h, _)| h == "pod0-edge0").unwrap().1.clone();
    let other = texts.iter().find(|(h, _)| h == "pod1-edge0").unwrap().1.clone();

    let r = must_reject(
        &mut d,
        &DeltaSpec::RouteMapEdit { device: "pod0-edge0".into(), config: other },
    );
    assert!(r.contains("pod1-edge0"), "{r}");

    let (generation, escalated) =
        must_commit(&mut d, &DeltaSpec::RouteMapEdit { device: "pod0-edge0".into(), config: own });
    assert_eq!(generation, 1);
    assert!(escalated);
    assert_eq!(d.verdict_hash(), h0, "an identical config must reproduce baseline verdicts");
    d.shutdown();
}

/// Chaos: a worker killed mid-delta is recovered, the baseline
/// re-warmed, and the delta retried — the daemon never wedges and the
/// final verdicts still match the no-fault run.
#[test]
fn worker_kill_mid_delta_recovers_and_commits() {
    let mut cfg = ft_config();
    // Past warm-up's command stream: fires inside the first delta's
    // replay/DPV exchange (same placement as the sweep chaos test).
    cfg.opts.runtime.faults = FaultPlan::new().kill_worker(1, 400);
    let mut d = Daemon::open(cfg).unwrap();
    let h0 = d.verdict_hash();

    let down = link_down("pod0-edge0", "pod0-agg0");
    match d.apply(&down).expect("no injected crash") {
        AdminResponse::Committed { generation, all_clear, .. } => {
            assert_eq!(generation, 1);
            assert!(all_clear);
        }
        // Retries exhausting inside the delta budget must degrade to a
        // clean rejection, never a wedged daemon.
        AdminResponse::Rejected { reason, attempts } => {
            assert!(attempts >= 1, "{reason}");
            assert_eq!(d.generation(), 0, "a rejected delta must not move the generation");
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Whatever happened above, the daemon must still serve deltas.
    if d.generation() == 1 {
        must_commit(&mut d, &link_up("pod0-edge0", "pod0-agg0"));
        assert_eq!(d.verdict_hash(), h0);
    } else {
        must_commit(&mut d, &down);
    }
    d.shutdown();
}

/// Chaos: an injected daemon crash at every delta phase, followed by a
/// restart from the journal. The restarted daemon must adopt it at the
/// pre-delta generation with verdicts byte-identical to a cold oracle of
/// the same snapshot.
#[test]
fn crash_at_every_phase_restarts_warm_with_oracle_verdicts() {
    let oracle = Daemon::open(ft_config()).unwrap();
    let h0 = oracle.verdict_hash();
    oracle.shutdown();

    let phases = [
        DaemonPhase::Validate,
        DaemonPhase::Stage,
        DaemonPhase::Replay,
        DaemonPhase::Dpv,
        DaemonPhase::Commit,
        DaemonPhase::Checkpoint,
    ];
    for phase in phases {
        let path = ckpt_path("phase");
        let mut cfg = ft_config();
        cfg.checkpoint = Some(path.clone());
        cfg.opts.runtime.faults = FaultPlan::new().crash_daemon(phase);
        let mut d = Daemon::open(cfg).unwrap();
        let err = d
            .apply(&link_down("pod0-edge0", "pod0-agg0"))
            .expect_err("the injected crash must fire");
        assert_eq!(err.0, phase);
        // Simulated kill -9: tear the fleet down without committing.
        d.shutdown();

        let mut cfg = ft_config();
        cfg.checkpoint = Some(path.clone());
        let d = Daemon::open(cfg).unwrap();
        assert!(d.warm_start(), "crash at {phase:?}: restart must restore the checkpoint");
        assert_eq!(d.generation(), 0, "crash at {phase:?}: the delta must not have committed");
        assert_eq!(
            d.verdict_hash(),
            h0,
            "crash at {phase:?}: post-recovery verdicts must match the cold oracle"
        );
        d.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// Restarting after a committed link-down resumes at the committed
/// generation with the failed link baked in — verdicts byte-identical
/// to a cold oracle verifying the degraded snapshot — and the link-up
/// that follows moves exactly the rows that differ between the cold
/// RIBs of the degraded and the clean snapshot, back to the open's
/// verdicts. Restarted on the journal writer's worker count and on one
/// worker over a two-worker journal: the journal holds no verdicts, so
/// nothing in it depends on the partition.
#[test]
fn restart_resumes_committed_overlay_and_matches_degraded_oracle() {
    for (written, restarted) in [(2, 2), (2, 1)] {
        let what = format!("journal of {written} workers, restart on {restarted}");
        let path = ckpt_path("overlay");
        let mut cfg = fattree_config(4, written);
        cfg.checkpoint = Some(path.clone());
        let mut d = Daemon::open(cfg).unwrap();
        must_commit(&mut d, &link_down("pod0-edge0", "pod0-agg0"));
        // No clean shutdown request: the commit already checkpointed.
        d.shutdown();

        // Cold oracles on the restart's worker count: the snapshot with
        // the link failed at the model level, and the clean one.
        let clean = fattree_config(4, restarted);
        let mut degraded = clean.clone();
        let a = degraded.topology.node_by_name("pod0-edge0").unwrap();
        let b = degraded.topology.node_by_name("pod0-agg0").unwrap();
        degraded.opts.runtime.faults = FaultPlan::new().fail_link(a, b);
        let oracle = Daemon::open(degraded.clone()).unwrap();
        let degraded_hash = oracle.verdict_hash();
        oracle.shutdown();
        let oracle = Daemon::open(clean.clone()).unwrap();
        let open_hash = oracle.verdict_hash();
        oracle.shutdown();
        let moved = cold_rib(degraded).changed_nodes(&cold_rib(clean.clone())).len();

        let mut cfg = clean;
        cfg.checkpoint = Some(path.clone());
        let mut d = Daemon::open(cfg).unwrap();
        assert!(d.warm_start(), "{what}: the journal must be adopted");
        assert_eq!(d.generation(), 1, "{what}");
        let restart_hash = d.verdict_hash();
        assert_eq!(restart_hash, degraded_hash, "{what}: restart must match the degraded oracle");
        match d.apply(&link_up("pod0-edge0", "pod0-agg0")).expect("no injected crash") {
            AdminResponse::Committed { generation, changed_nodes, all_clear, .. } => {
                assert_eq!(generation, 2, "{what}");
                assert_eq!(changed_nodes as usize, moved, "{what}: moved nodes");
                assert!(all_clear, "{what}");
            }
            other => panic!("{what}: link-up should commit, got {other:?}"),
        }
        assert_eq!(d.verdict_hash(), open_hash, "{what}: back to the open verdicts");
        d.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// A corrupted checkpoint is detected by checksum on restart and the
/// daemon falls back to a cold start with correct verdicts.
#[test]
fn corrupt_checkpoint_falls_back_to_cold_start() {
    let path = ckpt_path("corrupt");
    let mut cfg = ft_config();
    cfg.checkpoint = Some(path.clone());
    // Flip a byte of the very first checkpoint write (generation 0).
    cfg.opts.runtime.faults = FaultPlan::new().corrupt_checkpoint(0);
    let d = Daemon::open(cfg).unwrap();
    let h0 = d.verdict_hash();
    d.shutdown();
    assert!(path.is_file(), "the corrupted checkpoint must still exist");

    let mut cfg = ft_config();
    cfg.checkpoint = Some(path.clone());
    let d = Daemon::open(cfg).unwrap();
    assert!(!d.warm_start(), "a corrupt checkpoint must not restore");
    assert_eq!(d.generation(), 0);
    assert_eq!(d.verdict_hash(), h0, "the cold fallback must still verify correctly");
    d.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The admin socket serves both dialects, survives an injected dropped
/// connection, and shuts down cleanly on request.
#[test]
fn admin_socket_serves_both_dialects_and_survives_dropped_conn() {
    use std::io::{BufRead, BufReader, Write};

    let mut cfg = ft_config();
    // Drop the connection serving the first accepted request.
    cfg.opts.runtime.faults = FaultPlan::new().drop_admin_conn(0);
    let d = Daemon::open(cfg).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || d.serve(listener));

    // Request 0: the fault closes the connection before any reply.
    let err = s2::daemon::admin_roundtrip(&addr, &AdminRequest::Status)
        .expect_err("the dropped connection must surface as an error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");

    // Request 1: binary dialect works again on a fresh connection.
    match s2::daemon::admin_roundtrip(&addr, &AdminRequest::Status).unwrap() {
        AdminResponse::Status { generation, warm_start, .. } => {
            assert_eq!(generation, 0);
            assert!(!warm_start);
        }
        other => panic!("status: {other:?}"),
    }

    // Text dialect on the same socket: one line in, one JSON line out.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"status\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"ok\":true,\"result\":\"status\""), "{line}");
    drop(stream);

    // Unknown text commands get a JSON error, not a dropped connection.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"frobnicate\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");
    drop(stream);

    match s2::daemon::admin_roundtrip(&addr, &AdminRequest::Shutdown).unwrap() {
        AdminResponse::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    server.join().unwrap().unwrap();
}

/// The text-dialect `metrics` command serves a valid Prometheus
/// exposition merging controller series (SLO gauges, phase-latency
/// quantiles, scoped-DPV counters) with per-worker liveness series;
/// `healthz` reports the fleet healthy.
#[test]
fn metrics_endpoint_serves_merged_exposition() {
    use std::io::{BufRead, BufReader, Read, Write};

    let d = Daemon::open(ft_config()).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || d.serve(listener));

    // A committed delta populates the SLO gauges and phase histograms.
    let delta = AdminRequest::ApplyDelta(link_down("pod0-edge0", "pod0-agg0"));
    match s2::daemon::admin_roundtrip(&addr, &delta).unwrap() {
        AdminResponse::Committed { .. } => {}
        other => panic!("link-down should commit: {other:?}"),
    }

    // `echo metrics | nc`: send the line, half-close, read to EOF.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"metrics\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();

    s2_obs::expo::validate(&body).expect("the scrape must be valid exposition");
    // Controller-side series: delta counters, SLO quantile gauges,
    // phase histograms with summary quantiles, scoped-DPV counters.
    // (Values are process-global across parallel tests, so assert
    // presence, not exact numbers — except this daemon's own fleet.)
    for series in [
        "s2_daemon_delta_committed",
        "s2_daemon_delta_ms{quantile=\"0.99\"}",
        "s2_daemon_delta_stage_ms{quantile=\"0.5\"}",
        "s2_daemon_delta_dpv_ms_count",
        "s2_daemon_slo_commit_p50_ms",
        "s2_daemon_slo_rejection_rate_pct",
        "s2_daemon_uptime_ms",
        "s2_daemon_generation",
        "s2_dpv_scoped_runs",
        "s2_worker_up{worker=\"0\"} 1",
        "s2_worker_up{worker=\"1\"} 1",
        "s2_worker_stale{worker=\"0\"} 0",
    ] {
        assert!(body.contains(series), "scrape must contain {series}:\n{body}");
    }

    // `echo healthz | nc`: one JSON line, fleet healthy.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"healthz\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"workers_up\":2"), "{line}");
    assert!(line.contains("\"workers_total\":2"), "{line}");
    drop(stream);

    match s2::daemon::admin_roundtrip(&addr, &AdminRequest::Shutdown).unwrap() {
        AdminResponse::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    server.join().unwrap().unwrap();
}

/// Chaos: a worker killed by the scrape traffic itself leaves the
/// endpoint serving. The dead worker degrades to its last-known
/// snapshot with the staleness gauge flipped; healthz goes unhealthy;
/// the daemon never wedges.
#[test]
fn worker_death_degrades_scrape_with_staleness_flag() {
    let mut cfg = ft_config();
    // Past warm-up's command stream (same placement as the mid-delta
    // chaos test). No deltas are applied here, so the only post-warm-up
    // traffic to worker 1 is the Metrics polls below — the kill fires
    // on one of them, i.e. mid-scrape.
    cfg.opts.runtime.faults = FaultPlan::new().kill_worker(1, 400);
    let mut d = Daemon::open(cfg).unwrap();

    let mut saw_degraded = false;
    for _ in 0..600 {
        match d.metrics() {
            AdminResponse::Metrics { aggregate, workers } => {
                assert_eq!(workers.len(), 2);
                if workers[1].up {
                    assert!(!workers[1].stale);
                    assert!(workers[1].snapshot.is_some());
                } else {
                    // Degraded, not wedged: the stale flag is flipped,
                    // the cached snapshot is still served, and the
                    // aggregate (with the live worker merged) remains.
                    assert!(workers[1].stale);
                    assert!(
                        workers[1].snapshot.is_some(),
                        "the last-known snapshot must be served stale"
                    );
                    assert!(workers[0].up && !workers[0].stale);
                    assert!(!aggregate.counters.is_empty() || !aggregate.gauges.is_empty());
                    saw_degraded = true;
                    break;
                }
            }
            other => panic!("metrics: {other:?}"),
        }
    }
    assert!(saw_degraded, "the kill fault must fire within the scrape budget");

    // The exposition still renders and validates with the staleness
    // gauge flipped — a scrape of a degraded fleet is still a scrape.
    match d.metrics() {
        AdminResponse::Metrics { aggregate, workers } => {
            let body = s2_obs::expo::render(&aggregate, &workers);
            assert!(body.contains("s2_worker_up{worker=\"1\"} 0"), "{body}");
            assert!(body.contains("s2_worker_stale{worker=\"1\"} 1"), "{body}");
            assert!(body.contains("s2_worker_up{worker=\"0\"} 1"), "{body}");
            s2_obs::expo::validate(&body).expect("degraded exposition must stay valid");
        }
        other => panic!("metrics: {other:?}"),
    }

    match d.healthz() {
        AdminResponse::Healthz { ok, workers_up, workers_total, .. } => {
            assert!(!ok, "a dead worker must fail healthz");
            assert_eq!((workers_up, workers_total), (1, 2));
        }
        other => panic!("healthz: {other:?}"),
    }
    d.shutdown();
}

/// Span stitching: with tracing on, a committed delta's worker-side
/// DPV spans (recorded on worker lanes) parent-chain up to the
/// controller's `daemon.delta` span in one event stream — the property
/// that makes the exported Chrome trace causally navigable.
#[test]
fn worker_dpv_spans_stitch_under_daemon_delta() {
    s2_obs::trace::set_enabled(true);
    let _ = s2_obs::trace::take_events(); // drop unrelated backlog
    let mut d = Daemon::open(ft_config()).unwrap();
    must_commit(&mut d, &link_down("pod0-edge0", "pod0-agg0"));
    d.shutdown();
    let events = s2_obs::trace::take_events();
    s2_obs::trace::set_enabled(false);

    // Index spans by id, then walk a worker-lane dpv span's parent
    // chain; it must pass through the daemon.delta (or daemon.open
    // warm-up) root rather than floating unparented.
    let by_span: std::collections::BTreeMap<u64, &s2_obs::trace::Event> =
        events.iter().filter(|e| e.span != 0).map(|e| (e.span, e)).collect();
    let reaches_delta = |mut span: u64| -> bool {
        for _ in 0..64 {
            let Some(e) = by_span.get(&span) else { return false };
            if s2_obs::trace::name_of(e.name) == "daemon.delta" {
                return true;
            }
            if e.parent == 0 {
                return false;
            }
            span = e.parent;
        }
        false
    };
    let worker_dpv: Vec<&&s2_obs::trace::Event> = by_span
        .values()
        .filter(|e| e.lane >= 1 && s2_obs::trace::name_of(e.name).starts_with("dpv."))
        .collect();
    assert!(
        !worker_dpv.is_empty(),
        "the delta's DPV must record worker-lane spans"
    );
    assert!(
        worker_dpv.iter().any(|e| reaches_delta(e.span)),
        "at least one worker DPV span must stitch under daemon.delta"
    );
}
