//! Per-layer probes of the traced run: one span around one public call
//! into each layer, on the workload's own model, plus the A/B verifies
//! that price a partition scheme, a second worker and the thread pool.

use crate::doc::Values;
use crate::spans::Recorder;
use crate::stats::median;
use bytes::Bytes;
use s2::{NetworkModel, S2Options, S2Report, S2Verifier, Scheme, VerificationRequest};
use s2_baselines::batfish::{self, MonolithicOptions};
use s2_dataplane::Fib;
use s2_net::topology::{NodeId, Topology};
use s2_routing::route::{BgpRoute, Origin};
use s2_routing::{RibSnapshot, SwitchModel};
use s2_runtime::wire::{self, Message};
use std::hint::black_box;

/// Alternating repetitions of each side of an A/B probe.
const AB_REPS: usize = 2;

fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3).max(1e-9)
}

/// The counts and phase timers one `S2Report` carries, as layer values.
pub fn report_counts(report: &S2Report, topology: &Topology, out: &mut Values) {
    let (cp, dpv) = (&report.cp, &report.dpv);
    out.set("routing.bgp_rounds", cp.bgp_rounds as f64, 1);
    out.set("routing.routes", report.total_routes() as f64, 1);
    out.set(
        "partition.edge_cut",
        report.partition.edge_cut(topology) as f64,
        1,
    );
    let loads = s2_partition::estimate::estimate_loads(topology);
    out.set(
        "partition.load_imbalance",
        report.partition.load_imbalance(&loads),
        1,
    );
    out.set("shard.count", report.shards as f64, 1);
    out.set("runtime.cp_msgs", cp.messages as f64, 1);
    out.set("runtime.cp_bytes", cp.bytes as f64, 1);
    out.set("dataplane.fwd_rounds", dpv.forward_rounds as f64, 1);
    out.set("dataplane.packets", dpv.packets_processed as f64, 1);
    out.set(
        "dataplane.remote_packet_share",
        dpv.remote_packets as f64 / dpv.packets_processed.max(1) as f64,
        dpv.packets_processed,
    );
    let cache = &dpv.bdd_cache;
    out.set("bdd.unique_lookups", cache.unique_lookups as f64, 1);
    out.set(
        "bdd.unique_hit_rate",
        cache.unique_hit_rate(),
        cache.unique_lookups as usize,
    );
    out.set("bdd.bin_lookups", cache.bin_lookups as f64, 1);
    out.set(
        "bdd.bin_hit_rate",
        cache.bin_hit_rate(),
        cache.bin_lookups as usize,
    );
    out.set("bdd.peak_nodes", dpv.bdd_peak_nodes as f64, 1);
}

/// Every node's routes as the advertisement a neighbour would receive.
fn advertisements(rib: &RibSnapshot) -> Vec<Message> {
    rib.per_node
        .iter()
        .enumerate()
        .map(|(n, routes)| Message::BgpAdvertisement {
            target_node: NodeId(n as u32),
            target_session: 0,
            routes: routes
                .iter()
                .map(|r| BgpRoute {
                    as_path: (0..r.as_path_len).map(|i| 65536 + i).collect(),
                    ..BgpRoute::local(r.prefix, Origin::Igp, r.protocol)
                })
                .collect(),
        })
        .collect()
}

/// The probes that need only the model: monolithic control plane, shard
/// planner, FIB build and the wire codec over the converged routes.
pub fn model_probes(rec: &mut Recorder, model: &NetworkModel, opts: &S2Options, out: &mut Values) {
    let (cp, ms) = rec.span("routing.mono_cp", |_| {
        batfish::simulate_control_plane(model, &MonolithicOptions::default())
    });
    out.set("routing.mono_cp_ms", ms, 1);
    let Ok((rib, _)) = cp else { return };

    let (plan, ms) = rec.span("shard.plan", |_| {
        let switches: Vec<SwitchModel> = model
            .topology
            .nodes()
            .map(|n| SwitchModel::new(model, n))
            .collect();
        s2_shard::plan(&switches, opts.shards, opts.shard_seed)
    });
    out.set("shard.plan_ms", ms, 1);
    let largest = plan.shards.iter().map(|s| s.len()).max().unwrap_or(0);
    out.set(
        "shard.max_prefix_share",
        largest as f64 / plan.total_prefixes().max(1) as f64,
        plan.total_prefixes(),
    );

    let (fibs, ms) = rec.span("dataplane.fib_build", |_| {
        model
            .topology
            .nodes()
            .map(|n| Fib::from_rib(rib.node(n)).len())
            .sum::<usize>()
    });
    black_box(fibs);
    out.set("dataplane.fib_build_ms", ms, model.topology.node_count());

    let msgs = advertisements(&rib);
    let (frames, ms) = rec.span("runtime.wire.encode", |_| {
        msgs.iter().map(wire::encode).collect::<Vec<Bytes>>()
    });
    let bytes: usize = frames.iter().map(Bytes::len).sum();
    out.set("runtime.wire.encode_mb_s", mb_per_s(bytes, ms), msgs.len());
    let (decoded, ms) = rec.span("runtime.wire.decode", |_| {
        frames
            .iter()
            .filter(|f| wire::decode((*f).clone()).is_ok())
            .count()
    });
    assert_eq!(decoded, msgs.len(), "wire round trip lost a message");
    out.set("runtime.wire.decode_mb_s", mb_per_s(bytes, ms), msgs.len());
}

/// The BDD re-encode path: the run's verdict sets decoded into a fresh
/// manager and encoded again, as a receiving worker does.
pub fn bdd_probe(
    rec: &mut Recorder,
    report: &S2Report,
    request: &VerificationRequest,
    out: &mut Values,
) {
    let sets = &report.dpv.verdict_sets;
    let bytes: usize = sets.iter().map(|(_, _, b)| b.len()).sum();
    if bytes == 0 {
        return;
    }
    let mut manager = s2_dataplane::PacketSpace::new(request.transits.len() as u16).manager();
    let (roots, ms) = rec.span("bdd.deserialize", |_| {
        sets.iter()
            .filter_map(|(_, _, b)| s2_bdd::serialize::from_bytes(&mut manager, b).ok())
            .collect::<Vec<_>>()
    });
    assert_eq!(roots.len(), sets.len(), "a verdict set did not decode");
    out.set("bdd.deserialize_mb_s", mb_per_s(bytes, ms), sets.len());
    let (again, ms) = rec.span("bdd.serialize", |_| {
        roots
            .iter()
            .map(|&f| s2_bdd::serialize::to_bytes(&manager, f).len())
            .sum::<usize>()
    });
    assert_eq!(again, bytes, "canonical serialization changed size");
    out.set("bdd.serialize_mb_s", mb_per_s(bytes, ms), sets.len());
}

/// Wall of one `new → f → shutdown` on a fresh fleet, ms.
fn fleet_run(
    rec: &mut Recorder,
    name: &'static str,
    model: &NetworkModel,
    opts: &S2Options,
    f: &dyn Fn(&S2Verifier) -> bool,
) -> Option<f64> {
    let model = model.clone();
    let (ok, ms) = rec.span(name, |_| {
        let Ok(verifier) = S2Verifier::new(model, opts) else {
            return false;
        };
        let ok = f(&verifier);
        verifier.shutdown();
        ok
    });
    ok.then_some(ms)
}

/// Median wall under `base` over median wall under `variant`, the two
/// alternating so that drift hits both alike.
fn ab_ratio(
    rec: &mut Recorder,
    model: &NetworkModel,
    base: (&'static str, &S2Options),
    variant: (&'static str, &S2Options),
    f: &dyn Fn(&S2Verifier) -> bool,
) -> Option<f64> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..AB_REPS {
        a.push(fleet_run(rec, base.0, model, base.1, f)?);
        b.push(fleet_run(rec, variant.0, model, variant.1, f)?);
    }
    Some(median(&a) / median(&b))
}

/// The three A/B questions the ROADMAP keeps open, each answered by
/// running the same model both ways: what a communication-heavy
/// partition costs, what the second worker buys, what the pool buys.
pub fn ab_probes(
    rec: &mut Recorder,
    model: &NetworkModel,
    request: &VerificationRequest,
    opts: &S2Options,
    out: &mut Values,
) {
    let verify = |v: &S2Verifier| v.verify(request).is_ok();
    let simulate = |v: &S2Verifier| v.simulate().is_ok();

    let comm = S2Options {
        scheme: Scheme::CommHeavy,
        ..opts.clone()
    };
    if let Some(r) = ab_ratio(
        rec,
        model,
        ("ab.commheavy", &comm),
        ("ab.metis", opts),
        &verify,
    ) {
        out.set("partition.commheavy_slowdown", r, AB_REPS);
    }
    let one = S2Options {
        workers: 1,
        ..opts.clone()
    };
    if let Some(r) = ab_ratio(
        rec,
        model,
        ("ab.workers1", &one),
        ("ab.workers2", opts),
        &verify,
    ) {
        out.set("runtime.scaleout_w2_over_w1", r, AB_REPS);
    }
    let pool = S2Options {
        intra_worker_threads: 2,
        ..opts.clone()
    };
    if let Some(r) = ab_ratio(
        rec,
        model,
        ("ab.threads1", opts),
        ("ab.threads2", &pool),
        &simulate,
    ) {
        out.set("runtime.pool_cp_speedup_t2", r, AB_REPS);
    }
}

/// Every probe above on one model: a reference verify on a fresh fleet
/// for the counts and phase timers, then the layer and A/B probes.
pub fn all(
    rec: &mut Recorder,
    model: &NetworkModel,
    request: &VerificationRequest,
    opts: &S2Options,
    out: &mut Values,
) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    if let Ok(verifier) = S2Verifier::new(model.clone(), opts) {
        if let (Ok(report), _) = rec.span("probe.verify", |_| verifier.verify(request)) {
            report_counts(&report, &model.topology, out);
            out.set("runtime.cp_ms", ms(report.cp.elapsed), 1);
            out.set("dataplane.pred_ms", ms(report.dpv.pred_time), 1);
            out.set("dataplane.fwd_ms", ms(report.dpv.fwd_time), 1);
            bdd_probe(rec, &report, request, out);
        }
        let (workers, ms) = rec.span("runtime.collect", |_| {
            verifier.scrape_metrics().workers.len()
        });
        out.set("runtime.collect_ms", ms, workers);
        verifier.shutdown();
    }
    model_probes(rec, model, opts, out);
    ab_probes(rec, model, request, opts, out);
}
