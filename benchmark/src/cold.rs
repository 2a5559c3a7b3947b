//! `fattree_cold` and `dcn_cold`: verify one snapshot from its config
//! texts, fleet start and shutdown included, over and over.

use crate::answers::Reachability;
use crate::plan::{ColdInput, Sizes, Workload};
use crate::probes;
use crate::run::{Ctx, Outcome, Phase};
use crate::spans::Recorder;
use crate::stats::median;
use s2::{NetworkModel, S2Error, S2Report, S2Verifier};
use s2_net::topology::Topology;
use std::time::Instant;

/// Ops a throughput window holds. `ops_per_s` is the rate of the median
/// window: about one `fattree_cold` op in thirty spends an extra 0.7 s
/// in forwarding, and with 26 ops a run whether it met none, one or two
/// of those moved ops / wall by 8 %.
const WINDOW_OPS: usize = 3;

fn make(workload: Workload, sizes: &Sizes, seed: u64) -> ColdInput {
    match workload {
        Workload::FattreeCold => crate::plan::fattree_cold(sizes),
        _ => crate::plan::dcn_cold(sizes, seed),
    }
}

/// One op: texts in, report out. Untraced it is the four public calls a
/// user makes. Traced, `ingest` and `new` are taken apart into the
/// calls they are made of, so that each layer gets its own span. The
/// wall from the texts to a fleet that can take the request goes to
/// `ready`.
fn cold_op(
    rec: &mut Recorder,
    input: &ColdInput,
    topology: Topology,
    ready: &mut Vec<f64>,
) -> Result<S2Report, S2Error> {
    let start = Instant::now();
    if !rec.enabled() {
        let model = s2::ingest(topology, &input.texts)?;
        let verifier = S2Verifier::new(model, &input.opts)?;
        ready.push(start.elapsed().as_secs_f64() * 1e3);
        let report = verifier.verify(&input.request);
        verifier.shutdown();
        return report;
    }
    let (configs, _) = rec.span("net.parse", |_| {
        input
            .texts
            .iter()
            .map(|t| s2_net::vendor::parse(t))
            .collect::<Result<Vec<_>, _>>()
    });
    let (model, _) = rec.span("routing.model_build", |_| {
        NetworkModel::build(topology, configs?)
    });
    let model = model?;
    let (partition, _) = rec.span("partition.compute", |_| {
        s2_partition::schemes::compute(&model.topology, input.opts.workers, input.opts.scheme)
    });
    let (verifier, _) = rec.span("runtime.fleet_start", |_| {
        S2Verifier::with_partition(model, partition, &input.opts)
    });
    let verifier = verifier?;
    ready.push(start.elapsed().as_secs_f64() * 1e3);
    let (report, _) = rec.span("s2.verify", |_| verifier.verify(&input.request));
    if let (Ok(r), Some(span)) = (&report, rec.last("s2.verify")) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        rec.reported_children(
            span,
            &[
                ("runtime.cp", ms(r.cp.elapsed)),
                ("dataplane.pred", ms(r.dpv.pred_time)),
                ("dataplane.fwd", ms(r.dpv.fwd_time)),
            ],
        );
    }
    rec.span("runtime.shutdown", |_| verifier.shutdown());
    report
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let input = out.timed_setup(|| make(ctx.workload, &ctx.sizes, ctx.seed));
    out.op_list_hash = input.op_list_hash;
    let want = Reachability::of_cold(&input);

    // Warm-up: first-touch page faults and lazy statics are not what a
    // long-lived verifier host pays per snapshot.
    let warm = cold_op(
        &mut Recorder::new(false),
        &input,
        input.topology.clone(),
        &mut Vec::new(),
    );
    let Ok(warm) = warm.map_err(|e| out.fail(format!("warm-up op: {e}"))) else {
        return out;
    };
    let peak = warm.peak_worker_memory();

    if ctx.traced {
        let (_, ms) = rec.span("topogen.gen", |_| make(ctx.workload, &ctx.sizes, ctx.seed));
        out.layers.set("topogen.gen_ms", ms, 1);
        out.layers.set(
            "net.config_bytes",
            input.config_bytes as f64,
            input.texts.len(),
        );
        if let Ok(model) = s2::ingest(input.topology.clone(), &input.texts) {
            probes::all(rec, &model, &input.request, &input.opts, &mut out.layers);
        }
    }

    let mut walls = Vec::new();
    let mut ready = Vec::new();
    let mut traced_walls = [Vec::new(), Vec::new()];
    let mut events = Vec::new();
    let mut rates = Vec::new();
    let phase = Phase::start(ctx.op_seconds());
    let mut window = Instant::now();
    while !phase.done(walls.len()) {
        // One more set-up between ops, outside every op's clock.
        out.timed_setup(|| make(ctx.workload, &ctx.sizes, ctx.seed));
        let topology = input.topology.clone();
        // Every other traced op runs with the program's own tracing on;
        // the gap between the two halves is what observing costs.
        let inner_trace = ctx.traced && walls.len() % 2 == 1;
        s2_obs::trace::set_enabled(inner_trace);
        rec.next_op();
        let (report, ms) = rec.span("op", |rec| cold_op(rec, &input, topology, &mut ready));
        if inner_trace {
            s2_obs::trace::set_enabled(false);
            events.push(s2_obs::trace::take_events().len() as f64);
        }
        traced_walls[usize::from(inner_trace)].push(ms);
        walls.push(ms);
        if walls.len() % WINDOW_OPS == 0 {
            rates.push(WINDOW_OPS as f64 / window.elapsed().as_secs_f64());
            window = Instant::now();
        }
        out.attempted += 1;
        match report {
            Ok(r) => {
                if let Err(e) = want.check(&r.dpv) {
                    out.fail(e);
                } else if r.peak_worker_memory() != peak {
                    out.fail(format!(
                        "peak worker memory {} differs from the first op's {peak}",
                        r.peak_worker_memory()
                    ));
                }
            }
            Err(e) => out.fail(format!("op {}: {e}", walls.len())),
        }
    }
    let cpu_ms = phase.cpu_ms();

    let n = walls.len();
    out.set_primary_op(ctx.workload, &walls);
    out.e2e.set("ops_per_s", median(&rates), rates.len());
    if !ready.is_empty() {
        out.e2e.set("ready_ms", median(&ready), ready.len());
    }
    out.e2e.set("peak_worker_bytes", peak as f64, n + 1);

    if ctx.traced {
        out.layers
            .set("runtime.cpu_ms_per_op", cpu_ms / n as f64, n);
        for (span, metric) in [
            ("net.parse", "net.parse_ms"),
            ("routing.model_build", "routing.model_build_ms"),
            ("partition.compute", "partition.compute_ms"),
            ("runtime.fleet_start", "runtime.fleet_start_ms"),
            ("runtime.cp", "runtime.cp_ms"),
            ("dataplane.pred", "dataplane.pred_ms"),
            ("dataplane.fwd", "dataplane.fwd_ms"),
            ("runtime.shutdown", "runtime.shutdown_ms"),
        ] {
            let w = rec.walls(span);
            out.layers.set(metric, median(&w), w.len());
        }
        let parse_ms = median(&rec.walls("net.parse"));
        out.layers.set(
            "net.parse_mb_s",
            input.config_bytes as f64 / 1e6 / (parse_ms / 1e3),
            n,
        );
        let (wall, own) = rec.wall_and_self("s2.verify");
        out.layers
            .set("s2.verify_unattributed_share", own / wall, n);
        let [plain, traced] = &traced_walls;
        if !traced.is_empty() {
            out.layers.set(
                "obs.trace_overhead_share",
                median(traced) / median(plain) - 1.0,
                traced.len(),
            );
            out.layers
                .set("obs.trace_events", median(&events), events.len());
        }
    }

    out.peak_rss_mb = crate::run::peak_rss_mb();
    let model = s2::ingest(input.topology.clone(), &input.texts);
    want.second_opinion(&mut out, model, &input.request, [Vec::new()]);
    out
}
