//! `sweep_k1k2`: every single-link failure and a seeded sample of
//! double-link failures, re-verified over one warm fleet per op.

use crate::answers::{check_sweep, Reachability};
use crate::daemon::{peak_worker_bytes, scoped_metrics};
use crate::plan::{self, SweepInput};
use crate::probes;
use crate::run::{Ctx, Outcome, Phase};
use crate::spans::Recorder;
use crate::stats::{mean, median};
use s2::sweep::{LinkKey, ResilienceReport, ScenarioStatus};
use s2::{NetworkModel, S2Error, S2Verifier, SweepOptions};
use s2_obs::Registry;
use std::time::Instant;

/// Set-ups timed before the first op and after the last (one more runs
/// before each op).
const SETUPS_EDGE: usize = 10;
/// Scenarios of the untimed warm-up sweep.
const WARM_UP_SCENARIOS: usize = 8;
/// Double-link scenarios the monolithic baseline re-verifies cold.
const SECOND_OPINION_SCENARIOS: usize = 2;

/// What one fresh fleet's sweep measured.
struct Swept {
    report: ResilienceReport,
    /// Wall of `sweep_scenarios`, ms.
    sweep_ms: f64,
    /// Wall from the configs to the end of `sweep_scenarios`, ms.
    total_ms: f64,
    /// Largest per-worker modelled peak the fleet reports afterwards.
    peak_bytes: u64,
}

/// One op: a fresh fleet sweeps `scenarios`.
fn sweep_op(
    rec: &mut Recorder,
    input: &SweepInput,
    scenarios: &[Vec<LinkKey>],
) -> Result<Swept, S2Error> {
    let start = Instant::now();
    let model = NetworkModel::build(input.topology.clone(), input.configs.clone())?;
    let verifier = S2Verifier::new(model, &input.opts)?;
    let opts = SweepOptions {
        max_failures: 2,
        ..SweepOptions::default()
    };
    let (report, sweep_ms) = rec.span("s2.sweep", |_| {
        verifier.sweep_scenarios(&input.request, &opts, scenarios)
    });
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Ok(r), Some(span)) = (&report, rec.last("s2.sweep")) {
        rec.reported_children(span, &[("s2.sweep.baseline", r.baseline_ms)]);
    }
    let peak_bytes = peak_worker_bytes(
        verifier
            .scrape_metrics()
            .workers
            .iter()
            .filter_map(|(_, s)| s.as_ref()),
    );
    verifier.shutdown();
    Ok(Swept {
        report: report?,
        sweep_ms,
        total_ms,
        peak_bytes,
    })
}

/// One set-up: plan the scenarios, then start a fleet and build the
/// warm baseline every sweep starts from. The baseline is paid before
/// the first scenario, so it belongs to set-up, where a change that
/// moves scenario work into it will show. The fleet-and-baseline part
/// alone (no planning, no shutdown) goes to `ready`.
fn set_up(ctx: &Ctx, out: &mut Outcome, ready: &mut Vec<f64>) -> Option<SweepInput> {
    let (input, baseline) = out.timed_setup(|| {
        let input = plan::sweep_k1k2(&ctx.sizes, ctx.seed);
        let baseline = sweep_op(&mut Recorder::new(false), &input, &[]);
        (input, baseline)
    });
    match baseline {
        Ok(swept) => {
            ready.push(swept.total_ms);
            Some(input)
        }
        Err(e) => {
            out.fail(format!("baseline sweep: {e}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let mut ready = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS_EDGE {
        input = set_up(ctx, &mut out, &mut ready);
        if input.is_none() {
            return out;
        }
    }
    let input = input.expect("SETUPS_EDGE > 0");
    out.op_list_hash = input.op_list_hash;
    let scenarios = input.scenarios.len();

    if let Err(e) = sweep_op(
        &mut Recorder::new(false),
        &input,
        &input.scenarios[..WARM_UP_SCENARIOS.min(scenarios)],
    ) {
        out.fail(format!("warm-up sweep: {e}"));
        return out;
    }

    if ctx.traced {
        let (_, ms) = rec.span("topogen.gen", |_| plan::sweep_k1k2(&ctx.sizes, ctx.seed));
        out.layers.set("topogen.gen_ms", ms, 1);
        if let Ok(model) = NetworkModel::build(input.topology.clone(), input.configs.clone()) {
            probes::all(rec, &model, &input.request, &input.opts, &mut out.layers);
        }
    }

    let registry_before = Registry::global().snapshot();
    let mut per_scenario = Vec::new();
    let mut warm_rounds = Vec::new();
    let mut rates = Vec::new();
    let mut reports = Vec::new();
    let mut peak_bytes = 0;
    let phase = Phase::start(ctx.op_seconds());
    while !phase.done(reports.len() * scenarios) {
        // One more set-up between ops, outside every op's clock.
        if set_up(ctx, &mut out, &mut ready).is_none() {
            return out;
        }
        rec.next_op();
        let (result, _) = rec.span("op", |rec| sweep_op(rec, &input, &input.scenarios));
        out.attempted += scenarios;
        match result {
            Ok(Swept {
                report,
                sweep_ms,
                peak_bytes: peak,
                ..
            }) => {
                if let Err(e) = check_sweep(&report, scenarios) {
                    out.fail(e);
                }
                for outcome in &report.outcomes {
                    if let ScenarioStatus::Resolved(v) = &outcome.status {
                        per_scenario.push(v.elapsed_ms);
                        warm_rounds.push(v.warm_rounds as f64);
                    }
                }
                rates.push(scenarios as f64 / ((sweep_ms - report.baseline_ms) / 1e3));
                peak_bytes = peak_bytes.max(peak);
                reports.push(report);
            }
            Err(e) => {
                out.fail(format!("sweep op {}: {e}", reports.len() + 1));
                return out;
            }
        }
    }
    let cpu_ms = phase.cpu_ms();
    out.peak_rss_mb = crate::run::peak_rss_mb();
    for _ in 0..SETUPS_EDGE {
        if set_up(ctx, &mut out, &mut ready).is_none() {
            return out;
        }
    }

    let total = reports.len() * scenarios;
    out.set_primary_op(ctx.workload, &per_scenario);
    out.e2e.set("ops_per_s", median(&rates), rates.len());
    out.e2e.set("ready_ms", median(&ready), ready.len());
    out.e2e
        .set("peak_worker_bytes", peak_bytes as f64, reports.len());

    if ctx.traced {
        let l = &mut out.layers;
        l.set("runtime.cpu_ms_per_op", cpu_ms / total as f64, total);
        let over =
            |f: &dyn Fn(&ResilienceReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
        l.set(
            "s2.sweep.baseline_ms",
            median(&over(&|r| r.baseline_ms)),
            reports.len(),
        );
        l.set(
            "s2.sweep.class_share",
            median(&over(&|r| r.class_count as f64 / scenarios as f64)),
            total,
        );
        l.set(
            "s2.sweep.speedup_vs_cold",
            median(&over(&|r| r.speedup_vs_serial_full())),
            reports.len(),
        );
        l.set(
            "s2.sweep.warm_rounds_mean",
            mean(&warm_rounds),
            warm_rounds.len(),
        );
        scoped_metrics(
            &registry_before,
            input.request.sources.len(),
            per_scenario.len(),
            l,
        );
    }

    // Second opinion on the unfailed network and on the first few
    // double-link scenarios, each re-verified cold.
    let links = input.topology.link_count();
    let failures = std::iter::once(Vec::new()).chain(
        input.scenarios[links..]
            .iter()
            .take(SECOND_OPINION_SCENARIOS)
            .map(|s| s.iter().map(|l| (l.0 .0, l.1 .0)).collect()),
    );
    let model = NetworkModel::build(input.topology.clone(), input.configs.clone());
    Reachability::expect(&input.request, None).second_opinion(
        &mut out,
        model,
        &input.request,
        failures,
    );
    out
}
