//! `daemon_churn`: a warm daemon fed a seeded stream of link and prefix
//! deltas by one client that waits for each verdict, scraped as it
//! goes, then restarted warm from its checkpoint.

use crate::answers::{check_delta, Reachability};
use crate::plan::{self, DaemonInput, DeltaKind, PlannedDelta};
use crate::probes;
use crate::run::{Ctx, Outcome, Phase};
use crate::spans::Recorder;
use crate::stats::median;
use s2::{Daemon, DaemonConfig, NetworkModel};
use s2_obs::{MetricsSnapshot, Registry};
use s2_runtime::admin::AdminResponse;
use std::path::Path;
use std::time::Instant;

/// A `metrics` + `status` scrape follows every this-many deltas.
const SCRAPE_EVERY: usize = 10;
/// Cold set-ups timed before the stream and after the restarts.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 3;

/// The per-phase histograms the daemon feeds, in the order the phases
/// run, each with the span it becomes under `s2.daemon.apply`; the
/// span's name plus `_ms` is the per-layer metric its mean becomes.
const PHASES: [(&str, &str); 5] = [
    ("daemon.delta.validate_ms", "s2.daemon.validate"),
    ("daemon.delta.stage_ms", "s2.daemon.stage"),
    ("daemon.delta.dpv_ms", "s2.daemon.dpv"),
    ("daemon.delta.commit_ms", "s2.daemon.commit"),
    ("daemon.delta.checkpoint_ms", "s2.daemon.checkpoint"),
];

fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histograms
        .get(name)
        .map_or((0, 0), |h| (h.sum, h.count))
}

/// Share of the scoped-DPV counters the global registry gained since
/// `before`, as the `dataplane.scoped.*` and splice metrics.
pub fn scoped_metrics(
    before: &MetricsSnapshot,
    sources: usize,
    deltas: usize,
    out: &mut crate::doc::Values,
) {
    let after = Registry::global().snapshot();
    let gained = |name: &str| (after.counter_value(name) - before.counter_value(name)) as f64;
    let runs = gained("dpv.scoped.runs");
    if runs == 0.0 {
        return;
    }
    out.set(
        "dataplane.scoped.space_share",
        gained("dpv.scoped.space_permille") / 1000.0 / runs,
        runs as usize,
    );
    out.set(
        "dataplane.scoped.skipped_source_share",
        gained("dpv.scoped.skipped_sources") / (runs * sources as f64),
        runs as usize,
    );
    out.set(
        "dataplane.scoped.fallback_full",
        gained("dpv.scoped.fallback_full"),
        runs as usize,
    );
    out.set(
        "bdd.splice_ops_per_delta",
        gained("dpv.scoped.splice_ops") / deltas as f64,
        deltas,
    );
}

/// Largest per-worker modelled peak among scraped worker snapshots.
pub fn peak_worker_bytes<'a>(workers: impl Iterator<Item = &'a MetricsSnapshot>) -> u64 {
    workers
        .map(|s| s.gauge_value("mem.peak_bytes"))
        .max()
        .unwrap_or(0)
}

struct Churn<'a> {
    daemon: Daemon,
    out: &'a mut Outcome,
    down: Vec<f64>,
    up: Vec<f64>,
    escalated: Vec<f64>,
    scrapes: Vec<f64>,
    peak_bytes: u64,
}

impl Churn<'_> {
    fn apply(&mut self, rec: &mut Recorder, delta: &PlannedDelta) {
        rec.next_op();
        let before = rec.enabled().then(|| Registry::global().snapshot());
        let daemon = &mut self.daemon;
        let (resp, ms) = rec.span("s2.daemon.apply", |_| daemon.apply(&delta.spec));
        if let (Some(before), Some(span)) = (before, rec.last("s2.daemon.apply")) {
            let after = Registry::global().snapshot();
            let parts: Vec<(&'static str, f64)> = PHASES
                .iter()
                .map(|&(h, span)| (span, (hist(&after, h).0 - hist(&before, h).0) as f64))
                .collect();
            rec.reported_children(span, &parts);
        }
        self.out.attempted += 1;
        match resp {
            Ok(resp) => {
                let escalated = matches!(
                    resp,
                    AdminResponse::Committed {
                        escalated: true,
                        ..
                    }
                );
                match delta.kind {
                    _ if escalated => self.escalated.push(ms),
                    DeltaKind::Down => self.down.push(ms),
                    _ => self.up.push(ms),
                }
                if let Err(e) = check_delta(delta, &resp) {
                    self.out.fail(e);
                }
            }
            Err(crash) => self.out.fail(format!("{:?}: {crash}", delta.spec)),
        }
    }

    /// What a monitoring system does beside the writes: one `metrics`
    /// and one `status` request.
    fn scrape(&mut self, rec: &mut Recorder) {
        let daemon = &mut self.daemon;
        let ((metrics, status), ms) =
            rec.span("s2.daemon.scrape", |_| (daemon.metrics(), daemon.status()));
        self.scrapes.push(ms);
        self.out.attempted += 1;
        match (metrics, status) {
            (AdminResponse::Metrics { workers, .. }, AdminResponse::Status { .. })
                if workers.iter().all(|w| w.up) =>
            {
                let peak = peak_worker_bytes(workers.iter().filter_map(|w| w.snapshot.as_ref()));
                self.peak_bytes = self.peak_bytes.max(peak);
            }
            other => self.out.fail(format!("scrape: {other:?}")),
        }
    }
}

fn config(input: &DaemonInput, checkpoint: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(
        input.topology.clone(),
        input.configs.clone(),
        input.request.clone(),
    );
    cfg.opts = input.opts.clone();
    cfg.checkpoint = Some(checkpoint.to_path_buf());
    cfg
}

/// One set-up: plan the stream and open the daemon cold. The cold
/// open's own wall (ms) goes to `opens`.
fn set_up(
    ctx: &Ctx,
    checkpoint: &Path,
    out: &mut Outcome,
    opens: &mut Vec<f64>,
) -> Option<(DaemonInput, Daemon)> {
    let _ = std::fs::remove_file(checkpoint);
    let made = out.timed_setup(|| {
        let input = plan::daemon_churn(&ctx.sizes, ctx.seed);
        let cfg = config(&input, checkpoint);
        let t = Instant::now();
        let daemon = Daemon::open(cfg);
        (input, daemon, t.elapsed().as_secs_f64() * 1e3)
    });
    opens.push(made.2);
    match made {
        (input, Ok(daemon), _) => Some((input, daemon)),
        (_, Err(e), _) => {
            out.fail(format!("cold open: {e}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let checkpoint = crate::out_dir().join(format!("daemon-{}.ckpt", std::process::id()));
    let mut opens = Vec::new();
    let mut ready: Option<(DaemonInput, Daemon)> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((_, old)) = ready.take() {
            old.shutdown();
        }
        ready = set_up(ctx, &checkpoint, &mut out, &mut opens);
        if ready.is_none() {
            return out;
        }
    }
    let (mut input, daemon) = ready.expect("SETUPS_BEFORE > 0");
    out.op_list_hash = input.op_list_hash;
    let open_hash = daemon.verdict_hash();
    let sources = input.request.sources.len();
    if daemon.warm_start() || daemon.verdict().reachable_pairs as usize != input.pairs {
        out.fail(format!(
            "cold open: warm={} reachable={}",
            daemon.warm_start(),
            daemon.verdict().reachable_pairs
        ));
    }

    if ctx.traced {
        let (_, ms) = rec.span("topogen.gen", |_| plan::daemon_churn(&ctx.sizes, ctx.seed));
        out.layers.set("topogen.gen_ms", ms, 1);
        if let Ok(model) = NetworkModel::build(input.topology.clone(), input.configs.clone()) {
            probes::all(rec, &model, &input.request, &input.opts, &mut out.layers);
        }
    }

    let mut churn = Churn {
        daemon,
        out: &mut out,
        down: Vec::new(),
        up: Vec::new(),
        escalated: Vec::new(),
        scrapes: Vec::new(),
        peak_bytes: 0,
    };
    // Warm-up: one flap, so the first measured delta finds the scenario
    // machinery already exercised.
    for delta in input.stream.flap() {
        churn.apply(&mut Recorder::new(false), &delta);
    }
    churn.down.clear();
    churn.up.clear();

    let registry_before = Registry::global().snapshot();
    let phase = Phase::start(ctx.op_seconds());
    let mut deltas = 0;
    let mut rates = Vec::new();
    // Whole cycles only: every run does the same mix of work, and the
    // stream ends on the snapshot it started from.
    while !phase.done(deltas) {
        let cycle = input.stream.cycle();
        let t = Instant::now();
        for delta in &cycle {
            churn.apply(rec, delta);
            deltas += 1;
            if deltas % SCRAPE_EVERY == 0 {
                churn.scrape(rec);
            }
        }
        rates.push(cycle.len() as f64 / t.elapsed().as_secs_f64());
    }
    let cpu_ms = phase.cpu_ms();
    let Churn {
        mut daemon,
        down,
        up,
        escalated,
        scrapes,
        peak_bytes,
        ..
    } = churn;

    // The stream ends where it began: same verdicts, no link down.
    out.attempted += 1;
    match daemon.status() {
        AdminResponse::Status {
            verdict_hash,
            failed_links: 0,
            all_clear: true,
            rejected: 0,
            ..
        } if verdict_hash == open_hash => {}
        other => out.fail(format!(
            "after the stream: {other:?}, expected verdict hash {open_hash:#x}"
        )),
    }
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());

    let mut restarts = Vec::new();
    for _ in 0..ctx.sizes.restarts {
        daemon.shutdown();
        let cfg = config(&input, &checkpoint);
        rec.next_op();
        let (reopened, ms) = rec.span("s2.daemon.restart", |_| Daemon::open(cfg));
        restarts.push(ms);
        out.attempted += 1;
        daemon = match reopened {
            Ok(d) => d,
            Err(e) => {
                out.fail(format!("warm restart: {e}"));
                return out;
            }
        };
        if !daemon.warm_start() || daemon.verdict_hash() != open_hash {
            out.fail(format!(
                "restart: warm={} hash={:#x}, expected {open_hash:#x}",
                daemon.warm_start(),
                daemon.verdict_hash()
            ));
        }
    }
    daemon.shutdown();
    out.peak_rss_mb = crate::run::peak_rss_mb();

    // The other set-ups run now, so that `setup_s` samples the host at
    // both ends of the run and not only a process's first half second.
    for _ in 0..SETUPS_AFTER {
        match set_up(ctx, &checkpoint, &mut out, &mut opens) {
            Some((_, daemon)) => daemon.shutdown(),
            None => return out,
        }
    }
    let _ = std::fs::remove_file(&checkpoint);

    out.set_primary_op(ctx.workload, &down);
    out.e2e.set("ops_per_s", median(&rates), rates.len());
    out.e2e.set("ready_ms", median(&restarts), restarts.len());
    out.e2e
        .set("peak_worker_bytes", peak_bytes as f64, scrapes.len());

    if ctx.traced {
        let l = &mut out.layers;
        l.set("runtime.cpu_ms_per_op", cpu_ms / deltas as f64, deltas);
        l.set("s2.daemon.open_ms", median(&opens), opens.len());
        l.set("s2.daemon.delta_down_p50_ms", median(&down), down.len());
        l.set("s2.daemon.delta_up_p50_ms", median(&up), up.len());
        l.set(
            "s2.daemon.delta_escalated_p50_ms",
            median(&escalated),
            escalated.len(),
        );
        l.set("s2.daemon.scrape_p50_ms", median(&scrapes), scrapes.len());
        l.set("s2.daemon.checkpoint_bytes", checkpoint_bytes as f64, 1);
        let after = Registry::global().snapshot();
        for (h, span) in PHASES {
            let (sum, count) = (
                hist(&after, h).0 - hist(&registry_before, h).0,
                hist(&after, h).1 - hist(&registry_before, h).1,
            );
            if count > 0 {
                l.set(
                    &format!("{span}_ms"),
                    sum as f64 / count as f64,
                    count as usize,
                );
            }
        }
        let (wall, own) = rec.wall_and_self("s2.daemon.apply");
        l.set("s2.daemon.unattributed_share", own / wall, deltas);
        scoped_metrics(&registry_before, sources, down.len() + up.len(), l);
    }

    let model = NetworkModel::build(input.topology.clone(), input.configs.clone());
    Reachability::expect(&input.request, None).second_opinion(
        &mut out,
        model,
        &input.request,
        [Vec::new()],
    );
    out
}
