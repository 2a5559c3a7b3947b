//! `s2d`: the crash-safe incremental verification daemon.
//!
//! The daemon loads a snapshot (topology + configs), verifies it once,
//! and then holds the fleet **warm**: converged switches, compiled
//! forwarding predicates, a scenario checkpoint on every worker.
//! Configuration deltas — link down/up, route-map edits, prefix
//! add/withdraw — arrive over a TCP admin socket
//! ([`s2_runtime::admin`]) and are applied **verify-then-commit**:
//!
//! 1. **Validate** — resolve names against the model; malformed or
//!    inapplicable deltas are rejected without touching the fleet.
//! 2. **Stage/Replay/Dpv** — link deltas run as a *warm scenario*:
//!    the new cumulative failed-link overlay is installed on the
//!    workers' scenario checkpoint, the last committed state, with the
//!    delta engine's steps ([`crate::delta`]: `begin → reconverge →
//!    check`) inside its fence, so only the delta's own link replays.
//!    A verified scenario is left in place — it is the state being
//!    committed. Config-content deltas (and link deltas the
//!    warm path cannot verify, e.g. an OSPF adjacency on the failed
//!    link) **escalate**: a blue/green rebuild warms a fresh fleet for
//!    the new snapshot while the old fleet keeps serving.
//! 3. **Commit** — only a fully verified candidate replaces the
//!    committed RIB + verdict state, atomically, bumping the
//!    generation; a warm one also becomes the fleet's checkpoint. A
//!    warm delta the fence gives up on escalates to a
//!    full re-verification, and finally degrades to
//!    `rejected(reason)`. The daemon never wedges: after any outcome
//!    it is ready for the next delta.
//! 4. **Checkpoint** — the committed generation and failed links are
//!    journaled (write-temp-then-rename, checksummed), so a `kill -9`
//!    resumes the committed state: on restart a journal that matches
//!    the snapshot is adopted, and the fleet rebuilds with its failed
//!    links baked into the model, which recomputes the RIB and the
//!    verdicts, at the journaled generation. A corrupt or mismatched
//!    journal falls back to a cold start — never loads garbage.
//!
//! Chaos hooks: [`FaultPlan::crash_daemon`] aborts the daemon at any
//! phase above, [`FaultPlan::drop_admin_conn`] severs admin
//! connections, [`FaultPlan::corrupt_checkpoint`] flips checkpoint
//! bytes — the fault-tolerance suite drives all three.
//!
//! [`FaultPlan::crash_daemon`]: s2_runtime::FaultPlan::crash_daemon
//! [`FaultPlan::drop_admin_conn`]: s2_runtime::FaultPlan::drop_admin_conn
//! [`FaultPlan::corrupt_checkpoint`]: s2_runtime::FaultPlan::corrupt_checkpoint

use crate::delta::{FenceBudget, ScenarioFail, WarmFleet};
use crate::query::VerificationRequest;
use crate::sweep::{scenario_ports, LinkKey};
use crate::verifier::{S2Error, S2Options, S2Verifier};
use s2_net::config::{DeviceConfig, Network};
use s2_net::topology::{NodeId, Topology};
use s2_obs::{MetricsSnapshot, Registry, Stopwatch};
use s2_routing::{NetworkModel, RibSnapshot};
use s2_runtime::admin::{
    self, fnv1a64, parse_text_command, render_text_response, AdminRequest, AdminResponse,
    DeltaSpec, WarmCheckpoint, WorkerMetrics, K_ADMIN_REQUEST, K_ADMIN_RESPONSE, MAX_ADMIN_FRAME,
};
use s2_runtime::tcp;
use s2_runtime::{CheckpointError, DaemonPhase, DpvRunStats, FaultPlan, FaultState, PatchStage};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to start (or restart) a daemon.
#[derive(Clone)]
pub struct DaemonConfig {
    /// The physical topology of the snapshot.
    pub topology: Topology,
    /// Per-device configurations; updated in place by committed
    /// route-map / prefix deltas.
    pub configs: Vec<DeviceConfig>,
    /// The standing verification request re-checked after every delta.
    pub request: VerificationRequest,
    /// Fleet options. `opts.runtime.faults` seeds both the cluster's
    /// fault state and the daemon's own phase/connection/checkpoint
    /// triggers (independent one-shot counters).
    pub opts: S2Options,
    /// Warm-checkpoint path; `None` disables persistence.
    pub checkpoint: Option<PathBuf>,
    /// Total wall-clock budget per delta, retries and backoff included.
    pub delta_deadline: Duration,
    /// Warm re-verification retries before escalating to a rebuild.
    pub max_retries: usize,
    /// Base retry backoff (exponential, jittered, fence-capped).
    pub retry_backoff: Duration,
}

impl DaemonConfig {
    /// A config with the sweep-style fencing defaults.
    pub fn new(topology: Topology, configs: Vec<DeviceConfig>, request: VerificationRequest) -> Self {
        DaemonConfig {
            topology,
            configs,
            request,
            opts: S2Options::default(),
            checkpoint: None,
            delta_deadline: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(100),
        }
    }
}

/// An injected daemon crash surfaced to a test harness. In
/// [`Daemon::serve`] the process aborts instead (the real `kill -9`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonCrash(pub DaemonPhase);

impl std::fmt::Display for DaemonCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "daemon crashed in phase {:?}", self.0)
    }
}

/// The committed (serving) state: what `status` reports, what the next
/// delta is diffed against. The checkpoint journals its generation.
struct Committed {
    generation: u64,
    rib: Arc<RibSnapshot>,
    /// The DPV outcome of the pass that committed it.
    dpv: DpvRunStats,
}

/// What validation decided to do with a delta.
enum Action {
    /// Re-verify the new cumulative failed-link overlay warm.
    Warm(Vec<LinkKey>),
    /// Blue/green rebuild with these configs and model-baked links.
    Escalate(Vec<DeviceConfig>, Vec<(NodeId, NodeId)>),
}

/// The incremental verification daemon. See the module docs for the
/// delta lifecycle.
pub struct Daemon {
    cfg: DaemonConfig,
    /// The serving fleet, warm for `cfg.request`. Its checkpoint is the
    /// committed state (or, after a worker loss, the warm-up one, which
    /// the next delta replays the whole overlay from).
    fleet: WarmFleet,
    committed: Committed,
    /// Links failed into the model of the current fleet (escalated
    /// commits and adopted journals land here).
    baked: Vec<(NodeId, NodeId)>,
    /// Links failed on top of the baked model as a warm overlay.
    overlay: Vec<LinkKey>,
    snapshot_hash: u64,
    /// Daemon-side fault triggers (crash points, dropped admin
    /// connections, corrupted checkpoints). Built from the same plan as
    /// the cluster's state but counts independently.
    faults: FaultState,
    /// Whether `open` adopted a journal that matched the snapshot.
    warm_start: bool,
    committed_count: u64,
    rejected_count: u64,
    /// `serve` mode: injected crashes abort the process instead of
    /// returning [`DaemonCrash`].
    abort_on_crash: bool,
    /// Daemon start time, backing the `daemon.uptime_ms` gauge and the
    /// `healthz` reply.
    start: Stopwatch,
    /// `now_ns` of the last successful checkpoint write, backing the
    /// `daemon.checkpoint.age_ms` gauge. `Cell` keeps
    /// [`Daemon::checkpoint_now`] callable through `&self`.
    last_checkpoint_ns: Cell<Option<u64>>,
    /// Rolling window of the last [`SLO_WINDOW`] delta outcomes
    /// (latency ms, committed?) backing the `daemon.slo.*` gauges.
    slo_window: VecDeque<(u64, bool)>,
    /// Last-known per-worker metric snapshots. When a worker stops
    /// answering scrapes its cached snapshot is served with `stale`
    /// set, so a dead worker degrades the endpoint instead of
    /// wedging or blanking it.
    worker_cache: BTreeMap<u32, MetricsSnapshot>,
}

/// How many recent deltas the `daemon.slo.*` rolling window covers.
const SLO_WINDOW: usize = 64;

/// Coarse reason class of a rejection, for the per-class
/// `daemon.delta.rejected.*` counters. Classes are stable strings —
/// dashboards alert on them — so classification is by substring of the
/// human reason, never by exposing the raw reason as a label.
fn rejection_class(reason: &str, attempts: u32) -> &'static str {
    if attempts == 0 {
        "validate"
    } else if reason.contains("deadline") {
        "deadline"
    } else if reason.contains("worker-lost")
        || reason.contains("unrecoverable")
        || reason.contains("re-warm")
    {
        "worker_lost"
    } else if reason.contains("model:") || reason.contains("spawn:") || reason.contains("rebuild verify")
    {
        "rebuild"
    } else {
        "other"
    }
}

/// Stable content hash of a snapshot. Node names and links come from
/// the topology in insertion order; configs use their (deterministic,
/// `BTreeMap`-backed) `Debug` form. Never hash the `Topology` value
/// directly — its name index is a `HashMap` with per-process order.
pub fn snapshot_hash(topology: &Topology, configs: &[DeviceConfig]) -> u64 {
    let mut text = String::new();
    for node in topology.nodes() {
        let _ = write!(text, "{}|", topology.name(node));
    }
    let _ = write!(text, "{:?}|{configs:?}", topology.links());
    fnv1a64(text.as_bytes())
}

/// Normalised node pair of a link (smaller id first).
fn node_pair(key: &LinkKey) -> (NodeId, NodeId) {
    let (a, b) = (key.0 .0, key.1 .0);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Every failed link as a node pair: the model-baked ones plus the
/// warm overlay, sorted and deduplicated — what a rebuild bakes into
/// the model and what the checkpoint journals.
fn failed_pairs(baked: &[(NodeId, NodeId)], overlay: &[LinkKey]) -> Vec<(NodeId, NodeId)> {
    let mut all = baked.to_vec();
    all.extend(overlay.iter().map(node_pair));
    all.sort_unstable();
    all.dedup();
    all
}

/// Records `sw`'s elapsed milliseconds into one of the per-phase
/// `daemon.delta.*_ms` SLO histograms.
fn record_ms(histogram: &str, sw: &Stopwatch) {
    Registry::global()
        .histogram(histogram)
        .record(sw.elapsed().as_millis() as u64);
}

/// Fires an injected crash point: aborts the process in serve mode,
/// surfaces [`DaemonCrash`] to test harnesses otherwise.
fn crash_point(faults: &FaultState, abort: bool, phase: DaemonPhase) -> Result<(), DaemonCrash> {
    if faults.should_crash_daemon(phase) {
        s2_obs::recorder::dump("daemon-crash-injected");
        if abort {
            std::process::abort();
        }
        return Err(DaemonCrash(phase));
    }
    Ok(())
}

impl Daemon {
    /// Starts the daemon: adopts the journal when one exists and
    /// matches the snapshot (corrupt or stale journals fall back to a
    /// cold start at generation 0), spawns the fleet with the journaled
    /// links failed in the model, and builds the warm baseline.
    pub fn open(cfg: DaemonConfig) -> Result<Daemon, S2Error> {
        let _span = s2_obs::span!("daemon.open");
        let sw = Stopwatch::start();
        let snapshot_hash = snapshot_hash(&cfg.topology, &cfg.configs);
        let faults = FaultState::new(cfg.opts.runtime.faults.clone());
        let journal = cfg.checkpoint.as_deref().and_then(|path| {
            match admin::load_checkpoint(path) {
                Ok(ckpt) if ckpt.snapshot_hash == snapshot_hash => Some(ckpt),
                Ok(_) => {
                    s2_obs::recorder::dump("daemon-checkpoint-snapshot-mismatch");
                    None
                }
                Err(CheckpointError::Io(_)) => None,
                Err(CheckpointError::Corrupt(what)) => {
                    s2_obs::recorder::dump("daemon-checkpoint-corrupt");
                    s2_obs::event!("daemon.checkpoint_corrupt", what.len());
                    None
                }
            }
        });

        let warm_start = journal.is_some();
        let (generation, baked) =
            journal.map_or((0, Vec::new()), |j| (j.generation, j.failed_links));
        let mut opts = cfg.opts.clone();
        opts.runtime.faults = baked.iter().fold(opts.runtime.faults, |p, &(a, b)| p.fail_link(a, b));
        let model = NetworkModel::build(cfg.topology.clone(), cfg.configs.clone())?;
        let verifier = S2Verifier::new(model, &opts)?;
        let fleet = WarmFleet::warm_up(verifier, &cfg.request).map_err(|(_, e)| e)?;
        let baseline = fleet.baseline();
        let committed =
            Committed { generation, rib: baseline.rib.clone(), dpv: baseline.dpv.clone() };
        s2_obs::event!("daemon.open", committed.generation as usize);

        let daemon = Daemon {
            cfg,
            fleet,
            committed,
            baked,
            overlay: Vec::new(),
            snapshot_hash,
            faults,
            warm_start,
            committed_count: 0,
            rejected_count: 0,
            abort_on_crash: false,
            start: sw,
            last_checkpoint_ns: Cell::new(None),
            slo_window: VecDeque::new(),
            worker_cache: BTreeMap::new(),
        };
        // Journal generation 0 at once, so that a restart after a
        // `kill -9` before the first delta adopts it too.
        if !daemon.warm_start {
            daemon.checkpoint_now();
        }
        daemon.refresh_gauges();
        Ok(daemon)
    }

    /// Committed generation.
    pub fn generation(&self) -> u64 {
        self.committed.generation
    }

    /// Whether this instance adopted a journal: a checkpoint that
    /// matched the snapshot, whose generation and failed links it
    /// resumed.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// The committed verdicts: the DPV outcome of the pass that
    /// committed them.
    pub fn verdict(&self) -> &DpvRunStats {
        &self.committed.dpv
    }

    /// Canonical hash of the committed verdict BDDs.
    pub fn verdict_hash(&self) -> u64 {
        admin::verdict_hash(&self.committed.dpv.verdict_sets)
    }

    /// Wall time of the last warm baseline build — the cold-verify cost
    /// a warm delta is measured against.
    pub fn baseline_ms(&self) -> f64 {
        self.fleet.baseline().ms
    }

    /// Stops the fleet, pulling any buffered remote trace events into
    /// this process first so a subsequent Chrome-trace export covers
    /// the whole fleet.
    pub fn shutdown(self) {
        let verifier = self.fleet.into_verifier();
        verifier.drain_remote_traces();
        verifier.shutdown();
    }

    /// Serves admin connections until a `shutdown` request. Prints a
    /// readiness line (`daemon: listening on ADDR`) on stderr — the
    /// stream scripts capture — for them to wait on. Injected crash
    /// points abort the process here — the real `kill -9` the
    /// checkpoint protects against.
    pub fn serve(mut self, listener: TcpListener) -> io::Result<()> {
        self.abort_on_crash = true;
        let addr = listener.local_addr()?;
        eprintln!("daemon: listening on {addr}");
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            match self.handle_conn(stream) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    // A misbehaving client never takes the daemon down.
                    s2_obs::event!("daemon.conn_error", e.raw_os_error().unwrap_or(0) as usize);
                }
            }
        }
        self.checkpoint_now();
        self.shutdown();
        Ok(())
    }

    /// Handles one admin connection (both dialects); `Ok(false)` means
    /// a shutdown was requested.
    fn handle_conn(&mut self, stream: TcpStream) -> io::Result<bool> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        loop {
            let first = {
                let buf = reader.fill_buf()?;
                if buf.is_empty() {
                    return Ok(true);
                }
                buf[0]
            };
            // Text dialect: any printable first byte starts a command
            // line (`echo status | nc`); envelope kinds are < 0x20.
            let (req, text) = if first >= 0x20 {
                let mut line = String::new();
                reader.read_line(&mut line)?;
                if line.trim().is_empty() {
                    continue;
                }
                match parse_text_command(line.trim()) {
                    Ok(r) => (r, true),
                    Err(e) => {
                        let resp = AdminResponse::Error(e);
                        writeln!(writer, "{}", render_text_response(&resp))?;
                        continue;
                    }
                }
            } else {
                (tcp::recv(&mut reader, K_ADMIN_REQUEST, MAX_ADMIN_FRAME)?, false)
            };
            let idx = self.faults.next_admin_index();
            if self.faults.drops_admin_conn(idx) {
                // Injected connection loss: sever without a reply. The
                // delta was not applied — the client must retry.
                s2_obs::event!("daemon.admin_drop", idx as usize);
                return Ok(true);
            }
            let resp = match self.handle(&req) {
                Ok(r) => r,
                // Unreachable in serve mode (crash points abort), kept
                // total so the compiler enforces it stays handled.
                Err(_) => std::process::abort(),
            };
            let shutting_down = matches!(resp, AdminResponse::ShuttingDown);
            if text {
                writeln!(writer, "{}", render_text_response(&resp))?;
            } else {
                tcp::send(&mut writer, K_ADMIN_RESPONSE, &resp)?;
            }
            if shutting_down {
                return Ok(false);
            }
        }
    }

    /// Dispatches one admin request.
    pub fn handle(&mut self, req: &AdminRequest) -> Result<AdminResponse, DaemonCrash> {
        match req {
            AdminRequest::Status => Ok(self.status()),
            AdminRequest::ApplyDelta(delta) => self.apply(delta),
            AdminRequest::Metrics => Ok(self.metrics()),
            AdminRequest::Healthz => Ok(self.healthz()),
            AdminRequest::Shutdown => {
                self.checkpoint_now();
                Ok(AdminResponse::ShuttingDown)
            }
        }
    }

    /// Refreshes the daemon-level gauges in the global registry so
    /// every scrape, snapshot-rendered log line, and healthz reply
    /// sees current values.
    fn refresh_gauges(&self) {
        let reg = Registry::global();
        reg.gauge("daemon.uptime_ms").set(self.start.elapsed().as_millis() as u64);
        reg.gauge("daemon.generation").set(self.committed.generation);
        reg.gauge("daemon.warm_start").set(u64::from(self.warm_start));
        if let Some(t) = self.last_checkpoint_ns.get() {
            reg.gauge("daemon.checkpoint.age_ms")
                .set(s2_obs::time::now_ns().saturating_sub(t) / 1_000_000);
        }
        if self.slo_window.is_empty() {
            return;
        }
        // SLO rolling window: rejection rate and commit-latency
        // quantiles over the last `SLO_WINDOW` deltas (nearest-rank on
        // the sorted exact values — the window is small).
        let total = self.slo_window.len() as u64;
        let rejected = self.slo_window.iter().filter(|(_, committed)| !committed).count() as u64;
        reg.gauge("daemon.slo.rejection_rate_pct").set(rejected * 100 / total);
        let mut commits: Vec<u64> = self
            .slo_window
            .iter()
            .filter(|(_, committed)| *committed)
            .map(|&(ms, _)| ms)
            .collect();
        if commits.is_empty() {
            return;
        }
        commits.sort_unstable();
        let rank = |q: f64| {
            let i = (q * (commits.len() - 1) as f64).round() as usize;
            commits[i.min(commits.len() - 1)]
        };
        reg.gauge("daemon.slo.commit_p50_ms").set(rank(0.5));
        reg.gauge("daemon.slo.commit_p90_ms").set(rank(0.9));
        reg.gauge("daemon.slo.commit_p99_ms").set(rank(0.99));
    }

    /// Records one delta outcome into the SLO window.
    fn record_outcome(&mut self, ms: u64, committed: bool) {
        if self.slo_window.len() == SLO_WINDOW {
            self.slo_window.pop_front();
        }
        self.slo_window.push_back((ms, committed));
    }

    /// The metrics reply: the controller-side registry merged with
    /// fleet-pulled per-worker snapshots. A worker that stops
    /// answering is reported `up: false, stale: true` with its
    /// last-known snapshot — the scrape degrades, it never wedges.
    pub fn metrics(&mut self) -> AdminResponse {
        self.refresh_gauges();
        let scrape = self.fleet.verifier().scrape_metrics();
        let mut workers = Vec::with_capacity(scrape.workers.len());
        for (id, snap) in scrape.workers {
            match snap {
                Some(s) => {
                    self.worker_cache.insert(id, s.clone());
                    workers.push(WorkerMetrics { id, up: true, stale: false, snapshot: Some(s) });
                }
                None => workers.push(WorkerMetrics {
                    id,
                    up: false,
                    stale: true,
                    snapshot: self.worker_cache.get(&id).cloned(),
                }),
            }
        }
        AdminResponse::Metrics { aggregate: scrape.aggregate, workers }
    }

    /// The liveness reply: fleet poll plus daemon vitals. `ok` means
    /// every worker answered — the committed verdict (all-clear or
    /// not) is a property of the *network*, not of daemon health.
    pub fn healthz(&mut self) -> AdminResponse {
        self.refresh_gauges();
        let scrape = self.fleet.verifier().scrape_metrics();
        let workers_total = scrape.workers.len() as u32;
        let workers_up = scrape.workers.iter().filter(|(_, s)| s.is_some()).count() as u32;
        AdminResponse::Healthz {
            ok: workers_total > 0 && workers_up == workers_total,
            generation: self.committed.generation,
            uptime_ms: self.start.elapsed().as_millis() as u64,
            workers_up,
            workers_total,
            checkpoint_age_ms: self
                .last_checkpoint_ns
                .get()
                .map(|t| s2_obs::time::now_ns().saturating_sub(t) / 1_000_000),
        }
    }

    /// The status reply.
    pub fn status(&self) -> AdminResponse {
        AdminResponse::Status {
            generation: self.committed.generation,
            failed_links: (self.baked.len() + self.overlay.len()) as u32,
            all_clear: self.committed.dpv.all_clear(),
            committed: self.committed_count,
            rejected: self.rejected_count,
            warm_start: self.warm_start,
            verdict_hash: self.verdict_hash(),
        }
    }

    /// Applies one delta, verify-then-commit. Never leaves the daemon
    /// wedged: every outcome is `Committed` or `Rejected` (or an
    /// injected [`DaemonCrash`] in test mode).
    pub fn apply(&mut self, delta: &DeltaSpec) -> Result<AdminResponse, DaemonCrash> {
        let _span = s2_obs::span!("daemon.delta");
        let sw = Stopwatch::start();
        let resp = self.apply_inner(delta, &sw)?;
        let reg = Registry::global();
        match &resp {
            AdminResponse::Committed { ms, .. } => {
                self.committed_count += 1;
                self.record_outcome(*ms as u64, true);
                reg.counter("daemon.delta.committed").inc();
                reg.histogram("daemon.delta.ms").record(*ms as u64);
                self.refresh_gauges();
                // One stderr line per commit, read from the registry the
                // metrics endpoint serves, so the two never disagree.
                // Keys stay grep-compatible (`dpv.scoped.runs=N`) for
                // operators and CI.
                eprintln!("{}", self.commit_log(*ms));
            }
            AdminResponse::Rejected { reason, attempts } => {
                self.rejected_count += 1;
                self.record_outcome(sw.elapsed().as_millis() as u64, false);
                reg.counter("daemon.delta.rejected").inc();
                let class = rejection_class(reason, *attempts);
                reg.counter(&format!("daemon.delta.rejected.{class}")).inc();
                self.refresh_gauges();
                s2_obs::event!("daemon.delta_rejected", reason.len());
            }
            _ => {}
        }
        Ok(resp)
    }

    /// Renders the per-commit stderr line from the global registry —
    /// one source of truth with the scrape endpoint. Reads the four
    /// counters alone, not a snapshot of every metric.
    fn commit_log(&self, ms: f64) -> String {
        let reg = Registry::global();
        let mut line = format!(
            "daemon: delta committed gen={} ms={ms:.1}",
            self.committed.generation
        );
        for key in [
            "dpv.scoped.runs",
            "dpv.scoped.skipped_sources",
            "dpv.scoped.splice_ops",
            "dpv.scoped.fallback_full",
        ] {
            let _ = write!(line, " {key}={}", reg.counter_value(key));
        }
        line
    }

    fn apply_inner(
        &mut self,
        delta: &DeltaSpec,
        sw: &Stopwatch,
    ) -> Result<AdminResponse, DaemonCrash> {
        let vsw = Stopwatch::start();
        let validated = self.validate(delta);
        record_ms("daemon.delta.validate_ms", &vsw);
        let action = match validated {
            Ok(a) => a,
            Err(reason) => return Ok(AdminResponse::Rejected { reason, attempts: 0 }),
        };
        self.crash(DaemonPhase::Validate)?;
        match action {
            Action::Warm(overlay) => self.apply_warm(overlay, sw),
            Action::Escalate(configs, baked) => self.apply_escalated(configs, baked, sw, 0, None),
        }
    }

    /// Resolves a delta against the model without touching the fleet.
    fn validate(&self, delta: &DeltaSpec) -> Result<Action, String> {
        let topo = &self.cfg.topology;
        let node = |name: &str| {
            topo.node_by_name(name)
                .ok_or_else(|| format!("unknown device {name:?}"))
        };
        let link_between = |a: NodeId, b: NodeId| -> Option<LinkKey> {
            topo.links()
                .iter()
                .map(s2_shard::impact::link_key)
                .find(|k| node_pair(k) == if a <= b { (a, b) } else { (b, a) })
        };
        match delta {
            DeltaSpec::LinkDown { a, b } => {
                let (na, nb) = (node(a)?, node(b)?);
                let key = link_between(na, nb)
                    .ok_or_else(|| format!("no link between {a:?} and {b:?}"))?;
                if self.overlay.contains(&key) || self.baked.contains(&node_pair(&key)) {
                    return Err(format!("link {a} <-> {b} is already down"));
                }
                let mut overlay = self.overlay.clone();
                overlay.push(key);
                if self.fleet.ospf_gate(&scenario_ports(&[key])).is_some() {
                    // Warm replay cannot re-run the IGP; bake the link
                    // into a rebuilt model instead.
                    let baked = failed_pairs(&self.baked, &overlay);
                    return Ok(Action::Escalate(self.cfg.configs.clone(), baked));
                }
                Ok(Action::Warm(overlay))
            }
            DeltaSpec::LinkUp { a, b } => {
                let (na, nb) = (node(a)?, node(b)?);
                let key = link_between(na, nb)
                    .ok_or_else(|| format!("no link between {a:?} and {b:?}"))?;
                let pair = node_pair(&key);
                if self.overlay.contains(&key) {
                    let overlay: Vec<LinkKey> =
                        self.overlay.iter().filter(|&&k| k != key).copied().collect();
                    Ok(Action::Warm(overlay))
                } else if self.baked.contains(&pair) {
                    // The link is failed in the model itself; restoring
                    // it needs a rebuild (overlay folds in alongside).
                    let mut baked = failed_pairs(&self.baked, &self.overlay);
                    baked.retain(|&p| p != pair);
                    Ok(Action::Escalate(self.cfg.configs.clone(), baked))
                } else {
                    Err(format!("link {a} <-> {b} is not down"))
                }
            }
            DeltaSpec::RouteMapEdit { device, config } => {
                let n = node(device)?;
                let parsed = s2_net::vendor::parse(config)
                    .map_err(|e| format!("route-map-edit config: {e}"))?;
                if parsed.hostname != *device {
                    return Err(format!(
                        "config is for {:?}, not {device:?}",
                        parsed.hostname
                    ));
                }
                let mut configs = self.cfg.configs.clone();
                configs[n.index()] = parsed;
                Ok(Action::Escalate(configs, failed_pairs(&self.baked, &self.overlay)))
            }
            DeltaSpec::PrefixAdd { device, prefix } | DeltaSpec::PrefixWithdraw { device, prefix } => {
                let n = node(device)?;
                let mut configs = self.cfg.configs.clone();
                let bgp = configs[n.index()]
                    .bgp
                    .as_mut()
                    .ok_or_else(|| format!("{device} has no BGP process"))?;
                let present = bgp.networks.iter().any(|net| net.prefix == *prefix);
                if matches!(delta, DeltaSpec::PrefixAdd { .. }) {
                    if present {
                        return Err(format!("{device} already originates {prefix}"));
                    }
                    bgp.networks.push(Network { prefix: *prefix });
                } else {
                    if !present {
                        return Err(format!("{device} does not originate {prefix}"));
                    }
                    bgp.networks.retain(|net| net.prefix != *prefix);
                }
                Ok(Action::Escalate(configs, failed_pairs(&self.baked, &self.overlay)))
            }
        }
    }

    /// Warm path: re-verify the new overlay as a fenced scenario on the
    /// serving fleet; escalate to a rebuild when the fence gives up.
    fn apply_warm(
        &mut self,
        new_overlay: Vec<LinkKey>,
        sw: &Stopwatch,
    ) -> Result<AdminResponse, DaemonCrash> {
        self.crash(DaemonPhase::Stage)?;
        let budget = FenceBudget {
            deadline: self.cfg.delta_deadline,
            max_retries: self.cfg.max_retries,
            backoff: self.cfg.retry_backoff,
            lost_dump: "daemon-delta-worker-lost",
        };
        // The whole new overlay: from the committed checkpoint it
        // changes the delta's link alone, and from the warm-up one (after
        // a re-warm) it replays every failed link.
        let ports = scenario_ports(&new_overlay);
        let (faults, abort) = (&self.faults, self.abort_on_crash);
        let mut crashed = None;
        let mut crash = |phase| {
            crash_point(faults, abort, phase).map_err(|c| {
                crashed = Some(c);
                ScenarioFail::Crash
            })
        };
        // On success the fleet is left in the scenario state it just
        // verified — the state being committed, which the commit makes
        // the fleet's checkpoint.
        let outcome = self.fleet.fenced(&budget, |fleet, deadline| {
            let stage_sw = Stopwatch::start();
            fleet.begin(&ports)?;
            crash(DaemonPhase::Replay)?;
            ScenarioFail::if_expired(deadline)?;
            fleet.reconverge()?;
            ScenarioFail::if_expired(deadline)?;
            record_ms("daemon.delta.stage_ms", &stage_sw);
            crash(DaemonPhase::Dpv)?;
            let dpv_sw = Stopwatch::start();
            let pass = fleet.check(PatchStage::Reconverged, &ports);
            record_ms("daemon.delta.dpv_ms", &dpv_sw);
            pass
        });
        if let Some(crash) = crashed {
            return Err(crash);
        }
        match outcome {
            Ok(pass) => self.commit(sw, false, |daemon, generation| {
                if let Err(e) = daemon.fleet.commit(&pass) {
                    // The delta stands verified; the next one finds the
                    // fleet broken and recovers it inside its fence.
                    s2_obs::recorder::dump("daemon-commit-recovery-failed");
                    s2_obs::event!("daemon.commit_error", e.to_string().len());
                }
                daemon.overlay = new_overlay;
                Committed { generation, rib: pass.rib, dpv: pass.dpv }
            }),
            Err(fail) => {
                // The warm path is out of budget; a full re-verification
                // on a fresh fleet is the last resort before rejecting.
                s2_obs::recorder::dump("daemon-delta-escalate");
                self.apply_escalated(
                    self.cfg.configs.clone(),
                    failed_pairs(&self.baked, &new_overlay),
                    sw,
                    fail.attempts,
                    Some(fail.reason),
                )
            }
        }
    }

    /// Escalated path: blue/green. Build the candidate snapshot, spawn
    /// a fresh fleet with the failed links baked into the model, warm
    /// it (which verifies it fully), and only then swap it in — the
    /// serving fleet and the committed state are untouched until the
    /// swap.
    fn apply_escalated(
        &mut self,
        configs: Vec<DeviceConfig>,
        baked: Vec<(NodeId, NodeId)>,
        sw: &Stopwatch,
        prior_attempts: usize,
        warm_reason: Option<String>,
    ) -> Result<AdminResponse, DaemonCrash> {
        let _span = s2_obs::span!("daemon.escalate");
        self.crash(DaemonPhase::Stage)?;
        let attempts = (prior_attempts + 1) as u32;
        let reject = |reason: String| {
            let reason = match &warm_reason {
                Some(w) => format!("{w}; escalation failed: {reason}"),
                None => reason,
            };
            AdminResponse::Rejected { reason, attempts }
        };
        let stage_sw = Stopwatch::start();
        let model = match NetworkModel::build(self.cfg.topology.clone(), configs.clone()) {
            Ok(m) => m,
            Err(e) => return Ok(reject(format!("model: {e}"))),
        };
        // The candidate fleet gets a clean fault plan (the chaos plan
        // already played out on the serving fleet) plus the baked links.
        let mut opts = self.cfg.opts.clone();
        opts.runtime.faults = baked.iter().fold(FaultPlan::new(), |p, &(a, b)| p.fail_link(a, b));
        self.crash(DaemonPhase::Replay)?;
        let verifier = match S2Verifier::new(model, &opts) {
            Ok(v) => v,
            Err(e) => return Ok(reject(format!("spawn: {e}"))),
        };
        record_ms("daemon.delta.stage_ms", &stage_sw);
        self.crash(DaemonPhase::Dpv)?;
        let dpv_sw = Stopwatch::start();
        match WarmFleet::warm_up(verifier, &self.cfg.request) {
            Ok(fleet) => {
                record_ms("daemon.delta.dpv_ms", &dpv_sw);
                self.commit(sw, true, |daemon, generation| {
                    let old = std::mem::replace(&mut daemon.fleet, fleet);
                    old.into_verifier().shutdown();
                    daemon.cfg.configs = configs;
                    daemon.snapshot_hash = snapshot_hash(&daemon.cfg.topology, &daemon.cfg.configs);
                    daemon.baked = baked;
                    daemon.overlay = Vec::new();
                    let baseline = daemon.fleet.baseline();
                    Committed { generation, rib: baseline.rib.clone(), dpv: baseline.dpv.clone() }
                })
            }
            Err((verifier, e)) => {
                verifier.shutdown();
                s2_obs::recorder::dump("daemon-escalation-failed");
                Ok(reject(format!("rebuild verify: {e}")))
            }
        }
    }

    /// The commit tail of every delta: once the `Commit` crash point
    /// has passed, `install` moves the serving state onto the verified
    /// candidate (the new overlay, or a whole rebuilt fleet) and
    /// returns it as the next generation's committed state, which is
    /// then persisted.
    fn commit(
        &mut self,
        sw: &Stopwatch,
        escalated: bool,
        install: impl FnOnce(&mut Self, u64) -> Committed,
    ) -> Result<AdminResponse, DaemonCrash> {
        let commit_sw = Stopwatch::start();
        self.crash(DaemonPhase::Commit)?;
        let generation = self.committed.generation + 1;
        let committed = install(self, generation);
        // A warm commit shares every unpatched row with the committed
        // RIB it patched, so this compares the patched rows alone.
        let changed = self.committed.rib.changed_nodes(&committed.rib).len() as u32;
        let all_clear = committed.dpv.all_clear();
        self.committed = committed;
        record_ms("daemon.delta.commit_ms", &commit_sw);
        self.crash(DaemonPhase::Checkpoint)?;
        let ckpt_sw = Stopwatch::start();
        self.checkpoint_now();
        record_ms("daemon.delta.checkpoint_ms", &ckpt_sw);
        Ok(AdminResponse::Committed {
            generation,
            ms: sw.elapsed().as_secs_f64() * 1000.0,
            changed_nodes: changed,
            escalated,
            all_clear,
        })
    }

    /// Journals the committed state (best effort — a failed write is
    /// recorded, not fatal: the daemon keeps serving and the previous
    /// checkpoint file, if any, stays valid thanks to temp-then-rename).
    fn checkpoint_now(&self) {
        let Some(path) = &self.cfg.checkpoint else { return };
        let ckpt = WarmCheckpoint {
            snapshot_hash: self.snapshot_hash,
            generation: self.committed.generation,
            failed_links: failed_pairs(&self.baked, &self.overlay),
        };
        match admin::write_checkpoint(path, &ckpt, &self.faults) {
            Ok(()) => self.last_checkpoint_ns.set(Some(s2_obs::time::now_ns())),
            Err(e) => {
                s2_obs::recorder::dump("daemon-checkpoint-write-failed");
                s2_obs::event!("daemon.checkpoint_error", e.raw_os_error().unwrap_or(0) as usize);
            }
        }
    }

    fn crash(&self, phase: DaemonPhase) -> Result<(), DaemonCrash> {
        crash_point(&self.faults, self.abort_on_crash, phase)
    }
}

/// A binary-protocol admin client: connect, send one request, read the
/// reply. Used by `s2 admin` and tests.
pub fn admin_roundtrip(addr: &str, req: &AdminRequest) -> io::Result<AdminResponse> {
    let mut stream = TcpStream::connect(addr)?;
    tcp::send(&mut stream, K_ADMIN_REQUEST, req)?;
    tcp::recv(&mut stream, K_ADMIN_RESPONSE, MAX_ADMIN_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::config::Vendor;
    use s2_net::topology::InterfaceId;

    #[test]
    fn snapshot_hash_is_stable_and_config_sensitive() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let _ = (a, b);
        let mk = |host: &str| DeviceConfig::new(host, Vendor::A);
        let configs = vec![mk("a"), mk("b")];
        let h1 = snapshot_hash(&topo, &configs);
        let h2 = snapshot_hash(&topo, &configs);
        assert_eq!(h1, h2);
        let mut edited = configs.clone();
        edited[0].hostname = "a2".into();
        assert_ne!(h1, snapshot_hash(&topo, &edited));
    }

    #[test]
    fn node_pair_is_orientation_invariant() {
        let k1: LinkKey = ((NodeId(3), InterfaceId(0)), (NodeId(1), InterfaceId(2)));
        let k2: LinkKey = ((NodeId(1), InterfaceId(2)), (NodeId(3), InterfaceId(0)));
        assert_eq!(node_pair(&k1), (NodeId(1), NodeId(3)));
        assert_eq!(node_pair(&k1), node_pair(&k2));
    }
}
