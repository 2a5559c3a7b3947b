//! The controller: spawns the worker fleet and runs the two orchestrators
//! (§3.2) — the control-plane orchestrator (CPO) driving Algorithm 1 round
//! by round and shard by shard, and the data-plane orchestrator (DPO)
//! driving distributed symbolic forwarding to quiescence.
//!
//! The controller is also the fault-tolerance authority. Its `RibStore`
//! doubles as a shard-granular checkpoint: OSPF results, the base RIB, and
//! every *completed* shard's BGP RIB (plus its observed dependencies) are
//! flushed to the controller, so losing a worker costs at most an OSPF
//! replay plus the one in-flight shard. Worker loss is detected two ways —
//! a disconnected channel (crash) or a barrier deadline (hang) — and
//! healed by [`Cluster::recover`]: quiesce the fleet with a nonce ping,
//! bump the fabric epoch so zombie frames are discarded, respawn the dead
//! workers on fresh inboxes, and flush everyone into the new epoch.
//! Workers that exceed their memory budget trigger adaptive degradation:
//! the offending shard is bisected along dependency-component boundaries
//! and retried, so the run completes (more slowly) instead of aborting.

use crate::faults::{FaultPlan, FaultState};
use crate::memstats::CacheStats;
use crate::metrics::{self, RunMetrics};
use crate::remote;
use crate::scope::{scope_sources, ScopeIndex};
use crate::sidecar::{Sidecar, SidecarNet, TrafficSnapshot};
use crate::transport::{Inbox, TransportKind};
use crate::worker::{Command, PatchStage, Reply, Worker};
use s2_bdd::serialize as bdd_io;
use s2_dataplane::{properties, FinalKind, PacketSpace};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use s2_routing::{NetworkModel, RibRow, RibSnapshot, RibStore};
use s2_shard::impact::Components;
use s2_shard::ShardPlan;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use s2_obs::{lock, Deadline, MetricsSnapshot, Stopwatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Failures of a distributed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The fix point was not reached: the round budget ran out, or a
    /// quiet round's frames stayed in flight past the barrier timeout.
    NotConverged {
        /// Protocol that failed to converge.
        protocol: &'static str,
        /// Rounds run before giving up.
        rounds: usize,
    },
    /// A worker exceeded its memory budget on a shard that adaptive
    /// degradation could not (or was not allowed to) split further.
    OutOfMemory {
        /// The worker that overflowed.
        worker: u32,
        /// Its budget in bytes.
        budget: usize,
        /// Observed usage in bytes.
        observed: usize,
    },
    /// A worker crashed (channel disconnect) or hung (barrier deadline)
    /// and the recovery budget was exhausted.
    WorkerLost {
        /// The worker that was lost.
        worker: u32,
        /// The barrier phase during which the loss was detected.
        during: &'static str,
    },
    /// A worker answered a barrier with the wrong reply variant — a
    /// controller/worker protocol bug, surfaced instead of panicking.
    ProtocolViolation {
        /// The reply the barrier expected.
        expected: &'static str,
        /// The reply (or payload state) actually received.
        got: String,
    },
    /// Cross-worker frames were rejected (checksum / length / decode) and
    /// the configuration demands that be fatal, or replays could not
    /// compensate for the losses.
    Wire {
        /// Rejected or lost frame count.
        errors: u64,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NotConverged { protocol, rounds } => {
                write!(f, "{protocol} did not converge after {rounds} rounds")
            }
            RuntimeError::OutOfMemory {
                worker,
                budget,
                observed,
            } => write!(
                f,
                "worker {worker} out of memory ({observed} bytes used, budget {budget})"
            ),
            RuntimeError::WorkerLost { worker, during } => {
                write!(f, "worker {worker} lost during {during}")
            }
            RuntimeError::ProtocolViolation { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            RuntimeError::Wire { errors } => {
                write!(f, "{errors} cross-worker frames rejected or lost")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Fault-tolerance and transport configuration of a cluster.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Per-worker memory budget in bytes (`None` = unbounded).
    pub memory_budget: Option<usize>,
    /// How long a barrier waits for each worker before declaring it hung.
    pub barrier_timeout: Duration,
    /// How many worker-loss recoveries a single run may consume.
    pub max_recoveries: usize,
    /// How many OOM-triggered shard bisections a run may consume.
    pub max_oom_splits: usize,
    /// Whether any rejected cross-worker frame aborts the run with
    /// [`RuntimeError::Wire`] instead of being healed by resync/replay.
    pub fatal_wire_errors: bool,
    /// Deterministic fault-injection schedule (chaos testing).
    pub faults: FaultPlan,
    /// Data-fabric backend (in-process channels by default).
    pub transport: TransportKind,
    /// Threads each worker uses to evaluate independent switches within
    /// a round (1 = sequential; results are identical at any width).
    pub intra_worker_threads: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            memory_budget: None,
            barrier_timeout: Duration::from_secs(60),
            max_recoveries: 8,
            max_oom_splits: 64,
            fatal_wire_errors: false,
            faults: FaultPlan::default(),
            transport: TransportKind::default(),
            intra_worker_threads: 1,
        }
    }
}

/// Cluster-wide run options.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Fix-point round budget per protocol per shard.
    pub max_rounds: usize,
    /// TTL for symbolic forwarding.
    pub max_hops: u16,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            max_rounds: s2_routing::DEFAULT_MAX_ROUNDS,
            max_hops: 0, // engine default
        }
    }
}

/// What a DPV pass checks — the paper's `(H, V_s, V_d, V_t)` query
/// (§4.4) in the form the worker commands ship it. Built once per
/// request and shared by reference: every pass and every barrier clones
/// the `Arc`s, never the vectors behind them.
#[derive(Debug, Clone)]
pub struct DpvQuery {
    /// Injection nodes (`V_s`).
    pub sources: Arc<Vec<NodeId>>,
    /// Per destination node, the prefixes that must arrive from every
    /// source (`V_d`).
    pub expected: Arc<Vec<(NodeId, Vec<Prefix>)>>,
    /// The injected destination header space (`H`).
    pub dst_space: Prefix,
    /// Transit nodes (`V_t`) mapped to their metadata bits `0..n`.
    pub waypoints: Arc<BTreeMap<NodeId, u16>>,
}

/// Control-plane statistics of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct CpRunStats {
    /// OSPF rounds (of the last, successful attempt).
    pub ospf_rounds: usize,
    /// Total BGP rounds across shards, attempts included.
    pub bgp_rounds: usize,
    /// Shards executed (after any OOM bisection).
    pub shards: usize,
    /// Per-worker peak memory (bytes, modelled).
    pub per_worker_peak: Vec<usize>,
    /// Cross-worker messages sent so far (cumulative for the cluster).
    pub messages: u64,
    /// Cross-worker bytes sent so far.
    pub bytes: u64,
    /// Wall-clock time of the control-plane phase.
    pub elapsed: Duration,
    /// Worker-loss recoveries performed during the run.
    pub recoveries: usize,
    /// OOM-triggered shard bisections performed.
    pub oom_splits: usize,
    /// Shards that had to be re-run (after a recovery or a split).
    pub shard_retries: usize,
    /// BGP adj-out resyncs forced by lost or delayed frames.
    pub resyncs: usize,
    /// Cross-worker frames rejected at the receiver.
    pub wire_errors: u64,
    /// Full transport counters (reconnects, heartbeats, …),
    /// aggregated across processes in multi-process mode.
    pub traffic: TrafficSnapshot,
    /// Largest BDD node-table high-water mark across workers (zero
    /// during the control plane, which runs without a manager).
    pub bdd_peak_nodes: usize,
    /// BDD unique-table and computed-cache counters, merged across
    /// workers.
    pub bdd_cache: CacheStats,
}

impl CpRunStats {
    /// The maximum per-worker peak — the paper's "per-worker peak memory
    /// usage" metric.
    pub fn max_worker_peak(&self) -> usize {
        self.per_worker_peak.iter().copied().max().unwrap_or(0)
    }
}

/// Data-plane statistics and property outcomes of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct DpvRunStats {
    /// `(src, dst)` pairs whose expected prefixes fully arrived.
    pub reachable_pairs: usize,
    /// Pairs with missing reachability.
    pub unreachable_pairs: Vec<(NodeId, NodeId)>,
    /// `(src, dst, transit)` waypoint violations.
    pub waypoint_violations: Vec<(NodeId, NodeId, NodeId)>,
    /// `(worker, source)` pairs with a non-empty `Loop` verdict union:
    /// a count over canonical sets, so it repeats exactly run to run.
    pub loops: usize,
    /// The same count for `Blackhole`.
    pub blackholes: usize,
    /// Sources with multipath-consistency violations.
    pub multipath_violations: Vec<NodeId>,
    /// Barrier rounds until quiescence.
    pub forward_rounds: usize,
    /// Packets processed across all workers.
    pub packets_processed: usize,
    /// Packets serialized across workers.
    pub remote_packets: usize,
    /// Per-worker peak memory after DPV.
    pub per_worker_peak: Vec<usize>,
    /// Time compiling predicates.
    pub pred_time: Duration,
    /// Time forwarding.
    pub fwd_time: Duration,
    /// Worker-loss recoveries performed during DPV.
    pub recoveries: usize,
    /// Whole-phase replays (after a recovery or lost frames).
    pub replays: usize,
    /// Cross-worker frames rejected at the receiver.
    pub wire_errors: u64,
    /// Full transport counters (reconnects, heartbeats, …),
    /// aggregated across processes in multi-process mode.
    pub traffic: TrafficSnapshot,
    /// Largest BDD node-table high-water mark across workers.
    pub bdd_peak_nodes: usize,
    /// BDD unique-table and computed-cache counters, merged across
    /// workers.
    pub bdd_cache: CacheStats,
    /// Serialized per-(source, kind) final BDD sets exactly as they
    /// crossed the wire, sorted — the raw verdict material, kept so
    /// determinism tests can assert byte-identity across intra-worker
    /// thread widths.
    pub verdict_sets: Vec<(NodeId, FinalKind, Vec<u8>)>,
    /// Destination-scoping accounting of a scenario pass (`None` on
    /// full-space passes and on scenario passes run before a
    /// [`Cluster::scenario_checkpoint`] stored a baseline to scope
    /// against).
    pub scoped: Option<DpvScopedStats>,
}

impl DpvRunStats {
    /// Whether every requested property held: full reachability, no
    /// loops, no waypoint or multipath violations. Blackholes alone are
    /// not a violation: the injected space is usually wider than what
    /// the network routes.
    pub fn all_clear(&self) -> bool {
        self.unreachable_pairs.is_empty()
            && self.loops == 0
            && self.waypoint_violations.is_empty()
            && self.multipath_violations.is_empty()
    }
}

/// How much packet space a destination-scoped scenario pass actually
/// re-verified, and how the full-space verdicts were reassembled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpvScopedStats {
    /// Distinct changed destination prefixes (after DPDG closure).
    pub changed_prefixes: usize,
    /// Fraction of `dst_space` addresses covered by the changed
    /// prefixes (interval-merged, so overlaps count once).
    pub changed_dst_fraction: f64,
    /// Sources whose scope is empty — provably unperturbed, skipped
    /// entirely (their baseline verdicts pass through the splice).
    pub skipped_sources: usize,
    /// Sources actually injected (over their scoped space only).
    pub injected_sources: usize,
    /// Worker-side `(old ∧ ¬changed) ∨ recomputed` splice operations.
    pub splice_ops: u64,
    /// The changed space covered (essentially) all of `dst_space`, so
    /// the pass fell back to a full-space drive with no splicing.
    pub fallback_full: bool,
}

/// A lenient fleet metrics collection (see [`Cluster::scrape_metrics`]):
/// what the telemetry plane's scrape endpoint serves from.
#[derive(Debug, Default)]
pub struct FleetScrape {
    /// The answered worker snapshots merged with the cluster traffic
    /// counters and the process-global registry (folded exactly once).
    pub aggregate: MetricsSnapshot,
    /// Per-worker snapshots, indexed by worker id; `None` when the
    /// worker did not answer (dead, hung, or past the scrape deadline).
    pub workers: Vec<(u32, Option<MetricsSnapshot>)>,
}

struct WorkerHandle {
    cmd: Sender<Command>,
    reply: Receiver<Reply>,
}

/// One sample of the transport state feeding a convergence decision.
#[derive(Debug, Clone, Copy, Default)]
struct NetProbe {
    in_flight: u64,
    disturbances: u64,
    losses: u64,
}

/// One protocol's export/apply round, as [`Cluster::run_rounds`] drives
/// it. The barrier names are what `WorkerLost.during` and flight-recorder
/// dumps print.
struct RoundLoop {
    /// The protocol a [`RuntimeError::NotConverged`] names.
    protocol: &'static str,
    probe: &'static str,
    export: (&'static str, fn() -> Command),
    apply: (&'static str, fn() -> Command),
    /// The barrier of the `BgpResync` that a lost frame or a released
    /// delayed one forces; `None` for OSPF, which re-exports its full
    /// table every round and so heals losses without one.
    resync: Option<&'static str>,
}

const OSPF_ROUNDS: RoundLoop = RoundLoop {
    protocol: "ospf",
    probe: "ospf-probe",
    export: ("ospf-export", || Command::OspfExport),
    apply: ("ospf-apply", || Command::OspfApply),
    resync: None,
};

const BGP_ROUNDS: RoundLoop = RoundLoop {
    protocol: "bgp",
    probe: "bgp-probe",
    export: ("bgp-export", || Command::BgpExport),
    apply: ("bgp-apply", || Command::BgpApply),
    resync: Some("bgp-resync"),
};

const WARM_ROUNDS: RoundLoop = RoundLoop {
    protocol: "bgp-warm",
    probe: "warm-probe",
    export: ("warm-export", || Command::BgpExport),
    apply: ("warm-apply", || Command::BgpApply),
    resync: Some("warm-resync"),
};

/// Mutable fleet state: live handles plus every thread ever spawned
/// (replaced workers move to `detached` and are joined at shutdown).
struct ClusterState {
    handles: Vec<WorkerHandle>,
    threads: Vec<Option<std::thread::JoinHandle<()>>>,
    detached: Vec<std::thread::JoinHandle<()>>,
}

/// Controller-side checkpoint of an in-progress control-plane run.
///
/// Everything needed to resume after a worker loss without recomputing
/// completed work: the persistent RIB store, which shards already ran
/// (and their observed dependencies), and which are still queued.
#[derive(Default)]
struct Checkpoint {
    store: RibStore,
    base_done: bool,
    queue: VecDeque<BTreeSet<Prefix>>,
    executed: Vec<BTreeSet<Prefix>>,
    observed_deps: Vec<(Prefix, Prefix)>,
    ospf_rounds: usize,
    bgp_rounds: usize,
    resyncs: usize,
    oom_splits: usize,
    shard_retries: usize,
    recoveries: usize,
}

impl Checkpoint {
    fn new(nodes: usize, plan: &ShardPlan, seed_deps: &[(Prefix, Prefix)]) -> Checkpoint {
        Checkpoint {
            store: RibStore::new(nodes),
            queue: plan.shards.iter().cloned().collect(),
            observed_deps: seed_deps.to_vec(),
            ..Checkpoint::default()
        }
    }
}

/// A running worker fleet plus the controller-side orchestration.
pub struct Cluster {
    model: Arc<NetworkModel>,
    net: SidecarNet,
    node_owner: Vec<u32>,
    config: RuntimeConfig,
    faults: Arc<FaultState>,
    state: Mutex<ClusterState>,
    nonce: AtomicU64,
    /// Whether workers live in other processes (commands travel over the
    /// control sockets through per-worker proxy threads). Remote workers
    /// cannot be respawned, so recovery is unsupported.
    remote: bool,
    /// The warm baseline scenario passes patch and scope against: the
    /// checkpointed RIB, its reverse forwarding graph, indexed by
    /// prefix, and the components of the prefix dependency graph
    /// (changed-set closure), indexed by prefix. `None` until
    /// [`Cluster::scenario_checkpoint`] stores one; a scenario pass
    /// before it is a protocol violation.
    scenario_base: Mutex<Option<ScenarioBase>>,
}

/// See [`Cluster::scenario_base`].
struct ScenarioBase {
    rib: Arc<RibSnapshot>,
    index: ScopeIndex,
    components: Components,
}

/// A scenario DPV pass: its outcome and the RIB it verified.
#[derive(Debug)]
pub struct ScenarioPass {
    /// The pass's DPV outcome.
    pub dpv: DpvRunStats,
    /// The scenario RIB: the checkpointed baseline with the rows the
    /// workers patched (those that differ from it) in place of its own;
    /// every other row is the baseline's.
    pub rib: Arc<RibSnapshot>,
}

impl Cluster {
    /// Spawns `num_workers` workers hosting the nodes given by
    /// `node_owner` (node index → worker), each with an optional memory
    /// budget. Uses the default [`RuntimeConfig`] otherwise.
    pub fn new(
        model: Arc<NetworkModel>,
        node_owner: Vec<u32>,
        num_workers: u32,
        memory_budget: Option<usize>,
    ) -> Cluster {
        Cluster::with_config(
            model,
            node_owner,
            num_workers,
            RuntimeConfig {
                memory_budget,
                ..RuntimeConfig::default()
            },
        )
    }

    /// [`Cluster::new`] with full fault-tolerance configuration.
    pub fn with_config(
        model: Arc<NetworkModel>,
        node_owner: Vec<u32>,
        num_workers: u32,
        config: RuntimeConfig,
    ) -> Cluster {
        assert_eq!(node_owner.len(), model.topology.node_count());
        let faults = Arc::new(FaultState::new(config.faults.clone()));
        let (net, inboxes) = SidecarNet::build_with_transport(
            node_owner.clone(),
            num_workers,
            faults.clone(),
            config.transport.clone(),
        )
        .expect("cluster transport failed to bind (loopback listeners)");
        let mut handles = Vec::new();
        let mut threads = Vec::new();
        for (w, inbox) in inboxes.into_iter().enumerate() {
            let (handle, thread) = Self::spawn_worker(
                &model,
                &node_owner,
                &net,
                &faults,
                config.memory_budget,
                config.intra_worker_threads,
                w as u32,
                inbox,
            );
            handles.push(handle);
            threads.push(Some(thread));
        }
        Cluster {
            model,
            net,
            node_owner,
            config,
            faults,
            state: Mutex::new(ClusterState {
                handles,
                threads,
                detached: Vec::new(),
            }),
            nonce: AtomicU64::new(0),
            remote: false,
            scenario_base: Mutex::new(None),
        }
    }

    /// Builds a cluster whose workers are separate processes: waits on
    /// `listener` until `num_workers` worker processes register, sends
    /// each its identity and the peer data-fabric addresses, and runs one
    /// proxy thread per worker translating commands and replies to
    /// control-socket envelopes. The orchestration code above notices no
    /// difference; worker loss is fatal (a remote process cannot be
    /// respawned from here).
    pub fn connect_remote(
        model: Arc<NetworkModel>,
        node_owner: Vec<u32>,
        num_workers: u32,
        listener: std::net::TcpListener,
        config: RuntimeConfig,
    ) -> std::io::Result<Cluster> {
        assert_eq!(node_owner.len(), model.topology.node_count());
        let faults = Arc::new(FaultState::new(FaultPlan::default()));
        // The controller does not participate in the data fabric; this
        // net only carries the epoch and a zeroed local stats block.
        let (net, _inboxes) = SidecarNet::build(node_owner.clone(), num_workers);
        let streams = remote::accept_fleet(
            &listener,
            num_workers,
            &node_owner,
            config.memory_budget,
            config.intra_worker_threads as u32,
        )?;
        let mut handles = Vec::new();
        let mut threads = Vec::new();
        for (w, stream) in streams.into_iter().enumerate() {
            let (cmd, reply, thread) = remote::spawn_proxy(w as u32, stream)?;
            handles.push(WorkerHandle { cmd, reply });
            threads.push(Some(thread));
        }
        Ok(Cluster {
            model,
            net,
            node_owner,
            config,
            faults,
            state: Mutex::new(ClusterState {
                handles,
                threads,
                detached: Vec::new(),
            }),
            nonce: AtomicU64::new(0),
            remote: true,
            scenario_base: Mutex::new(None),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_worker(
        model: &Arc<NetworkModel>,
        node_owner: &[u32],
        net: &SidecarNet,
        faults: &Arc<FaultState>,
        memory_budget: Option<usize>,
        intra_worker_threads: usize,
        w: u32,
        inbox: Inbox,
    ) -> (WorkerHandle, std::thread::JoinHandle<()>) {
        let (cmd_tx, cmd_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let local_nodes: Vec<NodeId> = node_owner
            .iter()
            .enumerate()
            .filter(|(_, &o)| o == w)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let sidecar = Sidecar::new(w, net.clone(), inbox);
        let model = model.clone();
        let faults = faults.clone();
        let thread = std::thread::Builder::new()
            .name(format!("s2-worker-{w}"))
            .spawn(move || {
                // Lane 0 is the controller; worker `w` traces on lane
                // `w + 1` (see `s2_obs::trace::set_lane`).
                s2_obs::trace::set_lane((w as u16).saturating_add(1));
                Worker::with_faults(
                    sidecar,
                    model,
                    local_nodes,
                    memory_budget,
                    faults,
                    intra_worker_threads,
                )
                .run(cmd_rx, reply_tx);
            })
            .expect("spawn worker thread");
        (
            WorkerHandle {
                cmd: cmd_tx,
                reply: reply_rx,
            },
            thread,
        )
    }

    /// The shared traffic counters (disturbance and error accounting).
    pub fn net_stats(&self) -> &crate::sidecar::TrafficStats {
        self.net.stats()
    }

    fn reply_kind(r: &Reply) -> &'static str {
        match r {
            Reply::Ok => "Ok",
            Reply::Changed(_) => "Changed",
            Reply::Rib(_) => "Rib",
            Reply::Prefixes { .. } => "Prefixes",
            Reply::Deps(_) => "Deps",
            Reply::Forwarded { .. } => "Forwarded",
            Reply::Arrivals { .. } => "Arrivals",
            Reply::Finals { .. } => "Finals",
            Reply::OutOfMemory { .. } => "OutOfMemory",
            Reply::Pong(_) => "Pong",
            Reply::Net { .. } => "Net",
            Reply::Metrics(_) => "Metrics",
            Reply::ChangedDst { .. } => "ChangedDst",
            Reply::TraceEvents { .. } => "TraceEvents",
            Reply::Violation(_) => "Violation",
        }
    }

    fn violation(expected: &'static str, got: &Reply) -> RuntimeError {
        let got = match got {
            Reply::Violation(what) => format!("Violation({what})"),
            other => Self::reply_kind(other).to_string(),
        };
        RuntimeError::ProtocolViolation { expected, got }
    }

    /// Broadcasts a command and gathers one reply per worker (a barrier).
    ///
    /// Worker loss shows up here two ways: a closed channel (the worker
    /// crashed — send or recv fails immediately) or a blown deadline (the
    /// worker hangs). An `OutOfMemory` reply does *not* abort collection:
    /// the remaining replies are still gathered so the fleet stays in
    /// lockstep, then the first OOM is returned as the error.
    fn barrier(
        &self,
        during: &'static str,
        make: impl Fn() -> Command,
    ) -> Result<Vec<Reply>, RuntimeError> {
        let _span = s2_obs::span!("barrier");
        // Publish this thread's trace context (the barrier span, itself
        // under whatever orchestration span is open) so worker threads
        // — and, via the proxy's `CtxWrap`, worker processes — parent
        // the spans this command opens under it.
        s2_obs::trace::publish_ctx();
        let state = lock(&self.state);
        for (w, h) in state.handles.iter().enumerate() {
            h.cmd.send(make()).map_err(|_| RuntimeError::WorkerLost {
                worker: w as u32,
                during,
            })?;
        }
        let deadline = Deadline::after(self.config.barrier_timeout);
        let mut replies = Vec::with_capacity(state.handles.len());
        let mut oom = None;
        for (w, h) in state.handles.iter().enumerate() {
            match h.reply.recv_timeout(deadline.remaining()) {
                Ok(Reply::OutOfMemory { budget, observed }) => {
                    if oom.is_none() {
                        oom = Some(RuntimeError::OutOfMemory {
                            worker: w as u32,
                            budget,
                            observed,
                        });
                    }
                }
                Ok(r) => replies.push(r),
                Err(_) => {
                    if deadline.expired() {
                        // A blown barrier deadline (hung worker) is a
                        // flight-recorder trigger: dump the recent trace
                        // so the hang comes with its lead-up.
                        s2_obs::recorder::dump(&format!("barrier-deadline:{during}"));
                    }
                    return Err(RuntimeError::WorkerLost {
                        worker: w as u32,
                        during,
                    });
                }
            }
        }
        match oom {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    fn all_unchanged(replies: &[Reply]) -> bool {
        replies.iter().all(|r| matches!(r, Reply::Changed(false)))
    }

    /// Samples the disturbance-relevant transport state. Locally this
    /// reads the shared counters; in multi-process mode it barriers a
    /// `NetStats` and sums the per-worker answers.
    ///
    /// `in_flight` is read strictly *before* the counters: a reconnect
    /// bumps its loss counters before resetting the unacked count (see
    /// `tcp::dial`), so sampling in this order guarantees at least one of
    /// the two probes witnesses frames that died with a connection.
    fn probe_net(&self, during: &'static str) -> Result<NetProbe, RuntimeError> {
        if !self.remote {
            let in_flight = self.net.in_flight() as u64;
            let stats = self.net.stats();
            return Ok(NetProbe {
                in_flight,
                disturbances: stats.disturbances(),
                losses: stats.losses(),
            });
        }
        let mut probe = NetProbe::default();
        for r in self.barrier(during, || Command::NetStats)? {
            match r {
                Reply::Net { traffic, in_flight } => {
                    probe.in_flight += in_flight;
                    probe.disturbances += traffic.disturbances();
                    probe.losses += traffic.losses();
                }
                other => return Err(Self::violation("Net", &other)),
            }
        }
        Ok(probe)
    }

    /// The cluster-wide transport counters: local stats plus (in
    /// multi-process mode) every worker process's counters.
    fn traffic_snapshot(&self) -> Result<TrafficSnapshot, RuntimeError> {
        let mut snap = self.net.stats().full_snapshot();
        if self.remote {
            for r in self.barrier("net-stats", || Command::NetStats)? {
                match r {
                    Reply::Net { traffic, .. } => snap.merge(&traffic),
                    other => return Err(Self::violation("Net", &other)),
                }
            }
        }
        Ok(snap)
    }

    /// Parks the round loop briefly while the transport still has frames
    /// in flight, so asynchronous delivery does not burn the round budget
    /// at full speed (channel backend: in-flight is always zero).
    fn stall_for_in_flight(&self, probe: &NetProbe) {
        if probe.in_flight > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Errors out if wire errors occurred and the config makes them fatal.
    fn check_wire_fatal(&self) -> Result<(), RuntimeError> {
        if self.config.fatal_wire_errors {
            let errors = self.net.stats().wire_errors.load(Ordering::Relaxed);
            if errors > 0 {
                return Err(RuntimeError::Wire { errors });
            }
        }
        Ok(())
    }

    /// One `Command::Metrics` snapshot per worker, in worker order: its
    /// memory gauge in registry form, barriered over the control
    /// protocol, so this works identically in multi-process mode.
    fn worker_metrics(&self) -> Result<Vec<MetricsSnapshot>, RuntimeError> {
        let mut per_worker = Vec::new();
        for r in self.barrier("metrics", || Command::Metrics)? {
            match r {
                Reply::Metrics(m) => per_worker.push(m),
                other => return Err(Self::violation("Metrics", &other)),
            }
        }
        Ok(per_worker)
    }

    /// Collects the run's unified metrics: one snapshot per worker plus
    /// the aggregate, which merges the worker snapshots and folds in
    /// the cluster-wide traffic counters and the process-global
    /// registry exactly once.
    pub fn collect_metrics(&self) -> Result<RunMetrics, RuntimeError> {
        let per_worker = self.worker_metrics()?;
        let mut aggregate = MetricsSnapshot::default();
        for m in &per_worker {
            aggregate.merge(m);
        }
        aggregate.merge(&metrics::traffic_metrics(&self.traffic_snapshot()?));
        aggregate.merge(&s2_obs::Registry::global().snapshot());
        Ok(RunMetrics {
            per_worker,
            aggregate,
        })
    }

    /// Collects fleet metrics *leniently* for the telemetry plane's
    /// scrape endpoint: unlike [`Cluster::collect_metrics`], a dead or
    /// hung worker degrades its slot to `None` instead of failing the
    /// whole collection — a scrape must keep serving through partial
    /// outages, with liveness surfaced as per-worker gauges.
    ///
    /// Stale replies of an aborted barrier are drained per worker
    /// before polling so the answer pairs with *this* command; a hung
    /// worker costs at most the (capped) scrape deadline.
    pub fn scrape_metrics(&self) -> FleetScrape {
        let scrape_timeout = self.config.barrier_timeout.min(Duration::from_secs(1));
        let mut workers = Vec::new();
        {
            let state = lock(&self.state);
            for (w, h) in state.handles.iter().enumerate() {
                while h.reply.try_recv().is_ok() {}
                let snap = if h.cmd.send(Command::Metrics).is_ok() {
                    match h.reply.recv_timeout(Deadline::after(scrape_timeout).remaining()) {
                        Ok(Reply::Metrics(m)) => Some(m),
                        _ => None,
                    }
                } else {
                    None
                };
                workers.push((w as u32, snap));
            }
        }
        let mut aggregate = MetricsSnapshot::default();
        for (_, m) in &workers {
            if let Some(m) = m {
                aggregate.merge(m);
            }
        }
        // Traffic counters ride along best-effort (remote mode barriers
        // them, which a lost worker fails); the process-global registry
        // is always available and folded exactly once.
        if let Ok(t) = self.traffic_snapshot() {
            aggregate.merge(&metrics::traffic_metrics(&t));
        }
        aggregate.merge(&s2_obs::Registry::global().snapshot());
        FleetScrape { aggregate, workers }
    }

    /// Pulls buffered trace events out of remote worker processes and
    /// splices them into this process's sink, so one Chrome export
    /// carries the whole fleet. Name ids are re-interned (they are
    /// process-local), and timestamps are rebased through the drain
    /// reply's clock anchor. In-process fleets are a cheap no-op:
    /// workers share this sink and answer empty batches. Best-effort
    /// like the scrape — a dead worker's events are simply lost.
    pub fn drain_remote_traces(&self) {
        if !s2_obs::trace::enabled() {
            return;
        }
        let drain_timeout = self.config.barrier_timeout.min(Duration::from_secs(1));
        let state = lock(&self.state);
        for h in state.handles.iter() {
            while h.reply.try_recv().is_ok() {}
            if h.cmd.send(Command::TraceDrain).is_err() {
                continue;
            }
            let (now_ns, names, events) =
                match h.reply.recv_timeout(Deadline::after(drain_timeout).remaining()) {
                    Ok(Reply::TraceEvents {
                        now_ns,
                        names,
                        events,
                    }) => (now_ns, names, events),
                    _ => continue,
                };
            let local_now = s2_obs::time::now_ns();
            let ids: Vec<u16> = names
                .iter()
                .map(|n| s2_obs::trace::intern_owned(n))
                .collect();
            for mut e in events {
                // The codec validates name indices, but an in-process
                // worker's empty-table reply makes the lookup fallible
                // either way — skip rather than trust.
                let Some(&id) = ids.get(usize::from(e.name)) else {
                    continue;
                };
                e.name = id;
                // Rebase onto this process's clock: both anchors were
                // taken "now", so their difference is the clock skew
                // (plus one network hop, which is noise at trace scale).
                let rebased =
                    i128::from(e.ts_ns) + i128::from(local_now) - i128::from(now_ns);
                e.ts_ns = u64::try_from(rebased.max(0)).unwrap_or(u64::MAX);
                s2_obs::trace::record(e);
            }
        }
    }

    // ---- recovery ----

    /// Detects and replaces lost workers, restoring the fleet to an idle,
    /// consistent state.
    ///
    /// Protocol: (1) ping every worker with a fresh nonce and wait (with
    /// the barrier deadline) for the matching pong, discarding stale
    /// replies of the aborted barrier — workers that fail are dead or
    /// hung; (2) bump the fabric epoch, so any frame still in flight from
    /// before the failure (or later produced by a zombie) is discarded on
    /// receipt, and drop delayed frames held by the fault fabric; (3)
    /// respawn the dead workers with fresh command channels and a fresh
    /// sidecar inbox, detaching the old threads for joining at shutdown;
    /// (4) barrier a `FlushInbox` so every sidecar adopts the new epoch
    /// with an empty inbox and cleared staging queues.
    pub fn recover(&self) -> Result<(), RuntimeError> {
        if self.remote {
            // A remote worker process cannot be respawned from here; its
            // loss is final.
            return Err(RuntimeError::WorkerLost {
                worker: u32::MAX,
                during: "remote-recovery-unsupported",
            });
        }
        let _span = s2_obs::span!("recovery");
        let mut state = lock(&self.state);
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed) + 1;
        let mut dead = Vec::new();
        for (w, h) in state.handles.iter().enumerate() {
            if h.cmd.send(Command::Ping(nonce)).is_err() {
                dead.push(w);
            }
        }
        let deadline = Deadline::after(self.config.barrier_timeout);
        for (w, h) in state.handles.iter().enumerate() {
            if dead.contains(&w) {
                continue;
            }
            loop {
                match h.reply.recv_timeout(deadline.remaining()) {
                    Ok(Reply::Pong(n)) if n == nonce => break,
                    Ok(_) => continue, // stale reply from the aborted barrier
                    Err(_) => {
                        dead.push(w);
                        break;
                    }
                }
            }
        }
        let epoch = self.net.bump_epoch();
        // An epoch bump means a worker was lost: capture the events
        // leading up to it before respawning rewrites the fleet.
        s2_obs::recorder::dump("recovery-epoch-bump");
        s2_obs::event!("recovery.epoch", epoch);
        self.net.discard_held();
        for &w in &dead {
            self.respawn(&mut state, w);
        }
        for (w, h) in state.handles.iter().enumerate() {
            h.cmd
                .send(Command::FlushInbox { epoch })
                .map_err(|_| RuntimeError::WorkerLost {
                    worker: w as u32,
                    during: "recovery",
                })?;
        }
        let deadline = Deadline::after(self.config.barrier_timeout);
        for (w, h) in state.handles.iter().enumerate() {
            loop {
                match h.reply.recv_timeout(deadline.remaining()) {
                    Ok(Reply::Ok) => break,
                    Ok(_) => continue, // stale reply, discard
                    Err(_) => {
                        return Err(RuntimeError::WorkerLost {
                            worker: w as u32,
                            during: "recovery",
                        })
                    }
                }
            }
        }
        Ok(())
    }

    fn respawn(&self, state: &mut ClusterState, w: usize) {
        let inbox = self.net.replace_inbox(w as u32);
        let (handle, thread) = Self::spawn_worker(
            &self.model,
            &self.node_owner,
            &self.net,
            &self.faults,
            self.config.memory_budget,
            self.config.intra_worker_threads,
            w as u32,
            inbox,
        );
        // Replacing the handle drops the old command sender, which lets a
        // hung predecessor's drain loop terminate; the old thread is kept
        // for joining at shutdown.
        state.handles[w] = handle;
        if let Some(old) = state.threads[w].take() {
            state.detached.push(old);
        }
        state.threads[w] = Some(thread);
    }

    /// Runs `recover`, spending additional recovery budget on failures
    /// *during* recovery (a worker can die while another is respawned).
    fn recover_with_budget(&self, attempts_left: &mut usize) -> Result<(), RuntimeError> {
        loop {
            match self.recover() {
                Ok(()) => return Ok(()),
                Err(_) if *attempts_left > 0 => *attempts_left -= 1,
                Err(e) => return Err(e),
            }
        }
    }

    // ---- control plane ----

    /// Drives `lp`'s export/apply rounds to quiescence (Algorithm 1) and
    /// returns the rounds taken. A round is quiet when every apply reply
    /// is `Changed(false)`, no frame was lost or disturbed, and no
    /// delayed frame was released or is still held; a disturbed round
    /// can never prove convergence. A lost or released frame also forces
    /// `lp.resync`, counted in `resyncs`, so a stale advertisement can
    /// never be the last word. A quiet round with frames still in flight
    /// is transport delay (e.g. a partition window), not protocol
    /// iteration: it is bounded by the barrier timeout, not by
    /// `max_rounds`, and does not count as a round.
    fn run_rounds(
        &self,
        lp: &RoundLoop,
        max_rounds: usize,
        resyncs: &mut usize,
    ) -> Result<usize, RuntimeError> {
        let mut round = 0;
        let mut stalled_since: Option<Stopwatch> = None;
        while round < max_rounds {
            let _round_span = s2_obs::span!("cp.round", round);
            let before = self.probe_net(lp.probe)?;
            self.barrier(lp.export.0, lp.export.1)?;
            let replies = self.barrier(lp.apply.0, lp.apply.1)?;
            let released = self.net.tick_delayed();
            self.check_wire_fatal()?;
            let probe = self.probe_net(lp.probe)?;
            let lost = probe.losses != before.losses;
            let quiet = Self::all_unchanged(&replies)
                && !lost
                && probe.disturbances == before.disturbances
                && released == 0
                && self.net.held_count() == 0;
            if let Some(during) = lp.resync.filter(|_| lost || released > 0) {
                self.barrier(during, || Command::BgpResync)?;
                *resyncs += 1;
            }
            if quiet && probe.in_flight == 0 {
                return Ok(round + 1);
            }
            if quiet {
                let since = *stalled_since.get_or_insert_with(Stopwatch::start);
                if since.elapsed() > self.config.barrier_timeout {
                    break;
                }
            } else {
                stalled_since = None;
                round += 1;
            }
            self.stall_for_in_flight(&probe);
        }
        Err(RuntimeError::NotConverged {
            protocol: lp.protocol,
            rounds: round,
        })
    }

    /// Runs the IGP phase to convergence, returning the round count.
    pub fn run_ospf(&self, opts: &ClusterOptions) -> Result<usize, RuntimeError> {
        self.run_rounds(&OSPF_ROUNDS, opts.max_rounds, &mut 0)
    }

    /// Gathers every originated prefix (and the aggregate subset) from the
    /// workers — the §4.5 prefix-collection step, run after OSPF so
    /// redistribution targets are included.
    #[allow(clippy::type_complexity)]
    pub fn collect_prefixes(
        &self,
    ) -> Result<(BTreeSet<Prefix>, BTreeSet<Prefix>, Vec<(Prefix, Prefix)>), RuntimeError> {
        let mut all = BTreeSet::new();
        let mut aggregates = BTreeSet::new();
        let mut deps = Vec::new();
        for reply in self.barrier("collect-prefixes", || Command::CollectPrefixes)? {
            match reply {
                Reply::Prefixes {
                    all: a,
                    aggregates: g,
                    deps: d,
                } => {
                    all.extend(a);
                    aggregates.extend(g);
                    deps.extend(d);
                }
                other => return Err(Self::violation("Prefixes", &other)),
            }
        }
        deps.sort_unstable();
        deps.dedup();
        Ok((all, aggregates, deps))
    }

    /// Gathers the prefix dependencies every worker observed during route
    /// computation (the §7 soundness input).
    pub fn collect_observed_deps(&self) -> Result<Vec<(Prefix, Prefix)>, RuntimeError> {
        let mut deps = Vec::new();
        for reply in self.barrier("collect-observed-deps", || Command::CollectObservedDeps)? {
            match reply {
                Reply::Deps(d) => deps.extend(d),
                other => return Err(Self::violation("Deps", &other)),
            }
        }
        deps.sort_unstable();
        deps.dedup();
        Ok(deps)
    }

    /// Plans prefix shards from the workers' originated prefixes: builds
    /// the DPDG (coverage edges from aggregates, explicit edges from
    /// conditional advertisements), takes weakly connected components, and
    /// bins them.
    pub fn plan_shards(&self, num_shards: usize, seed: u64) -> Result<ShardPlan, RuntimeError> {
        let (all, aggregates, deps) = self.collect_prefixes()?;
        if num_shards <= 1 {
            return Ok(ShardPlan::single(all));
        }
        let graph = s2_shard::dpdg::Dpdg::build_with_deps(&all, &aggregates, &deps);
        Ok(s2_shard::assign::greedy_assign(
            graph.weakly_connected_components(),
            num_shards,
            seed,
        ))
    }

    /// Barriers a RIB-collection command and folds the entries into
    /// `store` (idempotent per `(node, prefix)` — safe to repeat after a
    /// recovery replay).
    fn collect_rib(
        &self,
        during: &'static str,
        make: impl Fn() -> Command,
        store: &mut RibStore,
    ) -> Result<(), RuntimeError> {
        for reply in self.barrier(during, make)? {
            match reply {
                Reply::Rib(entries) => {
                    for (node, routes) in entries {
                        store.insert_all(node, routes);
                    }
                }
                other => return Err(Self::violation("Rib", &other)),
            }
        }
        Ok(())
    }

    /// One shard's BGP fix point from a `BgpBegin` reset. The rounds run
    /// count into `ck.bgp_rounds` whether or not the shard converged.
    fn run_bgp_fixpoint(
        &self,
        shard: &Arc<BTreeSet<Prefix>>,
        opts: &ClusterOptions,
        ck: &mut Checkpoint,
    ) -> Result<(), RuntimeError> {
        let _wave_span = s2_obs::span!("shard.wave", shard.len());
        self.barrier("bgp-begin", || Command::BgpBegin {
            shard: Some(shard.clone()),
        })?;
        let out = self.run_rounds(&BGP_ROUNDS, opts.max_rounds, &mut ck.resyncs);
        if let Ok(rounds) | Err(RuntimeError::NotConverged { rounds, .. }) = &out {
            ck.bgp_rounds += rounds;
        }
        out.map(drop)
    }

    /// Splits an over-budget shard into two halves along dependency
    /// boundaries: the shard's DPDG (static deps plus `extra` observed
    /// ones) is decomposed into weakly connected components and the
    /// components are binned greedily, so no dependency is ever severed.
    /// Returns `None` when the shard is a single component — splitting it
    /// would be unsound, so its OOM is final.
    #[allow(clippy::type_complexity)]
    fn bisect_shard(
        &self,
        shard: &BTreeSet<Prefix>,
        extra: &[(Prefix, Prefix)],
    ) -> Result<Option<(BTreeSet<Prefix>, BTreeSet<Prefix>)>, RuntimeError> {
        let (_, aggregates, mut deps) = self.collect_prefixes()?;
        deps.extend(extra.iter().copied());
        let prefixes: BTreeSet<Prefix> = shard.iter().copied().collect();
        let aggs: BTreeSet<Prefix> = aggregates
            .into_iter()
            .filter(|p| shard.contains(p))
            .collect();
        let deps: Vec<(Prefix, Prefix)> = deps
            .into_iter()
            .filter(|(a, b)| shard.contains(a) && shard.contains(b))
            .collect();
        let graph = s2_shard::dpdg::Dpdg::build_with_deps(&prefixes, &aggs, &deps);
        let mut comps = graph.weakly_connected_components();
        if comps.len() < 2 {
            return Ok(None);
        }
        for c in comps.iter_mut() {
            c.sort();
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        let mut left = BTreeSet::new();
        let mut right = BTreeSet::new();
        for c in comps {
            if left.len() <= right.len() {
                left.extend(c);
            } else {
                right.extend(c);
            }
        }
        Ok(Some((left, right)))
    }

    /// One attempt at completing the checkpointed control-plane run:
    /// (re-)converges OSPF, collects the base RIB once, then drains the
    /// shard queue, flushing each completed shard's RIB and observed deps
    /// to the checkpoint. OOM on a shard triggers component-aware
    /// bisection; worker loss aborts the attempt (the caller recovers and
    /// retries — only the in-flight shard is redone).
    fn cp_attempt(&self, ck: &mut Checkpoint, opts: &ClusterOptions) -> Result<(), RuntimeError> {
        ck.ospf_rounds = self.run_ospf(opts)?;
        if !ck.base_done {
            self.collect_rib("collect-base-rib", || Command::CollectBaseRib, &mut ck.store)?;
            ck.base_done = true;
        }
        while let Some(front) = ck.queue.front() {
            let shard = Arc::new(front.clone());
            match self.run_bgp_fixpoint(&shard, opts, ck) {
                Ok(()) => {}
                Err(RuntimeError::OutOfMemory {
                    worker,
                    budget,
                    observed,
                }) => {
                    // OOM degradation is a flight-recorder trigger: the
                    // trace shows which waves/rounds ran up the budget.
                    s2_obs::recorder::dump("oom-degradation");
                    let split = if shard.len() > 1 && ck.oom_splits < self.config.max_oom_splits {
                        self.bisect_shard(&shard, &ck.observed_deps)?
                    } else {
                        None
                    };
                    match split {
                        Some((a, b)) => {
                            ck.queue.pop_front();
                            ck.queue.push_front(b);
                            ck.queue.push_front(a);
                            ck.oom_splits += 1;
                            ck.shard_retries += 1;
                            continue;
                        }
                        None => {
                            return Err(RuntimeError::OutOfMemory {
                                worker,
                                budget,
                                observed,
                            })
                        }
                    }
                }
                Err(e) => return Err(e),
            }
            self.collect_rib("collect-shard-rib", || Command::CollectBgpRib, &mut ck.store)?;
            ck.observed_deps.extend(self.collect_observed_deps()?);
            let done = ck.queue.pop_front().expect("queue non-empty");
            ck.executed.push(done);
        }
        Ok(())
    }

    /// The checkpointed control-plane driver: retries `cp_attempt` across
    /// worker losses (within the recovery budget) and assembles the final
    /// snapshot, stats, executed plan, and observed dependencies.
    #[allow(clippy::type_complexity)]
    fn run_cp_full(
        &self,
        plan: &ShardPlan,
        opts: &ClusterOptions,
        seed_deps: &[(Prefix, Prefix)],
    ) -> Result<(RibSnapshot, CpRunStats, ShardPlan, Vec<(Prefix, Prefix)>), RuntimeError> {
        let start = Stopwatch::start();
        let mut ck = Checkpoint::new(self.model.topology.node_count(), plan, seed_deps);
        let mut attempts_left = self.config.max_recoveries;
        loop {
            match self.cp_attempt(&mut ck, opts) {
                Ok(()) => break,
                Err(RuntimeError::WorkerLost { .. }) if attempts_left > 0 => {
                    attempts_left -= 1;
                    ck.recoveries += 1;
                    if ck.base_done && !ck.queue.is_empty() {
                        ck.shard_retries += 1;
                    }
                    self.recover_with_budget(&mut attempts_left)?;
                }
                Err(e) => return Err(e),
            }
        }
        let (per_worker_peak, bdd_peak_nodes, bdd_cache) =
            metrics::fold_mem(&self.worker_metrics()?);
        let mut stats = CpRunStats {
            ospf_rounds: ck.ospf_rounds,
            bgp_rounds: ck.bgp_rounds,
            shards: ck.executed.len(),
            per_worker_peak,
            bdd_peak_nodes,
            bdd_cache,
            recoveries: ck.recoveries,
            oom_splits: ck.oom_splits,
            shard_retries: ck.shard_retries,
            resyncs: ck.resyncs,
            ..CpRunStats::default()
        };
        let traffic = self.traffic_snapshot()?;
        stats.messages = traffic.messages;
        stats.bytes = traffic.bytes;
        stats.wire_errors = traffic.wire_errors;
        stats.traffic = traffic;
        stats.elapsed = start.elapsed();
        let executed = ShardPlan {
            shards: ck.executed,
        };
        let mut deps = ck.observed_deps;
        deps.sort_unstable();
        deps.dedup();
        Ok((ck.store.into_snapshot(), stats, executed, deps))
    }

    /// The §7 extension: runs the control plane under `plan`, collects the
    /// dependencies observed during computation, and — if any crosses a
    /// shard boundary (an *unforeseen* dependency) — merges the affected
    /// shards and recomputes, until the plan is sound. Returns the final
    /// RIBs, stats of the last (sound) run, and the refined plan (as
    /// actually executed, OOM bisections included).
    pub fn run_control_plane_refined(
        &self,
        mut plan: ShardPlan,
        opts: &ClusterOptions,
    ) -> Result<(RibSnapshot, CpRunStats, ShardPlan), RuntimeError> {
        // Observed deps accumulate across refinement rounds so OOM
        // bisection never re-splits a dependency the last round merged.
        let mut known_deps: Vec<(Prefix, Prefix)> = Vec::new();
        loop {
            let (rib, stats, executed, observed) = self.run_cp_full(&plan, opts, &known_deps)?;
            let violations = executed.cross_shard_violations(&observed);
            if violations.is_empty() {
                return Ok((rib, stats, executed));
            }
            known_deps = observed;
            plan = executed.merged_for(&violations);
        }
    }

    /// Runs the full distributed control-plane simulation: OSPF to
    /// convergence, then one BGP fix point per shard, gathering the final
    /// RIBs (the CPO role). Worker losses are recovered (the checkpoint
    /// limits rework to the in-flight shard) and over-budget shards are
    /// bisected, within the configured budgets.
    pub fn run_control_plane(
        &self,
        plan: &ShardPlan,
        opts: &ClusterOptions,
    ) -> Result<(RibSnapshot, CpRunStats), RuntimeError> {
        let (rib, stats, _, _) = self.run_cp_full(plan, opts, &[])?;
        Ok((rib, stats))
    }

    // ---- data plane ----

    /// Runs distributed data-plane verification (the DPO role): per-worker
    /// predicate compilation, distributed symbolic forwarding to
    /// quiescence, then property evaluation.
    ///
    /// Fault tolerance: worker loss triggers recovery and a replay of the
    /// whole phase (`DpSetup` resets all forwarding state, so replays are
    /// clean); frames lost in transit also force a replay, since dropped
    /// symbolic packets would silently under-approximate reachability.
    pub fn run_dpv(
        &self,
        rib: Arc<RibSnapshot>,
        query: &DpvQuery,
        opts: &ClusterOptions,
    ) -> Result<DpvRunStats, RuntimeError> {
        let mut attempts_left = self.config.max_recoveries;
        let mut recoveries = 0usize;
        let mut replays = 0usize;
        loop {
            let losses0 = self.probe_net("dpv-probe")?.losses;
            match self.dpv_attempt(&rib, query, opts) {
                Ok(mut stats) => {
                    let lost = self.probe_net("dpv-probe")?.losses - losses0;
                    if lost > 0 {
                        if attempts_left == 0 {
                            return Err(RuntimeError::Wire { errors: lost });
                        }
                        attempts_left -= 1;
                        replays += 1;
                        continue;
                    }
                    stats.recoveries = recoveries;
                    stats.replays = replays;
                    let traffic = self.traffic_snapshot()?;
                    stats.wire_errors = traffic.wire_errors;
                    stats.traffic = traffic;
                    return Ok(stats);
                }
                Err(RuntimeError::WorkerLost { .. }) if attempts_left > 0 => {
                    attempts_left -= 1;
                    recoveries += 1;
                    replays += 1;
                    self.recover_with_budget(&mut attempts_left)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn dpv_attempt(
        &self,
        rib: &Arc<RibSnapshot>,
        query: &DpvQuery,
        opts: &ClusterOptions,
    ) -> Result<DpvRunStats, RuntimeError> {
        let mut stats = DpvRunStats::default();
        let t0 = Stopwatch::start();
        self.barrier("dp-setup", || Command::DpSetup {
            rib: rib.clone(),
            meta_bits: query.waypoints.len() as u16,
            waypoints: query.waypoints.clone(),
            max_hops: opts.max_hops,
        })?;
        stats.pred_time = t0.elapsed();
        self.dpv_drive(&mut stats, query, None)?;
        Ok(stats)
    }

    /// The forwarding-and-evaluation half of a DPV pass: injection,
    /// symbolic forwarding to quiescence, arrival checks, finals
    /// collection, and controller-side multipath evaluation. Assumes the
    /// workers' forwarding state was already prepared (by `DpSetup` for a
    /// baseline pass or `DpPatch` for a scenario pass).
    ///
    /// `inject` narrows which of the query's sources are actually
    /// injected (a destination-scoped pass skips sources whose scope is
    /// empty; their verdicts come from the workers' splice baseline).
    /// Arrival checks and finals collection always cover every source.
    fn dpv_drive(
        &self,
        stats: &mut DpvRunStats,
        query: &DpvQuery,
        inject: Option<&[NodeId]>,
    ) -> Result<(), RuntimeError> {
        let meta_bits = query.waypoints.len() as u16;
        let t1 = Stopwatch::start();
        let inject = inject.unwrap_or(&query.sources);
        let injections =
            Arc::new(inject.iter().map(|&s| (s, query.dst_space)).collect::<Vec<_>>());
        self.barrier("dp-inject", || Command::Inject {
            injections: injections.clone(),
        })?;
        loop {
            let _round_span = s2_obs::span!("dpv.round", stats.forward_rounds);
            let replies = self.barrier("dp-forward", || Command::ForwardRound)?;
            stats.forward_rounds += 1;
            let released = self.net.tick_delayed();
            self.check_wire_fatal()?;
            let probe = self.probe_net("dp-probe")?;
            let mut quiet = released == 0 && self.net.held_count() == 0 && probe.in_flight == 0;
            for r in replies {
                match r {
                    Reply::Forwarded {
                        processed,
                        sent_remote,
                    } => {
                        stats.packets_processed += processed;
                        stats.remote_packets += sent_remote;
                        if processed > 0 || sent_remote > 0 {
                            quiet = false;
                        }
                    }
                    other => return Err(Self::violation("Forwarded", &other)),
                }
            }
            if quiet {
                break;
            }
            self.stall_for_in_flight(&probe);
        }
        stats.fwd_time = t1.elapsed();

        // Property evaluation.
        let transits: Arc<Vec<(NodeId, u16)>> =
            Arc::new(query.waypoints.iter().map(|(&n, &b)| (n, b)).collect());
        for reply in self.barrier("dp-arrivals", || Command::CheckArrivals {
            sources: query.sources.clone(),
            expected: query.expected.clone(),
            transits: transits.clone(),
        })? {
            match reply {
                Reply::Arrivals {
                    reachable,
                    unreachable,
                    waypoint_violations,
                } => {
                    stats.reachable_pairs += reachable.len();
                    stats.unreachable_pairs.extend(unreachable);
                    stats.waypoint_violations.extend(waypoint_violations);
                }
                other => return Err(Self::violation("Arrivals", &other)),
            }
        }

        // Multipath consistency: merge per-(src, kind) header sets in a
        // controller-side manager (sets arrive serialized, exactly like any
        // other cross-worker BDD).
        let space = PacketSpace::new(meta_bits);
        let mut manager = space.manager();
        let mut by_src: BTreeMap<NodeId, BTreeMap<FinalKind, s2_bdd::Bdd>> = BTreeMap::new();
        for reply in self.barrier("dp-finals", || Command::CollectFinals)? {
            match reply {
                Reply::Finals {
                    loops,
                    blackholes,
                    splices,
                    sets,
                } => {
                    stats.loops += loops;
                    stats.blackholes += blackholes;
                    if let Some(scoped) = stats.scoped.as_mut() {
                        scoped.splice_ops += splices;
                    }
                    for (src, kind, bytes) in sets {
                        stats.verdict_sets.push((src, kind, bytes.to_vec()));
                        let set = match bdd_io::from_bytes(&mut manager, &bytes) {
                            Ok(set) => set,
                            Err(_) => {
                                return Err(RuntimeError::ProtocolViolation {
                                    expected: "valid BDD payload",
                                    got: "undecodable final set".to_string(),
                                })
                            }
                        };
                        let entry = by_src
                            .entry(src)
                            .or_default()
                            .entry(kind)
                            .or_insert(s2_bdd::Bdd::FALSE);
                        *entry = manager.or(*entry, set);
                    }
                }
                other => return Err(Self::violation("Finals", &other)),
            }
        }
        for (src, kinds) in by_src {
            let sets: Vec<s2_bdd::Bdd> = kinds.into_values().collect();
            if properties::multipath_inconsistent(&mut manager, &sets) {
                stats.multipath_violations.push(src);
            }
        }

        (stats.per_worker_peak, stats.bdd_peak_nodes, stats.bdd_cache) =
            metrics::fold_mem(&self.worker_metrics()?);
        stats.unreachable_pairs.sort();
        stats.waypoint_violations.sort();
        stats.verdict_sets.sort();
        Ok(())
    }

    // ---- resilience scenarios ----
    //
    // The runtime surface of the sweep engine (`s2::sweep`): a scenario
    // is checkpointed warm state + a set of failed interfaces + an
    // incremental re-convergence + a patched DPV pass, fenced from its
    // neighbours by an epoch bump so an aborted scenario can never leak
    // stale frames into the next one.

    /// Asserts every reply in a barrier result is `Reply::Ok`.
    fn expect_ok(replies: Vec<Reply>) -> Result<(), RuntimeError> {
        for r in &replies {
            match r {
                Reply::Ok => {}
                other => return Err(Self::violation("Ok", other)),
            }
        }
        Ok(())
    }

    /// Snapshots every worker's warm control-plane state (converged
    /// switches plus adj-out caches) so scenarios can be applied and
    /// rolled back without re-running the full fix point. Call once,
    /// after a successful `run_control_plane` and the baseline
    /// `run_dpv` — the workers also stash their full-space finals as
    /// the splice baseline of destination-scoped scenario passes.
    ///
    /// `rib` is the warm baseline RIB the DPV pass ran against: a
    /// scenario RIB is it with the workers' patched rows, and its
    /// reverse forwarding graph, indexed once here, decides which
    /// sources a changed destination set can perturb.
    pub fn scenario_checkpoint(&self, rib: &Arc<RibSnapshot>) -> Result<(), RuntimeError> {
        let (prefixes, aggregates, deps) = self.collect_prefixes()?;
        let dpdg = s2_shard::dpdg::Dpdg::build_with_deps(&prefixes, &aggregates, &deps);
        Self::expect_ok(self.barrier("scenario-checkpoint", || Command::ScenarioCheckpoint)?)?;
        *lock(&self.scenario_base) = Some(ScenarioBase {
            rib: rib.clone(),
            index: ScopeIndex::build(&self.model, rib),
            components: Components::of(&dpdg),
        });
        Ok(())
    }

    /// Restores the checkpoint on every worker and marks the given
    /// `(node, interface)` ports as failed in the routing model. Follow
    /// with [`Cluster::run_warm_fixpoint`] to re-converge incrementally.
    pub fn scenario_begin(&self, failed: &[(NodeId, InterfaceId)]) -> Result<(), RuntimeError> {
        let failed = Arc::new(failed.to_vec());
        Self::expect_ok(self.barrier("scenario-begin", || Command::ScenarioBegin {
            failed: failed.clone(),
        })?)
    }

    /// Restores the checkpoint and clears all scenario forwarding state
    /// (predicate overlays, failed-port masks, in-flight packets),
    /// returning the workers to the warm baseline. On a worker without
    /// a checkpoint (freshly respawned mid-sweep) only the overlays are
    /// cleared — its switches are already healthy.
    pub fn scenario_rollback(&self) -> Result<(), RuntimeError> {
        Self::expect_ok(self.barrier("scenario-rollback", || Command::ScenarioRollback)?)
    }

    /// Fences the fabric between scenarios: bumps the epoch (frames in
    /// flight from the previous scenario are discarded on receipt),
    /// drops frames held by the fault fabric, and flushes every sidecar
    /// inbox into the new epoch. After a fence no message produced
    /// before it can be observed — an aborted scenario cannot poison
    /// its successor.
    pub fn fence(&self) -> Result<(), RuntimeError> {
        let epoch = self.net.bump_epoch();
        self.net.discard_held();
        Self::expect_ok(self.barrier("fence", || Command::FlushInbox { epoch })?)
    }

    /// Runs the BGP fix point *warm*: export/apply rounds from the
    /// workers' current state, without a `BgpBegin` reset — only the
    /// deltas induced by a scenario's failed interfaces propagate.
    /// Returns the rounds taken (1 when already quiescent).
    pub fn run_warm_fixpoint(&self, opts: &ClusterOptions) -> Result<usize, RuntimeError> {
        let _span = s2_obs::span!("scenario.warm_fixpoint");
        self.run_rounds(&WARM_ROUNDS, opts.max_rounds, &mut 0)
    }

    /// Collects the workers' *current* RIBs (base plus BGP) into a fresh
    /// snapshot, with failed interfaces filtered out by the switch models
    /// themselves. No verification path calls it: a scenario pass
    /// assembles its RIB from the rows the workers patch (see
    /// [`Cluster::run_scenario_dpv`]), and this whole-RIB round trip is
    /// the tests' oracle for that RIB.
    pub fn collect_full_rib(&self) -> Result<RibSnapshot, RuntimeError> {
        let mut store = RibStore::new(self.model.topology.node_count());
        self.collect_rib("collect-base-rib", || Command::CollectBaseRib, &mut store)?;
        self.collect_rib("collect-bgp-rib", || Command::CollectBgpRib, &mut store)?;
        Ok(store.into_snapshot())
    }

    /// The `DpPatch` barrier of a scenario pass at `stage`: the changed
    /// destinations per node, and the scenario RIB assembled from the
    /// checkpointed baseline and the rows the workers returned.
    #[allow(clippy::type_complexity)]
    fn dp_patch(
        &self,
        stage: PatchStage,
        failed_ports: &Arc<Vec<(NodeId, InterfaceId)>>,
    ) -> Result<(BTreeMap<NodeId, BTreeSet<Prefix>>, Arc<RibSnapshot>), RuntimeError> {
        let Some(base) = lock(&self.scenario_base).as_ref().map(|b| b.rib.clone()) else {
            return Err(RuntimeError::ProtocolViolation {
                expected: "a scenario checkpoint",
                got: "a scenario pass before it".to_string(),
            });
        };
        let mut changed_dst: BTreeMap<NodeId, BTreeSet<Prefix>> = BTreeMap::new();
        let mut rows: Vec<(NodeId, RibRow)> = Vec::new();
        for reply in self.barrier("dp-patch", || Command::DpPatch {
            stage,
            failed_ports: failed_ports.clone(),
        })? {
            match reply {
                Reply::ChangedDst { dst, rows: patched } => {
                    for (n, ps) in dst {
                        changed_dst.entry(n).or_default().extend(ps);
                    }
                    rows.extend(patched);
                }
                other => return Err(Self::violation("ChangedDst", &other)),
            }
        }
        if rows.iter().any(|(n, _)| n.index() >= base.per_node.len()) {
            return Err(RuntimeError::ProtocolViolation {
                expected: "rows of the model's nodes",
                got: "a row of an unknown node".to_string(),
            });
        }
        let rib = if rows.is_empty() { base } else { Arc::new(base.patched(rows)) };
        Ok((changed_dst, rib))
    }

    /// A scenario DPV pass over warm forwarding state at `stage`: the
    /// workers patch the predicates of the nodes whose row moved off the
    /// checkpointed baseline (none at the transient stage), reusing the
    /// baseline packet space and BDD manager, mask `failed_ports` in the
    /// forwarding step, then re-verify **only the changed packet space**
    /// — exactly like [`Cluster::run_dpv`] but without the full
    /// `DpSetup` recompile and without internal replay (the sweep layer
    /// owns retries, fencing, and rollback). Needs a
    /// [`Cluster::scenario_checkpoint`].
    ///
    /// Destination scoping: the patch barrier returns each node's
    /// changed destination prefixes (RIB diffs plus failed-port route
    /// prefixes), which are closed over the prefix dependency graph and
    /// pushed backwards along the baseline forwarding graph to find,
    /// per source, the destinations the scenario can perturb. Each
    /// source is injected only over that scope — sources with an empty
    /// scope are skipped entirely — and the workers splice
    /// `(old ∧ ¬changed) ∨ recomputed`, so the returned verdicts are
    /// byte-identical to a cold full-space pass. When the changed space
    /// covers all of `dst_space`, the pass falls back to a plain
    /// full-space drive.
    pub fn run_scenario_dpv(
        &self,
        stage: PatchStage,
        failed_ports: Vec<(NodeId, InterfaceId)>,
        query: &DpvQuery,
    ) -> Result<ScenarioPass, RuntimeError> {
        let sources = &query.sources;
        let mut stats = DpvRunStats::default();
        let t0 = Stopwatch::start();
        let (mut changed_dst, rib) = self.dp_patch(stage, &Arc::new(failed_ports))?;
        let scopes = {
            let base = lock(&self.scenario_base);
            let b = base.as_ref().expect("checked by the patch");
            // A dependent prefix can change whenever its dependee
            // does — close each node's diff before trusting it.
            for set in changed_dst.values_mut() {
                b.components.close(set);
            }
            scope_sources(&b.index, &changed_dst, sources)
        };
        stats.pred_time = t0.elapsed();
        let all_changed: BTreeSet<Prefix> = changed_dst.into_values().flatten().collect();
        let fraction = covered_fraction(&all_changed, query.dst_space);
        let metrics = s2_obs::Registry::global();
        metrics.counter("dpv.scoped.runs").inc();
        metrics
            .counter("dpv.scoped.changed_prefixes")
            .add(all_changed.len() as u64);
        metrics
            .counter("dpv.scoped.space_permille")
            .add((fraction * 1000.0) as u64);
        if fraction >= 1.0 {
            // The whole destination space is perturbed: scoping would
            // re-verify everything anyway, so skip the splice machinery
            // (`DpPatch` already cleared the workers' scopes) and
            // compile the staged overlays whole.
            metrics.counter("dpv.scoped.fallback_full").inc();
            stats.scoped = Some(DpvScopedStats {
                changed_prefixes: all_changed.len(),
                changed_dst_fraction: fraction,
                fallback_full: true,
                ..DpvScopedStats::default()
            });
            Self::expect_ok(self.barrier("dp-compile", || Command::DpCompile)?)?;
            self.dpv_drive(&mut stats, query, None)?;
            return Ok(ScenarioPass { dpv: stats, rib });
        }
        let inject: Vec<NodeId> = sources
            .iter()
            .copied()
            .filter(|s| scopes.get(s).is_some_and(|ps| !ps.is_empty()))
            .collect();
        let skipped = sources.len() - inject.len();
        metrics
            .counter("dpv.scoped.skipped_sources")
            .add(skipped as u64);
        let scope_list: Arc<Vec<(NodeId, Vec<Prefix>)>> = Arc::new(
            sources
                .iter()
                .map(|&s| {
                    let ps = scopes
                        .get(&s)
                        .map(|ps| ps.iter().copied().collect())
                        .unwrap_or_default();
                    (s, ps)
                })
                .collect(),
        );
        Self::expect_ok(self.barrier("dp-scope", || Command::DpScope {
            scopes: scope_list.clone(),
        })?)?;
        stats.scoped = Some(DpvScopedStats {
            changed_prefixes: all_changed.len(),
            changed_dst_fraction: fraction,
            skipped_sources: skipped,
            injected_sources: inject.len(),
            splice_ops: 0,
            fallback_full: false,
        });
        let drive = Stopwatch::start();
        self.dpv_drive(&mut stats, query, Some(&inject))?;
        metrics
            .counter("dpv.scoped.drive_us")
            .add(drive.elapsed().as_micros() as u64);
        if let Some(s) = stats.scoped.as_ref() {
            metrics.counter("dpv.scoped.splice_ops").add(s.splice_ops);
        }
        Ok(ScenarioPass { dpv: stats, rib })
    }

    /// Stops every worker and joins every thread ever spawned, including
    /// the detached predecessors of respawned workers.
    pub fn shutdown(self) {
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for h in &state.handles {
            let _ = h.cmd.send(Command::Shutdown);
        }
        // Dropping the handles closes the command channels, which releases
        // hung workers' drain loops.
        drop(state.handles);
        for t in state.threads.into_iter().flatten() {
            let _ = t.join();
        }
        for t in state.detached {
            let _ = t.join();
        }
        // With every worker gone, stop the transport's supervision
        // threads and close its sockets (no-op for the channel backend).
        self.net.shutdown_transport();
    }
}

/// Fraction of `space`'s addresses covered by `prefixes`, interval-
/// merged so overlapping and nested prefixes count once.
fn covered_fraction(prefixes: &BTreeSet<Prefix>, space: Prefix) -> f64 {
    let lo = u64::from(space.first_addr().0);
    let hi = u64::from(space.last_addr().0);
    let size = hi - lo + 1;
    let mut ivals: Vec<(u64, u64)> = prefixes
        .iter()
        .filter(|p| p.overlaps(space))
        .map(|p| {
            (
                u64::from(p.first_addr().0).max(lo),
                u64::from(p.last_addr().0).min(hi),
            )
        })
        .collect();
    ivals.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in ivals {
        match cur {
            Some((ca, cb)) if a <= cb + 1 => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca + 1;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca + 1;
    }
    covered as f64 / size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::config::{BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, Vendor};
    use s2_net::topology::Topology;
    use s2_net::Ipv4Addr;

    /// The 4-node line t0—m1—m2—t3 from the fixpoint tests: t0 announces
    /// two prefixes; everyone should learn them.
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
            cfgs[i].interfaces.push(InterfaceConfig::new(format!("e{li}a"), ai, 31));
            cfgs[j].interfaces.push(InterfaceConfig::new(format!("e{li}b"), aj, 31));
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

    /// One shard holding every prefix the model originates.
    fn line_plan(model: &Arc<NetworkModel>) -> ShardPlan {
        let switches: Vec<_> = model
            .topology
            .nodes()
            .map(|n| s2_routing::SwitchModel::new(model, n))
            .collect();
        ShardPlan::single(s2_shard::collect_prefixes(&switches))
    }

    fn run_cp(model: &Arc<NetworkModel>, owners: Vec<u32>, workers: u32) -> (RibSnapshot, CpRunStats) {
        let cluster = Cluster::new(model.clone(), owners, workers, None);
        let plan = line_plan(model);
        let out = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        out
    }

    #[test]
    fn distributed_equals_monolithic_ribs() {
        let model = Arc::new(line_model());
        // Monolithic reference.
        let mut switches: Vec<_> = model
            .topology
            .nodes()
            .map(|n| s2_routing::SwitchModel::new(&model, n))
            .collect();
        s2_routing::converge_ospf(&model, &mut switches, 64).unwrap();
        s2_routing::converge_bgp(&mut switches, None, 64).unwrap();
        let mut ref_store = RibStore::new(4);
        for n in model.topology.nodes() {
            ref_store.insert_all(n, switches[n.index()].base_rib_routes());
            ref_store.insert_all(n, switches[n.index()].bgp_rib_routes());
        }
        let reference = ref_store.into_snapshot();

        for owners in [vec![0, 0, 0, 0], vec![0, 0, 1, 1], vec![0, 1, 2, 3], vec![1, 0, 1, 0]] {
            let workers = owners.iter().max().unwrap() + 1;
            let (rib, stats) = run_cp(&model, owners.clone(), workers);
            assert_eq!(rib, reference, "owners {owners:?}");
            assert!(stats.bgp_rounds >= 4);
            if workers > 1 {
                assert!(stats.messages > 0, "cross-worker traffic expected");
            }
        }
    }

    /// `sources` must all reach t0's first prefix, no waypoints.
    fn reach_t0_prefix(sources: Vec<NodeId>) -> DpvQuery {
        DpvQuery {
            sources: Arc::new(sources),
            expected: Arc::new(vec![(NodeId(0), vec!["10.0.0.0/24".parse().unwrap()])]),
            dst_space: "10.0.0.0/8".parse().unwrap(),
            waypoints: Arc::new(BTreeMap::new()),
        }
    }

    #[test]
    fn distributed_dpv_checks_reachability() {
        let model = Arc::new(line_model());
        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, None);
        let plan = line_plan(&model);
        let (rib, _) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();

        let query = reach_t0_prefix(vec![NodeId(0), NodeId(3)]);
        let stats = cluster
            .run_dpv(Arc::new(rib), &query, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        // t3 reaches t0's prefix.
        assert_eq!(stats.reachable_pairs, 1, "{:?}", stats.unreachable_pairs);
        assert!(stats.unreachable_pairs.is_empty());
        assert_eq!(stats.loops, 0);
        // Packets crossed the worker boundary.
        assert!(stats.remote_packets > 0);
        assert!(stats.forward_rounds >= 2);
    }

    /// A remote worker's proxy merges its process registry into the
    /// `Metrics` reply `fold_mem` reads. After a CP and DPV run the
    /// registry holds no `bdd.*` or `mem.*` name, so that merge moves
    /// none of the folded memory numbers.
    #[test]
    fn registry_merge_leaves_the_memory_fold_unchanged() {
        let model = Arc::new(line_model());
        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, None);
        let (rib, _) = cluster
            .run_control_plane(&line_plan(&model), &ClusterOptions::default())
            .unwrap();
        let query = reach_t0_prefix(vec![NodeId(0), NodeId(3)]);
        let stats = cluster
            .run_dpv(Arc::new(rib), &query, &ClusterOptions::default())
            .unwrap();
        let per_worker = cluster.worker_metrics().unwrap();
        cluster.shutdown();
        let registry = s2_obs::Registry::global().snapshot();
        let names: Vec<&String> = registry
            .counters
            .keys()
            .chain(registry.gauges.keys())
            .chain(registry.histograms.keys())
            .collect();
        assert!(
            names.iter().all(|n| !n.starts_with("bdd.") && !n.starts_with("mem.")),
            "{names:?}"
        );
        let proxied: Vec<MetricsSnapshot> = per_worker
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.merge(&registry);
                m
            })
            .collect();
        let folded = metrics::fold_mem(&per_worker);
        assert_eq!(metrics::fold_mem(&proxied), folded);
        assert_eq!(folded, (stats.per_worker_peak, stats.bdd_peak_nodes, stats.bdd_cache));
    }

    #[test]
    fn per_worker_memory_is_reported() {
        let model = Arc::new(line_model());
        let (_, stats) = run_cp(&model, vec![0, 0, 1, 1], 2);
        assert_eq!(stats.per_worker_peak.len(), 2);
        assert!(stats.max_worker_peak() > 0);
    }

    #[test]
    fn memory_budget_aborts_with_oom() {
        // A budget of 8 bytes cannot hold even a single-prefix shard, so
        // bisection bottoms out and the OOM is surfaced.
        let model = Arc::new(line_model());
        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, Some(8));
        let plan = line_plan(&model);
        let err = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap_err();
        cluster.shutdown();
        assert!(matches!(err, RuntimeError::OutOfMemory { .. }));
    }

    #[test]
    fn sharded_distributed_run_matches_unsharded() {
        let model = Arc::new(line_model());
        let (reference, _) = run_cp(&model, vec![0, 1, 0, 1], 2);

        let cluster = Cluster::new(model.clone(), vec![0, 1, 0, 1], 2, None);
        let plan = ShardPlan {
            shards: vec![
                ["10.0.0.0/24".parse().unwrap()].into_iter().collect(),
                ["10.0.1.0/24".parse().unwrap()].into_iter().collect(),
            ],
        };
        let (rib, stats) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        assert_eq!(rib, reference);
        assert_eq!(stats.shards, 2);
    }

    #[test]
    fn killed_worker_is_recovered_and_result_is_identical() {
        let model = Arc::new(line_model());
        let (reference, _) = run_cp(&model, vec![0, 0, 1, 1], 2);

        // The deadline is far beyond the time bound below, so the run can
        // only finish in time if the barrier sees the dead worker's reply
        // channel disconnect instead of waiting the deadline out.
        let config = RuntimeConfig {
            barrier_timeout: Duration::from_secs(60),
            faults: FaultPlan::new().kill_worker(1, 6),
            ..RuntimeConfig::default()
        };
        let clock = Stopwatch::start();
        let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
        let plan = line_plan(&model);
        let (rib, stats) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        assert_eq!(rib, reference, "recovered run must be bit-identical");
        assert!(stats.recoveries >= 1, "the kill must trigger a recovery");
        assert!(
            clock.elapsed() < Duration::from_secs(10),
            "a dead worker must be caught by channel disconnect, not the deadline"
        );
    }

    /// A hung worker blows the barrier deadline; the controller must
    /// dump the flight recorder (trigger `barrier-deadline:<phase>`)
    /// before recovering, so the hang comes with its trace lead-up.
    #[cfg(feature = "obs")]
    #[test]
    fn hung_worker_dumps_flight_recorder_and_recovers() {
        let model = Arc::new(line_model());
        let (reference, _) = run_cp(&model, vec![0, 0, 1, 1], 2);

        let dump_path = std::env::temp_dir().join(format!(
            "s2-flight-hang-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dump_path);
        s2_obs::trace::set_enabled(true);
        s2_obs::recorder::set_dump_path(Some(dump_path.clone()));

        let config = RuntimeConfig {
            barrier_timeout: Duration::from_millis(300),
            faults: FaultPlan::new().hang_worker(1, 6),
            ..RuntimeConfig::default()
        };
        let cluster = Cluster::with_config(model.clone(), vec![0, 0, 1, 1], 2, config);
        let plan = line_plan(&model);
        let (rib, stats) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        assert_eq!(rib, reference, "recovered run must be bit-identical");
        assert!(stats.recoveries >= 1, "the hang must trigger a recovery");

        let dump = std::fs::read_to_string(&dump_path).expect("flight dump written");
        // One JSONL record per dump; later records (the recovery epoch
        // bump, dumps from other tests) may share the file.
        let record = dump
            .lines()
            .find(|l| l.contains("\"trigger\":\"barrier-deadline:"))
            .expect("dump must carry the barrier-deadline trigger");
        let doc = s2_obs::parse_json(record).expect("dump record is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(s2_obs::Json::as_str),
            Some("s2-flight-recorder/v1")
        );
        s2_obs::recorder::set_dump_path(None);
        let _ = std::fs::remove_file(&dump_path);
    }

    /// Both ports of the `a`—`b` link, for scenario fail sets.
    fn link_ports(model: &NetworkModel, a: NodeId, b: NodeId) -> Vec<(NodeId, InterfaceId)> {
        for l in model.topology.links() {
            if (l.a.0 == a && l.b.0 == b) || (l.a.0 == b && l.b.0 == a) {
                return vec![l.a, l.b];
            }
        }
        panic!("no {a:?}—{b:?} link");
    }

    /// The full scenario lifecycle over a warm cluster: checkpoint, fail
    /// the middle link of the line (partitioning t3 from t0), warm
    /// re-convergence, patched DPV showing the loss, then rollback — and
    /// a final pass proving the baseline verdicts are byte-identical,
    /// i.e. the scenario did not poison the warm state.
    #[test]
    fn scenario_cycle_detects_partition_and_rolls_back_clean() {
        let model = Arc::new(line_model());
        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, None);
        let plan = line_plan(&model);
        let (rib, _) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        let rib = Arc::new(rib);

        let query = reach_t0_prefix(vec![NodeId(3)]);
        let baseline = cluster
            .run_dpv(rib.clone(), &query, &ClusterOptions::default())
            .unwrap();
        assert_eq!(baseline.reachable_pairs, 1);
        cluster.scenario_checkpoint(&rib).unwrap();

        // Fail m1—m2: the only t0↔t3 path. Warm rounds must propagate the
        // withdrawal, and the patched DPV must see the partition.
        let failed = link_ports(&model, NodeId(1), NodeId(2));
        cluster.scenario_begin(&failed).unwrap();
        let rounds = cluster
            .run_warm_fixpoint(&ClusterOptions::default())
            .unwrap();
        assert!(rounds >= 1);
        let scen = cluster
            .run_scenario_dpv(PatchStage::Reconverged, failed.clone(), &query)
            .unwrap();
        assert_ne!(*scen.rib, *rib, "failure must change the RIBs");
        assert_eq!(*scen.rib, cluster.collect_full_rib().unwrap());
        assert_eq!(scen.dpv.reachable_pairs, 0, "partitioned line must lose t3→t0");
        assert_eq!(scen.dpv.unreachable_pairs, vec![(NodeId(3), NodeId(0))]);

        // Fence + rollback, then a patch-free pass over the baseline RIB:
        // verdicts must be byte-identical to the warm baseline.
        cluster.fence().unwrap();
        cluster.scenario_rollback().unwrap();
        let again = cluster
            .run_scenario_dpv(PatchStage::Transient, Vec::new(), &query)
            .unwrap();
        cluster.shutdown();
        assert!(Arc::ptr_eq(&again.rib, &rib), "the transient stage patches no row");
        assert_eq!(again.dpv.reachable_pairs, 1);
        assert_eq!(again.dpv.verdict_sets, baseline.verdict_sets);
    }

    #[test]
    fn oom_on_splittable_shard_degrades_by_bisection() {
        // Find a budget that fits each single-prefix shard but not the
        // two-prefix shard, then check the full shard completes via
        // bisection instead of erroring.
        let model = Arc::new(line_model());
        let switches: Vec<_> = model
            .topology
            .nodes()
            .map(|n| s2_routing::SwitchModel::new(&model, n))
            .collect();
        let all = s2_shard::collect_prefixes(&switches);
        let (reference, full_stats) = run_cp(&model, vec![0, 0, 1, 1], 2);

        // Peak with singleton shards — the per-shard high-water mark.
        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, None);
        let split_plan = ShardPlan {
            shards: all.iter().map(|p| [*p].into_iter().collect()).collect(),
        };
        let (_, split_stats) = cluster
            .run_control_plane(&split_plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        let split_peak = split_stats.max_worker_peak();
        let full_peak = full_stats.max_worker_peak();
        assert!(split_peak < full_peak, "splitting must reduce peak memory");
        let budget = (split_peak + full_peak) / 2;

        let cluster = Cluster::new(model.clone(), vec![0, 0, 1, 1], 2, Some(budget));
        let plan = ShardPlan::single(all);
        let (rib, stats) = cluster
            .run_control_plane(&plan, &ClusterOptions::default())
            .unwrap();
        cluster.shutdown();
        assert_eq!(rib, reference, "degraded run must be bit-identical");
        assert!(stats.oom_splits >= 1, "the budget must force a bisection");
        assert!(stats.shards >= 2, "the shard must have been split");
    }

    /// Each of the three fix points, out of budget, names its protocol
    /// and the rounds it actually ran.
    #[test]
    fn non_convergence_names_the_protocol_and_the_rounds_run() {
        let model = Arc::new(line_model());
        let cluster = Cluster::new(model.clone(), vec![0, 1, 0, 1], 2, None);
        let budget = |max_rounds| ClusterOptions {
            max_rounds,
            ..ClusterOptions::default()
        };
        let not_converged = |protocol, rounds| RuntimeError::NotConverged { protocol, rounds };
        // The line runs no IGP, so one round would prove OSPF quiet.
        assert_eq!(cluster.run_ospf(&budget(0)), Err(not_converged("ospf", 0)));
        // t0's prefixes need four BGP rounds to reach t3.
        let err = cluster
            .run_control_plane(&line_plan(&model), &budget(2))
            .unwrap_err();
        assert_eq!(err, not_converged("bgp", 2));

        let (rib, _) = cluster
            .run_control_plane(&line_plan(&model), &ClusterOptions::default())
            .unwrap();
        cluster.scenario_checkpoint(&Arc::new(rib)).unwrap();
        // Failing t0—m1 withdraws t0's prefixes hop by hop down the line.
        cluster
            .scenario_begin(&link_ports(&model, NodeId(0), NodeId(1)))
            .unwrap();
        let err = cluster.run_warm_fixpoint(&budget(1)).unwrap_err();
        cluster.shutdown();
        assert_eq!(err, not_converged("bgp-warm", 1));
    }

    /// Every scenario of at most two failed links, on FatTree k=4 and a
    /// small DCN over one and two workers: the scenario RIB the
    /// controller assembles from the patched rows equals a whole-RIB
    /// collection of the same fleet state, the patched rows are exactly
    /// the nodes whose collected row differs from the baseline, and the
    /// transient stage patches no row.
    #[test]
    fn patched_scenario_ribs_equal_the_collected_ones() {
        let fattree = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(4));
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        let opts = ClusterOptions::default();
        for (topology, configs) in [(fattree.topology, fattree.configs), (dcn.topology, dcn.configs)] {
            let model = Arc::new(NetworkModel::build(topology, configs).unwrap());
            let nodes = model.topology.node_count();
            let query = reach_t0_prefix(vec![NodeId(0)]);
            for workers in [1, 2] {
                let owners = (0..nodes as u32).map(|n| n % workers).collect();
                let cluster = Cluster::new(model.clone(), owners, workers, None);
                cluster.run_ospf(&opts).unwrap();
                let plan = cluster.plan_shards(1, 0).unwrap();
                let (base, _) = cluster.run_control_plane(&plan, &opts).unwrap();
                let base = Arc::new(base);
                cluster.run_dpv(base.clone(), &query, &opts).unwrap();
                cluster.scenario_checkpoint(&base).unwrap();
                let links = model.topology.links();
                for (i, first) in links.iter().enumerate() {
                    for second in std::iter::once(None).chain(links[i + 1..].iter().map(Some)) {
                        let mut failed = vec![first.a, first.b];
                        failed.extend(second.into_iter().flat_map(|l| [l.a, l.b]));
                        let failed = Arc::new(failed);
                        cluster.scenario_begin(&failed).unwrap();
                        let (_, transient) = cluster.dp_patch(PatchStage::Transient, &failed).unwrap();
                        assert!(Arc::ptr_eq(&transient, &base), "{failed:?}");
                        cluster.run_warm_fixpoint(&opts).unwrap();
                        let (_, patched) = cluster.dp_patch(PatchStage::Reconverged, &failed).unwrap();
                        let full = cluster.collect_full_rib().unwrap();
                        let rows: Vec<NodeId> = model
                            .topology
                            .nodes()
                            .filter(|n| !Arc::ptr_eq(&patched.per_node[n.index()], &base.per_node[n.index()]))
                            .collect();
                        assert_eq!(rows, base.changed_nodes(&full), "{failed:?}");
                        assert_eq!(*patched, full, "{failed:?} on {workers} workers");
                        cluster.scenario_rollback().unwrap();
                    }
                }
                cluster.shutdown();
            }
        }
    }

    /// Warms the line up under `faults` — cold control plane, baseline
    /// DPV, checkpoint — then fails t0—m1, runs the warm fix point and
    /// collects the scenario RIB. Returns that RIB plus the cross-worker
    /// frames sent by the end of the warm-up and by the end of the run.
    fn warm_scenario_rib(model: &Arc<NetworkModel>, faults: FaultPlan) -> (RibSnapshot, u64, u64) {
        let config = RuntimeConfig {
            faults,
            ..RuntimeConfig::default()
        };
        // Alternate owners: every link crosses workers.
        let cluster = Cluster::with_config(model.clone(), vec![0, 1, 0, 1], 2, config);
        let opts = ClusterOptions::default();
        let (rib, _) = cluster.run_control_plane(&line_plan(model), &opts).unwrap();
        let rib = Arc::new(rib);
        let query = reach_t0_prefix(vec![NodeId(3)]);
        cluster.run_dpv(rib.clone(), &query, &opts).unwrap();
        cluster.scenario_checkpoint(&rib).unwrap();
        cluster
            .scenario_begin(&link_ports(model, NodeId(0), NodeId(1)))
            .unwrap();
        let sent = || cluster.net_stats().messages.load(Ordering::Relaxed);
        let warm_up = sent();
        cluster.run_warm_fixpoint(&opts).unwrap();
        let scenario = cluster.collect_full_rib().unwrap();
        let total = sent();
        cluster.shutdown();
        (scenario, warm_up, total)
    }

    /// Any one frame of the warm fix point, dropped or delayed, is healed
    /// by the warm resync: the scenario RIB equals the fault-free one,
    /// and the resync re-sent advertisements the fault-free run
    /// suppressed.
    #[test]
    fn warm_fixpoint_heals_a_dropped_or_delayed_frame() {
        let model = Arc::new(line_model());
        let (reference, warm_up, clean_total) = warm_scenario_rib(&model, FaultPlan::new());
        assert!(clean_total > warm_up, "the warm fix point must send frames");
        for faults in (warm_up..clean_total).flat_map(|nth| {
            [
                FaultPlan::new().drop_message(nth),
                FaultPlan::new().delay_message(nth, 1),
            ]
        }) {
            let (rib, _, total) = warm_scenario_rib(&model, faults.clone());
            assert_eq!(rib, reference, "{faults:?} changed the scenario RIB");
            assert!(
                total > clean_total,
                "{faults:?}: no resync re-sent anything"
            );
        }
    }
}
