//! The worker: owns the real nodes of one segment and executes the
//! phase commands issued by the controller's orchestrators.
//!
//! A worker holds:
//!
//! * one [`SwitchModel`] per **real** node (remote nodes are reached only
//!   through the sidecar — the shadow-node role),
//! * its private BDD manager and per-node predicates for the data plane,
//! * a [`MemGauge`] modelling the logical server's heap.
//!
//! BGP rounds are steps of the same [`BgpRounds`] engine the monolithic
//! baseline runs, with the local switches hosted and the remote
//! deliveries carried by the sidecar: the exact Jacobi schedule of the
//! baseline — which is what makes S2's RIBs bit-identical to it (§5.3).

use crate::faults::FaultState;
use crate::memstats::{MemGauge, MemReport};
use crate::pool::EvalPool;
use crate::sidecar::{Sidecar, TrafficSnapshot, WorkerId};
use crate::wire::{Message, PacketRef};
use bytes::Bytes;
use s2_bdd::serialize as bdd_io;
use s2_bdd::splice::Splicer;
use s2_bdd::BddManager;
use s2_dataplane::{
    merge_packet, properties, step_into, Fib, FinalKind, FinalPacket, ForwardOptions,
    NodePredicates, PacketKey, PacketSpace, StepOutput, SymbolicPacket,
};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use s2_routing::rounds::Delivery;
use s2_routing::{
    merge_row, BgpRounds, NetworkModel, RibRoute, RibRow, RibSnapshot, SwitchMap, SwitchModel,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Commands issued by the controller's orchestrators.
#[derive(Debug)]
pub enum Command {
    /// Compute and send this round's OSPF advertisements.
    OspfExport,
    /// Drain the inbox and apply OSPF advertisements. Replies `Changed`.
    OspfApply,
    /// Reset BGP state and originate routes for `shard`.
    BgpBegin {
        /// The active prefix shard (`None` = all prefixes).
        shard: Option<Arc<BTreeSet<Prefix>>>,
    },
    /// Compute and send this round's BGP advertisements.
    BgpExport,
    /// Drain the inbox, apply advertisements, rerun best-path selection.
    /// Replies `Changed`.
    BgpApply,
    /// Collect connected/static/OSPF routes of local nodes. Replies `Rib`.
    CollectBaseRib,
    /// Collect the BGP routes of the current shard. Replies `Rib`.
    CollectBgpRib,
    /// Build FIBs and port predicates for local nodes from the final RIBs.
    DpSetup {
        /// The converged global RIBs.
        rib: Arc<RibSnapshot>,
        /// Metadata bits in the packet space.
        meta_bits: u16,
        /// Waypoint write rules (node → metadata bit).
        waypoints: Arc<BTreeMap<NodeId, u16>>,
        /// TTL for forwarding.
        max_hops: u16,
    },
    /// Inject the header space at each locally hosted source.
    Inject {
        /// `(source node, destination space)` pairs; non-local ones are
        /// ignored (every worker receives the full list).
        injections: Arc<Vec<(NodeId, Prefix)>>,
    },
    /// Drain the inbox and process the local packet queue to exhaustion.
    /// Replies `Forwarded`.
    ForwardRound,
    /// Check which expected `(destination, prefixes)` arrivals hold for
    /// locally hosted destinations. Replies `Arrivals`.
    CheckArrivals {
        /// Sources to check (all injection nodes).
        sources: Arc<Vec<NodeId>>,
        /// Expected arrivals at each destination.
        expected: Arc<Vec<(NodeId, Vec<Prefix>)>>,
        /// Waypoint requirements: `(transit node, metadata bit)` that every
        /// arrived packet must carry.
        transits: Arc<Vec<(NodeId, u16)>>,
    },
    /// Collect per-source final-state summaries (and serialized header
    /// sets for the controller-side multipath consistency check).
    CollectFinals,
    /// Collect every prefix local nodes can originate (with aggregates
    /// separated) plus statically declared prefix dependencies, for the
    /// shard planner. Must run after OSPF convergence so redistribution
    /// targets are known. Replies `Prefixes`.
    CollectPrefixes,
    /// Collect the prefix dependencies *observed during route computation*
    /// (aggregate activations, conditional-advertisement evaluations) —
    /// the §7 soundness input. Replies `Deps`.
    CollectObservedDeps,
    /// Liveness / resynchronization probe: replies `Pong` with the same
    /// nonce. The controller uses it after a failed barrier to discard
    /// stale replies until the channel is back in lockstep.
    Ping(u64),
    /// Recovery: discard everything queued in the sidecar inbox, adopt
    /// `epoch` as current, reset sequence tracking, and clear staged
    /// same-worker deliveries from the aborted round.
    FlushInbox {
        /// The controller epoch to adopt.
        epoch: u32,
    },
    /// Recovery: forget the Adj-RIB-Out cache so the next `BgpExport`
    /// re-sends full state (heals receivers that missed an incremental
    /// update to loss, corruption, or a worker replacement).
    BgpResync,
    /// Resilience sweeps: snapshot the converged control-plane state of
    /// every local switch (plus the Adj-RIB-Out cache) so failure
    /// scenarios can restore it. Overwrites any previous checkpoint.
    /// The snapshot shares every switch with the live state until one
    /// side writes it (see [`BgpRounds`]).
    ScenarioCheckpoint,
    /// Resilience sweeps: restore the checkpoint, then mark the locally
    /// hosted `failed` ports as down. The next `BgpExport`/`BgpApply`
    /// rounds replay the warm state incrementally around the failure.
    /// The restore costs what the previous scenario touched.
    ScenarioBegin {
        /// Failed ports, cluster-wide (non-local entries are ignored).
        failed: Arc<Vec<(NodeId, InterfaceId)>>,
    },
    /// Resilience sweeps: restore the checkpoint (healthy state, no
    /// failed ports) and drop any scenario data-plane overlay. The
    /// checkpoint is kept for the next scenario.
    ScenarioRollback,
    /// Resilience sweeps: patch the data plane for the current scenario
    /// *in the warm BDD manager*. At the reconverged stage the worker
    /// builds the row of each hosted switch that moved since the
    /// scenario checkpoint, keeps those that differ from its `DpSetup`
    /// baseline and stages them for an overlay recompile (consulted
    /// before the baseline predicates); the transient stage patches no
    /// row. Either stage installs the failed-port mask and clears the
    /// packet level and finals for a fresh forwarding run. The compile
    /// itself is deferred to the following `DpScope` (restricted to the
    /// pass's destination scopes) or `DpCompile` (full-space) — the
    /// reply's changed-prefix extraction is what the controller needs
    /// to decide between them. Replies `ChangedDst`.
    DpPatch {
        /// Which stage's rows to patch.
        stage: PatchStage,
        /// Failed ports for the forwarding mask.
        failed_ports: Arc<Vec<(NodeId, InterfaceId)>>,
    },
    /// Destination-scoped DPV: install per-source scope predicates for
    /// the coming pass. Each source's verdicts are recomputed only over
    /// `dst_space ∧ scope` and spliced with the baseline stashed at
    /// `ScenarioCheckpoint` as `(base ∧ ¬scope) ∨ recomputed`. Cleared
    /// by the next `DpPatch`, `DpSetup`, or `ScenarioRollback`; a plain
    /// full-space pass simply never sends this command.
    DpScope {
        /// `(source, changed prefixes)` for **every** source of the
        /// coming pass. An empty prefix list skips the source entirely
        /// (scope = ∅: no injection, verdicts pass through from the
        /// baseline).
        scopes: Arc<Vec<(NodeId, Vec<Prefix>)>>,
    },
    /// Compile the overlay predicates staged by the last `DpPatch` over
    /// the *full* FIB of every changed node — the unscoped companion of
    /// `DpScope` (which compiles only routes overlapping the coming
    /// pass's destination scopes). Sent before a full-space scenario
    /// drive: the no-baseline and everything-changed fallbacks.
    DpCompile,
    /// Report the worker-side transport counters and in-flight frame
    /// count. Replies `Net`. In multi-process mode this is how the
    /// controller folds remote disturbances into its convergence checks.
    NetStats,
    /// Report this worker's unified metrics snapshot (the memory gauge
    /// bridged into the `s2-obs` registry form). Replies `Metrics`.
    Metrics,
    /// A command carrying the controller's trace context: the worker
    /// adopts `(epoch, parent)` as the causal parent of any spans the
    /// inner command opens, so a stitched Chrome trace shows worker
    /// DPV work under the controller span that dispatched it. Only the
    /// multi-process proxy produces this (in-process workers read the
    /// published context directly); nesting is rejected on decode.
    CtxWrap {
        /// The controller's trace epoch when the context was captured.
        epoch: u64,
        /// The controller-side span id to parent under (0 = root).
        parent: u64,
        /// The wrapped command.
        inner: Box<Command>,
    },
    /// Drain the worker *process*'s buffered trace events. Replies
    /// `TraceEvents`. Answered by the remote serve loop (the event
    /// sink is process-global); an in-process worker replies an empty
    /// batch because its events already sit in the controller's sink.
    TraceDrain,
    /// Terminate the worker thread.
    Shutdown,
}

/// The scenario stage a `DpPatch` prepares the data plane for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchStage {
    /// Before reconvergence: the baseline rows under the failure mask.
    Transient,
    /// After the warm fix point: the rows that moved off the baseline.
    Reconverged,
}

/// Replies from workers to the controller.
#[derive(Debug)]
pub enum Reply {
    /// Command completed.
    Ok,
    /// Whether local state changed this round.
    Changed(bool),
    /// Routes per local node.
    Rib(Vec<(NodeId, Vec<RibRoute>)>),
    /// Forwarding-round outcome.
    Forwarded {
        /// Packets processed locally.
        processed: usize,
        /// Packets sent to remote workers.
        sent_remote: usize,
    },
    /// Arrival-check outcome for local destinations.
    Arrivals {
        /// `(src, dst)` pairs that fully arrived.
        reachable: Vec<(NodeId, NodeId)>,
        /// `(src, dst)` pairs with missing traffic.
        unreachable: Vec<(NodeId, NodeId)>,
        /// `(src, dst, transit)` waypoint violations.
        waypoint_violations: Vec<(NodeId, NodeId, NodeId)>,
    },
    /// Final-state summary; `sets` carries `(src, kind, serialized set)`
    /// for the controller-side multipath check.
    Finals {
        /// Sources with a non-empty `Loop` union on this worker.
        loops: usize,
        /// Sources with a non-empty `Blackhole` union on this worker.
        blackholes: usize,
        /// Verdict-splice operations performed during this pass (zero on
        /// a full-space pass). Feeds `dpv.scoped.splice_ops`.
        splices: u64,
        /// Serialized per-(source, kind) unions.
        sets: Vec<(NodeId, FinalKind, Bytes)>,
    },
    /// Originated prefixes of local nodes.
    Prefixes {
        /// All originated prefixes.
        all: Vec<Prefix>,
        /// The subset that are aggregates.
        aggregates: Vec<Prefix>,
        /// Statically declared `(dependent, dependee)` pairs.
        deps: Vec<(Prefix, Prefix)>,
    },
    /// Observed prefix dependencies.
    Deps(Vec<(Prefix, Prefix)>),
    /// The worker hit its memory budget.
    OutOfMemory {
        /// Budget in bytes.
        budget: usize,
        /// Observed usage in bytes.
        observed: usize,
    },
    /// Liveness probe answer, echoing the `Ping` nonce.
    Pong(u64),
    /// Worker-side transport counters.
    Net {
        /// Snapshot of the worker's traffic stats.
        traffic: TrafficSnapshot,
        /// Frames accepted by the worker's transport but not yet drained
        /// by their destination.
        in_flight: u64,
    },
    /// This worker's unified metrics snapshot.
    Metrics(s2_obs::MetricsSnapshot),
    /// `DpPatch` outcome against the `DpSetup` baseline.
    ChangedDst {
        /// Per hosted node, the prefixes whose forwarding behavior
        /// changed: the old-vs-new route-set diff of the patched rows
        /// plus the prefixes of routes egressing locally owned failed
        /// ports. Nodes with no changes are omitted; an empty vector
        /// means the patch is a forwarding no-op.
        dst: Vec<(NodeId, Vec<Prefix>)>,
        /// The patched rows: each hosted node whose row differs from
        /// the baseline, with its whole new row, in node order. Empty
        /// at the transient stage.
        rows: Vec<(NodeId, RibRow)>,
    },
    /// A drained batch of worker-process trace events (`TraceDrain`).
    /// Event `name` fields index `names`; `now_ns` is the worker
    /// process's clock at drain time, the anchor the controller uses
    /// to rebase `ts_ns` values into its own timeline.
    TraceEvents {
        /// Worker-process monotonic clock at drain time.
        now_ns: u64,
        /// Span/event name table the batch's `name` ids index into.
        names: Vec<String>,
        /// The drained events, in emission order per lane.
        events: Vec<s2_obs::trace::Event>,
    },
    /// The command violated the controller/worker protocol (e.g. a
    /// data-plane command before `DpSetup`); the worker refuses it
    /// instead of panicking.
    Violation(String),
}

/// Counts a peer protocol violation (malformed or misrouted payload) on
/// the shared traffic stats. Violations feed the disturbance and loss
/// counters, so a round that skipped a bad frame can never converge on
/// it and the resync machinery re-sends the real state.
fn note_violation(sidecar: &Sidecar) {
    sidecar
        .net()
        .stats()
        .protocol_violations
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// One destination worker's outbound packets of a forward round: each
/// distinct BDD handle serialized once, at the index its packets name.
#[derive(Default)]
struct Batch {
    index: BTreeMap<s2_bdd::Bdd, u32>,
    bdds: Vec<Bytes>,
    packets: Vec<PacketRef>,
}

/// A staged OSPF delivery: (destination node, arriving interface, routes).
type PendingOspf = (NodeId, s2_net::topology::InterfaceId, Vec<(Prefix, u32)>);

/// The baseline data-plane verdict material, stashed at
/// `ScenarioCheckpoint` from the finals of the preceding full-space
/// pass. Destination-scoped passes splice against it: outside each
/// source's scope the baseline forwarding is provably unperturbed, so
/// its verdicts are reused verbatim.
#[derive(Default)]
struct DpBaseline {
    /// Per-(src, dst) `Arrive` unions with metadata bits **kept** —
    /// spliced arrivals feed the waypoint check, which inspects meta.
    arrivals: BTreeMap<(NodeId, NodeId), s2_bdd::Bdd>,
    /// Per-(src, kind) meta-stripped verdict unions (what
    /// `collect_finals` serializes).
    unions: BTreeMap<(NodeId, FinalKind), s2_bdd::Bdd>,
}

/// The worker's mutable state.
pub struct Worker {
    sidecar: Sidecar,
    faults: Arc<FaultState>,
    model: Arc<NetworkModel>,
    /// The local switches and their BGP round state (Adj-RIB-Out, dirty
    /// marks, staged same-worker deliveries).
    bgp: BgpRounds,
    shard: Option<Arc<BTreeSet<Prefix>>>,
    gauge: MemGauge,
    memory_budget: Option<usize>,
    pending_ospf: Vec<PendingOspf>,
    // Data plane.
    space: PacketSpace,
    manager: Option<BddManager>,
    preds: BTreeMap<NodeId, NodePredicates>,
    /// Scenario overlay: predicates recompiled for the current failure
    /// scenario, consulted before `preds`. Cleared on rollback.
    scenario_preds: BTreeMap<NodeId, NodePredicates>,
    /// The rows of a `DpPatch` whose overlay compile was deferred. The
    /// following `DpScope` compiles them restricted to the pass's
    /// destination scopes; a `DpCompile` (full-space pass) compiles
    /// them whole.
    pending_patch: Option<Vec<(NodeId, RibRow)>>,
    /// Control-plane snapshot for scenario restore.
    checkpoint: Option<BgpRounds>,
    /// The RIB snapshot the data plane was compiled from — the "old"
    /// side of the next `DpPatch`'s row and per-prefix diffs (only the
    /// hosted rows are read).
    dp_rib: Option<Arc<RibSnapshot>>,
    /// Baseline verdict stash for splicing (see [`DpBaseline`]). Taken
    /// at `ScenarioCheckpoint`, invalidated by `DpSetup` (the manager
    /// that owns its handles is recreated).
    dp_base: Option<DpBaseline>,
    /// Per-source splicers of the active destination-scoped pass
    /// (`None` = full-space pass, no surgery).
    scopes: Option<BTreeMap<NodeId, Splicer>>,
    fwd_opts: ForwardOptions,
    /// The current hop level's merged fragments (see
    /// [`s2_dataplane::PacketKey`]); merging before processing and before
    /// sending is what keeps the cross-worker BDD traffic polynomial.
    level: BTreeMap<PacketKey, s2_bdd::Bdd>,
    /// Fragments a peer sent in the current forward round, drained
    /// before this worker stepped it: they join the next level, so each
    /// fragment is stepped in the round its `hops` names, whatever the
    /// threads' timing.
    early: BTreeMap<PacketKey, s2_bdd::Bdd>,
    /// Forward rounds run since the last `Inject`: the `hops` of the
    /// fragments this round steps.
    round: u16,
    finals: Vec<FinalPacket>,
    /// Intra-worker evaluation pool (width 1 = sequential).
    pool: EvalPool,
    /// Reusable per-worker step buffers (see `forward_round`): avoids
    /// allocating three Vecs per switch per hop level.
    step_scratch: StepOutput,
    /// Whether `step_scratch` has served at least one step (the first
    /// use allocates; every later one is a counted reuse).
    scratch_primed: bool,
}

impl Worker {
    /// Builds the worker's state: one switch model per local node, an
    /// armed fault plan (shared cluster-wide) and an intra-worker thread
    /// count (1 = sequential).
    pub fn with_faults(
        sidecar: Sidecar,
        model: Arc<NetworkModel>,
        local_nodes: Vec<NodeId>,
        memory_budget: Option<usize>,
        faults: Arc<FaultState>,
        intra_worker_threads: usize,
    ) -> Self {
        let mut bgp =
            BgpRounds::new(local_nodes.iter().map(|&n| SwitchModel::new(&model, n)).collect());
        // Model-level link failures from the fault plan apply from
        // construction on: the control plane converges around them.
        let fail_links = faults.plan().failed_links();
        let failed: Vec<(NodeId, InterfaceId)> = model
            .topology
            .links()
            .iter()
            .filter(|link| {
                let ends = (link.a.0, link.b.0);
                fail_links.iter().any(|&(a, b)| ends == (a, b) || ends == (b, a))
            })
            .flat_map(|link| [link.a, link.b])
            .collect();
        bgp.fail_ports(&model, &failed);
        Worker {
            sidecar,
            faults,
            model,
            bgp,
            shard: None,
            gauge: MemGauge::new(),
            memory_budget,
            pending_ospf: Vec::new(),
            space: PacketSpace::new(0),
            manager: None,
            preds: BTreeMap::new(),
            scenario_preds: BTreeMap::new(),
            pending_patch: None,
            checkpoint: None,
            dp_rib: None,
            dp_base: None,
            scopes: None,
            fwd_opts: ForwardOptions::default(),
            level: BTreeMap::new(),
            early: BTreeMap::new(),
            round: 0,
            finals: Vec::new(),
            pool: EvalPool::new(intra_worker_threads),
            step_scratch: StepOutput::default(),
            scratch_primed: false,
        }
    }

    /// The command-processing loop; runs until `Shutdown`.
    ///
    /// Fault hooks: an armed *kill* makes the thread return before the
    /// triggering command (a crashed logical server — the controller sees
    /// closed channels); an armed *hang* keeps the thread alive but mute
    /// (the controller sees a barrier timeout), draining commands until
    /// the controller abandons the channel so the thread stays joinable.
    pub fn run(
        mut self,
        commands: std::sync::mpsc::Receiver<Command>,
        replies: std::sync::mpsc::Sender<Reply>,
    ) {
        let mut processed: u64 = 0;
        while let Ok(cmd) = commands.recv() {
            processed += 1;
            if self.faults.should_kill(self.sidecar.worker, processed) {
                return;
            }
            if self.faults.should_hang(self.sidecar.worker, processed) {
                while commands.recv().is_ok() {}
                return;
            }
            // Re-read the controller's published trace context at every
            // dispatch, so spans opened while handling this command (BDD
            // recompiles, DPV verdicts) parent under whatever controller
            // span issued it — the cross-thread half of trace stitching.
            s2_obs::trace::adopt_published();
            let reply = match cmd {
                Command::Shutdown => break,
                other => self.handle(other),
            };
            if replies.send(reply).is_err() {
                break; // controller vanished
            }
        }
    }

    fn handle(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::OspfExport => {
                self.ospf_export();
                Reply::Ok
            }
            Command::OspfApply => Reply::Changed(self.ospf_apply()),
            Command::BgpBegin { shard } => {
                self.shard = shard;
                self.bgp.begin(self.shard.as_deref());
                self.update_gauge();
                Reply::Ok
            }
            Command::BgpExport => {
                self.bgp_send();
                Reply::Ok
            }
            Command::BgpApply => {
                let changed = self.bgp_apply();
                self.charged(Reply::Changed(changed))
            }
            Command::CollectBaseRib => Reply::Rib(
                self.bgp.switches().map(|s| (s.node, s.base_rib_routes())).collect(),
            ),
            Command::CollectBgpRib => Reply::Rib(
                self.bgp.switches().map(|s| (s.node, s.bgp_rib_routes())).collect(),
            ),
            Command::DpSetup {
                rib,
                meta_bits,
                waypoints,
                max_hops,
            } => {
                self.dp_setup(rib, meta_bits, &waypoints, max_hops);
                self.update_gauge();
                Reply::Ok
            }
            Command::Inject { injections } => {
                if self.manager.is_none() {
                    return Reply::Violation("Inject before DpSetup".to_string());
                }
                self.inject(&injections);
                Reply::Ok
            }
            Command::ForwardRound => {
                if self.manager.is_none() {
                    return Reply::Violation("ForwardRound before DpSetup".to_string());
                }
                let (processed, sent_remote) = self.forward_round();
                self.charged(Reply::Forwarded {
                    processed,
                    sent_remote,
                })
            }
            Command::CheckArrivals {
                sources,
                expected,
                transits,
            } => self.check_arrivals(&sources, &expected, &transits),
            Command::CollectFinals => self.collect_finals(),
            Command::CollectPrefixes => {
                let mut all = Vec::new();
                let mut aggregates = Vec::new();
                let mut deps = Vec::new();
                for sw in self.bgp.switches() {
                    for (p, proto) in sw.originated_prefixes() {
                        all.push(p);
                        if proto == s2_net::policy::Protocol::Aggregate {
                            aggregates.push(p);
                        }
                    }
                    deps.extend(sw.prefix_dependencies());
                }
                Reply::Prefixes {
                    all,
                    aggregates,
                    deps,
                }
            }
            Command::CollectObservedDeps => {
                let mut deps = Vec::new();
                for sw in self.bgp.switches_mut(|_| true) {
                    deps.extend(sw.take_observed_deps());
                }
                Reply::Deps(deps)
            }
            Command::Ping(nonce) => Reply::Pong(nonce),
            Command::FlushInbox { epoch } => {
                self.sidecar.flush(epoch);
                // Staged same-worker deliveries belong to the aborted
                // round; the recovery rerun regenerates them.
                self.pending_ospf.clear();
                self.bgp.drop_staged();
                Reply::Ok
            }
            Command::BgpResync => {
                self.bgp.resync();
                Reply::Ok
            }
            Command::ScenarioCheckpoint => {
                self.checkpoint = Some(self.bgp.checkpoint());
                // The finals of the preceding full-space pass are the
                // splice baseline for destination-scoped scenario
                // passes. Without a data plane (or a prior pass) there
                // is nothing to stash; scoped passes then splice
                // against ∅, which is only reachable through a fresh
                // worker that will be driven full-space anyway.
                self.dp_base = self.stash_dp_baseline();
                Reply::Ok
            }
            Command::ScenarioBegin { failed } => {
                let Some(checkpoint) = self.checkpoint.as_ref() else {
                    return Reply::Violation("ScenarioBegin before ScenarioCheckpoint".to_string());
                };
                self.bgp.restore(checkpoint);
                // Only these switches' exports change until withdrawals
                // propagate.
                self.bgp.fail_ports(&self.model, &failed);
                self.update_gauge();
                Reply::Ok
            }
            Command::ScenarioRollback => {
                // Without a checkpoint there is nothing to restore — a
                // worker respawned mid-sweep starts from fresh (healthy)
                // switches — but the forwarding overlays must still be
                // cleared so the recovery re-warm starts clean on a
                // mixed fleet of survivors and replacements.
                if let Some(checkpoint) = self.checkpoint.as_ref() {
                    self.bgp.restore(checkpoint);
                }
                self.scenario_preds.clear();
                self.pending_patch = None;
                self.scopes = None;
                self.fwd_opts.failed_ports.clear();
                self.level.clear();
                self.early.clear();
                self.finals.clear();
                self.update_gauge();
                Reply::Ok
            }
            Command::DpPatch { stage, failed_ports } => {
                let Some(base) = self.dp_rib.clone() else {
                    return Reply::Violation("DpPatch before DpSetup".to_string());
                };
                self.scenario_preds.clear();
                self.scopes = None;
                // Only a switch that moved since the checkpoint can
                // differ from the baseline; of those, the rows that do
                // differ are patched and sent back.
                let rows: Vec<(NodeId, RibRow)> = match stage {
                    PatchStage::Transient => Vec::new(),
                    PatchStage::Reconverged => self
                        .bgp
                        .rib_moved()
                        .filter_map(|s| {
                            let routes = s.base_rib_routes().into_iter().chain(s.bgp_rib_routes());
                            let row = merge_row(routes);
                            (*row != *base.node(s.node)).then_some((s.node, row))
                        })
                        .collect(),
                };
                // Per patched node: the prefixes whose route set moved —
                // the raw material of the controller's changed-
                // destination scoping. The overlay compile is deferred to
                // the `DpScope`/`DpCompile` that follows, once the
                // controller knows how much of the space it needs.
                let mut changed_dst: BTreeMap<NodeId, BTreeSet<Prefix>> = rows
                    .iter()
                    .map(|(n, row)| (*n, changed_prefixes(base.node(*n), row)))
                    .collect();
                // Routes egressing a failed port change forwarding even
                // when the owning node's RIB does not (the transient,
                // pre-reconvergence stage): attribute their prefixes to
                // the port owner. Both the baseline and the patched row
                // are scanned — a route present on either side of the
                // mask flip perturbs its prefix.
                for &(n, iface) in failed_ports.iter() {
                    if !self.preds.contains_key(&n) {
                        continue;
                    }
                    let patched = rows.iter().find(|(m, _)| *m == n).map(|(_, row)| &**row);
                    for routes in [Some(base.node(n)), patched].into_iter().flatten() {
                        for r in routes {
                            if r.egress.contains(&iface) {
                                changed_dst.entry(n).or_default().insert(r.prefix);
                            }
                        }
                    }
                }
                self.pending_patch = Some(rows.clone());
                self.fwd_opts.failed_ports = failed_ports.iter().copied().collect();
                self.level.clear();
                self.early.clear();
                self.finals.clear();
                let dst = changed_dst.into_iter().map(|(n, ps)| (n, ps.into_iter().collect())).collect();
                self.charged(Reply::ChangedDst { dst, rows })
            }
            Command::DpScope { scopes } => {
                let filter: BTreeSet<Prefix> =
                    scopes.iter().flat_map(|(_, ps)| ps.iter().copied()).collect();
                match self.compile_overlays(Some(&filter)) {
                    Reply::Ok => self.set_scopes(&scopes),
                    other => other,
                }
            }
            Command::DpCompile => self.compile_overlays(None),
            Command::NetStats => {
                // `in_flight` strictly before the counter snapshot: a
                // concurrent reconnect bumps `reconnects` before resetting
                // the unacked count (see `tcp::dial`), so sampling in this
                // order means at least one of the two witnesses it.
                let in_flight = self.sidecar.net().in_flight() as u64;
                let traffic = self.sidecar.net().stats().full_snapshot();
                Reply::Net { traffic, in_flight }
            }
            // Only this worker's own memory gauge is bridged: in-process
            // workers share the process-global registry and traffic stats,
            // which the controller folds into the aggregate exactly once
            // (see `Cluster::collect_metrics`).
            Command::Metrics => Reply::Metrics(crate::metrics::mem_metrics(&self.mem_report())),
            Command::CtxWrap { epoch, parent, inner } => {
                // Normally unwrapped by the remote serve loop before the
                // worker thread sees it; handled here too so an
                // in-process wrap still stitches. Decode rejects nested
                // wraps, so this recursion is depth one.
                s2_obs::trace::adopt(epoch, parent);
                self.handle(*inner)
            }
            // In-process workers share the controller's event sink, so
            // draining here would steal events the controller already
            // owns — reply an empty batch. Remote processes answer this
            // in `remote::serve` before the command reaches the worker
            // thread.
            Command::TraceDrain => Reply::TraceEvents {
                now_ns: s2_obs::time::now_ns(),
                names: Vec::new(),
                events: Vec::new(),
            },
            Command::Shutdown => Reply::Violation("Shutdown reached handle()".to_string()),
        }
    }

    // ---- control plane ----

    fn ospf_export(&mut self) {
        // Phase 1 (parallel): per-switch export is read-only on the
        // switch models, so independent switches compute concurrently.
        let mut switches: Vec<&SwitchModel> = self.bgp.switches().collect();
        let exports: Vec<Vec<(Prefix, u32)>> =
            self.pool.map(&mut switches, |s| s.ospf.export().into_iter().collect());
        // Phase 2 (sequential, node-id order): staging and wire sends —
        // identical frame order to the sequential path.
        for (node, entries) in switches.iter().map(|s| s.node).zip(exports) {
            for adj in &self.model.ospf_adj[node.index()] {
                // The receiver applies its own interface cost; it finds the
                // adjacency by its receiving interface.
                let Some((peer, peer_if)) = self.model.topology.peer_of(node, adj.local_if) else {
                    continue; // adjacency without a link: nothing to export to
                };
                debug_assert_eq!(peer, adj.peer_node);
                if self.sidecar.is_local(peer) {
                    self.pending_ospf.push((peer, peer_if, entries.clone()));
                } else {
                    self.sidecar.send(
                        peer,
                        &Message::OspfAdvertisement {
                            target_node: peer,
                            via_iface: peer_if,
                            entries: entries.clone(),
                        },
                    );
                }
            }
        }
    }

    fn ospf_apply(&mut self) -> bool {
        let mut changed = false;
        let mut deliveries = std::mem::take(&mut self.pending_ospf);
        for msg in self.sidecar.drain() {
            if let Message::OspfAdvertisement {
                target_node,
                via_iface,
                entries,
            } = msg
            {
                deliveries.push((target_node, via_iface, entries));
            }
        }
        // Validate and group per target node (arrival order preserved
        // within a node; applying different nodes' deliveries in any
        // order is equivalent because each touches only its own switch).
        type OspfBatch = Vec<(BTreeMap<Prefix, u32>, u32, s2_net::topology::InterfaceId)>;
        let mut grouped: BTreeMap<NodeId, OspfBatch> = BTreeMap::new();
        for (node, via_iface, entries) in deliveries {
            // Target node and interface come off the wire: an unknown
            // node, a non-local target, or an interface that is not an
            // OSPF adjacency is a peer protocol violation — counted and
            // skipped, never a panic.
            let cost = self
                .model
                .ospf_adj
                .get(node.index())
                .and_then(|adjs| adjs.iter().find(|a| a.local_if == via_iface))
                .map(|a| a.cost);
            let adv: BTreeMap<Prefix, u32> = entries.into_iter().collect();
            match (cost, self.bgp.switch(node).is_some()) {
                (Some(cost), true) => {
                    grouped.entry(node).or_default().push((adv, cost, via_iface));
                }
                _ => note_violation(&self.sidecar),
            }
        }
        // Parallel SPF: each switch applies its own batch; flags are
        // OR-folded, so thread scheduling cannot affect the result.
        let pool = self.pool;
        let grouped = &grouped;
        let mut targets: Vec<&mut SwitchModel> =
            self.bgp.switches_mut(|node| grouped.contains_key(&node)).collect();
        let flags = pool.map(&mut targets, |sw| {
            let mut local_changed = false;
            if let Some(batch) = grouped.get(&sw.node) {
                for (adv, cost, via_iface) in batch {
                    local_changed |= sw.ospf.receive(adv, *cost, *via_iface);
                }
            }
            local_changed
        });
        changed |= flags.into_iter().any(|c| c);
        changed
    }

    /// The export half of a BGP round: each class body with remote
    /// targets goes out as one frame per destination worker. The frames
    /// are collected during the export and encoded and sent after it, so
    /// the trace splits `bgp.export` from `bgp.encode`.
    fn bgp_send(&mut self) {
        let net = self.sidecar.net();
        let mut frames: Vec<(NodeId, Message)> = Vec::new();
        {
            let _export = s2_obs::span!("bgp.export");
            self.bgp.export(&self.pool, |routes, targets| {
                let mut remote: BTreeMap<WorkerId, Vec<(NodeId, u32)>> = BTreeMap::new();
                for &(peer, session) in targets {
                    remote.entry(net.owner(peer)).or_default().push((peer, session));
                }
                for targets in remote.into_values() {
                    let first = targets[0].0;
                    let routes = routes.clone();
                    frames.push((first, Message::BgpClassAdvertisement { targets, routes }));
                }
            });
        }
        let _encode = s2_obs::span!("bgp.encode");
        for (first, msg) in &frames {
            #[cfg(test)]
            tests::BGP_FRAMES.with(|n| n.set(n.get() + 1));
            self.sidecar.send(*first, msg);
        }
    }

    /// The receive half: the drained frames' deliveries, each checked
    /// for a local target node and an in-range session, received, then
    /// decided.
    fn bgp_apply(&mut self) -> bool {
        let mut deliveries: Vec<Delivery> = Vec::new();
        {
            let _decode = s2_obs::span!("bgp.decode");
            for msg in self.sidecar.drain() {
                match msg {
                    // Decoded once; every target shares the body.
                    Message::BgpClassAdvertisement { targets, routes } => deliveries.extend(
                        targets.into_iter().map(|(node, session)| (node, session, routes.clone())),
                    ),
                    Message::BgpAdvertisement { target_node: node, target_session, routes } => {
                        deliveries.push((node, target_session, routes.into()))
                    }
                    _ => {}
                }
            }
        }
        let received = {
            let _receive = s2_obs::span!("bgp.receive");
            // Both the target node and the session index come off the
            // wire; a non-local node or out-of-range session is a peer
            // protocol violation, not a reason to panic.
            deliveries.retain(|&(node, session, _)| {
                let valid =
                    self.bgp.switch(node).is_some_and(|s| (session as usize) < s.sessions.len());
                if !valid {
                    note_violation(&self.sidecar);
                }
                valid
            });
            self.bgp.receive(&self.pool, deliveries)
        };
        let _decide = s2_obs::span!("bgp.decide");
        self.bgp.decide(&self.pool, self.shard.as_deref()) | received
    }

    // ---- data plane ----

    fn dp_setup(
        &mut self,
        rib: Arc<RibSnapshot>,
        meta_bits: u16,
        waypoints: &BTreeMap<NodeId, u16>,
        max_hops: u16,
    ) {
        self.space = PacketSpace::new(meta_bits);
        let mut manager = self.space.manager();
        self.preds = self
            .bgp
            .switches()
            .map(|s| {
                let fib = Fib::from_rib(rib.node(s.node));
                let p = NodePredicates::compile(&self.model, s.node, &fib, &self.space, &mut manager);
                (s.node, p)
            })
            .collect();
        self.manager = Some(manager);
        // The manager that owned any stashed baseline handles just died;
        // the new RIB is the diff baseline for the next `DpPatch`.
        self.dp_rib = Some(rib);
        self.dp_base = None;
        self.pending_patch = None;
        self.scopes = None;
        self.fwd_opts = ForwardOptions {
            max_hops,
            waypoint_bits: waypoints.clone(),
            ..Default::default()
        };
        self.level.clear();
        self.early.clear();
        self.finals.clear();
    }

    /// Builds the splice baseline from the current finals (the verdicts
    /// of the last full-space pass). `None` without a data plane.
    fn stash_dp_baseline(&mut self) -> Option<DpBaseline> {
        let manager = self.manager.as_mut()?;
        Some(DpBaseline {
            arrivals: properties::arrivals(manager, &self.finals),
            unions: properties::kind_unions(manager, &self.space, &self.finals),
        })
    }

    /// Compiles the overlay predicates staged by the last `DpPatch`.
    /// With a `filter` (the union of the coming pass's destination
    /// scopes) only routes overlapping it are compiled: the scoped
    /// drive never forwards a destination outside the filter, and for
    /// every destination *inside* it longest-prefix match over the
    /// filtered FIB equals LPM over the full FIB (any route matching
    /// such a destination overlaps the filter and is kept). Without a
    /// filter the whole FIB is compiled — the full-space fallbacks.
    fn compile_overlays(&mut self, filter: Option<&BTreeSet<Prefix>>) -> Reply {
        let Some(rows) = self.pending_patch.clone() else {
            // Nothing staged: a scope-only pass over an unpatched data
            // plane.
            return Reply::Ok;
        };
        let Some(manager) = self.manager.as_mut() else {
            return Reply::Violation("DpCompile before DpSetup".to_string());
        };
        let filter = filter.map(|f| (f, prefix_lengths(f)));
        for (n, routes) in &rows {
            let fib = match filter {
                Some((f, ref lengths)) => Fib::from_rib(&overlapping(routes, f, lengths)),
                None => Fib::from_rib(routes),
            };
            let p = NodePredicates::compile(&self.model, *n, &fib, &self.space, manager);
            self.scenario_preds.insert(*n, p);
        }
        self.charged(Reply::Ok)
    }

    /// Installs per-source destination scopes for the next scoped drive.
    /// Every source gets an entry; an empty prefix list means "skipped"
    /// (its splicer passes the baseline through untouched).
    fn set_scopes(&mut self, scopes: &[(NodeId, Vec<Prefix>)]) -> Reply {
        let Some(manager) = self.manager.as_mut() else {
            return Reply::Violation("DpScope before DpSetup".to_string());
        };
        let mut map = BTreeMap::new();
        for (src, prefixes) in scopes {
            let parts: Vec<s2_bdd::Bdd> = prefixes
                .iter()
                .map(|&p| self.space.dst_in(manager, p))
                .collect();
            let scope = manager.or_all(parts);
            map.insert(*src, Splicer::new(manager, scope));
        }
        self.scopes = Some(map);
        Reply::Ok
    }

    fn inject(&mut self, injections: &[(NodeId, Prefix)]) {
        let Some(manager) = self.manager.as_mut() else {
            return; // guarded in handle(); kept panic-free regardless
        };
        self.round = 0;
        for &(src, dst_space) in injections {
            if !self.sidecar.is_local(src) {
                continue;
            }
            let dst = self.space.dst_in(manager, dst_space);
            let clear = self.space.meta_clear(manager);
            let mut set = manager.and(dst, clear);
            // Destination-scoped pass: only the changed packet space is
            // re-verified; a source whose scope is empty injects nothing.
            if let Some(scopes) = self.scopes.as_ref() {
                let scope = scopes.get(&src).map_or(s2_bdd::Bdd::FALSE, Splicer::scope);
                set = manager.and(set, scope);
                if set.is_false() {
                    continue;
                }
            }
            merge_packet(
                manager,
                &mut self.level,
                SymbolicPacket {
                    src,
                    node: src,
                    ingress: None,
                    set,
                    hops: 0,
                },
            );
        }
    }

    /// Processes one hop level: ingest remote fragments (re-encoding their
    /// BDDs into the private manager), step every merged fragment, stage
    /// local next-hop fragments, and ship merged remote fragments — one
    /// frame per destination worker, each distinct BDD once per frame.
    ///
    /// Round `r` steps the fragments of `hops` at most `r`. A peer that
    /// finished round `r` before this worker drained its inbox has
    /// already sent fragments of `hops` `r + 1`; they are held for the
    /// next level, so the fragments stepped, and the frames sent, do not
    /// depend on which worker ran first.
    fn forward_round(&mut self) -> (usize, usize) {
        let Some(manager) = self.manager.as_mut() else {
            return (0, 0); // guarded in handle(); kept panic-free regardless
        };
        {
            // Spans the ingest phase, where remote fragments cross into
            // this worker's private BDD manager (the §4.3 re-encode
            // boundary). A batch carries each distinct payload once, and
            // each is decoded once.
            let _reencode_span = s2_obs::span!("bdd.reencode");
            for msg in self.sidecar.drain() {
                let Message::PacketBatch { bdds, packets } = msg else {
                    continue;
                };
                // An undecodable BDD payload is a per-message wire error
                // (counted, its packets skipped), not a worker crash; the
                // controller's disturbance tracking replays the phase.
                let sets: Vec<Option<s2_bdd::Bdd>> = bdds
                    .iter()
                    .map(|bdd| bdd_io::from_bytes(manager, bdd).ok())
                    .collect();
                let bad = sets.iter().filter(|set| set.is_none()).count();
                if bad > 0 {
                    self.sidecar
                        .net()
                        .stats()
                        .wire_errors
                        .fetch_add(bad as u64, std::sync::atomic::Ordering::Relaxed);
                }
                for p in packets {
                    // The decoder checked every index against `bdds`.
                    let Some(&Some(set)) = sets.get(p.bdd as usize) else {
                        continue;
                    };
                    let level = if p.hops > self.round { &mut self.early } else { &mut self.level };
                    merge_packet(
                        manager,
                        level,
                        SymbolicPacket {
                            src: p.src,
                            node: p.node,
                            ingress: p.ingress,
                            set,
                            hops: p.hops,
                        },
                    );
                }
            }
        }

        let mut processed = 0;
        let mut scratch_reuses: u64 = 0;
        let mut next: BTreeMap<PacketKey, s2_bdd::Bdd> = BTreeMap::new();
        let mut outbound: BTreeMap<PacketKey, s2_bdd::Bdd> = BTreeMap::new();
        for ((src, node, ingress, hops), set) in std::mem::take(&mut self.level) {
            // The packet's location came off the wire for remote
            // fragments; a node this worker does not host is a peer
            // protocol violation — count it and drop the fragment (the
            // disturbance machinery forces a replay). The scenario
            // overlay shadows the baseline predicates when present.
            let Some(preds) = self
                .scenario_preds
                .get(&node)
                .or_else(|| self.preds.get(&node))
            else {
                note_violation(&self.sidecar);
                continue;
            };
            let pkt = SymbolicPacket {
                src,
                node,
                ingress,
                set,
                hops,
            };
            // Reusable per-worker scratch instead of three fresh Vecs
            // per switch; each reuse is counted as a saved allocation.
            self.step_scratch.clear();
            if self.scratch_primed {
                scratch_reuses += 1;
            } else {
                self.scratch_primed = true;
            }
            step_into(
                &self.model.topology,
                preds,
                &self.space,
                manager,
                pkt,
                &self.fwd_opts,
                &mut self.step_scratch,
            );
            processed += 1;
            self.finals.append(&mut self.step_scratch.finals);
            for fwd in self.step_scratch.forwarded.drain(..) {
                if self.sidecar.is_local(fwd.node) {
                    merge_packet(manager, &mut next, fwd);
                } else {
                    merge_packet(manager, &mut outbound, fwd);
                }
            }
        }
        let sent_remote = outbound.len();
        {
            // The outbound half of the same boundary. One egress set fans
            // out to many (peer, class) keys; each destination worker gets
            // one batch holding each distinct handle's bytes once.
            let _encode_span = s2_obs::span!("bdd.encode");
            let mut batches: BTreeMap<WorkerId, Batch> = BTreeMap::new();
            for ((src, node, ingress, hops), set) in outbound {
                let batch = batches.entry(self.sidecar.net().owner(node)).or_default();
                let bdds = &mut batch.bdds;
                let bdd = *batch.index.entry(set).or_insert_with(|| {
                    #[cfg(test)]
                    tests::ENCODES.with(|n| n.set(n.get() + 1));
                    bdds.push(Bytes::from(bdd_io::to_bytes(manager, set)));
                    (bdds.len() - 1) as u32
                });
                batch.packets.push(PacketRef {
                    src,
                    node,
                    ingress,
                    hops,
                    bdd,
                });
            }
            s2_obs::event!("bdd.encode.outbound", batches.len());
            for (dst, Batch { bdds, packets, .. }) in batches {
                self.sidecar
                    .send_to_worker(dst, &Message::PacketBatch { bdds, packets });
            }
        }
        if scratch_reuses > 0 {
            self.sidecar
                .net()
                .stats()
                .scratch_reuses
                .fetch_add(scratch_reuses, std::sync::atomic::Ordering::Relaxed);
        }
        self.level = next;
        for ((src, node, ingress, hops), set) in std::mem::take(&mut self.early) {
            let pkt = SymbolicPacket {
                src,
                node,
                ingress,
                set,
                hops,
            };
            merge_packet(manager, &mut self.level, pkt);
        }
        self.round = self.round.saturating_add(1);
        (processed, sent_remote)
    }

    fn check_arrivals(
        &mut self,
        sources: &[NodeId],
        expected: &[(NodeId, Vec<Prefix>)],
        transits: &[(NodeId, u16)],
    ) -> Reply {
        let Some(manager) = self.manager.as_mut() else {
            return Reply::Violation("CheckArrivals before DpSetup".to_string());
        };
        let mut reachable = Vec::new();
        let mut unreachable = Vec::new();
        let mut waypoint_violations = Vec::new();
        let arrivals = properties::arrivals(manager, &self.finals);
        for (dst, prefixes) in expected {
            if !self.sidecar.is_local(*dst) {
                continue;
            }
            let want = self.space.dst_in_any(manager, prefixes);
            for &src in sources {
                if src == *dst {
                    continue;
                }
                let mut arrived = arrivals
                    .get(&(src, *dst))
                    .copied()
                    .unwrap_or(s2_bdd::Bdd::FALSE);
                // Destination-scoped pass: the finals only cover the
                // scoped space — splice the baseline arrival back in
                // before judging reachability and waypoints, so the
                // verdict is a full-space one.
                if let Some(scopes) = self.scopes.as_mut() {
                    let base = self
                        .dp_base
                        .as_ref()
                        .and_then(|b| b.arrivals.get(&(src, *dst)))
                        .copied()
                        .unwrap_or(s2_bdd::Bdd::FALSE);
                    arrived = match scopes.get_mut(&src) {
                        Some(splicer) => splicer.splice(manager, base, arrived),
                        // No scope recorded for this source: nothing was
                        // injected for it, the baseline is all there is.
                        None => manager.or(base, arrived),
                    };
                }
                let verdict = properties::judge_pair(manager, &self.space, want, arrived, transits);
                if verdict.reachable {
                    reachable.push((src, *dst));
                } else {
                    unreachable.push((src, *dst));
                }
                waypoint_violations.extend(verdict.missed.into_iter().map(|t| (src, *dst, t)));
            }
        }
        Reply::Arrivals {
            reachable,
            unreachable,
            waypoint_violations,
        }
    }

    fn collect_finals(&mut self) -> Reply {
        let Some(manager) = self.manager.as_mut() else {
            return Reply::Violation("CollectFinals before DpSetup".to_string());
        };
        let mut unions = properties::kind_unions(manager, &self.space, &self.finals);
        // Destination-scoped pass: the unions above only cover the
        // scoped space — splice each (src, kind) verdict with the
        // stashed baseline into a full-space union. Semantic equality
        // plus canonical serialization makes the result byte-identical
        // to a cold full-space recompute.
        if let Some(scopes) = self.scopes.as_mut() {
            let scoped = std::mem::take(&mut unions);
            let empty = DpBaseline::default();
            let base = self.dp_base.as_ref().unwrap_or(&empty);
            for (&src, splicer) in scopes.iter_mut() {
                for kind in [
                    FinalKind::Arrive,
                    FinalKind::Exit,
                    FinalKind::Blackhole,
                    FinalKind::Loop,
                ] {
                    let fresh = scoped.get(&(src, kind)).copied().unwrap_or(s2_bdd::Bdd::FALSE);
                    let basev = base
                        .unions
                        .get(&(src, kind))
                        .copied()
                        .unwrap_or(s2_bdd::Bdd::FALSE);
                    if fresh.is_false() && basev.is_false() {
                        continue;
                    }
                    let full = splicer.splice(manager, basev, fresh);
                    unions.insert((src, kind), full);
                }
            }
        }
        let splices = self
            .scopes
            .as_ref()
            .map_or(0, |s| s.values().map(Splicer::ops).sum());
        // Event counts are taken over the same canonical sets the verdict
        // bytes are: one per source with a non-empty union of the kind,
        // however many fragments (a merge- and timing-dependent number)
        // finalized into it.
        unions.retain(|_, set| !set.is_false());
        let count = |kind| unions.keys().filter(|(_, k)| *k == kind).count();
        let (loops, blackholes) = (count(FinalKind::Loop), count(FinalKind::Blackhole));
        let sets = unions
            .into_iter()
            .map(|((src, kind), set)| {
                (src, kind, Bytes::from(bdd_io::to_bytes(manager, set)))
            })
            .collect();
        Reply::Finals {
            loops,
            blackholes,
            splices,
            sets,
        }
    }

    // ---- bookkeeping ----

    /// Route bytes held by this worker: its switches' Adj-RIB-Ins and
    /// local RIBs plus its Adj-RIB-Out, each distinct body once.
    fn route_bytes(&self) -> usize {
        self.bgp.switch_bytes() + self.bgp.adj_out_bytes()
    }

    /// Updates the gauge; `ok` unless that puts the worker over budget.
    fn charged(&mut self, ok: Reply) -> Reply {
        self.update_gauge();
        if self.gauge.over_budget(self.memory_budget) {
            return Reply::OutOfMemory {
                budget: self.memory_budget.unwrap_or(0),
                observed: self.gauge.current(),
            };
        }
        ok
    }

    fn update_gauge(&mut self) {
        let routes = self.route_bytes();
        let bdd = self.manager.as_ref().map_or(0, BddManager::approx_bytes);
        self.gauge.set(routes + bdd);
    }

    fn mem_report(&mut self) -> MemReport {
        let routes = self.route_bytes();
        let bdd = self.manager.as_ref().map_or(0, BddManager::approx_bytes);
        MemReport {
            route_bytes: routes,
            bdd_bytes: bdd,
            peak_bytes: self.gauge.peak(),
            bdd_peak_nodes: self.manager.as_ref().map_or(0, BddManager::peak_node_count),
            bdd_cache: self
                .manager
                .as_ref()
                .map(BddManager::cache_stats)
                .unwrap_or_default(),
        }
    }
}

/// The distinct lengths of `filter`'s prefixes, ascending.
fn prefix_lengths(filter: &BTreeSet<Prefix>) -> Vec<u8> {
    let lengths: BTreeSet<u8> = filter.iter().map(|p| p.len()).collect();
    lengths.into_iter().collect()
}

/// The routes whose prefix overlaps some prefix of `filter` (whose
/// distinct `lengths` are given), in one walk: a filter prefix covering
/// a route is one lookup per shorter-or-equal length, and the filter
/// prefixes a route covers are one range, `(address, length)` order
/// putting them between the route's prefix and its last host.
fn overlapping(routes: &[RibRoute], filter: &BTreeSet<Prefix>, lengths: &[u8]) -> Vec<RibRoute> {
    routes
        .iter()
        .filter(|r| {
            let p = r.prefix;
            let mut covering = lengths.iter().take_while(|&&len| len <= p.len());
            covering.any(|&len| filter.contains(&Prefix::new(p.addr(), len)))
                || filter.range(p..=Prefix::host(p.last_addr())).next().is_some()
        })
        .cloned()
        .collect()
}

/// The all-pairs scan [`overlapping`] replaced, kept as its oracle.
#[cfg(test)]
fn overlapping_scan(routes: &[RibRoute], filter: &BTreeSet<Prefix>) -> Vec<RibRoute> {
    routes.iter().filter(|r| filter.iter().any(|p| p.overlaps(r.prefix))).cloned().collect()
}

/// The prefixes whose route set differs between `old` and `new`,
/// including prefixes present on only one side. Route order within a
/// prefix participates in the comparison: RIB snapshots are
/// deterministic, so an order change implies a selection change.
fn changed_prefixes(old: &[RibRoute], new: &[RibRoute]) -> BTreeSet<Prefix> {
    let mut by_prefix: BTreeMap<Prefix, (Vec<&RibRoute>, Vec<&RibRoute>)> = BTreeMap::new();
    for r in old {
        by_prefix.entry(r.prefix).or_default().0.push(r);
    }
    for r in new {
        by_prefix.entry(r.prefix).or_default().1.push(r);
    }
    by_prefix
        .into_iter()
        .filter(|(_, (o, n))| o != n)
        .map(|(p, _)| p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sidecar::SidecarNet;
    use s2_net::config::{DeviceConfig, InterfaceConfig, Vendor};
    use s2_net::policy::Protocol;
    use s2_net::topology::Topology;
    use s2_net::Ipv4Addr;
    use s2_routing::rounds::Body;
    use s2_routing::BgpRoute;

    thread_local! {
        /// BDD serializations performed by `forward_round` on this thread.
        pub(super) static ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// BGP frames `bgp_send` encoded and sent on this thread.
        pub(super) static BGP_FRAMES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A hub on worker 0 spraying one prefix over `LEAVES` ECMP links to
    /// leaves dealt alternately to workers 1 and 2: every outbound
    /// fragment of the first round carries the same BDD handle.
    const LEAVES: usize = 5;

    #[test]
    fn forward_round_sends_one_batch_per_destination_worker() {
        let mut topo = Topology::new();
        let hub = topo.add_node("hub");
        let mut configs = vec![DeviceConfig::new("hub", Vendor::A)];
        for l in 0..LEAVES {
            let name = format!("leaf{l}");
            let leaf = topo.add_node(name.as_str());
            topo.connect(hub, leaf);
            let mut cfg = DeviceConfig::new(name, Vendor::A);
            for (end, cfg) in [&mut configs[0], &mut cfg].into_iter().enumerate() {
                let addr = Ipv4Addr::new(172, 16, l as u8, end as u8);
                cfg.interfaces.push(InterfaceConfig::new(format!("e{l}"), addr, 31));
            }
            configs.push(cfg);
        }
        let model = Arc::new(NetworkModel::build(topo, configs).unwrap());
        let mut per_node = vec![Vec::new(); LEAVES + 1];
        per_node[0].push(RibRoute {
            prefix: "10.9.0.0/16".parse().unwrap(),
            protocol: Protocol::Bgp,
            egress: (0..LEAVES as u16).map(InterfaceId).collect(),
            is_local: false,
            as_path_len: 0,
        });

        let owners: Vec<WorkerId> = (0..=LEAVES as u32).map(|n| if n == 0 { 0 } else { 1 + n % 2 }).collect();
        let (net, inboxes) = SidecarNet::build(owners.clone(), 3);
        let mut inboxes = inboxes.into_iter();
        let sidecar = Sidecar::new(0, net.clone(), inboxes.next().unwrap());
        let mut receivers: Vec<Sidecar> =
            inboxes.zip(1..).map(|(inbox, w)| Sidecar::new(w, net.clone(), inbox)).collect();
        let mut worker = Worker::with_faults(sidecar, model, vec![hub], None, Arc::default(), 1);
        let per_node = per_node.into_iter().map(Into::into).collect();
        worker.dp_setup(Arc::new(RibSnapshot { per_node }), 0, &BTreeMap::new(), 0);
        worker.inject(&[(hub, "10.9.0.0/16".parse().unwrap())]);

        ENCODES.with(|n| n.set(0));
        assert_eq!(worker.forward_round(), (1, LEAVES), "every packet is counted");
        assert_eq!(ENCODES.with(std::cell::Cell::get), 2, "one encoding per destination");
        assert_eq!(net.stats().snapshot().0, 2, "one frame per destination");
        let mut payloads = Vec::new();
        for receiver in &mut receivers {
            let frames = receiver.drain();
            let [Message::PacketBatch { bdds, packets }] = frames.as_slice() else {
                panic!("worker {}: expected one batch, got {frames:?}", receiver.worker);
            };
            assert_eq!(bdds.len(), 1, "the shared BDD once per frame");
            assert!(packets.iter().all(|p| p.bdd == 0 && owners[p.node.index()] == receiver.worker));
            let leaves = owners.iter().filter(|&&w| w == receiver.worker).count();
            assert_eq!(packets.len(), leaves, "one packet per hosted leaf");
            payloads.push(bdds[0].clone());
        }
        assert_eq!(payloads[0], payloads[1], "both frames carry the one encoding");
    }

    /// The one-walk overlay filter keeps exactly the routes the scan
    /// keeps, on random prefixes packed into a small space so that most
    /// route and filter prefixes nest.
    #[test]
    fn overlapping_routes_equal_the_scan() {
        let mut rng = s2_net::rng::SeededRng::seed_from_u64(7);
        let mut prefix = || {
            let bits = rng.next_u64();
            let addr = Ipv4Addr::new(10, (bits % 4) as u8, (bits >> 8) as u8 % 4, (bits >> 16) as u8 % 8);
            Prefix::new(addr, 8 + ((bits >> 24) % 25) as u8)
        };
        let (mut kept, mut dropped) = (0, 0);
        for _ in 0..200 {
            let routes: BTreeSet<Prefix> = (0..60).map(|_| prefix()).collect();
            let routes: Vec<RibRoute> = routes
                .into_iter()
                .map(|prefix| RibRoute {
                    prefix,
                    protocol: Protocol::Bgp,
                    egress: Vec::new(),
                    is_local: false,
                    as_path_len: 0,
                })
                .collect();
            let filter: BTreeSet<Prefix> = (0..6).map(|_| prefix()).collect();
            let want = overlapping_scan(&routes, &filter);
            assert_eq!(overlapping(&routes, &filter, &prefix_lengths(&filter)), want, "{filter:?}");
            kept += want.len();
            dropped += routes.len() - want.len();
        }
        assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
    }

    /// FatTree k=`k` over two workers, nodes dealt alternately so that
    /// most sessions cross the fabric.
    fn fattree_fleet(k: usize) -> Vec<Worker> {
        fleet(fattree_model(k), 2)
    }

    fn fattree_model(k: usize) -> Arc<NetworkModel> {
        let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(k));
        Arc::new(NetworkModel::build(ft.topology, ft.configs).unwrap())
    }

    /// A small two-cluster DCN whose clusters announce aggregates over
    /// their ToR prefixes: its RIBs hold nested prefixes.
    fn dcn_model() -> Arc<NetworkModel> {
        let dcn = s2_topogen::dcn::generate(s2_topogen::dcn::DcnParams::scaled(2, 4, 2));
        Arc::new(NetworkModel::build(dcn.topology, dcn.configs).unwrap())
    }

    /// `model` over `workers` workers, nodes dealt round-robin.
    fn fleet(model: Arc<NetworkModel>, workers: u32) -> Vec<Worker> {
        let owners: Vec<u32> = (0..model.topology.node_count()).map(|i| i as u32 % workers).collect();
        let (net, inboxes) = SidecarNet::build(owners.clone(), workers);
        inboxes
            .into_iter()
            .enumerate()
            .map(|(w, inbox)| {
                let nodes = model.topology.nodes().filter(|n| owners[n.index()] == w as u32).collect();
                let sidecar = Sidecar::new(w as u32, net.clone(), inbox);
                Worker::with_faults(sidecar, model.clone(), nodes, None, Arc::default(), 1)
            })
            .collect()
    }

    /// The distinct (node, class, destination worker) triples `w`'s next
    /// `BgpExport` has something new for.
    fn class_triples(w: &Worker) -> BTreeSet<(NodeId, usize, WorkerId)> {
        let sent: BTreeMap<(NodeId, usize), &Body> =
            w.bgp.adj_out().map(|(node, si, body)| ((node, si), body)).collect();
        let mut triples = BTreeSet::new();
        for sw in w.bgp.export_due() {
            for (c, class) in sw.bgp_export().iter().enumerate() {
                for &si in &class.sessions {
                    let peer = sw.sessions[si].peer_node;
                    let unchanged = sent.get(&(sw.node, si)).is_some_and(|prev| ***prev == *class.routes);
                    if !w.sidecar.is_local(peer) && !unchanged {
                        triples.insert((sw.node, c, w.sidecar.net().owner(peer)));
                    }
                }
            }
        }
        triples
    }

    #[test]
    fn bgp_export_encodes_each_class_body_once() {
        let mut fleet = fattree_fleet(4);
        for w in &mut fleet {
            w.handle(Command::BgpBegin { shard: None });
        }
        let (mut frames, mut remote_sessions, mut rounds) = (0, 0, 0);
        loop {
            for w in &mut fleet {
                let expected = class_triples(w).len();
                remote_sessions += w
                    .bgp
                    .export_due()
                    .flat_map(|sw| &sw.sessions)
                    .filter(|s| !w.sidecar.is_local(s.peer_node))
                    .count();
                BGP_FRAMES.with(|n| n.set(0));
                w.handle(Command::BgpExport);
                let sent = BGP_FRAMES.with(std::cell::Cell::get);
                assert_eq!(sent, expected, "round {rounds}, worker {}", w.sidecar.worker);
                frames += sent;
            }
            let changed: Vec<bool> = fleet
                .iter_mut()
                .map(|w| matches!(w.handle(Command::BgpApply), Reply::Changed(true)))
                .collect();
            rounds += 1;
            if !changed.contains(&true) {
                break;
            }
        }
        assert!(frames > 0 && frames < remote_sessions, "{frames} frames for {remote_sessions} sessions");
        let stats = fleet[0].sidecar.net().stats().full_snapshot();
        assert_eq!((stats.wire_errors, stats.protocol_violations), (0, 0));
    }

    #[test]
    fn class_frame_counts_each_bad_target_and_delivers_the_rest() {
        let mut fleet = fattree_fleet(4);
        let (sender, receiver) = (&fleet[0], &fleet[1]);
        let local = receiver.bgp.switches().next().unwrap().node;
        let remote = sender.bgp.switches().next().unwrap().node;
        let sessions = receiver.bgp.switch(local).unwrap().sessions.len() as u32;
        let p: Prefix = "10.99.0.0/24".parse().unwrap();
        let route = BgpRoute {
            as_path: vec![1].into(),
            ..BgpRoute::local(p, s2_routing::Origin::Igp, Protocol::Bgp)
        };
        let msg = Message::BgpClassAdvertisement {
            // Valid, hosted by the sender, out-of-range session.
            targets: vec![(local, 0), (remote, 0), (local, sessions)],
            routes: Arc::from([route]),
        };
        sender.sidecar.send(local, &msg);
        let empty = Message::BgpClassAdvertisement {
            targets: Vec::new(),
            routes: Arc::from([]),
        };
        sender.sidecar.send(local, &empty);
        fleet[1].handle(Command::BgpBegin { shard: None });
        fleet[1].handle(Command::BgpApply);
        let stats = fleet[1].sidecar.net().stats().full_snapshot();
        assert_eq!(stats.protocol_violations, 3);
        assert_eq!(stats.wire_errors, 0);
        assert!(fleet[1].bgp.switch(local).unwrap().loc_rib().contains_key(&p), "the valid target got it");
    }

    /// The route bytes a walk of every Adj-RIB-Out body finds, each
    /// distinct body once (the switches' own running sums are checked
    /// against a walk in `s2_routing`).
    fn walked_route_bytes(w: &Worker) -> usize {
        let switches: usize = w.bgp.switches().map(SwitchModel::approx_bgp_bytes).sum();
        let mut bodies: Vec<&Body> = Vec::new();
        for (_, _, body) in w.bgp.adj_out() {
            if !bodies.iter().any(|seen| Arc::ptr_eq(seen, body)) {
                bodies.push(body);
            }
        }
        switches + bodies.iter().flat_map(|b| b.iter()).map(BgpRoute::approx_bytes).sum::<usize>()
    }

    /// Runs `cmd` on every worker; after the commands the gauge follows,
    /// the running route-byte sums must equal the full walk.
    fn on_all(fleet: &mut [Worker], cmd: impl Fn() -> Command) -> Vec<Reply> {
        fleet
            .iter_mut()
            .map(|w| {
                let c = cmd();
                let checked = matches!(
                    c,
                    Command::BgpApply
                        | Command::ForwardRound
                        | Command::ScenarioBegin { .. }
                        | Command::ScenarioRollback
                );
                let reply = w.handle(c);
                if checked {
                    assert_eq!(w.route_bytes(), walked_route_bytes(w));
                }
                reply
            })
            .collect()
    }

    fn converge_bgp(fleet: &mut [Worker]) {
        for _ in 0..64 {
            on_all(fleet, || Command::BgpExport);
            let replies = on_all(fleet, || Command::BgpApply);
            if !replies.iter().any(|r| matches!(r, Reply::Changed(true))) {
                return;
            }
        }
        panic!("BGP did not converge");
    }

    fn collect_rib(fleet: &mut [Worker]) -> Arc<RibSnapshot> {
        let mut store = s2_routing::RibStore::new(fleet[0].model.topology.node_count());
        let collects: [fn() -> Command; 2] = [|| Command::CollectBaseRib, || Command::CollectBgpRib];
        for cmd in collects {
            for reply in on_all(fleet, cmd) {
                let Reply::Rib(per_node) = reply else { panic!("expected a RIB") };
                for (node, routes) in per_node {
                    store.insert_all(node, routes);
                }
            }
        }
        Arc::new(store.into_snapshot())
    }

    fn forward_to_exhaustion(fleet: &mut [Worker]) {
        let sources: Arc<Vec<(NodeId, Prefix)>> = Arc::new(
            fleet[0]
                .model
                .topology
                .nodes()
                .map(|n| (n, "10.0.0.0/8".parse().unwrap()))
                .collect(),
        );
        on_all(fleet, || Command::Inject {
            injections: sources.clone(),
        });
        for _ in 0..64 {
            let busy = on_all(fleet, || Command::ForwardRound)
                .iter()
                .any(|r| matches!(r, Reply::Forwarded { processed, .. } if *processed > 0));
            if !busy {
                return;
            }
        }
        panic!("forwarding did not drain");
    }

    #[test]
    fn route_byte_cache_matches_a_full_walk() {
        let mut fleet = fattree_fleet(4);
        // Cold verify.
        on_all(&mut fleet, || Command::BgpBegin { shard: None });
        converge_bgp(&mut fleet);
        let rib = collect_rib(&mut fleet);
        on_all(&mut fleet, || Command::DpSetup {
            rib: rib.clone(),
            meta_bits: 0,
            waypoints: Arc::new(BTreeMap::new()),
            max_hops: 0,
        });
        forward_to_exhaustion(&mut fleet);
        // Every single-link failure, as a sweep drives it.
        on_all(&mut fleet, || Command::ScenarioCheckpoint);
        let links: Vec<_> = fleet[0].model.topology.links().to_vec();
        for link in &links {
            let failed = Arc::new(vec![link.a, link.b]);
            on_all(&mut fleet, || Command::ScenarioBegin {
                failed: failed.clone(),
            });
            converge_bgp(&mut fleet);
            on_all(&mut fleet, || Command::DpPatch {
                stage: PatchStage::Reconverged,
                failed_ports: failed.clone(),
            });
            on_all(&mut fleet, || Command::DpCompile);
            forward_to_exhaustion(&mut fleet);
            on_all(&mut fleet, || Command::ScenarioRollback);
        }
    }

    /// Everything a restore must bring back, copied out by value: each
    /// switch's full state (RIBs included), the Adj-RIB-Out bodies and
    /// the export and decide marks.
    #[derive(Debug, PartialEq)]
    struct EngineState {
        switches: Vec<String>,
        adj_out: Vec<(NodeId, usize, Vec<BgpRoute>)>,
        export_due: Vec<NodeId>,
        decide_due: Vec<NodeId>,
    }

    fn engine_state(bgp: &BgpRounds) -> EngineState {
        EngineState {
            switches: bgp.switches().map(|s| format!("{s:?}")).collect(),
            adj_out: bgp.adj_out().map(|(n, si, body)| (n, si, body.to_vec())).collect(),
            export_due: bgp.export_due().map(|s| s.node).collect(),
            decide_due: bgp.decide_due().map(|s| s.node).collect(),
        }
    }

    /// Converges `model` cold over `workers` workers and checkpoints it.
    fn checkpointed_fleet(model: &Arc<NetworkModel>, workers: u32) -> Vec<Worker> {
        let mut fleet = fleet(model.clone(), workers);
        on_all(&mut fleet, || Command::BgpBegin { shard: None });
        converge_bgp(&mut fleet);
        on_all(&mut fleet, || Command::ScenarioCheckpoint);
        fleet
    }

    /// After every single-link scenario, the rollback leaves each
    /// worker's engine equal to a copy of its checkpoint taken before
    /// the first scenario. A begin straight after another scenario, as
    /// the daemon issues it, restores too: each scenario then converges
    /// to the RIB it reaches from a rollback.
    #[test]
    fn rollback_restores_the_checkpoint_exactly() {
        for model in [fattree_model(4), dcn_model()] {
            for workers in [1, 2] {
                let mut fleet = checkpointed_fleet(&model, workers);
                let saved: Vec<EngineState> =
                    fleet.iter().map(|w| engine_state(w.checkpoint.as_ref().unwrap())).collect();
                let mut ribs = Vec::new();
                for link in model.topology.links() {
                    let failed = Arc::new(vec![link.a, link.b]);
                    on_all(&mut fleet, || Command::ScenarioBegin {
                        failed: failed.clone(),
                    });
                    converge_bgp(&mut fleet);
                    ribs.push(collect_rib(&mut fleet));
                    on_all(&mut fleet, || Command::ScenarioRollback);
                    for (w, want) in fleet.iter().zip(&saved) {
                        assert_eq!(engine_state(&w.bgp), *want, "after failing {link:?}");
                    }
                }
                for (link, rib) in model.topology.links().iter().zip(&ribs) {
                    let failed = Arc::new(vec![link.a, link.b]);
                    on_all(&mut fleet, || Command::ScenarioBegin {
                        failed: failed.clone(),
                    });
                    converge_bgp(&mut fleet);
                    assert_eq!(collect_rib(&mut fleet), *rib, "{link:?} after the previous scenario");
                }
            }
        }
    }

    /// The indexed scope walk equals the scan it replaced on every
    /// scenario of at most two failed links, its changed destinations
    /// taken from `DpPatch` and closed over the prefix dependency graph
    /// as the controller does. On the DCN some changed prefix overlaps
    /// another routed one, so the covering and covered lookups both run.
    #[test]
    fn indexed_scopes_equal_the_scan_on_every_double_failure() {
        for (model, nested) in [(fattree_model(4), false), (dcn_model(), true)] {
            let mut fleet = checkpointed_fleet(&model, 2);
            let base = collect_rib(&mut fleet);
            on_all(&mut fleet, || Command::DpSetup {
                rib: base.clone(),
                meta_bits: 0,
                waypoints: Arc::new(BTreeMap::new()),
                max_hops: 0,
            });
            let (mut all, mut aggregates, mut deps) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
            for reply in on_all(&mut fleet, || Command::CollectPrefixes) {
                let Reply::Prefixes { all: a, aggregates: g, deps: d } = reply else { panic!("expected prefixes") };
                all.extend(a);
                aggregates.extend(g);
                deps.extend(d);
            }
            let dpdg = s2_shard::dpdg::Dpdg::build_with_deps(&all, &aggregates, &deps);
            let components = s2_shard::impact::Components::of(&dpdg);
            let index = crate::scope::ScopeIndex::build(&model, &base);
            let routed: BTreeSet<Prefix> = base.per_node.iter().flat_map(|row| row.iter()).map(|r| r.prefix).collect();
            let sources: Vec<NodeId> = model.topology.nodes().collect();
            let links = model.topology.links();
            let mut overlapped = false;
            for (i, first) in links.iter().enumerate() {
                for second in std::iter::once(None).chain(links[i + 1..].iter().map(Some)) {
                    let mut failed = vec![first.a, first.b];
                    failed.extend(second.into_iter().flat_map(|l| [l.a, l.b]));
                    let failed = Arc::new(failed);
                    on_all(&mut fleet, || Command::ScenarioBegin {
                        failed: failed.clone(),
                    });
                    converge_bgp(&mut fleet);
                    let mut changed_dst: BTreeMap<NodeId, BTreeSet<Prefix>> = BTreeMap::new();
                    for reply in on_all(&mut fleet, || Command::DpPatch {
                        stage: PatchStage::Reconverged,
                        failed_ports: failed.clone(),
                    }) {
                        let Reply::ChangedDst { dst, .. } = reply else { panic!("expected ChangedDst") };
                        for (n, ps) in dst {
                            changed_dst.entry(n).or_default().extend(ps);
                        }
                    }
                    for set in changed_dst.values_mut() {
                        components.close(set);
                    }
                    overlapped |= changed_dst.values().flatten().any(|&p| {
                        routed.iter().any(|&q| q != p && q.overlaps(p))
                    });
                    assert_eq!(
                        crate::scope::scope_sources(&index, &changed_dst, &sources),
                        crate::scope::scope_sources_scan(&model, &base, &changed_dst, &sources),
                        "failed {failed:?}"
                    );
                    on_all(&mut fleet, || Command::ScenarioRollback);
                }
            }
            assert_eq!(overlapped, nested, "nested changed prefixes");
        }
    }
}
