//! The S2 verifier: partition → distributed control plane → distributed
//! data plane → report.

use crate::query::VerificationRequest;
use crate::report::S2Report;
use s2_net::config::DeviceConfig;
use s2_net::topology::{NodeId, Topology};
use s2_net::{NetError, Prefix};
use s2_partition::schemes::{compute, Scheme};
use s2_partition::Partition;
use s2_routing::{NetworkModel, RibSnapshot};
use s2_runtime::{Cluster, ClusterOptions, CpRunStats, RuntimeConfig, RuntimeError};
use std::sync::Arc;

/// Verification options.
#[derive(Debug, Clone)]
pub struct S2Options {
    /// Number of workers (logical servers).
    pub workers: u32,
    /// Partition scheme (§4.1 / §5.6).
    pub scheme: Scheme,
    /// Number of prefix shards; 0 or 1 disables sharding (§4.5).
    pub shards: usize,
    /// Seed for the shard planner's equal-size shuffle.
    pub shard_seed: u64,
    /// Fix-point round budget per protocol per shard.
    pub max_rounds: usize,
    /// TTL for symbolic forwarding (0 = engine default).
    pub max_hops: u16,
    /// Threads each worker uses to evaluate independent switches within
    /// a round (the intra-worker pool; 1 = sequential). Results are
    /// byte-identical at any width — this only trades CPU for latency.
    /// The fleet runs with the larger of this and
    /// `runtime.intra_worker_threads`.
    pub intra_worker_threads: usize,
    /// Fault-tolerance and transport configuration (barrier timeout,
    /// recovery/bisection budgets, per-worker memory budget, fault
    /// injection).
    pub runtime: RuntimeConfig,
}

impl Default for S2Options {
    fn default() -> Self {
        S2Options {
            workers: 1,
            scheme: Scheme::Metis,
            shards: 1,
            shard_seed: 7,
            max_rounds: s2_routing::DEFAULT_MAX_ROUNDS,
            max_hops: 0,
            intra_worker_threads: 1,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Verification failures.
#[derive(Debug)]
pub enum S2Error {
    /// Configuration parsing / model building failed.
    Model(NetError),
    /// The distributed run failed (non-convergence, worker OOM, ...).
    Runtime(RuntimeError),
    /// Multi-process setup failed (bind, accept, handshake).
    Io(std::io::Error),
}

impl std::fmt::Display for S2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            S2Error::Model(e) => write!(f, "model error: {e}"),
            S2Error::Runtime(e) => write!(f, "runtime error: {e}"),
            S2Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for S2Error {}

impl From<NetError> for S2Error {
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    fn from(e: NetError) -> Self {
        S2Error::Model(e)
    }
}

impl From<RuntimeError> for S2Error {
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    fn from(e: RuntimeError) -> Self {
        S2Error::Runtime(e)
    }
}

impl From<std::io::Error> for S2Error {
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    fn from(e: std::io::Error) -> Self {
        S2Error::Io(e)
    }
}

/// The Batfish-style ingestion front end: parses vendor configuration
/// texts (auto-detecting each dialect) and builds the resolved network
/// model against `topology`.
pub fn ingest(topology: Topology, config_texts: &[String]) -> Result<NetworkModel, S2Error> {
    let configs: Result<Vec<DeviceConfig>, NetError> =
        config_texts.iter().map(|t| s2_net::vendor::parse(t)).collect();
    Ok(NetworkModel::build(topology, configs?)?)
}

/// A verifier instance: a partitioned model plus a running worker fleet.
///
/// Dropping the verifier without calling [`S2Verifier::shutdown`] leaks the
/// worker threads until process exit; prefer explicit shutdown.
pub struct S2Verifier {
    pub(crate) model: Arc<NetworkModel>,
    partition: Partition,
    pub(crate) cluster: Cluster,
    pub(crate) opts: S2Options,
}

impl S2Verifier {
    /// Partitions `model` and spawns the worker fleet.
    pub fn new(model: NetworkModel, opts: &S2Options) -> Result<Self, S2Error> {
        let partition = compute(&model.topology, opts.workers, opts.scheme);
        Self::with_partition(model, partition, opts)
    }

    /// Spawns the fleet with an explicit partition (used by the partition-
    /// scheme experiments).
    pub fn with_partition(
        model: NetworkModel,
        partition: Partition,
        opts: &S2Options,
    ) -> Result<Self, S2Error> {
        let model = Arc::new(model);
        let config = RuntimeConfig {
            intra_worker_threads: opts.intra_worker_threads.max(opts.runtime.intra_worker_threads),
            ..opts.runtime.clone()
        };
        let cluster = Cluster::with_config(
            model.clone(),
            partition.assignment.clone(),
            partition.num_workers,
            config,
        );
        Ok(S2Verifier {
            model,
            partition,
            cluster,
            opts: opts.clone(),
        })
    }

    /// Multi-process mode: partitions `model`, listens on `listener`, and
    /// waits for `opts.workers` `s2 worker` processes to register before
    /// returning. The workers form their own TCP data fabric; this
    /// process only orchestrates. Recovery is unavailable in this mode
    /// (a lost worker process fails the run), and `opts.runtime.faults`
    /// are not shipped to remote workers.
    pub fn listen(
        model: NetworkModel,
        opts: &S2Options,
        listener: std::net::TcpListener,
    ) -> Result<Self, S2Error> {
        let partition = compute(&model.topology, opts.workers, opts.scheme);
        let model = Arc::new(model);
        let config = RuntimeConfig {
            intra_worker_threads: opts.intra_worker_threads.max(opts.runtime.intra_worker_threads),
            ..opts.runtime.clone()
        };
        let cluster = Cluster::connect_remote(
            model.clone(),
            partition.assignment.clone(),
            partition.num_workers,
            listener,
            config,
        )?;
        Ok(S2Verifier {
            model,
            partition,
            cluster,
            opts: opts.clone(),
        })
    }

    /// The resolved model.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    pub(crate) fn cluster_opts(&self) -> ClusterOptions {
        ClusterOptions {
            max_rounds: self.opts.max_rounds,
            max_hops: self.opts.max_hops,
        }
    }

    /// Runs only the distributed control-plane simulation, returning the
    /// converged RIBs (and the shard count used).
    ///
    /// The run is self-checking (§7): the dependencies observed during
    /// route computation are validated against the shard plan, and any
    /// unforeseen cross-shard dependency triggers a merge-and-recompute of
    /// the affected shards. With the built-in planner this never fires —
    /// the planner already knows every dependency source — but it protects
    /// externally supplied plans and future model extensions.
    pub fn simulate(&self) -> Result<(RibSnapshot, CpRunStats, usize), S2Error> {
        let _span = s2_obs::span!("verify.cp");
        let copts = self.cluster_opts();
        // IGP first so the shard planner sees redistribution targets; the
        // control-plane run repeats the (cheap, already converged) OSPF
        // rounds. A worker lost during this pre-phase is recovered and
        // the pre-phase retried (losses inside the control-plane run are
        // handled by the cluster's own checkpointed retry loop).
        let mut attempts = self.opts.runtime.max_recoveries;
        let plan = loop {
            let attempt = self.cluster.run_ospf(&copts).and_then(|_| {
                self.cluster
                    .plan_shards(self.opts.shards, self.opts.shard_seed)
            });
            match attempt {
                Ok(plan) => break plan,
                Err(RuntimeError::WorkerLost { .. }) if attempts > 0 => {
                    attempts -= 1;
                    self.cluster.recover()?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        let (rib, stats, final_plan) = self.cluster.run_control_plane_refined(plan, &copts)?;
        Ok((rib, stats, final_plan.shards.len()))
    }

    /// Runs the full verification: control plane, then the data-plane
    /// checks described by `request`.
    pub fn verify(&self, request: &VerificationRequest) -> Result<S2Report, S2Error> {
        let _span = s2_obs::span!("verify");
        let (rib, cp, shards) = self.simulate()?;
        // One RIB, shared by the workers' data plane and the report.
        let rib = Arc::new(rib);
        let dpv = {
            let _dpv_span = s2_obs::span!("verify.dpv");
            self.cluster.run_dpv(rib.clone(), &request.dpv_query(), &self.cluster_opts())?
        };
        // Collected immediately after the data-plane phase, so the
        // aggregate BDD counters equal the DpvRunStats cache stats.
        let metrics = self.cluster.collect_metrics()?;
        Ok(S2Report {
            rib,
            partition: self.partition.clone(),
            cp,
            dpv,
            session_diagnostics: self.model.session_diagnostics.clone(),
            shards,
            metrics,
        })
    }

    /// Runs only distributed data-plane verification against an
    /// already-converged RIB snapshot (the §5.8 experiments time this
    /// phase in isolation).
    pub fn run_dpv_only(
        &self,
        rib: Arc<RibSnapshot>,
        request: &VerificationRequest,
    ) -> Result<s2_runtime::DpvRunStats, S2Error> {
        Ok(self
            .cluster
            .run_dpv(rib, &request.dpv_query(), &self.cluster_opts())?)
    }

    /// Checks reachability of a single prefix between two nodes — the
    /// paper's single-pair query (§5.8).
    pub fn verify_single_pair(
        &self,
        src: NodeId,
        dst: NodeId,
        prefix: Prefix,
    ) -> Result<S2Report, S2Error> {
        self.verify(&VerificationRequest::single_pair(src, dst, prefix))
    }

    /// Scrapes the fleet leniently: per-worker metric snapshots plus
    /// the merged aggregate. A dead or hung worker yields `None` for
    /// its slot instead of failing the whole scrape.
    pub fn scrape_metrics(&self) -> s2_runtime::FleetScrape {
        self.cluster.scrape_metrics()
    }

    /// Pulls buffered trace events from remote worker processes into
    /// this process's trace sink so one Chrome trace export covers the
    /// whole fleet. No-op for in-process fleets or when tracing is off.
    pub fn drain_remote_traces(&self) {
        self.cluster.drain_remote_traces()
    }

    /// Stops the worker fleet.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::fattree_request;
    use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

    #[test]
    fn fattree4_verifies_clean_on_multiple_workers() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);
        let opts = S2Options {
            workers: 4,
            shards: 3,
            ..Default::default()
        };
        let verifier = S2Verifier::new(model, &opts).unwrap();
        let report = verifier.verify(&request).unwrap();
        verifier.shutdown();
        assert!(report.all_clear(), "{}", report.summary());
        assert_eq!(report.dpv.reachable_pairs, 8 * 7);
        assert_eq!(report.shards, 3);
        assert!(report.cp.messages > 0);
        assert!(report.peak_worker_memory() > 0);
    }

    #[test]
    fn results_invariant_to_workers_schemes_and_shards() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);

        let mut reference: Option<Arc<RibSnapshot>> = None;
        for (workers, scheme, shards) in [
            (1, Scheme::Metis, 1),
            (2, Scheme::Random { seed: 3 }, 2),
            (3, Scheme::Expert, 5),
            (4, Scheme::CommHeavy, 4),
        ] {
            let opts = S2Options {
                workers,
                scheme,
                shards,
                ..Default::default()
            };
            let verifier = S2Verifier::new(model.clone(), &opts).unwrap();
            let report = verifier.verify(&request).unwrap();
            verifier.shutdown();
            assert!(report.all_clear(), "w={workers} {}", report.summary());
            match &reference {
                None => reference = Some(report.rib),
                Some(r) => assert_eq!(&report.rib, r, "w={workers} scheme differs"),
            }
        }
    }

    #[test]
    fn injected_acl_misconfig_is_reported() {
        let ft = generate(FatTreeParams::new(4));
        let mut configs = ft.configs.clone();
        // core0 drops traffic to pod0-edge0's prefix.
        s2_topogen::inject::acl_block_dst(&mut configs, "core0", "10.0.0.0/24".parse().unwrap());
        let model = NetworkModel::build(ft.topology.clone(), configs).unwrap();
        let request = fattree_request(&ft);
        let verifier = S2Verifier::new(model, &S2Options { workers: 2, ..Default::default() }).unwrap();
        let report = verifier.verify(&request).unwrap();
        verifier.shutdown();
        // Traffic through the other cores still arrives (ECMP), so
        // reachability holds, but the ACL produces blackholed copies and a
        // multipath inconsistency (same headers arrive AND blackhole).
        assert!(report.dpv.blackholes > 0);
        assert!(!report.dpv.multipath_violations.is_empty());
    }

    #[test]
    fn waypoint_query_flags_bypasses() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        // Demand all traffic from pod0-edge0 to pod1-edge0 pass core0 —
        // ECMP spreads over all cores, so this must be violated.
        let src = ft.edge(0, 0);
        let dst = ft.edge(1, 0);
        let request = VerificationRequest::single_pair(src, dst, FatTree::server_prefix(1, 0))
            .via(ft.cores[0]);
        let verifier = S2Verifier::new(model, &S2Options { workers: 2, ..Default::default() }).unwrap();
        let report = verifier.verify(&request).unwrap();
        verifier.shutdown();
        assert!(!report.dpv.waypoint_violations.is_empty());
    }

    #[test]
    fn ingest_parses_vendor_texts() {
        let ft = generate(FatTreeParams::new(4));
        let texts: Vec<String> = s2_topogen::emit_configs(&ft.configs)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let model = ingest(ft.topology.clone(), &texts).unwrap();
        assert_eq!(model.topology.node_count(), 20);
        assert!(model.session_diagnostics.is_empty());
    }

    #[test]
    fn oom_surfaces_as_runtime_error() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let opts = S2Options {
            workers: 2,
            runtime: RuntimeConfig { memory_budget: Some(64), ..Default::default() },
            ..Default::default()
        };
        let verifier = S2Verifier::new(model, &opts).unwrap();
        let err = verifier.simulate().unwrap_err();
        verifier.shutdown();
        assert!(matches!(err, S2Error::Runtime(RuntimeError::OutOfMemory { .. })));
    }
}
