//! # S2 — a distributed configuration verifier
//!
//! A Rust reproduction of *"S2: A Distributed Configuration Verifier for
//! Hyper-Scale Networks"* (SIGCOMM 2025). S2 **scales out** network
//! configuration verification: the network model is partitioned across
//! workers, control-plane simulation runs as a distributed fix point with
//! **prefix sharding** bounding per-worker memory, and data-plane
//! verification forwards symbolic packets between per-worker BDD managers.
//!
//! ## Quick start
//!
//! ```
//! use s2::{S2Options, S2Verifier, VerificationRequest};
//! use s2_topogen::fattree::{generate, FatTreeParams, FatTree};
//!
//! // Synthesize a small FatTree running eBGP.
//! let ft = generate(FatTreeParams::new(4));
//! let model = s2_routing::NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
//!
//! // Ask: can every edge switch reach every server prefix?
//! let mut endpoints = Vec::new();
//! for p in 0..4 {
//!     for e in 0..2 {
//!         endpoints.push((ft.edge(p, e), vec![FatTree::server_prefix(p, e)]));
//!     }
//! }
//! let request = VerificationRequest::all_pair_reachability(
//!     endpoints,
//!     "10.0.0.0/8".parse().unwrap(),
//! );
//!
//! // Verify with 2 workers and 4 prefix shards.
//! let opts = S2Options { workers: 2, shards: 4, ..Default::default() };
//! let verifier = S2Verifier::new(model, &opts).unwrap();
//! let report = verifier.verify(&request).unwrap();
//! assert!(report.dpv.unreachable_pairs.is_empty());
//! assert_eq!(report.dpv.reachable_pairs, 8 * 7);
//! ```
//!
//! ## Pipeline
//!
//! 1. **Parse** — vendor configuration texts become the vendor-independent
//!    model (`s2-net`); [`ingest`] runs this front end.
//! 2. **Partition** — the topology is split into segments, one per worker,
//!    balancing estimated load first, communication second (`s2-partition`).
//! 3. **Control plane** — the CPO drives Algorithm 1: synchronized
//!    export/apply rounds per protocol (IGP before BGP) and per prefix
//!    shard, flushing each shard's RIBs to the controller's store.
//! 4. **Data plane** — the DPO compiles per-node port predicates on each
//!    worker's private BDD manager and forwards symbolic packets, with
//!    cross-worker packets serialized and re-encoded.
//! 5. **Properties** — reachability, waypoint, loop, blackhole and
//!    multipath-consistency verdicts are aggregated into the
//!    [`S2Report`].

#![deny(missing_docs)]

pub mod daemon;
mod delta;
pub mod query;
pub mod topofile;
pub mod report;
#[cfg(test)]
mod scoped_oracle;
pub mod sweep;
pub mod verifier;

pub use daemon::{Daemon, DaemonConfig, DaemonCrash};
pub use query::VerificationRequest;
pub use report::S2Report;
pub use sweep::{ResilienceReport, ScenarioOutcome, ScenarioStatus, SweepOptions};
pub use verifier::{ingest, S2Error, S2Options, S2Verifier};

// Re-export the workspace layers a downstream user needs.
pub use s2_partition::schemes::Scheme;
pub use s2_runtime::{FaultPlan, RuntimeConfig, RuntimeError};
pub use s2_routing::{NetworkModel, RibSnapshot};
