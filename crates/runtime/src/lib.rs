//! # s2-runtime
//!
//! The distributed execution substrate of S2 (§3.2): a controller, worker
//! threads (the "logical servers"), and sidecar message routers.
//!
//! ## Fidelity notes
//!
//! The paper runs workers as separate JVM processes connected by gRPC.
//! Here each worker is an OS thread that owns its mutable state
//! exclusively; the *only* way control-plane routes or symbolic packets
//! move between workers is through the [`sidecar`] as length-delimited
//! binary messages ([`wire`]) — the same share-nothing discipline, with
//! the transport swapped for in-process channels. In particular:
//!
//! * a worker holds [`SwitchModel`]s only for its **real** nodes; remote
//!   nodes exist only as entries in the sidecar's node→worker map (the
//!   shadow-node role),
//! * symbolic packets crossing workers are serialized from the sender's
//!   BDD manager and *re-encoded* into the receiver's private manager,
//!   exactly the design §4.3 adopts,
//! * per-worker memory is tracked by [`memstats::MemGauge`]s (routes +
//!   BDD nodes), standing in for the JVM `-Xmx` accounting of the paper's
//!   testbed (see DESIGN.md, substitution #6).
//!
//! ## Fault tolerance
//!
//! The runtime survives worker crashes and hangs (shard-granular
//! checkpoint + recovery, see [`Cluster::recover`]), degrades adaptively
//! when a shard exceeds its memory budget (component-aware bisection),
//! and hardens the wire against frame loss, duplication, reordering and
//! corruption (checksummed frames with per-link sequence numbers, see
//! [`wire`]). All failure modes can be injected deterministically through
//! a [`FaultPlan`] for chaos testing.
//!
//! ## Transport
//!
//! The data fabric between sidecars is pluggable ([`transport`]): the
//! default backend keeps the seed's in-process channels, while the
//! [`tcp`] backend speaks length-prefixed framed TCP with per-peer
//! connection supervision (heartbeats, reconnect with backoff + jitter,
//! bounded outboxes with credit-based flow control) and powers the
//! multi-process mode ([`remote`]): a controller process plus `s2 worker`
//! processes connected over sockets.
//!
//! [`SwitchModel`]: s2_routing::SwitchModel

#![deny(missing_docs)]

pub mod admin;
pub mod codec;
pub mod controller;
pub mod credit;
pub mod faults;
pub mod memstats;
pub mod metrics;
pub mod pool;
pub mod remote;
pub mod scope;
pub mod sidecar;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use admin::{
    AdminRequest, AdminResponse, CheckpointError, DeltaSpec, VerdictSummary, WarmCheckpoint,
    WorkerMetrics,
};
pub use codec::Wire;
pub use controller::{
    Cluster, ClusterOptions, CpRunStats, DpvQuery, DpvRunStats, DpvScopedStats, FleetScrape,
    RuntimeConfig, RuntimeError, ScenarioPass,
};
pub use faults::{DaemonPhase, FaultPlan, FaultState};
pub use memstats::{CacheStats, MemGauge, MemReport};
pub use metrics::RunMetrics;
pub use pool::EvalPool;
pub use sidecar::{Sidecar, SidecarNet, TrafficSnapshot, TrafficStats};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{ChannelTransport, Inbox, Transport, TransportError, TransportKind};
pub use wire::{Message, WireError};
pub use worker::PatchStage;
