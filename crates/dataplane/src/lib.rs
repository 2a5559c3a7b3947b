//! # s2-dataplane
//!
//! Data-plane verification substrate: FIB construction, BDD port
//! predicates, symbolic packet forwarding and property checking — the DPV
//! half of the verifier (§4.3–4.4 of the S2 paper).
//!
//! * [`packetspace`] — the 104+m-bit symbolic header layout,
//! * [`fib`] — RIB → longest-prefix-match forwarding state,
//! * [`predicates`] — per-node forwarding/ACL predicates (`p_fwd`, `p_in`,
//!   `p_out`, local, drop),
//! * [`forward`] — the per-hop symbolic transformation and the monolithic
//!   BFS engine (the distributed runtime reuses the per-hop step),
//! * [`properties`] — the one verdict judge for the five query families:
//!   reachability, waypoint, multipath consistency, loop-freedom,
//!   blackhole-freedom.

#![deny(missing_docs)]

pub mod fib;
pub mod forward;
pub mod packetspace;
pub mod predicates;
pub mod properties;

pub use fib::{Fib, FibEntry};
pub use forward::{
    forward, merge_packet, packet_key, step, step_into, step_overlaid_into, FinalKind,
    FinalPacket, ForwardOptions, ForwardResult, PacketKey, StepOutput, SymbolicPacket, TraceStep,
    DEFAULT_MAX_HOPS,
};
pub use packetspace::PacketSpace;
pub use predicates::{NodePredicates, Overlay};
pub use properties::{
    arrivals, judge_pair, kind_unions, multipath_inconsistent, verdict_delta, PairVerdict,
    VerdictDelta,
};
