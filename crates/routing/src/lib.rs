//! # s2-routing
//!
//! Control-plane substrate for the S2 verifier: the Batfish-role switch
//! models (BGP decision process, route maps, aggregation, OSPF) plus the
//! synchronous fix-point engine the monolithic baseline uses directly and
//! the distributed runtime re-drives over workers.
//!
//! Layered as:
//!
//! * [`route`] — route/attribute types and the final [`route::RibRoute`],
//! * [`policy_eval`] — route-map evaluation with vendor-specific
//!   `remove-private-as` semantics,
//! * [`bgp`] — best-path comparison and ECMP multipath selection,
//! * [`model`] — topology+config resolution: L3 adjacency inference, BGP
//!   session establishment (with misconfiguration diagnostics), OSPF
//!   adjacencies,
//! * [`ospf`] — round-based IGP computation,
//! * [`switch`] — the per-switch state machine (Adj-RIB-Ins, local RIB,
//!   export/import/decide),
//! * [`rounds`] — the BGP round engine: dirty-switch export, Adj-RIB-Out
//!   suppression, local delivery, receive and decide,
//! * [`fixpoint`] — Algorithm-1 rounds to convergence,
//! * [`rib`] — the accumulated final RIBs.

#![deny(missing_docs)]

pub mod bgp;
pub mod fixpoint;
pub mod model;
pub mod ospf;
pub mod policy_eval;
pub mod rib;
pub mod rounds;
pub mod route;
pub mod switch;

pub use fixpoint::{converge_bgp, converge_ospf, BgpStats, RoutingError, DEFAULT_MAX_ROUNDS};
pub use model::{BgpSession, NetworkModel, OspfAdj, SessionDiagnostic};
pub use rib::{merge_row, RibRow, RibSnapshot, RibStore};
pub use rounds::{BgpRounds, SwitchMap};
pub use route::{BgpRoute, Origin, RibRoute, Via};
pub use switch::{ExportClass, SwitchModel};
