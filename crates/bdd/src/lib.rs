//! # s2-bdd
//!
//! A reduced, ordered binary decision diagram (ROBDD) engine, built for the
//! S2 verifier's symbolic packet representation. It plays the role JDD
//! plays in the paper's Java prototype:
//!
//! * hash-consed nodes with a unique table ([`manager`]),
//! * memoized `AND`/`OR`/`XOR`/`NOT`/`ITE` and quantification ([`ops`]),
//! * satisfying-assignment counting and enumeration ([`sat`]),
//! * a compact DAG wire format for shipping BDDs between workers, each of
//!   which owns a *private* manager ([`serialize`] — the BDDIO role),
//! * helpers to encode prefixes, exact values and integer ranges over a
//!   bit-vector variable block ([`builder`]).
//!
//! ## Design notes
//!
//! Every [`Bdd`] handle is only meaningful together with the manager that
//! created it. Managers are deliberately **not** shared: S2 gives each
//! worker its own manager precisely so BDD operations on different workers
//! never contend (§4.3 of the paper). Cross-worker transfer must go through
//! [`serialize::serialize`] / [`serialize::deserialize`].

#![deny(missing_docs)]

pub mod builder;
pub mod manager;
pub mod ops;
pub mod sat;
pub mod serialize;
pub mod splice;

pub use manager::{Bdd, BddManager, CacheConfig, CacheStats, Mark};
