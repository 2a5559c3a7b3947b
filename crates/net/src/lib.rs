//! # s2-net
//!
//! Network-model substrate for the S2 distributed configuration verifier.
//!
//! This crate provides everything "below" the routing protocols:
//!
//! * IPv4 addresses and prefixes ([`ip`]), including a longest-prefix-match
//!   trie ([`trie`]) shared by RIB lookups and FIB construction,
//! * the physical topology graph ([`topology`]): nodes, interfaces, links,
//! * the vendor-independent (VI) configuration model ([`config`]): BGP
//!   process, route maps ([`policy`]), ACLs ([`acl`]), aggregation,
//! * parsers for two synthetic vendor dialects with deliberately divergent
//!   vendor-specific behaviours ([`vendor`]), mirroring how the paper's
//!   prototype reuses Batfish's multi-vendor parsing front end,
//! * the seeded shuffle ([`rng`]) behind shard assignment and the
//!   `Random` partition scheme.
//!
//! The model is deliberately free of any distributed-systems concern: the
//! partitioner, runtime and verifier crates all consume these types without
//! this crate knowing about workers or shards.

#![deny(missing_docs)]

pub mod acl;
pub mod config;
pub mod error;
pub mod ip;
pub mod policy;
pub mod rng;
pub mod topology;
pub mod trie;
pub mod vendor;

pub use acl::{Acl, AclAction, AclEntry};
pub use config::{BgpNeighbor, BgpProcess, DeviceConfig, InterfaceConfig, Network, OspfProcess};
pub use error::NetError;
pub use ip::{Ipv4Addr, Prefix};
pub use policy::{
    AsPathAction, CommunityAction, MatchCondition, PolicyAction, RouteMap, RouteMapClause,
    RouteMapDisposition,
};
pub use topology::{InterfaceId, Link, NodeId, Topology};
pub use trie::PrefixTrie;
