//! Route types: BGP route attributes, OSPF routes and final RIB entries.

use s2_net::policy::{Community, Protocol};
use s2_net::topology::InterfaceId;
use s2_net::{Ipv4Addr, Prefix};

/// BGP ORIGIN attribute (we model IGP and INCOMPLETE; lower is preferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Originated by a `network` statement.
    Igp = 0,
    /// Redistributed from another protocol.
    Incomplete = 1,
}

/// A BGP route with the attributes the decision process uses.
///
/// `weight` is the Cisco-style local-only attribute: locally originated
/// routes get [`LOCAL_WEIGHT`] so they always beat learned routes; it is
/// never advertised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop address (the advertising interface's address; unspecified
    /// for locally originated routes).
    pub next_hop: Ipv4Addr,
    /// AS path, nearest AS first.
    pub as_path: Vec<u32>,
    /// LOCAL_PREF (higher preferred). Default 100.
    pub local_pref: u32,
    /// Multi-exit discriminator (lower preferred). Default 0.
    pub med: u32,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// Communities, kept sorted and deduplicated.
    pub communities: Vec<Community>,
    /// Local-only weight (higher preferred, not advertised).
    pub weight: u32,
    /// The protocol this route was injected from (BGP for learned routes;
    /// Connected/Static/Ospf for redistributed ones; Aggregate for
    /// aggregates). Drives the prefix-dependency analysis.
    pub source_protocol: Protocol,
}

/// Weight assigned to locally originated routes.
pub const LOCAL_WEIGHT: u32 = 32768;

/// Default LOCAL_PREF.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

impl BgpRoute {
    /// A locally originated route (network statement / redistribution).
    pub fn local(prefix: Prefix, origin: Origin, source_protocol: Protocol) -> Self {
        BgpRoute {
            prefix,
            next_hop: Ipv4Addr::UNSPECIFIED,
            as_path: Vec::new(),
            local_pref: DEFAULT_LOCAL_PREF,
            med: 0,
            origin,
            communities: Vec::new(),
            weight: LOCAL_WEIGHT,
            source_protocol,
        }
    }

    /// Adds a community, keeping the list sorted and unique.
    pub fn add_community(&mut self, c: Community) {
        if let Err(pos) = self.communities.binary_search(&c) {
            self.communities.insert(pos, c);
        }
    }

    /// Removes a community if present.
    pub fn remove_community(&mut self, c: Community) {
        if let Ok(pos) = self.communities.binary_search(&c) {
            self.communities.remove(pos);
        }
    }

    /// Whether the route carries community `c`.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.binary_search(&c).is_ok()
    }

    /// Whether `asn` appears anywhere in the AS path (the eBGP loop check).
    pub fn as_path_contains(&self, asn: u32) -> bool {
        self.as_path.contains(&asn)
    }

    /// Approximate heap + inline size in bytes, used by the per-worker
    /// memory gauges to model the paper's route-memory bottleneck.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.as_path.capacity() * std::mem::size_of::<u32>()
            + self.communities.capacity() * std::mem::size_of::<Community>()
    }

    /// [`BgpRoute::approx_bytes`] of a clone of this route: a clone's
    /// vectors hold exactly their elements.
    pub fn cloned_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.as_path.len() * std::mem::size_of::<u32>()
            + self.communities.len() * std::mem::size_of::<Community>()
    }

    /// Equality on every attribute but the next hop.
    pub fn same_attributes(&self, other: &BgpRoute) -> bool {
        let BgpRoute {
            prefix,
            next_hop: _,
            as_path,
            local_pref,
            med,
            origin,
            communities,
            weight,
            source_protocol,
        } = other;
        self.prefix == *prefix
            && self.as_path == *as_path
            && self.local_pref == *local_pref
            && self.med == *med
            && self.origin == *origin
            && self.communities == *communities
            && self.weight == *weight
            && self.source_protocol == *source_protocol
    }
}

/// How a selected route leaves the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Via {
    /// Locally originated (no egress; the node itself holds the prefix).
    Local,
    /// Via the BGP session with the given index into the node's session
    /// table (egress = that session's local interface).
    Session(u32),
    /// Via OSPF out of a specific interface.
    Interface(InterfaceId),
    /// Discard (null0 static routes, summary-only aggregates without
    /// contributors at this node).
    Discard,
}

/// A route installed in the final per-node RIB, ready for FIB construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Protocol that won the prefix at this node (admin distance).
    pub protocol: Protocol,
    /// ECMP egress set: the interfaces packets to this prefix leave on.
    /// Empty for local/discard routes.
    pub egress: Vec<InterfaceId>,
    /// Whether the node itself originates/holds this prefix.
    pub is_local: bool,
    /// AS-path length (diagnostics; 0 for non-BGP routes).
    pub as_path_len: u32,
}

impl RibRoute {
    /// Approximate in-memory size in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.egress.capacity() * std::mem::size_of::<InterfaceId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn local_route_defaults() {
        let r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        assert_eq!(r.weight, LOCAL_WEIGHT);
        assert_eq!(r.local_pref, DEFAULT_LOCAL_PREF);
        assert!(r.as_path.is_empty());
        assert_eq!(r.med, 0);
    }

    #[test]
    fn communities_stay_sorted_unique() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        r.add_community(5);
        r.add_community(1);
        r.add_community(5);
        r.add_community(3);
        assert_eq!(r.communities, vec![1, 3, 5]);
        assert!(r.has_community(3));
        r.remove_community(3);
        assert!(!r.has_community(3));
        r.remove_community(99); // no-op
        assert_eq!(r.communities, vec![1, 5]);
    }

    #[test]
    fn loop_check_scans_path() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        r.as_path = vec![65001, 65002];
        assert!(r.as_path_contains(65002));
        assert!(!r.as_path_contains(65003));
    }

    #[test]
    fn origin_ordering_prefers_igp() {
        assert!(Origin::Igp < Origin::Incomplete);
    }

    #[test]
    fn byte_accounting_grows_with_path() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        let base = r.approx_bytes();
        r.as_path = vec![1; 16];
        assert!(r.approx_bytes() > base);
    }
}
