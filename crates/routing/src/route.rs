//! Route types: BGP route attributes, OSPF routes and final RIB entries.

use s2_net::policy::{Community, Protocol};
use s2_net::topology::InterfaceId;
use s2_net::{Ipv4Addr, Prefix};
use std::sync::Arc;

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
///
/// The AS path and the communities are shared, immutable lists: a clone
/// costs two reference-count bumps, and a change builds a new list
/// (copy-on-write), so no route sees another's edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop address (the advertising interface's address; unspecified
    /// for locally originated routes).
    pub next_hop: Ipv4Addr,
    /// AS path, nearest AS first.
    pub as_path: Arc<[u32]>,
    /// LOCAL_PREF (higher preferred). Default 100.
    pub local_pref: u32,
    /// Multi-exit discriminator (lower preferred). Default 0.
    pub med: u32,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// Communities, kept sorted and deduplicated.
    pub communities: Arc<[Community]>,
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

/// The bytes a route charges besides its lists: the inline size of a
/// route that owns its AS path and communities as two `Vec`s (pointer,
/// capacity and length each), the layout the memory gauges model
/// (DESIGN substitution 6).
pub const ROUTE_BYTES: usize = 80;

/// Whether two shared lists hold the same elements: the same allocation
/// first, then element by element.
fn same_list<T: PartialEq>(a: &Arc<[T]>, b: &Arc<[T]>) -> bool {
    Arc::ptr_eq(a, b) || a[..] == b[..]
}

impl BgpRoute {
    /// A locally originated route (network statement / redistribution).
    pub fn local(prefix: Prefix, origin: Origin, source_protocol: Protocol) -> Self {
        BgpRoute {
            prefix,
            next_hop: Ipv4Addr::UNSPECIFIED,
            as_path: Arc::from([]),
            local_pref: DEFAULT_LOCAL_PREF,
            med: 0,
            origin,
            communities: Arc::from([]),
            weight: LOCAL_WEIGHT,
            source_protocol,
        }
    }

    /// Adds a community, keeping the list sorted and unique. The route
    /// gets a new list; other holders of the old one keep it.
    pub fn add_community(&mut self, c: Community) {
        if let Err(pos) = self.communities.binary_search(&c) {
            let (head, tail) = self.communities.split_at(pos);
            let list = head.iter().copied().chain([c]).chain(tail.iter().copied());
            self.communities = list.collect();
        }
    }

    /// Removes a community if present, into a new list as
    /// [`BgpRoute::add_community`] does.
    pub fn remove_community(&mut self, c: Community) {
        if let Ok(pos) = self.communities.binary_search(&c) {
            let (head, tail) = (&self.communities[..pos], &self.communities[pos + 1..]);
            self.communities = head.iter().chain(tail).copied().collect();
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

    /// The bytes the per-worker memory gauges charge for this route, to
    /// model the paper's route-memory bottleneck: a copy that owns its
    /// lists exactly, [`ROUTE_BYTES`] plus 4 bytes per AS and per
    /// community. Sharing and allocator slack do not count, so every
    /// holder of a route is charged the same.
    pub fn approx_bytes(&self) -> usize {
        ROUTE_BYTES
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
            && same_list(&self.as_path, as_path)
            && self.local_pref == *local_pref
            && self.med == *med
            && self.origin == *origin
            && same_list(&self.communities, communities)
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
        assert_eq!(r.communities, vec![1, 3, 5].into());
        assert!(r.has_community(3));
        r.remove_community(3);
        assert!(!r.has_community(3));
        r.remove_community(99); // no-op
        assert_eq!(r.communities, vec![1, 5].into());
    }

    #[test]
    fn loop_check_scans_path() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        r.as_path = vec![65001, 65002].into();
        assert!(r.as_path_contains(65002));
        assert!(!r.as_path_contains(65003));
    }

    #[test]
    fn community_edits_copy_on_write() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        r.add_community(1);
        let original = r.clone();
        let mut edited = r.clone();
        edited.add_community(2);
        assert_eq!(original.communities, vec![1].into());
        assert_eq!(edited.communities, vec![1, 2].into());
        edited.remove_community(1);
        assert_eq!(edited.communities, vec![2].into());
        assert!(Arc::ptr_eq(&original.communities, &r.communities), "the original is untouched");
        // An absent community leaves the list as it was, shared.
        let before = edited.communities.clone();
        edited.remove_community(9);
        assert!(Arc::ptr_eq(&before, &edited.communities));
    }

    #[test]
    fn same_attributes_compares_list_contents() {
        let mut a = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        a.as_path = vec![65001, 65002].into();
        a.add_community(7);
        let mut b = a.clone();
        b.next_hop = Ipv4Addr::new(10, 0, 0, 1);
        assert!(a.same_attributes(&b));
        // Equal lists in allocations of their own are still the same.
        b.as_path = a.as_path.to_vec().into();
        b.communities = a.communities.to_vec().into();
        assert!(!Arc::ptr_eq(&a.as_path, &b.as_path));
        assert!(a.same_attributes(&b));
        b.as_path = vec![65001].into();
        assert!(!a.same_attributes(&b));
    }

    #[test]
    fn origin_ordering_prefers_igp() {
        assert!(Origin::Igp < Origin::Incomplete);
    }

    #[test]
    fn byte_accounting_charges_the_owned_layout() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        assert_eq!(r.approx_bytes(), 80);
        r.as_path = vec![65001, 65002, 65003].into();
        r.add_community(1);
        r.add_community(2);
        assert_eq!(r.approx_bytes(), 80 + 3 * 4 + 2 * 4);
        // Sharing does not change the charge: a clone costs the same.
        assert_eq!(r.clone().approx_bytes(), r.approx_bytes());
    }

    #[test]
    fn byte_accounting_grows_with_path() {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        let base = r.approx_bytes();
        r.as_path = vec![1; 16].into();
        assert!(r.approx_bytes() > base);
    }
}
