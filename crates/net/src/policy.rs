//! Routing policy model: route maps, prefix lists and communities.
//!
//! The structures here are the vendor-*independent* form; the vendor
//! dialects in [`crate::vendor`] parse into these. Evaluation lives in the
//! routing crate (`s2-routing::policy_eval`) so this crate stays a passive
//! data model.

use crate::ip::Prefix;

/// A BGP community value, stored as `(high << 16) | low`.
pub type Community = u32;

/// Builds a community from its conventional `high:low` notation.
pub const fn community(high: u16, low: u16) -> Community {
    ((high as u32) << 16) | low as u32
}

/// Formats a community as `high:low`.
pub fn community_string(c: Community) -> String {
    format!("{}:{}", c >> 16, c & 0xffff)
}

/// Whether a route-map clause permits or denies matching routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMapDisposition {
    /// Matching routes are accepted (after applying the clause's actions).
    Permit,
    /// Matching routes are rejected.
    Deny,
}

/// A single entry of a prefix list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixListEntry {
    /// The prefix to match against.
    pub prefix: Prefix,
    /// Minimum matched length (`ge`); defaults to the prefix's own length.
    pub ge: Option<u8>,
    /// Maximum matched length (`le`); defaults to the prefix's own length.
    pub le: Option<u8>,
    /// Permit or deny on match.
    pub permit: bool,
}

impl PrefixListEntry {
    /// Whether `p` matches this entry (ignoring the permit/deny bit).
    pub fn matches(&self, p: Prefix) -> bool {
        let ge = self.ge.unwrap_or(self.prefix.len());
        let le = self.le.unwrap_or_else(|| self.ge.map_or(self.prefix.len(), |_| 32));
        self.prefix.covers(p) && p.len() >= ge && p.len() <= le
    }
}

/// A named ordered prefix list. First matching entry wins; no match ⇒ deny.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrefixList {
    /// Entries in configuration order.
    pub entries: Vec<PrefixListEntry>,
}

impl PrefixList {
    /// Evaluates the list against `p`: `true` = permitted.
    pub fn permits(&self, p: Prefix) -> bool {
        for e in &self.entries {
            if e.matches(p) {
                return e.permit;
            }
        }
        false
    }
}

/// Conditions a route-map clause can match on. A clause matches when **all**
/// of its conditions hold (Cisco-style AND semantics within a clause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchCondition {
    /// Route's prefix is permitted by the named prefix list.
    PrefixList(String),
    /// Route carries the given community.
    Community(Community),
    /// Route's AS path contains the given ASN anywhere.
    AsPathContains(u32),
    /// Route's AS path is empty (locally originated).
    AsPathEmpty,
    /// Route's prefix length falls in `[min, max]`.
    PrefixLenRange(u8, u8),
    /// Route was learned from the given protocol (used by redistribution
    /// filters).
    Protocol(Protocol),
}

/// How `remove-private-as` interprets the AS path.
///
/// This is the vendor-specific behaviour the paper calls out (§2.1): some
/// vendors remove *all* private ASNs, others only the private ASNs
/// *preceding the first non-private one*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovePrivateAsMode {
    /// Remove every private ASN in the path.
    All,
    /// Remove only the leading run of private ASNs.
    LeadingOnly,
}

/// Actions on the AS path attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsPathAction {
    /// Prepend `asn` `count` times.
    Prepend {
        /// ASN to prepend.
        asn: u32,
        /// Number of copies.
        count: u8,
    },
    /// Replace the entire path with the given sequence (the paper's DCN uses
    /// this to overwrite matched paths with the device's own ASN, §2.3).
    Overwrite(Vec<u32>),
    /// Strip private ASNs according to the vendor's semantics.
    RemovePrivate(RemovePrivateAsMode),
}

/// Actions on the community set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityAction {
    /// Add a community.
    Add(Community),
    /// Remove a community if present.
    Delete(Community),
    /// Clear all communities, then add the listed ones.
    Set(Vec<Community>),
}

/// A `set` action applied by a permitting clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyAction {
    /// Set LOCAL_PREF.
    SetLocalPref(u32),
    /// Set MED (metric).
    SetMed(u32),
    /// Modify the AS path.
    AsPath(AsPathAction),
    /// Modify communities.
    Community(CommunityAction),
}

/// One numbered clause of a route map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMapClause {
    /// Sequence number; clauses are evaluated in ascending order.
    pub seq: u32,
    /// Permit or deny.
    pub disposition: RouteMapDisposition,
    /// All conditions must match (an empty list matches everything).
    pub matches: Vec<MatchCondition>,
    /// Actions applied when a `Permit` clause matches.
    pub actions: Vec<PolicyAction>,
}

/// A named route map: an ordered list of clauses. The first matching clause
/// decides; if no clause matches the route is denied (Cisco semantics).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteMap {
    /// Clauses sorted by sequence number.
    pub clauses: Vec<RouteMapClause>,
}

impl RouteMap {
    /// A route map with a single unconditional permit clause.
    pub fn permit_all() -> Self {
        RouteMap {
            clauses: vec![RouteMapClause {
                seq: 10,
                disposition: RouteMapDisposition::Permit,
                matches: Vec::new(),
                actions: Vec::new(),
            }],
        }
    }

    /// Adds a clause, keeping clauses sorted by sequence number.
    pub fn push_clause(&mut self, clause: RouteMapClause) {
        self.clauses.push(clause);
        self.clauses.sort_by_key(|c| c.seq);
    }
}

/// Routing protocols a route can originate from; used for administrative
/// distance and redistribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Directly connected interface subnet.
    Connected,
    /// Statically configured route.
    Static,
    /// Learned via OSPF.
    Ospf,
    /// Learned via BGP.
    Bgp,
    /// Created by BGP route aggregation.
    Aggregate,
}

impl Protocol {
    /// Administrative distance: lower is preferred when the same prefix is
    /// offered by multiple protocols (Cisco defaults).
    pub const fn admin_distance(self) -> u8 {
        match self {
            Protocol::Connected => 0,
            Protocol::Static => 1,
            Protocol::Bgp => 20,      // eBGP
            Protocol::Ospf => 110,
            Protocol::Aggregate => 200,
        }
    }
}

/// The private ASN range (RFC 6996 16-bit block).
pub const fn is_private_asn(asn: u32) -> bool {
    (asn >= 64512 && asn <= 65534) || (asn >= 4_200_000_000 && asn <= 4_294_967_294)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn community_packing() {
        let c = community(65000, 42);
        assert_eq!(c, 0xFDE8_002A);
        assert_eq!(community_string(c), "65000:42");
    }

    #[test]
    fn prefix_list_entry_exact_match() {
        let e = PrefixListEntry {
            prefix: p("10.0.0.0/8"),
            ge: None,
            le: None,
            permit: true,
        };
        assert!(e.matches(p("10.0.0.0/8")));
        assert!(!e.matches(p("10.1.0.0/16")));
        assert!(!e.matches(p("11.0.0.0/8")));
    }

    #[test]
    fn prefix_list_entry_le_ge() {
        let e = PrefixListEntry {
            prefix: p("10.0.0.0/8"),
            ge: Some(16),
            le: Some(24),
            permit: true,
        };
        assert!(!e.matches(p("10.0.0.0/8")));
        assert!(e.matches(p("10.1.0.0/16")));
        assert!(e.matches(p("10.1.2.0/24")));
        assert!(!e.matches(p("10.1.2.0/25")));
    }

    #[test]
    fn ge_without_le_extends_to_32() {
        let e = PrefixListEntry {
            prefix: p("10.0.0.0/8"),
            ge: Some(9),
            le: None,
            permit: true,
        };
        assert!(e.matches(p("10.1.2.3/32")));
        assert!(!e.matches(p("10.0.0.0/8")));
    }

    #[test]
    fn prefix_list_first_match_wins_and_default_deny() {
        let pl = PrefixList {
            entries: vec![
                PrefixListEntry {
                    prefix: p("10.1.0.0/16"),
                    ge: None,
                    le: None,
                    permit: false,
                },
                PrefixListEntry {
                    prefix: p("10.0.0.0/8"),
                    ge: Some(8),
                    le: Some(32),
                    permit: true,
                },
            ],
        };
        assert!(!pl.permits(p("10.1.0.0/16"))); // hits the deny first
        assert!(pl.permits(p("10.2.0.0/16")));
        assert!(!pl.permits(p("192.168.0.0/16"))); // no match => deny
    }

    #[test]
    fn route_map_clauses_stay_sorted() {
        let mut rm = RouteMap::default();
        for seq in [30, 10, 20] {
            rm.push_clause(RouteMapClause {
                seq,
                disposition: RouteMapDisposition::Permit,
                matches: vec![],
                actions: vec![],
            });
        }
        let seqs: Vec<u32> = rm.clauses.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![10, 20, 30]);
    }

    #[test]
    fn admin_distances_are_ordered_sensibly() {
        assert!(Protocol::Connected.admin_distance() < Protocol::Static.admin_distance());
        assert!(Protocol::Static.admin_distance() < Protocol::Bgp.admin_distance());
        assert!(Protocol::Bgp.admin_distance() < Protocol::Ospf.admin_distance());
    }

    #[test]
    fn private_asn_ranges() {
        assert!(is_private_asn(64512));
        assert!(is_private_asn(65534));
        assert!(!is_private_asn(65535));
        assert!(!is_private_asn(64511));
        assert!(is_private_asn(4_200_000_000));
        assert!(!is_private_asn(4_294_967_295));
    }
}
