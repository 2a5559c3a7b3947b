//! The vendor-independent (VI) device configuration model.
//!
//! This is the S2 analogue of Batfish's vendor-independent representation:
//! every vendor dialect parses into a [`DeviceConfig`], and everything
//! downstream (partitioning, control plane simulation, data plane
//! verification) consumes only this model.

use crate::acl::Acl;
use crate::error::NetError;
use crate::ip::{Ipv4Addr, Prefix};
use crate::policy::{Community, PrefixList, Protocol, RemovePrivateAsMode, RouteMap};
use std::collections::BTreeMap;

/// The vendor dialect a configuration was written in. Each vendor carries
/// its own vendor-specific behaviours (VSBs); see [`VendorQuirks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Synthetic "vendor A" dialect (IOS-flavoured).
    A,
    /// Synthetic "vendor B" dialect (JunOS-flavoured).
    B,
}

/// Vendor-specific behaviours that change protocol semantics (not just
/// syntax). The paper reports 30% of a large provider's incidents stem from
/// such differences (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorQuirks {
    /// `remove-private-as` semantics.
    pub remove_private_as: RemovePrivateAsMode,
    /// Whether routes with an empty AS path coming from an eBGP peer are
    /// accepted (vendor B rejects them as malformed).
    pub accept_empty_ebgp_as_path: bool,
}

impl Vendor {
    /// The semantic quirks of this vendor.
    pub const fn quirks(self) -> VendorQuirks {
        match self {
            Vendor::A => VendorQuirks {
                remove_private_as: RemovePrivateAsMode::All,
                accept_empty_ebgp_as_path: true,
            },
            Vendor::B => VendorQuirks {
                remove_private_as: RemovePrivateAsMode::LeadingOnly,
                accept_empty_ebgp_as_path: false,
            },
        }
    }
}

/// Configuration of a single interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceConfig {
    /// Interface name (e.g. `eth0`); unique per device.
    pub name: String,
    /// Interface address and subnet, e.g. `10.0.0.1/31`.
    pub prefix: Prefix,
    /// The concrete interface address (the host part of `prefix`).
    pub addr: Ipv4Addr,
    /// Name of the inbound ACL, if any.
    pub acl_in: Option<String>,
    /// Name of the outbound ACL, if any.
    pub acl_out: Option<String>,
    /// OSPF cost if OSPF runs on this interface.
    pub ospf_cost: Option<u32>,
}

impl InterfaceConfig {
    /// A bare interface with just a name and address.
    pub fn new(name: impl Into<String>, addr: Ipv4Addr, masklen: u8) -> Self {
        InterfaceConfig {
            name: name.into(),
            prefix: Prefix::new(addr, masklen),
            addr,
            acl_in: None,
            acl_out: None,
            ospf_cost: None,
        }
    }
}

/// A `network` statement: a prefix the device originates into BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Network {
    /// The originated prefix.
    pub prefix: Prefix,
}

/// A BGP aggregate (`aggregate-address`) definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// The aggregate prefix.
    pub prefix: Prefix,
    /// If true, contributing (more specific) routes are suppressed from
    /// advertisements.
    pub summary_only: bool,
    /// Communities attached to the aggregate route (the paper's DCN tags
    /// aggregates for filtering at the top layer, §2.3).
    pub communities: Vec<Community>,
}

/// A conditional advertisement (Cisco `advertise-map`/`exist-map` style):
/// routes for `advertise` are exported only while the condition on
/// `condition` holds in the local RIB. This is the second source of
/// prefix dependency the S2 paper's sharding must respect (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConditionalAdvertisement {
    /// The prefix whose advertisement is gated.
    pub advertise: Prefix,
    /// The prefix whose presence/absence is tested.
    pub condition: Prefix,
    /// `true` = advertise while `condition` is present (exist-map);
    /// `false` = advertise while it is absent (non-exist-map).
    pub when_present: bool,
}

/// One BGP neighbor (session endpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpNeighbor {
    /// The neighbor's interface address.
    pub peer: Ipv4Addr,
    /// The neighbor's ASN.
    pub remote_as: u32,
    /// Route map applied to routes received from this neighbor.
    pub import_policy: Option<String>,
    /// Route map applied to routes advertised to this neighbor.
    pub export_policy: Option<String>,
    /// Strip private ASNs from outbound advertisements (semantics depend on
    /// [`VendorQuirks::remove_private_as`]).
    pub remove_private_as: bool,
}

/// The device's BGP process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpProcess {
    /// Local autonomous system number.
    pub asn: u32,
    /// Router id used as the final tie-break in best-path selection.
    pub router_id: Ipv4Addr,
    /// Prefixes originated via `network` statements.
    pub networks: Vec<Network>,
    /// Aggregates.
    pub aggregates: Vec<Aggregate>,
    /// Sessions.
    pub neighbors: Vec<BgpNeighbor>,
    /// Conditional advertisements (apply to exports on every session).
    pub conditional: Vec<ConditionalAdvertisement>,
    /// Maximum number of equal-cost multipath next hops installed.
    pub max_ecmp: u8,
    /// Protocols redistributed into BGP.
    pub redistribute: Vec<Protocol>,
}

impl BgpProcess {
    /// A minimal process with no sessions.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        BgpProcess {
            asn,
            router_id,
            networks: Vec::new(),
            aggregates: Vec::new(),
            neighbors: Vec::new(),
            conditional: Vec::new(),
            max_ecmp: 1,
            redistribute: Vec::new(),
        }
    }
}

/// The device's OSPF process (single area 0 model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OspfProcess {
    /// Interfaces OSPF runs on (must exist in [`DeviceConfig::interfaces`]).
    pub interfaces: Vec<String>,
    /// Reference bandwidth-independent default cost for interfaces without
    /// an explicit `ospf_cost`.
    pub default_cost: u32,
}

/// A static route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop address (must be reachable via a connected subnet) or
    /// `None` for a discard (null0) route.
    pub next_hop: Option<Ipv4Addr>,
}

/// The complete vendor-independent configuration of one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Hostname; unique across the network and used to bind configurations
    /// to topology nodes.
    pub hostname: String,
    /// The originating vendor (decides semantic quirks).
    pub vendor: Vendor,
    /// Interfaces in configuration order.
    pub interfaces: Vec<InterfaceConfig>,
    /// Named route maps.
    pub route_maps: BTreeMap<String, RouteMap>,
    /// Named prefix lists.
    pub prefix_lists: BTreeMap<String, PrefixList>,
    /// Named ACLs.
    pub acls: BTreeMap<String, Acl>,
    /// Static routes.
    pub static_routes: Vec<StaticRoute>,
    /// BGP process, if configured.
    pub bgp: Option<BgpProcess>,
    /// OSPF process, if configured.
    pub ospf: Option<OspfProcess>,
}

impl DeviceConfig {
    /// An empty configuration for `hostname` in vendor-A dialect.
    pub fn new(hostname: impl Into<String>, vendor: Vendor) -> Self {
        DeviceConfig {
            hostname: hostname.into(),
            vendor,
            interfaces: Vec::new(),
            route_maps: BTreeMap::new(),
            prefix_lists: BTreeMap::new(),
            acls: BTreeMap::new(),
            static_routes: Vec::new(),
            bgp: None,
            ospf: None,
        }
    }

    /// Finds an interface by name.
    pub fn interface(&self, name: &str) -> Option<&InterfaceConfig> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    /// Finds the interface whose subnet contains `addr`.
    pub fn interface_for_addr(&self, addr: Ipv4Addr) -> Option<&InterfaceConfig> {
        self.interfaces.iter().find(|i| i.prefix.contains_addr(addr))
    }

    /// Validates internal consistency: interface name uniqueness and that
    /// every referenced route map / prefix list / ACL exists.
    pub fn validate(&self) -> Result<(), NetError> {
        let mut names = std::collections::HashSet::new();
        for i in &self.interfaces {
            if !names.insert(&i.name) {
                return Err(NetError::Inconsistent(format!(
                    "{}: duplicate interface {}",
                    self.hostname, i.name
                )));
            }
            for acl in [&i.acl_in, &i.acl_out].into_iter().flatten() {
                if !self.acls.contains_key(acl) {
                    return Err(NetError::UndefinedReference {
                        kind: "acl",
                        name: acl.clone(),
                    });
                }
            }
        }
        if let Some(bgp) = &self.bgp {
            for n in &bgp.neighbors {
                for rm in [&n.import_policy, &n.export_policy].into_iter().flatten() {
                    if !self.route_maps.contains_key(rm) {
                        return Err(NetError::UndefinedReference {
                            kind: "route-map",
                            name: rm.clone(),
                        });
                    }
                }
            }
        }
        if let Some(ospf) = &self.ospf {
            for i in &ospf.interfaces {
                if self.interface(i).is_none() {
                    return Err(NetError::UndefinedReference {
                        kind: "interface",
                        name: i.clone(),
                    });
                }
            }
        }
        // Route maps may reference prefix lists.
        for (rm_name, rm) in &self.route_maps {
            for clause in &rm.clauses {
                for m in &clause.matches {
                    if let crate::policy::MatchCondition::PrefixList(pl) = m {
                        if !self.prefix_lists.contains_key(pl) {
                            return Err(NetError::UndefinedReference {
                                kind: "prefix-list",
                                name: format!("{pl} (in route-map {rm_name})"),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MatchCondition, RouteMapClause, RouteMapDisposition};

    fn cfg() -> DeviceConfig {
        let mut c = DeviceConfig::new("r1", Vendor::A);
        c.interfaces
            .push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 1), 31));
        c
    }

    #[test]
    fn validate_ok_for_minimal_config() {
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_interface() {
        let mut c = cfg();
        c.interfaces
            .push(InterfaceConfig::new("eth0", Ipv4Addr::new(10, 0, 0, 3), 31));
        assert!(matches!(c.validate(), Err(NetError::Inconsistent(_))));
    }

    #[test]
    fn validate_rejects_missing_acl() {
        let mut c = cfg();
        c.interfaces[0].acl_in = Some("NOPE".into());
        assert!(matches!(
            c.validate(),
            Err(NetError::UndefinedReference { kind: "acl", .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_route_map() {
        let mut c = cfg();
        let mut bgp = BgpProcess::new(65001, Ipv4Addr::new(1, 1, 1, 1));
        bgp.neighbors.push(BgpNeighbor {
            peer: Ipv4Addr::new(10, 0, 0, 0),
            remote_as: 65002,
            import_policy: Some("MISSING".into()),
            export_policy: None,
            remove_private_as: false,
        });
        c.bgp = Some(bgp);
        assert!(matches!(
            c.validate(),
            Err(NetError::UndefinedReference { kind: "route-map", .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_prefix_list_in_route_map() {
        let mut c = cfg();
        let mut rm = RouteMap::default();
        rm.push_clause(RouteMapClause {
            seq: 10,
            disposition: RouteMapDisposition::Permit,
            matches: vec![MatchCondition::PrefixList("PL".into())],
            actions: vec![],
        });
        c.route_maps.insert("RM".into(), rm);
        assert!(matches!(
            c.validate(),
            Err(NetError::UndefinedReference { kind: "prefix-list", .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_ospf_interface() {
        let mut c = cfg();
        c.ospf = Some(OspfProcess {
            interfaces: vec!["ethX".into()],
            default_cost: 10,
        });
        assert!(matches!(
            c.validate(),
            Err(NetError::UndefinedReference { kind: "interface", .. })
        ));
    }

    #[test]
    fn interface_lookup_by_addr() {
        let c = cfg();
        assert_eq!(
            c.interface_for_addr(Ipv4Addr::new(10, 0, 0, 0)).unwrap().name,
            "eth0"
        );
        assert!(c.interface_for_addr(Ipv4Addr::new(10, 0, 0, 2)).is_none());
    }

    #[test]
    fn vendor_quirks_differ() {
        assert_ne!(
            Vendor::A.quirks().remove_private_as,
            Vendor::B.quirks().remove_private_as
        );
        assert!(Vendor::A.quirks().accept_empty_ebgp_as_path);
        assert!(!Vendor::B.quirks().accept_empty_ebgp_as_path);
    }
}
