//! Packet-filter (ACL) model.
//!
//! ACLs are matched against the 104-bit 5-tuple header space during data
//! plane verification; the dataplane crate compiles each ACL into a BDD
//! predicate (`p_in` / `p_out` in the paper's Eq. 1).

use crate::ip::Prefix;

/// Permit or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclAction {
    /// Matching packets pass.
    Permit,
    /// Matching packets are dropped.
    Deny,
}

/// An inclusive port range. `0..=65535` matches any port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// Lowest matching port.
    pub lo: u16,
    /// Highest matching port.
    pub hi: u16,
}

impl PortRange {
    /// The full range (matches everything).
    pub const ANY: PortRange = PortRange { lo: 0, hi: u16::MAX };

    /// A single-port range.
    pub const fn exact(p: u16) -> Self {
        PortRange { lo: p, hi: p }
    }

    /// Whether `p` falls inside the range.
    pub const fn contains(&self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Whether this is the unconstrained range.
    pub const fn is_any(&self) -> bool {
        self.lo == 0 && self.hi == u16::MAX
    }
}

/// A single ACL entry; all fields are ANDed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclEntry {
    /// Permit or deny matching packets.
    pub action: AclAction,
    /// Source prefix to match (default route = any).
    pub src: Prefix,
    /// Destination prefix to match (default route = any).
    pub dst: Prefix,
    /// IP protocol number to match, or `None` for any.
    pub proto: Option<u8>,
    /// Source port range (only meaningful for TCP/UDP).
    pub src_ports: PortRange,
    /// Destination port range (only meaningful for TCP/UDP).
    pub dst_ports: PortRange,
}

impl AclEntry {
    /// An entry matching every packet with the given action.
    pub const fn any(action: AclAction) -> Self {
        AclEntry {
            action,
            src: Prefix::DEFAULT,
            dst: Prefix::DEFAULT,
            proto: None,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
        }
    }
}

/// A named ACL: ordered entries, first match wins, implicit deny at the end
/// (standard router semantics).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    /// Entries in configuration order.
    pub entries: Vec<AclEntry>,
}

impl Acl {
    /// An ACL that permits everything.
    pub fn permit_all() -> Self {
        Acl {
            entries: vec![AclEntry::any(AclAction::Permit)],
        }
    }

    /// Evaluates the ACL against a concrete 5-tuple; used by tests as the
    /// ground truth the BDD compilation is checked against.
    pub fn permits(
        &self,
        src: crate::ip::Ipv4Addr,
        dst: crate::ip::Ipv4Addr,
        proto: u8,
        sport: u16,
        dport: u16,
    ) -> bool {
        for e in &self.entries {
            let matches = e.src.contains_addr(src)
                && e.dst.contains_addr(dst)
                && e.proto.is_none_or(|p| p == proto)
                && e.src_ports.contains(sport)
                && e.dst_ports.contains(dport);
            if matches {
                return matches!(e.action, AclAction::Permit);
            }
        }
        false // implicit deny
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn port_range_semantics() {
        assert!(PortRange::ANY.contains(0) && PortRange::ANY.contains(65535));
        assert!(PortRange::ANY.is_any());
        let r = PortRange { lo: 80, hi: 443 };
        assert!(r.contains(80) && r.contains(443) && r.contains(100));
        assert!(!r.contains(79) && !r.contains(444));
        assert!(!r.is_any());
        assert!(PortRange::exact(22).contains(22));
        assert!(!PortRange::exact(22).contains(23));
    }

    #[test]
    fn first_match_wins_with_implicit_deny() {
        let acl = Acl {
            entries: vec![
                AclEntry {
                    action: AclAction::Deny,
                    dst: p("10.9.0.0/16"),
                    ..AclEntry::any(AclAction::Deny)
                },
                AclEntry {
                    action: AclAction::Permit,
                    dst: p("10.0.0.0/8"),
                    ..AclEntry::any(AclAction::Permit)
                },
            ],
        };
        assert!(!acl.permits(a("1.1.1.1"), a("10.9.1.1"), 6, 1, 1));
        assert!(acl.permits(a("1.1.1.1"), a("10.1.1.1"), 6, 1, 1));
        assert!(!acl.permits(a("1.1.1.1"), a("11.0.0.1"), 6, 1, 1)); // implicit deny
    }

    #[test]
    fn proto_and_port_constraints() {
        let acl = Acl {
            entries: vec![AclEntry {
                action: AclAction::Permit,
                proto: Some(6),
                dst_ports: PortRange::exact(443),
                ..AclEntry::any(AclAction::Permit)
            }],
        };
        assert!(acl.permits(a("1.1.1.1"), a("2.2.2.2"), 6, 1234, 443));
        assert!(!acl.permits(a("1.1.1.1"), a("2.2.2.2"), 17, 1234, 443));
        assert!(!acl.permits(a("1.1.1.1"), a("2.2.2.2"), 6, 1234, 80));
    }

    #[test]
    fn permit_all_permits_everything() {
        let acl = Acl::permit_all();
        assert!(acl.permits(a("0.0.0.0"), a("255.255.255.255"), 255, 0, 65535));
    }

    #[test]
    fn empty_acl_denies_everything() {
        let acl = Acl::default();
        assert!(!acl.permits(a("1.2.3.4"), a("5.6.7.8"), 6, 80, 80));
    }
}
