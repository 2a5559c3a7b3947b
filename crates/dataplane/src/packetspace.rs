//! The symbolic packet header space.
//!
//! A packet header is a bit vector of `104 + m` Boolean variables exactly
//! as in §4.3 of the paper: the 5-tuple (dst IP, src IP, protocol, source
//! port, destination port) plus `m` metadata bits used by path-sensitive
//! queries (waypoints). One [`PacketSpace`] instance fixes the variable
//! layout shared by every BDD manager in a verification run.

use s2_bdd::{Bdd, BddManager};
use s2_net::acl::{Acl, AclAction};
use s2_net::{Ipv4Addr, Prefix};

/// Variable layout of the symbolic packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpace {
    /// Number of metadata bits appended after the 5-tuple.
    pub meta_bits: u16,
}

/// Bit offsets of the 5-tuple fields.
pub const DST_OFFSET: u16 = 0;
/// Source IP offset.
pub const SRC_OFFSET: u16 = 32;
/// IP protocol offset.
pub const PROTO_OFFSET: u16 = 64;
/// Source port offset.
pub const SPORT_OFFSET: u16 = 72;
/// Destination port offset.
pub const DPORT_OFFSET: u16 = 88;
/// First metadata bit.
pub const META_OFFSET: u16 = 104;

impl PacketSpace {
    /// A packet space with `meta_bits` metadata bits.
    pub fn new(meta_bits: u16) -> Self {
        PacketSpace { meta_bits }
    }

    /// Total number of BDD variables (104 + m).
    pub fn num_vars(&self) -> u16 {
        META_OFFSET + self.meta_bits
    }

    /// Creates a BDD manager sized for this space.
    pub fn manager(&self) -> BddManager {
        BddManager::new(self.num_vars())
    }

    /// The variable index of metadata bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn meta_var(&self, i: u16) -> u16 {
        assert!(i < self.meta_bits, "metadata bit {i} out of range");
        META_OFFSET + i
    }

    /// Packets whose destination lies in `prefix`.
    pub fn dst_in(&self, m: &mut BddManager, prefix: Prefix) -> Bdd {
        m.encode_prefix(DST_OFFSET, prefix.addr().0, prefix.len())
    }

    /// Packets whose destination lies in any of `prefixes`.
    pub fn dst_in_any(&self, m: &mut BddManager, prefixes: &[Prefix]) -> Bdd {
        let sets: Vec<Bdd> = prefixes.iter().map(|&p| self.dst_in(m, p)).collect();
        m.or_all(sets)
    }

    /// Packets whose source lies in `prefix`.
    pub fn src_in(&self, m: &mut BddManager, prefix: Prefix) -> Bdd {
        m.encode_prefix(SRC_OFFSET, prefix.addr().0, prefix.len())
    }

    /// Packets with the exact destination address `addr`.
    pub fn dst_is(&self, m: &mut BddManager, addr: Ipv4Addr) -> Bdd {
        m.encode_prefix(DST_OFFSET, addr.0, 32)
    }

    /// Compiles an ACL into the BDD of *permitted* packets.
    ///
    /// Entries are folded first-match-wins with an implicit deny, i.e.
    /// `permitted = ⋃ (permit_i ∧ ¬ ⋃_{j<i} match_j)`.
    pub fn acl_permits(&self, m: &mut BddManager, acl: &Acl) -> Bdd {
        let mut permitted = Bdd::FALSE;
        let mut matched = Bdd::FALSE;
        for e in &acl.entries {
            let src = m.encode_prefix(SRC_OFFSET, e.src.addr().0, e.src.len());
            let dst = m.encode_prefix(DST_OFFSET, e.dst.addr().0, e.dst.len());
            let mut cond = m.and(src, dst);
            if let Some(p) = e.proto {
                let pb = m.encode_eq(PROTO_OFFSET, 8, p as u64);
                cond = m.and(cond, pb);
            }
            if !e.src_ports.is_any() {
                let r = m.encode_range(SPORT_OFFSET, 16, e.src_ports.lo as u64, e.src_ports.hi as u64);
                cond = m.and(cond, r);
            }
            if !e.dst_ports.is_any() {
                let r = m.encode_range(DPORT_OFFSET, 16, e.dst_ports.lo as u64, e.dst_ports.hi as u64);
                cond = m.and(cond, r);
            }
            let effective = m.diff(cond, matched);
            if matches!(e.action, AclAction::Permit) {
                permitted = m.or(permitted, effective);
            }
            matched = m.or(matched, cond);
        }
        permitted
    }

    /// Sets metadata bit `i` to 1 in every header of `set` (the waypoint
    /// "write rule": `∃b. set` ∧ `b`).
    pub fn set_meta(&self, m: &mut BddManager, set: Bdd, i: u16) -> Bdd {
        let var = self.meta_var(i);
        let projected = m.exists(set, var);
        let bit = m.var(var);
        m.and(projected, bit)
    }

    /// Packets in `set` whose metadata bit `i` is 1.
    pub fn with_meta(&self, m: &mut BddManager, set: Bdd, i: u16) -> Bdd {
        let bit = m.var(self.meta_var(i));
        m.and(set, bit)
    }

    /// The constraint that all metadata bits are 0 (injected packets start
    /// with cleared metadata).
    pub fn meta_clear(&self, m: &mut BddManager) -> Bdd {
        let lits: Vec<Bdd> = (0..self.meta_bits).map(|i| m.nvar(self.meta_var(i))).collect();
        m.and_all(lits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::acl::{AclEntry, PortRange};

    fn space() -> PacketSpace {
        PacketSpace::new(2)
    }

    /// Evaluates `f` against a concrete 5-tuple with all metadata bits 0.
    fn eval5(
        m: &BddManager,
        f: Bdd,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: u8,
        sport: u16,
        dport: u16,
    ) -> bool {
        let mut assign = vec![false; m.num_vars() as usize];
        for i in 0..32 {
            assign[(DST_OFFSET + i) as usize] = dst.bit(i as u8);
            assign[(SRC_OFFSET + i) as usize] = src.bit(i as u8);
        }
        for i in 0..8u16 {
            assign[(PROTO_OFFSET + i) as usize] = (proto >> (7 - i)) & 1 == 1;
        }
        for i in 0..16u16 {
            assign[(SPORT_OFFSET + i) as usize] = (sport >> (15 - i)) & 1 == 1;
            assign[(DPORT_OFFSET + i) as usize] = (dport >> (15 - i)) & 1 == 1;
        }
        m.eval(f, &assign)
    }

    #[test]
    fn layout_is_104_plus_m() {
        assert_eq!(space().num_vars(), 106);
        assert_eq!(PacketSpace::new(0).num_vars(), 104);
        assert_eq!(space().meta_var(1), 105);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn meta_var_bounds_checked() {
        space().meta_var(2);
    }

    #[test]
    fn dst_in_matches_prefix() {
        let s = space();
        let mut m = s.manager();
        let f = s.dst_in(&mut m, "10.0.0.0/8".parse().unwrap());
        let any = Ipv4Addr::new(1, 2, 3, 4);
        assert!(eval5(&m, f, any, Ipv4Addr::new(10, 9, 9, 9), 6, 1, 1));
        assert!(!eval5(&m, f, any, Ipv4Addr::new(11, 0, 0, 1), 6, 1, 1));
    }

    #[test]
    fn acl_matches_concrete_semantics() {
        let s = space();
        let mut m = s.manager();
        let acl = Acl {
            entries: vec![
                AclEntry {
                    action: AclAction::Deny,
                    src: Prefix::DEFAULT,
                    dst: "10.9.0.0/16".parse().unwrap(),
                    proto: Some(6),
                    src_ports: PortRange::ANY,
                    dst_ports: PortRange::exact(22),
                },
                AclEntry::any(AclAction::Permit),
            ],
        };
        let f = s.acl_permits(&mut m, &acl);
        // Cross-check against the concrete evaluator on a grid of probes.
        let addrs = [
            Ipv4Addr::new(10, 9, 1, 1),
            Ipv4Addr::new(10, 8, 1, 1),
            Ipv4Addr::new(192, 168, 0, 1),
        ];
        for src in addrs {
            for dst in addrs {
                for proto in [6u8, 17] {
                    for dport in [22u16, 80] {
                        let expect = acl.permits(src, dst, proto, 1234, dport);
                        assert_eq!(
                            eval5(&m, f, src, dst, proto, 1234, dport),
                            expect,
                            "src={src} dst={dst} proto={proto} dport={dport}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_acl_denies_all() {
        let s = space();
        let mut m = s.manager();
        let f = s.acl_permits(&mut m, &Acl::default());
        assert!(f.is_false());
    }

    #[test]
    fn meta_set_and_test() {
        let s = space();
        let mut m = s.manager();
        let clear = s.meta_clear(&mut m);
        // Initially bit 0 is 0 in the cleared space.
        assert!(s.with_meta(&mut m, clear, 0).is_false());
        let set = s.set_meta(&mut m, clear, 0);
        // After the write rule, every header has bit 0 = 1.
        let tested = s.with_meta(&mut m, set, 0);
        assert_eq!(tested, set);
        // Setting is idempotent.
        let set2 = s.set_meta(&mut m, set, 0);
        assert_eq!(set2, set);
        // Bit 1 is untouched (still 0).
        assert!(s.with_meta(&mut m, set, 1).is_false());
    }
}
