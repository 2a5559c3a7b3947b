//! The symbolic packet header space.
//!
//! A packet header is a bit vector of `104 + m` Boolean variables exactly
//! as in §4.3 of the paper: the 5-tuple (dst IP, src IP, protocol, source
//! port, destination port) plus `m` metadata bits used by path-sensitive
//! queries (waypoints). One [`PacketSpace`] instance fixes the variable
//! layout shared by every BDD manager in a verification run.
//!
//! After the metadata bits come `⌈log₂ n⌉` *source-id* bits naming which
//! of the request's `n` [`Sources`] injected a header, so that one
//! symbolic packet carries the traffic of every source (see
//! `forward::PacketKey`). No forwarding step reads or writes them; the
//! per-source answer is the cofactor on them ([`PacketSpace::of_source`]),
//! taken only where a verdict is decided, and nothing serialized as a
//! verdict contains them.

use s2_bdd::{Bdd, BddManager};
use s2_net::acl::{Acl, AclAction};
use s2_net::topology::NodeId;
use s2_net::{Ipv4Addr, Prefix};
use std::collections::BTreeMap;

/// Variable layout of the symbolic packet header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketSpace {
    /// Number of metadata bits appended after the 5-tuple.
    pub meta_bits: u16,
    /// Number of source-id bits appended after the metadata bits.
    pub src_bits: u16,
}

/// The injection sources of one request, each named by its index in the
/// source-id bits: ascending node order, each node once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sources(Vec<NodeId>);

impl Sources {
    /// The sources `nodes` name, sorted and deduplicated.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        Sources(nodes)
    }

    /// The source-id of `node`, if it is a source.
    pub fn index(&self, node: NodeId) -> Option<usize> {
        self.0.binary_search(&node).ok()
    }

    /// The source nodes, in source-id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }

    /// The source-id bits these sources need: `⌈log₂ n⌉`.
    pub fn bits(&self) -> u16 {
        (usize::BITS - self.0.len().saturating_sub(1).leading_zeros()) as u16
    }
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
    /// A packet space with `meta_bits` metadata bits and no source-id
    /// bits (a single source, or sets that carry no source).
    pub fn new(meta_bits: u16) -> Self {
        PacketSpace { meta_bits, src_bits: 0 }
    }

    /// A packet space with `meta_bits` metadata bits and the source-id
    /// bits of `sources`.
    pub fn with_sources(meta_bits: u16, sources: &Sources) -> Self {
        PacketSpace { meta_bits, src_bits: sources.bits() }
    }

    /// Total number of BDD variables (104 + m + source-id bits).
    pub fn num_vars(&self) -> u16 {
        META_OFFSET + self.meta_bits + self.src_bits
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

    /// The variable index of source-id bit `i` (most significant first).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn src_var(&self, i: u16) -> u16 {
        assert!(i < self.src_bits, "source-id bit {i} out of range");
        META_OFFSET + self.meta_bits + i
    }

    /// The headers injected by the source with id `index`.
    pub fn src_is(&self, m: &mut BddManager, index: usize) -> Bdd {
        debug_assert!(self.src_bits >= 64 || index >> self.src_bits == 0);
        m.encode_eq(META_OFFSET + self.meta_bits, self.src_bits, index as u64)
    }

    /// The headers injected by any of the sources with ids `indices`:
    /// one walk of their trie over the source-id bits (the ids are
    /// prefixes of the bits' full length), not one union per source.
    pub fn src_id_in(&self, m: &mut BddManager, indices: &[usize]) -> Bdd {
        let bits = self.src_bits;
        debug_assert!(bits <= 32 && indices.iter().all(|&i| (i as u64) >> bits == 0));
        let mut trie: Vec<(u32, u8, bool)> =
            indices.iter().map(|&i| (((i as u64) << (32 - bits)) as u32, bits as u8, true)).collect();
        trie.sort_unstable();
        trie.dedup();
        let classes = m.encode_prefix_classes(META_OFFSET + self.meta_bits, false, &trie);
        classes.into_iter().find(|&(covered, _)| covered).map_or(Bdd::FALSE, |(_, set)| set)
    }

    /// The part of `set` that source `index` injected, with the
    /// source-id bits gone: the cofactor `set[src-id := index]`.
    pub fn of_source(&self, m: &mut BddManager, set: Bdd, index: usize) -> Bdd {
        let lits: Vec<(u16, bool)> = (0..self.src_bits)
            .map(|i| (self.src_var(i), (index >> (self.src_bits - 1 - i)) & 1 == 1))
            .collect();
        m.restrict_cube(set, &lits)
    }

    /// Per source-id, the destination space `scopes` gives it: `dst ∈
    /// scope(s)`, `FALSE` for a source with no or an empty prefix list.
    /// Sources with one prefix list share one walk. `Err` names a
    /// scoped node that is not one of `sources`.
    pub fn source_scopes(
        &self,
        m: &mut BddManager,
        sources: &Sources,
        scopes: &[(NodeId, Vec<Prefix>)],
    ) -> Result<Vec<Bdd>, NodeId> {
        let mut out = vec![Bdd::FALSE; sources.nodes().len()];
        let mut walked: BTreeMap<&[Prefix], Bdd> = BTreeMap::new();
        for (src, prefixes) in scopes.iter().filter(|(_, ps)| !ps.is_empty()) {
            let index = sources.index(*src).ok_or(*src)?;
            out[index] = *walked.entry(prefixes).or_insert_with(|| self.dst_in_any(m, prefixes));
        }
        Ok(out)
    }

    /// The mask of a destination-scoped pass: `∨ₛ (src-id = s ∧
    /// scopes[s])` over the per-source scopes of
    /// [`source_scopes`](Self::source_scopes). Its cofactor on a source
    /// is that source's scope, so one splice against it serves every
    /// source. Sources with one scope share one conjunction.
    pub fn scope_mask(&self, m: &mut BddManager, scopes: &[Bdd]) -> Bdd {
        let mut by_scope: BTreeMap<Bdd, Vec<usize>> = BTreeMap::new();
        for (index, &scope) in scopes.iter().enumerate().filter(|(_, s)| !s.is_false()) {
            by_scope.entry(scope).or_default().push(index);
        }
        let mut mask = Bdd::FALSE;
        for (scope, ids) in by_scope {
            let ids = self.src_id_in(m, &ids);
            let part = m.and(scope, ids);
            mask = m.or(mask, part);
        }
        mask
    }

    /// `set` with the metadata bits existentially quantified away.
    pub fn strip_meta(&self, m: &mut BddManager, set: Bdd) -> Bdd {
        m.exists_all(set, (0..self.meta_bits).map(|i| self.meta_var(i)))
    }

    /// Packets whose destination lies in `prefix`.
    pub fn dst_in(&self, m: &mut BddManager, prefix: Prefix) -> Bdd {
        m.encode_prefix(DST_OFFSET, prefix.addr().0, prefix.len())
    }

    /// Packets whose destination lies in any of `prefixes`: one walk of
    /// their trie (`BddManager::encode_prefix_classes`), so the cost is
    /// their bits, not the quadratic fold of one union per prefix.
    pub fn dst_in_any(&self, m: &mut BddManager, prefixes: &[Prefix]) -> Bdd {
        let mut trie: Vec<(u32, u8, bool)> =
            prefixes.iter().map(|p| (p.addr().0, p.len(), true)).collect();
        trie.sort_unstable();
        trie.dedup();
        let classes = m.encode_prefix_classes(DST_OFFSET, false, &trie);
        classes.into_iter().find(|&(covered, _)| covered).map_or(Bdd::FALSE, |(_, set)| set)
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
    fn source_ids_follow_the_metadata_bits() {
        let ids = |n: u32| Sources::new((0..n).rev().map(NodeId));
        let bits: Vec<u16> = [0, 1, 2, 3, 4, 5, 8, 9, 128, 129].map(|n| ids(n).bits()).to_vec();
        assert_eq!(bits, vec![0, 0, 1, 2, 2, 3, 3, 4, 7, 8]);
        let sources = Sources::new([NodeId(9), NodeId(2), NodeId(5), NodeId(2)]);
        assert_eq!(sources.nodes(), &[NodeId(2), NodeId(5), NodeId(9)]);
        assert_eq!((sources.index(NodeId(9)), sources.index(NodeId(3))), (Some(2), None));
        let s = PacketSpace::with_sources(2, &sources);
        assert_eq!((s.num_vars(), s.src_var(0), s.src_var(1)), (108, 106, 107));
        // Tagging, then taking the cofactor, returns each source's set.
        let mut m = s.manager();
        let sets: Vec<Bdd> = ["10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"]
            .iter()
            .map(|p| s.dst_in(&mut m, p.parse().unwrap()))
            .collect();
        let tagged: Vec<Bdd> = sets
            .iter()
            .enumerate()
            .map(|(i, &set)| {
                let id = s.src_is(&mut m, i);
                m.and(id, set)
            })
            .collect();
        let all = m.or_all(tagged);
        for (i, &set) in sets.iter().enumerate() {
            assert_eq!(s.of_source(&mut m, all, i), set);
        }
        assert!(s.of_source(&mut m, all, 3).is_false());
        // A set of ids is the union of each id's cube.
        for ids in [vec![], vec![2], vec![0, 2], vec![3, 1, 0, 3]] {
            let cubes: Vec<Bdd> = ids.iter().map(|&i| s.src_is(&mut m, i)).collect();
            let union = m.or_all(cubes);
            assert_eq!(s.src_id_in(&mut m, &ids), union, "{ids:?}");
        }
        // One source: no bits, and the cofactor is the identity.
        let one = PacketSpace::with_sources(0, &ids(1));
        assert_eq!(one, PacketSpace::new(0));
        let mut m = one.manager();
        let set = one.dst_in(&mut m, "10.0.0.0/8".parse().unwrap());
        assert_eq!(one.src_is(&mut m, 0), Bdd::TRUE);
        assert_eq!(one.src_id_in(&mut m, &[0]), Bdd::TRUE);
        assert_eq!(one.src_id_in(&mut m, &[]), Bdd::FALSE);
        assert_eq!(one.of_source(&mut m, set, 0), set);
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

    /// The trie walk builds the union the fold of `dst_in` builds, on
    /// nested, duplicated and disjoint prefixes alike.
    #[test]
    fn dst_in_any_equals_the_union_of_dst_in() {
        let s = space();
        let mut m = s.manager();
        let sets = [
            vec![],
            vec!["0.0.0.0/0"],
            vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/16", "10.2.3.0/24"],
            vec!["10.9.0.0/24", "10.0.0.0/24", "192.168.1.0/24", "10.9.0.128/25"],
            vec!["10.2.3.4/32", "11.0.0.0/8", "10.2.3.5/32"],
        ];
        for prefixes in sets {
            let prefixes: Vec<Prefix> = prefixes.iter().map(|p| p.parse().unwrap()).collect();
            let parts: Vec<Bdd> = prefixes.iter().map(|&p| s.dst_in(&mut m, p)).collect();
            let fold = m.or_all(parts);
            assert_eq!(s.dst_in_any(&mut m, &prefixes), fold, "{prefixes:?}");
        }
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
