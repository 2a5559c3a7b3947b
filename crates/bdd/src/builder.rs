//! Bit-vector encodings: prefixes, exact values and integer ranges.
//!
//! The data plane represents a packet header as a block of Boolean
//! variables (most significant bit first). These helpers build the BDDs
//! matching "field == value", "field in [lo, hi]" and "address matches
//! prefix", which is everything FIB rules and ACLs need.

use crate::manager::{Bdd, BddManager};

impl BddManager {
    /// BDD for "the `width`-bit field starting at variable `offset` equals
    /// `value`" (most significant bit at `offset`).
    pub fn encode_eq(&mut self, offset: u16, width: u16, value: u64) -> Bdd {
        debug_assert!(width <= 64);
        let mut acc = Bdd::TRUE;
        // Build from the least significant bit up so the conjunction
        // grows bottom-up along the variable order (linear-size result).
        for i in (0..width).rev() {
            let bit = (value >> (width - 1 - i)) & 1 == 1;
            let var = offset + i;
            let lit = if bit { self.var(var) } else { self.nvar(var) };
            acc = self.and(lit, acc);
        }
        acc
    }

    /// BDD for "the 32-bit address field starting at `offset` lies in the
    /// prefix `addr/len`": the first `len` bits are fixed, the rest free.
    pub fn encode_prefix(&mut self, offset: u16, addr: u32, len: u8) -> Bdd {
        debug_assert!(len <= 32);
        let mut acc = Bdd::TRUE;
        for i in (0..len as u16).rev() {
            let bit = (addr >> (31 - i)) & 1 == 1;
            let var = offset + i;
            let lit = if bit { self.var(var) } else { self.nvar(var) };
            acc = self.and(lit, acc);
        }
        acc
    }

    /// Longest-prefix-match classes of the 32-bit address field starting
    /// at `offset`: for every class, the BDD of the addresses whose most
    /// specific covering prefix in `prefixes` carries that class, and of
    /// the addresses no prefix covers for `default`. Classes that end up
    /// with no address are left out; the rest come back sorted by class.
    ///
    /// `prefixes` are `(addr, len, class)` triples with host bits zero, in
    /// trie pre-order: a prefix before everything it covers, the 0-branch
    /// before the 1-branch — ascending `(addr, len)`, no prefix twice.
    ///
    /// One recursive walk over the implied binary trie builds every result
    /// bottom-up: a subtree holding no prefix is its inherited class over
    /// TRUE, and an inner node at depth `d` merges its children's
    /// class-sorted lists into one `mk(offset + d, lo, hi)` per class. So
    /// no intermediate BDD is built and the manager gains only nodes of
    /// the results.
    pub fn encode_prefix_classes<C: Copy + Ord>(
        &mut self,
        offset: u16,
        default: C,
        prefixes: &[(u32, u8, C)],
    ) -> Vec<(C, Bdd)> {
        debug_assert!(
            prefixes.iter().all(|&(addr, len, _)| len <= 32 && addr & !high_bits(len) == 0),
            "prefixes must be /0 to /32 with host bits zero"
        );
        debug_assert!(
            prefixes.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "prefixes must be distinct and in trie pre-order"
        );
        let mut walk = ClassWalk {
            manager: self,
            offset,
            prefixes,
            next: 0,
            lists: Vec::new(),
            merged: Vec::new(),
        };
        walk.subtree(0, 0, default);
        walk.lists.into_iter().map(|(class, node)| (class, Bdd(node))).collect()
    }

    /// BDD for "the `width`-bit field starting at `offset` is ≤ `bound`".
    pub fn encode_le(&mut self, offset: u16, width: u16, bound: u64) -> Bdd {
        debug_assert!(width <= 64);
        // Walk bits from least significant to most significant, building
        // "suffix ≤ bound-suffix" bottom-up.
        let mut acc = Bdd::TRUE;
        for i in (0..width).rev() {
            let var = offset + i;
            let bit = (bound >> (width - 1 - i)) & 1 == 1;
            let v = self.var(var);
            let nv = self.nvar(var);
            acc = if bit {
                // field bit 0 ⇒ anything below; field bit 1 ⇒ suffix must
                // still be ≤.
                let hi_branch = self.and(v, acc);
                self.or(nv, hi_branch)
            } else {
                // field bit must be 0 and suffix ≤.
                self.and(nv, acc)
            };
        }
        acc
    }

    /// BDD for "the `width`-bit field starting at `offset` is ≥ `bound`".
    pub fn encode_ge(&mut self, offset: u16, width: u16, bound: u64) -> Bdd {
        debug_assert!(width <= 64);
        let mut acc = Bdd::TRUE;
        for i in (0..width).rev() {
            let var = offset + i;
            let bit = (bound >> (width - 1 - i)) & 1 == 1;
            let v = self.var(var);
            let nv = self.nvar(var);
            acc = if bit {
                self.and(v, acc)
            } else {
                let lo_branch = self.and(nv, acc);
                self.or(v, lo_branch)
            };
        }
        acc
    }

    /// BDD for "the `width`-bit field starting at `offset` lies in
    /// `[lo, hi]`" (inclusive). Returns FALSE for an empty range.
    pub fn encode_range(&mut self, offset: u16, width: u16, lo: u64, hi: u64) -> Bdd {
        if lo > hi {
            return Bdd::FALSE;
        }
        let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        if lo == 0 && hi >= max {
            return Bdd::TRUE;
        }
        let ge = self.encode_ge(offset, width, lo);
        let le = self.encode_le(offset, width, hi);
        self.and(ge, le)
    }
}

/// The mask of the `len` most significant bits of a 32-bit address.
fn high_bits(len: u8) -> u32 {
    u32::MAX.checked_shl(32 - len as u32).unwrap_or(0)
}

/// The state of one [`BddManager::encode_prefix_classes`] walk.
struct ClassWalk<'a, C> {
    manager: &'a mut BddManager,
    offset: u16,
    prefixes: &'a [(u32, u8, C)],
    /// Index of the first prefix not yet visited.
    next: usize,
    /// The class-sorted `(class, node)` lists of finished subtrees, one
    /// after the other; the walk's result is the one left at the end.
    lists: Vec<(C, u32)>,
    /// Scratch for merging two sibling lists.
    merged: Vec<(C, u32)>,
}

impl<C: Copy + Ord> ClassWalk<'_, C> {
    /// Visits the subtree of the addresses whose `depth` high bits are
    /// those of `bits`, where `class` is the class of the longest prefix
    /// strictly above it, and appends the subtree's class list to `lists`.
    fn subtree(&mut self, depth: u8, bits: u32, mut class: C) {
        if let Some(&(addr, len, c)) = self.prefixes.get(self.next) {
            if len == depth && addr == bits {
                class = c;
                self.next += 1;
            }
        }
        let below = self
            .prefixes
            .get(self.next)
            .is_some_and(|&(addr, len, _)| len > depth && (addr ^ bits) & high_bits(depth) == 0);
        if !below {
            self.lists.push((class, Bdd::TRUE.0));
            return;
        }
        // A prefix longer than `depth` exists, so `depth < 32`.
        let start = self.lists.len();
        self.subtree(depth + 1, bits, class);
        let mid = self.lists.len();
        self.subtree(depth + 1, bits | 1 << (31 - depth), class);

        let var = self.offset + depth as u16;
        let end = self.lists.len();
        let (mut i, mut j) = (start, mid);
        self.merged.clear();
        loop {
            let lo = self.lists[i..mid].first().copied();
            let hi = self.lists[j..end].first().copied();
            let Some(class) = lo.into_iter().chain(hi).map(|(c, _)| c).min() else {
                break;
            };
            let take = |side: Option<(C, u32)>, at: &mut usize| match side {
                Some((c, node)) if c == class => {
                    *at += 1;
                    node
                }
                _ => Bdd::FALSE.0,
            };
            let (l, h) = (take(lo, &mut i), take(hi, &mut j));
            self.merged.push((class, self.manager.mk(var, l, h)));
        }
        self.lists.truncate(start);
        self.lists.extend_from_slice(&self.merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Evaluates `f` treating variables `[offset, offset+width)` as a big-
    /// endian integer `value`, all other variables false.
    fn eval_field(m: &BddManager, f: Bdd, offset: u16, width: u16, value: u64) -> bool {
        let mut assign = vec![false; m.num_vars() as usize];
        for i in 0..width {
            assign[(offset + i) as usize] = (value >> (width - 1 - i)) & 1 == 1;
        }
        m.eval(f, &assign)
    }

    #[test]
    fn eq_matches_exactly() {
        let mut m = BddManager::new(16);
        let f = m.encode_eq(4, 8, 0xAB);
        for v in 0..=255u64 {
            assert_eq!(eval_field(&m, f, 4, 8, v), v == 0xAB);
        }
        assert_eq!(m.sat_count(f), 1 << 8); // 8 free vars outside the field
    }

    #[test]
    fn prefix_fixes_leading_bits() {
        let mut m = BddManager::new(32);
        // 10.0.0.0/8
        let f = m.encode_prefix(0, 0x0A000000, 8);
        assert!(eval_field(&m, f, 0, 32, 0x0A012345));
        assert!(!eval_field(&m, f, 0, 32, 0x0B000000));
        assert_eq!(m.sat_count(f), 1u128 << 24);
        // /0 matches everything.
        let any = m.encode_prefix(0, 0, 0);
        assert!(any.is_true());
        // /32 matches exactly one.
        let host = m.encode_prefix(0, 0xC0A80101, 32);
        assert_eq!(m.sat_count(host), 1);
    }

    #[test]
    fn le_ge_boundaries() {
        let mut m = BddManager::new(8);
        let le = m.encode_le(0, 8, 100);
        let ge = m.encode_ge(0, 8, 100);
        for v in 0..=255u64 {
            assert_eq!(eval_field(&m, le, 0, 8, v), v <= 100, "le {v}");
            assert_eq!(eval_field(&m, ge, 0, 8, v), v >= 100, "ge {v}");
        }
    }

    #[test]
    fn range_semantics() {
        let mut m = BddManager::new(8);
        let f = m.encode_range(0, 8, 10, 20);
        for v in 0..=255u64 {
            assert_eq!(eval_field(&m, f, 0, 8, v), (10..=20).contains(&v));
        }
        assert_eq!(m.sat_count(f), 11);
        assert!(m.encode_range(0, 8, 20, 10).is_false());
        assert!(m.encode_range(0, 8, 0, 255).is_true());
    }

    /// [`BddManager::encode_prefix_classes`] the slow way: prefixes
    /// longest first, each minus the union of everything seen before.
    fn classes_by_fold(
        m: &mut BddManager,
        offset: u16,
        default: u8,
        prefixes: &[(u32, u8, u8)],
    ) -> Vec<(u8, Bdd)> {
        let mut longest_first = prefixes.to_vec();
        longest_first.sort_by_key(|&(addr, len, _)| (std::cmp::Reverse(len), addr));
        let mut classes = std::collections::BTreeMap::new();
        let mut covered = Bdd::FALSE;
        for (addr, len, class) in longest_first {
            let p = m.encode_prefix(offset, addr, len);
            let effective = m.diff(p, covered);
            covered = m.or(covered, p);
            let acc = classes.entry(class).or_insert(Bdd::FALSE);
            *acc = m.or(*acc, effective);
        }
        let unrouted = m.not(covered);
        let acc = classes.entry(default).or_insert(Bdd::FALSE);
        *acc = m.or(*acc, unrouted);
        classes.into_iter().filter(|(_, f)| !f.is_false()).collect()
    }

    /// Distinct prefixes in trie pre-order. `pick` below the pool size
    /// takes a pool address instead of `bits`, so prefixes nest often.
    fn preorder(raw: Vec<(usize, u32, u8, u8)>) -> Vec<(u32, u8, u8)> {
        const POOL: [u32; 7] =
            [0, 0x0A00_0000, 0x0A01_0000, 0x0A01_0180, 0x8000_0000, 0xC0A8_0101, u32::MAX];
        let mut seen = std::collections::BTreeMap::new();
        for (pick, bits, len, class) in raw {
            let addr = POOL.get(pick).copied().unwrap_or(bits) & high_bits(len);
            seen.entry((addr, len)).or_insert(class);
        }
        seen.into_iter().map(|((addr, len), class)| (addr, len, class)).collect()
    }

    /// Decision nodes reachable from any of `roots`.
    fn dag_nodes(m: &BddManager, roots: impl IntoIterator<Item = Bdd>) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack: Vec<Bdd> = roots.into_iter().collect();
        while let Some(f) = stack.pop() {
            if f.is_const() || !seen.insert(f) {
                continue;
            }
            let n = m.node(f);
            stack.push(Bdd(n.lo));
            stack.push(Bdd(n.hi));
        }
        seen.len()
    }

    #[test]
    fn prefix_classes_follow_longest_match() {
        let mut m = BddManager::new(32);
        // 10/8 → 1, 10.1/16 → 2, 10.1.1.0/24 → 1, the rest → 0.
        let got = m.encode_prefix_classes(
            0,
            0u8,
            &[(0x0A00_0000, 8, 1), (0x0A01_0000, 16, 2), (0x0A01_0100, 24, 1)],
        );
        let classes: Vec<u8> = got.iter().map(|&(c, _)| c).collect();
        assert_eq!(classes, vec![0, 1, 2]);
        let class_of = |m: &BddManager, addr: u64| {
            let hits: Vec<u8> =
                got.iter().filter(|&&(_, f)| eval_field(m, f, 0, 32, addr)).map(|&(c, _)| c).collect();
            assert_eq!(hits.len(), 1, "classes partition the space");
            hits[0]
        };
        assert_eq!(class_of(&m, 0x0A02_0304), 1);
        assert_eq!(class_of(&m, 0x0A01_0203), 2);
        assert_eq!(class_of(&m, 0x0A01_01FF), 1);
        assert_eq!(class_of(&m, 0x0B00_0000), 0);
        // No prefix at all: one class, everything.
        assert_eq!(m.encode_prefix_classes(0, 7u8, &[]), vec![(7, Bdd::TRUE)]);
        // A /0 shadows the default completely.
        assert_eq!(m.encode_prefix_classes(0, 7u8, &[(0, 0, 3)]), vec![(3, Bdd::TRUE)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pre-order")]
    fn prefix_classes_reject_input_out_of_preorder() {
        let mut m = BddManager::new(32);
        m.encode_prefix_classes(0, 0u8, &[(0x0A01_0000, 16, 1), (0x0A00_0000, 8, 2)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "host bits")]
    fn prefix_classes_reject_host_bits() {
        let mut m = BddManager::new(32);
        m.encode_prefix_classes(0, 0u8, &[(0x0A01_0000, 8, 1)]);
    }

    proptest! {
        /// The walk equals the longest-first fold, at offset 0 and inside
        /// a wider variable block.
        #[test]
        fn prop_prefix_classes_match_fold(
            raw in proptest::collection::vec((0usize..10, any::<u32>(), 0u8..=32, 0u8..4), 0..24),
            default in 0u8..5,
            wide in any::<bool>(),
        ) {
            let offset = if wide { 9 } else { 0 };
            let prefixes = preorder(raw);
            let mut m = BddManager::new(offset + 40);
            let walked = m.encode_prefix_classes(offset, default, &prefixes);
            prop_assert_eq!(walked, classes_by_fold(&mut m, offset, default, &prefixes));
        }

        /// The walk creates no node outside its results: in a fresh
        /// manager the node count grows by exactly the results' shared
        /// DAG, and a repeated walk adds nothing.
        #[test]
        fn prop_prefix_classes_create_only_result_nodes(
            raw in proptest::collection::vec((0usize..10, any::<u32>(), 0u8..=32, 0u8..4), 0..24),
        ) {
            let prefixes = preorder(raw);
            let mut m = BddManager::new(32);
            let walked = m.encode_prefix_classes(0, 4u8, &prefixes);
            let grown = m.node_count() - 2;
            prop_assert_eq!(grown, dag_nodes(&m, walked.iter().map(|&(_, f)| f)));
            prop_assert_eq!(m.encode_prefix_classes(0, 4u8, &prefixes), walked);
            prop_assert_eq!(m.node_count() - 2, grown);
        }

        #[test]
        fn prop_range_matches_arith(lo in 0u64..256, hi in 0u64..256, probe in 0u64..256) {
            let mut m = BddManager::new(8);
            let f = m.encode_range(0, 8, lo, hi);
            prop_assert_eq!(eval_field(&m, f, 0, 8, probe), lo <= probe && probe <= hi);
        }

        #[test]
        fn prop_eq_count_is_one_in_field(value in 0u64..65536) {
            let mut m = BddManager::new(16);
            let f = m.encode_eq(0, 16, value);
            prop_assert_eq!(m.sat_count(f), 1);
        }

        #[test]
        fn prop_prefix_count(addr in any::<u32>(), len in 0u8..=32) {
            let mut m = BddManager::new(32);
            let f = m.encode_prefix(0, addr, len);
            prop_assert_eq!(m.sat_count(f), 1u128 << (32 - len));
        }
    }
}
