//! A binary prefix trie keyed by [`Prefix`].
//!
//! Used for longest-prefix-match FIB lookups, for finding the contributing
//! routes of an aggregate, and for building the prefix dependency graph.
//! The trie is a plain binary radix structure: each level consumes one bit
//! of the network address, so lookups are `O(32)` regardless of table size.

use crate::ip::{Ipv4Addr, Prefix};

/// A set/map of prefixes supporting exact and longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the value stored exactly at `prefix`.
    ///
    /// Interior nodes are left in place; this trades a little memory for
    /// cheap removals, which only the incremental tests exercise.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Returns the value stored exactly at `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Mutable variant of [`get`](Self::get).
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, together with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        let mut node = &self.root;
        let mut best: Option<(Prefix, &T)> = self.root.value.as_ref().map(|v| (Prefix::DEFAULT, v));
        for i in 0..32u8 {
            let b = addr.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((Prefix::new(addr, i + 1), v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// The most specific stored prefix that covers `prefix` (possibly
    /// `prefix` itself).
    pub fn longest_cover(&self, prefix: Prefix) -> Option<(Prefix, &T)> {
        let mut node = &self.root;
        let mut best: Option<(Prefix, &T)> = self.root.value.as_ref().map(|v| (Prefix::DEFAULT, v));
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((Prefix::new(prefix.addr(), i + 1), v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Visits every stored prefix covered by `prefix` (including `prefix`
    /// itself if stored), in no particular order.
    pub fn for_each_covered<F: FnMut(Prefix, &T)>(&self, prefix: Prefix, mut f: F) {
        // Walk down to the subtree rooted at `prefix`, then enumerate it.
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => node = child,
                None => return,
            }
        }
        visit(node, prefix.addr().0, prefix.len(), &mut f);

        fn visit<T>(node: &Node<T>, bits: u32, depth: u8, f: &mut impl FnMut(Prefix, &T)) {
            if let Some(v) = node.value.as_ref() {
                f(Prefix::new(Ipv4Addr(bits), depth), v);
            }
            if depth == 32 {
                return;
            }
            if let Some(child) = node.children[0].as_deref() {
                visit(child, bits, depth + 1, f);
            }
            if let Some(child) = node.children[1].as_deref() {
                visit(child, bits | (1 << (31 - depth)), depth + 1, f);
            }
        }
    }

    /// Iterates over all `(prefix, value)` pairs in pre-order: a prefix
    /// before every prefix it covers, and below any node the 0-branch
    /// before the 1-branch. That is ascending `(address, length)`, the
    /// order of [`Prefix`]'s `Ord`. The data plane's predicate compile
    /// walks the FIB trie in exactly this order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::new();
        collect(&self.root, 0, 0, &mut out);
        return out.into_iter();

        fn collect<'a, T>(
            node: &'a Node<T>,
            bits: u32,
            depth: u8,
            out: &mut Vec<(Prefix, &'a T)>,
        ) {
            if let Some(v) = node.value.as_ref() {
                out.push((Prefix::new(Ipv4Addr(bits), depth), v));
            }
            if depth == 32 {
                return;
            }
            if let Some(child) = node.children[0].as_deref() {
                collect(child, bits, depth + 1, out);
            }
            if let Some(child) = node.children[1].as_deref() {
                collect(child, bits | (1 << (31 - depth)), depth + 1, out);
            }
        }
    }

    /// Returns true if any stored prefix strictly more specific than
    /// `prefix` is covered by it.
    pub fn has_more_specific(&self, prefix: Prefix) -> bool {
        let mut found = false;
        self.for_each_covered(prefix, |p, _| {
            if p != prefix {
                found = true;
            }
        });
        found
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        assert_eq!(t.lookup(a("10.1.2.3")).unwrap(), (p("10.1.0.0/16"), &"sixteen"));
        assert_eq!(t.lookup(a("10.200.0.1")).unwrap(), (p("10.0.0.0/8"), &"eight"));
        assert_eq!(t.lookup(a("192.168.0.1")).unwrap(), (p("0.0.0.0/0"), &"default"));
    }

    #[test]
    fn lpm_without_default_can_miss() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.lookup(a("11.0.0.1")).is_none());
    }

    #[test]
    fn longest_cover_finds_ancestor() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        assert_eq!(t.longest_cover(p("10.1.2.0/24")).unwrap(), (p("10.1.0.0/16"), &16));
        assert_eq!(t.longest_cover(p("10.1.0.0/16")).unwrap(), (p("10.1.0.0/16"), &16));
        assert_eq!(t.longest_cover(p("10.2.0.0/16")).unwrap(), (p("10.0.0.0/8"), &8));
        assert!(t.longest_cover(p("11.0.0.0/16")).is_none());
    }

    #[test]
    fn covered_enumeration() {
        let mut t = PrefixTrie::new();
        for (pref, v) in [("10.1.0.0/16", 1), ("10.1.2.0/24", 2), ("10.2.0.0/16", 3), ("11.0.0.0/8", 4)] {
            t.insert(p(pref), v);
        }
        let mut seen = Vec::new();
        t.for_each_covered(p("10.0.0.0/8"), |pref, v| seen.push((pref, *v)));
        seen.sort();
        assert_eq!(seen, vec![(p("10.1.0.0/16"), 1), (p("10.1.2.0/24"), 2), (p("10.2.0.0/16"), 3)]);
        assert!(t.has_more_specific(p("10.1.0.0/16")));
        assert!(!t.has_more_specific(p("10.1.2.0/24")));
        assert!(!t.has_more_specific(p("12.0.0.0/8")));
    }

    #[test]
    fn iter_returns_all_in_order() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.168.0.0/16"), ());
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.1.0.0/16"), ());
        let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(got, vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")]);
    }

    #[test]
    fn iter_is_preorder() {
        let t: PrefixTrie<()> =
            ["128.0.0.0/1", "10.128.0.0/9", "10.0.0.0/32", "10.0.0.0/8", "0.0.0.0/0", "10.0.0.0/16"]
                .into_iter()
                .map(|s| (p(s), ()))
                .collect();
        let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        let expect =
            ["0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/32", "10.128.0.0/9", "128.0.0.0/1"];
        assert_eq!(got, expect.map(p));
    }

    #[test]
    fn default_route_is_storable() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT, 0);
        assert_eq!(t.lookup(a("1.2.3.4")).unwrap().0, Prefix::DEFAULT);
        assert_eq!(t.get(Prefix::DEFAULT), Some(&0));
    }

    proptest! {
        /// LPM must agree with a linear scan over the stored prefixes.
        #[test]
        fn prop_lpm_matches_linear_scan(
            entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..40),
            probe in any::<u32>(),
        ) {
            let mut t = PrefixTrie::new();
            let mut stored = Vec::new();
            for (bits, len) in entries {
                let pref = Prefix::new(Ipv4Addr(bits), len);
                t.insert(pref, pref);
                stored.push(pref);
            }
            let addr = Ipv4Addr(probe);
            let expect = stored
                .iter()
                .filter(|p| p.contains_addr(addr))
                .max_by_key(|p| p.len())
                .copied();
            prop_assert_eq!(t.lookup(addr).map(|(p, _)| p), expect);
        }

        /// Everything inserted is found again, exactly once, by `iter`.
        #[test]
        fn prop_iter_is_exact(entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..40)) {
            let mut t = PrefixTrie::new();
            let mut expect: Vec<Prefix> = Vec::new();
            for (bits, len) in entries {
                let pref = Prefix::new(Ipv4Addr(bits), len);
                if t.insert(pref, ()).is_none() {
                    expect.push(pref);
                }
            }
            expect.sort();
            let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(t.len(), t.iter().count());
        }

        /// `iter` is a pre-order walk: no prefix comes after one it
        /// covers, and of two disjoint prefixes the one in the 0-branch
        /// of the node where they part comes first.
        #[test]
        fn prop_iter_is_preorder(entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..40)) {
            let t: PrefixTrie<()> =
                entries.into_iter().map(|(bits, len)| (Prefix::new(Ipv4Addr(bits), len), ())).collect();
            let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
            for (i, &first) in got.iter().enumerate() {
                for &later in &got[i + 1..] {
                    prop_assert!(!later.covers(first), "{later} covers earlier {first}");
                    if !first.covers(later) {
                        let parted = (0..32).find(|&b| first.bit(b) != later.bit(b)).unwrap();
                        prop_assert!(!first.bit(parted), "{first} is in the 1-branch of {later}'s parting node");
                    }
                }
            }
        }
    }
}
