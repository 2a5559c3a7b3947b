//! FIB construction: from a node's final RIB to longest-prefix-match
//! forwarding state.

use s2_net::topology::InterfaceId;
use s2_net::{Ipv4Addr, Prefix, PrefixTrie};
use s2_routing::RibRoute;

/// One FIB entry: the forwarding decision for a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    /// ECMP egress interfaces; empty means local delivery or discard.
    pub egress: Vec<InterfaceId>,
    /// Whether packets matching this entry have arrived at their
    /// destination (connected subnet or locally originated prefix).
    pub is_local: bool,
}

impl FibEntry {
    /// Whether packets matching this entry are dropped.
    pub fn is_discard(&self) -> bool {
        self.egress.is_empty() && !self.is_local
    }
}

/// A node's FIB: an LPM structure over its winning routes.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    trie: PrefixTrie<FibEntry>,
}

impl Fib {
    /// Builds the FIB from the node's final (already distance-merged) RIB.
    pub fn from_rib(routes: &[RibRoute]) -> Self {
        let mut trie = PrefixTrie::new();
        for r in routes {
            trie.insert(
                r.prefix,
                FibEntry {
                    egress: r.egress.clone(),
                    is_local: r.is_local,
                },
            );
        }
        Fib { trie }
    }

    /// Number of FIB entries.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the FIB is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Longest-prefix-match lookup for a concrete destination.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<(Prefix, &FibEntry)> {
        self.trie.lookup(dst)
    }

    /// Iterates entries in trie pre-order (see [`PrefixTrie::iter`]).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &FibEntry)> {
        self.trie.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::policy::Protocol;

    fn rib(prefix: &str, egress: Vec<u16>, is_local: bool) -> RibRoute {
        RibRoute {
            prefix: prefix.parse().unwrap(),
            protocol: Protocol::Bgp,
            egress: egress.into_iter().map(InterfaceId).collect(),
            is_local,
            as_path_len: 0,
        }
    }

    #[test]
    fn lpm_lookup_prefers_specific() {
        let fib = Fib::from_rib(&[
            rib("10.0.0.0/8", vec![0], false),
            rib("10.1.0.0/16", vec![1], false),
        ]);
        assert_eq!(fib.len(), 2);
        let (p, e) = fib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(p, "10.1.0.0/16".parse().unwrap());
        assert_eq!(e.egress, vec![InterfaceId(1)]);
        let (p, _) = fib.lookup("10.2.0.0".parse().unwrap()).unwrap();
        assert_eq!(p, "10.0.0.0/8".parse().unwrap());
        assert!(fib.lookup("11.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn discard_and_local_classification() {
        let local = FibEntry { egress: vec![], is_local: true };
        let discard = FibEntry { egress: vec![], is_local: false };
        let fwd = FibEntry { egress: vec![InterfaceId(0)], is_local: false };
        assert!(!local.is_discard());
        assert!(discard.is_discard());
        assert!(!fwd.is_discard());
    }
}
