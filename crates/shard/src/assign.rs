//! Greedy shard assignment (§4.5's algorithm): components sorted by
//! descending size, equal sizes shuffled, each component placed on the
//! currently smallest shard.

use crate::ShardPlan;
use s2_net::rng::SeededRng;
use s2_net::Prefix;
use std::collections::BTreeSet;

/// Distributes `components` over at most `num_shards` shards. Empty shards
/// are dropped, so fewer shards than requested may come back for tiny
/// inputs.
pub fn greedy_assign(components: Vec<Vec<Prefix>>, num_shards: usize, seed: u64) -> ShardPlan {
    let num_shards = num_shards.max(1);
    let mut components = components;

    // Sort descending by size. Shuffle runs of identical size — without
    // this, components ordered by origin switch dominate shards unevenly
    // across workers (the paper observed exactly this imbalance).
    let mut rng = SeededRng::seed_from_u64(seed);
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut start = 0;
    while start < components.len() {
        let size = components[start].len();
        let mut end = start;
        while end < components.len() && components[end].len() == size {
            end += 1;
        }
        rng.shuffle(&mut components[start..end]);
        start = end;
    }

    let mut shards: Vec<BTreeSet<Prefix>> = vec![BTreeSet::new(); num_shards];
    for cc in components {
        let smallest = shards
            .iter_mut()
            .min_by_key(|s| s.len())
            .expect("num_shards >= 1");
        smallest.extend(cc);
    }
    shards.retain(|s| !s.is_empty());
    ShardPlan { shards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2_net::Ipv4Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn singleton_components_spread_evenly() {
        let components: Vec<Vec<Prefix>> = (0..8)
            .map(|i| vec![Prefix::new(Ipv4Addr::new(10, i, 0, 0), 24)])
            .collect();
        let plan = greedy_assign(components, 4, 1);
        assert_eq!(plan.len(), 4);
        for s in &plan.shards {
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn large_component_stays_together() {
        let big: Vec<Prefix> = (0..5)
            .map(|i| Prefix::new(Ipv4Addr::new(10, 0, i, 0), 24))
            .collect();
        let small = vec![p("192.168.0.0/24")];
        let plan = greedy_assign(vec![big.clone(), small], 2, 7);
        assert_eq!(plan.len(), 2);
        let big_shard = plan.shard_of(big[0]).unwrap();
        for q in &big {
            assert_eq!(plan.shard_of(*q), Some(big_shard));
        }
        assert_ne!(plan.shard_of(p("192.168.0.0/24")).unwrap(), big_shard);
    }

    #[test]
    fn empty_shards_are_dropped() {
        let plan = greedy_assign(vec![vec![p("10.0.0.0/24")]], 16, 0);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn shuffle_is_seeded_and_effective() {
        let components: Vec<Vec<Prefix>> = (0..32)
            .map(|i| vec![Prefix::new(Ipv4Addr::new(10, i, 0, 0), 24)])
            .collect();
        let p1 = greedy_assign(components.clone(), 4, 11);
        let p2 = greedy_assign(components.clone(), 4, 11);
        assert_eq!(p1, p2, "same seed must reproduce");
        let p3 = greedy_assign(components, 4, 12);
        assert_ne!(p1, p3, "different seed should shuffle differently");
    }

    proptest! {
        /// No prefix is lost or duplicated, and shard sizes are balanced
        /// within the largest component size.
        #[test]
        fn prop_exact_cover_and_balance(
            sizes in proptest::collection::vec(1usize..6, 1..20),
            num_shards in 1usize..8,
            seed in any::<u64>(),
        ) {
            let mut next = 0u32;
            let components: Vec<Vec<Prefix>> = sizes
                .iter()
                .map(|&s| {
                    (0..s)
                        .map(|_| {
                            next += 1;
                            Prefix::new(Ipv4Addr(next << 8), 24)
                        })
                        .collect()
                })
                .collect();
            let total: usize = sizes.iter().sum();
            let max_cc = *sizes.iter().max().unwrap();
            let plan = greedy_assign(components, num_shards, seed);
            prop_assert_eq!(plan.total_prefixes(), total);
            // Greedy bound: max shard ≤ min shard + largest component.
            let lens: Vec<usize> = plan.shards.iter().map(BTreeSet::len).collect();
            let max = *lens.iter().max().unwrap();
            let min = *lens.iter().min().unwrap();
            prop_assert!(max <= min + max_cc, "lens={lens:?} max_cc={max_cc}");
        }
    }
}
