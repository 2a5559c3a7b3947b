//! Pins the seeded shuffle behind §4.5's shard assignment and the
//! `Scheme::Random` partition: the exact plans and assignments below
//! must never move, whatever generator implementation backs them.

use s2_net::{Ipv4Addr, Prefix};
use s2_partition::schemes::{compute, Scheme};
use s2_shard::assign::greedy_assign;
use s2_topogen::fattree::{generate, FatTreeParams};

/// The first `n` outputs of the seeded generator.
fn first_outputs(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = s2_net::rng::SeededRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn generator_stream_at_seed_7_is_pinned() {
    assert_eq!(
        first_outputs(7, 8),
        [
            1507201545562260538,
            4764137222614882372,
            6531706806203711957,
            10207955127572698116,
            12027103494915369009,
            11139636652192495436,
            7655283503440615602,
            11471248931787282044,
        ]
    );
}

/// Component `i` holds `sizes[i]` prefixes `10.i.j.0/24`; a plan is
/// rendered as the component ids each shard holds, in shard order.
fn plan_by_component(seed: u64) -> Vec<Vec<u8>> {
    let sizes = [3u8, 1, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2];
    let components: Vec<Vec<Prefix>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            (0..s)
                .map(|j| Prefix::new(Ipv4Addr::new(10, i as u8, j, 0), 24))
                .collect()
        })
        .collect();
    let plan = greedy_assign(components, 3, seed);
    plan.shards
        .iter()
        .map(|shard| {
            let mut ids: Vec<u8> = shard.iter().map(|p| p.addr().octets()[1]).collect();
            ids.dedup();
            ids
        })
        .collect()
}

#[test]
fn greedy_assign_plans_are_pinned() {
    let plans: Vec<Vec<Vec<u8>>> = [0u64, 1, 7, 11].map(plan_by_component).to_vec();
    assert_eq!(
        plans,
        [
            [vec![5, 9, 10, 11], vec![1, 2, 4, 6], vec![0, 3, 7, 8]],
            [vec![5, 7, 8, 9], vec![0, 1, 2, 6], vec![3, 4, 10, 11]],
            [vec![3, 5, 8, 9], vec![0, 7, 10, 11], vec![1, 2, 4, 6]],
            [vec![2, 6, 8, 9], vec![0, 1, 7, 11], vec![3, 4, 5, 10]],
        ]
    );
}

#[test]
fn random_partition_of_fattree_4_is_pinned() {
    let ft = generate(FatTreeParams::new(4));
    let p = compute(&ft.topology, 4, Scheme::Random { seed: 42 });
    assert_eq!(
        p.assignment,
        [2, 3, 3, 2, 0, 2, 3, 0, 1, 1, 3, 1, 3, 0, 0, 2, 0, 2, 1, 1]
    );
}
