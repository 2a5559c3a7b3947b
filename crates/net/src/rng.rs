//! The workspace's one seeded generator, for reproducible shuffles
//! (§4.5's shard assignment and the `Random` partition scheme).
//!
//! An xorshift64* core seeded through one splitmix64 step, a rejection
//! sampler for unbiased bounded draws, and a Fisher–Yates shuffle. The
//! exact stream is part of the contract: shard plans and `Random`
//! partitions are pinned bit-for-bit by the workspace's
//! `shuffle_pin` test.

/// A seeded xorshift64* generator.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// Builds the generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 step so that small seeds don't yield small states.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SeededRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform value in `[0, bound)`; rejection sampling avoids modulo
    /// bias.
    fn gen_bound(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Shuffles `items` uniformly in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_bound(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SeededRng;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SeededRng::seed_from_u64(7);
        let mut b = SeededRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_sensitive() {
        let orig: Vec<u32> = (0..50).collect();
        let mut x = orig.clone();
        SeededRng::seed_from_u64(1).shuffle(&mut x);
        let mut y = orig.clone();
        SeededRng::seed_from_u64(1).shuffle(&mut y);
        assert_eq!(x, y, "same seed, same permutation");
        let mut z = orig.clone();
        SeededRng::seed_from_u64(2).shuffle(&mut z);
        assert_ne!(x, z, "different seed shuffles differently");
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle permutes, never drops");
    }

    #[test]
    fn gen_bound_is_in_range() {
        let mut r = SeededRng::seed_from_u64(3);
        for bound in [1u64, 2, 7, 100] {
            for _ in 0..100 {
                assert!(r.gen_bound(bound) < bound);
            }
        }
    }
}
