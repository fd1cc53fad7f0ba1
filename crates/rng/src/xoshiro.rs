//! xoshiro256**: the workhorse generator used by every stochastic component.
//!
//! The generator is small (4×u64 of state), extremely fast, passes all known
//! statistical test batteries and — crucially for a simulator — its sequence is fully
//! determined by the seed, independent of platform or crate versions.

use crate::splitmix::SplitMix64;

/// xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

#[inline(always)]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Xoshiro256 {
    /// Seed the generator from a single 64-bit value through SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let s = SplitMix64::new(seed).next_state4();
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased multiply-shift method.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Choose a uniformly random element of a non-empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.gen_index(items.len())]
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Split off a decorrelated child generator (for per-component streams).
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64() ^ 0xA076_1D64_78BD_642F;
        Self::seed_from(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::seed_from(99);
        let mut b = Xoshiro256::seed_from(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Xoshiro256::seed_from(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_within_bounds_and_covers() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from(17);
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_index(8)] += 1;
        }
        for &c in &counts {
            let expected = n / 8;
            assert!(
                (c as i64 - expected as i64).abs() < (expected / 10) as i64,
                "count {c} too far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_bound_panics() {
        Xoshiro256::seed_from(0).gen_range(0);
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = Xoshiro256::seed_from(9);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut rng = Xoshiro256::seed_from(13);
        let p = 0.3;
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = Xoshiro256::seed_from(23);
        let items = [5, 9, 12, 42];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut parent = Xoshiro256::seed_from(77);
        let mut a = parent.split();
        let mut b = parent.split();
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }
}
