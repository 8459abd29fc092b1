//! Deterministic random number generation: xoshiro256++ seeded via SplitMix64.
//!
//! We implement the generator in-crate instead of depending on `rand` so
//! that a given experiment seed reproduces the identical world regardless
//! of which `rand` major version is in the dependency tree. xoshiro256++
//! is the general-purpose generator recommended by its authors (Blackman &
//! Vigna); SplitMix64 is the canonical way to expand a 64-bit seed into the
//! 256-bit state without correlation artifacts.

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// Not cryptographically secure — it drives simulations, not key material.
/// Cloning yields an identical stream; use [`Rng::fork`] to derive an
/// independent child stream (for per-subsystem generators that must not
/// perturb each other when one subsystem draws more numbers).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seed the generator from a single `u64` via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's state must not be all-zero; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for clarity.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Derive an independent child generator. The child is seeded from the
    /// parent's next output mixed with `stream_id`, so two forks with
    /// different ids never share a stream.
    pub fn fork(&mut self, stream_id: u64) -> Rng {
        let base = self.next_u64() ^ stream_id.rotate_left(17) ^ 0xA076_1D64_78BD_642F;
        Rng::seed_from(base)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        Rng::unit_f64(self.next_u64())
    }

    /// The `f64` that [`Rng::f64`] makes of the raw draw `x`: its top 53
    /// bits over 2⁵³.
    #[inline]
    pub fn unit_f64(x: u64) -> f64 {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "range_f64: lo must be <= hi");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Lemire's nearly-divisionless rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform index into a slice of length `len`. Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Pick a uniformly random element of `items`. Panics on empty input.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Pick an index according to non-negative `weights` (need not sum to 1).
    /// Panics if weights are empty or sum to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        self.choose_weighted_summed(weights, weights.iter().sum())
    }

    /// [`Rng::choose_weighted`] with the weights' sum already known:
    /// `total` must be `weights.iter().sum()`, added up in that order, for
    /// the draw to be the same. A caller that draws from one set of
    /// weights many times sums them once.
    pub fn choose_weighted_summed(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            total > 0.0 && total.is_finite(),
            "choose_weighted: weights must have a positive finite sum"
        );
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir-free partial
    /// Fisher–Yates). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k > n");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent() {
        let mut parent = Rng::seed_from(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(9);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::seed_from(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow ±5%.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut r = Rng::seed_from(21);
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::seed_from(6);
        let got = r.sample_indices(100, 30);
        assert_eq!(got.len(), 30);
        let mut s = got.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 30);
        assert!(got.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }
}
