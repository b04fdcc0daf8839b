//! A tiny deterministic pseudo-random generator for model perturbations and
//! randomised tests.
//!
//! The workspace builds hermetically (no external crates), so instead of
//! `rand` we use SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) — a 64-bit
//! state, full-period mixer that is more than adequate for seeding velocity
//! perturbations and property-style test case generation. Streams are fully
//! determined by the seed, which the benchmark builders rely on for
//! run-to-run reproducibility.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed` (every seed is valid, including 0).
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 high-entropy bits → the full f32 mantissa range in [0, 1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)` (`lo` when the range is empty).
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo).max(0.0) * self.next_f32()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty integer range");
        // Modulo bias is < 2⁻⁴⁰ for the range sizes used here (≤ 2²⁴).
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(Rng64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = Rng64::new(123);
        for _ in 0..10_000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Rng64::new(5);
        for _ in 0..10_000 {
            let v = r.range_f32(1500.0, 4500.0);
            assert!((1500.0..4500.0).contains(&v));
            let i = r.range_usize(3, 17);
            assert!((3..17).contains(&i));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = Rng64::new(99);
        let mut buckets = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[(r.next_f32() * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            // 10σ bounds on a binomial(100k, 0.1).
            assert!((9000..11000).contains(&b), "{buckets:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty integer range")]
    fn empty_range_rejected() {
        let _ = Rng64::new(0).range_usize(4, 4);
    }
}
