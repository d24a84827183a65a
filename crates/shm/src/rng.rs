//! Small, dependency-free pseudo-random number generator.
//!
//! The benchmarks and property tests need reproducible randomness (the
//! paper's `random` benchmark draws destinations per send), not
//! cryptographic quality.  [`SmallRng`] is SplitMix64 — Steele, Lea &
//! Flood's output function over a Weyl sequence — which passes BigCrush
//! for this generator size and seeds well from any 64-bit value.

use std::ops::{Range, RangeInclusive};

/// A SplitMix64 generator.  Deterministic for a given seed on every
/// platform; one `u64` of state.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed (all seeds are valid).
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 random mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from `range` (see [`SampleRange`] for the supported
    /// range types).  Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift (the
    /// modulo bias is negligible at these sample counts, but rejection
    /// keeps the generator exactly uniform).
    fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection sampling over the widening multiply.
        let zone = bound.wrapping_neg() % bound;
        loop {
            let (hi, lo) = {
                let wide = self.next_u64() as u128 * bound as u128;
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= zone {
                return hi;
            }
        }
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded((self.end - self.start) as u64) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SmallRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.bounded((hi - lo) as u64 + 1) as usize
    }
}

impl SampleRange for Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut SmallRng) -> u32 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded((self.end - self.start) as u64) as u32
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut SmallRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded(self.end - self.start)
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5usize..=5);
            assert_eq!(w, 5);
            let f = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn bounded_hits_every_value() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
