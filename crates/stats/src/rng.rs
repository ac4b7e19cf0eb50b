//! Deterministic PRNG replacing the external `rand` crate.
//!
//! [`SplitMix64`] (Steele, Lea & Flood, OOPSLA'14) passes BigCrush, needs
//! eight bytes of state, and — unlike `rand::StdRng`, whose algorithm is
//! explicitly unstable across versions — produces the same stream forever,
//! which is what reproducible fault campaigns and golden-snapshot tests
//! need. The `gen_range`/`gen_bool` surface mirrors `rand::Rng` so call
//! sites port mechanically.

use std::ops::{Range, RangeInclusive};

/// A SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// `rand::SeedableRng`-flavoured alias for [`SplitMix64::new`].
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform sample from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range, like `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `u64` in `[0, n)` via the widening-multiply reduction
    /// (`n == 0` means the full 64-bit range).
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return self.next_u64();
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A range [`SplitMix64::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SplitMix64) -> T;
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SplitMix64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                // Span of the full type wraps to 0, which `below` treats
                // as the whole 64-bit range — correct for 64-bit types.
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream_is_stable() {
        // First outputs for seed 0 from the published SplitMix64
        // reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let a: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&a));
            let b: i64 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&b));
            let c: usize = r.gen_range(0..3);
            assert!(c < 3);
            let d: u8 = r.gen_range(2..=7);
            assert!((2..=7).contains(&d));
            let f = r.gen_range(0.0..2.5);
            assert!((0.0..2.5).contains(&f));
            let p = r.next_f64();
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn ranges_cover_endpoints() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[r.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..6 drawn: {seen:?}");
        let mut hit_hi = false;
        let mut hit_lo = false;
        for _ in 0..1_000 {
            match r.gen_range(-1..=1i32) {
                1 => hit_hi = true,
                -1 => hit_lo = true,
                _ => {}
            }
        }
        assert!(hit_hi && hit_lo, "inclusive endpoints reachable");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.4)).count();
        assert!((3_500..4_500).contains(&hits), "p=0.4 gave {hits}/10000");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SplitMix64::new(0);
        let _: u32 = r.gen_range(5..5);
    }
}
