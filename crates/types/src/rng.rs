//! Deterministic pseudo-random number generation.
//!
//! Experiments must be reproducible bit-for-bit from a seed, so the
//! simulator uses its own small generator rather than an OS-seeded one:
//! xoshiro256** state initialized by SplitMix64, following the reference
//! constructions by Blackman and Vigna. A [`Zipf`] sampler provides the
//! skewed ("hot set") address distributions used by the workload
//! generators.

/// A seeded xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` (Lemire's unbiased method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Widening-multiply rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Derives an independent child generator; used to give each core or
    /// generator its own stream from one experiment seed.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Anchor tables for the table-driven `x^alpha` kernel: 128 buckets over
/// the mantissa (for `log2`) and 128 buckets over the fractional exponent
/// (for `2^f`). 3 KB total, cache-resident on the hot path.
struct PowTables {
    /// `log2(1 + i/128)`.
    log2: [f64; 128],
    /// `1 / (1 + i/128)`.
    inv: [f64; 128],
    /// `2^(j/128)`.
    exp2: [f64; 128],
}

fn pow_tables() -> &'static PowTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<PowTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = PowTables {
            log2: [0.0; 128],
            inv: [0.0; 128],
            exp2: [0.0; 128],
        };
        for i in 0..128 {
            let a = 1.0 + i as f64 / 128.0;
            t.log2[i] = a.log2();
            t.inv[i] = 1.0 / a;
            t.exp2[i] = (i as f64 / 128.0).exp2();
        }
        t
    })
}

/// `x^alpha` for `x` in `(0, 1]`, computed as `2^(alpha·log2 x)` with
/// table-driven kernels: 128-entry anchor tables plus short residual
/// polynomials, avoiding both `powf`'s generality and any libm rounding
/// call (round-to-int uses the 2^52 magic-constant trick). Relative error
/// stays below `1e-6` for the `alpha` range Zipf uses, and the short
/// dependency chains beat `f64::powf` on the trace-decode hot path.
#[inline]
fn pow_unit(x: f64, alpha: f64) -> f64 {
    debug_assert!(x > 0.0 && x <= 1.0, "pow_unit domain is (0, 1]");
    let t = pow_tables();
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 & 0x7ff) - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    // log2(m) for m in [1, 2): anchor at a = 1 + i/128, residual
    // r = m/a - 1 in [0, 1/128), ln(1+r) by a cubic (error < 1e-9).
    let i = ((bits >> 45) & 0x7f) as usize;
    let r = m * t.inv[i] - 1.0;
    let ln1p = r - r * r * (0.5 - r * (1.0 / 3.0));
    let y = alpha * (e as f64 + t.log2[i] + ln1p * std::f64::consts::LOG2_E);
    if y < -1020.0 {
        return 0.0; // underflows to zero rank anyway
    }
    // 2^y = 2^k · 2^(j/128) · e^h: split w = 128·y at the nearest integer
    // n = 128k + j via the 2^52+2^51 magic constant (round-to-nearest
    // without a libm call), leaving |h| ≤ ln2/256.
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 2^52 + 2^51
    let w = y * 128.0;
    let nf = (w + MAGIC) - MAGIC;
    let n = nf as i64;
    let (k, j) = (n >> 7, (n & 127) as usize);
    let h = (w - nf) * (std::f64::consts::LN_2 / 128.0);
    let p = t.exp2[j] * (1.0 + h * (1.0 + h * (0.5 + h * (1.0 / 6.0))));
    f64::from_bits(((k + 1023) as u64) << 52) * p
}

/// A Zipf(θ) sampler over `0..n`, using the classic computed-harmonic
/// inversion (exact, O(1) per sample after O(n) setup is avoided by the
/// standard two-piece approximation of Gray et al.).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `0.5^theta`, hoisted out of [`Zipf::sample`] — `powf` costs more
    /// than the rest of the sampler combined, and the value never changes.
    half_pow_theta: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with skew `theta` (0 = uniform-ish,
    /// 0.99 = classic YCSB skew).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be nonzero");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation for large n keeps
        // construction O(1)-ish without materially changing the shape.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// The population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `0..n`; rank 0 is the hottest item.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * pow_unit(self.eta * u - self.eta + 1.0, self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The configured skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    #[cfg(test)]
    fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_constructions() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_endpoints() {
        let mut rng = Rng::new(11);
        for _ in 0..200 {
            let v = rng.range(10, 12);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).range(5, 5);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Rng::new(13);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::new(5);
        let mut hot = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // Top 1% of items should receive far more than 1% of draws.
        assert!(
            hot as f64 / DRAWS as f64 > 0.2,
            "hot fraction {hot}/{DRAWS}"
        );
        assert!(z.zeta2() > 1.0);
        assert_eq!(z.population(), 1000);
        assert!((z.theta() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zipf_zero_theta_is_nearly_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = Rng::new(17);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 3.0, "max {max} min {min}");
    }

    #[test]
    fn zipf_samples_in_population() {
        let z = Zipf::new(3, 0.5);
        let mut rng = Rng::new(23);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zipf_empty_population_panics() {
        let _ = Zipf::new(0, 0.5);
    }

    #[test]
    fn pow_unit_tracks_powf() {
        for alpha in [1.0, 1.5, 2.3, 3.5702, 10.0, 50.0, 100.0] {
            let mut x = 1.0f64;
            while x > 1e-6 {
                let got = pow_unit(x, alpha);
                let want = x.powf(alpha);
                if want < 1e-290 {
                    // Near/below the subnormal range both implementations
                    // may underflow at slightly different points; a Zipf
                    // rank of n·1e-290 truncates to 0 either way.
                    assert!(got < 1e-280, "x={x} alpha={alpha}: {got} vs {want}");
                } else {
                    let err = ((got - want) / want).abs();
                    assert!(err < 1e-6, "x={x} alpha={alpha}: {got} vs {want}");
                }
                x *= 0.9173;
            }
            assert_eq!(pow_unit(1.0, alpha), 1.0, "alpha={alpha}");
        }
        // Deep underflow clamps to zero.
        assert_eq!(pow_unit(1e-300, 100.0), 0.0);
    }
}
