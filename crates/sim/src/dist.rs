//! Sampling distributions used by the attacker and arrival models.
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method.
//! The set matches what the measurement literature needs: exponential
//! inter-arrivals, log-normal session lengths (durations in Figure 2 span
//! minutes to days — heavy right tail), Pareto for extreme tails, normal
//! for jitter, Zipf for vocabulary frequencies, and a thinning-based
//! non-homogeneous Poisson process for arrival-rate curves with bursts
//! (the malware resale spikes of Figure 4).

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    /// Rate parameter, must be positive.
    pub lambda: f64,
}

impl Exp {
    /// Construct from the rate. Panics on non-positive rate.
    pub fn new(lambda: f64) -> Exp {
        assert!(lambda > 0.0, "Exp rate must be positive");
        Exp { lambda }
    }

    /// Construct from the mean. Panics on non-positive mean.
    pub fn with_mean(mean: f64) -> Exp {
        Exp::new(1.0 / mean)
    }

    /// Draw a sample by inversion.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // 1 - U avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.lambda
    }
}

/// Log-normal distribution: `exp(N(mu, sigma^2))`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal, must be non-negative.
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(sigma >= 0.0, "LogNormal sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Construct from a target *median* and a multiplicative spread factor
    /// (sigma of the log). `median` must be positive.
    pub fn with_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0, "LogNormal median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Draw a sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::STANDARD.sample(rng)).exp()
    }
}

/// Normal (Gaussian) distribution sampled via Box–Muller.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation, must be non-negative.
    pub sd: f64,
}

impl Normal {
    /// The standard normal N(0, 1).
    pub const STANDARD: Normal = Normal { mean: 0.0, sd: 1.0 };

    /// Construct; panics on negative standard deviation.
    pub fn new(mean: f64, sd: f64) -> Normal {
        assert!(sd >= 0.0, "Normal sd must be non-negative");
        Normal { mean, sd }
    }

    /// Draw a sample (Box–Muller, one variate per call; we discard the
    /// pair's sibling to stay stateless).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u1 = 1.0 - rng.f64();
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.sd * z
    }
}

/// Pareto (type I) distribution with scale `xm > 0` and shape `alpha > 0`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    /// Scale (minimum value).
    pub xm: f64,
    /// Shape (tail index); smaller is heavier-tailed.
    pub alpha: f64,
}

impl Pareto {
    /// Construct; panics on non-positive parameters.
    pub fn new(xm: f64, alpha: f64) -> Pareto {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "Pareto parameters must be positive"
        );
        Pareto { xm, alpha }
    }

    /// Draw a sample by inversion.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.xm / (1.0 - rng.f64()).powf(1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Used by the corpus generator: natural-language word frequencies are
/// approximately Zipfian, which is what makes TF-IDF informative.
/// Sampling inverts the CDF through Chen and Asau's guide table, so a
/// draw costs a table lookup and, on average, a step or two forward
/// instead of a binary search. A draw reads its guide slot from the raw
/// integer, not from a float.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[k]` is the first rank whose CDF value is at least
    /// `k / GUIDE_LEN` (capped at the last rank).
    guide: Vec<u16>,
}

/// Bits of a uniform draw that index [`Zipf`]'s guide table.
const GUIDE_BITS: u32 = 12;

/// Entries in [`Zipf`]'s guide table: enough that the walk from a slot
/// seldom takes a step, at two bytes an entry.
const GUIDE_LEN: usize = 1 << GUIDE_BITS;

impl Zipf {
    /// Build the CDF and guide tables for `n` ranks with exponent `s`.
    /// Panics if `n == 0`, `n > 65,536` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(n <= 1 << 16, "Zipf ranks must fit the u16 guide table");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let guide = (0..GUIDE_LEN)
            .map(|k| {
                let floor = k as f64 / GUIDE_LEN as f64;
                cdf.partition_point(|&p| p < floor).min(n - 1) as u16
            })
            .collect();
        Zipf { cdf, guide }
    }

    /// Draw a 0-based rank (0 is the most frequent): `rank(rng.f64())`
    /// from the same one draw. For the raw draw `x`, [`Rng::f64`] is
    /// `u = (x >> 11) · 2⁻⁵³`, so the guide slot `⌊u·4096⌋` is `x`'s top
    /// 12 bits, read as an integer.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.next_u64();
        self.walk((x >> (64 - GUIDE_BITS)) as usize, Rng::unit_f64(x))
    }

    /// The 0-based rank a uniform draw `u` in `[0, 1)` maps to: the
    /// first rank whose CDF value is at least `u`, capped at the last
    /// rank.
    #[inline]
    pub fn rank(&self, u: f64) -> usize {
        // `as` saturates: a negative `u` reads slot 0.
        let slot = ((u * GUIDE_LEN as f64) as usize).min(GUIDE_LEN - 1);
        self.walk(slot, u)
    }

    /// The rank of `u` from guide slot `slot = ⌊u·L⌋`, `L` the guide's
    /// length: every rank before `guide[slot]` has a CDF value below
    /// `slot / L ≤ u`, so the walk starts there.
    #[inline]
    fn walk(&self, slot: usize, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = usize::from(self.guide[slot]);
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// A non-homogeneous Poisson arrival sampler using Lewis–Shedler thinning.
///
/// `rate(t)` gives the instantaneous arrival rate (events per second) at
/// simulation time `t`; `rate_max` must upper-bound it over the horizon.
/// Used for outlet visit arrivals whose intensity decays after a leak and
/// spikes when an account batch is resold (Figure 4).
pub struct PoissonProcess<F: Fn(SimTime) -> f64> {
    rate: F,
    rate_max: f64,
}

impl<F: Fn(SimTime) -> f64> PoissonProcess<F> {
    /// Construct; panics if `rate_max` is not positive and finite.
    pub fn new(rate: F, rate_max: f64) -> Self {
        assert!(
            rate_max > 0.0 && rate_max.is_finite(),
            "rate_max must be positive and finite"
        );
        PoissonProcess { rate, rate_max }
    }

    /// Next arrival strictly after `t`, or `None` if none occurs before
    /// `horizon`.
    pub fn next_after(&self, t: SimTime, horizon: SimTime, rng: &mut Rng) -> Option<SimTime> {
        let exp = Exp::new(self.rate_max);
        let mut cur = t;
        loop {
            let step = SimDuration::from_secs_f64(exp.sample(rng).max(1.0));
            cur = cur.saturating_add(step);
            if cur >= horizon {
                return None;
            }
            let r = (self.rate)(cur);
            debug_assert!(
                r <= self.rate_max * (1.0 + 1e-9),
                "rate exceeds rate_max at {cur:?}: {r} > {}",
                self.rate_max
            );
            if rng.chance(r / self.rate_max) {
                return Some(cur);
            }
        }
    }

    /// All arrivals in `(start, horizon)`.
    pub fn sample_all(&self, start: SimTime, horizon: SimTime, rng: &mut Rng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut cur = start;
        while let Some(next) = self.next_after(cur, horizon, rng) {
            out.push(next);
            cur = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exp_mean_matches() {
        let mut rng = Rng::seed_from(1);
        let d = Exp::with_mean(5.0);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((4.8..5.2).contains(&m), "mean {m}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_mean_and_sd() {
        let mut rng = Rng::seed_from(2);
        let d = Normal::new(10.0, 3.0);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64;
        assert!((9.9..10.1).contains(&m), "mean {m}");
        assert!((8.5..9.5).contains(&var), "var {var}");
    }

    #[test]
    fn lognormal_median_matches() {
        let mut rng = Rng::seed_from(3);
        let d = LogNormal::with_median(120.0, 1.0);
        let mut samples: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((110.0..130.0).contains(&median), "median {median}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = Rng::seed_from(4);
        let d = Pareto::new(2.0, 1.5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
    }

    #[test]
    fn zipf_rank_zero_most_frequent() {
        let mut rng = Rng::seed_from(5);
        let z = Zipf::new(50, 1.1);
        let mut counts = vec![0usize; 50];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
    }

    /// The binary search `Zipf::sample` ran before the guide table, kept
    /// as the reference [`Zipf::rank`] must agree with.
    fn searched_rank(z: &Zipf, u: f64) -> usize {
        match z
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    proptest::proptest! {
        /// The guide-table walk returns the binary search's rank for any
        /// table, at an arbitrary `u` and at the values where an
        /// off-by-one would show: each guide slot's lower edge `k / GUIDE_LEN`,
        /// each CDF value and the float just below it, and the largest
        /// `f64` below 1.0.
        #[test]
        fn zipf_rank_equals_binary_search(n in 1usize..300, s in 0.0f64..4.0, u in 0.0f64..1.0) {
            let z = Zipf::new(n, s);
            let below = |x: f64| f64::from_bits(x.to_bits() - 1);
            let edges = (0..=GUIDE_LEN).map(|k| k as f64 / GUIDE_LEN as f64);
            let cdf = z.cdf.iter().flat_map(|&p| [p, below(p)]);
            for v in edges.chain(cdf).chain([u, below(1.0)]) {
                proptest::prop_assert_eq!(z.rank(v), searched_rank(&z, v), "n {} s {} u {}", n, s, v);
            }
        }

        /// A draw's integer guide slot lands where `rank` of the same
        /// draw as an `f64` does, and takes the same one draw.
        #[test]
        fn zipf_sample_equals_rank_of_the_draw(seed in proptest::prelude::any::<u64>(), n in 1usize..300, s in 0.0f64..4.0) {
            let z = Zipf::new(n, s);
            let mut a = Rng::seed_from(seed);
            let mut b = a.clone();
            for _ in 0..64 {
                proptest::prop_assert_eq!(z.sample(&mut a), z.rank(b.f64()), "n {} s {}", n, s);
            }
            // `Rng`'s debug form is its whole state.
            proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// A uniform table over a power-of-two number of ranks puts CDF
    /// values exactly on guide-slot edges, which random exponents never
    /// do.
    #[test]
    fn zipf_rank_equals_binary_search_on_slot_edges() {
        for n in (0..=9).map(|b| 1 << b) {
            let z = Zipf::new(n, 0.0);
            for k in 0..=GUIDE_LEN {
                let u = k as f64 / GUIDE_LEN as f64;
                assert_eq!(z.rank(u), searched_rank(&z, u), "n {n} u {u}");
            }
        }
    }

    #[test]
    fn poisson_process_respects_horizon_and_rate() {
        let mut rng = Rng::seed_from(6);
        // Constant rate of 1 per hour over 100 days: expect ~2400 arrivals.
        let p = PoissonProcess::new(|_| 1.0 / 3600.0, 1.0 / 3600.0);
        let horizon = SimTime::ZERO + SimDuration::days(100);
        let arrivals = p.sample_all(SimTime::ZERO, horizon, &mut rng);
        assert!(
            (2200..2600).contains(&arrivals.len()),
            "arrivals {}",
            arrivals.len()
        );
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(arrivals.iter().all(|&t| t < horizon));
    }

    #[test]
    fn poisson_process_thinning_zero_rate_region() {
        let mut rng = Rng::seed_from(7);
        // Rate is zero during the first 10 days, then 10/day.
        let cutover = SimTime::ZERO + SimDuration::days(10);
        let p = PoissonProcess::new(
            move |t| {
                if t < cutover {
                    0.0
                } else {
                    10.0 / 86_400.0
                }
            },
            10.0 / 86_400.0,
        );
        let horizon = SimTime::ZERO + SimDuration::days(20);
        let arrivals = p.sample_all(SimTime::ZERO, horizon, &mut rng);
        assert!(arrivals.iter().all(|&t| t >= cutover));
        assert!((60..140).contains(&arrivals.len()), "{}", arrivals.len());
    }
}
