//! The two-sample Cramér–von Mises test (Anderson's version).
//!
//! §4.3.4 uses this test to show that login locations for
//! location-advertised leaks come from a *different distribution* than
//! for bare leaks (paste sites: p = 0.0017 UK / 7e-7 US — reject; forums:
//! p ≈ 0.27 — fail to reject; threshold 0.01).
//!
//! Two p-values are provided:
//!
//! * **asymptotic** — the statistic is standardized to the limiting
//!   Cramér–von Mises distribution, whose CDF we evaluate through the
//!   classical Bessel-K(1/4) series (the same construction as
//!   `scipy.stats.cramervonmises_2samp(method="asymptotic")`);
//! * **permutation** — a seeded Monte-Carlo permutation test, exact in
//!   distribution, used to cross-validate the series implementation.

use pwnd_sim::Rng;

/// Result of the two-sample test.
#[derive(Clone, Copy, Debug)]
pub struct CvmResult {
    /// Anderson's `T` statistic.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
}

/// Compute Anderson's two-sample statistic `T` from raw samples.
///
/// Panics if either sample is empty.
pub fn statistic(x: &[f64], y: &[f64]) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "samples must be non-empty");
    let n = x.len();
    let m = y.len();
    let nf = n as f64;
    let mf = m as f64;
    let nn = (n + m) as f64;

    // Combined midranks.
    let mut combined: Vec<(f64, usize)> = x
        .iter()
        .map(|&v| (v, 0usize))
        .chain(y.iter().map(|&v| (v, 1usize)))
        .collect();
    combined.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite samples"));
    // Midranks for ties.
    let mut ranks = vec![0.0f64; combined.len()];
    let mut i = 0;
    while i < combined.len() {
        let mut j = i;
        while j + 1 < combined.len() && combined[j + 1].0 == combined[i].0 {
            j += 1;
        }
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg;
        }
        i = j + 1;
    }
    let rx: Vec<f64> = combined
        .iter()
        .zip(&ranks)
        .filter(|((_, s), _)| *s == 0)
        .map(|(_, &r)| r)
        .collect();
    let ry: Vec<f64> = combined
        .iter()
        .zip(&ranks)
        .filter(|((_, s), _)| *s == 1)
        .map(|(_, &r)| r)
        .collect();

    let u: f64 = nf
        * rx.iter()
            .enumerate()
            .map(|(i, &r)| (r - (i + 1) as f64).powi(2))
            .sum::<f64>()
        + mf * ry
            .iter()
            .enumerate()
            .map(|(j, &r)| (r - (j + 1) as f64).powi(2))
            .sum::<f64>();

    u / (nf * mf * nn) - (4.0 * mf * nf - 1.0) / (6.0 * nn)
}

/// Modified Bessel function of the second kind, `K_{1/4}(q)`, as the
/// trapezoid sum of `∫₀^∞ exp(-q cosh t) cosh(t/4) dt`. The integrand is
/// even, analytic and decays double-exponentially, so the sum over the
/// half line converges geometrically in the step: a step of
/// `min(0.1, 0.5/√q)` keeps it near the peak's width, and the sum stops
/// once a term is at most `1e-17` of it.
fn bessel_k_quarter(q: f64) -> f64 {
    debug_assert!(q > 0.0);
    let h = (0.5 / q.sqrt()).min(0.1);
    let f = |t: f64| (-q * t.cosh()).exp() * (0.25 * t).cosh();
    let mut sum = 0.5 * f(0.0);
    for k in 1.. {
        let term = f(k as f64 * h);
        sum += term;
        if term <= 1e-17 * sum {
            break;
        }
    }
    sum * h
}

/// CDF of the limiting (infinite-sample) Cramér–von Mises distribution.
pub fn cdf_cvm_inf(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    // ratio_k = Γ(k + 1/2) / Γ(k + 1); ratio_0 = √π.
    let mut ratio = std::f64::consts::PI.sqrt();
    for k in 0..24u32 {
        if k > 0 {
            let kf = k as f64;
            ratio *= (kf - 0.5) / kf;
        }
        let y = (4 * k + 1) as f64;
        let q = y * y / (16.0 * x);
        if q > 700.0 {
            continue; // exp(-q) underflows; term is zero
        }
        let term = ratio / (std::f64::consts::PI.powf(1.5) * x.sqrt())
            * y.sqrt()
            * (-q).exp()
            * bessel_k_quarter(q);
        total += term;
        if term.abs() < 1e-14 && k > 2 {
            break;
        }
    }
    total.clamp(0.0, 1.0)
}

/// Run the test with the asymptotic p-value.
pub fn cramer_von_mises_2samp(x: &[f64], y: &[f64]) -> CvmResult {
    let t = statistic(x, y);
    let nf = x.len() as f64;
    let mf = y.len() as f64;
    let nn = nf + mf;
    // Standardize T to the limiting distribution's scale (Anderson's
    // small-sample mean/variance correction, as in scipy).
    let et = (1.0 + 1.0 / nn) / 6.0;
    let vt = (nn + 1.0) * (4.0 * mf * nf * nn - 3.0 * (mf * mf + nf * nf) - 2.0 * mf * nf)
        / (45.0 * nn * nn * 4.0 * mf * nf);
    let tn = 1.0 / 6.0 + (t - et) / (45.0 * vt).sqrt();
    let p = if tn < 0.003 {
        1.0
    } else {
        (1.0 - cdf_cvm_inf(tn)).max(0.0)
    };
    CvmResult {
        statistic: t,
        p_value: p,
    }
}

/// Seeded Monte-Carlo permutation p-value for the same statistic.
pub fn permutation_p_value(x: &[f64], y: &[f64], permutations: usize, seed: u64) -> f64 {
    let t_obs = statistic(x, y);
    let mut pool: Vec<f64> = x.iter().chain(y.iter()).copied().collect();
    let mut rng = Rng::seed_from(seed);
    let mut ge = 0usize;
    for _ in 0..permutations {
        rng.shuffle(&mut pool);
        let (px, py) = pool.split_at(x.len());
        if statistic(px, py) >= t_obs - 1e-12 {
            ge += 1;
        }
    }
    (ge + 1) as f64 / (permutations + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_sim::dist::Normal;

    /// The fixed 4,000-step Simpson rule `bessel_k_quarter` used before
    /// the trapezoid sum, kept as the reference it must match.
    fn simpson_bessel_k_quarter(q: f64) -> f64 {
        let t_max = ((745.0 / q).max(1.0)).acosh().min(40.0) + 1.0;
        let steps = 4_000usize;
        let h = t_max / steps as f64;
        let f = |t: f64| (-q * t.cosh()).exp() * (0.25 * t).cosh();
        let mut acc = f(0.0) + f(t_max);
        for k in 1..steps {
            let t = k as f64 * h;
            acc += f(t) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        acc * h / 3.0
    }

    /// `cdf_cvm_inf` with the Simpson rule: the same series.
    fn simpson_cdf_cvm_inf(x: f64) -> f64 {
        let mut total = 0.0;
        let mut ratio = std::f64::consts::PI.sqrt();
        for k in 0..24u32 {
            if k > 0 {
                let kf = k as f64;
                ratio *= (kf - 0.5) / kf;
            }
            let y = (4 * k + 1) as f64;
            let q = y * y / (16.0 * x);
            if q > 700.0 {
                continue;
            }
            let term = ratio / (std::f64::consts::PI.powf(1.5) * x.sqrt())
                * y.sqrt()
                * (-q).exp()
                * simpson_bessel_k_quarter(q);
            total += term;
            if term.abs() < 1e-14 && k > 2 {
                break;
            }
        }
        total.clamp(0.0, 1.0)
    }

    #[test]
    fn trapezoid_cdf_matches_the_simpson_rule() {
        // From the smallest statistic the p-value reads (0.003) to far
        // past the 0.999 quantile, denser where the CDF climbs.
        let grid = (0..=400).map(|i| 0.003 * (10.0f64 / 0.003).powf(f64::from(i) / 400.0));
        for x in grid {
            let (got, want) = (cdf_cvm_inf(x), simpson_cdf_cvm_inf(x));
            assert!((got - want).abs() <= 1e-13, "x {x}: {got} vs {want}");
        }
    }

    #[test]
    fn limiting_cdf_known_values() {
        // Critical values of the CvM limiting distribution:
        // F(0.46136) ≈ 0.95, F(0.74346) ≈ 0.99 (Anderson & Darling 1952).
        assert!((cdf_cvm_inf(0.46136) - 0.95).abs() < 0.005);
        assert!((cdf_cvm_inf(0.74346) - 0.99).abs() < 0.005);
        // Median ≈ 0.11888.
        assert!((cdf_cvm_inf(0.11888) - 0.5).abs() < 0.01);
        assert_eq!(cdf_cvm_inf(0.0), 0.0);
        assert!(cdf_cvm_inf(10.0) > 0.9999);
    }

    #[test]
    fn same_distribution_high_p() {
        let mut rng = Rng::seed_from(1);
        let d = Normal::new(0.0, 1.0);
        let x: Vec<f64> = (0..80).map(|_| d.sample(&mut rng)).collect();
        let y: Vec<f64> = (0..90).map(|_| d.sample(&mut rng)).collect();
        let r = cramer_von_mises_2samp(&x, &y);
        assert!(r.p_value > 0.05, "p = {}", r.p_value);
    }

    #[test]
    fn shifted_distribution_low_p() {
        let mut rng = Rng::seed_from(2);
        let d0 = Normal::new(0.0, 1.0);
        let d1 = Normal::new(1.5, 1.0);
        let x: Vec<f64> = (0..60).map(|_| d0.sample(&mut rng)).collect();
        let y: Vec<f64> = (0..60).map(|_| d1.sample(&mut rng)).collect();
        let r = cramer_von_mises_2samp(&x, &y);
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
    }

    #[test]
    fn asymptotic_agrees_with_permutation() {
        let mut rng = Rng::seed_from(3);
        let d0 = Normal::new(0.0, 1.0);
        let d1 = Normal::new(0.55, 1.0);
        let x: Vec<f64> = (0..50).map(|_| d0.sample(&mut rng)).collect();
        let y: Vec<f64> = (0..50).map(|_| d1.sample(&mut rng)).collect();
        let asym = cramer_von_mises_2samp(&x, &y).p_value;
        let perm = permutation_p_value(&x, &y, 4_000, 99);
        // Moderate effect: both p-values should land in the same decade.
        assert!(
            (asym - perm).abs() < 0.03 || (asym / perm).ln().abs() < 1.2,
            "asym {asym} perm {perm}"
        );
    }

    #[test]
    fn statistic_is_symmetric_under_swap() {
        let x = vec![1.0, 3.0, 5.0, 7.0];
        let y = vec![2.0, 4.0, 6.0];
        let a = statistic(&x, &y);
        let b = statistic(&y, &x);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn handles_ties_via_midranks() {
        let x = vec![1.0, 1.0, 2.0, 2.0];
        let y = vec![1.0, 2.0, 3.0, 3.0];
        let t = statistic(&x, &y);
        assert!(t.is_finite());
    }

    #[test]
    fn anderson_formula_reference_value() {
        // Hand-computed from Anderson's formula for x = 1..7 and
        // y = 1.5, 2.5, …, 5.5: the x ranks are 1,3,5,7,9,11,12 and the
        // y ranks 2,4,6,8,10, so U = 7·80 + 5·55 = 835 and
        // T = 835/420 − 139/72 = 0.0575396825…, an interleaved (very
        // compatible) pair, so the p-value must be near 1.
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let y = vec![1.5, 2.5, 3.5, 4.5, 5.5];
        let r = cramer_von_mises_2samp(&x, &y);
        let expected = 835.0 / 420.0 - 139.0 / 72.0;
        assert!(
            (r.statistic - expected).abs() < 1e-12,
            "T = {}",
            r.statistic
        );
        assert!(r.p_value > 0.8, "p = {}", r.p_value);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        statistic(&[], &[1.0]);
    }
}
