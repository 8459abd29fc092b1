//! Order statistics shared by the workloads and the compare mode.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A sorted copy of `xs` (total order, so `NaN` and infinities are
/// allowed).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First, second and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones an acceptance
/// script computes. `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        // j is clamped to [1, n-1] as Python does for small samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the acceptance rule compares against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at p99: with `n` samples the value at 1-based rank `r`
/// has `n - r` samples above it, so the rank may be at most `n - 10`.
/// `None` when there are ten samples or fewer.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n <= 10 {
        return None;
    }
    let p99_rank = (n as f64 * 0.99).ceil() as usize;
    if n - p99_rank >= 10 {
        Some((0.99, p99_rank))
    } else {
        let rank = n - 10;
        Some((rank as f64 / n as f64, rank))
    }
}

/// Ceil-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (s.len() as f64 * p).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A timing summary: median, the tail percentile by [`tail_rank`], and
/// the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (0.99 when the sample allows).
    pub tail_pct: f64,
    /// Value at that percentile; the maximum when `n <= 10`.
    pub tail: f64,
}

/// Summarize samples. Infinite samples (failed requests) sort last, so
/// they count as missing every latency limit.
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let n = s.len();
    let (tail_pct, tail) = match tail_rank(n) {
        Some((pct, rank)) => (pct, s[rank - 1]),
        None => (1.0, s.last().copied().unwrap_or(f64::NAN)),
    };
    Summary {
        n,
        p50: percentile_sorted(&s, 0.5),
        tail_pct,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Small samples: the rank leaves exactly ten above it.
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(11), Some((1.0 / 11.0, 1)));
        assert_eq!(tail_rank(30), Some((20.0 / 30.0, 20)));
        // p99 once it has ten beyond: 1000 samples -> rank 990.
        assert_eq!(tail_rank(1000), Some((0.99, 990)));
        assert_eq!(tail_rank(5000), Some((0.99, 4950)));
        // Just below: 999 samples -> p99 rank 990 leaves 9, so fall back.
        assert_eq!(tail_rank(999), Some((989.0 / 999.0, 989)));
        for n in 11..3000 {
            let (_, rank) = tail_rank(n).unwrap();
            assert!(n - rank >= 10, "n={n}");
        }
    }

    #[test]
    fn failed_samples_count_as_missing_the_limit() {
        let mut xs = vec![1.0; 990];
        xs.extend([f64::INFINITY; 10]);
        let s = summarize(&xs);
        assert_eq!(s.tail_pct, 0.99);
        assert_eq!(s.tail, 1.0);
        xs.push(f64::INFINITY);
        let s = summarize(&xs);
        assert!(
            s.tail.is_infinite(),
            "11 failures beyond p99 push it past any limit"
        );
    }
}
