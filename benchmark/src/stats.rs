//! Order statistics shared by the workloads, the probes and `compare`.

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// closest ranks; 0 when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest reportable tail percentile for `n` samples: the largest
/// of 50/75/90/95/99/99.9 that still leaves at least ten samples beyond
/// it. With fewer than twenty samples only the median qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples per sample beyond it)
    const LADDER: [(f64, usize); 6] = [
        (99.9, 1000),
        (99.0, 100),
        (95.0, 20),
        (90.0, 10),
        (75.0, 4),
        (50.0, 2),
    ];
    LADDER
        .into_iter()
        .find(|(_, per_beyond)| n >= 10 * per_beyond)
        .map_or(50.0, |(p, _)| p)
}

/// Geometric mean of the positive entries of `xs` (0 when there are none).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the exclusive method),
/// which is what the acceptance procedure for this benchmark uses. With
/// a single sample all three are that sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return [0.0; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped to the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

/// Run-to-run spread as a share of the median (0 when the median is 0):
/// the inter-quartile range, or with fewer than four samples — where the
/// exclusive method extrapolates beyond the data — the full range.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        return 0.0;
    }
    if xs.len() < 4 {
        let (lo, hi) = xs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(*x), hi.max(*x))
            });
        return (hi - lo) / q2.abs();
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [25usize, 150, 730, 3000, 50_000] {
            let p = tail_percentile(n);
            assert!(n as f64 * (100.0 - p) / 100.0 >= 9.999, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert!(
            (spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12,
            "range for n < 4"
        );
    }

    #[test]
    fn geomean_ignores_non_positive() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[0.0]), 0.0);
    }
}
