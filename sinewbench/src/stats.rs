//! The benchmark's own arithmetic: medians, the "ten samples beyond"
//! percentile rule, sub-window tails, quartile spread and the bound
//! comparison `--compare` applies. Everything here is pure and unit-tested.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
/// Returns 0 for an empty sample so a workload that never ran a class
/// reports 0 rather than NaN; callers that need "never 0" guard on `len`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p < 1), reported only when at least
/// ten samples lie beyond it — a p99 read off fewer than 1 000 samples is
/// the maximum of a handful of outliers, not a percentile.
pub fn percentile_if_supported(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// The highest of p99 / p95 / p90 the sample supports, with its label.
pub fn highest_supported_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find_map(|(label, p)| percentile_if_supported(values, p).map(|v| (label, v)))
}

/// Tail latency that one stall cannot dominate: split the samples (given in
/// time order) into `parts` equal consecutive sub-windows, take `p` of each
/// sub-window that supports it, and report the median of those. `None` when
/// no sub-window has enough samples.
pub fn subwindow_tail(in_time_order: &[f64], parts: usize, p: f64) -> Option<f64> {
    let per = in_time_order.len() / parts.max(1);
    if per == 0 {
        return None;
    }
    let tails: Vec<f64> = in_time_order
        .chunks(per)
        .take(parts)
        .filter_map(|w| percentile_if_supported(w, p))
        .collect();
    (!tails.is_empty()).then(|| median(&tails))
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    }
}

/// Outcome of comparing two sets of runs of one `(metric, workload)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate median is within the bound and both spreads are too.
    Within,
    /// The candidate median is worse than the base median by more than the
    /// bound, and the spreads are tight enough to believe it.
    Worse,
    /// Run-to-run spread exceeds the bound: the pair says nothing either way.
    Unresolved,
}

pub fn judge(base: &[f64], candidate: &[f64], better: Better, bound: f64) -> Verdict {
    let noisy = |s: &[f64]| spread(s).is_some_and(|x| x > bound);
    if noisy(base) || noisy(candidate) {
        return Verdict::Unresolved;
    }
    if worsening(median(base), median(candidate), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 leaves exactly ten beyond
        assert_eq!(percentile_if_supported(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&v, 0.99), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&v, 0.5), Some(10.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&v, 0.5), None);
    }

    #[test]
    fn highest_tail_degrades_with_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported_tail(&v).unwrap().0, "p99");
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(highest_supported_tail(&v).unwrap().0, "p95");
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(highest_supported_tail(&v).unwrap().0, "p90");
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert!(highest_supported_tail(&v).is_none());
    }

    #[test]
    fn subwindow_tail_ignores_one_stalled_third() {
        // three sub-windows of 1000; the middle one has a 100x stall tail
        let mut v = Vec::new();
        for part in 0..3 {
            for i in 0..1000 {
                let slow = part == 1 && i >= 900;
                v.push(if slow { 100.0 } else { 1.0 + i as f64 / 1000.0 });
            }
        }
        let t = subwindow_tail(&v, 3, 0.99).unwrap();
        assert!(
            t < 2.0,
            "median of thirds hides the one stalled third, got {t}"
        );
        // pooled p99 would have been 100
        assert_eq!(percentile_if_supported(&v, 0.99), Some(100.0));
        // too few samples per part
        assert!(subwindow_tail(&v[..300], 3, 0.99).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn bound_comparison_respects_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [112.0, 113.0, 111.0, 112.0, 112.5];
        assert_eq!(judge(&base, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &slower, Better::Higher, 0.10), Verdict::Within);
        let a_bit = [105.0, 106.0, 104.0, 105.0, 105.5];
        assert_eq!(judge(&base, &a_bit, Better::Lower, 0.10), Verdict::Within);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
    }
}
