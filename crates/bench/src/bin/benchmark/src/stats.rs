//! Order statistics for timing samples: median, quartiles, and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it. Fewer samples beyond a
//! percentile would make it a reading of one or two outliers, not of a tail.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in per-mille, lowest first.
const TAIL_LADDER: [usize; 8] = [500, 750, 900, 950, 975, 990, 995, 999];

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the default exclusive method),
/// so spreads read the same here and in any script that checks them.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let sorted = sorted(samples);
    let ld = sorted.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: clamping `j` can put the cut outside [j-1, j], where
        // Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest ladder percentile (in per-mille) that leaves at least
/// [`TAIL_MIN_BEYOND`] of `count` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_permille(count: usize) -> Option<usize> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| count - nearest_rank(p, count) >= TAIL_MIN_BEYOND)
}

/// The `permille` percentile of `samples` by the nearest-rank method.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    sorted[nearest_rank(permille, sorted.len()).max(1) - 1]
}

/// 1-based nearest rank of the `permille` percentile among `count` samples.
fn nearest_rank(permille: usize, count: usize) -> usize {
    (permille * count).div_ceil(1000)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `0.975` for 975 per-mille, rendered for labels (`p97.5`).
pub fn permille_label(permille: usize) -> String {
    let whole = permille / 10;
    match permille % 10 {
        0 => format!("p{whole}"),
        frac => format!("p{whole}.{frac}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(400), Some(975));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn tail_is_omitted_when_no_percentile_has_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(1), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&xs, 975), 390.0);
        assert_eq!(percentile(&xs, 500), 200.0);
        assert_eq!(percentile(&xs, 999), 400.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        // Ten samples lie strictly beyond the chosen tail percentile.
        let p = tail_permille(xs.len()).unwrap();
        let cut = percentile(&xs, p);
        assert_eq!(xs.iter().filter(|&&x| x > cut).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn labels() {
        assert_eq!(permille_label(975), "p97.5");
        assert_eq!(permille_label(500), "p50");
        assert_eq!(permille_label(999), "p99.9");
    }
}
