//! Property-based tests for the numeric substrate.

use lrgp_num::roots::bisect_decreasing;
use lrgp_num::series::{ConvergenceCriterion, TimeSeries};
use proptest::prelude::*;

proptest! {
    /// Bisection on a decreasing affine function recovers the exact root
    /// (or clamps correctly when the root is outside the interval).
    #[test]
    fn bisection_solves_affine(
        slope in 0.01f64..100.0,
        root in -1000.0f64..1000.0,
        lo in -1000.0f64..0.0,
        width in 1.0f64..2000.0,
    ) {
        let hi = lo + width;
        let f = |x: f64| slope * (root - x); // decreasing, zero at `root`
        let found = bisect_decreasing(f, lo, hi, 1e-12, 500).unwrap();
        let expected = root.clamp(lo, hi);
        prop_assert!((found - expected).abs() < 1e-6 * expected.abs().max(1.0),
            "found {found}, expected {expected}");
    }

    /// A series scaled to sit within ±ε of a constant converges under any
    /// criterion looser than 2ε/c; one with a persistent large swing does
    /// not.
    #[test]
    fn convergence_criterion_scale_invariance(
        base in 1.0f64..1e9,
        n in 10usize..60,
    ) {
        let quiet: TimeSeries = {
            let mut t = TimeSeries::new("q");
            for i in 0..n {
                // ±0.01 % wiggle.
                t.push(base * (1.0 + 1e-4 * if i % 2 == 0 { 1.0 } else { -1.0 }));
            }
            t
        };
        let crit = ConvergenceCriterion { window: 10, relative_amplitude: 1e-3 };
        prop_assert!(crit.is_met(&quiet));
        let noisy: TimeSeries = {
            let mut t = TimeSeries::new("n");
            for i in 0..n {
                t.push(base * (1.0 + 0.05 * if i % 2 == 0 { 1.0 } else { -1.0 }));
            }
            t
        };
        prop_assert!(!crit.is_met(&noisy));
    }

}
