//! Consumer-class utility functions.
//!
//! The paper assumes each class utility `U_j(r)` is an increasing, strictly
//! concave, continuously differentiable function of the flow rate within the
//! rate bounds (§2.2). The experiments use `rank · log(1 + r)` and
//! `rank · r^k` for `k ∈ {0.25, 0.5, 0.75}` (§4.1, §4.5).
//!
//! Utilities are represented as a closed enum rather than a trait object so
//! they are `Copy`, serializable, and so the rate allocator can recognize the
//! families with closed-form Lagrangian solutions. Arbitrary custom shapes
//! are deliberately not supported: the engine's correctness leans on the
//! strict-concavity contract, which a closed enum can actually enforce.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-consumer utility function of the flow rate.
///
/// # Examples
///
/// ```
/// use lrgp_model::utility::Utility;
/// let u = Utility::log(20.0); // 20·log(1+r), the paper's rank-20 class
/// assert!(u.value(0.0).abs() < 1e-12);
/// assert!(u.value(100.0) > u.value(10.0)); // increasing
/// assert!(u.derivative(10.0) > u.derivative(100.0)); // strictly concave
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Utility {
    /// `weight · ln(1 + r)` — the paper's primary shape (`rank · log(1+r)`).
    Log {
        /// Multiplicative weight (the class *rank* in the paper).
        weight: f64,
    },
    /// `weight · r^exponent` with `0 < exponent < 1` — the paper's
    /// alternative shapes (`r^0.25`, `r^0.5`, `r^0.75`).
    Power {
        /// Multiplicative weight (the class *rank* in the paper).
        weight: f64,
        /// Concavity exponent, strictly between 0 and 1.
        exponent: f64,
    },
    /// `weight · r` — linear (elasticity boundary; *not* strictly concave).
    /// Supported so baselines and tests can probe degenerate inputs; the
    /// LRGP rate allocator handles it by bang-bang allocation.
    Linear {
        /// Multiplicative weight.
        weight: f64,
    },
    /// `weight · (1 - exp(-r / scale))` — a saturating utility modelling
    /// consumers that gain little beyond a characteristic rate. Increasing,
    /// strictly concave, bounded by `weight`.
    Saturating {
        /// Utility approached as `r → ∞`.
        weight: f64,
        /// Characteristic rate at which ~63 % of the weight is attained.
        scale: f64,
    },
}

impl Utility {
    /// Convenience constructor for the paper's `rank · log(1+r)` shape.
    pub fn log(weight: f64) -> Self {
        Utility::Log { weight }
    }

    /// Convenience constructor for the paper's `rank · r^k` shape.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < exponent < 1` (outside that range the function is
    /// not increasing and strictly concave).
    pub fn power(weight: f64, exponent: f64) -> Self {
        assert!(
            exponent > 0.0 && exponent < 1.0,
            "power utility exponent must lie in (0, 1), got {exponent}"
        );
        Utility::Power { weight, exponent }
    }

    /// Convenience constructor for a linear utility.
    pub fn linear(weight: f64) -> Self {
        Utility::Linear { weight }
    }

    /// Convenience constructor for a saturating exponential utility.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn saturating(weight: f64, scale: f64) -> Self {
        assert!(scale > 0.0, "saturating utility scale must be positive, got {scale}");
        Utility::Saturating { weight, scale }
    }

    /// Evaluates `U(r)`.
    ///
    /// Rates are clamped at zero from below: the model never evaluates
    /// utilities at negative rates, but guarding here keeps baselines that
    /// propose out-of-range moves well defined.
    pub fn value(&self, rate: f64) -> f64 {
        let r = rate.max(0.0);
        match *self {
            Utility::Log { weight } => weight * (1.0 + r).ln(),
            Utility::Power { weight, exponent } => weight * r.powf(exponent),
            Utility::Linear { weight } => weight * r,
            Utility::Saturating { weight, scale } => weight * (1.0 - (-r / scale).exp()),
        }
    }

    /// Evaluates `U'(r)`.
    pub fn derivative(&self, rate: f64) -> f64 {
        let r = rate.max(0.0);
        match *self {
            Utility::Log { weight } => weight / (1.0 + r),
            Utility::Power { weight, exponent } => {
                if r == 0.0 {
                    // U'(0+) = +∞ for 0 < k < 1; return a large finite slope
                    // so downstream numeric code stays finite.
                    f64::MAX
                } else {
                    weight * exponent * r.powf(exponent - 1.0)
                }
            }
            Utility::Linear { weight } => weight,
            Utility::Saturating { weight, scale } => weight / scale * (-r / scale).exp(),
        }
    }

    /// The multiplicative weight (class rank).
    pub fn weight(&self) -> f64 {
        match *self {
            Utility::Log { weight }
            | Utility::Power { weight, .. }
            | Utility::Linear { weight }
            | Utility::Saturating { weight, .. } => weight,
        }
    }

}

impl fmt::Display for Utility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Utility::Log { weight } => write!(f, "{weight}·log(1+r)"),
            Utility::Power { weight, exponent } => write!(f, "{weight}·r^{exponent}"),
            Utility::Linear { weight } => write!(f, "{weight}·r"),
            Utility::Saturating { weight, scale } => {
                write!(f, "{weight}·(1-exp(-r/{scale}))")
            }
        }
    }
}

/// The utility *shape* shared by every class of a workload, as varied in
/// §4.5 of the paper. Combine with a class rank via [`UtilityShape::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilityShape {
    /// `rank · log(1 + r)` — the paper's base shape.
    Log,
    /// `rank · r^0.25`.
    Pow25,
    /// `rank · r^0.5`.
    Pow50,
    /// `rank · r^0.75`.
    Pow75,
}

impl UtilityShape {
    /// All shapes evaluated in Table 3, in the paper's order.
    pub const ALL: [UtilityShape; 4] =
        [UtilityShape::Log, UtilityShape::Pow25, UtilityShape::Pow50, UtilityShape::Pow75];

    /// Instantiates the shape for a class of the given rank.
    pub fn build(self, rank: f64) -> Utility {
        match self {
            UtilityShape::Log => Utility::log(rank),
            UtilityShape::Pow25 => Utility::power(rank, 0.25),
            UtilityShape::Pow50 => Utility::power(rank, 0.5),
            UtilityShape::Pow75 => Utility::power(rank, 0.75),
        }
    }

    /// The label used in the paper's Table 3.
    pub fn label(self) -> &'static str {
        match self {
            UtilityShape::Log => "rank·log(1+r)",
            UtilityShape::Pow25 => "rank·r^0.25",
            UtilityShape::Pow50 => "rank·r^0.5",
            UtilityShape::Pow75 => "rank·r^0.75",
        }
    }
}

impl fmt::Display for UtilityShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [Utility; 4] = [
        Utility::Log { weight: 10.0 },
        Utility::Power { weight: 10.0, exponent: 0.5 },
        Utility::Linear { weight: 10.0 },
        Utility::Saturating { weight: 10.0, scale: 50.0 },
    ];

    #[test]
    fn values_match_formulas() {
        assert!((Utility::log(2.0).value(std::f64::consts::E - 1.0) - 2.0).abs() < 1e-12);
        assert!((Utility::power(3.0, 0.5).value(16.0) - 12.0).abs() < 1e-12);
        assert!((Utility::linear(4.0).value(2.5) - 10.0).abs() < 1e-12);
        let s = Utility::saturating(10.0, 50.0);
        assert!((s.value(50.0) - 10.0 * (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn all_shapes_increasing() {
        for u in SHAPES {
            let mut prev = u.value(0.0);
            for r in [1.0, 10.0, 100.0, 1000.0] {
                let v = u.value(r);
                assert!(v > prev, "{u} not increasing at r = {r}");
                prev = v;
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for u in SHAPES {
            for r in [0.5f64, 5.0, 50.0, 500.0] {
                let h = 1e-6 * r.max(1.0);
                let fd = (u.value(r + h) - u.value(r - h)) / (2.0 * h);
                let an = u.derivative(r);
                assert!(
                    (fd - an).abs() <= 1e-4 * an.abs().max(1e-9),
                    "{u} derivative mismatch at {r}: fd = {fd}, an = {an}"
                );
            }
        }
    }

    #[test]
    fn strictly_concave_shapes_have_decreasing_derivative() {
        for u in SHAPES {
            // Every shape but the linear one is strictly concave on
            // `(0, ∞)`, the paper's standing assumption.
            if matches!(u, Utility::Linear { .. }) {
                continue;
            }
            let mut prev = u.derivative(0.1);
            for r in [1.0, 10.0, 100.0] {
                let d = u.derivative(r);
                assert!(d < prev, "{u} derivative not decreasing at {r}");
                prev = d;
            }
        }
    }

    #[test]
    fn negative_rates_clamp_to_zero() {
        for u in SHAPES {
            assert_eq!(u.value(-5.0), u.value(0.0));
        }
    }

    #[test]
    fn power_derivative_at_zero_is_finite_and_huge() {
        let d = Utility::power(1.0, 0.5).derivative(0.0);
        assert!(d.is_finite());
        assert!(d > 1e100);
    }

    #[test]
    #[should_panic(expected = "exponent must lie in (0, 1)")]
    fn power_rejects_exponent_one() {
        let _ = Utility::power(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn saturating_rejects_zero_scale() {
        let _ = Utility::saturating(1.0, 0.0);
    }

    #[test]
    fn weight_accessors() {
        for u in SHAPES {
            assert_eq!(u.weight(), 10.0);
        }
    }

    #[test]
    fn shape_builds_and_labels() {
        for shape in UtilityShape::ALL {
            let u = shape.build(7.0);
            assert_eq!(u.weight(), 7.0);
            assert!(!shape.label().is_empty());
            assert_eq!(shape.to_string(), shape.label());
        }
        assert_eq!(UtilityShape::Pow50.build(2.0), Utility::power(2.0, 0.5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Utility::log(2.0).to_string(), "2·log(1+r)");
        assert_eq!(Utility::power(2.0, 0.25).to_string(), "2·r^0.25");
    }
}
