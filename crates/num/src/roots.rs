//! Safeguarded scalar root finding.
//!
//! The rate-allocation subproblem of LRGP maximizes a strictly concave,
//! differentiable objective `Φ(r)` over a closed interval. Its derivative
//! `Φ'(r)` is therefore strictly decreasing, so the maximizer is either a
//! boundary point or the unique root of `Φ'`. The bisection solver here
//! exploits that monotone structure: it never requires derivatives of the
//! input function itself and always converges on a valid bracket.

use std::fmt;

/// Error returned by the root finder in this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RootError {
    /// The supplied interval is empty or reversed (`lo > hi`), or a bound is
    /// not finite.
    InvalidInterval {
        /// Lower bound supplied by the caller.
        lo: f64,
        /// Upper bound supplied by the caller.
        hi: f64,
    },
    /// The function returned a non-finite value during iteration.
    NonFinite {
        /// Point at which the function evaluated to a non-finite value.
        at: f64,
    },
    /// The iteration budget was exhausted before the tolerance was met. The
    /// payload is the best estimate found.
    IterationLimit {
        /// Best root estimate at the time the budget ran out.
        best: f64,
    },
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootError::InvalidInterval { lo, hi } => {
                write!(f, "invalid interval [{lo}, {hi}]")
            }
            RootError::NonFinite { at } => write!(f, "non-finite function value at {at}"),
            RootError::IterationLimit { best } => {
                write!(f, "iteration limit reached, best estimate {best}")
            }
        }
    }
}

impl std::error::Error for RootError {}

/// Finds the root of a *strictly decreasing* function `f` on `[lo, hi]` by
/// bisection.
///
/// Returns:
/// * `Ok(lo)` if `f(lo) <= 0` (the function is already non-positive at the
///   left edge, so the root — if any — lies at or below `lo`),
/// * `Ok(hi)` if `f(hi) >= 0` (still non-negative at the right edge),
/// * otherwise the bracketed root to absolute tolerance `tol` on the
///   argument.
///
/// This clamping behaviour matches how a concave maximizer uses the
/// derivative: if `Φ'` is non-positive everywhere the maximum is at `lo`; if
/// non-negative everywhere it is at `hi`.
///
/// # Errors
///
/// * [`RootError::InvalidInterval`] if `lo > hi` or either bound is not
///   finite.
/// * [`RootError::NonFinite`] if `f` produces a NaN/∞ at an endpoint or an
///   interior probe.
/// * [`RootError::IterationLimit`] if `max_iter` bisections do not reach
///   `tol` (the payload still carries the midpoint estimate).
///
/// # Examples
///
/// ```
/// use lrgp_num::roots::bisect_decreasing;
/// let root = bisect_decreasing(|x| 4.0 - x, 0.0, 10.0, 1e-10, 100).unwrap();
/// assert!((root - 4.0).abs() < 1e-9);
/// ```
#[must_use = "this Result reports a failure the caller must handle"]
pub fn bisect_decreasing<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(RootError::InvalidInterval { lo, hi });
    }
    let f_lo = f(lo);
    if !f_lo.is_finite() {
        return Err(RootError::NonFinite { at: lo });
    }
    if f_lo <= 0.0 {
        return Ok(lo);
    }
    let f_hi = f(hi);
    if !f_hi.is_finite() {
        return Err(RootError::NonFinite { at: hi });
    }
    if f_hi >= 0.0 {
        return Ok(hi);
    }
    let (mut a, mut b) = (lo, hi);
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        // Stop on tolerance, or when the midpoint cannot make progress
        // because the interval width is below the floating-point spacing
        // at this magnitude (an absolute `tol` below one ULP would
        // otherwise stall forever).
        if (b - a) <= tol || mid <= a || mid >= b {
            return Ok(mid);
        }
        let fm = f(mid);
        if !fm.is_finite() {
            return Err(RootError::NonFinite { at: mid });
        }
        if fm > 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    Err(RootError::IterationLimit { best: 0.5 * (a + b) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_linear_root() {
        let r = bisect_decreasing(|x| 10.0 - 2.0 * x, 0.0, 100.0, 1e-12, 200).unwrap();
        assert!((r - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_clamps_low_when_derivative_negative_everywhere() {
        // f < 0 on the whole interval => maximizer at lo.
        let r = bisect_decreasing(|_| -1.0, 2.0, 7.0, 1e-12, 100).unwrap();
        assert_eq!(r, 2.0);
    }

    #[test]
    fn bisect_clamps_high_when_derivative_positive_everywhere() {
        let r = bisect_decreasing(|_| 1.0, 2.0, 7.0, 1e-12, 100).unwrap();
        assert_eq!(r, 7.0);
    }

    #[test]
    fn bisect_rejects_reversed_interval() {
        let err = bisect_decreasing(|x| -x, 5.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, RootError::InvalidInterval { .. }));
    }

    #[test]
    fn bisect_rejects_nan_bounds() {
        let err = bisect_decreasing(|x| -x, f64::NAN, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, RootError::InvalidInterval { .. }));
    }

    #[test]
    fn bisect_reports_non_finite_function() {
        let err = bisect_decreasing(|_| f64::NAN, 0.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, RootError::NonFinite { .. }));
    }

    #[test]
    fn bisect_iteration_limit_reports_best() {
        let err = bisect_decreasing(|x| 1.0 - x, 0.0, 1e9, 1e-15, 3).unwrap_err();
        match err {
            RootError::IterationLimit { best } => assert!(best.is_finite()),
            other => panic!("expected iteration limit, got {other:?}"),
        }
    }

    #[test]
    fn root_error_display_is_informative() {
        let msg = RootError::NonFinite { at: 2.0 }.to_string();
        assert!(msg.contains("non-finite"));
        let msg = RootError::InvalidInterval { lo: 3.0, hi: 1.0 }.to_string();
        assert!(msg.contains("invalid interval"));
    }
}
