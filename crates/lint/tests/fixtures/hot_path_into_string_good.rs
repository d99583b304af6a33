//! Known-good twin: converting an `impl Into<f64>` parameter moves a
//! number and touches no heap.

/// Widens the step's input.
pub fn widen(rate: impl Into<f64>) -> f64 {
    let rate: f64 = rate.into();
    rate * 2.0
}
