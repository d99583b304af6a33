//! Time-series recording and analysis.
//!
//! LRGP iterates indefinitely; the paper's experiments observe the *trace* of
//! total utility across iterations and declare convergence "when the
//! amplitude of the oscillations in utility becomes less than 0.1 % of the
//! value of the utility" (§4.3). The adaptive-γ heuristic likewise watches a
//! node's price trace for fluctuations. This module provides those building
//! blocks.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An append-only sequence of samples indexed by iteration.
///
/// Used to record utility, rate, and price traces produced by the engine.
///
/// # Examples
///
/// ```
/// use lrgp_num::series::TimeSeries;
/// let mut ts = TimeSeries::new("utility");
/// ts.push(10.0);
/// ts.push(12.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some(12.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), values: Vec::new() }
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// All samples, in iteration order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Samples in the half-open index range `[start, end)`, clamped to the
    /// available data.
    pub fn window(&self, start: usize, end: usize) -> &[f64] {
        let end = end.min(self.values.len());
        let start = start.min(end);
        &self.values[start..end]
    }

    /// Relative oscillation amplitude `(max - min) / |mean|` over the last
    /// `window` samples, or `None` if fewer than `window` samples exist or
    /// the mean is zero.
    pub fn relative_amplitude(&self, window: usize) -> Option<f64> {
        if window == 0 || self.values.len() < window {
            return None;
        }
        let tail = &self.values[self.values.len() - window..];
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in tail {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / window as f64;
        if mean == 0.0 {
            return None;
        }
        Some((max - min) / mean.abs())
    }

    /// First iteration (1-based count of samples seen) at which the
    /// trailing window satisfies `criterion` — the measurement
    /// `run_until_converged` makes online. A later flare-up does not
    /// retract the answer.
    pub fn first_convergence(&self, criterion: &ConvergenceCriterion) -> Option<usize> {
        let w = criterion.window;
        if w == 0 || self.values.len() < w {
            return None;
        }
        (w..=self.values.len()).find(|&end| {
            let slice = &self.values[end - w..end];
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut sum = 0.0;
            for &v in slice {
                min = min.min(v);
                max = max.max(v);
                sum += v;
            }
            let mean = sum / w as f64;
            mean != 0.0 && (max - min) / mean.abs() <= criterion.relative_amplitude
        })
    }
}

/// The paper's convergence test: relative oscillation amplitude of the
/// utility over a trailing window falls below a threshold (0.1 % in §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCriterion {
    /// Number of trailing samples over which the amplitude is measured.
    pub window: usize,
    /// Maximum allowed `(max - min) / |mean|` over the window.
    pub relative_amplitude: f64,
}

impl ConvergenceCriterion {
    /// The criterion used throughout the paper: amplitude below 0.1 % over a
    /// 10-iteration window.
    pub fn paper_default() -> Self {
        Self { window: 10, relative_amplitude: 1e-3 }
    }

    /// Tests the criterion against the tail of `series`.
    pub fn is_met(&self, series: &TimeSeries) -> bool {
        series
            .relative_amplitude(self.window)
            .map(|a| a <= self.relative_amplitude)
            .unwrap_or(false)
    }
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Fixed-capacity sliding window over a scalar signal.
///
/// # Examples
///
/// ```
/// use lrgp_num::series::SlidingWindow;
/// let mut w = SlidingWindow::new(3);
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     w.push(v);
/// }
/// // 1.0 was evicted, so the window holds 2.0, 3.0 and 4.0.
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.min(), Some(2.0));
/// assert_eq!(w.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    capacity: usize,
    buf: VecDeque<f64>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        Self { capacity, buf: VecDeque::with_capacity(capacity) }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, value: f64) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Smallest held sample.
    pub fn min(&self) -> Option<f64> {
        self.buf.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Largest held sample.
    pub fn max(&self) -> Option<f64> {
        self.buf.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of the held samples.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }
}

/// Detects oscillation in a scalar signal by watching for sign flips in its
/// successive differences.
///
/// The adaptive-γ heuristic (§4.2) increases γ "as long as the price does not
/// fluctuate" and halves it "when fluctuations are detected". We call the
/// signal *fluctuating* when the last two nonzero deltas have opposite signs
/// (the signal turned around), which is the standard zig-zag test for
/// gradient-style updates.
///
/// # Examples
///
/// ```
/// use lrgp_num::series::FluctuationDetector;
/// let mut d = FluctuationDetector::new(0.0);
/// assert!(!d.observe(1.0)); // rising
/// assert!(!d.observe(2.0)); // still rising
/// assert!(d.observe(1.5)); // turned around => fluctuation
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluctuationDetector {
    last_value: f64,
    last_delta_sign: i8,
}

impl FluctuationDetector {
    /// Creates a detector primed with the signal's initial value. Any
    /// turn-around counts as a fluctuation.
    pub fn new(initial: f64) -> Self {
        Self { last_value: initial, last_delta_sign: 0 }
    }

    /// Feeds the next sample; returns `true` if a fluctuation (sign flip in
    /// the successive differences) is detected at this step.
    pub fn observe(&mut self, value: f64) -> bool {
        let delta = value - self.last_value;
        self.last_value = value;
        if delta == 0.0 {
            // Flat: not a fluctuation, and it does not update the
            // remembered direction.
            return false;
        }
        let sign: i8 = if delta > 0.0 { 1 } else { -1 };
        let fluctuated = self.last_delta_sign != 0 && sign != self.last_delta_sign;
        self.last_delta_sign = sign;
        fluctuated
    }

    /// The most recently observed value.
    pub fn last_value(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_of(values: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        for &v in values {
            ts.push(v);
        }
        ts
    }

    #[test]
    fn time_series_basics() {
        let ts = series_of(&[1.0, 2.0, 3.0]);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.last(), Some(3.0));
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(ts.window(1, 10), &[2.0, 3.0]);
        assert_eq!(ts.window(5, 2), &[] as &[f64]);
    }

    #[test]
    fn relative_amplitude_over_window() {
        let ts = series_of(&[100.0, 101.0, 99.0, 100.0]);
        let amp = ts.relative_amplitude(4).unwrap();
        assert!((amp - 2.0 / 100.0).abs() < 1e-12);
        assert_eq!(ts.relative_amplitude(5), None);
        assert_eq!(ts.relative_amplitude(0), None);
    }

    #[test]
    fn relative_amplitude_zero_mean_is_none() {
        let ts = series_of(&[1.0, -1.0]);
        assert_eq!(ts.relative_amplitude(2), None);
    }

    #[test]
    fn first_convergence_is_online_measurement() {
        // Quiet early, flares later: first_convergence reports the early
        // quiet point.
        let mut vals = vec![100.0; 10];
        vals.extend([10.0, 200.0, 10.0, 200.0]);
        let ts = series_of(&vals);
        let crit = ConvergenceCriterion { window: 4, relative_amplitude: 1e-3 };
        assert_eq!(ts.first_convergence(&crit), Some(4));
        // Too-short series.
        let short = series_of(&[1.0, 1.0]);
        assert_eq!(short.first_convergence(&crit), None);
    }

    #[test]
    fn criterion_is_met_on_tail() {
        let crit = ConvergenceCriterion { window: 3, relative_amplitude: 0.05 };
        let ts = series_of(&[5.0, 100.0, 100.1, 99.9]);
        assert!(crit.is_met(&ts));
        let noisy = series_of(&[5.0, 100.0, 50.0, 150.0]);
        assert!(!crit.is_met(&noisy));
    }

    #[test]
    fn paper_default_criterion() {
        let c = ConvergenceCriterion::paper_default();
        assert_eq!(c.window, 10);
        assert_eq!(c.relative_amplitude, 1e-3);
        assert_eq!(ConvergenceCriterion::default(), c);
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(2);
        assert!(w.is_empty());
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(3.0));
        assert_eq!(w.mean(), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn sliding_window_rejects_zero_capacity() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn fluctuation_monotone_signals_are_quiet() {
        let mut d = FluctuationDetector::new(0.0);
        assert!(!d.observe(1.0));
        assert!(!d.observe(2.0));
        assert!(!d.observe(3.0));
        assert_eq!(d.last_value(), 3.0);
    }

    #[test]
    fn fluctuation_detects_turnaround_both_ways() {
        let mut d = FluctuationDetector::new(0.0);
        assert!(!d.observe(2.0));
        assert!(d.observe(1.0)); // up then down
        assert!(d.observe(3.0)); // down then up
    }

    #[test]
    fn fluctuation_flat_signal_never_fluctuates() {
        let mut d = FluctuationDetector::new(5.0);
        for _ in 0..10 {
            assert!(!d.observe(5.0));
        }
    }
}
