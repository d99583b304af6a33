//! Numeric substrate for the LRGP reproduction.
//!
//! This crate collects the small, self-contained numerical tools the rest of
//! the workspace builds on:
//!
//! * [`roots`] — safeguarded scalar root finding by bisection, used by the
//!   Lagrangian rate allocator to solve `Φ'(r) = 0` for utility functions
//!   without a closed form.
//! * [`series`] — time-series recording and analysis: sliding-window
//!   oscillation amplitude, the paper's convergence criterion (amplitude below
//!   0.1 % of the utility), and sign-flip fluctuation detection used by the
//!   adaptive-γ controller.
//! * [`stats`] — streaming summary statistics (mean, variance, extrema).
//!
//! Everything here is deterministic and allocation-light; no global state.
//!
//! # Examples
//!
//! ```
//! use lrgp_num::roots::bisect_decreasing;
//!
//! // Solve 10/(1+r) - 0.5 = 0  =>  r = 19.
//! let f = |r: f64| 10.0 / (1.0 + r) - 0.5;
//! let r = bisect_decreasing(f, 0.0, 100.0, 1e-12, 200).expect("bracketed");
//! assert!((r - 19.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod roots;
pub mod series;
pub mod stats;

pub use roots::{bisect_decreasing, RootError};
pub use series::{ConvergenceCriterion, FluctuationDetector, SlidingWindow, TimeSeries};
pub use stats::Summary;
