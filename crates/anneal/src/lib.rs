//! Centralized baselines for the LRGP reproduction.
//!
//! The paper compares LRGP against a **centralized simulated annealing**
//! solver (§4.4) sweeping start temperatures {5, 10, 50, 100} and step
//! budgets {10⁶, 10⁷, 10⁸} with geometric cooling (×0.999 per round, stop at
//! T ≤ 1), reporting the best run per workload. This crate implements that
//! solver plus supporting baselines:
//!
//! * [`sa`] — simulated annealing with the paper's cooling schedule, and
//!   the parallel sweep harness.
//! * [`state`] — the incrementally evaluated search state the annealer
//!   moves through (`O(touched entities)` per move).
//! * [`exhaustive`] — exact grid enumeration for tiny instances, used as a
//!   ground-truth oracle in tests.
//!
//! # Examples
//!
//! ```
//! use lrgp_anneal::{anneal, AnnealConfig};
//! use lrgp_model::workloads;
//!
//! let problem = workloads::base_workload();
//! let config = AnnealConfig::paper(5.0, 50_000, 42);
//! let outcome = anneal(&problem, &config);
//! assert!(outcome.best.is_feasible(&problem, 1e-6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod sa;
pub mod state;

pub use exhaustive::{exhaustive_search, exhaustive_search_exact_rates, ExhaustiveOutcome, SpaceTooLarge};
pub use sa::{anneal, anneal_from, sweep, AnnealConfig, CoolingSchedule, SearchOutcome, SweepRun};
pub use state::{Move, SearchState};
