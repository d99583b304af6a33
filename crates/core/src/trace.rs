//! The iteration trace recorded by the engine.
//!
//! The paper's figures plot one series, the total system utility per
//! iteration (Figs. 1–4), and [`crate::Engine::run_until_converged`] tests
//! its convergence criterion on that same series.

use lrgp_num::series::TimeSeries;
use serde::{Deserialize, Serialize};

/// The recorded trace of an engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Total system utility after each iteration (objective (1)).
    pub utility: TimeSeries,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self { utility: TimeSeries::new("utility") }
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.utility.len()
    }

    /// `true` before the first iteration is recorded.
    pub fn is_empty(&self) -> bool {
        self.utility.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_trace_is_empty() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.utility.name(), "utility");
        assert_eq!(Trace::default(), t);
    }
}
