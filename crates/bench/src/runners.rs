//! Shared experiment runners used by the figure/table binaries.

use lrgp::{Engine, GammaMode, LrgpConfig, RunOutcome};
use lrgp_anneal::{sweep, SweepRun};
use lrgp_model::Problem;
use lrgp_num::series::TimeSeries;

/// The paper's SA start temperatures (§4.4).
pub const PAPER_TEMPERATURES: [f64; 4] = [5.0, 10.0, 50.0, 100.0];

/// Runs LRGP for exactly `iters` iterations with the given γ mode and
/// returns the utility trace.
pub fn lrgp_trace(problem: &Problem, gamma: GammaMode, iters: usize) -> TimeSeries {
    let config = LrgpConfig { gamma, ..LrgpConfig::default() };
    let mut engine = Engine::new(problem.clone(), config);
    engine.run(iters);
    engine.trace().utility.clone()
}

/// Runs LRGP to convergence (paper criterion) with the default adaptive γ.
pub fn lrgp_converge(problem: &Problem, max_iters: usize) -> RunOutcome {
    let mut engine = Engine::new(problem.clone(), LrgpConfig::default());
    engine.run_until_converged(max_iters)
}

/// Runs the paper's full SA sweep (all start temperatures × all step
/// budgets) and returns the best run.
pub fn sa_best(problem: &Problem, step_budgets: &[u64], seed: u64) -> SweepRun {
    let runs = sweep(problem, &PAPER_TEMPERATURES, step_budgets, seed);
    runs.into_iter().next().expect("sweep always has at least one run")
}

/// Percentage by which `lrgp` exceeds `sa` (the paper's "Utility Increase"
/// column).
pub fn utility_increase_percent(lrgp: f64, sa: f64) -> f64 {
    if sa == 0.0 {
        return f64::INFINITY;
    }
    (lrgp - sa) / sa * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::base_workload;

    #[test]
    fn lrgp_trace_has_requested_length() {
        let p = base_workload();
        let t = lrgp_trace(&p, GammaMode::fixed(0.1), 30);
        assert_eq!(t.len(), 30);
        assert!(t.last().unwrap() > 0.0);
    }

    #[test]
    fn lrgp_converge_reports_positive_utility() {
        let p = base_workload();
        let out = lrgp_converge(&p, 250);
        assert!(out.converged_at.is_some());
        assert!(out.utility > 1e6);
    }

    #[test]
    fn sa_best_picks_highest_utility() {
        let p = base_workload();
        let best = sa_best(&p, &[20_000], 1);
        assert!(best.outcome.best_utility > 0.0);
        assert!(PAPER_TEMPERATURES.contains(&best.start_temperature));
    }

    #[test]
    fn utility_increase_math() {
        assert!((utility_increase_percent(106.47, 100.0) - 6.47).abs() < 1e-9);
        assert_eq!(utility_increase_percent(1.0, 0.0), f64::INFINITY);
        assert!(utility_increase_percent(90.0, 100.0) < 0.0);
    }
}
