//! Workload dynamics: scripted and randomized change scenarios.
//!
//! §2.1 frames LRGP as "running all the time, and responding to changes in
//! workload and system capacity"; §4.2's Fig. 3 studies one such change
//! (a departing flow source). This module generalizes that experiment: a
//! [`Scenario`] is a schedule of [`DeltaOp`]s applied at given iterations
//! while the engine keeps running, and [`RandomChurn`] generates such
//! schedules for stress testing. Any op a [`ProblemDelta`] carries can be
//! scheduled, flow additions and cost and loss edits included.

use crate::engine::Engine;
use lrgp_model::{ClassId, DeltaOp, NodeId, Problem, ProblemDelta, ValidationError};
use lrgp_num::series::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A schedule of changes, each firing after a given number of engine
/// iterations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Scenario {
    events: Vec<(usize, DeltaOp)>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `op` to fire *before* iteration `iteration` (0-based:
    /// `at(0, ..)` applies before the first step). Ops due at the same
    /// iteration keep the order they were scheduled in. Returns `self` for
    /// chaining.
    pub fn at(mut self, iteration: usize, op: DeltaOp) -> Self {
        self.events.push((iteration, op));
        self.events.sort_by_key(|(k, _)| *k);
        self
    }

    /// The scheduled events, sorted by iteration.
    pub fn events(&self) -> &[(usize, DeltaOp)] {
        &self.events
    }

    /// Number of scheduled changes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no changes are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Trace of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Utility after every iteration.
    pub utility: TimeSeries,
    /// Iterations at which changes were applied.
    pub change_points: Vec<usize>,
    /// Final total utility.
    pub final_utility: f64,
    /// Largest single-iteration relative utility drop observed (the
    /// disruption magnitude).
    pub worst_drop: f64,
}

/// Runs `engine` for `iterations` steps, applying the scenario's changes at
/// their scheduled points through [`Engine::apply_delta`] (changes due at
/// the same iteration are applied as one batched delta).
///
/// # Errors
///
/// Propagates validation errors from applying a change.
#[must_use = "this Result reports a failure the caller must handle"]
pub fn run_scenario(
    engine: &mut Engine,
    scenario: &Scenario,
    iterations: usize,
) -> Result<ScenarioOutcome, ValidationError> {
    let start = engine.iteration();
    let mut pending = scenario.events.iter().peekable();
    let mut change_points = Vec::new();
    let mut utility = TimeSeries::new("scenario utility");
    let mut prev: Option<f64> = None;
    let mut worst_drop = 0.0f64;
    for k in 0..iterations {
        let mut delta = ProblemDelta::new();
        while let Some((at, op)) = pending.peek() {
            if *at <= k {
                delta.push(op.clone());
                change_points.push(start + k);
                pending.next();
            } else {
                break;
            }
        }
        engine.apply_delta(&delta)?;
        let u = engine.step();
        if let Some(p) = prev {
            if p > 0.0 {
                worst_drop = worst_drop.max((p - u) / p);
            }
        }
        prev = Some(u);
        utility.push(u);
    }
    let final_utility = utility.last().unwrap_or(0.0);
    Ok(ScenarioOutcome { utility, change_points, final_utility, worst_drop })
}

/// Generates random churn scenarios: every `period` iterations, one random
/// change drawn from the enabled kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomChurn {
    /// Iterations between consecutive changes.
    pub period: usize,
    /// Total number of changes to schedule.
    pub changes: usize,
    /// Allow capacity changes (drawn in `[0.5, 1.5]` × current).
    pub capacity_churn: bool,
    /// Allow demand changes (max population redrawn in `[0, 2·current]`).
    pub population_churn: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomChurn {
    fn default() -> Self {
        Self { period: 50, changes: 5, capacity_churn: true, population_churn: true, seed: 0 }
    }
}

impl RandomChurn {
    /// Builds a concrete scenario for `problem`.
    ///
    /// # Panics
    ///
    /// Panics if both churn kinds are disabled or `period` is zero.
    pub fn scenario(&self, problem: &Problem) -> Scenario {
        assert!(self.period > 0, "churn period must be positive");
        assert!(
            self.capacity_churn || self.population_churn,
            "at least one churn kind must be enabled"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut scenario = Scenario::new();
        for k in 1..=self.changes {
            let at = k * self.period;
            let pick_capacity = match (self.capacity_churn, self.population_churn) {
                (true, true) => rng.gen_bool(0.5),
                (true, false) => true,
                (false, true) => false,
                (false, false) => unreachable!(),
            };
            let op = if pick_capacity {
                let node = NodeId::new(rng.gen_range(0..problem.num_nodes() as u32));
                let factor = rng.gen_range(0.5..=1.5);
                DeltaOp::SetNodeCapacity { node, capacity: problem.node(node).capacity * factor }
            } else {
                let class = ClassId::new(rng.gen_range(0..problem.num_classes() as u32));
                let current = problem.class(class).max_population;
                DeltaOp::SetMaxPopulation {
                    class,
                    max_population: rng.gen_range(0..=current.saturating_mul(2).max(1)),
                }
            };
            scenario = scenario.at(at, op);
        }
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LrgpConfig;
    use lrgp_model::workloads::base_workload;
    use lrgp_model::{FlowId, RateBounds};

    #[test]
    fn empty_scenario_is_a_plain_run() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let out = run_scenario(&mut e, &Scenario::new(), 30).unwrap();
        assert_eq!(out.utility.len(), 30);
        assert!(out.change_points.is_empty());
        assert!(out.final_utility > 0.0);
    }

    #[test]
    fn remove_flow_scenario_matches_manual_removal() {
        let scenario = Scenario::new().at(20, DeltaOp::RemoveFlow { flow: FlowId::new(5) });
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let out = run_scenario(&mut e, &scenario, 60).unwrap();
        assert_eq!(out.change_points, vec![20]);
        // Manual equivalent.
        let mut manual = Engine::new(base_workload(), LrgpConfig::default());
        manual.run(20);
        manual.apply_delta(&ProblemDelta::new().remove_flow(FlowId::new(5))).unwrap();
        manual.run(40);
        assert!((out.final_utility - manual.total_utility()).abs() < 1e-6);
        assert!(out.worst_drop > 0.2, "removal should cause a visible drop");
    }

    #[test]
    fn capacity_cut_reduces_utility_and_stays_feasible() {
        let scenario = Scenario::new()
            .at(30, DeltaOp::SetNodeCapacity { node: NodeId::new(0), capacity: 3e5 });
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let before = {
            let mut probe = Engine::new(base_workload(), LrgpConfig::default());
            probe.run_until_converged(250).utility
        };
        let out = run_scenario(&mut e, &scenario, 250).unwrap();
        assert!(out.final_utility < before, "{} !< {before}", out.final_utility);
        assert!(e.allocation().is_feasible(e.problem(), 1e-6));
    }

    #[test]
    fn demand_growth_raises_utility() {
        // Double the rank-100 class's demand at iteration 50.
        let scenario = Scenario::new().at(
            50,
            DeltaOp::SetMaxPopulation { class: ClassId::new(18), max_population: 3000 },
        );
        let baseline = {
            let mut e = Engine::new(base_workload(), LrgpConfig::default());
            e.run_until_converged(300).utility
        };
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let out = run_scenario(&mut e, &scenario, 300).unwrap();
        assert!(
            out.final_utility > baseline,
            "more demand for valuable consumers should raise utility: {} vs {baseline}",
            out.final_utility
        );
    }

    #[test]
    fn rate_bound_tightening_is_enforced() {
        let nb = RateBounds { min: 10.0, max: 20.0 };
        let scenario = Scenario::new()
            .at(10, DeltaOp::SetRateBounds { flow: FlowId::new(0), bounds: nb });
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        run_scenario(&mut e, &scenario, 50).unwrap();
        let r = e.allocation().rate(FlowId::new(0));
        assert!((10.0..=20.0).contains(&r), "rate {r} escaped new bounds");
    }

    #[test]
    fn invalid_change_propagates_error() {
        let scenario = Scenario::new()
            .at(5, DeltaOp::SetNodeCapacity { node: NodeId::new(0), capacity: -1.0 });
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        assert!(run_scenario(&mut e, &scenario, 10).is_err());
    }

    #[test]
    fn scenario_events_sorted_and_multiple_at_same_iteration() {
        let s = Scenario::new()
            .at(30, DeltaOp::RemoveFlow { flow: FlowId::new(1) })
            .at(10, DeltaOp::RemoveFlow { flow: FlowId::new(0) })
            .at(10, DeltaOp::RemoveFlow { flow: FlowId::new(2) });
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.events()[0].0, 10);
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let out = run_scenario(&mut e, &s, 50).unwrap();
        assert_eq!(out.change_points, vec![10, 10, 30]);
        assert_eq!(e.allocation().rate(FlowId::new(0)), 0.0);
        assert_eq!(e.allocation().rate(FlowId::new(2)), 0.0);
    }

    #[test]
    fn random_churn_is_deterministic_and_survivable() {
        let p = base_workload();
        let churn = RandomChurn { period: 20, changes: 6, seed: 3, ..Default::default() };
        let s1 = churn.scenario(&p);
        let s2 = churn.scenario(&p);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 6);
        let mut e = Engine::new(p, LrgpConfig::default());
        let out = run_scenario(&mut e, &s1, 200).unwrap();
        assert_eq!(out.change_points.len(), 6);
        assert!(out.final_utility > 0.0);
        assert!(e.allocation().is_feasible(e.problem(), 1e-6));
    }

    #[test]
    #[should_panic(expected = "churn period must be positive")]
    fn churn_rejects_zero_period() {
        let churn = RandomChurn { period: 0, ..Default::default() };
        let _ = churn.scenario(&base_workload());
    }
}
