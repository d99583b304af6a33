//! The synchronous LRGP engine (§3, Algorithms 1–3).
//!
//! One [`Engine::step`] performs a full LRGP iteration:
//!
//! 1. **Rate allocation** at every flow source (Algorithm 1), using the
//!    prices and populations published in the previous iteration.
//! 2. **Consumer allocation** at every node (Algorithm 2, greedy by
//!    benefit–cost ratio) using the freshly computed rates.
//! 3. **Price computation**: node prices via Eq. 12 with per-node γ control,
//!    link prices via Eq. 13.
//!
//! The iteration itself is implemented once, in the dirty-set executor
//! ([`crate::exec`]), which also owns the optimizer state it steps: rates,
//! ρ, populations, prices and the γ controllers. The engine holds the
//! problem, the configuration, the iteration count and the trace, and hands
//! the executor every step and every delta. Incremental (the default) and
//! full-recompute execution are configuration choices over the same loop,
//! bit-identical to each other (see [`crate::plan`]).
//!
//! Every engine starts where the paper's runs do: each flow at `r_i^max`
//! and every node and link price at 0. It records the total-utility trace
//! and supports the paper's dynamics experiments (changing the problem
//! mid-run, Fig. 3) through the first-class delta API
//! ([`Engine::apply_delta`]) and enactment policies (§2.1).

use crate::exec::StepState;
use crate::gamma::GammaMode;
use crate::kernel::admission::{AdmissionPolicy, PopulationMode};
use crate::kernel::price::{NodePriceRule, PriceVector};
use crate::plan::{IncrementalMode, Reliability};
use crate::snapshot::EngineSnapshot;
use crate::trace::Trace;
use lrgp_model::{Allocation, DeltaOp, Problem, ProblemDelta, ValidationError};
use lrgp_num::series::ConvergenceCriterion;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrgpConfig {
    /// Node price step-size control (γ₁ = γ₂ = γ as in §4.2).
    pub gamma: GammaMode,
    /// Node price law (Eq. 12 by default; pure gradient as an ablation).
    pub node_price_rule: NodePriceRule,
    /// Link price step size γ_l (Eq. 13). Irrelevant for workloads without
    /// links.
    pub link_gamma: f64,
    /// Whether populations are integral (paper) or fractional (relaxation).
    pub population_mode: PopulationMode,
    /// Greedy admission variant (paper stops at the first blocked class).
    pub admission_policy: AdmissionPolicy,
    /// Convergence test applied by [`Engine::run_until_converged`].
    pub convergence: ConvergenceCriterion,
    /// Whether [`Engine::step`] carries dirty sets across iterations (on
    /// by default; [`IncrementalMode::Off`] is the full-recompute
    /// reference, and both yield the same bits, see [`crate::exec`]).
    pub incremental: IncrementalMode,
    /// Whether the step solves per-flow delivery reliability jointly with
    /// the rate (Off by default — the classic rate-only pipeline, bitwise
    /// identical to the pre-reliability engine; see
    /// [`crate::plan::Reliability`]). Joint requires a problem carrying a
    /// [`lrgp_model::ReliabilitySpec`] to have any effect.
    #[serde(default)]
    pub reliability: Reliability,
}

impl Default for LrgpConfig {
    fn default() -> Self {
        Self {
            gamma: GammaMode::default(),
            node_price_rule: NodePriceRule::default(),
            link_gamma: 1e-3,
            population_mode: PopulationMode::default(),
            admission_policy: AdmissionPolicy::default(),
            convergence: ConvergenceCriterion::paper_default(),
            incremental: IncrementalMode::default(),
            reliability: Reliability::default(),
        }
    }
}

/// The relative slack each capacity gets before
/// [`Engine::run_until_converged`] withholds a verdict: round-off, not a
/// tolerance on the optimizer. Zero is too strict: a joint run's link can
/// read 400.00000000000006 against a capacity of 400.
const OVERLOAD_TOLERANCE: f64 = 1e-9;

/// Outcome of [`Engine::run_until_converged`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Iteration at which the convergence criterion was first satisfied by
    /// an allocation overloading no capacity by more than a relative 1e-9
    /// (`None` if the budget ran out first). Counted from the start of the
    /// run call, 1-based: `Some(k)` means both held after `k` iterations.
    pub converged_at: Option<usize>,
    /// Iterations actually executed by the call.
    pub iterations: usize,
    /// Total utility after the last executed iteration.
    pub utility: f64,
    /// The worst relative capacity overload after the last executed
    /// iteration, `max((usage − c) / c, 0)` over every node and link; link
    /// usage carries the joint redundancy inflation, and a NaN usage reads
    /// as infinite. 0.0 when no step has run.
    pub max_overload: f64,
}

/// The synchronous LRGP optimizer.
///
/// # Examples
///
/// ```
/// use lrgp::{Engine, LrgpConfig};
/// use lrgp_model::workloads;
///
/// let problem = workloads::base_workload();
/// let mut engine = Engine::new(problem, LrgpConfig::default());
/// let outcome = engine.run_until_converged(250);
/// assert!(outcome.utility > 0.0);
/// let allocation = engine.allocation();
/// assert!(allocation.is_feasible(engine.problem(), 1e-6));
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// Shared with engine clones until one of them applies a delta. Deltas
    /// edit it in place through `Arc::make_mut`, which copies only while it
    /// is shared.
    problem: Arc<Problem>,
    config: LrgpConfig,
    iteration: usize,
    trace: Trace,
    /// The optimizer state (rates, ρ, populations, prices and γ) with the
    /// executor's tables, caches and dirty sets. Built at construction, so
    /// the first step pays only its (all-dirty) kernel work, and patched in
    /// place by every delta. Nothing rebuilds it: a changed problem either
    /// arrives as a delta or goes to a fresh engine through
    /// [`Engine::restore`].
    state: StepState,
}

impl Engine {
    /// Creates an engine over `problem` with the given configuration.
    pub fn new(problem: Problem, config: LrgpConfig) -> Self {
        let state = StepState::new(&problem, config.gamma);
        Self { problem: Arc::new(problem), config, iteration: 0, trace: Trace::new(), state }
    }

    /// Executes one full LRGP iteration and returns the total utility after
    /// it.
    ///
    /// Depending on [`LrgpConfig::incremental`] the three phases recompute
    /// everything (every element is marked dirty first) or only the dirty
    /// subset. Both call the same per-element kernels on the same
    /// previous-iteration inputs, so the results (and the recorded trace)
    /// are bit-identical (see [`crate::plan`]).
    pub fn step(&mut self) -> f64 {
        if !self.config.incremental.enabled() {
            self.state.mark_all_dirty();
        }
        let utility = self.state.step(&self.problem, &self.config);
        self.iteration += 1;
        self.trace.utility.push(utility);
        utility
    }

    /// The optimizer state and the executor that steps it.
    pub(crate) fn step_state(&self) -> &StepState {
        &self.state
    }

    /// Runs exactly `iterations` steps; returns the final utility (0.0 if
    /// `iterations` is 0 and nothing has run yet).
    pub fn run(&mut self, iterations: usize) -> f64 {
        let mut last = self.trace.utility.last().unwrap_or(0.0);
        for _ in 0..iterations {
            last = self.step();
        }
        last
    }

    /// Runs until the configured convergence criterion holds on the utility
    /// trace with a feasible allocation, or `max_iterations` steps have
    /// executed, whichever is first. An allocation counts as feasible when
    /// no node or link is loaded beyond its capacity by more than a
    /// relative 1e-9 ([`RunOutcome::max_overload`]).
    pub fn run_until_converged(&mut self, max_iterations: usize) -> RunOutcome {
        let mut utility = self.trace.utility.last().unwrap_or(0.0);
        for k in 1..=max_iterations {
            utility = self.step();
            if !self.config.convergence.is_met(&self.trace.utility) {
                continue;
            }
            let max_overload = self.state.max_overload(&self.problem);
            if max_overload <= OVERLOAD_TOLERANCE {
                return RunOutcome { converged_at: Some(k), iterations: k, utility, max_overload };
            }
        }
        let max_overload = self.state.max_overload(&self.problem);
        RunOutcome { converged_at: None, iterations: max_iterations, utility, max_overload }
    }

    /// The current allocation (rates + populations).
    pub fn allocation(&self) -> Allocation {
        let (rates, populations) = (self.state.rates(), self.state.populations());
        Allocation::from_parts(&self.problem, rates.to_vec(), populations.to_vec())
    }

    /// Total utility of the current allocation.
    pub fn total_utility(&self) -> f64 {
        self.allocation().total_utility(&self.problem)
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The engine configuration.
    pub fn config(&self) -> &LrgpConfig {
        &self.config
    }

    /// Number of iterations executed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Current prices.
    pub fn prices(&self) -> &PriceVector {
        self.state.prices()
    }

    /// Per-flow delivery reliabilities ρ, indexed by flow id. All `ρ_max`
    /// (1.0 without a [`lrgp_model::ReliabilitySpec`]) unless a
    /// [`Reliability::Joint`] engine has stepped; see
    /// [`crate::kernel::reliability`].
    pub fn rhos(&self) -> &[f64] {
        self.state.rhos()
    }

    /// The reliability term `Σ_f mass_f · ln(ρ_f)` of the current state
    /// under the joint model (0.0 when the problem has no
    /// [`lrgp_model::ReliabilitySpec`] or no consumer is admitted) — the
    /// component [`Engine::step`] adds to the rate utility under
    /// [`Reliability::Joint`].
    pub fn reliability_utility(&self) -> f64 {
        crate::exec::reliability_utility(&self.problem, self.state.rhos(), self.state.populations())
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Overwrites the optimizer state of a freshly built engine with
    /// `snapshot`'s (snapshot support), whose first step recomputes
    /// everything anyway, bringing every rate, ρ and population within the
    /// bounds of the engine's problem through the clamps
    /// [`Engine::apply_delta`] uses (see `StepState::load_snapshot`).
    pub(crate) fn load_state(&mut self, snapshot: EngineSnapshot) {
        self.iteration = snapshot.iteration;
        self.state.load_snapshot(&self.problem, snapshot);
    }

    /// Current γ of `node`'s price controller.
    pub fn node_gamma(&self, node: lrgp_model::NodeId) -> f64 {
        self.state.gammas()[node.index()].gamma()
    }

    /// Applies a batched [`ProblemDelta`] to the engine's problem,
    /// preserving prices, rates, populations, γ controllers and the trace
    /// across the change.
    ///
    /// The optimizer state is reconciled with the changed problem exactly
    /// as [`Engine::restore`] would (rates and ρ clamped into the final
    /// bounds, populations capped at the final maxima), and a new flow
    /// starts at `r_i^max` with its classes empty, as [`Engine::new`] starts
    /// every flow. So once the engine has stepped, `engine.apply_delta(&delta)`
    /// continues bit-identically to
    /// `Engine::restore(delta.apply(engine.problem())?, engine.snapshot())`
    /// (for a flow addition, to a restore of the grown engine's snapshot over
    /// the grown problem). Unlike a restore, every op keeps the executor:
    /// cost edits patch its term table in place, a flow addition appends its
    /// rows, and every op injects precise dirty marks instead of
    /// invalidating everything, so under an incremental engine the next step
    /// costs work proportional to what the delta touched.
    ///
    /// Applying a delta *before* the first step re-derives the initial
    /// optimizer state, making the engine bit-identical to one freshly
    /// constructed on the changed problem.
    ///
    /// The ops edit the engine's problem in place
    /// ([`ProblemDelta::apply_in_place`]). On an engine that does not share
    /// its problem the edit copies nothing and costs `O(ops)`: `O(1)` per
    /// scalar edit, `O(|B_i| + |L_i| + |C_i|)` per removal or addition. A
    /// clone shares its problem with the engine it came from until one of
    /// them applies a delta, so a clone's first delta copies the problem
    /// once. A flow addition also rebuilds the term table's usage rows
    /// (one pass over the link terms).
    ///
    /// # Errors
    ///
    /// Whatever [`ProblemDelta::apply_in_place`] reports; on error the
    /// engine is unchanged.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn apply_delta(&mut self, delta: &ProblemDelta) -> Result<(), ValidationError> {
        if delta.is_empty() {
            return Ok(());
        }
        delta.apply_in_place(Arc::make_mut(&mut self.problem))?;
        let problem = &*self.problem;
        // Reconcile only the touched state and hand the executor the cost
        // patches; each call marks what it moved. Clamps run against the
        // *final* problem so a batched delta matches a restore over it
        // bitwise.
        let state = &mut self.state;
        for op in delta.ops() {
            match *op {
                // The ops' new flows take the next ids in op order.
                DeltaOp::AddFlow { .. } => state.note_flow_added(problem, op),
                DeltaOp::SetNodeCapacity { .. } | DeltaOp::SetLinkCapacity { .. } => {
                    // The price update reads the capacity, so a settled
                    // node or link must rejoin its price loop.
                    state.note_capacity_change(op);
                }
                DeltaOp::SetMaxPopulation { class, .. } => state.clamp_population(problem, class),
                DeltaOp::SetRateBounds { flow, .. } => state.clamp_rate(problem, flow),
                DeltaOp::RemoveFlow { flow } => {
                    // The bounds collapse to [0, 0] and the classes' maxima
                    // to 0 (unless a later op in the batch restores them).
                    state.clamp_rate(problem, flow);
                    for &class in problem.classes_of_flow(flow) {
                        state.clamp_population(problem, class);
                    }
                    state.note_cost_edit(problem, op);
                }
                DeltaOp::SetFlowNodeCost { .. } | DeltaOp::SetLinkLoss { .. } => {
                    state.note_cost_edit(problem, op);
                }
                DeltaOp::SetRhoBounds { flow, .. } => state.clamp_rho(problem, flow),
            }
        }
        if self.iteration == 0 {
            // Nothing has run: re-derive the initial state from the changed
            // problem, as a fresh construction would.
            state.restart(problem);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::{self, base_workload};
    use lrgp_model::{ClassId, FlowId, NodeId, RateBounds};

    #[test]
    fn engine_runs_and_produces_positive_utility() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let u = e.run(50);
        assert!(u > 0.0, "utility {u}");
        assert_eq!(e.iteration(), 50);
        assert_eq!(e.trace().len(), 50);
    }

    #[test]
    fn allocation_feasible_after_every_iteration() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        for _ in 0..60 {
            e.step();
            let a = e.allocation();
            let report = a.check_feasibility(e.problem(), 1e-6);
            assert!(report.is_feasible(), "iteration {}: {report}", e.iteration());
        }
    }

    #[test]
    fn populations_integral_by_default() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.run(30);
        assert!(e.allocation().populations_are_integral());
    }

    #[test]
    fn fractional_mode_may_split_consumers() {
        let cfg = LrgpConfig {
            population_mode: PopulationMode::Fractional,
            ..LrgpConfig::default()
        };
        let mut e = Engine::new(base_workload(), cfg);
        e.run(30);
        // Fractional utility dominates integral utility for same dynamics.
        assert!(e.total_utility() > 0.0);
    }

    #[test]
    fn converges_on_base_workload() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        let out = e.run_until_converged(250);
        assert!(out.converged_at.is_some(), "did not converge in 250 iterations");
        let k = out.converged_at.unwrap();
        assert!(k <= 100, "converged too slowly: {k}");
        assert!(out.utility > 1e5, "implausibly low utility {}", out.utility);
    }

    #[test]
    fn adaptive_gamma_converges_no_slower_than_small_fixed_gamma() {
        let adaptive = {
            let mut e = Engine::new(base_workload(), LrgpConfig::default());
            e.run_until_converged(1000)
        };
        let fixed_small = {
            let cfg = LrgpConfig { gamma: GammaMode::fixed(0.01), ..LrgpConfig::default() };
            let mut e = Engine::new(base_workload(), cfg);
            e.run_until_converged(1000)
        };
        let a = adaptive.converged_at.unwrap_or(usize::MAX);
        let f = fixed_small.converged_at.unwrap_or(usize::MAX);
        assert!(a <= f, "adaptive {a} vs fixed-0.01 {f}");
    }

    #[test]
    fn undamped_gamma_oscillates_more_than_damped() {
        let amplitude = |gamma: f64| {
            let cfg = LrgpConfig { gamma: GammaMode::fixed(gamma), ..LrgpConfig::default() };
            let mut e = Engine::new(base_workload(), cfg);
            e.run(250);
            // Amplitude over the last 50 iterations.
            let tail = e.trace().utility.window(200, 250);
            let max = tail.iter().cloned().fold(f64::MIN, f64::max);
            let min = tail.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let undamped = amplitude(1.0);
        let damped = amplitude(0.1);
        assert!(
            undamped > damped,
            "expected γ=1 amplitude ({undamped}) > γ=0.1 amplitude ({damped})"
        );
    }

    #[test]
    fn utility_scales_linearly_with_cnode_copies() {
        let run = |w: workloads::Table2Workload| {
            let mut e = Engine::new(w.build(), LrgpConfig::default());
            e.run_until_converged(250).utility
        };
        let base = run(workloads::Table2Workload::Base);
        let doubled = run(workloads::Table2Workload::Flows6Cnodes6);
        let ratio = doubled / base;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "6f/6c should be ~2x base: base {base}, doubled {doubled}"
        );
    }

    #[test]
    fn removing_a_flow_drops_then_recovers_utility() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.run(150);
        let before = e.total_utility();
        // Remove the rank-100 flow, as in Fig. 3.
        e.apply_delta(&ProblemDelta::new().remove_flow(FlowId::new(5))).unwrap();
        e.run(100);
        let after = e.total_utility();
        assert!(after > 0.0);
        assert!(
            after < before,
            "utility should drop after removing the top flow: {before} -> {after}"
        );
        // Flow 5's rate and populations are zeroed.
        assert_eq!(e.allocation().rate(FlowId::new(5)), 0.0);
        for &c in e.problem().classes_of_flow(FlowId::new(5)) {
            assert_eq!(e.allocation().population(c), 0.0);
        }
        // Still feasible.
        assert!(e.allocation().is_feasible(e.problem(), 1e-6));
    }

    #[test]
    fn starts_at_max_rates_and_zero_prices() {
        let p = workloads::link_bottleneck_workload(100.0);
        let e = Engine::new(p.clone(), LrgpConfig::default());
        for f in p.flow_ids() {
            assert_eq!(e.allocation().rate(f), p.flow(f).bounds.max);
        }
        assert!(e.prices().node_prices().iter().all(|&x| x == 0.0));
        assert!(e.prices().link_prices().iter().all(|&x| x == 0.0));
        assert!(!e.prices().link_prices().is_empty());
    }

    #[test]
    fn config_with_the_removed_start_and_trace_keys_loads_as_default() {
        // `LrgpConfig::default()` as serialized while the config still had
        // its initial-rate, initial-price and trace fields, with a
        // non-default initial node price. The reader skips the four keys,
        // so the value is ignored.
        let legacy = concat!(
            r#"{"gamma":{"Adaptive":{"initial":0.1,"min":0.001,"max":0.1,"#,
            r#""increment":0.001,"decay":0.5}},"node_price_rule":"BenefitCost","#,
            r#""link_gamma":0.001,"initial_rate":"Max","initial_node_price":5,"#,
            r#""initial_link_price":0,"population_mode":"Integral","#,
            r#""admission_policy":"StopAtFirstBlock","#,
            r#""convergence":{"window":10,"relative_amplitude":0.001},"#,
            r#""trace":{"rates":false,"node_prices":false,"link_prices":false,"#,
            r#""populations":false,"gammas":false},"parallelism":"Sequential","#,
            r#""incremental":"On","reliability":"Off"}"#,
        );
        let config: LrgpConfig = serde_json::from_str(legacy).expect("legacy config loads");
        assert_eq!(config, LrgpConfig::default());
    }

    #[test]
    fn node_gamma_visible_and_clamped() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.run(50);
        for n in e.problem().node_ids() {
            let g = e.node_gamma(n);
            assert!((0.001..=0.1).contains(&g), "gamma {g} out of clamp");
        }
    }

    #[test]
    fn high_rank_classes_admitted_first() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.run_until_converged(250);
        let a = e.allocation();
        // The rank-100 class pair (18, 19) should reach a substantial
        // fraction of its population before rank-1 classes see anyone.
        let top = a.population(ClassId::new(18)) + a.population(ClassId::new(19));
        let bottom = a.population(ClassId::new(4)) + a.population(ClassId::new(5));
        assert!(top > bottom, "rank-100 ({top}) vs rank-1 ({bottom})");
        assert!(top > 0.0);
    }

    #[test]
    fn prices_remain_nonnegative_throughout() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        for _ in 0..100 {
            e.step();
            assert!(e.prices().node_prices().iter().all(|&p| p >= 0.0));
        }
        let _ = e.node_gamma(NodeId::new(0));
    }

    #[test]
    fn unstepped_delta_matches_fresh_engine_bitwise() {
        let p = base_workload();
        let template = FlowId::new(2);
        let classes = p.classes_of_flow(template).iter().map(|&c| p.class(c).clone()).collect();
        let delta = ProblemDelta::new()
            .set_node_capacity(NodeId::new(6), 5e5)
            .resize_class(ClassId::new(0), 17)
            .add_flow(p.flow(template).clone(), classes)
            .set_rate_bounds(FlowId::new(1), RateBounds::new(5.0, 250.0).unwrap());
        let mut delta_first = Engine::new(p.clone(), LrgpConfig::default());
        delta_first.apply_delta(&delta).unwrap();
        let final_problem = delta.apply(&p).unwrap();
        let mut fresh = Engine::new(final_problem, LrgpConfig::default());
        for k in 0..120 {
            let a = delta_first.step();
            let b = fresh.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
        }
        assert_eq!(delta_first.allocation(), fresh.allocation());
    }

    #[test]
    fn targeted_delta_matches_restore_bitwise() {
        // Class 18's maximum and flow 5's `r_max` are cut below what the
        // engine holds at iteration 90, so both clamps bind: the restore
        // must move the stored population and rate exactly as the delta does.
        let (class, flow) = (ClassId::new(18), FlowId::new(5));
        let delta = ProblemDelta::new()
            .set_node_capacity(NodeId::new(7), 1.2e5)
            .resize_class(ClassId::new(4), 3)
            .resize_class(class, 1)
            .set_rate_bounds(FlowId::new(0), RateBounds::new(10.0, 400.0).unwrap())
            .set_rate_bounds(flow, RateBounds::new(10.0, 20.0).unwrap());
        for incremental in [IncrementalMode::Off, IncrementalMode::On] {
            let config = LrgpConfig { incremental, ..LrgpConfig::default() };
            let mut via_delta = Engine::new(base_workload(), config);
            via_delta.run(90);
            let held = via_delta.allocation();
            assert!(held.population(class) > 1.0, "the population cut must bind");
            assert!(held.rate(flow) > 20.0, "the rate cut must bind");
            let snapshot = via_delta.snapshot();
            via_delta.apply_delta(&delta).unwrap();
            let mut via_restore =
                Engine::restore(delta.apply(&base_workload()).unwrap(), snapshot).unwrap();
            let (problem, restored) = (via_restore.problem(), via_restore.allocation());
            for f in problem.flow_ids() {
                let rate = restored.rate(f);
                assert!(problem.flow(f).bounds.contains(rate, 0.0), "{f:?} at {rate}");
                assert_eq!(via_restore.rhos()[f.index()], 1.0, "{f:?}: ρ without a spec");
            }
            for c in problem.class_ids() {
                let population = restored.population(c);
                let max = problem.class(c).max_population as f64;
                assert!(population <= max, "{c:?}: {population} consumers over {max}");
            }
            for k in 0..150 {
                let a = via_delta.step();
                let b = via_restore.step();
                assert_eq!(a.to_bits(), b.to_bits(), "{incremental:?}: diverged at iteration {k}");
            }
            assert_eq!(via_delta.allocation(), via_restore.allocation());
            assert_eq!(via_delta.prices(), via_restore.prices());
        }
    }

    #[test]
    fn add_flow_mid_run_grows_the_engine() {
        let p = base_workload();
        let source = p.flow(FlowId::new(0)).source;
        let sink = p.class(ClassId::new(0)).node;
        let spec = lrgp_model::FlowSpec {
            source,
            bounds: RateBounds::new(5.0, 500.0).unwrap(),
            link_costs: vec![],
            node_costs: vec![(sink, 1.0)],
        };
        let class = lrgp_model::ClassSpec {
            flow: FlowId::new(0),
            node: sink,
            max_population: 40,
            utility: lrgp_model::Utility::log(50.0),
            consumer_cost: 2.0,
        };
        let mut e = Engine::new(p.clone(), LrgpConfig::default());
        e.run(150);
        let flows_before = e.problem().num_flows();
        e.apply_delta(&ProblemDelta::new().add_flow(spec, vec![class])).unwrap();
        assert_eq!(e.problem().num_flows(), flows_before + 1);
        e.run(150);
        let new_flow = FlowId::new(flows_before as u32);
        assert!(e.allocation().rate(new_flow) > 0.0);
        assert!(e.allocation().is_feasible(e.problem(), 1e-6));
    }

    #[test]
    fn failed_delta_leaves_engine_unchanged() {
        // The first batch fails after a removal, an `F_{b,i}` edit and a
        // resize, which must be undone. The second adds a flow whose class
        // sits on a node the flow does not reach.
        let p = base_workload();
        let sink = p.nodes_of_flow(FlowId::new(3))[0].0;
        let flow = p.flow(FlowId::new(0)).clone();
        let mut class = p.class(ClassId::new(0)).clone();
        class.node = p.node_ids().find(|n| flow.node_costs.iter().all(|(m, _)| m != n)).unwrap();
        let cases = [
            ProblemDelta::new()
                .remove_flow(FlowId::new(1))
                .set_flow_node_cost(FlowId::new(3), sink, 0.5)
                .resize_class(ClassId::new(2), 1)
                .set_node_capacity(NodeId::new(999), 1.0),
            ProblemDelta::new().add_flow(flow, vec![class]),
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bad in cases {
            let mut e = Engine::new(p.clone(), LrgpConfig::default());
            e.run(40);
            let mut untouched = e.clone();
            assert!(e.apply_delta(&bad).is_err());
            assert_eq!(format!("{:?}", e.problem()), format!("{:?}", untouched.problem()));
            assert_eq!(format!("{:?}", e.allocation()), format!("{:?}", untouched.allocation()));
            assert_eq!(format!("{:?}", e.prices()), format!("{:?}", untouched.prices()));
            assert_eq!(bits(e.rhos()), bits(untouched.rhos()));
            for k in 0..50 {
                let (a, b) = (e.step(), untouched.step());
                assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
            }
        }
    }

    #[test]
    fn deltas_edit_an_unshared_problem_without_copying_it() {
        // A departure, a class resize and a re-join, on an engine that
        // shares its problem with nobody.
        let p = base_workload();
        let flow = FlowId::new(2);
        let spec = p.flow(flow).clone();
        let mut rejoin = ProblemDelta::new().set_rate_bounds(flow, spec.bounds);
        for &(node, cost) in &spec.node_costs {
            rejoin = rejoin.set_flow_node_cost(flow, node, cost);
        }
        for &class in p.classes_of_flow(flow) {
            rejoin = rejoin.resize_class(class, p.class(class).max_population);
        }
        let resize = ProblemDelta::new().resize_class(ClassId::new(0), 17);
        let deltas = [ProblemDelta::new().remove_flow(flow), resize.clone(), rejoin];
        let mut e = Engine::new(p.clone(), LrgpConfig::default());
        e.run(5);
        let before: *const Problem = e.problem();
        for delta in &deltas {
            e.apply_delta(delta).unwrap();
            assert!(std::ptr::eq(e.problem(), before), "{delta:?} copied");
            e.run(5);
        }
        assert_eq!(e.problem(), &resize.apply(&p).unwrap());
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.run(10);
        let before = e.allocation();
        e.apply_delta(&ProblemDelta::new()).unwrap();
        assert_eq!(e.allocation(), before);
    }
}
