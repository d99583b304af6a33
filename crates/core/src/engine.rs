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
//! ([`crate::exec`]); the engine hands it every step together with its
//! [`LrgpConfig`]. Sequential, threaded, incremental and full-recompute
//! execution are configuration choices over the same loop, all
//! bit-identical (see [`crate::plan`]).
//!
//! The engine records the total-utility trace and supports the paper's
//! dynamics experiments (changing the problem mid-run, Fig. 3) through the
//! first-class delta API ([`Engine::apply_delta`]) and enactment policies
//! (§2.1).

use crate::exec::StepState;
use crate::gamma::{GammaController, GammaMode};
use crate::kernel::admission::{AdmissionPolicy, PopulationMode};
use crate::kernel::price::{NodePriceRule, PriceVector};
use crate::plan::{IncrementalMode, Parallelism, Reliability};
use crate::pool::PoolHandle;
use crate::trace::{Trace, TraceConfig};
use lrgp_model::{Allocation, ClassId, DeltaOp, FlowId, Problem, ProblemDelta, ValidationError};
use lrgp_num::series::ConvergenceCriterion;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Starting point for the flow rates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum InitialRate {
    /// Every flow starts at `r_i^max` (optimistic; reproduces the paper's
    /// initial oscillation in Fig. 1).
    #[default]
    Max,
    /// Every flow starts at `r_i^min` (conservative).
    Min,
    /// Every flow starts at the given rate, clamped into its bounds.
    Value(f64),
}

impl InitialRate {
    /// The starting rate for a flow with the given bounds.
    fn rate_for(self, bounds: lrgp_model::RateBounds) -> f64 {
        match self {
            InitialRate::Max => bounds.max,
            InitialRate::Min => bounds.min,
            InitialRate::Value(v) => bounds.clamp(v),
        }
    }
}

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
    /// Initial flow rates.
    pub initial_rate: InitialRate,
    /// Initial node prices.
    pub initial_node_price: f64,
    /// Initial link prices.
    pub initial_link_price: f64,
    /// Whether populations are integral (paper) or fractional (relaxation).
    pub population_mode: PopulationMode,
    /// Greedy admission variant (paper stops at the first blocked class).
    pub admission_policy: AdmissionPolicy,
    /// Convergence test applied by [`Engine::run_until_converged`].
    pub convergence: ConvergenceCriterion,
    /// Which trace channels to record.
    pub trace: TraceConfig,
    /// How the step's three phases are executed (sequential by default;
    /// the sharded parallel path is bit-identical, see [`crate::plan`]).
    pub parallelism: Parallelism,
    /// Whether [`Engine::step`] carries dirty sets across iterations
    /// (off by default — the full recompute is the reference; the
    /// incremental path is bit-identical, see [`crate::exec`]).
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
            initial_rate: InitialRate::default(),
            initial_node_price: 0.0,
            initial_link_price: 0.0,
            population_mode: PopulationMode::default(),
            admission_policy: AdmissionPolicy::default(),
            convergence: ConvergenceCriterion::paper_default(),
            trace: TraceConfig::default(),
            parallelism: Parallelism::default(),
            incremental: IncrementalMode::default(),
            reliability: Reliability::default(),
        }
    }
}

/// Outcome of [`Engine::run_until_converged`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Iteration at which the convergence criterion was first satisfied
    /// (`None` if the budget ran out first). Counted from the start of the
    /// run call, 1-based: `Some(k)` means the criterion held after `k`
    /// iterations.
    pub converged_at: Option<usize>,
    /// Iterations actually executed by the call.
    pub iterations: usize,
    /// Total utility after the last executed iteration.
    pub utility: f64,
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
    /// Shared with pooled jobs only while a phase runs (pointer-swap
    /// handoff, see [`crate::pool`]), and with engine clones until one of
    /// them applies a delta. Deltas edit it in place through
    /// `Arc::make_mut`, which copies only while it is shared.
    problem: Arc<Problem>,
    config: LrgpConfig,
    /// The persistent worker pool (empty handle under
    /// [`Parallelism::Sequential`]). Workers are spawned in `new`, and
    /// again when a delta grows the problem, and park between steps;
    /// cloning the engine respawns a same-sized pool.
    pool: PoolHandle,
    rates: Vec<f64>,
    /// Per-flow delivery reliabilities ρ. Pinned at each flow's `ρ_max`
    /// (1.0 without a [`lrgp_model::ReliabilitySpec`]) until a
    /// [`Reliability::Joint`] engine starts re-solving them; under
    /// [`Reliability::Off`] the vector is carried but never read by the
    /// step, keeping the rate-only trace bitwise unchanged.
    rhos: Vec<f64>,
    populations: Vec<f64>,
    prices: PriceVector,
    gamma_controllers: Vec<GammaController>,
    iteration: usize,
    trace: Trace,
    /// Built at construction so the first step pays only its (all-dirty)
    /// kernel work; patched in place by every delta that keeps the id
    /// space, dropped when the problem grows or the problem or optimizer
    /// state is replaced wholesale, then lazily rebuilt on the next step.
    state: Option<StepState>,
}

impl Engine {
    /// Creates an engine over `problem` with the given configuration.
    pub fn new(problem: Problem, config: LrgpConfig) -> Self {
        let rates = initial_rates(&problem, config.initial_rate);
        let rhos = initial_rhos(&problem);
        let prices =
            PriceVector::uniform(&problem, config.initial_node_price, config.initial_link_price);
        let gamma_controllers = (0..problem.num_nodes())
            .map(|_| GammaController::new(config.gamma, config.initial_node_price))
            .collect();
        let trace = Trace::new(
            config.trace,
            problem.num_flows(),
            problem.num_nodes(),
            problem.num_links(),
            problem.num_classes(),
        );
        let state = Some(StepState::new(&problem));
        // Never more workers than a phase of this problem can use.
        let pool = PoolHandle::for_concurrency(config.parallelism.workers_for(max_units(&problem)));
        Self {
            populations: vec![0.0; problem.num_classes()],
            pool,
            problem: Arc::new(problem),
            config,
            rates,
            rhos,
            prices,
            gamma_controllers,
            iteration: 0,
            trace,
            state,
        }
    }

    /// Executes one full LRGP iteration and returns the total utility after
    /// it.
    ///
    /// Depending on [`LrgpConfig::parallelism`] the three phases run on
    /// this thread or sharded over the engine's pooled workers, and
    /// depending on [`LrgpConfig::incremental`] they recompute everything
    /// (every element is marked dirty first) or only the dirty subset. Every
    /// configuration calls the same per-element kernels on the same
    /// previous-iteration inputs, so the results (and the recorded trace)
    /// are bit-identical (see [`crate::plan`]).
    pub fn step(&mut self) -> f64 {
        let Self {
            problem,
            config,
            pool,
            rates,
            rhos,
            populations,
            prices,
            gamma_controllers,
            state,
            ..
        } = self;
        let state = state.get_or_insert_with(|| StepState::new(problem));
        if !config.incremental.enabled() {
            state.mark_all_dirty();
        }
        let utility =
            state.step(problem, config, pool, rates, rhos, populations, prices, gamma_controllers);
        self.record_step(utility);
        utility
    }

    /// The step state, if the engine has one since the last invalidation
    /// (test hook).
    #[cfg(test)]
    pub(crate) fn step_state(&self) -> Option<&StepState> {
        self.state.as_ref()
    }

    /// Execution contexts the engine's worker pool provides: its workers
    /// plus the caller (1 means the sequential path). The pool is sized to
    /// what the configured [`Parallelism`] resolves to for the problem's
    /// largest dimension, at construction and again whenever a delta grows
    /// the problem.
    pub fn effective_workers(&self) -> usize {
        self.pool.get().map_or(1, |pool| pool.workers() + 1)
    }

    /// Forces (or un-forces) the worker pool to dispatch shards even on a
    /// single-CPU host, where it would otherwise run them inline on the
    /// caller. Test diagnostic — lets the concurrency suites exercise the
    /// real cross-thread handoff regardless of the machine they run on.
    #[doc(hidden)]
    pub fn force_pool_dispatch(&self, force: bool) {
        if let Some(pool) = self.pool.get() {
            pool.set_force_dispatch(force);
        }
    }

    /// The OS thread ids of the pool's workers (empty without a pool).
    /// Test diagnostic — stress tests assert the same threads are
    /// reused across steps rather than respawned.
    #[doc(hidden)]
    pub fn pool_worker_ids(&self) -> Vec<std::thread::ThreadId> {
        self.pool.get().map(|p| p.worker_thread_ids()).unwrap_or_default()
    }

    /// Per-worker counts of pooled jobs completed since construction (empty
    /// without a pool). Test diagnostic.
    #[doc(hidden)]
    pub fn pool_jobs_completed(&self) -> Vec<u64> {
        self.pool.get().map(|p| p.jobs_completed()).unwrap_or_default()
    }

    /// Arms the pooled rate kernel to panic at `flow` (test hook for the
    /// panic-propagation regression suite).
    #[cfg(test)]
    pub(crate) fn arm_rate_panic(&mut self, flow: Option<u32>) {
        if let Some(state) = self.state.as_mut() {
            state.set_panic_on_flow(flow);
        }
    }

    /// Advances the iteration counter and records the enabled trace
    /// channels.
    fn record_step(&mut self, utility: f64) {
        self.iteration += 1;
        self.trace.utility.push(utility);
        if let Some(series) = self.trace.rates.as_mut() {
            for (s, &r) in series.iter_mut().zip(&self.rates) {
                s.push(r);
            }
        }
        if let Some(series) = self.trace.node_prices.as_mut() {
            for (s, &p) in series.iter_mut().zip(self.prices.node_prices()) {
                s.push(p);
            }
        }
        if let Some(series) = self.trace.link_prices.as_mut() {
            for (s, &p) in series.iter_mut().zip(self.prices.link_prices()) {
                s.push(p);
            }
        }
        if let Some(series) = self.trace.populations.as_mut() {
            for (s, &n) in series.iter_mut().zip(&self.populations) {
                s.push(n);
            }
        }
        if let Some(series) = self.trace.gammas.as_mut() {
            for (s, ctl) in series.iter_mut().zip(&self.gamma_controllers) {
                s.push(ctl.gamma());
            }
        }
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
    /// trace or `max_iterations` steps have executed, whichever is first.
    pub fn run_until_converged(&mut self, max_iterations: usize) -> RunOutcome {
        let mut last = self.trace.utility.last().unwrap_or(0.0);
        for k in 1..=max_iterations {
            last = self.step();
            if self.config.convergence.is_met(&self.trace.utility) {
                return RunOutcome { converged_at: Some(k), iterations: k, utility: last };
            }
        }
        RunOutcome { converged_at: None, iterations: max_iterations, utility: last }
    }

    /// The current allocation (rates + populations).
    pub fn allocation(&self) -> Allocation {
        Allocation::from_parts(&self.problem, self.rates.clone(), self.populations.clone())
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
        &self.prices
    }

    /// Per-flow delivery reliabilities ρ, indexed by flow id. All `ρ_max`
    /// (1.0 without a [`lrgp_model::ReliabilitySpec`]) unless a
    /// [`Reliability::Joint`] engine has stepped; see
    /// [`crate::kernel::reliability`].
    pub fn rhos(&self) -> &[f64] {
        &self.rhos
    }

    /// The reliability term `Σ_f mass_f · ln(ρ_f)` of the current state
    /// under the joint model (0.0 when the problem has no
    /// [`lrgp_model::ReliabilitySpec`] or no consumer is admitted) — the
    /// component [`Engine::step`] adds to the rate utility under
    /// [`Reliability::Joint`].
    pub fn reliability_utility(&self) -> f64 {
        crate::exec::reliability_utility(&self.problem, &self.rhos, &self.populations)
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-node γ controllers, indexed by node id (snapshot support).
    pub(crate) fn gamma_controllers(&self) -> &[GammaController] {
        &self.gamma_controllers
    }

    /// Overwrites the optimizer state (snapshot support). Lengths are the
    /// caller's responsibility; [`crate::snapshot`] validates them against
    /// the problem.
    pub(crate) fn load_state(
        &mut self,
        rates: Vec<f64>,
        rhos: Vec<f64>,
        populations: Vec<f64>,
        prices: PriceVector,
        gamma_controllers: Vec<GammaController>,
        iteration: usize,
    ) {
        self.rates = rates;
        self.rhos = rhos;
        self.populations = populations;
        self.prices = prices;
        self.gamma_controllers = gamma_controllers;
        self.iteration = iteration;
        // The caches no longer describe the stored state; rebuild from
        // scratch on the next step.
        self.state = None;
    }

    /// Current γ of `node`'s price controller.
    pub fn node_gamma(&self, node: lrgp_model::NodeId) -> f64 {
        self.gamma_controllers[node.index()].gamma()
    }

    /// Applies a batched [`ProblemDelta`] to the engine's problem,
    /// preserving prices, rates, populations, γ controllers and the trace
    /// across the change.
    ///
    /// The optimizer state is reconciled with the changed problem exactly
    /// as [`Engine::replace_problem`] would (rates clamped into the final
    /// bounds, populations capped at the final maxima, new flows starting
    /// at their [`LrgpConfig::initial_rate`]), so
    /// `engine.apply_delta(&delta)` and
    /// `engine.replace_problem(delta.apply(engine.problem())?)` continue
    /// bit-identically. Unlike `replace_problem`, every op that keeps the id
    /// space (capacity, population, rate-bound and ρ-bound edits, flow
    /// removals, `F_{b,i}` and link-loss edits) keeps the executor: cost
    /// edits patch its term table in place, and every op injects precise
    /// dirty marks instead of invalidating everything, so under an
    /// incremental engine the next step costs work proportional to what the
    /// delta touched. Only a flow addition, which changes the shape of the
    /// term table, still rebuilds the executor.
    ///
    /// Applying a delta *before* the first step re-derives the initial
    /// optimizer state, making the engine bit-identical to one freshly
    /// constructed on the changed problem.
    ///
    /// The ops edit the engine's problem in place
    /// ([`ProblemDelta::apply_in_place`]). On an engine that does not share
    /// its problem the edit copies nothing and costs `O(ops)`: `O(1)` per
    /// scalar edit, `O(|B_i| + |L_i| + |C_i|)` per removal. A clone shares
    /// its problem with the engine it came from until one of them applies a
    /// delta, so a clone's first delta copies the problem once. A flow
    /// addition still derives every index of the problem again, and
    /// re-sizes the worker pool for the grown problem as [`Engine::new`]
    /// sizes it.
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
        let flows_before = self.problem.num_flows();
        delta.apply_in_place(Arc::make_mut(&mut self.problem))?;
        let problem = Arc::clone(&self.problem);
        if delta.grows_problem() {
            // Size the pool for the grown problem, as `new` would.
            self.pool.resize(self.config.parallelism.workers_for(max_units(&problem)));
        }
        if self.iteration == 0 {
            // Nothing has run: re-derive the initial state from the changed
            // problem, as a fresh construction would.
            self.rates = initial_rates(&problem, self.config.initial_rate);
            self.rhos = initial_rhos(&problem);
            self.populations = vec![0.0; problem.num_classes()];
            self.trace = Trace::new(
                self.config.trace,
                problem.num_flows(),
                problem.num_nodes(),
                problem.num_links(),
                problem.num_classes(),
            );
            self.state = Some(StepState::new(&problem));
            return Ok(());
        }
        if delta.grows_problem() {
            // The id space grew, so the term tables change shape: they and
            // the caches are rebuilt and the next step treats everything
            // as dirty, exactly like a freshly constructed engine would.
            for f in flows_before..problem.num_flows() {
                let flow = FlowId::new(f as u32);
                let bounds = problem.flow(flow).bounds;
                self.rates.push(self.config.initial_rate.rate_for(bounds));
                self.rhos.push(problem.rho_bounds(flow).map_or(1.0, |b| b.max));
            }
            self.populations.resize(problem.num_classes(), 0.0);
            self.trace.grow(problem.num_flows(), problem.num_classes());
            self.clamp_state_into_problem();
            self.state = None;
            return Ok(());
        }
        // Every other op keeps the id space and the table's shape: reconcile
        // only the touched state and hand the executor the cost patches and
        // precise dirty marks. Clamps run against the *final* problem so a
        // batched delta matches a wholesale replacement bitwise.
        for op in delta.ops() {
            match op {
                DeltaOp::SetNodeCapacity { node, .. } => {
                    if let Some(state) = self.state.as_mut() {
                        state.note_capacity_change(*node);
                    }
                }
                DeltaOp::SetLinkCapacity { .. } => {
                    // The link price update always runs and reads the
                    // capacity directly; no cached quantity depends on it.
                }
                DeltaOp::SetMaxPopulation { class, .. } => self.clamp_population(*class),
                DeltaOp::SetRateBounds { flow, .. } => self.clamp_rate(*flow),
                DeltaOp::RemoveFlow { flow } => {
                    // The bounds collapse to [0, 0] and the classes' maxima
                    // to 0 (unless a later op in the batch restores them).
                    self.clamp_rate(*flow);
                    for &class in problem.classes_of_flow(*flow) {
                        self.clamp_population(class);
                    }
                    if let Some(state) = self.state.as_mut() {
                        state.note_cost_edit(&problem, op);
                    }
                }
                DeltaOp::SetFlowNodeCost { .. } | DeltaOp::SetLinkLoss { .. } => {
                    if let Some(state) = self.state.as_mut() {
                        state.note_cost_edit(&problem, op);
                    }
                }
                DeltaOp::SetRhoBounds { flow, .. } => self.clamp_rho(*flow),
                DeltaOp::AddFlow { .. } => {
                    // Excluded by the `grows_problem` branch above.
                }
            }
        }
        Ok(())
    }

    /// Clamps `flow`'s stored rate into its current bounds and tells the
    /// executor whether the clamp moved it.
    fn clamp_rate(&mut self, flow: FlowId) {
        let bounds = self.problem.flow(flow).bounds;
        let slot = &mut self.rates[flow.index()];
        let clamped = bounds.clamp(*slot);
        let moved = clamped.to_bits() != slot.to_bits();
        *slot = clamped;
        if let Some(state) = self.state.as_mut() {
            state.note_bounds_change(&self.problem, flow, moved);
        }
    }

    /// Caps `class`'s published population at its current maximum and
    /// tells the executor whether the cap moved it.
    fn clamp_population(&mut self, class: ClassId) {
        let max = self.problem.class(class).max_population as f64;
        let slot = &mut self.populations[class.index()];
        let clamped = slot.min(max);
        let moved = clamped.to_bits() != slot.to_bits();
        *slot = clamped;
        if let Some(state) = self.state.as_mut() {
            state.note_population_change(&self.problem, class, moved);
        }
    }

    /// Clamps `flow`'s stored ρ into its current bounds (1.0 without a
    /// spec, as [`Self::clamp_state_into_problem`] does) and tells the
    /// executor whether the clamp moved it.
    fn clamp_rho(&mut self, flow: FlowId) {
        let slot = &mut self.rhos[flow.index()];
        let clamped = match self.problem.rho_bounds(flow) {
            Some(bounds) => bounds.clamp(*slot),
            None => 1.0,
        };
        let moved = clamped.to_bits() != slot.to_bits();
        *slot = clamped;
        if let Some(state) = self.state.as_mut() {
            state.note_rho_bounds_change(&self.problem, flow, moved);
        }
    }

    /// Clamps rates into the current problem's bounds and populations under
    /// its maxima, so the next iteration starts feasible.
    fn clamp_state_into_problem(&mut self) {
        for f in self.problem.flow_ids() {
            self.rates[f.index()] = self.problem.flow(f).bounds.clamp(self.rates[f.index()]);
            self.rhos[f.index()] = match self.problem.rho_bounds(f) {
                Some(bounds) => bounds.clamp(self.rhos[f.index()]),
                None => 1.0,
            };
        }
        for c in self.problem.class_ids() {
            let max = self.problem.class(c).max_population as f64;
            self.populations[c.index()] = self.populations[c.index()].min(max);
        }
    }

    /// Replaces the problem mid-run, preserving prices, rates, populations,
    /// γ controllers and the trace. The new problem must have identical
    /// dimensions (same id spaces), as [`ProblemDelta::apply`] leaves them
    /// for every op but a flow addition. This is the wholesale escape hatch
    /// (and the oracle [`Engine::apply_delta`] is checked against); deltas
    /// should prefer `apply_delta`, which keeps the incremental caches alive
    /// where it can.
    ///
    /// # Panics
    ///
    /// Panics if any dimension differs.
    pub fn replace_problem(&mut self, problem: Problem) {
        assert_eq!(problem.num_flows(), self.problem.num_flows(), "flow count must not change");
        assert_eq!(problem.num_nodes(), self.problem.num_nodes(), "node count must not change");
        assert_eq!(problem.num_links(), self.problem.num_links(), "link count must not change");
        assert_eq!(
            problem.num_classes(),
            self.problem.num_classes(),
            "class count must not change"
        );
        self.problem = Arc::new(problem);
        // Clamp state into the new problem's bounds so the next iteration
        // starts feasible.
        self.clamp_state_into_problem();
        // Term tables and dirty sets were built against the old problem;
        // the next step rebuilds them and treats everything as dirty,
        // exactly like a freshly constructed engine would.
        self.state = None;
    }
}

/// The problem's largest dimension. No phase shards over more elements
/// (rates and ρ shard over flows, admission over nodes), so it bounds the
/// execution contexts any step can use.
fn max_units(problem: &Problem) -> usize {
    problem.num_flows().max(problem.num_nodes()).max(problem.num_links())
}

/// The initial rate vector for `problem` under the configured policy.
fn initial_rates(problem: &Problem, initial: InitialRate) -> Vec<f64> {
    problem.flow_ids().map(|f| initial.rate_for(problem.flow(f).bounds)).collect()
}

/// The initial reliability vector: every flow starts at its `ρ_max`
/// (mirroring [`InitialRate::Max`]), or 1.0 — lossless delivery — without a
/// [`lrgp_model::ReliabilitySpec`].
fn initial_rhos(problem: &Problem) -> Vec<f64> {
    problem.flow_ids().map(|f| problem.rho_bounds(f).map_or(1.0, |b| b.max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::{self, base_workload};
    use lrgp_model::{ClassId, NodeId, RateBounds};

    fn quick_config() -> LrgpConfig {
        LrgpConfig { trace: TraceConfig::full(), ..LrgpConfig::default() }
    }

    #[test]
    fn engine_runs_and_produces_positive_utility() {
        let mut e = Engine::new(base_workload(), quick_config());
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
        let mut e = Engine::new(base_workload(), quick_config());
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
    fn trace_channels_populate_when_enabled() {
        let mut e = Engine::new(base_workload(), quick_config());
        e.run(5);
        let t = e.trace();
        assert_eq!(t.rates.as_ref().unwrap()[0].len(), 5);
        assert_eq!(t.node_prices.as_ref().unwrap()[0].len(), 5);
        assert_eq!(t.populations.as_ref().unwrap()[0].len(), 5);
        assert_eq!(t.gammas.as_ref().unwrap()[0].len(), 5);
    }

    #[test]
    fn initial_rate_variants() {
        let p = base_workload();
        let min = Engine::new(
            p.clone(),
            LrgpConfig { initial_rate: InitialRate::Min, ..Default::default() },
        );
        assert!(min.allocation().rates().iter().all(|&r| r == 10.0));
        let max = Engine::new(p.clone(), LrgpConfig::default());
        assert!(max.allocation().rates().iter().all(|&r| r == 1000.0));
        let fixed = Engine::new(
            p,
            LrgpConfig { initial_rate: InitialRate::Value(5000.0), ..Default::default() },
        );
        assert!(fixed.allocation().rates().iter().all(|&r| r == 1000.0)); // clamped
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
    #[should_panic(expected = "flow count must not change")]
    fn replace_problem_rejects_dimension_change() {
        let mut e = Engine::new(base_workload(), LrgpConfig::default());
        e.replace_problem(workloads::paper_workload(
            lrgp_model::UtilityShape::Log,
            2,
            1,
        ));
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
        let delta = ProblemDelta::new()
            .set_node_capacity(NodeId::new(6), 5e5)
            .resize_class(ClassId::new(0), 17)
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
    fn targeted_delta_matches_replace_problem_bitwise() {
        let delta = ProblemDelta::new()
            .set_node_capacity(NodeId::new(7), 1.2e5)
            .resize_class(ClassId::new(4), 3)
            .set_rate_bounds(FlowId::new(0), RateBounds::new(10.0, 400.0).unwrap());
        let configs = [
            LrgpConfig::default(),
            LrgpConfig { incremental: IncrementalMode::On, ..LrgpConfig::default() },
        ];
        for config in configs {
            let mut via_delta = Engine::new(base_workload(), config);
            let mut via_replace = Engine::new(base_workload(), config);
            for _ in 0..90 {
                via_delta.step();
                via_replace.step();
            }
            via_delta.apply_delta(&delta).unwrap();
            via_replace.replace_problem(delta.apply(via_replace.problem()).unwrap());
            for k in 0..150 {
                let a = via_delta.step();
                let b = via_replace.step();
                assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
            }
            assert_eq!(via_delta.allocation(), via_replace.allocation());
            assert_eq!(via_delta.prices(), via_replace.prices());
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
        let mut e = Engine::new(p.clone(), quick_config());
        e.run(150);
        let flows_before = e.problem().num_flows();
        e.apply_delta(&ProblemDelta::new().add_flow(spec, vec![class])).unwrap();
        assert_eq!(e.problem().num_flows(), flows_before + 1);
        e.run(150);
        let new_flow = FlowId::new(flows_before as u32);
        assert!(e.allocation().rate(new_flow) > 0.0);
        assert!(e.allocation().is_feasible(e.problem(), 1e-6));
        // The grown trace channel recorded only the post-delta iterations.
        assert_eq!(e.trace().rates.as_ref().unwrap()[flows_before].len(), 150);
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
        // shares its problem with nobody. Pooled jobs hold the problem only
        // while a phase runs, so the pooled engine must not copy either.
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
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let mut e = Engine::new(p.clone(), LrgpConfig { parallelism, ..LrgpConfig::default() });
            e.force_pool_dispatch(true);
            e.run(5);
            let before: *const Problem = e.problem();
            for delta in &deltas {
                e.apply_delta(delta).unwrap();
                assert!(std::ptr::eq(e.problem(), before), "{parallelism:?}: {delta:?} copied");
                e.run(5);
            }
            assert_eq!(e.problem(), &resize.apply(&p).unwrap());
            if parallelism != Parallelism::Sequential {
                assert!(e.pool_jobs_completed().iter().sum::<u64>() > 0, "the pool never ran");
            }
        }
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
