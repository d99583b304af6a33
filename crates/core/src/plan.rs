//! Execution planning: how a step runs, separated from what it computes.
//!
//! The kernel layer ([`crate::kernel`]) defines *what* one LRGP iteration
//! computes. This module defines *how* the engine executes it: an
//! [`ExecutionPlan`] is the product of three independent axes —
//!
//! * [`Parallelism`] — whether each phase shards its work over the engine's
//!   persistent worker pool ([`crate::pool`]), and over how many workers;
//! * [`IncrementalMode`] — whether the step recomputes everything or only
//!   the dirty subset tracked by [`crate::exec::StepState`];
//! * [`Reliability`] — whether the step also solves each flow's
//!   delivery-reliability variable ρ against the link prices
//!   ([`crate::kernel::reliability`]) or runs the classic rate-only
//!   pipeline.
//!
//! The first two axes preserve bit-identical results, so a plan is purely
//! a performance choice: every parallelism × incrementality combination
//! produces the same `f64::to_bits` trace as the sequential
//! full-recompute reference (enforced by `tests/differential.rs`).
//! [`Reliability`] is the one axis that changes *what* is optimized rather
//! than how fast: [`Reliability::Off`] (the default) takes the classic
//! rate-only code path byte for byte, while [`Reliability::Joint`] adds
//! the ρ phase — within `Joint`, all parallelism × incrementality plans
//! are still bit-identical to each other.
//!
//! # Determinism guarantee
//!
//! One LRGP iteration is embarrassingly parallel *within* each of its three
//! phases: rate allocation is independent per flow source (Algorithm 1),
//! greedy admission and the node price update are independent per node
//! (Algorithm 2 + Eq. 12; every class is attached to exactly one node, so
//! population writes never conflict), and the link price update is
//! independent per link (Eq. 13). The executor shards each phase over the
//! pool's parked workers in contiguous id-order chunks
//! ([`crate::pool::shard_spans`]) and applies the per-element results in
//! shard order. The parallel trace is **bit-identical** to the sequential
//! trace, regardless of worker count or scheduling, by construction rather
//! than by tolerance:
//!
//! * every per-element kernel ([`crate::kernel::rate::solve_rate`],
//!   [`crate::kernel::admission::allocate_consumers`],
//!   [`crate::kernel::price::update_node_price_with_rule`],
//!   [`crate::kernel::price::update_link_price`]) is a pure function of the
//!   *previous* iteration's published state, so workers read frozen inputs;
//! * elements are partitioned by id, writes target disjoint slots, and the
//!   shard results are reduced back in id order;
//! * every floating-point *summation* (per-flow aggregate prices, per-link
//!   usage, total utility) runs inside one kernel in the same element order
//!   as the sequential reference — the sharding never reassociates a sum.
//!
//! # The Auto cost model
//!
//! [`Parallelism::Auto`] resolves its worker count per phase through an
//! [`AutoModel`]: a tiny analytic cost model calibrated **once at engine
//! construction** from the problem's dimensions (average classes per flow
//! sets the per-unit kernel cost; the host's hardware parallelism, resolved
//! once per process, caps the worker count). For a phase of `units` dirty
//! elements the model picks the largest worker count whose wake/sync
//! overhead is still covered by the kernel work it takes off the calling
//! thread — and stays sequential below the crossover. The model is deterministic (pure integer
//! arithmetic, no clocks) and monotone (more units never picks fewer
//! workers), properties pinned by tests.
//!
//! # Composition of the axes
//!
//! The executor shards the *dirty* element lists instead of the full id
//! ranges, resolving its worker count with [`ExecutionPlan::workers_for`]
//! on the dirty count — a step with ten dirty flows stays sequential under
//! [`Parallelism::Auto`] even on a thousand-flow problem. A
//! non-incremental plan simply marks everything dirty before each step
//! (recomputing a bitwise-unchanged input yields the bitwise-same output,
//! so full recompute is the `all-dirty` special case of the same executor).

use crate::engine::LrgpConfig;
use crate::exec::StepState;
use crate::gamma::GammaController;
use crate::kernel::price::PriceVector;
use crate::pool::PoolHandle;
use lrgp_model::Problem;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Worker-count ceiling for [`Parallelism::Auto`] (sync cost grows linearly
/// with participating workers while per-step work is fixed).
const AUTO_MAX_WORKERS: usize = 8;

/// How the engine executes the three phases of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded reference execution (the default).
    #[default]
    Sequential,
    /// Shard each phase over exactly this many execution contexts — the
    /// calling thread plus `n − 1` pooled workers (values are clamped to at
    /// least 1 and at most one context per element).
    Threads(usize),
    /// Pick a worker count per phase from the engine's calibrated
    /// [`AutoModel`], staying sequential when the dirty set is too small to
    /// amortize the pool wake-up.
    Auto,
}

impl Parallelism {
    /// Resolves the worker count for a phase of `units` independent
    /// elements, using the *default* (uncalibrated) Auto model. A result of
    /// 1 means the sequential path. Prefer [`ExecutionPlan::workers_for`],
    /// which consults the engine's calibrated model.
    pub fn workers_for(self, units: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, units.max(1)),
            Parallelism::Auto => AutoModel::default().workers_for(units),
        }
    }
}

/// The analytic cost model behind [`Parallelism::Auto`].
///
/// All costs are unitless integers on a common scale (think "nanoseconds,
/// roughly"): what matters is their ratios, which decide the
/// sequential/parallel crossover. The model is calibrated once per engine
/// from the problem's dimensions ([`AutoModel::calibrated_for`]) — never
/// from wall-clock measurements, which would make plans nondeterministic.
///
/// For `units` dirty elements sharded over `w` contexts, dispatching is
/// worth it when the work taken off the calling thread exceeds the
/// overhead of waking and syncing the pool:
///
/// ```text
/// (units − ceil(units / w)) · unit_cost ≥ dispatch_cost + per_worker_cost · (w − 1)
/// ```
///
/// [`AutoModel::workers_for`] picks the largest `w ≤ max_workers`
/// satisfying this, or 1 when none does. Because the left side is
/// non-decreasing in `units` for every fixed `w`, the chosen worker count
/// is monotone in `units`; because everything is integer arithmetic on
/// fixed fields, it is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutoModel {
    /// Cost of one unit of phase work (one dirty flow's rate solve, one
    /// dirty node's re-admission).
    pub unit_cost: u64,
    /// Fixed cost of waking the pool for one phase (condvar broadcast +
    /// caller's final wait).
    pub dispatch_cost: u64,
    /// Marginal sync cost per participating worker beyond the caller.
    pub per_worker_cost: u64,
    /// Hard ceiling on the total execution contexts (caller + workers).
    pub max_workers: u32,
}

impl Default for AutoModel {
    fn default() -> Self {
        // Uncalibrated fallback: a mid-weight kernel on a pool sized to the
        // Auto ceiling. `calibrated_for` replaces this at engine
        // construction.
        Self {
            unit_cost: 150,
            dispatch_cost: 12_000,
            per_worker_cost: 4_000,
            max_workers: AUTO_MAX_WORKERS as u32,
        }
    }
}

impl AutoModel {
    /// Calibrates the model for `problem` from its dimensions alone: the
    /// per-unit kernel cost scales with the average class count per flow
    /// (both the rate solve's term refill and the admission sort are linear
    /// in it), and the worker ceiling is capped by the host's hardware
    /// parallelism, resolved once per process so repeated derivations
    /// agree.
    pub fn calibrated_for(problem: &Problem) -> Self {
        let flows = (problem.num_flows() as u64).max(1);
        let classes_per_flow = (problem.num_classes() as u64).div_ceil(flows).max(1);
        let hardware = crate::pool::hardware_threads();
        Self {
            // ~40 for the bounds/price plumbing plus ~25 per class term.
            unit_cost: 40 + 25 * classes_per_flow,
            max_workers: (AUTO_MAX_WORKERS as u32).min(hardware as u32).max(1),
            ..Self::default()
        }
    }

    /// The largest context count (caller + workers) whose pool overhead the
    /// saved kernel work still covers, for a phase of `units` elements;
    /// 1 means stay sequential. Deterministic and monotone in `units` (see
    /// the type docs).
    pub fn workers_for(&self, units: usize) -> usize {
        let ceiling = (self.max_workers as usize).max(1).min(units.max(1));
        let mut best = 1;
        for w in 2..=ceiling {
            let saved = (units - units.div_ceil(w)) as u64 * self.unit_cost;
            let overhead = self.dispatch_cost + self.per_worker_cost * (w as u64 - 1);
            if saved >= overhead {
                best = w;
            }
        }
        best
    }

    /// The smallest unit count at which [`Self::workers_for`] first leaves
    /// the sequential path (`None` if no count up to `limit` does): the
    /// calibrated crossover, exposed for tests and diagnostics.
    pub fn crossover(&self, limit: usize) -> Option<usize> {
        (2..=limit).find(|&units| self.workers_for(units) > 1)
    }
}

/// Whether the step solves the per-flow delivery-reliability variable
/// jointly with the rate.
///
/// [`Reliability::Off`] is the default and leaves the engine's trace
/// bitwise-identical to the pre-reliability pipeline — the ρ phase is
/// skipped entirely, link usage is the plain `Σ cost · r` fold, and total
/// utility carries no reliability term (enforced by the differential
/// harness). [`Reliability::Joint`] activates the
/// [`crate::kernel::reliability`] best-response for problems that carry a
/// [`lrgp_model::ReliabilitySpec`]: each step re-solves dirty flows' ρ
/// against the current link prices, link usage inflates by
/// `redundancy · loss_l · ρ_f` per unit of rate, and total utility gains
/// `Σ_f mass_f · ln(ρ_f)`. On problems without a spec, `Joint` degrades to
/// `Off` (there is nothing to solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Reliability {
    /// Rate-only allocation; ρ is fixed and free (the default).
    #[default]
    Off,
    /// Joint rate–reliability allocation by alternating best-response.
    Joint,
}

impl Reliability {
    /// `true` when the plan solves ρ jointly with the rate.
    pub fn joint(self) -> bool {
        matches!(self, Reliability::Joint)
    }
}

/// Whether the step recomputes everything or only the dirty subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IncrementalMode {
    /// Recompute everything each step (the reference behaviour; the
    /// executor marks all elements dirty before stepping).
    #[default]
    Off,
    /// Track dirty sets across steps and recompute only what changed.
    On,
    /// Let the engine decide. Currently resolves to [`IncrementalMode::On`]:
    /// the incremental step is bit-identical and its bookkeeping overhead is
    /// linear with small constants, so it pays for itself on every workload
    /// once iterations settle. The variant exists so deployments can pin the
    /// choice explicitly while the heuristic is free to evolve.
    Auto,
}

impl IncrementalMode {
    /// `true` when dirty sets are carried across steps.
    pub fn enabled(self) -> bool {
        !matches!(self, IncrementalMode::Off)
    }
}

/// The resolved execution strategy of an engine: one choice per axis, plus
/// the calibrated [`AutoModel`].
///
/// Derived from [`LrgpConfig`] at construction via
/// [`ExecutionPlan::from_config`] (the engine then calibrates `auto` for
/// its problem); the engine consults it on every step. Plans affect
/// wall-clock time only — never results (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// How each phase shards its work over the pool.
    pub parallelism: Parallelism,
    /// Whether dirty sets persist across steps.
    pub incrementality: IncrementalMode,
    /// The Auto crossover model (only consulted under
    /// [`Parallelism::Auto`]).
    #[serde(default)]
    pub auto: AutoModel,
    /// Whether ρ is solved jointly with the rate.
    #[serde(default)]
    pub reliability: Reliability,
}

impl ExecutionPlan {
    /// Reads the plan out of an engine configuration. The `auto` model
    /// starts at its defaults; the engine calibrates it against the problem
    /// via [`AutoModel::calibrated_for`].
    pub fn from_config(config: &LrgpConfig) -> Self {
        Self {
            parallelism: config.parallelism,
            incrementality: config.incremental,
            auto: AutoModel::default(),
            reliability: config.reliability,
        }
    }

    /// `true` when dirty sets persist across steps.
    pub fn incremental(&self) -> bool {
        self.incrementality.enabled()
    }

    /// Resolves the execution-context count (caller + pooled workers) for a
    /// phase of `units` independent elements. A result of 1 means the
    /// sequential path.
    pub fn workers_for(&self, units: usize) -> usize {
        match self.parallelism {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, units.max(1)),
            Parallelism::Auto => self.auto.workers_for(units),
        }
    }

    /// The most execution contexts any phase can ever use under this plan —
    /// what sizes the engine's persistent pool (caller + `max_concurrency
    /// − 1` workers).
    pub fn max_concurrency(&self) -> usize {
        match self.parallelism {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => (self.auto.max_workers as usize).max(1),
        }
    }

    /// A short human-readable rendering, e.g. `"threads(4), incremental"`.
    pub fn describe(&self) -> String {
        let par = match self.parallelism {
            Parallelism::Sequential => "sequential".to_string(),
            Parallelism::Threads(n) => format!("threads({n})"),
            Parallelism::Auto => "auto-parallel".to_string(),
        };
        let inc = if self.incremental() { "incremental" } else { "full recompute" };
        // Off is the invariant default and stays out of the string so
        // pre-existing renderings are unchanged.
        let mut rendered = format!("{par}, {inc}");
        if self.reliability.joint() {
            rendered.push_str(", joint reliability");
        }
        rendered
    }

    /// Executes one LRGP iteration under this plan. For non-incremental
    /// plans every element is marked dirty first, which makes the step an
    /// exact full recompute through the same executor. Sharded phases run
    /// on `pool`'s parked workers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        state: &mut StepState,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        rates: &mut Vec<f64>,
        rhos: &mut Vec<f64>,
        populations: &mut Vec<f64>,
        prices: &mut PriceVector,
        gammas: &mut [GammaController],
    ) -> f64 {
        if !self.incremental() {
            state.mark_all_dirty();
        }
        state.step(problem, config, self, pool, rates, rhos, populations, prices, gammas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_worker() {
        assert_eq!(Parallelism::Sequential.workers_for(10_000), 1);
    }

    #[test]
    fn threads_clamp_to_units_and_one() {
        assert_eq!(Parallelism::Threads(0).workers_for(100), 1);
        assert_eq!(Parallelism::Threads(4).workers_for(100), 4);
        assert_eq!(Parallelism::Threads(64).workers_for(3), 3);
        assert_eq!(Parallelism::Threads(4).workers_for(0), 1);
    }

    #[test]
    fn auto_stays_sequential_on_small_problems() {
        assert_eq!(Parallelism::Auto.workers_for(8), 1);
        assert!(Parallelism::Auto.workers_for(100_000) >= 1);
    }

    #[test]
    fn auto_model_is_deterministic() {
        let model = AutoModel::default();
        for units in [0, 1, 10, 100, 1_000, 100_000] {
            let first = model.workers_for(units);
            for _ in 0..5 {
                assert_eq!(model.workers_for(units), first, "units {units}");
            }
        }
    }

    #[test]
    fn auto_model_is_monotone_in_units() {
        let models = [
            AutoModel::default(),
            AutoModel { unit_cost: 1, dispatch_cost: 100, per_worker_cost: 7, max_workers: 6 },
            AutoModel { unit_cost: 900, dispatch_cost: 50_000, per_worker_cost: 1, max_workers: 3 },
        ];
        for model in models {
            let mut prev = 0usize;
            for units in 0..5_000 {
                let w = model.workers_for(units);
                assert!(
                    w >= prev,
                    "workers_for must be monotone: units {units} gave {w} after {prev}"
                );
                prev = w;
            }
        }
    }

    #[test]
    fn auto_model_crossover_matches_analytic_threshold() {
        // With w = 2: saved = (units − ceil(units/2)) · unit_cost =
        // floor(units/2) · unit_cost; the crossover is the first units with
        // floor(units/2) · 10 ≥ 100 + 5 ⇒ floor(units/2) ≥ 11 ⇒ units = 22.
        let model =
            AutoModel { unit_cost: 10, dispatch_cost: 100, per_worker_cost: 5, max_workers: 2 };
        assert_eq!(model.crossover(1_000), Some(22));
        assert_eq!(model.workers_for(21), 1);
        assert_eq!(model.workers_for(22), 2);
    }

    #[test]
    fn auto_model_respects_the_worker_ceiling() {
        let model = AutoModel { max_workers: 3, ..AutoModel::default() };
        for units in [10usize, 1_000, 1_000_000] {
            assert!(model.workers_for(units) <= 3);
        }
        let solo = AutoModel { max_workers: 1, ..AutoModel::default() };
        assert_eq!(solo.workers_for(1_000_000), 1);
    }

    #[test]
    fn calibration_is_deterministic_and_scales_with_classes() {
        let problem = lrgp_model::workloads::base_workload();
        let a = AutoModel::calibrated_for(&problem);
        let b = AutoModel::calibrated_for(&problem);
        assert_eq!(a, b, "repeated calibration must agree");
        assert!(a.unit_cost > AutoModel::default().dispatch_cost / 1_000);
        assert!(a.max_workers >= 1 && a.max_workers <= AUTO_MAX_WORKERS as u32);
    }

    #[test]
    fn parallelism_serde_round_trip() {
        for p in [Parallelism::Sequential, Parallelism::Threads(6), Parallelism::Auto] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Parallelism = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn incremental_mode_enabled_flags() {
        assert!(!IncrementalMode::Off.enabled());
        assert!(IncrementalMode::On.enabled());
        assert!(IncrementalMode::Auto.enabled());
        assert_eq!(IncrementalMode::default(), IncrementalMode::Off);
    }

    #[test]
    fn plan_from_config_copies_both_axes() {
        let config = LrgpConfig {
            parallelism: Parallelism::Threads(4),
            incremental: IncrementalMode::On,
            ..LrgpConfig::default()
        };
        let plan = ExecutionPlan::from_config(&config);
        assert_eq!(plan.parallelism, Parallelism::Threads(4));
        assert!(plan.incremental());
        assert_eq!(plan.describe(), "threads(4), incremental");
        assert_eq!(ExecutionPlan::default().describe(), "sequential, full recompute");
    }

    #[test]
    fn plan_max_concurrency_by_mode() {
        let plan = |parallelism| ExecutionPlan { parallelism, ..ExecutionPlan::default() };
        assert_eq!(plan(Parallelism::Sequential).max_concurrency(), 1);
        assert_eq!(plan(Parallelism::Threads(4)).max_concurrency(), 4);
        assert_eq!(plan(Parallelism::Threads(0)).max_concurrency(), 1);
        let auto = plan(Parallelism::Auto);
        assert_eq!(auto.max_concurrency(), auto.auto.max_workers as usize);
    }

    #[test]
    fn plan_serde_round_trip() {
        let plan = ExecutionPlan {
            parallelism: Parallelism::Auto,
            incrementality: IncrementalMode::Auto,
            ..ExecutionPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Pre-AutoModel plan JSON (no `auto` field) still deserializes.
        let legacy = r#"{"parallelism":"Sequential","incrementality":"On"}"#;
        let back: ExecutionPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.auto, AutoModel::default());
    }

    #[test]
    fn plan_json_with_a_numerics_key_still_loads() {
        // Plans written while the engine had a `numerics` axis carry the
        // key; the reader skips it and the plan loads as if it were absent.
        for numerics in ["Strict", "Vectorized"] {
            let old = format!(
                r#"{{"parallelism":"Sequential","incrementality":"On","numerics":"{numerics}"}}"#
            );
            let back: ExecutionPlan = serde_json::from_str(&old).unwrap();
            let without: ExecutionPlan =
                serde_json::from_str(r#"{"parallelism":"Sequential","incrementality":"On"}"#)
                    .unwrap();
            assert_eq!(back, without, "numerics {numerics}");
        }
    }

    #[test]
    fn reliability_axis_defaults_to_off_and_renders_only_when_joint() {
        assert_eq!(Reliability::default(), Reliability::Off);
        assert!(!Reliability::Off.joint());
        assert!(Reliability::Joint.joint());
        let plan = ExecutionPlan { reliability: Reliability::Joint, ..ExecutionPlan::default() };
        assert_eq!(plan.describe(), "sequential, full recompute, joint reliability");
        // The config axis flows into the plan like the other two, and
        // pre-reliability plan JSON still deserializes to Off.
        let config = LrgpConfig { reliability: Reliability::Joint, ..LrgpConfig::default() };
        assert_eq!(ExecutionPlan::from_config(&config).reliability, Reliability::Joint);
        let legacy = r#"{"parallelism":"Sequential","incrementality":"On"}"#;
        let back: ExecutionPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.reliability, Reliability::Off);
    }
}
