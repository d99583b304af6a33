//! **LRGP — Lagrangian Rates, Greedy Populations.**
//!
//! A reproduction of the distributed utility-optimization algorithm from
//! *"Utility Optimization for Event-Driven Distributed Infrastructures"*
//! (Lumezanu, Bhola, Astley — ICDCS 2006).
//!
//! The problem: an overlay of broker nodes disseminates message *flows* from
//! producers to *consumer classes*; both message rates and per-consumer
//! processing consume node (CPU) and link (bandwidth) resources. The system
//! maximizes `Σ n_j · U_j(r_i)` — admitted consumers times their strictly
//! concave rate utilities — subject to capacity constraints that are
//! *nonconvex* because populations multiply rates.
//!
//! # Architecture
//!
//! The crate is layered so that *what* an iteration computes, *how* it is
//! executed, and *when* the problem changes are independent concerns:
//!
//! ```text
//!        lrgp_model::Problem ── lrgp_model::ProblemDelta
//!                 │                      │ Engine::apply_delta
//!                 ▼                      ▼
//!  ┌───────────────────────────────────────────────────────────┐
//!  │ engine     Engine: owns problem + optimizer state, trace, │
//!  │            snapshots, delta application, and the          │
//!  │            LrgpConfig it runs exactly as written:         │
//!  │ plan       Parallelism × IncrementalMode × Reliability    │
//!  │            (the first two never change a bit; Reliability │
//!  │            picks rate-only or joint rate–reliability)     │
//!  └───────────────────────────┬───────────────────────────────┘
//!                              │ config + pool, every step
//!  ┌───────────────────────────▼───────────────────────────────┐
//!  │ exec       StepState: dirty-set executor, caches, scratch │
//!  │            (full recompute = the all-dirty special case)  │
//!  └──────┬──────────────────┬──────────────────┬──────────────┘
//!         │                  │                  │  pure kernels
//!  ┌──────▼──────┐   ┌───────▼──────┐   ┌───────▼──────┐
//!  │ kernel::rate│   │ kernel::     │   │ kernel::price│
//!  │ Algorithm 1 │   │ admission    │   │ Eq. 12 / 13, │
//!  │ (per flow)  │   │ Algorithm 2  │   │ aggregation  │
//!  └─────────────┘   │ (per node)   │   │ (per node /  │
//!                    └──────────────┘   │  per link)   │
//!                                       └──────────────┘
//! ```
//!
//! * [`kernel`] — the allocation-free per-element LRGP math: Lagrangian
//!   rate allocation at each flow source ([`kernel::rate`], Algorithm 1),
//!   greedy consumer admission by benefit–cost ratio
//!   ([`kernel::admission`], Algorithm 2), the node/link price updates
//!   with their flow-path aggregation ([`kernel::price`], Eqs. 8–13), and
//!   the per-flow reliability best response ([`kernel::reliability`]) used
//!   when the configuration enables joint rate–reliability allocation
//!   ([`plan::Reliability`]).
//! * [`exec`] — the one solve loop: a dirty-set executor whose work is
//!   proportional to what changed, bit-identical to a full recompute.
//! * [`plan`] — the three [`LrgpConfig`] enums that choose how a step
//!   runs: sequential or sharded over the persistent worker pool ([`pool`])
//!   ([`Parallelism`]), full-recompute or incremental ([`IncrementalMode`]),
//!   rate-only or joint rate–reliability ([`plan::Reliability`]). The first
//!   two change wall-clock time, never bits; the reliability choice
//!   changes *what* is optimized and defaults to [`plan::Reliability::Off`].
//! * [`engine`] — the synchronous driver ([`Engine`]), iteration traces
//!   ([`trace`]), snapshots ([`snapshot`]), and first-class problem deltas
//!   ([`Engine::apply_delta`]); per-node adaptive step-size control in
//!   [`gamma`]. Deployment-facing enactment policies live in
//!   [`enactment`], workload-churn scenarios in [`dynamics`], the §2.4
//!   two-stage pruning driver in [`two_stage`].
//!
//! # Quickstart
//!
//! ```
//! use lrgp::{Engine, LrgpConfig};
//! use lrgp_model::workloads;
//!
//! let problem = workloads::base_workload(); // Table 1 of the paper
//! let mut engine = Engine::new(problem, LrgpConfig::default());
//! let outcome = engine.run_until_converged(250);
//! println!(
//!     "utility {:.0} after {} iterations",
//!     outcome.utility,
//!     outcome.iterations
//! );
//! assert!(engine.allocation().is_feasible(engine.problem(), 1e-6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod enactment;
pub mod engine;
pub mod exec;
pub mod gamma;
pub mod kernel;
pub mod plan;
pub mod pool;
pub mod snapshot;
pub mod trace;
pub mod two_stage;

pub use dynamics::{run_scenario, RandomChurn, Scenario, ScenarioOutcome};
pub use enactment::{EnactmentPolicy, Enactor};
pub use engine::{Engine, LrgpConfig, RunOutcome};
pub use gamma::{GammaController, GammaMode};
pub use kernel::admission::{AdmissionPolicy, PopulationMode};
pub use kernel::price::PriceVector;
pub use plan::{IncrementalMode, Parallelism, Reliability};
pub use snapshot::EngineSnapshot;
pub use trace::Trace;
pub use two_stage::{two_stage_solve, TwoStageOutcome};
