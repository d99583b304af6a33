//! Problem model for the LRGP reproduction.
//!
//! This crate defines the *inputs* of the optimization problem from
//! "Utility Optimization for Event-Driven Distributed Infrastructures"
//! (Lumezanu, Bhola, Astley — ICDCS 2006): overlay nodes and links with
//! capacities, message flows with rate bounds and resource costs, consumer
//! classes with utilities, plus allocations and their evaluation, and the
//! paper's experimental workloads.
//!
//! # Overview
//!
//! * [`ids`] — typed identifiers ([`FlowId`], [`ClassId`], [`NodeId`],
//!   [`LinkId`]).
//! * [`utility`] — the class utility functions `U_j(r)` (log, power,
//!   saturating, linear).
//! * [`problem`] — the validated [`Problem`] specification and its
//!   [`ProblemBuilder`].
//! * [`allocation`] — [`Allocation`] (rates + populations), objective
//!   evaluation and feasibility checking.
//! * [`workloads`] — Table 1's base workload, the §4.3 scaling transforms,
//!   §4.5 utility variants, a random generator, and link-bottleneck
//!   workloads (including lossy variants for the joint rate–reliability
//!   extension).
//! * [`delta`] — [`ProblemDelta`], batched first-class problem changes.
//! * [`analysis`] — utility/utilization breakdowns and fairness metrics.
//! * [`io`] — versioned JSON save/load for problems and allocations.
//!
//! # Examples
//!
//! ```
//! use lrgp_model::{workloads, Allocation};
//!
//! let problem = workloads::base_workload();
//! let allocation = Allocation::lower_bounds(&problem);
//! assert!(allocation.is_feasible(&problem, 0.0));
//! assert_eq!(allocation.total_utility(&problem), 0.0); // nobody admitted yet
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod analysis;
pub mod delta;
pub mod ids;
pub mod io;
pub mod problem;
pub mod terms;
pub mod utility;
pub mod workloads;

pub use allocation::{Allocation, FeasibilityReport, Violation};
pub use analysis::AllocationReport;
pub use delta::{DeltaOp, ProblemDelta};
pub use ids::{ClassId, FlowId, LinkId, NodeId};
pub use problem::{
    ClassSpec, FlowSpec, LinkSpec, NodeSpec, Problem, ProblemBuilder, RateBounds, ReliabilitySpec,
    RhoBounds, ValidationError,
};
pub use terms::{NodePriceTerm, PriceTermTable};
pub use utility::{Utility, UtilityShape};
