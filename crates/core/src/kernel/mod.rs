//! The LRGP kernel layer: pure, allocation-free building blocks.
//!
//! Every function in this layer is a deterministic function of its borrowed
//! inputs — no interior state, no allocation on the hot path (callers pass
//! scratch buffers where one is needed), no ambient configuration. The
//! engine's execution plans ([`crate::plan`]) decide *which* elements to
//! evaluate (all of them, or only the dirty ones); the kernels decide
//! *what* each evaluation computes:
//!
//! * [`rate`] — the Lagrangian rate solve per flow (Algorithm 1): closed
//!   forms for log/power utilities against an aggregated price, bisection
//!   fallback for mixtures.
//! * [`admission`] — greedy consumer admission per node (Algorithm 2) by
//!   benefit–cost ratio, in a strict total order so any execution schedule
//!   reproduces the same populations bit-for-bit.
//! * [`price`] — the node (Eq. 12) and link (Eq. 13) price updates plus the
//!   [`price::PriceVector`] state and its `PL_i`/`PB_i` aggregation (Eq.
//!   8/9), in both direct and precomputed term-table forms that are
//!   documented and tested bit-identical.
//! * [`reliability`] — the per-flow delivery-reliability best-response for
//!   the joint rate–reliability extension ([`crate::plan::Reliability`]):
//!   closed-form ρ solve against loss-weighted link prices.
//!
//! There is one implementation of each kernel. Every reduction folds its
//! terms left to right in a fixed element order, never in lanes, so
//! recomputing an element whose inputs are bitwise-unchanged returns
//! the bitwise-same output — the property the incremental plan relies on to
//! skip clean elements.

pub mod admission;
pub mod price;
pub mod rate;
pub mod reliability;
