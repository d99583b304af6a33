//! How a step runs, separated from what it computes.
//!
//! The kernel layer ([`crate::kernel`]) defines *what* one LRGP iteration
//! computes. This module declares the three [`LrgpConfig`] fields that say
//! *how* the engine executes it:
//!
//! * [`Parallelism`] — whether each phase shards its work over the engine's
//!   persistent worker pool ([`crate::pool`]), and over how many workers;
//! * [`IncrementalMode`] — whether the step recomputes everything or only
//!   the dirty subset tracked by the executor ([`crate::exec`]);
//! * [`Reliability`] — whether the step also solves each flow's
//!   delivery-reliability variable ρ against the link prices
//!   ([`crate::kernel::reliability`]) or runs the classic rate-only
//!   pipeline.
//!
//! The engine reads them from its configuration on every step; nothing is
//! derived from them at construction except the size of the worker pool.
//!
//! The first two choices preserve bit-identical results, so they are purely
//! a performance choice: every parallelism × incrementality combination
//! produces the same `f64::to_bits` trace as the sequential
//! full-recompute reference (enforced by `tests/differential.rs`).
//! [`Reliability`] is the one choice that changes *what* is optimized rather
//! than how fast: [`Reliability::Off`] (the default) takes the classic
//! rate-only code path byte for byte, while [`Reliability::Joint`] adds
//! the ρ phase — within `Joint`, all parallelism × incrementality
//! combinations are still bit-identical to each other.
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
//! # How the choices compose
//!
//! The executor shards the *dirty* element lists instead of the full id
//! ranges, resolving its worker count with [`Parallelism::workers_for`] on
//! the dirty count — a step with three dirty flows uses at most three
//! contexts, whatever `Threads(n)` asks for. Under [`IncrementalMode::Off`]
//! the engine marks everything dirty before each step (recomputing a
//! bitwise-unchanged input yields the bitwise-same output, so full
//! recompute is the all-dirty special case of the same executor).
//!
//! [`LrgpConfig`]: crate::LrgpConfig

use serde::{Deserialize, Serialize};

/// How the engine executes the phases of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded reference execution (the default).
    #[default]
    Sequential,
    /// Shard each phase over exactly this many execution contexts — the
    /// calling thread plus `n − 1` pooled workers (values are clamped to at
    /// least 1 and at most one context per element). The engine sizes its
    /// pool for the problem's largest dimension, at construction and again
    /// when a delta grows the problem, so a count beyond it spawns no idle
    /// workers.
    Threads(usize),
}

impl Parallelism {
    /// Resolves the execution-context count (caller + pooled workers) for a
    /// phase of `units` independent elements. A result of 1 means the
    /// sequential path.
    pub fn workers_for(self, units: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, units.max(1)),
        }
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
    /// `true` when the step solves ρ jointly with the rate.
    pub fn joint(self) -> bool {
        matches!(self, Reliability::Joint)
    }
}

/// Whether the step recomputes everything or only the dirty subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IncrementalMode {
    /// Recompute everything each step (the reference behaviour; the
    /// engine marks all elements dirty before each step).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LrgpConfig;

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
    fn parallelism_serde_round_trip() {
        for p in [Parallelism::Sequential, Parallelism::Threads(6)] {
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
    fn reliability_defaults_to_off_in_old_and_new_configs() {
        assert_eq!(Reliability::default(), Reliability::Off);
        assert!(!Reliability::Off.joint());
        assert!(Reliability::Joint.joint());
        // Configs written before the reliability field lack the key and
        // load as Off.
        let json = serde_json::to_string(&LrgpConfig::default()).unwrap();
        let legacy = json.replacen(r#","reliability":"Off""#, "", 1);
        assert_ne!(legacy, json, "the config must carry the key");
        let back: LrgpConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.reliability, Reliability::Off);
    }
}
