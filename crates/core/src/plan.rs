//! How a step runs, separated from what it computes.
//!
//! The kernel layer ([`crate::kernel`]) defines *what* one LRGP iteration
//! computes. This module declares the two [`LrgpConfig`] fields that say
//! *how* the engine executes it:
//!
//! * [`IncrementalMode`] — whether the step recomputes everything or, by
//!   default, only the dirty subset tracked by the executor
//!   ([`crate::exec`]);
//! * [`Reliability`] — whether the step also solves each flow's
//!   delivery-reliability variable ρ against the link prices
//!   ([`crate::kernel::reliability`]) or runs the classic rate-only
//!   pipeline.
//!
//! The engine reads them from its configuration on every step; nothing is
//! derived from them at construction.
//!
//! The incrementality choice preserves bit-identical results, so it is
//! purely a performance choice: the incremental step produces the same
//! `f64::to_bits` trace as the full-recompute reference (enforced by
//! `tests/differential.rs`). [`Reliability`] is the choice that changes
//! *what* is optimized rather than how fast: [`Reliability::Off`] (the
//! default) takes the classic rate-only code path byte for byte, while
//! [`Reliability::Joint`] also solves each dirty flow's ρ in the flow pass,
//! right after its rate — within `Joint`, both incrementality modes are
//! still bit-identical to each other.
//!
//! # Determinism guarantee
//!
//! The step runs its phases in a fixed order on the calling thread, and
//! every per-element kernel ([`crate::kernel::rate::solve_rate`],
//! [`crate::kernel::admission::allocate_consumers`],
//! [`crate::kernel::price::update_node_price_with_rule`],
//! [`crate::kernel::price::update_link_price`]) is a pure function of the
//! *previous* iteration's published state. Every floating-point
//! *summation* (per-flow aggregate prices, per-link usage, total utility)
//! runs in one fixed element order, so a full recompute and an incremental
//! step form the same sums.
//!
//! # How the choices compose
//!
//! Under [`IncrementalMode::Off`] the engine marks everything dirty before
//! each step: recomputing a bitwise-unchanged input yields the
//! bitwise-same output, so full recompute is the all-dirty special case of
//! the same executor.
//!
//! [`LrgpConfig`]: crate::LrgpConfig

use serde::{Deserialize, Serialize};

/// Whether the step solves the per-flow delivery-reliability variable
/// jointly with the rate.
///
/// [`Reliability::Off`] is the default and leaves the engine's trace
/// bitwise-identical to the pre-reliability pipeline — no ρ is solved,
/// link usage is the plain `Σ cost · r` fold, and total
/// utility carries no reliability term (enforced by the differential
/// harness). [`Reliability::Joint`] activates the
/// [`crate::kernel::reliability`] best-response for problems that carry a
/// [`lrgp_model::ReliabilitySpec`]: each step re-solves dirty flows' ρ
/// against the current link prices and the rate just solved, link usage inflates by
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
///
/// [`IncrementalMode::On`] is the default: it yields the same bits as the
/// full recompute and skips the work whose inputs did not change.
/// [`IncrementalMode::Off`] stays as the all-dirty reference that the
/// differential tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IncrementalMode {
    /// Recompute everything each step (the reference behaviour; the
    /// engine marks all elements dirty before each step).
    Off,
    /// Track dirty sets across steps and recompute only what changed (the
    /// default).
    #[default]
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
    fn incremental_mode_enabled_flags() {
        assert!(!IncrementalMode::Off.enabled());
        assert!(IncrementalMode::On.enabled());
        assert!(IncrementalMode::Auto.enabled());
        assert_eq!(IncrementalMode::default(), IncrementalMode::On);
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
