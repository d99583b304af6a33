//! Enactment policies (§2.1).
//!
//! LRGP iterates continuously, but "making very frequent admission control
//! decisions may be disruptive to consumers using the system, so the
//! decisions may not be *enacted* until their values are sufficiently
//! different from the previous enacted values, or may be enacted
//! periodically". An [`Enactor`] sits between the optimizer and the data
//! plane and decides when a computed allocation actually takes effect.

use lrgp_model::Allocation;
use serde::{Deserialize, Serialize};

/// When to push a newly computed allocation to the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnactmentPolicy {
    /// Enact after every iteration (pure simulation; maximally disruptive).
    EveryIteration,
    /// Enact every `period` iterations ("say once every few minutes").
    Periodic {
        /// Number of iterations between enactments (≥ 1).
        period: usize,
    },
    /// Enact only when the allocation differs sufficiently from the last
    /// enacted one: some rate changed by more than `rate_threshold`
    /// (relative) or some population changed by at least
    /// `population_threshold` consumers.
    OnSignificantChange {
        /// Relative rate-change trigger (e.g. 0.05 = 5 %).
        rate_threshold: f64,
        /// Absolute population-change trigger, in consumers.
        population_threshold: f64,
    },
}

/// Tracks the last enacted allocation and applies an [`EnactmentPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct Enactor {
    policy: EnactmentPolicy,
    enacted: Option<Allocation>,
    iterations_since_enactment: usize,
}

impl Enactor {
    /// Creates an enactor with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if a periodic policy has period 0 or thresholds are negative.
    pub fn new(policy: EnactmentPolicy) -> Self {
        match policy {
            EnactmentPolicy::Periodic { period } => {
                assert!(period >= 1, "enactment period must be at least 1")
            }
            EnactmentPolicy::OnSignificantChange { rate_threshold, population_threshold } => {
                assert!(
                    rate_threshold >= 0.0 && population_threshold >= 0.0,
                    "enactment thresholds must be nonnegative"
                );
            }
            EnactmentPolicy::EveryIteration => {}
        }
        Self { policy, enacted: None, iterations_since_enactment: 0 }
    }

    /// Offers the allocation computed this iteration. Returns `true` if it
    /// was enacted (and is now visible via [`Enactor::enacted`]).
    ///
    /// The very first offer is always enacted — there is nothing previous to
    /// keep serving.
    pub fn offer(&mut self, allocation: &Allocation) -> bool {
        self.iterations_since_enactment += 1;
        let should = match (&self.enacted, self.policy) {
            (None, _) => true,
            (Some(_), EnactmentPolicy::EveryIteration) => true,
            (Some(_), EnactmentPolicy::Periodic { period }) => {
                self.iterations_since_enactment >= period
            }
            (
                Some(prev),
                EnactmentPolicy::OnSignificantChange { rate_threshold, population_threshold },
            ) => Self::significantly_different(
                prev,
                allocation,
                rate_threshold,
                population_threshold,
            ),
        };
        if should {
            self.enacted = Some(allocation.clone());
            self.iterations_since_enactment = 0;
        }
        should
    }

    /// The currently enacted allocation, if any offer has been accepted.
    pub fn enacted(&self) -> Option<&Allocation> {
        self.enacted.as_ref()
    }

    fn significantly_different(
        prev: &Allocation,
        next: &Allocation,
        rate_threshold: f64,
        population_threshold: f64,
    ) -> bool {
        let rate_change = prev
            .rates()
            .iter()
            .zip(next.rates())
            .any(|(&a, &b)| (b - a).abs() > rate_threshold * a.abs().max(1.0));
        if rate_change {
            return true;
        }
        prev.populations()
            .iter()
            .zip(next.populations())
            .any(|(&a, &b)| (b - a).abs() >= population_threshold.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::{workloads, FlowId};

    fn alloc() -> (lrgp_model::Problem, Allocation) {
        let p = workloads::base_workload();
        let a = Allocation::lower_bounds(&p);
        (p, a)
    }

    #[test]
    fn first_offer_always_enacts() {
        for policy in [
            EnactmentPolicy::EveryIteration,
            EnactmentPolicy::Periodic { period: 100 },
            EnactmentPolicy::OnSignificantChange { rate_threshold: 1.0, population_threshold: 1e9 },
        ] {
            let (_, a) = alloc();
            let mut e = Enactor::new(policy);
            assert!(e.enacted().is_none());
            assert!(e.offer(&a));
            assert_eq!(e.enacted(), Some(&a));
        }
    }

    #[test]
    fn every_iteration_enacts_each_time() {
        let (_, a) = alloc();
        let mut e = Enactor::new(EnactmentPolicy::EveryIteration);
        for _ in 0..5 {
            assert!(e.offer(&a));
        }
    }

    #[test]
    fn periodic_enacts_on_schedule() {
        let (_, a) = alloc();
        let mut e = Enactor::new(EnactmentPolicy::Periodic { period: 3 });
        assert!(e.offer(&a)); // first
        assert!(!e.offer(&a));
        assert!(!e.offer(&a));
        assert!(e.offer(&a)); // 3 iterations after the last enactment
    }

    #[test]
    fn significant_change_triggers_on_rates() {
        let (_, a) = alloc();
        let mut e = Enactor::new(EnactmentPolicy::OnSignificantChange {
            rate_threshold: 0.10,
            population_threshold: 1.0,
        });
        e.offer(&a);
        let mut b = a.clone();
        b.set_rate(FlowId::new(0), a.rate(FlowId::new(0)) * 1.05); // 5 % < 10 %
        assert!(!e.offer(&b));
        b.set_rate(FlowId::new(0), a.rate(FlowId::new(0)) * 1.2); // 20 % > 10 %
        assert!(e.offer(&b));
    }

    #[test]
    fn significant_change_triggers_on_populations() {
        let (_, a) = alloc();
        let mut e = Enactor::new(EnactmentPolicy::OnSignificantChange {
            rate_threshold: 10.0,
            population_threshold: 5.0,
        });
        e.offer(&a);
        let mut b = a.clone();
        b.set_population(lrgp_model::ClassId::new(0), 3.0); // < 5 consumers
        assert!(!e.offer(&b));
        b.set_population(lrgp_model::ClassId::new(0), 6.0); // ≥ 5 consumers
        assert!(e.offer(&b));
    }

    #[test]
    fn enacted_allocation_is_the_last_accepted_one() {
        let (_, a) = alloc();
        let mut e = Enactor::new(EnactmentPolicy::Periodic { period: 2 });
        e.offer(&a);
        let mut b = a.clone();
        b.set_rate(FlowId::new(1), 77.0);
        assert!(!e.offer(&b)); // rejected; enacted stays `a`
        assert_eq!(e.enacted(), Some(&a));
        assert!(e.offer(&b));
        assert_eq!(e.enacted(), Some(&b));
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn rejects_zero_period() {
        let _ = Enactor::new(EnactmentPolicy::Periodic { period: 0 });
    }
}
