//! Incrementally evaluated search state shared by the centralized
//! baselines.
//!
//! A [`SearchState`] keeps the current rates/populations together with
//! cached node usages, link usages and total utility, and applies moves in
//! `O(affected entities)` instead of recomputing the whole objective. The
//! caches are exact (they are recomputed from scratch only in tests), which
//! keeps 10⁶–10⁸-step annealing runs tractable.

use lrgp_model::{Allocation, ClassId, FlowId, Problem};

/// A candidate move in the (rates × populations) search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Move {
    /// Set flow `flow`'s rate to `rate` (already clamped by the proposer).
    SetRate {
        /// The flow whose rate changes.
        flow: FlowId,
        /// The proposed new rate.
        rate: f64,
    },
    /// Set class `class`'s population to `population` (already clamped).
    SetPopulation {
        /// The class whose population changes.
        class: ClassId,
        /// The proposed new population.
        population: f64,
    },
}

/// Mutable search state over a [`Problem`] with incremental evaluation.
#[derive(Debug, Clone)]
pub struct SearchState<'p> {
    problem: &'p Problem,
    rates: Vec<f64>,
    populations: Vec<f64>,
    node_used: Vec<f64>,
    link_used: Vec<f64>,
    utility: f64,
}

impl<'p> SearchState<'p> {
    /// Builds the state from an allocation, computing all caches.
    pub fn new(problem: &'p Problem, allocation: &Allocation) -> Self {
        let rates = allocation.rates().to_vec();
        let populations = allocation.populations().to_vec();
        let node_used =
            problem.node_ids().map(|n| allocation.node_usage(problem, n)).collect();
        let link_used =
            problem.link_ids().map(|l| allocation.link_usage(problem, l)).collect();
        let utility = allocation.total_utility(problem);
        Self { problem, rates, populations, node_used, link_used, utility }
    }

    /// Current total utility (cached).
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// Current rate of `flow`.
    pub fn rate(&self, flow: FlowId) -> f64 {
        self.rates[flow.index()]
    }

    /// Current population of `class`.
    pub fn population(&self, class: ClassId) -> f64 {
        self.populations[class.index()]
    }

    /// Snapshot as an [`Allocation`].
    pub fn to_allocation(&self) -> Allocation {
        Allocation::from_parts(self.problem, self.rates.clone(), self.populations.clone())
    }

    /// The problem this state searches over.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// Evaluates a move without applying it: returns `Some(utility_delta)`
    /// when the move keeps every touched constraint feasible, `None` when it
    /// would violate one (bound violations are the proposer's bug and are
    /// checked by `debug_assert`).
    pub fn evaluate(&self, mv: Move) -> Option<f64> {
        match mv {
            Move::SetRate { flow, rate } => {
                let bounds = self.problem.flow(flow).bounds;
                debug_assert!(bounds.contains(rate, 1e-12), "proposer must clamp rates");
                let old = self.rates[flow.index()];
                let delta_r = rate - old;
                // Node feasibility: usage changes by (F + Σ G n_j) · Δr.
                for &(node, f_cost) in self.problem.nodes_of_flow(flow) {
                    let mut per_rate = f_cost;
                    for class in self.problem.classes_of_flow_at_node(flow, node) {
                        per_rate += self.problem.class(class).consumer_cost
                            * self.populations[class.index()];
                    }
                    let next = self.node_used[node.index()] + per_rate * delta_r;
                    if next > self.problem.node(node).capacity + 1e-9 {
                        return None;
                    }
                }
                for &(link, l_cost) in self.problem.links_of_flow(flow) {
                    let next = self.link_used[link.index()] + l_cost * delta_r;
                    if next > self.problem.link(link).capacity + 1e-9 {
                        return None;
                    }
                }
                let mut delta_u = 0.0;
                for &class in self.problem.classes_of_flow(flow) {
                    let n = self.populations[class.index()];
                    if n > 0.0 {
                        let u = self.problem.class(class).utility;
                        delta_u += n * (u.value(rate) - u.value(old));
                    }
                }
                Some(delta_u)
            }
            Move::SetPopulation { class, population } => {
                let spec = self.problem.class(class);
                debug_assert!(
                    (0.0..=spec.max_population as f64 + 1e-12).contains(&population),
                    "proposer must clamp populations"
                );
                let old = self.populations[class.index()];
                let delta_n = population - old;
                let rate = self.rates[spec.flow.index()];
                let node = spec.node;
                let next =
                    self.node_used[node.index()] + spec.consumer_cost * delta_n * rate;
                if next > self.problem.node(node).capacity + 1e-9 {
                    return None;
                }
                Some(delta_n * spec.utility.value(rate))
            }
        }
    }

    /// Applies a move previously vetted by [`Self::evaluate`], updating all
    /// caches. Returns the utility delta.
    pub fn apply(&mut self, mv: Move) -> f64 {
        match mv {
            Move::SetRate { flow, rate } => {
                let old = self.rates[flow.index()];
                let delta_r = rate - old;
                for &(node, f_cost) in self.problem.nodes_of_flow(flow) {
                    let mut per_rate = f_cost;
                    for class in self.problem.classes_of_flow_at_node(flow, node) {
                        per_rate += self.problem.class(class).consumer_cost
                            * self.populations[class.index()];
                    }
                    self.node_used[node.index()] += per_rate * delta_r;
                }
                for &(link, l_cost) in self.problem.links_of_flow(flow) {
                    self.link_used[link.index()] += l_cost * delta_r;
                }
                let mut delta_u = 0.0;
                for &class in self.problem.classes_of_flow(flow) {
                    let n = self.populations[class.index()];
                    if n > 0.0 {
                        let u = self.problem.class(class).utility;
                        delta_u += n * (u.value(rate) - u.value(old));
                    }
                }
                self.rates[flow.index()] = rate;
                self.utility += delta_u;
                delta_u
            }
            Move::SetPopulation { class, population } => {
                let spec = self.problem.class(class);
                let old = self.populations[class.index()];
                let delta_n = population - old;
                let rate = self.rates[spec.flow.index()];
                self.node_used[spec.node.index()] += spec.consumer_cost * delta_n * rate;
                let delta_u = delta_n * spec.utility.value(rate);
                self.populations[class.index()] = population;
                self.utility += delta_u;
                delta_u
            }
        }
    }

    /// Recomputes every cache from scratch (testing / paranoia hook).
    /// Returns the maximum absolute cache drift found before the rebuild.
    pub fn rebuild_caches(&mut self) -> f64 {
        let alloc = self.to_allocation();
        let mut drift: f64 = 0.0;
        for node in self.problem.node_ids() {
            let exact = alloc.node_usage(self.problem, node);
            drift = drift.max((exact - self.node_used[node.index()]).abs());
            self.node_used[node.index()] = exact;
        }
        for link in self.problem.link_ids() {
            let exact = alloc.link_usage(self.problem, link);
            drift = drift.max((exact - self.link_used[link.index()]).abs());
            self.link_used[link.index()] = exact;
        }
        let exact = alloc.total_utility(self.problem);
        drift = drift.max((exact - self.utility).abs());
        self.utility = exact;
        drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::base_workload;
    use lrgp_model::RateBounds;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lower_bounds_state_matches_direct_evaluation() {
        let p = base_workload();
        let s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        assert_eq!(s.utility(), 0.0);
        assert_eq!(s.rate(FlowId::new(0)), 10.0);
        assert_eq!(s.population(ClassId::new(0)), 0.0);
    }

    #[test]
    fn population_move_evaluates_and_applies() {
        let p = base_workload();
        let mut s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        let mv = Move::SetPopulation { class: ClassId::new(18), population: 10.0 };
        let delta = s.evaluate(mv).expect("feasible");
        let expected = 10.0 * 100.0 * (11.0f64).ln(); // rank 100 at rate 10
        assert!((delta - expected).abs() < 1e-9);
        let applied = s.apply(mv);
        assert!((applied - delta).abs() < 1e-12);
        assert!((s.utility() - expected).abs() < 1e-9);
    }

    #[test]
    fn infeasible_population_move_rejected() {
        let p = base_workload();
        let mut s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        // Max out the rate first so consumers are expensive.
        s.apply(Move::SetRate { flow: FlowId::new(5), rate: 1000.0 });
        // 9e5 / (19·1000) ≈ 47 consumers fit; 100 do not.
        let mv = Move::SetPopulation { class: ClassId::new(18), population: 100.0 };
        assert_eq!(s.evaluate(mv), None);
        let ok = Move::SetPopulation { class: ClassId::new(18), population: 40.0 };
        assert!(s.evaluate(ok).is_some());
    }

    #[test]
    fn infeasible_rate_move_rejected() {
        let p = base_workload();
        let mut s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        // Fill a node with consumers at the low rate, then try to raise the
        // rate past what the node can carry.
        s.apply(Move::SetPopulation { class: ClassId::new(18), population: 1500.0 });
        // Usage at S1: 19·1500·r + flow costs; capacity 9e5 ⇒ r ≲ 31.
        let bad = Move::SetRate { flow: FlowId::new(5), rate: 100.0 };
        assert_eq!(s.evaluate(bad), None);
        let good = Move::SetRate { flow: FlowId::new(5), rate: 25.0 };
        assert!(s.evaluate(good).is_some());
    }

    #[test]
    fn random_walk_keeps_caches_exact() {
        let p = base_workload();
        let mut s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        let mut rng = StdRng::seed_from_u64(42);
        let mut applied = 0;
        for _ in 0..2000 {
            let mv = if rng.gen_bool(0.5) {
                let flow = FlowId::new(rng.gen_range(0..p.num_flows() as u32));
                let RateBounds { min, max } = p.flow(flow).bounds;
                Move::SetRate { flow, rate: rng.gen_range(min..=max) }
            } else {
                let class = ClassId::new(rng.gen_range(0..p.num_classes() as u32));
                let max = p.class(class).max_population as f64;
                Move::SetPopulation { class, population: rng.gen_range(0.0..=max).floor() }
            };
            if s.evaluate(mv).is_some() {
                s.apply(mv);
                applied += 1;
            }
        }
        assert!(applied > 100, "walk too constrained: {applied}");
        let drift = s.clone().rebuild_caches();
        assert!(drift < 1e-6, "cache drift {drift}");
        // And the final state is genuinely feasible.
        assert!(s.to_allocation().is_feasible(&p, 1e-6));
    }

    #[test]
    fn evaluate_does_not_mutate() {
        let p = base_workload();
        let s = SearchState::new(&p, &Allocation::lower_bounds(&p));
        let before = s.to_allocation();
        let _ = s.evaluate(Move::SetPopulation { class: ClassId::new(0), population: 5.0 });
        assert_eq!(s.to_allocation(), before);
        assert_eq!(s.utility(), 0.0);
    }
}
