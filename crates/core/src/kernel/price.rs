//! The price kernel: update rules (§3.3 Eq. 12, §3.4 Eq. 13) and price
//! aggregation along flow paths (Eq. 8, Eq. 9).
//!
//! LRGP coordinates distributed decisions through *prices*: one per node and
//! one per link (§3, [16, 23]). Node prices chase the node's benefit–cost
//! ratio while the node is within capacity — pricing the flow against the
//! *unadmitted* consumer demand — and grow proportionally to the overload
//! otherwise; link prices follow the Low–Lapsley gradient-projection rule.
//! Both are projected onto `[0, ∞)`.
//!
//! A flow source never sees individual prices — it receives the aggregates
//! `PL_i` (Eq. 8) and `PB_i` (Eq. 9), which fold the path's link and node
//! prices together with the flow's cost coefficients and the current
//! consumer populations.
//!
//! This module holds both the update rules and the [`PriceVector`] state
//! with its aggregation.

use lrgp_model::{FlowId, LinkId, NodeId, PriceTermTable, Problem};
use serde::{Deserialize, Serialize};

/// Which node-price law the engine applies — the paper's benefit–cost rule
/// or a pure gradient rule, kept as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NodePriceRule {
    /// Eq. 12: chase the benefit–cost ratio under capacity, grow with the
    /// overload above it. This is LRGP's contribution — the price encodes
    /// the value of *unadmitted consumers*, coupling admission to rates.
    #[default]
    BenefitCost,
    /// Low–Lapsley-style gradient on the node constraint only:
    /// `p ← [p + γ·(used − capacity)]⁺`. Ignores unadmitted demand; under
    /// capacity the price decays to zero, so rates inflate until consumers
    /// are evicted — the oscillation the benefit–cost rule exists to
    /// prevent. Used by the `node_price_ablation` bench.
    PureGradient,
}

/// Node price update under the chosen rule; see [`update_node_price`] for
/// the benefit–cost law and [`NodePriceRule::PureGradient`] for the
/// ablation.
pub fn update_node_price_with_rule(
    rule: NodePriceRule,
    current: f64,
    benefit_cost: f64,
    used: f64,
    capacity: f64,
    gamma1: f64,
    gamma2: f64,
) -> f64 {
    match rule {
        NodePriceRule::BenefitCost => {
            update_node_price(current, benefit_cost, used, capacity, gamma1, gamma2)
        }
        NodePriceRule::PureGradient => update_link_price(current, used, capacity, gamma2),
    }
}

/// Node price update (Eq. 12):
///
/// ```text
/// p(t+1) = p(t) + γ₁ · (BC(b,t) − p(t))     if used ≤ capacity
/// p(t+1) = p(t) + γ₂ · (used − capacity)    if used > capacity
/// ```
///
/// The result is projected onto `[0, ∞)`.
pub fn update_node_price(
    current: f64,
    benefit_cost: f64,
    used: f64,
    capacity: f64,
    gamma1: f64,
    gamma2: f64,
) -> f64 {
    let next = if used <= capacity {
        current + gamma1 * (benefit_cost - current)
    } else {
        current + gamma2 * (used - capacity)
    };
    next.max(0.0)
}

/// Link price update (Eq. 13, gradient projection):
///
/// ```text
/// p(t+1) = [p(t) + γ_l · (usage − capacity)]⁺
/// ```
pub fn update_link_price(current: f64, usage: f64, capacity: f64, gamma: f64) -> f64 {
    (current + gamma * (usage - capacity)).max(0.0)
}

/// The complete price state of the system: one price per node and per link.
///
/// Prices are always nonnegative; the update rules in [`update_node_price`]
/// project onto `[0, ∞)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceVector {
    node_prices: Vec<f64>,
    link_prices: Vec<f64>,
}

impl PriceVector {
    /// All-zero prices, the engine's starting point.
    pub fn zeros(problem: &Problem) -> Self {
        Self {
            node_prices: vec![0.0; problem.num_nodes()],
            link_prices: vec![0.0; problem.num_links()],
        }
    }

    /// An empty, zero-length placeholder left behind while the real vector
    /// is moved into a pooled job (see [`crate::pool`]); never read.
    pub(crate) fn detached() -> Self {
        Self { node_prices: Vec::new(), link_prices: Vec::new() }
    }

    /// Price of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, node: NodeId) -> f64 {
        self.node_prices[node.index()]
    }

    /// Price of `link`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, link: LinkId) -> f64 {
        self.link_prices[link.index()]
    }

    /// Sets the price of `node`, projecting onto `[0, ∞)`.
    pub fn set_node(&mut self, node: NodeId, price: f64) {
        self.node_prices[node.index()] = price.max(0.0);
    }

    /// Sets the price of `link`, projecting onto `[0, ∞)`.
    pub fn set_link(&mut self, link: LinkId, price: f64) {
        self.link_prices[link.index()] = price.max(0.0);
    }

    /// All node prices, indexed by node id.
    pub fn node_prices(&self) -> &[f64] {
        &self.node_prices
    }

    /// All link prices, indexed by link id.
    pub fn link_prices(&self) -> &[f64] {
        &self.link_prices
    }

    /// `PL_i` (Eq. 8): `Σ_{l ∈ L_i} L_{l,i} · p_l`.
    pub fn aggregate_link_price(&self, problem: &Problem, flow: FlowId) -> f64 {
        problem
            .links_of_flow(flow)
            .iter()
            .map(|&(link, cost)| cost * self.link_prices[link.index()])
            .sum()
    }

    /// `PB_i` (Eq. 9):
    /// `Σ_{b ∈ B_i} (F_{b,i} + Σ_{j ∈ attachMap_i(b)} G_{b,j} n_j) · p_b`,
    /// where `populations` is indexed by class id.
    ///
    /// # Panics
    ///
    /// Panics if `populations` is shorter than the number of classes.
    pub fn aggregate_node_price(
        &self,
        problem: &Problem,
        flow: FlowId,
        populations: &[f64],
    ) -> f64 {
        let mut total = 0.0;
        for &(node, f_cost) in problem.nodes_of_flow(flow) {
            let mut per_rate_cost = f_cost;
            for class in problem.classes_of_flow_at_node(flow, node) {
                let spec = problem.class(class);
                per_rate_cost += spec.consumer_cost * populations[class.index()];
            }
            total += per_rate_cost * self.node_prices[node.index()];
        }
        total
    }

    /// Total price per unit rate seen by `flow`: `PL_i + PB_i`.
    pub fn aggregate_price(&self, problem: &Problem, flow: FlowId, populations: &[f64]) -> f64 {
        self.aggregate_link_price(problem, flow)
            + self.aggregate_node_price(problem, flow, populations)
    }

    /// `PL_i` (Eq. 8) from a precomputed term table: a linear scan over the
    /// flow's contiguous link terms. Bit-identical to
    /// [`Self::aggregate_link_price`] — the table stores the same costs in
    /// the same order, so the sum performs the same additions.
    pub fn aggregate_link_price_from_table(&self, table: &PriceTermTable, flow: FlowId) -> f64 {
        table
            .link_terms(flow)
            .iter()
            .map(|&(link, cost)| cost * self.link_prices[link as usize])
            .sum()
    }

    /// `PB_i` (Eq. 9) from a precomputed term table. Bit-identical to
    /// [`Self::aggregate_node_price`]: the per-node inner sums and the outer
    /// fold run over the same terms in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `populations` is shorter than the number of classes.
    pub fn aggregate_node_price_from_table(
        &self,
        table: &PriceTermTable,
        flow: FlowId,
        populations: &[f64],
    ) -> f64 {
        let mut total = 0.0;
        for term in table.node_terms(flow) {
            let mut per_rate_cost = term.flow_cost;
            for &(class, consumer_cost) in table.class_terms(term) {
                per_rate_cost += consumer_cost * populations[class as usize];
            }
            total += per_rate_cost * self.node_prices[term.node as usize];
        }
        total
    }

    /// `PL_i + PB_i` from a precomputed term table; bit-identical to
    /// [`Self::aggregate_price`] on the problem the table was built from.
    pub fn aggregate_price_from_table(
        &self,
        table: &PriceTermTable,
        flow: FlowId,
        populations: &[f64],
    ) -> f64 {
        self.aggregate_link_price_from_table(table, flow)
            + self.aggregate_node_price_from_table(table, flow, populations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::{ProblemBuilder, RateBounds, Utility};

    /// src → link → sink; flow with L = 2, F = 3, one class with G = 19.
    fn fixture() -> Problem {
        let mut b = ProblemBuilder::new();
        let src = b.add_node(1e6);
        let sink = b.add_node(9e5);
        let l = b.add_link_between(1e4, src, sink);
        let f = b.add_flow(src, RateBounds::new(10.0, 1000.0).unwrap());
        b.set_link_cost(f, l, 2.0);
        b.set_node_cost(f, sink, 3.0);
        b.add_class(f, sink, 100, Utility::log(20.0), 19.0);
        b.build().unwrap()
    }

    #[test]
    fn zero_construction() {
        let p = fixture();
        let z = PriceVector::zeros(&p);
        assert_eq!(z.node_prices(), &[0.0, 0.0]);
        assert_eq!(z.link_prices(), &[0.0]);
    }

    #[test]
    fn setters_project_to_nonnegative() {
        let p = fixture();
        let mut v = PriceVector::zeros(&p);
        v.set_node(NodeId::new(0), -3.0);
        v.set_link(LinkId::new(0), -1.0);
        assert_eq!(v.node(NodeId::new(0)), 0.0);
        assert_eq!(v.link(LinkId::new(0)), 0.0);
        v.set_node(NodeId::new(0), 7.0);
        assert_eq!(v.node(NodeId::new(0)), 7.0);
    }

    #[test]
    fn aggregate_link_price_weights_by_cost() {
        let p = fixture();
        let mut v = PriceVector::zeros(&p);
        v.set_link(LinkId::new(0), 0.5);
        // PL = L · p_l = 2 · 0.5
        assert!((v.aggregate_link_price(&p, FlowId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_node_price_includes_population_term() {
        let p = fixture();
        let mut v = PriceVector::zeros(&p);
        v.set_node(NodeId::new(1), 2.0);
        // PB = (F + G·n) · p_b = (3 + 19·4) · 2
        let pb = v.aggregate_node_price(&p, FlowId::new(0), &[4.0]);
        assert!((pb - (3.0 + 76.0) * 2.0).abs() < 1e-12);
        // With no consumers only the flow term remains.
        let pb0 = v.aggregate_node_price(&p, FlowId::new(0), &[0.0]);
        assert!((pb0 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_price_sums_both_components() {
        let p = fixture();
        let mut v = PriceVector::zeros(&p);
        v.set_link(LinkId::new(0), 0.5);
        v.set_node(NodeId::new(1), 2.0);
        let total = v.aggregate_price(&p, FlowId::new(0), &[0.0]);
        assert!((total - (1.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn table_aggregates_match_accessor_aggregates_bitwise() {
        let p = fixture();
        let table = PriceTermTable::new(&p);
        let mut v = PriceVector::zeros(&p);
        v.set_link(LinkId::new(0), 0.371);
        v.set_node(NodeId::new(1), 2.043);
        let flow = FlowId::new(0);
        for pops in [[0.0], [4.0], [17.5]] {
            assert_eq!(
                v.aggregate_link_price(&p, flow).to_bits(),
                v.aggregate_link_price_from_table(&table, flow).to_bits()
            );
            assert_eq!(
                v.aggregate_node_price(&p, flow, &pops).to_bits(),
                v.aggregate_node_price_from_table(&table, flow, &pops).to_bits()
            );
            assert_eq!(
                v.aggregate_price(&p, flow, &pops).to_bits(),
                v.aggregate_price_from_table(&table, flow, &pops).to_bits()
            );
        }
    }

    #[test]
    fn source_node_price_does_not_leak_into_aggregate() {
        // The flow has no F cost at its source, so the source price must not
        // contribute.
        let p = fixture();
        let mut v = PriceVector::zeros(&p);
        v.set_node(NodeId::new(0), 100.0);
        assert_eq!(v.aggregate_node_price(&p, FlowId::new(0), &[0.0]), 0.0);
    }
}

#[cfg(test)]
mod rule_tests {
    use super::*;

    #[test]
    fn node_price_moves_toward_bc_under_capacity() {
        let p = update_node_price(1.0, 2.0, 50.0, 100.0, 0.1, 0.1);
        assert!((p - 1.1).abs() < 1e-12);
        let p = update_node_price(1.0, 0.5, 50.0, 100.0, 0.1, 0.1);
        assert!((p - 0.95).abs() < 1e-12);
    }

    #[test]
    fn node_price_reaches_bc_with_unit_gamma() {
        let p = update_node_price(7.0, 2.0, 50.0, 100.0, 1.0, 1.0);
        assert_eq!(p, 2.0);
    }

    #[test]
    fn node_price_grows_with_overload() {
        let p = update_node_price(1.0, 0.0, 150.0, 100.0, 0.1, 0.01);
        assert!((p - 1.5).abs() < 1e-12);
    }

    #[test]
    fn node_price_boundary_uses_bc_branch() {
        // used == capacity takes the first branch.
        let p = update_node_price(1.0, 3.0, 100.0, 100.0, 0.5, 100.0);
        assert!((p - 2.0).abs() < 1e-12);
    }

    #[test]
    fn node_price_projected_nonnegative() {
        // γ > 1 can overshoot below zero; projection clips.
        let p = update_node_price(1.0, 0.0, 50.0, 100.0, 2.0, 2.0);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn link_price_gradient_step() {
        assert!((update_link_price(1.0, 120.0, 100.0, 0.01) - 1.2).abs() < 1e-12);
        assert!((update_link_price(1.0, 80.0, 100.0, 0.01) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn link_price_projected_nonnegative() {
        assert_eq!(update_link_price(0.1, 0.0, 100.0, 0.01), 0.0);
    }

    #[test]
    fn zero_gamma_freezes_prices() {
        assert_eq!(update_node_price(1.5, 9.0, 50.0, 100.0, 0.0, 0.0), 1.5);
        assert_eq!(update_link_price(1.5, 500.0, 100.0, 0.0), 1.5);
    }

    #[test]
    fn rule_dispatch_matches_underlying_laws() {
        let bc = update_node_price_with_rule(
            NodePriceRule::BenefitCost,
            1.0,
            2.0,
            50.0,
            100.0,
            0.1,
            0.1,
        );
        assert_eq!(bc, update_node_price(1.0, 2.0, 50.0, 100.0, 0.1, 0.1));
        let grad = update_node_price_with_rule(
            NodePriceRule::PureGradient,
            1.0,
            2.0,
            50.0,
            100.0,
            0.1,
            0.1,
        );
        assert_eq!(grad, update_link_price(1.0, 50.0, 100.0, 0.1));
        assert_eq!(NodePriceRule::default(), NodePriceRule::BenefitCost);
    }

    #[test]
    fn pure_gradient_decays_under_capacity_regardless_of_demand() {
        // Huge unadmitted demand (BC = 100) is invisible to the gradient
        // rule; the price still falls.
        let p = update_node_price_with_rule(
            NodePriceRule::PureGradient,
            1.0,
            100.0,
            50.0,
            100.0,
            0.1,
            0.01,
        );
        assert!(p < 1.0);
    }
}
