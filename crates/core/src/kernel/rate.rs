//! Lagrangian rate allocation (Algorithm 1, Eqs. 6–9).
//!
//! Given fixed populations `n_j` and aggregated prices `P = PL_i + PB_i`,
//! each flow source maximizes the per-flow dual objective (Eq. 7):
//!
//! ```text
//! Φ(r) = Σ_{j ∈ C_i} n_j · U_j(r) − r · P       over  r ∈ [r_min, r_max]
//! ```
//!
//! `Φ` is strictly concave when at least one admitted class has a strictly
//! concave utility, so the maximizer is `r_min`, `r_max`, or the unique root
//! of `Φ'`. This module recognizes the paper's two utility families and
//! solves them in closed form, falling back to safeguarded bisection on the
//! (monotone decreasing) derivative otherwise.

use lrgp_model::{FlowId, Problem, RateBounds, Utility};
use lrgp_num::roots::bisect_decreasing;

/// Absolute tolerance on the rate produced by the numeric fallback.
const RATE_TOL: f64 = 1e-9;
/// Iteration cap for the numeric fallback.
const MAX_ITER: usize = 200;

/// The weighted utility terms `Σ_j n_j U_j(r)` of one flow's rate
/// subproblem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregateUtility {
    terms: Vec<(f64, Utility)>,
}

impl AggregateUtility {
    /// Collects the active terms (`n_j > 0`) for `flow` from `populations`
    /// (indexed by class id).
    pub fn for_flow(problem: &Problem, flow: FlowId, populations: &[f64]) -> Self {
        let mut agg = Self::default();
        agg.refill_for_flow(problem, flow, populations);
        agg
    }

    /// Clears the terms and recollects them for `flow`, reusing the existing
    /// allocation. Produces the same terms in the same order as
    /// [`Self::for_flow`]; once the buffer has grown to the flow's class
    /// count this performs no allocation, which is what the incremental
    /// engine's hot path relies on.
    pub fn refill_for_flow(&mut self, problem: &Problem, flow: FlowId, populations: &[f64]) {
        self.terms.clear();
        for &c in problem.classes_of_flow(flow) {
            let n = populations[c.index()];
            if n > 0.0 {
                self.terms.push((n, problem.class(c).utility));
            }
        }
    }

    /// Builds directly from `(population, utility)` pairs; zero-population
    /// terms are dropped.
    pub fn from_terms(terms: impl IntoIterator<Item = (f64, Utility)>) -> Self {
        Self { terms: terms.into_iter().filter(|(n, _)| *n > 0.0).collect() }
    }

    /// `true` when no class has positive population.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Σ_j n_j U_j(r)`.
    pub fn value(&self, rate: f64) -> f64 {
        self.terms.iter().map(|(n, u)| n * u.value(rate)).sum()
    }

    /// `Σ_j n_j U_j'(r)`.
    pub fn derivative(&self, rate: f64) -> f64 {
        self.terms.iter().map(|(n, u)| n * u.derivative(rate)).sum()
    }

    /// Sum of `n_j · weight_j` if every term is logarithmic, else `None`.
    fn log_mass(&self) -> Option<f64> {
        let mut s = 0.0;
        for (n, u) in &self.terms {
            match u {
                Utility::Log { weight } => s += n * weight,
                _ => return None,
            }
        }
        Some(s)
    }

    /// `(Σ n_j · weight_j, k)` if every term is a power utility with the
    /// same exponent `k`, else `None`.
    fn power_mass(&self) -> Option<(f64, f64)> {
        let mut s = 0.0;
        let mut exp = None;
        for (n, u) in &self.terms {
            match u {
                Utility::Power { weight, exponent } => {
                    match exp {
                        None => exp = Some(*exponent),
                        Some(k) if k == *exponent => {}
                        Some(_) => return None,
                    }
                    s += n * weight;
                }
                _ => return None,
            }
        }
        exp.map(|k| (s, k))
    }
}

/// Solves the flow's rate subproblem (Eq. 7): the rate in `bounds`
/// maximizing `Σ_j n_j U_j(r) − r · price`.
///
/// * When no class is admitted (`aggregate` empty) the objective reduces to
///   `−r · price`: the solver returns `r_min` for a positive price and
///   `fallback` (clamped into bounds) for a zero price, since every rate is
///   then optimal and keeping the previous rate avoids gratuitous churn.
/// * All-logarithmic classes solve in closed form: `r* = S/P − 1` with
///   `S = Σ n_j w_j`.
/// * Power-law classes sharing one exponent `k` solve in closed form:
///   `r* = (kS/P)^(1/(1−k))`.
/// * Anything else falls back to bisection on the strictly decreasing
///   derivative.
///
/// The result is always clamped into `bounds` and is finite.
///
/// # Examples
///
/// ```
/// use lrgp::kernel::rate::{solve_rate, AggregateUtility};
/// use lrgp_model::{RateBounds, Utility};
///
/// // One class: 5 consumers of 20·log(1+r); price 1. r* = 100/1 − 1 = 99.
/// let agg = AggregateUtility::from_terms([(5.0, Utility::log(20.0))]);
/// let bounds = RateBounds::new(10.0, 1000.0).unwrap();
/// let r = solve_rate(&agg, 1.0, bounds, 10.0);
/// assert!((r - 99.0).abs() < 1e-9);
/// ```
pub fn solve_rate(
    aggregate: &AggregateUtility,
    price: f64,
    bounds: RateBounds,
    fallback: f64,
) -> f64 {
    debug_assert!(price >= 0.0, "prices are projected onto [0, ∞)");
    if aggregate.is_empty() {
        return if price > 0.0 { bounds.min } else { bounds.clamp(fallback) };
    }
    if price == 0.0 {
        // Utilities are increasing; with no price pressure, max rate wins.
        return bounds.max;
    }
    if let Some(s) = aggregate.log_mass() {
        // d/dr [S·ln(1+r) − P·r] = S/(1+r) − P = 0  ⇒  r = S/P − 1.
        return bounds.clamp(s / price - 1.0);
    }
    if let Some((s, k)) = aggregate.power_mass() {
        // d/dr [S·r^k − P·r] = kS·r^(k−1) − P = 0  ⇒  r = (kS/P)^(1/(1−k)).
        return bounds.clamp((k * s / price).powf(1.0 / (1.0 - k)));
    }
    // Generic strictly-concave case: bisect the decreasing derivative.
    let phi_prime = |r: f64| aggregate.derivative(r) - price;
    match bisect_decreasing(phi_prime, bounds.min, bounds.max, RATE_TOL, MAX_ITER) {
        Ok(r) => r,
        // The derivative can only misbehave on adversarial custom utilities;
        // degrade to the safe end of the interval rather than panicking
        // inside the optimizer loop.
        Err(_) => bounds.clamp(fallback),
    }
}

/// Computes the new rate of a single flow (one per-element unit of the
/// rate-allocation phase). Pure: reads only previous-iteration state, so
/// identical inputs give bit-identical outputs.
pub fn allocate_rate_for_flow(
    problem: &Problem,
    prices: &crate::kernel::price::PriceVector,
    populations: &[f64],
    flow: FlowId,
    previous_rate: f64,
) -> f64 {
    let aggregate = AggregateUtility::for_flow(problem, flow, populations);
    let price = prices.aggregate_price(problem, flow, populations);
    solve_rate(&aggregate, price, problem.flow(flow).bounds, previous_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::price::PriceVector;
    use lrgp_model::{ProblemBuilder, RateBounds};

    fn bounds() -> RateBounds {
        RateBounds::new(10.0, 1000.0).unwrap()
    }

    #[test]
    fn log_closed_form_interior() {
        let agg = AggregateUtility::from_terms([(2.0, Utility::log(30.0)), (1.0, Utility::log(40.0))]);
        // S = 100; P = 0.5 ⇒ r = 199.
        let r = solve_rate(&agg, 0.5, bounds(), 10.0);
        assert!((r - 199.0).abs() < 1e-9);
    }

    #[test]
    fn log_closed_form_clamps_both_ends() {
        let agg = AggregateUtility::from_terms([(1.0, Utility::log(5.0))]);
        // Huge price ⇒ r_min.
        assert_eq!(solve_rate(&agg, 100.0, bounds(), 10.0), 10.0);
        // Tiny price ⇒ r_max.
        assert_eq!(solve_rate(&agg, 1e-6, bounds(), 10.0), 1000.0);
    }

    #[test]
    fn power_closed_form_matches_derivative_root() {
        let agg = AggregateUtility::from_terms([(3.0, Utility::power(10.0, 0.5))]);
        // kS = 15; P = 0.75 ⇒ r = (20)^2 = 400.
        let r = solve_rate(&agg, 0.75, bounds(), 10.0);
        assert!((r - 400.0).abs() < 1e-6);
        // Verify optimality: derivative crosses zero there.
        assert!((agg.derivative(r) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn mixed_shapes_use_bisection_and_agree_with_derivative() {
        let agg = AggregateUtility::from_terms([
            (2.0, Utility::log(30.0)),
            (1.0, Utility::power(10.0, 0.5)),
        ]);
        let price = 1.2;
        let r = solve_rate(&agg, price, bounds(), 10.0);
        assert!(r > 10.0 && r < 1000.0);
        assert!((agg.derivative(r) - price).abs() < 1e-5);
    }

    #[test]
    fn mixed_exponent_powers_use_bisection() {
        let agg = AggregateUtility::from_terms([
            (1.0, Utility::power(10.0, 0.25)),
            (1.0, Utility::power(10.0, 0.75)),
        ]);
        // Φ'(10) ≈ 4.66, Φ'(1000) ≈ 1.35, so price 2 has an interior root.
        let price = 2.0;
        let r = solve_rate(&agg, price, bounds(), 10.0);
        assert!(r > 10.0 && r < 1000.0);
        assert!((agg.derivative(r) - price).abs() < 1e-5);
    }

    #[test]
    fn empty_aggregate_with_positive_price_goes_to_min() {
        let agg = AggregateUtility::from_terms([]);
        assert_eq!(solve_rate(&agg, 2.0, bounds(), 500.0), 10.0);
    }

    #[test]
    fn empty_aggregate_with_zero_price_keeps_previous() {
        let agg = AggregateUtility::from_terms([]);
        assert_eq!(solve_rate(&agg, 0.0, bounds(), 500.0), 500.0);
        // Fallback is clamped into bounds.
        assert_eq!(solve_rate(&agg, 0.0, bounds(), 5000.0), 1000.0);
    }

    #[test]
    fn zero_price_with_consumers_goes_to_max() {
        let agg = AggregateUtility::from_terms([(1.0, Utility::log(1.0))]);
        assert_eq!(solve_rate(&agg, 0.0, bounds(), 10.0), 1000.0);
    }

    #[test]
    fn zero_population_terms_are_dropped() {
        let agg = AggregateUtility::from_terms([(0.0, Utility::log(1e9))]);
        assert!(agg.is_empty());
    }

    #[test]
    fn aggregate_value_and_derivative_sum_terms() {
        let agg = AggregateUtility::from_terms([(2.0, Utility::log(10.0)), (3.0, Utility::linear(1.0))]);
        let r = 9.0f64;
        assert!((agg.value(r) - (20.0 * 10.0f64.ln() + 27.0)).abs() < 1e-12);
        assert!((agg.derivative(r) - (20.0 / 10.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn linear_utilities_bang_bang() {
        // All-linear aggregate: derivative constant. Price below slope ⇒
        // r_max; above ⇒ r_min.
        let agg = AggregateUtility::from_terms([(2.0, Utility::linear(3.0))]); // slope 6
        assert_eq!(solve_rate(&agg, 1.0, bounds(), 10.0), 1000.0);
        assert_eq!(solve_rate(&agg, 10.0, bounds(), 10.0), 10.0);
    }

    #[test]
    fn rate_increases_when_price_decreases() {
        let agg = AggregateUtility::from_terms([(5.0, Utility::log(20.0))]);
        let r_high = solve_rate(&agg, 2.0, bounds(), 10.0);
        let r_low = solve_rate(&agg, 0.5, bounds(), 10.0);
        assert!(r_low > r_high);
    }

    #[test]
    fn allocate_rate_for_flow_spans_flows() {
        // Two flows to one node; flow 1 has twice the consumers.
        let mut b = ProblemBuilder::new();
        let src = b.add_node(1e9);
        let sink = b.add_node(1e9);
        let f0 = b.add_flow(src, bounds());
        let f1 = b.add_flow(src, bounds());
        b.set_node_cost(f0, sink, 1.0);
        b.set_node_cost(f1, sink, 1.0);
        let _c0 = b.add_class(f0, sink, 100, Utility::log(10.0), 1.0);
        let _c1 = b.add_class(f1, sink, 100, Utility::log(10.0), 1.0);
        let p = b.build().unwrap();
        let mut prices = PriceVector::zeros(&p);
        prices.set_node(lrgp_model::NodeId::new(1), 0.1);
        // n0 = 5, n1 = 10.
        let pops = [5.0, 10.0];
        let rate = |flow| allocate_rate_for_flow(&p, &prices, &pops, flow, 10.0);
        // P_i = (F + G·n_i)·p = (1 + n_i)·0.1; S_i = 10·n_i; both interior.
        let expect = |n: f64| 10.0 * n / (0.1 * (1.0 + n)) - 1.0;
        assert!((rate(f0) - expect(5.0)).abs() < 1e-9);
        assert!((rate(f1) - expect(10.0)).abs() < 1e-9);
    }
}
