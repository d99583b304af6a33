//! The per-flow reliability best-response for joint rate–reliability
//! allocation (after Lee, Chiang, Calderbank, "Jointly optimal congestion
//! and contention control").
//!
//! When a [`lrgp_model::ReliabilitySpec`] is attached to the problem and the
//! plan selects [`crate::plan::Reliability::Joint`], each flow carries a
//! delivery-reliability variable `ρ_i ∈ [ρ_min, ρ_max] ⊆ (0, 1]` alongside
//! its rate. The flow's utility gains a concave reliability term
//!
//! ```text
//! V_i(ρ_i) = mass_i · ln(ρ_i),     mass_i = Σ_j n_j · w_j
//! ```
//!
//! (the same weighted population mass the log-rate solve uses), and pushing
//! reliability above the link's native delivery rate costs redundant
//! transmissions: the flow's usage of link `l` inflates by
//! `redundancy · loss_l · ρ_i`. Differentiating the Lagrangian in `ρ_i`
//! gives a closed-form best-response against the current link prices,
//! exactly mirroring the all-logarithmic closed form of
//! [`crate::kernel::rate::solve_rate`]:
//!
//! ```text
//! ρ_i* = clamp( mass_i / price_i ),
//! price_i = redundancy · r_i · Σ_l L_{l,i} · loss_l · λ_l
//! ```
//!
//! The coupling with the rate solve is handled by alternating best-response:
//! the rate kernel is untouched, and the two variables interact only through
//! the link prices (inflated usage raises `λ_l`, which lowers both `r` and
//! `ρ` on the next sweep). Like every kernel, the solve is a pure,
//! allocation-free function of its borrowed inputs, and it folds its terms
//! left to right for bitwise reproducibility.

use lrgp_model::{FlowId, PriceTermTable, RhoBounds};

/// Weighted population mass `Σ_j n_j · w_j` of a flow's utility terms as a
/// strict left fold, plus whether any class has positive population.
///
/// # Panics
///
/// Panics if a term's class index is out of range for `populations`.
pub fn rho_mass(terms: &[(u32, f64)], populations: &[f64]) -> (f64, bool) {
    let mut mass = 0.0;
    let mut active = false;
    for &(class, weight) in terms {
        let n = populations[class as usize];
        if n > 0.0 {
            active = true;
        }
        mass += weight * n;
    }
    (mass, active)
}

/// The reliability price `redundancy · rate · Σ_l (L_{l,i} · loss_l) · λ_l`
/// of a flow against the current link prices, as a strict left fold over the
/// flow's loss-weighted link terms ([`PriceTermTable::rho_link_terms`]).
///
/// Returns `0.0` for problems without a reliability spec (the term row is
/// empty), so callers never need to special-case the lossless problem.
///
/// # Panics
///
/// Panics if a term's link index is out of range for `link_prices`.
pub fn rho_price_from_table(
    table: &PriceTermTable,
    flow: FlowId,
    rate: f64,
    redundancy: f64,
    link_prices: &[f64],
) -> f64 {
    let mut sum = 0.0;
    for &(link, weight) in table.rho_link_terms(flow) {
        sum += weight * link_prices[link as usize];
    }
    redundancy * rate * sum
}

/// Closed-form reliability best-response `ρ* = clamp(mass / price)` for the
/// logarithmic reliability utility `mass · ln(ρ)`.
///
/// Branch structure mirrors [`crate::kernel::rate::solve_rate`]: with
/// no active consumers the flow retreats to `bounds.min` under a positive
/// price and pins to the clamped `fallback` otherwise, and a zero price with
/// consumers saturates at `bounds.max` (extra delivery is free). Strictly
/// decreasing in `price` on the interior, and always within `bounds` by
/// construction.
pub fn solve_rho(mass: f64, active: bool, price: f64, bounds: RhoBounds, fallback: f64) -> f64 {
    debug_assert!(price >= 0.0, "prices are projected onto [0, ∞)");
    if !active {
        return if price > 0.0 { bounds.min } else { bounds.clamp(fallback) };
    }
    if price == 0.0 {
        return bounds.max;
    }
    bounds.clamp(mass / price)
}

/// Full per-flow reliability solve: strict mass fold, strict price fold,
/// then the closed form. Pure and allocation-free; this is the executor's
/// per-flow unit of ρ work.
///
/// # Panics
///
/// Panics if a term's class or link index is out of range for `populations`
/// or `link_prices`.
#[allow(clippy::too_many_arguments)]
pub fn solve_flow_rho(
    table: &PriceTermTable,
    flow: FlowId,
    link_prices: &[f64],
    populations: &[f64],
    rate: f64,
    bounds: RhoBounds,
    redundancy: f64,
    previous_rho: f64,
) -> f64 {
    let (mass, active) = rho_mass(table.utility_terms(flow), populations);
    let price = rho_price_from_table(table, flow, rate, redundancy, link_prices);
    solve_rho(mass, active, price, bounds, previous_rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads;
    use proptest::prelude::*;

    fn bounds() -> RhoBounds {
        RhoBounds::new(0.5, 0.999).unwrap()
    }

    #[test]
    fn solve_rho_mirrors_log_rate_branches() {
        let b = bounds();
        // Inactive flow: positive price retreats to min, zero price holds the
        // clamped fallback.
        assert_eq!(solve_rho(0.0, false, 2.0, b, 0.9).to_bits(), b.min.to_bits());
        assert_eq!(solve_rho(0.0, false, 0.0, b, 0.9).to_bits(), 0.9f64.to_bits());
        assert_eq!(solve_rho(0.0, false, 0.0, b, 2.0).to_bits(), b.max.to_bits());
        // Active flow at zero price saturates.
        assert_eq!(solve_rho(3.0, true, 0.0, b, 0.5).to_bits(), b.max.to_bits());
        // Interior solution is the exact quotient.
        let rho = solve_rho(3.0, true, 4.0, b, 0.5);
        assert_eq!(rho.to_bits(), (3.0f64 / 4.0).to_bits());
        // Expensive price clamps at the floor.
        assert_eq!(solve_rho(1.0, true, 100.0, b, 0.5).to_bits(), b.min.to_bits());
    }

    #[test]
    fn rho_mass_folds_left_and_flags_idle_flows() {
        let terms: Vec<(u32, f64)> = vec![(0, 1.5), (2, 2.0), (1, 0.25)];
        let populations = [3.0, 0.0, 7.0];
        let (mass, active) = rho_mass(&terms, &populations);
        // The idle class adds +0.0, which leaves a positive sum's bits alone.
        let expected: f64 = 1.5 * 3.0 + 2.0 * 7.0;
        assert_eq!(mass.to_bits(), expected.to_bits());
        assert!(active);
        let (idle_mass, idle) = rho_mass(&terms, &[0.0, 0.0, 0.0]);
        assert_eq!(idle_mass.to_bits(), 0.0f64.to_bits());
        assert!(!idle);
    }

    #[test]
    fn rho_price_weights_terms_by_loss_and_redundancy() {
        let problem = workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let table = PriceTermTable::new(&problem);
        let flow = problem.flow_ids().next().unwrap();
        let link_prices = vec![2.0; problem.num_links()];
        let sum: f64 = table
            .rho_link_terms(flow)
            .iter()
            .map(|&(l, w)| w * link_prices[l as usize])
            .sum();
        let expected = 1.5 * 3.0 * sum;
        let price = rho_price_from_table(&table, flow, 3.0, 1.5, &link_prices);
        assert_eq!(price.to_bits(), expected.to_bits());
        assert!(price > 0.0, "lossy bottleneck must charge for reliability");
    }

    #[test]
    fn rho_price_is_zero_without_a_spec() {
        let problem = workloads::link_bottleneck_workload(500.0);
        let table = PriceTermTable::new(&problem);
        let flow = problem.flow_ids().next().unwrap();
        let link_prices = vec![5.0; problem.num_links()];
        assert_eq!(rho_price_from_table(&table, flow, 3.0, 1.0, &link_prices), 0.0);
    }

    proptest! {
        /// The best-response always lands inside the flow's ρ bounds.
        #[test]
        fn solve_rho_stays_in_bounds(
            mass in 0.0f64..1e6,
            price in 0.0f64..1e6,
            active in proptest::bool::ANY,
            (min, max) in (1e-3f64..1.0).prop_flat_map(|min| (Just(min), min..=1.0)),
            fallback in -1.0f64..2.0,
        ) {
            let b = RhoBounds::new(min, max).unwrap();
            let rho = solve_rho(mass, active, price, b, fallback);
            prop_assert!(b.contains(rho, 0.0), "ρ = {rho} outside [{min}, {max}]");
        }

        /// A costlier link price never buys more reliability: the response is
        /// monotone non-increasing in the price.
        #[test]
        fn solve_rho_is_monotone_in_price(
            mass in 0.0f64..1e6,
            lo in 0.0f64..1e6,
            bump in 0.0f64..1e6,
            fallback in 0.0f64..1.5,
        ) {
            let b = bounds();
            let cheap = solve_rho(mass, true, lo, b, fallback);
            let dear = solve_rho(mass, true, lo + bump, b, fallback);
            prop_assert!(dear <= cheap, "ρ({}) = {dear} > ρ({lo}) = {cheap}", lo + bump);
        }
    }
}
