//! Property-based tests of the LRGP kernels — the Lagrangian rate solver,
//! the greedy admission (Eqs. 5 and 10), the price updates (Eqs. 12–13) and
//! the §4.2 γ controller — plus hand-computed golden values for the rate
//! solver's closed forms (Eqs. 7–9).

use lrgp::kernel::admission::{allocate_consumers, benefit_cost, AdmissionPolicy, PopulationMode};
use lrgp::gamma::{GammaController, GammaMode};
use lrgp::kernel::price::{update_link_price, update_node_price_with_rule, NodePriceRule};
use lrgp::kernel::rate::{solve_rate, AggregateUtility};
use lrgp_model::{ClassId, NodeId, ProblemBuilder, RateBounds, Utility};
use proptest::prelude::*;

fn utility_strategy() -> impl Strategy<Value = Utility> {
    prop_oneof![
        (0.1f64..200.0).prop_map(Utility::log),
        (0.1f64..200.0, 0.05f64..0.95).prop_map(|(w, k)| Utility::power(w, k)),
        (0.1f64..200.0, 1.0f64..500.0).prop_map(|(w, s)| Utility::saturating(w, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The rate solver's answer maximizes Φ over the interval: no probe
    /// point beats it (up to numerical slack).
    #[test]
    fn solve_rate_is_optimal_on_probes(
        terms in proptest::collection::vec((1.0f64..1000.0, utility_strategy()), 1..5),
        price in 1e-4f64..1e3,
        lo in 0.5f64..50.0,
        width in 1.0f64..2000.0,
    ) {
        let bounds = RateBounds::new(lo, lo + width).unwrap();
        let agg = AggregateUtility::from_terms(terms);
        let phi = |r: f64| agg.value(r) - price * r;
        let r_star = solve_rate(&agg, price, bounds, lo);
        prop_assert!(bounds.contains(r_star, 1e-9));
        let best = phi(r_star);
        for k in 0..=20 {
            let probe = bounds.min + bounds.width() * k as f64 / 20.0;
            prop_assert!(
                best >= phi(probe) - 1e-6 * best.abs().max(1.0),
                "probe {probe} beats r* = {r_star}: {} > {best}",
                phi(probe)
            );
        }
    }

    /// Raising the price never raises the chosen rate (monotone demand).
    #[test]
    fn solve_rate_monotone_in_price(
        weight in 1.0f64..500.0,
        n in 1.0f64..2000.0,
        p1 in 1e-4f64..100.0,
        factor in 1.01f64..100.0,
    ) {
        let bounds = RateBounds::new(1.0, 1000.0).unwrap();
        let agg = AggregateUtility::from_terms([(n, Utility::log(weight))]);
        let r1 = solve_rate(&agg, p1, bounds, 1.0);
        let r2 = solve_rate(&agg, p1 * factor, bounds, 1.0);
        prop_assert!(r2 <= r1 + 1e-9, "price up, rate up: {r1} -> {r2}");
    }

    /// Greedy admission never violates the node budget when flow costs fit,
    /// under every mode/policy combination, and FFD admits at least as much
    /// total utility as the paper's stop-at-block greedy.
    #[test]
    fn admission_budget_and_ffd_dominance(
        specs in proptest::collection::vec(
            (1u32..500, 0.5f64..100.0, 0.5f64..40.0),
            1..6
        ),
        capacity in 1e3f64..1e6,
        rate in 1.0f64..500.0,
    ) {
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(capacity);
        let mut rates = Vec::new();
        for &(n_max, rank, g) in &specs {
            let src = b.add_node(1e12);
            let f = b.add_flow(src, RateBounds::new(0.0, 1000.0).unwrap());
            b.set_node_cost(f, sink, 0.0);
            b.add_class(f, sink, n_max, Utility::log(rank), g);
            rates.push(rate);
        }
        let p = b.build().unwrap();
        let node = NodeId::new(0);

        let mut utilities = std::collections::HashMap::new();
        for mode in [PopulationMode::Integral, PopulationMode::Fractional] {
            for policy in [AdmissionPolicy::StopAtFirstBlock, AdmissionPolicy::FirstFitDecreasing] {
                let adm = allocate_consumers(&p, node, &rates, mode, policy);
                prop_assert!(adm.used <= capacity + 1e-6, "budget violated: {}", adm.used);
                let utility: f64 = adm
                    .populations
                    .iter()
                    .map(|&(c, n)| n * p.class(c).utility.value(rate))
                    .sum();
                utilities.insert((mode, policy), utility);
                // All populations within their caps.
                for &(c, n) in &adm.populations {
                    prop_assert!(n >= 0.0 && n <= p.class(c).max_population as f64);
                    if mode == PopulationMode::Integral {
                        prop_assert_eq!(n.fract(), 0.0);
                    }
                }
            }
        }
        let stop = utilities[&(PopulationMode::Integral, AdmissionPolicy::StopAtFirstBlock)];
        let ffd = utilities[&(PopulationMode::Integral, AdmissionPolicy::FirstFitDecreasing)];
        prop_assert!(ffd >= stop - 1e-9, "FFD {ffd} must dominate stop-at-block {stop}");
        let frac = utilities[&(PopulationMode::Fractional, AdmissionPolicy::FirstFitDecreasing)];
        prop_assert!(frac >= ffd - 1e-9, "fractional FFD {frac} must dominate integral {ffd}");
    }

    /// The node benefit–cost ratio equals the max ratio over unsaturated
    /// classes reported in the admission result.
    #[test]
    fn node_bc_is_max_over_unsaturated(
        specs in proptest::collection::vec(
            (1u32..50, 0.5f64..100.0, 1.0f64..40.0),
            1..5
        ),
        capacity in 1e2f64..1e5,
    ) {
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(capacity);
        let mut rates = Vec::new();
        for &(n_max, rank, g) in &specs {
            let src = b.add_node(1e12);
            let f = b.add_flow(src, RateBounds::new(0.0, 1000.0).unwrap());
            b.set_node_cost(f, sink, 0.0);
            b.add_class(f, sink, n_max, Utility::log(rank), g);
            rates.push(100.0);
        }
        let p = b.build().unwrap();
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        let expected = adm
            .populations
            .iter()
            .filter(|&&(c, n)| n < p.class(c).max_population as f64)
            .map(|&(c, _)| benefit_cost(&p, c, 100.0))
            .fold(0.0f64, f64::max);
        prop_assert!((adm.benefit_cost - expected).abs() < 1e-12);
    }

    /// Eq. 10: under the paper's greedy (stop at first block), the admitted
    /// classes form a prefix of the benefit–cost order — whenever a class
    /// receives consumers, every *eligible* class ranked above it (higher
    /// BC, ties by class id) must be saturated at `n_j^max`.
    #[test]
    fn admission_is_prefix_of_benefit_cost_order(
        specs in proptest::collection::vec(
            (0u32..60, 0.5f64..100.0, 0.5f64..20.0),
            1..8
        ),
        capacity in 1e2f64..1e6,
        rates_seed in proptest::collection::vec(
            prop_oneof![Just(0.0f64), 1.0f64..500.0],
            8
        ),
    ) {
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(capacity);
        let mut rates = Vec::new();
        for (i, &(n_max, rank, g)) in specs.iter().enumerate() {
            let src = b.add_node(1e12);
            let f = b.add_flow(src, RateBounds::new(0.0, 1000.0).unwrap());
            b.set_node_cost(f, sink, 0.0);
            b.add_class(f, sink, n_max, Utility::log(rank), g);
            rates.push(rates_seed[i]);
        }
        let p = b.build().unwrap();
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        let admitted: std::collections::HashMap<ClassId, f64> =
            adm.populations.iter().copied().collect();
        // Recompute the engine's ordering: BC descending, class id ascending.
        let mut order: Vec<(ClassId, f64)> = p
            .classes_at_node(NodeId::new(0))
            .iter()
            .map(|&c| (c, benefit_cost(&p, c, rates[p.class(c).flow.index()])))
            .collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for (i, &(class, _)) in order.iter().enumerate() {
            if admitted[&class] > 0.0 {
                for &(earlier, _) in &order[..i] {
                    let spec = p.class(earlier);
                    let eligible = spec.max_population > 0 && rates[spec.flow.index()] > 0.0;
                    if eligible {
                        prop_assert_eq!(
                            admitted[&earlier],
                            spec.max_population as f64,
                            "class {:?} admitted while higher-BC class {:?} was unsaturated",
                            class,
                            earlier
                        );
                    }
                }
            }
        }
    }

    /// Eqs. 12–13: both price laws project onto [0, ∞) for arbitrary
    /// inputs, and stay finite.
    #[test]
    fn prices_projected_nonnegative(
        current in 0.0f64..1e4,
        bc in 0.0f64..1e4,
        used in 0.0f64..1e7,
        capacity in 1.0f64..1e7,
        gamma in 0.0f64..2.0,
    ) {
        for rule in [NodePriceRule::BenefitCost, NodePriceRule::PureGradient] {
            let next = update_node_price_with_rule(rule, current, bc, used, capacity, gamma, gamma);
            prop_assert!(next >= 0.0, "{:?} produced negative price {}", rule, next);
            prop_assert!(next.is_finite());
        }
        let link = update_link_price(current, used, capacity, gamma);
        prop_assert!(link >= 0.0, "link price negative: {link}");
    }
}

// ---------------------------------------------------------------------------
// Rate solver golden values (Eqs. 7–9): hand-computed closed-form optima.
// ---------------------------------------------------------------------------

fn golden_bounds() -> RateBounds {
    RateBounds::new(2.0, 500.0).unwrap()
}

#[test]
fn golden_log_single_class() {
    // 8 consumers of 12.5·log(1+r), price 0.25.
    // S = 8 · 12.5 = 100; r* = S/P − 1 = 100/0.25 − 1 = 399.
    let agg = AggregateUtility::from_terms([(8.0, Utility::log(12.5))]);
    let r = solve_rate(&agg, 0.25, golden_bounds(), 2.0);
    assert!((r - 399.0).abs() < 1e-9, "r = {r}");
}

#[test]
fn golden_log_mixed_weights() {
    // S = 3·6 + 2·11 = 40; P = 0.5 ⇒ r* = 80 − 1 = 79.
    let agg = AggregateUtility::from_terms([(3.0, Utility::log(6.0)), (2.0, Utility::log(11.0))]);
    let r = solve_rate(&agg, 0.5, golden_bounds(), 2.0);
    assert!((r - 79.0).abs() < 1e-9, "r = {r}");
}

#[test]
fn golden_log_clamps_at_rmin_and_rmax() {
    let agg = AggregateUtility::from_terms([(1.0, Utility::log(10.0))]);
    // P = 5 ⇒ unconstrained r* = 10/5 − 1 = 1, below r_min = 2 ⇒ clamp.
    assert_eq!(solve_rate(&agg, 5.0, golden_bounds(), 2.0), 2.0);
    // P = 0.01 ⇒ unconstrained r* = 999, above r_max = 500 ⇒ clamp.
    assert_eq!(solve_rate(&agg, 0.01, golden_bounds(), 2.0), 500.0);
}

#[test]
fn golden_power_half_exponent() {
    // 4 consumers of 5·r^0.5; S = 20, k = 0.5.
    // P = 0.2 ⇒ r* = (kS/P)^(1/(1−k)) = (0.5·20/0.2)² = 50² = 2500 ⇒ clamped.
    let agg = AggregateUtility::from_terms([(4.0, Utility::power(5.0, 0.5))]);
    assert_eq!(solve_rate(&agg, 0.2, golden_bounds(), 2.0), 500.0);
    // P = 2 ⇒ r* = (10/2)² = 25, interior.
    let r = solve_rate(&agg, 2.0, golden_bounds(), 2.0);
    assert!((r - 25.0).abs() < 1e-9, "r = {r}");
}

#[test]
fn golden_power_quarter_exponent() {
    // 1 consumer of 16·r^0.25; k = 0.25, S = 16, P = 1.
    // r* = (0.25·16)^(1/0.75) = 4^(4/3) = 2^(8/3).
    let agg = AggregateUtility::from_terms([(1.0, Utility::power(16.0, 0.25))]);
    let r = solve_rate(&agg, 1.0, golden_bounds(), 2.0);
    let expected = 2f64.powf(8.0 / 3.0);
    assert!((r - expected).abs() < 1e-9, "r = {r}, expected {expected}");
}

#[test]
fn golden_power_optimum_satisfies_first_order_condition() {
    // Interior optimum must zero the derivative of Φ(r) = S·r^k − P·r.
    // S = 21, k = 0.75, P = 5 ⇒ r* = (15.75/5)⁴ ≈ 98.5, inside [2, 500].
    let agg = AggregateUtility::from_terms([(3.0, Utility::power(7.0, 0.75))]);
    let price = 5.0;
    let r = solve_rate(&agg, price, golden_bounds(), 2.0);
    assert!(r > 2.0 && r < 500.0, "expected interior, got {r}");
    assert!((agg.derivative(r) - price).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Price update regressions (Eqs. 12–13) and γ controller (§4.2).
// ---------------------------------------------------------------------------

#[test]
fn overload_strictly_increases_node_price() {
    // Eq. 12 second branch: used > capacity with γ₂ > 0 strictly raises the
    // price, whatever the BC term says.
    for current in [0.0, 0.5, 123.4] {
        for overload in [1e-6, 10.0, 1e5] {
            let next = update_node_price_with_rule(
                NodePriceRule::BenefitCost,
                current,
                0.0, // BC is irrelevant in the overload branch
                1000.0 + overload,
                1000.0,
                0.05,
                0.05,
            );
            assert!(next > current, "overload {overload}: {current} -> {next}");
        }
    }
}

#[test]
fn overload_strictly_increases_link_price() {
    // Eq. 13: usage 1500 over capacity 1000 at γ = 0.01 adds exactly 5.
    for current in [0.0, 0.7, 42.0] {
        let next = update_link_price(current, 1500.0, 1000.0, 0.01);
        assert!((next - (current + 5.0)).abs() < 1e-12);
        assert!(next > current);
    }
}

#[test]
fn underload_moves_node_price_toward_benefit_cost() {
    // Eq. 12 first branch: p ← p + γ₁(BC − p). Exact step check with
    // distinct γ₁ and γ₂ proving the right γ is used.
    let next =
        update_node_price_with_rule(NodePriceRule::BenefitCost, 2.0, 5.0, 10.0, 100.0, 0.1, 0.9);
    assert!((next - 2.3).abs() < 1e-12, "expected 2 + 0.1·(5−2) = 2.3, got {next}");
}

#[test]
fn gamma_controller_grows_by_increment_when_quiet() {
    // §4.2: +0.001 per quiet iteration, clamped at 0.1. γ starts at the
    // ceiling, so one fluctuation first halves it to 0.05.
    let mut ctl = GammaController::new(GammaMode::Adaptive);
    ctl.observe_price(1.0); // rising: quiet, γ stays at 0.1
    ctl.observe_price(0.0); // turned around: γ halves to 0.05
    for k in 1..=60 {
        ctl.observe_price(-(k as f64)); // strictly falling: never a fluctuation
        let expected = (0.05 + 0.001 * k as f64).min(0.1);
        assert!(
            (ctl.gamma() - expected).abs() < 1e-12,
            "after {k} quiet steps expected γ {expected}, got {}",
            ctl.gamma()
        );
    }
}

#[test]
fn gamma_controller_halves_on_fluctuation_and_clamps() {
    let mut ctl = GammaController::new(GammaMode::Adaptive); // starts at the 0.1 ceiling
    ctl.observe_price(1.0); // quiet; γ stays clamped at the 0.1 ceiling
    assert!((ctl.gamma() - 0.1).abs() < 1e-12);
    let mut expected = 0.1f64;
    let mut price = 1.0;
    for _ in 0..12 {
        price = -price; // alternate: every observation fluctuates
        ctl.observe_price(price);
        expected = (expected * 0.5).max(0.001);
        assert!(
            (ctl.gamma() - expected).abs() < 1e-12,
            "expected γ {expected}, got {}",
            ctl.gamma()
        );
    }
    assert!((ctl.gamma() - 0.001).abs() < 1e-12, "γ must clamp at the paper's floor");
}

#[test]
fn fixed_gamma_ignores_observations() {
    let mut ctl = GammaController::new(GammaMode::fixed(0.07));
    for price in [1.0, -3.0, 2.5, 0.0, 9.9] {
        ctl.observe_price(price);
        assert_eq!(ctl.gamma(), 0.07);
    }
}
