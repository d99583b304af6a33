//! Optimality validation on tiny instances where exhaustive enumeration is
//! the ground truth — the oracle the paper could not run on its full
//! workloads (§4.4).

use lrgp::{Engine, LrgpConfig, PopulationMode};
use lrgp_anneal::{anneal, exhaustive_search, exhaustive_search_exact_rates, AnnealConfig};
use lrgp_model::{Problem, ProblemBuilder, RateBounds, Utility};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random instances per run; the release build affords more.
const CASES: usize = if cfg!(debug_assertions) { 20 } else { 200 };

/// One flow, one node, two classes competing for a tight budget.
fn tiny_two_class() -> Problem {
    let mut b = ProblemBuilder::new();
    let src = b.add_node(1e12);
    let sink = b.add_node(2_000.0);
    let f = b.add_flow(src, RateBounds::new(5.0, 50.0).unwrap());
    b.set_node_cost(f, sink, 2.0);
    b.add_class(f, sink, 6, Utility::log(10.0), 8.0);
    b.add_class(f, sink, 10, Utility::log(3.0), 4.0);
    b.build().unwrap()
}

/// Two flows sharing one node.
fn tiny_two_flow() -> Problem {
    let mut b = ProblemBuilder::new();
    let s0 = b.add_node(1e12);
    let s1 = b.add_node(1e12);
    let sink = b.add_node(3_000.0);
    let f0 = b.add_flow(s0, RateBounds::new(5.0, 60.0).unwrap());
    let f1 = b.add_flow(s1, RateBounds::new(5.0, 60.0).unwrap());
    b.set_node_cost(f0, sink, 1.0);
    b.set_node_cost(f1, sink, 1.0);
    b.add_class(f0, sink, 8, Utility::log(12.0), 6.0);
    b.add_class(f1, sink, 8, Utility::log(5.0), 6.0);
    b.build().unwrap()
}

/// The true global optimum: populations enumerated exhaustively, rates
/// solved exactly per population vector (convex subproblem).
fn exhaustive_optimum(p: &Problem) -> f64 {
    exhaustive_search_exact_rates(p, 50_000_000).expect("tiny instance").best_utility
}

#[test]
fn lrgp_within_a_few_percent_of_exhaustive_on_tiny_two_class() {
    let p = tiny_two_class();
    let optimum = exhaustive_optimum(&p);
    let mut e = Engine::new(p.clone(), LrgpConfig::default());
    let out = e.run_until_converged(2_000);
    assert!(out.utility <= optimum * (1.0 + 1e-9), "LRGP cannot exceed the optimum");
    assert!(
        out.utility >= 0.93 * optimum,
        "LRGP {} vs exhaustive optimum {optimum}",
        out.utility
    );
    assert!(e.allocation().is_feasible(&p, 1e-6));
}

#[test]
fn lrgp_within_a_few_percent_of_exhaustive_on_tiny_two_flow() {
    let p = tiny_two_flow();
    let optimum = exhaustive_optimum(&p);
    let mut e = Engine::new(p.clone(), LrgpConfig::default());
    let out = e.run_until_converged(2_000);
    assert!(out.utility <= optimum * (1.0 + 1e-9));
    assert!(
        out.utility >= 0.93 * optimum,
        "LRGP {} vs exhaustive optimum {optimum}",
        out.utility
    );
}

/// One consumer node of capacity c ∈ [500, 3500], reached by 1–3 flows
/// from a source that charges nothing, so the exact oracle applies. Each
/// flow has rate bounds within [1, 100], F ∈ [0, 3] at the node and 1–2
/// classes there: `n_max` 1–7, G ∈ [2, 12], a log or r^0.75 utility of
/// weight 1–30.
fn random_single_node(rng: &mut StdRng) -> Problem {
    let mut b = ProblemBuilder::new();
    let src = b.add_node(1e12);
    let sink = b.add_node(rng.gen_range(500.0..3500.0));
    for _ in 0..rng.gen_range(1..=3) {
        let bounds = RateBounds::new(rng.gen_range(1.0..10.0), rng.gen_range(20.0..100.0));
        let f = b.add_flow(src, bounds.unwrap());
        b.set_node_cost(f, sink, rng.gen_range(0.0..3.0));
        for _ in 0..rng.gen_range(1..=2) {
            let weight = rng.gen_range(1.0..30.0);
            let utility =
                if rng.gen_bool(0.5) { Utility::log(weight) } else { Utility::power(weight, 0.75) };
            b.add_class(f, sink, rng.gen_range(1..=7), utility, rng.gen_range(2.0..12.0));
        }
    }
    b.build().unwrap()
}

#[test]
fn lrgp_never_beats_the_exact_optimum_on_random_single_node_instances() {
    // Only what must hold: the final allocation is feasible and no better
    // than the optimum. How far below it LRGP ends is reported, not
    // asserted (`-- --nocapture` prints the distribution).
    let mut rng = StdRng::seed_from_u64(2006);
    let mut gaps = Vec::with_capacity(CASES);
    for draw in 0..CASES {
        let p = random_single_node(&mut rng);
        let optimum = exhaustive_optimum(&p);
        let mut e = Engine::new(p.clone(), LrgpConfig::default());
        e.run_until_converged(3_000);
        let report = e.allocation().check_feasibility(&p, 1e-6);
        assert!(report.is_feasible(), "draw {draw}: {report}\n{p:?}");
        let utility = e.total_utility();
        assert!(
            utility <= optimum * (1.0 + 1e-9),
            "draw {draw}: LRGP {utility} above the optimum {optimum}\n{p:?}"
        );
        gaps.push(1.0 - utility / optimum);
    }
    gaps.sort_by(f64::total_cmp);
    let below = |gap: f64| gaps.iter().filter(|&&g| g >= gap).count();
    eprintln!(
        "{CASES} instances: LRGP >= 1% below the optimum in {}, >= 10% below in {}, \
         median gap {:.4}, worst {:.4}",
        below(0.01),
        below(0.10),
        gaps[CASES / 2],
        gaps[CASES - 1]
    );
}

#[test]
fn sa_approaches_exhaustive_on_tiny_instances() {
    for p in [tiny_two_class(), tiny_two_flow()] {
        let optimum = exhaustive_optimum(&p);
        let sa = anneal(&p, &AnnealConfig::paper(10.0, 500_000, 3));
        assert!(sa.best_utility <= optimum * (1.0 + 1e-9));
        assert!(
            sa.best_utility >= 0.95 * optimum,
            "SA {} vs exhaustive optimum {optimum}",
            sa.best_utility
        );
    }
}

#[test]
fn fractional_relaxation_dominates_integral_greedy() {
    // On the same dynamics, fractional admission can only add utility at
    // each node step, so the converged utility should not be (meaningfully)
    // lower.
    let p = tiny_two_class();
    let integral = {
        let mut e = Engine::new(p.clone(), LrgpConfig::default());
        e.run_until_converged(2_000).utility
    };
    let fractional = {
        let cfg = LrgpConfig {
            population_mode: PopulationMode::Fractional,
            ..LrgpConfig::default()
        };
        let mut e = Engine::new(p.clone(), cfg);
        e.run_until_converged(2_000).utility
    };
    assert!(
        fractional >= integral * 0.999,
        "fractional {fractional} vs integral {integral}"
    );
}

#[test]
fn exhaustive_oracle_agrees_with_itself_on_grid_refinement() {
    // Refining the rate grid can only improve (or keep) the optimum.
    let p = tiny_two_class();
    let coarse = exhaustive_search(&p, 7, 50_000_000).unwrap().best_utility;
    let fine = exhaustive_search(&p, 31, 50_000_000).unwrap().best_utility;
    assert!(fine >= coarse - 1e-9);
}
