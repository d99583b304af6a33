//! Fuzzing the engine on raw problems at valid extremes. Every weight,
//! cost, capacity and rate bound is drawn from magnitudes between 1e-300
//! and 1e300. On each instance that `ProblemBuilder::build` accepts and
//! whose lower-bound allocation is feasible, the all-dirty engine and the
//! incremental engine must step in bitwise lockstep, never panic, and
//! never publish a NaN rate, population, price or utility.
//!
//! Convergence is not asserted, and feasibility only where the engine
//! claims it: some valid instances end overloaded (a usage of ∞ against a
//! capacity of 1e-300, say), and the generator is not narrowed to hide
//! them, but a converged verdict must come with a feasible allocation.

use lrgp::{Engine, IncrementalMode, LrgpConfig};
use lrgp_model::{Allocation, NodeId, Problem, ProblemBuilder, RateBounds, Utility};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MAGNITUDES: [f64; 9] = [1e-300, 1e-100, 1e-10, 1e-3, 1.0, 19.0, 1e3, 1e10, 1e300];

/// Valid instances per run; CI runs the release build, which affords more.
const CASES: usize = if cfg!(debug_assertions) { 500 } else { 2_000 };

/// Steps per instance.
const STEPS: usize = 80;

fn magnitude(rng: &mut StdRng) -> f64 {
    MAGNITUDES[rng.gen_range(0..MAGNITUDES.len())]
}

fn utility(rng: &mut StdRng) -> Utility {
    let weight = magnitude(rng);
    match rng.gen_range(0..4) {
        0 => Utility::Log { weight },
        1 => Utility::Power { weight, exponent: [0.25, 0.5, 0.75][rng.gen_range(0..3usize)] },
        2 => Utility::Linear { weight },
        _ => Utility::Saturating { weight, scale: magnitude(rng) },
    }
}

/// 1–3 nodes, at most one link, 1–3 flows and 1–2 classes per flow. Each
/// flow reaches its classes' nodes and, by a coin toss, each other node and
/// the link. Rate bounds are built directly, so `min > max` happens.
fn instance(rng: &mut StdRng) -> ProblemBuilder {
    let mut b = ProblemBuilder::new();
    let nodes: Vec<NodeId> =
        (0..rng.gen_range(1..=3)).map(|_| b.add_node(magnitude(rng))).collect();
    let link = rng.gen_bool(0.5).then(|| b.add_link(magnitude(rng)));
    for _ in 0..rng.gen_range(1..=3) {
        let source = nodes[rng.gen_range(0..nodes.len())];
        let flow = b.add_flow(source, RateBounds { min: magnitude(rng), max: magnitude(rng) });
        for &node in &nodes {
            if rng.gen_bool(0.5) {
                b.set_node_cost(flow, node, magnitude(rng));
            }
        }
        if let Some(link) = link.filter(|_| rng.gen_bool(0.5)) {
            b.set_link_cost(flow, link, magnitude(rng));
        }
        for _ in 0..rng.gen_range(1..=2) {
            let node = nodes[rng.gen_range(0..nodes.len())];
            b.set_node_cost(flow, node, magnitude(rng));
            b.add_class(flow, node, rng.gen_range(0..=20), utility(rng), magnitude(rng));
        }
    }
    b
}

/// Every bit of an engine's rates, populations and prices.
fn state(e: &Engine) -> Vec<f64> {
    let a = e.allocation();
    let prices = e.prices();
    let values = a.rates().iter().chain(a.populations()).chain(prices.node_prices());
    values.chain(prices.link_prices()).copied().collect()
}

/// Steps an `Off` and an `On` engine in lockstep.
fn check(problem: &Problem) -> Result<(), String> {
    let reference = LrgpConfig { incremental: IncrementalMode::Off, ..LrgpConfig::default() };
    let candidate = LrgpConfig { incremental: IncrementalMode::On, ..reference };
    let mut reference = Engine::new(problem.clone(), reference);
    let mut candidate = Engine::new(problem.clone(), candidate);
    for k in 1..=STEPS {
        let (a, b) = (reference.step(), candidate.step());
        if a.to_bits() != b.to_bits() {
            return Err(format!("utility diverged at step {k}: {a:?} vs {b:?}"));
        }
        if a.is_nan() {
            return Err(format!("utility is NaN at step {k}"));
        }
    }
    let (a, b) = (state(&reference), state(&candidate));
    if a.iter().map(|x| x.to_bits()).ne(b.iter().map(|x| x.to_bits())) {
        return Err(format!("state diverged: {a:?} vs {b:?}"));
    }
    if a.iter().any(|x| x.is_nan()) {
        return Err(format!("NaN in the state: {a:?}"));
    }
    // Checked from the allocation, independently of the usages the
    // executor caches for the verdict.
    if let Some(k) = reference.run_until_converged(200).converged_at {
        let (problem, allocation) = (reference.problem(), reference.allocation());
        let nodes = problem
            .node_ids()
            .map(|node| (allocation.node_usage(problem, node), problem.node(node).capacity));
        let links = problem
            .link_ids()
            .map(|link| (allocation.link_usage(problem, link), problem.link(link).capacity));
        let overloaded = |&(u, c): &(f64, f64)| u.is_nan() || u > c * (1.0 + 1e-6);
        if let Some((usage, capacity)) = nodes.chain(links).find(overloaded) {
            return Err(format!("converged at {k} with a usage of {usage:?} over {capacity:?}"));
        }
    }
    Ok(())
}

#[test]
fn engines_agree_bitwise_on_valid_extremes() {
    let (mut refused, mut infeasible, mut kept) = (0, 0, 0);
    let mut draw = 0u64;
    while kept < CASES {
        assert!(draw < 20 * CASES as u64, "only {kept} of {draw} draws were kept");
        let mut rng = StdRng::seed_from_u64(draw);
        draw += 1;
        let Ok(problem) = instance(&mut rng).build() else {
            refused += 1;
            continue;
        };
        if !Allocation::lower_bounds(&problem).is_feasible(&problem, 0.0) {
            infeasible += 1;
            continue;
        }
        kept += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| check(&problem)))
            .unwrap_or_else(|_| Err("the engine panicked".to_string()));
        if let Err(e) = outcome {
            panic!("draw {}: {e}\n{problem:?}", draw - 1);
        }
    }
    // Guards the generator: both filters must refuse a share of the draws,
    // or a corner of it is never reached.
    assert!(refused * 10 >= draw, "build refused only {refused} of {draw} draws");
    assert!(infeasible * 10 >= draw, "only {infeasible} of {draw} draws were infeasible");
}
