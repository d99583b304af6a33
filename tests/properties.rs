//! Property-based tests over randomized workloads: the optimizer must
//! uphold its invariants on *any* structurally valid problem, not just the
//! paper's.

use lrgp::{Engine, GammaMode, LrgpConfig};
use lrgp_anneal::{anneal, AnnealConfig, Move, SearchState};
use lrgp_model::workloads::RandomWorkload;
use lrgp_model::{Allocation, ClassId, FlowId, UtilityShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload_strategy() -> impl Strategy<Value = (RandomWorkload, u64)> {
    (
        1usize..5,          // flows
        1usize..4,          // consumer nodes
        1usize..4,          // classes per flow
        prop_oneof![
            Just(UtilityShape::Log),
            Just(UtilityShape::Pow25),
            Just(UtilityShape::Pow50),
            Just(UtilityShape::Pow75),
        ],
        1e4..1e7f64,        // node capacity
        any::<u64>(),       // seed
    )
        .prop_map(|(flows, nodes, classes, shape, capacity, seed)| {
            (
                RandomWorkload {
                    flows,
                    consumer_nodes: nodes,
                    classes_per_flow: classes,
                    shape,
                    node_capacity: capacity,
                    ..RandomWorkload::default()
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every iteration of LRGP yields a feasible allocation with in-bound
    /// rates and populations, for any random workload and γ mode.
    #[test]
    fn lrgp_iterations_always_feasible((cfg, seed) in workload_strategy(), fixed in proptest::bool::ANY) {
        let problem = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let gamma = if fixed { GammaMode::fixed(0.1) } else { GammaMode::adaptive() };
        let mut engine = Engine::new(problem.clone(), LrgpConfig { gamma, ..LrgpConfig::default() });
        for _ in 0..40 {
            engine.step();
            let a = engine.allocation();
            let report = a.check_feasibility(&problem, 1e-6);
            prop_assert!(report.is_feasible(), "iteration {}: {report}", engine.iteration());
            for f in problem.flow_ids() {
                prop_assert!(problem.flow(f).bounds.contains(a.rate(f), 1e-9));
            }
            for c in problem.class_ids() {
                let n = a.population(c);
                prop_assert!(n >= 0.0 && n <= problem.class(c).max_population as f64);
                prop_assert_eq!(n.fract(), 0.0, "integral mode must stay integral");
            }
        }
    }

    /// Utility is monotone in node capacity: doubling every capacity never
    /// reduces the converged utility (more resources, superset of feasible
    /// allocations). On both problems a convergence verdict comes with a
    /// feasible allocation.
    #[test]
    fn utility_monotone_in_capacity((cfg, seed) in workload_strategy()) {
        let small = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let big_cfg = RandomWorkload { node_capacity: cfg.node_capacity * 2.0, ..cfg };
        let big = big_cfg.generate(&mut StdRng::seed_from_u64(seed));
        let run = |p: &lrgp_model::Problem| -> Result<f64, TestCaseError> {
            let mut e = Engine::new(p.clone(), LrgpConfig::default());
            let outcome = e.run_until_converged(300);
            // Converged ⇒ feasible: a verdict's allocation fits every
            // capacity.
            if let Some(k) = outcome.converged_at {
                let a = e.allocation();
                for node in p.node_ids() {
                    let (usage, capacity) = (a.node_usage(p, node), p.node(node).capacity);
                    prop_assert!(usage <= capacity * (1.0 + 1e-6), "{node} at {usage} / {capacity} after a verdict at {k}");
                }
                for link in p.link_ids() {
                    let (usage, capacity) = (a.link_usage(p, link), p.link(link).capacity);
                    prop_assert!(usage <= capacity * (1.0 + 1e-6), "{link} at {usage} / {capacity} after a verdict at {k}");
                }
            }
            Ok(outcome.utility)
        };
        let u_small = run(&small)?;
        let u_big = run(&big)?;
        // Allow tiny slack: the heuristic need not be exactly monotone, but
        // a regression beyond 2 % signals a real bug.
        prop_assert!(u_big >= u_small * 0.98, "2x capacity: {u_small} -> {u_big}");
    }

    /// The annealing baseline returns a feasible, integral allocation no
    /// worse than its feasible starting point.
    #[test]
    fn sa_outcome_feasible_and_non_negative((cfg, seed) in workload_strategy()) {
        let problem = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let out = anneal(&problem, &AnnealConfig::paper(10.0, 30_000, seed));
        prop_assert!(out.best.is_feasible(&problem, 1e-6));
        prop_assert!(out.best.populations_are_integral());
        prop_assert!(out.best_utility >= 0.0);
        prop_assert!((out.best.total_utility(&problem) - out.best_utility).abs() < 1e-6);
    }

    /// The incremental search state's caches agree with a from-scratch
    /// recomputation after an arbitrary accepted-move walk.
    #[test]
    fn search_state_caches_exact((cfg, seed) in workload_strategy()) {
        let problem = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let mut state = SearchState::new(&problem, &Allocation::lower_bounds(&problem));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        for _ in 0..300 {
            let mv = if rng.gen_bool(0.5) && problem.num_flows() > 0 {
                let flow = FlowId::new(rng.gen_range(0..problem.num_flows() as u32));
                let b = problem.flow(flow).bounds;
                Move::SetRate { flow, rate: rng.gen_range(b.min..=b.max) }
            } else {
                let class = ClassId::new(rng.gen_range(0..problem.num_classes() as u32));
                let max = problem.class(class).max_population as f64;
                Move::SetPopulation { class, population: rng.gen_range(0.0..=max).floor() }
            };
            if state.evaluate(mv).is_some() {
                state.apply(mv);
            }
        }
        let drift = state.clone().rebuild_caches();
        prop_assert!(drift < 1e-5, "cache drift {drift}");
        prop_assert!(state.to_allocation().is_feasible(&problem, 1e-5));
    }

    /// Total utility evaluation is linear in populations: scaling every
    /// population by k scales utility by k (rates fixed).
    #[test]
    fn utility_linear_in_populations((cfg, seed) in workload_strategy(), k in 1u32..5) {
        let problem = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let mut base = Allocation::lower_bounds(&problem);
        let mut rng = StdRng::seed_from_u64(seed);
        for c in problem.class_ids() {
            let max = problem.class(c).max_population / k.max(1);
            if max > 0 {
                base.set_population(c, rng.gen_range(0..=max) as f64);
            }
        }
        let mut scaled = base.clone();
        for c in problem.class_ids() {
            scaled.set_population(c, base.population(c) * k as f64);
        }
        let u1 = base.total_utility(&problem);
        let uk = scaled.total_utility(&problem);
        prop_assert!((uk - k as f64 * u1).abs() <= 1e-9 * uk.abs().max(1.0));
    }
}
