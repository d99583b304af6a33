//! Serde round-trip properties for every serializable model type: a
//! workload saved and reloaded must be *exactly* the problem it was.

use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::{
    base_workload, base_workload_with_shape, link_bottleneck_workload,
    lossy_link_bottleneck_workload, mixed_loss_workload, paper_workload, RandomWorkload,
    Table2Workload,
};
use lrgp_model::{Allocation, Problem, Utility, UtilityShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random problems survive a JSON round trip bit-for-bit.
    #[test]
    fn random_problem_round_trips(
        flows in 1usize..5,
        nodes in 1usize..4,
        classes in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = RandomWorkload {
            flows,
            consumer_nodes: nodes,
            classes_per_flow: classes,
            ..RandomWorkload::default()
        };
        let problem = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let file = ProblemFile::new("prop", problem.clone());
        let back = ProblemFile::from_json(&file.to_json().unwrap()).unwrap();
        prop_assert_eq!(back.problem, problem);
    }

    /// Allocations round-trip alongside their problem.
    #[test]
    fn allocation_round_trips(seed in any::<u64>()) {
        let problem = RandomWorkload::default().generate(&mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let mut alloc = Allocation::lower_bounds(&problem);
        for f in problem.flow_ids() {
            let b = problem.flow(f).bounds;
            alloc.set_rate(f, rng.gen_range(b.min..=b.max));
        }
        for c in problem.class_ids() {
            let max = problem.class(c).max_population;
            alloc.set_population(c, rng.gen_range(0..=max) as f64);
        }
        let file = ProblemFile::new("alloc", problem).with_allocation(alloc.clone());
        let back = ProblemFile::from_json(&file.to_json().unwrap()).unwrap();
        prop_assert_eq!(back.allocation, Some(alloc));
    }

    /// Utility values survive serialization (no float munging).
    #[test]
    fn utility_enum_round_trips(weight in 0.001f64..1e6, exponent in 0.01f64..0.99) {
        for u in [
            Utility::log(weight),
            Utility::power(weight, exponent),
            Utility::linear(weight),
            Utility::saturating(weight, 42.0),
        ] {
            let json = serde_json::to_string(&u).unwrap();
            let back: Utility = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, u);
        }
    }
}

/// Every generator's problem reloads Debug-equal, so a float whose sign
/// or last bit changed on the way shows up.
#[test]
fn every_workload_generator_round_trips() {
    let mut problems: Vec<(String, Problem)> = Vec::new();
    for shape in UtilityShape::ALL {
        for (sys, cn) in [(1, 1), (2, 1), (1, 2)] {
            problems.push((format!("{shape} {sys}x{cn}"), paper_workload(shape, sys, cn)));
        }
        problems.push((format!("base {shape}"), base_workload_with_shape(shape)));
    }
    problems.push(("base".into(), base_workload()));
    for row in Table2Workload::ALL {
        problems.push((row.label().into(), row.build()));
    }
    let random = RandomWorkload::default().generate(&mut StdRng::seed_from_u64(7));
    problems.push(("random".into(), random));
    problems.push(("link bottleneck".into(), link_bottleneck_workload(100.0)));
    problems.push(("lossy bottleneck".into(), lossy_link_bottleneck_workload(500.0, 0.1)));
    problems.push(("mixed loss".into(), mixed_loss_workload(4, 500.0, 11)));
    for (label, p) in problems {
        let file = ProblemFile::new(label.clone(), p.clone());
        let back = ProblemFile::from_json(&file.to_json().unwrap()).unwrap();
        assert_eq!(format!("{:?}", back.problem), format!("{p:?}"), "{label}");
    }
}
