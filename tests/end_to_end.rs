//! End-to-end integration tests spanning model → optimizer → baselines →
//! overlay, asserting the *shapes* the paper reports.

use lrgp::{Engine, GammaMode, LrgpConfig, Reliability};
use lrgp_anneal::{anneal, AnnealConfig};
use lrgp_model::workloads::{self, Table2Workload};
use lrgp_model::UtilityShape;

/// Paper §4.4 / Table 2: LRGP beats the best SA run on every workload.
/// (SA gets a moderate budget here to keep CI fast; the gap only widens
/// with smaller budgets.)
#[test]
fn lrgp_beats_simulated_annealing_on_all_table2_workloads() {
    for workload in Table2Workload::ALL {
        let problem = workload.build();
        let mut engine = Engine::new(problem.clone(), LrgpConfig::default());
        let lrgp = engine.run_until_converged(400);
        let sa = anneal(&problem, &AnnealConfig::paper(50.0, 2_000_000, 42));
        assert!(
            lrgp.utility > sa.best_utility,
            "{}: LRGP {} vs SA {}",
            workload.label(),
            lrgp.utility,
            sa.best_utility
        );
    }
}

/// Paper §4.3: LRGP utility grows linearly with consumer-node count and
/// with system copies.
#[test]
fn utility_scales_linearly_with_size() {
    let run = |w: Table2Workload| {
        let mut e = Engine::new(w.build(), LrgpConfig::default());
        e.run_until_converged(400).utility
    };
    let base = run(Table2Workload::Base);
    for (w, factor) in [
        (Table2Workload::Flows12Cnodes6, 2.0),
        (Table2Workload::Flows24Cnodes12, 4.0),
        (Table2Workload::Flows6Cnodes6, 2.0),
        (Table2Workload::Flows6Cnodes12, 4.0),
        (Table2Workload::Flows6Cnodes24, 8.0),
    ] {
        let u = run(w);
        let ratio = u / base;
        assert!(
            (ratio - factor).abs() / factor < 0.05,
            "{}: expected ~{factor}x base, got {ratio:.3}x",
            w.label()
        );
    }
}

/// Paper §4.3 / Table 2: iterations-until-convergence stays flat as the
/// system grows (21–24 in the paper; we assert a tight band around our
/// measured value).
#[test]
fn convergence_iterations_flat_across_scaling() {
    let iters: Vec<usize> = Table2Workload::ALL
        .iter()
        .map(|w| {
            let mut e = Engine::new(w.build(), LrgpConfig::default());
            e.run_until_converged(400).converged_at.expect("must converge")
        })
        .collect();
    let min = *iters.iter().min().unwrap();
    let max = *iters.iter().max().unwrap();
    assert!(
        max - min <= 10,
        "convergence iterations vary too much across scaling: {iters:?}"
    );
}

/// Paper §4.5 / Table 3: steeper power utilities converge more slowly than
/// r^0.25 (the paper's 23 → 28 → 39 trend for k = 0.25, 0.5, 0.75).
#[test]
fn steeper_power_utilities_converge_slower() {
    let converge = |shape: UtilityShape| {
        let mut e = Engine::new(
            workloads::base_workload_with_shape(shape),
            LrgpConfig::default(),
        );
        e.run_until_converged(600).converged_at.expect("must converge")
    };
    let k25 = converge(UtilityShape::Pow25);
    let k75 = converge(UtilityShape::Pow75);
    assert!(k25 < k75, "r^0.25 converged in {k25}, r^0.75 in {k75}");
}

/// Paper Fig. 1: undamped prices (γ = 1) leave a visibly oscillating
/// utility; damping (γ = 0.1) settles near the adaptive optimum.
#[test]
fn damping_controls_oscillation_amplitude() {
    let tail_amplitude = |gamma: GammaMode| {
        let mut e = Engine::new(workloads::base_workload(), LrgpConfig {
            gamma,
            ..LrgpConfig::default()
        });
        e.run(250);
        e.trace().utility.relative_amplitude(50).unwrap()
    };
    let undamped = tail_amplitude(GammaMode::fixed(1.0));
    let damped = tail_amplitude(GammaMode::fixed(0.1));
    assert!(undamped > 0.05, "γ=1 should oscillate, amplitude {undamped}");
    assert!(damped < 0.01, "γ=0.1 should be quiet, amplitude {damped}");
}

/// The paper's Fig. 3 dynamics, end to end: removal of the top flow drops
/// utility by roughly its classes' contribution, and the system re-settles.
#[test]
fn flow_removal_recovers_to_a_stable_feasible_state() {
    let mut e = Engine::new(workloads::base_workload(), LrgpConfig::default());
    e.run(150);
    let before = e.total_utility();
    e.apply_delta(&lrgp_model::ProblemDelta::new().remove_flow(lrgp_model::FlowId::new(5)))
        .unwrap();
    e.run(100);
    let after = e.total_utility();
    assert!(after > 0.3 * before && after < 0.7 * before, "{before} -> {after}");
    // Re-settled: quiet utility tail.
    let amp = e.trace().utility.relative_amplitude(10).unwrap();
    assert!(amp < 0.01, "post-removal amplitude {amp}");
    assert!(e.allocation().is_feasible(e.problem(), 1e-6));
}

/// "Converged" claims a feasible allocation. Eq. 13's fixed link step is
/// far too slow for a capacity-10 link: the utility trace meets the 0.1%
/// criterion by iteration ~375 while the link is ~58% over capacity, and it
/// is still overloaded at 1,000 (the lossy case counts the redundancy
/// inflation the link price sees). At capacity 1,000 the step overshoots
/// into a cycle that never meets the criterion.
#[test]
fn no_verdict_while_a_link_is_overloaded() {
    let joint = LrgpConfig { reliability: Reliability::Joint, ..LrgpConfig::default() };
    let overloaded = [
        ("link capacity 10", workloads::link_bottleneck_workload(10.0), LrgpConfig::default()),
        ("lossy link capacity 10", workloads::lossy_link_bottleneck_workload(10.0, 0.1), joint),
    ];
    for (label, problem, config) in overloaded {
        let outcome = Engine::new(problem, config).run_until_converged(1_000);
        assert_eq!(outcome.converged_at, None, "{label}: {outcome:?}");
        assert!(outcome.max_overload > 0.01, "{label}: {outcome:?}");
    }
    let cycling = workloads::link_bottleneck_workload(1000.0);
    let outcome = Engine::new(cycling, LrgpConfig::default()).run_until_converged(1_000);
    assert_eq!(outcome.converged_at, None, "link capacity 1000: {outcome:?}");
}

/// SA quality improves monotonically-ish with step budget (§4.4's
/// "backward steps" story) — sanity for the baseline harness.
#[test]
fn sa_budget_scaling_sanity() {
    let p = workloads::base_workload();
    let small = anneal(&p, &AnnealConfig::paper(100.0, 100_000, 9));
    let large = anneal(&p, &AnnealConfig::paper(100.0, 2_000_000, 9));
    assert!(
        large.best_utility > small.best_utility,
        "2e6 steps {} should beat 1e5 steps {}",
        large.best_utility,
        small.best_utility
    );
}
