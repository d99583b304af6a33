//! Integrated rate–reliability allocation vs a fixed-reliability baseline.
//!
//! Qualitative reproduction of the central claim of the joint
//! rate–reliability framework (Lee, Chiang, Calderbank, *Jointly optimal
//! congestion and contention control*): when links are lossy and redundancy
//! couples per-flow reliability ρ back into link usage, letting the
//! optimizer choose ρ weakly dominates every policy that pins ρ at its
//! ceiling — the fixed-ρ feasible set is contained in the free-ρ one, so
//! the integrated optimum can only be at least as good.
//!
//! Two baselines run per workload, both under the joint objective
//! `Σ n_j U_j(r_i) + Σ mass_i ln(ρ_i)`:
//!
//! * **fixed** — every flow's ρ bounds collapsed to `[ρ_max, ρ_max]`
//!   ("always fully reliable"), so only rates adapt;
//! * **integrated** — ρ free inside the generator bounds, so flows on
//!   lossy links can trade reliability away for rate headroom.
//!
//! Output: `results/reliability.csv` and `results/reliability.md`.

use lrgp::{Engine, LrgpConfig, Reliability};
use lrgp_bench::{Args, Table};
use lrgp_model::workloads::{
    lossy_link_bottleneck_workload, mixed_loss_workload, GENERATOR_RHO_BOUNDS,
};
use lrgp_model::{
    Problem, ProblemBuilder, ProblemDelta, RateBounds, ReliabilitySpec, RhoBounds, UtilityShape,
};

struct Run {
    utility: f64,
    mean_rho: f64,
}

fn solve_joint(problem: &Problem, iters: usize) -> Run {
    let config = LrgpConfig { reliability: Reliability::Joint, ..LrgpConfig::default() };
    let mut engine = Engine::new(problem.clone(), config);
    let outcome = engine.run_until_converged(iters);
    let rhos = engine.rhos();
    Run {
        utility: outcome.utility,
        mean_rho: rhos.iter().sum::<f64>() / rhos.len().max(1) as f64,
    }
}

/// The link-bottleneck topology with the paper's power utilities
/// (`rank · r^0.75`) instead of log ones. With log rate utilities the
/// reliability mass equals the rate mass and `1/ρ` beats the induced
/// capacity cost `k/(1+kρ)` at every ρ, so ρ rides its ceiling; with
/// power utilities the rate side's marginal value per unit of capacity
/// grows with `r^0.75` and overtakes the `ln ρ` gain, producing interior
/// reliability on lossy links.
fn pow_lossy_bottleneck(link_capacity: f64, loss: f64) -> Problem {
    let mut b = ProblemBuilder::new();
    let src0 = b.add_labeled_node(1e9, "src0");
    let src1 = b.add_labeled_node(1e9, "src1");
    let sink = b.add_labeled_node(1e9, "sink");
    let link = b.add_link_between(link_capacity, src0, sink);
    let bounds = RateBounds::new(1.0, 10_000.0).expect("literal bounds valid");
    let f0 = b.add_flow(src0, bounds);
    let f1 = b.add_flow(src1, bounds);
    for f in [f0, f1] {
        b.set_link_cost(f, link, 1.0);
        b.set_node_cost(f, sink, 0.001);
    }
    b.add_class(f0, sink, 10, UtilityShape::Pow75.build(30.0), 0.001);
    b.add_class(f1, sink, 10, UtilityShape::Pow75.build(10.0), 0.001);
    b.set_reliability(ReliabilitySpec::uniform(2, 1, GENERATOR_RHO_BOUNDS, loss, 1.0));
    b.build().expect("pow bottleneck workload is structurally valid")
}

/// Collapses every flow's ρ range to a point at its current ceiling.
fn pin_rho_at_max(problem: &Problem) -> Problem {
    let mut delta = ProblemDelta::new();
    for flow in problem.flow_ids() {
        let max = problem.rho_bounds(flow).map_or(1.0, |b| b.max);
        let fixed = RhoBounds::fixed(max).expect("generator ceilings are valid ρ values");
        delta = delta.set_rho_bounds(flow, fixed);
    }
    delta.apply(problem).expect("pinning ρ on a spec-carrying workload cannot fail")
}

fn main() {
    let args = Args::parse();
    let iters = args.iters.max(2000);

    let mut table = Table::new(vec![
        "workload",
        "loss",
        "utility_fixed",
        "utility_integrated",
        "advantage_pct",
        "mean_rho_integrated",
    ]);

    let mut compare = |name: &str, loss_label: String, problem: &Problem| {
        let fixed = solve_joint(&pin_rho_at_max(problem), iters);
        let integrated = solve_joint(problem, iters);
        let advantage =
            (integrated.utility - fixed.utility) / fixed.utility.abs().max(f64::MIN_POSITIVE);
        table.row(vec![
            name.into(),
            loss_label,
            format!("{:.1}", fixed.utility),
            format!("{:.1}", integrated.utility),
            format!("{:.3}", advantage * 100.0),
            format!("{:.4}", integrated.mean_rho),
        ]);
    };

    for loss in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let problem = lossy_link_bottleneck_workload(100.0, loss);
        compare("log_bottleneck", format!("{loss:.2}"), &problem);
    }
    for loss in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let problem = pow_lossy_bottleneck(100.0, loss);
        compare("pow75_bottleneck", format!("{loss:.2}"), &problem);
    }
    let mixed = mixed_loss_workload(4, 500.0, args.seed);
    compare("mixed_loss_4", "mixed".into(), &mixed);

    println!("# Integrated rate–reliability vs fixed-ρ allocation\n");
    println!("{}", table.to_markdown());
    table.write_csv(&args.out_path("reliability.csv"));

    let md = format!(
        "# Integrated rate–reliability vs fixed-ρ allocation\n\n\
         Both columns optimize the joint objective `Σ n_j U_j(r_i) + Σ mass_i ln ρ_i`\n\
         with redundancy coupling ρ into link usage; *fixed* pins every flow at\n\
         `ρ = ρ_max`, *integrated* lets ρ float inside the generator bounds.\n\
         Because the fixed-ρ feasible set is a subset of the free-ρ one, the\n\
         integrated utility is always ≥ the fixed one.\n\n\
         With **log** rate utilities the reliability mass equals the rate mass\n\
         and the marginal reliability value `1/ρ` beats the induced capacity\n\
         cost at every ρ, so the integrated optimum keeps ρ at its ceiling and\n\
         the two columns coincide — full reliability *is* optimal there. With\n\
         the paper's **power** utilities (`rank · r^0.75`) the rate side's\n\
         marginal value per unit of capacity grows with the allocated rate and\n\
         overtakes the `ln ρ` gain, so flows on lossy links trade reliability\n\
         away for rate headroom and the integrated allocation strictly wins —\n\
         the qualitative joint rate–reliability result of Lee–Chiang–Calderbank.\n\n{}",
        table.to_markdown()
    );
    std::fs::write(args.out_path("reliability.md"), md)
        .expect("cannot write reliability.md");
}
