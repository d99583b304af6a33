//! Link-bottleneck pricing sanity experiment.
//!
//! The paper's workloads have no link bottlenecks (§4.1, footnote 3: link
//! pricing for rate control follows Low–Lapsley). This experiment builds
//! the complementary case: two flows share a single link whose capacity is
//! the only binding constraint. With log utilities the optimum is weighted
//! proportional fairness — rates split in proportion to `n_j · rank_j` —
//! which LRGP's Eq. 13 link pricing should find.

use lrgp::{Engine, GammaMode, LrgpConfig};
use lrgp_bench::{Args, Table};
use lrgp_model::workloads::link_bottleneck_workload;
use lrgp_model::{FlowId, LinkId};

fn main() {
    let args = Args::parse();
    let capacity = 100.0;
    let problem = link_bottleneck_workload(capacity);
    let config = LrgpConfig {
        // Node prices are irrelevant here; give link pricing a usable step.
        gamma: GammaMode::adaptive(),
        link_gamma: 2e-3,
        ..LrgpConfig::default()
    };
    let mut engine = Engine::new(problem.clone(), config);
    engine.run(args.iters.max(2000));
    let allocation = engine.allocation();

    let r0 = allocation.rate(FlowId::new(0));
    let r1 = allocation.rate(FlowId::new(1));
    // Weighted shares: class masses are n·rank = 10·30 vs 10·10 → 3 : 1.
    // For S·log(1+r) utilities sharing one unit-cost link of capacity C the
    // optimum satisfies (1+r_i) ∝ S_i with Σ r_i = C.
    let (s0, s1) = (300.0, 100.0);
    let expect0 = (capacity + 2.0) * s0 / (s0 + s1) - 1.0;
    let expect1 = (capacity + 2.0) * s1 / (s0 + s1) - 1.0;

    let mut table = Table::new(vec!["quantity", "LRGP", "analytic optimum"]);
    table.row(vec!["rate flow0".into(), format!("{r0:.2}"), format!("{expect0:.2}")]);
    table.row(vec!["rate flow1".into(), format!("{r1:.2}"), format!("{expect1:.2}")]);
    table.row(vec![
        "link usage".into(),
        format!("{:.2}", allocation.link_usage(&problem, LinkId::new(0))),
        format!("{capacity:.2}"),
    ]);
    table.row(vec![
        "link price".into(),
        format!("{:.4}", engine.prices().link(LinkId::new(0))),
        format!("{:.4}", (s0 + s1) / (capacity + 2.0)), // S_i/(1+r_i) at optimum
    ]);
    println!("# Link-bottleneck pricing (capacity {capacity})\n");
    println!("{}", table.to_markdown());
    table.write_csv(&args.out_path("link_pricing.csv"));
}
