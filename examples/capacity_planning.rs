//! Capacity planning with the analysis toolkit: how much broker capacity
//! does the Table 1 workload actually need?
//!
//! Sweeps a uniform scale factor over every node capacity, optimizes each
//! variant, and reports utility, admission fairness and saturation — then
//! saves the chosen configuration as a versioned JSON workload file.
//!
//! Run with `cargo run --example capacity_planning`.

use lrgp::{Engine, LrgpConfig};
use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::base_workload;
use lrgp_model::{AllocationReport, ProblemDelta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("scale | utility | admitted | Jain fairness | saturated nodes | starved classes");
    println!("------|---------|----------|---------------|-----------------|----------------");

    let base = base_workload();
    let mut chosen = None;
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        // Scale every node capacity, in one batched delta.
        let scaled = base.node_ids().fold(ProblemDelta::new(), |delta, node| {
            delta.set_node_capacity(node, base.node(node).capacity * scale)
        });
        let problem = scaled.apply(&base)?;
        let mut engine = Engine::new(problem.clone(), LrgpConfig::default());
        engine.run_until_converged(400);
        let report = AllocationReport::new(engine.problem(), &engine.allocation());
        println!(
            "{scale:>5} | {:>7.0} | {:>5.0}/{} | {:>13.3} | {:>15} | {:>15}",
            report.total_utility,
            report.total_admitted,
            report.total_demanded,
            report.jain_admission_fairness,
            report.saturated_nodes(0.95).len(),
            report.starved_classes().len(),
        );
        // "Plan": the smallest scale admitting at least half the demand.
        if chosen.is_none() && report.total_admitted * 2.0 >= report.total_demanded as f64 {
            chosen = Some((scale, problem, engine.allocation()));
        }
    }

    if let Some((scale, problem, allocation)) = chosen {
        let path = std::env::temp_dir().join("lrgp_capacity_plan.json");
        ProblemFile::new(
            format!("Table 1 workload at {scale}x capacity (≥50% demand admitted)"),
            problem,
        )
        .with_allocation(allocation)
        .save(&path)?;
        println!("\nplanned configuration ({scale}x) saved to {}", path.display());
        // Round-trip sanity.
        let loaded = ProblemFile::load(&path)?;
        assert!(loaded.allocation.is_some());
        println!("reloaded OK: {}", loaded.description);
    } else {
        println!("\nno sweep point admitted at least half the demand");
    }
    Ok(())
}
