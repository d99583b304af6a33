//! The two-stage approximation of §2.4.
//!
//! The resource model assumes a flow is routed to *every* node hosting one
//! of its classes, even if admission later leaves all those classes empty —
//! the flow still pays `F_{b,i} r_i` there. The paper proposes solving in
//! two stages: (1) optimize with full routing, (2) prune the (flow, node)
//! branches whose classes ended up empty — "setting certain coefficients
//! `L_{l,i}`, `F_{b,i}` to 0" — and re-solve on the slimmer problem. Stage
//! two can only free resources, so its utility is at least stage one's (up
//! to heuristic noise).

use crate::engine::{Engine, LrgpConfig, RunOutcome};
use lrgp_model::{Allocation, Problem, ProblemDelta};
use serde::{Deserialize, Serialize};

/// The result of both stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoStageOutcome {
    /// Stage-one convergence report.
    pub stage1: RunOutcome,
    /// Stage-one allocation (basis for pruning).
    pub stage1_allocation: Allocation,
    /// Number of (flow, node) branches pruned.
    pub pruned_branches: usize,
    /// Stage-two convergence report, on the pruned problem.
    pub stage2: RunOutcome,
    /// Stage-two allocation.
    pub stage2_allocation: Allocation,
}

impl TwoStageOutcome {
    /// Relative utility gain of stage two over stage one.
    pub fn relative_gain(&self) -> f64 {
        if self.stage1.utility == 0.0 {
            return 0.0;
        }
        (self.stage2.utility - self.stage1.utility) / self.stage1.utility
    }
}

/// Builds the stage-two pruning delta: one zero-cost op per (flow, node)
/// branch that carries a positive `F` cost but admitted no consumers in
/// stage one (the flow's source always carries it). Its length is the
/// pruned-branch count.
fn pruning_delta(problem: &Problem, populations: &[f64]) -> ProblemDelta {
    let mut delta = ProblemDelta::new();
    for flow in problem.flow_ids() {
        let source = problem.flow(flow).source;
        for &(node, cost) in problem.nodes_of_flow(flow) {
            if node == source || cost == 0.0 {
                continue;
            }
            let any_live = problem
                .classes_of_flow(flow)
                .iter()
                .any(|&c| problem.class(c).node == node && populations[c.index()] > 0.0);
            if !any_live {
                delta = delta.set_flow_node_cost(flow, node, 0.0);
            }
        }
    }
    delta
}

/// Runs the two-stage solve: converge, prune empty branches, re-converge.
///
/// The pruning is expressed as a [`ProblemDelta`] of zero-cost ops on every
/// (flow, node) branch with a positive `F` cost whose classes all ended
/// stage one empty, the flow's source excepted. Each stage gets its own
/// fresh engine (prices restart; the pruned problem has a different cost
/// structure, so stale prices would mislead more than help).
pub fn two_stage_solve(
    problem: &Problem,
    config: LrgpConfig,
    max_iterations: usize,
) -> TwoStageOutcome {
    let mut stage1_engine = Engine::new(problem.clone(), config);
    let stage1 = stage1_engine.run_until_converged(max_iterations);
    let stage1_allocation = stage1_engine.allocation();

    let delta = pruning_delta(problem, stage1_allocation.populations());
    let pruned_branches = delta.len();
    // Every op targets an existing cost entry with a valid cost, so the
    // delta applies; were it refused, stage two would re-solve the unpruned
    // problem rather than panic in library code.
    let pruned = delta.apply(problem).unwrap_or_else(|_| problem.clone());

    let mut stage2_engine = Engine::new(pruned, config);
    let stage2 = stage2_engine.run_until_converged(max_iterations);
    let stage2_allocation = stage2_engine.allocation();

    TwoStageOutcome { stage1, stage1_allocation, pruned_branches, stage2, stage2_allocation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::base_workload;
    use lrgp_model::{ClassId, ProblemBuilder, RateBounds, Utility};

    /// Test-local reference for the stage-two pruning: zero the `F_{b,i}`
    /// coefficient of every (flow, node) pair at which *all* of the flow's
    /// classes have zero population (the source always carries the flow).
    /// It reloads the problem into a `ProblemBuilder` and rebuilds it, so it
    /// shares no code with [`pruning_delta`] or the delta path.
    fn reference_pruning(problem: &Problem, populations: &[f64]) -> Problem {
        assert_eq!(populations.len(), problem.num_classes());
        let json = serde_json::to_string(problem).expect("a problem serializes");
        let mut b: ProblemBuilder = serde_json::from_str(&json).expect("and reloads");
        for flow in problem.flow_ids() {
            let source = problem.flow(flow).source;
            for &(node, _) in problem.nodes_of_flow(flow) {
                let any_live = problem.classes_of_flow(flow).iter().any(|&c| {
                    problem.class(c).node == node && populations[c.index()] > 0.0
                });
                if node != source && !any_live {
                    b.set_node_cost(flow, node, 0.0);
                }
            }
        }
        b.build().expect("zeroing costs keeps a problem valid")
    }

    #[test]
    fn two_stage_on_base_workload_never_hurts_much() {
        let out = two_stage_solve(&base_workload(), LrgpConfig::default(), 400);
        assert!(out.stage1.utility > 0.0);
        // Pruning frees only F-costs, so the gain is small but the result
        // must not regress beyond heuristic noise.
        assert!(
            out.stage2.utility >= out.stage1.utility * 0.995,
            "stage2 {} vs stage1 {}",
            out.stage2.utility,
            out.stage1.utility
        );
    }

    #[test]
    fn pruning_pays_off_when_dead_branches_are_expensive() {
        // Flow 0 reaches a node where its only class is worthless (rank ~0)
        // but the F-cost there is huge relative to capacity; flow 1's
        // valuable class shares that node. Stage 1 wastes the node's budget
        // carrying flow 0; stage 2 prunes it.
        let mut b = ProblemBuilder::new();
        let s0 = b.add_node(1e12);
        let s1 = b.add_node(1e12);
        let shared = b.add_node(50_000.0);
        let other = b.add_node(1e12);
        let f0 = b.add_flow(s0, RateBounds::new(10.0, 1000.0).unwrap());
        let f1 = b.add_flow(s1, RateBounds::new(10.0, 1000.0).unwrap());
        // Flow 0: real consumers elsewhere, a dead expensive branch at
        // `shared`.
        b.set_node_cost(f0, other, 1.0);
        b.add_class(f0, other, 100, Utility::log(50.0), 5.0);
        b.set_node_cost(f0, shared, 40.0); // expensive pass-through
        b.add_class(f0, shared, 10, Utility::log(0.001), 45.0); // worthless
        // Flow 1: valuable consumers at the shared node.
        b.set_node_cost(f1, shared, 1.0);
        b.add_class(f1, shared, 200, Utility::log(80.0), 4.0);
        let p = b.build().unwrap();

        let out = two_stage_solve(&p, LrgpConfig::default(), 2_000);
        assert!(out.pruned_branches >= 1, "expected the dead branch pruned");
        assert!(
            out.stage2.utility >= out.stage1.utility,
            "stage2 {} vs stage1 {}",
            out.stage2.utility,
            out.stage1.utility
        );
        assert!(out.relative_gain() >= 0.0);
    }

    #[test]
    fn pruning_delta_counts_only_costly_dead_branches() {
        let p = base_workload();
        // Zero populations everywhere → every non-source branch pruned.
        let delta = pruning_delta(&p, &vec![0.0; p.num_classes()]);
        // 6 flows × 2 c-nodes each.
        assert_eq!(delta.len(), 12);
        // Applying the delta matches the reference bitwise.
        let via_delta = delta.apply(&p).unwrap();
        let via_reference = reference_pruning(&p, &vec![0.0; p.num_classes()]);
        assert_eq!(format!("{via_delta:?}"), format!("{via_reference:?}"));
        // Re-pruning the already-pruned problem finds nothing.
        assert!(pruning_delta(&via_delta, &vec![0.0; p.num_classes()]).is_empty());
        // A live class keeps its branch: class 0 (flow 0 at its first
        // consumer node) admitted someone, every other branch is dead.
        let mut live = vec![0.0; p.num_classes()];
        live[0] = 10.0;
        let delta = pruning_delta(&p, &live);
        assert_eq!(delta.len(), 11);
        let pruned = delta.apply(&p).unwrap();
        let class = p.class(ClassId::new(0));
        assert_eq!(pruned.flow_node_cost(class.node, class.flow), 3.0);
        assert_eq!(format!("{pruned:?}"), format!("{:?}", reference_pruning(&p, &live)));
    }

    #[test]
    fn delta_pruning_reproduces_the_legacy_outcome_bitwise() {
        // Regression pin: stage two built from the pruning delta must be
        // indistinguishable from the original construction (stage-one
        // engine, the reference pruning, fresh stage-two engine).
        let p = base_workload();
        let config = LrgpConfig::default();
        let out = two_stage_solve(&p, config, 400);

        let mut s1 = Engine::new(p.clone(), config);
        let stage1 = s1.run_until_converged(400);
        let alloc = s1.allocation();
        let pruned = reference_pruning(&p, alloc.populations());
        let mut s2 = Engine::new(pruned, config);
        let stage2 = s2.run_until_converged(400);

        assert_eq!(out.stage1, stage1);
        assert_eq!(out.stage1_allocation, alloc);
        assert_eq!(out.stage2.utility.to_bits(), stage2.utility.to_bits());
        assert_eq!(out.stage2, stage2);
        assert_eq!(out.stage2_allocation, s2.allocation());
    }
}
