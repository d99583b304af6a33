//! Allocation analysis: utility breakdowns, resource utilization, and
//! fairness metrics.
//!
//! The paper reports a single number (total utility), but operators of a
//! real event infrastructure also ask *who* gets the utility, *which*
//! brokers are saturated, and *how even* the service is across consumer
//! classes. This module answers those questions for any
//! ([`Problem`], [`Allocation`]) pair; the experiment binaries and
//! examples use it for their reports.

use crate::allocation::Allocation;
use crate::ids::{ClassId, FlowId, NodeId};
use crate::problem::Problem;
use serde::{Deserialize, Serialize};

/// Per-class slice of an allocation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// The class.
    pub class: ClassId,
    /// Flow the class consumes.
    pub flow: FlowId,
    /// Node the class attaches to.
    pub node: NodeId,
    /// Admitted population.
    pub admitted: f64,
    /// Demanded population `n_j^max`.
    pub demanded: u32,
    /// `admitted / demanded` (1.0 when demand is zero).
    pub admission_ratio: f64,
    /// `n_j · U_j(r_i)` — this class's contribution to the objective.
    pub utility: f64,
    /// Node resource consumed by this class (`G_{b,j} n_j r_i`).
    pub resource: f64,
}

/// Per-node slice of an allocation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Resource in use (left-hand side of constraint (5)).
    pub used: f64,
    /// Node capacity `c_b`.
    pub capacity: f64,
    /// `used / capacity`.
    pub utilization: f64,
    /// Total admitted consumers across the node's classes.
    pub admitted_consumers: f64,
}

/// A full breakdown of one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationReport {
    /// Total utility (objective (1)).
    pub total_utility: f64,
    /// Total admitted consumers.
    pub total_admitted: f64,
    /// Total demanded consumers.
    pub total_demanded: u64,
    /// Per-class breakdown, in class-id order.
    pub classes: Vec<ClassReport>,
    /// Per-node breakdown, in node-id order.
    pub nodes: Vec<NodeReport>,
    /// Jain fairness index over per-class *per-consumer realized utility*
    /// (`U_j(r_i)` weighted by admission); 1.0 = perfectly even.
    pub jain_admission_fairness: f64,
    /// Fraction of total utility captured by the top 10 % of classes by
    /// utility (a concentration measure).
    pub top_decile_utility_share: f64,
}

impl AllocationReport {
    /// Builds the report.
    pub fn new(problem: &Problem, allocation: &Allocation) -> Self {
        let mut classes = Vec::with_capacity(problem.num_classes());
        for class in problem.class_ids() {
            let spec = problem.class(class);
            let n = allocation.population(class);
            let r = allocation.rate(spec.flow);
            let utility = if n > 0.0 { n * spec.utility.value(r) } else { 0.0 };
            classes.push(ClassReport {
                class,
                flow: spec.flow,
                node: spec.node,
                admitted: n,
                demanded: spec.max_population,
                admission_ratio: if spec.max_population == 0 {
                    1.0
                } else {
                    n / spec.max_population as f64
                },
                utility,
                resource: spec.consumer_cost * n * r,
            });
        }
        let nodes = problem
            .node_ids()
            .map(|node| {
                let used = allocation.node_usage(problem, node);
                let capacity = problem.node(node).capacity;
                NodeReport {
                    node,
                    used,
                    capacity,
                    utilization: used / capacity,
                    admitted_consumers: problem
                        .classes_at_node(node)
                        .iter()
                        .map(|&c| allocation.population(c))
                        .sum(),
                }
            })
            .collect();

        let total_utility = allocation.total_utility(problem);
        let total_admitted = classes.iter().map(|c| c.admitted).sum();
        let ratios: Vec<f64> = classes.iter().map(|c| c.admission_ratio).collect();
        let jain = jain_index(&ratios);

        let mut utilities: Vec<f64> = classes.iter().map(|c| c.utility).collect();
        utilities.sort_by(|a, b| b.total_cmp(a));
        let top = utilities.len().div_ceil(10);
        let top_sum: f64 = utilities.iter().take(top).sum();
        let top_decile_utility_share =
            if total_utility > 0.0 { top_sum / total_utility } else { 0.0 };

        Self {
            total_utility,
            total_admitted,
            total_demanded: problem.total_demand(),
            classes,
            nodes,
            jain_admission_fairness: jain,
            top_decile_utility_share,
        }
    }

    /// Nodes with utilization of at least `threshold` (e.g. 0.95 for
    /// "saturated").
    pub fn saturated_nodes(&self, threshold: f64) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.utilization >= threshold)
            .map(|n| n.node)
            .collect()
    }

    /// Classes that were fully shut out (positive demand, zero admission).
    pub fn starved_classes(&self) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| c.demanded > 0 && c.admitted == 0.0)
            .map(|c| c.class)
            .collect()
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 when all equal, `1/n`
/// when one value dominates. Returns 1.0 for empty or all-zero input
/// (vacuously fair).
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq_sum: f64 = values.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ProblemBuilder, RateBounds};
    use crate::utility::Utility;
    use crate::workloads::base_workload;

    fn small() -> (Problem, Allocation) {
        let mut b = ProblemBuilder::new();
        let src = b.add_node(1e9);
        let sink = b.add_node(1e4);
        let f = b.add_flow(src, RateBounds::new(10.0, 100.0).unwrap());
        b.set_node_cost(f, sink, 1.0);
        b.add_class(f, sink, 10, Utility::log(10.0), 2.0);
        b.add_class(f, sink, 20, Utility::log(5.0), 2.0);
        let p = b.build().unwrap();
        let mut a = Allocation::lower_bounds(&p);
        a.set_rate(FlowId::new(0), 50.0);
        a.set_population(ClassId::new(0), 10.0);
        a.set_population(ClassId::new(1), 5.0);
        (p, a)
    }

    #[test]
    fn report_totals_match_direct_evaluation() {
        let (p, a) = small();
        let r = AllocationReport::new(&p, &a);
        assert!((r.total_utility - a.total_utility(&p)).abs() < 1e-9);
        assert_eq!(r.total_admitted, 15.0);
        assert_eq!(r.total_demanded, 30);
        let class_sum: f64 = r.classes.iter().map(|c| c.utility).sum();
        assert!((class_sum - r.total_utility).abs() < 1e-9);
    }

    #[test]
    fn class_report_fields() {
        let (p, a) = small();
        let r = AllocationReport::new(&p, &a);
        let c0 = &r.classes[0];
        assert_eq!(c0.admitted, 10.0);
        assert_eq!(c0.demanded, 10);
        assert_eq!(c0.admission_ratio, 1.0);
        assert!((c0.resource - 2.0 * 10.0 * 50.0).abs() < 1e-9);
        let c1 = &r.classes[1];
        assert_eq!(c1.admission_ratio, 0.25);
    }

    #[test]
    fn node_report_utilization() {
        let (p, a) = small();
        let r = AllocationReport::new(&p, &a);
        let sink = &r.nodes[1];
        let expected_used = 1.0 * 50.0 + 2.0 * 15.0 * 50.0;
        assert!((sink.used - expected_used).abs() < 1e-9);
        assert!((sink.utilization - expected_used / 1e4).abs() < 1e-12);
        assert_eq!(sink.admitted_consumers, 15.0);
        // Source node idle.
        assert_eq!(r.nodes[0].used, 0.0);
    }

    #[test]
    fn saturated_and_starved_detection() {
        let (p, mut a) = small();
        a.set_population(ClassId::new(1), 0.0);
        let r = AllocationReport::new(&p, &a);
        assert_eq!(r.starved_classes(), vec![ClassId::new(1)]);
        assert!(r.saturated_nodes(0.95).is_empty());
        // Crank the rate to saturate the sink.
        a.set_rate(FlowId::new(0), 100.0);
        a.set_population(ClassId::new(0), 10.0);
        a.set_population(ClassId::new(1), 20.0);
        let r = AllocationReport::new(&p, &a);
        // used = 100 + 2·30·100 = 6100; still below 1e4 → tune threshold.
        assert_eq!(r.saturated_nodes(0.5), vec![NodeId::new(1)]);
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One dominant value among n: index → 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mixed case.
        let j = jain_index(&[1.0, 2.0, 3.0]);
        assert!(j > 0.5 && j < 1.0);
    }

    #[test]
    fn fairness_metrics_tolerate_nan_deterministically() {
        // A NaN input yields a NaN index, whatever position it sits at.
        assert!(jain_index(&[f64::NAN, 1.0]).is_nan());
        assert!(jain_index(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn report_on_paper_workload_is_consistent() {
        let p = base_workload();
        let a = Allocation::upper_bounds(&p);
        let r = AllocationReport::new(&p, &a);
        assert_eq!(r.classes.len(), 20);
        assert_eq!(r.nodes.len(), 9);
        assert_eq!(r.total_demanded, 22_800);
        assert_eq!(r.total_admitted, 22_800.0);
        assert!((r.jain_admission_fairness - 1.0).abs() < 1e-12); // all fully admitted
        assert!(!r.saturated_nodes(1.0).is_empty()); // upper bounds overload
    }

    #[test]
    fn top_decile_share_bounds() {
        let (p, a) = small();
        let r = AllocationReport::new(&p, &a);
        assert!(r.top_decile_utility_share > 0.0 && r.top_decile_utility_share <= 1.0);
    }
}
