//! Greedy consumer admission (§3.2, Eq. 10) and the node benefit–cost ratio
//! (§3.3, Eq. 11).
//!
//! Given the current flow rates, each consumer-hosting node sorts its
//! classes by benefit–cost ratio `BC_j = U_j(r_i) / (G_{b,j} · r_i)` and
//! admits consumers in that order until a class saturates (`n_j = n_j^max`)
//! or the node constraint would be violated. The paper's greedy stops at the
//! first class blocked by the constraint; the first-fit-decreasing variant
//! (which continues down the list to try cheaper classes) is available as an
//! ablation via [`AdmissionPolicy::FirstFitDecreasing`].

use lrgp_model::{ClassId, NodeId, Problem};
use serde::{Deserialize, Serialize};

/// Whether populations are whole consumers or may end in a fractional
/// consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PopulationMode {
    /// Whole consumers only (the paper's model: `n_j` increases by 1).
    #[default]
    Integral,
    /// The last admitted consumer of a class may be fractional. Useful as an
    /// analytical relaxation: it upper-bounds the integral greedy utility at
    /// the node.
    Fractional,
}

/// How the greedy proceeds when the node constraint blocks the current
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Stop allocating at this node entirely (the paper's Algorithm, §3.2).
    #[default]
    StopAtFirstBlock,
    /// Skip the blocked class and keep trying cheaper classes further down
    /// the benefit–cost order (first-fit decreasing). Never worse in
    /// admitted utility than stopping; used for the admission ablation.
    FirstFitDecreasing,
}

/// The benefit–cost ratio `BC_j` of one class at rate `rate` (Eq. 10): the
/// utility gained per unit of node resource spent when admitting one more
/// consumer.
///
/// Returns 0 for non-positive rates (a removed flow carries no benefit).
pub fn benefit_cost(problem: &Problem, class: ClassId, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    let spec = problem.class(class);
    spec.utility.value(rate) / (spec.consumer_cost * rate)
}

/// Result of running the greedy admission at one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeAdmission {
    /// Per-class populations decided at this node, in
    /// [`Problem::classes_at_node`] order.
    pub populations: Vec<(ClassId, f64)>,
    /// `used_b(t)`: node resource consumed after allocation, including the
    /// consumer-independent flow costs `F_{b,i} · r_i`.
    pub used: f64,
    /// `BC(b, t)` (Eq. 11): the highest benefit–cost ratio among classes
    /// that did not reach `n_j^max`; 0 when every class saturated (no
    /// unadmitted demand remains to price).
    pub benefit_cost: f64,
}

/// Runs the greedy consumer allocation at `node` given the rates of the
/// current iteration (`rates` is indexed by flow id).
///
/// The returned populations respect the node constraint whenever the flow
/// costs alone fit in the capacity; if they do not (`used > c_b` with all
/// `n_j = 0`), all classes stay empty and the overload is visible in
/// [`NodeAdmission::used`], which drives the price up through Eq. 12's
/// second branch.
pub fn allocate_consumers(
    problem: &Problem,
    node: NodeId,
    rates: &[f64],
    mode: PopulationMode,
    policy: AdmissionPolicy,
) -> NodeAdmission {
    let mut order: Vec<(ClassId, f64)> =
        problem.classes_at_node(node).iter().map(|&c| (c, 0.0)).collect();
    let mut populations = Vec::with_capacity(order.len());
    let (used, benefit_cost) =
        allocate_consumers_into(problem, node, rates, mode, policy, &mut order, &mut populations);
    NodeAdmission { populations, used, benefit_cost }
}

/// The greedy admission kernel of [`allocate_consumers`], writing into
/// caller-owned scratch so the engine's hot loop allocates nothing.
///
/// `order` must hold exactly the classes of `node` (any permutation; the
/// paired `f64`s are stale benefit–cost values and are overwritten).
/// `populations` is cleared and refilled. Returns `(used, benefit_cost)`.
///
/// The comparator below is a *strict total order* (`f64::total_cmp`, ties
/// broken by class id, ids unique), so the sorted result is unique no matter
/// how `order` was permuted on entry — which is what lets the incremental
/// engine keep each node's previously sorted order as the starting point
/// (`sort_by` is adaptive and near-sorted input re-sorts in linear time)
/// while staying bit-identical to a from-scratch sort.
pub fn allocate_consumers_into(
    problem: &Problem,
    node: NodeId,
    rates: &[f64],
    mode: PopulationMode,
    policy: AdmissionPolicy,
    order: &mut [(ClassId, f64)],
    populations: &mut Vec<(ClassId, f64)>,
) -> (f64, f64) {
    // Consumer-independent flow cost at this node.
    let flow_cost: f64 = problem
        .flows_at_node(node)
        .iter()
        .map(|&flow| problem.flow_node_cost(node, flow) * rates[flow.index()])
        .sum();
    let capacity = problem.node(node).capacity;

    // Classes ordered by decreasing benefit–cost ratio. Ties broken by
    // class id for determinism; `total_cmp` keeps the comparator a total
    // order even for NaN/degenerate ratios (a NaN BC — e.g. an unbounded
    // rate — must not make the sort order unspecified).
    for entry in order.iter_mut() {
        let r = rates[problem.class(entry.0).flow.index()];
        entry.1 = benefit_cost(problem, entry.0, r);
    }
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut remaining = capacity - flow_cost;
    let mut used = flow_cost;
    populations.clear();
    let mut node_bc: f64 = 0.0;
    let mut blocked = false;

    for &(class, bc) in order.iter() {
        let spec = problem.class(class);
        let rate = rates[spec.flow.index()];
        let max = spec.max_population as f64;
        if max == 0.0 || rate <= 0.0 {
            populations.push((class, 0.0));
            continue;
        }
        let per_consumer = spec.consumer_cost * rate;
        let admitted = if blocked || remaining <= 0.0 {
            0.0
        } else {
            let affordable = remaining / per_consumer;
            match mode {
                PopulationMode::Integral => affordable.floor().min(max),
                PopulationMode::Fractional => affordable.min(max),
            }
        };
        let admitted = admitted.max(0.0);
        if admitted < max {
            // This class still has unadmitted demand; it is eligible for
            // the node benefit–cost ratio (Eq. 11) ...
            node_bc = node_bc.max(bc);
            // ... and, if the capacity (not n_max) is what stopped it, the
            // paper's greedy halts the whole allocation here.
            if !blocked
                && remaining > 0.0
                && matches!(policy, AdmissionPolicy::StopAtFirstBlock)
            {
                blocked = true;
            }
            if remaining <= 0.0 {
                blocked = matches!(policy, AdmissionPolicy::StopAtFirstBlock);
            }
        }
        remaining -= admitted * per_consumer;
        used += admitted * per_consumer;
        populations.push((class, admitted));
    }

    (used, node_bc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::{ProblemBuilder, RateBounds, Utility};

    /// One node of capacity `cap`; `specs` gives (n_max, rank, G) per class;
    /// every class consumes its own flow at fixed rate 100 and F = 0 unless
    /// `f_cost` is set.
    fn one_node(cap: f64, f_cost: f64, specs: &[(u32, f64, f64)]) -> (Problem, Vec<f64>) {
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(cap);
        let mut rates = Vec::new();
        for &(n_max, rank, g) in specs {
            let src = b.add_node(1e12);
            let f = b.add_flow(src, RateBounds::new(0.0, 1000.0).unwrap());
            b.set_node_cost(f, sink, f_cost);
            b.add_class(f, sink, n_max, Utility::log(rank), g);
            rates.push(100.0);
        }
        (b.build().unwrap(), rates)
    }

    fn pops(adm: &NodeAdmission) -> Vec<f64> {
        let mut v: Vec<(ClassId, f64)> = adm.populations.clone();
        v.sort_by_key(|(c, _)| *c);
        v.into_iter().map(|(_, n)| n).collect()
    }

    #[test]
    fn benefit_cost_matches_formula() {
        let (p, _) = one_node(1e6, 0.0, &[(10, 20.0, 19.0)]);
        let bc = benefit_cost(&p, ClassId::new(0), 99.0);
        let expected = 20.0 * 100.0f64.ln() / (19.0 * 99.0);
        assert!((bc - expected).abs() < 1e-12);
        assert_eq!(benefit_cost(&p, ClassId::new(0), 0.0), 0.0);
        assert_eq!(benefit_cost(&p, ClassId::new(0), -5.0), 0.0);
    }

    #[test]
    fn greedy_admits_in_benefit_cost_order() {
        // Capacity fits 30 consumers at cost 19·100 = 1900 each.
        let cap = 30.0 * 1900.0;
        let (p, rates) = one_node(cap, 0.0, &[(20, 5.0, 19.0), (20, 50.0, 19.0)]);
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        // Class 1 (rank 50) saturates at 20; class 0 gets the remaining 10.
        assert_eq!(pops(&adm), vec![10.0, 20.0]);
        // Node BC: class 0 is the unsaturated one.
        let expected_bc = benefit_cost(&p, ClassId::new(0), 100.0);
        assert!((adm.benefit_cost - expected_bc).abs() < 1e-12);
        assert!((adm.used - cap).abs() < 1e-9);
    }

    #[test]
    fn paper_greedy_stops_at_first_blocked_class() {
        // Class 1 (high BC) consumers cost 19·100; class 0 (low BC, cheap G)
        // cost 1·100. Capacity fits 5 expensive consumers + change that can
        // only fit cheap ones.
        let cap = 5.0 * 1900.0 + 500.0;
        // bc(class1) = 500·log(101)/1900 ≈ 1.21 > bc(class0) = 5·log(101)/100 ≈ 0.23
        let (p, rates) = one_node(cap, 0.0, &[(100, 5.0, 1.0), (100, 500.0, 19.0)]);
        let stop = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        // Paper greedy: admits 5 of class 1, blocked, stops: class 0 gets 0.
        assert_eq!(pops(&stop), vec![0.0, 5.0]);
        let ffd = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::FirstFitDecreasing,
        );
        // FFD continues: 500 / 100 = 5 cheap consumers.
        assert_eq!(pops(&ffd), vec![5.0, 5.0]);
        assert!(ffd.used > stop.used);
    }

    #[test]
    fn fractional_mode_fills_capacity_exactly() {
        let cap = 10.5 * 1900.0;
        let (p, rates) = one_node(cap, 0.0, &[(100, 50.0, 19.0)]);
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Fractional,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert!((pops(&adm)[0] - 10.5).abs() < 1e-9);
        assert!((adm.used - cap).abs() < 1e-6);
    }

    #[test]
    fn integral_mode_floors() {
        let cap = 10.7 * 1900.0;
        let (p, rates) = one_node(cap, 0.0, &[(100, 50.0, 19.0)]);
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert_eq!(pops(&adm)[0], 10.0);
    }

    #[test]
    fn flow_costs_reduce_budget_and_overload_reports_used() {
        // Flow costs alone exceed capacity: nobody admitted, used > cap.
        let (p, rates) = one_node(100.0, 50.0, &[(10, 5.0, 19.0), (10, 7.0, 19.0)]);
        // Two flows each at rate 100 with F = 50 ⇒ flow cost 10_000.
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert_eq!(pops(&adm), vec![0.0, 0.0]);
        assert!((adm.used - 10_000.0).abs() < 1e-9);
        // All classes unsaturated ⇒ BC is the max individual ratio.
        let bc_max = benefit_cost(&p, ClassId::new(1), 100.0);
        assert!((adm.benefit_cost - bc_max).abs() < 1e-12);
    }

    #[test]
    fn saturating_everything_yields_zero_node_bc() {
        let cap = 1e9;
        let (p, rates) = one_node(cap, 0.0, &[(3, 5.0, 19.0), (4, 7.0, 19.0)]);
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert_eq!(pops(&adm), vec![3.0, 4.0]);
        assert_eq!(adm.benefit_cost, 0.0);
    }

    #[test]
    fn zero_rate_flow_classes_are_skipped() {
        let (p, mut rates) = one_node(1e6, 0.0, &[(10, 5.0, 19.0), (10, 7.0, 19.0)]);
        rates[1] = 0.0;
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        let v = pops(&adm);
        assert_eq!(v[1], 0.0);
        assert!(v[0] > 0.0);
    }

    #[test]
    fn zero_max_population_classes_never_admit_nor_price() {
        let (p, rates) = one_node(1e6, 0.0, &[(0, 1e9, 19.0)]);
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert_eq!(pops(&adm), vec![0.0]);
        assert_eq!(adm.benefit_cost, 0.0);
    }

    #[test]
    fn admission_never_violates_capacity_when_flows_fit() {
        for cap in [1000.0, 5e4, 9e5, 3.7e6] {
            let (p, rates) =
                one_node(cap, 1.0, &[(500, 5.0, 19.0), (800, 50.0, 19.0), (200, 2.0, 7.0)]);
            for mode in [PopulationMode::Integral, PopulationMode::Fractional] {
                for policy in
                    [AdmissionPolicy::StopAtFirstBlock, AdmissionPolicy::FirstFitDecreasing]
                {
                    let adm = allocate_consumers(&p, NodeId::new(0), &rates, mode, policy);
                    assert!(
                        adm.used <= cap + 1e-6,
                        "cap {cap} violated: used {}",
                        adm.used
                    );
                }
            }
        }
    }

    #[test]
    fn nan_benefit_cost_is_handled_totally_and_deterministically() {
        // Valid input can drive BC to NaN: a `Linear` weight of 1e300 at rate
        // 1e10 makes `U = ∞`, and `G = 1e300` makes `G·r = ∞`, so BC is
        // ∞/∞. The old `partial_cmp(..).unwrap_or(Equal)` comparator was
        // *inconsistent* on such input (NaN "equal" to everything while real
        // ratios still ordered), leaving the sort order unspecified;
        // `total_cmp` keeps the order total, so the allocation must be
        // deterministic and must not panic.
        let cap = 30.0 * 1900.0;
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(cap);
        let (src0, src1) = (b.add_node(1e12), b.add_node(1e12));
        let degenerate = b.add_flow(src0, RateBounds::new(0.0, 1e10).unwrap());
        let finite = b.add_flow(src1, RateBounds::new(0.0, 1000.0).unwrap());
        b.set_node_cost(degenerate, sink, 0.0);
        b.set_node_cost(finite, sink, 0.0);
        b.add_class(degenerate, sink, 20, Utility::linear(1e300), 1e300);
        b.add_class(finite, sink, 20, Utility::log(50.0), 19.0);
        let p = b.build().unwrap();
        let rates = [1e10, 100.0];
        let nan = benefit_cost(&p, ClassId::new(0), rates[0]);
        assert!(nan.is_nan());
        let finite_bc = benefit_cost(&p, ClassId::new(1), rates[1]);
        let run = |policy| allocate_consumers(&p, sink, &rates, PopulationMode::Integral, policy);
        // The degenerate class cannot afford one consumer (`G·r = ∞`).
        // Under the total order a NaN ranks by its sign bit, above every
        // real ratio when positive and below when negative, and which sign
        // ∞/∞ takes is the hardware's choice. Ranked first, the degenerate
        // class halts the paper's greedy before the finite one; ranked
        // last, the finite class saturates (20 consumers) first. Eq. 11's
        // max ignores NaN either way. (`used` reads NaN here: the blocked
        // class adds `0 · ∞` to it.)
        let stop = if nan.is_sign_positive() {
            (vec![0.0, 0.0], finite_bc)
        } else {
            (vec![0.0, 20.0], 0.0)
        };
        // First-fit decreasing skips the blocked class in either order.
        let skip = (vec![0.0, 20.0], 0.0);
        for (policy, (populations, bc)) in [
            (AdmissionPolicy::StopAtFirstBlock, stop),
            (AdmissionPolicy::FirstFitDecreasing, skip),
        ] {
            let a = run(policy);
            assert_eq!(
                format!("{a:?}"),
                format!("{:?}", run(policy)),
                "NaN BC must not make the order unspecified"
            );
            assert_eq!(pops(&a), populations, "{policy:?}");
            assert_eq!(a.benefit_cost.to_bits(), f64::to_bits(bc), "{policy:?}");
        }
    }

    #[test]
    fn scratch_kernel_matches_allocate_consumers_from_any_permutation() {
        let (p, rates) = one_node(
            12.0 * 1900.0,
            1.0,
            &[(500, 5.0, 19.0), (800, 50.0, 19.0), (200, 2.0, 7.0)],
        );
        let reference = allocate_consumers(
            &p,
            NodeId::new(0),
            &rates,
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        // Feed the kernel every rotation of the class list with stale BC
        // values: the strict total order must produce the identical result.
        let classes: Vec<ClassId> = p.classes_at_node(NodeId::new(0)).to_vec();
        for rot in 0..classes.len() {
            let mut order: Vec<(ClassId, f64)> =
                classes.iter().cycle().skip(rot).take(classes.len()).map(|&c| (c, -1.0)).collect();
            let mut populations = Vec::new();
            let (used, bc) = allocate_consumers_into(
                &p,
                NodeId::new(0),
                &rates,
                PopulationMode::Integral,
                AdmissionPolicy::StopAtFirstBlock,
                &mut order,
                &mut populations,
            );
            assert_eq!(used.to_bits(), reference.used.to_bits());
            assert_eq!(bc.to_bits(), reference.benefit_cost.to_bits());
            assert_eq!(populations, reference.populations, "rotation {rot}");
        }
    }

    #[test]
    fn node_with_no_classes_reports_flow_cost_only() {
        let mut b = ProblemBuilder::new();
        let sink = b.add_node(1e4);
        let other = b.add_node(1e6);
        let src = b.add_node(1e6);
        let f = b.add_flow(src, RateBounds::new(0.0, 1000.0).unwrap());
        b.set_node_cost(f, sink, 2.0);
        b.set_node_cost(f, other, 2.0);
        b.add_class(f, other, 10, Utility::log(5.0), 19.0);
        let p = b.build().unwrap();
        let adm = allocate_consumers(
            &p,
            NodeId::new(0),
            &[100.0],
            PopulationMode::Integral,
            AdmissionPolicy::StopAtFirstBlock,
        );
        assert!(adm.populations.is_empty());
        assert!((adm.used - 200.0).abs() < 1e-12);
        assert_eq!(adm.benefit_cost, 0.0);
    }
}
