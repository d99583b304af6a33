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
//!
//! The engine keeps each node's order between steps. Every entry carries
//! the rate its ratio was computed at, and a re-admission recomputes the
//! ratio only for the classes whose flow rate moved bitwise. Reusing the
//! others is exact: [`benefit_cost`] is a pure function of the class's
//! utility, its consumer cost and the rate, and no `DeltaOp` edits a
//! class's utility or consumer cost. A fresh entry holds rate 0.0 and ratio
//! 0.0, which is `benefit_cost(class, 0.0)`. So the sort sees the keys a
//! full recompute would, and yields the same order and populations.
//!
//! The kernel reads only rows that belong to its node. Each entry also
//! carries its class's flow index, `n_j^max` and `G_{b,j}`, so the rate
//! check and the greedy loop read the entry alone, and the class spec is
//! read only to re-rank an entry whose rate moved. The flow index and `G`
//! never change; the engine rewrites an entry's `n_j^max` when a delta
//! resizes or removes its class. The consumer-independent load
//! `Σ_i F_{b,i} · r_i` folds the node's flow-cost row
//! ([`lrgp_model::PriceTermTable::flow_cost_terms`]), the same products in
//! the same ascending-flow order as [`Problem::flows_at_node`] with
//! [`Problem::flow_node_cost`], so the sum keeps its bits.

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
/// Returns 0 for non-positive rates (a removed flow carries no benefit)
/// and for an undefined ratio: `∞/∞` (a huge weight and consumer cost at a
/// huge rate) or `0/0` after underflow. Such a class then ranks with the
/// zero-BC classes, by id.
pub fn benefit_cost(problem: &Problem, class: ClassId, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    let spec = problem.class(class);
    defined_or_zero(spec.utility.value(rate) / (spec.consumer_cost * rate))
}

/// `ratio`, or 0 when it is NaN. `total_cmp` would rank a NaN by its sign
/// bit, which the hardware picks (x86's default NaN is negative,
/// AArch64's positive), so the greedy's order would depend on the CPU.
fn defined_or_zero(ratio: f64) -> f64 {
    if ratio.is_nan() {
        0.0
    } else {
        ratio
    }
}

/// One entry of a node's admission order: a class, its benefit–cost ratio,
/// the rate of the class's flow that the ratio was computed at, and the
/// class's flow index, `n_j^max` and `G_{b,j}`, carried so the greedy reads
/// only the entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrderEntry {
    pub(crate) class: ClassId,
    /// The class's flow index.
    pub(crate) flow: u32,
    pub(crate) rate: f64,
    pub(crate) ratio: f64,
    /// `n_j^max`, as a float.
    pub(crate) n_max: f64,
    /// `G_{b,j}`: the per-rate cost of one consumer.
    pub(crate) consumer_cost: f64,
}

impl OrderEntry {
    /// `class` of `problem`, not yet ranked: rate 0.0 and ratio 0.0, which is
    /// `benefit_cost(class, 0.0)`, so the entry is consistent from the start.
    pub(crate) fn new(problem: &Problem, class: ClassId) -> Self {
        let spec = problem.class(class);
        Self {
            class,
            flow: spec.flow.index() as u32,
            rate: 0.0,
            ratio: 0.0,
            n_max: f64::from(spec.max_population),
            consumer_cost: spec.consumer_cost,
        }
    }
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
    let mut order: Vec<OrderEntry> =
        problem.classes_at_node(node).iter().map(|&c| OrderEntry::new(problem, c)).collect();
    // The node's flow-cost row, as `PriceTermTable::flow_cost_terms` holds it.
    let flow_costs: Vec<(u32, f64)> = problem
        .flows_at_node(node)
        .iter()
        .map(|&flow| (flow.index() as u32, problem.flow_node_cost(node, flow)))
        .collect();
    let mut populations = Vec::with_capacity(order.len());
    let (used, benefit_cost) = allocate_consumers_into(
        problem,
        node,
        &flow_costs,
        rates,
        mode,
        policy,
        &mut order,
        &mut populations,
    );
    NodeAdmission { populations, used, benefit_cost }
}

/// The greedy admission kernel of [`allocate_consumers`], writing into
/// caller-owned scratch so the engine's hot loop allocates nothing.
///
/// `flow_costs` must be `node`'s flow-cost row, and `order` must hold
/// exactly the classes of `node` (any permutation), each entry's flow,
/// `n_max` and `G` those of its class in `problem`, and its ratio equal to
/// `benefit_cost` at the entry's rate. An entry whose rate differs bitwise
/// from its flow's rate in `rates` is re-ranked at the new rate; the others
/// keep their ratio (see the module docs). `populations` is cleared and
/// refilled. Returns `(used, benefit_cost)`.
///
/// The comparator below is a *strict total order* (`f64::total_cmp`, ties
/// broken by class id, ids unique), so the sorted result is unique no matter
/// how `order` was permuted on entry — which is what lets the incremental
/// engine keep each node's previously sorted order as the starting point
/// (`sort_by` is adaptive and near-sorted input re-sorts in linear time)
/// while staying bit-identical to a from-scratch sort.
#[allow(clippy::too_many_arguments)]
pub(crate) fn allocate_consumers_into(
    problem: &Problem,
    node: NodeId,
    flow_costs: &[(u32, f64)],
    rates: &[f64],
    mode: PopulationMode,
    policy: AdmissionPolicy,
    order: &mut [OrderEntry],
    populations: &mut Vec<(ClassId, f64)>,
) -> (f64, f64) {
    // Consumer-independent flow cost at this node.
    let flow_cost: f64 = flow_costs.iter().map(|&(flow, cost)| cost * rates[flow as usize]).sum();
    let capacity = problem.node(node).capacity;

    // Classes ordered by decreasing benefit–cost ratio. Ties broken by
    // class id for determinism; `benefit_cost` never returns NaN, so
    // `total_cmp` orders real ratios (and ±∞) only.
    for entry in order.iter_mut() {
        let rate = rates[entry.flow as usize];
        if rate.to_bits() != entry.rate.to_bits() {
            entry.rate = rate;
            entry.ratio = benefit_cost(problem, entry.class, rate);
        }
    }
    order.sort_by(|a, b| b.ratio.total_cmp(&a.ratio).then_with(|| a.class.cmp(&b.class)));

    let mut remaining = capacity - flow_cost;
    let mut used = flow_cost;
    populations.clear();
    let mut node_bc: f64 = 0.0;
    let mut blocked = false;

    for &OrderEntry { class, rate, ratio: bc, n_max: max, consumer_cost, .. } in order.iter() {
        if max == 0.0 || rate <= 0.0 {
            populations.push((class, 0.0));
            continue;
        }
        let per_consumer = consumer_cost * rate;
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
        // Only admitted consumers spend capacity: a class that cannot
        // afford one because `G·r = ∞` would add `0 · ∞ = NaN`.
        if admitted > 0.0 {
            remaining -= admitted * per_consumer;
            used += admitted * per_consumer;
        }
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
        // Valid input can make BC undefined: a `Linear` weight of 1e300 at
        // rate 1e10 makes `U = ∞`, and `G = 1e300` makes `G·r = ∞`, so the
        // quotient is ∞/∞ = NaN. Ranked by `total_cmp`, a NaN would sit
        // above every real ratio or below them all by its sign bit, which
        // the hardware picks. BC reads 0 for a NaN of either sign.
        for nan in [f64::NAN, -f64::NAN] {
            assert_eq!(defined_or_zero(nan).to_bits(), 0.0f64.to_bits());
        }
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
        let spec = p.class(ClassId::new(0));
        assert!((spec.utility.value(rates[0]) / (spec.consumer_cost * rates[0])).is_nan());
        assert_eq!(benefit_cost(&p, ClassId::new(0), rates[0]).to_bits(), 0.0f64.to_bits());
        // So the degenerate class ranks below the finite one, which
        // saturates at 20 consumers (20 · 19 · 100 = 38,000). The degenerate
        // class cannot afford one consumer and adds nothing to `used` (not
        // `0 · ∞`). With the finite class saturated, Eq. 11 reads 0. Both
        // policies agree.
        for policy in [AdmissionPolicy::StopAtFirstBlock, AdmissionPolicy::FirstFitDecreasing] {
            let a = allocate_consumers(&p, sink, &rates, PopulationMode::Integral, policy);
            assert_eq!(pops(&a), vec![0.0, 20.0], "{policy:?}");
            assert_eq!(a.benefit_cost.to_bits(), 0.0f64.to_bits(), "{policy:?}");
            assert_eq!(a.used.to_bits(), 38_000.0f64.to_bits(), "{policy:?}: used {}", a.used);
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
        // values at a stale rate: each is re-ranked, and the strict total
        // order must produce the identical result.
        let classes: Vec<ClassId> = p.classes_at_node(NodeId::new(0)).to_vec();
        let table = lrgp_model::PriceTermTable::new(&p);
        for rot in 0..classes.len() {
            let stale =
                |class| OrderEntry { rate: -1.0, ratio: -1.0, ..OrderEntry::new(&p, class) };
            let mut order: Vec<OrderEntry> =
                classes.iter().cycle().skip(rot).take(classes.len()).map(|&c| stale(c)).collect();
            let mut populations = Vec::new();
            let (used, bc) = allocate_consumers_into(
                &p,
                NodeId::new(0),
                table.flow_cost_terms(NodeId::new(0)),
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
    fn cached_ratios_match_a_fresh_admission_while_rates_move() {
        // One order kept across calls, as the engine keeps it: each call
        // moves some flows' rates and leaves the rest, so the kernel must
        // re-rank exactly the classes whose rate moved. A fresh admission
        // ranks every class from scratch, and the two must agree bitwise.
        // The kept order reads its flow costs from the term table, as the
        // engine does.
        let specs = [(40, 5.0, 19.0), (30, 50.0, 19.0), (20, 2.0, 7.0), (50, 9.0, 3.0)];
        let (p, mut rates) = one_node(20.0 * 1900.0, 1.0, &specs);
        let node = NodeId::new(0);
        let table = lrgp_model::PriceTermTable::new(&p);
        let mut order: Vec<OrderEntry> =
            p.classes_at_node(node).iter().map(|&c| OrderEntry::new(&p, c)).collect();
        let mut populations = Vec::new();
        let moves = [(0, 400.0), (2, 900.0), (1, 10.0), (3, 0.0), (0, 100.0), (3, 250.0)];
        for (step, &(flow, rate)) in moves.iter().enumerate() {
            rates[flow] = rate;
            let fresh = allocate_consumers(
                &p,
                node,
                &rates,
                PopulationMode::Integral,
                AdmissionPolicy::StopAtFirstBlock,
            );
            let (used, bc) = allocate_consumers_into(
                &p,
                node,
                table.flow_cost_terms(node),
                &rates,
                PopulationMode::Integral,
                AdmissionPolicy::StopAtFirstBlock,
                &mut order,
                &mut populations,
            );
            assert_eq!(used.to_bits(), fresh.used.to_bits(), "step {step}");
            assert_eq!(bc.to_bits(), fresh.benefit_cost.to_bits(), "step {step}");
            assert_eq!(populations, fresh.populations, "step {step}");
            for entry in &order {
                let rate = rates[p.class(entry.class).flow.index()];
                let expected = benefit_cost(&p, entry.class, rate);
                assert_eq!(entry.ratio.to_bits(), expected.to_bits(), "step {step}: {entry:?}");
            }
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
