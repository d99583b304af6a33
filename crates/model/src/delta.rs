//! First-class, batched problem changes: the one way to change a
//! [`Problem`].
//!
//! LRGP runs all the time and absorbs changes as they come (§2.1):
//! consumers arrive and depart, producers join and leave, and operators
//! resize brokers. A [`ProblemDelta`] describes such a change as data (an
//! ordered batch of [`DeltaOp`]s), so it can be validated, logged, shipped
//! across a control plane, and applied all or nothing. Each op runs one of
//! the problem's validate-then-mutate mutators, which checks the op's ids
//! before its values, so a problem that takes a delta stays one
//! [`crate::ProblemBuilder::build`] accepts.
//!
//! Applying a delta never renumbers ids: a removal keeps its flow's slot
//! (rate bounds collapse to `[0, 0]`, costs and populations to zero) and
//! additions append at the end of the id space. That id stability is what
//! lets an engine carry optimizer state (prices, rates, γ controllers)
//! *across* a delta and what lets the incremental dirty-set machinery
//! re-evaluate only what the delta touched.
//!
//! # Examples
//!
//! ```
//! use lrgp_model::{workloads, ProblemDelta, ClassId, NodeId, RateBounds};
//!
//! # fn main() -> Result<(), lrgp_model::ValidationError> {
//! let problem = workloads::base_workload();
//! let delta = ProblemDelta::new()
//!     .set_node_capacity(NodeId::new(6), 5e5)
//!     .resize_class(ClassId::new(0), 150);
//! let changed = delta.apply(&problem)?;
//! assert_eq!(changed.num_flows(), problem.num_flows());
//! assert_eq!(changed.class(ClassId::new(0)).max_population, 150);
//! # Ok(())
//! # }
//! ```

use crate::ids::{ClassId, FlowId, LinkId, NodeId};
use crate::problem::{ClassSpec, FlowSpec, Problem, RateBounds, RhoBounds, Undo, ValidationError};
use serde::{Deserialize, Serialize};

/// One elementary change to a [`Problem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Append a new flow and its consumer classes (a producer joins). The
    /// `flow` field of each class spec is overwritten with the new flow's
    /// id; node/link costs must reference existing ids.
    AddFlow {
        /// The new flow's specification (source, bounds, path costs).
        flow: FlowSpec,
        /// The new flow's consumer classes, appended in order.
        classes: Vec<ClassSpec>,
    },
    /// Remove a flow (a producer leaves, §4.2 Fig. 3): its rate bounds
    /// collapse to `[0, 0]`, its costs and its classes' populations to zero.
    /// The id stays valid.
    RemoveFlow {
        /// The flow to remove.
        flow: FlowId,
    },
    /// Replace a node's capacity (a broker is resized).
    SetNodeCapacity {
        /// The node to resize.
        node: NodeId,
        /// The new capacity; must be finite and strictly positive.
        capacity: f64,
    },
    /// Replace a link's capacity.
    SetLinkCapacity {
        /// The link to resize.
        link: LinkId,
        /// The new capacity; must be finite and strictly positive.
        capacity: f64,
    },
    /// Replace a class's maximum population (consumers arriving or
    /// departing).
    SetMaxPopulation {
        /// The class to resize.
        class: ClassId,
        /// The new `n_j^max`.
        max_population: u32,
    },
    /// Replace a flow's rate bounds.
    SetRateBounds {
        /// The flow to re-bound.
        flow: FlowId,
        /// The new bounds; must satisfy `0 ≤ min ≤ max`.
        bounds: RateBounds,
    },
    /// Replace the `F_{b,i}` cost of an existing (flow, node) path entry —
    /// `0.0` models a pruned branch (§2.4) without touching path structure.
    SetFlowNodeCost {
        /// The flow whose cost entry changes.
        flow: FlowId,
        /// The node of the entry.
        node: NodeId,
        /// The new cost; must be finite and nonnegative.
        cost: f64,
    },
    /// Replace a link's loss rate (channel conditions change). Requires a
    /// [`crate::ReliabilitySpec`] to be attached.
    SetLinkLoss {
        /// The link whose loss rate changes.
        link: LinkId,
        /// The new loss rate; must be finite and in `[0, 1)`.
        loss: f64,
    },
    /// Replace a flow's reliability bounds. Requires a
    /// [`crate::ReliabilitySpec`] to be attached.
    SetRhoBounds {
        /// The flow to re-bound.
        flow: FlowId,
        /// The new bounds; must satisfy `0 < min ≤ max ≤ 1`.
        bounds: RhoBounds,
    },
}

impl DeltaOp {
    /// Applies this single op to `problem` in place and returns what it
    /// overwrote. Every op validates before it mutates, so on `Err` the
    /// problem is unchanged.
    fn apply_in_place(&self, problem: &mut Problem) -> Result<Undo, ValidationError> {
        match self {
            DeltaOp::AddFlow { flow, classes } => {
                problem.add_flow_in_place(flow.clone(), classes.clone())
            }
            DeltaOp::RemoveFlow { flow } => problem.remove_flow_in_place(*flow),
            DeltaOp::SetNodeCapacity { node, capacity } => {
                problem.set_node_capacity_in_place(*node, *capacity)
            }
            DeltaOp::SetLinkCapacity { link, capacity } => {
                problem.set_link_capacity_in_place(*link, *capacity)
            }
            DeltaOp::SetMaxPopulation { class, max_population } => {
                problem.set_max_population_in_place(*class, *max_population)
            }
            DeltaOp::SetRateBounds { flow, bounds } => {
                problem.set_rate_bounds_in_place(*flow, *bounds)
            }
            DeltaOp::SetFlowNodeCost { flow, node, cost } => {
                problem.set_flow_node_cost_in_place(*flow, *node, *cost)
            }
            DeltaOp::SetLinkLoss { link, loss } => problem.set_link_loss_in_place(*link, *loss),
            DeltaOp::SetRhoBounds { flow, bounds } => {
                problem.set_rho_bounds_in_place(*flow, *bounds)
            }
        }
    }

    /// `true` if applying this op grows the id space (appends flows or
    /// classes).
    pub fn grows_problem(&self) -> bool {
        matches!(self, DeltaOp::AddFlow { .. })
    }

    /// `true` if this op changes resource-cost coefficients or reliability
    /// inputs: flow additions and removals, `F_{b,i}` edits, link-loss
    /// edits (loss feeds the ρ term columns of the price term table) and
    /// ρ-bound edits (the cached best-responses were clamped into the old
    /// bounds). A term table follows every one of them in place through
    /// [`crate::PriceTermTable::refresh`]; a flow addition appends rows.
    pub fn changes_costs(&self) -> bool {
        matches!(
            self,
            DeltaOp::AddFlow { .. }
                | DeltaOp::RemoveFlow { .. }
                | DeltaOp::SetFlowNodeCost { .. }
                | DeltaOp::SetLinkLoss { .. }
                | DeltaOp::SetRhoBounds { .. }
        )
    }
}

/// An ordered batch of [`DeltaOp`]s, applied atomically front to back.
///
/// Construct with the chainable builder methods; apply with
/// [`ProblemDelta::apply`] (pure), [`ProblemDelta::apply_in_place`], or hand
/// it to an engine, which applies it to its own problem in place while
/// carrying optimizer state across the change.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProblemDelta {
    ops: Vec<DeltaOp>,
}

impl ProblemDelta {
    /// An empty delta (applying it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an [`DeltaOp::AddFlow`] op.
    pub fn add_flow(mut self, flow: FlowSpec, classes: Vec<ClassSpec>) -> Self {
        self.ops.push(DeltaOp::AddFlow { flow, classes });
        self
    }

    /// Appends a [`DeltaOp::RemoveFlow`] op.
    pub fn remove_flow(mut self, flow: FlowId) -> Self {
        self.ops.push(DeltaOp::RemoveFlow { flow });
        self
    }

    /// Appends a [`DeltaOp::SetNodeCapacity`] op.
    pub fn set_node_capacity(mut self, node: NodeId, capacity: f64) -> Self {
        self.ops.push(DeltaOp::SetNodeCapacity { node, capacity });
        self
    }

    /// Appends a [`DeltaOp::SetLinkCapacity`] op.
    pub fn set_link_capacity(mut self, link: LinkId, capacity: f64) -> Self {
        self.ops.push(DeltaOp::SetLinkCapacity { link, capacity });
        self
    }

    /// Appends a [`DeltaOp::SetMaxPopulation`] op.
    pub fn resize_class(mut self, class: ClassId, max_population: u32) -> Self {
        self.ops.push(DeltaOp::SetMaxPopulation { class, max_population });
        self
    }

    /// Appends a [`DeltaOp::SetRateBounds`] op.
    pub fn set_rate_bounds(mut self, flow: FlowId, bounds: RateBounds) -> Self {
        self.ops.push(DeltaOp::SetRateBounds { flow, bounds });
        self
    }

    /// Appends a [`DeltaOp::SetFlowNodeCost`] op.
    pub fn set_flow_node_cost(mut self, flow: FlowId, node: NodeId, cost: f64) -> Self {
        self.ops.push(DeltaOp::SetFlowNodeCost { flow, node, cost });
        self
    }

    /// Appends a [`DeltaOp::SetLinkLoss`] op.
    pub fn set_link_loss(mut self, link: LinkId, loss: f64) -> Self {
        self.ops.push(DeltaOp::SetLinkLoss { link, loss });
        self
    }

    /// Appends a [`DeltaOp::SetRhoBounds`] op.
    pub fn set_rho_bounds(mut self, flow: FlowId, bounds: RhoBounds) -> Self {
        self.ops.push(DeltaOp::SetRhoBounds { flow, bounds });
        self
    }

    /// Appends an arbitrary op (non-chaining form).
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Appends every op of `other`, preserving order.
    pub fn merge(mut self, other: ProblemDelta) -> Self {
        self.ops.extend(other.ops);
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `true` if any op grows the id space.
    pub fn grows_problem(&self) -> bool {
        self.ops.iter().any(DeltaOp::grows_problem)
    }

    /// `true` if any op changes resource-cost coefficients.
    pub fn changes_costs(&self) -> bool {
        self.ops.iter().any(DeltaOp::changes_costs)
    }

    /// Applies the ops front to back, returning the final problem. The input
    /// problem is untouched.
    ///
    /// This is one clone of the problem plus [`Self::apply_in_place`] on the
    /// copy.
    ///
    /// # Errors
    ///
    /// The first error any op reports (see [`Self::apply_in_place`]).
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn apply(&self, problem: &Problem) -> Result<Problem, ValidationError> {
        let mut p = problem.clone();
        self.apply_in_place(&mut p)?;
        Ok(p)
    }

    /// Applies the ops front to back to `problem` in place, all or nothing:
    /// on the first error the ops already applied are undone, newest first,
    /// and `problem` is left exactly as it was.
    ///
    /// Each op records what it overwrote: the old value for a capacity,
    /// population, rate-bound, `F_{b,i}`, loss or ρ-bound edit, and the
    /// flow's old spec and its classes' old maxima for a removal. A flow
    /// addition records nothing: its ids are the largest, so its undo pops
    /// them off the end of every index row they joined. A batch therefore
    /// costs only the ops' own work, never a copy of the problem.
    ///
    /// # Errors
    ///
    /// The first error any op reports. Each op checks its ids first
    /// (`Unknown*` on an id out of range), then its values: capacities,
    /// bounds, costs and loss rates, a missing `F_{b,i}` entry, a
    /// reliability edit on a problem with no spec attached, and for
    /// [`DeltaOp::AddFlow`] anything [`crate::ProblemBuilder::build`] would
    /// reject in the new flow and classes.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn apply_in_place(&self, problem: &mut Problem) -> Result<(), ValidationError> {
        let mut applied = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op.apply_in_place(problem) {
                Ok(undo) => applied.push(undo),
                Err(e) => {
                    for undo in applied.into_iter().rev() {
                        problem.undo(undo);
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;
    use crate::workloads::base_workload;

    #[test]
    fn empty_delta_is_identity() {
        let p = base_workload();
        let q = ProblemDelta::new().apply(&p).unwrap();
        assert_eq!(p, q);
        assert!(ProblemDelta::new().is_empty());
    }

    #[test]
    fn batched_ops_apply_in_order() {
        let p = base_workload();
        let bounds = RateBounds { min: 1.0, max: 50.0 };
        let delta = ProblemDelta::new()
            .resize_class(ClassId::new(0), 7)
            .set_node_capacity(NodeId::new(7), 5e5)
            .set_rate_bounds(FlowId::new(0), bounds)
            .resize_class(ClassId::new(0), 9);
        let q = delta.apply(&p).unwrap();
        assert_eq!(q.class(ClassId::new(0)).max_population, 9);
        assert_eq!(q.node(NodeId::new(7)).capacity, 5e5);
        assert_eq!(q.flow(FlowId::new(0)).bounds, bounds);
        assert_eq!(p, base_workload(), "the input is untouched");
        assert_eq!(delta.len(), 4);
    }

    #[test]
    fn remove_flow_collapses_bounds_costs_and_populations() {
        let p = crate::workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let flow = FlowId::new(1);
        let q = ProblemDelta::new().remove_flow(flow).apply(&p).unwrap();
        assert_eq!(q.flow(flow).bounds, RateBounds { min: 0.0, max: 0.0 });
        assert!(q.nodes_of_flow(flow).iter().all(|&(_, cost)| cost == 0.0));
        assert!(q.links_of_flow(flow).iter().all(|&(_, cost)| cost == 0.0));
        assert!(!q.links_of_flow(flow).is_empty(), "entries stay, only their costs go");
        for &class in p.classes_of_flow(flow) {
            assert_eq!(q.class(class).max_population, 0);
        }
        for other in p.flow_ids().filter(|&f| f != flow) {
            assert_eq!(q.flow(other), p.flow(other));
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        // Each op checks its ids before its values, so an op that is wrong
        // in both reports the id. One past the end and `u32::MAX` alike.
        let p = crate::workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let bounds = RateBounds { min: 9.0, max: 2.0 };
        let rho = RhoBounds { min: 0.9, max: 0.1 };
        let (flow0, node0) = (FlowId::new(0), NodeId::new(0));
        for max in [false, true] {
            let past = |len: usize| if max { u32::MAX } else { len as u32 };
            let flow = FlowId::new(past(p.num_flows()));
            let node = NodeId::new(past(p.num_nodes()));
            let link = LinkId::new(past(p.num_links()));
            let class = ClassId::new(past(p.num_classes()));
            let unknown_flow = ValidationError::UnknownFlow { flow };
            let unknown_node = ValidationError::UnknownNode { node };
            let unknown_link = ValidationError::UnknownLink { link };
            let unknown_class = ValidationError::UnknownClass { class };
            let cases = [
                (DeltaOp::RemoveFlow { flow }, unknown_flow.clone()),
                (DeltaOp::SetRateBounds { flow, bounds }, unknown_flow.clone()),
                (DeltaOp::SetFlowNodeCost { flow, node: node0, cost: -1.0 }, unknown_flow.clone()),
                (DeltaOp::SetRhoBounds { flow, bounds: rho }, unknown_flow),
                (DeltaOp::SetNodeCapacity { node, capacity: -1.0 }, unknown_node.clone()),
                (DeltaOp::SetFlowNodeCost { flow: flow0, node, cost: -1.0 }, unknown_node),
                (DeltaOp::SetLinkCapacity { link, capacity: -1.0 }, unknown_link.clone()),
                (DeltaOp::SetLinkLoss { link, loss: 2.0 }, unknown_link),
                (DeltaOp::SetMaxPopulation { class, max_population: 1 }, unknown_class),
            ];
            for (op, expected) in cases {
                let mut delta = ProblemDelta::new();
                delta.push(op.clone());
                assert_eq!(delta.apply(&p), Err(expected), "{op:?}");
            }
        }
    }

    #[test]
    fn invalid_values_are_rejected_atomically() {
        let p = base_workload();
        // Second op fails; the caller's problem is untouched and nothing
        // half-applied escapes.
        for capacity in [-3.0, 0.0, f64::NAN] {
            let delta = ProblemDelta::new()
                .resize_class(ClassId::new(0), 5)
                .set_node_capacity(NodeId::new(0), capacity);
            assert!(matches!(
                delta.apply(&p),
                Err(ValidationError::NonPositiveCapacity { .. })
            ));
        }
        assert_eq!(p.class(ClassId::new(0)).max_population, 400);
    }

    #[test]
    fn failing_third_op_returns_err_and_leaves_input_untouched() {
        let p = base_workload();
        let before = serde_json::to_string(&p).unwrap();
        let delta = ProblemDelta::new()
            .remove_flow(FlowId::new(1))
            .set_node_capacity(NodeId::new(0), 5e5)
            .set_rate_bounds(FlowId::new(0), RateBounds { min: 9.0, max: 2.0 })
            .resize_class(ClassId::new(0), 3);
        assert!(matches!(
            delta.apply(&p),
            Err(ValidationError::InvalidRateBounds { .. })
        ));
        assert_eq!(serde_json::to_string(&p).unwrap(), before);
        assert_eq!(p, base_workload());
        let mut q = p.clone();
        assert!(matches!(
            delta.apply_in_place(&mut q),
            Err(ValidationError::InvalidRateBounds { .. })
        ));
        assert_eq!(format!("{q:?}"), format!("{p:?}"));

        // Every op kind in turn, then a failing op: in place, the undo of
        // every kind runs, newest first, and leaves the derived indexes as
        // they were too (`Debug` prints them). Some ops edit what an earlier
        // op edited (the removed flow, the added one), and two additions
        // join the same index rows.
        let p = crate::workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let flow = FlowId::new(1);
        let added = FlowId::new(p.num_flows() as u32);
        let (node, _) = p.nodes_of_flow(flow)[0];
        let class = p.classes_of_flow(flow)[0];
        let copies = vec![p.class(class).clone(); 2];
        let ops = [
            DeltaOp::RemoveFlow { flow },
            DeltaOp::SetFlowNodeCost { flow, node, cost: 0.5 },
            DeltaOp::SetLinkLoss { link: LinkId::new(0), loss: 0.25 },
            DeltaOp::SetRhoBounds { flow, bounds: RhoBounds::new(0.6, 0.7).unwrap() },
            DeltaOp::AddFlow { flow: p.flow(flow).clone(), classes: vec![p.class(class).clone()] },
            DeltaOp::SetRateBounds { flow: added, bounds: RateBounds::new(1.0, 2.0).unwrap() },
            DeltaOp::AddFlow { flow: p.flow(flow).clone(), classes: copies },
            DeltaOp::SetNodeCapacity { node, capacity: 3.0 },
            DeltaOp::SetLinkCapacity { link: LinkId::new(0), capacity: 4.0 },
            DeltaOp::SetMaxPopulation { class, max_population: 5 },
            DeltaOp::SetRateBounds { flow, bounds: RateBounds::new(6.0, 7.0).unwrap() },
        ];
        for n in 1..=ops.len() {
            let mut delta = ProblemDelta::new();
            for op in &ops[..n] {
                delta.push(op.clone());
            }
            let delta = delta.set_node_capacity(node, f64::NAN);
            let mut q = p.clone();
            assert!(matches!(
                delta.apply_in_place(&mut q),
                Err(ValidationError::NonPositiveCapacity { .. })
            ));
            assert_eq!(format!("{q:?}"), format!("{p:?}"), "after {:?}", ops[n - 1]);
        }
    }

    #[test]
    fn add_flow_appends_ids_and_revalidates() {
        let p = base_workload();
        let flows_before = p.num_flows();
        let classes_before = p.num_classes();
        let source = p.flow(FlowId::new(0)).source;
        let sink = p.class(ClassId::new(0)).node;
        let spec = FlowSpec {
            source,
            bounds: RateBounds::new(5.0, 500.0).unwrap(),
            link_costs: vec![],
            node_costs: vec![(sink, 1.0)],
        };
        let class = ClassSpec {
            flow: FlowId::new(0), // overwritten by the delta
            node: sink,
            max_population: 40,
            utility: Utility::log(10.0),
            consumer_cost: 2.0,
        };
        let q = ProblemDelta::new().add_flow(spec, vec![class]).apply(&p).unwrap();
        assert_eq!(q.num_flows(), flows_before + 1);
        assert_eq!(q.num_classes(), classes_before + 1);
        let new_flow = FlowId::new(flows_before as u32);
        let new_class = ClassId::new(classes_before as u32);
        assert_eq!(q.class(new_class).flow, new_flow);
        assert_eq!(q.classes_of_flow(new_flow), &[new_class]);
        assert!(q.flows_at_node(sink).contains(&new_flow));
        // Existing ids untouched.
        for f in p.flow_ids() {
            assert_eq!(q.flow(f), p.flow(f));
        }
    }

    #[test]
    fn add_flow_indexes_equal_a_rebuild() {
        // Lossy so the reliability spec grows too; links so the link index
        // is covered.
        let p = crate::workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let template = p.flow(FlowId::new(1)).clone();
        let class = p.class(p.classes_of_flow(FlowId::new(1))[0]).clone();
        let q = ProblemDelta::new()
            .add_flow(template.clone(), vec![class.clone(), class.clone()])
            .add_flow(template, vec![class])
            .apply(&p)
            .unwrap();
        assert!(!q.flows_on_link(LinkId::new(0)).is_empty());
        let rebuilt: Problem = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(rebuilt, q);
        // The new flows demand full reliability until edited.
        let rho_bounds = &q.reliability().unwrap().rho_bounds;
        assert_eq!(rho_bounds.len(), p.num_flows() + 2);
        assert!(rho_bounds[p.num_flows()..].iter().all(|&b| b == RhoBounds::default()));
    }

    #[test]
    fn add_flow_rejects_unreached_class_node() {
        let p = base_workload();
        let source = p.flow(FlowId::new(0)).source;
        let spec = FlowSpec {
            source,
            bounds: RateBounds::new(5.0, 500.0).unwrap(),
            link_costs: vec![],
            node_costs: vec![],
        };
        let class = ClassSpec {
            flow: FlowId::new(0),
            node: NodeId::new(0),
            max_population: 40,
            utility: Utility::log(10.0),
            consumer_cost: 2.0,
        };
        assert!(matches!(
            ProblemDelta::new().add_flow(spec, vec![class]).apply(&p),
            Err(ValidationError::ClassNodeNotReached { .. })
        ));
    }

    #[test]
    fn cost_edit_requires_existing_entry() {
        let p = base_workload();
        let flow = FlowId::new(0);
        let reached = p.nodes_of_flow(flow)[0].0;
        let q = ProblemDelta::new().set_flow_node_cost(flow, reached, 0.0).apply(&p).unwrap();
        assert_eq!(q.flow_node_cost(reached, flow), 0.0);
        // The source of another flow is not on this flow's path.
        let unreached = (0..p.num_nodes() as u32)
            .map(NodeId::new)
            .find(|&n| !p.nodes_of_flow(flow).iter().any(|&(m, _)| m == n))
            .unwrap();
        assert!(matches!(
            ProblemDelta::new().set_flow_node_cost(flow, unreached, 0.0).apply(&p),
            Err(ValidationError::NoSuchCostEntry { .. })
        ));
    }

    #[test]
    fn classification_flags() {
        let capacity_only = ProblemDelta::new().set_node_capacity(NodeId::new(0), 1e6);
        assert!(!capacity_only.grows_problem());
        assert!(!capacity_only.changes_costs());
        let removal = ProblemDelta::new().remove_flow(FlowId::new(0));
        assert!(!removal.grows_problem());
        assert!(removal.changes_costs());
    }

    #[test]
    fn reliability_ops_apply_and_validate() {
        let p = crate::workloads::lossy_link_bottleneck_workload(500.0, 0.1);
        let link = LinkId::new(0);
        let flow = FlowId::new(0);
        let bounds = RhoBounds::new(0.6, 0.95).unwrap();
        let q = ProblemDelta::new()
            .set_link_loss(link, 0.2)
            .set_rho_bounds(flow, bounds)
            .apply(&p)
            .unwrap();
        assert_eq!(q.link_loss(link), 0.2);
        assert_eq!(q.rho_bounds(flow), Some(bounds));
        assert_eq!(p.link_loss(link), 0.1, "the input is untouched");
        for loss in [1.0, -0.1] {
            assert!(matches!(
                ProblemDelta::new().set_link_loss(link, loss).apply(&p),
                Err(ValidationError::InvalidLossRate { .. })
            ));
        }
        assert!(matches!(
            ProblemDelta::new().set_rho_bounds(flow, RhoBounds { min: 0.9, max: 0.1 }).apply(&p),
            Err(ValidationError::InvalidRhoBounds { .. })
        ));
        assert!(matches!(
            ProblemDelta::new().set_rho_bounds(FlowId::new(99), bounds).apply(&p),
            Err(ValidationError::UnknownFlow { .. })
        ));
        // Reliability edits against a spec-less problem are rejected.
        let plain = p.without_reliability();
        assert!(matches!(
            ProblemDelta::new().set_rho_bounds(flow, bounds).apply(&plain),
            Err(ValidationError::ReliabilityDisabled)
        ));
        assert!(matches!(
            ProblemDelta::new().set_link_loss(link, 0.1).apply(&plain),
            Err(ValidationError::ReliabilityDisabled)
        ));
    }

    #[test]
    fn reliability_ops_count_as_cost_edits() {
        let loss_edit = ProblemDelta::new().set_link_loss(LinkId::new(0), 0.2);
        assert!(!loss_edit.grows_problem());
        assert!(loss_edit.changes_costs());
        let bound_edit =
            ProblemDelta::new().set_rho_bounds(FlowId::new(0), RhoBounds::default());
        assert!(!bound_edit.grows_problem());
        assert!(bound_edit.changes_costs());
    }

    #[test]
    fn delta_serde_round_trip() {
        let delta = ProblemDelta::new()
            .remove_flow(FlowId::new(1))
            .set_node_capacity(NodeId::new(2), 1e5)
            .set_rate_bounds(FlowId::new(0), RateBounds::new(1.0, 10.0).unwrap())
            .set_link_loss(LinkId::new(0), 0.05)
            .set_rho_bounds(FlowId::new(0), RhoBounds::new(0.5, 0.9).unwrap());
        let json = serde_json::to_string(&delta).unwrap();
        let back: ProblemDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(delta, back);
    }
}
