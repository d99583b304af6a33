//! The optimization problem specification (§2 of the paper).
//!
//! A [`Problem`] captures everything the optimizer needs: the overlay's nodes
//! and links with their capacities, the flows with their rate bounds and
//! resource costs, and the consumer classes with their utilities and
//! per-consumer costs. Construct one via [`ProblemBuilder`], which validates
//! cross-references and returns a [`ValidationError`] describing the first
//! inconsistency found. After that, a problem changes only through a
//! [`crate::ProblemDelta`]: its ops run the validate-then-mutate
//! `*_in_place` mutators below, so every `Problem` stays one that
//! [`ProblemBuilder::build`] accepts.

use crate::ids::{ClassId, FlowId, LinkId, NodeId};
use crate::utility::{Utility, UtilityShape};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Inclusive rate bounds `[min, max]` for a flow (constraint (3)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateBounds {
    /// Minimum rate `r_i^min`.
    pub min: f64,
    /// Maximum rate `r_i^max`.
    pub max: f64,
}

impl RateBounds {
    /// Creates bounds after checking `0 <= min <= max` and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::InvalidRateBounds`] when violated.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn new(min: f64, max: f64) -> Result<Self, ValidationError> {
        if !(min.is_finite() && max.is_finite()) || min < 0.0 || min > max {
            return Err(ValidationError::InvalidRateBounds { min, max });
        }
        Ok(Self { min, max })
    }

    /// Clamps a rate into the bounds.
    pub fn clamp(&self, rate: f64) -> f64 {
        rate.clamp(self.min, self.max)
    }

    /// `true` if `rate` lies within the bounds up to `tol`.
    pub fn contains(&self, rate: f64, tol: f64) -> bool {
        rate >= self.min - tol && rate <= self.max + tol
    }

    /// Width `max - min` of the feasible interval.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }
}

/// Inclusive reliability bounds `[min, max] ⊆ (0, 1]` for a flow's
/// delivered-fraction target `ρ_i` (the joint rate–reliability extension).
///
/// The lower bound must be strictly positive: the reliability utility
/// `V_i(ρ) = w · ln(ρ)` diverges at zero, and the ρ best-response divides
/// by ρ nowhere but clamps into these bounds everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RhoBounds {
    /// Minimum reliability `ρ_i^min`.
    pub min: f64,
    /// Maximum reliability `ρ_i^max`.
    pub max: f64,
}

impl RhoBounds {
    /// Creates bounds after checking `0 < min <= max <= 1` and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::InvalidRhoBounds`] when violated.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn new(min: f64, max: f64) -> Result<Self, ValidationError> {
        if !(min.is_finite() && max.is_finite()) || min <= 0.0 || min > max || max > 1.0 {
            return Err(ValidationError::InvalidRhoBounds { min, max });
        }
        Ok(Self { min, max })
    }

    /// Clamps a reliability into the bounds.
    pub fn clamp(&self, rho: f64) -> f64 {
        rho.clamp(self.min, self.max)
    }

    /// `true` if `rho` lies within the bounds up to `tol`.
    pub fn contains(&self, rho: f64, tol: f64) -> bool {
        rho >= self.min - tol && rho <= self.max + tol
    }

    /// Bounds pinned to a single value (`min == max == rho`): the
    /// "rate-only with fixed reliability" baseline of the integrated
    /// experiment.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::InvalidRhoBounds`] unless `0 < rho <= 1`.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn fixed(rho: f64) -> Result<Self, ValidationError> {
        Self::new(rho, rho)
    }
}

impl Default for RhoBounds {
    /// Full reliability (`[1, 1]`): a flow added to a problem that never
    /// set bounds for it demands complete delivery.
    fn default() -> Self {
        Self { min: 1.0, max: 1.0 }
    }
}

/// The optional joint rate–reliability extension of a [`Problem`]
/// (Lee–Chiang–Calderbank NUM): per-flow reliability bounds, per-link loss
/// rates, and a redundancy factor coupling ρ back into link usage.
///
/// When attached (see [`Problem::with_reliability`] /
/// [`ProblemBuilder::set_reliability`]), the engine may solve for a second
/// per-flow decision variable `ρ_i` whose utility `V_i(ρ) = w_i · ln(ρ)`
/// trades off against redundancy-inflated link usage
/// `L_{l,i} · r_i · (1 + redundancy · ρ_i · loss_l)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilitySpec {
    /// Per-flow reliability bounds, indexed by flow id.
    pub rho_bounds: Vec<RhoBounds>,
    /// Per-link loss rate `loss_l ∈ [0, 1)`, indexed by link id.
    pub link_loss: Vec<f64>,
    /// Redundancy factor `≥ 0` scaling how strongly a flow's ρ inflates
    /// its usage of lossy links.
    pub redundancy: f64,
}

impl ReliabilitySpec {
    /// A spec with the same bounds for every flow and the same loss on
    /// every link.
    pub fn uniform(
        num_flows: usize,
        num_links: usize,
        bounds: RhoBounds,
        loss: f64,
        redundancy: f64,
    ) -> Self {
        Self {
            rho_bounds: vec![bounds; num_flows],
            link_loss: vec![loss; num_links],
            redundancy,
        }
    }
}

/// An overlay node (broker) with a CPU-like capacity `c_b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Resource capacity `c_b` (e.g. CPU units/second).
    pub capacity: f64,
    /// Optional human-readable label (e.g. `"S0"` in the paper's workload).
    pub label: Option<String>,
}

/// A unidirectional overlay link with bandwidth-like capacity `c_l`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Resource capacity `c_l`.
    pub capacity: f64,
    /// Upstream endpoint, when topology is modelled.
    pub from: Option<NodeId>,
    /// Downstream endpoint, when topology is modelled.
    pub to: Option<NodeId>,
}

/// A message flow: a producer stream injected at a source node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source node at which the flow's producers attach and where the rate
    /// is decided (Algorithm 1 runs here).
    pub source: NodeId,
    /// Rate bounds (constraint (3)).
    pub bounds: RateBounds,
    /// Link costs `L_{l,i}` for every link the flow traverses; links absent
    /// here implicitly have zero cost (the flow does not traverse them).
    pub link_costs: Vec<(LinkId, f64)>,
    /// Flow-node costs `F_{b,i}` for every node the flow reaches.
    pub node_costs: Vec<(NodeId, f64)>,
}

/// A consumer class: a population of identical consumers of one flow,
/// attached to one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// The flow whose messages the class consumes (`flowMap(j)`).
    pub flow: FlowId,
    /// The node the class attaches to.
    pub node: NodeId,
    /// Maximum population `n_j^max` (constraint (2)).
    pub max_population: u32,
    /// Per-consumer utility `U_j(r)`.
    pub utility: Utility,
    /// Consumer-node cost `G_{b,j}`: node resource per consumer per unit
    /// rate.
    pub consumer_cost: f64,
}

/// Structural inconsistency detected while building a [`Problem`], or
/// between a problem and the state an engine is asked to take on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidationError {
    /// A referenced node id does not exist.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// A referenced link id does not exist.
    UnknownLink {
        /// The offending id.
        link: LinkId,
    },
    /// A referenced flow id does not exist.
    UnknownFlow {
        /// The offending id.
        flow: FlowId,
    },
    /// A node or link capacity is not strictly positive and finite.
    NonPositiveCapacity {
        /// Description of the resource (`"node3"`, `"link0"`).
        resource: String,
        /// The offending capacity.
        capacity: f64,
    },
    /// Rate bounds violate `0 <= min <= max` or are non-finite.
    InvalidRateBounds {
        /// Offending lower bound.
        min: f64,
        /// Offending upper bound.
        max: f64,
    },
    /// A cost coefficient is negative or non-finite.
    InvalidCost {
        /// Description of the coefficient (`"F[node2, flow1]"`).
        coefficient: String,
        /// The offending value.
        value: f64,
    },
    /// A class's consumer cost `G_{b,j}` must be strictly positive (the
    /// benefit–cost ratio (10) divides by it).
    NonPositiveConsumerCost {
        /// The offending class.
        class: ClassId,
        /// The offending cost.
        cost: f64,
    },
    /// A class's utility parameters lie outside the domain where the
    /// utility is increasing and concave: every weight must be finite and
    /// nonnegative, a `Power` exponent must lie in `(0, 1)`, and a
    /// `Saturating` scale must be finite and strictly positive.
    InvalidUtility {
        /// The offending class.
        class: ClassId,
        /// The offending utility.
        utility: Utility,
    },
    /// A class attaches to a node its flow does not reach (no `F_{b,i}`
    /// entry). §2.4's two-stage approximation requires the flow to be routed
    /// to every node hosting one of its classes.
    ClassNodeNotReached {
        /// The offending class.
        class: ClassId,
        /// The flow it consumes.
        flow: FlowId,
        /// The node it attaches to.
        node: NodeId,
    },
    /// The same link/node appears twice in a flow's cost list.
    DuplicateCost {
        /// Description of the duplicated coefficient.
        coefficient: String,
    },
    /// A referenced class id does not exist.
    UnknownClass {
        /// The offending id.
        class: ClassId,
    },
    /// A cost edit referenced a (flow, node) pair with no existing `F_{b,i}`
    /// entry. Cost edits never add or remove path entries — that would
    /// invalidate the derived index maps — so the entry must already exist.
    NoSuchCostEntry {
        /// Description of the missing coefficient (`"F[node2, flow1]"`).
        coefficient: String,
    },
    /// Reliability bounds violate `0 < min <= max <= 1` or are non-finite.
    InvalidRhoBounds {
        /// Offending lower bound.
        min: f64,
        /// Offending upper bound.
        max: f64,
    },
    /// A per-link loss rate lies outside `[0, 1)` or is non-finite.
    InvalidLossRate {
        /// The offending link.
        link: LinkId,
        /// The offending loss rate.
        loss: f64,
    },
    /// The redundancy factor is negative or non-finite.
    InvalidRedundancy {
        /// The offending value.
        value: f64,
    },
    /// A [`ReliabilitySpec`] vector does not match the problem's shape
    /// (one entry per flow / per link).
    ReliabilityShape {
        /// Which vector is misshapen (`"rho_bounds"`, `"link_loss"`).
        what: String,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A reliability edit targeted a problem with no [`ReliabilitySpec`]
    /// attached. Edits never attach a spec — that would change the
    /// problem's decision-variable shape mid-run.
    ReliabilityDisabled,
    /// An engine snapshot does not fit the problem it is restored over: one
    /// of its per-element vectors has the wrong length.
    SnapshotShape {
        /// Which vector is misshapen (`"rates"`, `"node prices"`, ...).
        what: String,
        /// The snapshot's length.
        snapshot: usize,
        /// The length the problem needs.
        problem: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownNode { node } => write!(f, "unknown node {node}"),
            ValidationError::UnknownLink { link } => write!(f, "unknown link {link}"),
            ValidationError::UnknownFlow { flow } => write!(f, "unknown flow {flow}"),
            ValidationError::NonPositiveCapacity { resource, capacity } => {
                write!(f, "capacity of {resource} must be positive, got {capacity}")
            }
            ValidationError::InvalidRateBounds { min, max } => {
                write!(f, "invalid rate bounds [{min}, {max}]")
            }
            ValidationError::InvalidCost { coefficient, value } => {
                write!(f, "cost {coefficient} must be nonnegative and finite, got {value}")
            }
            ValidationError::NonPositiveConsumerCost { class, cost } => {
                write!(f, "consumer cost of {class} must be positive, got {cost}")
            }
            ValidationError::InvalidUtility { class, utility } => write!(
                f,
                "utility {utility} of {class} is out of range (weight finite and \
                 nonnegative, power exponent in (0, 1), saturating scale finite and positive)"
            ),
            ValidationError::ClassNodeNotReached { class, flow, node } => {
                write!(f, "{class} attaches to {node} but {flow} does not reach it")
            }
            ValidationError::DuplicateCost { coefficient } => {
                write!(f, "duplicate cost entry for {coefficient}")
            }
            ValidationError::UnknownClass { class } => write!(f, "unknown class {class}"),
            ValidationError::NoSuchCostEntry { coefficient } => {
                write!(f, "no cost entry for {coefficient}")
            }
            ValidationError::InvalidRhoBounds { min, max } => {
                write!(f, "invalid reliability bounds [{min}, {max}]")
            }
            ValidationError::InvalidLossRate { link, loss } => {
                write!(f, "loss rate of {link} must lie in [0, 1), got {loss}")
            }
            ValidationError::InvalidRedundancy { value } => {
                write!(f, "redundancy factor must be nonnegative and finite, got {value}")
            }
            ValidationError::ReliabilityShape { what, expected, actual } => {
                write!(f, "reliability {what} must have {expected} entries, got {actual}")
            }
            ValidationError::ReliabilityDisabled => {
                write!(f, "problem has no reliability spec attached")
            }
            ValidationError::SnapshotShape { what, snapshot, problem } => {
                write!(f, "snapshot carries {snapshot} {what}, the problem needs {problem}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A validated problem instance. It changes only through a
/// [`crate::ProblemDelta`], which keeps it valid.
///
/// Besides the raw specification, a `Problem` precomputes the index maps the
/// paper names `flowMap`, `linkMap`, `nodeMap`, `attachMap` and
/// `nodeClasses`, so the optimizer can iterate without hashing. Every index
/// lists its ids in ascending order.
///
/// Serialization writes only the primary data (nodes, links, flows,
/// classes, reliability). Deserialization reads it into a
/// [`ProblemBuilder`] and runs [`ProblemBuilder::build`], so a loaded
/// problem is validated and its indexes are derived, never trusted.
///
/// # Examples
///
/// ```
/// use lrgp_model::{ProblemBuilder, RateBounds, Utility};
///
/// # fn main() -> Result<(), lrgp_model::ValidationError> {
/// let mut b = ProblemBuilder::new();
/// let src = b.add_node(1e6);
/// let sink = b.add_node(9e5);
/// let flow = b.add_flow(src, RateBounds::new(10.0, 1000.0)?);
/// b.set_node_cost(flow, sink, 3.0);
/// b.add_class(flow, sink, 400, Utility::log(20.0), 19.0);
/// let problem = b.build()?;
/// assert_eq!(problem.num_flows(), 1);
/// assert_eq!(problem.num_classes(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    flows: Vec<FlowSpec>,
    classes: Vec<ClassSpec>,
    /// Optional joint rate–reliability extension; `None` (the default,
    /// and what a serialized problem without the key loads as) leaves the
    /// problem a pure rate NUM.
    reliability: Option<ReliabilitySpec>,
    // Derived indices.
    classes_of_flow: Vec<Vec<ClassId>>,
    classes_at_node: Vec<Vec<ClassId>>,
    flows_at_node: Vec<Vec<FlowId>>,
    flows_on_link: Vec<Vec<FlowId>>,
}

impl Serialize for Problem {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("links".to_string(), self.links.to_value()),
            ("flows".to_string(), self.flows.to_value()),
            ("classes".to_string(), self.classes.to_value()),
            ("reliability".to_string(), self.reliability.to_value()),
        ])
    }
}

impl Deserialize for Problem {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::DeError> {
        ProblemBuilder::deserialize(r)?.build().map_err(serde::DeError::custom)
    }
}

impl Problem {
    /// Number of overlay nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of overlay links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of consumer classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The node specification for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this problem never are).
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// The link specification for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.index()]
    }

    /// The flow specification for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn flow(&self, id: FlowId) -> &FlowSpec {
        &self.flows[id.index()]
    }

    /// The class specification for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &ClassSpec {
        &self.classes[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// Iterates over all flow ids.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        (0..self.flows.len() as u32).map(FlowId::new)
    }

    /// Iterates over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId::new)
    }

    /// `C_i`: the classes consuming flow `flow`.
    pub fn classes_of_flow(&self, flow: FlowId) -> &[ClassId] {
        &self.classes_of_flow[flow.index()]
    }

    /// `nodeClasses(b)`: every class attached to `node` (any flow).
    pub fn classes_at_node(&self, node: NodeId) -> &[ClassId] {
        &self.classes_at_node[node.index()]
    }

    /// `attachMap_i(b)`: the classes of `flow` attached to `node`, in
    /// ascending id.
    ///
    /// Filters the shorter of [`Self::classes_of_flow`] and
    /// [`Self::classes_at_node`], so the cost is
    /// `O(min(|C_i|, |nodeClasses(b)|))`. Both lists are in ascending id, so
    /// either filter yields the same classes in the same order.
    pub fn classes_of_flow_at_node(
        &self,
        flow: FlowId,
        node: NodeId,
    ) -> impl Iterator<Item = ClassId> + '_ {
        let of_flow = &self.classes_of_flow[flow.index()];
        let at_node = &self.classes_at_node[node.index()];
        let by_flow = of_flow.len() <= at_node.len();
        let shorter = if by_flow { of_flow } else { at_node };
        shorter.iter().copied().filter(move |&c| {
            let class = &self.classes[c.index()];
            if by_flow {
                class.node == node
            } else {
                class.flow == flow
            }
        })
    }

    /// `nodeMap(b)`: the flows that reach `node` (those with an `F_{b,i}`
    /// entry for it).
    pub fn flows_at_node(&self, node: NodeId) -> &[FlowId] {
        &self.flows_at_node[node.index()]
    }

    /// `linkMap(l)`: the flows traversing `link`.
    pub fn flows_on_link(&self, link: LinkId) -> &[FlowId] {
        &self.flows_on_link[link.index()]
    }

    /// `B_i`: the nodes reached by `flow`, with their `F_{b,i}` costs.
    pub fn nodes_of_flow(&self, flow: FlowId) -> &[(NodeId, f64)] {
        &self.flows[flow.index()].node_costs
    }

    /// `L_i`: the links traversed by `flow`, with their `L_{l,i}` costs.
    pub fn links_of_flow(&self, flow: FlowId) -> &[(LinkId, f64)] {
        &self.flows[flow.index()].link_costs
    }

    /// Flow-node cost `F_{b,i}`, zero when the flow does not reach the node.
    pub fn flow_node_cost(&self, node: NodeId, flow: FlowId) -> f64 {
        self.flows[flow.index()]
            .node_costs
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// Link cost `L_{l,i}`, zero when the flow does not traverse the link.
    pub fn link_cost(&self, link: LinkId, flow: FlowId) -> f64 {
        self.flows[flow.index()]
            .link_costs
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// Sum of `n_j^max` over all classes (the total consumer demand).
    pub fn total_demand(&self) -> u64 {
        self.classes.iter().map(|c| c.max_population as u64).sum()
    }

    /// The joint rate–reliability extension, when one is attached.
    pub fn reliability(&self) -> Option<&ReliabilitySpec> {
        self.reliability.as_ref()
    }

    /// Per-link loss rate `loss_l`; zero when no spec is attached or the
    /// id is out of range.
    pub fn link_loss(&self, link: LinkId) -> f64 {
        self.reliability
            .as_ref()
            .and_then(|s| s.link_loss.get(link.index()).copied())
            .unwrap_or(0.0)
    }

    /// Flow `flow`'s reliability bounds, when a spec is attached.
    pub fn rho_bounds(&self, flow: FlowId) -> Option<RhoBounds> {
        self.reliability
            .as_ref()
            .and_then(|s| s.rho_bounds.get(flow.index()).copied())
    }

    /// Returns a copy of this problem with every class utility replaced by
    /// `shape` at the class's current weight: the §4.5 utility-shape
    /// variants of a workload. Weights are kept, so the copy is as valid as
    /// the original.
    pub fn with_utility_shape(&self, shape: UtilityShape) -> Problem {
        let mut p = self.clone();
        for class in &mut p.classes {
            class.utility = shape.build(class.utility.weight());
        }
        p
    }

    /// Removes `flow` in place (a flow source leaves, §4.2 Fig. 3) and
    /// returns what it overwrote: its rate bounds collapse to `[0, 0]`, its
    /// costs and its classes' populations to zero. Ids are not renumbered,
    /// so traces remain comparable across the change.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn remove_flow_in_place(&mut self, flow: FlowId) -> Result<Undo, ValidationError> {
        let spec = self.flows.get_mut(flow.index()).ok_or(ValidationError::UnknownFlow { flow })?;
        let before = spec.clone();
        spec.bounds = RateBounds { min: 0.0, max: 0.0 };
        // A removed flow consumes no resources.
        spec.node_costs.iter_mut().for_each(|(_, c)| *c = 0.0);
        spec.link_costs.iter_mut().for_each(|(_, c)| *c = 0.0);
        let max_populations = self.classes_of_flow[flow.index()]
            .iter()
            .map(|&class| std::mem::replace(&mut self.classes[class.index()].max_population, 0))
            .collect();
        Ok(Undo::RemoveFlow { flow, spec: before, max_populations })
    }

    /// Replaces `node`'s capacity in place; validates before it mutates and
    /// returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_node_capacity_in_place(
        &mut self,
        node: NodeId,
        capacity: f64,
    ) -> Result<Undo, ValidationError> {
        let spec = self.nodes.get_mut(node.index()).ok_or(ValidationError::UnknownNode { node })?;
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(ValidationError::NonPositiveCapacity {
                resource: node.to_string(),
                capacity,
            });
        }
        let capacity = std::mem::replace(&mut spec.capacity, capacity);
        Ok(Undo::NodeCapacity { node, capacity })
    }

    /// Replaces `class`'s maximum population in place (consumers arriving
    /// or departing) and returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_max_population_in_place(
        &mut self,
        class: ClassId,
        max_population: u32,
    ) -> Result<Undo, ValidationError> {
        let spec =
            self.classes.get_mut(class.index()).ok_or(ValidationError::UnknownClass { class })?;
        let max_population = std::mem::replace(&mut spec.max_population, max_population);
        Ok(Undo::MaxPopulation { class, max_population })
    }

    /// Replaces `flow`'s rate bounds in place; validates before it mutates
    /// and returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_rate_bounds_in_place(
        &mut self,
        flow: FlowId,
        bounds: RateBounds,
    ) -> Result<Undo, ValidationError> {
        let spec = self.flows.get_mut(flow.index()).ok_or(ValidationError::UnknownFlow { flow })?;
        RateBounds::new(bounds.min, bounds.max)?;
        let bounds = std::mem::replace(&mut spec.bounds, bounds);
        Ok(Undo::RateBounds { flow, bounds })
    }

    /// Replaces `link`'s capacity in place; validates before it mutates and
    /// returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_link_capacity_in_place(
        &mut self,
        link: LinkId,
        capacity: f64,
    ) -> Result<Undo, ValidationError> {
        let spec = self.links.get_mut(link.index()).ok_or(ValidationError::UnknownLink { link })?;
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(ValidationError::NonPositiveCapacity {
                resource: link.to_string(),
                capacity,
            });
        }
        let capacity = std::mem::replace(&mut spec.capacity, capacity);
        Ok(Undo::LinkCapacity { link, capacity })
    }

    /// Replaces the `F_{b,i}` coefficient of an *existing* (flow, node) path
    /// entry in place; validates before it mutates and returns what it
    /// overwrote. A cost of `0.0` models a pruned branch (§2.4) without
    /// touching the path structure, so ids and the derived index maps stay
    /// stable.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_flow_node_cost_in_place(
        &mut self,
        flow: FlowId,
        node: NodeId,
        cost: f64,
    ) -> Result<Undo, ValidationError> {
        if flow.index() >= self.flows.len() {
            return Err(ValidationError::UnknownFlow { flow });
        }
        if node.index() >= self.nodes.len() {
            return Err(ValidationError::UnknownNode { node });
        }
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(ValidationError::InvalidCost {
                coefficient: format!("F[{node}, {flow}]"),
                value: cost,
            });
        }
        let costs = &mut self.flows[flow.index()].node_costs;
        let entry = costs.iter().position(|(n, _)| *n == node).ok_or(
            ValidationError::NoSuchCostEntry { coefficient: format!("F[{node}, {flow}]") },
        )?;
        let cost = std::mem::replace(&mut costs[entry].1, cost);
        Ok(Undo::FlowNodeCost { flow, entry, cost })
    }

    /// Returns a copy with the joint rate–reliability extension `spec`
    /// attached (replacing any previous one).
    ///
    /// # Errors
    ///
    /// [`ValidationError::ReliabilityShape`] when a vector does not have
    /// one entry per flow / per link, [`ValidationError::InvalidRhoBounds`]
    /// / [`ValidationError::InvalidLossRate`] /
    /// [`ValidationError::InvalidRedundancy`] on out-of-range values.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn with_reliability(&self, spec: ReliabilitySpec) -> Result<Problem, ValidationError> {
        validate_reliability(&spec, self.flows.len(), self.links.len())?;
        let mut p = self.clone();
        p.reliability = Some(spec);
        Ok(p)
    }

    /// Returns a copy with the reliability extension removed: the
    /// rate-only baseline of the integrated-allocation experiment.
    pub fn without_reliability(&self) -> Problem {
        let mut p = self.clone();
        p.reliability = None;
        p
    }

    /// Replaces `link`'s loss rate in place; validates before it mutates
    /// and returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_link_loss_in_place(
        &mut self,
        link: LinkId,
        loss: f64,
    ) -> Result<Undo, ValidationError> {
        if link.index() >= self.links.len() {
            return Err(ValidationError::UnknownLink { link });
        }
        if !(loss.is_finite() && (0.0..1.0).contains(&loss)) {
            return Err(ValidationError::InvalidLossRate { link, loss });
        }
        let spec = self.reliability.as_mut().ok_or(ValidationError::ReliabilityDisabled)?;
        let loss = std::mem::replace(&mut spec.link_loss[link.index()], loss);
        Ok(Undo::LinkLoss { link, loss })
    }

    /// Replaces `flow`'s reliability bounds in place; validates before it
    /// mutates and returns what it overwrote.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn set_rho_bounds_in_place(
        &mut self,
        flow: FlowId,
        bounds: RhoBounds,
    ) -> Result<Undo, ValidationError> {
        if flow.index() >= self.flows.len() {
            return Err(ValidationError::UnknownFlow { flow });
        }
        RhoBounds::new(bounds.min, bounds.max)?;
        let spec = self.reliability.as_mut().ok_or(ValidationError::ReliabilityDisabled)?;
        let bounds = std::mem::replace(&mut spec.rho_bounds[flow.index()], bounds);
        Ok(Undo::RhoBounds { flow, bounds })
    }

    /// Appends a new flow and its consumer classes in place and returns
    /// the undo record. Existing ids are untouched; the new flow takes the
    /// next flow id and the classes take the next class ids, in the given
    /// order. The `flow` field of each [`ClassSpec`] is overwritten with the
    /// new flow's id.
    ///
    /// The new flow and classes pass the same checks [`ProblemBuilder::build`]
    /// applies, before anything moves, so on `Err` the problem is unchanged
    /// and on `Ok` it equals a from-scratch build. The rest of what `build`
    /// checks is the existing data, which every `Problem` already passed.
    /// The new ids are the largest, so appending them to the index rows
    /// they join keeps every row ascending, as `build` derives it.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub(crate) fn add_flow_in_place(
        &mut self,
        flow: FlowSpec,
        mut classes: Vec<ClassSpec>,
    ) -> Result<Undo, ValidationError> {
        let n_nodes = self.nodes.len();
        let fid = FlowId::new(self.flows.len() as u32);
        validate_flow(fid, &flow, n_nodes, self.links.len())?;
        for (k, class) in classes.iter_mut().enumerate() {
            class.flow = fid;
            let cid = ClassId::new((self.classes.len() + k) as u32);
            validate_class(cid, class, Some(&flow), n_nodes)?;
        }

        for &(node, _) in &flow.node_costs {
            self.flows_at_node[node.index()].push(fid);
        }
        for &(link, _) in &flow.link_costs {
            self.flows_on_link[link.index()].push(fid);
        }
        let mut of_flow = Vec::with_capacity(classes.len());
        for class in classes {
            let cid = ClassId::new(self.classes.len() as u32);
            self.classes_at_node[class.node.index()].push(cid);
            of_flow.push(cid);
            self.classes.push(class);
        }
        self.classes_of_flow.push(of_flow);
        self.flows.push(flow);
        if let Some(spec) = &mut self.reliability {
            // The grown flow dimension keeps the spec's shape invariant;
            // the new flow demands full reliability until edited.
            spec.rho_bounds.push(RhoBounds::default());
        }
        Ok(Undo::AddFlow)
    }

    /// Writes back what an in-place edit overwrote. Records must be undone
    /// newest first, so that each finds the problem as its edit left it.
    pub(crate) fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::NodeCapacity { node, capacity } => self.nodes[node.index()].capacity = capacity,
            Undo::LinkCapacity { link, capacity } => self.links[link.index()].capacity = capacity,
            Undo::MaxPopulation { class, max_population } => {
                self.classes[class.index()].max_population = max_population;
            }
            Undo::RateBounds { flow, bounds } => self.flows[flow.index()].bounds = bounds,
            Undo::FlowNodeCost { flow, entry, cost } => {
                self.flows[flow.index()].node_costs[entry].1 = cost;
            }
            // The edits these undo succeeded, so a spec is attached.
            Undo::LinkLoss { link, loss } => {
                if let Some(spec) = &mut self.reliability {
                    spec.link_loss[link.index()] = loss;
                }
            }
            Undo::RhoBounds { flow, bounds } => {
                if let Some(spec) = &mut self.reliability {
                    spec.rho_bounds[flow.index()] = bounds;
                }
            }
            Undo::RemoveFlow { flow, spec, max_populations } => {
                self.flows[flow.index()] = spec;
                let classes = &self.classes_of_flow[flow.index()];
                for (&class, max_population) in classes.iter().zip(max_populations) {
                    self.classes[class.index()].max_population = max_population;
                }
            }
            Undo::AddFlow => {
                // The added flow and its classes hold the largest ids, so
                // each sits at the end of every index row it joined.
                let Some(flow) = self.flows.pop() else { return };
                for &(node, _) in &flow.node_costs {
                    self.flows_at_node[node.index()].pop();
                }
                for &(link, _) in &flow.link_costs {
                    self.flows_on_link[link.index()].pop();
                }
                for _ in self.classes_of_flow.pop().unwrap_or_default() {
                    if let Some(class) = self.classes.pop() {
                        self.classes_at_node[class.node.index()].pop();
                    }
                }
                if let Some(spec) = &mut self.reliability {
                    spec.rho_bounds.pop();
                }
            }
        }
    }
}

/// What one in-place edit of a [`Problem`] overwrote, so that
/// [`Problem::undo`] can write it back. The scalar edits record the old
/// value; a removal records the flow's old spec and its classes' old maxima,
/// in `classes_of_flow` order; a flow addition records nothing, since its
/// ids are the last ones.
pub(crate) enum Undo {
    NodeCapacity { node: NodeId, capacity: f64 },
    LinkCapacity { link: LinkId, capacity: f64 },
    MaxPopulation { class: ClassId, max_population: u32 },
    RateBounds { flow: FlowId, bounds: RateBounds },
    /// `entry` indexes the flow's `node_costs`.
    FlowNodeCost { flow: FlowId, entry: usize, cost: f64 },
    LinkLoss { link: LinkId, loss: f64 },
    RhoBounds { flow: FlowId, bounds: RhoBounds },
    RemoveFlow { flow: FlowId, spec: FlowSpec, max_populations: Vec<u32> },
    AddFlow,
}

/// Incremental, validating constructor for [`Problem`] ([C-BUILDER]).
///
/// A builder deserializes from a serialized [`Problem`]'s primary data;
/// that is how every problem load reaches [`Self::build`].
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ProblemBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    flows: Vec<FlowSpec>,
    classes: Vec<ClassSpec>,
    reliability: Option<ReliabilitySpec>,
}

impl ProblemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given capacity; returns its id.
    pub fn add_node(&mut self, capacity: f64) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeSpec { capacity, label: None });
        id
    }

    /// Adds a labelled node (labels like `"S0"` aid debugging and reports).
    pub fn add_labeled_node(&mut self, capacity: f64, label: impl Into<String>) -> NodeId {
        let id = self.add_node(capacity);
        self.nodes[id.index()].label = Some(label.into());
        id
    }

    /// Adds a link with the given capacity and no endpoints; returns its id.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(LinkSpec { capacity, from: None, to: None });
        id
    }

    /// Adds a link between two nodes; returns its id.
    pub fn add_link_between(&mut self, capacity: f64, from: NodeId, to: NodeId) -> LinkId {
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(LinkSpec { capacity, from: Some(from), to: Some(to) });
        id
    }

    /// Adds a flow injected at `source` with the given rate bounds; returns
    /// its id. Costs start empty; add them with [`Self::set_node_cost`] and
    /// [`Self::set_link_cost`].
    pub fn add_flow(&mut self, source: NodeId, bounds: RateBounds) -> FlowId {
        let id = FlowId::new(self.flows.len() as u32);
        self.flows.push(FlowSpec { source, bounds, link_costs: Vec::new(), node_costs: Vec::new() });
        id
    }

    /// Declares that `flow` reaches `node` at flow-node cost `F_{b,i}`.
    /// Overwrites a previous entry for the same pair.
    pub fn set_node_cost(&mut self, flow: FlowId, node: NodeId, cost: f64) -> &mut Self {
        let costs = &mut self.flows[flow.index()].node_costs;
        if let Some(entry) = costs.iter_mut().find(|(n, _)| *n == node) {
            entry.1 = cost;
        } else {
            costs.push((node, cost));
        }
        self
    }

    /// Declares that `flow` traverses `link` at link cost `L_{l,i}`.
    /// Overwrites a previous entry for the same pair.
    pub fn set_link_cost(&mut self, flow: FlowId, link: LinkId, cost: f64) -> &mut Self {
        let costs = &mut self.flows[flow.index()].link_costs;
        if let Some(entry) = costs.iter_mut().find(|(l, _)| *l == link) {
            entry.1 = cost;
        } else {
            costs.push((link, cost));
        }
        self
    }

    /// Attaches the joint rate–reliability extension. Validated against
    /// the *final* flow/link counts by [`Self::build`], so it may be set
    /// before or after the flows and links it describes.
    pub fn set_reliability(&mut self, spec: ReliabilitySpec) -> &mut Self {
        self.reliability = Some(spec);
        self
    }

    /// Adds a consumer class; returns its id.
    pub fn add_class(
        &mut self,
        flow: FlowId,
        node: NodeId,
        max_population: u32,
        utility: Utility,
        consumer_cost: f64,
    ) -> ClassId {
        let id = ClassId::new(self.classes.len() as u32);
        self.classes.push(ClassSpec { flow, node, max_population, utility, consumer_cost });
        id
    }

    /// Validates and finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] encountered: dangling ids,
    /// non-positive capacities, invalid rate bounds, negative costs,
    /// non-positive consumer costs, utility parameters out of range,
    /// classes attached to unreached nodes, or duplicate cost entries.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn build(self) -> Result<Problem, ValidationError> {
        let n_nodes = self.nodes.len();
        let n_links = self.links.len();

        for (i, node) in self.nodes.iter().enumerate() {
            if !(node.capacity.is_finite() && node.capacity > 0.0) {
                return Err(ValidationError::NonPositiveCapacity {
                    resource: NodeId::new(i as u32).to_string(),
                    capacity: node.capacity,
                });
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if !(link.capacity.is_finite() && link.capacity > 0.0) {
                return Err(ValidationError::NonPositiveCapacity {
                    resource: LinkId::new(i as u32).to_string(),
                    capacity: link.capacity,
                });
            }
            for endpoint in [link.from, link.to].into_iter().flatten() {
                if endpoint.index() >= n_nodes {
                    return Err(ValidationError::UnknownNode { node: endpoint });
                }
            }
        }
        for (i, flow) in self.flows.iter().enumerate() {
            validate_flow(FlowId::new(i as u32), flow, n_nodes, n_links)?;
        }
        for (i, class) in self.classes.iter().enumerate() {
            let flow = self.flows.get(class.flow.index());
            validate_class(ClassId::new(i as u32), class, flow, n_nodes)?;
        }
        if let Some(spec) = &self.reliability {
            validate_reliability(spec, self.flows.len(), n_links)?;
        }

        // Build derived indices. Each row is allocated once at its final
        // length, in row order, so consecutive rows sit close together in
        // memory; the executor walks them every step.
        let n_flows = self.flows.len();
        let mut classes_of_flow = index_rows(n_flows, self.classes.iter().map(|c| c.flow.index()));
        let mut classes_at_node = index_rows(n_nodes, self.classes.iter().map(|c| c.node.index()));
        let mut flows_at_node = index_rows(
            n_nodes,
            self.flows.iter().flat_map(|f| f.node_costs.iter().map(|&(n, _)| n.index())),
        );
        let mut flows_on_link = index_rows(
            n_links,
            self.flows.iter().flat_map(|f| f.link_costs.iter().map(|&(l, _)| l.index())),
        );
        for (i, class) in self.classes.iter().enumerate() {
            let cid = ClassId::new(i as u32);
            classes_of_flow[class.flow.index()].push(cid);
            classes_at_node[class.node.index()].push(cid);
        }
        for (i, flow) in self.flows.iter().enumerate() {
            let fid = FlowId::new(i as u32);
            for &(node, _) in &flow.node_costs {
                flows_at_node[node.index()].push(fid);
            }
            for &(link, _) in &flow.link_costs {
                flows_on_link[link.index()].push(fid);
            }
        }

        Ok(Problem {
            nodes: self.nodes,
            links: self.links,
            flows: self.flows,
            classes: self.classes,
            reliability: self.reliability,
            classes_of_flow,
            classes_at_node,
            flows_at_node,
            flows_on_link,
        })
    }
}

/// `n` empty index rows, row `r` with capacity for every occurrence of `r`
/// in `slots`.
fn index_rows<T>(n: usize, slots: impl Iterator<Item = usize>) -> Vec<Vec<T>> {
    let mut counts = vec![0usize; n];
    for slot in slots {
        counts[slot] += 1;
    }
    counts.into_iter().map(Vec::with_capacity).collect()
}

/// Checks flow `fid` against a problem with `n_nodes` nodes and `n_links`
/// links: a known source, valid bounds, and costs that are finite,
/// nonnegative, reference known ids and appear once each.
fn validate_flow(
    fid: FlowId,
    flow: &FlowSpec,
    n_nodes: usize,
    n_links: usize,
) -> Result<(), ValidationError> {
    if flow.source.index() >= n_nodes {
        return Err(ValidationError::UnknownNode { node: flow.source });
    }
    // Re-validate bounds (they may have been constructed directly).
    RateBounds::new(flow.bounds.min, flow.bounds.max)?;
    let mut seen_nodes = Vec::new();
    for &(node, cost) in &flow.node_costs {
        if node.index() >= n_nodes {
            return Err(ValidationError::UnknownNode { node });
        }
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(ValidationError::InvalidCost {
                coefficient: format!("F[{node}, {fid}]"),
                value: cost,
            });
        }
        if seen_nodes.contains(&node) {
            return Err(ValidationError::DuplicateCost {
                coefficient: format!("F[{node}, {fid}]"),
            });
        }
        seen_nodes.push(node);
    }
    let mut seen_links = Vec::new();
    for &(link, cost) in &flow.link_costs {
        if link.index() >= n_links {
            return Err(ValidationError::UnknownLink { link });
        }
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(ValidationError::InvalidCost {
                coefficient: format!("L[{link}, {fid}]"),
                value: cost,
            });
        }
        if seen_links.contains(&link) {
            return Err(ValidationError::DuplicateCost {
                coefficient: format!("L[{link}, {fid}]"),
            });
        }
        seen_links.push(link);
    }
    Ok(())
}

/// Checks class `cid` against its flow's spec (`None` when `class.flow` is
/// out of range) in a problem with `n_nodes` nodes: a known node the flow
/// reaches, a strictly positive consumer cost, and utility parameters in
/// range.
fn validate_class(
    cid: ClassId,
    class: &ClassSpec,
    flow: Option<&FlowSpec>,
    n_nodes: usize,
) -> Result<(), ValidationError> {
    let flow = flow.ok_or(ValidationError::UnknownFlow { flow: class.flow })?;
    if class.node.index() >= n_nodes {
        return Err(ValidationError::UnknownNode { node: class.node });
    }
    if !(class.consumer_cost.is_finite() && class.consumer_cost > 0.0) {
        return Err(ValidationError::NonPositiveConsumerCost {
            class: cid,
            cost: class.consumer_cost,
        });
    }
    if !utility_in_range(&class.utility) {
        return Err(ValidationError::InvalidUtility { class: cid, utility: class.utility });
    }
    if !flow.node_costs.iter().any(|(n, _)| *n == class.node) {
        return Err(ValidationError::ClassNodeNotReached {
            class: cid,
            flow: class.flow,
            node: class.node,
        });
    }
    Ok(())
}

/// Whether `utility`'s parameters are those [`ValidationError::InvalidUtility`]
/// asks for. Deserialized utilities bypass the asserts in
/// [`Utility::power`] and [`Utility::saturating`], so this is where they
/// are checked.
fn utility_in_range(utility: &Utility) -> bool {
    let shape = match *utility {
        Utility::Power { exponent, .. } => exponent > 0.0 && exponent < 1.0,
        Utility::Saturating { scale, .. } => scale.is_finite() && scale > 0.0,
        Utility::Log { .. } | Utility::Linear { .. } => true,
    };
    let weight = utility.weight();
    shape && weight.is_finite() && weight >= 0.0
}

/// Checks a [`ReliabilitySpec`] against the problem shape: one bounds
/// entry per flow, one loss entry per link, every value in range.
fn validate_reliability(
    spec: &ReliabilitySpec,
    n_flows: usize,
    n_links: usize,
) -> Result<(), ValidationError> {
    if spec.rho_bounds.len() != n_flows {
        return Err(ValidationError::ReliabilityShape {
            what: "rho_bounds".to_string(),
            expected: n_flows,
            actual: spec.rho_bounds.len(),
        });
    }
    if spec.link_loss.len() != n_links {
        return Err(ValidationError::ReliabilityShape {
            what: "link_loss".to_string(),
            expected: n_links,
            actual: spec.link_loss.len(),
        });
    }
    for bounds in &spec.rho_bounds {
        RhoBounds::new(bounds.min, bounds.max)?;
    }
    for (i, &loss) in spec.link_loss.iter().enumerate() {
        if !(loss.is_finite() && (0.0..1.0).contains(&loss)) {
            return Err(ValidationError::InvalidLossRate { link: LinkId::new(i as u32), loss });
        }
    }
    if !(spec.redundancy.is_finite() && spec.redundancy >= 0.0) {
        return Err(ValidationError::InvalidRedundancy { value: spec.redundancy });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProblemBuilder {
        let mut b = ProblemBuilder::new();
        let src = b.add_labeled_node(1e6, "src");
        let sink = b.add_labeled_node(9e5, "S0");
        let f = b.add_flow(src, RateBounds::new(10.0, 1000.0).unwrap());
        b.set_node_cost(f, sink, 3.0);
        b.add_class(f, sink, 400, Utility::log(20.0), 19.0);
        b
    }

    #[test]
    fn builds_and_exposes_indices() {
        let p = tiny().build().unwrap();
        assert_eq!(p.num_nodes(), 2);
        assert_eq!(p.num_flows(), 1);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.num_links(), 0);
        let f0 = FlowId::new(0);
        let sink = NodeId::new(1);
        assert_eq!(p.classes_of_flow(f0), &[ClassId::new(0)]);
        assert_eq!(p.classes_at_node(sink), &[ClassId::new(0)]);
        assert_eq!(p.flows_at_node(sink), &[f0]);
        assert!(p.flows_at_node(NodeId::new(0)).is_empty());
        assert_eq!(p.flow_node_cost(sink, f0), 3.0);
        assert_eq!(p.flow_node_cost(NodeId::new(0), f0), 0.0);
        assert_eq!(p.node(sink).label.as_deref(), Some("S0"));
        assert_eq!(p.total_demand(), 400);
        let attached: Vec<_> = p.classes_of_flow_at_node(f0, sink).collect();
        assert_eq!(attached, vec![ClassId::new(0)]);
    }

    #[test]
    fn rate_bounds_validation() {
        assert!(RateBounds::new(10.0, 1000.0).is_ok());
        assert!(RateBounds::new(-1.0, 5.0).is_err());
        assert!(RateBounds::new(5.0, 1.0).is_err());
        assert!(RateBounds::new(0.0, f64::INFINITY).is_err());
        let b = RateBounds::new(10.0, 100.0).unwrap();
        assert_eq!(b.clamp(5.0), 10.0);
        assert_eq!(b.clamp(500.0), 100.0);
        assert_eq!(b.clamp(50.0), 50.0);
        assert!(b.contains(10.0, 0.0));
        assert!(!b.contains(9.0, 0.5));
        assert_eq!(b.width(), 90.0);
    }

    #[test]
    fn rejects_dangling_class_flow() {
        let mut b = tiny();
        b.add_class(FlowId::new(7), NodeId::new(1), 1, Utility::log(1.0), 19.0);
        assert!(matches!(b.build().unwrap_err(), ValidationError::UnknownFlow { .. }));
    }

    #[test]
    fn rejects_dangling_class_node() {
        let mut b = tiny();
        b.add_class(FlowId::new(0), NodeId::new(9), 1, Utility::log(1.0), 19.0);
        assert!(matches!(b.build().unwrap_err(), ValidationError::UnknownNode { .. }));
    }

    #[test]
    fn rejects_class_on_unreached_node() {
        let mut b = tiny();
        let lonely = b.add_node(1e5);
        b.add_class(FlowId::new(0), lonely, 1, Utility::log(1.0), 19.0);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ValidationError::ClassNodeNotReached { .. }));
        assert!(err.to_string().contains("does not reach"));
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut b = ProblemBuilder::new();
        b.add_node(0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidationError::NonPositiveCapacity { .. }
        ));
    }

    #[test]
    fn rejects_zero_capacity_link() {
        let mut b = tiny();
        b.add_link(0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidationError::NonPositiveCapacity { .. }
        ));
    }

    #[test]
    fn rejects_negative_cost() {
        let mut b = tiny();
        let sink = NodeId::new(1);
        b.set_node_cost(FlowId::new(0), sink, -1.0);
        assert!(matches!(b.build().unwrap_err(), ValidationError::InvalidCost { .. }));
    }

    #[test]
    fn rejects_zero_consumer_cost() {
        let mut b = tiny();
        b.add_class(FlowId::new(0), NodeId::new(1), 1, Utility::log(1.0), 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidationError::NonPositiveConsumerCost { .. }
        ));
    }

    #[test]
    fn rejects_dangling_link_endpoint() {
        let mut b = ProblemBuilder::new();
        let a = b.add_node(1.0);
        b.add_link_between(1.0, a, NodeId::new(42));
        assert!(matches!(b.build().unwrap_err(), ValidationError::UnknownNode { .. }));
    }

    #[test]
    fn set_cost_overwrites_instead_of_duplicating() {
        let mut b = tiny();
        b.set_node_cost(FlowId::new(0), NodeId::new(1), 5.0);
        let p = b.build().unwrap();
        assert_eq!(p.flow_node_cost(NodeId::new(1), FlowId::new(0)), 5.0);
        assert_eq!(p.nodes_of_flow(FlowId::new(0)).len(), 1);
    }

    #[test]
    fn link_costs_round_trip() {
        let mut b = tiny();
        let l = b.add_link(1e6);
        b.set_link_cost(FlowId::new(0), l, 2.0);
        let p = b.build().unwrap();
        assert_eq!(p.link_cost(l, FlowId::new(0)), 2.0);
        assert_eq!(p.flows_on_link(l), &[FlowId::new(0)]);
        assert_eq!(p.links_of_flow(FlowId::new(0)), &[(l, 2.0)]);
        assert_eq!(p.link(l).capacity, 1e6);
    }

    #[test]
    fn with_utility_shape_swaps_shape_preserving_rank() {
        let p = tiny().build().unwrap();
        let q = p.with_utility_shape(UtilityShape::Pow50);
        assert_eq!(q.class(ClassId::new(0)).utility, Utility::power(20.0, 0.5));
        // Original untouched.
        assert_eq!(p.class(ClassId::new(0)).utility, Utility::log(20.0));
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError::UnknownFlow { flow: FlowId::new(3) };
        assert_eq!(e.to_string(), "unknown flow flow3");
        let e = ValidationError::InvalidRateBounds { min: 5.0, max: 1.0 };
        assert!(e.to_string().contains("[5, 1]"));
        let e = ValidationError::InvalidRhoBounds { min: 0.0, max: 0.5 };
        assert!(e.to_string().contains("reliability bounds"));
        let e = ValidationError::InvalidLossRate { link: LinkId::new(2), loss: 1.5 };
        assert!(e.to_string().contains("loss rate"));
        let e = ValidationError::ReliabilityDisabled;
        assert!(e.to_string().contains("no reliability spec"));
    }

    #[test]
    fn rho_bounds_validation() {
        assert!(RhoBounds::new(0.5, 0.999).is_ok());
        assert!(RhoBounds::new(0.0, 0.5).is_err(), "min must be strictly positive");
        assert!(RhoBounds::new(0.9, 0.5).is_err());
        assert!(RhoBounds::new(0.5, 1.5).is_err());
        assert!(RhoBounds::new(f64::NAN, 1.0).is_err());
        let b = RhoBounds::new(0.5, 0.9).unwrap();
        assert_eq!(b.clamp(0.1), 0.5);
        assert_eq!(b.clamp(0.95), 0.9);
        assert_eq!(b.clamp(0.7), 0.7);
        assert!(b.contains(0.5, 0.0));
        assert!(!b.contains(0.4, 0.05));
        assert_eq!(RhoBounds::fixed(0.8).unwrap(), RhoBounds { min: 0.8, max: 0.8 });
        assert_eq!(RhoBounds::default(), RhoBounds { min: 1.0, max: 1.0 });
    }

    fn lossy() -> Problem {
        let mut b = tiny();
        let l = b.add_link(1e6);
        b.set_link_cost(FlowId::new(0), l, 2.0);
        b.set_reliability(ReliabilitySpec::uniform(
            1,
            1,
            RhoBounds::new(0.5, 0.999).unwrap(),
            0.1,
            1.0,
        ));
        b.build().unwrap()
    }

    #[test]
    fn builder_attaches_reliability_spec() {
        let p = lossy();
        let spec = p.reliability().expect("spec attached");
        assert_eq!(spec.rho_bounds.len(), 1);
        assert_eq!(spec.link_loss, vec![0.1]);
        assert_eq!(spec.redundancy, 1.0);
        assert_eq!(p.link_loss(LinkId::new(0)), 0.1);
        assert_eq!(p.link_loss(LinkId::new(9)), 0.0, "out of range reads as lossless");
        assert_eq!(p.rho_bounds(FlowId::new(0)), Some(RhoBounds::new(0.5, 0.999).unwrap()));
        assert_eq!(p.rho_bounds(FlowId::new(9)), None);
    }

    #[test]
    fn problem_without_spec_reads_as_lossless() {
        let p = tiny().build().unwrap();
        assert!(p.reliability().is_none());
        assert_eq!(p.link_loss(LinkId::new(0)), 0.0);
        assert_eq!(p.rho_bounds(FlowId::new(0)), None);
    }

    #[test]
    fn build_rejects_misshapen_spec() {
        let mut b = tiny();
        b.set_reliability(ReliabilitySpec::uniform(3, 0, RhoBounds::default(), 0.0, 1.0));
        assert!(matches!(
            b.build().unwrap_err(),
            ValidationError::ReliabilityShape { .. }
        ));
    }

    #[test]
    fn build_rejects_invalid_loss_and_redundancy() {
        let mut b = tiny();
        let l = b.add_link(1e6);
        b.set_link_cost(FlowId::new(0), l, 2.0);
        b.set_reliability(ReliabilitySpec::uniform(1, 1, RhoBounds::default(), 1.0, 1.0));
        assert!(matches!(
            b.clone().build().unwrap_err(),
            ValidationError::InvalidLossRate { .. }
        ));
        b.set_reliability(ReliabilitySpec::uniform(1, 1, RhoBounds::default(), 0.1, -1.0));
        assert!(matches!(
            b.build().unwrap_err(),
            ValidationError::InvalidRedundancy { .. }
        ));
    }

    #[test]
    fn with_reliability_attaches_and_strips() {
        let p = tiny().build().unwrap();
        let spec = ReliabilitySpec::uniform(1, 0, RhoBounds::new(0.6, 0.9).unwrap(), 0.0, 2.0);
        let q = p.with_reliability(spec.clone()).unwrap();
        assert_eq!(q.reliability(), Some(&spec));
        assert!(p.reliability().is_none(), "original untouched");
        assert!(q.without_reliability().reliability().is_none());
        let bad = ReliabilitySpec::uniform(5, 0, RhoBounds::default(), 0.0, 1.0);
        assert!(p.with_reliability(bad).is_err());
    }

    #[test]
    fn build_and_added_flows_reject_out_of_range_utilities() {
        let mut b = tiny();
        b.classes[0].utility = Utility::log(f64::INFINITY);
        assert!(matches!(b.build().unwrap_err(), ValidationError::InvalidUtility { .. }));
        let mut p = tiny().build().unwrap();
        let before = format!("{p:?}");
        let mut class = p.class(ClassId::new(0)).clone();
        class.utility = Utility::Power { weight: 1.0, exponent: 1.5 };
        let flow = p.flow(FlowId::new(0)).clone();
        let Err(err) = p.add_flow_in_place(flow, vec![class]) else { panic!("flow accepted") };
        assert!(matches!(err, ValidationError::InvalidUtility { .. }), "{err}");
        assert_eq!(format!("{p:?}"), before, "a refused flow leaves the problem unchanged");
    }

    #[test]
    fn reliability_spec_serde_round_trip_and_default() {
        let p = lossy();
        let json = serde_json::to_string(&p).unwrap();
        let back: Problem = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // A pre-extension problem (no `reliability` key) still loads.
        let plain = tiny().build().unwrap();
        let json = serde_json::to_string(&plain).unwrap().replace(",\"reliability\":null", "");
        let back: Problem = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn deserialize_validates_through_the_builder() {
        let json = serde_json::to_string(&tiny().build().unwrap()).unwrap();
        assert!(!json.contains("classes_at_node"), "indexes are derived, not stored");
        let bad = json.replace("\"capacity\":900000", "\"capacity\":-900000");
        assert_ne!(bad, json);
        let err = serde_json::from_str::<Problem>(&bad).unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
    }

    #[test]
    fn attach_map_filters_either_list_in_ascending_order() {
        // Flow 0 has three classes over two nodes; node 1 hosts classes of
        // two flows. Each query takes a different list as the shorter one.
        let mut b = tiny();
        let f0 = FlowId::new(0);
        let (src, sink) = (NodeId::new(0), NodeId::new(1));
        let extra = b.add_node(1e5);
        b.set_node_cost(f0, extra, 1.0);
        b.add_class(f0, extra, 5, Utility::log(2.0), 1.0);
        b.add_class(f0, sink, 5, Utility::log(2.0), 1.0);
        let f1 = b.add_flow(src, RateBounds::new(1.0, 10.0).unwrap());
        b.set_node_cost(f1, sink, 1.0);
        for _ in 0..4 {
            b.add_class(f1, sink, 5, Utility::log(2.0), 1.0);
        }
        let p = b.build().unwrap();
        let at = |f, n| p.classes_of_flow_at_node(f, n).collect::<Vec<_>>();
        assert_eq!(at(f0, sink), vec![ClassId::new(0), ClassId::new(2)]);
        assert_eq!(at(f0, extra), vec![ClassId::new(1)]);
        assert_eq!(at(f1, sink).len(), 4);
        assert!(at(f1, extra).is_empty());
        assert!(at(f0, src).is_empty());
    }
}
