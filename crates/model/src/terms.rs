//! Flattened, cache-friendly price-term tables (CSR layout).
//!
//! The price aggregation of Eqs. 8–9 walks, per flow, its link costs, its
//! node costs, and the consumer costs of its classes at each node. The
//! [`crate::Problem`] accessors serve those walks through per-flow `Vec`s of
//! `(id, cost)` pairs plus a filter for `attachMap_i(b)` over the shorter of
//! the flow's and the node's class lists — fine for one evaluation,
//! wasteful when the same walk runs every iteration of an optimizer.
//!
//! [`PriceTermTable`] precomputes the walks once into four contiguous arrays
//! in CSR (compressed sparse row) style: all link terms of all flows live in
//! one `Vec` sliced by per-flow offsets, and likewise for node terms, class
//! terms, and per-link usage terms. Aggregating a flow's price becomes a
//! pair of linear scans over adjacent memory with no nested id-indexed
//! lookups and no per-call filtering.
//!
//! A build costs `O(Σ_i Σ_{b∈B_i} min(|C_i|, |nodeClasses(b)|))` for the
//! class terms and is linear in the number of terms otherwise: the usage
//! terms are the link terms transposed by a counting sort.
//!
//! The tables store terms in **exactly** the order the `Problem` accessors
//! produce them ([`Problem::links_of_flow`], [`Problem::nodes_of_flow`],
//! [`Problem::classes_of_flow_at_node`], [`Problem::flows_on_link`]), so a
//! consumer that folds them left-to-right performs the same floating-point
//! additions in the same order as the accessor-based code and obtains
//! bit-identical sums.
//!
//! A table follows its problem through every delta that keeps the id space:
//! [`PriceTermTable::refresh`] rewrites, in place, the coefficients one
//! [`DeltaOp`] touched, and the CSR shape never changes. Rebuild the table
//! when the problem grows ([`DeltaOp::AddFlow`]) or is replaced.

use crate::delta::DeltaOp;
use crate::ids::{FlowId, LinkId};
use crate::problem::Problem;

/// One node term of a flow's `PB_i` aggregation (Eq. 9): the node, the
/// flow-cost coefficient `F_{b,i}`, and the slice of class terms attached to
/// the flow at this node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePriceTerm {
    /// Node index (raw id).
    pub node: u32,
    /// `F_{b,i}`: the consumer-independent per-rate cost at the node.
    pub flow_cost: f64,
    /// Start of this term's class range in [`PriceTermTable::class_terms`].
    pub class_start: u32,
    /// End (exclusive) of this term's class range.
    pub class_end: u32,
}

/// Precomputed CSR-style term tables for price aggregation and link usage.
///
/// # Examples
///
/// ```
/// use lrgp_model::workloads::base_workload;
/// use lrgp_model::{FlowId, PriceTermTable};
///
/// let problem = base_workload();
/// let table = PriceTermTable::new(&problem);
/// let flow = FlowId::new(0);
/// // The node terms mirror Problem::nodes_of_flow exactly.
/// assert_eq!(table.node_terms(flow).len(), problem.nodes_of_flow(flow).len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTermTable {
    /// `(link index, L_{l,i})` for every flow, concatenated.
    link_terms: Vec<(u32, f64)>,
    /// Per-flow offsets into `link_terms` (length `num_flows + 1`).
    link_offsets: Vec<u32>,
    /// Node terms for every flow, concatenated.
    node_terms: Vec<NodePriceTerm>,
    /// Per-flow offsets into `node_terms` (length `num_flows + 1`).
    node_offsets: Vec<u32>,
    /// `(class index, G_{b,j})`, indexed by the ranges in `node_terms`.
    class_terms: Vec<(u32, f64)>,
    /// `(flow index, L_{l,i})` for every link, concatenated.
    usage_terms: Vec<(u32, f64)>,
    /// Per-link offsets into `usage_terms` (length `num_links + 1`).
    usage_offsets: Vec<u32>,
    /// `(class index, utility weight)` for every flow, concatenated in
    /// [`Problem::classes_of_flow`] order.
    utility_terms: Vec<(u32, f64)>,
    /// Per-flow offsets into `utility_terms` (length `num_flows + 1`).
    utility_offsets: Vec<u32>,
    /// `(link index, L_{l,i} · loss_l)` for every flow, concatenated in
    /// [`Problem::links_of_flow`] order: the reliability column. Empty when
    /// the problem carries no [`crate::ReliabilitySpec`].
    rho_link_terms: Vec<(u32, f64)>,
    /// Per-flow offsets into `rho_link_terms` (length `num_flows + 1` when
    /// a spec is attached, empty otherwise).
    rho_link_offsets: Vec<u32>,
}

impl PriceTermTable {
    /// Builds the tables by walking every flow and link of `problem` in
    /// accessor order.
    pub fn new(problem: &Problem) -> Self {
        let mut link_terms = Vec::new();
        let mut link_offsets = Vec::with_capacity(problem.num_flows() + 1);
        let mut node_terms = Vec::new();
        let mut node_offsets = Vec::with_capacity(problem.num_flows() + 1);
        let mut class_terms = Vec::with_capacity(problem.num_classes());
        let mut utility_terms = Vec::with_capacity(problem.num_classes());
        let mut utility_offsets = Vec::with_capacity(problem.num_flows() + 1);
        link_offsets.push(0);
        node_offsets.push(0);
        utility_offsets.push(0);
        for flow in problem.flow_ids() {
            for &(link, cost) in problem.links_of_flow(flow) {
                link_terms.push((link.index() as u32, cost));
            }
            link_offsets.push(link_terms.len() as u32);
            for &(node, flow_cost) in problem.nodes_of_flow(flow) {
                let class_start = class_terms.len() as u32;
                for class in problem.classes_of_flow_at_node(flow, node) {
                    class_terms
                        .push((class.index() as u32, problem.class(class).consumer_cost));
                }
                node_terms.push(NodePriceTerm {
                    node: node.index() as u32,
                    flow_cost,
                    class_start,
                    class_end: class_terms.len() as u32,
                });
            }
            node_offsets.push(node_terms.len() as u32);
            for &c in problem.classes_of_flow(flow) {
                utility_terms.push((c.index() as u32, problem.class(c).utility.weight()));
            }
            utility_offsets.push(utility_terms.len() as u32);
        }
        // Usage terms are `link_terms` transposed by a counting sort: count
        // each link's terms, prefix-sum the counts into offsets, then drop
        // every flow's terms into its links' rows. Flows are visited in
        // ascending id, so each row lists its flows in
        // `Problem::flows_on_link` order.
        let mut usage_offsets = vec![0u32; problem.num_links() + 1];
        for &(link, _) in &link_terms {
            usage_offsets[link as usize + 1] += 1;
        }
        let mut running = 0;
        for offset in &mut usage_offsets {
            running += *offset;
            *offset = running;
        }
        let mut next_slot = usage_offsets.clone();
        let mut usage_terms = vec![(0u32, 0.0); link_terms.len()];
        for flow in problem.flow_ids() {
            for &(link, cost) in problem.links_of_flow(flow) {
                let slot = &mut next_slot[link.index()];
                usage_terms[*slot as usize] = (flow.index() as u32, cost);
                *slot += 1;
            }
        }
        let mut rho_link_terms = Vec::new();
        let mut rho_link_offsets = Vec::new();
        if problem.reliability().is_some() {
            rho_link_offsets.reserve(problem.num_flows() + 1);
            rho_link_offsets.push(0);
            for flow in problem.flow_ids() {
                for &(link, cost) in problem.links_of_flow(flow) {
                    rho_link_terms
                        .push((link.index() as u32, cost * problem.link_loss(link)));
                }
                rho_link_offsets.push(rho_link_terms.len() as u32);
            }
        }
        Self {
            link_terms,
            link_offsets,
            node_terms,
            node_offsets,
            class_terms,
            usage_terms,
            usage_offsets,
            utility_terms,
            utility_offsets,
            rho_link_terms,
            rho_link_offsets,
        }
    }

    /// `flow`'s link terms, in [`Problem::links_of_flow`] order.
    pub fn link_terms(&self, flow: FlowId) -> &[(u32, f64)] {
        csr_row(&self.link_terms, &self.link_offsets, flow.index())
    }

    /// `flow`'s node terms, in [`Problem::nodes_of_flow`] order.
    pub fn node_terms(&self, flow: FlowId) -> &[NodePriceTerm] {
        csr_row(&self.node_terms, &self.node_offsets, flow.index())
    }

    /// The class terms of one node term, in
    /// [`Problem::classes_of_flow_at_node`] order.
    pub fn class_terms(&self, term: &NodePriceTerm) -> &[(u32, f64)] {
        self.class_terms
            .get(term.class_start as usize..term.class_end as usize)
            .unwrap_or(&[])
    }

    /// `link`'s usage terms `(flow index, L_{l,i})`, in
    /// [`Problem::flows_on_link`] order.
    pub fn link_usage_terms(&self, link: LinkId) -> &[(u32, f64)] {
        csr_row(&self.usage_terms, &self.usage_offsets, link.index())
    }

    /// `flow`'s `(class index, utility weight)` pairs, in
    /// [`Problem::classes_of_flow`] order. The weighted-population mass
    /// `S = Σ n_j w_j` that the ρ best response reads is a dot product of
    /// this slice against the population vector.
    pub fn utility_terms(&self, flow: FlowId) -> &[(u32, f64)] {
        csr_row(&self.utility_terms, &self.utility_offsets, flow.index())
    }

    /// `flow`'s reliability link terms `(link index, L_{l,i} · loss_l)`, in
    /// [`Problem::links_of_flow`] order. The ρ best-response price of a flow
    /// is `redundancy · r_i` times the dot product of this slice against the
    /// link-price vector. Empty when the problem carries no
    /// [`crate::ReliabilitySpec`].
    pub fn rho_link_terms(&self, flow: FlowId) -> &[(u32, f64)] {
        csr_row(&self.rho_link_terms, &self.rho_link_offsets, flow.index())
    }

    /// Rewrites the coefficients `op` touched, reading them from `problem`:
    /// the problem *after* the delta that carried `op`. The CSR shape stays,
    /// so the patched table equals [`PriceTermTable::new`] on `problem` bit
    /// for bit, and a patch costs only the touched rows.
    ///
    /// * [`DeltaOp::RemoveFlow`] and [`DeltaOp::SetFlowNodeCost`] rewrite the
    ///   flow's link terms, its node terms' `F_{b,i}`, its entries in the
    ///   usage rows of its links, and its reliability column.
    /// * [`DeltaOp::SetLinkLoss`] rewrites the reliability column of every
    ///   flow on the link.
    /// * The other ops that keep the id space touch no coefficient here.
    ///
    /// Returns `false`, and leaves the table as it was, for an op that grows
    /// the problem ([`DeltaOp::grows_problem`]): new rows change the shape,
    /// so the table must be rebuilt with [`PriceTermTable::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use lrgp_model::workloads::base_workload;
    /// use lrgp_model::{FlowId, PriceTermTable, ProblemDelta};
    ///
    /// let problem = base_workload();
    /// let mut table = PriceTermTable::new(&problem);
    /// let delta = ProblemDelta::new().remove_flow(FlowId::new(2));
    /// let edited = delta.apply(&problem).unwrap();
    /// assert!(table.refresh(&edited, &delta.ops()[0]));
    /// assert_eq!(table, PriceTermTable::new(&edited));
    /// ```
    #[must_use = "`false` means the table is stale and must be rebuilt"]
    pub fn refresh(&mut self, problem: &Problem, op: &DeltaOp) -> bool {
        match *op {
            DeltaOp::AddFlow { .. } => return false,
            DeltaOp::RemoveFlow { flow } | DeltaOp::SetFlowNodeCost { flow, .. } => {
                self.refresh_flow(problem, flow);
            }
            DeltaOp::SetLinkLoss { link, .. } => {
                for &flow in problem.flows_on_link(link) {
                    self.refresh_rho_column(problem, flow);
                }
            }
            DeltaOp::SetNodeCapacity { .. }
            | DeltaOp::SetLinkCapacity { .. }
            | DeltaOp::SetMaxPopulation { .. }
            | DeltaOp::SetRateBounds { .. }
            | DeltaOp::SetRhoBounds { .. } => {}
        }
        true
    }

    /// Rewrites every path coefficient of `flow`: its link and node terms,
    /// its entry in each of its links' usage rows, and its reliability
    /// column.
    fn refresh_flow(&mut self, problem: &Problem, flow: FlowId) {
        let f = flow.index();
        let links = problem.links_of_flow(flow);
        let row = csr_row_mut(&mut self.link_terms, &self.link_offsets, f);
        for (term, &(link, cost)) in row.iter_mut().zip(links) {
            term.1 = cost;
            // A usage row lists its flows in ascending id, each once.
            let usage = csr_row_mut(&mut self.usage_terms, &self.usage_offsets, link.index());
            if let Ok(at) = usage.binary_search_by_key(&(f as u32), |&(g, _)| g) {
                if let Some(entry) = usage.get_mut(at) {
                    entry.1 = cost;
                }
            }
        }
        let row = csr_row_mut(&mut self.node_terms, &self.node_offsets, f);
        for (term, &(_, flow_cost)) in row.iter_mut().zip(problem.nodes_of_flow(flow)) {
            term.flow_cost = flow_cost;
        }
        self.refresh_rho_column(problem, flow);
    }

    /// Rewrites `flow`'s reliability column, `L_{l,i} · loss_l` per link
    /// (a no-op when the problem carries no spec, whose column is empty).
    fn refresh_rho_column(&mut self, problem: &Problem, flow: FlowId) {
        let row = csr_row_mut(&mut self.rho_link_terms, &self.rho_link_offsets, flow.index());
        for (term, &(link, cost)) in row.iter_mut().zip(problem.links_of_flow(flow)) {
            term.1 = cost * problem.link_loss(link);
        }
    }
}

/// Row `i` of a CSR layout: `terms[offsets[i]..offsets[i + 1]]`, empty for
/// an out-of-range id or a corrupt offset pair. Ids are validated when the
/// table is built, so the total formulation costs nothing — it exists to
/// keep the per-delta aggregation paths free of panic branches.
fn csr_row<'a, T>(terms: &'a [T], offsets: &[u32], i: usize) -> &'a [T] {
    match (offsets.get(i), offsets.get(i + 1)) {
        (Some(&lo), Some(&hi)) => terms.get(lo as usize..hi as usize).unwrap_or(&[]),
        _ => &[],
    }
}

/// The mutable twin of [`csr_row`], equally total.
fn csr_row_mut<'a, T>(terms: &'a mut [T], offsets: &[u32], i: usize) -> &'a mut [T] {
    match (offsets.get(i), offsets.get(i + 1)) {
        (Some(&lo), Some(&hi)) => terms.get_mut(lo as usize..hi as usize).unwrap_or(&mut []),
        _ => &mut [],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ProblemBuilder, RateBounds};
    use crate::utility::Utility;
    use crate::workloads;

    /// src → link → sink with two classes at the sink plus one flow-only
    /// node.
    fn fixture() -> Problem {
        let mut b = ProblemBuilder::new();
        let src = b.add_node(1e6);
        let sink = b.add_node(9e5);
        let relay = b.add_node(5e5);
        let l = b.add_link_between(1e4, src, sink);
        let f = b.add_flow(src, RateBounds::new(10.0, 1000.0).unwrap());
        b.set_link_cost(f, l, 2.0);
        b.set_node_cost(f, sink, 3.0);
        b.set_node_cost(f, relay, 1.5);
        b.add_class(f, sink, 100, Utility::log(20.0), 19.0);
        b.add_class(f, sink, 50, Utility::log(5.0), 7.0);
        b.build().unwrap()
    }

    #[test]
    fn mirrors_problem_accessors() {
        let p = fixture();
        let t = PriceTermTable::new(&p);
        let f = FlowId::new(0);
        assert_eq!(t.link_terms(f), &[(0, 2.0)]);
        let nodes = t.node_terms(f);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].node, 1);
        assert_eq!(nodes[0].flow_cost, 3.0);
        assert_eq!(t.class_terms(&nodes[0]), &[(0, 19.0), (1, 7.0)]);
        assert_eq!(nodes[1].node, 2);
        assert_eq!(nodes[1].flow_cost, 1.5);
        assert!(t.class_terms(&nodes[1]).is_empty());
        assert_eq!(t.link_usage_terms(crate::ids::LinkId::new(0)), &[(0, 2.0)]);
    }

    #[test]
    fn covers_every_flow_and_link_of_a_real_workload() {
        let p = workloads::base_workload();
        let t = PriceTermTable::new(&p);
        let mut classes_seen = 0;
        for flow in p.flow_ids() {
            assert_eq!(t.link_terms(flow).len(), p.links_of_flow(flow).len());
            let node_terms = t.node_terms(flow);
            assert_eq!(node_terms.len(), p.nodes_of_flow(flow).len());
            for (term, &(node, f_cost)) in node_terms.iter().zip(p.nodes_of_flow(flow)) {
                assert_eq!(term.node as usize, node.index());
                assert_eq!(term.flow_cost.to_bits(), f_cost.to_bits());
                let expected: Vec<(u32, f64)> = p
                    .classes_of_flow_at_node(flow, node)
                    .map(|c| (c.index() as u32, p.class(c).consumer_cost))
                    .collect();
                assert_eq!(t.class_terms(term), expected.as_slice());
                classes_seen += expected.len();
            }
        }
        // Every class is attached to exactly one (flow, node) pair.
        assert_eq!(classes_seen, p.num_classes());
        for link in p.link_ids() {
            assert_eq!(t.link_usage_terms(link).len(), p.flows_on_link(link).len());
        }
    }

    #[test]
    fn utility_terms_mirror_classes_of_flow() {
        let p = workloads::base_workload();
        let t = PriceTermTable::new(&p);
        let mut seen = 0;
        for flow in p.flow_ids() {
            let expected: Vec<(u32, f64)> = p
                .classes_of_flow(flow)
                .iter()
                .map(|&c| (c.index() as u32, p.class(c).utility.weight()))
                .collect();
            assert_eq!(t.utility_terms(flow), expected.as_slice());
            seen += expected.len();
        }
        assert_eq!(seen, p.num_classes());
    }

    #[test]
    fn rho_link_terms_weight_costs_by_loss() {
        let p = fixture();
        let t = PriceTermTable::new(&p);
        assert!(
            t.rho_link_terms(FlowId::new(0)).is_empty(),
            "no spec attached → no reliability column"
        );
        let spec = crate::ReliabilitySpec::uniform(
            1,
            1,
            crate::RhoBounds::new(0.5, 0.99).unwrap(),
            0.25,
            1.0,
        );
        let lossy = p.with_reliability(spec).unwrap();
        let t = PriceTermTable::new(&lossy);
        // Link cost 2.0 weighted by loss 0.25.
        assert_eq!(t.rho_link_terms(FlowId::new(0)), &[(0, 0.5)]);
        assert!(t.rho_link_terms(FlowId::new(9)).is_empty());
    }

    /// The plain build the table must match bit for bit: every node's class
    /// list filtered by flow, and every usage term a `link_cost` search.
    fn reference_build(problem: &Problem) -> PriceTermTable {
        let fast = PriceTermTable::new(problem);
        let mut node_terms = Vec::new();
        let mut class_terms = Vec::new();
        for flow in problem.flow_ids() {
            for &(node, flow_cost) in problem.nodes_of_flow(flow) {
                let class_start = class_terms.len() as u32;
                for &class in problem.classes_at_node(node) {
                    let spec = problem.class(class);
                    if spec.flow == flow {
                        class_terms.push((class.index() as u32, spec.consumer_cost));
                    }
                }
                node_terms.push(NodePriceTerm {
                    node: node.index() as u32,
                    flow_cost,
                    class_start,
                    class_end: class_terms.len() as u32,
                });
            }
        }
        let mut usage_terms = Vec::new();
        let mut usage_offsets = vec![0];
        for link in problem.link_ids() {
            for &flow in problem.flows_on_link(link) {
                usage_terms.push((flow.index() as u32, problem.link_cost(link, flow)));
            }
            usage_offsets.push(usage_terms.len() as u32);
        }
        PriceTermTable { node_terms, class_terms, usage_terms, usage_offsets, ..fast }
    }

    /// Every id, offset and coefficient of a table, floats as raw bits.
    fn fingerprint(t: &PriceTermTable) -> Vec<u64> {
        let pairs = |terms: &[(u32, f64)]| -> Vec<u64> {
            terms.iter().flat_map(|&(id, c)| [u64::from(id), c.to_bits()]).collect()
        };
        let offsets = |o: &[u32]| -> Vec<u64> { o.iter().map(|&x| u64::from(x)).collect() };
        let mut out = Vec::new();
        out.extend(pairs(&t.link_terms));
        out.extend(offsets(&t.link_offsets));
        for term in &t.node_terms {
            out.extend([
                u64::from(term.node),
                term.flow_cost.to_bits(),
                u64::from(term.class_start),
                u64::from(term.class_end),
            ]);
        }
        out.extend(offsets(&t.node_offsets));
        out.extend(pairs(&t.class_terms));
        out.extend(pairs(&t.usage_terms));
        out.extend(offsets(&t.usage_offsets));
        out.extend(pairs(&t.utility_terms));
        out.extend(offsets(&t.utility_offsets));
        out.extend(pairs(&t.rho_link_terms));
        out.extend(offsets(&t.rho_link_offsets));
        out
    }

    /// One problem from every generator in [`crate::workloads`], plus each
    /// with its first flow removed (zeroed costs, same structure).
    fn every_generator() -> Vec<(String, Problem)> {
        use rand::SeedableRng;
        let mut out = vec![("base".to_string(), workloads::base_workload())];
        for shape in crate::UtilityShape::ALL {
            out.push((format!("base {shape}"), workloads::base_workload_with_shape(shape)));
            out.push((format!("paper {shape} 2x3"), workloads::paper_workload(shape, 2, 3)));
        }
        for w in workloads::Table2Workload::ALL {
            out.push((format!("table2 {}", w.label()), w.build()));
        }
        for (seed, mixed_shapes) in [(1, false), (2, true), (3, true)] {
            let generator = workloads::RandomWorkload {
                flows: 40,
                consumer_nodes: 6,
                classes_per_flow: 4,
                mixed_shapes,
                ..workloads::RandomWorkload::default()
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            out.push((format!("random {seed}"), generator.generate(&mut rng)));
        }
        out.push(("link bottleneck".to_string(), workloads::link_bottleneck_workload(500.0)));
        out.push((
            "lossy link bottleneck".to_string(),
            workloads::lossy_link_bottleneck_workload(500.0, 0.1),
        ));
        out.push(("mixed loss".to_string(), workloads::mixed_loss_workload(16, 800.0, 7)));
        let removed: Vec<_> = out
            .iter()
            .map(|(name, p)| (format!("{name} without flow0"), remove_flow0(p)))
            .collect();
        out.extend(removed);
        out
    }

    /// `p` with flow 0 removed: its entries stay, their costs go to zero.
    fn remove_flow0(p: &Problem) -> Problem {
        crate::ProblemDelta::new().remove_flow(FlowId::new(0)).apply(p).expect("flow 0 exists")
    }

    #[test]
    fn matches_reference_build_bitwise_on_every_generator() {
        for (name, p) in every_generator() {
            let fast = PriceTermTable::new(&p);
            assert_eq!(fingerprint(&fast), fingerprint(&reference_build(&p)), "{name}");
        }
    }

    /// A seed-driven list of ops that keep the id space: flow removals,
    /// edits of existing `F_{b,i}` entries, and, where a spec is attached,
    /// link-loss edits.
    fn shape_keeping_ops(problem: &Problem, seed: u64) -> Vec<DeltaOp> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lossy = problem.reliability().is_some() && problem.num_links() > 0;
        (0..6)
            .map(|_| {
                let flow = FlowId::new(rng.gen_range(0..problem.num_flows()) as u32);
                let nodes = problem.nodes_of_flow(flow);
                match rng.gen_range(0..3) {
                    1 if !nodes.is_empty() => DeltaOp::SetFlowNodeCost {
                        flow,
                        node: nodes[rng.gen_range(0..nodes.len())].0,
                        cost: rng.gen_range(0.0..40.0),
                    },
                    2 if lossy => DeltaOp::SetLinkLoss {
                        link: LinkId::new(rng.gen_range(0..problem.num_links()) as u32),
                        loss: rng.gen_range(0.0..0.5),
                    },
                    _ => DeltaOp::RemoveFlow { flow },
                }
            })
            .collect()
    }

    #[test]
    fn refreshed_table_equals_a_fresh_build_on_every_generator() {
        let mut lossy_cases = 0;
        for (name, p) in every_generator() {
            for seed in 0..4 {
                let ops = shape_keeping_ops(&p, seed);
                lossy_cases += ops.iter().filter(|op| matches!(op, DeltaOp::SetLinkLoss { .. })).count();
                let mut delta = crate::ProblemDelta::new();
                for op in &ops {
                    delta.push(op.clone());
                }
                let edited = delta.apply(&p).expect("every op is valid");
                let mut table = PriceTermTable::new(&p);
                for op in &ops {
                    assert!(table.refresh(&edited, op), "{name} seed {seed}: {op:?}");
                }
                assert_eq!(
                    fingerprint(&table),
                    fingerprint(&PriceTermTable::new(&edited)),
                    "{name} seed {seed}: {ops:?}"
                );
            }
        }
        assert!(lossy_cases > 0, "the lossy generators must draw loss edits");
    }

    #[test]
    fn refresh_refuses_a_growing_op() {
        let p = fixture();
        let mut table = PriceTermTable::new(&p);
        let op = DeltaOp::AddFlow {
            flow: p.flow(FlowId::new(0)).clone(),
            classes: vec![p.class(crate::ClassId::new(0)).clone()],
        };
        let mut delta = crate::ProblemDelta::new();
        delta.push(op.clone());
        let grown = delta.apply(&p).expect("a copy of flow 0 is valid");
        assert!(!table.refresh(&grown, &op));
        assert_eq!(table, PriceTermTable::new(&p), "a refused op leaves the table as it was");
    }

    #[test]
    fn rebuild_after_flow_removal_zeroes_its_costs() {
        let p = fixture();
        let pruned = remove_flow0(&p);
        let t = PriceTermTable::new(&pruned);
        // A removal keeps the entries but zeroes the coefficients; the
        // rebuilt table must reflect that, not the original costs.
        assert!(t.link_terms(FlowId::new(0)).iter().all(|&(_, c)| c == 0.0));
        assert!(t.node_terms(FlowId::new(0)).iter().all(|term| term.flow_cost == 0.0));
    }
}