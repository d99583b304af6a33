//! Flattened, cache-friendly price-term tables (CSR layout).
//!
//! The price aggregation of Eqs. 8–9 walks, per flow, its link costs, its
//! node costs, and the consumer costs of its classes at each node. The
//! [`crate::Problem`] accessors serve those walks through per-flow `Vec`s of
//! `(id, cost)` pairs plus a filter for `attachMap_i(b)` over the shorter of
//! the flow's and the node's class lists — fine for one evaluation,
//! wasteful when the same walk runs every iteration of an optimizer.
//!
//! [`PriceTermTable`] precomputes the walks once into contiguous arrays in
//! CSR (compressed sparse row) style: all link terms of all flows live in
//! one `Vec` sliced by per-flow offsets, and likewise for node terms, class
//! terms, per-link usage terms and per-node flow-cost terms. Aggregating a
//! flow's price becomes a pair of linear scans over adjacent memory with no
//! nested id-indexed lookups and no per-call filtering, and a node's
//! admission reads its flow costs `F_{b,i}` from one row of its own.
//!
//! A build appends each flow's rows in id order, which costs
//! `O(Σ_i Σ_{b∈B_i} min(|C_i|, |nodeClasses(b)|))` for the class terms and
//! is linear in the number of terms otherwise, then transposes the link
//! terms into the usage terms, and the node terms into the flow-cost terms,
//! by a counting sort.
//!
//! The tables store terms in **exactly** the order the `Problem` accessors
//! produce them ([`Problem::links_of_flow`], [`Problem::nodes_of_flow`],
//! [`Problem::classes_of_flow_at_node`], [`Problem::flows_on_link`],
//! [`Problem::flows_at_node`]), so a
//! consumer that folds them left-to-right performs the same floating-point
//! additions in the same order as the accessor-based code and obtains
//! bit-identical sums.
//!
//! A table follows its problem through every delta:
//! [`PriceTermTable::refresh`] rewrites, in place, the coefficients one
//! [`DeltaOp`] touched, and a flow addition appends the new flow's rows the
//! way a build would. Rebuild the table only when the problem is replaced.

use crate::delta::DeltaOp;
use crate::ids::{FlowId, LinkId, NodeId};
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
    /// `(flow index, F_{b,i})` for every node, concatenated: the node terms
    /// transposed.
    flow_cost_terms: Vec<(u32, f64)>,
    /// Per-node offsets into `flow_cost_terms` (length `num_nodes + 1`).
    flow_cost_offsets: Vec<u32>,
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
    /// Builds the tables by appending every flow's rows in id order, then
    /// transposing the link rows into the usage rows and the node rows into
    /// the flow-cost rows.
    pub fn new(problem: &Problem) -> Self {
        // Reserve every offset row up front: growing the offsets instead
        // slowed a 10,000-flow build by about a third (2-vCPU Xeon).
        let rows = problem.num_flows() + 1;
        let mut table = Self {
            link_terms: Vec::new(),
            link_offsets: Vec::with_capacity(rows),
            node_terms: Vec::new(),
            node_offsets: Vec::with_capacity(rows),
            class_terms: Vec::with_capacity(problem.num_classes()),
            usage_terms: Vec::new(),
            usage_offsets: Vec::new(),
            flow_cost_terms: Vec::new(),
            flow_cost_offsets: Vec::new(),
            utility_terms: Vec::with_capacity(problem.num_classes()),
            utility_offsets: Vec::with_capacity(rows),
            rho_link_terms: Vec::new(),
            rho_link_offsets: Vec::new(),
        };
        table.link_offsets.push(0);
        table.node_offsets.push(0);
        table.utility_offsets.push(0);
        if problem.reliability().is_some() {
            table.rho_link_offsets.reserve(rows);
            table.rho_link_offsets.push(0);
        }
        for flow in problem.flow_ids() {
            table.push_flow(problem, flow);
        }
        table.transpose(problem.num_nodes(), problem.num_links());
        table
    }

    /// Appends `flow`'s rows, which must come next in id order: its link,
    /// node, class and utility terms, and its reliability column when the
    /// problem carries a spec. The usage and flow-cost rows are left to
    /// [`Self::transpose`].
    fn push_flow(&mut self, problem: &Problem, flow: FlowId) {
        for &(link, cost) in problem.links_of_flow(flow) {
            self.link_terms.push((link.index() as u32, cost));
        }
        self.link_offsets.push(self.link_terms.len() as u32);
        for &(node, flow_cost) in problem.nodes_of_flow(flow) {
            let class_start = self.class_terms.len() as u32;
            for class in problem.classes_of_flow_at_node(flow, node) {
                self.class_terms.push((class.index() as u32, problem.class(class).consumer_cost));
            }
            self.node_terms.push(NodePriceTerm {
                node: node.index() as u32,
                flow_cost,
                class_start,
                class_end: self.class_terms.len() as u32,
            });
        }
        self.node_offsets.push(self.node_terms.len() as u32);
        for &c in problem.classes_of_flow(flow) {
            self.utility_terms.push((c.index() as u32, problem.class(c).utility.weight()));
        }
        self.utility_offsets.push(self.utility_terms.len() as u32);
        if problem.reliability().is_some() {
            for &(link, cost) in problem.links_of_flow(flow) {
                self.rho_link_terms.push((link.index() as u32, cost * problem.link_loss(link)));
            }
            self.rho_link_offsets.push(self.rho_link_terms.len() as u32);
        }
    }

    /// Derives the usage rows from the link rows, and the flow-cost rows
    /// from the node rows ([`transpose_rows`]).
    fn transpose(&mut self, num_nodes: usize, num_links: usize) {
        transpose_rows(
            &self.link_terms,
            &self.link_offsets,
            |&term| term,
            num_links,
            &mut self.usage_terms,
            &mut self.usage_offsets,
        );
        transpose_rows(
            &self.node_terms,
            &self.node_offsets,
            |term| (term.node, term.flow_cost),
            num_nodes,
            &mut self.flow_cost_terms,
            &mut self.flow_cost_offsets,
        );
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

    /// `node`'s flow-cost terms `(flow index, F_{b,i})`, in
    /// [`Problem::flows_at_node`] order. The consumer-independent load
    /// `Σ_i F_{b,i} · r_i` that a node's admission (Eq. 10) starts from is
    /// a dot product of this slice against the rate vector.
    pub fn flow_cost_terms(&self, node: NodeId) -> &[(u32, f64)] {
        csr_row(&self.flow_cost_terms, &self.flow_cost_offsets, node.index())
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

    /// Follows `op` in place, reading from `problem`: the problem *after*
    /// the delta that carried `op`, with every earlier op of that delta
    /// already followed. The patched table equals [`PriceTermTable::new`]
    /// on `problem` bit for bit, and a patch costs only the touched rows.
    ///
    /// * [`DeltaOp::AddFlow`] appends the next flow id's rows and rebuilds
    ///   the usage and flow-cost rows, which costs one pass over the link
    ///   and node terms.
    /// * [`DeltaOp::RemoveFlow`] and [`DeltaOp::SetFlowNodeCost`] rewrite the
    ///   flow's link terms, its node terms' `F_{b,i}`, its entries in the
    ///   usage rows of its links and in the flow-cost rows of its nodes, and
    ///   its reliability column.
    /// * [`DeltaOp::SetLinkLoss`] rewrites the reliability column of every
    ///   flow on the link.
    /// * The other ops touch no coefficient here.
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
    /// table.refresh(&edited, &delta.ops()[0]);
    /// assert_eq!(table, PriceTermTable::new(&edited));
    /// ```
    pub fn refresh(&mut self, problem: &Problem, op: &DeltaOp) {
        match *op {
            DeltaOp::AddFlow { .. } => {
                let flow = FlowId::new(self.link_offsets.len().saturating_sub(1) as u32);
                self.push_flow(problem, flow);
                self.transpose(problem.num_nodes(), problem.num_links());
            }
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
    }

    /// Rewrites every path coefficient of `flow`: its link and node terms,
    /// its entry in each of its links' usage rows and in each of its nodes'
    /// flow-cost rows, and its reliability column.
    fn refresh_flow(&mut self, problem: &Problem, flow: FlowId) {
        let f = flow.index();
        let row = csr_row_mut(&mut self.link_terms, &self.link_offsets, f);
        for (term, &(link, cost)) in row.iter_mut().zip(problem.links_of_flow(flow)) {
            term.1 = cost;
            let usage = csr_row_mut(&mut self.usage_terms, &self.usage_offsets, link.index());
            patch_transposed(usage, f, cost);
        }
        let row = csr_row_mut(&mut self.node_terms, &self.node_offsets, f);
        for (term, &(node, flow_cost)) in row.iter_mut().zip(problem.nodes_of_flow(flow)) {
            term.flow_cost = flow_cost;
            let costs =
                csr_row_mut(&mut self.flow_cost_terms, &self.flow_cost_offsets, node.index());
            patch_transposed(costs, f, flow_cost);
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

/// Transposes per-flow rows (`terms` sliced by `offsets`) into `keys` rows
/// of `(flow index, coefficient)` by a counting sort, reusing both output
/// buffers and indexing totally. `entry` reads a term's key (its link or
/// node) and coefficient. Flows are visited in ascending id, so each row
/// lists its flows in ascending id, as [`Problem::flows_on_link`] and
/// [`Problem::flows_at_node`] do.
fn transpose_rows<T>(
    terms: &[T],
    offsets: &[u32],
    entry: impl Fn(&T) -> (u32, f64),
    keys: usize,
    out_terms: &mut Vec<(u32, f64)>,
    out_offsets: &mut Vec<u32>,
) {
    // Count each key's terms one slot ahead and prefix-sum the counts:
    // `out_offsets[k + 1]` is then where row `k` starts.
    out_offsets.clear();
    out_offsets.resize(keys + 1, 0);
    for term in terms {
        if let Some(count) = out_offsets.get_mut(entry(term).0 as usize + 2) {
            *count += 1;
        }
    }
    let mut running = 0;
    for offset in out_offsets.iter_mut() {
        running += *offset;
        *offset = running;
    }
    // Drop every term into its row, advancing the row's cursor
    // `out_offsets[k + 1]`; once all are placed it is where row `k` ends,
    // so the offsets are final.
    out_terms.clear();
    out_terms.resize(terms.len(), (0, 0.0));
    for flow in 0..offsets.len().saturating_sub(1) {
        for term in csr_row(terms, offsets, flow) {
            let (key, cost) = entry(term);
            if let Some(cursor) = out_offsets.get_mut(key as usize + 1) {
                if let Some(slot) = out_terms.get_mut(*cursor as usize) {
                    *slot = (flow as u32, cost);
                }
                *cursor += 1;
            }
        }
    }
}

/// Sets flow `flow`'s coefficient in one transposed row, which lists its
/// flows in ascending id, each once.
fn patch_transposed(row: &mut [(u32, f64)], flow: usize, cost: f64) {
    if let Ok(at) = row.binary_search_by_key(&(flow as u32), |&(g, _)| g) {
        if let Some(entry) = row.get_mut(at) {
            entry.1 = cost;
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
        assert!(t.flow_cost_terms(NodeId::new(0)).is_empty(), "the source has no F entry");
        assert_eq!(t.flow_cost_terms(NodeId::new(1)), &[(0, 3.0)]);
        assert_eq!(t.flow_cost_terms(NodeId::new(2)), &[(0, 1.5)]);
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
        for node in p.node_ids() {
            assert_eq!(t.flow_cost_terms(node).len(), p.flows_at_node(node).len());
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
    /// list filtered by flow, every usage term a `link_cost` search, and
    /// every flow-cost term a `flow_node_cost` search.
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
        let mut flow_cost_terms = Vec::new();
        let mut flow_cost_offsets = vec![0];
        for node in problem.node_ids() {
            for &flow in problem.flows_at_node(node) {
                flow_cost_terms.push((flow.index() as u32, problem.flow_node_cost(node, flow)));
            }
            flow_cost_offsets.push(flow_cost_terms.len() as u32);
        }
        PriceTermTable {
            node_terms,
            class_terms,
            usage_terms,
            usage_offsets,
            flow_cost_terms,
            flow_cost_offsets,
            ..fast
        }
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
        out.extend(pairs(&t.flow_cost_terms));
        out.extend(offsets(&t.flow_cost_offsets));
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

    /// A seed-driven list of ops: flow removals, flow additions (a copy of
    /// an existing flow and its classes), edits of existing `F_{b,i}`
    /// entries, and, where a spec is attached, link-loss edits.
    fn delta_ops(problem: &Problem, seed: u64) -> Vec<DeltaOp> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lossy = problem.reliability().is_some() && problem.num_links() > 0;
        (0..6)
            .map(|_| {
                let flow = FlowId::new(rng.gen_range(0..problem.num_flows()) as u32);
                let nodes = problem.nodes_of_flow(flow);
                match rng.gen_range(0..4) {
                    1 if !nodes.is_empty() => DeltaOp::SetFlowNodeCost {
                        flow,
                        node: nodes[rng.gen_range(0..nodes.len())].0,
                        cost: rng.gen_range(0.0..40.0),
                    },
                    2 if lossy => DeltaOp::SetLinkLoss {
                        link: LinkId::new(rng.gen_range(0..problem.num_links()) as u32),
                        loss: rng.gen_range(0.0..0.5),
                    },
                    3 => DeltaOp::AddFlow {
                        flow: problem.flow(flow).clone(),
                        classes: problem
                            .classes_of_flow(flow)
                            .iter()
                            .map(|&c| problem.class(c).clone())
                            .collect(),
                    },
                    _ => DeltaOp::RemoveFlow { flow },
                }
            })
            .collect()
    }

    #[test]
    fn refreshed_table_equals_a_fresh_build_on_every_generator() {
        let mut lossy_cases = 0;
        let mut additions = 0;
        for (name, p) in every_generator() {
            for seed in 0..4 {
                let ops = delta_ops(&p, seed);
                lossy_cases += ops.iter().filter(|op| matches!(op, DeltaOp::SetLinkLoss { .. })).count();
                additions += ops.iter().filter(|op| op.grows_problem()).count();
                let mut delta = crate::ProblemDelta::new();
                for op in &ops {
                    delta.push(op.clone());
                }
                let edited = delta.apply(&p).expect("every op is valid");
                let mut table = PriceTermTable::new(&p);
                for op in &ops {
                    table.refresh(&edited, op);
                }
                assert_eq!(
                    fingerprint(&table),
                    fingerprint(&PriceTermTable::new(&edited)),
                    "{name} seed {seed}: {ops:?}"
                );
            }
        }
        assert!(lossy_cases > 0, "the lossy generators must draw loss edits");
        assert!(additions > 0, "the generators must draw flow additions");
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
        assert!(p.node_ids().all(|b| t.flow_cost_terms(b).iter().all(|&(_, c)| c == 0.0)));
    }
}