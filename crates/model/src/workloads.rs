//! The paper's test workloads (§4.1) and generators for synthetic ones.
//!
//! The base workload is Table 1 of the paper: 6 flows, 3 consumer nodes
//! (S0–S2), 20 consumer classes in identical pairs, with the Gryphon-measured
//! resource model `F = 3`, `G = 19`, `c_b = 9·10⁵` and rate bounds
//! `[10, 1000]`. Scaling follows §4.3: either replicate the consumer-node
//! set (same flows reach more consumers) or replicate the whole system
//! (more flows *and* more consumer nodes).

use crate::ids::NodeId;
use crate::problem::{Problem, ProblemBuilder, RateBounds, ReliabilitySpec, RhoBounds};
use crate::utility::{Utility, UtilityShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Flow-node cost `F_{b,i}` measured on Gryphon (§4.1).
pub const GRYPHON_FLOW_NODE_COST: f64 = 3.0;
/// Consumer-node cost `G_{b,j}` measured on Gryphon (§4.1).
pub const GRYPHON_CONSUMER_COST: f64 = 19.0;
/// Node capacity `c_b` used in all paper workloads (§4.1).
pub const GRYPHON_NODE_CAPACITY: f64 = 9e5;
/// Lower rate bound `r^min` shared by all paper flows (§4.1).
pub const PAPER_RATE_MIN: f64 = 10.0;
/// Upper rate bound `r^max` shared by all paper flows (§4.1).
pub const PAPER_RATE_MAX: f64 = 1000.0;

/// One row of Table 1: a *pair* of identical classes differing only in the
/// node they attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Flow index (0–5) within the base workload.
    pub flow: u32,
    /// The two consumer nodes (indices into {S0, S1, S2}) the pair attaches
    /// to.
    pub nodes: [u32; 2],
    /// `n^max` of each class in the pair.
    pub max_population: u32,
    /// Class rank (utility weight).
    pub rank: u32,
}

/// The ten rows of Table 1, in order; row `k` defines classes `2k`/`2k+1`.
pub const TABLE1: [Table1Row; 10] = [
    Table1Row { flow: 0, nodes: [0, 2], max_population: 400, rank: 20 },
    Table1Row { flow: 0, nodes: [0, 2], max_population: 800, rank: 5 },
    Table1Row { flow: 0, nodes: [0, 2], max_population: 2000, rank: 1 },
    Table1Row { flow: 1, nodes: [0, 1], max_population: 1000, rank: 15 },
    Table1Row { flow: 2, nodes: [1, 2], max_population: 1500, rank: 10 },
    Table1Row { flow: 3, nodes: [0, 2], max_population: 400, rank: 30 },
    Table1Row { flow: 3, nodes: [0, 2], max_population: 800, rank: 3 },
    Table1Row { flow: 3, nodes: [0, 2], max_population: 2000, rank: 2 },
    Table1Row { flow: 4, nodes: [0, 1], max_population: 1000, rank: 40 },
    Table1Row { flow: 5, nodes: [1, 2], max_population: 1500, rank: 100 },
];

/// Number of flows in the base workload.
pub const BASE_FLOWS: usize = 6;
/// Number of consumer nodes in the base workload.
pub const BASE_CNODES: usize = 3;

/// Builds the base workload of Table 1 with the paper's default
/// `rank · log(1+r)` utilities.
///
/// # Examples
///
/// ```
/// let p = lrgp_model::workloads::base_workload();
/// assert_eq!(p.num_flows(), 6);
/// assert_eq!(p.num_classes(), 20);
/// ```
pub fn base_workload() -> Problem {
    paper_workload(UtilityShape::Log, 1, 1)
}

/// Builds the base workload with an alternative utility shape (§4.5).
pub fn base_workload_with_shape(shape: UtilityShape) -> Problem {
    paper_workload(shape, 1, 1)
}

/// Builds a paper workload scaled per §4.3.
///
/// * `system_copies` — number of disjoint copies of the whole base system
///   (flows *and* consumer nodes). `2` gives "12 flows, 6 c-nodes".
/// * `cnode_copies` — number of copies of the consumer-node set *within*
///   each system copy, with flows held constant. `4` gives "6 flows,
///   12 c-nodes" when `system_copies` is 1. New consumer nodes have the same
///   characteristics (capacities, attached class pairs) as the originals.
///
/// Each flow gets its own source node (the paper's workloads have no link
/// bottlenecks, so topology reduces to "which consumer nodes does each flow
/// reach"; sources carry no cost entries).
///
/// # Panics
///
/// Panics if either multiplier is zero.
pub fn paper_workload(shape: UtilityShape, system_copies: usize, cnode_copies: usize) -> Problem {
    assert!(system_copies > 0, "system_copies must be positive");
    assert!(cnode_copies > 0, "cnode_copies must be positive");
    let mut b = ProblemBuilder::new();
    // lrgp-lint: allow(library-unwrap, reason = "paper constants are statically valid; a failure is a programming error")
    let bounds = RateBounds::new(PAPER_RATE_MIN, PAPER_RATE_MAX).expect("paper bounds valid");

    for sys in 0..system_copies {
        // Consumer nodes: cnode_copies replicas of {S0, S1, S2}.
        let mut cnodes = Vec::with_capacity(BASE_CNODES * cnode_copies);
        for copy in 0..cnode_copies {
            for s in 0..BASE_CNODES {
                let label = format!("sys{sys}/S{s}.{copy}");
                cnodes.push(b.add_labeled_node(GRYPHON_NODE_CAPACITY, label));
            }
        }
        // One source node per flow.
        let sources: Vec<NodeId> = (0..BASE_FLOWS)
            .map(|f| b.add_labeled_node(GRYPHON_NODE_CAPACITY, format!("sys{sys}/src{f}")))
            .collect();
        let flows: Vec<_> =
            sources.iter().map(|&src| b.add_flow(src, bounds)).collect();

        // Route each flow to every replica of the nodes its classes attach
        // to, then attach the classes.
        for row in &TABLE1 {
            let flow = flows[row.flow as usize];
            for copy in 0..cnode_copies {
                for &s in &row.nodes {
                    let node = cnodes[copy * BASE_CNODES + s as usize];
                    b.set_node_cost(flow, node, GRYPHON_FLOW_NODE_COST);
                    b.add_class(
                        flow,
                        node,
                        row.max_population,
                        shape.build(row.rank as f64),
                        GRYPHON_CONSUMER_COST,
                    );
                }
            }
        }
    }
    build_generated(b, "paper workload is structurally valid")
}

/// The six workloads of Table 2, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Table2Workload {
    /// 6 flows, 3 c-nodes (the base workload).
    Base,
    /// 12 flows, 6 c-nodes (2 system copies).
    Flows12Cnodes6,
    /// 24 flows, 12 c-nodes (4 system copies).
    Flows24Cnodes12,
    /// 6 flows, 6 c-nodes (2 c-node copies).
    Flows6Cnodes6,
    /// 6 flows, 12 c-nodes (4 c-node copies).
    Flows6Cnodes12,
    /// 6 flows, 24 c-nodes (8 c-node copies).
    Flows6Cnodes24,
}

impl Table2Workload {
    /// All rows in the paper's order.
    pub const ALL: [Table2Workload; 6] = [
        Table2Workload::Base,
        Table2Workload::Flows12Cnodes6,
        Table2Workload::Flows24Cnodes12,
        Table2Workload::Flows6Cnodes6,
        Table2Workload::Flows6Cnodes12,
        Table2Workload::Flows6Cnodes24,
    ];

    /// `(system_copies, cnode_copies)` for [`paper_workload`].
    pub fn multipliers(self) -> (usize, usize) {
        match self {
            Table2Workload::Base => (1, 1),
            Table2Workload::Flows12Cnodes6 => (2, 1),
            Table2Workload::Flows24Cnodes12 => (4, 1),
            Table2Workload::Flows6Cnodes6 => (1, 2),
            Table2Workload::Flows6Cnodes12 => (1, 4),
            Table2Workload::Flows6Cnodes24 => (1, 8),
        }
    }

    /// Builds the workload with log utilities (as in Table 2).
    pub fn build(self) -> Problem {
        let (sys, cn) = self.multipliers();
        paper_workload(UtilityShape::Log, sys, cn)
    }

    /// The label used in the paper's Table 2.
    pub fn label(self) -> &'static str {
        match self {
            Table2Workload::Base => "6 flows, 3 c-nodes",
            Table2Workload::Flows12Cnodes6 => "12 flows, 6 c-nodes",
            Table2Workload::Flows24Cnodes12 => "24 flows, 12 c-nodes",
            Table2Workload::Flows6Cnodes6 => "6 flows, 6 c-nodes",
            Table2Workload::Flows6Cnodes12 => "6 flows, 12 c-nodes",
            Table2Workload::Flows6Cnodes24 => "6 flows, 24 c-nodes",
        }
    }
}

/// Configuration for randomized workload generation.
///
/// Produces problems with the same *structure* as the paper's (flows with
/// dedicated sources, classes spread over consumer nodes, uniform resource
/// model) but randomized populations, ranks and attachment patterns. Useful
/// for property-based testing and robustness experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWorkload {
    /// Number of flows.
    pub flows: usize,
    /// Number of consumer nodes.
    pub consumer_nodes: usize,
    /// Classes per flow (each attached to a uniformly random c-node).
    pub classes_per_flow: usize,
    /// Inclusive range for `n_j^max`.
    pub max_population: (u32, u32),
    /// Inclusive range for the class rank (utility weight).
    pub rank: (f64, f64),
    /// Utility shape shared by all classes.
    pub shape: UtilityShape,
    /// When `true`, ignore [`Self::shape`] and cycle each flow's classes
    /// through [`UtilityShape::ALL`]. Flows with ≥ 2 classes then mix
    /// shapes, which denies `solve_rate` its closed forms and forces the
    /// bisection fallback — the compute-heavy regime the step benchmarks
    /// run under.
    pub mixed_shapes: bool,
    /// Node capacity `c_b`.
    pub node_capacity: f64,
    /// Flow-node cost `F_{b,i}`.
    pub flow_node_cost: f64,
    /// Consumer cost `G_{b,j}`.
    pub consumer_cost: f64,
    /// Rate bounds shared by all flows.
    pub rate_bounds: (f64, f64),
}

impl Default for RandomWorkload {
    fn default() -> Self {
        Self {
            flows: 4,
            consumer_nodes: 3,
            classes_per_flow: 3,
            max_population: (100, 2000),
            rank: (1.0, 100.0),
            shape: UtilityShape::Log,
            mixed_shapes: false,
            node_capacity: GRYPHON_NODE_CAPACITY,
            flow_node_cost: GRYPHON_FLOW_NODE_COST,
            consumer_cost: GRYPHON_CONSUMER_COST,
            rate_bounds: (PAPER_RATE_MIN, PAPER_RATE_MAX),
        }
    }
}

impl RandomWorkload {
    /// Generates a problem using the supplied RNG (deterministic for a
    /// seeded RNG).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no flows, no consumer
    /// nodes, no classes, or reversed ranges).
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Problem {
        assert!(self.flows > 0 && self.consumer_nodes > 0 && self.classes_per_flow > 0);
        assert!(self.max_population.0 <= self.max_population.1);
        assert!(self.rank.0 <= self.rank.1);
        let mut b = ProblemBuilder::new();
        let cnodes: Vec<NodeId> = (0..self.consumer_nodes)
            .map(|i| b.add_labeled_node(self.node_capacity, format!("C{i}")))
            .collect();
        let bounds = RateBounds::new(self.rate_bounds.0, self.rate_bounds.1)
            // lrgp-lint: allow(library-unwrap, reason = "workload specs assert their own bounds; invalid specs are caller bugs")
            .expect("random workload rate bounds must be valid");
        for f in 0..self.flows {
            let src = b.add_labeled_node(self.node_capacity, format!("src{f}"));
            let flow = b.add_flow(src, bounds);
            for c in 0..self.classes_per_flow {
                let node = cnodes[rng.gen_range(0..cnodes.len())];
                b.set_node_cost(flow, node, self.flow_node_cost);
                let n_max = rng.gen_range(self.max_population.0..=self.max_population.1);
                let rank = rng.gen_range(self.rank.0..=self.rank.1);
                let shape = if self.mixed_shapes {
                    UtilityShape::ALL[c % UtilityShape::ALL.len()]
                } else {
                    self.shape
                };
                b.add_class(flow, node, n_max, shape.build(rank), self.consumer_cost);
            }
        }
        build_generated(b, "random workload is structurally valid")
    }
}

/// Rate bounds shared by the synthetic (non-paper) generators.
fn generator_rate_bounds() -> RateBounds {
    // lrgp-lint: allow(library-unwrap, reason = "literal bounds are statically valid")
    RateBounds::new(1.0, 10_000.0).expect("valid bounds")
}

/// Finishes a generator-assembled builder. Generators construct problems
/// that are structurally valid by construction, so a build failure is a
/// programming error in the generator, not caller input.
fn build_generated(b: ProblemBuilder, what: &str) -> Problem {
    // lrgp-lint: allow(library-unwrap, reason = "generator-built problems are structurally valid by construction")
    b.build().expect(what)
}

/// A workload with a *link* bottleneck, exercising the Low–Lapsley link
/// pricing path that the paper's node-focused workloads deliberately avoid
/// (§4.1, footnote 3).
///
/// Two flows share one link of capacity `link_capacity` (unit link cost);
/// each flow has one class with ample node capacity, so the link is the only
/// binding constraint. With log utilities the optimum splits the link in
/// proportion to `n_j · rank_j` (weighted proportional fairness).
pub fn link_bottleneck_workload(link_capacity: f64) -> Problem {
    let mut b = ProblemBuilder::new();
    let src0 = b.add_labeled_node(1e9, "src0");
    let src1 = b.add_labeled_node(1e9, "src1");
    let sink = b.add_labeled_node(1e9, "sink");
    let link = b.add_link_between(link_capacity, src0, sink);
    let bounds = generator_rate_bounds();
    let f0 = b.add_flow(src0, bounds);
    let f1 = b.add_flow(src1, bounds);
    for f in [f0, f1] {
        b.set_link_cost(f, link, 1.0);
        b.set_node_cost(f, sink, 0.001);
    }
    b.add_class(f0, sink, 10, Utility::log(30.0), 0.001);
    b.add_class(f1, sink, 10, Utility::log(10.0), 0.001);
    build_generated(b, "link bottleneck workload is structurally valid")
}

/// Reliability bounds used by the lossy workload generators:
/// `ρ ∈ [0.5, 0.999]`, wide enough that the joint engine has a real choice
/// between cheap-but-lossy and expensive-but-reliable delivery.
pub const GENERATOR_RHO_BOUNDS: RhoBounds = RhoBounds { min: 0.5, max: 0.999 };

/// [`link_bottleneck_workload`] with a [`ReliabilitySpec`] attached: the
/// shared link drops a fraction `loss` of traffic, both flows carry the
/// generator's default ρ bounds, and redundancy factor 1 couples ρ back
/// into link usage. The smallest workload on which the joint
/// rate–reliability engine has something to decide.
///
/// # Panics
///
/// Panics if `loss` lies outside `[0, 1)`.
pub fn lossy_link_bottleneck_workload(link_capacity: f64, loss: f64) -> Problem {
    let p = link_bottleneck_workload(link_capacity);
    let spec =
        ReliabilitySpec::uniform(p.num_flows(), p.num_links(), GENERATOR_RHO_BOUNDS, loss, 1.0);
    // lrgp-lint: allow(library-unwrap, reason = "generator-built problems are structurally valid by construction")
    p.with_reliability(spec).expect("lossy bottleneck spec is shape-correct by construction")
}

/// A multi-link lossy workload: `pairs` disjoint copies of the
/// link-bottleneck topology, each link with its *own* loss rate drawn
/// deterministically from `seed` (uniform in `[0, 0.3)`), and per-flow
/// class ranks drawn from `[5, 50]`. The per-link mix of clean and lossy
/// links is what the integrated-allocation experiment and the differential
/// harness run against: flows on clean links should hold high ρ, flows on
/// lossy links should trade ρ away as redundancy gets expensive.
///
/// # Panics
///
/// Panics if `pairs` is zero.
pub fn mixed_loss_workload(pairs: usize, link_capacity: f64, seed: u64) -> Problem {
    assert!(pairs > 0, "pairs must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProblemBuilder::new();
    let bounds = generator_rate_bounds();
    let mut link_loss = Vec::with_capacity(pairs);
    let mut rho_bounds = Vec::with_capacity(2 * pairs);
    for k in 0..pairs {
        let src0 = b.add_labeled_node(1e9, format!("pair{k}/src0"));
        let src1 = b.add_labeled_node(1e9, format!("pair{k}/src1"));
        let sink = b.add_labeled_node(1e9, format!("pair{k}/sink"));
        let link = b.add_link_between(link_capacity, src0, sink);
        let f0 = b.add_flow(src0, bounds);
        let f1 = b.add_flow(src1, bounds);
        for f in [f0, f1] {
            b.set_link_cost(f, link, 1.0);
            b.set_node_cost(f, sink, 0.001);
            b.add_class(f, sink, 10, Utility::log(rng.gen_range(5.0..=50.0)), 0.001);
            rho_bounds.push(GENERATOR_RHO_BOUNDS);
        }
        link_loss.push(rng.gen_range(0.0..0.3));
    }
    b.set_reliability(ReliabilitySpec { rho_bounds, link_loss, redundancy: 1.0 });
    build_generated(b, "mixed loss workload is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, FlowId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn base_workload_matches_table1() {
        let p = base_workload();
        assert_eq!(p.num_flows(), 6);
        assert_eq!(p.num_classes(), 20);
        // 3 c-nodes + 6 sources.
        assert_eq!(p.num_nodes(), 9);
        assert_eq!(p.num_links(), 0);
        // Spot-check the highest-rank pair (row 9 → classes 18, 19).
        let c18 = p.class(ClassId::new(18));
        assert_eq!(c18.flow, FlowId::new(5));
        assert_eq!(c18.max_population, 1500);
        assert_eq!(c18.utility, Utility::log(100.0));
        assert_eq!(c18.consumer_cost, GRYPHON_CONSUMER_COST);
        // Total demand: 2·(400+800+2000+1000+1500+400+800+2000+1000+1500)
        assert_eq!(p.total_demand(), 2 * 11_400);
    }

    #[test]
    fn base_workload_class_pairs_differ_only_in_node() {
        let p = base_workload();
        for k in 0..10 {
            let a = p.class(ClassId::new(2 * k));
            let b = p.class(ClassId::new(2 * k + 1));
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.max_population, b.max_population);
            assert_eq!(a.utility, b.utility);
            assert_ne!(a.node, b.node);
        }
    }

    #[test]
    fn flows_routed_only_where_classes_present() {
        let p = base_workload();
        for flow in p.flow_ids() {
            let reached: Vec<_> = p.nodes_of_flow(flow).iter().map(|(n, _)| *n).collect();
            for &node in &reached {
                assert!(
                    p.classes_of_flow_at_node(flow, node).next().is_some(),
                    "{flow} reaches {node} without classes there"
                );
            }
            // Every class node is reached.
            for &c in p.classes_of_flow(flow) {
                assert!(reached.contains(&p.class(c).node));
            }
        }
    }

    #[test]
    fn node_capacities_and_bounds_match_paper() {
        let p = base_workload();
        for n in p.node_ids() {
            assert_eq!(p.node(n).capacity, GRYPHON_NODE_CAPACITY);
        }
        for f in p.flow_ids() {
            assert_eq!(p.flow(f).bounds, RateBounds { min: 10.0, max: 1000.0 });
        }
    }

    #[test]
    fn shape_variant_changes_all_utilities() {
        let p = base_workload_with_shape(UtilityShape::Pow75);
        for c in p.class_ids() {
            assert!(matches!(p.class(c).utility, Utility::Power { exponent, .. } if exponent == 0.75));
        }
    }

    #[test]
    fn system_scaling_replicates_disjointly() {
        let p = paper_workload(UtilityShape::Log, 2, 1);
        assert_eq!(p.num_flows(), 12);
        assert_eq!(p.num_classes(), 40);
        assert_eq!(p.num_nodes(), 18);
        // No flow of the first copy reaches a node of the second copy.
        let first_copy_flows: Vec<_> = (0..6).map(FlowId::new).collect();
        for &f in &first_copy_flows {
            for (node, _) in p.nodes_of_flow(f) {
                assert!(node.index() < 9, "flow {f} crosses system copies");
            }
        }
    }

    #[test]
    fn cnode_scaling_keeps_flows_and_replicates_classes() {
        let p = paper_workload(UtilityShape::Log, 1, 4);
        assert_eq!(p.num_flows(), 6);
        assert_eq!(p.num_classes(), 80);
        assert_eq!(p.num_nodes(), 12 + 6);
        // Flow 0 now reaches 8 c-nodes (S0, S2 in each of 4 copies).
        assert_eq!(p.nodes_of_flow(FlowId::new(0)).len(), 8);
    }

    #[test]
    fn table2_rows_have_expected_dimensions() {
        let dims: Vec<(usize, usize)> = Table2Workload::ALL
            .iter()
            .map(|w| {
                let p = w.build();
                // consumer nodes = total - sources
                (p.num_flows(), p.num_nodes() - p.num_flows())
            })
            .collect();
        assert_eq!(dims, vec![(6, 3), (12, 6), (24, 12), (6, 6), (6, 12), (6, 24)]);
        for w in Table2Workload::ALL {
            assert!(!w.label().is_empty());
        }
    }

    #[test]
    fn random_workload_is_deterministic_per_seed() {
        let cfg = RandomWorkload::default();
        let a = cfg.generate(&mut StdRng::seed_from_u64(7));
        let b = cfg.generate(&mut StdRng::seed_from_u64(7));
        let c = cfg.generate(&mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_flows(), cfg.flows);
        assert_eq!(a.num_classes(), cfg.flows * cfg.classes_per_flow);
    }

    #[test]
    fn random_workload_ranges_respected() {
        let cfg = RandomWorkload {
            flows: 10,
            classes_per_flow: 5,
            max_population: (50, 60),
            rank: (2.0, 3.0),
            ..RandomWorkload::default()
        };
        let p = cfg.generate(&mut StdRng::seed_from_u64(1));
        for c in p.class_ids() {
            let spec = p.class(c);
            assert!((50..=60).contains(&spec.max_population));
            let w = spec.utility.weight();
            assert!((2.0..=3.0).contains(&w));
        }
    }

    #[test]
    fn random_workload_mixed_shapes_cycle_within_each_flow() {
        let cfg = RandomWorkload {
            flows: 5,
            classes_per_flow: 4,
            mixed_shapes: true,
            ..RandomWorkload::default()
        };
        let p = cfg.generate(&mut StdRng::seed_from_u64(3));
        for f in p.flow_ids() {
            let classes = p.classes_of_flow(f);
            assert_eq!(classes.len(), 4);
            let expected = [
                UtilityShape::Log,
                UtilityShape::Pow25,
                UtilityShape::Pow50,
                UtilityShape::Pow75,
            ];
            for (&c, shape) in classes.iter().zip(expected) {
                let rank = p.class(c).utility.weight();
                assert_eq!(p.class(c).utility, shape.build(rank));
            }
        }
    }

    #[test]
    fn link_bottleneck_workload_binds_on_link() {
        let p = link_bottleneck_workload(100.0);
        assert_eq!(p.num_links(), 1);
        assert_eq!(p.num_flows(), 2);
        let link = crate::ids::LinkId::new(0);
        assert_eq!(p.link(link).capacity, 100.0);
        assert_eq!(p.flows_on_link(link).len(), 2);
    }

    #[test]
    #[should_panic(expected = "system_copies must be positive")]
    fn paper_workload_rejects_zero_copies() {
        let _ = paper_workload(UtilityShape::Log, 0, 1);
    }

    #[test]
    fn lossy_bottleneck_attaches_spec() {
        let p = lossy_link_bottleneck_workload(500.0, 0.1);
        let spec = p.reliability().expect("spec attached");
        assert_eq!(spec.link_loss, vec![0.1]);
        assert_eq!(spec.rho_bounds, vec![GENERATOR_RHO_BOUNDS; 2]);
        assert_eq!(spec.redundancy, 1.0);
        // The underlying topology is untouched.
        assert_eq!(p.without_reliability(), link_bottleneck_workload(500.0));
    }

    #[test]
    fn mixed_loss_workload_is_deterministic_per_seed() {
        let a = mixed_loss_workload(4, 500.0, 11);
        let b = mixed_loss_workload(4, 500.0, 11);
        let c = mixed_loss_workload(4, 500.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_links(), 4);
        assert_eq!(a.num_flows(), 8);
        assert_eq!(a.num_classes(), 8);
        let spec = a.reliability().expect("spec attached");
        assert_eq!(spec.link_loss.len(), 4);
        for &loss in &spec.link_loss {
            assert!((0.0..0.3).contains(&loss), "loss {loss} out of generator range");
        }
        assert_eq!(spec.rho_bounds.len(), 8);
    }

    #[test]
    fn mixed_loss_pairs_are_disjoint() {
        let p = mixed_loss_workload(3, 500.0, 5);
        for k in 0..3u32 {
            let link = crate::ids::LinkId::new(k);
            let on_link: Vec<_> = p.flows_on_link(link).to_vec();
            assert_eq!(on_link, vec![FlowId::new(2 * k), FlowId::new(2 * k + 1)]);
        }
    }
}
