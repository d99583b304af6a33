//! Properties of the derived indexes a `Problem` keeps: `attachMap` must
//! match a plain filter of the node's class list, and indexes maintained in
//! place by deltas must equal the ones a from-scratch build derives.

use lrgp_model::workloads::RandomWorkload;
use lrgp_model::{
    ClassId, ClassSpec, FlowId, FlowSpec, NodeId, Problem, ProblemDelta, RateBounds, Utility,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `attachMap_i(b)` as a filter of `nodeClasses(b)` by flow.
fn node_list_filter(p: &Problem, flow: FlowId, node: NodeId) -> Vec<ClassId> {
    p.classes_at_node(node).iter().copied().filter(|&c| p.class(c).flow == flow).collect()
}

fn assert_indexes_sound(p: &Problem) {
    for flow in p.flow_ids() {
        for node in p.node_ids() {
            let attached: Vec<ClassId> = p.classes_of_flow_at_node(flow, node).collect();
            assert_eq!(attached, node_list_filter(p, flow, node), "{flow} at {node}");
        }
    }
    // Loading rebuilds every index through the builder.
    let rebuilt: Problem = serde_json::from_str(&serde_json::to_string(p).unwrap()).unwrap();
    assert_eq!(&rebuilt, p, "indexes differ from a from-scratch build");
}

/// A seed-chosen delta resolved against `p`'s current dimensions.
fn resolve(p: &Problem, kind: u8, sel: u64, magnitude: f64) -> ProblemDelta {
    let n = p.num_nodes() as u64;
    let flow = FlowId::new((sel % p.num_flows() as u64) as u32);
    match kind {
        0 => {
            // A flow joining at up to two nodes, with a class at each.
            let mut nodes = vec![NodeId::new((sel % n) as u32)];
            let second = NodeId::new(((sel / 7) % n) as u32);
            if second != nodes[0] {
                nodes.push(second);
            }
            let spec = FlowSpec {
                source: NodeId::new(((sel / 13) % n) as u32),
                bounds: RateBounds::new(1.0, 100.0 + magnitude).unwrap(),
                link_costs: vec![],
                node_costs: nodes.iter().map(|&node| (node, 1.0 + magnitude)).collect(),
            };
            let classes = nodes
                .iter()
                .map(|&node| ClassSpec {
                    flow: FlowId::new(0),
                    node,
                    max_population: (sel % 500) as u32,
                    utility: Utility::log(1.0 + magnitude),
                    consumer_cost: 2.0,
                })
                .collect();
            ProblemDelta::new().add_flow(spec, classes)
        }
        1 => ProblemDelta::new().remove_flow(flow),
        _ => match p.nodes_of_flow(flow).first() {
            Some(&(node, _)) => ProblemDelta::new().set_flow_node_cost(flow, node, magnitude),
            None => ProblemDelta::new(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The shorter-list `attachMap` equals the node-list filter on random
    /// problems, before and after every delta of a mixed
    /// `AddFlow`/`RemoveFlow`/`SetFlowNodeCost` schedule.
    #[test]
    fn attach_map_matches_node_list_filter_through_deltas(
        flows in 1usize..30,
        consumer_nodes in 1usize..6,
        classes_per_flow in 1usize..8,
        seed in any::<u64>(),
        schedule in proptest::collection::vec((0u8..3, any::<u64>(), 0.0f64..50.0), 1..8),
    ) {
        let generator =
            RandomWorkload { flows, consumer_nodes, classes_per_flow, ..RandomWorkload::default() };
        let mut p = generator.generate(&mut StdRng::seed_from_u64(seed));
        assert_indexes_sound(&p);
        for (kind, sel, magnitude) in schedule {
            p = resolve(&p, kind, sel, magnitude).apply(&p).expect("resolved deltas are valid");
            assert_indexes_sound(&p);
        }
    }
}
