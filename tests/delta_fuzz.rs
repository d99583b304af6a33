//! Fuzzing the engine behind the delta boundary: `Engine::apply_delta` on a
//! batch of valid and invalid ops must return `Ok` or `Err`, never panic.
//! A rejected batch leaves the engine bitwise unchanged. An accepted batch
//! leaves the problem `ProblemDelta::apply` computes, and the engine
//! stepping bit for bit like a fresh engine that `Engine::restore`s a
//! snapshot over that problem, whose first step recomputes everything.
//! When the batch keeps the id space, the snapshot is the one taken before
//! the delta, so the restore's clamps check `apply_delta`'s on their own;
//! when it adds a flow, it is the grown engine's. Either way the edited
//! problem is one `ProblemBuilder::build` accepts: it comes back unchanged
//! from a save and reload, which builds it again.
//!
//! The engines are settled first, so only a delta's own dirt makes the next
//! incremental step re-solve anything. Ops draw ids in range, one past the
//! end (valid after a flow addition in the same batch) and `u32::MAX`, and
//! values at the edges of what `f64` can say. Bounds are built directly, so
//! they can be reversed or NaN. Flow additions copy an existing flow, its
//! rate sometimes pinned, or break it with an unreached class node, an
//! unknown source or a duplicate cost entry. On a problem with a reliability
//! spec, half the batches also carry a valid loss edit on a link ahead of a
//! valid copy of a flow that crosses it.

use lrgp::{Engine, IncrementalMode, LrgpConfig, Reliability};
use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::{mixed_loss_workload, RandomWorkload};
use lrgp_model::{
    ClassId, ClassSpec, DeltaOp, FlowId, FlowSpec, LinkId, NodeId, Problem, ProblemDelta,
    RateBounds, RhoBounds, UtilityShape,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const EDGE_VALUES: [f64; 8] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1e-300, 1e300];

/// A copy of one of the engines every batch starts from, each settled for
/// 2,000 steps once: a small random workload (no links, no reliability
/// spec), a small lossy one under joint rate–reliability allocation, and the
/// lossy one without its spec, so that loss edits on a known link meet a
/// problem that has no spec.
fn engine(workload: usize) -> Engine {
    static SETTLED: OnceLock<Vec<Engine>> = OnceLock::new();
    let settled = SETTLED.get_or_init(|| {
        let config = LrgpConfig { incremental: IncrementalMode::On, ..LrgpConfig::default() };
        let random = RandomWorkload {
            flows: 6,
            consumer_nodes: 3,
            classes_per_flow: 2,
            ..Default::default()
        };
        let lossy = mixed_loss_workload(3, 100.0, 7);
        let joint = LrgpConfig { reliability: Reliability::Joint, ..config };
        let mut engines = vec![
            Engine::new(random.generate(&mut StdRng::seed_from_u64(7)), config),
            Engine::new(lossy.clone(), joint),
            Engine::new(lossy.without_reliability(), config),
        ];
        for engine in &mut engines {
            engine.run(2_000);
        }
        engines
    });
    settled[workload].clone()
}

/// An id in range, one past the end, or `u32::MAX`.
fn id(rng: &mut StdRng, len: usize) -> u32 {
    match rng.gen_range(0..8) {
        0 => len as u32,
        1 => u32::MAX,
        _ => rng.gen_range(0..len.max(1)) as u32,
    }
}

/// An edge value, or a plain one near `typical`.
fn value(rng: &mut StdRng, typical: f64) -> f64 {
    if rng.gen_bool(0.4) {
        EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
    } else {
        typical * rng.gen_range(0.5..2.0)
    }
}

/// One op against `p`, valid or not.
fn op(rng: &mut StdRng, p: &Problem) -> DeltaOp {
    let flow = FlowId::new(id(rng, p.num_flows()));
    match rng.gen_range(0..9) {
        0 => DeltaOp::RemoveFlow { flow },
        1 => DeltaOp::SetNodeCapacity {
            node: NodeId::new(id(rng, p.num_nodes())),
            capacity: value(rng, 1e6),
        },
        2 => DeltaOp::SetLinkCapacity {
            link: LinkId::new(id(rng, p.num_links())),
            capacity: value(rng, 100.0),
        },
        3 => DeltaOp::SetMaxPopulation {
            class: ClassId::new(id(rng, p.num_classes())),
            max_population: [0, 1, 50, u32::MAX][rng.gen_range(0..4usize)],
        },
        4 => DeltaOp::SetRateBounds {
            flow,
            bounds: RateBounds { min: value(rng, 10.0), max: value(rng, 1e3) },
        },
        5 => {
            let reached = if flow.index() < p.num_flows() { p.nodes_of_flow(flow) } else { &[] };
            let node = if !reached.is_empty() && rng.gen_bool(0.7) {
                reached[rng.gen_range(0..reached.len())].0
            } else {
                NodeId::new(id(rng, p.num_nodes()))
            };
            DeltaOp::SetFlowNodeCost { flow, node, cost: value(rng, 1.0) }
        }
        6 => {
            let loss = if rng.gen_bool(0.2) {
                [1.0, 1.0 + f64::EPSILON][rng.gen_range(0..2usize)]
            } else {
                value(rng, 0.1)
            };
            DeltaOp::SetLinkLoss { link: LinkId::new(id(rng, p.num_links())), loss }
        }
        7 => {
            let mut fraction = || {
                if rng.gen_bool(0.3) {
                    value(rng, 0.5)
                } else {
                    rng.gen_range(0.3..=1.0)
                }
            };
            DeltaOp::SetRhoBounds { flow, bounds: RhoBounds { min: fraction(), max: fraction() } }
        }
        _ => add_flow(rng, p),
    }
}

/// A valid copy of `template` and its classes, its rate pinned
/// (`r_min == r_max`) half the time. A pinned arrival does not move in its
/// first solve, so on a settled engine only the arrival's own dirt makes
/// its nodes admit its classes and its links count its rate.
fn copy(rng: &mut StdRng, p: &Problem, template: FlowId) -> (FlowSpec, Vec<ClassSpec>) {
    let mut flow = p.flow(template).clone();
    if rng.gen_bool(0.5) {
        let RateBounds { min, max } = flow.bounds;
        let rate = min + (max - min) * rng.gen_range(0.0..1.0);
        flow.bounds = RateBounds { min: rate, max: rate };
    }
    let classes = p.classes_of_flow(template).iter().map(|&c| p.class(c).clone()).collect();
    (flow, classes)
}

/// A flow addition copying an existing flow and its classes, valid or
/// broken in one of three ways.
fn add_flow(rng: &mut StdRng, p: &Problem) -> DeltaOp {
    let template = FlowId::new(rng.gen_range(0..p.num_flows()) as u32);
    let (mut flow, mut classes) = copy(rng, p, template);
    match rng.gen_range(0..6) {
        0 => {
            let unreached = p.node_ids().find(|n| flow.node_costs.iter().all(|(m, _)| m != n));
            if let (Some(node), Some(class)) = (unreached, classes.first_mut()) {
                class.node = node;
            }
        }
        1 => flow.source = NodeId::new([p.num_nodes() as u32, u32::MAX][rng.gen_range(0..2usize)]),
        2 => {
            let entry = flow.node_costs[0];
            flow.node_costs.push(entry);
        }
        _ => {}
    }
    DeltaOp::AddFlow { flow, classes }
}

/// A valid loss edit on a link, and a valid copy of a flow that crosses it:
/// in one batch, the final problem lists the new flow on that link before
/// the executor has it. `None` without a reliability spec or a link.
fn loss_then_arrival(rng: &mut StdRng, p: &Problem) -> Option<[DeltaOp; 2]> {
    p.reliability()?;
    let crossing: Vec<FlowId> = p.flow_ids().filter(|&f| !p.links_of_flow(f).is_empty()).collect();
    let template = *crossing.get(rng.gen_range(0..crossing.len().max(1)))?;
    let links = p.links_of_flow(template);
    let link = links[rng.gen_range(0..links.len())].0;
    let loss = DeltaOp::SetLinkLoss { link, loss: rng.gen_range(0.0..0.5) };
    let (flow, classes) = copy(rng, p, template);
    Some([loss, DeltaOp::AddFlow { flow, classes }])
}

/// A batch of `len` ops against `p`; on a problem with a reliability spec,
/// half the time with [`loss_then_arrival`]'s pair at random places, the
/// loss edit first.
fn batch(rng: &mut StdRng, p: &Problem, len: usize) -> ProblemDelta {
    let mut ops: Vec<DeltaOp> = (0..len).map(|_| op(rng, p)).collect();
    if rng.gen_bool(0.5) {
        if let Some([loss, arrival]) = loss_then_arrival(rng, p) {
            let at = rng.gen_range(0..=ops.len());
            ops.insert(at, loss);
            ops.insert(rng.gen_range(at + 1..=ops.len()), arrival);
        }
    }
    let mut delta = ProblemDelta::new();
    for op in ops {
        delta.push(op);
    }
    delta
}

/// Every bit of an engine's state a caller can read.
fn state(e: &Engine) -> (String, Vec<u64>) {
    let a = e.allocation();
    let prices = e.prices();
    let values = a.rates().iter().chain(a.populations()).chain(prices.node_prices());
    let values = values.chain(prices.link_prices()).chain(e.rhos());
    (format!("{:?}", e.problem()), values.map(|x| x.to_bits()).collect())
}

/// `problem` after a save and a reload, which runs `ProblemBuilder::build`
/// on its primary data.
fn reloaded(problem: &Problem) -> Result<Problem, String> {
    let json = ProblemFile::new("fuzz", problem.clone()).to_json().map_err(|e| e.to_string())?;
    ProblemFile::from_json(&json).map(|file| file.problem).map_err(|e| e.to_string())
}

/// Steps both engines in lockstep and checks they stay bitwise equal.
fn lockstep(a: &mut Engine, b: &mut Engine) -> Result<(), TestCaseError> {
    for k in 0..10 {
        let (x, y) = (a.step(), b.step());
        prop_assert_eq!(x.to_bits(), y.to_bits(), "diverged at iteration {}", k);
    }
    prop_assert_eq!(state(a), state(b));
    Ok(())
}

/// How a batch ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Applied,
    /// Refused; `true` when an op before the failing one applied, so the
    /// refusal undid it.
    Refused(bool),
}

/// The property every batch must meet.
fn check(base: &Engine, delta: &ProblemDelta) -> Result<Outcome, TestCaseError> {
    let mut engine = base.clone();
    let Ok(()) = engine.apply_delta(delta) else {
        prop_assert_eq!(state(&engine), state(base));
        lockstep(&mut engine, &mut base.clone())?;
        // Count the ops that applied before the one that failed.
        let mut p = base.problem().clone();
        let applied = delta
            .ops()
            .iter()
            .take_while(|&op| {
                let mut single = ProblemDelta::new();
                single.push(op.clone());
                single.apply_in_place(&mut p).is_ok()
            })
            .count();
        return Ok(Outcome::Refused(applied > 0));
    };
    let Ok(expected) = delta.apply(base.problem()) else {
        return Err(TestCaseError::fail("the engine took a batch `apply` refuses"));
    };
    prop_assert_eq!(format!("{:?}", engine.problem()), format!("{expected:?}"));
    let reloaded = reloaded(&expected).map_err(TestCaseError::fail)?;
    prop_assert_eq!(format!("{reloaded:?}"), format!("{expected:?}"));
    let snapshot = if delta.grows_problem() { engine.snapshot() } else { base.snapshot() };
    let mut reference = Engine::restore(expected, snapshot).expect("the snapshot fits");
    lockstep(&mut engine, &mut reference)?;
    Ok(Outcome::Applied)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// A batch of one to five ops: `Ok` or `Err`, never a panic, and either
    /// way the engine ends where the contract says.
    #[test]
    fn delta_batches_apply_whole_or_not_at_all(
        workload in 0usize..3,
        len in 1usize..6,
        seed in any::<u64>(),
    ) {
        let base = engine(workload);
        let delta = batch(&mut StdRng::seed_from_u64(seed), base.problem(), len);
        check(&base, &delta)?;
    }
}

#[test]
fn delta_batches_reach_every_outcome() {
    // Guards the fuzzer itself: batches that always apply, or always fail
    // at their first op, would never reach the undo path.
    let mut outcomes = Vec::new();
    for seed in 0..256 {
        let base = engine(seed as usize % 3);
        let delta = batch(&mut StdRng::seed_from_u64(seed), base.problem(), 1 + seed as usize % 5);
        outcomes.push(check(&base, &delta).unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    for outcome in [Outcome::Applied, Outcome::Refused(false), Outcome::Refused(true)] {
        let count = outcomes.iter().filter(|&o| *o == outcome).count();
        assert!(count >= 16, "{outcome:?} reached only {count} of 256 batches");
    }
}

#[test]
fn every_utility_shape_leaves_a_problem_build_accepts() {
    // The other route to a changed problem: a §4.5 utility-shape variant
    // keeps every weight, so it stays valid and reloads unchanged.
    for workload in 0..3 {
        let problem = engine(workload).problem().clone();
        for shape in UtilityShape::ALL {
            let shaped = problem.with_utility_shape(shape);
            let back = reloaded(&shaped).unwrap_or_else(|e| panic!("{workload} {shape}: {e}"));
            assert_eq!(format!("{back:?}"), format!("{shaped:?}"), "{workload} {shape}");
        }
    }
}
