//! Differential-testing harness: every execution plan and every delta
//! path must be **bit-identical** to the sequential full-recompute
//! reference.
//!
//! Engines run step-by-step over randomized problems; after every single
//! iteration the harness compares rates, populations (admissions), node
//! prices, link prices, γ values, and the total-utility trace with
//! `f64::to_bits` equality — no tolerances anywhere. Any reassociated sum,
//! racy write, out-of-order reduction, or stale dirty-set entry shows up
//! as a hard failure with the iteration and element index.
//!
//! Five axes are covered, alone and combined:
//!
//! * **parallelism** — sharded over the persistent worker pool vs
//!   sequential, with dispatch forced so the cross-thread handoff runs
//!   even on single-CPU hosts;
//! * **incrementality** — dirty-set skipping vs full recompute;
//! * **deltas** — [`Engine::apply_delta`] vs the wholesale
//!   `replace_problem` oracle, mid-run;
//! * **churn scenarios** — capacity/population/bounds edits, flow removal,
//!   and flow addition while converging.
//! * **reliability** — the third oracle column: a `Reliability::Off`
//!   engine on a spec-carrying lossy workload must be bit-identical to an
//!   engine on the spec-stripped problem (the pre-reliability engine, by
//!   construction), even while loss/ρ-bound deltas land on the
//!   spec-carrying side only; `Reliability::Joint` engines must be
//!   bit-identical across the whole plan matrix, ρ state included.

use lrgp::{
    run_scenario, Engine, IncrementalMode, LrgpConfig, Parallelism, Reliability, Scenario,
    TraceConfig,
};
use lrgp_model::workloads::{
    base_workload, link_bottleneck_workload, mixed_loss_workload, paper_workload, RandomWorkload,
};
use lrgp_model::{
    ClassId, ClassSpec, DeltaOp, FlowId, FlowSpec, LinkId, NodeId, NodeSpec, Problem,
    ProblemBuilder, ProblemDelta, RateBounds, RhoBounds, Utility, UtilityShape,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts two f64 slices are bit-for-bit equal.
fn assert_bits_eq(label: &str, iteration: usize, seq: &[f64], par: &[f64]) {
    assert_eq!(seq.len(), par.len(), "{label} length at iteration {iteration}");
    for (i, (s, p)) in seq.iter().zip(par).enumerate() {
        assert!(
            s.to_bits() == p.to_bits(),
            "{label}[{i}] diverged at iteration {iteration}: reference {s:?} ({:#x}) vs \
             candidate {p:?} ({:#x})",
            s.to_bits(),
            p.to_bits(),
        );
    }
}

/// Runs both engines `iterations` steps over `problem`, checking full-state
/// bit-identity after every step.
fn assert_engines_identical(
    problem: Problem,
    config: LrgpConfig,
    parallelism: Parallelism,
    iterations: usize,
) {
    let sequential_config =
        LrgpConfig { parallelism: Parallelism::Sequential, trace: TraceConfig::full(), ..config };
    let parallel_config = LrgpConfig { parallelism, trace: TraceConfig::full(), ..config };
    let mut sequential = Engine::new(problem.clone(), sequential_config);
    let mut parallel = Engine::new(problem, parallel_config);
    // Dispatch through the worker pool even on single-CPU hosts, so the
    // cross-thread handoff is exercised wherever the suite runs.
    parallel.force_pool_dispatch(true);
    for k in 1..=iterations {
        let u_seq = sequential.step();
        let u_par = parallel.step();
        assert!(
            u_seq.to_bits() == u_par.to_bits(),
            "utility diverged at iteration {k}: {u_seq:?} vs {u_par:?}"
        );
        assert_same_state("parallel", k, &sequential, &parallel);
    }
    // The recorded traces, being per-iteration snapshots of the state
    // checked above, must agree wholesale.
    assert_bits_eq(
        "utility trace",
        iterations,
        sequential.trace().utility.values(),
        parallel.trace().utility.values(),
    );
}

/// Compares the full optimizer state of `candidate` against `reference`
/// with bitwise equality after iteration `k`.
fn assert_same_state(label: &str, k: usize, reference: &Engine, candidate: &Engine) {
    let a_ref = reference.allocation();
    let a_can = candidate.allocation();
    assert_bits_eq(&format!("{label} rates"), k, a_ref.rates(), a_can.rates());
    assert_bits_eq(&format!("{label} populations"), k, a_ref.populations(), a_can.populations());
    assert_bits_eq(
        &format!("{label} node_prices"),
        k,
        reference.prices().node_prices(),
        candidate.prices().node_prices(),
    );
    assert_bits_eq(
        &format!("{label} link_prices"),
        k,
        reference.prices().link_prices(),
        candidate.prices().link_prices(),
    );
    let gammas_ref: Vec<f64> =
        reference.problem().node_ids().map(|n| reference.node_gamma(n)).collect();
    let gammas_can: Vec<f64> =
        candidate.problem().node_ids().map(|n| candidate.node_gamma(n)).collect();
    assert_bits_eq(&format!("{label} gammas"), k, &gammas_ref, &gammas_can);
}

/// Runs the baseline full-recompute engine against two incremental engines
/// (sequential and sharded with the given parallelism) in lockstep,
/// asserting full-state bit-identity after every iteration. If `removal` is
/// `Some((k, flow))`, the flow is removed from all three engines right
/// before iteration `k` — the baseline through the wholesale
/// `replace_problem` oracle, the incremental engines through
/// [`Engine::apply_delta`], which must patch their term tables, mark the
/// flow's readers dirty and stay identical afterwards.
fn assert_incremental_identical(
    problem: Problem,
    config: LrgpConfig,
    parallelism: Parallelism,
    iterations: usize,
    removal: Option<(usize, u32)>,
) {
    let baseline_config = LrgpConfig {
        parallelism: Parallelism::Sequential,
        incremental: IncrementalMode::Off,
        trace: TraceConfig::full(),
        ..config
    };
    let inc_seq_config = LrgpConfig { incremental: IncrementalMode::On, ..baseline_config };
    let inc_par_config = LrgpConfig { parallelism, ..inc_seq_config };
    let mut baseline = Engine::new(problem.clone(), baseline_config);
    let mut inc_seq = Engine::new(problem.clone(), inc_seq_config);
    let mut inc_par = Engine::new(problem, inc_par_config);
    inc_par.force_pool_dispatch(true);
    for k in 1..=iterations {
        if let Some((at, flow)) = removal {
            if k == at {
                let delta = ProblemDelta::new().remove_flow(FlowId::new(flow));
                baseline.replace_problem(delta.apply(baseline.problem()).expect("flow exists"));
                inc_seq.apply_delta(&delta).expect("flow exists");
                inc_par.apply_delta(&delta).expect("flow exists");
            }
        }
        let u_base = baseline.step();
        let u_seq = inc_seq.step();
        let u_par = inc_par.step();
        assert!(
            u_base.to_bits() == u_seq.to_bits(),
            "incremental-sequential utility diverged at iteration {k}: {u_base:?} vs {u_seq:?}"
        );
        assert!(
            u_base.to_bits() == u_par.to_bits(),
            "incremental-threads utility diverged at iteration {k}: {u_base:?} vs {u_par:?}"
        );
        assert_same_state("incremental-sequential", k, &baseline, &inc_seq);
        assert_same_state("incremental-threads", k, &baseline, &inc_par);
    }
    assert_bits_eq(
        "incremental-sequential utility trace",
        iterations,
        baseline.trace().utility.values(),
        inc_seq.trace().utility.values(),
    );
    assert_bits_eq(
        "incremental-threads utility trace",
        iterations,
        baseline.trace().utility.values(),
        inc_par.trace().utility.values(),
    );
}

fn workload_strategy() -> impl Strategy<Value = (RandomWorkload, u64, usize)> {
    (
        2usize..24,   // flows
        1usize..8,    // consumer nodes
        1usize..5,    // classes per flow
        prop_oneof![
            Just(UtilityShape::Log),
            Just(UtilityShape::Pow25),
            Just(UtilityShape::Pow50),
            Just(UtilityShape::Pow75),
        ],
        0u64..1_000_000, // workload seed
        2usize..8,    // worker threads
    )
        .prop_map(|(flows, cnodes, classes, shape, seed, threads)| {
            let workload = RandomWorkload {
                flows,
                consumer_nodes: cnodes,
                classes_per_flow: classes,
                shape,
                ..RandomWorkload::default()
            };
            (workload, seed, threads)
        })
}

/// A seed-chosen delta: `(kind, element selector, magnitude)` resolved
/// against the problem's current dimensions at application time. Kinds
/// 0–2 are capacity, population and rate-bound edits, kind 4 edits an
/// existing `F_{b,i}`, and kind 3 (or any other) removes a flow. The engine
/// delta schedule adds a re-join kind on top ([`rejoin`]).
fn resolve_delta(problem: &Problem, kind: u8, sel: u64, magnitude: f64) -> ProblemDelta {
    match kind {
        0 => {
            let node = NodeId::new((sel % problem.num_nodes() as u64) as u32);
            ProblemDelta::new().set_node_capacity(node, 10_000.0 + magnitude)
        }
        1 => {
            let class = ClassId::new((sel % problem.num_classes() as u64) as u32);
            ProblemDelta::new().resize_class(class, (magnitude as u32) % 400)
        }
        2 => {
            let flow = FlowId::new((sel % problem.num_flows() as u64) as u32);
            let max = 50.0 + magnitude % 900.0;
            let bounds = RateBounds::new(5.0, max).expect("5 < 50 ≤ max");
            ProblemDelta::new().set_rate_bounds(flow, bounds)
        }
        4 => {
            let flow = FlowId::new((sel % problem.num_flows() as u64) as u32);
            match problem.nodes_of_flow(flow).first() {
                Some(&(node, _)) => {
                    ProblemDelta::new().set_flow_node_cost(flow, node, magnitude % 50.0)
                }
                None => ProblemDelta::new(),
            }
        }
        _ => {
            let flow = FlowId::new((sel % problem.num_flows() as u64) as u32);
            ProblemDelta::new().remove_flow(flow)
        }
    }
}

/// `flow` re-joins with its spec in `origin`: its rate bounds restored,
/// `F_{b,i}` set on each of its nodes, and each of its classes resized to
/// its original maximum. This is the op mix the repository benchmark sends
/// when a departed flow comes back.
fn rejoin(origin: &Problem, flow: FlowId) -> ProblemDelta {
    let spec = origin.flow(flow);
    let mut delta = ProblemDelta::new().set_rate_bounds(flow, spec.bounds);
    for &(node, cost) in &spec.node_costs {
        delta = delta.set_flow_node_cost(flow, node, cost);
    }
    for &class in origin.classes_of_flow(flow) {
        delta = delta.resize_class(class, origin.class(class).max_population);
    }
    delta
}

/// `delta` applied to plain copies of `problem`'s specs, then built from
/// scratch by [`ProblemBuilder`]. It shares no code with the in-place
/// mutators behind [`ProblemDelta::apply`].
fn rebuilt_with(problem: &Problem, delta: &ProblemDelta) -> Problem {
    let mut nodes: Vec<NodeSpec> = problem.node_ids().map(|n| problem.node(n).clone()).collect();
    let mut flows: Vec<FlowSpec> = problem.flow_ids().map(|f| problem.flow(f).clone()).collect();
    let mut classes: Vec<ClassSpec> =
        problem.class_ids().map(|c| problem.class(c).clone()).collect();
    for op in delta.ops() {
        match *op {
            DeltaOp::SetNodeCapacity { node, capacity } => nodes[node.index()].capacity = capacity,
            DeltaOp::SetMaxPopulation { class, max_population } => {
                classes[class.index()].max_population = max_population;
            }
            DeltaOp::SetRateBounds { flow, bounds } => flows[flow.index()].bounds = bounds,
            DeltaOp::SetFlowNodeCost { flow, node, cost } => {
                for entry in flows[flow.index()].node_costs.iter_mut().filter(|e| e.0 == node) {
                    entry.1 = cost;
                }
            }
            DeltaOp::RemoveFlow { flow } => {
                let spec = &mut flows[flow.index()];
                spec.bounds = RateBounds { min: 0.0, max: 0.0 };
                spec.node_costs.iter_mut().for_each(|e| e.1 = 0.0);
                spec.link_costs.iter_mut().for_each(|e| e.1 = 0.0);
                for class in classes.iter_mut().filter(|c| c.flow == flow) {
                    class.max_population = 0;
                }
            }
            ref other => panic!("no reference for {other:?}"),
        }
    }
    let mut b = ProblemBuilder::new();
    for node in nodes {
        match node.label {
            Some(label) => b.add_labeled_node(node.capacity, label),
            None => b.add_node(node.capacity),
        };
    }
    for link in problem.link_ids().map(|l| problem.link(l)) {
        match (link.from, link.to) {
            (Some(from), Some(to)) => b.add_link_between(link.capacity, from, to),
            _ => b.add_link(link.capacity),
        };
    }
    for spec in flows {
        let flow = b.add_flow(spec.source, spec.bounds);
        for (node, cost) in spec.node_costs {
            b.set_node_cost(flow, node, cost);
        }
        for (link, cost) in spec.link_costs {
            b.set_link_cost(flow, link, cost);
        }
    }
    for c in classes {
        b.add_class(c.flow, c.node, c.max_population, c.utility, c.consumer_cost);
    }
    if let Some(spec) = problem.reliability() {
        b.set_reliability(spec.clone());
    }
    b.build().expect("the edited specs are valid")
}

/// Asserts that `batch.apply(problem)` and the op-by-op fold of one-op
/// deltas both equal [`rebuilt_with`]'s reference. `Debug` equality also
/// tells `-0.0` from `0.0`.
fn assert_batch_matches_reference(problem: &Problem, batch: &ProblemDelta) {
    let batched = batch.apply(problem).expect("batch is valid");
    let folded = batch
        .ops()
        .iter()
        .try_fold(problem.clone(), |mut p, op| {
            let mut single = ProblemDelta::new();
            single.push(op.clone());
            single.apply_in_place(&mut p).map(|()| p)
        })
        .expect("ops are valid");
    let reference = format!("{:?}", rebuilt_with(problem, batch));
    assert_eq!(format!("{batched:?}"), reference, "batch differs from the rebuilt reference");
    assert_eq!(format!("{folded:?}"), reference, "fold differs from the rebuilt reference");
}

/// A removal, a cost edit, a resize and a re-bound in one batch on the
/// paper's base workload.
#[test]
fn mixed_batch_on_base_workload_matches_rebuilt_reference() {
    let problem = base_workload();
    let flow = FlowId::new(3);
    let node = problem.nodes_of_flow(flow)[0].0;
    let batch = ProblemDelta::new()
        .remove_flow(FlowId::new(0))
        .set_flow_node_cost(flow, node, 1.25)
        .resize_class(ClassId::new(4), 11)
        .set_rate_bounds(flow, RateBounds::new(2.0, 30.0).expect("2 ≤ 30"));
    assert_batch_matches_reference(&problem, &batch);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The acceptance criterion: ≥ 100 randomized problems, bit-identical
    /// rates, admissions, prices, and utility traces at every iteration.
    #[test]
    fn parallel_engine_bit_identical_on_random_problems(
        (workload, seed, threads) in workload_strategy()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = workload.generate(&mut rng);
        assert_engines_identical(
            problem,
            LrgpConfig::default(),
            Parallelism::Threads(threads),
            25,
        );
    }

    /// The incremental acceptance criterion: on the same randomized problem
    /// population, the dirty-set engine (sequential and threaded) is
    /// bit-identical to the full-recompute baseline at every iteration —
    /// including across a mid-run flow removal, which must patch the term
    /// tables and mark exactly the removed flow's readers dirty.
    #[test]
    fn incremental_engine_bit_identical_on_random_problems(
        (workload, seed, threads) in workload_strategy()
    ) {
        let flows = workload.flows;
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = workload.generate(&mut rng);
        // Remove a seed-chosen flow before iteration 16 of 25, so every case
        // exercises both steady-state skipping and a removal's patch.
        let removal = Some((16, (seed % flows as u64) as u32));
        assert_incremental_identical(
            problem,
            LrgpConfig::default(),
            Parallelism::Threads(threads),
            25,
            removal,
        );
    }

    /// A batch applies to one clone of the problem in place. It must equal
    /// the op-by-op fold of one-op deltas and a reference that edits copies
    /// of the specs and builds from scratch, indexes included.
    #[test]
    fn batched_delta_matches_rebuilt_reference(
        (workload, seed, _threads) in workload_strategy(),
        schedule in proptest::collection::vec(
            (0u8..5, 0u64..1_000_000, 0.0f64..1_000_000.0),
            1..5,
        )
    ) {
        let problem = workload.generate(&mut StdRng::seed_from_u64(seed));
        // No kind grows the problem, so each resolves against the original.
        let batch = schedule.iter().fold(ProblemDelta::new(), |batch, &(kind, sel, magnitude)| {
            batch.merge(resolve_delta(&problem, kind, sel, magnitude))
        });
        assert_batch_matches_reference(&problem, &batch);
    }

    /// The delta-sequence oracle: a random schedule of targeted edits,
    /// `F_{b,i}` edits, removals and re-joins (kind 5: the most recently
    /// removed flow comes back, see [`rejoin`]) applied mid-run through
    /// [`Engine::apply_delta`] (which keeps the executor and patches its
    /// term table for every op that keeps the id space) must leave the
    /// incremental engines bit-identical, at every iteration, to the
    /// full-recompute baseline that rebuilds its problem wholesale with
    /// `replace_problem(delta.apply(..))`. The pooled candidates run the
    /// same schedule at 2, 3, and 4 contexts with dispatch forced, covering
    /// non-divisible shard splits and dirty sets smaller than the worker
    /// count (the workload floor is 2 flows / 1 node).
    #[test]
    fn delta_sequences_bit_identical_to_from_scratch(
        (workload, seed, _threads) in workload_strategy(),
        schedule in proptest::collection::vec(
            (0u8..6, 0u64..1_000_000, 0.0f64..1_000_000.0),
            1..5,
        )
    ) {
        const POOLED_WORKERS: [usize; 3] = [2, 3, 4];
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = workload.generate(&mut rng);
        let baseline_config = LrgpConfig {
            parallelism: Parallelism::Sequential,
            incremental: IncrementalMode::Off,
            trace: TraceConfig::full(),
            // Explicitly rate-only: this schedule pins the pre-reliability
            // engine behavior that `Reliability::Off` must reproduce.
            reliability: Reliability::Off,
            ..LrgpConfig::default()
        };
        let inc_seq_config =
            LrgpConfig { incremental: IncrementalMode::On, ..baseline_config };
        let mut baseline = Engine::new(problem.clone(), baseline_config);
        let mut inc_seq = Engine::new(problem.clone(), inc_seq_config);
        let mut pooled: Vec<Engine> = POOLED_WORKERS
            .iter()
            .map(|&w| {
                let config =
                    LrgpConfig { parallelism: Parallelism::Threads(w), ..inc_seq_config };
                let engine = Engine::new(problem.clone(), config);
                engine.force_pool_dispatch(true);
                engine
            })
            .collect();
        // Removed flows, most recent last, for the re-join kind to bring
        // back.
        let mut departed: Vec<FlowId> = Vec::new();
        // One delta every 6 iterations, starting at iteration 7 so the
        // first edits land on a warm dirty-set state.
        for k in 1..=30usize {
            if k >= 7 && (k - 7) % 6 == 0 {
                if let Some(&(kind, sel, magnitude)) = schedule.get((k - 7) / 6) {
                    let chosen = FlowId::new((sel % problem.num_flows() as u64) as u32);
                    let delta = match kind {
                        5 => rejoin(&problem, departed.pop().unwrap_or(chosen)),
                        _ => resolve_delta(baseline.problem(), kind, sel, magnitude),
                    };
                    if kind == 3 {
                        departed.push(chosen);
                    }
                    let edited = delta.apply(baseline.problem()).expect("delta is valid");
                    baseline.replace_problem(edited);
                    inc_seq.apply_delta(&delta).expect("delta is valid");
                    for engine in &mut pooled {
                        engine.apply_delta(&delta).expect("delta is valid");
                    }
                }
            }
            let u_base = baseline.step();
            let u_seq = inc_seq.step();
            prop_assert!(
                u_base.to_bits() == u_seq.to_bits(),
                "delta-sequential utility diverged at iteration {}: {:?} vs {:?}",
                k, u_base, u_seq
            );
            assert_same_state("delta-sequential", k, &baseline, &inc_seq);
            for (engine, w) in pooled.iter_mut().zip(POOLED_WORKERS) {
                let u_par = engine.step();
                prop_assert!(
                    u_base.to_bits() == u_par.to_bits(),
                    "delta-threads({}) utility diverged at iteration {}: {:?} vs {:?}",
                    w, k, u_base, u_par
                );
            }
            for (engine, w) in pooled.iter().zip(POOLED_WORKERS) {
                assert_same_state(&format!("delta-threads-{w}"), k, &baseline, engine);
            }
        }
    }
}

/// A seed-chosen delta that may also touch the reliability spec: kinds
/// 0–3 are [`resolve_delta`]'s rate-side edits, kind 4 replaces a link's
/// loss rate, kind 5 replaces a flow's ρ bounds. Only valid on problems
/// that carry a [`lrgp_model::ReliabilitySpec`].
fn resolve_lossy_delta(problem: &Problem, kind: u8, sel: u64, magnitude: f64) -> ProblemDelta {
    match kind {
        0..=3 => resolve_delta(problem, kind, sel, magnitude),
        4 => {
            let link = LinkId::new((sel % problem.num_links() as u64) as u32);
            let loss = (magnitude / 1_000_000.0) * 0.45;
            ProblemDelta::new().set_link_loss(link, loss)
        }
        _ => {
            let flow = FlowId::new((sel % problem.num_flows() as u64) as u32);
            let min = 0.2 + (magnitude / 1_000_000.0) * 0.5;
            let bounds = RhoBounds::new(min, 0.95).expect("0 < min ≤ 0.7 < 0.95 ≤ 1");
            ProblemDelta::new().set_rho_bounds(flow, bounds)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The reliability-off oracle: on a spec-carrying lossy workload, a
    /// `Reliability::Off` engine (sequential and pooled) must be
    /// bit-identical, at every iteration, to an engine running the
    /// spec-stripped problem — which is the pre-reliability engine by
    /// construction, since stripping the spec removes every reliability
    /// code path. Loss and ρ-bound deltas land on the spec-carrying
    /// engines only (they cannot even be expressed on the stripped
    /// problem) and must not perturb a single bit; rate-side deltas land
    /// on both sides. (ρ *state* may be re-clamped by a ρ-bound delta —
    /// state clamping mirrors the rate path — but under `Off` it feeds
    /// nothing, which the bitwise identity proves.)
    #[test]
    fn reliability_off_bit_identical_to_spec_stripped_engine(
        (pairs, seed, threads) in (1usize..5, 0u64..1_000_000, 2usize..5),
        schedule in proptest::collection::vec(
            (0u8..6, 0u64..1_000_000, 0.0f64..1_000_000.0),
            1..5,
        )
    ) {
        let problem = mixed_loss_workload(pairs, 400.0, seed);
        let stripped_config = LrgpConfig {
            link_gamma: 2e-3,
            trace: TraceConfig::full(),
            ..LrgpConfig::default()
        };
        let off_config = LrgpConfig { reliability: Reliability::Off, ..stripped_config };
        let off_par_config =
            LrgpConfig { parallelism: Parallelism::Threads(threads), ..off_config };
        let mut stripped = Engine::new(problem.without_reliability(), stripped_config);
        let mut off_seq = Engine::new(problem.clone(), off_config);
        let mut off_par = Engine::new(problem.clone(), off_par_config);
        off_par.force_pool_dispatch(true);
        for k in 1..=30usize {
            if k >= 7 && (k - 7) % 6 == 0 {
                if let Some(&(kind, sel, magnitude)) = schedule.get((k - 7) / 6) {
                    let delta = resolve_lossy_delta(off_seq.problem(), kind, sel, magnitude);
                    off_seq.apply_delta(&delta).expect("delta is valid on the spec side");
                    off_par.apply_delta(&delta).expect("delta is valid on the spec side");
                    if kind <= 3 {
                        // Rate-side edits exist on the stripped problem too.
                        stripped.apply_delta(&delta).expect("delta is valid");
                    }
                }
            }
            let u_ref = stripped.step();
            let u_seq = off_seq.step();
            let u_par = off_par.step();
            prop_assert!(
                u_ref.to_bits() == u_seq.to_bits(),
                "off-sequential utility diverged at iteration {}: {:?} vs {:?}",
                k, u_ref, u_seq
            );
            prop_assert!(
                u_ref.to_bits() == u_par.to_bits(),
                "off-threads utility diverged at iteration {}: {:?} vs {:?}",
                k, u_ref, u_par
            );
            assert_same_state("off-sequential", k, &stripped, &off_seq);
            assert_same_state("off-threads", k, &stripped, &off_par);
        }
    }

    /// The joint-plan oracle: `Reliability::Joint` engines must be
    /// bit-identical — rates, populations, prices, γ, *and* ρ — across
    /// the plan matrix (sequential full recompute vs incremental
    /// sequential vs incremental pooled), through a schedule of rate-side
    /// and reliability-side deltas applied via [`Engine::apply_delta`]
    /// against the wholesale `replace_problem` baseline.
    #[test]
    fn joint_reliability_bit_identical_across_plans(
        (pairs, seed, threads) in (1usize..5, 0u64..1_000_000, 2usize..5),
        schedule in proptest::collection::vec(
            (0u8..6, 0u64..1_000_000, 0.0f64..1_000_000.0),
            1..5,
        )
    ) {
        let problem = mixed_loss_workload(pairs, 400.0, seed);
        let baseline_config = LrgpConfig {
            parallelism: Parallelism::Sequential,
            incremental: IncrementalMode::Off,
            reliability: Reliability::Joint,
            link_gamma: 2e-3,
            trace: TraceConfig::full(),
            ..LrgpConfig::default()
        };
        let inc_seq_config = LrgpConfig { incremental: IncrementalMode::On, ..baseline_config };
        let inc_par_config =
            LrgpConfig { parallelism: Parallelism::Threads(threads), ..inc_seq_config };
        let mut baseline = Engine::new(problem.clone(), baseline_config);
        let mut inc_seq = Engine::new(problem.clone(), inc_seq_config);
        let mut inc_par = Engine::new(problem, inc_par_config);
        inc_par.force_pool_dispatch(true);
        for k in 1..=30usize {
            if k >= 7 && (k - 7) % 6 == 0 {
                if let Some(&(kind, sel, magnitude)) = schedule.get((k - 7) / 6) {
                    let delta = resolve_lossy_delta(baseline.problem(), kind, sel, magnitude);
                    let edited = delta.apply(baseline.problem()).expect("delta is valid");
                    baseline.replace_problem(edited);
                    inc_seq.apply_delta(&delta).expect("delta is valid");
                    inc_par.apply_delta(&delta).expect("delta is valid");
                }
            }
            let u_base = baseline.step();
            let u_seq = inc_seq.step();
            let u_par = inc_par.step();
            prop_assert!(
                u_base.to_bits() == u_seq.to_bits(),
                "joint-sequential utility diverged at iteration {}: {:?} vs {:?}",
                k, u_base, u_seq
            );
            prop_assert!(
                u_base.to_bits() == u_par.to_bits(),
                "joint-threads utility diverged at iteration {}: {:?} vs {:?}",
                k, u_base, u_par
            );
            assert_same_state("joint-sequential", k, &baseline, &inc_seq);
            assert_same_state("joint-threads", k, &baseline, &inc_par);
            assert_bits_eq("joint-sequential rhos", k, baseline.rhos(), inc_seq.rhos());
            assert_bits_eq("joint-threads rhos", k, baseline.rhos(), inc_par.rhos());
        }
    }
}

/// [`mixed_loss_workload`]'s topology with the paper's power utilities,
/// which make the joint engine actually trade ρ away on lossy links. (With
/// log rate utilities the reliability mass equals the rate mass and the
/// marginal reliability value `1/ρ` always beats the induced capacity
/// cost, so ρ provably pins at its ceiling.)
fn pow_lossy_pairs(pairs: usize, link_capacity: f64) -> Problem {
    let mut b = lrgp_model::ProblemBuilder::new();
    let bounds = RateBounds::new(1.0, 10_000.0).expect("literal bounds valid");
    let mut link_loss = Vec::with_capacity(pairs);
    let mut rho_bounds = Vec::with_capacity(2 * pairs);
    for k in 0..pairs {
        let src0 = b.add_labeled_node(1e9, format!("pair{k}/src0"));
        let src1 = b.add_labeled_node(1e9, format!("pair{k}/src1"));
        let sink = b.add_labeled_node(1e9, format!("pair{k}/sink"));
        let link = b.add_link_between(link_capacity, src0, sink);
        let f0 = b.add_flow(src0, bounds);
        let f1 = b.add_flow(src1, bounds);
        for (i, f) in [f0, f1].into_iter().enumerate() {
            b.set_link_cost(f, link, 1.0);
            b.set_node_cost(f, sink, 0.001);
            let rank = 10.0 + 7.0 * (2 * k + i) as f64;
            b.add_class(f, sink, 10, UtilityShape::Pow75.build(rank), 0.001);
            rho_bounds.push(lrgp_model::workloads::GENERATOR_RHO_BOUNDS);
        }
        link_loss.push(0.05 * (k % 6) as f64);
    }
    b.set_reliability(lrgp_model::ReliabilitySpec { rho_bounds, link_loss, redundancy: 1.0 });
    b.build().expect("pow lossy workload is structurally valid")
}

#[test]
fn joint_moves_rho_off_its_ceiling_on_lossy_pairs() {
    // Power utilities on tight lossy links make reliability worth trading:
    // after 400 joint steps some flow's ρ must sit below its 0.999 ceiling,
    // or the joint axis optimizes nothing on a lossy workload.
    let config = LrgpConfig {
        reliability: Reliability::Joint,
        link_gamma: 2e-3,
        ..LrgpConfig::default()
    };
    let mut engine = Engine::new(pow_lossy_pairs(6, 100.0), config);
    engine.run(400);
    assert!(
        engine.rhos().iter().any(|&rho| rho < 0.999),
        "joint engine never traded reliability away on a lossy workload"
    );
}

#[test]
fn parallel_engine_bit_identical_on_paper_workload() {
    // The Table 1 workload, long enough to pass through the initial
    // oscillation and the adaptive-γ regime changes.
    for threads in [2, 3, 4, 7] {
        assert_engines_identical(
            paper_workload(UtilityShape::Log, 1, 1),
            LrgpConfig::default(),
            Parallelism::Threads(threads),
            120,
        );
    }
}

#[test]
fn parallel_engine_bit_identical_with_link_prices() {
    // RandomWorkload has no links; this workload makes the link-price phase
    // (Eq. 13) the binding constraint so its sharded path is exercised.
    assert_engines_identical(
        link_bottleneck_workload(500.0),
        LrgpConfig { link_gamma: 2e-3, ..LrgpConfig::default() },
        Parallelism::Threads(2),
        200,
    );
}

#[test]
fn parallel_engine_bit_identical_with_more_workers_than_elements() {
    // Degenerate sharding: more threads than flows/nodes must not change
    // results (each chunk holds at most one element).
    let mut rng = StdRng::seed_from_u64(11);
    let workload = RandomWorkload { flows: 3, consumer_nodes: 2, ..RandomWorkload::default() };
    let problem = workload.generate(&mut rng);
    assert_engines_identical(problem, LrgpConfig::default(), Parallelism::Threads(32), 30);
}

#[test]
fn parallel_engine_matches_through_flow_removal() {
    // Dynamics (Fig. 3): removing a flow mid-run must keep the engines in
    // lockstep afterwards too.
    let problem = paper_workload(UtilityShape::Log, 1, 1);
    let config = LrgpConfig { trace: TraceConfig::full(), ..LrgpConfig::default() };
    let threads_config = LrgpConfig { parallelism: Parallelism::Threads(4), ..config };
    let mut sequential = Engine::new(problem.clone(), config);
    let mut parallel = Engine::new(problem, threads_config);
    sequential.run(50);
    parallel.run(50);
    let delta = ProblemDelta::new().remove_flow(FlowId::new(5));
    sequential.apply_delta(&delta).unwrap();
    parallel.apply_delta(&delta).unwrap();
    for k in 1..=50 {
        let u_seq = sequential.step();
        let u_par = parallel.step();
        assert!(
            u_seq.to_bits() == u_par.to_bits(),
            "utility diverged at post-removal iteration {k}: {u_seq:?} vs {u_par:?}"
        );
    }
}

#[test]
fn incremental_engine_bit_identical_on_paper_workload() {
    // Long enough to pass through the initial oscillation, the adaptive-γ
    // regime changes, and into the steady state where the dirty sets have
    // shrunk to the churning core — the regime the skipping logic exists
    // for.
    for threads in [2, 4] {
        assert_incremental_identical(
            paper_workload(UtilityShape::Log, 1, 1),
            LrgpConfig::default(),
            Parallelism::Threads(threads),
            300,
            None,
        );
    }
}

#[test]
fn incremental_engine_bit_identical_with_link_prices() {
    // RandomWorkload has no links; this workload drives the dirty-link
    // usage recomputation and the Eq. 13 change detection.
    assert_incremental_identical(
        link_bottleneck_workload(500.0),
        LrgpConfig { link_gamma: 2e-3, ..LrgpConfig::default() },
        Parallelism::Threads(2),
        200,
        Some((120, 0)),
    );
}

#[test]
fn incremental_engine_matches_through_capacity_and_population_churn() {
    // Dynamics beyond flow removal: capacity and max-population edits reach
    // the candidate through `apply_delta` (the route `run_scenario` takes),
    // which keeps the dirty-set caches alive; the baseline rebuilds
    // wholesale through `replace_problem`. Both must stay in bitwise
    // lockstep.
    let problem = paper_workload(UtilityShape::Log, 1, 1);
    let config = LrgpConfig { trace: TraceConfig::full(), ..LrgpConfig::default() };
    let inc_config = LrgpConfig { incremental: IncrementalMode::On, ..config };
    let mut baseline = Engine::new(problem.clone(), config);
    let mut incremental = Engine::new(problem, inc_config);
    let node = baseline.problem().node_ids().next().expect("workload has nodes");
    let class = baseline.problem().class_ids().next().expect("workload has classes");
    let changes = [
        (40, ProblemDelta::new().set_node_capacity(node, 30_000.0)),
        (80, ProblemDelta::new().resize_class(class, 10)),
        (120, ProblemDelta::new().set_node_capacity(node, 57_000.0)),
    ];
    for k in 1..=160 {
        for (at, delta) in &changes {
            if k == *at {
                let edited = delta.apply(baseline.problem()).expect("change is valid");
                baseline.replace_problem(edited);
                incremental.apply_delta(delta).expect("change is valid");
            }
        }
        let u_base = baseline.step();
        let u_inc = incremental.step();
        assert!(
            u_base.to_bits() == u_inc.to_bits(),
            "utility diverged at churn iteration {k}: {u_base:?} vs {u_inc:?}"
        );
        assert_same_state("churn", k, &baseline, &incremental);
    }
}

#[test]
fn adding_a_flow_mid_run_stays_bit_identical() {
    // The growing delta: `AddFlow` resizes every engine-side vector.
    // (`replace_problem` rejects dimension changes, so growth has no
    // wholesale oracle; the check here is that all three execution plans
    // re-derive against the grown problem in bitwise lockstep.)
    let problem = paper_workload(UtilityShape::Log, 1, 1);
    let source = problem.flow(FlowId::new(0)).source;
    let consumer = problem.class(ClassId::new(0)).node;
    let grow = ProblemDelta::new().add_flow(
        FlowSpec {
            source,
            bounds: RateBounds::new(10.0, 1000.0).unwrap(),
            link_costs: vec![],
            node_costs: vec![(source, 1.0), (consumer, 2.0)],
        },
        vec![ClassSpec {
            flow: FlowId::new(0), // overwritten with the appended flow's id
            node: consumer,
            max_population: 150,
            utility: Utility::log(40.0),
            consumer_cost: 3.0,
        }],
    );
    let baseline_config = LrgpConfig {
        parallelism: Parallelism::Sequential,
        incremental: IncrementalMode::Off,
        trace: TraceConfig::full(),
        ..LrgpConfig::default()
    };
    let inc_config = LrgpConfig { incremental: IncrementalMode::On, ..baseline_config };
    let par_config =
        LrgpConfig { parallelism: Parallelism::Threads(3), ..baseline_config };
    let mut baseline = Engine::new(problem.clone(), baseline_config);
    let mut incremental = Engine::new(problem.clone(), inc_config);
    let mut parallel = Engine::new(problem, par_config);
    baseline.run(60);
    incremental.run(60);
    parallel.run(60);
    baseline.apply_delta(&grow).expect("delta is valid");
    incremental.apply_delta(&grow).expect("delta is valid");
    parallel.apply_delta(&grow).expect("delta is valid");
    for k in 1..=80 {
        let u_base = baseline.step();
        let u_inc = incremental.step();
        let u_par = parallel.step();
        assert!(
            u_base.to_bits() == u_inc.to_bits(),
            "post-growth incremental utility diverged at iteration {k}: {u_base:?} vs {u_inc:?}"
        );
        assert!(
            u_base.to_bits() == u_par.to_bits(),
            "post-growth threads utility diverged at iteration {k}: {u_base:?} vs {u_par:?}"
        );
        assert_same_state("post-growth incremental", k, &baseline, &incremental);
        assert_same_state("post-growth threads", k, &baseline, &parallel);
    }
    let new_flow = FlowId::new(baseline.problem().num_flows() as u32 - 1);
    assert!(baseline.allocation().rate(new_flow) > 0.0, "appended flow never got a rate");
}


#[test]
fn a_scenario_carries_any_delta_op() {
    // A scenario schedules `DeltaOp`s, so it can carry the ops the old
    // four-kind change enum could not: a flow addition, an `F_{b,i}` edit
    // and a link-loss edit, on a lossy workload under joint reliability.
    // `run_scenario` must match, bit for bit, an engine that takes the
    // same ops through `apply_delta` at the same iterations (ops due at one
    // iteration form one batch): every traced rate, price, population and
    // γ at every iteration, the channel grown for the added flow included.
    let problem = pow_lossy_pairs(6, 100.0);
    let config = LrgpConfig {
        reliability: Reliability::Joint,
        link_gamma: 2e-3,
        trace: TraceConfig::full(),
        ..LrgpConfig::default()
    };
    let (template, added) = (FlowId::new(3), FlowId::new(problem.num_flows() as u32));
    let sink = problem.nodes_of_flow(FlowId::new(5))[0].0;
    let classes = problem.classes_of_flow(template).iter().map(|&c| problem.class(c).clone());
    let add = DeltaOp::AddFlow { flow: problem.flow(template).clone(), classes: classes.collect() };
    let schedule = [
        (30, add),
        (30, DeltaOp::SetLinkLoss { link: LinkId::new(1), loss: 0.3 }),
        (70, DeltaOp::SetFlowNodeCost { flow: FlowId::new(5), node: sink, cost: 0.5 }),
        (110, DeltaOp::SetLinkLoss { link: LinkId::new(1), loss: 0.02 }),
    ];
    let scenario =
        schedule.iter().fold(Scenario::new(), |scenario, (at, op)| scenario.at(*at, op.clone()));
    let mut scripted = Engine::new(problem.clone(), config);
    let out = run_scenario(&mut scripted, &scenario, 150).expect("every op is valid");
    assert_eq!(out.change_points, vec![30, 30, 70, 110]);

    let mut manual = Engine::new(problem, config);
    for k in 0..150 {
        let mut delta = ProblemDelta::new();
        for (_, op) in schedule.iter().filter(|(at, _)| *at == k) {
            delta.push(op.clone());
        }
        manual.apply_delta(&delta).expect("every op is valid");
        manual.step();
    }
    assert_eq!(format!("{:?}", manual.trace()), format!("{:?}", scripted.trace()));
    assert_bits_eq("scenario rhos", 150, manual.rhos(), scripted.rhos());
    assert_eq!(format!("{:?}", manual.problem()), format!("{:?}", scripted.problem()));
    let rates = scripted.trace().rates.as_ref().expect("rates are traced");
    assert_eq!(rates.len(), added.index() + 1, "the trace grew a channel for the added flow");
    assert_eq!(rates[added.index()].len(), 150 - 30, "the channel starts at the addition");
    assert!(scripted.allocation().rate(added) > 0.0, "the added flow never got a rate");
}
