//! `lrgp bench` — tracked per-iteration step benchmarks.
//!
//! Measures the LRGP step with the full-recompute baseline and with the
//! incremental dirty-set path ([`lrgp::plan::IncrementalMode`]) on two workloads:
//!
//! * **paper** — the Table 1 base workload (small; bookkeeping-bound).
//! * **large** — a synthetic workload sized so the per-iteration kernel
//!   work dominates; this is where the incremental path's skipping pays.
//!
//! A third, crossover-scale workload (**huge_10k**: 10,000 flows, 100,000
//! classes) runs two paired comparisons, each gated by a floor:
//!
//! * `incremental_ratio` — `IncrementalMode::Off` against `On` on two warm
//!   sequential engines, each timed step following the same targeted
//!   capacity delta. This is what the incremental axis claims, and the
//!   `--min-speedup` floor reads it.
//! * `thread_ratio` — the sequential engine against the pooled one. The
//!   `--min-thread-ratio` floor asserts the persistent worker pool is no
//!   slower than the sequential path at the scale where it must pay. The
//!   row also records whether the host runs two threads at once: a VM can
//!   list two CPUs and still run one thread at a time, and there the pool
//!   cannot win whatever its code does.
//!
//! **What "baseline" means.** Since the engines were unified behind one
//! dirty-set executor, `IncrementalMode::Off` runs as the all-dirty
//! special case of the same executor — it recomputes every quantity each
//! step but still reuses the persistent step state (price term tables,
//! per-node admission orders, scratch buffers) across steps. That warm
//! all-dirty step is reported as `warm_all_dirty_ns` for context, but it
//! is *not* the baseline: the baseline rebuilds the executor state inside
//! every timed sample, so each sample pays the full rebuild from the bare
//! problem — the cost a non-incremental implementation pays per
//! iteration, and what the pre-unification reference engine measured.
//! The baseline rows and their `near_converged_speedup` are context only;
//! no floor reads them.
//!
//! For each workload the report carries the median first-iteration time
//! (on a fresh engine; term tables are precomputed at construction, so
//! this is the all-dirty step) and the median near-converged step time
//! (after a warmup run), plus a worker-thread sweep of the incremental
//! path. `--json` writes the machine-readable report (default
//! `BENCH_lrgp.json`), which is committed to the repository as the
//! tracked baseline.

use lrgp::{Engine, IncrementalMode, LrgpConfig, Parallelism, Reliability};
use lrgp_model::workloads::{mixed_loss_workload, paper_workload, RandomWorkload};
use lrgp_model::{NodeId, Problem, ProblemDelta, UtilityShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Median step times of one engine variant, nanoseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct VariantNs {
    /// Median time of the first iteration on a fresh engine (the term
    /// tables are built at engine construction; this is the all-dirty
    /// step).
    pub first_iteration_ns: u64,
    /// Median per-iteration time after the warmup run.
    pub near_converged_ns: u64,
}

/// One entry of the incremental worker-thread sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ThreadsEntry {
    /// Worker threads (1 = sequential path).
    pub threads: usize,
    /// Median near-converged incremental step time, nanoseconds.
    pub near_converged_ns: u64,
}

/// Benchmark results of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadBench {
    /// Workload label.
    pub name: String,
    /// Problem dimensions, for context.
    pub flows: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of consumer classes.
    pub classes: usize,
    /// The full-recompute sequential reference: executor state is rebuilt
    /// inside every timed sample, so each sample rebuilds term tables and
    /// admission orders from the bare problem.
    pub baseline: VariantNs,
    /// The dirty-set path, single-threaded.
    pub incremental: VariantNs,
    /// Median near-converged step with `IncrementalMode::Off` and
    /// persistent executor state (the warm all-dirty step). The gap
    /// between this and `baseline.near_converged_ns` is what the unified
    /// executor's cross-step caches buy even without dirty-set skipping.
    pub warm_all_dirty_ns: u64,
    /// `baseline / incremental` near-converged median (higher is better).
    pub near_converged_speedup: f64,
    /// `incremental / baseline` first-iteration median (at most ~1.1 by the
    /// acceptance criterion: the table build must stay cheap).
    pub first_iteration_ratio: f64,
    /// Incremental near-converged medians across worker counts.
    pub threads_sweep: Vec<ThreadsEntry>,
}

/// Full-recompute-vs-incremental comparison at the crossover scale, after
/// targeted deltas.
///
/// Both engines run sequentially and keep their executor state; the only
/// difference is the [`IncrementalMode`] axis. Each timed sample first
/// applies the same `set_node_capacity` delta to both engines (a consumer
/// node resized to ±5% of its base capacity), as in the repository
/// benchmark's `churn_2000` targeted share, and then times the step that
/// follows. `ratio ≥ 1.0` means dirty-set skipping pays for its
/// bookkeeping; CI enforces a floor on it via `--min-speedup`.
#[derive(Debug, Clone, Serialize)]
pub struct IncrementalRatioBench {
    /// Workload label.
    pub name: String,
    /// Problem dimensions, for context.
    pub flows: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of consumer classes.
    pub classes: usize,
    /// Median step after a targeted delta, `IncrementalMode::Off`.
    pub off_ns: u64,
    /// Median step after a targeted delta, `IncrementalMode::On`.
    pub on_ns: u64,
    /// `off / on` (higher is better).
    pub ratio: f64,
}

/// Sequential-vs-pooled comparison at the crossover scale.
///
/// The per-workload [`WorkloadBench::threads_sweep`] shows *where* the
/// pooled path starts paying; this entry asserts *that* it pays: on a
/// workload big enough that a near-converged step still carries thousands
/// of dirty flows, the pooled `Threads` engine must not be slower than the
/// sequential reference (`thread_ratio ≥ 1.0`). CI enforces the floor via
/// `--min-thread-ratio`. On a single-CPU host there is no second worker,
/// so the row compares the sequential path with itself and the floor
/// fails rather than pass on a ratio of ~1.0.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadRatioBench {
    /// Workload label.
    pub name: String,
    /// Problem dimensions, for context.
    pub flows: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of consumer classes.
    pub classes: usize,
    /// Worker threads of the pooled engine (caller + pooled workers).
    pub workers: usize,
    /// Median near-converged incremental step, sequential engine.
    pub sequential_ns: u64,
    /// Median near-converged incremental step, pooled `Threads` engine.
    pub pooled_ns: u64,
    /// `sequential / pooled` (≥ 1.0 means the pool is no slower).
    pub thread_ratio: f64,
    /// Wall time of fixed integer work on two threads started together
    /// over the same work on one, timed before the paired steps: about 1.0
    /// on a host that runs two threads at once, about 2.0 on one that runs
    /// them one at a time.
    pub host_two_thread_ratio: f64,
}

/// Reliability-axis comparison on one lossy workload.
///
/// Two engines run the sequential incremental path on the same
/// spec-carrying problem: `Reliability::Off` (the rate-only control — the
/// pre-reliability step, which must stay bit-identical to it) and
/// `Reliability::Joint`. `joint_overhead` is `joint / off` — what the
/// per-step ρ solves and the redundancy-coupled link usage cost on top of
/// the rate-only step.
#[derive(Debug, Clone, Serialize)]
pub struct ReliabilityBench {
    /// Workload label.
    pub name: String,
    /// Problem dimensions, for context.
    pub flows: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of links (each carrying a loss rate).
    pub links: usize,
    /// Median near-converged step, `Reliability::Off` (rate-only control).
    pub off_ns: u64,
    /// Median near-converged step, `Reliability::Joint`.
    pub joint_ns: u64,
    /// `joint / off`: the cost of the joint ρ solves relative to rate-only.
    pub joint_overhead: f64,
}

/// The whole report, serialized to `BENCH_lrgp.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// True when produced by `--quick` (smaller samples; CI smoke).
    pub quick: bool,
    /// Warmup iterations before the near-converged sampling window.
    pub warmup_iterations: usize,
    /// Timed iterations per median.
    pub sample_iterations: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadBench>,
    /// Incremental-vs-full-recompute floors at the crossover scale.
    pub incremental_ratio: Vec<IncrementalRatioBench>,
    /// Pooled-threads floors at the crossover scale.
    pub thread_ratio: Vec<ThreadRatioBench>,
    /// Reliability-axis (Off vs Joint) comparison on lossy workloads.
    pub reliability: Vec<ReliabilityBench>,
}

struct BenchParams {
    warmup: usize,
    samples: usize,
    first_repeats: usize,
}

fn config(incremental: IncrementalMode, parallelism: Parallelism) -> LrgpConfig {
    LrgpConfig { incremental, parallelism, ..LrgpConfig::default() }
}

fn median(mut samples: Vec<u64>) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Wall time of one step of `engine`, nanoseconds.
fn timed_step(engine: &mut Engine) -> u64 {
    let start = Instant::now();
    engine.step();
    start.elapsed().as_nanos() as u64
}

/// Median wall time of the first iteration over fresh engines.
fn first_iteration_ns(problem: &Problem, config: LrgpConfig, repeats: usize) -> u64 {
    let samples = (0..repeats)
        .map(|_| {
            let mut engine = Engine::new(problem.clone(), config);
            let start = Instant::now();
            engine.step();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median(samples)
}

/// Median per-step wall time after `warmup` iterations.
fn near_converged_ns(
    problem: &Problem,
    config: LrgpConfig,
    warmup: usize,
    samples: usize,
) -> u64 {
    let mut engine = Engine::new(problem.clone(), config);
    engine.run(warmup);
    let times = (0..samples)
        .map(|_| {
            let start = Instant::now();
            engine.step();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median(times)
}

/// Median per-step wall time after `warmup` iterations, with the engine
/// rebuilt inside every timed sample: each sample pays the full rebuild
/// (term tables, admission orders, worker pool) from the bare problem,
/// which is the per-iteration cost of a non-incremental implementation.
/// [`Engine::restore`] over an identical problem keeps the operating point
/// (rates, populations, prices, γ), so the iterate trajectory is
/// bit-identical to a plain `IncrementalMode::Off` run. The snapshot and
/// the problem copy it takes are made outside the timed region.
fn from_scratch_near_converged_ns(
    problem: &Problem,
    config: LrgpConfig,
    warmup: usize,
    samples: usize,
) -> u64 {
    let mut engine = Engine::new(problem.clone(), config);
    engine.run(warmup);
    let times = (0..samples)
        .map(|_| {
            let (current, snapshot) = (engine.problem().clone(), engine.snapshot());
            let start = Instant::now();
            engine = Engine::restore(current, snapshot).expect("a snapshot fits its own problem");
            engine.step();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median(times)
}

fn bench_workload(name: &str, problem: &Problem, params: &BenchParams) -> WorkloadBench {
    let baseline_config = config(IncrementalMode::Off, Parallelism::Sequential);
    let incremental_config = config(IncrementalMode::On, Parallelism::Sequential);
    let baseline = VariantNs {
        first_iteration_ns: first_iteration_ns(problem, baseline_config, params.first_repeats),
        near_converged_ns: from_scratch_near_converged_ns(
            problem,
            baseline_config,
            params.warmup,
            params.samples,
        ),
    };
    let warm_all_dirty_ns =
        near_converged_ns(problem, baseline_config, params.warmup, params.samples);
    let incremental = VariantNs {
        first_iteration_ns: first_iteration_ns(
            problem,
            incremental_config,
            params.first_repeats,
        ),
        near_converged_ns: near_converged_ns(
            problem,
            incremental_config,
            params.warmup,
            params.samples,
        ),
    };
    let threads_sweep = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let parallelism = if threads == 1 {
                Parallelism::Sequential
            } else {
                Parallelism::Threads(threads)
            };
            ThreadsEntry {
                threads,
                near_converged_ns: near_converged_ns(
                    problem,
                    config(IncrementalMode::On, parallelism),
                    params.warmup,
                    params.samples,
                ),
            }
        })
        .collect();
    WorkloadBench {
        name: name.to_string(),
        flows: problem.num_flows(),
        nodes: problem.num_nodes(),
        classes: problem.num_classes(),
        near_converged_speedup: baseline.near_converged_ns as f64
            / incremental.near_converged_ns.max(1) as f64,
        first_iteration_ratio: incremental.first_iteration_ns as f64
            / baseline.first_iteration_ns.max(1) as f64,
        baseline,
        incremental,
        warm_all_dirty_ns,
        threads_sweep,
    }
}

/// Interleaved near-converged comparison of the sequential engine against
/// the pooled `Threads` engine on one workload.
///
/// Both engines warm up independently, then the timed steps alternate
/// between the two so scheduler drift and frequency scaling land on both
/// sides of the ratio equally. The pooled side uses the host's hardware
/// threads capped at four workers — the same cap the committed
/// `threads_sweep` tops out at.
fn thread_ratio_bench(name: &str, problem: &Problem, params: &BenchParams) -> ThreadRatioBench {
    let host_two_thread_ratio = host_two_thread_ratio();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let sequential_config = config(IncrementalMode::On, Parallelism::Sequential);
    let pooled_config = if workers > 1 {
        config(IncrementalMode::On, Parallelism::Threads(workers))
    } else {
        sequential_config
    };
    let mut sequential = Engine::new(problem.clone(), sequential_config);
    let mut pooled = Engine::new(problem.clone(), pooled_config);
    sequential.run(params.warmup);
    pooled.run(params.warmup);
    let mut sequential_samples = Vec::with_capacity(params.samples);
    let mut pooled_samples = Vec::with_capacity(params.samples);
    for _ in 0..params.samples {
        sequential_samples.push(timed_step(&mut sequential));
        pooled_samples.push(timed_step(&mut pooled));
    }
    let sequential_ns = median(sequential_samples);
    let pooled_ns = median(pooled_samples);
    ThreadRatioBench {
        name: name.to_string(),
        flows: problem.num_flows(),
        nodes: problem.num_nodes(),
        classes: problem.num_classes(),
        workers,
        sequential_ns,
        pooled_ns,
        thread_ratio: sequential_ns as f64 / pooled_ns.max(1) as f64,
        host_two_thread_ratio,
    }
}

/// Fixed integer work for the host check: a chain of dependent
/// multiply-adds (tens of milliseconds) that the optimizer cannot fold.
fn spin() -> u64 {
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// The best of three wall times of [`spin`] on two threads started
/// together, over the best of three on one thread. Each side starts its
/// threads the same way, so spawning costs both the same.
fn host_two_thread_ratio() -> f64 {
    let best = |threads: usize| {
        let times = (0..3).map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(spin);
                }
            });
            start.elapsed().as_nanos() as u64
        });
        times.min().unwrap_or(1).max(1) as f64
    };
    let one = best(1);
    best(2) / one
}

/// Paired comparison of `IncrementalMode::Off` against `On` on one
/// workload, each timed step following a targeted delta.
///
/// Both sequential engines warm up independently. Each sample then resizes
/// one consumer node to ±5% of its base capacity on both engines, the sign
/// alternating and the node advancing by a fixed stride, and times the step
/// that follows on each. The two engines alternate which one steps first,
/// so scheduler drift and frequency scaling land on both sides of the ratio
/// equally.
fn incremental_ratio_bench(
    name: &str,
    problem: &Problem,
    params: &BenchParams,
) -> IncrementalRatioBench {
    const NODE_STRIDE: usize = 7;
    let consumer_nodes: Vec<NodeId> =
        problem.node_ids().filter(|&n| !problem.classes_at_node(n).is_empty()).collect();
    let mut off =
        Engine::new(problem.clone(), config(IncrementalMode::Off, Parallelism::Sequential));
    let mut on = Engine::new(problem.clone(), config(IncrementalMode::On, Parallelism::Sequential));
    off.run(params.warmup);
    on.run(params.warmup);
    let mut off_samples = Vec::with_capacity(params.samples);
    let mut on_samples = Vec::with_capacity(params.samples);
    for k in 0..params.samples {
        let node = consumer_nodes[(k * NODE_STRIDE) % consumer_nodes.len()];
        let scale = if k % 2 == 0 { 1.05 } else { 0.95 };
        let delta =
            ProblemDelta::new().set_node_capacity(node, problem.node(node).capacity * scale);
        off.apply_delta(&delta).expect("a resized consumer node is valid");
        on.apply_delta(&delta).expect("a resized consumer node is valid");
        if k % 2 == 0 {
            off_samples.push(timed_step(&mut off));
            on_samples.push(timed_step(&mut on));
        } else {
            on_samples.push(timed_step(&mut on));
            off_samples.push(timed_step(&mut off));
        }
    }
    let off_ns = median(off_samples);
    let on_ns = median(on_samples);
    IncrementalRatioBench {
        name: name.to_string(),
        flows: problem.num_flows(),
        nodes: problem.num_nodes(),
        classes: problem.num_classes(),
        off_ns,
        on_ns,
        ratio: off_ns as f64 / on_ns.max(1) as f64,
    }
}

/// Interleaved near-converged comparison of the reliability axis on one
/// lossy workload: `Off` (rate-only control) vs `Joint`, both on the
/// sequential incremental path. The timed steps alternate between the two
/// engines so scheduler drift and frequency scaling land on both sides of
/// the ratio equally.
fn reliability_bench(name: &str, problem: &Problem, params: &BenchParams) -> ReliabilityBench {
    let base = config(IncrementalMode::On, Parallelism::Sequential);
    let off_config = LrgpConfig { reliability: Reliability::Off, ..base };
    let joint_config = LrgpConfig { reliability: Reliability::Joint, ..base };
    let mut off = Engine::new(problem.clone(), off_config);
    let mut joint = Engine::new(problem.clone(), joint_config);
    off.run(params.warmup);
    joint.run(params.warmup);
    let mut off_samples = Vec::with_capacity(params.samples);
    let mut joint_samples = Vec::with_capacity(params.samples);
    for _ in 0..params.samples {
        off_samples.push(timed_step(&mut off));
        joint_samples.push(timed_step(&mut joint));
    }
    let off_ns = median(off_samples);
    let joint_ns = median(joint_samples);
    ReliabilityBench {
        name: name.to_string(),
        flows: problem.num_flows(),
        nodes: problem.num_nodes(),
        links: problem.num_links(),
        off_ns,
        joint_ns,
        joint_overhead: joint_ns as f64 / off_ns.max(1) as f64,
    }
}

/// The large synthetic workload: enough flows, nodes, and classes that the
/// per-iteration kernel work dominates the step.
fn large_workload() -> Problem {
    // Same dimensions in quick mode, so quick and full reports compare
    // like for like: quick mode saves time through warmup/sample counts,
    // not problem size.
    let workload = RandomWorkload {
        flows: 400,
        consumer_nodes: 24,
        classes_per_flow: 4,
        mixed_shapes: true,
        ..RandomWorkload::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    workload.generate(&mut rng)
}

/// The crossover-scale workload: 10,000 flows × 10 classes each (100,000
/// classes) over 64 consumer nodes. A near-converged step still carries
/// thousands of dirty flows at this size, enough kernel work per phase for
/// the pooled `Threads` path to win on a multi-core machine, and a
/// targeted delta dirties a small share of the problem — this is the
/// workload both the `--min-speedup` and the `--min-thread-ratio` floors
/// are asserted against.
fn huge_workload() -> Problem {
    let workload = RandomWorkload {
        flows: 10_000,
        consumer_nodes: 64,
        classes_per_flow: 10,
        mixed_shapes: true,
        ..RandomWorkload::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    workload.generate(&mut rng)
}

/// Runs the full benchmark suite.
pub fn run_bench(quick: bool) -> BenchReport {
    let params = if quick {
        BenchParams { warmup: 120, samples: 60, first_repeats: 3 }
    } else {
        BenchParams { warmup: 300, samples: 200, first_repeats: 5 }
    };
    let workloads = vec![
        bench_workload("paper_base", &paper_workload(UtilityShape::Log, 1, 1), &params),
        bench_workload("large_synthetic", &large_workload(), &params),
    ];
    // The 10k-flow workload runs only the two paired comparisons its
    // floors read: its per-step cost is three orders of magnitude above
    // paper scale, so the full baseline/incremental matrix would dominate
    // the suite's runtime without informing either floor.
    let ratio_params = if quick {
        BenchParams { warmup: 40, samples: 30, first_repeats: 1 }
    } else {
        BenchParams { warmup: 100, samples: 80, first_repeats: 1 }
    };
    let huge = huge_workload();
    let incremental_ratio = vec![incremental_ratio_bench("huge_10k", &huge, &ratio_params)];
    let thread_ratio = vec![thread_ratio_bench("huge_10k", &huge, &ratio_params)];
    // The reliability axis is timed on a lossy multi-link workload where
    // every flow carries ρ terms; 512 bottleneck pairs put the per-step ρ
    // phase at a scale where its cost is visible over bookkeeping.
    let reliability = vec![reliability_bench(
        "mixed_loss_512",
        &mixed_loss_workload(512, 400.0, 42),
        &ratio_params,
    )];
    BenchReport {
        quick,
        warmup_iterations: params.warmup,
        sample_iterations: params.samples,
        workloads,
        incremental_ratio,
        thread_ratio,
        reliability,
    }
}

/// Human-readable summary of a report.
pub fn print_report(report: &BenchReport) {
    for w in &report.workloads {
        println!(
            "{} ({} flows, {} nodes, {} classes):",
            w.name, w.flows, w.nodes, w.classes
        );
        println!(
            "  first iteration : baseline {:>10} ns, incremental {:>10} ns (ratio {:.2})",
            w.baseline.first_iteration_ns, w.incremental.first_iteration_ns, w.first_iteration_ratio
        );
        println!(
            "  near converged  : baseline {:>10} ns, incremental {:>10} ns (speedup {:.2}x)",
            w.baseline.near_converged_ns, w.incremental.near_converged_ns, w.near_converged_speedup
        );
        println!(
            "  warm all-dirty  : {:>10} ns (Off mode with persistent executor state)",
            w.warm_all_dirty_ns
        );
        for t in &w.threads_sweep {
            println!(
                "  incremental near-converged @ {} thread(s): {:>10} ns",
                t.threads, t.near_converged_ns
            );
        }
    }
    for r in &report.incremental_ratio {
        println!(
            "{} incremental ({} flows, {} nodes, {} classes):",
            r.name, r.flows, r.nodes, r.classes
        );
        println!(
            "  after a targeted delta: full recompute {:>10} ns, incremental {:>10} ns \
             (ratio {:.2}x)",
            r.off_ns, r.on_ns, r.ratio
        );
    }
    for r in &report.thread_ratio {
        println!(
            "{} ({} flows, {} nodes, {} classes):",
            r.name, r.flows, r.nodes, r.classes
        );
        println!(
            "  near converged  : sequential {:>10} ns, pooled({}) {:>10} ns (ratio {:.2}x)",
            r.sequential_ns, r.workers, r.pooled_ns, r.thread_ratio
        );
        println!(
            "  host check      : two threads of fixed work took {:.2}x the time of one",
            r.host_two_thread_ratio
        );
    }
    for r in &report.reliability {
        println!(
            "{} reliability ({} flows, {} nodes, {} links):",
            r.name, r.flows, r.nodes, r.links
        );
        println!(
            "  near converged  : off {:>10} ns, joint {:>10} ns (overhead {:.2}x)",
            r.off_ns, r.joint_ns, r.joint_overhead
        );
    }
}

/// The host check's limit: two threads that take this many times as long
/// as one mean the host runs one thread at a time. On a 2-vCPU Xeon VM the
/// check read 1.01x while the host delivered two CPUs and 1.93–2.04x while
/// it delivered one; CPU-bound Python loops read 0.97–1.13x and 1.6–2.2x
/// there.
pub const SLOW_HOST_RATIO: f64 = 1.5;

/// The outcome of every floor a `lrgp bench` run was asked to enforce, one
/// line per floor: `Ok` when the floor is met, `Err` when it fails. Every
/// requested floor is checked, so one failure never hides another.
///
/// * `min_speedup` reads the `incremental_ratio` rows (full recompute over
///   incremental after a targeted delta); the worst row must reach it.
/// * `min_thread_ratio` reads the `thread_ratio` rows. A row whose pooled
///   engine had fewer than two workers fails whatever its ratio: it timed
///   the sequential path against itself, so it proves nothing. So does a
///   row whose host took [`SLOW_HOST_RATIO`] times as long or longer for
///   two threads of fixed work as for one: that host runs one thread at a
///   time, and the row cannot say whether the pool pays.
///
/// A floor with no row to read fails too.
pub fn check_floors(
    report: &BenchReport,
    min_speedup: Option<f64>,
    min_thread_ratio: Option<f64>,
) -> Vec<Result<String, String>> {
    let mut checks = Vec::new();
    if let Some(min) = min_speedup {
        let worst =
            report.incremental_ratio.iter().min_by(|a, b| a.ratio.total_cmp(&b.ratio));
        checks.push(match worst {
            None => Err("no incremental_ratio row to check --min-speedup against".to_string()),
            Some(r) if r.ratio < min => Err(format!(
                "{} incremental ratio {:.2}x after a targeted delta is below the \
                 --min-speedup floor {min}x",
                r.name, r.ratio
            )),
            Some(r) => Ok(format!(
                "speedup floor met: {} incremental at {:.2}x after a targeted delta (≥ {min}x)",
                r.name, r.ratio
            )),
        });
    }
    if let Some(min) = min_thread_ratio {
        let rows = report.thread_ratio.iter();
        let unfit = |r: &&ThreadRatioBench| {
            r.workers < 2 || r.host_two_thread_ratio >= SLOW_HOST_RATIO
        };
        let worst = rows.clone().find(unfit).or_else(|| {
            rows.min_by(|a, b| a.thread_ratio.total_cmp(&b.thread_ratio))
        });
        checks.push(match worst {
            None => Err("no thread_ratio row to check --min-thread-ratio against".to_string()),
            Some(r) if r.workers < 2 => Err(format!(
                "{} pooled engine ran with {} worker(s): the --min-thread-ratio floor needs \
                 at least 2 to compare the pool with the sequential path",
                r.name, r.workers
            )),
            Some(r) if r.host_two_thread_ratio >= SLOW_HOST_RATIO => Err(format!(
                "{} host ran two threads of fixed work in {:.2}x the time of one (limit \
                 {SLOW_HOST_RATIO}x): it runs one thread at a time, so the --min-thread-ratio \
                 floor cannot compare the pool with the sequential path here",
                r.name, r.host_two_thread_ratio
            )),
            Some(r) if r.thread_ratio < min => Err(format!(
                "{} pooled-threads ratio {:.2}x ({} workers) is below the \
                 --min-thread-ratio floor {min}x",
                r.name, r.thread_ratio, r.workers
            )),
            Some(r) => Ok(format!(
                "thread-ratio floor met: {} at {:.2}x with {} workers (≥ {min}x)",
                r.name, r.thread_ratio, r.workers
            )),
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report carrying only the two gated rows, on a host that runs two
    /// threads at once.
    fn report(incremental: f64, thread_ratio: f64, workers: usize) -> BenchReport {
        BenchReport {
            quick: true,
            warmup_iterations: 0,
            sample_iterations: 0,
            workloads: Vec::new(),
            incremental_ratio: vec![IncrementalRatioBench {
                name: "huge_10k".to_string(),
                flows: 1,
                nodes: 1,
                classes: 1,
                off_ns: 100,
                on_ns: 10,
                ratio: incremental,
            }],
            thread_ratio: vec![ThreadRatioBench {
                name: "huge_10k".to_string(),
                flows: 1,
                nodes: 1,
                classes: 1,
                workers,
                sequential_ns: 100,
                pooled_ns: 80,
                thread_ratio,
                host_two_thread_ratio: 1.05,
            }],
            reliability: Vec::new(),
        }
    }

    #[test]
    fn met_floors_print_one_line_each() {
        let checks = check_floors(&report(14.0, 1.3, 2), Some(3.5), Some(1.0));
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(Result::is_ok), "{checks:?}");
        assert!(check_floors(&report(14.0, 1.3, 2), None, None).is_empty());
    }

    #[test]
    fn a_single_worker_thread_row_fails_the_floor() {
        // A ratio of ~1.0 from one worker compares the sequential path with
        // itself; it must not pass a floor of 1.0.
        let checks = check_floors(&report(14.0, 1.03, 1), None, Some(1.0));
        let [Err(failure)] = checks.as_slice() else { panic!("{checks:?}") };
        assert!(failure.contains("1 worker(s)"), "{failure}");
    }

    /// `report` on a host whose two threads took `host` times the time of
    /// one.
    fn on_host(host: f64, thread_ratio: f64) -> BenchReport {
        let mut report = report(14.0, thread_ratio, 2);
        report.thread_ratio[0].host_two_thread_ratio = host;
        report
    }

    #[test]
    fn a_host_running_one_thread_at_a_time_fails_the_floor() {
        // Its own message, whatever the ratio: at or above the floor too.
        for thread_ratio in [0.93, 1.0, 1.4] {
            for host in [SLOW_HOST_RATIO, 2.1] {
                let checks = check_floors(&on_host(host, thread_ratio), None, Some(1.0));
                let [Err(failure)] = checks.as_slice() else { panic!("{checks:?}") };
                assert!(failure.contains("one thread at a time"), "{failure}");
            }
        }
        // A one-worker row keeps its own message on such a host.
        let mut one_worker = on_host(2.0, 1.0);
        one_worker.thread_ratio[0].workers = 1;
        let checks = check_floors(&one_worker, None, Some(1.0));
        let [Err(failure)] = checks.as_slice() else { panic!("{checks:?}") };
        assert!(failure.contains("1 worker(s)"), "{failure}");
    }

    #[test]
    fn a_host_running_two_threads_leaves_the_floor_to_the_ratio() {
        let checks = check_floors(&on_host(1.13, 1.3), None, Some(1.0));
        assert!(matches!(checks.as_slice(), [Ok(_)]), "{checks:?}");
        let checks = check_floors(&on_host(1.13, 0.9), None, Some(1.0));
        let [Err(failure)] = checks.as_slice() else { panic!("{checks:?}") };
        assert!(failure.contains("below the --min-thread-ratio floor"), "{failure}");
        // The host check gates only the thread floor.
        let checks = check_floors(&on_host(2.0, 1.3), Some(3.5), None);
        assert!(matches!(checks.as_slice(), [Ok(_)]), "{checks:?}");
    }

    #[test]
    fn every_failing_floor_is_reported() {
        let checks = check_floors(&report(2.1, 0.8, 2), Some(3.5), Some(1.0));
        let failures: Vec<&String> = checks.iter().filter_map(|c| c.as_ref().err()).collect();
        assert_eq!(failures.len(), 2, "{checks:?}");
        assert!(failures[0].contains("--min-speedup"), "{}", failures[0]);
        assert!(failures[1].contains("--min-thread-ratio"), "{}", failures[1]);
    }

    #[test]
    fn a_floor_without_its_row_fails() {
        let empty = BenchReport { incremental_ratio: Vec::new(), ..report(14.0, 1.3, 2) };
        let checks = check_floors(&empty, Some(3.5), None);
        assert!(matches!(checks.as_slice(), [Err(_)]), "{checks:?}");
    }
}
