//! One run of one workload: cold solves, warm steps, and a delta stream.
//!
//! * **Cold solves** (closed loop): `ProblemFile::from_json`, `Engine::new`,
//!   then iterate to the paper's criterion (amplitude 0.1 % over 10
//!   iterations).
//! * **Warm steps**: blocks of `Engine::step` calls right after convergence,
//!   each block starting from a clone of the same converged engine.
//! * **Delta stream** (open loop in iteration time): a delta is due every
//!   `period` iterations whether or not the previous one has re-converged.
//!   A delta has re-converged when the criterion holds over a window holding
//!   only post-delta iterations; one that has not by the time the next is
//!   due has failed. One engine absorbs a chain of deltas before the stream
//!   restarts from the converged engine, and the block of deltas replays
//!   from there, so the exact counts come from the first pass and later
//!   passes only add timing samples.
//!
//! The run is a sequence of rounds, each running a fixed slice of every
//! phase, until `--seconds` have passed and the first delta pass is done.
//! Each timing is reduced to its median within every round and scaled by
//! how fast the host ran a fixed reference computation in that round; the
//! run reports the lower quartile of those scaled medians. On a shared host
//! other tenants slow whole stretches of a run, by up to 2x for minutes at a
//! time, and the reference slows with the engine: scaling takes out the
//! stretches that cover whole runs, the lower quartile those that cover a
//! few rounds. Tail percentiles are chosen from the fixed block sizes, so
//! they never depend on how many rounds fitted.

use crate::stats::{median, percentile, permille_label, tail_permille};
use crate::trace::Tracer;
use crate::workloads::{Delta, Plan, Size, Workload, MAX_COLD_ITERATIONS};
use lrgp::kernel::admission::allocate_consumers;
use lrgp::kernel::price::{update_link_price, update_node_price};
use lrgp::kernel::rate::allocate_rate_for_flow;
use lrgp::kernel::reliability::solve_flow_rho;
use lrgp::{Engine, LrgpConfig};
use lrgp_model::io::ProblemFile;
use lrgp_model::{PriceTermTable, Problem, Violation};
use lrgp_num::series::{ConvergenceCriterion, TimeSeries};
use std::hint::black_box;
use std::time::Instant;

/// Feasibility tolerance of every allocation check.
const FEASIBILITY_TOL: f64 = 1e-6;
/// Relative tolerance of every utility comparison.
const UTILITY_RTOL: f64 = 1e-9;
/// Cold solves a run makes at least, so that `setup_s` is a median.
const MIN_COLD: usize = 5;
/// Failure messages kept; later ones are only counted.
const MAX_FAILURE_MESSAGES: usize = 20;
/// Raw spans kept in the trace file: the first traced cold solve and the
/// first 20 deltas.
const RAW_SPANS: [(&str, usize); 2] = [("op.cold_solve", 1), ("op.delta", 20)];
/// Which round median a timing reports, in per-mille: the lower quartile.
const ROUND_PERMILLE: usize = 250;
/// Untimed cold solves run this long before measuring: the first second of
/// a process on an idle host runs up to twice as slow.
const WARM_UP_SECONDS: f64 = 1.0;
/// What [`reference`] takes on an undisturbed 2.1 GHz Xeon vCPU. Timings
/// are reported as they would read on a host that runs the reference this
/// fast.
const REFERENCE_S: f64 = 2.1e-4;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    /// Cold solves plus deltas.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
    /// Failed checks, including those outside an operation.
    pub failed_checks: u64,
    /// The first [`MAX_FAILURE_MESSAGES`] failed checks.
    pub failures: Vec<String>,
    /// End-to-end metrics of an untraced run, per-layer ones of a traced run.
    pub metrics: Vec<Metric>,
    /// Sample counts and the tail percentiles, for the human reader.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks == 0
    }
}

/// One timing, reduced round by round so memory stays flat however long
/// the run is.
#[derive(Default)]
struct Timing {
    round: Vec<f64>,
    summaries: Vec<f64>,
    samples: usize,
}

impl Timing {
    fn push(&mut self, seconds: f64) {
        self.round.push(seconds);
        self.samples += 1;
    }

    /// Keeps the round's median, times the round's host-speed `scale`, and
    /// drops its samples.
    fn end_round(&mut self, scale: f64) {
        if !self.round.is_empty() {
            self.summaries.push(median(&self.round) * scale);
            self.round.clear();
        }
    }

    /// The lower quartile of the scaled round medians.
    fn value(&self) -> Option<f64> {
        (!self.summaries.is_empty()).then(|| percentile(&self.summaries, ROUND_PERMILLE))
    }

    fn value_or_nan(&self) -> f64 {
        self.value().unwrap_or(f64::NAN)
    }
}

#[derive(Default)]
struct Samples {
    from_json: Timing,
    engine_new: Timing,
    setup: Timing,
    converge: Timing,
    converge_traced: Timing,
    converge_iters: Option<usize>,
    utility: Option<f64>,
    step: Timing,
    /// One tail per warm block.
    step_tail: Timing,
    reconverge: Timing,
    /// One tail per pass over the delta block.
    reconverge_tail: Timing,
    /// Re-convergence times of the current pass.
    pass: Vec<f64>,
    reconverge_iters: Vec<f64>,
    apply_targeted: Timing,
    apply_structural: Timing,
    delta_apply: Timing,
    first_step: Timing,
    /// Changed rates, node prices and link prices, summed over the steps of
    /// the first traced warm block.
    changed: [usize; 3],
    changed_steps: usize,
    terms_build: Timing,
    terms_entries: usize,
    sweeps: [f64; 5],
    /// Mean node step size at convergence.
    gamma_mean: f64,
}

impl Samples {
    fn end_round(&mut self, scale: f64) {
        for t in [
            &mut self.from_json,
            &mut self.engine_new,
            &mut self.setup,
            &mut self.converge,
            &mut self.converge_traced,
            &mut self.step,
            &mut self.step_tail,
            &mut self.reconverge,
            &mut self.reconverge_tail,
            &mut self.apply_targeted,
            &mut self.apply_structural,
            &mut self.delta_apply,
            &mut self.first_step,
            &mut self.terms_build,
        ] {
            t.end_round(scale);
        }
    }
}

struct Runner {
    workload: Workload,
    plan: Plan,
    size: Size,
    config: LrgpConfig,
    criterion: ConvergenceCriterion,
    tracer: Tracer,
    /// Times the untraced half of a traced run's cold solves.
    silent: Tracer,
    attempted: u64,
    failed: u64,
    failed_checks: u64,
    failures: Vec<String>,
    s: Samples,
}

/// Where the delta stream stands between rounds.
struct Cursor {
    /// Passes over the block completed.
    pass: usize,
    /// Index of the next delta in the block.
    next: usize,
    engine: Option<Engine>,
    /// Post-delta iterations to re-converge, per delta of the first pass.
    first: Vec<Option<usize>>,
}

/// Runs `opts.workload` for about `opts.seconds` and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let workload = opts.workload;
    let plan = workload.plan(opts.size);
    let problem = workload.problem(opts.size);
    let json = ProblemFile::new(workload.name(), problem)
        .to_json()
        .expect("a generated problem serializes");
    let config = workload.config();
    let mut r = Runner {
        workload,
        plan,
        size: opts.size,
        config,
        criterion: config.convergence,
        tracer: if opts.trace {
            Tracer::on(&RAW_SPANS)
        } else {
            Tracer::off()
        },
        silent: Tracer::off(),
        attempted: 0,
        failed: 0,
        failed_checks: 0,
        failures: Vec::new(),
        s: Samples::default(),
    };
    warm_up(&json, config, opts.seconds.min(WARM_UP_SECONDS));
    let start = Instant::now();
    let mut base = None;
    let mut stream = Vec::new();
    let mut cursor = Cursor {
        pass: 0,
        next: 0,
        engine: None,
        first: Vec::new(),
    };
    let mut cold = 0;
    // The median time of the reference in each round.
    let mut host = Vec::new();
    loop {
        let mut references = vec![reference()];
        for _ in 0..plan.cold_per_round {
            // A traced run leaves every other solve untraced, to measure
            // what tracing costs.
            let traced = r.tracer.enabled() && cold % 2 == 1;
            let engine = r.cold_solve(&json, traced);
            cold += 1;
            if base.is_none() && engine.is_some() {
                base = engine;
                let converged = base.as_ref().expect("just set");
                if opts.trace {
                    r.probe_layers(converged);
                }
                stream = workload.deltas(converged.problem(), opts.seed, plan.delta_block);
            }
        }
        // Without a converged engine there is nothing to step; the failed
        // solves are already counted.
        let Some(base) = base.as_ref() else { break };
        references.push(reference());
        r.warm_block(base);
        references.push(reference());
        r.delta_slice(base, &stream, &mut cursor);
        references.push(reference());
        let round_reference = median(&references);
        host.push(round_reference);
        r.s.end_round(REFERENCE_S / round_reference);
        if cursor.pass > 0 && cold >= MIN_COLD && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    r.s.reconverge_iters = cursor.first.iter().flatten().map(|&k| k as f64).collect();
    r.report(
        json.len(),
        opts.trace,
        (!host.is_empty()).then(|| median(&host)),
    )
}

impl Runner {
    fn fail(&mut self, what: String) {
        self.failed_checks += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what);
        }
    }

    /// Counts one attempted operation, failed when `problems` is not empty.
    fn settle(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        for p in problems {
            self.fail(p);
        }
        false
    }

    /// Feasibility, and the utility `step()` returned against the one the
    /// engine reports for its allocation.
    ///
    /// Link capacities are enforced by price (Eq. 13), so they hold once
    /// link prices settle, not within the ten iterations in which the total
    /// utility re-converges after a link is resized. `links` says whether
    /// link overloads count.
    fn check_state(&self, engine: &Engine, stepped: f64, what: &str, links: bool) -> Vec<String> {
        let mut problems = Vec::new();
        let report = engine
            .allocation()
            .check_feasibility(engine.problem(), FEASIBILITY_TOL);
        for v in report.violations() {
            if links || !matches!(v, Violation::LinkOverload { .. }) {
                problems.push(format!("{what}: infeasible allocation: {v:?}"));
            }
        }
        let mut reported = engine.total_utility();
        if self.config.reliability.joint() {
            reported += engine.reliability_utility();
        }
        if !close(stepped, reported) {
            problems.push(format!(
                "{what}: step() returned utility {stepped}, engine reports {reported}"
            ));
        }
        problems
    }

    fn cold_solve(&mut self, json: &str, traced: bool) -> Option<Engine> {
        let config = self.config;
        let criterion = self.criterion;
        let tracer = if traced {
            &mut self.tracer
        } else {
            &mut self.silent
        };
        tracer.begin("op.cold_solve");
        let (file, t_json) = tracer.call("model.io.from_json", || ProblemFile::from_json(json));
        let file = match file {
            Ok(file) => file,
            Err(e) => {
                tracer.end();
                self.settle(vec![format!("from_json: {e}")]);
                return None;
            }
        };
        let (mut engine, t_new) = tracer.call("engine.new", || Engine::new(file.problem, config));
        let (converged_at, utility, t_solve) = if traced {
            // The loop `run_until_converged` runs, with one span per step.
            let start = Instant::now();
            let mut outcome = (None, 0.0);
            for k in 1..=MAX_COLD_ITERATIONS {
                outcome.1 = tracer.call("engine.step", || engine.step()).0;
                if criterion.is_met(&engine.trace().utility) {
                    outcome.0 = Some(k);
                    break;
                }
            }
            (outcome.0, outcome.1, start.elapsed().as_secs_f64())
        } else {
            let (out, t) = tracer.call("engine.run_until_converged", || {
                engine.run_until_converged(MAX_COLD_ITERATIONS)
            });
            (out.converged_at, out.utility, t)
        };
        tracer.end();
        self.s.from_json.push(t_json);
        self.s.engine_new.push(t_new);
        self.s.setup.push(t_json + t_new);
        if traced {
            self.s.converge_traced.push(t_solve);
        } else {
            self.s.converge.push(t_solve);
        }

        let Some(iterations) = converged_at else {
            self.settle(vec![format!(
                "cold solve did not converge within {MAX_COLD_ITERATIONS} iterations"
            )]);
            return None;
        };
        let mut problems = self.check_state(&engine, utility, "cold solve", true);
        if let Some(previous) = self.s.converge_iters.filter(|&p| p != iterations) {
            problems.push(format!(
                "cold solves of one problem took {previous} and {iterations} iterations"
            ));
        }
        let golden = self.workload.golden_utility();
        if self.size == Size::Full && !close(utility, golden) {
            problems.push(format!(
                "converged utility {utility} differs from the golden {golden}"
            ));
        }
        self.s.converge_iters = Some(iterations);
        self.s.utility = Some(utility);
        self.settle(problems).then_some(engine)
    }

    /// One block of steps from a clone of the converged `base`.
    fn warm_block(&mut self, base: &Engine) {
        let mut engine = base.clone();
        // The first traced block also counts what each step changes.
        let count_changes = self.tracer.enabled() && self.s.changed_steps == 0;
        let mut block = Vec::with_capacity(self.plan.warm_block);
        let mut utility = 0.0;
        self.tracer.begin("op.warm");
        for _ in 0..self.plan.warm_block {
            let before = count_changes.then(|| Snapshot::of(&engine));
            let (u, t) = self.tracer.call("engine.step", || engine.step());
            block.push(t);
            utility = u;
            if let Some(before) = before {
                let changed = before.changed(&Snapshot::of(&engine));
                for (total, c) in self.s.changed.iter_mut().zip(changed) {
                    *total += c;
                }
                self.s.changed_steps += 1;
            }
        }
        self.tracer.end();
        for &t in &block {
            self.s.step.push(t);
        }
        if let Some(permille) = tail_permille(block.len()) {
            self.s.step_tail.push(percentile(&block, permille));
        }
        for p in self.check_state(&engine, utility, "warm steps", true) {
            self.fail(p);
        }
    }

    /// The round's slice of the delta stream, continuing where the last
    /// round stopped.
    fn delta_slice(&mut self, base: &Engine, deltas: &[Delta], cursor: &mut Cursor) {
        for _ in 0..self.plan.deltas_per_round {
            let i = cursor.next;
            if i.is_multiple_of(self.plan.chain) {
                cursor.engine = Some(base.clone());
            }
            let engine = cursor.engine.as_mut().expect("a chain starts with a clone");
            let reconverged = self.delta(engine, i, &deltas[i]);
            if cursor.pass == 0 {
                cursor.first.push(reconverged);
            } else if reconverged != cursor.first[i] {
                self.fail(format!(
                    "delta {i} re-converged after {reconverged:?} iterations on replay, \
                     {:?} the first time",
                    cursor.first[i]
                ));
            }
            cursor.next += 1;
            if cursor.next == deltas.len() {
                // The tail percentile is fixed by the first pass's count.
                let basis = cursor.first.iter().flatten().count();
                if let Some(permille) = tail_permille(basis).filter(|_| !self.s.pass.is_empty()) {
                    self.s
                        .reconverge_tail
                        .push(percentile(&self.s.pass, permille));
                }
                self.s.pass.clear();
                cursor.pass += 1;
                cursor.next = 0;
            }
        }
    }

    /// Applies one delta and steps until the next is due; returns the
    /// post-delta iteration at which the criterion first held.
    fn delta(&mut self, engine: &mut Engine, index: usize, delta: &Delta) -> Option<usize> {
        self.tracer.begin("op.delta");
        if self.tracer.enabled() {
            let (_, t) = self
                .tracer
                .call("model.delta.apply", || delta.delta.apply(engine.problem()));
            self.s.delta_apply.push(t);
        }
        let (applied, t_apply) = self
            .tracer
            .call("engine.apply_delta", || engine.apply_delta(&delta.delta));
        if let Err(e) = applied {
            self.tracer.end();
            self.settle(vec![format!("delta {index}: apply_delta failed: {e}")]);
            return None;
        }
        if delta.structural {
            self.s.apply_structural.push(t_apply);
        } else {
            self.s.apply_targeted.push(t_apply);
        }
        let mut window = TimeSeries::new("post-delta utility");
        let mut elapsed = t_apply;
        let mut reconverged = None;
        let mut problems = Vec::new();
        for k in 1..=self.plan.period {
            let (u, t) = self.tracer.call("engine.step", || engine.step());
            if k == 1 && delta.structural {
                self.s.first_step.push(t);
            }
            if reconverged.is_some() {
                continue;
            }
            elapsed += t;
            window.push(u);
            if self.criterion.is_met(&window) {
                reconverged = Some(k);
                self.s.reconverge.push(elapsed);
                self.s.pass.push(elapsed);
                problems = self.check_state(engine, u, &format!("delta {index}"), false);
            }
        }
        self.tracer.end();
        if reconverged.is_none() {
            problems.push(format!(
                "delta {index} had not re-converged when the next was due ({} iterations)",
                self.plan.period
            ));
        }
        self.settle(problems);
        reconverged
    }

    /// Per-layer probes on the converged state: the term-table build, and
    /// one sweep of each kernel over every element it runs on.
    fn probe_layers(&mut self, engine: &Engine) {
        let problem = engine.problem();
        let config = engine.config();
        self.tracer.begin("op.probe");
        let mut table = None;
        for _ in 0..3 {
            let (t, dt) = self
                .tracer
                .call("model.terms.build", || PriceTermTable::new(problem));
            self.s.terms_build.push(dt);
            table = Some(t);
        }
        let table = table.expect("built three times");
        self.s.terms_entries = term_entries(problem, &table);

        let allocation = engine.allocation();
        let (rates, populations) = (allocation.rates(), allocation.populations());
        let prices = engine.prices();
        let (mode, policy) = (config.population_mode, config.admission_policy);
        let admissions: Vec<_> = problem
            .node_ids()
            .map(|n| allocate_consumers(problem, n, rates, mode, policy))
            .collect();
        let usage: Vec<f64> = problem
            .link_ids()
            .map(|l| allocation.link_usage(problem, l))
            .collect();
        let redundancy = problem.reliability().map_or(1.0, |spec| spec.redundancy);
        let scale = REFERENCE_S / median(&[reference(), reference(), reference()]);
        let tracer = &mut self.tracer;
        let sweeps = [
            sweep(tracer, "kernel.rate.sweep", || {
                for f in problem.flow_ids() {
                    let previous = rates[f.index()];
                    black_box(allocate_rate_for_flow(
                        problem,
                        prices,
                        populations,
                        f,
                        previous,
                    ));
                }
            }),
            sweep(tracer, "kernel.admission.sweep", || {
                for n in problem.node_ids() {
                    black_box(allocate_consumers(problem, n, rates, mode, policy));
                }
            }),
            sweep(tracer, "kernel.price.node_sweep", || {
                for (n, a) in problem.node_ids().zip(&admissions) {
                    let (gamma, capacity) = (engine.node_gamma(n), problem.node(n).capacity);
                    let current = prices.node(n);
                    black_box(update_node_price(
                        current,
                        a.benefit_cost,
                        a.used,
                        capacity,
                        gamma,
                        gamma,
                    ));
                }
            }),
            sweep(tracer, "kernel.price.link_sweep", || {
                for (l, &u) in problem.link_ids().zip(&usage) {
                    let capacity = problem.link(l).capacity;
                    black_box(update_link_price(
                        prices.link(l),
                        u,
                        capacity,
                        config.link_gamma,
                    ));
                }
            }),
            sweep(tracer, "kernel.reliability.sweep", || {
                for f in problem.flow_ids() {
                    black_box(solve_flow_rho(
                        &table,
                        f,
                        prices.link_prices(),
                        populations,
                        rates[f.index()],
                        problem.rho_bounds(f).unwrap_or_default(),
                        redundancy,
                        engine.rhos()[f.index()],
                    ));
                }
            }),
        ];
        self.s.sweeps = sweeps.map(|t| t * scale);
        self.tracer.end();

        let gammas: Vec<f64> = problem.node_ids().map(|n| engine.node_gamma(n)).collect();
        self.s.gamma_mean = gammas.iter().sum::<f64>() / gammas.len().max(1) as f64;
    }

    fn report(mut self, json_bytes: usize, traced: bool, host: Option<f64>) -> Report {
        let mut metrics = Vec::new();
        let mut notes = Vec::new();
        if let Some(host) = host {
            notes.push(format!(
                "the reference took {host} s against {REFERENCE_S} s nominal; timings are scaled by that ratio round by round"
            ));
        }
        if traced {
            self.per_layer(json_bytes, &mut metrics);
        } else {
            // Sample memory stays flat (see `Timing`), so the peak is the
            // engines' and the problem's.
            let peak_rss = peak_rss_mib();
            if peak_rss.is_none() {
                self.fail("VmHWM missing from /proc/self/status".to_string());
            }
            self.end_to_end(peak_rss, &mut metrics, &mut notes);
        }
        for m in &metrics {
            if !m.value.is_finite() {
                self.fail(format!("{} is not a finite number", m.name));
            }
        }
        metrics.retain(|m| m.value.is_finite());
        Report {
            attempted: self.attempted,
            failed: self.failed,
            failed_checks: self.failed_checks,
            failures: self.failures,
            metrics,
            notes,
            tracer: self.tracer,
        }
    }

    fn end_to_end(
        &self,
        peak_rss: Option<f64>,
        metrics: &mut Vec<Metric>,
        notes: &mut Vec<String>,
    ) {
        let s = &self.s;
        let mut put = |name, value: Option<f64>, unit| {
            if let Some(value) = value {
                metrics.push(Metric { name, value, unit });
            }
        };
        let micros = |t: &Timing| t.value().map(|v| v * 1e6);
        put("setup_s", s.setup.value(), "s");
        put("converge_s", s.converge.value(), "s");
        put(
            "converge_iters",
            s.converge_iters.map(|k| k as f64),
            "iterations",
        );
        put("reconverge_s", s.reconverge.value(), "s");
        put(
            "reconverge_iters",
            (!s.reconverge_iters.is_empty()).then(|| median(&s.reconverge_iters)),
            "iterations",
        );
        put("step_us", micros(&s.step), "us");
        put("step_tail_us", micros(&s.step_tail), "us");
        put("utility", s.utility, "utility");
        put("peak_rss_mb", peak_rss, "MiB");
        notes.push(format!(
            "{} rounds; {} cold solves, {} warm steps, {} re-converged deltas",
            s.setup.summaries.len(),
            s.setup.samples,
            s.step.samples,
            s.reconverge.samples
        ));
        notes.push(tail_note(
            "step_tail_us",
            self.plan.warm_block,
            "warm block",
        ));
        // Printed for the reader, not reported: which rare deltas a seed
        // draws moves this tail by 10-20 %, more than any bound allows.
        if let Some(v) = s.reconverge_tail.value() {
            let note = tail_note("reconverge_tail_s", s.reconverge_iters.len(), "delta pass");
            notes.push(format!("{note}: {v} s, not in the result line"));
        }
    }

    fn per_layer(&self, json_bytes: usize, metrics: &mut Vec<Metric>) {
        let s = &self.s;
        let steps = s.changed_steps.max(1) as f64;
        let overhead = s.converge_traced.value_or_nan() / s.converge.value_or_nan() - 1.0;
        let steps_traced = self
            .tracer
            .layers()
            .get("engine.step")
            .map_or(0, |t| t.count);
        let [rate, admission, node, link, rho] = s.sweeps;
        let entries: [(&'static str, f64, &'static str); 21] = [
            ("model.io.from_json_s", s.from_json.value_or_nan(), "s"),
            ("model.io.bytes", json_bytes as f64, "bytes"),
            ("model.terms.build_s", s.terms_build.value_or_nan(), "s"),
            ("model.terms.entries", s.terms_entries as f64, "count"),
            ("model.delta.apply_s", s.delta_apply.value_or_nan(), "s"),
            ("engine.new_s", s.engine_new.value_or_nan(), "s"),
            (
                "engine.apply_delta.targeted_s",
                s.apply_targeted.value_or_nan(),
                "s",
            ),
            (
                "engine.apply_delta.structural_s",
                s.apply_structural.value_or_nan(),
                "s",
            ),
            ("engine.step.first_s", s.first_step.value_or_nan(), "s"),
            ("engine.step.warm_s", s.step.value_or_nan(), "s"),
            ("engine.steps", steps_traced as f64, "count"),
            (
                "exec.changed_rates_per_step",
                s.changed[0] as f64 / steps,
                "count",
            ),
            (
                "exec.changed_node_prices_per_step",
                s.changed[1] as f64 / steps,
                "count",
            ),
            (
                "exec.changed_link_prices_per_step",
                s.changed[2] as f64 / steps,
                "count",
            ),
            ("kernel.rate.sweep_s", rate, "s"),
            ("kernel.admission.sweep_s", admission, "s"),
            ("kernel.price.node_sweep_s", node, "s"),
            ("kernel.price.link_sweep_s", link, "s"),
            ("kernel.reliability.sweep_s", rho, "s"),
            ("gamma.mean", s.gamma_mean, "ratio"),
            ("trace.overhead_frac", overhead, "ratio"),
        ];
        metrics.extend(
            entries
                .into_iter()
                .map(|(name, value, unit)| Metric { name, value, unit }),
        );
    }
}

/// Which percentile a tail metric reads, and of how many samples.
fn tail_note(name: &str, basis: usize, per: &str) -> String {
    match tail_permille(basis) {
        Some(permille) => format!(
            "{name} is {} of each {per} of {basis}",
            permille_label(permille)
        ),
        None => format!("{name} omitted: no percentile of {basis} has 10 samples beyond it"),
    }
}

/// A fixed computation that owes nothing to the engine: sort 10,000
/// pseudo-random integers and fold square roots and logarithms over them.
/// Returns its wall time, which tracks how fast the host runs right now.
fn reference() -> f64 {
    let start = Instant::now();
    let mut xs: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_003)
        .collect();
    xs.sort_unstable();
    let folded: f64 = xs
        .iter()
        .zip(1u32..)
        .map(|(&x, i)| (x as f64).sqrt() * f64::from(i).ln())
        .sum();
    black_box(folded);
    start.elapsed().as_secs_f64()
}

/// Cold solves, untimed and unchecked, until `seconds` have passed.
fn warm_up(json: &str, config: LrgpConfig, seconds: f64) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let Ok(file) = ProblemFile::from_json(json) else {
            return;
        };
        black_box(Engine::new(file.problem, config).run_until_converged(MAX_COLD_ITERATIONS));
    }
}

/// Per-call time of a kernel sweep: the median over five batches, each
/// repeating the sweep for at least a millisecond, so sweeps of a few
/// nanoseconds still read above the clock's resolution.
fn sweep(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let (reps, t) = tracer.call(name, || {
                let start = Instant::now();
                let mut reps = 0u32;
                while reps == 0 || start.elapsed().as_secs_f64() < 1e-3 {
                    f();
                    reps += 1;
                }
                reps
            });
            t / f64::from(reps)
        })
        .collect();
    median(&batches)
}

/// Rates, node prices and link prices, compared bit for bit across a step.
struct Snapshot {
    rates: Vec<f64>,
    node_prices: Vec<f64>,
    link_prices: Vec<f64>,
}

impl Snapshot {
    fn of(engine: &Engine) -> Self {
        Self {
            rates: engine.allocation().rates().to_vec(),
            node_prices: engine.prices().node_prices().to_vec(),
            link_prices: engine.prices().link_prices().to_vec(),
        }
    }

    fn changed(&self, after: &Snapshot) -> [usize; 3] {
        let diff = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .filter(|(x, y)| x.to_bits() != y.to_bits())
                .count()
        };
        [
            diff(&self.rates, &after.rates),
            diff(&self.node_prices, &after.node_prices),
            diff(&self.link_prices, &after.link_prices),
        ]
    }
}

/// Entries of every row of the term table.
fn term_entries(problem: &Problem, table: &PriceTermTable) -> usize {
    let per_flow: usize = problem
        .flow_ids()
        .map(|f| {
            let classes: usize = table
                .node_terms(f)
                .iter()
                .map(|t| table.class_terms(t).len())
                .sum();
            table.link_terms(f).len()
                + table.node_terms(f).len()
                + classes
                + table.utility_terms(f).len()
                + table.rho_link_terms(f).len()
        })
        .sum();
    per_flow
        + problem
            .link_ids()
            .map(|l| table.link_usage_terms(l).len())
            .sum::<usize>()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= UTILITY_RTOL * a.abs().max(b.abs())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's generator, cold solve and delta path, shrunken.
    #[test]
    fn smoke_every_workload_through_the_same_path() {
        let start = Instant::now();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run(&Options {
                    workload,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    size: Size::Smoke,
                });
                assert!(
                    report.correct(),
                    "{}: {:?}",
                    workload.name(),
                    report.failures
                );
                assert!(report.attempted > 1, "{}", workload.name());
                let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
                assert_eq!(
                    names.len(),
                    if trace { 21 } else { 9 },
                    "{}",
                    workload.name()
                );
            }
        }
        assert!(
            start.elapsed().as_secs_f64() < 3.0,
            "smoke test took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn timings_report_the_lower_quartile_of_scaled_round_medians() {
        let mut t = Timing::default();
        let rounds = [
            [1.0, 2.0, 9.0],
            [2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0],
            [30.0, 40.0, 50.0],
        ];
        for (round, scale) in rounds.into_iter().zip([1.5, 1.0, 1.0, 0.1]) {
            for v in round {
                t.push(v);
            }
            t.end_round(scale);
        }
        // Scaled round medians 3, 3, 6, 4: the host was ten times slower in
        // the last round, and scaling takes that out.
        assert_eq!(t.summaries, vec![3.0, 3.0, 6.0, 4.0]);
        assert_eq!(t.value(), Some(3.0));
        assert_eq!(t.samples, 12);
        t.end_round(1.0); // an empty round adds nothing
        assert_eq!(t.summaries.len(), 4);
        assert_eq!(Timing::default().value(), None);
    }

    #[test]
    fn utility_tolerance_is_relative() {
        assert!(close(1e8, 1e8 + 0.01));
        assert!(!close(1e8, 1e8 + 1.0));
        assert!(close(0.0, 0.0));
    }
}
