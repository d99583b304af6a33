//! Execution of parsed CLI commands.

use crate::commands::{
    AnnealCmd, BenchCmd, Command, CompareCmd, GammaArg, InfoCmd, ReliabilityArg, SimulateCmd,
    SolveCmd, ThreadsArg, WorkloadCmd, WorkloadRef,
};
use lrgp::{Engine, GammaMode, LrgpConfig, Parallelism, Reliability};
use lrgp_anneal::{sweep, AnnealConfig};
use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::{self, paper_workload};
use lrgp_model::{AllocationReport, Problem, UtilityShape};
use lrgp_overlay::{
    run_asynchronous, run_synchronous, AsyncConfig, LatencyModel, SimTime, Topology,
};
use std::error::Error;

type CliResult = Result<(), Box<dyn Error>>;

/// Executes a parsed command.
pub fn run(command: Command) -> CliResult {
    match command {
        Command::Workload(c) => workload(c),
        Command::Solve(c) => solve(c),
        Command::Bench(c) => bench(c),
        Command::Anneal(c) => anneal_cmd(c),
        Command::Compare(c) => compare(c),
        Command::Simulate(c) => simulate(c),
        Command::Info(c) => info(c),
        Command::Help => unreachable!("handled in main"),
    }
}

fn load(workload: &WorkloadRef) -> Result<Problem, Box<dyn Error>> {
    match workload {
        WorkloadRef::Base => Ok(workloads::base_workload()),
        WorkloadRef::File(path) => Ok(ProblemFile::load(path)?.problem),
    }
}

fn shape_of(name: &str) -> UtilityShape {
    match name {
        "pow25" => UtilityShape::Pow25,
        "pow50" => UtilityShape::Pow50,
        "pow75" => UtilityShape::Pow75,
        _ => UtilityShape::Log,
    }
}

fn workload(cmd: WorkloadCmd) -> CliResult {
    let problem = paper_workload(shape_of(&cmd.shape), cmd.system_copies, cmd.cnode_copies);
    let description = format!(
        "paper workload: shape {}, {} system copies, {} c-node copies",
        cmd.shape, cmd.system_copies, cmd.cnode_copies
    );
    println!(
        "{}: {} flows, {} classes, {} nodes, demand {}",
        description,
        problem.num_flows(),
        problem.num_classes(),
        problem.num_nodes(),
        problem.total_demand()
    );
    ProblemFile::new(description, problem).save(&cmd.output)?;
    println!("written to {}", cmd.output.display());
    Ok(())
}

fn solve(cmd: SolveCmd) -> CliResult {
    let problem = load(&cmd.workload)?;
    let gamma = match cmd.gamma {
        GammaArg::Adaptive => GammaMode::adaptive(),
        GammaArg::Fixed(g) => GammaMode::fixed(g),
    };
    let parallelism = match cmd.threads {
        ThreadsArg::Sequential => Parallelism::Sequential,
        ThreadsArg::Count(n) => Parallelism::Threads(n),
    };
    let reliability = match cmd.reliability {
        ReliabilityArg::Off => Reliability::Off,
        ReliabilityArg::Joint => Reliability::Joint,
    };
    if reliability == Reliability::Joint && problem.reliability().is_none() {
        println!(
            "note: --reliability joint requested but the workload carries no \
             reliability spec; solving rate-only"
        );
    }
    let config = LrgpConfig {
        gamma,
        parallelism,
        reliability,
        ..LrgpConfig::default()
    };
    let mut engine = Engine::new(problem.clone(), config);
    if parallelism != Parallelism::Sequential {
        println!("sharded engine: {} worker thread(s)", engine.effective_workers());
    }
    let outcome = engine.run_until_converged(cmd.iterations);
    match outcome.converged_at {
        Some(k) => println!("converged after {k} iterations (0.1% amplitude criterion)"),
        None => println!(
            "ran {} iterations without meeting the criterion on a feasible allocation",
            outcome.iterations
        ),
    }
    println!("worst capacity overload: {:.4}%", 100.0 * outcome.max_overload);
    println!("total utility: {:.0}", outcome.utility);
    let allocation = engine.allocation();
    let report = AllocationReport::new(&problem, &allocation);
    println!(
        "admitted {:.0}/{} consumers; Jain fairness {:.3}; {} node(s) ≥95% utilized",
        report.total_admitted,
        report.total_demanded,
        report.jain_admission_fairness,
        report.saturated_nodes(0.95).len()
    );
    let joint = reliability == Reliability::Joint && problem.reliability().is_some();
    for flow in problem.flow_ids() {
        if joint {
            println!(
                "  {flow}: rate {:.1}, reliability {:.4}",
                allocation.rate(flow),
                engine.rhos()[flow.index()]
            );
        } else {
            println!("  {flow}: rate {:.1}", allocation.rate(flow));
        }
    }
    if joint {
        println!("reliability utility share: {:.1}", engine.reliability_utility());
    }
    if let Some(path) = &cmd.trace {
        let values = engine.trace().utility.values();
        let mut csv = String::from("iteration,utility\n");
        for (i, v) in values.iter().enumerate() {
            csv.push_str(&format!("{},{v}\n", i + 1));
        }
        std::fs::write(path, csv)?;
        println!("utility trace written to {}", path.display());
    }
    if let Some(path) = &cmd.save {
        ProblemFile::new("solved by lrgp-cli", problem)
            .with_allocation(allocation)
            .save(path)?;
        println!("solution written to {}", path.display());
    }
    Ok(())
}

fn bench(cmd: BenchCmd) -> CliResult {
    let report = crate::bench::run_bench(cmd.quick);
    crate::bench::print_report(&report);
    if cmd.json {
        std::fs::write(&cmd.output, serde_json::to_string_pretty(&report)?)?;
        println!("report written to {}", cmd.output.display());
    }
    let mut failures = Vec::new();
    for check in crate::bench::check_floors(&report, cmd.min_speedup, cmd.min_thread_ratio) {
        match check {
            Ok(line) => println!("{line}"),
            Err(line) => failures.push(line),
        }
    }
    if failures.is_empty() {
        return Ok(());
    }
    Err(format!("bench: {} floor(s) failed:\n  {}", failures.len(), failures.join("\n  ")).into())
}

fn anneal_cmd(cmd: AnnealCmd) -> CliResult {
    let problem = load(&cmd.workload)?;
    let config = AnnealConfig::paper(cmd.temperature, cmd.steps, cmd.seed);
    let outcome = lrgp_anneal::anneal(&problem, &config);
    println!(
        "simulated annealing: best utility {:.0} ({} steps, {} accepted, {:.2?})",
        outcome.best_utility, outcome.steps, outcome.accepted, outcome.elapsed
    );
    Ok(())
}

fn compare(cmd: CompareCmd) -> CliResult {
    let problem = load(&cmd.workload)?;
    let mut engine = Engine::new(problem.clone(), LrgpConfig::default());
    let lrgp_out = engine.run_until_converged(400);
    println!(
        "LRGP: utility {:.0} ({} iterations)",
        lrgp_out.utility,
        lrgp_out.converged_at.map(|k| k.to_string()).unwrap_or_else(|| "400+".into())
    );
    let runs = sweep(&problem, &[5.0, 10.0, 50.0, 100.0], &[cmd.steps], cmd.seed);
    let best = &runs[0];
    println!(
        "SA best of {} runs: utility {:.0} (T0 = {}, {} steps, {:.2?})",
        runs.len(),
        best.outcome.best_utility,
        best.start_temperature,
        best.total_steps,
        best.outcome.elapsed
    );
    let increase = (lrgp_out.utility - best.outcome.best_utility)
        / best.outcome.best_utility.max(f64::MIN_POSITIVE)
        * 100.0;
    println!("LRGP utility increase over SA: {increase:+.2}%");
    Ok(())
}

fn simulate(cmd: SimulateCmd) -> CliResult {
    let problem = load(&cmd.workload)?;
    let topology = Topology::from_problem(
        &problem,
        LatencyModel::Uniform { latency: SimTime::from_millis(cmd.latency_ms) },
        SimTime::from_micros(200),
    );
    if cmd.asynchronous {
        let out = run_asynchronous(
            &problem,
            &topology,
            AsyncConfig { duration: SimTime::from_secs(cmd.amount), ..AsyncConfig::default() },
        );
        println!(
            "asynchronous protocol: {} simulated, {} messages ({} lost), final utility {:.0}",
            out.duration, out.messages, out.dropped, out.final_utility
        );
    } else {
        let out = run_synchronous(&problem, &topology, LrgpConfig::default(), cmd.amount as usize);
        println!(
            "synchronous protocol: {} rounds of {} each, {} messages, final utility {:.0}",
            out.utility.len(),
            out.round_duration,
            out.messages,
            out.utility.last().unwrap_or(0.0)
        );
    }
    Ok(())
}

fn info(cmd: InfoCmd) -> CliResult {
    match &cmd.workload {
        WorkloadRef::Base => {
            let p = workloads::base_workload();
            describe("built-in base workload", &p, None);
        }
        WorkloadRef::File(path) => {
            let file = ProblemFile::load(path)?;
            describe(&file.description, &file.problem, file.allocation.as_ref());
        }
    }
    Ok(())
}

fn describe(description: &str, problem: &Problem, allocation: Option<&lrgp_model::Allocation>) {
    println!("{description}");
    println!(
        "  {} flows, {} classes, {} nodes, {} links, demand {} consumers",
        problem.num_flows(),
        problem.num_classes(),
        problem.num_nodes(),
        problem.num_links(),
        problem.total_demand()
    );
    if let Some(a) = allocation {
        let report = AllocationReport::new(problem, a);
        let feasible = a.is_feasible(problem, 1e-6);
        println!(
            "  bundled allocation: utility {:.0}, admitted {:.0}, feasible: {feasible}",
            report.total_utility, report.total_admitted
        );
    }
}
