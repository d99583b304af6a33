//! Command-line parsing for the `lrgp` binary.
//!
//! Hand-rolled (no external argument-parsing dependency): each subcommand
//! parses into a typed struct, with errors carrying usage hints. Parsing is
//! pure and fully unit-tested; execution lives in [`crate::run`].

use std::fmt;
use std::path::PathBuf;

/// Where a workload comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadRef {
    /// The paper's Table 1 base workload.
    Base,
    /// A JSON workload file produced by `lrgp workload` or the library.
    File(PathBuf),
}

impl WorkloadRef {
    fn parse(token: &str) -> WorkloadRef {
        if token == "base" {
            WorkloadRef::Base
        } else {
            WorkloadRef::File(PathBuf::from(token))
        }
    }
}

/// γ selection for `solve`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaArg {
    /// The paper's adaptive heuristic.
    Adaptive,
    /// A fixed step size.
    Fixed(f64),
}

/// Worker-thread selection for `solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadsArg {
    /// The sequential reference engine.
    Sequential,
    /// A fixed number of worker threads.
    Count(usize),
}

/// Reliability-axis selection for `solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityArg {
    /// Rate-only allocation (the default; pre-reliability behavior).
    Off,
    /// Joint rate–reliability allocation over the workload's loss model.
    Joint,
}

impl ReliabilityArg {
    fn parse(raw: &str) -> Result<ReliabilityArg, ParseError> {
        match raw {
            "off" => Ok(ReliabilityArg::Off),
            "joint" => Ok(ReliabilityArg::Joint),
            other => {
                Err(ParseError(format!("--reliability: expected off|joint, got {other:?}")))
            }
        }
    }
}

/// `lrgp workload` — generate a workload JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCmd {
    /// Utility shape (`log`, `pow25`, `pow50`, `pow75`).
    pub shape: String,
    /// Disjoint system copies (§4.3 flow scaling).
    pub system_copies: usize,
    /// Consumer-node copies per system (§4.3 c-node scaling).
    pub cnode_copies: usize,
    /// Output path.
    pub output: PathBuf,
}

/// `lrgp solve` — run LRGP on a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCmd {
    /// The workload to solve.
    pub workload: WorkloadRef,
    /// Iteration budget.
    pub iterations: usize,
    /// γ mode.
    pub gamma: GammaArg,
    /// Worker threads for the sharded engine.
    pub threads: ThreadsArg,
    /// Reliability axis: rate-only or joint rate–reliability.
    pub reliability: ReliabilityArg,
    /// Optional CSV path for the utility trace.
    pub trace: Option<PathBuf>,
    /// Optional JSON path for the solved problem + allocation.
    pub save: Option<PathBuf>,
}

/// `lrgp bench` — per-iteration step benchmarks, baseline vs incremental.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCmd {
    /// Write the machine-readable report to [`BenchCmd::output`].
    pub json: bool,
    /// Shrink warmup/sample counts for CI smoke runs.
    pub quick: bool,
    /// Report path (default `BENCH_lrgp.json`).
    pub output: PathBuf,
    /// Fail (exit non-zero) when the crossover workload's incremental
    /// ratio (full recompute / incremental after a targeted delta) falls
    /// below this factor.
    pub min_speedup: Option<f64>,
    /// Fail (exit non-zero) when the crossover workload's pooled-threads
    /// ratio (sequential / pooled near-converged) falls below this factor,
    /// or when the pooled engine had fewer than two workers.
    pub min_thread_ratio: Option<f64>,
}

/// `lrgp anneal` — run the simulated-annealing baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealCmd {
    /// The workload to solve.
    pub workload: WorkloadRef,
    /// Total SA steps.
    pub steps: u64,
    /// Start temperature.
    pub temperature: f64,
    /// RNG seed.
    pub seed: u64,
}

/// `lrgp compare` — LRGP vs the SA sweep on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareCmd {
    /// The workload to compare on.
    pub workload: WorkloadRef,
    /// SA steps per sweep cell.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
}

/// `lrgp simulate` — run the distributed protocol on a simulated overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateCmd {
    /// The workload to simulate.
    pub workload: WorkloadRef,
    /// `true` = asynchronous protocol, `false` = synchronous rounds.
    pub asynchronous: bool,
    /// One-way latency between nodes, milliseconds.
    pub latency_ms: u64,
    /// Sync: number of rounds. Async: simulated seconds.
    pub amount: u64,
}

/// `lrgp info` — validate and describe a workload file.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoCmd {
    /// The workload to describe.
    pub workload: WorkloadRef,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a workload file.
    Workload(WorkloadCmd),
    /// Run LRGP.
    Solve(SolveCmd),
    /// Step benchmarks.
    Bench(BenchCmd),
    /// Run the SA baseline.
    Anneal(AnnealCmd),
    /// LRGP vs SA.
    Compare(CompareCmd),
    /// Distributed protocol simulation.
    Simulate(SimulateCmd),
    /// Describe a workload file.
    Info(InfoCmd),
    /// Print usage.
    Help,
}

/// Parse error with a usage hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl std::error::Error for ParseError {}

/// The top-level usage text.
pub const USAGE: &str = "\
lrgp — utility optimization for event-driven distributed infrastructures

USAGE:
  lrgp workload [--shape log|pow25|pow50|pow75] [--systems N] [--cnodes N] -o FILE
  lrgp solve    <base|FILE> [--iters N] [--gamma adaptive|FLOAT] [--threads N] [--reliability off|joint] [--trace CSV] [--save JSON]
  lrgp bench    [--json] [--quick] [--out FILE] [--min-speedup X] [--min-thread-ratio X]
  lrgp anneal   <base|FILE> [--steps N] [--temp T] [--seed N]
  lrgp compare  <base|FILE> [--steps N] [--seed N]
  lrgp simulate <base|FILE> [--async] [--latency MS] [--amount N]
  lrgp info     <FILE>
  lrgp help";

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    it: &mut I,
) -> Result<&'a str, ParseError> {
    it.next().ok_or_else(|| ParseError(format!("{flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, ParseError> {
    raw.parse().map_err(|_| ParseError(format!("{flag}: cannot parse {raw:?}")))
}

/// A count that must be at least 1.
fn parse_count<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    raw: &str,
) -> Result<T, ParseError> {
    let count = parse_num(flag, raw)?;
    if count < T::from(1) {
        return Err(ParseError(format!("{flag}: must be ≥ 1")));
    }
    Ok(count)
}

/// `adaptive`, or a fixed step in (0, 1]: the range of the paper's fixed-γ
/// runs (Fig. 1), which the γ controller accepts.
fn parse_gamma(flag: &str, raw: &str) -> Result<GammaArg, ParseError> {
    if raw == "adaptive" {
        return Ok(GammaArg::Adaptive);
    }
    let gamma: f64 = parse_num(flag, raw)?;
    if !(gamma > 0.0 && gamma <= 1.0) {
        return Err(ParseError(format!("{flag}: must be adaptive or a step in (0, 1], got {raw}")));
    }
    Ok(GammaArg::Fixed(gamma))
}

/// An SA start temperature: finite and above the schedule's stop
/// temperature, so the schedule runs at least one round and ends.
fn parse_temperature(flag: &str, raw: &str) -> Result<f64, ParseError> {
    let temperature: f64 = parse_num(flag, raw)?;
    let stop = lrgp_anneal::CoolingSchedule::paper(temperature).stop_temperature;
    if !(temperature.is_finite() && temperature > stop) {
        return Err(ParseError(format!(
            "{flag}: must be finite and above SA's stop temperature {stop}, got {raw}"
        )));
    }
    Ok(temperature)
}

/// Parses an argument list (without the program name).
pub fn parse<I, S>(args: I) -> Result<Command, ParseError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    let mut it = args.iter().map(|s| s.as_str());
    let sub = it.next().ok_or_else(|| ParseError("missing subcommand".into()))?;
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "workload" => {
            let mut cmd = WorkloadCmd {
                shape: "log".into(),
                system_copies: 1,
                cnode_copies: 1,
                output: PathBuf::new(),
            };
            let mut have_output = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--shape" => cmd.shape = take_value(flag, &mut it)?.to_string(),
                    "--systems" => {
                        cmd.system_copies = parse_count(flag, take_value(flag, &mut it)?)?;
                    }
                    "--cnodes" => cmd.cnode_copies = parse_count(flag, take_value(flag, &mut it)?)?,
                    "-o" | "--output" => {
                        cmd.output = PathBuf::from(take_value(flag, &mut it)?);
                        have_output = true;
                    }
                    other => return Err(ParseError(format!("workload: unknown flag {other}"))),
                }
            }
            if !["log", "pow25", "pow50", "pow75"].contains(&cmd.shape.as_str()) {
                return Err(ParseError(format!("workload: unknown shape {:?}", cmd.shape)));
            }
            if !have_output {
                return Err(ParseError("workload: -o FILE is required".into()));
            }
            Ok(Command::Workload(cmd))
        }
        "solve" => {
            let target = it.next().ok_or_else(|| ParseError("solve: missing workload".into()))?;
            let mut cmd = SolveCmd {
                workload: WorkloadRef::parse(target),
                iterations: 250,
                gamma: GammaArg::Adaptive,
                threads: ThreadsArg::Sequential,
                reliability: ReliabilityArg::Off,
                trace: None,
                save: None,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--iters" => cmd.iterations = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--gamma" => cmd.gamma = parse_gamma(flag, take_value(flag, &mut it)?)?,
                    "--threads" => {
                        cmd.threads = match parse_count(flag, take_value(flag, &mut it)?)? {
                            1 => ThreadsArg::Sequential,
                            n => ThreadsArg::Count(n),
                        };
                    }
                    "--reliability" => {
                        cmd.reliability = ReliabilityArg::parse(take_value(flag, &mut it)?)?;
                    }
                    "--trace" => cmd.trace = Some(PathBuf::from(take_value(flag, &mut it)?)),
                    "--save" => cmd.save = Some(PathBuf::from(take_value(flag, &mut it)?)),
                    other => return Err(ParseError(format!("solve: unknown flag {other}"))),
                }
            }
            Ok(Command::Solve(cmd))
        }
        "bench" => {
            let mut cmd = BenchCmd {
                json: false,
                quick: false,
                output: PathBuf::from("BENCH_lrgp.json"),
                min_speedup: None,
                min_thread_ratio: None,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--json" => cmd.json = true,
                    "--quick" => cmd.quick = true,
                    "--out" | "--output" => {
                        cmd.output = PathBuf::from(take_value(flag, &mut it)?);
                    }
                    "--min-speedup" => {
                        cmd.min_speedup = Some(parse_num(flag, take_value(flag, &mut it)?)?);
                    }
                    "--min-thread-ratio" => {
                        cmd.min_thread_ratio = Some(parse_num(flag, take_value(flag, &mut it)?)?);
                    }
                    other => return Err(ParseError(format!("bench: unknown flag {other}"))),
                }
            }
            Ok(Command::Bench(cmd))
        }
        "anneal" => {
            let target = it.next().ok_or_else(|| ParseError("anneal: missing workload".into()))?;
            let mut cmd = AnnealCmd {
                workload: WorkloadRef::parse(target),
                steps: 1_000_000,
                temperature: 100.0,
                seed: 42,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--steps" => cmd.steps = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--temp" => {
                        cmd.temperature = parse_temperature(flag, take_value(flag, &mut it)?)?;
                    }
                    "--seed" => cmd.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    other => return Err(ParseError(format!("anneal: unknown flag {other}"))),
                }
            }
            Ok(Command::Anneal(cmd))
        }
        "compare" => {
            let target =
                it.next().ok_or_else(|| ParseError("compare: missing workload".into()))?;
            let mut cmd =
                CompareCmd { workload: WorkloadRef::parse(target), steps: 1_000_000, seed: 42 };
            while let Some(flag) = it.next() {
                match flag {
                    "--steps" => cmd.steps = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--seed" => cmd.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    other => return Err(ParseError(format!("compare: unknown flag {other}"))),
                }
            }
            Ok(Command::Compare(cmd))
        }
        "simulate" => {
            let target =
                it.next().ok_or_else(|| ParseError("simulate: missing workload".into()))?;
            let mut cmd = SimulateCmd {
                workload: WorkloadRef::parse(target),
                asynchronous: false,
                latency_ms: 10,
                amount: 0,
            };
            let mut have_amount = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--async" => cmd.asynchronous = true,
                    "--latency" => cmd.latency_ms = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--amount" => {
                        cmd.amount = parse_num(flag, take_value(flag, &mut it)?)?;
                        have_amount = true;
                    }
                    other => return Err(ParseError(format!("simulate: unknown flag {other}"))),
                }
            }
            if !have_amount {
                cmd.amount = if cmd.asynchronous { 10 } else { 100 };
            }
            Ok(Command::Simulate(cmd))
        }
        "info" => {
            let target = it.next().ok_or_else(|| ParseError("info: missing workload".into()))?;
            Ok(Command::Info(InfoCmd { workload: WorkloadRef::parse(target) }))
        }
        other => Err(ParseError(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseError> {
        parse(args.iter().copied())
    }

    #[test]
    fn help_variants() {
        for a in [&["help"][..], &["--help"], &["-h"]] {
            assert_eq!(p(a).unwrap(), Command::Help);
        }
    }

    #[test]
    fn missing_subcommand_errors() {
        let e = p(&[]).unwrap_err();
        assert!(e.0.contains("missing subcommand"));
        assert!(e.to_string().contains("USAGE"));
    }

    #[test]
    fn workload_full_flags() {
        let c = p(&[
            "workload", "--shape", "pow50", "--systems", "2", "--cnodes", "4", "-o", "w.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Workload(WorkloadCmd {
                shape: "pow50".into(),
                system_copies: 2,
                cnode_copies: 4,
                output: PathBuf::from("w.json"),
            })
        );
    }

    #[test]
    fn workload_requires_output_and_valid_shape() {
        assert!(p(&["workload"]).unwrap_err().0.contains("-o FILE"));
        assert!(p(&["workload", "--shape", "cubic", "-o", "x"])
            .unwrap_err()
            .0
            .contains("unknown shape"));
    }

    #[test]
    fn solve_defaults_and_overrides() {
        let c = p(&["solve", "base"]).unwrap();
        assert_eq!(
            c,
            Command::Solve(SolveCmd {
                workload: WorkloadRef::Base,
                iterations: 250,
                gamma: GammaArg::Adaptive,
                threads: ThreadsArg::Sequential,
                reliability: ReliabilityArg::Off,
                trace: None,
                save: None,
            })
        );
        let c = p(&[
            "solve", "w.json", "--iters", "99", "--gamma", "0.1", "--threads", "4", "--trace",
            "t.csv", "--save", "out.json",
        ])
        .unwrap();
        match c {
            Command::Solve(s) => {
                assert_eq!(s.workload, WorkloadRef::File(PathBuf::from("w.json")));
                assert_eq!(s.iterations, 99);
                assert_eq!(s.gamma, GammaArg::Fixed(0.1));
                assert_eq!(s.threads, ThreadsArg::Count(4));
                assert_eq!(s.trace, Some(PathBuf::from("t.csv")));
                assert_eq!(s.save, Some(PathBuf::from("out.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn removed_numerics_flags_are_unknown() {
        // The vectorized numerics axis is gone; its flags must be refused,
        // not silently accepted.
        assert!(p(&["solve", "base", "--numerics", "strict"])
            .unwrap_err()
            .0
            .contains("unknown flag --numerics"));
        assert!(p(&["bench", "--min-vector-ratio", "1.15"])
            .unwrap_err()
            .0
            .contains("unknown flag --min-vector-ratio"));
    }

    #[test]
    fn solve_reliability_variants() {
        let reliability = |args: &[&str]| match p(args).unwrap() {
            Command::Solve(s) => s.reliability,
            other => panic!("{other:?}"),
        };
        assert_eq!(reliability(&["solve", "base"]), ReliabilityArg::Off);
        assert_eq!(reliability(&["solve", "base", "--reliability", "off"]), ReliabilityArg::Off);
        assert_eq!(
            reliability(&["solve", "base", "--reliability", "joint"]),
            ReliabilityArg::Joint
        );
        assert!(p(&["solve", "base", "--reliability", "maybe"])
            .unwrap_err()
            .0
            .contains("off|joint"));
        assert!(p(&["solve", "base", "--reliability"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn solve_incremental_flag_is_unknown() {
        // Both steps give the same bits, so `solve` always runs the
        // default; the selector is refused with any value, not ignored.
        for value in ["on", "off", "auto", "maybe"] {
            assert!(p(&["solve", "base", "--incremental", value])
                .unwrap_err()
                .0
                .contains("unknown flag --incremental"));
        }
    }

    #[test]
    fn bench_defaults_and_flags() {
        assert_eq!(
            p(&["bench"]).unwrap(),
            Command::Bench(BenchCmd {
                json: false,
                quick: false,
                output: PathBuf::from("BENCH_lrgp.json"),
                min_speedup: None,
                min_thread_ratio: None,
            })
        );
        assert_eq!(
            p(&[
                "bench",
                "--json",
                "--quick",
                "--out",
                "b.json",
                "--min-speedup",
                "3.5",
                "--min-thread-ratio",
                "1.0",
            ])
            .unwrap(),
            Command::Bench(BenchCmd {
                json: true,
                quick: true,
                output: PathBuf::from("b.json"),
                min_speedup: Some(3.5),
                min_thread_ratio: Some(1.0),
            })
        );
        assert!(p(&["bench", "--bogus"]).unwrap_err().0.contains("unknown flag"));
        assert!(p(&["bench", "--min-speedup"]).unwrap_err().0.contains("requires a value"));
        assert!(p(&["bench", "--min-speedup", "fast"]).unwrap_err().0.contains("cannot parse"));
        assert!(p(&["bench", "--min-thread-ratio"]).unwrap_err().0.contains("requires a value"));
        assert!(p(&["bench", "--min-thread-ratio", "x"]).unwrap_err().0.contains("cannot parse"));
    }

    #[test]
    fn solve_threads_variants() {
        let threads = |args: &[&str]| match p(args).unwrap() {
            Command::Solve(s) => s.threads,
            other => panic!("{other:?}"),
        };
        assert_eq!(threads(&["solve", "base", "--threads", "1"]), ThreadsArg::Sequential);
        assert_eq!(threads(&["solve", "base", "--threads", "8"]), ThreadsArg::Count(8));
        assert!(p(&["solve", "base", "--threads", "0"]).unwrap_err().0.contains("must be ≥ 1"));
        assert!(p(&["solve", "base", "--threads", "many"]).unwrap_err().0.contains("cannot parse"));
        assert!(p(&["solve", "base", "--threads", "auto"]).unwrap_err().0.contains("cannot parse"));
    }

    #[test]
    fn anneal_and_compare_parse() {
        let c = p(&["anneal", "base", "--steps", "5000", "--temp", "5", "--seed", "7"]).unwrap();
        assert_eq!(
            c,
            Command::Anneal(AnnealCmd {
                workload: WorkloadRef::Base,
                steps: 5000,
                temperature: 5.0,
                seed: 7,
            })
        );
        let c = p(&["compare", "base", "--steps", "1000"]).unwrap();
        assert_eq!(
            c,
            Command::Compare(CompareCmd { workload: WorkloadRef::Base, steps: 1000, seed: 42 })
        );
    }

    #[test]
    fn numbers_outside_their_range_are_refused() {
        let refused: [(&[&str], &str); 14] = [
            (&["solve", "base", "--gamma", "-1"], "--gamma: must be adaptive or a step in (0, 1]"),
            (&["solve", "base", "--gamma", "0"], "--gamma: must be adaptive or a step in (0, 1]"),
            (&["solve", "base", "--gamma", "nan"], "--gamma: must be adaptive or a step in (0, 1]"),
            (&["solve", "base", "--gamma", "5"], "--gamma: must be adaptive or a step in (0, 1]"),
            (&["solve", "base", "--gamma", "inf"], "--gamma: must be adaptive or a step in (0, 1]"),
            (&["workload", "--systems", "0", "-o", "w.json"], "--systems: must be ≥ 1"),
            (&["workload", "--cnodes", "0", "-o", "w.json"], "--cnodes: must be ≥ 1"),
            (&["anneal", "base", "--temp", "inf"], "--temp: must be finite and above"),
            (&["anneal", "base", "--temp", "nan"], "--temp: must be finite and above"),
            (&["anneal", "base", "--temp", "1"], "--temp: must be finite and above"),
            (&["anneal", "base", "--temp", "0"], "--temp: must be finite and above"),
            (&["anneal", "base", "--temp", "-1"], "--temp: must be finite and above"),
            (&["anneal", "base", "--steps", "0"], "--steps: must be ≥ 1"),
            (&["compare", "base", "--steps", "0"], "--steps: must be ≥ 1"),
        ];
        for (args, message) in refused {
            let error = p(args).expect_err(&format!("{args:?} must be refused")).0;
            assert!(error.starts_with(message), "{args:?}: {error}");
        }
    }

    #[test]
    fn numbers_at_the_edges_of_their_range_are_accepted() {
        let gamma = |raw| match p(&["solve", "base", "--gamma", raw]).unwrap() {
            Command::Solve(s) => s.gamma,
            other => panic!("expected solve, got {other:?}"),
        };
        assert_eq!(gamma("1"), GammaArg::Fixed(1.0));
        assert_eq!(gamma("1e-300"), GammaArg::Fixed(1e-300));
        assert_eq!(gamma("adaptive"), GammaArg::Adaptive);
        match p(&["workload", "--systems", "1", "--cnodes", "1", "-o", "w.json"]).unwrap() {
            Command::Workload(w) => assert_eq!((w.system_copies, w.cnode_copies), (1, 1)),
            other => panic!("expected workload, got {other:?}"),
        }
        match p(&["anneal", "base", "--temp", "1.5", "--steps", "1"]).unwrap() {
            Command::Anneal(a) => assert_eq!((a.temperature, a.steps), (1.5, 1)),
            other => panic!("expected anneal, got {other:?}"),
        }
        match p(&["compare", "base", "--steps", "1"]).unwrap() {
            Command::Compare(c) => assert_eq!(c.steps, 1),
            other => panic!("expected compare, got {other:?}"),
        }
    }

    #[test]
    fn simulate_defaults_depend_on_mode() {
        match p(&["simulate", "base"]).unwrap() {
            Command::Simulate(s) => {
                assert!(!s.asynchronous);
                assert_eq!(s.amount, 100);
                assert_eq!(s.latency_ms, 10);
            }
            other => panic!("{other:?}"),
        }
        match p(&["simulate", "base", "--async"]).unwrap() {
            Command::Simulate(s) => {
                assert!(s.asynchronous);
                assert_eq!(s.amount, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn info_and_unknowns() {
        assert_eq!(
            p(&["info", "w.json"]).unwrap(),
            Command::Info(InfoCmd { workload: WorkloadRef::File(PathBuf::from("w.json")) })
        );
        assert!(p(&["frobnicate"]).unwrap_err().0.contains("unknown subcommand"));
        // Static analysis is the `lrgp-lint` binary's job.
        assert!(p(&["lint", "--deny"]).unwrap_err().0.contains("unknown subcommand"));
        assert!(p(&["solve", "base", "--bogus"]).unwrap_err().0.contains("unknown flag"));
        assert!(p(&["solve", "base", "--iters"]).unwrap_err().0.contains("requires a value"));
        assert!(p(&["solve", "base", "--iters", "abc"]).unwrap_err().0.contains("cannot parse"));
    }
}
