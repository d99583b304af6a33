//! The repository benchmark: time to solve, time to re-converge after a
//! delta, and steady-state step cost, on four workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1|FILE]
//! benchmark compare <BASE_DIR> <HEAD_DIR> [--bench BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end metrics; `--trace 1` reports the per-layer ones instead, and
//! `--trace FILE` also writes the spans there. A failed correctness check
//! makes the exit code 1. See README.md beside this file.

mod compare;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Options, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1|FILE]\n       \
                     benchmark compare <BASE_DIR> <HEAD_DIR> [--bench BENCHMARK.json]";

/// Run length when `--seconds` is not given; `BENCHMARK.json` sets the same.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_command(&args[1..])
    } else {
        run_command(&args)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, DEFAULT_SECONDS);
    let (mut trace, mut trace_file) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a nonnegative number, not {value}"
                    ));
                }
            }
            "--trace" => {
                trace = value != "0";
                trace_file = (trace && value != "1").then(|| PathBuf::from(value));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let report = run::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    });
    if let Some(path) = &trace_file {
        std::fs::write(path, report.tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print_report(&report);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_report(report: &Report) {
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    if report.failed_checks > report.failures.len() as u64 {
        eprintln!("FAILED: {} checks in all", report.failed_checks);
    }
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    );
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = PathBuf::from(it.next().ok_or("--bench needs a value")?);
        } else {
            dirs.push(Path::new(arg));
        }
    }
    let [base, head] = dirs[..] else {
        return Err("compare takes a base and a head directory".to_string());
    };
    let clean = compare::compare(base, head, &bench)?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
