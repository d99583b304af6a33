//! `benchmark compare BASE HEAD`: applies the bounds of `BENCHMARK.json` to
//! two sets of runs.
//!
//! `BASE` and `HEAD` are directories holding one `<workload>.jsonl` file per
//! workload, each line the result line of one untraced run; other lines are
//! skipped, so a run's whole output may be appended. Run the two sides
//! alternately, so that line `i` of both files forms a pair.
//!
//! For every end-to-end metric and workload the verdict is:
//! * `unresolved` when either side's spread (IQR over median) exceeds the
//!   bound, unless every head run reads better than every base run;
//! * `worse` when the head median is worse than the base median by more than
//!   the bound;
//! * `agree` otherwise.
//!
//! A claimed gain must also pass the pair rule: at least 10 pairs, the head
//! winning at least nine tenths of them (ties count for neither), and the
//! medians further apart than the base's IQR.

use crate::stats::{median, quartiles};
use serde::Value;
use std::path::Path;

/// Pairs the claim rule needs.
const MIN_PAIRS: usize = 10;

struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Run {
    correct: bool,
    values: Vec<(String, f64)>,
}

impl Run {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Prints the comparison; returns whether no metric is worse and every run
/// was correct.
pub fn compare(base: &Path, head: &Path, bench: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let workloads = names(&spec, "workloads")?;
    let metrics = metric_specs(&spec)?;
    let mut clean = true;
    println!(
        "{:<12} {:<18} {:>24} {:>24} {:>9}  {:<10} claim",
        "workload", "metric", "base median (IQR)", "head median (IQR)", "change", "verdict"
    );
    for workload in &workloads {
        let file = format!("{workload}.jsonl");
        let (b, h) = (runs(&base.join(&file))?, runs(&head.join(&file))?);
        if b.is_empty() || h.is_empty() {
            println!("{workload:<12} (no runs on one side)");
            continue;
        }
        for (side, rs) in [("base", &b), ("head", &h)] {
            let bad = rs.iter().filter(|r| !r.correct).count();
            if bad > 0 {
                clean = false;
                println!("{workload:<12} {bad} {side} run(s) not correct");
            }
        }
        for m in &metrics {
            let bv: Vec<f64> = b.iter().filter_map(|r| r.value(&m.name)).collect();
            let hv: Vec<f64> = h.iter().filter_map(|r| r.value(&m.name)).collect();
            if bv.len() < 2 || hv.len() < 2 {
                println!(
                    "{workload:<12} {:<18} (fewer than two runs on one side)",
                    m.name
                );
                continue;
            }
            let row = Row::new(m, &bv, &hv);
            clean &= row.verdict != "worse";
            println!(
                "{workload:<12} {:<18} {:>24} {:>24} {:>+8.2}%  {:<10} {}",
                m.name,
                format!("{:.6e} ({:.6e})", row.base_median, row.base_iqr),
                format!("{:.6e} ({:.6e})", row.head_median, row.head_iqr),
                row.change * 100.0,
                row.verdict,
                row.claim
            );
        }
    }
    Ok(clean)
}

struct Row {
    base_median: f64,
    base_iqr: f64,
    head_median: f64,
    head_iqr: f64,
    /// Relative change of the head median, positive when worse.
    change: f64,
    verdict: &'static str,
    claim: String,
}

impl Row {
    fn new(m: &MetricSpec, base: &[f64], head: &[f64]) -> Self {
        let iqr = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            q3 - q1
        };
        let (base_median, head_median) = (median(base), median(head));
        let (base_iqr, head_iqr) = (iqr(base), iqr(head));
        // Positive when `a` is worse than `b`.
        let worse_by = |a: f64, b: f64| if m.lower_is_better { a - b } else { b - a };
        let change = worse_by(head_median, base_median) / base_median.abs();
        let spread = (base_iqr / base_median.abs()).max(head_iqr / head_median.abs());
        let all_better = head
            .iter()
            .all(|&hv| base.iter().all(|&bv| worse_by(hv, bv) < 0.0));
        let verdict = if spread > m.bound && !all_better {
            "unresolved"
        } else if change > m.bound {
            "worse"
        } else if all_better {
            "better"
        } else {
            "agree"
        };
        let pairs = base.len().min(head.len());
        let claim = if pairs < MIN_PAIRS {
            format!("n/a ({pairs} pairs)")
        } else {
            let wins = base
                .iter()
                .zip(head)
                .filter(|&(&bv, &hv)| worse_by(hv, bv) < 0.0)
                .count();
            let holds = wins * 10 >= pairs * 9
                && change < 0.0
                && (head_median - base_median).abs() > base_iqr;
            format!(
                "{} ({wins}/{pairs} wins)",
                if holds { "holds" } else { "no" }
            )
        };
        Self {
            base_median,
            base_iqr,
            head_median,
            head_iqr,
            change,
            verdict,
            claim,
        }
    }
}

fn names(spec: &Value, key: &str) -> Result<Vec<String>, String> {
    spec.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|w| str_field(w, "name"))
        .collect()
}

fn metric_specs(spec: &Value) -> Result<Vec<MetricSpec>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: str_field(m, "name")?,
                lower_is_better: str_field(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("entry without a string {key}")),
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// Result lines of `path`; a missing file holds no runs.
fn runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    Ok(text.lines().filter_map(parse_result).collect())
}

fn parse_result(line: &str) -> Option<Run> {
    let v: Value = serde_json::from_str(line.trim()).ok()?;
    let metrics = v.get("metrics")?.as_object()?;
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(m.get("value")?)?)))
        .collect();
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    Some(Run { correct, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98];
        let same = [1.0, 1.005, 0.995, 1.01, 0.99, 1.0];
        assert_eq!(Row::new(&spec(true, 0.1), &base, &same).verdict, "agree");
        let slower = [1.2, 1.21, 1.19, 1.2, 1.22, 1.18];
        assert_eq!(Row::new(&spec(true, 0.1), &base, &slower).verdict, "worse");
        // Higher is better: the same numbers are a gain, every run better.
        assert_eq!(
            Row::new(&spec(false, 0.1), &base, &slower).verdict,
            "better"
        );
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.9];
        assert_eq!(
            Row::new(&spec(true, 0.1), &base, &noisy).verdict,
            "unresolved"
        );
    }

    #[test]
    fn the_claim_needs_ten_pairs_nine_wins_and_separation() {
        let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert!(Row::new(&spec(true, 0.1), &base, &faster)
            .claim
            .starts_with("holds (10/10"));
        let mut eight = faster.clone();
        eight[0] = 2.0;
        eight[1] = 2.0;
        assert!(Row::new(&spec(true, 0.1), &base, &eight)
            .claim
            .starts_with("no (8/10"));
        assert!(Row::new(&spec(true, 0.1), &base[..9], &faster[..9])
            .claim
            .starts_with("n/a"));
    }

    #[test]
    fn result_lines_parse_and_other_lines_are_skipped() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "converge_iters": {"value": 41, "unit": "iterations"}}}"#;
        let run = parse_result(line).expect("a result line");
        assert!(run.correct);
        assert_eq!(run.value("setup_s"), Some(0.5));
        assert_eq!(run.value("converge_iters"), Some(41.0));
        assert!(parse_result("setup_s 0.5 s").is_none());
    }
}
