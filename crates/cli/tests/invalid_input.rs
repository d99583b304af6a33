//! `lrgp solve` must refuse a problem file that violates a builder
//! invariant, instead of solving it and exiting 0, and every subcommand
//! must refuse a numeric flag outside its range with exit 2 before it runs.

use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::base_workload;
use lrgp_model::utility::Utility;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The base workload as a problem file, with `edit` applied to the JSON
/// array stored under the problem's `key`.
fn edited_base(key: &str, edit: impl Fn(&mut Vec<Value>)) -> String {
    let mut file = ProblemFile::new("edited", base_workload()).to_value();
    let Value::Object(fields) = &mut file else { panic!("file is an object") };
    let Some((_, Value::Object(problem))) = fields.iter_mut().find(|(k, _)| k == "problem") else {
        panic!("file has a problem object")
    };
    let Some((_, Value::Array(items))) = problem.iter_mut().find(|(k, _)| k == key) else {
        panic!("problem has an array {key}")
    };
    edit(items);
    serde_json::to_string(&file).unwrap()
}

/// Sets `key` of every object in `items` to `f(old value)`.
fn map_field(items: &mut [Value], key: &str, f: impl Fn(&Value) -> Value) {
    for item in items {
        let Value::Object(entries) = item else { panic!("item is an object") };
        let entry = entries.iter_mut().find(|(k, _)| k == key).unwrap();
        entry.1 = f(&entry.1);
    }
}

/// Runs `lrgp solve` on `json` and returns (exit success, stderr).
fn solve(name: &str, json: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join(format!("lrgp_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lrgp"))
        .args(["solve", path.to_str().unwrap(), "--iters", "5"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn class_pointing_at_node_999_exits_nonzero() {
    let json = edited_base("classes", |classes| {
        map_field(&mut classes[..1], "node", |_| Value::U64(999));
    });
    let (ok, stderr) = solve("node999.json", &json);
    assert!(!ok, "solve accepted a class on node 999");
    assert!(stderr.contains("invalid problem") && stderr.contains("999"), "{stderr}");
}

#[test]
fn negated_capacities_exit_nonzero() {
    let json = edited_base("nodes", |nodes| {
        map_field(nodes, "capacity", |c| match c {
            Value::F64(capacity) => Value::F64(-capacity),
            other => panic!("capacities serialize as f64, found {other:?}"),
        });
    });
    let (ok, stderr) = solve("negated.json", &json);
    assert!(!ok, "solve accepted negative capacities");
    assert!(stderr.contains("must be positive"), "{stderr}");
}

#[test]
fn negative_utility_weight_exits_nonzero() {
    let json = edited_base("classes", |classes| {
        map_field(&mut classes[..1], "utility", |_| Utility::Log { weight: -20.0 }.to_value());
    });
    let (ok, stderr) = solve("negative_weight.json", &json);
    assert!(!ok, "solve accepted a negative utility weight");
    assert!(stderr.contains("invalid problem") && stderr.contains("utility"), "{stderr}");
}

#[test]
fn valid_file_still_solves() {
    let json = ProblemFile::new("base", base_workload()).to_json().unwrap();
    let (ok, stderr) = solve("base.json", &json);
    assert!(ok, "{stderr}");
}

/// Runs `lrgp` with `args` and returns its exit code and stderr, failing
/// the test if it has not exited within 20 s (a refused start temperature
/// once looped forever).
fn run_watched(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lrgp"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("lrgp {args:?} did not exit within 20 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn numeric_flags_out_of_range_exit_2_never_101() {
    // One process at a time. Each of these once panicked (exit 101), ran
    // with no verdict, returned a meaningless result, or never returned.
    let dir = std::env::temp_dir().join(format!("lrgp_cli_{}_numeric", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = dir.join("w.json");
    let output = output.to_str().unwrap();
    let refused: [&[&str]; 18] = [
        &["solve", "base", "--gamma", "-1"],
        &["solve", "base", "--gamma", "nan"],
        &["solve", "base", "--gamma", "5"],
        &["solve", "base", "--gamma", "inf"],
        &["workload", "--systems", "0", "-o", output],
        &["workload", "--cnodes", "0", "-o", output],
        &["anneal", "base", "--temp", "inf"],
        &["anneal", "base", "--temp", "0"],
        &["anneal", "base", "--temp", "-1"],
        &["anneal", "base", "--temp", "nan"],
        &["anneal", "base", "--steps", "0"],
        &["compare", "base", "--steps", "0"],
        &["solve", "base", "--iters", "0"],
        &["simulate", "base", "--amount", "0"],
        &["bench", "--quick", "--min-speedup", "nan"],
        &["bench", "--quick", "--min-speedup", "inf"],
        &["bench", "--quick", "--min-speedup", "0"],
        &["bench", "--quick", "--min-speedup", "-1"],
    ];
    for args in refused {
        let (code, stderr) = run_watched(args);
        assert_eq!(code, Some(2), "lrgp {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "lrgp {args:?}: {stderr}");
    }
    // A huge but finite start temperature still runs its step budget.
    let (code, stderr) = run_watched(&["anneal", "base", "--temp", "1e300", "--steps", "1000"]);
    assert_eq!(code, Some(0), "{stderr}");
    let wrote = std::path::Path::new(output).exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!wrote, "a refused workload command wrote {output}");
}
