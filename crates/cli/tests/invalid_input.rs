//! `lrgp solve` must refuse a problem file that violates a builder
//! invariant, instead of solving it and exiting 0.

use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::base_workload;
use lrgp_model::utility::Utility;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::Command;

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
