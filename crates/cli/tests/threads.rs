//! `lrgp solve --threads N` sizes the worker pool to the problem, so any
//! count the parser accepts solves like the sequential engine.

use std::process::Command;

#[test]
fn a_thread_count_of_usize_max_solves_the_base_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_lrgp"))
        .args(["solve", "base", "--threads", &usize::MAX.to_string()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("converged after 41 iterations"), "{stdout}");
}
