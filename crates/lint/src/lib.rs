//! `lrgp-lint` — determinism-invariant static analysis for the LRGP
//! workspace.
//!
//! The repo's core guarantee is that the sequential, parallel-sharded, and
//! incremental LRGP engines produce **bit-identical** (`f64::to_bits`)
//! results. That guarantee is enforced dynamically by the differential
//! harness, but the bug classes that break it are visible statically —
//! PR 2 had to hand-fix a `partial_cmp(..).unwrap_or(Equal)` admission
//! comparator that this tool now catches at review time. This crate is the
//! static side of the enforcement:
//!
//! * [`lexer`] — a hand-rolled, line/column-tracked Rust lexer (no `syn`,
//!   consistent with the vendored-shims policy): comment/string/attribute
//!   aware, and the scanner for inline suppression directives.
//! * [`rules`] — the rules themselves; see [`rules::RULES`] for the list
//!   and the engine invariant each one protects.
//! * [`engine`] — per-file orchestration: `#[cfg(test)]` region detection,
//!   path-based file classification, suppression application.
//! * [`report`] — stable, sorted human and JSON output.
//!
//! # Suppressions
//!
//! Intentional uses are documented in place and must carry a reason:
//!
//! ```text
//! // lrgp-lint: allow(float-total-order, reason = "three-valued compare is the API")
//! ```
//!
//! A directive covers its own line and the next line with code. Malformed
//! directives and unknown rule ids are themselves findings
//! (`bad-directive`), so a typo can never silently disable enforcement.
//!
//! # Example
//!
//! ```
//! let analysis = lrgp_lint::analyze_source(
//!     "crates/model/src/x.rs",
//!     "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
//! );
//! let rules: Vec<_> = analysis.findings.iter().map(|f| f.rule).collect();
//! assert_eq!(rules, ["float-total-order", "library-unwrap"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod fix;
pub mod hotpath;
pub mod lexer;
pub mod lockgraph;
pub mod parser;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod symbols;

pub use engine::{
    analyze_files, analyze_files_timed, analyze_source, classify, crate_of, effect_surface,
    FileAnalysis, FileKind, Finding, PhaseTimings, Suppression, BAD_DIRECTIVE,
};
pub use fix::{fix_paths, FixOutcome};
pub use report::{Report, JSON_SCHEMA_VERSION};
pub use rules::{is_known_rule, Rule, RULES};

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into when scanning.
///
/// * `target`, `.git`, `results` — build/VCS/experiment outputs.
/// * `shims` — vendored stand-ins mimicking external crates' APIs
///   (panicking to mirror the real crate is part of their contract).
/// * `tests`, `benches`, `examples`, `fixtures` — test-like code is exempt
///   from every rule, so scanning it is pure noise (and the lint's own
///   known-bad fixtures live under `tests/fixtures/`).
pub const SKIPPED_DIRS: &[&str] =
    &["target", ".git", "results", "shims", "tests", "benches", "examples", "fixtures"];

/// Normalizes a path into the repo-relative, `/`-separated label used in
/// diagnostics (and relied on for stable report ordering).
pub fn label_of(path: &Path) -> String {
    let raw = path.to_string_lossy().replace('\\', "/");
    raw.strip_prefix("./").unwrap_or(&raw).to_string()
}

fn walk_into(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let name = name.as_deref().unwrap_or("");
        if path.is_dir() {
            if !SKIPPED_DIRS.contains(&name) {
                walk_into(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Collects every `.rs` file under `root` (or `root` itself if it is a
/// file), skipping [`SKIPPED_DIRS`]. Results are sorted by label.
#[must_use = "the file list is the entire point of calling this"]
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if root.is_dir() {
        walk_into(root, &mut files)?;
    } else {
        files.push(root.to_path_buf());
    }
    files.sort_by_key(|p| label_of(p));
    Ok(files)
}

/// Labels of the `.rs` files that differ from `base`, as reported by
/// `git diff --name-only <base>` (deleted files excluded). Paths come back
/// repo-relative with `/` separators, i.e. already in [`label_of`] form —
/// so diff-scoped linting (`lrgp-lint --changed <ref>`) must run from the
/// repository root, which is where every other workspace-relative command
/// runs from too.
#[must_use = "this Result reports a failure the caller must handle"]
pub fn changed_labels(base: &str) -> io::Result<std::collections::BTreeSet<String>> {
    let out = std::process::Command::new("git")
        .args(["diff", "--name-only", "--diff-filter=d", base, "--", "*.rs"])
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "git diff --name-only {base} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Lints every Rust file under the given roots and aggregates a
/// stable-sorted [`Report`].
///
/// The whole set is analyzed as one workspace (see
/// [`engine::analyze_files`]): symbols resolve across files, so e.g. a
/// hash-typed struct field declared in one module is seen by iteration
/// sites in another.
#[must_use = "the report carries the findings; dropping it skips enforcement"]
pub fn lint_paths(roots: &[PathBuf]) -> io::Result<Report> {
    lint_paths_filtered(roots, None)
}

/// Like [`lint_paths`], but reports findings and suppressions only for
/// files whose label is in `only` (when given). The **whole** tree is
/// still read and analyzed — cross-file symbol resolution needs it — so a
/// diff-scoped run (`lrgp-lint --changed <ref>`) is faster to act on, not
/// less correct. `files_scanned` counts analyzed files, not reported ones.
#[must_use = "the report carries the findings; dropping it skips enforcement"]
pub fn lint_paths_filtered(
    roots: &[PathBuf],
    only: Option<&std::collections::BTreeSet<String>>,
) -> io::Result<Report> {
    let mut files: Vec<(String, String)> = Vec::new();
    for root in roots {
        for file in collect_rust_files(root)? {
            files.push((label_of(&file), std::fs::read_to_string(&file)?));
        }
    }
    let (analyses, timings) = engine::analyze_files_timed(&files);
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    for ((label, _), analysis) in files.iter().zip(analyses) {
        if only.is_some_and(|set| !set.contains(label)) {
            continue;
        }
        findings.extend(analysis.findings);
        suppressions.extend(analysis.suppressions);
    }
    let mut report = Report::new(findings, suppressions, files.len());
    report.lex_ms = timings.lex_ms as u64;
    report.semantic_ms = timings.semantic_ms as u64;
    report.dataflow_ms = timings.dataflow_ms as u64;
    report.graph_ms = timings.graph_ms as u64;
    Ok(report)
}

/// The deterministic effect-surface snapshot over the given roots: one
/// sorted line per public library fn (`module::path::fn effect,names`,
/// `-` when pure) plus the lock-order graph, for `--effects` and the CI
/// snapshot gate.
#[must_use = "the surface lines are the entire point of calling this"]
pub fn effect_surface_paths(
    roots: &[PathBuf],
) -> io::Result<(Vec<String>, lockgraph::LockGraph)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for root in roots {
        for file in collect_rust_files(root)? {
            files.push((label_of(&file), std::fs::read_to_string(&file)?));
        }
    }
    Ok(engine::effect_surface(&files))
}
