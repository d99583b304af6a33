//! Fixture-based end-to-end tests: every rule has a known-bad file that is
//! detected at an exact `file:line:col`, a known-good twin that stays
//! clean, and the suppression machinery is exercised on real files.
//!
//! Fixtures live under `tests/fixtures/` (a [`lrgp_lint::SKIPPED_DIRS`]
//! component, so the workspace self-check never scans them) and are fed to
//! the analyzer under a synthetic library-crate label, since rules key off
//! the repo-relative path.

use lrgp_lint::analyze_source;

/// Analyzes a fixture as if it lived at `crates/<krate>/src/fixture.rs`.
fn run(krate: &str, src: &str) -> lrgp_lint::FileAnalysis {
    analyze_source(&format!("crates/{krate}/src/fixture.rs"), src)
}

/// Analyzes a fixture under an explicit label, for rules whose scope is a
/// specific path (kernel files).
fn run_at(label: &str, src: &str) -> lrgp_lint::FileAnalysis {
    analyze_source(label, src)
}

fn triples(analysis: &lrgp_lint::FileAnalysis) -> Vec<(&str, u32, u32)> {
    analysis.findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn float_total_order_fixture_pair() {
    let bad = run("model", include_str!("fixtures/float_total_order_bad.rs"));
    assert_eq!(triples(&bad), vec![("float-total-order", 5, 24)]);
    let good = run("model", include_str!("fixtures/float_total_order_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn float_eq_fixture_pair() {
    let bad = run("model", include_str!("fixtures/float_eq_bad.rs"));
    assert_eq!(triples(&bad), vec![("float-eq", 5, 10)]);
    let good = run("model", include_str!("fixtures/float_eq_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn nondeterministic_source_fixture_pair() {
    let src = include_str!("fixtures/nondeterministic_source_bad.rs");
    let bad = run("core", src);
    assert_eq!(
        triples(&bad),
        vec![("nondeterministic-source", 5, 14), ("nondeterministic-source", 6, 19)]
    );
    // The same file outside the numeric crates is out of the rule's scope.
    assert!(triples(&run("overlay", src)).is_empty());
    let good = run("core", include_str!("fixtures/nondeterministic_source_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn unordered_float_iteration_fixture_pair() {
    let bad = run("model", include_str!("fixtures/unordered_float_iteration_bad.rs"));
    // The semantic hash-order rule independently reaches the same site.
    assert_eq!(
        triples(&bad),
        vec![("hash-order-iteration", 6, 5), ("unordered-float-iteration", 6, 5)]
    );
    let good = run("model", include_str!("fixtures/unordered_float_iteration_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn library_unwrap_fixture_pair() {
    let src = include_str!("fixtures/library_unwrap_bad.rs");
    let bad = run("model", src);
    assert_eq!(triples(&bad), vec![("library-unwrap", 5, 30), ("library-unwrap", 7, 9)]);
    // Harness crates may panic on bad input; the same file there is clean.
    assert!(triples(&run("cli", src)).is_empty());
    let good = run("model", include_str!("fixtures/library_unwrap_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn hash_order_iteration_fixture_pair() {
    let bad = run("overlay", include_str!("fixtures/hash_order_iteration_bad.rs"));
    assert_eq!(
        triples(&bad),
        vec![
            // Serialized HashSet field, anchored at the struct keyword.
            ("hash-order-iteration", 6, 5),
            // Escaping `for` loop (grows the caller's collection).
            ("hash-order-iteration", 11, 5),
            // Unterminated iterator chain reaching the caller.
            ("hash-order-iteration", 17, 13),
        ]
    );
    let good = run("overlay", include_str!("fixtures/hash_order_iteration_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
    // The same bad file outside the order-sensitive crates is out of scope.
    let elsewhere = run("lint", include_str!("fixtures/hash_order_iteration_bad.rs"));
    assert!(triples(&elsewhere).is_empty(), "{:?}", elsewhere.findings);
}

#[test]
fn shared_mut_fixture_pair() {
    let bad = run("model", include_str!("fixtures/shared_mut_bad.rs"));
    assert_eq!(
        triples(&bad),
        vec![
            // Non-`move` closure writing a captured binding.
            ("shared-mut-across-threads", 10, 9),
            // `&mut` reference reaching out of the closure.
            ("shared-mut-across-threads", 11, 15),
            // RefCell-typed capture.
            ("shared-mut-across-threads", 12, 9),
        ]
    );
    let good = run("model", include_str!("fixtures/shared_mut_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn lossy_float_cast_fixture_pair() {
    let bad = run("model", include_str!("fixtures/lossy_float_cast_bad.rs"));
    assert_eq!(
        triples(&bad),
        vec![("lossy-float-cast", 8, 11), ("lossy-float-cast", 12, 12)]
    );
    // The good twin includes `rate as usize` on a u32 while a `fn rate()
    // -> f64` exists in the same file: name-based return evidence must
    // only apply to actual calls.
    let good = run("model", include_str!("fixtures/lossy_float_cast_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn missing_must_use_fixture_pair() {
    let src = include_str!("fixtures/missing_must_use_bad.rs");
    let bad = run("model", src);
    assert_eq!(
        triples(&bad),
        vec![("missing-must-use", 5, 5), ("missing-must-use", 13, 9)]
    );
    // Harness crates are exempt: panicking or ignoring errors at the CLI
    // boundary is its own policy.
    assert!(triples(&run("cli", src)).is_empty());
    let good = run("model", include_str!("fixtures/missing_must_use_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn kernel_impure_fixture_pair() {
    let src = include_str!("fixtures/kernel_impure_bad.rs");
    let bad = run_at("crates/core/src/kernel/fixture.rs", src);
    // Both the IO-doing helper and the kernel fn that reaches it through
    // a call are flagged — the effect is interprocedural.
    assert_eq!(
        triples(&bad),
        vec![("kernel-impure", 4, 5), ("kernel-impure", 9, 1)]
    );
    // The same file outside kernel/ is allowed to trace.
    assert!(triples(&run("core", src)).is_empty());
    let good = run_at(
        "crates/core/src/kernel/fixture.rs",
        include_str!("fixtures/kernel_impure_good.rs"),
    );
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn unmarked_dirty_write_fixture_pair() {
    let src = include_str!("fixtures/unmarked_dirty_write_bad.rs");
    let bad = run("core", src);
    assert_eq!(triples(&bad), vec![("unmarked-dirty-write", 13, 11)]);
    // The rule is scoped to crates/core's cached-state structs.
    assert!(triples(&run("model", src)).is_empty());
    let good = run("core", include_str!("fixtures/unmarked_dirty_write_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn cfg_test_field_fixture_pair() {
    // A `#[cfg(test)]` field last in its struct must not hide the impl
    // after it from the rules.
    let bad = run("core", include_str!("fixtures/cfg_test_field_bad.rs"));
    assert_eq!(triples(&bad), vec![("unmarked-dirty-write", 15, 14)]);
    let good = run("core", include_str!("fixtures/cfg_test_field_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn cfg_test_pub_field_fixture_pair() {
    // The same with a `pub(crate)` field, whose impl the call graph and
    // the hot-path budget must see.
    let label = "crates/core/src/kernel/fixture.rs";
    let bad = run_at(label, include_str!("fixtures/cfg_test_pub_field_bad.rs"));
    assert_eq!(triples(&bad), vec![("hot-path-alloc", 14, 16)]);
    let good = run_at(label, include_str!("fixtures/cfg_test_pub_field_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn condvar_wait_fixture_pair() {
    let bad = run("core", include_str!("fixtures/condvar_wait_bad.rs"));
    assert_eq!(
        triples(&bad),
        vec![
            // No loop at all.
            ("condvar-wait-no-predicate-loop", 6, 16),
            // Bare `loop` with no conditional exit.
            ("condvar-wait-no-predicate-loop", 13, 20),
        ]
    );
    let good = run("core", include_str!("fixtures/condvar_wait_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn lock_held_across_park_fixture_pair() {
    let bad = run("core", include_str!("fixtures/lock_held_bad.rs"));
    assert_eq!(
        triples(&bad),
        vec![
            ("lock-held-across-park", 6, 12),
            ("lock-held-across-park", 13, 5),
        ]
    );
    let good = run("core", include_str!("fixtures/lock_held_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn vector_escape_fixture_pair() {
    let src = include_str!("fixtures/vector_escape_bad.rs");
    let bad = run("core", src);
    assert_eq!(
        triples(&bad),
        vec![
            // Chunked reduction, anchored at the chunks_exact call.
            ("vector-escape", 7, 18),
            // Two-lane unrolling, anchored at the loop keyword.
            ("vector-escape", 18, 5),
        ]
    );
    // No core module is exempt: at the label of the deleted vectorized
    // kernel module both shapes are findings, next to the layer-4 hot-path
    // budget's panic-capable `xs[i + 1]` arithmetic indexing.
    assert_eq!(
        triples(&run_at("crates/core/src/kernel/vector.rs", src)),
        vec![("vector-escape", 7, 18), ("hot-path-panic", 14, 5), ("vector-escape", 18, 5)]
    );
    // Outside crates/core the vector policy does not apply.
    assert!(triples(&run("model", src)).is_empty());
    let good = run("core", include_str!("fixtures/vector_escape_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn lock_order_inversion_fixture_pair() {
    let bad = run("core", include_str!("fixtures/lock_order_bad.rs"));
    // One cycle, reported once, anchored at its canonical first edge (the
    // `beta.lock()` taken while `alpha` is held).
    assert_eq!(triples(&bad), vec![("lock-order-inversion", 7, 20)]);
    assert!(
        bad.findings[0].message.contains("`alpha` → `beta`")
            && bad.findings[0].message.contains("`beta` → `alpha`"),
        "witness chain must show both edges: {}",
        bad.findings[0].message
    );
    let good = run("core", include_str!("fixtures/lock_order_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn lock_order_receiver_fixture_pair() {
    // A recursive `self.drain(..)` under the live `slot` guard re-takes the
    // lock; `slot.buf.drain(..)` in a fn named `drain` is `Vec::drain`.
    let bad = run("core", include_str!("fixtures/lock_order_receiver_bad.rs"));
    assert_eq!(triples(&bad), vec![("lock-order-inversion", 11, 18)]);
    assert!(bad.findings[0].message.contains("`slot` → `slot`"), "{}", bad.findings[0].message);
    let good = run("core", include_str!("fixtures/lock_order_receiver_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn hot_path_alloc_fixture_pair() {
    let src = include_str!("fixtures/hot_path_alloc_bad.rs");
    let bad = run_at("crates/core/src/kernel/fixture.rs", src);
    assert_eq!(triples(&bad), vec![("hot-path-alloc", 5, 5)]);
    // Outside the declared root set the same file is clean.
    assert!(triples(&run("model", src)).is_empty());
    let good =
        run_at("crates/core/src/kernel/fixture.rs", include_str!("fixtures/hot_path_alloc_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn hot_path_into_string_fixture_pair() {
    // `.into()` on an `impl Into<String>` parameter allocates the `String`;
    // the same call on an `impl Into<f64>` does not.
    let bad = run_at(
        "crates/core/src/kernel/fixture.rs",
        include_str!("fixtures/hot_path_into_string_bad.rs"),
    );
    assert_eq!(triples(&bad), vec![("hot-path-alloc", 5, 5)]);
    assert!(bad.findings[0].message.contains("`.into()` of an `impl Into<String>`"), "{:?}", bad.findings);
    let good = run_at(
        "crates/core/src/kernel/fixture.rs",
        include_str!("fixtures/hot_path_into_string_good.rs"),
    );
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn hot_path_panic_fixture_pair() {
    let src = include_str!("fixtures/hot_path_panic_bad.rs");
    let bad = run_at("crates/core/src/kernel/fixture.rs", src);
    // Both the helper (itself a root under `kernel/ *`) and the step fn
    // that reaches the panic transitively are flagged.
    assert_eq!(
        triples(&bad),
        vec![("hot-path-panic", 5, 1), ("hot-path-panic", 10, 5)]
    );
    let step = &bad.findings[1];
    assert!(
        step.message.contains("`step` → `tail_sum`"),
        "transitive finding must carry the call-chain witness: {}",
        step.message
    );
    let good =
        run_at("crates/core/src/kernel/fixture.rs", include_str!("fixtures/hot_path_panic_good.rs"));
    assert!(triples(&good).is_empty(), "{:?}", good.findings);
}

#[test]
fn layer4_findings_anchor_at_the_root_file() {
    // `--changed <ref>` keeps findings whose file is in the changed set.
    // A hot-path finding whose *witness* crosses into an unchanged file
    // must therefore anchor at the root fn's file — otherwise editing the
    // root would silently drop the report under diff-scoped linting.
    let files = [
        (
            "crates/core/src/kernel/fixture.rs".to_string(),
            "/// Root: reaches the allocation through the helper crate.\n\
             pub fn step(xs: &[f64]) -> Vec<f64> { widen(xs) }\n"
                .to_string(),
        ),
        (
            "crates/model/src/helper.rs".to_string(),
            "/// The allocation lives here, outside the changed set.\n\
             pub fn widen(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n"
                .to_string(),
        ),
    ];
    let analyses = lrgp_lint::analyze_files(&files);
    let kernel: Vec<_> = triples(&analyses[0])
        .into_iter()
        .filter(|(rule, _, _)| *rule == "hot-path-alloc")
        .collect();
    assert_eq!(kernel, vec![("hot-path-alloc", 2, 5)], "{:?}", analyses[0].findings);
    assert!(
        analyses[0].findings.iter().any(|f| f.message.contains("`step` → `widen`")),
        "{:?}",
        analyses[0].findings
    );
    // The helper's file carries no hot-path finding: it is not a root,
    // so scoping a lint run to the kernel file alone loses nothing.
    assert!(
        !analyses[1].findings.iter().any(|f| f.rule == "hot-path-alloc"),
        "{:?}",
        analyses[1].findings
    );
}

#[test]
fn layer3_rules_are_report_only() {
    // The CFG/dataflow rules have no mechanical rewrite whose correctness
    // is decidable from the finding (wrapping a bare `wait` in a predicate
    // loop needs the predicate), so none of their findings may claim
    // `fixable` — which is also what keeps the `--fix` no-op idempotence
    // self-check trivially true for them.
    let sources = [
        run_at("crates/core/src/kernel/fixture.rs", include_str!("fixtures/kernel_impure_bad.rs")),
        run("core", include_str!("fixtures/unmarked_dirty_write_bad.rs")),
        run("core", include_str!("fixtures/condvar_wait_bad.rs")),
        run("core", include_str!("fixtures/lock_held_bad.rs")),
        run("core", include_str!("fixtures/vector_escape_bad.rs")),
        run("core", include_str!("fixtures/lock_order_bad.rs")),
        run("core", include_str!("fixtures/lock_order_receiver_bad.rs")),
        run_at("crates/core/src/kernel/fixture.rs", include_str!("fixtures/hot_path_alloc_bad.rs")),
        run_at("crates/core/src/kernel/fixture.rs", include_str!("fixtures/hot_path_panic_bad.rs")),
    ];
    for analysis in &sources {
        assert!(!analysis.findings.is_empty());
        for f in &analysis.findings {
            assert!(!f.fixable, "{}: layer-3 finding claims a machine fix", f.rule);
        }
    }
}

#[test]
fn suppression_silences_only_the_named_rule() {
    let analysis = run("model", include_str!("fixtures/suppressed.rs"));
    // The wrong-rule allow leaves the comparator finding standing.
    assert_eq!(triples(&analysis), vec![("float-total-order", 13, 24)]);
    // The justified allow is honored and reported with its reason.
    assert_eq!(analysis.suppressions.len(), 1);
    let s = &analysis.suppressions[0];
    assert_eq!((s.rule.as_str(), s.line), ("library-unwrap", 6));
    assert_eq!(s.reason, "caller guarantees non-empty");
}

#[test]
fn malformed_and_unknown_directives_are_findings() {
    let analysis = run("model", include_str!("fixtures/bad_directive.rs"));
    assert_eq!(
        triples(&analysis),
        vec![("bad-directive", 3, 1), ("bad-directive", 6, 1)]
    );
    assert!(analysis.suppressions.is_empty());
}
