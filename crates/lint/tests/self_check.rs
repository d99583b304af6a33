//! The linter must hold on its own workspace: `lrgp-lint --deny` exiting 0
//! over the repo is an acceptance criterion, and `crates/core` must be
//! clean without a single suppression (see
//! `core_carries_no_suppressions`).

use lrgp_lint::lexer::TokenKind;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // Canonicalize so labels contain no `..` components — `crate_of` keys
    // off the first `crates/<name>` pair in the label.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lrgp_lint::lint_paths(&[repo_root()]).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan looks truncated: {} files", report.files_scanned);
    assert!(report.findings.is_empty(), "\n{}", report.render_human());
}

#[test]
fn core_carries_no_suppressions() {
    // `crates/core` satisfies every rule without a single allow. This
    // covers the dirty-set soundness rule too: an unmarked cached write
    // breaks incremental-vs-full bitwise equality silently, so there is no
    // legitimate exception to document.
    let core = repo_root().join("crates/core");
    let report = lrgp_lint::lint_paths(&[core]).expect("core scan");
    assert!(report.findings.is_empty(), "\n{}", report.render_human());
    assert!(
        report.suppressions.is_empty(),
        "crates/core must satisfy every rule without allows: {:?}",
        report.suppressions
    );
}

#[test]
fn semantic_rules_are_registered_and_enforced() {
    for id in
        ["hash-order-iteration", "shared-mut-across-threads", "lossy-float-cast", "missing-must-use"]
    {
        assert!(lrgp_lint::is_known_rule(id), "rule {id} missing from RULES");
    }
    // `workspace_is_lint_clean` passing with the semantic rules active is
    // the acceptance criterion; the registry check keeps that meaningful.
}

#[test]
fn fix_plans_nothing_on_the_clean_workspace() {
    // `lrgp-lint --fix` must be a no-op on a workspace that lints clean:
    // every fixable finding has been applied, so planning again finds no
    // edits. CI re-asserts this on every push.
    let root = repo_root();
    let mut files = Vec::new();
    for path in lrgp_lint::collect_rust_files(&root).expect("collect") {
        let src = std::fs::read_to_string(&path).expect("read");
        files.push((lrgp_lint::label_of(&path), src));
    }
    let plans = lrgp_lint::fix::plan_fixes(&files);
    let touched: Vec<&str> = plans.iter().map(|(label, _, _)| label.as_str()).collect();
    assert!(touched.is_empty(), "--fix would still rewrite: {touched:?}");
}

#[test]
fn every_hot_path_exemption_names_a_fn_of_its_file() {
    // A `!` line whose fn is gone exempts nothing and would silently exempt
    // a later fn of that name. Each must name a fn its file declares.
    let root = repo_root();
    let policy = std::fs::read_to_string(root.join("crates/lint/hot_paths.txt"))
        .expect("hot_paths.txt exists");
    let mut exemptions = 0;
    for line in policy.lines().filter(|line| line.trim_start().starts_with('!')) {
        let mut words = line.split_whitespace().skip(1);
        let (Some(path), Some(name)) = (words.next(), words.next()) else {
            panic!("malformed exemption: {line:?}");
        };
        let src = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("{path} named by {line:?}: {e}"));
        // The lexer drops comments, so a `fn` in a comment does not count.
        let tokens = lrgp_lint::lexer::lex(&src).tokens;
        let declared = tokens.windows(2).any(|pair| {
            pair[0].kind == TokenKind::Ident && pair[0].text == "fn" && pair[1].text == name
        });
        assert!(declared, "hot_paths.txt exempts `{name}`, which {path} does not declare");
        exemptions += 1;
    }
    assert!(exemptions > 0, "no exemption was checked");
}

#[test]
fn json_report_is_stable_and_sorted() {
    let root = repo_root();
    let mut a = lrgp_lint::lint_paths(std::slice::from_ref(&root)).expect("scan");
    let mut b = lrgp_lint::lint_paths(&[root]).expect("scan");
    // The four per-layer `*_ms` wallclocks are the only non-deterministic
    // fields; everything else must be byte-identical across runs.
    for r in [&mut a, &mut b] {
        r.lex_ms = 0;
        r.semantic_ms = 0;
        r.dataflow_ms = 0;
        r.graph_ms = 0;
    }
    assert_eq!(a.to_json(), b.to_json(), "repeated scans must serialize identically");
    let sups = &a.suppressions;
    for w in sups.windows(2) {
        assert!(
            (&w[0].file, w[0].line) <= (&w[1].file, w[1].line),
            "suppressions out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn every_rule_has_explain_text() {
    // `--explain <rule>` renders `Rule::explain`; a rule landing without
    // one would print an empty card. Require real prose: a rationale plus
    // the example/remediation sections the card format promises.
    for rule in lrgp_lint::RULES {
        assert!(
            rule.explain.trim().len() > 80,
            "rule {} has no substantive explain text",
            rule.id
        );
        assert!(
            rule.explain.contains("Example:"),
            "rule {} explain lacks an Example: section",
            rule.id
        );
        assert!(
            rule.explain.contains("Fix:"),
            "rule {} explain lacks a Fix: section",
            rule.id
        );
    }
}

#[test]
fn suppression_count_stays_within_budget() {
    // CI gates on this too (see `suppressions_budget.txt`): the allow
    // count may go down freely, but growing it is an explicit, reviewed
    // decision — bump the budget file in the same PR as the new allow.
    let budget_file = repo_root().join("crates/lint/suppressions_budget.txt");
    let budget: usize = std::fs::read_to_string(&budget_file)
        .expect("suppressions_budget.txt exists")
        .trim()
        .parse()
        .expect("budget file holds a single integer");
    let report = lrgp_lint::lint_paths(&[repo_root()]).expect("workspace scan");
    assert!(
        report.suppressions.len() <= budget,
        "workspace carries {} suppressions, over the budget of {budget}; \
         remove one or raise crates/lint/suppressions_budget.txt in review",
        report.suppressions.len()
    );
}

#[test]
fn kernel_fns_are_pure_on_the_real_workspace() {
    // Regression guard for the layer-3 sweep: every fn in
    // `crates/core/src/kernel/` must keep an empty denied-effect set under
    // the interprocedural fixpoint — not merely "no unsuppressed finding",
    // so a suppression can never smuggle impurity back in.
    use lrgp_lint::dataflow::EffectSet;
    let core = repo_root().join("crates/core");
    let report = lrgp_lint::lint_paths(&[core]).expect("core scan");
    assert!(report.findings.is_empty(), "\n{}", report.render_human());
    let kernel_allows: Vec<_> = report
        .suppressions
        .iter()
        .filter(|s| s.rule == "kernel-impure")
        .collect();
    assert!(
        kernel_allows.is_empty(),
        "kernel-impure must never be suppressed: {kernel_allows:?}"
    );
    // Drive the dataflow layer directly over the kernel sources to assert
    // the effect sets themselves, independent of rule wiring.
    let root = repo_root();
    let mut files = Vec::new();
    for path in lrgp_lint::collect_rust_files(&root.join("crates/core")).expect("collect") {
        let src = std::fs::read_to_string(&path).expect("read");
        files.push((lrgp_lint::label_of(&path), src));
    }
    let analyses = lrgp_lint::analyze_files(&files);
    let mut kernel_fns = 0usize;
    let mut budgeted_fns = 0usize;
    let hot = lrgp_lint::hotpath::HotPaths::builtin();
    for ((label, _), analysis) in files.iter().zip(&analyses) {
        if !label.contains("/kernel/") {
            continue;
        }
        for (name, effects) in &analysis.kernel_effects {
            kernel_fns += 1;
            assert!(
                effects.intersect(EffectSet::KERNEL_DENIED).is_empty(),
                "{label}: kernel fn `{name}` carries denied effects {:?}",
                effects.intersect(EffectSet::KERNEL_DENIED).names()
            );
            // The layer-4 budget on top: every kernel fn that is not
            // explicitly exempted in hot_paths.txt must also stay free of
            // ALLOC and PANIC reachability — combined with KERNEL_DENIED
            // this pins `kernel::*` free of IO/LOCK/ALLOC/PANIC.
            if hot.is_exempt(label, name) {
                continue;
            }
            budgeted_fns += 1;
            let denied = EffectSet::KERNEL_DENIED
                .union(EffectSet::ALLOC)
                .union(EffectSet::PANIC);
            assert!(
                effects.intersect(denied).is_empty(),
                "{label}: hot-path kernel fn `{name}` carries budgeted effects {:?}",
                effects.intersect(denied).names()
            );
        }
    }
    assert!(kernel_fns > 10, "kernel purity sweep looks truncated: {kernel_fns} fns");
    assert!(
        budgeted_fns > 10,
        "hot-path budget sweep looks truncated: {budgeted_fns} fns"
    );
}
