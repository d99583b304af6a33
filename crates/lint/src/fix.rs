//! Machine-applicable rewrites (`lrgp-lint --fix`).
//!
//! Only rewrites whose correctness is decidable from the finding itself
//! are applied — everything else stays a diagnostic for a human:
//!
//! * `a.partial_cmp(b).unwrap()` / `.expect(..)` → `a.total_cmp(b)` — the
//!   exact rewrite PR 2 made by hand in the admission comparator.
//! * `HashMap`/`HashSet` → `BTreeMap`/`BTreeSet`, whole-file, when a
//!   `hash-order-iteration` finding fired there and the file does not
//!   already use BTree containers (which an ident swap would collide
//!   with). Key types must be `Ord`; if they are not, the compiler says
//!   so immediately rather than the engine diverging silently.
//! * Inserting `#[must_use = "..."]` above flagged `pub fn .. -> Result`.
//!
//! Fixes are **idempotent**: applying them removes the pattern each one
//! keys on, so a second pass plans zero edits. The self-check suite and CI
//! both assert this, and the differential harness re-verifies that fixed
//! code still produces bit-identical engine results.

use crate::engine::analyze_files;
use crate::lexer::{lex, TokenKind};
use crate::parser::match_delims;
use crate::rules::partial_cmp_unwrap_span;
use crate::{collect_rust_files, label_of};
use std::io;
use std::path::PathBuf;

/// What applying fixes did (or would do).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FixOutcome {
    /// Files whose content changed.
    pub files_changed: usize,
    /// Individual edits applied across all files.
    pub edits_applied: usize,
}

/// One textual edit in character offsets (`start == end` is an insert).
struct Edit {
    start: usize,
    end: usize,
    replacement: String,
}

/// Reason string inserted by the `missing-must-use` fix.
const MUST_USE_ATTR: &str =
    "#[must_use = \"this Result reports a failure the caller must handle\"]";

/// Plans fixes for a set of `(label, source)` files. Returns
/// `(label, fixed source, edit count)` for every file that would change.
pub fn plan_fixes(files: &[(String, String)]) -> Vec<(String, String, usize)> {
    let analyses = analyze_files(files);
    let mut out = Vec::new();
    for ((label, src), analysis) in files.iter().zip(&analyses) {
        let fixable: Vec<&crate::engine::Finding> =
            analysis.findings.iter().filter(|f| f.fixable).collect();
        if fixable.is_empty() {
            continue;
        }
        let lexed = lex(src);
        let match_of = match_delims(&lexed.tokens);
        let chars: Vec<char> = src.chars().collect();
        let mut edits: Vec<Edit> = Vec::new();
        let token_at = |line: u32, col: u32| -> Option<usize> {
            lexed.tokens.iter().position(|t| t.line == line && t.col == col)
        };
        let mut swap_hash_idents = false;
        for f in &fixable {
            match f.rule {
                "float-total-order" => {
                    let Some(idx) = token_at(f.line, f.col) else { continue };
                    let tok = &lexed.tokens[idx];
                    let Some((dot, close)) =
                        partial_cmp_unwrap_span(&lexed.tokens, &match_of, idx)
                    else {
                        continue;
                    };
                    edits.push(Edit {
                        start: tok.offset,
                        end: tok.offset + tok.len,
                        replacement: "total_cmp".to_string(),
                    });
                    let del_start = lexed.tokens[dot].offset;
                    let del_end = lexed.tokens[close].offset + lexed.tokens[close].len;
                    edits.push(Edit { start: del_start, end: del_end, replacement: String::new() });
                }
                "missing-must-use" => {
                    let Some(idx) = token_at(f.line, f.col) else { continue };
                    let tok = &lexed.tokens[idx];
                    let line_start = tok.offset.saturating_sub(tok.col as usize - 1);
                    let indent: String = chars[line_start..]
                        .iter()
                        .take_while(|c| **c == ' ' || **c == '\t')
                        .collect();
                    edits.push(Edit {
                        start: line_start,
                        end: line_start,
                        replacement: format!("{indent}{MUST_USE_ATTR}\n"),
                    });
                }
                "hash-order-iteration" => swap_hash_idents = true,
                _ => {}
            }
        }
        if swap_hash_idents {
            for t in &lexed.tokens {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let replacement = match t.text.as_str() {
                    "HashMap" => "BTreeMap",
                    "HashSet" => "BTreeSet",
                    _ => continue,
                };
                edits.push(Edit {
                    start: t.offset,
                    end: t.offset + t.len,
                    replacement: replacement.to_string(),
                });
            }
        }
        if let Some((fixed, applied)) = apply_edits(&chars, edits) {
            if fixed != *src {
                out.push((label.clone(), fixed, applied));
            }
        }
    }
    out
}

/// Applies non-overlapping edits to a char buffer; returns the new string
/// and how many edits were applied (overlapping or duplicate edits are
/// dropped deterministically, keeping the earliest-starting one).
fn apply_edits(chars: &[char], mut edits: Vec<Edit>) -> Option<(String, usize)> {
    if edits.is_empty() {
        return None;
    }
    edits.sort_by_key(|e| (e.start, e.end));
    let mut kept: Vec<Edit> = Vec::new();
    for e in edits {
        match kept.last() {
            Some(prev) if e.start < prev.end => continue,
            Some(prev) if e.start == prev.start && e.end == prev.end => continue,
            _ => kept.push(e),
        }
    }
    let applied = kept.len();
    let mut out = String::with_capacity(chars.len());
    let mut pos = 0usize;
    for e in &kept {
        if e.start > chars.len() || e.end > chars.len() || e.start < pos {
            continue;
        }
        out.extend(&chars[pos..e.start]);
        out.push_str(&e.replacement);
        pos = e.end;
    }
    out.extend(&chars[pos..]);
    Some((out, applied))
}

/// Applies machine-applicable fixes to every Rust file under the given
/// roots, writing changed files in place.
#[must_use = "the outcome reports how many files were rewritten"]
pub fn fix_paths(roots: &[PathBuf]) -> io::Result<FixOutcome> {
    let mut paths = Vec::new();
    let mut files = Vec::new();
    for root in roots {
        for file in collect_rust_files(root)? {
            let src = std::fs::read_to_string(&file)?;
            files.push((label_of(&file), src));
            paths.push(file);
        }
    }
    let mut outcome = FixOutcome::default();
    for (label, fixed, applied) in plan_fixes(&files) {
        let Some(pos) = files.iter().position(|(l, _)| *l == label) else { continue };
        std::fs::write(&paths[pos], fixed)?;
        outcome.files_changed += 1;
        outcome.edits_applied += applied;
    }
    Ok(outcome)
}

/// Exposed for tests: the spelling of tokens after lexing a fixed source,
/// to assert structural (not just textual) properties of rewrites.
#[cfg(test)]
fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_one(label: &str, src: &str) -> Option<String> {
        plan_fixes(&[(label.to_string(), src.to_string())])
            .pop()
            .map(|(_, fixed, _)| fixed)
    }

    #[test]
    fn total_cmp_rewrite_deletes_unwrap() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let fixed = plan_one("crates/model/src/x.rs", src).unwrap_or_default();
        assert!(fixed.contains("a.total_cmp(b));"), "{fixed}");
        assert!(!fixed.contains("partial_cmp"));
        assert!(!fixed.contains("unwrap"));
        // expect(..) with an argument is deleted wholesale too.
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"cmp\")); }\n";
        let fixed = plan_one("crates/model/src/x.rs", src).unwrap_or_default();
        assert!(fixed.contains("a.total_cmp(b));"), "{fixed}");
        // Bare partial_cmp without .unwrap() is NOT auto-fixed.
        let src = "fn f(a: f64, b: f64) -> Option<Ordering> { a.partial_cmp(&b) }\n";
        assert!(plan_one("crates/model/src/x.rs", src).is_none());
    }

    #[test]
    fn must_use_insert_matches_indentation() {
        let src = "impl X {\n    pub fn save(&self) -> io::Result<()> { go() }\n}\n";
        let fixed = plan_one("crates/model/src/x.rs", src).unwrap_or_default();
        let expected = format!("    {MUST_USE_ATTR}\n    pub fn save");
        assert!(fixed.contains(&expected), "{fixed}");
    }

    #[test]
    fn hash_swap_is_whole_file_and_guarded() {
        let src = "use std::collections::HashMap;\npub struct S { m: HashMap<u32, f64> }\nimpl S {\n    pub fn total(&self) -> f64 { self.m.values().fold(0.0, f64::max) }\n}\n";
        let fixed = plan_one("crates/overlay/src/x.rs", src).unwrap_or_default();
        assert!(fixed.contains("use std::collections::BTreeMap;"), "{fixed}");
        assert!(!idents(&fixed).iter().any(|i| i == "HashMap"));
        // A file already using BTreeMap is not auto-swapped (import
        // collision risk) — the finding stays, unfixed.
        let src2 = format!("use std::collections::BTreeMap;\n{src}");
        let label = "crates/overlay/src/y.rs".to_string();
        let plans = plan_fixes(&[(label, src2)]);
        assert!(plans.is_empty(), "guarded file must not be rewritten");
    }

    #[test]
    fn fixes_are_idempotent() {
        let src = "use std::collections::HashMap;\n\
            pub struct S { m: HashMap<u32, f64> }\n\
            impl S {\n\
                pub fn sum(&self) -> f64 { self.m.values().fold(0.0, |a, b| a + b) }\n\
                pub fn io(&self) -> io::Result<()> { go() }\n\
            }\n\
            fn srt(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let label = "crates/pubsub/src/x.rs";
        let first = plan_one(label, src).unwrap_or_default();
        assert_ne!(first, src);
        assert!(
            plan_one(label, &first).is_none(),
            "second pass must plan zero edits:\n{first}"
        );
    }

    #[test]
    fn overlapping_edits_keep_earliest() {
        let chars: Vec<char> = "abcdef".chars().collect();
        let edits = vec![
            Edit { start: 1, end: 3, replacement: "X".into() },
            Edit { start: 2, end: 4, replacement: "Y".into() },
            Edit { start: 4, end: 5, replacement: "Z".into() },
        ];
        let (out, n) = apply_edits(&chars, edits).unwrap_or_default();
        assert_eq!(out, "aXdZf");
        assert_eq!(n, 2);
    }
}
