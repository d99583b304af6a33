//! Layer-4 hot-path budget rules: the declared root set
//! (`crates/lint/hot_paths.txt` — the kernel modules, the `exec.rs` step
//! fns, the `pool.rs` worker protocol) must reach neither `ALLOC` nor
//! `PANIC` under the interprocedural effect fixpoint. These are the fns
//! every engine step executes, thousands of times per convergence; a new
//! allocation or panic branch on them is a latency cliff or an abort
//! waiting to happen, and it fails `hot-path-alloc` /
//! `hot-path-panic` with the full call-chain witness in the message.

use crate::dataflow::EffectSet;
use crate::engine::{FileContext, FileKind, Finding};
use crate::parser::ItemKind;

/// The parsed root-set policy from `crates/lint/hot_paths.txt`.
#[derive(Debug, Default)]
pub struct HotPaths {
    /// `(path prefix-or-file, fn name or "*")` root declarations.
    roots: Vec<(String, String)>,
    /// `(path, fn name)` exemptions carved out of the roots.
    exempt: Vec<(String, String)>,
}

impl HotPaths {
    /// Parses the committed policy file (compiled in, so the binary and
    /// the repo can't disagree).
    pub fn builtin() -> HotPaths {
        Self::parse(include_str!("../hot_paths.txt"))
    }

    /// Parses the `hot_paths.txt` format: `<path> <fn-or-*>` per root
    /// line, `! <path> <fn>` per exemption (trailing words are the
    /// human-readable reason), `#` comments.
    pub fn parse(text: &str) -> HotPaths {
        let mut hp = HotPaths::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("!") => {
                    if let (Some(path), Some(name)) = (words.next(), words.next()) {
                        hp.exempt.push((path.to_string(), name.to_string()));
                    }
                }
                Some(path) => {
                    if let Some(name) = words.next() {
                        hp.roots.push((path.to_string(), name.to_string()));
                    }
                }
                None => {}
            }
        }
        hp
    }

    fn path_matches(pattern: &str, file: &str) -> bool {
        // Labels may be absolute (`/root/repo/crates/...`) when the lint
        // library is handed absolute roots; anchor the comparison at the
        // workspace-relative `crates/` segment so the policy file can stay
        // in repo-relative form.
        let file = match file.find("crates/") {
            Some(i) => &file[i..],
            None => file,
        };
        if pattern.ends_with('/') {
            file.starts_with(pattern)
        } else {
            file == pattern
        }
    }

    /// True if `(file, name)` is declared a hot-path root and not exempt.
    pub fn is_root(&self, file: &str, name: &str) -> bool {
        !self.is_exempt(file, name)
            && self
                .roots
                .iter()
                .any(|(p, n)| Self::path_matches(p, file) && (n == "*" || n == name))
    }

    /// True if `(file, name)` carries an explicit `!` exemption.
    pub fn is_exempt(&self, file: &str, name: &str) -> bool {
        self.exempt.iter().any(|(p, n)| Self::path_matches(p, file) && n == name)
    }
}

/// `hot-path-alloc`: a root fn reaches an allocation.
pub fn hot_path_alloc(ctx: &FileContext) -> Vec<Finding> {
    budget(
        ctx,
        EffectSet::ALLOC,
        "hot-path-alloc",
        "allocates",
        "hot paths must reuse caller-owned capacity (the *_into / scratch-buffer \
         idiom); move the allocation to setup or exempt the fn in \
         crates/lint/hot_paths.txt with a reason",
    )
}

/// `hot-path-panic`: a root fn reaches a panic site.
pub fn hot_path_panic(ctx: &FileContext) -> Vec<Finding> {
    budget(
        ctx,
        EffectSet::PANIC,
        "hot-path-panic",
        "can panic",
        "a panic on the steady-state step aborts the worker mid-delta; replace \
         with a total operation (`get`/`min`/iterator), validate at the \
         boundary, or exempt the fn in crates/lint/hot_paths.txt with a reason",
    )
}

fn budget(
    ctx: &FileContext,
    bit: EffectSet,
    rule: &'static str,
    verb: &str,
    remedy: &str,
) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let hot = HotPaths::builtin();
    let mut out = Vec::new();
    for item in &ctx.parsed.items {
        if item.kind != ItemKind::Fn || ctx.in_test(item.kw) {
            continue;
        }
        if !hot.is_root(ctx.path, &item.name) {
            continue;
        }
        let Some(i) = ctx.flow.graph.fn_at(ctx.path, item.kw) else { continue };
        if !ctx.flow.table.effects[i].contains(bit) {
            continue;
        }
        let chain = ctx.flow.table.witness_chain(i, bit);
        let names: Vec<String> = chain
            .iter()
            .map(|&f| format!("`{}`", ctx.flow.graph.fns[f].name))
            .collect();
        let origin = chain
            .last()
            .and_then(|&f| ctx.flow.table.origins.get(f))
            .and_then(|m| m.get(&bit.0))
            .cloned()
            .unwrap_or_else(|| "?".to_string());
        out.push(ctx.finding(
            rule,
            item.kw,
            format!(
                "hot-path fn `{}` {verb}: {} (origin: {origin}); {remedy}",
                item.name,
                names.join(" → "),
            ),
        ));
    }
    out
}
