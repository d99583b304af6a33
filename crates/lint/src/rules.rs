//! The determinism-invariant rules.
//!
//! Every rule is a pure function over one file's token stream (see
//! [`FileContext`]); none of them parse Rust properly, and none of them
//! need to — each targets a concrete token-level pattern that PR reviews
//! have already had to catch by hand. The rules err on the side of
//! flagging: intentional uses are documented in place with
//! `// lrgp-lint: allow(<rule>, reason = "...")`.

use crate::engine::{FileContext, FileKind, Finding};
use crate::lexer::TokenKind;
use crate::semantic;

/// One registered rule.
pub struct Rule {
    /// Stable kebab-case id, used in diagnostics and `allow()` directives.
    pub id: &'static str,
    /// One-line description of the pattern it flags.
    pub summary: &'static str,
    /// The engine invariant the rule protects (shown by `--list-rules`
    /// and quoted in DESIGN.md).
    pub invariant: &'static str,
    /// Long-form rationale, example finding, and remediation — printed by
    /// `--explain <rule>`.
    pub explain: &'static str,
    /// The checker.
    pub check: fn(&FileContext) -> Vec<Finding>,
}

/// All rules, in the order they run.
pub const RULES: &[Rule] = &[
    Rule {
        id: "float-total-order",
        summary: "`partial_cmp` used as a float comparator — use `f64::total_cmp`",
        invariant: "sorted orders (admission BC order, report orderings, threshold \
                    lists) must be total and input-permutation-stable, or the three \
                    engines stop being bit-identical",
        explain: "`partial_cmp` returns None for NaN, so every caller must invent a \
                  fallback — and `unwrap_or(Equal)` fallbacks are not a total order: \
                  the result depends on which operand carried the NaN, so the same \
                  slice sorts differently under different input permutations. The \
                  admission comparator bug fixed in PR 2 was exactly this shape.\n\
                  Example: v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal));\n\
                  Fix: v.sort_by(|a, b| a.total_cmp(b)); add an explicit id \
                  tiebreaker if equal keys must order stably.",
        check: float_total_order,
    },
    Rule {
        id: "float-eq",
        summary: "`==`/`!=` against a non-zero float constant",
        invariant: "engine equivalence is defined via `f64::to_bits`; value-level \
                    float equality silently diverges under rounding-mode or \
                    evaluation-order changes (exact-zero sentinel checks are exempt)",
        explain: "Two engines that are mathematically equivalent still differ in \
                  f64 low bits when evaluation order differs, so `x == 0.25` can \
                  hold in the sequential engine and fail in the sharded one. The \
                  repo defines equivalence via `f64::to_bits`, and value-level \
                  comparison against non-zero constants silently weakens that. \
                  Exact zero is exempt because the engines use 0.0 as a sentinel \
                  that is only ever assigned, never computed.\n\
                  Example: if price == 1.5 { .. }\n\
                  Fix: compare to_bits values, use an explicit tolerance, or \
                  restructure the check around an assigned sentinel.",
        check: float_eq,
    },
    Rule {
        id: "nondeterministic-source",
        summary: "wall clock, system RNG, or process environment in a numeric path",
        invariant: "crates/{core,model,num} compute the same bits for the same \
                    problem on every run; time, ambient randomness, and env vars \
                    must be injected by callers, never read in the numeric kernel",
        explain: "The differential harness re-runs the same problem through three \
                  engines and asserts bit-identical output; any read of the wall \
                  clock, ambient RNG, or process environment inside \
                  crates/{core,model,num} makes the output depend on when and \
                  where the solve ran instead of on the problem.\n\
                  Example: let seed = Instant::now().elapsed().as_nanos();\n\
                  Fix: take time, seeds, and configuration as explicit arguments \
                  from the caller (the CLI/bench harnesses are allowed to read \
                  them).",
        check: nondeterministic_source,
    },
    Rule {
        id: "unordered-float-iteration",
        summary: "float accumulation while iterating a HashMap/HashSet",
        invariant: "std hash iteration order is randomly seeded per process, and \
                    float addition is non-associative: accumulating in hash order \
                    changes low bits run-to-run",
        explain: "Float addition is non-associative: (a + b) + c and a + (b + c) \
                  differ in low bits. Std HashMap/HashSet iteration order is \
                  randomly seeded per process, so a sum accumulated while \
                  iterating one changes across runs even for identical input.\n\
                  Example: for (_k, v) in rates { total += v; }\n\
                  Fix: iterate a sorted key snapshot, or store the data in \
                  BTreeMap/BTreeSet so the traversal order is defined by keys.",
        check: unordered_float_iteration,
    },
    Rule {
        id: "library-unwrap",
        summary: "`unwrap`/`expect`/`panic!` in non-test library code",
        invariant: "library crates are driven by long-running engines and the \
                    distributed protocol; a panic in a worker poisons a whole \
                    solve instead of surfacing a recoverable error",
        explain: "Library crates run inside long-lived engines and the worker \
                  pool; a panic in one worker poisons shared mutexes and takes \
                  down a whole solve that could have reported a recoverable \
                  error. Harness crates (cli, bench) are exempt — panicking on \
                  bad input is fine at the top level.\n\
                  Example: let node = table.get(&id).unwrap();\n\
                  Fix: return Result/Option to the caller; if infallibility is \
                  provable, suppress with a reason that states the proof.",
        check: library_unwrap,
    },
    Rule {
        id: "hash-order-iteration",
        summary: "iteration over HashMap/HashSet whose result escapes to state or output",
        invariant: "std hash iteration order is randomly seeded per process; any \
                    escaping iteration (loops that write outer state, unterminated \
                    iterator chains, serialized/compared hash fields) makes engine \
                    output depend on the seed instead of the problem",
        explain: "This is the escape-analysis generalization of \
                  unordered-float-iteration: any hash-container traversal whose \
                  result leaves the loop (writes outer state, grows an outer \
                  collection, returns, or flows into serialization/comparison \
                  via a derived trait) publishes seed-dependent order. The rule \
                  resolves hash-typed fields and fn returns through the \
                  workspace symbol table, so the container can be declared in \
                  another file.\n\
                  Example: for id in dirty_set { order.push(id); }\n\
                  Fix: use BTreeMap/BTreeSet, or collect-and-sort before the \
                  result escapes (a later `.sort*()` on the snapshot is \
                  recognized and exempted).",
        check: semantic::hash_order_iteration,
    },
    Rule {
        id: "shared-mut-across-threads",
        summary: "captured `&mut`, Cell/RefCell, or `static mut` crossing a spawn boundary",
        invariant: "the sharded engine is deterministic only because workers own \
                    disjoint id-ordered chunks; mutable state shared across a spawn \
                    reintroduces scheduler-dependent results (or UB)",
        explain: "The sharded engine is bit-identical to the sequential one only \
                  because each worker owns a disjoint, id-ordered chunk and \
                  results are merged deterministically after join. A `&mut` \
                  capture, a Cell/RefCell crossing the spawn, or a `static mut` \
                  touched in a worker reintroduces an order the scheduler \
                  chooses.\n\
                  Example: spawn(|| { totals[shard] += local; })\n\
                  Fix: move owned chunks into each worker and return partial \
                  results through the JoinHandle; merge in id order.",
        check: semantic::shared_mut_across_threads,
    },
    Rule {
        id: "lossy-float-cast",
        summary: "`as f32`/`as usize`/... applied to an f64-carrying expression",
        invariant: "prices and rates are f64 end-to-end; a silent narrowing cast \
                    rounds differently than the sequential reference path and the \
                    engines stop being bit-identical",
        explain: "Prices, rates, and utilities are f64 end-to-end; `as f32` or \
                  `as usize` on an f64-carrying expression rounds silently, and \
                  the rounding happens at different intermediate values in the \
                  sequential and sharded paths. The rule walks the cast operand \
                  for positive f64 evidence (declared types, field types, fn \
                  returns), so integer-only casts stay clean.\n\
                  Example: let bucket = price as usize;\n\
                  Fix: keep the value in f64, or make the rounding explicit — \
                  `price.floor()` plus a bounds check — and document why it is \
                  safe there.",
        check: semantic::lossy_float_cast,
    },
    Rule {
        id: "missing-must-use",
        summary: "Result-returning public API without `#[must_use = \"..\"]`",
        invariant: "library errors surface as Result; an ignorable Result lets a \
                    failed step pass silently and later iterations run on stale \
                    state",
        explain: "Engine steps return Result so a failed step can halt the \
                  iteration; without #[must_use] a caller can drop the Result \
                  and keep iterating on stale state, which the differential \
                  harness then reports as a bit mismatch far from the cause.\n\
                  Example: pub fn step(&mut self) -> Result<Delta, Error> \
                  without an attribute.\n\
                  Fix: add `#[must_use = \"..\"]` naming the consequence; \
                  --fix inserts the attribute mechanically.",
        check: semantic::missing_must_use,
    },
    Rule {
        id: "kernel-impure",
        summary: "effectful code reachable from a `kernel::*` function",
        invariant: "kernels are pure per-element math: the executor's \
                    sequential, pooled and incremental schedules call them in \
                    different orders and counts, so any effect (IO, locks, \
                    clocks, RNG, spawns, static muts) reachable from one \
                    diverges the schedules or races",
        explain: "The layer-3 effect fixpoint computes, for every fn in the \
                  workspace, which effects it can reach through any chain of \
                  calls. A fn declared under crates/core/src/kernel/ must reach \
                  none of {io, spawn, lock, static-mut, time, rng} — reading \
                  `static` tables and taking `&mut` scratch are part of the \
                  kernel contract and stay allowed. The finding names the \
                  effect and its origin (the token or the callee that \
                  introduced it).\n\
                  Example: a kernel helper that calls a logging fn which does \
                  eprintln! three calls down.\n\
                  Fix: hoist the effect into the executor (exec.rs/pool.rs) \
                  and pass its result into the kernel as a value.",
        check: semantic::kernel_impure,
    },
    Rule {
        id: "unmarked-dirty-write",
        summary: "cached StepState/NodeTable field written by a fn that never \
                  reaches the dirty-set API",
        invariant: "incremental mode recomputes exactly the marked nodes; a \
                    cached-state write in a fn with no path to \
                    `mark`/`note_*` silently diverges incremental solves from \
                    full solves",
        explain: "The incremental engine's bitwise-equality guarantee rests on \
                  every mutation of cached state being paired with an exact \
                  dirty-set mark. This rule lists the cached fields of \
                  StepState/NodeTable from the symbol table (minus the dirty \
                  bookkeeping itself) and flags assignments to them inside \
                  functions whose interprocedural effect set never acquires \
                  the dirty-api effect — i.e. no call chain reaches \
                  `mark`/`note_*` or touches a dirty/changed list.\n\
                  Example: self.rates[i] = r; in a setter with no mark call.\n\
                  Fix: call `mark`/the relevant `note_*` next to the write, or \
                  route the write through an existing marking helper. \
                  crates/core holds a zero-suppression policy for this rule.",
        check: semantic::unmarked_dirty_write,
    },
    Rule {
        id: "condvar-wait-no-predicate-loop",
        summary: "`Condvar::wait` not re-entered by a predicate-checking loop",
        invariant: "condvar wakeups are spurious and coalesced; a wait outside \
                    a predicate loop hangs on a lost wakeup or continues \
                    early, and the pool_stress watchdog can only catch that \
                    probabilistically",
        explain: "The CFG builder locates the innermost loop around each \
                  `.wait(guard)`/`.wait_timeout(guard, ..)` call. `while`/\
                  `while let`/`for` loops re-check their condition by \
                  construction; a bare `loop` passes only if it can exit \
                  through a conditional `break`/`return`. A wait in no loop, \
                  or in a `loop` with no conditional exit, is the lost-wakeup \
                  shape. Calls whose first argument is not a bare guard \
                  binding (e.g. `Child::wait()`) are ignored.\n\
                  Example: let g = cv.wait(g)?; outside any loop.\n\
                  Fix: while !predicate(&g) { g = cv.wait(g)?; } or use \
                  `wait_while`, which owns the predicate.",
        check: semantic::condvar_wait_no_predicate_loop,
    },
    Rule {
        id: "lock-held-across-park",
        summary: "a mutex/rwlock guard alive across park/recv/join/sleep",
        invariant: "the pool's handoff latency (and absence of deadlock) \
                    depends on guards being dropped before any blocking call; \
                    a guard held across one stalls every worker on that lock",
        explain: "A `let` binding whose initializer acquires a guard \
                  (`lock()`, `lock_unpoisoned()`, `try_lock()`, zero-arg \
                  `.read()`/`.write()`) keeps it alive to the end of its \
                  enclosing block. Blocking there — `park()`, `.recv()`, \
                  `.join()`, `sleep(..)` — holds the lock for the whole wait: \
                  every contender stalls, and if the joined thread needs the \
                  lock, the join deadlocks. `Condvar::wait` is exempt because \
                  it releases the guard it is given.\n\
                  Example: let g = state.lock_unpoisoned(); handle.join();\n\
                  Fix: drop(g) before blocking, or scope the guard in its own \
                  `{ .. }` block as pool.rs's Drop impl does.",
        check: semantic::lock_held_across_park,
    },
    Rule {
        id: "vector-escape",
        summary: "lane-batched f64 accumulation in crates/core",
        invariant: "every reduction in crates/core folds its terms sequentially \
                    in a fixed element order, so every execution plan produces \
                    the same bits as the sequential reference",
        explain: "Splitting a reduction into lanes and recombining changes the \
                  association order of f64 adds, which changes low bits. The \
                  engine promises that every plan is bit-identical to the \
                  sequential full recompute, and the differential tests pin \
                  that with `to_bits` equality, so no core module may \
                  reassociate a sum. This rule flags the two shapes in \
                  crates/core library code: a `chunks_exact`/`array_chunks` \
                  call feeding an accumulation, and a loop feeding two or more \
                  float accumulators that are later recombined.\n\
                  Example: let mut s0 = 0.0; let mut s1 = 0.0; for c in \
                  xs.chunks_exact(2) { s0 += c[0]; s1 += c[1]; } s0 + s1\n\
                  Fix: accumulate sequentially into one accumulator, in \
                  element order.",
        check: semantic::vector_escape,
    },
    Rule {
        id: "lock-order-inversion",
        summary: "two code paths acquire the same locks in opposite orders",
        invariant: "the pool's worker protocol holds at most one guard at a time \
                    per nesting chain, in one global order; a cycle in the \
                    whole-workspace lock-order graph is a deadlock two threads \
                    can reach by interleaving",
        explain: "The layer-4 lock-order graph records an edge `a → b` whenever \
                  a guard on `a` is still live (its `let` scope has not closed \
                  and no `drop` ran) while `b` is acquired — directly, or by \
                  any callee the acquisition fixpoint can resolve. A cycle \
                  means two threads can each hold one lock of the cycle and \
                  wait forever on the other: the classic inversion deadlock, \
                  which no test reliably reproduces because it needs the \
                  losing interleaving. The finding names every edge of the \
                  cycle with its site and enclosing fn, and is anchored at the \
                  canonical first edge.\n\
                  Example: fn a() { let g = self.gate.lock(); self.slots.lock(); } \
                  fn b() { let s = self.slots.lock(); self.gate.lock(); }\n\
                  Fix: pick one global acquisition order (document it where the \
                  locks are declared) and restructure the later-acquiring path, \
                  or merge the two locks under a single mutex.",
        check: crate::lockgraph::lock_order_inversion,
    },
    Rule {
        id: "hot-path-alloc",
        summary: "a declared hot-path root fn reaches a heap allocation",
        invariant: "the steady-state step (kernel::*, the exec.rs dirty-set fns, \
                    the pool.rs worker protocol — the roots in \
                    crates/lint/hot_paths.txt) runs thousands of times per \
                    convergence and must reuse caller-owned capacity, never \
                    touch the allocator",
        explain: "An allocation on the per-delta path is a latency cliff: it \
                  serializes workers on the allocator, fragments under \
                  sustained traffic, and turns the amortized O(1) step into \
                  occasional O(n) growth pauses. The workspace idiom is \
                  caller-owned scratch — `*_into` kernels and reused buffers \
                  sized at setup — so the `ALLOC` effect reaching a root fn \
                  through the interprocedural fixpoint means a regression \
                  against that contract. The finding carries the call-chain \
                  witness from the root to the allocating fn and the token \
                  that introduced the effect.\n\
                  Example: fn solve_rates(&mut self) { let out: Vec<f64> = \
                  self.dirty.iter().map(solve).collect(); }\n\
                  Fix: move the allocation to construction (`with_capacity` \
                  once, in `new`), pass `&mut` scratch in, or — for a genuine \
                  setup-time wrapper — exempt the fn in \
                  crates/lint/hot_paths.txt with a reason.",
        check: crate::hotpath::hot_path_alloc,
    },
    Rule {
        id: "hot-path-panic",
        summary: "a declared hot-path root fn reaches a panic site",
        invariant: "a panic mid-delta aborts a pooled worker and poisons its \
                    locks; the hot-path roots in crates/lint/hot_paths.txt \
                    must stay panic-free in release builds, with validation \
                    at the boundary",
        explain: "The effect fixpoint marks `PANIC` for `unwrap`/`expect`, the \
                  panic macro family, non-test `assert!`, range slicing \
                  (`x[lo..hi]`), arithmetic indexing (`x[i + 1]`), and \
                  integer division by a variable — everything that can abort \
                  in release. (`debug_assert!` is exempt: it compiles out of \
                  release builds, so it is the sanctioned way to state hot- \
                  path invariants.) A panic reaching a hot-path root means \
                  one malformed delta can kill a pooled worker mid-step and \
                  poison every lock it held. The finding carries the \
                  call-chain witness from the root to the panicking token.\n\
                  Example: fn run_shard(&self, lo: usize, hi: usize) { for &f \
                  in &self.dirty[lo..hi] { ... } }\n\
                  Fix: replace slicing with `iter().skip(lo).take(n)`, \
                  indexing arithmetic with `get`, `assert!` with \
                  `debug_assert!` once the boundary validates, or exempt a \
                  genuinely cold fn in crates/lint/hot_paths.txt with a \
                  reason.",
        check: crate::hotpath::hot_path_panic,
    },
];

/// True if `id` names a registered rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// For a `partial_cmp` ident at token `idx`, returns the token span
/// `(dot, close)` of a directly chained `.unwrap()` / `.expect(..)` call —
/// the part `--fix` deletes when rewriting to `total_cmp`.
pub(crate) fn partial_cmp_unwrap_span(
    toks: &[crate::lexer::Token],
    match_of: &[Option<usize>],
    idx: usize,
) -> Option<(usize, usize)> {
    if !toks.get(idx + 1)?.is_punct("(") {
        return None;
    }
    let call_close = match_of.get(idx + 1).copied().flatten()?;
    let dot = call_close + 1;
    if !toks.get(dot)?.is_punct(".") {
        return None;
    }
    let method = toks.get(dot + 1)?;
    if !(method.is_ident("unwrap") || method.is_ident("expect")) {
        return None;
    }
    if !toks.get(dot + 2)?.is_punct("(") {
        return None;
    }
    let close = match_of.get(dot + 2).copied().flatten()?;
    Some((dot, close))
}

fn float_total_order(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") || ctx.in_test(i) {
            continue;
        }
        // `fn partial_cmp(...)` — a PartialOrd impl defining the method,
        // not a call site choosing a comparator.
        if i > 0 && ctx.tokens[i - 1].is_ident("fn") {
            continue;
        }
        let mut f = ctx.finding(
            "float-total-order",
            i,
            "`partial_cmp` is not a total order on floats: NaN yields `None`, and \
             `unwrap_or(Equal)` fallbacks make the result depend on operand order; \
             use `f64::total_cmp` (with an explicit tiebreaker if needed)"
                .to_string(),
        );
        // `a.partial_cmp(b).unwrap()` / `.expect(..)` is mechanically
        // rewritable to `a.total_cmp(b)`; other shapes need a human.
        f.fixable =
            partial_cmp_unwrap_span(ctx.tokens, &ctx.parsed.match_of, i).is_some();
        out.push(f);
    }
    out
}

/// Parses a float-literal spelling and reports whether it is exactly zero.
fn is_zero_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned.strip_suffix("f64").or_else(|| cleaned.strip_suffix("f32")).map_or(
        cleaned.as_str(),
        |s| s,
    );
    cleaned.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

fn float_eq(ctx: &FileContext) -> Vec<Finding> {
    let toks = ctx.tokens;
    let non_finite = |name: &str| matches!(name, "NAN" | "INFINITY" | "NEG_INFINITY");
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test(i) {
            continue;
        }
        let right_float = toks.get(i + 1).is_some_and(|r| {
            (r.kind == TokenKind::Float && !is_zero_literal(&r.text))
                || (matches!(r.text.as_str(), "f32" | "f64")
                    && toks.get(i + 2).is_some_and(|c| c.is_punct("::"))
                    && toks.get(i + 3).is_some_and(|n| non_finite(&n.text)))
        });
        let left_float = i >= 1
            && ((toks[i - 1].kind == TokenKind::Float && !is_zero_literal(&toks[i - 1].text))
                || (non_finite(&toks[i - 1].text)
                    && i >= 2
                    && toks[i - 2].is_punct("::")));
        if right_float || left_float {
            out.push(ctx.finding(
                "float-eq",
                i,
                format!(
                    "`{}` against a float constant: computed floats differ in low bits \
                     across engines and platforms; compare `f64::to_bits` values, use an \
                     explicit tolerance, or restructure around an exact-zero sentinel",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Crates whose numeric paths must be bit-reproducible.
const NUMERIC_CRATES: &[&str] = &["core", "model", "num"];

fn nondeterministic_source(ctx: &FileContext) -> Vec<Finding> {
    if !ctx.krate.is_some_and(|k| NUMERIC_CRATES.contains(&k)) {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" => {
                toks.get(i + 1).is_some_and(|a| a.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|b| b.is_ident("now"))
            }
            "SystemTime" | "thread_rng" => true,
            "std" => {
                toks.get(i + 1).is_some_and(|a| a.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|b| b.is_ident("env"))
            }
            _ => false,
        };
        if flagged {
            out.push(ctx.finding(
                "nondeterministic-source",
                i,
                format!(
                    "`{}` in a numeric path: crates/{{core,model,num}} must produce \
                     identical bits for identical problems; take time/randomness/config \
                     as explicit inputs from the caller",
                    t.text
                ),
            ));
        }
    }
    out
}

fn unordered_float_iteration(ctx: &FileContext) -> Vec<Finding> {
    let toks = ctx.tokens;
    // Pass 1: names bound or typed as HashMap/HashSet in this file
    // (`let m = HashMap::new()`, `field: HashMap<..>`, `x: &mut HashSet<..>`).
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let mut j = i;
        while j > 0 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        if j >= 2
            && (toks[j - 1].is_punct(":") || toks[j - 1].is_punct("="))
            && toks[j - 2].kind == TokenKind::Ident
        {
            hash_names.push(&toks[j - 2].text);
        }
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("for") || ctx.in_test(i) {
            continue;
        }
        // Find `in` at depth 0 before the loop body; `impl T for U` has none.
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut in_idx = None;
        while k < toks.len() {
            let tk = &toks[k];
            if tk.is_punct("(") || tk.is_punct("[") {
                depth += 1;
            } else if tk.is_punct(")") || tk.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && tk.is_punct("{") {
                break;
            } else if depth == 0 && tk.is_ident("in") {
                in_idx = Some(k);
                break;
            }
            k += 1;
        }
        let Some(in_idx) = in_idx else { continue };
        // Header: `in` → `{` at depth 0.
        let mut depth = 0i32;
        let mut k = in_idx + 1;
        let mut iterates_hash = false;
        while k < toks.len() {
            let tk = &toks[k];
            if tk.is_punct("(") || tk.is_punct("[") {
                depth += 1;
            } else if tk.is_punct(")") || tk.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && tk.is_punct("{") {
                break;
            } else if tk.kind == TokenKind::Ident
                && (tk.text == "HashMap"
                    || tk.text == "HashSet"
                    || hash_names.iter().any(|n| *n == tk.text))
            {
                iterates_hash = true;
            }
            k += 1;
        }
        if !iterates_hash || k >= toks.len() {
            continue;
        }
        // Body: matched brace region starting at k.
        let mut braces = 1i32;
        let mut m = k + 1;
        let mut accumulates = false;
        while m < toks.len() && braces > 0 {
            let tm = &toks[m];
            if tm.is_punct("{") {
                braces += 1;
            } else if tm.is_punct("}") {
                braces -= 1;
            } else if (matches!(tm.text.as_str(), "+=" | "-=" | "*=" | "/=")
                && tm.kind == TokenKind::Punct)
                || ((tm.is_ident("sum") || tm.is_ident("product"))
                    && m >= 1
                    && toks[m - 1].is_punct("."))
            {
                accumulates = true;
            }
            m += 1;
        }
        if accumulates {
            out.push(ctx.finding(
                "unordered-float-iteration",
                i,
                "accumulating while iterating a HashMap/HashSet: std hash order is \
                 randomly seeded per process and float addition is non-associative, so \
                 results differ run-to-run; iterate a sorted key list (or an ordered \
                 container) instead"
                    .to_string(),
            ));
        }
    }
    out
}

fn library_unwrap(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "unwrap" | "expect" => {
                i >= 1
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            }
            "panic" => toks.get(i + 1).is_some_and(|n| n.is_punct("!")),
            _ => false,
        };
        if flagged {
            out.push(ctx.finding(
                "library-unwrap",
                i,
                format!(
                    "`{}` in library code: engines and the distributed protocol run \
                     long-lived solves, and a panic inside one poisons the whole run; \
                     return Result/Option, or prove infallibility and suppress with a \
                     reason",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::analyze_source;

    fn findings(path: &str, src: &str) -> Vec<(String, u32, u32)> {
        analyze_source(path, src)
            .findings
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line, f.col))
            .collect()
    }

    const LIB: &str = "crates/model/src/x.rs";

    #[test]
    fn partial_cmp_flagged_but_not_its_definition() {
        let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n}\nfn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal)); }\n";
        // `unwrap_or` is not `unwrap`, so only float-total-order fires.
        let got = findings(LIB, src);
        assert_eq!(got, vec![("float-total-order".to_string(), 4, 42)]);
    }

    #[test]
    fn float_eq_flags_nonzero_and_exempts_zero() {
        assert_eq!(findings(LIB, "fn f(x: f64) -> bool { x == 0.25 }"), vec![(
            "float-eq".to_string(),
            1,
            26
        )]);
        assert!(findings(LIB, "fn f(x: f64) -> bool { x == 0.0 }").is_empty());
        assert!(findings(LIB, "fn f(x: f64) -> bool { x != 0.0 }").is_empty());
        assert!(findings(LIB, "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }")
            .is_empty());
        assert_eq!(findings(LIB, "fn f(x: f64) -> bool { x == f64::NAN }").len(), 1);
        assert_eq!(findings(LIB, "fn f(x: f64) -> bool { 1.5 != x }").len(), 1);
    }

    #[test]
    fn nondet_sources_only_in_numeric_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(findings("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(findings("crates/num/src/x.rs", src).len(), 1);
        assert!(findings("crates/anneal/src/x.rs", src).is_empty());
        assert_eq!(findings("crates/model/src/x.rs", "fn f() { thread_rng(); }").len(), 1);
        assert_eq!(
            findings("crates/model/src/x.rs", "fn f() { std::env::var(\"X\"); }").len(),
            1
        );
        // `Instant` as a plain type mention (no `::now`) is fine.
        assert!(findings("crates/core/src/x.rs", "fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn unordered_iteration_needs_hash_and_accumulation() {
        let bad = "fn f(m: &HashMap<u32, f64>) -> f64 {\n    let mut s = 0.0;\n    for (_k, v) in m { s += v; }\n    s\n}\n";
        // The semantic hash-order-iteration rule co-fires on the same
        // loop: the accumulator escapes the body.
        assert_eq!(
            findings(LIB, bad),
            vec![
                ("hash-order-iteration".to_string(), 3, 5),
                ("unordered-float-iteration".to_string(), 3, 5)
            ]
        );
        // Same body over a Vec: fine.
        let good = "fn f(m: &[f64]) -> f64 {\n    let mut s = 0.0;\n    for v in m { s += v; }\n    s\n}\n";
        assert!(findings(LIB, good).is_empty());
        // Hash iteration without accumulation: fine.
        let good = "fn f(m: &HashMap<u32, f64>) {\n    for (_k, v) in m { println!(\"{v}\"); }\n}\n";
        assert!(findings(LIB, good).is_empty());
        // `.values().sum()` chain is caught too (both rules fire: the
        // accumulation pattern and the escaping hash iteration).
        let bad = "fn f() -> f64 {\n    let m: HashMap<u32, f64> = HashMap::new();\n    let mut t = 0.0;\n    for v in m.values() { t = t + v.sum(); }\n    t\n}\n";
        assert_eq!(findings(LIB, bad).len(), 2);
    }

    #[test]
    fn library_unwrap_scoping() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(findings(LIB, src).len(), 1);
        assert!(findings("crates/cli/src/run.rs", src).is_empty());
        assert!(findings("crates/bench/src/bin/fig1.rs", src).is_empty());
        assert!(findings("crates/core/tests/t.rs", src).is_empty());
        assert_eq!(findings(LIB, "fn f() { panic!(\"boom\"); }").len(), 1);
        assert_eq!(findings(LIB, "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }").len(), 1);
        // unwrap_or and resume_unwind are not escape hatches.
        assert!(findings(LIB, "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
        assert!(
            findings(LIB, "fn f(p: Payload) { std::panic::resume_unwind(p) }").is_empty()
        );
    }
}
