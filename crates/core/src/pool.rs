//! The persistent worker pool behind [`Parallelism::Threads`].
//!
//! Before this module existed, every sharded phase spawned fresh
//! [`std::thread::scope`] workers and joined them — per step, per phase.
//! The tracked benchmarks showed that spawn/join cost dominating the kernel
//! work at every measured scale, making `Threads` a regression over
//! `Sequential`. The pool inverts the lifecycle: workers are spawned **once
//! per engine** (one fewer than the most contexts `Threads(n)` can use on
//! the engine's problem — the caller is always shard 0), park on a condvar
//! between steps, and receive work through a preallocated job slot. A steady-state step performs **no
//! thread spawning, no channel allocation, and no `O(problem)` copying**:
//! job inputs are *moved* into the slot (pointer swaps) and moved back out
//! after the phase.
//!
//! # Handoff protocol
//!
//! ```text
//! caller                                   worker w (of W)
//! ──────────────────────────────────────   ─────────────────────────────
//! job.write()  ← move inputs in
//! gate.lock(): epoch += 1,
//!   participants = shards − 1,
//!   remaining = participants
//! go.notify_all()            ──────────▶   go.wait() sees new epoch
//! job.read()   ← run shard 0 inline        job.read() ← run shard w + 1
//! (drop read guard)                        slot[w].lock() ← results
//! gate.lock():                             gate.lock(): remaining −= 1
//!   while remaining > 0:      ◀──────────  done.notify_all() when 0
//!     done.wait()
//! job.write()  ← move inputs back out
//! slot[w].lock() ← drain results, in shard order
//! ```
//!
//! The caller never holds the job's write lock while workers run, and
//! workers only read it; the per-worker result slots are uncontended by
//! construction (each worker touches only its own, and the caller drains
//! them only after `remaining == 0`). Workers that are not participants of
//! an epoch just record the epoch and park again, so a phase with fewer
//! shards than workers cannot lose a wakeup.
//!
//! # Panic containment
//!
//! Every shard — on workers *and* the caller's inline shard — runs under
//! [`std::panic::catch_unwind`]. A panicking kernel therefore cannot
//! poison a lock or leave `remaining` undrained: the worker stores the
//! payload in its result slot and parks normally, and the caller re-raises
//! the first payload (inline first, then ascending worker index — a
//! deterministic choice) with [`std::panic::resume_unwind`] *after* moving
//! the job inputs back out. The engine keeps its buffers, the pool keeps
//! its workers, and the next step runs normally — the same contract the
//! old scoped-thread path had through `join_worker`, plus reusability.
//!
//! # Dispatch policy
//!
//! Sharding and *dispatching* are separate decisions. The shard layout
//! ([`shard_spans`]) depends only on the element count and the configured
//! worker count, and the results are applied in shard order, so executing
//! the shards on parked workers or inline on the caller is bit-identical
//! by construction. The pool dispatches to its workers only when the
//! hardware actually offers a second execution context
//! (`hardware_threads`, resolved once per process); on a single-core host
//! every shard runs inline, which is the fastest valid schedule there.
//! Tests force cross-thread dispatch
//! through [`Engine::force_pool_dispatch`](crate::Engine::force_pool_dispatch)
//! to exercise the real handoff regardless of the host.
//!
//! [`Parallelism::Threads`]: crate::plan::Parallelism::Threads

use crate::kernel::admission::{
    allocate_consumers_into, AdmissionPolicy, PopulationMode,
};
use crate::kernel::price::PriceVector;
use crate::kernel::rate::{solve_rate, AggregateUtility};
use crate::kernel::reliability::solve_flow_rho;
use lrgp_model::{ClassId, FlowId, NodeId, PriceTermTable, Problem};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::{Builder, JoinHandle, ThreadId};

/// The contiguous half-open spans that partition a work list of `len`
/// elements into at most `workers` shards.
///
/// Guarantees, for every `len` and `workers` (including `len == 0`,
/// `len == 1`, and `workers > len`):
///
/// * the spans are disjoint, ascending, and their concatenation is exactly
///   `0..len` — no overlap, no gap, order preserved;
/// * every span is non-empty, and there are `min(workers, ceil(len/chunk))`
///   of them where `chunk = ceil(len / workers)`;
/// * span sizes differ by at most `chunk − floor(len/chunk)` (all spans are
///   `chunk` long except a possibly shorter final one).
///
/// Both the pool dispatch and the sequential fallback iterate these spans
/// in order, which is what makes the two schedules bit-identical.
pub fn shard_spans(len: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = shard_chunk(len, workers);
    let count = if chunk == 0 { 0 } else { len.div_ceil(chunk) };
    (0..count).map(move |s| s * chunk..((s + 1) * chunk).min(len))
}

/// The shard chunk size for `len` elements over at most `workers` shards
/// (0 when `len == 0`).
pub fn shard_chunk(len: usize, workers: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(workers.max(1))
    }
}

/// The number of non-empty shards [`shard_spans`] yields.
pub fn shard_count(len: usize, workers: usize) -> usize {
    let chunk = shard_chunk(len, workers);
    if chunk == 0 {
        0
    } else {
        len.div_ceil(chunk)
    }
}

/// Locks a mutex, treating poisoning as spurious: every shard runs under
/// `catch_unwind`, so a poisoned pool lock can only come from a panic in
/// the pool's own bookkeeping, and the data is still structurally sound.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One node's reusable admission scratch: the previously *sorted* BC order
/// (kept as the next recompute's starting permutation) and the population
/// decisions of the last recompute.
///
/// Wrapped in a `Mutex` inside [`crate::exec::StepState`] so disjoint
/// shards of pooled workers can re-admit their nodes concurrently; each
/// node belongs to exactly one shard, so the locks are uncontended by
/// construction, and the sequential path bypasses them entirely with
/// `Mutex::get_mut`.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdmissionOrder {
    /// The node's classes with their BC ratios, in last-recompute sorted
    /// order (seeded from `classes_at_node` order).
    pub(crate) order: Vec<(ClassId, f64)>,
    /// The populations decided by the last recompute (admission order).
    pub(crate) populations: Vec<(ClassId, f64)>,
}

/// The rate phase's job: everything a worker needs to solve a shard of
/// dirty flows, moved in from the engine for the duration of the phase.
pub(crate) struct RateJob {
    pub(crate) problem: Arc<Problem>,
    pub(crate) terms: Arc<PriceTermTable>,
    /// The sorted dirty-flow list (moved from the executor).
    pub(crate) dirty: Vec<u32>,
    /// Previous-iteration rates (read-only: the solver's fallback input).
    pub(crate) rates: Vec<f64>,
    /// Previous-iteration populations (read-only).
    pub(crate) populations: Vec<f64>,
    /// Previous-iteration prices (read-only).
    pub(crate) prices: PriceVector,
    /// Shard chunk size ([`shard_chunk`] of the dirty length).
    pub(crate) chunk: usize,
    /// Panic-injection test hook: solving this flow id panics.
    #[cfg(test)]
    pub(crate) panic_on_flow: Option<u32>,
}

impl RateJob {
    /// Solves shard `shard`'s dirty flows into `out` as `(flow, rate)`
    /// pairs, in dirty-list order.
    pub(crate) fn run_shard(
        &self,
        shard: usize,
        out: &mut Vec<(u32, f64)>,
        agg: &mut AggregateUtility,
    ) {
        out.clear();
        let lo = shard * self.chunk;
        if self.chunk == 0 || lo >= self.dirty.len() {
            return;
        }
        let hi = (lo + self.chunk).min(self.dirty.len());
        for &f in self.dirty.get(lo..hi).unwrap_or(&[]) {
            #[cfg(test)]
            if self.panic_on_flow == Some(f) {
                std::panic::panic_any(format!("injected rate-kernel panic on flow {f}"));
            }
            let flow = FlowId::new(f);
            agg.refill_for_flow(&self.problem, flow, &self.populations);
            let price =
                self.prices.aggregate_price_from_table(&self.terms, flow, &self.populations);
            let next =
                solve_rate(agg, price, self.problem.flow(flow).bounds, self.rates[f as usize]);
            out.push((f, next));
        }
    }
}

/// The reliability phase's job: a shard of dirty flows whose ρ
/// best-response is re-solved against the current link prices and the
/// freshly solved rates (see [`crate::kernel::reliability`]). Dispatched
/// only under [`crate::plan::Reliability::Joint`] on problems carrying a
/// [`lrgp_model::ReliabilitySpec`].
pub(crate) struct ReliabilityJob {
    pub(crate) problem: Arc<Problem>,
    pub(crate) terms: Arc<PriceTermTable>,
    /// The sorted dirty-flow list (moved from the executor).
    pub(crate) dirty: Vec<u32>,
    /// Previous-iteration reliabilities (read-only: the solver's fallback).
    pub(crate) rhos: Vec<f64>,
    /// This-iteration rates (read-only: they scale the ρ price).
    pub(crate) rates: Vec<f64>,
    /// Previous-iteration populations (read-only).
    pub(crate) populations: Vec<f64>,
    /// Previous-iteration prices (read-only).
    pub(crate) prices: PriceVector,
    /// The spec's redundancy factor.
    pub(crate) redundancy: f64,
    /// Shard chunk size ([`shard_chunk`] of the dirty length).
    pub(crate) chunk: usize,
}

impl ReliabilityJob {
    /// Solves shard `shard`'s dirty flows' ρ into `out` as `(flow, rho)`
    /// pairs, in dirty-list order.
    pub(crate) fn run_shard(&self, shard: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let lo = shard * self.chunk;
        if self.chunk == 0 || lo >= self.dirty.len() {
            return;
        }
        let hi = (lo + self.chunk).min(self.dirty.len());
        let link_prices = self.prices.link_prices();
        for &f in self.dirty.get(lo..hi).unwrap_or(&[]) {
            let flow = FlowId::new(f);
            let bounds = self.problem.rho_bounds(flow).unwrap_or_default();
            let next = solve_flow_rho(
                &self.terms,
                flow,
                link_prices,
                &self.populations,
                self.rates[f as usize],
                bounds,
                self.redundancy,
                self.rhos[f as usize],
            );
            out.push((f, next));
        }
    }
}

/// The admission phase's job: a shard of dirty nodes to re-admit against
/// the freshly solved rates. Workers lock only the [`AdmissionOrder`]s of
/// their own shard's nodes.
pub(crate) struct AdmissionJob {
    pub(crate) problem: Arc<Problem>,
    /// The sorted dirty-node list (moved from the executor).
    pub(crate) dirty: Vec<u32>,
    /// This-iteration rates (read-only).
    pub(crate) rates: Vec<f64>,
    /// Per-node admission scratch (moved from the executor).
    pub(crate) orders: Vec<Mutex<AdmissionOrder>>,
    pub(crate) mode: PopulationMode,
    pub(crate) policy: AdmissionPolicy,
    /// Shard chunk size ([`shard_chunk`] of the dirty length).
    pub(crate) chunk: usize,
}

impl AdmissionJob {
    /// Re-admits shard `shard`'s dirty nodes, updating their
    /// [`AdmissionOrder`]s in place and pushing `(node, used, bc)` into
    /// `out` in dirty-list order.
    pub(crate) fn run_shard(&self, shard: usize, out: &mut Vec<(u32, f64, f64)>) {
        out.clear();
        let lo = shard * self.chunk;
        if self.chunk == 0 || lo >= self.dirty.len() {
            return;
        }
        let hi = (lo + self.chunk).min(self.dirty.len());
        for &b in self.dirty.get(lo..hi).unwrap_or(&[]) {
            let mut slot = lock_unpoisoned(&self.orders[b as usize]);
            let slot = &mut *slot;
            let (used, bc) = allocate_consumers_into(
                &self.problem,
                NodeId::new(b),
                &self.rates,
                self.mode,
                self.policy,
                &mut slot.order,
                &mut slot.populations,
            );
            out.push((b, used, bc));
        }
    }
}

/// A phase's work order, parked in the pool's job slot while workers run.
pub(crate) enum Job {
    /// No phase in flight; the slot's resting state.
    Idle,
    /// Phase 1: solve dirty rates.
    Rates(RateJob),
    /// Phase 1b: re-solve dirty flows' reliabilities (Joint only).
    Reliabilities(ReliabilityJob),
    /// Phase 2a: re-run dirty admissions.
    Admissions(AdmissionJob),
}

/// A worker's result slot. Uncontended by construction: the worker writes
/// it while the caller waits on `done`, and the caller drains it after
/// `remaining == 0`.
struct WorkerSlot {
    /// Rate-phase results, `(flow, rate)` in shard order.
    rates_out: Vec<(u32, f64)>,
    /// Reliability-phase results, `(flow, rho)` in shard order.
    rhos_out: Vec<(u32, f64)>,
    /// Admission-phase results, `(node, used, bc)` in shard order.
    admissions_out: Vec<(u32, f64, f64)>,
    /// Per-worker rate scratch, reused across steps.
    agg: AggregateUtility,
    /// A caught panic payload from the last shard, if any.
    panic: Option<Box<dyn Any + Send>>,
    /// Number of shards this worker has executed (test instrumentation).
    jobs_completed: u64,
    /// The worker's OS thread id, set once at startup (test
    /// instrumentation: stable ids prove reuse rather than respawn).
    thread_id: Option<ThreadId>,
}

impl WorkerSlot {
    fn new() -> Self {
        Self {
            rates_out: Vec::new(),
            rhos_out: Vec::new(),
            admissions_out: Vec::new(),
            agg: AggregateUtility::default(),
            panic: None,
            jobs_completed: 0,
            thread_id: None,
        }
    }
}

/// Wake/park bookkeeping, guarded by one mutex.
struct Gate {
    /// Bumped once per dispatched phase; workers park until it moves.
    epoch: u64,
    /// Workers participating in the current epoch (shards − 1). Workers
    /// with index ≥ this just record the epoch and park again.
    participants: usize,
    /// Participants that have not yet finished the current epoch.
    remaining: usize,
    /// Set once at teardown; workers exit their loop on the next wake.
    shutdown: bool,
}

struct PoolShared {
    gate: Mutex<Gate>,
    /// Workers park here between phases.
    go: Condvar,
    /// The caller parks here until `remaining == 0`.
    done: Condvar,
    /// The phase's inputs; written by the caller, read by participants.
    job: RwLock<Job>,
    /// One result slot per worker.
    slots: Vec<Mutex<WorkerSlot>>,
    /// Test hook: dispatch to workers even on single-core hosts.
    force_dispatch: AtomicBool,
}

/// The host's hardware parallelism (at least 1), resolved once per process
/// for the pool's dispatch decision. On Linux,
/// [`std::thread::available_parallelism`] reads cgroup files on every call,
/// which costs tens of microseconds per engine construction.
pub(crate) fn hardware_threads() -> usize {
    static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
    *HARDWARE_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A persistent, parked worker pool. Created once per engine; workers
/// live until the pool is dropped.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("hardware_threads", &hardware_threads())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` parked worker threads. Spawn failures degrade the
    /// pool (fewer workers) instead of panicking; a pool that ends up with
    /// zero workers simply never dispatches.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            gate: Mutex::new(Gate {
                epoch: 0,
                participants: 0,
                remaining: 0,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            job: RwLock::new(Job::Idle),
            slots: (0..workers).map(|_| Mutex::new(WorkerSlot::new())).collect(),
            force_dispatch: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = Builder::new()
                .name(format!("lrgp-pool-{w}"))
                .spawn(move || worker_loop(worker_shared, w));
            if let Ok(handle) = spawned {
                handles.push(handle);
            }
        }
        Self { shared, handles }
    }

    /// Number of live worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// `true` when a multi-shard phase should hand shards to the parked
    /// workers rather than run them inline: there must be workers to hand
    /// to, and either a second hardware execution context or the test
    /// force flag (see the module docs on why inline is otherwise both
    /// valid and faster).
    pub(crate) fn dispatches(&self) -> bool {
        !self.handles.is_empty()
            && (hardware_threads() > 1 || self.shared.force_dispatch.load(Ordering::Relaxed))
    }

    /// Test hook: force cross-thread dispatch regardless of the host's
    /// hardware parallelism.
    pub(crate) fn set_force_dispatch(&self, force: bool) {
        self.shared.force_dispatch.store(force, Ordering::Relaxed);
    }

    /// The worker threads' OS ids, in worker order (test instrumentation).
    pub(crate) fn worker_thread_ids(&self) -> Vec<ThreadId> {
        self.handles.iter().map(|h| h.thread().id()).collect()
    }

    /// Shards executed per worker since construction (test
    /// instrumentation).
    pub(crate) fn jobs_completed(&self) -> Vec<u64> {
        self.shared
            .slots
            .iter()
            .map(|s| lock_unpoisoned(s).jobs_completed)
            .collect()
    }

    /// Runs `job` across `shards` shards: shards `1..shards` on workers,
    /// shard 0 inline through `inline` (also under `catch_unwind`).
    /// Returns the job (with all moved-in inputs intact) and the first
    /// caught panic payload, inline's first, then by ascending worker
    /// index.
    ///
    /// The caller must have checked [`Self::dispatches`] and must pass
    /// `shards − 1 <= self.workers()`.
    pub(crate) fn run(
        &self,
        job: Job,
        shards: usize,
        inline: impl FnOnce(&Job),
    ) -> (Job, Option<Box<dyn Any + Send>>) {
        let participants = shards.saturating_sub(1).min(self.handles.len());
        debug_assert!(shards.saturating_sub(1) <= self.handles.len());
        {
            let mut slot = self
                .shared
                .job
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = job;
        }
        {
            let mut gate = lock_unpoisoned(&self.shared.gate);
            gate.epoch += 1;
            gate.participants = participants;
            gate.remaining = participants;
            self.shared.go.notify_all();
        }
        let inline_panic = {
            let guard = self.shared.job.read().unwrap_or_else(PoisonError::into_inner);
            catch_unwind(AssertUnwindSafe(|| inline(&guard))).err()
        };
        {
            let mut gate = lock_unpoisoned(&self.shared.gate);
            while gate.remaining > 0 {
                gate = self
                    .shared
                    .done
                    .wait(gate)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let job = {
            let mut slot = self
                .shared
                .job
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *slot, Job::Idle)
        };
        let mut first_panic = inline_panic;
        for w in 0..participants {
            let mut slot = lock_unpoisoned(&self.shared.slots[w]);
            if first_panic.is_none() {
                first_panic = slot.panic.take();
            } else {
                slot.panic = None;
            }
        }
        (job, first_panic)
    }

    /// Drains worker `w`'s rate-phase results into `apply`, in shard
    /// order. Call with ascending `w` after [`Self::run`].
    pub(crate) fn drain_rates(&self, w: usize, apply: &mut impl FnMut(u32, f64)) {
        let mut slot = lock_unpoisoned(&self.shared.slots[w]);
        for &(f, rate) in &slot.rates_out {
            apply(f, rate);
        }
        slot.rates_out.clear();
    }

    /// Drains worker `w`'s reliability-phase results into `apply`, in shard
    /// order. Call with ascending `w` after [`Self::run`].
    pub(crate) fn drain_rhos(&self, w: usize, apply: &mut impl FnMut(u32, f64)) {
        let mut slot = lock_unpoisoned(&self.shared.slots[w]);
        for &(f, rho) in &slot.rhos_out {
            apply(f, rho);
        }
        slot.rhos_out.clear();
    }

    /// Drains worker `w`'s admission-phase results into `apply`, in shard
    /// order. Call with ascending `w` after [`Self::run`].
    pub(crate) fn drain_admissions(&self, w: usize, apply: &mut impl FnMut(u32, f64, f64)) {
        let mut slot = lock_unpoisoned(&self.shared.slots[w]);
        for &(b, used, bc) in &slot.admissions_out {
            apply(b, used, bc);
        }
        slot.admissions_out.clear();
    }

    /// Clears every worker's pending results without applying them: the
    /// panic path, where partial shard outputs must not leak into the next
    /// step's drains.
    pub(crate) fn discard_outputs(&self) {
        for slot in &self.shared.slots {
            let mut slot = lock_unpoisoned(slot);
            slot.rates_out.clear();
            slot.rhos_out.clear();
            slot.admissions_out.clear();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut gate = lock_unpoisoned(&self.shared.gate);
            gate.shutdown = true;
            self.shared.go.notify_all();
        }
        for handle in self.handles.drain(..) {
            // Worker panics are caught and parked in slots; a join error
            // here could only come from pool bookkeeping and must not
            // double-panic during drop.
            let _ = handle.join();
        }
    }
}

/// The body of one pooled worker: park, run the assigned shard of the
/// current job, publish results, repeat until shutdown.
fn worker_loop(shared: Arc<PoolShared>, w: usize) {
    {
        let mut slot = lock_unpoisoned(&shared.slots[w]);
        slot.thread_id = Some(std::thread::current().id());
    }
    let mut seen = 0u64;
    loop {
        let participate = {
            let mut gate = lock_unpoisoned(&shared.gate);
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch != seen {
                    seen = gate.epoch;
                    break w < gate.participants;
                }
                gate = shared.go.wait(gate).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if !participate {
            continue;
        }
        {
            let guard = shared.job.read().unwrap_or_else(PoisonError::into_inner);
            let mut slot = lock_unpoisoned(&shared.slots[w]);
            let slot = &mut *slot;
            // Worker w runs shard w + 1; the caller is always shard 0.
            let shard = w + 1;
            let outcome = match &*guard {
                Job::Idle => Ok(()),
                Job::Rates(job) => catch_unwind(AssertUnwindSafe(|| {
                    job.run_shard(shard, &mut slot.rates_out, &mut slot.agg)
                })),
                Job::Reliabilities(job) => catch_unwind(AssertUnwindSafe(|| {
                    job.run_shard(shard, &mut slot.rhos_out)
                })),
                Job::Admissions(job) => catch_unwind(AssertUnwindSafe(|| {
                    job.run_shard(shard, &mut slot.admissions_out)
                })),
            };
            if let Err(payload) = outcome {
                // A panicking shard publishes no results.
                slot.rates_out.clear();
                slot.rhos_out.clear();
                slot.admissions_out.clear();
                slot.panic = Some(payload);
            }
            slot.jobs_completed += 1;
        }
        let mut gate = lock_unpoisoned(&shared.gate);
        gate.remaining -= 1;
        if gate.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// The engine's handle on its pool: `None` when the engine can never use
/// more than one execution context. Cloning an engine spawns a fresh pool
/// of the same size — workers are never shared between engines.
#[derive(Debug, Default)]
pub(crate) struct PoolHandle {
    pool: Option<WorkerPool>,
}

impl PoolHandle {
    /// A pool sized for `max_concurrency` total execution contexts
    /// (caller + workers); `<= 1` means no pool at all.
    pub(crate) fn for_concurrency(max_concurrency: usize) -> Self {
        if max_concurrency <= 1 {
            Self { pool: None }
        } else {
            Self { pool: Some(WorkerPool::new(max_concurrency - 1)) }
        }
    }

    /// The pool, if one exists.
    pub(crate) fn get(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Re-sizes the pool for `max_concurrency` contexts, as
    /// [`Self::for_concurrency`] sizes a new one, unless it already holds
    /// that many workers. The old workers are joined first; the test force
    /// flag carries over.
    pub(crate) fn resize(&mut self, max_concurrency: usize) {
        let workers = max_concurrency.saturating_sub(1);
        if self.pool.as_ref().map_or(0, WorkerPool::workers) == workers {
            return;
        }
        let old = self.pool.take();
        let force = old.is_some_and(|p| p.shared.force_dispatch.load(Ordering::Relaxed));
        *self = Self::for_concurrency(max_concurrency);
        if let Some(pool) = &self.pool {
            pool.set_force_dispatch(force);
        }
    }
}

impl Clone for PoolHandle {
    fn clone(&self) -> Self {
        match &self.pool {
            None => Self { pool: None },
            Some(pool) => Self::for_concurrency(pool.workers() + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spans_cover_exactly() {
        for len in 0..40usize {
            for workers in 1..10usize {
                let spans: Vec<_> = shard_spans(len, workers).collect();
                let mut covered = Vec::new();
                for s in &spans {
                    assert!(!s.is_empty(), "empty span for len {len} workers {workers}");
                    covered.extend(s.clone());
                }
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expect, "len {len} workers {workers}");
                assert!(spans.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn shard_spans_degenerate_cases() {
        assert_eq!(shard_spans(0, 4).count(), 0);
        assert_eq!(shard_spans(1, 8).collect::<Vec<_>>(), vec![0..1]);
        assert_eq!(shard_spans(3, 8).count(), 3);
        assert_eq!(shard_chunk(0, 3), 0);
        assert_eq!(shard_count(0, 3), 0);
        assert_eq!(shard_count(10, 3), 3);
    }

    #[test]
    fn pool_runs_and_reuses_workers() {
        let pool = WorkerPool::new(2);
        pool.set_force_dispatch(true);
        assert_eq!(pool.workers(), 2);
        let ids_before = pool.worker_thread_ids();
        for _ in 0..50 {
            let (job, panic) = pool.run(Job::Idle, 3, |_| {});
            assert!(matches!(job, Job::Idle));
            assert!(panic.is_none());
        }
        assert_eq!(pool.worker_thread_ids(), ids_before, "workers respawned");
        let jobs = pool.jobs_completed();
        assert_eq!(jobs.len(), 2);
        assert!(jobs.iter().all(|&j| j == 50), "jobs per worker: {jobs:?}");
    }

    #[test]
    fn fewer_shards_than_workers_leaves_spares_parked() {
        let pool = WorkerPool::new(4);
        pool.set_force_dispatch(true);
        for _ in 0..20 {
            let (_, panic) = pool.run(Job::Idle, 2, |_| {});
            assert!(panic.is_none());
        }
        let jobs = pool.jobs_completed();
        assert_eq!(jobs[0], 20, "worker 0 participates in 2-shard phases");
        assert_eq!(&jobs[1..], &[0, 0, 0], "spare workers must stay parked");
    }

    #[test]
    fn inline_panic_is_reported_and_pool_survives() {
        let pool = WorkerPool::new(1);
        pool.set_force_dispatch(true);
        let (_, panic) = pool.run(Job::Idle, 2, |_| panic!("inline boom"));
        let payload = panic.expect("inline panic must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "inline boom");
        // Pool still serviceable.
        let (_, panic) = pool.run(Job::Idle, 2, |_| {});
        assert!(panic.is_none());
    }
}
