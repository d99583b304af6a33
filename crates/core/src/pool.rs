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
//! its workers, and the executor marks everything dirty before it resumes
//! the unwind, so the next step is a full recompute of the state the
//! engine holds — under `IncrementalMode::On` too, whose change lists the
//! interrupted step had already consumed. That is what "reusable" means:
//! the same engine and pool step on, and a flow-phase panic leaves a
//! trace bit-identical to an engine that never ran the interrupted step,
//! ρ included (pinned by the exec tests under both modes, rate-only and
//! joint).
//!
//! # Dispatch policy
//!
//! Sharding and *dispatching* are separate decisions. The shard layout
//! (`shard_count` pieces of the dirty list, each `shard_chunk` long but the
//! last) depends only on the element count and the resolved worker count,
//! and the results are applied in shard order, so executing
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

use crate::exec::solve_flow;
use crate::kernel::admission::{
    allocate_consumers_into, AdmissionPolicy, OrderEntry, PopulationMode,
};
use crate::kernel::price::PriceVector;
use crate::kernel::rate::AggregateUtility;
use crate::plan::Parallelism;
use lrgp_model::{ClassId, FlowId, NodeId, PriceTermTable, Problem};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::{Builder, JoinHandle, ThreadId};

/// The shard chunk size for `len` elements over at most `workers` shards
/// (0 when `len == 0`).
pub(crate) fn shard_chunk(len: usize, workers: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(workers.max(1))
    }
}

/// The number of non-empty [`shard_chunk`]-sized pieces of `len` elements
/// over at most `workers` shards. A pooled phase splits its dirty list into
/// these pieces with [`shard_of`] and applies their results in shard order,
/// which keeps it bit-identical to the sequential loop over the whole list.
pub(crate) fn shard_count(len: usize, workers: usize) -> usize {
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
/// (kept as the next recompute's starting permutation, each entry with the
/// rate its ratio was computed at) and the population decisions of the last
/// recompute.
///
/// Wrapped in a `Mutex` inside [`crate::exec::StepState`] so disjoint
/// shards of pooled workers can re-admit their nodes concurrently; each
/// node belongs to exactly one shard, so the locks are uncontended by
/// construction, and the sequential path bypasses them entirely with
/// `Mutex::get_mut`.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdmissionOrder {
    /// The node's classes with their BC ratios (each entry also carrying
    /// its class's flow, `n_max` and `G`), in last-recompute sorted order
    /// (seeded from `classes_at_node` order).
    pub(crate) order: Vec<OrderEntry>,
    /// The populations decided by the last recompute (admission order).
    pub(crate) populations: Vec<(ClassId, f64)>,
}

/// One element's result from a shard: `(flow, rate, rho, price_free)` from
/// a flow job, `(node, used, bc, false)` from an admission job.
pub(crate) type ShardOut = (u32, f64, f64, bool);

/// Shard `shard` of `dirty` split into `chunk`-sized pieces (empty past
/// the end, and for `chunk == 0`).
pub(crate) fn shard_of(dirty: &[u32], chunk: usize, shard: usize) -> &[u32] {
    let lo = shard.saturating_mul(chunk).min(dirty.len());
    let hi = lo.saturating_add(chunk).min(dirty.len());
    dirty.get(lo..hi).unwrap_or(&[])
}

/// The flow phase's job: everything a worker needs to solve a shard of
/// dirty flows, moved in from the engine for the duration of the phase.
pub(crate) struct FlowJob {
    pub(crate) problem: Arc<Problem>,
    pub(crate) terms: Arc<PriceTermTable>,
    /// The sorted dirty-flow list (moved from the executor).
    pub(crate) dirty: Vec<u32>,
    /// Previous-iteration rates (read-only: the rate solver's fallback).
    pub(crate) rates: Vec<f64>,
    /// Previous-iteration reliabilities (read-only: the ρ solver's
    /// fallback).
    pub(crate) rhos: Vec<f64>,
    /// Previous-iteration populations (read-only).
    pub(crate) populations: Vec<f64>,
    /// Previous-iteration prices (read-only).
    pub(crate) prices: PriceVector,
    /// The spec's redundancy factor when ρ is solved jointly
    /// ([`crate::plan::Reliability::Joint`] on a problem carrying a
    /// [`lrgp_model::ReliabilitySpec`]); `None` leaves ρ as it is.
    pub(crate) redundancy: Option<f64>,
    /// Shard chunk size ([`shard_chunk`] of the dirty length).
    pub(crate) chunk: usize,
    /// Panic-injection test hook: solving this flow id panics.
    #[cfg(test)]
    pub(crate) panic_on_flow: Option<u32>,
}

impl FlowJob {
    /// Solves shard `shard`'s dirty flows into `out` as `(flow, rate, rho,
    /// price_free)`, in dirty-list order, through the sequential pass's
    /// [`solve_flow`].
    pub(crate) fn run_shard(
        &self,
        shard: usize,
        out: &mut Vec<ShardOut>,
        agg: &mut AggregateUtility,
    ) {
        out.clear();
        for &f in shard_of(&self.dirty, self.chunk, shard) {
            #[cfg(test)]
            if self.panic_on_flow == Some(f) {
                std::panic::panic_any(format!("injected rate-kernel panic on flow {f}"));
            }
            let (rate, rho, price_free) = solve_flow(
                &self.problem,
                &self.terms,
                &self.prices,
                &self.populations,
                self.redundancy,
                agg,
                FlowId::new(f),
                self.rates[f as usize],
                self.rhos[f as usize],
            );
            out.push((f, rate, rho, price_free));
        }
    }
}

/// The admission phase's job: a shard of dirty nodes to re-admit against
/// the freshly solved rates. Workers lock only the [`AdmissionOrder`]s of
/// their own shard's nodes.
pub(crate) struct AdmissionJob {
    pub(crate) problem: Arc<Problem>,
    /// The term table, read for each node's flow-cost row.
    pub(crate) terms: Arc<PriceTermTable>,
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
    /// [`AdmissionOrder`]s in place and pushing `(node, used, bc, false)`
    /// into `out` in dirty-list order.
    pub(crate) fn run_shard(&self, shard: usize, out: &mut Vec<ShardOut>) {
        out.clear();
        for &b in shard_of(&self.dirty, self.chunk, shard) {
            let mut slot = lock_unpoisoned(&self.orders[b as usize]);
            let slot = &mut *slot;
            let node = NodeId::new(b);
            let (used, bc) = allocate_consumers_into(
                &self.problem,
                node,
                self.terms.flow_cost_terms(node),
                &self.rates,
                self.mode,
                self.policy,
                &mut slot.order,
                &mut slot.populations,
            );
            out.push((b, used, bc, false));
        }
    }
}

/// A phase's work order, parked in the pool's job slot while workers run.
pub(crate) enum Job {
    /// No phase in flight; the slot's resting state.
    Idle,
    /// Phase 1: solve dirty flows' rates, and their ρ under `Joint`.
    Flows(FlowJob),
    /// Phase 2a: re-run dirty admissions.
    Admissions(AdmissionJob),
}

/// A worker's result slot. Uncontended by construction: the worker writes
/// it while the caller waits on `done`, and the caller drains it after
/// `remaining == 0`.
struct WorkerSlot {
    /// The last shard's results in shard order.
    out: Vec<ShardOut>,
    /// Per-worker rate scratch, reused across steps.
    agg: AggregateUtility,
    /// A caught panic payload from the last shard, if any.
    panic: Option<Box<dyn Any + Send>>,
    /// Number of shards this worker has executed (test instrumentation).
    jobs_completed: u64,
}

impl WorkerSlot {
    fn new() -> Self {
        Self { out: Vec::new(), agg: AggregateUtility::default(), panic: None, jobs_completed: 0 }
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

    /// Applies a phase's results in shard order: the caller's shard 0 from
    /// `inline`, then workers `0..shards − 1`. Call after [`Self::run`];
    /// every buffer it reads is left empty.
    pub(crate) fn drain(
        &self,
        inline: &mut Vec<ShardOut>,
        shards: usize,
        mut apply: impl FnMut(ShardOut),
    ) {
        inline.drain(..).for_each(&mut apply);
        for slot in self.shared.slots.iter().take(shards.saturating_sub(1)) {
            lock_unpoisoned(slot).out.drain(..).for_each(&mut apply);
        }
    }

    /// Clears every worker's pending results without applying them: the
    /// panic path, where partial shard outputs must not leak into the next
    /// step's drains.
    pub(crate) fn discard_outputs(&self) {
        for slot in &self.shared.slots {
            lock_unpoisoned(slot).out.clear();
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
                Job::Flows(job) => catch_unwind(AssertUnwindSafe(|| {
                    job.run_shard(shard, &mut slot.out, &mut slot.agg)
                })),
                Job::Admissions(job) => {
                    catch_unwind(AssertUnwindSafe(|| job.run_shard(shard, &mut slot.out)))
                }
            };
            if let Err(payload) = outcome {
                // A panicking shard publishes no results.
                slot.out.clear();
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

    /// The pool and the number of contexts (caller plus workers) to shard
    /// a phase of `units` dirty elements over under `parallelism`, or
    /// `None` when the phase runs inline: `parallelism` resolves to one
    /// context, the pool does not dispatch (see
    /// [`WorkerPool::dispatches`]), or it has no workers to hand to. The
    /// count is clamped to the workers actually spawned plus the caller.
    pub(crate) fn dispatch(
        &self,
        parallelism: Parallelism,
        units: usize,
    ) -> Option<(&WorkerPool, usize)> {
        let workers = parallelism.workers_for(units);
        self.pool
            .as_ref()
            .filter(|p| workers > 1 && p.dispatches())
            .map(|p| (p, workers.min(p.workers() + 1)))
            .filter(|&(_, w)| w > 1)
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

    use proptest::prelude::*;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    /// Runs `body` on a helper thread and fails the test if it has not
    /// finished within 30 s, so a lost wakeup fails it instead of hanging
    /// the suite (the same guard as `tests/pool_stress.rs`). A panic in
    /// `body` is resumed on the test thread.
    fn with_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        let helper = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(30)) {
            // A body that panicked drops the sender without sending.
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("watchdog: the pool did not finish within 30 s (lost wakeup?)")
            }
        }
    }

    /// The pieces a pooled phase splits `dirty` into over `workers`
    /// contexts: `shard_of(dirty, shard_chunk(len, workers), k)` for every
    /// `k` in `0..shard_count(len, workers)`.
    fn pieces(dirty: &[u32], workers: usize) -> Vec<&[u32]> {
        let chunk = shard_chunk(dirty.len(), workers);
        (0..shard_count(dirty.len(), workers)).map(|k| shard_of(dirty, chunk, k)).collect()
    }

    /// Bit-identity with the sequential loop rests on the split: the pieces
    /// reassemble `dirty` exactly and in order, each is non-empty, there
    /// are at most `workers` of them, and each is `shard_chunk` long except
    /// the last.
    fn assert_split(dirty: &[u32], workers: usize) {
        let label = format!("{} elements over {workers} workers", dirty.len());
        let pieces = pieces(dirty, workers);
        assert_eq!(pieces.concat(), dirty, "{label}: reassembly");
        assert!(pieces.iter().all(|piece| !piece.is_empty()), "{label}: an empty piece");
        assert!(pieces.len() <= workers, "{label}: {} pieces", pieces.len());
        let chunk = shard_chunk(dirty.len(), workers);
        if let Some((last, full)) = pieces.split_last() {
            assert!(full.iter().all(|piece| piece.len() == chunk), "{label}: a short piece");
            assert!(last.len() <= chunk, "{label}: the last piece is {} long", last.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every list length (0 and 1 included) and worker count (more
        /// workers than elements included).
        #[test]
        fn shard_split_partitions_the_dirty_list(
            dirty in proptest::collection::vec(any::<u32>(), 0..2_000),
            workers in 1usize..64,
        ) {
            assert_split(&dirty, workers);
        }
    }

    #[test]
    fn shard_split_edge_cases() {
        for len in 0..40u32 {
            let dirty: Vec<u32> = (0..len).collect();
            for workers in 1..10 {
                assert_split(&dirty, workers);
            }
        }
        for workers in [1, 2, 7] {
            assert_eq!(shard_chunk(0, workers), 0);
            assert_eq!(shard_count(0, workers), 0);
        }
        // Fewer elements than workers: one single-element piece each.
        assert_eq!(pieces(&[9], 8), [&[9][..]]);
        assert_eq!(pieces(&[4, 5, 6], 8), [&[4][..], &[5][..], &[6][..]]);
        assert_eq!(pieces(&[0; 10], 3).len(), 3);
    }

    #[test]
    fn pool_runs_and_reuses_workers() {
        with_watchdog(|| {
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
        });
    }

    #[test]
    fn fewer_shards_than_workers_leaves_spares_parked() {
        with_watchdog(|| {
            let pool = WorkerPool::new(4);
            pool.set_force_dispatch(true);
            for _ in 0..20 {
                let (_, panic) = pool.run(Job::Idle, 2, |_| {});
                assert!(panic.is_none());
            }
            let jobs = pool.jobs_completed();
            assert_eq!(jobs[0], 20, "worker 0 participates in 2-shard phases");
            assert_eq!(&jobs[1..], &[0, 0, 0], "spare workers must stay parked");
        });
    }

    #[test]
    fn inline_panic_is_reported_and_pool_survives() {
        with_watchdog(|| {
            let pool = WorkerPool::new(1);
            pool.set_force_dispatch(true);
            let (_, panic) = pool.run(Job::Idle, 2, |_| panic!("inline boom"));
            let payload = panic.expect("inline panic must surface");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "inline boom");
            // Pool still serviceable.
            let (_, panic) = pool.run(Job::Idle, 2, |_| {});
            assert!(panic.is_none());
        });
    }
}
