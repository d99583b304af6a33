//! The dirty-set step executor shared by every engine configuration.
//!
//! `StepState` runs one LRGP iteration over the engine's state. It is the
//! **only** solve loop in the crate: a full recompute is simply the
//! all-dirty special case (the engine marks everything dirty first under
//! [`IncrementalMode::Off`](crate::IncrementalMode::Off)), and the
//! parallel paths shard the dirty lists over the engine's persistent
//! worker pool (see [`crate::plan`] and [`crate::pool`]).
//!
//! Near convergence almost every per-iteration quantity is recomputed to the
//! very same bits it already had: prices stop moving (the γ step underflows
//! against the price magnitude), so aggregated prices stop moving, so rates
//! stop moving, so admissions stop moving. The incremental step exploits
//! that with **exact, bitwise dirty tracking** — work is proportional to
//! what changed, and the result is bit-identical (`f64::to_bits`) to the
//! full recompute, enforced by `tests/differential.rs`.
//!
//! # Why skipping is exact
//!
//! Every LRGP kernel is a pure function of the previous iteration's
//! published state. If a kernel's inputs are bitwise unchanged since the
//! last time it ran, its output is bitwise unchanged too, so writing it
//! again is a no-op — the stored value *is* the output. The only subtlety is
//! the rate solver's `fallback` argument (the previous rate, used when the
//! flow has no admitted consumers and zero price): the solver is idempotent
//! in it (`clamp(clamp(r)) = clamp(r)`), so a skipped flow's stored rate
//! still equals what a fresh solve would return.
//!
//! # Dirty-set invariants
//!
//! | recompute          | iff one of its inputs changed bitwise            |
//! |--------------------|--------------------------------------------------|
//! | rate of flow `i`   | price of a node in `B_i` / link in `L_i`, or the population of a class in `C_i`, changed last iteration |
//! | admission at `b`   | the rate of a flow in `nodeMap(b)` changed this iteration |
//! | usage of link `l`  | the rate of a flow in `linkMap(l)` changed this iteration |
//! | total utility      | any rate or population changed this iteration    |
//!
//! The price updates themselves (Eqs. 12–13) and the γ controllers are O(1)
//! per element and **always** run — their state must advance every iteration
//! exactly as in the baseline — but they read the *cached* admission outcome
//! (`BC`, `used`) and link usage, which is only recomputed when dirty.
//!
//! # External dirt
//!
//! Problem deltas ([`crate::engine::Engine::apply_delta`]) inject dirt from
//! *outside* the iteration loop through the `note_*` methods: a capacity
//! change dirties that node's admission, a population bound change dirties
//! the class's node and (if the published population moved) the class's
//! flow, a rate-bound change dirties the flow and (if the clamp moved the
//! stored rate) everything downstream of it. Cost edits patch the term
//! table in place ([`PriceTermTable::refresh`]) and dirty exactly the
//! readers of the patched coefficients: a flow removal or `F_{b,i}` edit
//! dirties the flow, its nodes and its links; a loss edit dirties the link
//! (joint usage reads the loss) and every flow on it (the ρ solve reads
//! `cost · loss`); a ρ-bound edit dirties the flow and, if the clamp moved
//! the stored ρ, its links and the utility. The next step unions this
//! external dirt into its derived dirty sets, so a delta costs work
//! proportional to what it touched. Only a growing delta (a flow addition
//! changes the table's shape) invalidates the state wholesale: the next
//! step rebuilds the tables and treats everything as dirty.
//!
//! # State layout and the pooled handoff
//!
//! The hot per-node admission state is stored **struct-of-arrays**
//! (`NodeTable`): the Eq. 12 inputs `used` and `BC` live in two dense
//! `Vec<f64>`s read linearly by the always-runs price loop, while the
//! bulky per-node scratch (the sorted BC order and population decisions)
//! lives in a parallel vector of `AdmissionOrder` slots, each behind a
//! `Mutex` so pooled workers can re-admit disjoint shards concurrently
//! (each node belongs to exactly one shard, so the locks are uncontended;
//! the sequential path bypasses them with `Mutex::get_mut`).
//!
//! A pooled phase *moves* its inputs into the pool's job slot (pointer
//! swaps via `mem::take` / `mem::replace`, never `O(problem)` copies), the
//! caller runs shard 0 inline while workers run shards `1..`, and the
//! inputs move back out afterwards — so a steady-state step performs **no
//! heap allocation and no thread spawning** on either path. Results are
//! applied in shard order, which keeps the pooled schedule bit-identical
//! to the sequential one (see [`crate::plan`]). A panicking kernel
//! resumes its unwind on the caller *after* the inputs are restored and
//! all pending outputs are discarded, leaving the engine and the pool
//! reusable.

use crate::engine::LrgpConfig;
use crate::gamma::GammaController;
use crate::kernel::admission::allocate_consumers_into;
use crate::kernel::price::{update_link_price, update_node_price_with_rule, PriceVector};
use crate::kernel::rate::{solve_rate, AggregateUtility};
use crate::kernel::reliability::solve_flow_rho;
use crate::pool::{
    lock_unpoisoned, shard_chunk, shard_count, AdmissionJob, AdmissionOrder, Job, PoolHandle,
    RateJob, ReliabilityJob,
};
use lrgp_model::{ClassId, DeltaOp, FlowId, LinkId, NodeId, PriceTermTable, Problem};
use std::sync::{Arc, Mutex, PoisonError};

/// Adds `id` to `list` unless its flag is already set.
#[inline]
fn mark(flags: &mut [bool], list: &mut Vec<u32>, id: u32) {
    let slot = &mut flags[id as usize];
    if !*slot {
        *slot = true;
        list.push(id);
    }
}

/// Clears the flags of every id in `list`, then the list itself.
fn clear_marks(flags: &mut [bool], list: &mut Vec<u32>) {
    for &id in list.iter() {
        flags[id as usize] = false;
    }
    list.clear();
}

/// The per-node admission state, struct-of-arrays (see the module docs):
/// dense `used`/`bc` columns for the price loop's linear read, and the
/// per-node [`AdmissionOrder`] scratch behind shard-concurrency mutexes.
#[derive(Debug)]
struct NodeTable {
    /// Each node's admission scratch (sorted BC order + populations).
    orders: Vec<Mutex<AdmissionOrder>>,
    /// `used_b` of the last recompute, indexed by node id.
    used: Vec<f64>,
    /// `BC(b)` (Eq. 11) of the last recompute, indexed by node id.
    bc: Vec<f64>,
}

impl NodeTable {
    fn new(problem: &Problem) -> Self {
        Self {
            orders: problem
                .node_ids()
                .map(|node| {
                    let classes = problem.classes_at_node(node);
                    Mutex::new(AdmissionOrder {
                        order: classes.iter().map(|&c| (c, 0.0)).collect(),
                        populations: Vec::with_capacity(classes.len()),
                    })
                })
                .collect(),
            used: vec![0.0; problem.num_nodes()],
            bc: vec![0.0; problem.num_nodes()],
        }
    }
}

impl Clone for NodeTable {
    fn clone(&self) -> Self {
        Self {
            orders: self
                .orders
                .iter()
                .map(|slot| Mutex::new(lock_unpoisoned(slot).clone()))
                .collect(),
            used: self.used.clone(),
            bc: self.bc.clone(),
        }
    }
}

/// The caller's reusable shard-0 scratch for the rate phase.
#[derive(Debug, Clone, Default)]
struct RateScratch {
    agg: AggregateUtility,
    out: Vec<(u32, f64)>,
}

/// The executor's persistent state: term tables, caches, dirty sets, and
/// scratch buffers. Dropped (and lazily rebuilt) when the problem grows or
/// is replaced wholesale; every other delta patches it in place.
#[derive(Debug, Clone)]
pub(crate) struct StepState {
    terms: Arc<PriceTermTable>,
    nodes: NodeTable,
    link_usage: Vec<f64>,
    cached_utility: f64,
    /// Everything dirty on the first step after (re)construction.
    first: bool,
    /// Forces the next step to republish the utility even if no rate or
    /// population changes *within* it (a delta changed them between steps).
    force_utility: bool,

    // Changes published by the previous iteration (inputs to this one).
    node_price_changed: Vec<bool>,
    changed_nodes: Vec<u32>,
    link_price_changed: Vec<bool>,
    changed_links: Vec<u32>,
    pop_changed: Vec<bool>,
    changed_classes: Vec<u32>,

    // Changes produced within the current iteration.
    rate_changed: Vec<bool>,
    changed_rates: Vec<u32>,
    /// Flows whose ρ moved bitwise this iteration. Only populated by
    /// [`crate::plan::Reliability::Joint`] steps; permanently empty under
    /// Off, so every consumer of these lists is a no-op there.
    rho_changed: Vec<bool>,
    changed_rhos: Vec<u32>,

    // External dirt injected between steps by problem deltas.
    ext_flow_dirty: Vec<bool>,
    ext_dirty_flows: Vec<u32>,
    ext_node_dirty: Vec<bool>,
    ext_dirty_nodes: Vec<u32>,
    ext_link_dirty: Vec<bool>,
    ext_dirty_links: Vec<u32>,

    // Dirty work lists (sorted ascending before use).
    flow_dirty: Vec<bool>,
    dirty_flows: Vec<u32>,
    node_dirty: Vec<bool>,
    dirty_nodes: Vec<u32>,
    link_dirty: Vec<bool>,
    dirty_links: Vec<u32>,

    rate_scratch: RateScratch,
    /// The caller's shard-0 admission output, `(node, used, bc)`.
    admission_scratch: Vec<(u32, f64, f64)>,
    /// The caller's shard-0 reliability output, `(flow, rho)`.
    rho_scratch: Vec<(u32, f64)>,
    /// Panic-injection test hook, threaded into pooled rate jobs.
    #[cfg(test)]
    panic_on_flow: Option<u32>,
}

impl StepState {
    /// Builds fresh tables and empty caches for `problem`; the first step
    /// marks everything dirty and fills the caches.
    pub(crate) fn new(problem: &Problem) -> Self {
        Self {
            terms: Arc::new(PriceTermTable::new(problem)),
            nodes: NodeTable::new(problem),
            link_usage: vec![0.0; problem.num_links()],
            cached_utility: 0.0,
            first: true,
            force_utility: false,
            node_price_changed: vec![false; problem.num_nodes()],
            changed_nodes: Vec::with_capacity(problem.num_nodes()),
            link_price_changed: vec![false; problem.num_links()],
            changed_links: Vec::with_capacity(problem.num_links()),
            pop_changed: vec![false; problem.num_classes()],
            changed_classes: Vec::with_capacity(problem.num_classes()),
            rate_changed: vec![false; problem.num_flows()],
            changed_rates: Vec::with_capacity(problem.num_flows()),
            rho_changed: vec![false; problem.num_flows()],
            changed_rhos: Vec::new(),
            ext_flow_dirty: vec![false; problem.num_flows()],
            ext_dirty_flows: Vec::new(),
            ext_node_dirty: vec![false; problem.num_nodes()],
            ext_dirty_nodes: Vec::new(),
            ext_link_dirty: vec![false; problem.num_links()],
            ext_dirty_links: Vec::new(),
            flow_dirty: vec![false; problem.num_flows()],
            dirty_flows: Vec::with_capacity(problem.num_flows()),
            node_dirty: vec![false; problem.num_nodes()],
            dirty_nodes: Vec::with_capacity(problem.num_nodes()),
            link_dirty: vec![false; problem.num_links()],
            dirty_links: Vec::with_capacity(problem.num_links()),
            rate_scratch: RateScratch::default(),
            admission_scratch: Vec::new(),
            rho_scratch: Vec::new(),
            #[cfg(test)]
            panic_on_flow: None,
        }
    }

    /// Marks everything dirty for the next step, turning it into an exact
    /// full recompute ([`crate::engine::Engine::step`] calls this every
    /// step under `IncrementalMode::Off`).
    pub(crate) fn mark_all_dirty(&mut self) {
        self.first = true;
    }

    /// Records that `node`'s capacity changed: its admission outcome must be
    /// recomputed (the price update always runs and reads the capacity
    /// directly).
    pub(crate) fn note_capacity_change(&mut self, node: NodeId) {
        mark(&mut self.ext_node_dirty, &mut self.ext_dirty_nodes, node.index() as u32);
    }

    /// Records that `class`'s population bound changed, and whether the
    /// published population itself was clamped to new bits. The class's
    /// node must re-admit; a moved population additionally dirties the
    /// class's flow (rate solves read populations) and staleness the cached
    /// utility.
    pub(crate) fn note_population_change(
        &mut self,
        problem: &Problem,
        class: ClassId,
        pop_bits_changed: bool,
    ) {
        let node = problem.class(class).node;
        mark(&mut self.ext_node_dirty, &mut self.ext_dirty_nodes, node.index() as u32);
        if pop_bits_changed {
            mark(&mut self.pop_changed, &mut self.changed_classes, class.index() as u32);
            self.force_utility = true;
        }
    }

    /// Records that `flow`'s rate bounds changed, and whether the stored
    /// rate itself was clamped to new bits. The flow must re-solve; a moved
    /// rate additionally dirties every node and link it feeds (their cached
    /// admissions / usages were built against the old rate) and stalenesses
    /// the cached utility.
    pub(crate) fn note_bounds_change(
        &mut self,
        problem: &Problem,
        flow: FlowId,
        rate_bits_changed: bool,
    ) {
        mark(&mut self.ext_flow_dirty, &mut self.ext_dirty_flows, flow.index() as u32);
        if rate_bits_changed {
            for &(node, _) in problem.nodes_of_flow(flow) {
                mark(&mut self.ext_node_dirty, &mut self.ext_dirty_nodes, node.index() as u32);
            }
            for &(link, _) in problem.links_of_flow(flow) {
                mark(&mut self.ext_link_dirty, &mut self.ext_dirty_links, link.index() as u32);
            }
            self.force_utility = true;
        }
    }

    /// Records that `op`, a cost edit that keeps the id space, reached the
    /// final `problem`: patches the term table's touched coefficients in
    /// place and dirties exactly what reads them. A removal or `F_{b,i}`
    /// edit dirties the flow (its rate and ρ solves read its path
    /// coefficients), its nodes (admission reads `F_{b,i}`) and its links
    /// (usage reads `L_{l,i}`). A loss edit dirties the link (joint usage
    /// reads the loss) and every flow on it (the ρ solve reads
    /// `cost · loss`). Other ops patch nothing and mark nothing here.
    ///
    /// The table is shared with engine clones (and with pooled jobs, during
    /// a phase only), so the patch copies it first if another reference is
    /// alive.
    pub(crate) fn note_cost_edit(&mut self, problem: &Problem, op: &DeltaOp) {
        match *op {
            DeltaOp::RemoveFlow { flow } | DeltaOp::SetFlowNodeCost { flow, .. } => {
                mark(&mut self.ext_flow_dirty, &mut self.ext_dirty_flows, flow.index() as u32);
                for &(node, _) in problem.nodes_of_flow(flow) {
                    mark(&mut self.ext_node_dirty, &mut self.ext_dirty_nodes, node.index() as u32);
                }
                for &(link, _) in problem.links_of_flow(flow) {
                    mark(&mut self.ext_link_dirty, &mut self.ext_dirty_links, link.index() as u32);
                }
            }
            DeltaOp::SetLinkLoss { link, .. } => {
                mark(&mut self.ext_link_dirty, &mut self.ext_dirty_links, link.index() as u32);
                for &flow in problem.flows_on_link(link) {
                    mark(&mut self.ext_flow_dirty, &mut self.ext_dirty_flows, flow.index() as u32);
                }
            }
            _ => return,
        }
        let patched = Arc::make_mut(&mut self.terms).refresh(problem, op);
        debug_assert!(patched, "only shape-keeping cost edits reach the patch");
    }

    /// Records that `flow`'s ρ bounds changed, and whether the stored ρ was
    /// clamped to new bits. The flow must re-solve (the ρ solve clamps into
    /// the bounds); a moved ρ additionally dirties the flow's links (joint
    /// usage reads ρ) and stalenesses the cached utility (its reliability
    /// term reads ρ).
    pub(crate) fn note_rho_bounds_change(
        &mut self,
        problem: &Problem,
        flow: FlowId,
        rho_bits_changed: bool,
    ) {
        mark(&mut self.ext_flow_dirty, &mut self.ext_dirty_flows, flow.index() as u32);
        if rho_bits_changed {
            for &(link, _) in problem.links_of_flow(flow) {
                mark(&mut self.ext_link_dirty, &mut self.ext_dirty_links, link.index() as u32);
            }
            self.force_utility = true;
        }
    }

    /// The current dirty/changed set sizes, for tests:
    /// `(changed_rates, changed_nodes, changed_links)` as published by the
    /// last completed step.
    #[cfg(test)]
    pub(crate) fn changed_counts(&self) -> (usize, usize, usize) {
        (self.changed_rates.len(), self.changed_nodes.len(), self.changed_links.len())
    }

    /// The work-list sizes of the last completed step, for tests:
    /// `(dirty_flows, dirty_nodes, dirty_links)`.
    #[cfg(test)]
    pub(crate) fn dirty_counts(&self) -> (usize, usize, usize) {
        (self.dirty_flows.len(), self.dirty_nodes.len(), self.dirty_links.len())
    }

    /// The node ids whose prices changed in the last completed step.
    #[cfg(test)]
    pub(crate) fn changed_node_ids(&self) -> &[u32] {
        &self.changed_nodes
    }

    /// Arms the panic-injection hook: the next pooled rate job panics when
    /// it reaches this flow id.
    #[cfg(test)]
    pub(crate) fn set_panic_on_flow(&mut self, flow: Option<u32>) {
        self.panic_on_flow = flow;
    }

    /// One LRGP iteration over the engine's state under `config`, sharding
    /// over `pool` where `config.parallelism` asks for it. Returns the total
    /// utility (recomputed only when a rate or population changed).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        rates: &mut Vec<f64>,
        rhos: &mut Vec<f64>,
        populations: &mut Vec<f64>,
        prices: &mut PriceVector,
        gammas: &mut [GammaController],
    ) -> f64 {
        // The ρ phase only exists under Reliability::Joint on a problem with
        // a reliability spec; everywhere else the step is exactly the classic
        // rate-only pipeline (changed_rhos stays permanently empty, and the
        // Off gates below never add a float operation).
        let joint = config.reliability.joint() && problem.reliability().is_some();
        self.derive_dirty_flows(problem);
        self.solve_dirty_rates(problem, config, pool, rates, populations, prices);
        if joint {
            self.solve_dirty_rhos(problem, config, pool, rates, rhos, populations, prices);
        }
        self.derive_dirty_nodes(problem);
        self.run_dirty_admissions(problem, config, pool, rates);
        self.apply_populations(populations);
        self.update_node_prices(problem, config, prices, gammas);
        self.derive_dirty_links(problem);
        self.update_link_usage_and_prices(problem, config, rates, rhos, joint, prices);
        if self.first
            || self.force_utility
            || !self.changed_rates.is_empty()
            || !self.changed_rhos.is_empty()
            || !self.changed_classes.is_empty()
        {
            self.cached_utility = total_utility(problem, rates, populations);
            if joint {
                self.cached_utility += reliability_utility(problem, rhos, populations);
            }
        }
        self.first = false;
        self.force_utility = false;
        self.cached_utility
    }

    /// Phase 0: a flow's rate inputs are the prices along its path and the
    /// populations of its classes; it is dirty iff one of them changed last
    /// iteration (or a delta dirtied it externally). Consumes (and clears)
    /// the previous iteration's change sets and the external dirt.
    fn derive_dirty_flows(&mut self, problem: &Problem) {
        let Self {
            flow_dirty,
            dirty_flows,
            node_price_changed,
            changed_nodes,
            link_price_changed,
            changed_links,
            pop_changed,
            changed_classes,
            ext_flow_dirty,
            ext_dirty_flows,
            first,
            ..
        } = self;
        clear_marks(flow_dirty, dirty_flows);
        if *first {
            for f in 0..problem.num_flows() as u32 {
                flow_dirty[f as usize] = true;
                dirty_flows.push(f);
            }
        } else {
            for &b in changed_nodes.iter() {
                for &f in problem.flows_at_node(NodeId::new(b)) {
                    mark(flow_dirty, dirty_flows, f.index() as u32);
                }
            }
            for &l in changed_links.iter() {
                for &f in problem.flows_on_link(LinkId::new(l)) {
                    mark(flow_dirty, dirty_flows, f.index() as u32);
                }
            }
            for &c in changed_classes.iter() {
                let flow = problem.class(ClassId::new(c)).flow;
                mark(flow_dirty, dirty_flows, flow.index() as u32);
            }
            for &f in ext_dirty_flows.iter() {
                mark(flow_dirty, dirty_flows, f);
            }
            dirty_flows.sort_unstable();
        }
        clear_marks(node_price_changed, changed_nodes);
        clear_marks(link_price_changed, changed_links);
        clear_marks(pop_changed, changed_classes);
        clear_marks(ext_flow_dirty, ext_dirty_flows);
    }

    /// Phase 1: re-solve the dirty flows' rates (Algorithm 1) against the
    /// term tables, recording bitwise rate changes. When
    /// `config.parallelism` resolves to more than one context and the pool
    /// dispatches, the inputs move into a [`RateJob`], shards `1..` run on
    /// parked workers while the caller runs shard 0, and the results are
    /// applied in shard order.
    fn solve_dirty_rates(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        rates: &mut Vec<f64>,
        populations: &mut Vec<f64>,
        prices: &mut PriceVector,
    ) {
        clear_marks(&mut self.rate_changed, &mut self.changed_rates);
        if self.dirty_flows.is_empty() {
            return;
        }
        let workers = config.parallelism.workers_for(self.dirty_flows.len());
        let pooled = pool
            .get()
            .filter(|p| workers > 1 && p.dispatches())
            .map(|p| (p, workers.min(p.workers() + 1)))
            .filter(|&(_, w)| w > 1);
        let Some((pool, workers)) = pooled else {
            // The sequential schedule is bit-identical to shard-and-apply:
            // a flow's solve reads `rates` only at its own index (the
            // solver's fallback), so in-place iteration sees the same
            // inputs a frozen pre-phase copy would.
            let Self { terms, dirty_flows, rate_changed, changed_rates, rate_scratch, .. } =
                self;
            let agg = &mut rate_scratch.agg;
            for &f in dirty_flows.iter() {
                let flow = FlowId::new(f);
                agg.refill_for_flow(problem, flow, populations);
                let price = prices.aggregate_price_from_table(terms, flow, populations);
                let next = solve_rate(agg, price, problem.flow(flow).bounds, rates[f as usize]);
                if next.to_bits() != rates[f as usize].to_bits() {
                    rates[f as usize] = next;
                    mark(rate_changed, changed_rates, f);
                }
            }
            return;
        };
        let chunk = shard_chunk(self.dirty_flows.len(), workers);
        let shards = shard_count(self.dirty_flows.len(), workers);
        let job = Job::Rates(RateJob {
            problem: Arc::clone(problem),
            terms: Arc::clone(&self.terms),
            dirty: std::mem::take(&mut self.dirty_flows),
            rates: std::mem::take(rates),
            populations: std::mem::take(populations),
            prices: std::mem::replace(prices, PriceVector::detached()),
            chunk,
            #[cfg(test)]
            panic_on_flow: self.panic_on_flow,
        });
        let scratch = &mut self.rate_scratch;
        let (job, panic) = pool.run(job, shards, |job| {
            if let Job::Rates(job) = job {
                job.run_shard(0, &mut scratch.out, &mut scratch.agg);
            }
        });
        // Move the inputs back out before anything can unwind, so a
        // panicking kernel leaves the engine's state intact.
        if let Job::Rates(job) = job {
            self.dirty_flows = job.dirty;
            *rates = job.rates;
            *populations = job.populations;
            *prices = job.prices;
        }
        if let Some(payload) = panic {
            self.rate_scratch.out.clear();
            pool.discard_outputs();
            std::panic::resume_unwind(payload);
        }
        let Self { rate_changed, changed_rates, rate_scratch, .. } = self;
        let mut apply = |f: u32, next: f64| {
            if next.to_bits() != rates[f as usize].to_bits() {
                rates[f as usize] = next;
                mark(rate_changed, changed_rates, f);
            }
        };
        for &(f, next) in &rate_scratch.out {
            apply(f, next);
        }
        for w in 0..shards - 1 {
            pool.drain_rates(w, &mut apply);
        }
        rate_scratch.out.clear();
    }

    /// Phase 1b (`Reliability::Joint` only): re-solve the dirty flows'
    /// reliability best-response against the current link prices and the
    /// freshly solved rates, recording bitwise ρ changes.
    ///
    /// The ρ dirty set is exactly `dirty_flows`: a flow's ρ inputs are the
    /// link prices along its path, the populations of its classes, and its
    /// own rate — the first two are the rate solve's inputs (so they dirty
    /// the flow through phase 0), and a rate can only move for a flow in the
    /// dirty set. A clean flow therefore re-derives the bitwise-same ρ, and
    /// skipping it is exact — the same argument that makes rate skipping
    /// exact, applied one phase later.
    #[allow(clippy::too_many_arguments)]
    fn solve_dirty_rhos(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        rates: &mut Vec<f64>,
        rhos: &mut Vec<f64>,
        populations: &mut Vec<f64>,
        prices: &mut PriceVector,
    ) {
        clear_marks(&mut self.rho_changed, &mut self.changed_rhos);
        let Some(redundancy) = problem.reliability().map(|spec| spec.redundancy) else {
            return;
        };
        if self.dirty_flows.is_empty() {
            return;
        }
        let workers = config.parallelism.workers_for(self.dirty_flows.len());
        let pooled = pool
            .get()
            .filter(|p| workers > 1 && p.dispatches())
            .map(|p| (p, workers.min(p.workers() + 1)))
            .filter(|&(_, w)| w > 1);
        let Some((pool, workers)) = pooled else {
            // Bit-identical to shard-and-apply for the same reason as the
            // rate phase: a flow's ρ solve reads `rhos` only at its own
            // index (the fallback).
            let Self { terms, dirty_flows, rho_changed, changed_rhos, .. } = self;
            let link_prices = prices.link_prices();
            for &f in dirty_flows.iter() {
                let flow = FlowId::new(f);
                let bounds = problem.rho_bounds(flow).unwrap_or_default();
                let next = solve_flow_rho(
                    terms,
                    flow,
                    link_prices,
                    populations,
                    rates[f as usize],
                    bounds,
                    redundancy,
                    rhos[f as usize],
                );
                if next.to_bits() != rhos[f as usize].to_bits() {
                    rhos[f as usize] = next;
                    mark(rho_changed, changed_rhos, f);
                }
            }
            return;
        };
        let chunk = shard_chunk(self.dirty_flows.len(), workers);
        let shards = shard_count(self.dirty_flows.len(), workers);
        let job = Job::Reliabilities(ReliabilityJob {
            problem: Arc::clone(problem),
            terms: Arc::clone(&self.terms),
            dirty: std::mem::take(&mut self.dirty_flows),
            rhos: std::mem::take(rhos),
            rates: std::mem::take(rates),
            populations: std::mem::take(populations),
            prices: std::mem::replace(prices, PriceVector::detached()),
            redundancy,
            chunk,
        });
        let scratch = &mut self.rho_scratch;
        let (job, panic) = pool.run(job, shards, |job| {
            if let Job::Reliabilities(job) = job {
                job.run_shard(0, scratch);
            }
        });
        if let Job::Reliabilities(job) = job {
            self.dirty_flows = job.dirty;
            *rhos = job.rhos;
            *rates = job.rates;
            *populations = job.populations;
            *prices = job.prices;
        }
        if let Some(payload) = panic {
            self.rho_scratch.clear();
            pool.discard_outputs();
            std::panic::resume_unwind(payload);
        }
        let Self { rho_changed, changed_rhos, rho_scratch, .. } = self;
        let mut apply = |f: u32, next: f64| {
            if next.to_bits() != rhos[f as usize].to_bits() {
                rhos[f as usize] = next;
                mark(rho_changed, changed_rhos, f);
            }
        };
        for &(f, next) in rho_scratch.iter() {
            apply(f, next);
        }
        for w in 0..shards - 1 {
            pool.drain_rhos(w, &mut apply);
        }
        rho_scratch.clear();
    }

    /// A node's admission inputs are the rates of the flows reaching it; it
    /// is dirty iff one of them changed in this iteration's phase 1 (or a
    /// delta dirtied it externally).
    fn derive_dirty_nodes(&mut self, problem: &Problem) {
        let Self {
            node_dirty,
            dirty_nodes,
            changed_rates,
            ext_node_dirty,
            ext_dirty_nodes,
            first,
            ..
        } = self;
        clear_marks(node_dirty, dirty_nodes);
        if *first {
            for b in 0..problem.num_nodes() as u32 {
                node_dirty[b as usize] = true;
                dirty_nodes.push(b);
            }
        } else {
            for &f in changed_rates.iter() {
                for &(node, _) in problem.nodes_of_flow(FlowId::new(f)) {
                    mark(node_dirty, dirty_nodes, node.index() as u32);
                }
            }
            for &b in ext_dirty_nodes.iter() {
                mark(node_dirty, dirty_nodes, b);
            }
            dirty_nodes.sort_unstable();
        }
        clear_marks(ext_node_dirty, ext_dirty_nodes);
    }

    /// Phase 2a: re-run greedy admission (Algorithm 2) on the dirty nodes,
    /// writing each node's scratch in place and the `used`/`BC` outcomes
    /// into the dense columns. Pooled execution moves the node scratch
    /// (with the rates) into an [`AdmissionJob`]; workers lock only their
    /// own shard's [`AdmissionOrder`]s.
    fn run_dirty_admissions(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        rates: &mut Vec<f64>,
    ) {
        if self.dirty_nodes.is_empty() {
            return;
        }
        let workers = config.parallelism.workers_for(self.dirty_nodes.len());
        let pooled = pool
            .get()
            .filter(|p| workers > 1 && p.dispatches())
            .map(|p| (p, workers.min(p.workers() + 1)))
            .filter(|&(_, w)| w > 1);
        let Some((pool, workers)) = pooled else {
            let Self { nodes, dirty_nodes, .. } = self;
            for &b in dirty_nodes.iter() {
                let slot = nodes.orders[b as usize]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                let (used, bc) = allocate_consumers_into(
                    problem,
                    NodeId::new(b),
                    rates,
                    config.population_mode,
                    config.admission_policy,
                    &mut slot.order,
                    &mut slot.populations,
                );
                nodes.used[b as usize] = used;
                nodes.bc[b as usize] = bc;
            }
            return;
        };
        let chunk = shard_chunk(self.dirty_nodes.len(), workers);
        let shards = shard_count(self.dirty_nodes.len(), workers);
        let job = Job::Admissions(AdmissionJob {
            problem: Arc::clone(problem),
            dirty: std::mem::take(&mut self.dirty_nodes),
            rates: std::mem::take(rates),
            orders: std::mem::take(&mut self.nodes.orders),
            mode: config.population_mode,
            policy: config.admission_policy,
            chunk,
        });
        let out = &mut self.admission_scratch;
        let (job, panic) = pool.run(job, shards, |job| {
            if let Job::Admissions(job) = job {
                job.run_shard(0, out);
            }
        });
        if let Job::Admissions(job) = job {
            self.dirty_nodes = job.dirty;
            *rates = job.rates;
            self.nodes.orders = job.orders;
        }
        if let Some(payload) = panic {
            self.admission_scratch.clear();
            pool.discard_outputs();
            std::panic::resume_unwind(payload);
        }
        let Self { nodes, admission_scratch, .. } = self;
        let mut apply = |b: u32, used: f64, bc: f64| {
            nodes.used[b as usize] = used;
            nodes.bc[b as usize] = bc;
        };
        for &(b, used, bc) in admission_scratch.iter() {
            apply(b, used, bc);
        }
        for w in 0..shards - 1 {
            pool.drain_admissions(w, &mut apply);
        }
        admission_scratch.clear();
    }

    /// Phase 2b: publish the dirty nodes' population decisions into the
    /// global array, recording bitwise changes (each class belongs to
    /// exactly one node, so writes never collide).
    fn apply_populations(&mut self, populations: &mut [f64]) {
        let Self { dirty_nodes, nodes, pop_changed, changed_classes, .. } = self;
        for &b in dirty_nodes.iter() {
            let slot =
                nodes.orders[b as usize].get_mut().unwrap_or_else(PoisonError::into_inner);
            for &(class, n) in &slot.populations {
                let target = &mut populations[class.index()];
                if n.to_bits() != target.to_bits() {
                    *target = n;
                    mark(pop_changed, changed_classes, class.index() as u32);
                }
            }
        }
        changed_classes.sort_unstable();
    }

    /// Phase 2c: the O(1) node price update (Eq. 12) plus γ observation runs
    /// for **every** node each iteration — controller state must advance
    /// exactly as in the baseline — reading the cached admission outcome
    /// from the dense `used`/`bc` columns.
    fn update_node_prices(
        &mut self,
        problem: &Problem,
        config: &LrgpConfig,
        prices: &mut PriceVector,
        gammas: &mut [GammaController],
    ) {
        for (b, ctl) in gammas.iter_mut().enumerate() {
            let node = NodeId::new(b as u32);
            let gamma = ctl.gamma();
            let next = update_node_price_with_rule(
                config.node_price_rule,
                prices.node(node),
                self.nodes.bc[b],
                self.nodes.used[b],
                problem.node(node).capacity,
                gamma,
                gamma,
            );
            ctl.observe_price(next);
            let before = prices.node(node);
            prices.set_node(node, next);
            if prices.node(node).to_bits() != before.to_bits() {
                mark(&mut self.node_price_changed, &mut self.changed_nodes, b as u32);
            }
        }
    }

    /// A link's usage inputs are the rates of the flows on it; it is dirty
    /// iff one of them changed in this iteration's phase 1 (or a delta
    /// dirtied it externally).
    fn derive_dirty_links(&mut self, problem: &Problem) {
        let Self {
            link_dirty,
            dirty_links,
            changed_rates,
            changed_rhos,
            ext_link_dirty,
            ext_dirty_links,
            first,
            ..
        } = self;
        clear_marks(link_dirty, dirty_links);
        if *first {
            for l in 0..problem.num_links() as u32 {
                link_dirty[l as usize] = true;
                dirty_links.push(l);
            }
        } else {
            for &f in changed_rates.iter() {
                for &(link, _) in problem.links_of_flow(FlowId::new(f)) {
                    mark(link_dirty, dirty_links, link.index() as u32);
                }
            }
            // Under Reliability::Joint the usage also reads ρ; the list is
            // permanently empty otherwise.
            for &f in changed_rhos.iter() {
                for &(link, _) in problem.links_of_flow(FlowId::new(f)) {
                    mark(link_dirty, dirty_links, link.index() as u32);
                }
            }
            for &l in ext_dirty_links.iter() {
                mark(link_dirty, dirty_links, l);
            }
            dirty_links.sort_unstable();
        }
        clear_marks(ext_link_dirty, ext_dirty_links);
    }

    /// Phase 3: recompute the dirty links' usage from the term tables, then
    /// run the O(1) Eq. 13 update for every link against the cached usage.
    fn update_link_usage_and_prices(
        &mut self,
        problem: &Problem,
        config: &LrgpConfig,
        rates: &[f64],
        rhos: &[f64],
        joint: bool,
        prices: &mut PriceVector,
    ) {
        if joint {
            // One strict left fold per dirty link with the redundancy
            // inflation folded into each term; kept on a separate branch so
            // the Off path below is byte-for-byte the pre-reliability loop.
            let redundancy =
                problem.reliability().map(|spec| spec.redundancy).unwrap_or_default();
            for &l in &self.dirty_links {
                let link = LinkId::new(l);
                let scale = redundancy * problem.link_loss(link);
                let mut usage = 0.0;
                for &(f, cost) in self.terms.link_usage_terms(link) {
                    usage += cost * rates[f as usize] * (1.0 + scale * rhos[f as usize]);
                }
                self.link_usage[l as usize] = usage;
            }
        } else {
            for &l in &self.dirty_links {
                let link = LinkId::new(l);
                // Same additions in the same `flows_on_link` order as
                // `Allocation::link_usage`, so the sum is bit-identical.
                let mut usage = 0.0;
                for &(f, cost) in self.terms.link_usage_terms(link) {
                    usage += cost * rates[f as usize];
                }
                self.link_usage[l as usize] = usage;
            }
        }
        for l in 0..problem.num_links() {
            let link = LinkId::new(l as u32);
            let next = update_link_price(
                prices.link(link),
                self.link_usage[l],
                problem.link(link).capacity,
                config.link_gamma,
            );
            let before = prices.link(link);
            prices.set_link(link, next);
            if prices.link(link).to_bits() != before.to_bits() {
                mark(&mut self.link_price_changed, &mut self.changed_links, l as u32);
            }
        }
    }
}

/// The reliability term `Σ_f mass_f · ln(ρ_f)` of the joint objective,
/// `mass_f = Σ_{j ∈ C_f} w_j · n_j` in `classes_of_flow` order (the same
/// fold order as [`crate::kernel::reliability::rho_mass`] over the term
/// table, so the step and this reporting helper agree bitwise). 0.0 when
/// the problem carries no [`lrgp_model::ReliabilitySpec`]. Since every
/// ρ is in `(0, 1]` the term is nonpositive — it measures how much utility
/// the flows concede by not insisting on perfect delivery.
pub(crate) fn reliability_utility(problem: &Problem, rhos: &[f64], populations: &[f64]) -> f64 {
    if problem.reliability().is_none() {
        return 0.0;
    }
    let mut total = 0.0;
    for flow in problem.flow_ids() {
        let mut mass = 0.0;
        for &class in problem.classes_of_flow(flow) {
            mass += problem.class(class).utility.weight() * populations[class.index()];
        }
        if mass != 0.0 {
            total += mass * rhos[flow.index()].ln();
        }
    }
    total
}

/// Total utility in exactly `Allocation::total_utility`'s order (ascending
/// class ids, zero-population classes skipped) — same additions, same bits.
fn total_utility(problem: &Problem, rates: &[f64], populations: &[f64]) -> f64 {
    let mut total = 0.0;
    for class in problem.class_ids() {
        let spec = problem.class(class);
        let n = populations[class.index()];
        if n > 0.0 {
            total += n * spec.utility.value(rates[spec.flow.index()]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, LrgpConfig};
    use crate::plan::{IncrementalMode, Parallelism, Reliability};
    use lrgp_model::workloads::{base_workload, mixed_loss_workload, RandomWorkload};
    use lrgp_model::{FlowId, LinkId, ProblemDelta, UtilityShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn incremental_config() -> LrgpConfig {
        LrgpConfig { incremental: IncrementalMode::On, ..LrgpConfig::default() }
    }

    #[test]
    fn incremental_matches_baseline_on_base_workload() {
        let problem = base_workload();
        let mut baseline = Engine::new(problem.clone(), LrgpConfig::default());
        let mut incremental = Engine::new(problem, incremental_config());
        for k in 0..200 {
            let a = baseline.step();
            let b = incremental.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
        }
        assert_eq!(baseline.allocation(), incremental.allocation());
        assert_eq!(baseline.prices(), incremental.prices());
    }

    #[test]
    fn incremental_threads_match_baseline() {
        let problem = base_workload();
        let mut baseline = Engine::new(problem.clone(), LrgpConfig::default());
        let config = LrgpConfig {
            parallelism: Parallelism::Threads(3),
            ..incremental_config()
        };
        let mut incremental = Engine::new(problem, config);
        incremental.force_pool_dispatch(true);
        for k in 0..120 {
            let a = baseline.step();
            let b = incremental.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
        }
    }

    #[test]
    fn dirty_sets_shrink_as_the_system_settles() {
        // The base workload settles into a small limit cycle (adaptive γ
        // keeps a couple of consumer-node prices moving by tiny steps), so
        // the dirty sets never fully drain — but they must shrink to the
        // churning core: the 6 source nodes carry no load, so their prices
        // pin at 0.0 bitwise and drop out, and at least some flows' rates
        // stop changing.
        let mut engine = Engine::new(base_workload(), incremental_config());
        engine.run(400);
        let problem_nodes = engine.problem().num_nodes();
        let problem_flows = engine.problem().num_flows();
        let state = engine.step_state().expect("state built after stepping");
        let (changed_rates, changed_nodes, changed_links) = state.changed_counts();
        assert!(
            changed_nodes <= 3,
            "only the 3 consumer nodes may keep changing, got {:?}",
            state.changed_node_ids()
        );
        assert!(changed_nodes < problem_nodes);
        assert!(changed_rates < problem_flows, "some rates must have pinned down");
        assert_eq!(changed_links, 0, "base workload has no links");
    }

    #[test]
    fn flow_removal_keeps_the_state_and_stays_identical() {
        let problem = base_workload();
        let mut baseline = Engine::new(problem.clone(), LrgpConfig::default());
        let mut incremental = Engine::new(problem, incremental_config());
        for _ in 0..80 {
            baseline.step();
            incremental.step();
        }
        let removal = ProblemDelta::new().remove_flow(FlowId::new(5));
        baseline.apply_delta(&removal).unwrap();
        incremental.apply_delta(&removal).unwrap();
        assert!(incremental.step_state().is_some(), "a removal patches the state in place");
        for k in 0..120 {
            let a = baseline.step();
            let b = incremental.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at post-removal iteration {k}");
        }
        assert_eq!(baseline.allocation(), incremental.allocation());
    }

    #[test]
    fn shape_keeping_deltas_do_not_mark_everything_dirty() {
        // A converged mid-size system: a departure, an `F_{b,i}` edit and a
        // re-join must each keep the step state, and the step after each
        // must recompute only part of the system.
        let mut rng = StdRng::seed_from_u64(3);
        let generator = RandomWorkload {
            flows: 60,
            consumer_nodes: 8,
            classes_per_flow: 3,
            ..RandomWorkload::default()
        };
        let problem = generator.generate(&mut rng);
        let flow = FlowId::new(7);
        let spec = problem.flow(flow).clone();
        let (node, cost) = spec.node_costs[0];
        let mut rejoin = ProblemDelta::new().set_rate_bounds(flow, spec.bounds);
        for &(node, cost) in &spec.node_costs {
            rejoin = rejoin.set_flow_node_cost(flow, node, cost);
        }
        for &class in problem.classes_of_flow(flow) {
            rejoin = rejoin.resize_class(class, problem.class(class).max_population);
        }
        let deltas = [
            ProblemDelta::new().set_flow_node_cost(flow, node, cost * 2.0),
            ProblemDelta::new().remove_flow(flow),
            rejoin,
        ];
        let mut engine = Engine::new(problem.clone(), incremental_config());
        engine.run_until_converged(2_000);
        for delta in &deltas {
            engine.apply_delta(delta).unwrap();
            assert!(engine.step_state().is_some(), "{delta:?} dropped the step state");
            engine.step();
            let (flows, nodes, _) = engine.step_state().expect("kept").dirty_counts();
            assert!(
                flows < problem.num_flows() || nodes < problem.num_nodes(),
                "{delta:?}: the next step marked everything dirty ({flows} flows, {nodes} nodes)"
            );
            engine.run(60);
        }
    }

    #[test]
    fn cost_edits_on_a_clone_leave_the_original_untouched() {
        // The term table is shared between clones until one of them patches
        // it. Cost edits on a clone of a converged lossy engine must leave
        // the original stepping exactly like an engine that was never
        // cloned, while the clone tracks the wholesale-rebuild oracle.
        // Power utilities and tight links keep ρ interior, so the loss
        // edits reach the ρ solve through the patched table.
        let config = LrgpConfig {
            reliability: Reliability::Joint,
            ..incremental_config()
        };
        let problem = mixed_loss_workload(6, 100.0, 7).with_utility_shape(UtilityShape::Pow75);
        let start = |p: &lrgp_model::Problem| {
            let mut engine = Engine::new(p.clone(), config);
            engine.run(150);
            engine
        };
        let mut original = start(&problem);
        let mut never_cloned = start(&problem);
        let mut oracle = start(&problem);
        let sink = problem.nodes_of_flow(FlowId::new(3))[0].0;
        let removal = ProblemDelta::new()
            .remove_flow(FlowId::new(1))
            .set_flow_node_cost(FlowId::new(3), sink, 0.5);
        let losses = ProblemDelta::new()
            .set_link_loss(LinkId::new(0), 0.35)
            .set_link_loss(LinkId::new(2), 0.05);
        let before = format!("{:?}", original.problem());
        let mut clone = original.clone();
        clone.apply_delta(&removal).unwrap();
        // The clone's first delta copied the shared problem; its second
        // edits the copy, which nobody else holds.
        assert_eq!(format!("{:?}", original.problem()), before);
        let copy: *const lrgp_model::Problem = clone.problem();
        clone.apply_delta(&losses).unwrap();
        assert!(std::ptr::eq(clone.problem(), copy), "the second delta copied the problem");
        let delta = removal.merge(losses);
        oracle.replace_problem(delta.apply(oracle.problem()).unwrap());
        for k in 0..80 {
            let (a, b) = (original.step(), never_cloned.step());
            assert_eq!(a.to_bits(), b.to_bits(), "original diverged at iteration {k}");
            let (c, d) = (clone.step(), oracle.step());
            assert_eq!(c.to_bits(), d.to_bits(), "clone diverged at iteration {k}");
        }
        let bits = |e: &Engine| e.rhos().iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        for (reference, candidate) in [(&never_cloned, &original), (&oracle, &clone)] {
            assert_eq!(reference.allocation(), candidate.allocation());
            assert_eq!(reference.prices(), candidate.prices());
            assert_eq!(bits(reference), bits(candidate));
        }
        assert_ne!(bits(&original)[4], bits(&clone)[4], "the loss edit must move ρ on link 2");
    }

    #[test]
    fn pooled_worker_panic_resumes_on_caller_and_pool_stays_usable() {
        // The regression fixture for panic propagation: arm the injection
        // hook so a pooled rate kernel panics, assert the unwind reaches
        // the caller with the original payload, then assert the very same
        // engine (and its pool) steps normally afterwards — and still
        // matches a clean reference bitwise.
        let config = LrgpConfig {
            parallelism: Parallelism::Threads(3),
            ..LrgpConfig::default()
        };
        let mut engine = Engine::new(base_workload(), config);
        engine.force_pool_dispatch(true);
        let mut reference = Engine::new(base_workload(), LrgpConfig::default());
        for _ in 0..5 {
            engine.step();
            reference.step();
        }
        engine.arm_rate_panic(Some(0));
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()));
        let payload = boom.expect_err("injected panic must unwind out of step()");
        let message = payload.downcast_ref::<String>().expect("payload preserved");
        assert!(message.contains("injected rate-kernel panic"), "{message}");
        // The engine's buffers were restored, the pool is reusable, and the
        // interrupted step left no partial results behind: disarm and
        // continue in lockstep with the reference (which never panicked and
        // never ran the interrupted iteration's writes).
        engine.arm_rate_panic(None);
        for k in 0..40 {
            let a = reference.step();
            let b = engine.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at post-panic iteration {k}");
        }
    }
}
