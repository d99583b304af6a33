//! The dirty-set step executor shared by every engine configuration.
//!
//! `StepState` owns the optimizer state (rates, ρ, populations, prices and
//! the γ controllers) and runs one LRGP iteration over it. It is the
//! **only** solve loop in the crate: the default
//! [`IncrementalMode::On`](crate::IncrementalMode::On) carries dirty sets
//! from step to step, a full recompute is simply the all-dirty special case
//! (the engine marks everything dirty first under
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
//! full recompute, enforced by `tests/differential.rs`. The state and the
//! record of its moves live in one struct, so every write to the state is
//! made next to its mark.
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
//! Two skips go further, because some inputs cannot change a result:
//!
//! * **Price-free flows.** A flow is *price-free* when its last solve found
//!   no class with a positive population and left its rate bitwise at
//!   `r_min`, and, when the step solves ρ, its ρ bitwise at `ρ_min`. With
//!   an empty aggregate, `solve_rate` returns `bounds.min` for a positive
//!   price and `bounds.clamp(fallback)` otherwise; the fallback is the
//!   stored rate, which is `bounds.min`, so every price (NaN included)
//!   gives `bounds.min`. The ρ solve of a flow with no admitted class has
//!   the same two branches, which is why the flag also needs ρ at `ρ_min`.
//!   So phase 0 skips a price-free flow's node and link price marks. Every
//!   other input still marks it: a population change in one of its classes,
//!   any delta on the flow, and the all-dirty first step (and panic path),
//!   which recomputes every flag. Each solve, sequential or pooled, rewrites
//!   the flag (`publish_flow`). Phase 0 reads the flags through per-node and
//!   per-link rows of the flows that are not price-free, so a moved price
//!   costs work in its busy flows only; the rows are rebuilt from the flags
//!   before the first incremental phase 0 after any flag flips or a flow
//!   joins.
//! * **Benefit–cost ratios.** Each admission-order entry keeps the rate its
//!   ratio was computed at, and a re-admission recomputes only the ratios
//!   whose flow rate moved bitwise (see [`crate::kernel::admission`]).
//!
//! # Dirty-set invariants
//!
//! | recompute          | iff one of its inputs changed bitwise            |
//! |--------------------|--------------------------------------------------|
//! | rate of flow `i`   | price of a node in `B_i` / link in `L_i` (unless the flow is price-free), or the population of a class in `C_i`, changed last iteration |
//! | admission at `b`   | the rate of a flow in `nodeMap(b)` changed this iteration |
//! | usage of link `l`  | the rate of a flow in `linkMap(l)` changed this iteration |
//! | price + γ of node `b` | its last update (Eq. 12) moved its price or γ controller, or its admission was recomputed this iteration |
//! | price of link `l`  | its last update (Eq. 13) moved its price, or its usage was recomputed this iteration |
//! | utility term of class `j` / flow `f` | the rate or population of `j` / the ρ or a population of `f` changed this iteration |
//! | total utility      | any rate, ρ or population changed this iteration |
//!
//! A price update is a pure function of the element's price, its γ
//! controller (a node's), its cached admission outcome (`BC`, `used`) or
//! link usage, and its capacity. An update that moved none of its own state
//! left its inputs as they were, so until one of the others changes it
//! would recompute the same bits: such an element leaves the price loop
//! until its admission or usage is recomputed, a capacity delta marks it,
//! or an all-dirty step runs. A node stays in the loop while its γ climbs
//! back to its ceiling even if its price holds, because γ is part of the
//! state the next update reads.
//!
//! The total utility folds cached per-class terms `n_j · U_j(r)` and, under
//! [`crate::plan::Reliability::Joint`], per-flow terms `mass_f · ln ρ_f`;
//! a step refreshes only the terms whose inputs moved (every term on an
//! all-dirty step, after a delta that moved a rate, ρ or population, or
//! when most rates moved) and adds them in ascending id, so the sum is the
//! one a full recompute forms, bit for bit.
//!
//! # Deltas
//!
//! Problem deltas ([`crate::engine::Engine::apply_delta`]) mark the next
//! step's work lists (`dirty_flows`, `dirty_nodes`, `dirty_links`)
//! directly. A step clears them when it finishes, so between steps they
//! hold exactly the marks of the deltas applied since, and the next step
//! adds what it derives to them. Each bound has one clamp-and-mark method:
//! `clamp_rate`, `clamp_population` and `clamp_rho` clamp the stored value
//! into the final problem's bounds and mark the flow (or, for a
//! population, the class's node, whose admission entry takes the new
//! maximum) dirty; a value the clamp moved also marks
//! what reads it — a rate its nodes, links and the utility, a population
//! its flow and the utility, a ρ its links and the utility. A capacity
//! change dirties that node's admission, or that link's usage, which puts
//! the element back into its price loop. Cost edits patch the term table in
//! place ([`PriceTermTable::refresh`]) and dirty exactly the readers of
//! the patched coefficients: a flow removal or `F_{b,i}` edit dirties the
//! flow, its nodes and its links; a loss edit dirties the link (joint
//! usage reads the loss) and every flow on it (the ρ solve reads
//! `cost · loss`). A flow addition appends the flow's rate, ρ and empty
//! classes, its rows in the table, its flags and its classes' admission
//! entries, and dirties it as a moved rate. A delta therefore costs work
//! proportional to what it touched.
//!
//! # State layout and the pooled handoff
//!
//! The hot per-node admission state is stored **struct-of-arrays**
//! (`NodeTable`): the Eq. 12 inputs `used` and `BC` live in two dense
//! `Vec<f64>`s read by the node price loop, while the bulky per-node
//! scratch (the sorted BC order and population decisions) lives in a
//! parallel vector of `AdmissionOrder` slots, each behind a `Mutex` so
//! pooled workers can re-admit disjoint shards concurrently
//! (each node belongs to exactly one shard, so the locks are uncontended;
//! the sequential path bypasses them with `Mutex::get_mut`).
//!
//! An admission reads only rows that belong to its node: its order
//! entries, each carrying its class's flow index, `n_j^max` and `G_{b,j}`
//! next to its ratio, and its flow-cost row of the term table
//! ([`PriceTermTable::flow_cost_terms`]). The class specs are read only to
//! re-rank an entry whose rate moved. `clamp_population` rewrites an
//! entry's `n_j^max` when a delta resizes or removes its class; the flow
//! index and `G` never change.
//!
//! A pooled phase *moves* its inputs into the pool's job slot (pointer
//! swaps via `mem::take` / `mem::replace`, never `O(problem)` copies, and
//! the problem and term table shared by `Arc`), the
//! caller runs shard 0 inline while workers run shards `1..`, and the
//! inputs move back out afterwards — so a steady-state step performs **no
//! heap allocation and no thread spawning** on either path. Results are
//! applied in shard order, which keeps the pooled schedule bit-identical
//! to the sequential one (see [`crate::plan`]). A panicking kernel
//! resumes its unwind on the caller *after* the inputs are restored, all
//! pending outputs are discarded and everything is marked dirty, leaving
//! the engine and the pool reusable: the next step is a full recompute of
//! the state the engine holds, in either [`IncrementalMode`]. (The
//! interrupted step had already consumed the previous step's change
//! lists, so an incremental step after it would skip flows whose prices
//! moved.) Phases that completed before the panic keep their writes.
//!
//! [`IncrementalMode`]: crate::IncrementalMode

use crate::engine::LrgpConfig;
use crate::gamma::{GammaController, GammaMode};
use crate::kernel::admission::{allocate_consumers_into, OrderEntry};
use crate::kernel::price::{update_link_price, update_node_price_with_rule, PriceVector};
use crate::kernel::rate::{solve_rate, AggregateUtility};
use crate::kernel::reliability::solve_flow_rho;
use crate::pool::{
    lock_unpoisoned, shard_chunk, shard_count, AdmissionJob, AdmissionOrder, FlowJob, Job,
    PoolHandle, ShardOut, WorkerPool,
};
use crate::snapshot::EngineSnapshot;
use lrgp_model::{ClassId, DeltaOp, FlowId, LinkId, NodeId, PriceTermTable, Problem};
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

/// A set of ids in `0..len`: a flag per id for O(1) membership, and the
/// marked ids in the order they were marked.
#[derive(Debug, Clone)]
struct Marks {
    flags: Vec<bool>,
    ids: Vec<u32>,
}

impl Marks {
    /// An empty set over `len` ids, with room to mark every one.
    fn new(len: usize) -> Self {
        Self { flags: vec![false; len], ids: Vec::with_capacity(len) }
    }

    /// Adds `id` unless it is already marked.
    #[inline]
    fn mark(&mut self, id: impl Into<u32>) {
        let id = id.into();
        let flag = &mut self.flags[id as usize];
        if !*flag {
            *flag = true;
            self.ids.push(id);
        }
    }

    /// Marks every id, in ascending order.
    fn mark_all(&mut self) {
        self.flags.fill(true);
        self.ids.clear();
        self.ids.extend(0..self.flags.len() as u32);
    }

    /// Unmarks every id.
    fn clear_marks(&mut self) {
        for &id in &self.ids {
            self.flags[id as usize] = false;
        }
        self.ids.clear();
    }

    /// Admits one more id, unmarked.
    fn grow(&mut self) {
        self.flags.push(false);
    }

    /// Calls `keep` on every marked id in order, and unmarks the ids for
    /// which it returns false.
    fn sift(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let flags = &mut self.flags;
        self.ids.retain(|&id| {
            let kept = keep(id);
            flags[id as usize] = kept;
            kept
        });
    }
}

/// Rows of flow ids in one flat buffer: row `r` is
/// `flows[starts[r]..starts[r + 1]]`.
#[derive(Debug, Clone)]
struct FlowRows {
    starts: Vec<usize>,
    flows: Vec<u32>,
}

impl FlowRows {
    /// Empty rows with room for `rows` rows and `flows` entries, so refills
    /// do not grow them.
    fn new(rows: usize, flows: usize) -> Self {
        Self { starts: Vec::with_capacity(rows + 1), flows: Vec::with_capacity(flows) }
    }

    /// Refills the rows from `index` (`flows_at_node` or `flows_on_link`
    /// rows), keeping the flows that are not price-free, in index order.
    fn fill_busy<'a>(&mut self, index: impl Iterator<Item = &'a [FlowId]>, price_free: &[bool]) {
        self.starts.clear();
        self.flows.clear();
        self.starts.push(0);
        for row in index {
            let ids = row.iter().map(|f| f.index() as u32);
            self.flows.extend(ids.filter(|&f| !price_free[f as usize]));
            self.starts.push(self.flows.len());
        }
    }

    /// Row `r`; empty past the end.
    fn row(&self, r: usize) -> &[u32] {
        match self.starts.get(r..r.saturating_add(2)) {
            Some(&[lo, hi]) => self.flows.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }
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
                        order: classes.iter().map(|&c| OrderEntry::new(problem, c)).collect(),
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

/// The optimizer state and everything the executor keeps to step it: the
/// values each iteration reads and publishes (rates, ρ, populations,
/// prices and γ), the term table, caches, dirty sets and scratch buffers.
/// Built once per engine, in `Engine::new`; every delta patches it in place
/// and marks what it moved.
#[derive(Debug, Clone)]
pub(crate) struct StepState {
    /// Per-flow rates, indexed by flow id.
    rates: Vec<f64>,
    /// Per-flow delivery reliabilities ρ. Pinned at each flow's `ρ_max`
    /// (1.0 without a [`lrgp_model::ReliabilitySpec`]) until a
    /// [`crate::plan::Reliability::Joint`] step re-solves them; a rate-only
    /// step carries them but never reads them.
    rhos: Vec<f64>,
    /// Per-class populations, indexed by class id.
    populations: Vec<f64>,
    prices: PriceVector,
    /// Per-node γ controllers, indexed by node id.
    gammas: Vec<GammaController>,
    terms: Arc<PriceTermTable>,
    nodes: NodeTable,
    link_usage: Vec<f64>,
    /// Nodes whose last price update moved their price or γ controller
    /// bitwise; the next node price loop visits them and the dirty nodes.
    live_nodes: Marks,
    /// Links whose last price update moved their price bitwise; the next
    /// link price loop visits them and the dirty links.
    live_links: Marks,
    /// Each class's utility term `n_j · U_j(r)`, current for every class
    /// with a positive population.
    class_terms: Vec<f64>,
    /// Each flow's reliability mass and, where the mass is nonzero, its
    /// term `mass_f · ln ρ_f` ([`rho_term`]); kept only under
    /// [`crate::plan::Reliability::Joint`].
    rho_terms: Vec<(f64, f64)>,
    cached_utility: f64,
    /// Everything dirty on the first step after (re)construction.
    first: bool,
    /// Forces the next step to republish the utility even if no rate or
    /// population changes *within* it (a delta changed them between steps).
    force_utility: bool,

    // Changes published by the previous iteration (inputs to this one):
    // node prices, link prices and populations.
    changed_nodes: Marks,
    changed_links: Marks,
    changed_classes: Marks,

    // Changes produced within the current iteration.
    changed_rates: Marks,
    /// Flows whose ρ moved bitwise this iteration. Only populated by
    /// [`crate::plan::Reliability::Joint`] steps; permanently empty under
    /// Off, so every consumer of this list is a no-op there.
    changed_rhos: Marks,
    /// Flows whose last solve left them price-free (see the module docs):
    /// a price move cannot change their solve, so phase 0 skips their
    /// price marks.
    price_free: Vec<bool>,
    /// For each node, the flows of `flows_at_node` that are not
    /// price-free: the flows a move of its price re-solves.
    busy_at_node: FlowRows,
    /// For each link, the flows of `flows_on_link` that are not
    /// price-free.
    busy_on_link: FlowRows,
    /// A flag flipped or a flow joined since the busy rows were built, so
    /// the next incremental phase 0 rebuilds them first.
    busy_stale: bool,

    // Work lists (sorted ascending before use). Between steps they hold
    // exactly the marks of the deltas applied since; a step adds what it
    // derives and clears them when it finishes.
    dirty_flows: Marks,
    dirty_nodes: Marks,
    dirty_links: Marks,

    /// The caller's rate-solve scratch, reused across steps.
    agg_scratch: AggregateUtility,
    /// The caller's shard-0 output in a pooled phase.
    out_scratch: Vec<ShardOut>,
    /// Panic-injection test hook, threaded into pooled flow jobs.
    #[cfg(test)]
    panic_on_flow: Option<u32>,
    /// The work-list sizes of the last completed step, for tests.
    #[cfg(test)]
    last_dirty: (usize, usize, usize),
    /// The node and link price updates of the last completed step, for
    /// tests.
    #[cfg(test)]
    last_price_updates: (usize, usize),
}

impl StepState {
    /// The paper's start on `problem` (every flow at `r_i^max` and `ρ_max`,
    /// no consumer admitted, every price at 0, every γ controller fresh
    /// under `gamma`), with fresh tables and empty caches; the first step
    /// marks everything dirty and fills the caches.
    pub(crate) fn new(problem: &Problem, gamma: GammaMode) -> Self {
        let (flows, nodes, links) = (problem.num_flows(), problem.num_nodes(), problem.num_links());
        let (rates, rhos) = problem.flow_ids().map(|f| initial_rate_and_rho(problem, f)).unzip();
        let at_nodes = problem.node_ids().map(|node| problem.flows_at_node(node).len()).sum();
        let on_links = problem.link_ids().map(|link| problem.flows_on_link(link).len()).sum();
        Self {
            rates,
            rhos,
            populations: vec![0.0; problem.num_classes()],
            prices: PriceVector::zeros(problem),
            gammas: vec![GammaController::new(gamma); nodes],
            terms: Arc::new(PriceTermTable::new(problem)),
            nodes: NodeTable::new(problem),
            link_usage: vec![0.0; links],
            live_nodes: Marks::new(nodes),
            live_links: Marks::new(links),
            class_terms: vec![0.0; problem.num_classes()],
            rho_terms: vec![(0.0, 0.0); flows],
            cached_utility: 0.0,
            first: true,
            force_utility: false,
            changed_nodes: Marks::new(nodes),
            changed_links: Marks::new(links),
            changed_classes: Marks::new(problem.num_classes()),
            changed_rates: Marks::new(flows),
            changed_rhos: Marks::new(flows),
            price_free: vec![false; flows],
            busy_at_node: FlowRows::new(nodes, at_nodes),
            busy_on_link: FlowRows::new(links, on_links),
            busy_stale: true,
            dirty_flows: Marks::new(flows),
            dirty_nodes: Marks::new(nodes),
            dirty_links: Marks::new(links),
            agg_scratch: AggregateUtility::default(),
            out_scratch: Vec::new(),
            #[cfg(test)]
            panic_on_flow: None,
            #[cfg(test)]
            last_dirty: (0, 0, 0),
            #[cfg(test)]
            last_price_updates: (0, 0),
        }
    }

    /// Per-flow rates, indexed by flow id.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-flow delivery reliabilities ρ, indexed by flow id.
    pub(crate) fn rhos(&self) -> &[f64] {
        &self.rhos
    }

    /// Per-class populations, indexed by class id.
    pub(crate) fn populations(&self) -> &[f64] {
        &self.populations
    }

    /// Node and link prices.
    pub(crate) fn prices(&self) -> &PriceVector {
        &self.prices
    }

    /// Per-node γ controllers, indexed by node id.
    pub(crate) fn gammas(&self) -> &[GammaController] {
        &self.gammas
    }

    /// Takes a snapshot's optimizer state (restore support) into a state
    /// fresh from [`Self::new`] over `problem`, then clamps every rate, ρ
    /// and population into `problem`'s bounds with the clamps a delta uses;
    /// over the snapshot's own problem nothing moves. The fresh admission
    /// entries already carry `problem`'s maxima, so populations take
    /// [`Self::cap_population`] alone. A snapshot without ρ keeps the
    /// initial ρ. Lengths are the caller's responsibility;
    /// [`crate::snapshot`] validates them against the problem.
    pub(crate) fn load_snapshot(&mut self, problem: &Problem, snapshot: EngineSnapshot) {
        self.rates = snapshot.rates;
        if !snapshot.rhos.is_empty() {
            self.rhos = snapshot.rhos;
        }
        self.populations = snapshot.populations;
        self.prices = snapshot.prices;
        self.gammas = snapshot.gamma_controllers;
        for flow in problem.flow_ids() {
            self.clamp_rate(problem, flow);
            self.clamp_rho(problem, flow);
        }
        for class in problem.class_ids() {
            self.cap_population(problem, class);
        }
    }

    /// Puts every rate and ρ back at its start on `problem` and empties
    /// every class, as [`Self::new`] starts them, and marks everything
    /// dirty: a delta on an engine that has not stepped.
    pub(crate) fn restart(&mut self, problem: &Problem) {
        for flow in problem.flow_ids() {
            (self.rates[flow.index()], self.rhos[flow.index()]) =
                initial_rate_and_rho(problem, flow);
        }
        self.populations.fill(0.0);
        self.mark_all_dirty();
    }

    /// Marks everything dirty for the next step, turning it into an exact
    /// full recompute ([`crate::engine::Engine::step`] calls this every
    /// step under `IncrementalMode::Off`, and a pooled phase calls it
    /// before it resumes a caught kernel panic).
    pub(crate) fn mark_all_dirty(&mut self) {
        self.first = true;
    }

    /// Marks `flow` and every node and link on its path dirty.
    fn mark_path(&mut self, problem: &Problem, flow: FlowId) {
        self.dirty_flows.mark(flow);
        for &(node, _) in problem.nodes_of_flow(flow) {
            self.dirty_nodes.mark(node);
        }
        for &(link, _) in problem.links_of_flow(flow) {
            self.dirty_links.mark(link);
        }
    }

    /// Clamps `flow`'s stored rate into its bounds in `problem` and marks
    /// the flow dirty. A rate the clamp moved also dirties every node and
    /// link it feeds (their cached admissions and usages were built against
    /// the old rate) and the cached utility.
    pub(crate) fn clamp_rate(&mut self, problem: &Problem, flow: FlowId) {
        let slot = &mut self.rates[flow.index()];
        let clamped = problem.flow(flow).bounds.clamp(*slot);
        self.dirty_flows.mark(flow);
        if clamped.to_bits() != slot.to_bits() {
            *slot = clamped;
            self.mark_path(problem, flow);
            self.force_utility = true;
        }
    }

    /// Writes `class`'s maximum in `problem` into its node's admission
    /// entry, which the greedy reads, then caps the population
    /// ([`Self::cap_population`]): a resized or removed class.
    pub(crate) fn clamp_population(&mut self, problem: &Problem, class: ClassId) {
        let spec = problem.class(class);
        if let Some(slot) = self.nodes.orders.get_mut(spec.node.index()) {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = slot.order.iter_mut().find(|entry| entry.class == class) {
                entry.n_max = f64::from(spec.max_population);
            }
        }
        self.cap_population(problem, class);
    }

    /// Caps `class`'s population at its maximum in `problem` and marks the
    /// class's node dirty (it must re-admit). A population the cap moved
    /// also dirties the class's flow (rate solves read populations) and the
    /// cached utility.
    fn cap_population(&mut self, problem: &Problem, class: ClassId) {
        let spec = problem.class(class);
        let slot = &mut self.populations[class.index()];
        let clamped = slot.min(spec.max_population as f64);
        self.dirty_nodes.mark(spec.node);
        if clamped.to_bits() != slot.to_bits() {
            *slot = clamped;
            self.dirty_flows.mark(spec.flow);
            self.force_utility = true;
        }
    }

    /// Clamps `flow`'s stored ρ into its bounds in `problem` (1.0 without a
    /// spec) and marks the flow dirty (the ρ solve clamps into the
    /// bounds). A ρ the clamp moved also dirties the flow's links (joint
    /// usage reads ρ) and the cached utility (its reliability term reads
    /// ρ).
    pub(crate) fn clamp_rho(&mut self, problem: &Problem, flow: FlowId) {
        let slot = &mut self.rhos[flow.index()];
        let clamped = problem.rho_bounds(flow).map_or(1.0, |bounds| bounds.clamp(*slot));
        self.dirty_flows.mark(flow);
        if clamped.to_bits() != slot.to_bits() {
            *slot = clamped;
            for &(link, _) in problem.links_of_flow(flow) {
                self.dirty_links.mark(link);
            }
            self.force_utility = true;
        }
    }

    /// Records that `op`, a node or link capacity edit, reached the problem:
    /// the node re-admits, or the link recomputes its usage, and either goes
    /// back into its price loop, whose update reads the capacity. Other ops
    /// mark nothing here.
    pub(crate) fn note_capacity_change(&mut self, op: &DeltaOp) {
        match *op {
            DeltaOp::SetNodeCapacity { node, .. } => self.dirty_nodes.mark(node),
            DeltaOp::SetLinkCapacity { link, .. } => self.dirty_links.mark(link),
            _ => {}
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
                self.mark_path(problem, flow);
            }
            DeltaOp::SetLinkLoss { link, .. } => {
                self.dirty_links.mark(link);
                // A flow that a later op of the batch adds is not here yet;
                // its addition dirties it and reads the final loss. The row
                // is ascending, so such flows come last.
                let known = self.rates.len();
                for &flow in problem.flows_on_link(link).iter().take_while(|f| f.index() < known) {
                    self.dirty_flows.mark(flow);
                }
            }
            _ => return,
        }
        Arc::make_mut(&mut self.terms).refresh(problem, op);
    }

    /// Records that `op`, a flow addition, reached the final `problem`,
    /// where the new flow holds the next flow id. Appends its rate (at
    /// `r_max`), its ρ (at `ρ_max`) and its empty classes, as
    /// [`Self::new`] starts every flow; grows the per-flow and per-class
    /// flags and utility terms, appends the flow's classes to their nodes'
    /// admission orders and its rows to the term table, and dirties it as a
    /// rate that moved: the flow, its nodes, its links and the utility.
    pub(crate) fn note_flow_added(&mut self, problem: &Problem, op: &DeltaOp) {
        let flow = FlowId::new(self.rates.len() as u32);
        let (rate, rho) = initial_rate_and_rho(problem, flow);
        self.rates.push(rate);
        self.rhos.push(rho);
        self.rho_terms.push((0.0, 0.0));
        for marks in [&mut self.dirty_flows, &mut self.changed_rates, &mut self.changed_rhos] {
            marks.grow();
        }
        self.price_free.push(false);
        self.busy_stale = true;
        for &class in problem.classes_of_flow(flow) {
            self.populations.push(0.0);
            self.class_terms.push(0.0);
            self.changed_classes.grow();
            if let Some(slot) = self.nodes.orders.get_mut(problem.class(class).node.index()) {
                let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
                slot.order.push(OrderEntry::new(problem, class));
            }
        }
        self.mark_path(problem, flow);
        self.force_utility = true;
        Arc::make_mut(&mut self.terms).refresh(problem, op);
    }

    /// The worst relative overload `max((usage − c) / c, 0)` over every
    /// node and link, read from the usages the last step cached (a link's
    /// carries the joint redundancy inflation). A NaN usage counts as an
    /// infinite overload.
    pub(crate) fn max_overload(&self, problem: &Problem) -> f64 {
        let nodes = problem.node_ids().map(|node| problem.node(node).capacity);
        let links = problem.link_ids().map(|link| problem.link(link).capacity);
        let usages = self.nodes.used.iter().chain(&self.link_usage);
        usages.zip(nodes.chain(links)).fold(0.0, |worst, (&usage, capacity)| {
            let overload =
                if usage.is_nan() { f64::INFINITY } else { (usage - capacity) / capacity };
            worst.max(overload)
        })
    }

    /// The current dirty/changed set sizes, for tests:
    /// `(changed_rates, changed_nodes, changed_links)` as published by the
    /// last completed step.
    #[cfg(test)]
    pub(crate) fn changed_counts(&self) -> (usize, usize, usize) {
        (self.changed_rates.ids.len(), self.changed_nodes.ids.len(), self.changed_links.ids.len())
    }

    /// The work-list sizes of the last completed step, for tests:
    /// `(dirty_flows, dirty_nodes, dirty_links)`.
    #[cfg(test)]
    pub(crate) fn dirty_counts(&self) -> (usize, usize, usize) {
        self.last_dirty
    }

    /// The node and link price updates of the last completed step, for
    /// tests: `(node updates, link updates)`.
    #[cfg(test)]
    pub(crate) fn price_update_counts(&self) -> (usize, usize) {
        self.last_price_updates
    }

    /// The work lists as they stand: between steps, the marks of the
    /// deltas applied since the last one, for tests.
    #[cfg(test)]
    pub(crate) fn work_lists(&self) -> [&[u32]; 3] {
        [&self.dirty_flows.ids, &self.dirty_nodes.ids, &self.dirty_links.ids]
    }

    /// The node ids whose prices changed in the last completed step.
    #[cfg(test)]
    pub(crate) fn changed_node_ids(&self) -> &[u32] {
        &self.changed_nodes.ids
    }

    /// Arms the panic-injection hook: the next pooled flow job panics when
    /// it reaches this flow id.
    #[cfg(test)]
    pub(crate) fn set_panic_on_flow(&mut self, flow: Option<u32>) {
        self.panic_on_flow = flow;
    }

    /// One LRGP iteration over the state under `config`, sharding over
    /// `pool` where `config.parallelism` asks for it. Returns the total
    /// utility (recomputed only when a rate or population changed).
    pub(crate) fn step(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
    ) -> f64 {
        // ρ is solved only under Reliability::Joint on a problem with a
        // reliability spec; everywhere else the step is exactly the classic
        // rate-only pipeline (changed_rhos stays permanently empty, and the
        // Off gates below never add a float operation).
        let joint = config.reliability.joint() && problem.reliability().is_some();
        self.derive_dirty_flows(problem);
        self.solve_dirty_flows(problem, config, pool, joint);
        self.derive_dirty_nodes(problem);
        self.run_dirty_admissions(problem, config, pool);
        self.apply_populations();
        self.update_node_prices(problem, config);
        self.derive_dirty_links(problem);
        self.update_link_usage_and_prices(problem, config, joint);
        self.publish_utility(problem, joint);
        #[cfg(test)]
        {
            let [flows, nodes, links] = self.work_lists();
            self.last_dirty = (flows.len(), nodes.len(), links.len());
        }
        self.dirty_flows.clear_marks();
        self.dirty_nodes.clear_marks();
        self.dirty_links.clear_marks();
        self.first = false;
        self.force_utility = false;
        self.cached_utility
    }

    /// Phase 0: a flow's rate inputs are the prices along its path and the
    /// populations of its classes; it is dirty iff one of them changed last
    /// iteration (or a delta marked it). A price move marks only the busy
    /// rows of its node or link, which leave out the price-free flows.
    /// Consumes (and clears) the previous iteration's change sets.
    fn derive_dirty_flows(&mut self, problem: &Problem) {
        let Self {
            dirty_flows,
            changed_nodes,
            changed_links,
            changed_classes,
            price_free,
            busy_at_node,
            busy_on_link,
            busy_stale,
            first,
            ..
        } = self;
        if *first {
            dirty_flows.mark_all();
        } else {
            if *busy_stale {
                let at_nodes = problem.node_ids().map(|node| problem.flows_at_node(node));
                busy_at_node.fill_busy(at_nodes, price_free);
                let on_links = problem.link_ids().map(|link| problem.flows_on_link(link));
                busy_on_link.fill_busy(on_links, price_free);
                *busy_stale = false;
            }
            for &b in &changed_nodes.ids {
                for &f in busy_at_node.row(b as usize) {
                    dirty_flows.mark(f);
                }
            }
            for &l in &changed_links.ids {
                for &f in busy_on_link.row(l as usize) {
                    dirty_flows.mark(f);
                }
            }
            for &c in &changed_classes.ids {
                dirty_flows.mark(problem.class(ClassId::new(c)).flow);
            }
            dirty_flows.ids.sort_unstable();
        }
        changed_nodes.clear_marks();
        changed_links.clear_marks();
        changed_classes.clear_marks();
    }

    /// Stores flow `f`'s solve: a rate or ρ that moved bitwise is written
    /// and marked changed, and the price-free flag is recorded (a flip
    /// stales the busy rows). The sequential pass and the pooled drain both
    /// publish through here. Inlined into both: as a call, the joint flow
    /// pass on the benchmark's `lossy_joint` spent about a tenth longer.
    #[inline(always)]
    fn publish_flow(&mut self, (f, rate, rho, free): ShardOut) {
        let i = f as usize;
        if rate.to_bits() != self.rates[i].to_bits() {
            self.rates[i] = rate;
            self.changed_rates.mark(f);
        }
        if rho.to_bits() != self.rhos[i].to_bits() {
            self.rhos[i] = rho;
            self.changed_rhos.mark(f);
        }
        if self.price_free[i] != free {
            self.price_free[i] = free;
            self.busy_stale = true;
        }
    }

    /// Phase 1: re-solve the dirty flows ([`solve_flow`]) and publish each
    /// result ([`Self::publish_flow`]). When `config.parallelism` resolves
    /// to more than one context and the pool dispatches, the inputs move
    /// into a [`FlowJob`], shards `1..` run on parked workers while the
    /// caller runs shard 0, and the results are published in shard order.
    ///
    /// The ρ dirty set is exactly `dirty_flows`: a flow's ρ inputs are the
    /// link prices along its path, the populations of its classes, and its
    /// own rate. The first two are the rate solve's inputs (so they dirty
    /// the flow through phase 0), this phase writes neither, and a rate can
    /// only move for a flow in the dirty set. A clean flow therefore
    /// re-derives the bitwise-same ρ, and skipping it is exact — the same
    /// argument that makes rate skipping exact.
    fn solve_dirty_flows(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
        joint: bool,
    ) {
        self.changed_rates.clear_marks();
        self.changed_rhos.clear_marks();
        let dirty = self.dirty_flows.ids.len();
        if dirty == 0 {
            return;
        }
        let redundancy = problem.reliability().filter(|_| joint).map(|spec| spec.redundancy);
        let Some((pool, workers)) = pool.dispatch(config.parallelism, dirty) else {
            // The sequential schedule is bit-identical to shard-and-apply:
            // a flow's solves read `rates` and `rhos` only at its own index
            // (the solvers' fallbacks), so in-place iteration sees the same
            // inputs a frozen pre-phase copy would.
            for k in 0..dirty {
                let f = self.dirty_flows.ids[k];
                let (rate, rho, free) = solve_flow(
                    problem,
                    &self.terms,
                    &self.prices,
                    &self.populations,
                    redundancy,
                    &mut self.agg_scratch,
                    FlowId::new(f),
                    self.rates[f as usize],
                    self.rhos[f as usize],
                );
                self.publish_flow((f, rate, rho, free));
            }
            return;
        };
        let chunk = shard_chunk(dirty, workers);
        let shards = shard_count(dirty, workers);
        let job = Job::Flows(FlowJob {
            problem: Arc::clone(problem),
            terms: Arc::clone(&self.terms),
            dirty: std::mem::take(&mut self.dirty_flows.ids),
            rates: std::mem::take(&mut self.rates),
            rhos: std::mem::take(&mut self.rhos),
            populations: std::mem::take(&mut self.populations),
            prices: std::mem::replace(&mut self.prices, PriceVector::detached()),
            redundancy,
            chunk,
            #[cfg(test)]
            panic_on_flow: self.panic_on_flow,
        });
        let Self { agg_scratch, out_scratch, .. } = self;
        let (job, panic) = pool.run(job, shards, |job| {
            if let Job::Flows(job) = job {
                job.run_shard(0, out_scratch, agg_scratch);
            }
        });
        // Move the inputs back out before anything can unwind, so a
        // panicking kernel leaves the state intact.
        if let Job::Flows(job) = job {
            self.dirty_flows.ids = job.dirty;
            self.rates = job.rates;
            self.rhos = job.rhos;
            self.populations = job.populations;
            self.prices = job.prices;
        }
        if let Some(payload) = panic {
            self.abandon_phase(pool, payload);
        }
        let mut inline = std::mem::take(&mut self.out_scratch);
        pool.drain(&mut inline, shards, |out| self.publish_flow(out));
        self.out_scratch = inline;
    }

    /// The panic path of a pooled phase, once its inputs are moved back:
    /// drops every pending shard output, marks everything dirty (the
    /// interrupted step already consumed the previous step's change lists)
    /// and resumes the unwind on the caller.
    fn abandon_phase(&mut self, pool: &WorkerPool, payload: Box<dyn Any + Send>) -> ! {
        self.out_scratch.clear();
        pool.discard_outputs();
        self.mark_all_dirty();
        std::panic::resume_unwind(payload)
    }

    /// A node's admission inputs are the rates of the flows reaching it; it
    /// is dirty iff one of them changed in this iteration's phase 1 (or a
    /// delta marked it).
    fn derive_dirty_nodes(&mut self, problem: &Problem) {
        let Self { dirty_nodes, changed_rates, first, .. } = self;
        if *first {
            dirty_nodes.mark_all();
        } else {
            for &f in &changed_rates.ids {
                for &(node, _) in problem.nodes_of_flow(FlowId::new(f)) {
                    dirty_nodes.mark(node);
                }
            }
            dirty_nodes.ids.sort_unstable();
        }
    }

    /// Phase 2a: re-run greedy admission (Algorithm 2) on the dirty nodes,
    /// each against its flow-cost row of the term table, writing each
    /// node's scratch in place and the `used`/`BC` outcomes into the dense
    /// columns. Pooled execution moves the node scratch (with the rates)
    /// into an [`AdmissionJob`], which shares the term table as a
    /// [`FlowJob`] does; workers lock only their own shard's
    /// [`AdmissionOrder`]s.
    fn run_dirty_admissions(
        &mut self,
        problem: &Arc<Problem>,
        config: &LrgpConfig,
        pool: &PoolHandle,
    ) {
        let dirty = self.dirty_nodes.ids.len();
        if dirty == 0 {
            return;
        }
        let Some((pool, workers)) = pool.dispatch(config.parallelism, dirty) else {
            let Self { nodes, dirty_nodes, rates, terms, .. } = self;
            for &b in &dirty_nodes.ids {
                let slot = nodes.orders[b as usize]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                let node = NodeId::new(b);
                let (used, bc) = allocate_consumers_into(
                    problem,
                    node,
                    terms.flow_cost_terms(node),
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
        let chunk = shard_chunk(dirty, workers);
        let shards = shard_count(dirty, workers);
        let job = Job::Admissions(AdmissionJob {
            problem: Arc::clone(problem),
            terms: Arc::clone(&self.terms),
            dirty: std::mem::take(&mut self.dirty_nodes.ids),
            rates: std::mem::take(&mut self.rates),
            orders: std::mem::take(&mut self.nodes.orders),
            mode: config.population_mode,
            policy: config.admission_policy,
            chunk,
        });
        let out = &mut self.out_scratch;
        let (job, panic) = pool.run(job, shards, |job| {
            if let Job::Admissions(job) = job {
                job.run_shard(0, out);
            }
        });
        if let Job::Admissions(job) = job {
            self.dirty_nodes.ids = job.dirty;
            self.rates = job.rates;
            self.nodes.orders = job.orders;
        }
        if let Some(payload) = panic {
            self.abandon_phase(pool, payload);
        }
        let Self { nodes, out_scratch, .. } = self;
        pool.drain(out_scratch, shards, |(b, used, bc, _)| {
            nodes.used[b as usize] = used;
            nodes.bc[b as usize] = bc;
        });
    }

    /// Phase 2b: publish the dirty nodes' population decisions into the
    /// global array, recording bitwise changes (each class belongs to
    /// exactly one node, so writes never collide).
    fn apply_populations(&mut self) {
        let Self { dirty_nodes, nodes, populations, changed_classes, .. } = self;
        for &b in &dirty_nodes.ids {
            let slot =
                nodes.orders[b as usize].get_mut().unwrap_or_else(PoisonError::into_inner);
            for &(class, n) in &slot.populations {
                let target = &mut populations[class.index()];
                if n.to_bits() != target.to_bits() {
                    *target = n;
                    changed_classes.mark(class);
                }
            }
        }
        changed_classes.ids.sort_unstable();
    }

    /// Phase 2c: the node price update (Eq. 12) and its γ observation, read
    /// from the cached admission outcome in the dense `used`/`bc` columns,
    /// for the live nodes and the dirty ones (every node on an all-dirty
    /// step). Any other node would recompute the bits it holds (see the
    /// module docs). A node whose update moves neither its price nor its γ
    /// controller leaves the live list.
    fn update_node_prices(&mut self, problem: &Problem, config: &LrgpConfig) {
        let Self { gammas, prices, nodes, dirty_nodes, live_nodes, changed_nodes, .. } = self;
        for &b in &dirty_nodes.ids {
            live_nodes.mark(b);
        }
        #[cfg(test)]
        let visits = live_nodes.ids.len();
        live_nodes.sift(|b| {
            let node = NodeId::new(b);
            let ctl = &mut gammas[b as usize];
            let (before, gamma) = (prices.node(node), ctl.gamma());
            let next = update_node_price_with_rule(
                config.node_price_rule,
                before,
                nodes.bc[b as usize],
                nodes.used[b as usize],
                problem.node(node).capacity,
                gamma,
                gamma,
            );
            let ctl_moved = ctl.observe_price_moved(next);
            prices.set_node(node, next);
            let moved = prices.node(node).to_bits() != before.to_bits();
            if moved {
                changed_nodes.mark(node);
            }
            moved || ctl_moved
        });
        #[cfg(test)]
        {
            self.last_price_updates.0 = visits;
        }
    }

    /// A link's usage inputs are the rates of the flows on it, and under
    /// Reliability::Joint their ρ; it is dirty iff one of them changed in
    /// this iteration's phase 1 (or a delta marked it).
    fn derive_dirty_links(&mut self, problem: &Problem) {
        let Self { dirty_links, changed_rates, changed_rhos, first, .. } = self;
        if *first {
            dirty_links.mark_all();
        } else {
            // The ρ list is permanently empty outside Reliability::Joint.
            for &f in changed_rates.ids.iter().chain(&changed_rhos.ids) {
                for &(link, _) in problem.links_of_flow(FlowId::new(f)) {
                    dirty_links.mark(link);
                }
            }
            dirty_links.ids.sort_unstable();
        }
    }

    /// Phase 3: recompute the dirty links' usage from the term tables, then
    /// run the Eq. 13 update against the cached usage for the live links
    /// and the dirty ones (every link on an all-dirty step). A link whose
    /// update leaves its price bitwise where it was leaves the live list.
    fn update_link_usage_and_prices(
        &mut self,
        problem: &Problem,
        config: &LrgpConfig,
        joint: bool,
    ) {
        let Self {
            rates,
            rhos,
            prices,
            terms,
            link_usage,
            dirty_links,
            live_links,
            changed_links,
            ..
        } = self;
        if joint {
            // One strict left fold per dirty link with the redundancy
            // inflation folded into each term; kept on a separate branch so
            // the Off path below is byte-for-byte the pre-reliability loop.
            let redundancy =
                problem.reliability().map(|spec| spec.redundancy).unwrap_or_default();
            for &l in &dirty_links.ids {
                let link = LinkId::new(l);
                let scale = redundancy * problem.link_loss(link);
                let mut usage = 0.0;
                for &(f, cost) in terms.link_usage_terms(link) {
                    usage += cost * rates[f as usize] * (1.0 + scale * rhos[f as usize]);
                }
                link_usage[l as usize] = usage;
            }
        } else {
            for &l in &dirty_links.ids {
                let link = LinkId::new(l);
                // Same additions in the same `flows_on_link` order as
                // `Allocation::link_usage`, so the sum is bit-identical.
                let mut usage = 0.0;
                for &(f, cost) in terms.link_usage_terms(link) {
                    usage += cost * rates[f as usize];
                }
                link_usage[l as usize] = usage;
            }
        }
        for &l in &dirty_links.ids {
            live_links.mark(l);
        }
        #[cfg(test)]
        let visits = live_links.ids.len();
        live_links.sift(|l| {
            let link = LinkId::new(l);
            let before = prices.link(link);
            let usage = link_usage[l as usize];
            let capacity = problem.link(link).capacity;
            let next = update_link_price(before, usage, capacity, config.link_gamma);
            prices.set_link(link, next);
            let moved = prices.link(link).to_bits() != before.to_bits();
            if moved {
                changed_links.mark(link);
            }
            moved
        });
        #[cfg(test)]
        {
            self.last_price_updates.1 = visits;
        }
    }

    /// Republishes the total utility when a rate, ρ or population moved
    /// this iteration, from the cached terms (see the module docs): first
    /// the terms whose inputs moved are refreshed, then the cache is folded
    /// in ascending id, skipping empty classes and zero-mass flows. An
    /// all-dirty step, one after a delta that moved a rate, ρ or population
    /// (`force_utility`), and one that moved most rates (where a separate
    /// refresh pass would touch most terms anyway) refresh every term
    /// inside the fold. These are the products and the additions of
    /// `Allocation::total_utility` and [`reliability_utility`], in their
    /// order, so the sum is theirs bit for bit.
    fn publish_utility(&mut self, problem: &Problem, joint: bool) {
        let Self {
            rates,
            rhos,
            populations,
            class_terms,
            rho_terms,
            changed_rates,
            changed_rhos,
            changed_classes,
            cached_utility,
            first,
            force_utility,
            ..
        } = self;
        let all = *first || *force_utility || 2 * changed_rates.ids.len() > rates.len();
        if !all {
            if changed_rates.ids.is_empty()
                && changed_rhos.ids.is_empty()
                && changed_classes.ids.is_empty()
            {
                return;
            }
            for &f in &changed_rates.ids {
                for &class in problem.classes_of_flow(FlowId::new(f)) {
                    let n = populations[class.index()];
                    if n > 0.0 {
                        class_terms[class.index()] = class_term(problem, class, n, rates);
                    }
                }
            }
            // A class whose rate moved was refreshed above.
            for &c in &changed_classes.ids {
                let class = ClassId::new(c);
                let n = populations[class.index()];
                if n > 0.0 && !changed_rates.flags[problem.class(class).flow.index()] {
                    class_terms[class.index()] = class_term(problem, class, n, rates);
                }
            }
            if joint {
                for &f in &changed_rhos.ids {
                    rho_terms[f as usize] = rho_term(problem, FlowId::new(f), rhos, populations);
                }
                // A flow whose ρ moved was refreshed above.
                for &c in &changed_classes.ids {
                    let flow = problem.class(ClassId::new(c)).flow;
                    if !changed_rhos.flags[flow.index()] {
                        rho_terms[flow.index()] = rho_term(problem, flow, rhos, populations);
                    }
                }
            }
        }
        let mut total = 0.0;
        for class in problem.class_ids() {
            let n = populations[class.index()];
            if n > 0.0 {
                if all {
                    class_terms[class.index()] = class_term(problem, class, n, rates);
                }
                total += class_terms[class.index()];
            }
        }
        if joint {
            let mut reliability = 0.0;
            for flow in problem.flow_ids() {
                if all {
                    rho_terms[flow.index()] = rho_term(problem, flow, rhos, populations);
                }
                let (mass, term) = rho_terms[flow.index()];
                if mass != 0.0 {
                    reliability += term;
                }
            }
            total += reliability;
        }
        *cached_utility = total;
    }
}

/// A flow's starting rate and ρ, where the paper's runs start it: `r_max`,
/// the optimistic start that reproduces the initial oscillation of Fig. 1,
/// and `ρ_max`, or 1.0 (lossless delivery) without a
/// [`lrgp_model::ReliabilitySpec`].
fn initial_rate_and_rho(problem: &Problem, flow: FlowId) -> (f64, f64) {
    (problem.flow(flow).bounds.max, problem.rho_bounds(flow).map_or(1.0, |bounds| bounds.max))
}

/// Solves `flow`'s rate (Algorithm 1) against the term table and, when
/// `redundancy` is set (a joint step), its reliability best response against
/// the rate just solved. `rate` and `rho` are the stored values, the
/// solvers' fallbacks. Returns the new rate and ρ, and whether the flow is
/// now price-free: no class of it has a positive population, and its rate,
/// and its ρ when solved, sit bitwise at their lower bounds. The sequential
/// pass and the pooled [`FlowJob`] both solve through here, so their flags
/// agree. Inlined into both loops: as a call, the joint flow pass on the
/// benchmark's `lossy_joint` spent about a tenth longer.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn solve_flow(
    problem: &Problem,
    terms: &PriceTermTable,
    prices: &PriceVector,
    populations: &[f64],
    redundancy: Option<f64>,
    agg: &mut AggregateUtility,
    flow: FlowId,
    rate: f64,
    rho: f64,
) -> (f64, f64, bool) {
    agg.refill_for_flow(problem, flow, populations);
    let price = prices.aggregate_price_from_table(terms, flow, populations);
    let bounds = problem.flow(flow).bounds;
    let rate = solve_rate(agg, price, bounds, rate);
    let price_free = agg.is_empty() && rate.to_bits() == bounds.min.to_bits();
    let Some(redundancy) = redundancy else { return (rate, rho, price_free) };
    let bounds = problem.rho_bounds(flow).unwrap_or_default();
    let rho = solve_flow_rho(
        terms,
        flow,
        prices.link_prices(),
        populations,
        rate,
        bounds,
        redundancy,
        rho,
    );
    (rate, rho, price_free && rho.to_bits() == bounds.min.to_bits())
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
        let (mass, term) = rho_term(problem, flow, rhos, populations);
        if mass != 0.0 {
            total += term;
        }
    }
    total
}

/// `flow`'s reliability mass `Σ_{j ∈ C_f} w_j · n_j`, folded in
/// `classes_of_flow` order, and its term `mass · ln(ρ_f)` of the joint
/// objective (0.0 where the mass is zero, which the sum skips).
fn rho_term(problem: &Problem, flow: FlowId, rhos: &[f64], populations: &[f64]) -> (f64, f64) {
    let mut mass = 0.0;
    for &class in problem.classes_of_flow(flow) {
        mass += problem.class(class).utility.weight() * populations[class.index()];
    }
    (mass, if mass != 0.0 { mass * rhos[flow.index()].ln() } else { 0.0 })
}

/// `class`'s utility term `n · U_j(r)` at population `n` and its flow's
/// rate, the product `Allocation::total_utility` sums.
fn class_term(problem: &Problem, class: ClassId, n: f64, rates: &[f64]) -> f64 {
    let spec = problem.class(class);
    n * spec.utility.value(rates[spec.flow.index()])
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, LrgpConfig};
    use crate::gamma::{GammaController, GammaMode};
    use crate::plan::{IncrementalMode, Parallelism, Reliability};
    use crate::snapshot::EngineSnapshot;
    use lrgp_model::workloads::{
        base_workload, link_bottleneck_workload, mixed_loss_workload, RandomWorkload,
    };
    use lrgp_model::{
        FlowId, LinkId, Problem, ProblemBuilder, ProblemDelta, RateBounds, UtilityShape,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn incremental_config() -> LrgpConfig {
        LrgpConfig { incremental: IncrementalMode::On, ..LrgpConfig::default() }
    }

    /// The all-dirty reference every incremental engine is compared with.
    fn baseline_config() -> LrgpConfig {
        LrgpConfig { incremental: IncrementalMode::Off, ..LrgpConfig::default() }
    }

    #[test]
    fn incremental_matches_baseline_on_base_workload() {
        let problem = base_workload();
        let mut baseline = Engine::new(problem.clone(), baseline_config());
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
        let mut baseline = Engine::new(problem.clone(), baseline_config());
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
        let state = engine.step_state();
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

    /// `huge_cold`'s shape at debug size: 120 mixed-shape flows, each from
    /// its own source node, feeding 4 consumer nodes (ids 0–3).
    fn many_flows_few_consumers() -> Problem {
        let generator = RandomWorkload {
            flows: 120,
            consumer_nodes: 4,
            classes_per_flow: 10,
            mixed_shapes: true,
            ..RandomWorkload::default()
        };
        generator.generate(&mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn price_free_flows_leave_the_dirty_set_on_both_paths() {
        // Many mixed-shape flows per consumer node. Most settle at `r_min`
        // with no admitted class while the consumer-node prices keep
        // moving, so a converged step re-solves fewer flows than a price
        // move reaches. The pooled engine takes its flags from the pool's
        // drain; it must skip exactly the flows the sequential one skips,
        // on every step.
        let problem = many_flows_few_consumers();
        let flows = problem.num_flows();
        let mut sequential = Engine::new(problem.clone(), incremental_config());
        let config = LrgpConfig { parallelism: Parallelism::Threads(2), ..incremental_config() };
        let mut pooled = Engine::new(problem, config);
        pooled.force_pool_dispatch(true);
        for k in 0..200 {
            let (a, b) = (sequential.step(), pooled.step());
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at iteration {k}");
            let (seq, par) = (sequential.step_state(), pooled.step_state());
            assert_eq!(seq.dirty_counts(), par.dirty_counts(), "dirty sets at iteration {k}");
            let updates = seq.price_update_counts();
            assert_eq!(updates, par.price_update_counts(), "price updates at iteration {k}");
        }
        let (_, moved, _) = sequential.step_state().changed_counts();
        assert!(moved > 0, "no node price moves, so no flow is marked by one");
        let (dirty, _, _) = sequential.step_state().dirty_counts();
        assert!(2 * dirty < flows, "a converged step re-solved {dirty} of {flows} flows");
    }

    #[test]
    fn settled_prices_leave_the_price_loops_on_both_paths() {
        // A converged step updates the prices that still move and the
        // dirty elements, nothing else: on the mixed-shape system the
        // consumer nodes keep moving and the 120 load-free sources settle
        // at 0; on an uncongested link bottleneck every price settles. A
        // capacity delta on a settled node or link puts it back into the
        // next step's loop, which an engine cloned before the delta does
        // not visit.
        let cases = [(many_flows_few_consumers(), 4), (link_bottleneck_workload(1e6), 0)];
        for (problem, consumers) in cases {
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let config = LrgpConfig { parallelism, ..incremental_config() };
                let mut engine = Engine::new(problem.clone(), config);
                engine.force_pool_dispatch(true);
                let mut baseline = Engine::new(problem.clone(), baseline_config());
                for k in 0..200 {
                    let (a, b) = (engine.step(), baseline.step());
                    assert_eq!(a.to_bits(), b.to_bits(), "{parallelism:?}: diverged at {k}");
                }
                assert_eq!(engine.prices(), baseline.prices(), "{parallelism:?}");
                let state = engine.step_state();
                let (nodes, links) = state.price_update_counts();
                let (_, dirty_nodes, dirty_links) = state.dirty_counts();
                assert!(nodes <= consumers + dirty_nodes, "{parallelism:?}: {nodes} node updates");
                assert!(links <= dirty_links, "{parallelism:?}: {links} link updates");
                let everything = (problem.num_nodes(), problem.num_links());
                assert_eq!(baseline.step_state().price_update_counts(), everything);

                let node = problem.node_ids().find(|b| !state.live_nodes.flags[b.index()]);
                let node = node.expect("a settled node");
                let capacity = problem.node(node).capacity * 2.0;
                let mut deltas =
                    vec![(ProblemDelta::new().set_node_capacity(node, capacity), (1, 0))];
                if problem.num_links() > 0 {
                    let link = problem.link_ids().find(|l| !state.live_links.flags[l.index()]);
                    let link = link.expect("a settled link");
                    let capacity = problem.link(link).capacity * 2.0;
                    deltas.push((ProblemDelta::new().set_link_capacity(link, capacity), (0, 1)));
                }
                for (delta, (extra_nodes, extra_links)) in &deltas {
                    let label = format!("{parallelism:?} {delta:?}");
                    let mut untouched = engine.clone();
                    untouched.step();
                    engine.apply_delta(delta).unwrap();
                    baseline.apply_delta(delta).unwrap();
                    let (a, b) = (engine.step(), baseline.step());
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}");
                    let (nodes, links) = untouched.step_state().price_update_counts();
                    let expected = (nodes + extra_nodes, links + extra_links);
                    assert_eq!(engine.step_state().price_update_counts(), expected, "{label}");
                    for k in 1..20 {
                        let (a, b) = (engine.step(), baseline.step());
                        assert_eq!(a.to_bits(), b.to_bits(), "{label}: step {k}");
                    }
                    assert_eq!(engine.prices(), baseline.prices(), "{label}");
                }
            }
        }
    }

    #[test]
    fn a_node_whose_gamma_climbs_under_a_held_price_stays_in_the_price_loop() {
        // One flow feeding a consumer node with room for all ten of its
        // consumers: BC is 0, so the node's price holds at 0 from the
        // first step. Restored with a γ controller that has just seen a
        // fluctuation (γ halved to 0.05), the price still holds while γ
        // climbs back by 0.001 a step; a capacity cut then leaves demand
        // unadmitted, and the next update reads γ. A node settled on its
        // price alone would carry a stale γ into that update.
        let mut builder = ProblemBuilder::new();
        let source = builder.add_node(1e9);
        let sink = builder.add_node(1e9);
        let flow = builder.add_flow(source, RateBounds::new(1.0, 100.0).unwrap());
        builder.set_node_cost(flow, sink, 0.001);
        builder.add_class(flow, sink, 10, UtilityShape::Log.build(20.0), 0.001);
        let problem = builder.build().unwrap();
        let mut settled = Engine::new(problem.clone(), incremental_config());
        settled.run(5);
        let mut snapshot = settled.snapshot();
        assert_eq!(snapshot.prices.node(sink).to_bits(), 0.0f64.to_bits());
        let mut fluctuated = GammaController::new(GammaMode::Adaptive);
        fluctuated.observe_price(1.0);
        fluctuated.observe_price(0.0);
        assert_eq!(fluctuated.gamma(), 0.05);
        snapshot.gamma_controllers[sink.index()] = fluctuated;
        let cut = ProblemDelta::new().set_node_capacity(sink, 0.5);
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let restore = |config| {
                let snapshot = EngineSnapshot { config, ..snapshot.clone() };
                let engine = Engine::restore(problem.clone(), snapshot).unwrap();
                engine.force_pool_dispatch(true);
                engine
            };
            let mut reference = restore(baseline_config());
            let mut engine = restore(LrgpConfig { parallelism, ..incremental_config() });
            let lockstep = |reference: &mut Engine, engine: &mut Engine, label: &str| {
                for k in 0..6 {
                    let (a, b) = (reference.step(), engine.step());
                    assert_eq!(a.to_bits(), b.to_bits(), "{parallelism:?} {label} {k}");
                    assert_eq!(reference.prices(), engine.prices(), "{parallelism:?} {label} {k}");
                    let (x, y) = (reference.node_gamma(sink), engine.node_gamma(sink));
                    assert_eq!(x.to_bits(), y.to_bits(), "{parallelism:?} {label} {k}: γ");
                }
            };
            lockstep(&mut reference, &mut engine, "quiet");
            assert_eq!(engine.prices().node(sink), 0.0, "the price must hold");
            assert!(engine.node_gamma(sink) > 0.055, "γ must climb");
            reference.apply_delta(&cut).unwrap();
            engine.apply_delta(&cut).unwrap();
            lockstep(&mut reference, &mut engine, "cut");
            assert!(engine.prices().node(sink) > 0.0, "the cut must price the node");
        }
    }

    #[test]
    fn work_lists_hold_exactly_a_deltas_marks_between_steps() {
        // A delta marks the next step's work lists, and a step clears them
        // when it finishes, so between steps they hold exactly the marks of
        // the deltas applied since.
        let problem = mixed_loss_workload(6, 100.0, 7);
        let lists = |e: &Engine| e.step_state().work_lists().map(<[u32]>::to_vec);
        let none: [&[u32]; 3] = [&[]; 3];
        let mut engine = Engine::new(problem.clone(), incremental_config());
        engine.run(150);
        assert_eq!(lists(&engine), none, "after a step with no delta");

        let node = problem.nodes_of_flow(FlowId::new(3))[0].0;
        let capacity = problem.node(node).capacity;
        engine.apply_delta(&ProblemDelta::new().set_node_capacity(node, capacity / 2.0)).unwrap();
        assert_eq!(lists(&engine), [vec![], vec![node.index() as u32], vec![]], "capacity");
        engine.step();
        assert_eq!(lists(&engine), none, "after the capacity delta's step");

        let link = LinkId::new(2);
        let capacity = problem.link(link).capacity;
        engine.apply_delta(&ProblemDelta::new().set_link_capacity(link, capacity * 2.0)).unwrap();
        assert_eq!(lists(&engine), [vec![], vec![], vec![2]], "link capacity");
        engine.step();
        assert_eq!(lists(&engine), none, "after the link capacity delta's step");

        let flow = FlowId::new(1);
        let bounds = problem.flow(flow).bounds;
        let held = engine.allocation().rate(flow);
        assert!(held > bounds.min, "the rate cut must bind");
        let cut = RateBounds::new(bounds.min, (bounds.min + held) / 2.0).unwrap();
        engine.apply_delta(&ProblemDelta::new().set_rate_bounds(flow, cut)).unwrap();
        let nodes: Vec<u32> = problem.nodes_of_flow(flow).iter().map(|&(b, _)| b.into()).collect();
        let links: Vec<u32> = problem.links_of_flow(flow).iter().map(|&(l, _)| l.into()).collect();
        assert!(!links.is_empty(), "the flow must cross a link");
        assert_eq!(lists(&engine), [vec![1], nodes, links], "binding rate bound");
        engine.step();
        assert_eq!(lists(&engine), none, "after the rate delta's step");
    }

    /// Asserts the invariant phase 0 relies on: unless they are marked
    /// stale, the busy rows hold exactly the flows of each node's and
    /// link's index row that are not price-free.
    fn assert_busy_rows_current(engine: &Engine, label: &str) {
        let (state, problem) = (engine.step_state(), engine.problem());
        if state.busy_stale {
            return;
        }
        let busy = |flows: &[FlowId]| -> Vec<u32> {
            let ids = flows.iter().map(|f| f.index() as u32);
            ids.filter(|&f| !state.price_free[f as usize]).collect()
        };
        for node in problem.node_ids() {
            let row = state.busy_at_node.row(node.index());
            assert_eq!(row, busy(problem.flows_at_node(node)), "{label}: {node:?}");
        }
        for link in problem.link_ids() {
            let row = state.busy_on_link.row(link.index());
            assert_eq!(row, busy(problem.flows_on_link(link)), "{label}: {link:?}");
        }
    }

    #[test]
    fn busy_rows_follow_the_flags_through_steps_and_deltas() {
        // Flags flip while the allocation settles and again after deltas;
        // an arrival joins index rows without a solve. Every flip and every
        // arrival must leave the rows current or marked stale.
        let lossy = mixed_loss_workload(6, 100.0, 7).with_utility_shape(UtilityShape::Pow75);
        let joint = LrgpConfig { reliability: Reliability::Joint, ..incremental_config() };
        let random = RandomWorkload {
            flows: 40,
            consumer_nodes: 4,
            classes_per_flow: 10,
            mixed_shapes: true,
            ..RandomWorkload::default()
        };
        let cases =
            [(random.generate(&mut StdRng::seed_from_u64(7)), incremental_config()), (lossy, joint)];
        for (problem, config) in cases {
            let flow = FlowId::new(1);
            let classes = problem.classes_of_flow(flow).iter().map(|&c| problem.class(c).clone());
            let deltas = [
                ProblemDelta::new().remove_flow(flow),
                ProblemDelta::new().add_flow(problem.flow(flow).clone(), classes.collect()),
            ];
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let mut engine = Engine::new(problem.clone(), LrgpConfig { parallelism, ..config });
                engine.force_pool_dispatch(true);
                for k in 0..150 {
                    engine.step();
                    assert_busy_rows_current(&engine, &format!("{parallelism:?} step {k}"));
                }
                for delta in &deltas {
                    engine.apply_delta(delta).unwrap();
                    assert_busy_rows_current(&engine, &format!("{parallelism:?} {delta:?}"));
                    for k in 0..60 {
                        engine.step();
                        let label = format!("{parallelism:?} {delta:?} step {k}");
                        assert_busy_rows_current(&engine, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn resized_and_removed_classes_re_admit_against_their_new_maximum() {
        // The admission entries carry each class's `n_max`, so a delta that
        // moves a maximum must reach the entry. On a settled engine: a cut
        // of the most populous class below its admitted population, then
        // the removal of its flow (every maximum to 0), then the flow's
        // rate bounds back without its consumers, whose maxima stay 0 (a
        // stale entry would admit them again). After each delta the engine
        // steps in bitwise lockstep with an all-dirty restore of the
        // pre-delta snapshot over the edited problem, whose entries are
        // built fresh.
        let problem = many_flows_few_consumers();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let config = LrgpConfig { parallelism, ..incremental_config() };
            let mut engine = Engine::new(problem.clone(), config);
            engine.force_pool_dispatch(true);
            engine.run(300);
            let admitted = engine.allocation().populations().to_vec();
            let class = problem.class_ids().max_by(|&a, &b| {
                admitted[a.index()].total_cmp(&admitted[b.index()]).then(b.cmp(&a))
            });
            let class = class.expect("the problem has classes");
            let held = admitted[class.index()];
            assert!(held >= 2.0, "the most populous class holds {held}");
            let cut = (held / 2.0) as u32;
            let flow = problem.class(class).flow;
            let deltas = [
                ProblemDelta::new().resize_class(class, cut),
                ProblemDelta::new().remove_flow(flow),
                ProblemDelta::new().set_rate_bounds(flow, problem.flow(flow).bounds),
            ];
            for delta in &deltas {
                let label = format!("{parallelism:?} {delta:?}");
                let snapshot = EngineSnapshot { config: baseline_config(), ..engine.snapshot() };
                let edited = delta.apply(engine.problem()).unwrap();
                let mut reference = Engine::restore(edited, snapshot).unwrap();
                engine.apply_delta(delta).unwrap();
                for k in 0..40 {
                    let (a, b) = (reference.step(), engine.step());
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: diverged at step {k}");
                }
                assert_eq!(reference.allocation(), engine.allocation(), "{label}");
                let limit = f64::from(engine.problem().class(class).max_population);
                let population = engine.allocation().population(class);
                assert!(population <= limit, "{label}: {population} admitted over {limit}");
            }
        }
    }

    #[test]
    fn flow_removal_keeps_the_state_and_stays_identical() {
        let problem = base_workload();
        let mut baseline = Engine::new(problem.clone(), baseline_config());
        let mut incremental = Engine::new(problem, incremental_config());
        for _ in 0..80 {
            baseline.step();
            incremental.step();
        }
        let removal = ProblemDelta::new().remove_flow(FlowId::new(5));
        baseline.apply_delta(&removal).unwrap();
        incremental.apply_delta(&removal).unwrap();
        for k in 0..120 {
            let a = baseline.step();
            let b = incremental.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at post-removal iteration {k}");
        }
        assert_eq!(baseline.allocation(), incremental.allocation());
    }

    #[test]
    fn shape_keeping_deltas_do_not_mark_everything_dirty() {
        // A converged mid-size system: after a departure, an `F_{b,i}` edit,
        // a re-join and an arrival (a copy of the departed flow under a new
        // id), the step after each must recompute only part of the system.
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
        let classes = problem.classes_of_flow(flow).iter().map(|&c| problem.class(c).clone());
        let deltas = [
            ProblemDelta::new().set_flow_node_cost(flow, node, cost * 2.0),
            ProblemDelta::new().remove_flow(flow),
            rejoin,
            ProblemDelta::new().add_flow(spec, classes.collect()),
        ];
        let mut engine = Engine::new(problem, incremental_config());
        engine.run_until_converged(2_000);
        for delta in &deltas {
            engine.apply_delta(delta).unwrap();
            engine.step();
            let (flows, nodes, _) = engine.step_state().dirty_counts();
            let problem = engine.problem();
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
        // cloned, while the clone tracks a restore over the edited problem.
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
        let mut oracle =
            Engine::restore(delta.apply(&problem).unwrap(), original.snapshot()).unwrap();
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
        // hook so a pooled flow kernel panics, assert the unwind reaches
        // the caller with the original payload, then assert the very same
        // engine (and its pool) steps normally afterwards — and still
        // matches a clean reference bitwise. Under `On` the interrupted
        // step has already consumed the previous step's change lists, so
        // this also checks that the panic path marks everything dirty.
        // Under `Joint` the flow job holds ρ while the phase runs, so the
        // panic path must hand it back untouched too.
        let lossy = mixed_loss_workload(6, 100.0, 7).with_utility_shape(UtilityShape::Pow75);
        let cases = [(base_workload(), Reliability::Off), (lossy, Reliability::Joint)];
        for (problem, reliability) in cases {
            for incremental in [IncrementalMode::Off, IncrementalMode::On] {
                let config = LrgpConfig {
                    parallelism: Parallelism::Threads(3),
                    incremental,
                    reliability,
                    ..LrgpConfig::default()
                };
                let mut engine = Engine::new(problem.clone(), config);
                engine.force_pool_dispatch(true);
                let mut reference =
                    Engine::new(problem.clone(), LrgpConfig { reliability, ..baseline_config() });
                for _ in 0..5 {
                    engine.step();
                    reference.step();
                }
                engine.arm_rate_panic(Some(0));
                let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()));
                let payload = boom.expect_err("injected panic must unwind out of step()");
                let message = payload.downcast_ref::<String>().expect("payload preserved");
                assert!(message.contains("injected rate-kernel panic"), "{message}");
                // The engine's buffers were restored, the pool is reusable,
                // and the interrupted step left no partial results behind:
                // disarm and continue in lockstep with the reference (which
                // never panicked and never ran the interrupted iteration's
                // writes).
                engine.arm_rate_panic(None);
                let label = format!("{reliability:?}/{incremental:?}");
                let bits = |e: &Engine| e.rhos().iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                for k in 0..40 {
                    let a = reference.step();
                    let b = engine.step();
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: post-panic iteration {k}");
                    assert_eq!(reference.allocation(), engine.allocation(), "{label}: {k}");
                    assert_eq!(bits(&reference), bits(&engine), "{label}: ρ at iteration {k}");
                }
            }
        }
    }
}
