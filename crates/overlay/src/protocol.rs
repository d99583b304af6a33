//! The distributed LRGP protocol over the event-driven substrate.
//!
//! The paper describes LRGP as a distributed algorithm: flow sources run
//! Algorithm 1, consumer-hosting nodes run Algorithm 2, exchanging rate and
//! price messages over the overlay. This module executes that protocol on
//! the discrete-event simulator in two modes:
//!
//! * [`run_synchronous`] — staged rounds, one LRGP iteration per maximum
//!   round-trip time (§4.3: "the time to complete an iteration equals
//!   approximately the maximum round trip time between any two nodes").
//!   Produces *bit-identical* traces to the centralized
//!   [`lrgp::Engine`], messages and latencies notwithstanding — link
//!   prices included: each link's Algorithm 3 runs at an owning endpoint
//!   node and rides back to the sources inside that node's feedback.
//! * [`run_asynchronous`] — every actor ticks on its own (jittered) timer
//!   and uses the freshest feedback it has, optionally averaging the last
//!   few prices from each resource as suggested in §3.5 / the companion
//!   technical report.

use crate::sim::{EventQueue, SimTime};
use crate::topology::Topology;
use lrgp::kernel::admission::allocate_consumers;
use lrgp::gamma::GammaController;
use lrgp::kernel::price::{update_link_price, update_node_price_with_rule};
use lrgp::kernel::rate::{solve_rate, AggregateUtility};
use lrgp::LrgpConfig;
use lrgp_model::{Allocation, ClassId, FlowId, LinkId, NodeId, Problem};
use lrgp_num::series::TimeSeries;
use lrgp_num::SlidingWindow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of one node's local Algorithm 2 + 3 round: the node price, its
/// class populations, and the prices of the links it owns.
type NodeRound = (f64, Vec<(ClassId, f64)>, Vec<(LinkId, f64)>);

/// A protocol message or timer event.
#[derive(Debug, Clone)]
enum Event {
    /// Begin synchronous round `k`: every source computes and sends.
    RoundStart(usize),
    /// A rate update from `flow`'s source arriving at `node` (sync: tagged
    /// with the round).
    RateArrive { node: NodeId, flow: FlowId, rate: f64, round: usize },
    /// Node feedback arriving at `flow`'s source. Besides the node's own
    /// price and the flow's populations, it carries the prices of the links
    /// this node *owns* (Algorithm 3: "link price is computed by one of the
    /// two nodes which are the endpoints of the link").
    FeedbackArrive {
        flow: FlowId,
        node: NodeId,
        price: f64,
        populations: Vec<(ClassId, f64)>,
        link_prices: Vec<(LinkId, f64)>,
    },
    /// Async: `flow`'s source recomputes and rebroadcasts its rate.
    SourceTick(FlowId),
    /// Async: `node` reruns admission and price computation.
    NodeTick(NodeId),
    /// Async: record the god's-eye utility sample.
    Sample,
}

/// Picks the node agent that runs Algorithm 3 for a link: "link price is
/// actually computed by one of the two nodes which are the endpoints of the
/// link" (paper fn. 2). The owner must *hear* the rates of every flow on
/// the link, so we prefer the downstream endpoint (which all flows reach),
/// then the upstream one, then any node that hears them all; a link whose
/// flows no node fully observes keeps its starting price of 0 (and we
/// fall back to an endpoint or node 0 purely to keep the vector total).
fn link_owner(problem: &Problem, link: LinkId) -> NodeId {
    let flows = problem.flows_on_link(link);
    let hears_all =
        |n: NodeId| flows.iter().all(|f| problem.flows_at_node(n).contains(f));
    let spec = problem.link(link);
    for candidate in [spec.to, spec.from].into_iter().flatten() {
        if hears_all(candidate) {
            return candidate;
        }
    }
    problem
        .node_ids()
        .find(|&n| !flows.is_empty() && hears_all(n))
        .or(spec.to)
        .or(spec.from)
        .unwrap_or(NodeId::new(0))
}

/// Shared mutable protocol state (the "distributed" state, kept in one
/// process for simulation).
struct ProtocolState<'p> {
    problem: &'p Problem,
    config: LrgpConfig,
    /// Rate currently chosen by each source.
    source_rates: Vec<f64>,
    /// Populations as last heard by each source (indexed by class).
    source_populations: Vec<f64>,
    /// Node price as last heard by each source, per node (dense).
    source_known_prices: Vec<f64>,
    /// Link price as last heard by the sources, per link (dense).
    source_known_link_prices: Vec<f64>,
    /// Optional per-node price averaging windows (async §3.5).
    price_windows: Option<Vec<SlidingWindow>>,
    /// Rates as last heard by each node (indexed by flow).
    node_known_rates: Vec<f64>,
    /// Current price at each node.
    node_prices: Vec<f64>,
    /// Current price of each link, maintained by its owner node.
    link_prices: Vec<f64>,
    /// Owner node of each link (the agent of Algorithm 3).
    link_owners: Vec<NodeId>,
    /// Populations decided by nodes (indexed by class).
    node_populations: Vec<f64>,
    gamma: Vec<GammaController>,
    messages_sent: u64,
}

impl<'p> ProtocolState<'p> {
    fn new(problem: &'p Problem, config: LrgpConfig, price_window: usize) -> Self {
        // The engine's start: rates at `r_i^max`, every price at 0.
        let rates: Vec<f64> = problem.flow_ids().map(|f| problem.flow(f).bounds.max).collect();
        Self {
            problem,
            source_rates: rates.clone(),
            source_populations: vec![0.0; problem.num_classes()],
            source_known_prices: vec![0.0; problem.num_nodes()],
            source_known_link_prices: vec![0.0; problem.num_links()],
            price_windows: (price_window > 1)
                .then(|| (0..problem.num_nodes()).map(|_| SlidingWindow::new(price_window)).collect()),
            node_known_rates: rates,
            node_prices: vec![0.0; problem.num_nodes()],
            link_prices: vec![0.0; problem.num_links()],
            link_owners: problem.link_ids().map(|l| link_owner(problem, l)).collect(),
            node_populations: vec![0.0; problem.num_classes()],
            gamma: (0..problem.num_nodes()).map(|_| GammaController::new(config.gamma)).collect(),
            messages_sent: 0,
            config,
        }
    }

    /// Source-side rate computation (Algorithm 1) from the source's local
    /// view of prices and populations.
    fn compute_rate(&self, flow: FlowId) -> f64 {
        let aggregate =
            AggregateUtility::for_flow(self.problem, flow, &self.source_populations);
        // PL_i from the source's last-heard link prices.
        let mut price = 0.0;
        for &(link, l_cost) in self.problem.links_of_flow(flow) {
            price += l_cost * self.source_known_link_prices[link.index()];
        }
        // PB_i from the source's last-heard prices and populations.
        for &(node, f_cost) in self.problem.nodes_of_flow(flow) {
            let mut per_rate = f_cost;
            for class in self.problem.classes_of_flow_at_node(flow, node) {
                per_rate += self.problem.class(class).consumer_cost
                    * self.source_populations[class.index()];
            }
            price += per_rate * self.source_known_prices[node.index()];
        }
        solve_rate(
            &aggregate,
            price,
            self.problem.flow(flow).bounds,
            self.source_rates[flow.index()],
        )
    }

    /// Node-side admission + price computation (Algorithm 2) from the
    /// node's local view of rates, plus Algorithm 3 for the links this node
    /// owns. Returns the node price, populations and owned-link prices.
    fn compute_node(&mut self, node: NodeId) -> NodeRound {
        let admission = allocate_consumers(
            self.problem,
            node,
            &self.node_known_rates,
            self.config.population_mode,
            self.config.admission_policy,
        );
        for &(class, n) in &admission.populations {
            self.node_populations[class.index()] = n;
        }
        let ctl = &mut self.gamma[node.index()];
        let gamma = ctl.gamma();
        let next = update_node_price_with_rule(
            self.config.node_price_rule,
            self.node_prices[node.index()],
            admission.benefit_cost,
            admission.used,
            self.problem.node(node).capacity,
            gamma,
            gamma,
        );
        ctl.observe_price(next);
        self.node_prices[node.index()] = next;
        // Algorithm 3 for owned links, from the node's view of the rates.
        let mut link_prices = Vec::new();
        for link in self.problem.link_ids() {
            if self.link_owners[link.index()] != node {
                continue;
            }
            let usage: f64 = self
                .problem
                .flows_on_link(link)
                .iter()
                .map(|&f| self.problem.link_cost(link, f) * self.node_known_rates[f.index()])
                .sum();
            let next_link = update_link_price(
                self.link_prices[link.index()],
                usage,
                self.problem.link(link).capacity,
                self.config.link_gamma,
            );
            self.link_prices[link.index()] = next_link;
            link_prices.push((link, next_link));
        }
        (next, admission.populations, link_prices)
    }

    /// Source ingests node feedback; prices optionally pass through the
    /// averaging window.
    fn ingest_feedback(
        &mut self,
        node: NodeId,
        price: f64,
        populations: &[(ClassId, f64)],
        link_prices: &[(LinkId, f64)],
    ) {
        let effective = match self.price_windows.as_mut() {
            Some(windows) => {
                let w = &mut windows[node.index()];
                w.push(price);
                w.mean().unwrap_or(price)
            }
            None => price,
        };
        self.source_known_prices[node.index()] = effective;
        for &(class, n) in populations {
            self.source_populations[class.index()] = n;
        }
        for &(link, lp) in link_prices {
            self.source_known_link_prices[link.index()] = lp;
        }
    }

    /// God's-eye utility: source-decided rates × node-decided populations.
    fn utility(&self) -> f64 {
        let mut total = 0.0;
        for class in self.problem.class_ids() {
            let n = self.node_populations[class.index()];
            if n > 0.0 {
                let spec = self.problem.class(class);
                total += n * spec.utility.value(self.source_rates[spec.flow.index()]);
            }
        }
        total
    }

    fn allocation(&self) -> Allocation {
        Allocation::from_parts(
            self.problem,
            self.source_rates.clone(),
            self.node_populations.clone(),
        )
    }
}

/// Result of a synchronous distributed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncOutcome {
    /// Total utility after each round — identical to the centralized
    /// engine's trace.
    pub utility: TimeSeries,
    /// Virtual time at which the final round completed.
    pub duration: SimTime,
    /// Duration of one round (the maximum RTT).
    pub round_duration: SimTime,
    /// Protocol messages sent.
    pub messages: u64,
    /// The final allocation.
    pub allocation: Allocation,
}

/// Runs `iterations` rounds of the synchronous distributed protocol.
///
/// Each round: sources send `RateUpdate`s to every node their flow reaches;
/// a node computes as soon as it has heard from all of them, then sends
/// `NodeFeedback` back; the next round starts one maximum-RTT later, by
/// which time all feedback has arrived.
pub fn run_synchronous(
    problem: &Problem,
    topology: &Topology,
    config: LrgpConfig,
    iterations: usize,
) -> SyncOutcome {
    let mut state = ProtocolState::new(problem, config, 1);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let round_duration = {
        // Guard against zero-latency topologies: still advance time.
        let rtt = topology.max_rtt();
        if rtt == SimTime::ZERO {
            SimTime::from_micros(1)
        } else {
            rtt
        }
    };
    let mut utility = TimeSeries::new("utility");
    // Per-node count of rate messages expected per round.
    let expected: Vec<usize> =
        problem.node_ids().map(|n| problem.flows_at_node(n).len()).collect();
    let mut received: Vec<usize> = vec![0; problem.num_nodes()];
    let mut computed_in_round: Vec<bool> = vec![false; problem.num_nodes()];

    queue.schedule(SimTime::ZERO, Event::RoundStart(0));
    let mut rounds_done = 0;

    while rounds_done < iterations {
        let Some((_, event)) = queue.pop() else { break };
        match event {
            Event::RoundStart(k) => {
                received.iter_mut().for_each(|r| *r = 0);
                computed_in_round.iter_mut().for_each(|c| *c = false);
                for flow in problem.flow_ids() {
                    let rate = state.compute_rate(flow);
                    state.source_rates[flow.index()] = rate;
                    let (src, peers) = Topology::flow_peers(problem, flow);
                    for peer in peers {
                        state.messages_sent += 1;
                        queue.schedule_after(
                            topology.delay(src, peer),
                            Event::RateArrive { node: peer, flow, rate, round: k },
                        );
                    }
                    // A flow may also reach its own source node.
                    if problem.flows_at_node(src).contains(&flow) {
                        state.messages_sent += 1;
                        queue.schedule_after(
                            topology.processing_delay(),
                            Event::RateArrive { node: src, flow, rate, round: k },
                        );
                    }
                }
                // Nodes with no flows never compute; mark them done.
                for node in problem.node_ids() {
                    if expected[node.index()] == 0 {
                        computed_in_round[node.index()] = true;
                    }
                }
            }
            Event::RateArrive { node, flow, rate, round } => {
                state.node_known_rates[flow.index()] = rate;
                received[node.index()] += 1;
                if received[node.index()] == expected[node.index()]
                    && !computed_in_round[node.index()]
                {
                    computed_in_round[node.index()] = true;
                    let (price, populations, link_prices) = state.compute_node(node);
                    for &f in problem.flows_at_node(node) {
                        let src = problem.flow(f).source;
                        let relevant: Vec<(ClassId, f64)> = populations
                            .iter()
                            .copied()
                            .filter(|(c, _)| problem.class(*c).flow == f)
                            .collect();
                        let relevant_links: Vec<(LinkId, f64)> = link_prices
                            .iter()
                            .copied()
                            .filter(|(l, _)| problem.flows_on_link(*l).contains(&f))
                            .collect();
                        state.messages_sent += 1;
                        let delay = if src == node {
                            topology.processing_delay()
                        } else {
                            topology.delay(node, src)
                        };
                        queue.schedule_after(
                            delay,
                            Event::FeedbackArrive {
                                flow: f,
                                node,
                                price,
                                populations: relevant,
                                link_prices: relevant_links,
                            },
                        );
                    }
                    if computed_in_round.iter().all(|&c| c) {
                        // Round complete: record utility, schedule the next
                        // round one RTT after this one started.
                        utility.push(state.utility());
                        rounds_done += 1;
                        if rounds_done < iterations {
                            let next_start =
                                SimTime::from_micros(round_duration.as_micros() * (round + 1) as u64);
                            queue.schedule(
                                next_start.max(queue.now()),
                                Event::RoundStart(round + 1),
                            );
                        }
                    }
                }
            }
            Event::FeedbackArrive { node, price, populations, link_prices, .. } => {
                state.ingest_feedback(node, price, &populations, &link_prices);
            }
            // Async-only events never occur here.
            Event::SourceTick(_) | Event::NodeTick(_) | Event::Sample => unreachable!(),
        }
    }
    // Drain any in-flight feedback so the final allocation is consistent.
    while let Some((_, event)) = queue.pop() {
        if let Event::FeedbackArrive { node, price, populations, link_prices, .. } = event {
            state.ingest_feedback(node, price, &populations, &link_prices);
        }
    }

    SyncOutcome {
        utility,
        duration: queue.now(),
        round_duration,
        messages: state.messages_sent,
        allocation: state.allocation(),
    }
}

/// Configuration of the asynchronous protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Core LRGP parameters (γ control, admission, initial state).
    pub lrgp: LrgpConfig,
    /// Mean period between a source's recomputations.
    pub source_period: SimTime,
    /// Mean period between a node's recomputations.
    pub node_period: SimTime,
    /// Uniform jitter applied to every tick, as a fraction of the period
    /// (0.0 = strictly periodic).
    pub jitter: f64,
    /// Number of recent prices from each node averaged at the source
    /// (1 = use the latest price only; >1 enables §3.5's smoothing).
    pub price_window: usize,
    /// Probability that any single protocol message is lost in transit
    /// (0.0 = reliable). The paper's §3.5 averaging exists precisely to
    /// "allow for missing prices or rates".
    pub loss: f64,
    /// Interval between utility samples in the recorded trace.
    pub sample_period: SimTime,
    /// Total simulated time.
    pub duration: SimTime,
    /// RNG seed for tick jitter.
    pub seed: u64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            lrgp: LrgpConfig::default(),
            source_period: SimTime::from_millis(25),
            node_period: SimTime::from_millis(25),
            jitter: 0.2,
            loss: 0.0,
            price_window: 3,
            sample_period: SimTime::from_millis(25),
            duration: SimTime::from_secs(10),
            seed: 0,
        }
    }
}

/// Result of an asynchronous distributed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncOutcome {
    /// Utility sampled every [`AsyncConfig::sample_period`].
    pub utility: TimeSeries,
    /// Virtual end time.
    pub duration: SimTime,
    /// Protocol messages sent.
    pub messages: u64,
    /// Protocol messages lost in transit.
    pub dropped: u64,
    /// Final allocation (source rates × node populations).
    pub allocation: Allocation,
    /// Final utility.
    pub final_utility: f64,
}

/// Runs the asynchronous protocol: sources and nodes tick independently
/// with jittered periods and act on the freshest (optionally averaged)
/// state they have heard.
pub fn run_asynchronous(
    problem: &Problem,
    topology: &Topology,
    config: AsyncConfig,
) -> AsyncOutcome {
    assert!(config.price_window >= 1, "price window must be at least 1");
    assert!((0.0..1.0).contains(&config.jitter), "jitter must be in [0, 1)");
    assert!((0.0..1.0).contains(&config.loss), "loss probability must be in [0, 1)");
    let mut state = ProtocolState::new(problem, config.lrgp, config.price_window);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut utility = TimeSeries::new("utility");
    let mut dropped = 0u64;

    let jittered = |period: SimTime, rng: &mut StdRng, jitter: f64| {
        if jitter == 0.0 {
            period
        } else {
            let base = period.as_micros() as f64;
            let lo = (base * (1.0 - jitter)).max(1.0);
            let hi = base * (1.0 + jitter);
            SimTime::from_micros(rng.gen_range(lo..=hi) as u64)
        }
    };

    // Stagger initial ticks uniformly inside one period.
    for flow in problem.flow_ids() {
        let offset =
            SimTime::from_micros(rng.gen_range(0..=config.source_period.as_micros()));
        queue.schedule(offset, Event::SourceTick(flow));
    }
    for node in problem.node_ids() {
        if problem.flows_at_node(node).is_empty() {
            continue;
        }
        let offset = SimTime::from_micros(rng.gen_range(0..=config.node_period.as_micros()));
        queue.schedule(offset, Event::NodeTick(node));
    }
    queue.schedule(config.sample_period, Event::Sample);

    while let Some((t, event)) = {
        // Stop pulling events past the horizon.
        if queue.is_empty() {
            None
        } else {
            queue.pop()
        }
    } {
        if t > config.duration {
            break;
        }
        match event {
            Event::SourceTick(flow) => {
                let rate = state.compute_rate(flow);
                state.source_rates[flow.index()] = rate;
                let (src, peers) = Topology::flow_peers(problem, flow);
                for peer in peers {
                    state.messages_sent += 1;
                    if config.loss > 0.0 && rng.gen::<f64>() < config.loss {
                        dropped += 1;
                        continue;
                    }
                    queue.schedule_after(
                        topology.delay(src, peer),
                        Event::RateArrive { node: peer, flow, rate, round: 0 },
                    );
                }
                if problem.flows_at_node(src).contains(&flow) {
                    state.messages_sent += 1;
                    if config.loss > 0.0 && rng.gen::<f64>() < config.loss {
                        dropped += 1;
                    } else {
                        queue.schedule_after(
                            topology.processing_delay(),
                            Event::RateArrive { node: src, flow, rate, round: 0 },
                        );
                    }
                }
                queue.schedule_after(
                    jittered(config.source_period, &mut rng, config.jitter),
                    Event::SourceTick(flow),
                );
            }
            Event::NodeTick(node) => {
                let (price, populations, link_prices) = state.compute_node(node);
                for &f in problem.flows_at_node(node) {
                    let src = problem.flow(f).source;
                    let relevant: Vec<(ClassId, f64)> = populations
                        .iter()
                        .copied()
                        .filter(|(c, _)| problem.class(*c).flow == f)
                        .collect();
                    let relevant_links: Vec<(LinkId, f64)> = link_prices
                        .iter()
                        .copied()
                        .filter(|(l, _)| problem.flows_on_link(*l).contains(&f))
                        .collect();
                    state.messages_sent += 1;
                    if config.loss > 0.0 && rng.gen::<f64>() < config.loss {
                        dropped += 1;
                        continue;
                    }
                    let delay = if src == node {
                        topology.processing_delay()
                    } else {
                        topology.delay(node, src)
                    };
                    queue.schedule_after(
                        delay,
                        Event::FeedbackArrive {
                            flow: f,
                            node,
                            price,
                            populations: relevant,
                            link_prices: relevant_links,
                        },
                    );
                }
                queue.schedule_after(
                    jittered(config.node_period, &mut rng, config.jitter),
                    Event::NodeTick(node),
                );
            }
            Event::RateArrive { node: _, flow, rate, .. } => {
                state.node_known_rates[flow.index()] = rate;
            }
            Event::FeedbackArrive { flow, node, price, populations, link_prices } => {
                debug_assert!(
                    populations.iter().all(|(c, _)| problem.class(*c).flow == flow),
                    "feedback must carry only the addressed flow's classes"
                );
                state.ingest_feedback(node, price, &populations, &link_prices);
            }
            Event::Sample => {
                utility.push(state.utility());
                queue.schedule_after(config.sample_period, Event::Sample);
            }
            Event::RoundStart(_) => unreachable!("sync-only event"),
        }
    }

    let final_utility = state.utility();
    AsyncOutcome {
        utility,
        duration: config.duration,
        messages: state.messages_sent,
        dropped,
        allocation: state.allocation(),
        final_utility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LatencyModel;
    use lrgp::{Engine, LrgpConfig};
    use lrgp_model::workloads::base_workload;

    fn topo(problem: &Problem) -> Topology {
        Topology::from_problem(
            problem,
            LatencyModel::Uniform { latency: SimTime::from_millis(10) },
            SimTime::from_micros(200),
        )
    }

    #[test]
    fn synchronous_protocol_matches_centralized_engine_exactly() {
        let p = base_workload();
        let cfg = LrgpConfig::default();
        let sync = run_synchronous(&p, &topo(&p), cfg, 60);
        let mut engine = Engine::new(p.clone(), cfg);
        engine.run(60);
        assert_eq!(sync.utility.len(), 60);
        for (k, (a, b)) in sync
            .utility
            .values()
            .iter()
            .zip(engine.trace().utility.values())
            .enumerate()
        {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "round {k}: distributed {a} vs centralized {b}"
            );
        }
    }

    #[test]
    fn synchronous_round_duration_is_max_rtt() {
        let p = base_workload();
        let t = topo(&p);
        let sync = run_synchronous(&p, &t, LrgpConfig::default(), 10);
        assert_eq!(sync.round_duration, t.max_rtt());
        // 10 rounds take ~10 RTTs of virtual time.
        assert!(sync.duration >= SimTime::from_micros(9 * t.max_rtt().as_micros()));
    }

    #[test]
    fn synchronous_message_count_matches_structure() {
        let p = base_workload();
        let sync = run_synchronous(&p, &topo(&p), LrgpConfig::default(), 5);
        // Per round: each flow sends to 2 c-nodes (12 RateUpdates); each
        // c-node hosts 4 flows and answers each source (12 Feedbacks).
        assert_eq!(sync.messages, 5 * 24);
    }

    #[test]
    fn synchronous_protocol_matches_engine_on_link_workloads() {
        // The distributed protocol must also carry link prices (Algorithm 3
        // runs at the owning endpoint). Verify trace equality against the
        // centralized engine on a workload where the link binds.
        let p = lrgp_model::workloads::link_bottleneck_workload(100.0);
        let cfg = LrgpConfig { link_gamma: 2e-3, ..LrgpConfig::default() };
        let t = topo(&p);
        let sync = run_synchronous(&p, &t, cfg, 300);
        let mut engine = Engine::new(p.clone(), cfg);
        engine.run(300);
        for (k, (a, b)) in sync
            .utility
            .values()
            .iter()
            .zip(engine.trace().utility.values())
            .enumerate()
        {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "round {k}: distributed {a} vs centralized {b}"
            );
        }
        // And the link constraint is actually respected at convergence.
        let usage = sync.allocation.link_usage(&p, lrgp_model::LinkId::new(0));
        assert!(usage <= 101.0, "link overloaded: {usage}");
        assert!(usage > 90.0, "link underutilized: {usage}");
    }

    #[test]
    fn sync_protocol_matches_engine_on_tree_workload() {
        let spec = crate::tree::TreeWorkload {
            link_capacity: 200.0,
            node_capacity: 1e9,
            max_population: 20,
            rate_bounds: (1.0, 1000.0),
            ..crate::tree::TreeWorkload::default()
        };
        let inst = spec.build();
        let cfg = LrgpConfig { link_gamma: 2e-3, ..LrgpConfig::default() };
        let t = spec.topology(&inst);
        let sync = run_synchronous(&inst.problem, &t, cfg, 150);
        let mut engine = Engine::new(inst.problem.clone(), cfg);
        engine.run(150);
        for (a, b) in sync.utility.values().iter().zip(engine.trace().utility.values()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn asynchronous_converges_near_synchronous_utility() {
        let p = base_workload();
        let t = topo(&p);
        let sync = run_synchronous(&p, &t, LrgpConfig::default(), 200);
        let sync_final = sync.utility.last().unwrap();
        let async_out = run_asynchronous(
            &p,
            &t,
            AsyncConfig { duration: SimTime::from_secs(20), ..AsyncConfig::default() },
        );
        let rel = (async_out.final_utility - sync_final).abs() / sync_final;
        assert!(
            rel < 0.05,
            "async {} vs sync {sync_final} (rel {rel:.3})",
            async_out.final_utility
        );
        // Asynchrony pairs node-decided populations with slightly newer
        // source rates, so transient overloads of a fraction of a percent
        // are expected (the paper notes LRGP is not "live" flow control,
        // §3.5). Assert they stay below 1 % of capacity.
        let tol = 0.01 * lrgp_model::workloads::GRYPHON_NODE_CAPACITY;
        assert!(
            async_out.allocation.is_feasible(&p, tol),
            "{}",
            async_out.allocation.check_feasibility(&p, 0.0)
        );
    }

    #[test]
    fn asynchronous_deterministic_per_seed() {
        let p = base_workload();
        let t = topo(&p);
        let cfg = AsyncConfig { duration: SimTime::from_secs(3), ..AsyncConfig::default() };
        let a = run_asynchronous(&p, &t, cfg);
        let b = run_asynchronous(&p, &t, cfg);
        assert_eq!(a.utility, b.utility);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn asynchronous_price_averaging_changes_dynamics_not_outcome() {
        let p = base_workload();
        let t = topo(&p);
        let base = AsyncConfig { duration: SimTime::from_secs(20), ..AsyncConfig::default() };
        let latest_only = run_asynchronous(&p, &t, AsyncConfig { price_window: 1, ..base });
        let averaged = run_asynchronous(&p, &t, AsyncConfig { price_window: 5, ..base });
        let rel = (latest_only.final_utility - averaged.final_utility).abs()
            / latest_only.final_utility;
        assert!(rel < 0.05, "window=1 {} vs window=5 {}", latest_only.final_utility, averaged.final_utility);
    }

    #[test]
    fn heterogeneous_latencies_still_converge() {
        let p = base_workload();
        let t = Topology::from_problem(
            &p,
            LatencyModel::RandomUniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(40),
                seed: 5,
            },
            SimTime::from_micros(200),
        );
        let out = run_asynchronous(
            &p,
            &t,
            AsyncConfig { duration: SimTime::from_secs(20), ..AsyncConfig::default() },
        );
        // Compare against the centralized optimizer's converged value.
        let mut engine = Engine::new(p.clone(), LrgpConfig::default());
        let reference = engine.run_until_converged(250).utility;
        let rel = (out.final_utility - reference).abs() / reference;
        assert!(rel < 0.05, "async {} vs reference {reference}", out.final_utility);
    }

    #[test]
    fn asynchronous_survives_message_loss() {
        let p = base_workload();
        let t = topo(&p);
        let reference = {
            let mut e = Engine::new(p.clone(), LrgpConfig::default());
            e.run_until_converged(300).utility
        };
        for loss in [0.1, 0.25] {
            let out = run_asynchronous(
                &p,
                &t,
                AsyncConfig {
                    duration: SimTime::from_secs(30),
                    loss,
                    price_window: 3,
                    ..AsyncConfig::default()
                },
            );
            assert!(out.dropped > 0, "loss {loss} dropped nothing");
            let expected = (out.messages as f64 * loss) as u64;
            assert!(
                out.dropped.abs_diff(expected) < expected / 2 + 10,
                "loss {loss}: dropped {} of {} (expected ~{expected})",
                out.dropped,
                out.messages
            );
            let rel = (out.final_utility - reference).abs() / reference;
            assert!(
                rel < 0.08,
                "loss {loss}: async {} vs reference {reference} (rel {rel:.3})",
                out.final_utility
            );
        }
    }

    #[test]
    fn reliable_async_drops_nothing() {
        let p = base_workload();
        let t = topo(&p);
        let out = run_asynchronous(
            &p,
            &t,
            AsyncConfig { duration: SimTime::from_secs(2), ..AsyncConfig::default() },
        );
        assert_eq!(out.dropped, 0);
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1)")]
    fn async_rejects_full_loss() {
        let p = base_workload();
        let t = topo(&p);
        let _ = run_asynchronous(&p, &t, AsyncConfig { loss: 1.0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "price window must be at least 1")]
    fn async_rejects_zero_window() {
        let p = base_workload();
        let t = topo(&p);
        let _ = run_asynchronous(&p, &t, AsyncConfig { price_window: 0, ..Default::default() });
    }
}
