//! The four benchmark workloads: the problem each one solves, the engine
//! configuration, the delta stream its seed generates, and how a run divides
//! its time between the three phases.
//!
//! The problem a workload solves cold is fixed, so iteration counts and the
//! converged utility repeat exactly on every seed and can be checked against
//! a golden value. The seed drives the delta stream: which flows depart,
//! which nodes, classes and links are resized, and by how much.

use lrgp::{IncrementalMode, LrgpConfig, Reliability};
use lrgp_model::workloads::{base_workload, mixed_loss_workload, RandomWorkload};
use lrgp_model::{ClassId, FlowId, LinkId, NodeId, Problem, ProblemDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 of the paper (6 flows, 20 classes). A cold solve costs tens of
    /// microseconds, so it measures bookkeeping; the control for every
    /// optimization aimed at scale, where the prediction is no change. Seven
    /// deltas in eight are the departure of a flow the seed picks, each from
    /// the converged engine as in Fig. 3: chained on one engine, the small
    /// system can settle into an oscillation above the criterion and never
    /// re-converge.
    PaperFig3,
    /// 10,000 flows x 10 mixed-shape classes: setup (JSON parsing, term
    /// tables) and kernel-heavy steps dominate. Three quarters of its deltas
    /// are structural, so the median reads the rebuild.
    HugeCold,
    /// 2,000 flows x 6 mixed classes absorbing a delta stream in chains of
    /// 10 deltas, three quarters targeted (caches kept) and one quarter
    /// structural (rebuild).
    Churn2000,
    /// 8,192 flows on 4,096 lossy links under joint rate-reliability
    /// allocation: link-price and reliability kernels dominate. Three
    /// quarters of its deltas resize a link, one quarter changes a loss rate.
    LossyJoint,
}

/// How big a problem to build: the benchmark's own size, or a shrunken one
/// that runs the same code path in a unit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// What one round of a run does on a workload. Rounds repeat until the run's
/// time is up; the block sizes fix the exact counts and the tail percentiles.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cold solves per round.
    pub cold_per_round: usize,
    /// Steps timed per warm block, from convergence on; one block per
    /// round. Step cost falls in stretches as the dirty sets empty after
    /// convergence, and each block ends inside one stretch (after the first
    /// on lossy_joint), so its median never sits on the edge between two.
    pub warm_block: usize,
    /// Deltas per round.
    pub deltas_per_round: usize,
    /// Deltas in the stream; later passes replay it.
    pub delta_block: usize,
    /// Deltas one engine absorbs before the stream restarts from the
    /// converged engine. How busy a long chain keeps the engine depends on
    /// the deltas it happened to draw, so a block of several short chains
    /// reads the same on any seed where one long chain does not.
    pub chain: usize,
    /// Iterations between two deltas: the next one is due then, whether or
    /// not the previous one has re-converged.
    pub period: usize,
}

/// Iteration cap of a cold solve; reaching it counts the solve as failed.
pub const MAX_COLD_ITERATIONS: usize = 2_000;

/// One delta of a stream, classified the way the engine treats it.
#[derive(Debug, Clone)]
pub struct Delta {
    pub delta: ProblemDelta,
    /// Changes costs or grows the problem, so the engine rebuilds its
    /// caches; otherwise the caches are kept.
    pub structural: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperFig3,
        Workload::HugeCold,
        Workload::Churn2000,
        Workload::LossyJoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig3 => "paper_fig3",
            Workload::HugeCold => "huge_cold",
            Workload::Churn2000 => "churn_2000",
            Workload::LossyJoint => "lossy_joint",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn problem(self, size: Size) -> Problem {
        let full = size == Size::Full;
        match self {
            Workload::PaperFig3 => base_workload(),
            Workload::HugeCold => random(if full { (10_000, 64, 10) } else { (40, 4, 10) }, 7),
            Workload::Churn2000 => random(if full { (2_000, 64, 6) } else { (60, 8, 6) }, 42),
            Workload::LossyJoint => mixed_loss_workload(if full { 4096 } else { 16 }, 400.0, 42),
        }
    }

    /// What `lrgp solve` runs with no flags (plus `--reliability joint` on
    /// the lossy workload). No other plan axis is named, so the benchmark
    /// keeps working whichever axes the engine grows or loses.
    pub fn config(self) -> LrgpConfig {
        let config = LrgpConfig {
            incremental: IncrementalMode::Auto,
            ..LrgpConfig::default()
        };
        match self {
            Workload::LossyJoint => LrgpConfig {
                reliability: Reliability::Joint,
                ..config
            },
            _ => config,
        }
    }

    /// Converged cold-solve utility of the full-size problem.
    pub fn golden_utility(self) -> f64 {
        match self {
            Workload::PaperFig3 => 1_327_485.954_442,
            Workload::HugeCold => 160_566_670.695_105,
            Workload::Churn2000 => 154_293_102.449_055,
            Workload::LossyJoint => 11_736_660.254_650,
        }
    }

    /// Sized so that a round takes 25 ms (paper) to 3 s (huge) on a 2-CPU
    /// host, with the delta stream taking about half of it. The smoke size
    /// keeps only enough of each block for every metric to exist.
    pub fn plan(self, size: Size) -> Plan {
        let plan = self.full_plan();
        match size {
            Size::Full => plan,
            Size::Smoke => Plan {
                cold_per_round: 5,
                warm_block: 40,
                deltas_per_round: 20,
                delta_block: 20,
                chain: plan.chain.min(20),
                period: plan.period,
            },
        }
    }

    // A departure from the converged paper system re-converges within about
    // 65 iterations; every delta on the three large systems within 10.
    fn full_plan(self) -> Plan {
        match self {
            Workload::PaperFig3 => Plan {
                cold_per_round: 100,
                warm_block: 2_000,
                deltas_per_round: 100,
                delta_block: 400,
                chain: 1,
                period: 120,
            },
            Workload::HugeCold => Plan {
                cold_per_round: 1,
                warm_block: 300,
                deltas_per_round: 4,
                delta_block: 20,
                chain: 20,
                period: 40,
            },
            Workload::Churn2000 => Plan {
                cold_per_round: 1,
                warm_block: 250,
                deltas_per_round: 50,
                delta_block: 400,
                chain: 10,
                period: 40,
            },
            Workload::LossyJoint => Plan {
                cold_per_round: 1,
                warm_block: 1_000,
                deltas_per_round: 20,
                delta_block: 200,
                chain: 200,
                period: 30,
            },
        }
    }

    /// The first `count` deltas of the stream `seed` generates against
    /// `base`, the problem the cold solves converge on.
    ///
    /// Each stream has a majority kind of delta and a minority of another
    /// cost, so the median sits well inside the majority's costs and the
    /// minority lands in the tail; a 50/50 mix would put the median on the
    /// boundary between the two, where it jumps from seed to seed.
    pub fn deltas(self, base: &Problem, seed: u64, count: usize) -> Vec<Delta> {
        let mut stream = Stream::new(base, seed);
        (0..count)
            .map(|i| {
                let delta = match self {
                    Workload::PaperFig3 if i % 8 != 7 => stream.depart().0,
                    Workload::HugeCold if i % 4 != 3 => stream.structural(),
                    Workload::Churn2000 if i % 4 == 3 => stream.structural(),
                    Workload::PaperFig3 | Workload::HugeCold | Workload::Churn2000 => {
                        stream.targeted()
                    }
                    Workload::LossyJoint => stream.link(i % 4 == 3),
                };
                let structural = delta.changes_costs() || delta.grows_problem();
                Delta { delta, structural }
            })
            .collect()
    }
}

fn random((flows, consumer_nodes, classes_per_flow): (usize, usize, usize), seed: u64) -> Problem {
    RandomWorkload {
        flows,
        consumer_nodes,
        classes_per_flow,
        mixed_shapes: true,
        ..RandomWorkload::default()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

/// Delta generator. Resizes are relative to `base`, so the stream is
/// stationary: it never drifts away from the problem the engine started on.
struct Stream<'a> {
    base: &'a Problem,
    rng: StdRng,
    /// Nodes hosting at least one class; resizing any other node is a no-op.
    consumer_nodes: Vec<NodeId>,
    /// The flow that has departed and not re-joined yet. At most one flow is
    /// away at a time, so the live problem stays the size of `base`.
    departed: Option<FlowId>,
    /// Flows still to depart in this cycle. Every flow departs once per
    /// cycle, in an order the seed shuffles, so that on a small problem the
    /// share of each flow's departures does not depend on the seed.
    deck: Vec<FlowId>,
}

impl<'a> Stream<'a> {
    fn new(base: &'a Problem, seed: u64) -> Self {
        let consumer_nodes = base
            .node_ids()
            .filter(|&n| !base.classes_at_node(n).is_empty())
            .collect();
        Self {
            base,
            rng: StdRng::seed_from_u64(seed),
            consumer_nodes,
            departed: None,
            deck: Vec::new(),
        }
    }

    fn scale(&mut self) -> f64 {
        self.rng.gen_range(0.5..1.5)
    }

    /// A flow departs (Fig. 3), or the departed flow re-joins with its
    /// original spec. Both change costs, so the engine rebuilds.
    fn structural(&mut self) -> ProblemDelta {
        match self.departed.take() {
            Some(flow) => {
                let spec = self.base.flow(flow);
                let mut delta = ProblemDelta::new().set_rate_bounds(flow, spec.bounds);
                for &(node, cost) in &spec.node_costs {
                    delta = delta.set_flow_node_cost(flow, node, cost);
                }
                for &class in self.base.classes_of_flow(flow) {
                    delta = delta.resize_class(class, self.base.class(class).max_population);
                }
                delta
            }
            None => {
                let (delta, flow) = self.depart();
                self.departed = Some(flow);
                delta
            }
        }
    }

    /// A flow the seed picks departs (Fig. 3).
    fn depart(&mut self) -> (ProblemDelta, FlowId) {
        if self.deck.is_empty() {
            self.deck = self.base.flow_ids().collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let flow = self.deck.pop().expect("a problem has flows");
        (ProblemDelta::new().remove_flow(flow), flow)
    }

    /// A consumer node resized to 0.5-1.5x its base capacity, or a class of
    /// a live flow resized to 0.5-1.5x its base population. Both keep the
    /// engine's caches.
    fn targeted(&mut self) -> ProblemDelta {
        if self.rng.gen_bool(0.5) {
            let node = self.consumer_nodes[self.rng.gen_range(0..self.consumer_nodes.len())];
            let capacity = self.base.node(node).capacity * self.scale();
            return ProblemDelta::new().set_node_capacity(node, capacity);
        }
        loop {
            let class = ClassId::new(self.rng.gen_range(0..self.base.num_classes()) as u32);
            let spec = self.base.class(class);
            if Some(spec.flow) != self.departed {
                let population = (f64::from(spec.max_population) * self.scale()).round() as u32;
                return ProblemDelta::new().resize_class(class, population);
            }
        }
    }

    /// A link's loss rate redrawn from the generator's range (structural:
    /// the loss-weighted term rows are rebuilt), or a link resized to
    /// 0.5-1.5x its base capacity (targeted).
    fn link(&mut self, loss: bool) -> ProblemDelta {
        let link = LinkId::new(self.rng.gen_range(0..self.base.num_links()) as u32);
        if loss {
            ProblemDelta::new().set_link_loss(link, self.rng.gen_range(0.0..0.3))
        } else {
            let capacity = self.base.link(link).capacity * self.scale();
            ProblemDelta::new().set_link_capacity(link, capacity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn streams_repeat_per_seed_and_apply_cleanly() {
        for w in Workload::ALL {
            let base = w.problem(Size::Smoke);
            let a = w.deltas(&base, 3, 24);
            let b = w.deltas(&base, 3, 24);
            let c = w.deltas(&base, 4, 24);
            let ops = |d: &[Delta]| d.iter().map(|d| d.delta.clone()).collect::<Vec<_>>();
            assert_eq!(ops(&a), ops(&b), "{}", w.name());
            assert_ne!(ops(&a), ops(&c), "{}", w.name());
            assert!(a.iter().any(|d| d.structural) && a.iter().any(|d| !d.structural));
            let mut problem = base.clone();
            for d in &a {
                problem = d.delta.apply(&problem).expect("generated deltas are valid");
            }
            // The problem never grows: departures keep their id slot and
            // re-joins restore it.
            assert_eq!(problem.num_flows(), base.num_flows());
            assert_eq!(problem.num_classes(), base.num_classes());
        }
    }

    #[test]
    fn every_flow_departs_once_per_cycle() {
        let base = Workload::PaperFig3.problem(Size::Smoke);
        let mut stream = Stream::new(&base, 9);
        let mut flows: Vec<_> = (0..2 * base.num_flows())
            .map(|_| stream.depart().1)
            .collect();
        let (first, second) = flows.split_at_mut(base.num_flows());
        assert_ne!(first, second, "each cycle is shuffled anew");
        first.sort();
        second.sort();
        assert_eq!(first, second);
        assert_eq!(first.to_vec(), base.flow_ids().collect::<Vec<_>>());
    }

    #[test]
    fn rejoin_restores_the_original_flow() {
        let base = Workload::PaperFig3.problem(Size::Smoke);
        let mut stream = Stream::new(&base, 1);
        let departed = stream.structural().apply(&base).unwrap();
        assert_ne!(departed, base);
        let rejoined = stream.structural().apply(&departed).unwrap();
        assert_eq!(rejoined, base);
    }
}
