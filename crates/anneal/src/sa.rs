//! Centralized simulated annealing (§4.4).
//!
//! The paper evaluates LRGP against "a centralized approach based on
//! simulated annealing" with a geometric cooling schedule: a start
//! temperature in {5, 10, 50, 100}, multiplied by 0.999 after each round,
//! stopping at T ≤ 1, with a total step budget (10⁶–10⁸) divided equally
//! among the rounds. Moves perturb one flow rate or one class population;
//! infeasible moves are rejected outright.

use crate::state::{Move, SearchState};
use lrgp_model::{Allocation, ClassId, FlowId, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The paper's geometric cooling schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingSchedule {
    /// Initial temperature.
    pub start_temperature: f64,
    /// Multiplicative factor applied per round (paper: 0.999).
    pub cooling_factor: f64,
    /// Simulation ends when the temperature is ≤ this (paper: 1.0).
    pub stop_temperature: f64,
}

impl CoolingSchedule {
    /// The paper's schedule with the given start temperature.
    pub fn paper(start_temperature: f64) -> Self {
        Self { start_temperature, cooling_factor: 0.999, stop_temperature: 1.0 }
    }

    /// Number of temperature rounds until the stop temperature is reached
    /// (at least 1).
    pub fn rounds(&self) -> u64 {
        self.temperatures().count().max(1) as u64
    }

    /// Iterator over the round temperatures (before each multiplication).
    /// A round that does not cool the next (an infinite start, or a factor
    /// of 1 or more) would repeat forever, so it is the last; every start
    /// that cools keeps its rounds.
    pub fn temperatures(&self) -> impl Iterator<Item = f64> + '_ {
        let mut next = Some(self.start_temperature);
        let stop = self.stop_temperature;
        let factor = self.cooling_factor;
        std::iter::from_fn(move || {
            let current = next.filter(|&t| t > stop)?;
            let cooled = current * factor;
            next = (cooled < current).then_some(cooled);
            Some(current)
        })
    }
}

/// Simulated annealing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Cooling schedule (paper defaults via [`CoolingSchedule::paper`]).
    pub schedule: CoolingSchedule,
    /// Total move budget, divided equally among rounds (paper: 10⁶–10⁸).
    pub total_steps: u64,
    /// Rate move magnitude, as a fraction of the flow's bound width.
    pub rate_step_fraction: f64,
    /// Maximum consumers added/removed by one population move.
    pub population_step: u32,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl AnnealConfig {
    /// A paper-style configuration with the given start temperature and
    /// step budget.
    ///
    /// The move magnitudes (±0.5 % of the rate range, ≤ 4 consumers) were
    /// tuned so that a 10⁸-step run on the base workload reaches the same
    /// utility regime as the paper's best SA run (~1.25·10⁶); coarser moves
    /// strand the search on the rate/population ridge.
    pub fn paper(start_temperature: f64, total_steps: u64, seed: u64) -> Self {
        Self {
            schedule: CoolingSchedule::paper(start_temperature),
            total_steps,
            rate_step_fraction: 0.005,
            population_step: 4,
            seed,
        }
    }
}

/// Result of one annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Best allocation found.
    pub best: Allocation,
    /// Utility of [`SearchOutcome::best`].
    pub best_utility: f64,
    /// Moves proposed.
    pub steps: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Proposes a random move: with probability ½ perturb one flow's rate by up
/// to `rate_step_fraction` of its bound width, otherwise move one class's
/// population by up to ±`population_step` consumers. Always returns a
/// bound-respecting move; problems with no flows or no classes fall back to
/// whichever move kind exists.
fn propose(state: &SearchState<'_>, cfg: &AnnealConfig, rng: &mut StdRng) -> Option<Move> {
    let problem = state.problem();
    let flows = problem.num_flows();
    let classes = problem.num_classes();
    if flows == 0 && classes == 0 {
        return None;
    }
    let pick_rate = classes == 0 || (flows > 0 && rng.gen_bool(0.5));
    if pick_rate {
        let flow = FlowId::new(rng.gen_range(0..flows as u32));
        let bounds = problem.flow(flow).bounds;
        if bounds.width() == 0.0 {
            return None;
        }
        let step = cfg.rate_step_fraction * bounds.width();
        let rate = bounds.clamp(state.rate(flow) + rng.gen_range(-step..=step));
        Some(Move::SetRate { flow, rate })
    } else {
        let class = ClassId::new(rng.gen_range(0..classes as u32));
        let max = problem.class(class).max_population;
        if max == 0 {
            return None;
        }
        let step = cfg.population_step.max(1) as i64;
        let delta = loop {
            let d = rng.gen_range(-step..=step);
            if d != 0 {
                break d;
            }
        };
        let population =
            (state.population(class) + delta as f64).clamp(0.0, max as f64);
        Some(Move::SetPopulation { class, population })
    }
}

/// Runs simulated annealing on `problem` from the all-minimum state.
///
/// Acceptance follows Metropolis: improving (or equal) moves always accept;
/// a worsening move of magnitude `Δ` accepts with probability `exp(Δ/T)`.
/// Infeasible moves are rejected without counting as backward steps.
pub fn anneal(problem: &Problem, config: &AnnealConfig) -> SearchOutcome {
    anneal_from(problem, &Allocation::lower_bounds(problem), config)
}

/// Runs simulated annealing from an arbitrary feasible starting allocation.
///
/// Useful as a *polish* pass: seeding SA with another optimizer's solution
/// measures how much local improvement that solution leaves on the table
/// (LRGP leaves very little — see the `polish` experiment binary).
///
/// # Panics
///
/// Panics if `initial` is infeasible (SA's move evaluation assumes it never
/// leaves the feasible region).
pub fn anneal_from(
    problem: &Problem,
    initial: &Allocation,
    config: &AnnealConfig,
) -> SearchOutcome {
    assert!(
        initial.is_feasible(problem, 1e-9),
        "annealing must start from a feasible allocation"
    );
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = SearchState::new(problem, initial);
    let mut best = state.to_allocation();
    let mut best_utility = state.utility();
    let mut steps = 0;
    let mut accepted = 0;

    let rounds = config.schedule.rounds();
    let steps_per_round = (config.total_steps / rounds).max(1);

    'outer: for temperature in config.schedule.temperatures() {
        for _ in 0..steps_per_round {
            if steps >= config.total_steps {
                break 'outer;
            }
            steps += 1;
            let Some(mv) = propose(&state, config, &mut rng) else { continue };
            let Some(delta) = state.evaluate(mv) else { continue };
            let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp();
            if accept {
                state.apply(mv);
                accepted += 1;
                if state.utility() > best_utility {
                    best_utility = state.utility();
                    best = state.to_allocation();
                }
            }
        }
    }

    SearchOutcome { best, best_utility, steps, accepted, elapsed: start.elapsed() }
}

/// One cell of an annealing sweep (Table 2/3 report the best cell).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Start temperature of this cell.
    pub start_temperature: f64,
    /// Step budget of this cell.
    pub total_steps: u64,
    /// The run's outcome.
    pub outcome: SearchOutcome,
}

/// Runs the paper's sweep — every start temperature × every step budget —
/// in parallel, returning all runs sorted best-first.
///
/// The paper sweeps temperatures {5, 10, 50, 100} × steps {10⁶, 10⁷, 10⁸}
/// and reports the best of the twelve runs per workload.
pub fn sweep(
    problem: &Problem,
    temperatures: &[f64],
    step_budgets: &[u64],
    seed: u64,
) -> Vec<SweepRun> {
    let cells: Vec<(f64, u64)> = temperatures
        .iter()
        .flat_map(|&t| step_budgets.iter().map(move |&s| (t, s)))
        .collect();
    let mut runs: Vec<SweepRun> = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, &(t, s))| {
                scope.spawn(move || {
                    let cfg = AnnealConfig::paper(t, s, seed.wrapping_add(i as u64));
                    SweepRun { start_temperature: t, total_steps: s, outcome: anneal(problem, &cfg) }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(run) => runs.push(run),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    sort_runs_best_first(&mut runs);
    runs
}

/// Sorts sweep runs best-utility-first under `f64::total_cmp`, so a
/// degenerate (NaN-utility) run lands in a fixed position instead of an
/// input-order-dependent one. `sort_by` is stable, so equal-utility cells
/// keep the deterministic temperature-major sweep order. Note the
/// `total_cmp` NaN ordering: a positive-NaN outcome sorts *before* +∞ here
/// — callers that must never pick a poisoned run should validate utility
/// finiteness, not rely on ordering.
pub fn sort_runs_best_first(runs: &mut [SweepRun]) {
    runs.sort_by(|a, b| b.outcome.best_utility.total_cmp(&a.outcome.best_utility));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgp_model::workloads::base_workload;

    fn small_cfg(seed: u64) -> AnnealConfig {
        AnnealConfig::paper(5.0, 50_000, seed)
    }

    #[test]
    fn sort_runs_best_first_is_deterministic_with_nan_utility() {
        let p = base_workload();
        let mk = |utility: f64, label: f64| SweepRun {
            start_temperature: label,
            total_steps: 1,
            outcome: SearchOutcome {
                best: Allocation::lower_bounds(&p),
                best_utility: utility,
                steps: 1,
                accepted: 0,
                elapsed: Duration::ZERO,
            },
        };
        let mut a = vec![mk(1.0, 1.0), mk(f64::NAN, 2.0), mk(5.0, 3.0)];
        let mut b = vec![mk(5.0, 3.0), mk(1.0, 1.0), mk(f64::NAN, 2.0)];
        sort_runs_best_first(&mut a);
        sort_runs_best_first(&mut b);
        let labels = |runs: &[SweepRun]| -> Vec<f64> {
            runs.iter().map(|r| r.start_temperature).collect()
        };
        // Same order regardless of input permutation; positive NaN sorts
        // first under descending total_cmp, the finite runs descend after.
        assert_eq!(labels(&a), labels(&b));
        assert!(a[0].outcome.best_utility.is_nan());
        assert_eq!(labels(&a)[1..], [3.0, 1.0]);
    }

    #[test]
    fn schedule_rounds_match_closed_form() {
        let s = CoolingSchedule::paper(5.0);
        // ln(5)/−ln(0.999) ≈ 1609
        let rounds = s.rounds();
        assert!((1605..=1615).contains(&rounds), "rounds {rounds}");
        assert_eq!(rounds, s.temperatures().count() as u64);
        let temps: Vec<f64> = s.temperatures().take(2).collect();
        assert_eq!(temps[0], 5.0);
        assert!((temps[1] - 4.995).abs() < 1e-12);
    }

    #[test]
    fn schedule_degenerate_start_still_one_round() {
        let s = CoolingSchedule { start_temperature: 0.5, cooling_factor: 0.999, stop_temperature: 1.0 };
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.temperatures().count(), 0);
    }

    #[test]
    fn schedule_keeps_every_cooling_start_and_ends_on_one_that_does_not_cool() {
        // The plain loop every start that cools must still match.
        let plain = |start: f64| {
            let (mut t, mut rounds) = (start, 0u64);
            while t > 1.0 {
                t *= 0.999;
                rounds += 1;
            }
            rounds
        };
        for start in [1.5, 5.0, 10.0, 50.0, 100.0, 1e300, f64::MAX] {
            let s = CoolingSchedule::paper(start);
            assert_eq!(s.temperatures().count() as u64, plain(start), "start {start}");
            assert_eq!(s.rounds(), plain(start).max(1), "start {start}");
        }
        // ∞ · 0.999 = ∞, and a factor of 1 never cools: each ends after
        // one round. Watched, so a schedule that loops fails instead of
        // hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let schedules = [
                CoolingSchedule::paper(f64::INFINITY),
                CoolingSchedule { cooling_factor: 1.0, ..CoolingSchedule::paper(5.0) },
            ];
            let _ = tx.send(schedules.map(|s| (s.rounds(), s.temperatures().collect::<Vec<_>>())));
        });
        let ended = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a schedule that does not cool did not end within 20 s");
        assert_eq!(ended, [(1, vec![f64::INFINITY]), (1, vec![5.0])]);
    }

    #[test]
    fn anneal_finds_positive_utility_and_feasible_best() {
        let p = base_workload();
        let out = anneal(&p, &small_cfg(1));
        assert!(out.best_utility > 1e5, "utility {}", out.best_utility);
        assert!(out.best.is_feasible(&p, 1e-6));
        assert!(out.accepted > 0 && out.accepted <= out.steps);
        // Integer division of the budget across rounds may leave a remainder
        // unspent.
        assert!(out.steps <= 50_000 && out.steps > 45_000, "steps {}", out.steps);
        assert!((out.best.total_utility(&p) - out.best_utility).abs() < 1e-6);
    }

    #[test]
    fn anneal_deterministic_per_seed() {
        let p = base_workload();
        let a = anneal(&p, &small_cfg(9));
        let b = anneal(&p, &small_cfg(9));
        assert_eq!(a.best_utility, b.best_utility);
        assert_eq!(a.best, b.best);
        let c = anneal(&p, &small_cfg(10));
        assert_ne!(a.best_utility, c.best_utility);
    }

    #[test]
    fn more_steps_do_not_hurt() {
        let p = base_workload();
        let short = anneal(&p, &AnnealConfig::paper(5.0, 10_000, 3));
        let long = anneal(&p, &AnnealConfig::paper(5.0, 200_000, 3));
        assert!(
            long.best_utility >= 0.9 * short.best_utility,
            "long {} vs short {}",
            long.best_utility,
            short.best_utility
        );
    }

    #[test]
    fn sweep_returns_sorted_runs() {
        let p = base_workload();
        let runs = sweep(&p, &[5.0, 50.0], &[5_000, 20_000], 7);
        assert_eq!(runs.len(), 4);
        for w in runs.windows(2) {
            assert!(w[0].outcome.best_utility >= w[1].outcome.best_utility);
        }
    }

    #[test]
    fn anneal_from_polishes_without_regressing() {
        let p = base_workload();
        // Seed with a decent feasible point (a short SA run's best).
        let seed_run = anneal(&p, &small_cfg(1));
        let polished = anneal_from(&p, &seed_run.best, &small_cfg(2));
        assert!(
            polished.best_utility >= seed_run.best_utility,
            "polish {} must not regress below its seed {}",
            polished.best_utility,
            seed_run.best_utility
        );
        assert!(polished.best.is_feasible(&p, 1e-6));
    }

    #[test]
    #[should_panic(expected = "feasible allocation")]
    fn anneal_from_rejects_infeasible_seed() {
        let p = base_workload();
        let bad = Allocation::upper_bounds(&p);
        let _ = anneal_from(&p, &bad, &small_cfg(1));
    }

    #[test]
    fn anneal_populations_integral() {
        let p = base_workload();
        let out = anneal(&p, &small_cfg(2));
        assert!(out.best.populations_are_integral());
    }
}
