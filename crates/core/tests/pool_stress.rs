//! Stress suite for the persistent worker pool (`lrgp::pool`).
//!
//! The pool's risk profile is classic shared-state concurrency: a lost
//! wakeup parks a worker forever, a missed `done` notification wedges the
//! caller, and a respawn-per-step bug silently reintroduces the spawn/join
//! cost the pool exists to remove. Each test hammers one of those failure
//! modes under a watchdog: thousands of tiny steps through one pool,
//! several pools interleaved on one thread, pools driven concurrently from
//! many threads, and clone/drop churn. Every test also keeps a sequential
//! reference engine in lockstep, so a scheduling bug that corrupts results
//! (rather than hanging) still fails loudly via `f64::to_bits` equality.
//!
//! Dispatch is forced (`Engine::force_pool_dispatch`) so the cross-thread
//! handoff is exercised even on single-CPU hosts, where the pool would
//! otherwise run shards inline on the caller.

use lrgp::{Engine, LrgpConfig, Parallelism};
use lrgp_model::workloads::base_workload;
use lrgp_model::{FlowId, ProblemDelta};
use std::collections::HashSet;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Runs `body` on a helper thread and fails the test if it has not
/// finished within `timeout` — a deadlock or lost wakeup in the pool shows
/// up as this panic instead of a CI-level job timeout.
fn with_watchdog<F>(name: &str, timeout: Duration, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let worker = thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            body();
            let _ = tx.send(());
        })
        .expect("spawning the watchdog body thread");
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("watchdog body panicked"),
        Err(_) => panic!(
            "watchdog: `{name}` did not finish within {timeout:?} — \
             pool deadlock or lost wakeup"
        ),
    }
}

fn pooled_config(workers: usize) -> LrgpConfig {
    LrgpConfig { parallelism: Parallelism::Threads(workers), ..LrgpConfig::default() }
}

#[test]
fn thousands_of_tiny_steps_reuse_the_same_workers() {
    with_watchdog("tiny-steps", Duration::from_secs(300), || {
        let mut engine = Engine::new(base_workload(), pooled_config(3));
        engine.force_pool_dispatch(true);
        let ids_before = engine.pool_worker_ids();
        // Threads(3) = the caller plus two pooled workers, each a distinct
        // OS thread.
        assert_eq!(ids_before.len(), 2, "Threads(3) should hold 2 pooled workers");
        let distinct: HashSet<_> = ids_before.iter().collect();
        assert_eq!(distinct.len(), ids_before.len(), "worker thread ids must be distinct");

        let mut reference = Engine::new(base_workload(), LrgpConfig::default());
        for k in 0..2_000 {
            let pooled = engine.step();
            let expected = reference.step();
            assert_eq!(
                expected.to_bits(),
                pooled.to_bits(),
                "pooled utility diverged from sequential at step {k}"
            );
        }

        // The same threads served every step: no respawning mid-run.
        assert_eq!(
            ids_before,
            engine.pool_worker_ids(),
            "worker threads were respawned during the run"
        );
        // And they actually worked — the base workload dispatches the rate
        // and admission phases every step, so each worker completed at
        // least one job per step.
        let jobs = engine.pool_jobs_completed();
        assert!(
            jobs.iter().all(|&count| count >= 2_000),
            "every worker should have run a shard of every step, got {jobs:?}"
        );
    });
}

#[test]
fn interleaved_engines_with_separate_pools_stay_in_lockstep() {
    with_watchdog("interleaved", Duration::from_secs(300), || {
        // Four pools parked and woken alternately from one driver thread;
        // worker counts straddle the workload's 6 flows so shard layouts
        // differ per engine.
        let mut pooled: Vec<Engine> = [2usize, 3, 4, 7]
            .iter()
            .map(|&w| {
                let engine = Engine::new(base_workload(), pooled_config(w));
                engine.force_pool_dispatch(true);
                engine
            })
            .collect();
        let mut reference = Engine::new(base_workload(), LrgpConfig::default());
        for k in 0..1_000 {
            let expected = reference.step();
            for (engine, w) in pooled.iter_mut().zip([2usize, 3, 4, 7]) {
                let got = engine.step();
                assert_eq!(
                    expected.to_bits(),
                    got.to_bits(),
                    "Threads({w}) diverged from sequential at step {k}"
                );
            }
        }
    });
}

#[test]
fn engines_step_concurrently_from_many_threads() {
    with_watchdog("concurrent-engines", Duration::from_secs(300), || {
        let expected = {
            let mut engine = Engine::new(base_workload(), LrgpConfig::default());
            engine.run(800)
        };
        // Each driver thread owns an engine (and thus a pool); they all run
        // at once, so pool wakeups from different pools interleave on the
        // scheduler.
        let drivers: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    let engine = &mut Engine::new(base_workload(), pooled_config(2 + i % 3));
                    engine.force_pool_dispatch(true);
                    engine.run(800)
                })
            })
            .collect();
        for driver in drivers {
            let got = driver.join().expect("driver thread panicked");
            assert_eq!(expected.to_bits(), got.to_bits(), "concurrent engine diverged");
        }
    });
}

#[test]
fn clone_and_drop_churn_neither_wedges_nor_diverges() {
    with_watchdog("clone-drop", Duration::from_secs(300), || {
        let mut engine = Engine::new(base_workload(), pooled_config(3));
        engine.force_pool_dispatch(true);
        engine.run(25);
        let ids_before = engine.pool_worker_ids();
        for round in 0..50 {
            // A clone gets a fresh pool of the same size; stepping both and
            // then dropping the clone joins its workers cleanly.
            let mut clone = engine.clone();
            clone.force_pool_dispatch(true);
            let original = engine.step();
            let cloned = clone.step();
            assert_eq!(
                original.to_bits(),
                cloned.to_bits(),
                "clone diverged from original at round {round}"
            );
        }
        assert_eq!(
            ids_before,
            engine.pool_worker_ids(),
            "clone churn must not disturb the original engine's pool"
        );
    });
}

#[test]
fn an_unbounded_thread_count_sizes_the_pool_to_the_problem() {
    with_watchdog("unbounded-threads", Duration::from_secs(300), || {
        // No phase of the base workload can shard over more than its
        // largest dimension (9 nodes), so the pool holds 8 workers beside
        // the caller.
        let mut engine = Engine::new(base_workload(), pooled_config(usize::MAX));
        engine.force_pool_dispatch(true);
        assert_eq!(engine.pool_worker_ids().len(), 8);
        assert_eq!(engine.effective_workers(), 9);
        let mut reference = Engine::new(base_workload(), LrgpConfig::default());
        for k in 0..40 {
            assert_eq!(
                reference.step().to_bits(),
                engine.step().to_bits(),
                "Threads(usize::MAX) diverged from sequential at step {k}"
            );
        }
        assert!(engine.pool_jobs_completed().iter().sum::<u64>() > 0, "the pool never ran");
    });
}

#[test]
fn a_growing_delta_resizes_the_pool_to_the_grown_problem() {
    with_watchdog("growing-delta", Duration::from_secs(300), || {
        // The base workload's largest dimension is its 9 nodes, so
        // `Threads(64)` starts with 8 workers beside the caller. Forty flow
        // additions make flows the largest dimension (46), and the pool
        // must follow, as a fresh engine on the grown problem would size it.
        let problem = base_workload();
        let mut grow = ProblemDelta::new();
        for f in 0..40 {
            let template = FlowId::new(f % problem.num_flows() as u32);
            let classes =
                problem.classes_of_flow(template).iter().map(|&c| problem.class(c).clone());
            grow = grow.add_flow(problem.flow(template).clone(), classes.collect());
        }
        let mut engine = Engine::new(problem.clone(), pooled_config(64));
        engine.force_pool_dispatch(true);
        let mut reference = Engine::new(problem, LrgpConfig::default());
        assert_eq!(engine.effective_workers(), 9);
        assert_eq!(engine.pool_worker_ids().len(), 8);
        engine.run(10);
        reference.run(10);
        engine.apply_delta(&grow).expect("copies of existing flows are valid");
        reference.apply_delta(&grow).expect("copies of existing flows are valid");
        assert_eq!(engine.problem().num_flows(), 46);
        assert_eq!(engine.effective_workers(), 46);
        assert_eq!(engine.pool_worker_ids().len() + 1, 46);
        for k in 0..40 {
            assert_eq!(
                reference.step().to_bits(),
                engine.step().to_bits(),
                "the grown Threads(64) engine diverged from sequential at step {k}"
            );
        }
        assert!(engine.pool_jobs_completed().iter().sum::<u64>() > 0, "the pool never ran");
    });
}
