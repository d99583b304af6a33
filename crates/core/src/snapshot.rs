//! Engine checkpointing.
//!
//! LRGP "is running all the time" (§2.1); an operator restarting a broker's
//! control plane should not have to re-converge from scratch. An
//! [`EngineSnapshot`] captures the engine's optimizer state — rates,
//! reliabilities ρ, populations, prices, and the per-node γ controllers —
//! and restores an engine that continues *exactly* where the original left
//! off (traces are not part of the snapshot; a restored engine starts a
//! fresh trace).

use crate::engine::{LrgpConfig, Engine};
use crate::gamma::GammaController;
use crate::kernel::price::PriceVector;
use lrgp_model::Problem;
use serde::{Deserialize, Serialize};

/// A serializable checkpoint of an engine's optimizer state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Engine configuration at snapshot time.
    pub config: LrgpConfig,
    /// Flow rates.
    pub rates: Vec<f64>,
    /// Per-flow delivery reliabilities ρ. Snapshots written before ρ was
    /// captured load with an empty vector, and restore the initial ρ.
    #[serde(default)]
    pub rhos: Vec<f64>,
    /// Class populations.
    pub populations: Vec<f64>,
    /// Node and link prices.
    pub prices: PriceVector,
    /// Per-node γ controllers (step size + fluctuation state).
    pub gamma_controllers: Vec<GammaController>,
    /// Iterations executed before the snapshot.
    pub iteration: usize,
}

impl Engine {
    /// Captures the optimizer state (not the trace).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            config: *self.config(),
            rates: self.allocation().rates().to_vec(),
            rhos: self.rhos().to_vec(),
            populations: self.allocation().populations().to_vec(),
            prices: self.prices().clone(),
            gamma_controllers: self.gamma_controllers().to_vec(),
            iteration: self.iteration(),
        }
    }

    /// Rebuilds an engine from a snapshot over `problem`.
    ///
    /// The problem must have the same dimensions as the one the snapshot
    /// was taken from (any delta that keeps the id space is fine). A
    /// snapshot without ρ restores each flow's initial ρ, as
    /// [`Engine::new`] sets it.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn restore(problem: Problem, snapshot: EngineSnapshot) -> Engine {
        assert_eq!(snapshot.rates.len(), problem.num_flows(), "flow count mismatch");
        assert!(
            snapshot.rhos.is_empty() || snapshot.rhos.len() == problem.num_flows(),
            "reliability count mismatch"
        );
        assert_eq!(snapshot.populations.len(), problem.num_classes(), "class count mismatch");
        assert_eq!(
            snapshot.prices.node_prices().len(),
            problem.num_nodes(),
            "node count mismatch"
        );
        assert_eq!(
            snapshot.prices.link_prices().len(),
            problem.num_links(),
            "link count mismatch"
        );
        assert_eq!(
            snapshot.gamma_controllers.len(),
            problem.num_nodes(),
            "controller count mismatch"
        );
        let mut engine = Engine::new(problem, snapshot.config);
        let rhos =
            if snapshot.rhos.is_empty() { engine.rhos().to_vec() } else { snapshot.rhos };
        engine.load_state(
            snapshot.rates,
            rhos,
            snapshot.populations,
            snapshot.prices,
            snapshot.gamma_controllers,
            snapshot.iteration,
        );
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Reliability;
    use lrgp_model::workloads::{base_workload, mixed_loss_workload};
    use lrgp_model::UtilityShape;

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut original = Engine::new(base_workload(), LrgpConfig::default());
        original.run(37);
        let snap = original.snapshot();
        assert_eq!(snap.iteration, 37);

        let mut restored = Engine::restore(base_workload(), snap);
        assert_eq!(restored.iteration(), 37);
        assert_eq!(restored.allocation(), original.allocation());

        // Both continue identically for another stretch.
        for k in 0..60 {
            let a = original.step();
            let b = restored.step();
            assert_eq!(a, b, "diverged at continued step {k}");
        }
        assert_eq!(original.allocation(), restored.allocation());
        assert_eq!(original.prices(), restored.prices());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut engine = Engine::new(base_workload(), LrgpConfig::default());
        engine.run(20);
        let snap = engine.snapshot();
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: EngineSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        assert_eq!(back, snap);
        let mut a = Engine::restore(base_workload(), snap);
        let mut b = Engine::restore(base_workload(), back);
        assert_eq!(a.step(), b.step());
    }

    #[test]
    fn snapshot_restores_rho_under_joint_reliability() {
        // Power utilities and tight links keep ρ interior, so a restore
        // that fell back to the initial ρ would read a different
        // reliability utility and step differently.
        let problem = mixed_loss_workload(6, 100.0, 7).with_utility_shape(UtilityShape::Pow75);
        let config = LrgpConfig { reliability: Reliability::Joint, ..LrgpConfig::default() };
        let mut original = Engine::new(problem.clone(), config);
        original.run(150);
        let snap = original.snapshot();
        let bits = |e: &Engine| e.rhos().iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let initial = Engine::new(problem.clone(), config);
        assert_ne!(bits(&original), bits(&initial), "ρ must have left its start");

        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: EngineSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        let mut restored = Engine::restore(problem.clone(), back);
        assert_eq!(bits(&restored), bits(&original));
        assert_eq!(
            restored.reliability_utility().to_bits(),
            original.reliability_utility().to_bits()
        );
        for k in 0..80 {
            let (a, b) = (original.step(), restored.step());
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at continued step {k}");
        }
        assert_eq!(bits(&restored), bits(&original));

        // A snapshot written before ρ was captured still loads, and starts
        // from the initial ρ.
        let start = json.find(r#""rhos":["#).expect("the snapshot carries the key");
        let end = start + json[start..].find("],").expect("ρ is a flat list") + 2;
        let old = format!("{}{}", &json[..start], &json[end..]);
        let old: EngineSnapshot = serde_json::from_str(&old).expect("old snapshot loads");
        assert!(old.rhos.is_empty());
        assert_eq!(bits(&Engine::restore(problem, old)), bits(&initial));
    }

    #[test]
    fn snapshot_with_a_numerics_key_restores_like_one_without() {
        // Snapshots written while the engine had a `numerics` axis carry the
        // key in their config. The reader skips it, so such a snapshot
        // resumes bit for bit like the same snapshot without the key.
        let mut engine = Engine::new(base_workload(), LrgpConfig::default());
        engine.run(20);
        let json = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
        let old = json.replacen(r#""config":{"#, r#""config":{"numerics":"Vectorized","#, 1);
        assert_ne!(old, json, "the config object must take the key");
        let with_key: EngineSnapshot = serde_json::from_str(&old).expect("old snapshot loads");
        let without: EngineSnapshot = serde_json::from_str(&json).expect("snapshot loads");
        let mut a = Engine::restore(base_workload(), with_key);
        let mut b = Engine::restore(base_workload(), without);
        for k in 0..40 {
            assert_eq!(a.step().to_bits(), b.step().to_bits(), "diverged at step {k}");
        }
        assert_eq!(a.allocation(), b.allocation());
        assert_eq!(a.prices(), b.prices());
    }

    #[test]
    fn json_naming_auto_parallelism_is_an_error() {
        // `Parallelism` has no `Auto` variant: a snapshot or config that
        // names one fails to load instead of panicking or loading as
        // another variant.
        let auto = |json: &str| {
            let named =
                json.replacen(r#""parallelism":"Sequential""#, r#""parallelism":"Auto""#, 1);
            assert_ne!(named, json, "the JSON must carry the key");
            named
        };
        let mut engine = Engine::new(base_workload(), LrgpConfig::default());
        engine.run(5);
        let snapshot = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
        assert!(serde_json::from_str::<EngineSnapshot>(&snapshot).is_ok());
        assert!(serde_json::from_str::<EngineSnapshot>(&auto(&snapshot)).is_err());
        let config = serde_json::to_string(&LrgpConfig::default()).expect("config serializes");
        assert!(serde_json::from_str::<LrgpConfig>(&config).is_ok());
        assert!(serde_json::from_str::<LrgpConfig>(&auto(&config)).is_err());
    }

    #[test]
    #[should_panic(expected = "flow count mismatch")]
    fn restore_rejects_wrong_problem() {
        let mut engine = Engine::new(base_workload(), LrgpConfig::default());
        engine.run(5);
        let snap = engine.snapshot();
        let bigger = lrgp_model::workloads::paper_workload(lrgp_model::UtilityShape::Log, 2, 1);
        let _ = Engine::restore(bigger, snap);
    }
}
