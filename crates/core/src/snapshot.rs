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
use lrgp_model::{Problem, ValidationError};
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
    /// Captures the optimizer state (not the trace), copying each vector
    /// once.
    pub fn snapshot(&self) -> EngineSnapshot {
        let state = self.step_state();
        EngineSnapshot {
            config: *self.config(),
            rates: state.rates().to_vec(),
            rhos: state.rhos().to_vec(),
            populations: state.populations().to_vec(),
            prices: state.prices().clone(),
            gamma_controllers: state.gammas().to_vec(),
            iteration: self.iteration(),
        }
    }

    /// Rebuilds an engine from a snapshot over `problem`: the engine's one
    /// rebuild path. Its executor is fresh, so its first step recomputes
    /// everything, and its trace starts empty.
    ///
    /// The problem must have the same dimensions as the one the snapshot
    /// was taken from, but may differ from it by any delta that keeps the
    /// id space. The restore reconciles the snapshot with `problem` as
    /// [`Engine::apply_delta`] reconciles an engine with a delta: each rate
    /// and ρ is clamped into its flow's bounds, and each population capped
    /// at its class's maximum. Over the snapshot's own problem nothing
    /// moves. A snapshot without ρ restores each flow's initial ρ, as
    /// [`Engine::new`] sets it.
    ///
    /// # Errors
    ///
    /// [`ValidationError::SnapshotShape`] when one of the snapshot's vectors
    /// does not match the problem's dimensions, naming the vector, its
    /// length and the length the problem needs.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn restore(problem: Problem, snapshot: EngineSnapshot) -> Result<Engine, ValidationError> {
        let (flows, nodes) = (problem.num_flows(), problem.num_nodes());
        // An empty ρ vector restores the initial ρ.
        let rhos = if snapshot.rhos.is_empty() { flows } else { snapshot.rhos.len() };
        let shapes = [
            ("rates", snapshot.rates.len(), flows),
            ("rhos", rhos, flows),
            ("populations", snapshot.populations.len(), problem.num_classes()),
            ("node prices", snapshot.prices.node_prices().len(), nodes),
            ("link prices", snapshot.prices.link_prices().len(), problem.num_links()),
            ("gamma controllers", snapshot.gamma_controllers.len(), nodes),
        ];
        for (what, len, needed) in shapes {
            if len != needed {
                return Err(ValidationError::SnapshotShape {
                    what: what.to_owned(),
                    snapshot: len,
                    problem: needed,
                });
            }
        }
        let mut engine = Engine::new(problem, snapshot.config);
        engine.load_state(snapshot);
        Ok(engine)
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

        let mut restored = Engine::restore(base_workload(), snap).expect("same problem");
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
        // A snapshot written while the adaptive γ carried its parameters and
        // each fluctuation detector its (always zero) tolerance still
        // restores: the controllers skip the legacy payload and the
        // detectors the key.
        let payload = r#"{"initial":0.1,"min":0.001,"max":0.1,"increment":0.001,"decay":0.5}"#;
        let legacy = json
            .replace(r#""Adaptive""#, &format!(r#"{{"Adaptive":{payload}}}"#))
            .replacen(r#""detector":{"#, r#""detector":{"tolerance":0.0,"#, 1);
        assert!(legacy.contains(payload), "a controller must carry the γ payload");
        assert!(legacy.contains(r#""tolerance":0.0"#), "a detector must carry the key");
        let legacy: EngineSnapshot = serde_json::from_str(&legacy).expect("legacy snapshot loads");
        assert_eq!(legacy, snap);
        let restore = |snap| Engine::restore(base_workload(), snap).expect("same problem");
        let (mut a, mut b, mut c) = (restore(snap), restore(back), restore(legacy));
        for k in 0..40 {
            let (x, y, z) = (a.step(), b.step(), c.step());
            assert_eq!(x.to_bits(), y.to_bits(), "round trip diverged at step {k}");
            assert_eq!(x.to_bits(), z.to_bits(), "legacy snapshot diverged at step {k}");
        }
        assert_eq!(a.allocation(), c.allocation());
        assert_eq!(a.prices(), c.prices());
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
        let mut restored = Engine::restore(problem.clone(), back).expect("same problem");
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
        let old = Engine::restore(problem, old).expect("an empty ρ vector restores");
        assert_eq!(bits(&old), bits(&initial));
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
        let restore = |snap| Engine::restore(base_workload(), snap).expect("same problem");
        let (mut a, mut b) = (restore(with_key), restore(without));
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
    fn restore_rejects_wrong_problem() {
        // A snapshot is read from outside JSON, so each of its vectors can
        // have any length. Each of the six checks must refuse a mismatch
        // with an error naming the vector and both lengths, never a panic.
        let problem = mixed_loss_workload(2, 100.0, 7);
        let mut engine = Engine::new(problem.clone(), LrgpConfig::default());
        engine.run(5);
        let snap = engine.snapshot();
        let (flows, classes) = (problem.num_flows(), problem.num_classes());
        let (nodes, links) = (problem.num_nodes(), problem.num_links());
        let prices = |nodes: usize, links: usize| -> PriceVector {
            let (node, link) = (vec![0.0; nodes], vec![0.0; links]);
            let json = format!(r#"{{"node_prices":{node:?},"link_prices":{link:?}}}"#);
            serde_json::from_str(&json).expect("price vectors load")
        };
        let edited = |edit: &dyn Fn(&mut EngineSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad);
            bad
        };
        let cases = [
            ("rates", edited(&|s| s.rates.push(1.0)), flows + 1, flows),
            ("rhos", edited(&|s| s.rhos.truncate(flows - 1)), flows - 1, flows),
            ("populations", edited(&|s| s.populations.extend([0.0; 3])), classes + 3, classes),
            ("node prices", edited(&|s| s.prices = prices(nodes + 2, links)), nodes + 2, nodes),
            ("link prices", edited(&|s| s.prices = prices(nodes, links + 1)), links + 1, links),
            ("gamma controllers", edited(&|s| s.gamma_controllers.truncate(1)), 1, nodes),
        ];
        for (what, bad, snapshot, needed) in cases {
            let error = Engine::restore(problem.clone(), bad).expect_err(what);
            let expected =
                ValidationError::SnapshotShape { what: what.to_owned(), snapshot, problem: needed };
            assert_eq!(error, expected);
            let message = error.to_string();
            assert!(message.contains(what) && message.contains(&needed.to_string()), "{message}");
        }
        // A snapshot of another problem fails at its first vector.
        let bigger = lrgp_model::workloads::paper_workload(lrgp_model::UtilityShape::Log, 2, 1);
        match Engine::restore(bigger, snap) {
            Err(ValidationError::SnapshotShape { what, .. }) => assert_eq!(what, "rates"),
            other => panic!("a snapshot of another problem restored: {:?}", other.map(|_| ())),
        }
    }
}
