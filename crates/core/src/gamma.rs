//! Step-size (γ) control for the node price update (§4.2).
//!
//! The paper first uses a fixed step γ in Eq. 12, observing that large γ
//! converges fast but oscillates, while small γ converges slowly (Fig. 1).
//! It then proposes an adaptive heuristic (Fig. 2): start at 0.1, grow γ
//! by 0.001 each quiet iteration, halve it whenever the node's price
//! fluctuates, and clamp to `[0.001, 0.1]`. Those constants are fixed
//! here, as [`GammaMode::Adaptive`].

use lrgp_num::series::FluctuationDetector;
use serde::{Deserialize, Serialize};

/// Selects how the node price step size is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum GammaMode {
    /// A constant γ (used for Fig. 1's γ ∈ {1, 0.1, 0.01} sweeps). The same
    /// value serves as γ₁ and γ₂ in Eq. 12, as in the paper's experiments.
    Fixed {
        /// The constant step size.
        gamma: f64,
    },
    /// The adaptive heuristic of §4.2 with the paper's constants: γ starts
    /// at 0.1, grows by 0.001 per quiet iteration, halves on a fluctuation,
    /// and stays in `[0.001, 0.1]`.
    #[default]
    Adaptive,
}

impl Deserialize for GammaMode {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::DeError> {
        let (tag, payload) = r.variant("GammaMode")?;
        let mode = match (&*tag, payload) {
            ("Fixed", true) => GammaMode::Fixed { gamma: FixedGamma::deserialize(r)?.gamma },
            ("Adaptive", false) => GammaMode::Adaptive,
            // The heuristic's five parameters were fields once and are
            // constants now, so a legacy payload is skipped unread.
            ("Adaptive", true) => {
                r.skip_value()?;
                GammaMode::Adaptive
            }
            _ => return Err(r.unknown_variant(&tag, payload, "GammaMode")),
        };
        if payload {
            r.end_variant()?;
        }
        Ok(mode)
    }
}

/// The payload of a serialized [`GammaMode::Fixed`].
#[derive(Deserialize)]
struct FixedGamma {
    gamma: f64,
}

impl GammaMode {
    /// Convenience constructor for a fixed step.
    pub fn fixed(gamma: f64) -> Self {
        GammaMode::Fixed { gamma }
    }

    /// The paper's adaptive heuristic.
    pub fn adaptive() -> Self {
        GammaMode::Adaptive
    }
}

/// Per-node γ controller: holds the current step size and watches the
/// node's price trace for fluctuations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GammaController {
    mode: GammaMode,
    gamma: f64,
    detector: FluctuationDetector,
}

impl GammaController {
    /// Creates a controller for one node, primed with the node's initial
    /// price of 0.
    ///
    /// # Panics
    ///
    /// Panics if a fixed γ is negative.
    pub fn new(mode: GammaMode) -> Self {
        let gamma = match mode {
            GammaMode::Fixed { gamma } => {
                assert!(gamma >= 0.0, "fixed gamma must be nonnegative");
                gamma
            }
            GammaMode::Adaptive => 0.1,
        };
        Self { mode, gamma, detector: FluctuationDetector::new(0.0) }
    }

    /// The step size to use for the *next* price update.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Feeds the freshly computed node price; adapts γ for the next
    /// iteration (no-op in fixed mode). Returns the γ that will be used
    /// next.
    pub fn observe_price(&mut self, price: f64) -> f64 {
        let fluctuated = self.detector.observe(price);
        if self.mode == GammaMode::Adaptive {
            // §4.2's constants (see `GammaMode::Adaptive`).
            if fluctuated {
                self.gamma = (self.gamma * 0.5).max(0.001);
            } else {
                self.gamma = (self.gamma + 0.001).min(0.1);
            }
        }
        self.gamma
    }

    /// Feeds `price` as [`Self::observe_price`] does, and reports whether
    /// the controller's state moved: γ or the remembered price changed
    /// bitwise, or the price is NaN. The detector's remembered direction
    /// turns only when the price differs numerically from the remembered
    /// one, which changes its bits, or is NaN.
    pub(crate) fn observe_price_moved(&mut self, price: f64) -> bool {
        let before = (self.gamma.to_bits(), self.detector.last_value().to_bits());
        self.observe_price(price);
        price.is_nan() || before != (self.gamma.to_bits(), price.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_never_changes() {
        let mut c = GammaController::new(GammaMode::fixed(0.3));
        assert_eq!(c.gamma(), 0.3);
        for p in [1.0, 0.0, 2.0, -1.0, 3.0] {
            c.observe_price(p);
        }
        assert_eq!(c.gamma(), 0.3);
    }

    #[test]
    fn adaptive_grows_while_quiet() {
        let mut c = GammaController::new(GammaMode::Adaptive);
        c.observe_price(1.0); // up, quiet: stays at the 0.1 ceiling
        c.observe_price(0.5); // down: fluctuation → 0.05
        // Monotone falling price: quiet.
        for i in 1..=5 {
            c.observe_price(0.5 - 0.1 * i as f64);
        }
        assert!((c.gamma() - 0.055).abs() < 1e-12);
    }

    #[test]
    fn adaptive_halves_on_fluctuation() {
        let mut c = GammaController::new(GammaMode::Adaptive);
        c.observe_price(1.0); // up, quiet → 0.1
        c.observe_price(0.5); // down: fluctuation → 0.05
        c.observe_price(0.4); // down, quiet → 0.051
        c.observe_price(0.6); // up: fluctuation → 0.0255
        assert!((c.gamma() - 0.0255).abs() < 1e-12);
    }

    #[test]
    fn adaptive_clamps_at_both_ends() {
        let mut c = GammaController::new(GammaMode::Adaptive);
        c.observe_price(1.0);
        assert_eq!(c.gamma(), 0.1); // clamped at max
        // Alternate to force repeated halving to the floor.
        let mut x = 1.0;
        for _ in 0..20 {
            x = -x;
            c.observe_price(x);
        }
        assert!((c.gamma() - 0.001).abs() < 1e-12); // clamped at min
    }

    #[test]
    fn a_held_price_moves_the_controller_until_gamma_is_back_at_its_ceiling() {
        let mut c = GammaController::new(GammaMode::Adaptive);
        assert!(!c.observe_price_moved(0.0), "a held price at the 0.1 ceiling moves nothing");
        assert!(c.observe_price_moved(1.0), "a price move moves the remembered price");
        assert!(c.observe_price_moved(0.5), "a fluctuation halves γ");
        let mut climbs = 0;
        while c.observe_price_moved(0.5) {
            climbs += 1;
        }
        assert_eq!(c.gamma(), 0.1);
        assert!((49..=51).contains(&climbs), "γ climbed back in {climbs} held steps");
        let mut fixed = GammaController::new(GammaMode::fixed(0.3));
        assert!(!fixed.observe_price_moved(0.0));
        assert!(fixed.observe_price_moved(f64::NAN), "NaN counts as a move");
    }

    #[test]
    fn default_mode_is_paper_adaptive() {
        assert_eq!(GammaMode::default(), GammaMode::Adaptive);
        assert_eq!(GammaController::new(GammaMode::default()).gamma(), 0.1);
    }

    #[test]
    fn gamma_mode_json_round_trips_and_skips_a_legacy_payload() {
        for mode in [GammaMode::fixed(0.25), GammaMode::Adaptive] {
            let json = serde_json::to_string(&mode).unwrap();
            assert_eq!(serde_json::from_str::<GammaMode>(&json).unwrap(), mode, "{json}");
        }
        // The form written while the heuristic's parameters were fields,
        // with a non-default start: the payload is ignored.
        let legacy = r#"{"Adaptive":{"initial":0.05,"min":0.001,"max":0.1,"increment":0.001,"decay":0.5}}"#;
        assert_eq!(serde_json::from_str::<GammaMode>(legacy).unwrap(), GammaMode::Adaptive);
        assert!(serde_json::from_str::<GammaMode>(r#""Fixed""#).is_err());
        assert!(serde_json::from_str::<GammaMode>(r#"{"Adaptive":{},"Fixed":{}}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "fixed gamma must be nonnegative")]
    fn fixed_rejects_negative() {
        let _ = GammaController::new(GammaMode::fixed(-0.1));
    }
}
