//! Step-size (γ) control for the node price update (§4.2).
//!
//! The paper first uses a fixed step γ in Eq. 12, observing that large γ
//! converges fast but oscillates, while small γ converges slowly (Fig. 1).
//! It then proposes an adaptive heuristic (Fig. 2): start from a fixed
//! value, grow γ by 0.001 each quiet iteration, halve it whenever the
//! node's price fluctuates, and clamp to `[0.001, 0.1]`.

use lrgp_num::series::FluctuationDetector;
use serde::{Deserialize, Serialize};

/// Parameters of the adaptive-γ heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveGammaConfig {
    /// Starting value of γ.
    pub initial: f64,
    /// Lower clamp (paper: 0.001).
    pub min: f64,
    /// Upper clamp (paper: 0.1).
    pub max: f64,
    /// Additive increment applied each non-fluctuating iteration
    /// (paper: 0.001).
    pub increment: f64,
    /// Multiplicative factor applied when a fluctuation is detected
    /// (paper: 0.5).
    pub decay: f64,
}

impl Default for AdaptiveGammaConfig {
    fn default() -> Self {
        Self { initial: 0.1, min: 0.001, max: 0.1, increment: 0.001, decay: 0.5 }
    }
}

impl AdaptiveGammaConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= initial <= max`, `increment >= 0` and
    /// `0 < decay < 1`.
    pub fn validate(&self) {
        assert!(self.min > 0.0, "gamma min must be positive");
        assert!(self.min <= self.initial && self.initial <= self.max, "need min <= initial <= max");
        assert!(self.increment >= 0.0, "gamma increment must be nonnegative");
        assert!(self.decay > 0.0 && self.decay < 1.0, "gamma decay must be in (0, 1)");
    }
}

/// Selects how the node price step size is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GammaMode {
    /// A constant γ (used for Fig. 1's γ ∈ {1, 0.1, 0.01} sweeps). The same
    /// value serves as γ₁ and γ₂ in Eq. 12, as in the paper's experiments.
    Fixed {
        /// The constant step size.
        gamma: f64,
    },
    /// The adaptive heuristic of §4.2.
    Adaptive(AdaptiveGammaConfig),
}

impl Default for GammaMode {
    fn default() -> Self {
        GammaMode::Adaptive(AdaptiveGammaConfig::default())
    }
}

impl GammaMode {
    /// Convenience constructor for a fixed step.
    pub fn fixed(gamma: f64) -> Self {
        GammaMode::Fixed { gamma }
    }

    /// Convenience constructor for the paper's default adaptive heuristic.
    pub fn adaptive() -> Self {
        GammaMode::Adaptive(AdaptiveGammaConfig::default())
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
    /// Panics if an adaptive configuration is invalid (see
    /// [`AdaptiveGammaConfig::validate`]) or a fixed γ is negative.
    pub fn new(mode: GammaMode) -> Self {
        let gamma = match mode {
            GammaMode::Fixed { gamma } => {
                assert!(gamma >= 0.0, "fixed gamma must be nonnegative");
                gamma
            }
            GammaMode::Adaptive(cfg) => {
                cfg.validate();
                cfg.initial
            }
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
        if let GammaMode::Adaptive(cfg) = self.mode {
            if fluctuated {
                self.gamma = (self.gamma * cfg.decay).max(cfg.min);
            } else {
                self.gamma = (self.gamma + cfg.increment).min(cfg.max);
            }
        }
        self.gamma
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
        let cfg = AdaptiveGammaConfig { initial: 0.01, ..Default::default() };
        let mut c = GammaController::new(GammaMode::Adaptive(cfg));
        // Monotone rising price: quiet.
        for i in 1..=5 {
            c.observe_price(i as f64);
        }
        assert!((c.gamma() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn adaptive_halves_on_fluctuation() {
        let cfg = AdaptiveGammaConfig { initial: 0.08, ..Default::default() };
        let mut c = GammaController::new(GammaMode::Adaptive(cfg));
        c.observe_price(1.0); // up, quiet → 0.081
        c.observe_price(0.5); // down: fluctuation → 0.0405
        assert!((c.gamma() - 0.0405).abs() < 1e-12);
    }

    #[test]
    fn adaptive_clamps_at_both_ends() {
        let cfg = AdaptiveGammaConfig::default(); // initial = max = 0.1
        let mut c = GammaController::new(GammaMode::Adaptive(cfg));
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
    fn default_mode_is_paper_adaptive() {
        match GammaMode::default() {
            GammaMode::Adaptive(cfg) => {
                assert_eq!(cfg.min, 0.001);
                assert_eq!(cfg.max, 0.1);
                assert_eq!(cfg.increment, 0.001);
                assert_eq!(cfg.decay, 0.5);
            }
            _ => panic!("default must be adaptive"),
        }
    }

    #[test]
    #[should_panic(expected = "min <= initial <= max")]
    fn adaptive_rejects_initial_outside_clamp() {
        let cfg = AdaptiveGammaConfig { initial: 0.5, ..Default::default() };
        let _ = GammaController::new(GammaMode::Adaptive(cfg));
    }

    #[test]
    #[should_panic(expected = "fixed gamma must be nonnegative")]
    fn fixed_rejects_negative() {
        let _ = GammaController::new(GammaMode::fixed(-0.1));
    }
}
