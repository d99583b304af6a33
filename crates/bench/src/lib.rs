//! Experiment harness for the LRGP reproduction.
//!
//! Each figure and table of the paper's evaluation (§4) is regenerated by a
//! dedicated binary in this crate:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — the base workload specification |
//! | `fig1` | Figure 1 — the effect of damping (γ ∈ {1, 0.1, 0.01}) |
//! | `fig2` | Figure 2 — adaptive γ vs fixed γ |
//! | `fig3` | Figure 3 — recovery after removing flow 5 |
//! | `fig4` | Figure 4 — utility trace for `rank · r^0.75` |
//! | `table2` | Table 2 — scalability, LRGP vs simulated annealing |
//! | `table3` | Table 3 — utility-shape sensitivity, LRGP vs SA |
//! | `async_compare` | §3.5 — synchronous vs asynchronous protocol |
//! | `ablations` | DESIGN.md ablations (γ, admission, price rule, integrality) |
//! | `link_pricing` | §4.1 fn.3 — link-bottleneck pricing sanity experiment |
//! | `reliability` | Joint rate–reliability vs fixed-ρ allocation on lossy links |
//!
//! Binaries print a Markdown table to stdout and write CSV/JSON series to
//! `results/` (override with `--out DIR`). Step timing is not done here:
//! `lrgp bench` times the engine's step configurations, and the repository
//! benchmark (its own package under `src/bin/benchmark/`) times cold
//! solves, re-convergence and warm steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod runners;
pub mod table;

pub use args::Args;
pub use table::Table;
