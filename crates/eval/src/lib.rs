//! Evaluation harness: regenerates every table and figure of the paper's
//! evaluation (Chapter 5) and convergence (Chapter 7) chapters.
//!
//! | Paper artifact | Module | CLI subcommand |
//! |---|---|---|
//! | Table 5.1 (dataset attributes) | [`datasets`] | `table5-1` |
//! | Figure 5.1 (degree distribution) | [`datasets`] | `fig5-1` |
//! | Figures 5.2/5.3 (available routes) | [`routes`] | `fig5-2` |
//! | Table 5.2 (avoid-AS success rates) | [`avoid`] | `table5-2` |
//! | Table 5.3 (negotiation state) | [`avoid`] | `table5-3` |
//! | Figures 5.4/5.5 (incremental deployment) | [`deploy`] | `fig5-4` |
//! | Figures 5.6/5.7 (inbound traffic control) | [`inbound`] | `fig5-6` |
//! | Figure 7.1 / 7.2 gadget runs | [`convergence_exp`] | `fig7-1`, `fig7-2` |
//! | Control-plane robustness sweep | [`resilience`] | `miro resilience` |
//! | The command table and renderers behind every subcommand | [`commands`] | `miro-eval <command>` |
//! | Flag tables, `--check-*` gate, JSON emitter of every front end | [`harness`] | every `miro <verb>`, `miro-eval` |
//!
//! Experiments are seeded and deterministic; sample sizes and the
//! topology scale are configurable (the paper's full-size topologies and
//! exhaustive 300M-pair enumerations are available by turning the knobs
//! up, at matching cost). Results print in the paper's row/series format
//! and can also be serialized to JSON.

pub mod ablations;
pub mod avoid;
pub mod commands;
pub mod convergence_exp;
pub mod datasets;
pub mod deploy;
pub mod driver;
pub mod dynamics;
pub mod harness;
pub mod inbound;
pub mod report;
pub mod resilience;
pub mod routes;
pub mod whole_table;

pub use datasets::{Dataset, EvalConfig};
