//! BGP substrate for the MIRO reproduction.
//!
//! MIRO (Chapter 3) deliberately layers on top of ordinary BGP: default
//! paths come from today's path-vector protocol, and only the *extra* paths
//! go through MIRO negotiation. This crate is that substrate:
//!
//! * [`route`] - AS-level route representation and the Gao-Rexford
//!   import/export/preference rules of section 2.2.1. Reached by every
//!   consumer of a candidate set (`miro-core`, `miro-eval`, the shell).
//! * [`decision`] - the full router-level 8-step best-path selection
//!   process of Table 2.1 (local-pref, path length, origin, MED,
//!   eBGP-over-iBGP, IGP distance, router id, peer address). Run by
//!   [`speaker`] and by `miro-dataplane`'s `intra::AsFabric`
//!   (`tests/wire_bgp.rs`, `tests/end_to_end.rs`).
//! * [`solver`] - a closed-form stable-state solver: for one destination it
//!   computes, in O(V + E), the routes every AS selects *and* the full
//!   candidate set every AS learns from its neighbors, plus the delta
//!   kernel (`fail` / `restore` / `revert`) behind what-if views and churn
//!   replay. This is the constructive two-phase argument inside the
//!   Gao-Rexford convergence proof (Chapter 7.2) turned into an
//!   algorithm, extended with the paper's sibling approximation. Every
//!   binary, every `benchmark/` workload but `packet_burst`.
//! * [`engine`] - the per-destination parallel driver over the solver
//!   (`ScratchPool`, `par_over_dests`, the `WhatIf` failure views):
//!   `miro-eval`, `miro bench-solver`, `miro shard-solve`, the
//!   `whatif_sweep` workload, `tests/churn_restoration.rs`.
//! * [`sim`] - an event-driven, activation-based path-vector simulator
//!   (in the style of Griffin's SPVP) with pluggable per-node ranking and
//!   export policies. The solver answers "what does BGP converge to";
//!   the simulator answers "does it converge, and how" (`miro-eval
//!   dynamics` and `fig5-6`, the simulator baseline of `miro bench-churn`,
//!   `tests/pipeline.rs`). `miro-convergence` models Chapter 7 on its own
//!   abstract state, not on this engine.
//! * [`ns`] - NS-BGP neighbor-specific defaults (section 2.2.3), one
//!   column of `miro-eval ablations`.
//! * [`show`] - `show ip bgp` rendering in the Table 1.1 format: the
//!   shell command of that name.
//! * [`wire`], [`session`], [`speaker`] - BGP-4 on the wire: the RFC 4271
//!   message codecs, the session state machine with hold / keepalive
//!   timers, and one speaker per AS (Adj-RIB-In, decision, incremental
//!   re-advertisement). `tests/wire_bgp.rs` pins the three to the solver:
//!   speakers wired from a topology's relationships converge to
//!   `RoutingState::path`, and to `solve_without_link` after a session
//!   loss. Also `examples/bgp_wire_lab.rs`.
//!
//! Omitted on purpose: route aggregation, MRAI timers, prefix
//! de-aggregation and communities. The paper's evaluation operates at the
//! one-prefix-per-AS granularity (section 5.1), which is what we model; the
//! router-level attributes only matter inside `miro-dataplane`.

pub mod decision;
pub mod engine;
pub mod ns;
pub mod route;
pub mod session;
pub mod show;
pub mod speaker;
pub mod sim;
pub mod solver;
pub mod wire;

pub use route::{CandidateRoute, ExportScope};
pub use solver::{BestRoute, RoutingState};
