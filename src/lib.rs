//! `miro-suite`: the workspace umbrella crate.
//!
//! Hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`), and re-exports every member crate so a
//! downstream user can depend on one name:
//!
//! ```
//! use miro_suite::{bgp, core, topology};
//!
//! let (topo, [a, b, _c, _d, _e, f]) = topology::gen::figure_1_1();
//! let st = bgp::solver::RoutingState::solve(&topo, f);
//! let flexible = core::export::ResponderConfig {
//!     policy: core::export::ExportPolicy::Flexible,
//!     ..Default::default()
//! };
//! let offers = flexible.offers(&st, a, b, false);
//! assert!(offers.len() < st.candidates(b).len());
//! ```

pub use miro_bgp as bgp;
pub use miro_cli as cli;
pub use miro_convergence as convergence;
pub use miro_core as core;
pub use miro_dataplane as dataplane;
pub use miro_eval as eval;
pub use miro_policy as policy;
pub use miro_topology as topology;
