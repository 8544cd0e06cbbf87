//! AS-level topology substrate for the MIRO reproduction.
//!
//! The Internet, at the granularity MIRO operates on, is a graph of
//! *Autonomous Systems* (ASes) whose edges are annotated with the business
//! relationship between the two endpoints: customer-provider, peer-peer, or
//! sibling-sibling (section 2.2.1 of the dissertation). Everything in the
//! evaluation chapter is driven by such an annotated graph, which the paper
//! derives from RouteViews BGP tables via the inference algorithms of Gao
//! (2001) and Subramanian/Agarwal et al. (2002).
//!
//! This crate provides:
//!
//! * [`Topology`] - a compact, immutable, validated AS graph with per-edge
//!   relationship annotations ([`graph`]).
//! * [`gen`] - a deterministic, seeded synthetic-Internet generator
//!   calibrated to the four datasets of Table 5.1 (our substitution for the
//!   proprietary RouteViews snapshots; see `DESIGN.md`).
//! * [`infer`] - from-scratch implementations of the Gao and
//!   Agarwal/Subramanian relationship-inference algorithms, so the paper's
//!   full measurement pipeline (paths -> inferred relationships -> policy
//!   evaluation) can be exercised end to end.
//! * [`stats`] - degree distributions (Figure 5.1), link-type counts
//!   (Table 5.1), stub/multi-homing census (sections 1.2 and 5.4).
//! * [`path`] - valley-free path machinery shared by the BGP and MIRO
//!   layers.
//! * [`io`] - plain-text and JSON (de)serialization of annotated graphs.
//!
//! Design follows the smoltcp house style: simple robust data structures,
//! no clever type-level tricks, dense integer indices on the hot paths, and
//! documentation of what is *not* modeled (router-level topology lives in
//! `miro-dataplane`, not here).

pub mod gen;
pub mod graph;
pub mod infer;
pub mod io;
pub mod path;
pub mod stats;

pub use gen::{DatasetPreset, GenParams};
pub use graph::{AsId, LinkTally, NodeId, Rel, Topology, TopologyBuilder, TopologyError, MAX_DEGREE, SLOT_ORDER};
pub use path::{classify_route, is_valley_free, RouteClass};
