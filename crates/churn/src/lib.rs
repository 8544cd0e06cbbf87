//! Churn replay: a RouteViews-style UPDATE firehose for the MIRO control
//! plane.
//!
//! BGP's background radiation is churn — a sustained stream of announce,
//! withdraw, and session up/down events whose inter-arrival times are
//! heavy-tailed and whose targets are heavily skewed (a few flapping links
//! and popular prefixes account for most of the volume). MIRO's deployment
//! story assumes the control plane keeps up with that stream while tunnels
//! are negotiated and torn down underneath it, so this crate provides the
//! three pieces the evaluation needs:
//!
//! * [`trace`] — a compact, versioned, corruption-detecting on-disk format
//!   for churn traces (`MCT1`). A trace embeds the topology it was recorded
//!   over in the same text format the streaming ingest path parses, so one
//!   file is a self-contained replayable workload.
//! * [`gen`] — a seeded generator producing heavy-tailed inter-arrival
//!   times, dedicated flapping links, and a Zipf-skewed origin
//!   announce/withdraw mix. Equal seeds give byte-identical traces.
//! * [`replay`] — the replay engine. It drives a trace through the
//!   event-level simulator ([`miro_bgp::sim`]) and through the solver's
//!   delta path ([`miro_bgp::solver::multi`]) in serial or batched mode,
//!   measuring events/sec and convergence lag distributions; on the delta
//!   path `miro-core`'s negotiated leases ride the live tables, and the
//!   teardowns and re-negotiations it reports are those of
//!   [`miro_core::node::MiroNetwork::routes_changed`].
//!
//! The replay contract that makes the batched path trustworthy — any
//! grouping of the same event sequence into co-temporal batches yields a
//! byte-identical routing table — is pinned by proptests in
//! `miro_bgp::solver::multi` and re-checked end-to-end here.

pub mod gen;
pub mod replay;
pub mod trace;

pub use gen::{generate, GenConfig};
pub use replay::{
    percentile, replay_delta, replay_sim, BatchMode, DeltaReplayReport, ReplayError,
    SimReplayReport,
};
pub use trace::{Event, EventKind, Trace, TraceError, MAGIC};
