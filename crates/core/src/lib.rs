//! MIRO: multi-path interdomain routing (the paper's primary contribution).
//!
//! MIRO keeps BGP's path-vector default routes and adds, on top (Chapter 3):
//!
//! * **pull-based supplemental route retrieval** - an AS that is unhappy
//!   with its default path *asks* another AS for alternates instead of
//!   having every alternate flooded to everyone (section 3.2);
//! * **bilateral negotiation** between arbitrary - not necessarily
//!   adjacent - AS pairs (section 3.3), implemented as an explicit
//!   request/offer/accept/establish state machine ([`negotiate`],
//!   Figure 4.2);
//! * **selective export**: the responding AS controls which alternates it
//!   reveals, and at what price (section 3.4). The three policy levels
//!   studied by the evaluation - strict `/s`, respect-export `/e`,
//!   most-flexible `/a` - are [`export::ExportPolicy`]; one AS's level,
//!   admission rules and price table are an [`export::ResponderConfig`],
//!   and [`export::ResponderConfig::offers`] is the one decision of what
//!   it offers to whom, read by the handshake and every Chapter 5 search;
//! * **tunnels** bound to negotiated paths in the data plane
//!   (section 3.5), managed as soft state: each AS's table is a
//!   [`tunnel::TunnelManager`], keepalives expire there, and the teardown
//!   on route changes (section 4.3) is
//!   [`node::MiroNetwork::routes_changed`]. (The actual packet
//!   encapsulation lives in `miro-dataplane`.)
//!
//! [`strategy`] hosts the requester side: whom to ask (on-path vs 1-hop,
//! section 6.2.1) and the avoid-AS search loop whose success rates are
//! Table 5.2. The Figure-4.2 handshake is written once, in [`handshake`],
//! and run by two drivers on a virtual clock: [`node`], the synchronous
//! reference, and [`reliable`], the only message-level state machine —
//! over [`chan`]'s seeded unreliable channel it adds sequence numbers,
//! retransmit/backoff timers, duplicate-safe handlers, and graceful
//! fallback to the BGP default path.

pub mod chan;
pub mod config;
pub mod export;
pub mod handshake;
pub mod negotiate;
pub mod node;
pub mod reliable;
pub mod rto;
pub mod strategy;
pub mod tunnel;
pub mod wire;

pub use chan::{ChannelStats, Envelope, FaultConfig, FaultyChannel};
pub use config::ConfigError;
pub use export::{ExportPolicy, Offer};
pub use negotiate::{Constraint, NegotiationError, NegotiationId};
pub use reliable::{
    FailReason, FallbackEvent, NegotiationOutcome, ReliabilityConfig, ReliableNet, RtoMode,
    RtoSnapshot, Stage,
};
pub use rto::RtoEstimator;
pub use strategy::{AvoidOutcome, TargetStrategy};
pub use tunnel::{TunnelId, TunnelManager};
