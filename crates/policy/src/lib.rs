//! The routing-policy layer of Chapter 6: a Cisco-style AS-path regex
//! engine and the dissertation's "imaginary extended route-map"
//! configuration language, parsed and executed.
//!
//! The paper deliberately does not standardize a policy language
//! ("the underlying mechanisms should give users maximum flexibility"),
//! but Chapter 6.3 works a complete example in an extended route-map
//! syntax. This crate implements that dialect:
//!
//! * [`aspath`] - `ip as-path access-list`-style regular expressions over
//!   AS paths (`_312_`, `^701 .*$`, ...), matched from scratch (no regex
//!   crate) in O(items × hops);
//! * [`parse`] - tokenizer and parser for the configuration statements of
//!   sections 6.1 and 6.3 (`router bgp`, `route-map`, `ip as-path
//!   access-list`, `negotiation`, `accept negotiation`, `negotiation
//!   filter`);
//! * [`eval`] - the requester's semantics: route-map application over
//!   candidate routes, the `match empty path` negotiation trigger, and
//!   target selection from `match all path`;
//! * [`bridge`] - both sides onto `miro-core`: fired triggers run as
//!   negotiations, and the responder's `accept` / `when` / `filter`
//!   statements compile into the [`miro_core::export::ResponderConfig`]
//!   both handshake drivers read (admission, tunnel limit, a price or "not
//!   offered" per class), whose
//!   [`offers`](miro_core::export::ResponderConfig::offers) decide every
//!   offer.

pub mod aspath;
pub mod bridge;
pub mod eval;
pub mod parse;

pub use aspath::AsPathRegex;
pub use eval::Trigger;
pub use parse::{parse_config, Config, ParseError};
