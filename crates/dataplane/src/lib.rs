//! Data plane for MIRO (sections 3.5, 4.1, 4.2).
//!
//! MIRO binds negotiated routes to tunnels; this crate is the packet-level
//! machinery that makes those tunnels real, in the smoltcp style of
//! explicit wire formats parsed and emitted over byte buffers:
//!
//! * [`ipv4`] - an IPv4 header codec (checksum included) built on `bytes`;
//! * [`encap`] - IP-in-IP encapsulation plus the MIRO shim header carrying
//!   the tunnel identifier, and the three tunnel-endpoint addressing
//!   schemes of section 4.2 (per-exit-link addresses, per-egress-router
//!   addresses, one reserved address with ingress rewriting);
//! * [`lpm`] - a longest-prefix-match binary trie (the forwarding-table
//!   primitive of section 2.1.1's destination-based forwarding);
//! * [`classifier`] - the traffic-splitting policies of section 3.5:
//!   header-field classifiers directing a subset of traffic into tunnels,
//!   and hash-based flow splitting across paths;
//! * [`burst`] - the forwarding engine, and the only forwarder: batched
//!   preparse, key-sorted LPM amortization, per-unique-flow tunnel/split
//!   decisions and arena-packed encap output over the modules above,
//!   proptest-pinned byte-identical to its packet-at-a-time reference;
//! * [`pcapng`] - a dependency-free pcapng writer so tunnel traffic can
//!   be inspected in Wireshark;
//! * [`intra`] - the intra-AS architecture of section 4.1: ASes with
//!   multiple edge routers, iBGP dissemination (optionally ADD-PATH), IGP
//!   distances driving steps 5-7 of the decision process, one [`burst`]
//!   engine per router, and directed forwarding at egress routers;
//! * [`rcp`] - the per-AS controller of sections 4.1 and 4.3: answers
//!   alternate-route queries, grants tunnels by installing directed
//!   forwarding, and reaps silent ones — its soft state is
//!   `miro_core::tunnel::TunnelManager`, the control plane's table.
//!
//! What reaches each: the five codec / engine modules are driven by
//! `miro bench-dataplane` and the repo benchmark's `packet_burst`
//! workload; [`pcapng`] by `miro bench-dataplane --capture`; [`intra`]
//! and [`rcp`] by the Tier-1 rung `tests/intra_as.rs`, which builds one
//! fabric per AS of a solved topology and holds it to the AS-level
//! solver, and by `tests/end_to_end.rs`.
//!
//! Omitted deliberately: fragmentation, ICMP error generation, and IPv6 -
//! none are load-bearing for the paper's claims. Packets here are
//! exercised in-memory (encode -> forward -> decapsulate) which drives the
//! same code paths a TUN/TAP deployment would.

pub mod burst;
pub mod classifier;
pub mod encap;
pub mod intra;
pub mod ipv4;
pub mod lpm;
pub mod pcapng;
pub mod rcp;

pub use burst::{BurstScratch, Engine, TunnelSpec, Verdict};
pub use encap::{EncapError, EndpointScheme, MiroShim};
pub use ipv4::{Ipv4Addr4, Ipv4Header, PROTO_IPIP, PROTO_MIRO};
pub use lpm::PrefixTrie;
