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
//! * [`burst`] - the burst-mode forwarding engine: batched preparse,
//!   key-sorted LPM amortization, per-unique-flow tunnel/split decisions,
//!   and arena-packed encap output — the Mpps-scale fast path over the
//!   modules above, proptest-pinned byte-identical to them;
//! * [`pcapng`] - a dependency-free pcapng writer so tunnel traffic can
//!   be inspected in Wireshark;
//! * [`intra`] - the intra-AS architecture of section 4.1: ASes with
//!   multiple edge routers, iBGP dissemination, IGP distances driving
//!   steps 5-7 of the decision process, directed forwarding at egress
//!   routers, and end-to-end forwarding walks across a router-level
//!   network that follow negotiated AS paths.
//!
//! Omitted deliberately: fragmentation, TTL/ICMP error generation, and
//! IPv6 - none are load-bearing for the paper's claims. Packets here are
//! exercised in-memory (encode -> forward -> decapsulate) which drives the
//! same code paths a TUN/TAP deployment would.

pub mod burst;
pub mod classifier;
pub mod fault;
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
