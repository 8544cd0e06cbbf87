//! Burst-mode forwarding engine: batched parse / lookup / classify /
//! encap at packets-per-second scale.
//!
//! The single-packet primitives in [`ipv4`],
//! [`lpm`](crate::lpm), [`classifier`](crate::classifier) and
//! [`encap`] are correct but pay their full cost per packet:
//! a trie descent per destination, a rule scan plus split hash per packet,
//! and a fresh `BytesMut` per encapsulation. MIRO's deployment story
//! (section 4.2 encapsulation, section 3.5 traffic splitting) pays these
//! costs on every forwarded packet, so the [`Engine`] amortizes them over
//! a *burst* of raw frames:
//!
//! 1. **preparse** — one pass turning each frame into a [`FlowKey`] plus
//!    header facts via the zero-copy slice parsers (no `Bytes` refcounts);
//! 2. **lookup** — one [`StrideTable::get`] per forward-lane packet: the
//!    engine compiles its [`PrefixTrie`] into a 16-4-4-8 stride table once,
//!    at build, so a /20 costs two loads instead of a 20-node descent;
//! 3. **decide** — the compiled classifier (plus the split hash for group
//!    actions) per packet. A per-burst flow cache does not pay for itself:
//!    most flows in a burst are unique, and a hash-map probe costs more
//!    than the handful of rules it would skip;
//! 4. **emit** — output packets packed into one reusable arena; tunnel
//!    encapsulation stamps a precomputed per-tunnel 28-byte header+shim
//!    template and patches only total-length and checksum.
//!
//! [`Engine::forward_one`] is the packet-at-a-time reference path built on
//! the original allocating primitives and the trie's own
//! [`PrefixTrie::lookup`]. It is both the bench baseline and the
//! equivalence oracle: the proptests pin that the burst pipeline produces
//! byte-identical output packets and identical verdicts, so they compare
//! the compiled table against the trie packet by packet.

use crate::classifier::{Action, Classifier, FlowKey, HashSplitter};
use crate::encap;
use crate::ipv4::{self, Ipv4Addr4, Ipv4Error, Ipv4Header, PROTO_MIRO};
use crate::lpm::{Prefix, PrefixTrie, StrideTable};
use bytes::{Bytes, BytesMut};

/// Protocol numbers whose first four payload bytes carry ports.
const PROTO_TCP: u8 = 6;
const PROTO_UDP: u8 = 17;

/// A concrete negotiated tunnel the engine can push packets into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TunnelSpec {
    /// Tunnel identifier carried in the MIRO shim.
    pub id: u32,
    /// Outer source address (this AS's tunnel ingress).
    pub ingress: Ipv4Addr4,
    /// Outer destination: the downstream endpoint (section 4.2).
    pub endpoint: Ipv4Addr4,
}

/// Why a packet could not be processed. Errors are surfaced per packet;
/// the rest of the burst continues.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PktError {
    /// The IPv4 header failed to parse or validate.
    Ip(Ipv4Error),
    /// Addressed to the local tunnel endpoint but the MIRO shim is bad.
    Shim,
    /// The classifier (or a split group) chose a tunnel id with no
    /// installed [`TunnelSpec`].
    UnknownTunnel(u32),
    /// Inner packet too large to encapsulate.
    TooLarge,
}

/// A byte range in the burst's output arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PktRange {
    pub start: u32,
    pub len: u32,
}

/// Per-packet outcome of a burst. Output ranges index the arena returned
/// by [`BurstScratch::out_bytes`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Forwarded natively: TTL decremented, header checksum rewritten.
    Forward { next_hop: u32, out: PktRange },
    /// Entered a tunnel: TTL-decremented inner wrapped toward the
    /// tunnel's endpoint, next hop looked up for that endpoint.
    Encap { tunnel: u32, next_hop: u32, out: PktRange },
    /// Arrived on the local tunnel endpoint: outer header and shim
    /// stripped, inner packet revealed.
    Decap { tunnel: u32, out: PktRange },
    /// Classifier policy drop (section 1.1 header-granularity filtering).
    Drop,
    /// No LPM route for the destination (or the tunnel endpoint).
    NoRoute,
    /// TTL would reach zero; dropped (ICMP generation is out of scope).
    TtlExpired,
    /// Malformed frame, skipped; the batch continues.
    Malformed(PktError),
}

/// The packet-at-a-time result: same shape as [`Verdict`] but the output
/// packet is an owned `Bytes` (this path allocates per packet — that is
/// the point of comparison).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OneVerdict {
    Forward { next_hop: u32, packet: Bytes },
    Encap { tunnel: u32, next_hop: u32, packet: Bytes },
    Decap { tunnel: u32, packet: Bytes },
    Drop,
    NoRoute,
    TtlExpired,
    Malformed(PktError),
}

/// Per-tunnel reusable encap state: the outer header + shim emitted once
/// at engine build into a 28-byte template, re-stamped per packet with
/// only the total length and checksum. The endpoint's next hop is
/// resolved once, not per packet.
struct TunnelState {
    spec: TunnelSpec,
    template: [u8; Ipv4Header::LEN + encap::MiroShim::LEN],
    /// Unfolded ones-complement sum of the template's outer header with a
    /// zeroed total-length field.
    base_sum: u32,
    /// LPM next hop for the endpoint (None: endpoint unroutable).
    next_hop: Option<u32>,
}

impl TunnelState {
    fn build(spec: TunnelSpec, lpm: &PrefixTrie<u32>) -> TunnelState {
        let mut buf = BytesMut::with_capacity(Ipv4Header::LEN + encap::MiroShim::LEN);
        // Emit with zero payload length, then blank the checksum: the
        // per-packet stamp recomputes both.
        Ipv4Header::new(spec.ingress, spec.endpoint, PROTO_MIRO, 0).emit(&mut buf);
        encap::MiroShim { tunnel_id: spec.id, flags: 0 }.emit(&mut buf);
        let mut template = [0u8; Ipv4Header::LEN + encap::MiroShim::LEN];
        template.copy_from_slice(&buf);
        template[2] = 0;
        template[3] = 0;
        template[10] = 0;
        template[11] = 0;
        let mut base_sum = 0u32;
        for c in template[..Ipv4Header::LEN].chunks_exact(2) {
            base_sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        let next_hop = lpm.lookup(spec.endpoint).map(|(_, &nh)| nh);
        TunnelState { spec, template, base_sum, next_hop }
    }

    /// Append the encapsulation of `inner` to `arena` — byte-identical to
    /// [`encap::encapsulate`] with the same fields.
    fn stamp(&self, inner_len: usize, arena: &mut BytesMut) -> Result<usize, PktError> {
        let payload_len = encap::MiroShim::LEN + inner_len;
        if payload_len > (u16::MAX as usize) - Ipv4Header::LEN {
            return Err(PktError::TooLarge);
        }
        let start = arena.len();
        arena.extend_from_slice(&self.template);
        let total = (Ipv4Header::LEN + payload_len) as u16;
        let mut sum = self.base_sum + u32::from(total);
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        let cksum = !(sum as u16);
        arena[start + 2..start + 4].copy_from_slice(&total.to_be_bytes());
        arena[start + 10..start + 12].copy_from_slice(&cksum.to_be_bytes());
        Ok(start)
    }
}

/// What the classifier + split groups resolved for one flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlowDecision {
    Default,
    /// Index into `Engine::tunnels`.
    Tunnel(u32),
    UnknownTunnel(u32),
    Drop,
}

/// What preparse concluded about one frame.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Needs lookup + classification; `slot` indexes the forward-lane
    /// arrays filled by the lookup and decide stages.
    Fwd { slot: u32 },
    /// Terminates here: outer+shim validated, inner at this frame range.
    Decap { tunnel: u32, inner_off: u32, inner_len: u32 },
    Ttl,
    Err(PktError),
}

/// Lookup-stage counters of one burst.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LookupStats {
    /// Stride-table lookups: one per forward-lane packet.
    pub descents: usize,
    /// Lookups answered without touching the table: always 0, since
    /// every packet is looked up on its own.
    pub reused: usize,
}

/// Reusable burst state: every vector and the output arena survive across
/// bursts, so a steady-state burst performs no allocation.
#[derive(Default)]
pub struct BurstScratch {
    kinds: Vec<Kind>,
    /// Forward-lane parallel arrays (indexed by `Kind::Fwd::slot`).
    fwd_key: Vec<FlowKey>,
    fwd_end: Vec<u32>,
    fwd_nh: Vec<Option<u32>>,
    fwd_decision: Vec<FlowDecision>,
    verdicts: Vec<Verdict>,
    arena: BytesMut,
    /// Lookup counters for the last burst.
    pub lookup_stats: LookupStats,
    /// Decisions the decide stage made in the last burst: one per
    /// forward-lane packet.
    pub unique_flows: usize,
    /// Stage progress guard (0 = idle, 4 = emitted).
    stage: u8,
}

impl BurstScratch {
    pub fn new() -> BurstScratch {
        BurstScratch::default()
    }

    /// Verdicts of the last burst, in input order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Resolve an output range into the arena.
    pub fn out_bytes(&self, r: PktRange) -> &[u8] {
        &self.arena[r.start as usize..(r.start + r.len) as usize]
    }
}

/// Extract the 5-tuple-plus-TOS key the classifier sees. Ports come from
/// the first four payload bytes for TCP/UDP, zero otherwise.
pub fn flow_key(header: &Ipv4Header, payload: &[u8]) -> FlowKey {
    let (src_port, dst_port) = if (header.protocol == PROTO_TCP
        || header.protocol == PROTO_UDP)
        && payload.len() >= 4
    {
        (
            u16::from_be_bytes([payload[0], payload[1]]),
            u16::from_be_bytes([payload[2], payload[3]]),
        )
    } else {
        (0, 0)
    };
    FlowKey {
        src: header.src,
        dst: header.dst,
        src_port,
        dst_port,
        protocol: header.protocol,
        tos: header.dscp_ecn,
    }
}

/// The forwarding engine: LPM table, classifier, split groups, tunnels,
/// and the local tunnel-endpoint address. Build once, forward many.
pub struct Engine {
    lpm: PrefixTrie<u32>,
    /// `lpm` compiled; the engine never edits `lpm`, so the two agree.
    table: StrideTable<u32>,
    classifier: Classifier,
    /// (virtual tunnel id, splitter over concrete tunnel ids): a
    /// classifier action naming a group id fans out across the group's
    /// weighted paths by flow hash (section 3.5).
    split_groups: Vec<(u32, HashSplitter)>,
    /// Sorted by id for binary-search resolution.
    tunnels: Vec<TunnelState>,
    local: Ipv4Addr4,
}

impl Engine {
    /// Build an engine. The stride table, tunnel templates and endpoint
    /// next hops are precomputed here. Panics on duplicate tunnel ids.
    pub fn new(
        local: Ipv4Addr4,
        lpm: PrefixTrie<u32>,
        classifier: Classifier,
        mut tunnels: Vec<TunnelSpec>,
        split_groups: Vec<(u32, HashSplitter)>,
    ) -> Engine {
        tunnels.sort_by_key(|t| t.id);
        for w in tunnels.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate tunnel id {}", w[0].id);
        }
        let tunnels = tunnels
            .into_iter()
            .map(|spec| TunnelState::build(spec, &lpm))
            .collect();
        let table = lpm.compile();
        Engine { lpm, table, classifier, split_groups, tunnels, local }
    }

    /// This engine's local tunnel-endpoint address.
    pub fn local(&self) -> Ipv4Addr4 {
        self.local
    }

    /// The LPM trie: `forward_one` looks up here, and the burst path's
    /// [`table`](Self::table) is compiled from it.
    pub fn lpm(&self) -> &PrefixTrie<u32> {
        &self.lpm
    }

    /// The compiled stride table the burst path looks up in.
    pub fn table(&self) -> &StrideTable<u32> {
        &self.table
    }

    fn tunnel_index(&self, id: u32) -> Option<usize> {
        self.tunnels.binary_search_by_key(&id, |t| t.spec.id).ok()
    }

    /// Resolve classify + split for one flow.
    fn decide_flow(&self, key: &FlowKey) -> FlowDecision {
        match self.classifier.classify(key) {
            Action::Drop => FlowDecision::Drop,
            Action::Default => FlowDecision::Default,
            Action::Tunnel(t) => {
                let concrete = match self.split_groups.iter().find(|&&(g, _)| g == t) {
                    Some((_, splitter)) => splitter.path_for(key),
                    None => t,
                };
                match self.tunnel_index(concrete) {
                    Some(idx) => FlowDecision::Tunnel(idx as u32),
                    None => FlowDecision::UnknownTunnel(concrete),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Burst pipeline. The four stages must run in order on the same
    // scratch; `forward_burst` composes them, the bench times them
    // individually.
    // ------------------------------------------------------------------

    /// Stage 1: parse every frame once, splitting the burst into the
    /// forward lane (needs lookup + classification) and terminal kinds
    /// (decap, TTL expiry, malformed).
    pub fn preparse(&self, frames: &[&[u8]], scratch: &mut BurstScratch) {
        scratch.stage = 1;
        scratch.kinds.clear();
        scratch.fwd_key.clear();
        scratch.fwd_end.clear();
        scratch.verdicts.clear();
        scratch.arena.clear();
        for frame in frames {
            let kind = match Ipv4Header::parse_slice(frame) {
                Err(e) => Kind::Err(PktError::Ip(e)),
                Ok((header, payload)) => {
                    if header.protocol == PROTO_MIRO && header.dst == self.local {
                        match encap::MiroShim::parse_slice(payload) {
                            Err(_) => Kind::Err(PktError::Shim),
                            Ok(shim) => Kind::Decap {
                                tunnel: shim.tunnel_id,
                                inner_off: (Ipv4Header::LEN + encap::MiroShim::LEN) as u32,
                                inner_len: (payload.len() - encap::MiroShim::LEN) as u32,
                            },
                        }
                    } else if header.ttl <= 1 {
                        Kind::Ttl
                    } else {
                        let slot = scratch.fwd_key.len() as u32;
                        scratch.fwd_key.push(flow_key(&header, payload));
                        scratch
                            .fwd_end
                            .push((Ipv4Header::LEN + header.payload_len as usize) as u32);
                        Kind::Fwd { slot }
                    }
                }
            };
            scratch.kinds.push(kind);
        }
    }

    /// Stage 2: one stride-table lookup per forward-lane destination.
    pub fn lookup(&self, scratch: &mut BurstScratch) {
        debug_assert_eq!(scratch.stage, 1, "lookup needs a fresh preparse");
        scratch.stage = 2;
        let BurstScratch { fwd_key, fwd_nh, .. } = &mut *scratch;
        fwd_nh.clear();
        fwd_nh.extend(fwd_key.iter().map(|k| self.table.get(k.dst).copied()));
        scratch.lookup_stats = LookupStats { descents: fwd_nh.len(), reused: 0 };
    }

    /// Stage 3: resolve the tunnel/split decision of every forward-lane
    /// packet.
    pub fn decide(&self, scratch: &mut BurstScratch) {
        debug_assert_eq!(scratch.stage, 2, "decide needs lookup results");
        scratch.stage = 3;
        let BurstScratch { fwd_key, fwd_decision, .. } = &mut *scratch;
        fwd_decision.clear();
        fwd_decision.extend(fwd_key.iter().map(|k| self.decide_flow(k)));
        scratch.unique_flows = fwd_decision.len();
    }

    /// Stage 4: emit every output packet into the shared arena and write
    /// the per-packet verdicts, in input order.
    pub fn emit(&self, frames: &[&[u8]], scratch: &mut BurstScratch) {
        debug_assert_eq!(scratch.stage, 3, "emit needs decisions");
        scratch.stage = 4;
        for (i, frame) in frames.iter().enumerate() {
            let verdict = match scratch.kinds[i] {
                Kind::Err(e) => Verdict::Malformed(e),
                Kind::Ttl => Verdict::TtlExpired,
                Kind::Decap { tunnel, inner_off, inner_len } => {
                    let start = scratch.arena.len() as u32;
                    scratch.arena.extend_from_slice(
                        &frame[inner_off as usize..(inner_off + inner_len) as usize],
                    );
                    Verdict::Decap { tunnel, out: PktRange { start, len: inner_len } }
                }
                Kind::Fwd { slot } => {
                    let slot = slot as usize;
                    match scratch.fwd_decision[slot] {
                        FlowDecision::Drop => Verdict::Drop,
                        FlowDecision::UnknownTunnel(t) => {
                            Verdict::Malformed(PktError::UnknownTunnel(t))
                        }
                        FlowDecision::Default => match scratch.fwd_nh[slot] {
                            None => Verdict::NoRoute,
                            Some(nh) => {
                                let end = scratch.fwd_end[slot] as usize;
                                let start = scratch.arena.len();
                                scratch.arena.extend_from_slice(&frame[..end]);
                                ipv4::decrement_ttl_in_place(&mut scratch.arena[start..]);
                                Verdict::Forward {
                                    next_hop: nh,
                                    out: PktRange {
                                        start: start as u32,
                                        len: end as u32,
                                    },
                                }
                            }
                        },
                        FlowDecision::Tunnel(idx) => {
                            let ts = &self.tunnels[idx as usize];
                            match ts.next_hop {
                                None => Verdict::NoRoute,
                                Some(nh) => {
                                    let end = scratch.fwd_end[slot] as usize;
                                    match ts.stamp(end, &mut scratch.arena) {
                                        Err(e) => Verdict::Malformed(e),
                                        Ok(start) => {
                                            let inner_start = scratch.arena.len();
                                            scratch.arena.extend_from_slice(&frame[..end]);
                                            ipv4::decrement_ttl_in_place(
                                                &mut scratch.arena[inner_start..],
                                            );
                                            Verdict::Encap {
                                                tunnel: ts.spec.id,
                                                next_hop: nh,
                                                out: PktRange {
                                                    start: start as u32,
                                                    len: (scratch.arena.len() - start)
                                                        as u32,
                                                },
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            };
            scratch.verdicts.push(verdict);
        }
    }

    /// The whole pipeline: preparse, table lookup, per-packet decisions,
    /// arena emit. Results land in `scratch` ([`BurstScratch::verdicts`],
    /// [`BurstScratch::out_bytes`]).
    pub fn forward_burst(&self, frames: &[&[u8]], scratch: &mut BurstScratch) {
        self.preparse(frames, scratch);
        self.lookup(scratch);
        self.decide(scratch);
        self.emit(frames, scratch);
    }

    // ------------------------------------------------------------------
    // Packet-at-a-time reference path.
    // ------------------------------------------------------------------

    /// Forward one packet through the original allocating primitives:
    /// `Ipv4Header::parse` on an owned `Bytes`, a trie descent per packet,
    /// a full classify + split per packet, `encapsulate` allocating per
    /// packet. The burst pipeline must agree with this byte for byte.
    /// Lookups walk the trie, never the stride table compiled from it.
    pub fn forward_one(&self, frame: &Bytes) -> OneVerdict {
        let (header, payload) = match Ipv4Header::parse(frame.clone()) {
            Err(e) => return OneVerdict::Malformed(PktError::Ip(e)),
            Ok(x) => x,
        };
        if header.protocol == PROTO_MIRO && header.dst == self.local {
            return match encap::decapsulate(frame.clone()) {
                Err(_) => OneVerdict::Malformed(PktError::Shim),
                Ok((_outer, shim, inner)) => {
                    OneVerdict::Decap { tunnel: shim.tunnel_id, packet: inner }
                }
            };
        }
        if header.ttl <= 1 {
            return OneVerdict::TtlExpired;
        }
        let key = flow_key(&header, &payload);
        match self.decide_flow(&key) {
            FlowDecision::Drop => OneVerdict::Drop,
            FlowDecision::UnknownTunnel(t) => {
                OneVerdict::Malformed(PktError::UnknownTunnel(t))
            }
            FlowDecision::Default => match self.lpm.lookup(header.dst) {
                None => OneVerdict::NoRoute,
                Some((_, &nh)) => {
                    let packet = decremented_copy(frame, &header);
                    OneVerdict::Forward { next_hop: nh, packet }
                }
            },
            FlowDecision::Tunnel(idx) => {
                let spec = self.tunnels[idx as usize].spec;
                // The baseline resolves the endpoint per packet, as the
                // pre-burst call sites did.
                match self.lpm.lookup(spec.endpoint) {
                    None => OneVerdict::NoRoute,
                    Some((_, &nh)) => {
                        let inner = decremented_copy(frame, &header);
                        match encap::encapsulate(
                            &inner,
                            spec.ingress,
                            spec.endpoint,
                            spec.id,
                        ) {
                            Err(_) => OneVerdict::Malformed(PktError::TooLarge),
                            Ok(packet) => OneVerdict::Encap {
                                tunnel: spec.id,
                                next_hop: nh,
                                packet,
                            },
                        }
                    }
                }
            }
        }
    }
}

/// A TTL-decremented copy of `frame`'s IP packet (link padding dropped).
fn decremented_copy(frame: &Bytes, header: &Ipv4Header) -> Bytes {
    let end = Ipv4Header::LEN + header.payload_len as usize;
    let mut out = BytesMut::from(&frame[..end]);
    ipv4::decrement_ttl_in_place(&mut out);
    out.freeze()
}

/// Convenience for tests and the bench: build a one-prefix-per-value LPM.
pub fn lpm_from(entries: &[(Prefix, u32)]) -> PrefixTrie<u32> {
    let mut t = PrefixTrie::new();
    for &(p, v) in entries {
        t.insert(p, v);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Match;

    fn a(x: u8, y: u8, z: u8, w: u8) -> Ipv4Addr4 {
        Ipv4Addr4::new(x, y, z, w)
    }

    fn p(x: u8, y: u8, z: u8, w: u8, len: u8) -> Prefix {
        Prefix::new(a(x, y, z, w), len)
    }

    /// A small but complete engine: two routed prefixes, a default-free
    /// hole, one direct tunnel, one 1:1 split group over two tunnels, a
    /// drop rule, and a local endpoint address.
    fn engine() -> Engine {
        let lpm = lpm_from(&[
            (p(12, 34, 0, 0, 16), 100),
            (p(12, 34, 56, 0, 24), 200),
            (p(20, 0, 0, 0, 8), 300),
            // Tunnel endpoints routable too.
            (p(99, 0, 0, 0, 8), 900),
        ]);
        let classifier = Classifier::new(vec![
            (
                Match { dst_port: Some((6000, 6999)), ..Default::default() },
                Action::Drop,
            ),
            (
                Match { tos: Some(0xb8), ..Default::default() },
                Action::Tunnel(1000), // split group
            ),
            (
                Match { dst: Some(p(20, 0, 0, 0, 8)), ..Default::default() },
                Action::Tunnel(7), // direct tunnel
            ),
        ]);
        let tunnels = vec![
            TunnelSpec { id: 7, ingress: a(10, 0, 0, 1), endpoint: a(99, 1, 1, 1) },
            TunnelSpec { id: 8, ingress: a(10, 0, 0, 1), endpoint: a(99, 2, 2, 2) },
            TunnelSpec { id: 9, ingress: a(10, 0, 0, 1), endpoint: a(99, 3, 3, 3) },
        ];
        let groups = vec![(1000, HashSplitter::new(vec![(1, 8), (1, 9)]))];
        Engine::new(a(10, 0, 0, 1), lpm, classifier, tunnels, groups)
    }

    fn tcp_packet(src: Ipv4Addr4, dst: Ipv4Addr4, dport: u16, tos: u8, ttl: u8) -> Bytes {
        let payload = {
            let mut v = 5555u16.to_be_bytes().to_vec();
            v.extend_from_slice(&dport.to_be_bytes());
            v.extend_from_slice(b"data");
            v
        };
        let mut h = Ipv4Header::new(src, dst, PROTO_TCP, payload.len() as u16);
        h.tos_set(tos);
        h.ttl = ttl;
        h.emit_with_payload(&payload)
    }

    /// Helper because `dscp_ecn` is a plain field.
    trait TosSet {
        fn tos_set(&mut self, tos: u8);
    }
    impl TosSet for Ipv4Header {
        fn tos_set(&mut self, tos: u8) {
            self.dscp_ecn = tos;
        }
    }

    /// Run both paths over `frames` and assert verdict + byte equality.
    fn assert_equivalent(eng: &Engine, frames: &[Bytes]) -> Vec<Verdict> {
        let views: Vec<&[u8]> = frames.iter().map(|f| &f[..]).collect();
        let mut scratch = BurstScratch::new();
        eng.forward_burst(&views, &mut scratch);
        assert_eq!(scratch.verdicts().len(), frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let one = eng.forward_one(frame);
            let batched = scratch.verdicts()[i];
            match (&one, batched) {
                (OneVerdict::Forward { next_hop: n1, packet }, Verdict::Forward { next_hop, out }) => {
                    assert_eq!(*n1, next_hop, "pkt {i}");
                    assert_eq!(&packet[..], scratch.out_bytes(out), "pkt {i}");
                }
                (
                    OneVerdict::Encap { tunnel: t1, next_hop: n1, packet },
                    Verdict::Encap { tunnel, next_hop, out },
                ) => {
                    assert_eq!((*t1, *n1), (tunnel, next_hop), "pkt {i}");
                    assert_eq!(&packet[..], scratch.out_bytes(out), "pkt {i}");
                }
                (OneVerdict::Decap { tunnel: t1, packet }, Verdict::Decap { tunnel, out }) => {
                    assert_eq!(*t1, tunnel, "pkt {i}");
                    assert_eq!(&packet[..], scratch.out_bytes(out), "pkt {i}");
                }
                (OneVerdict::Drop, Verdict::Drop)
                | (OneVerdict::NoRoute, Verdict::NoRoute)
                | (OneVerdict::TtlExpired, Verdict::TtlExpired) => {}
                (OneVerdict::Malformed(e1), Verdict::Malformed(e2)) => {
                    assert_eq!(*e1, e2, "pkt {i}");
                }
                (one, batched) => panic!("pkt {i}: single {one:?} vs batched {batched:?}"),
            }
        }
        scratch.verdicts().to_vec()
    }

    #[test]
    fn mixed_burst_matches_single_packet_path() {
        let eng = engine();
        let frames = vec![
            // Plain forward via the /16, then the shadowing /24.
            tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 80, 0, 64),
            tcp_packet(a(1, 1, 1, 1), a(12, 34, 56, 9), 80, 0, 64),
            // Direct tunnel by dst prefix.
            tcp_packet(a(1, 1, 1, 2), a(20, 5, 5, 5), 80, 0, 64),
            // Split group by TOS: two flows, either side of the hash.
            tcp_packet(a(1, 1, 1, 3), a(12, 34, 1, 1), 443, 0xb8, 64),
            tcp_packet(a(2, 2, 2, 2), a(12, 34, 1, 2), 444, 0xb8, 64),
            // Policy drop by port range.
            tcp_packet(a(1, 1, 1, 4), a(12, 34, 1, 1), 6500, 0, 64),
            // No route.
            tcp_packet(a(1, 1, 1, 5), a(55, 0, 0, 1), 80, 0, 64),
            // TTL expiry inside the batch.
            tcp_packet(a(1, 1, 1, 6), a(12, 34, 1, 1), 80, 0, 1),
            // Duplicate of the first flow.
            tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 80, 0, 64),
        ];
        let verdicts = assert_equivalent(&eng, &frames);
        assert!(matches!(verdicts[0], Verdict::Forward { next_hop: 100, .. }));
        assert!(matches!(verdicts[1], Verdict::Forward { next_hop: 200, .. }));
        assert!(matches!(verdicts[2], Verdict::Encap { tunnel: 7, next_hop: 900, .. }));
        assert!(matches!(verdicts[3], Verdict::Encap { tunnel: 8 | 9, .. }));
        assert!(matches!(verdicts[4], Verdict::Encap { tunnel: 8 | 9, .. }));
        assert!(matches!(verdicts[5], Verdict::Drop));
        assert!(matches!(verdicts[6], Verdict::NoRoute));
        assert!(matches!(verdicts[7], Verdict::TtlExpired));
        assert!(matches!(verdicts[8], Verdict::Forward { next_hop: 100, .. }));
    }

    #[test]
    fn decap_at_local_endpoint() {
        let eng = engine();
        let inner = tcp_packet(a(1, 1, 1, 1), a(12, 34, 56, 9), 80, 0, 63);
        let wire =
            encap::encapsulate(&inner, a(99, 1, 1, 1), eng.local(), 7).unwrap();
        let verdicts = assert_equivalent(&eng, &[wire]);
        match verdicts[0] {
            Verdict::Decap { tunnel, .. } => assert_eq!(tunnel, 7),
            v => panic!("expected decap, got {v:?}"),
        }
    }

    #[test]
    fn malformed_frames_interleave_without_stopping_the_batch() {
        let eng = engine();
        let good = tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 80, 0, 64);
        let mut corrupt = good.to_vec();
        corrupt[12] ^= 0xff; // src byte: checksum breaks
        let truncated = good.slice(..10);
        // A MIRO packet to us with a clobbered shim magic.
        let mut bad_shim = encap::encapsulate(&good, a(99, 1, 1, 1), eng.local(), 7)
            .unwrap()
            .to_vec();
        bad_shim[Ipv4Header::LEN] = 0;
        // Re-checksum is unnecessary: the shim is payload, not header.
        let frames = vec![
            good.clone(),
            Bytes::from(corrupt),
            truncated,
            Bytes::from(bad_shim),
            good.clone(),
        ];
        let verdicts = assert_equivalent(&eng, &frames);
        assert!(matches!(verdicts[0], Verdict::Forward { .. }));
        assert!(matches!(
            verdicts[1],
            Verdict::Malformed(PktError::Ip(Ipv4Error::BadChecksum))
        ));
        assert!(matches!(
            verdicts[2],
            Verdict::Malformed(PktError::Ip(Ipv4Error::Truncated))
        ));
        assert!(matches!(verdicts[3], Verdict::Malformed(PktError::Shim)));
        assert!(matches!(verdicts[4], Verdict::Forward { .. }));
    }

    /// `pkt` with its flags + fragment-offset word replaced, re-checksummed.
    fn with_frag_word(pkt: &Bytes, word: u16) -> Bytes {
        let mut v = pkt.to_vec();
        v[6..8].copy_from_slice(&word.to_be_bytes());
        v[10..12].fill(0);
        let c = ipv4::checksum(&v[..Ipv4Header::LEN]);
        v[10..12].copy_from_slice(&c.to_be_bytes());
        Bytes::from(v)
    }

    #[test]
    fn fragments_are_malformed_on_both_paths() {
        // Without the rule the second fragment's first payload bytes read
        // as ports: here "port" 6500 would hit the drop rule, and a
        // fragment could dodge it or split one datagram across tunnels.
        let eng = engine();
        let first = tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 80, 0xb8, 64);
        let frames = vec![
            with_frag_word(&first, 0x2000),
            with_frag_word(&tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 6500, 0xb8, 64), 185),
            with_frag_word(&first, 0x4000),
        ];
        let verdicts = assert_equivalent(&eng, &frames);
        for v in &verdicts[..2] {
            assert_eq!(*v, Verdict::Malformed(PktError::Ip(Ipv4Error::Fragment)));
        }
        assert!(matches!(verdicts[2], Verdict::Encap { tunnel: 8 | 9, .. }), "DF alone forwards");
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let eng = engine();
        let one = tcp_packet(a(1, 1, 1, 1), a(12, 34, 99, 9), 80, 0, 64);
        assert_equivalent(&eng, &[one]);
        let mut scratch = BurstScratch::new();
        eng.forward_burst(&[], &mut scratch);
        assert!(scratch.verdicts().is_empty());
    }

    #[test]
    fn unknown_tunnel_is_a_per_packet_error() {
        let lpm = lpm_from(&[(p(20, 0, 0, 0, 8), 300)]);
        let classifier = Classifier::new(vec![(
            Match { dst: Some(p(20, 0, 0, 0, 8)), ..Default::default() },
            Action::Tunnel(42), // never installed
        )]);
        let eng = Engine::new(a(10, 0, 0, 1), lpm, classifier, vec![], vec![]);
        let frames = vec![tcp_packet(a(1, 1, 1, 1), a(20, 1, 1, 1), 80, 0, 64)];
        let verdicts = assert_equivalent(&eng, &frames);
        assert!(matches!(
            verdicts[0],
            Verdict::Malformed(PktError::UnknownTunnel(42))
        ));
    }

    #[test]
    fn tunnel_template_stamp_matches_allocating_encapsulate() {
        let lpm = lpm_from(&[(p(99, 0, 0, 0, 8), 900)]);
        let spec =
            TunnelSpec { id: 0xDEAD_BEEF, ingress: a(10, 0, 0, 1), endpoint: a(99, 7, 7, 7) };
        let ts = TunnelState::build(spec, &lpm);
        assert_eq!(ts.next_hop, Some(900));
        for len in [0usize, 1, 20, 99, 1400] {
            let inner: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut arena = BytesMut::new();
            let start = ts.stamp(inner.len(), &mut arena).unwrap();
            arena.extend_from_slice(&inner);
            let want = encap::encapsulate(
                &Bytes::from(inner),
                spec.ingress,
                spec.endpoint,
                spec.id,
            )
            .unwrap();
            assert_eq!(&arena[start..], &want[..], "inner len {len}");
        }
    }

    #[test]
    fn split_ratio_is_preserved_between_paths() {
        // The split group's per-flow hash must agree between paths, so a
        // large flow population lands identically on tunnels 8 and 9.
        let eng = engine();
        let mut counts = [0usize; 2];
        let mut frames = Vec::new();
        for i in 0..400u32 {
            frames.push(tcp_packet(
                Ipv4Addr4::from_u32(0x0a00_0000 + i),
                a(12, 34, 1, (i % 200) as u8),
                (1024 + i) as u16,
                0xb8,
                64,
            ));
        }
        let verdicts = assert_equivalent(&eng, &frames);
        for v in &verdicts {
            match v {
                Verdict::Encap { tunnel: 8, .. } => counts[0] += 1,
                Verdict::Encap { tunnel: 9, .. } => counts[1] += 1,
                other => panic!("expected encap, got {other:?}"),
            }
        }
        let frac = counts[0] as f64 / 400.0;
        assert!((0.4..0.6).contains(&frac), "1:1 split should be near 50%: {frac}");
    }
}
