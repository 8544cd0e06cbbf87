//! The burst ≡ `forward_one` rung under Tier-1: the engine `packet_burst`
//! forwards through — the max-degree vantage's next hops as one /20 per
//! destination of a solved Gao 2005 × 0.01 table, four tunnels (two
//! pinned by destination rule, two behind a TOS-triggered split group)
//! and a port-range drop rule — run over a mixed ring at batch sizes 1,
//! 64 and 4096. Every verdict and every output byte must equal the
//! packet-at-a-time path's, which looks up in the trie the burst path's
//! stride table was compiled from. The ring mixes in what must not
//! forward: truncated, bad-checksum, TTL-1, fragment, unrouted and
//! policy-dropped frames.

use bytes::Bytes;
use miro_bgp::engine::par_over_dests;
use miro_dataplane::burst::{BurstScratch, Engine, OneVerdict, TunnelSpec, Verdict};
use miro_dataplane::classifier::{Action, Classifier, HashSplitter, Match};
use miro_dataplane::encap;
use miro_dataplane::ipv4::{checksum, Ipv4Addr4, Ipv4Header};
use miro_dataplane::lpm::{Prefix, PrefixTrie};
use miro_topology::{DatasetPreset, NodeId};

const LOCAL: Ipv4Addr4 = Ipv4Addr4([200, 0, 0, 1]);
const GROUP: u32 = 1000;
const SPLIT_TOS: u8 = 0xb8;
const RING: usize = 4096;

fn dest_prefix(d: NodeId) -> Prefix {
    Prefix::new(Ipv4Addr4::from_u32(d << 12), 20)
}

/// The engine, and the destinations it routes.
fn engine() -> (Engine, Vec<NodeId>) {
    let topo = DatasetPreset::Gao2005.params(0.01, 42).generate();
    let vantage = topo.nodes().max_by_key(|&n| topo.neighbors(n).len()).unwrap();
    let dests: Vec<NodeId> = topo.nodes().filter(|&d| d != vantage).collect();
    let next_hops = par_over_dests(&topo, &dests, 2, |d, st| st.best(vantage).map(|b| (d, b.next)));
    let mut lpm = PrefixTrie::new();
    let routable: Vec<NodeId> = next_hops
        .into_iter()
        .flatten()
        .map(|(d, next)| {
            lpm.insert(dest_prefix(d), next);
            d
        })
        .collect();
    assert!(routable.len() > 100, "the vantage reaches {} destinations", routable.len());
    let tunnels = (0..4)
        .map(|i| TunnelSpec {
            id: i + 1,
            ingress: LOCAL,
            endpoint: Ipv4Addr4::from_u32((routable[i as usize] << 12) | 0x123),
        })
        .collect();
    let classifier = Classifier::new(vec![
        (Match { dst_port: Some((6000, 6999)), ..Default::default() }, Action::Drop),
        (Match { dst: Some(dest_prefix(routable[0])), ..Default::default() }, Action::Tunnel(1)),
        (Match { dst: Some(dest_prefix(routable[1])), ..Default::default() }, Action::Tunnel(2)),
        (Match { tos: Some(SPLIT_TOS), ..Default::default() }, Action::Tunnel(GROUP)),
    ]);
    let split = HashSplitter::new(vec![(1, 3), (1, 4)]);
    (Engine::new(LOCAL, lpm, classifier, tunnels, vec![(GROUP, split)]), routable)
}

/// Frame `i` of the ring: one of twelve kinds, addressed by `rng`.
fn frame(i: usize, routable: &[NodeId], rng: &mut impl FnMut() -> u32) -> Bytes {
    let kind = i % 12;
    let d = match kind {
        1 => routable[(rng() % 2) as usize], // a pinned tunnel
        _ => routable[2 + (rng() as usize) % (routable.len() - 2)],
    };
    let dst = match kind {
        9 => Ipv4Addr4::from_u32(0xC700_0000 | (rng() & 0xffff)), // unrouted
        _ => Ipv4Addr4::from_u32((d << 12) | (rng() & 0xfff)),
    };
    let dport: u16 = if kind == 10 { 6000 + (rng() % 1000) as u16 } else { 443 };
    let mut body = vec![0xAB; 26];
    body[..2].copy_from_slice(&((rng() as u16) | 1024).to_be_bytes());
    body[2..4].copy_from_slice(&dport.to_be_bytes());
    let mut h = Ipv4Header::new(Ipv4Addr4::from_u32(0xC801_0000 | (rng() & 0xffff)), dst, 6, 26);
    h.dscp_ecn = if kind == 2 { SPLIT_TOS } else { 0 };
    h.ttl = if kind == 6 { 1 } else { 64 };
    let pkt = h.emit_with_payload(&body);
    let mut v = pkt.to_vec();
    match kind {
        3 => return encap::encapsulate(&pkt, Ipv4Addr4::from_u32(d << 12), LOCAL, 1 + rng() % 4).unwrap(),
        4 => v.truncate((rng() % 20) as usize),
        5 => v[12 + (rng() % 8) as usize] ^= 0x10, // checksum no longer verifies
        7 | 8 => {
            // A first fragment (MF) or a non-first one (offset 185).
            let word: u16 = if kind == 7 { 0x2000 } else { 185 };
            v[6..8].copy_from_slice(&word.to_be_bytes());
            v[10..12].fill(0);
            let c = checksum(&v[..20]);
            v[10..12].copy_from_slice(&c.to_be_bytes());
        }
        _ => {}
    }
    Bytes::from(v)
}

/// Does the burst verdict, output bytes included, equal the single one?
fn same(one: &OneVerdict, burst: Verdict, scratch: &BurstScratch) -> bool {
    match (one, burst) {
        (OneVerdict::Forward { next_hop: n, packet }, Verdict::Forward { next_hop, out }) => {
            *n == next_hop && packet[..] == *scratch.out_bytes(out)
        }
        (OneVerdict::Encap { tunnel: t, next_hop: n, packet }, Verdict::Encap { tunnel, next_hop, out }) => {
            (*t, *n) == (tunnel, next_hop) && packet[..] == *scratch.out_bytes(out)
        }
        (OneVerdict::Decap { tunnel: t, packet }, Verdict::Decap { tunnel, out }) => {
            *t == tunnel && packet[..] == *scratch.out_bytes(out)
        }
        (OneVerdict::Drop, Verdict::Drop)
        | (OneVerdict::NoRoute, Verdict::NoRoute)
        | (OneVerdict::TtlExpired, Verdict::TtlExpired) => true,
        (OneVerdict::Malformed(a), Verdict::Malformed(b)) => *a == b,
        _ => false,
    }
}

#[test]
fn burst_equals_forward_one_on_a_solved_table_at_every_batch_size() {
    let (engine, routable) = engine();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u32
    };
    let ring: Vec<Bytes> = (0..RING).map(|i| frame(i, &routable, &mut rng)).collect();
    let ones: Vec<OneVerdict> = ring.iter().map(|f| engine.forward_one(f)).collect();

    // Every kind in the ring reaches its own verdict on the reference.
    let at_least = |kinds: usize, f: fn(&OneVerdict) -> bool| {
        let n = ones.iter().filter(|v| f(v)).count();
        assert!(n >= kinds * (RING / 12), "{n} < {kinds} kinds' worth");
    };
    at_least(2, |v| matches!(v, OneVerdict::Forward { .. }));
    at_least(1, |v| matches!(v, OneVerdict::Encap { tunnel: 1 | 2, .. }));
    at_least(1, |v| matches!(v, OneVerdict::Decap { .. }));
    at_least(1, |v| matches!(v, OneVerdict::Drop));
    at_least(1, |v| matches!(v, OneVerdict::NoRoute));
    at_least(1, |v| matches!(v, OneVerdict::TtlExpired));
    at_least(4, |v| matches!(v, OneVerdict::Malformed(_)));
    let split = ones.iter().filter(|v| matches!(v, OneVerdict::Encap { tunnel: 3 | 4, .. }));
    assert!(split.count() >= RING / 12);

    let views: Vec<&[u8]> = ring.iter().map(|f| &f[..]).collect();
    let mut scratch = BurstScratch::new();
    for batch in [1, 64, 4096] {
        for (c, chunk) in views.chunks(batch).enumerate() {
            engine.forward_burst(chunk, &mut scratch);
            assert_eq!(scratch.verdicts().len(), chunk.len());
            for (j, &v) in scratch.verdicts().iter().enumerate() {
                let i = c * batch + j;
                assert!(same(&ones[i], v, &scratch), "batch {batch}, frame {i}: {v:?} vs {:?}", ones[i]);
            }
        }
    }
}
