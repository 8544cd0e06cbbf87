//! Property-based tests for the data plane: codecs round-trip on
//! arbitrary inputs, corruption never passes silently, fragments are
//! refused on both forwarding paths, and the LPM trie and the stride
//! table compiled from it agree with a linear scan on arbitrary tables.

use bytes::{Bytes, BytesMut};
use miro_dataplane::burst::{BurstScratch, Engine, OneVerdict, PktError, Verdict};
use miro_dataplane::classifier::{Classifier, FlowKey, HashSplitter};
use miro_dataplane::encap::{decapsulate, encapsulate};
use miro_dataplane::ipv4::{checksum, Ipv4Addr4, Ipv4Error, Ipv4Header};
use miro_dataplane::lpm::{Prefix, PrefixTrie};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr4> {
    any::<u32>().prop_map(Ipv4Addr4::from_u32)
}

fn arb_header_payload() -> impl Strategy<Value = (Ipv4Header, Vec<u8>)> {
    (
        arb_addr(),
        arb_addr(),
        any::<u8>(),
        any::<u8>(),
        1u8..255,
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(src, dst, proto, dscp, ttl, ident, payload)| {
            let mut h = Ipv4Header::new(src, dst, proto, payload.len() as u16);
            h.dscp_ecn = dscp;
            h.ttl = ttl;
            h.identification = ident;
            (h, payload)
        })
}

proptest! {
    /// IPv4 emit -> parse is the identity, and the payload survives.
    #[test]
    fn ipv4_round_trip((h, payload) in arb_header_payload()) {
        let pkt = h.emit_with_payload(&payload);
        let (parsed, got) = Ipv4Header::parse(pkt).expect("own output parses");
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(&got[..], &payload[..]);
    }

    /// Any single-bit corruption of the 20-byte header is caught by the
    /// checksum (never silently accepted with different field values).
    #[test]
    fn ipv4_detects_any_single_bit_header_corruption(
        (h, payload) in arb_header_payload(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let pkt = h.emit_with_payload(&payload);
        let mut bad = BytesMut::from(&pkt[..]);
        bad[byte] ^= 1 << bit;
        match Ipv4Header::parse(bad.freeze()) {
            Err(_) => {} // rejected: good
            Ok((parsed, _)) => {
                // A parse that succeeds must have found the original
                // header bits (impossible after a flip) — fail loudly.
                prop_assert!(false, "corrupted header accepted: {parsed:?} vs {h:?}");
            }
        }
    }

    /// A corrupted byte in the outer header or the shim's magic / version
    /// never decapsulates: a tunnel endpoint acts only on packets that
    /// were addressed and framed the way the upstream sent them.
    #[test]
    fn encap_rejects_any_single_byte_outer_or_magic_corruption(
        (h, payload) in arb_header_payload(),
        tid in any::<u32>(),
        byte in 0usize..Ipv4Header::LEN + 2,
        flip in 0u8..255,
    ) {
        let inner = h.emit_with_payload(&payload);
        let wire = encapsulate(&inner, Ipv4Addr4::new(1, 1, 1, 1), Ipv4Addr4::new(2, 2, 2, 2), tid)
            .expect("fits");
        let mut bad = BytesMut::from(&wire[..]);
        bad[byte] ^= flip + 1; // never zero: the byte always changes
        prop_assert!(decapsulate(bad.freeze()).is_err(), "byte {byte} ^ {:#04x} decapsulated", flip + 1);
    }

    /// Encapsulation round-trips arbitrary inner packets under arbitrary
    /// tunnel ids and endpoints.
    #[test]
    fn encap_round_trip(
        (h, payload) in arb_header_payload(),
        ingress in arb_addr(),
        endpoint in arb_addr(),
        tid in any::<u32>(),
    ) {
        let inner = h.emit_with_payload(&payload);
        let wire = encapsulate(&inner, ingress, endpoint, tid).expect("fits");
        let (outer, shim, got) = decapsulate(wire).expect("own output parses");
        prop_assert_eq!(outer.src, ingress);
        prop_assert_eq!(outer.dst, endpoint);
        prop_assert_eq!(shim.tunnel_id, tid);
        prop_assert_eq!(got, inner);
    }

    /// Truncating any packet below the header length is always an error,
    /// never a panic.
    #[test]
    fn truncation_is_graceful((h, payload) in arb_header_payload(), cut in 0usize..19) {
        let pkt = h.emit_with_payload(&payload);
        let r = Ipv4Header::parse(pkt.slice(..cut.min(pkt.len())));
        prop_assert_eq!(r.unwrap_err(), Ipv4Error::Truncated);
    }

    /// Parsing arbitrary bytes never panics.
    #[test]
    fn parse_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Ipv4Header::parse(Bytes::from(data.clone()));
        let _ = decapsulate(Bytes::from(data));
    }

    /// The trie's lookup and the stride table compiled from it agree with
    /// a brute-force longest-covering scan. Prefixes of every length share
    /// a few base addresses, so they nest and overlap (default routes and
    /// /32s included); values repeat and prefixes are re-inserted with new
    /// values. Probes are every prefix's first and last address, one
    /// either side of each, and random addresses.
    #[test]
    fn lpm_matches_linear_scan(
        bases in proptest::collection::vec(any::<u32>(), 1..4),
        entries in proptest::collection::vec((0usize..4, any::<u32>(), 0u8..33, 0u32..6), 0..40),
        random in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let mut trie = PrefixTrie::new();
        let mut table: Vec<(Prefix, u32)> = Vec::new();
        for &(base, noise, len, value) in &entries {
            // Mostly a base address (nested prefixes), sometimes noise.
            let addr = bases.get(base).copied().unwrap_or(noise);
            let p = Prefix::new(Ipv4Addr4::from_u32(addr), len);
            trie.insert(p, value);
            table.retain(|&(q, _)| q != p);
            table.push((p, value));
        }
        let compiled = trie.compile();
        let mut distinct: Vec<u32> = table.iter().map(|&(_, v)| v).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(compiled.distinct_values(), distinct.len());
        let mut probes = random;
        for &(p, _) in &table {
            let first = p.addr.to_u32();
            let last = first | (((1u64 << (32 - p.len)) - 1) as u32);
            for a in [first, last] {
                probes.extend([a.wrapping_sub(1), a, a.wrapping_add(1)]);
            }
        }
        for probe in probes {
            let a = Ipv4Addr4::from_u32(probe);
            let expect = table
                .iter()
                .filter(|(p, _)| p.covers(a))
                .max_by_key(|(p, _)| p.len)
                .map(|&(_, v)| v);
            prop_assert_eq!(trie.lookup(a).map(|(_, &v)| v), expect, "trie at {}", a);
            prop_assert_eq!(compiled.get(a).copied(), expect, "table at {}", a);
        }
    }

    /// Fragments are refused by both forwarding paths, whatever else the
    /// flags and offset word holds; every other frame forwards alike on
    /// both. The word is re-checksummed, so the fragment rule is what
    /// decides, not the header checksum.
    #[test]
    fn both_paths_refuse_exactly_the_fragments(
        frames in proptest::collection::vec(
            (arb_header_payload(), prop_oneof![Just(0u16), Just(0x4000), Just(0x2000), any::<u16>()]),
            1..24,
        ),
    ) {
        let mut lpm = PrefixTrie::new();
        lpm.insert(Prefix::new(Ipv4Addr4::new(0, 0, 0, 0), 0), 1u32);
        lpm.insert(Prefix::new(Ipv4Addr4::new(128, 0, 0, 0), 1), 2);
        let eng = Engine::new(Ipv4Addr4::new(10, 0, 0, 1), lpm, Classifier::new(vec![]), vec![], vec![]);
        let frames: Vec<(Bytes, bool)> = frames
            .into_iter()
            .map(|((mut h, payload), word)| {
                h.ttl = h.ttl.max(2);
                let mut v = BytesMut::from(&h.emit_with_payload(&payload)[..]);
                v[6..8].copy_from_slice(&word.to_be_bytes());
                v[10..12].fill(0);
                let c = checksum(&v[..20]);
                v[10..12].copy_from_slice(&c.to_be_bytes());
                (v.freeze(), word & 0x3fff != 0)
            })
            .collect();
        let views: Vec<&[u8]> = frames.iter().map(|(f, _)| &f[..]).collect();
        let mut scratch = BurstScratch::new();
        eng.forward_burst(&views, &mut scratch);
        let fragment = PktError::Ip(Ipv4Error::Fragment);
        for ((frame, is_fragment), &burst) in frames.iter().zip(scratch.verdicts()) {
            let one = eng.forward_one(frame);
            if *is_fragment {
                prop_assert_eq!(burst, Verdict::Malformed(fragment));
                prop_assert_eq!(one, OneVerdict::Malformed(fragment));
            } else if let (Verdict::Forward { next_hop, out }, OneVerdict::Forward { next_hop: n1, packet }) = (burst, &one) {
                prop_assert_eq!(next_hop, *n1);
                prop_assert_eq!(scratch.out_bytes(out), &packet[..]);
            } else {
                prop_assert!(
                    matches!(one, OneVerdict::Decap { .. } | OneVerdict::Malformed(PktError::Shim)),
                    "a non-fragment forwards unless it is MIRO to the local endpoint: {:?} / {:?}", burst, one
                );
            }
        }
    }

    /// Insert-then-remove restores the previous lookup behaviour.
    #[test]
    fn lpm_remove_undoes_insert(
        base in proptest::collection::vec((any::<u32>(), 8u8..25), 0..20),
        extra in (any::<u32>(), 0u8..33),
        probe in any::<u32>(),
    ) {
        let mut trie = PrefixTrie::new();
        for (i, &(addr, len)) in base.iter().enumerate() {
            trie.insert(Prefix::new(Ipv4Addr4::from_u32(addr), len), i);
        }
        let a = Ipv4Addr4::from_u32(probe);
        let before = trie.lookup(a).map(|(p, &v)| (p, v));
        let px = Prefix::new(Ipv4Addr4::from_u32(extra.0), extra.1);
        let had = trie.get(px).copied();
        trie.insert(px, usize::MAX);
        match had {
            Some(v) => { trie.insert(px, v); }
            None => { trie.remove(px); }
        }
        prop_assert_eq!(trie.lookup(a).map(|(p, &v)| (p, v)), before);
    }

    /// The flow splitter is deterministic and total: every flow maps to a
    /// configured path id.
    #[test]
    fn splitter_is_deterministic_and_total(
        weights in proptest::collection::vec(1u32..100, 1..6),
        src in any::<u32>(),
        port in any::<u16>(),
    ) {
        let paths: Vec<(u32, u32)> =
            weights.iter().enumerate().map(|(i, &w)| (w, i as u32)).collect();
        let s = HashSplitter::new(paths.clone());
        let k = FlowKey {
            src: Ipv4Addr4::from_u32(src),
            dst: Ipv4Addr4::new(1, 2, 3, 4),
            src_port: port,
            dst_port: 443,
            protocol: 6,
            tos: 0,
        };
        let p1 = s.path_for(&k);
        prop_assert_eq!(p1, s.path_for(&k));
        prop_assert!(paths.iter().any(|&(_, id)| id == p1));
    }
}
