//! Property-based tests for the data plane: codecs round-trip on
//! arbitrary inputs, corruption never passes silently, and the LPM trie
//! agrees with a linear scan on arbitrary tables.

use bytes::{Bytes, BytesMut};
use miro_dataplane::classifier::{FlowKey, HashSplitter};
use miro_dataplane::encap::{decapsulate, encapsulate};
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Error, Ipv4Header};
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

    /// LPM lookup agrees with a brute-force longest-covering scan for
    /// arbitrary prefix tables and probe addresses.
    #[test]
    fn lpm_matches_linear_scan(
        entries in proptest::collection::vec((any::<u32>(), 0u8..33), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let mut trie = PrefixTrie::new();
        let mut table: Vec<(Prefix, usize)> = Vec::new();
        for (i, &(addr, len)) in entries.iter().enumerate() {
            let p = Prefix::new(Ipv4Addr4::from_u32(addr), len);
            trie.insert(p, i);
            table.retain(|&(q, _)| q != p);
            table.push((p, i));
        }
        for &probe in &probes {
            let a = Ipv4Addr4::from_u32(probe);
            let expect = table
                .iter()
                .filter(|(p, _)| p.covers(a))
                .max_by_key(|(p, _)| p.len)
                .map(|&(_, v)| v);
            prop_assert_eq!(trie.lookup(a).map(|(_, &v)| v), expect);
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
