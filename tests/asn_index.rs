//! Tier-1 rung of the ASN → node index (`Topology::node`), which hashes
//! under a per-process seed: every AS maps back to its node whatever its
//! number's bit pattern, numbers next to present ones miss, and the
//! daemon's reply to a number it does not know keeps its text.

use miro_serve::query::{Engine, QueryScratch};
use miro_serve::server::answer_frame;
use miro_serve::wire::{decode_payload, encode_payload, split_frame, WireMsg};
use miro_shard::format::RouteTableSet;
use miro_topology::gen::figure_1_1;
use miro_topology::{AsId, GenParams, NodeId, Rel, Topology, TopologyBuilder};
use std::collections::HashSet;

/// ASes at 0 and `u32::MAX`, 2,000 multiples of 2^14 (the low 14 bits
/// all zero) and a dense run of 600, each the customer of the AS at a
/// sixteenth of its position: a tree four levels deep.
fn awkward_asns() -> Topology {
    let asns: Vec<u32> = [0, u32::MAX]
        .into_iter()
        .chain((1..=2_000).map(|k| k << 14))
        .chain(70_000..70_600)
        .collect();
    let mut b = TopologyBuilder::new();
    for &a in &asns {
        b.add_as(AsId(a));
    }
    for (i, &a) in asns.iter().enumerate().skip(1) {
        b.link(AsId(asns[i / 16]), AsId(a), Rel::Customer);
    }
    b.build().expect("a tree is a valid topology")
}

/// Every AS maps back to its node, and every number next to a present
/// one, 0 and `u32::MAX` miss unless present.
fn index_round_trips(topo: &Topology) {
    let present: HashSet<u32> = topo.nodes().map(|x| topo.asn(x).0).collect();
    assert_eq!(present.len(), topo.num_nodes(), "ASNs are distinct");
    for x in topo.nodes() {
        assert_eq!(topo.node(topo.asn(x)), Some(x), "node {x}");
    }
    let near = present.iter().flat_map(|&a| [a.wrapping_sub(1), a.wrapping_add(1)]);
    for a in near.chain([0, u32::MAX]).filter(|a| !present.contains(a)) {
        assert_eq!(topo.node(AsId(a)), None, "AS {a} is absent");
    }
}

#[test]
fn every_as_maps_back_to_its_node_and_absent_numbers_miss() {
    let topo = awkward_asns();
    assert_eq!(topo.num_nodes(), 2_602);
    assert_eq!(topo.node(AsId(0)), Some(0));
    assert_eq!(topo.node(AsId(u32::MAX)), Some(1));
    assert_eq!(topo.node(AsId(2_000 << 14)), Some(2_001));
    for topo in [figure_1_1().0, GenParams::tiny(7).generate(), topo] {
        index_round_trips(&topo);
    }
}

/// The reply to each unknown operand names its role and number, as it
/// did before the index changed hashers.
#[test]
fn the_daemon_names_an_unknown_as_in_its_reply() {
    let topo = awkward_asns();
    let dests: Vec<NodeId> = (0..8).collect();
    let engine = Engine::new(RouteTableSet::from_solves(&topo, &dests, 1), topo.clone(), None).unwrap();
    let (known, dest) = (topo.asn(5).0, topo.asn(0).0);
    let ghost = (7 << 14) + 1;
    let mut scratch = QueryScratch::new();
    for (request, says) in [
        (WireMsg::NextHop { id: 1, src: ghost, dest }, format!("unknown source AS {ghost}")),
        (WireMsg::Path { id: 2, src: known, dest: ghost }, format!("unknown destination AS {ghost}")),
        (WireMsg::Alternate { id: 3, src: known, dest, avoid: ghost }, format!("unknown AS to avoid {ghost}")),
        (WireMsg::Path { id: 4, src: 1, dest }, "unknown source AS 1".to_string()),
    ] {
        let mut out = Vec::new();
        assert!(answer_frame(&engine, &mut scratch, &encode_payload(&request), &mut out).unwrap().is_none());
        let (payload, _) = split_frame(&out, usize::MAX).unwrap().expect("one whole frame");
        match decode_payload(payload).unwrap() {
            WireMsg::RErr { msg, .. } => assert_eq!(msg, says),
            other => panic!("{request:?} -> {other:?}"),
        }
    }
}
