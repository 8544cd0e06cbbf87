//! Tier-1 rung of the sink rule: a route table stores no cell for a sink
//! (an AS with no customer and no sibling), and every reader derives one
//! with `solver::sink_rule`, the function the solver's pull pass calls.
//!
//! * The rule over a full solve's cells, and the table's derivation over
//!   its transit cells alone, equal `RoutingState::best` on every sink
//!   toward every destination of `figure_1_1`, `GenParams::tiny` and
//!   small generated graphs.
//! * A wide sink (two providers, 300 peers) derives slots past 255 with
//!   no escape: the wide area holds transit ASes only.
//! * A masked solve's row, whose sinks the rule cannot know, round-trips
//!   through `set_row` → `encode` → `decode` → mmap by its exceptions.
//! * The mapped table, the decoded one and the solve agree on every
//!   (source, destination).
//! * A row solve refuses a sink one hop past the 63-hop bound, as a full
//!   solve does.

use miro_bgp::solver::{route_class_code, sink_rule, RoutingState, UNROUTED_CLASS, UNROUTED_NEXT};
use miro_serve::mmap::MappedTable;
use miro_serve::{RowRead, TableSource};
use miro_shard::format::RouteTableSet;
use miro_topology::gen::{figure_1_1, GenParams};
use miro_topology::{AsId, NodeId, Topology, TopologyBuilder};
use proptest::prelude::*;

/// A scratch table file, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str, bytes: &[u8]) -> Scratch {
        let path = std::env::temp_dir().join(format!("miro_sink_rule_{tag}_{}.mirt", std::process::id()));
        std::fs::write(&path, bytes).expect("write scratch table");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `(next, hops, class)` of `x` in `st`, with the table's sentinels.
fn solved(st: &RoutingState<'_>, x: NodeId) -> (u32, u16, u8) {
    match st.best(x) {
        Some(b) => (b.next, b.len, route_class_code(b.class)),
        None => (UNROUTED_NEXT, u16::MAX, UNROUTED_CLASS),
    }
}

/// On every destination of `topo`, every sink's route by the rule over
/// the full solve's cells, and by the table's derivation from the
/// transit cells alone, is the solver's.
fn rule_equals_solver(topo: &Topology) -> usize {
    let dests: Vec<NodeId> = topo.nodes().collect();
    let set = RouteTableSet::from_solves(topo, &dests, 2);
    assert_eq!(set.layout().num_exceptions(), 0);
    let mut checked = 0;
    for (i, &d) in dests.iter().enumerate() {
        let st = RoutingState::solve(topo, d);
        let view = set.view(i);
        for &s in topo.sinks() {
            let list = topo.slot_neighbors(s);
            let providers = topo.provider_neighbors(s).len();
            let rule = sink_rule(s, d, list, providers, |q| st.cells()[q as usize], |q| topo.asn(q).0);
            let by_rule = rule.map(|(slot, hops, class)| {
                let next = if hops == 0 { s } else { list[slot as usize] };
                (next, hops as u16, route_class_code(class))
            });
            let want = solved(&st, s);
            assert_eq!(by_rule.unwrap_or((UNROUTED_NEXT, u16::MAX, UNROUTED_CLASS)), want, "dest {d}, sink {s}");
            assert_eq!(view.route(s as usize), want, "dest {d}, sink {s}: the table's derivation");
            checked += 1;
        }
    }
    checked
}

#[test]
fn the_rule_equals_the_solver_on_every_sink_and_destination() {
    let (fig, _) = figure_1_1();
    assert!(rule_equals_solver(&fig) > 0);
    for seed in [1, 7] {
        assert!(rule_equals_solver(&GenParams::tiny(seed).generate()) > 0, "tiny({seed})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_rule_equals_the_solver_on_small_generated_graphs(seed in any::<u64>(), nodes in 20usize..90) {
        let mut params = GenParams::tiny(seed);
        params.num_nodes = nodes;
        rule_equals_solver(&params.generate());
    }
}

/// The mapped file, the decoded table and the solve agree on every
/// (source, destination) of `topo`.
fn readers_agree(tag: &str, topo: &Topology, set: &RouteTableSet, states: &[RoutingState<'_>]) {
    let bytes = set.encode();
    let decoded = RouteTableSet::decode(&bytes).expect("decodes");
    let file = Scratch::new(tag, &bytes);
    let mapped = MappedTable::open(&file.0).expect("verified open");
    for (i, st) in states.iter().enumerate() {
        let row = mapped.row(i).expect("row checks");
        let (next, hops, class) = decoded.row(i);
        for x in topo.nodes() {
            let want = solved(st, x);
            let xi = x as usize;
            assert_eq!((next[xi], hops[xi], class[xi]), want, "{tag}: decoded row {i}, AS {x}");
            assert_eq!(row.route(xi), want, "{tag}: mapped row {i}, AS {x}");
        }
    }
}

#[test]
fn mapped_equals_decoded_equals_the_solve_for_every_pair() {
    let (fig, _) = figure_1_1();
    let tiny = GenParams::tiny(5).generate();
    for (tag, topo) in [("fig", &fig), ("tiny", &tiny)] {
        let dests: Vec<NodeId> = topo.nodes().collect();
        let states: Vec<_> = dests.iter().map(|&d| RoutingState::solve(topo, d)).collect();
        readers_agree(tag, topo, &RouteTableSet::from_solves(topo, &dests, 2), &states);
    }
}

/// A sink over two providers and 300 peers, each peer selling transit
/// to one stub: toward the stub of the last peer, the sink's route is a
/// peer route through slot 301 of its list.
#[test]
fn a_wide_sink_derives_slots_past_255_without_an_escape() {
    let mut b = TopologyBuilder::new();
    let (sink, p1, p2) = (AsId(1), AsId(2), AsId(3));
    for asn in 1..=603 {
        b.intern_as(AsId(asn));
    }
    b.provider_customer(p1, sink);
    b.provider_customer(p2, sink);
    b.peering(p1, p2);
    for k in 0..300 {
        let (peer, stub) = (AsId(4 + k), AsId(304 + k));
        b.peering(sink, peer);
        b.provider_customer(peer, stub);
        b.provider_customer(p1, peer);
    }
    let topo = b.build().expect("a valid topology");
    let s = topo.node(sink).unwrap();
    assert_eq!((topo.degree(s), topo.sinks().contains(&s)), (302, true));
    let dests: Vec<NodeId> = [303, 450, 603].iter().map(|&a| topo.node(AsId(a)).unwrap()).collect();
    let set = RouteTableSet::from_solves(&topo, &dests, 1);
    assert_eq!(set.adjacency().wide(), &[topo.node(p1).unwrap()], "only the transit hub is wide");
    let states: Vec<_> = dests.iter().map(|&d| RoutingState::solve(&topo, d)).collect();
    let last = &states[2];
    let route = last.best(s).expect("the sink is routed");
    assert_eq!((route.next, route.len), (topo.node(AsId(303)).unwrap(), 2));
    assert_eq!(topo.slot(s, route.next), Some(301));
    readers_agree("wide", &topo, &set, &states);
}

/// A sink's provider link fails: the masked row's sinks are no function
/// of its transit cells, so `set_row` keeps what differs as exceptions,
/// and every reader reads the masked solve back.
#[test]
fn masked_rows_round_trip_through_the_exception_list() {
    let topo = GenParams::tiny(9).generate();
    let n = topo.num_nodes();
    let multihomed: Vec<NodeId> = topo.sinks().iter().copied().filter(|&s| topo.providers(s).count() >= 2).collect();
    let dests: Vec<NodeId> = miro_shard::sample_dests(n, 8);
    let mut set = RouteTableSet::from_solves(&topo, &dests, 1);
    let mut states = Vec::new();
    for (i, &d) in dests.iter().enumerate() {
        let s = multihomed[i % multihomed.len()];
        let p = RoutingState::solve(&topo, d).best(s).map_or(topo.providers(s).next().unwrap(), |b| b.next);
        let st = RoutingState::solve_without_link(&topo, d, s, p);
        let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
        st.write_table_row(&mut next, &mut hops, &mut class);
        set.set_row(i, &next, &hops, &class);
        assert_eq!(set.row(i), (next, hops, class), "row {i}");
        states.push(st);
    }
    assert!(set.layout().num_exceptions() > 0, "a failed sink link leaves an exception");
    readers_agree("masked", &topo, &set, &states);
}

/// A provider chain of `len` ASes, and one more AS buying from its top:
/// a sink one hop above the chain's longest route.
fn chain_under_a_sink(len: u32) -> Topology {
    let mut b = TopologyBuilder::with_capacity(len as usize + 1);
    for asn in 1..=len + 1 {
        b.intern_as(AsId(asn));
    }
    for asn in 1..len {
        b.provider_customer(AsId(asn + 1), AsId(asn));
    }
    b.provider_customer(AsId(len), AsId(len + 1));
    b.build().expect("a chain is a valid topology")
}

#[test]
fn a_row_solve_derives_a_sink_at_the_bound() {
    // The top is 62 hops up, its sink customer 63: a table holds it.
    let topo = chain_under_a_sink(63);
    let set = RouteTableSet::from_solves(&topo, &[0], 1);
    assert_eq!(set.row(0).1[63], 63);
}

#[test]
#[should_panic(expected = "longer than the 63 hops a route table holds")]
fn a_row_solve_refuses_a_sink_one_hop_past_the_bound() {
    RouteTableSet::from_solves(&chain_under_a_sink(64), &[0], 1);
}
