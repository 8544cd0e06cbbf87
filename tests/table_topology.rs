//! Tier-1 rung for the table file as a topology image: `Topology` →
//! `Adjacency::of` → table file bytes → `Adjacency::topology()` gives back
//! the same topology — the same AS numbers, `rel` of every link, slot
//! order with its back slots and partition bounds, transit-down lists
//! and sinks — on the Figure 1.1 graph, every preset at 5%, the Internet
//! preset at 5% and in full (70k ASes), and tiny graphs of any seed.

use miro_shard::format::{Adjacency, RouteTableSet};
use miro_topology::gen::figure_1_1;
use miro_topology::{DatasetPreset, GenParams, Topology};
use proptest::prelude::*;

/// The topology a table file over `topo` (no rows) carries.
fn through_a_file(topo: &Topology) -> Topology {
    let bytes = RouteTableSet::from_solves(topo, &[], 1).encode();
    let set = RouteTableSet::decode(&bytes).expect("the table decodes");
    assert_eq!(set.adjacency(), &Adjacency::of(topo));
    set.adjacency().topology().expect("a topology's sections rebuild it")
}

/// `a` and `b` are one topology, node for node.
fn assert_same(a: &Topology, b: &Topology, what: &str) {
    assert_eq!((a.num_nodes(), a.num_edges()), (b.num_nodes(), b.num_edges()), "{what}");
    assert_eq!(a.sinks(), b.sinks(), "{what}: sinks");
    for x in a.nodes() {
        assert_eq!((a.asn(x), b.node(a.asn(x))), (b.asn(x), Some(x)), "{what}: AS node {x}'s number");
        assert_eq!(a.neighbors(x), b.neighbors(x), "{what}: AS node {x}'s links");
        assert_eq!(a.slot_offers(x), b.slot_offers(x), "{what}: AS node {x}'s slot order");
        assert_eq!(a.slot_bounds(x), b.slot_bounds(x), "{what}: AS node {x}'s partitions");
        assert_eq!(a.transit_down_offers(x), b.transit_down_offers(x), "{what}: AS node {x}'s transit-down list");
    }
}

fn round_trips(topo: &Topology, what: &str) {
    assert_same(topo, &through_a_file(topo), what);
}

#[test]
fn figure_1_1_every_preset_and_the_internet_preset_round_trip_through_a_table_file() {
    round_trips(&figure_1_1().0, "figure 1.1");
    for preset in DatasetPreset::ALL.into_iter().chain([DatasetPreset::InternetScale]) {
        let topo = preset.params(0.05, 42).generate();
        // Siblings are what the third partition end adds to the file.
        assert!(topo.nodes().any(|x| !topo.sibling_neighbors(x).is_empty()), "{preset:?} has siblings");
        round_trips(&topo, &format!("{preset:?} at 5%"));
    }
}

/// ~1.5 s in a debug build.
#[test]
fn the_full_internet_preset_round_trips_through_a_table_file() {
    round_trips(&DatasetPreset::InternetScale.params(1.0, 42).generate(), "internet 70k");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_tiny_graph_round_trips_through_a_table_file(seed in any::<u64>()) {
        round_trips(&GenParams::tiny(seed).generate(), &format!("tiny seed {seed}"));
    }
}
