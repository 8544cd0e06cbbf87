//! Tier-1 pins that the solver's tables do not move: checksums of the
//! exact table file `table_build` writes (and of masked rows), the kernel
//! held to the heap reference on every destination of two graphs, and
//! the hop bound a route table can represent. The content pins (decoded
//! columns) hold across format versions; the file pins are format v6.

use miro_bgp::solver::{reference, RoutingState};
use miro_shard::format::{checksum, RouteTableSet};
use miro_shard::sample_dests;
use miro_topology::gen::{figure_1_1, DatasetPreset};
use miro_topology::io::stream::{self, IngestCache};
use miro_topology::{AsId, NodeId, Topology, TopologyBuilder};

/// Gao 2005 at half scale, seed 42, through the ingest cache: the graph
/// and node numbering every `benchmark/` workload runs on.
fn benchmark_graph() -> Topology {
    let generated = DatasetPreset::Gao2005.params(0.5, 42).generate();
    let (parsed, stats) =
        stream::parse_str(&miro_topology::io::to_text(&generated)).expect("parses");
    let cache = IngestCache::new("pin".into(), "generated".into(), stats, miro_topology::io::TopologyDoc::of(&parsed));
    let path = std::env::temp_dir().join(format!("miro_solver_pin_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&cache).expect("serializes")).expect("tmp write");
    let (_, topo) = stream::load_cache(&path).expect("cache loads");
    let _ = std::fs::remove_file(&path);
    topo
}

/// The checksum of every decoded row's `next`/`hops`/`class` columns,
/// serialised here rather than by the file format, so it holds across
/// format versions: a move of this pin is a moved route.
fn content_sum(file: &[u8]) -> u64 {
    let set = RouteTableSet::decode(file).expect("the encoded table decodes");
    let mut bytes = Vec::new();
    for (i, &d) in set.dests().iter().enumerate() {
        let (next, hops, class) = set.row(i);
        bytes.extend_from_slice(&d.to_le_bytes());
        for x in 0..next.len() {
            bytes.extend_from_slice(&next[x].to_le_bytes());
            bytes.extend_from_slice(&hops[x].to_le_bytes());
            bytes.push(class[x]);
        }
    }
    checksum(&bytes)
}

/// The checksum of the 256-destination table `table_build` writes, and of
/// eight masked rows (each destination without its first tree link: the
/// link under the lowest-numbered AS routed toward it): the file bytes,
/// and the decoded columns the file carries.
#[test]
fn the_benchmark_table_and_masked_rows_are_pinned() {
    let topo = benchmark_graph();
    assert_eq!(topo.num_nodes(), 10_465);
    let dests = sample_dests(topo.num_nodes(), 256);
    let file = RouteTableSet::from_solves(&topo, &dests, 2).encode();
    assert_eq!(content_sum(&file), 0xf3fa_bc14_3e66_0ee1, "table content: {:#018x}", content_sum(&file));
    assert_eq!(checksum(&file), 0x4a50_9665_b628_4e33, "table file: {:#018x}", checksum(&file));

    let n = topo.num_nodes();
    let masked_dests = &dests[..8];
    let mut set = RouteTableSet::from_solves(&topo, masked_dests, 1);
    let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
    for (i, &d) in masked_dests.iter().enumerate() {
        let base = RoutingState::solve(&topo, d);
        let (x, hop) = topo
            .nodes()
            .filter(|&x| x != d)
            .find_map(|x| base.best(x).map(|b| (x, b.next)))
            .expect("someone routes toward every sampled destination");
        RoutingState::solve_without_link(&topo, d, x, hop).write_table_row(&mut next, &mut hops, &mut class);
        set.set_row(i, &next, &hops, &class);
    }
    let masked = set.encode();
    assert_eq!(content_sum(&masked), 0xf614_1523_429d_2fee, "masked content: {:#018x}", content_sum(&masked));
    assert_eq!(checksum(&masked), 0xccc3_e672_bcce_229c, "masked rows: {:#018x}", checksum(&masked));
}

/// The kernel equals the heap reference, route for route and candidate
/// set for candidate set, on every destination of two graphs.
#[test]
fn the_kernel_equals_the_heap_reference_on_every_destination() {
    let (fig, _) = figure_1_1();
    let gao = DatasetPreset::Gao2005.params(0.01, 42).generate();
    for topo in [&fig, &gao] {
        for d in topo.nodes() {
            let (fast, slow) = (RoutingState::solve(topo, d), reference::solve(topo, d));
            for x in topo.nodes() {
                assert_eq!(fast.best(x), slow.best(x), "dest {d}, node {x}");
                assert_eq!(fast.candidates(x), slow.candidates(x), "dest {d}, node {x}");
            }
        }
    }
}

/// A provider chain of `len` ASes, each buying transit from the next:
/// node 0 is the bottom, node `len - 1` the top.
fn chain(len: u32) -> Topology {
    let mut b = TopologyBuilder::with_capacity(len as usize);
    for asn in 1..=len {
        b.intern_as(AsId(asn));
    }
    for asn in 1..len {
        b.provider_customer(AsId(asn + 1), AsId(asn));
    }
    b.build().expect("a chain is a valid topology")
}

/// A 64-AS chain's top route is 63 hops, the most a table cell holds:
/// it solves, and its table row encodes and decodes back.
#[test]
fn the_longest_representable_route_solves_intact() {
    let topo = chain(64);
    let top = topo.num_nodes() as NodeId - 1;
    let st = RoutingState::solve(&topo, 0);
    let route = st.best(top).expect("the top AS is routed");
    assert_eq!((route.len, route.next), (63, top - 1));
    let n = topo.num_nodes();
    let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
    st.write_table_row(&mut next, &mut hops, &mut class);
    assert_eq!((next[top as usize], hops[top as usize]), (top - 1, 63));
    let set = RouteTableSet::from_solves(&topo, &[0], 1);
    assert_eq!(set.row(0), (next, hops, class));
    assert_eq!(RouteTableSet::decode(&set.encode()).expect("decodes"), set);
}

#[test]
#[should_panic(expected = "longer than the 63 hops a route table holds")]
fn a_route_one_hop_too_long_is_refused() {
    RoutingState::solve(&chain(65), 0);
}

#[test]
#[should_panic(expected = "longer than the 63 hops a route table holds")]
fn a_far_too_long_route_is_refused() {
    RoutingState::solve(&chain(70_000), 0);
}
