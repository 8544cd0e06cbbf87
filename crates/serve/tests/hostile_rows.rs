//! Hostile rows are refused, not indexed. A row whose cells were rewritten
//! and whose checksums were resealed passes every checksum; what stands
//! between it and an out-of-list slot is the slot check. Each such table
//! must give `table corrupt` or a valid answer — through the mapped file,
//! the decoded in-memory set and `whole-table`'s streamed summary alike —
//! and never a panic:
//!
//! * a slot past its AS's list (an inline slot on a narrow AS);
//! * an escape on a narrow AS, which has no wide slot;
//! * an escaped wide AS whose wide slot is at or past its degree;
//! * a class code of 3 (unrouted) with other bits set;
//! * any word at all, in a cell or in the wide area.

use miro_bgp::solver::{pack_cell, ESCAPE, NO_SLOT};
use miro_eval::whole_table::summarize_file;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryError, QueryScratch};
use miro_shard::format::{checksum, RouteTableSet, CELL_BYTES};
use miro_shard::sample_dests;
use miro_topology::gen::GenParams;
use miro_topology::{AsId, NodeId, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A tiny generated graph and a hub: the hub buys transit from two of
/// the graph's ASes and sells it to 300 stubs, 40 of which also buy from
/// one of five other ASes. The hub is the one wide AS.
fn graph() -> &'static (Topology, RouteTableSet) {
    static GRAPH: OnceLock<(Topology, RouteTableSet)> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let base = GenParams::tiny(11).generate();
        let mut b = TopologyBuilder::new();
        for x in base.nodes() {
            b.intern_as(base.asn(x));
        }
        for x in base.nodes() {
            for &(y, rel) in base.neighbors(x).iter().filter(|&&(y, _)| x < y) {
                b.link(base.asn(x), base.asn(y), rel);
            }
        }
        let hub = AsId(900_000);
        b.intern_as(hub);
        b.provider_customer(base.asn(0), hub);
        b.provider_customer(base.asn(1), hub);
        for i in 0..300 {
            let stub = AsId(900_001 + i);
            b.intern_as(stub);
            b.provider_customer(hub, stub);
            if i < 40 {
                b.provider_customer(base.asn(2 + i % 5), stub);
            }
        }
        let topo = b.build().expect("a valid topology");
        let hub = topo.node(hub).unwrap();
        let mut dests = sample_dests(topo.num_nodes(), 5);
        dests.extend([hub, hub + 7, 3]);
        let set = RouteTableSet::from_solves(&topo, &dests, 2);
        (topo, set)
    })
}

/// Rewrite `(row, cell or wide-area index, word)` in `bytes` and reseal
/// every checksum the writes touched.
fn rewritten(set: &RouteTableSet, writes: &[(usize, usize, u16)]) -> Vec<u8> {
    let (l, mut bytes) = (set.layout(), set.encode());
    for &(i, x, word) in writes {
        bytes[l.row_at(i) + CELL_BYTES * x..][..CELL_BYTES].copy_from_slice(&word.to_le_bytes());
        let sum = checksum(&bytes[l.row_at(i)..l.row_at(i + 1)]);
        bytes[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
    }
    let end = bytes.len() - 8;
    let total = checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&total.to_le_bytes());
    bytes
}

/// One hostile write of kind `kind`, steered by `r` and `word`.
fn hostile(
    topo: &Topology,
    set: &RouteTableSet,
    kind: u8,
    r: u32,
    word: u16,
) -> Vec<(usize, usize, u16)> {
    let (v, d) = (topo.num_nodes(), set.dests().len());
    let i = r as usize % d;
    let narrow: Vec<NodeId> = topo
        .nodes()
        .filter(|&x| (1..255).contains(&topo.degree(x)))
        .collect();
    let x = narrow[r as usize / d % narrow.len()] as usize;
    let (hops, class) = (1 + word % 63, (word % 3) as u8);
    let hub = set.adjacency().wide()[0] as usize;
    match kind {
        // A slot past a narrow AS's list.
        0 => {
            let deg = topo.degree(x as NodeId) as u16;
            vec![(i, x, pack_cell(deg + word % (ESCAPE - deg), hops, class))]
        }
        // An escape on a narrow AS.
        1 => vec![(i, x, pack_cell(ESCAPE, hops, class))],
        // The wide AS escaped, its wide slot at or past its degree.
        2 => {
            let deg = topo.degree(hub as NodeId) as u16;
            let slot = if word.is_multiple_of(4) {
                NO_SLOT
            } else {
                deg + word % (NO_SLOT - deg)
            };
            vec![(i, hub, pack_cell(ESCAPE, hops, class)), (i, v, slot)]
        }
        // Class code 3 under other bits.
        3 => vec![(i, r as usize % v, 3 << 8 | (word & !(3 << 8)))],
        // Any word anywhere in the row.
        _ => vec![(i, r as usize % (v + 1), word)],
    }
}

/// Every query kind from a spread of sources toward every served
/// destination.
fn queries(topo: &Topology, set: &RouteTableSet) -> Vec<Query> {
    let n = topo.num_nodes() as NodeId;
    let mut out = Vec::new();
    for &dest in set.dests() {
        for src in (0..n).step_by(23).chain([n - 1, dest]) {
            out.push(Query::NextHop { src, dest });
            out.push(Query::Path { src, dest });
            out.push(Query::Alternate {
                src,
                dest,
                avoid: (src + 1) % n,
            });
        }
    }
    out
}

/// An answer, or `None` for a refusal as a corrupt table; any other
/// error is a failure of the test.
fn answer(reply: Result<Answer, QueryError>) -> Option<Answer> {
    match reply {
        Ok(a) => Some(a),
        Err(QueryError::Corrupt(_)) => None,
        Err(e) => panic!("a hostile row answered {e}, not `table corrupt`"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hostile_rows_yield_table_corrupt_or_a_valid_answer(
        writes in proptest::collection::vec((0u8..5, any::<u32>(), any::<u16>()), 1..4),
    ) {
        let (topo, set) = graph();
        let all: Vec<_> = writes.iter().flat_map(|&(k, r, w)| hostile(topo, set, k, r, w)).collect();
        let bytes = rewritten(set, &all);
        let path = std::env::temp_dir().join(format!("miro_hostile_{}.mirt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        // The checksums hold, so the summary reads class and hops alike.
        let summary = summarize_file(path.to_str().unwrap());
        prop_assert!(summary.is_ok(), "{:?}", summary);
        let mapped = Engine::new(MappedTable::open(&path).expect("checksums hold"), topo.clone(), None).unwrap();
        let decoded = RouteTableSet::decode(&bytes);
        let in_memory = decoded.as_ref().ok().map(|s| Engine::new(s.clone(), topo.clone(), None).unwrap());
        let mut scratch = QueryScratch::new();
        for q in queries(topo, set) {
            let from_map = answer(mapped.answer(q, &mut scratch));
            if let Some(engine) = &in_memory {
                // Every row passed `decode`'s slot check: the two agree.
                prop_assert_eq!(&answer(engine.answer(q, &mut scratch)), &from_map, "{:?}", q);
            }
        }
        // A row `decode` refused is refused by the map on first touch.
        if let Err(e) = &decoded {
            let row: usize = e.strip_prefix("row ").and_then(|r| r.split(' ').next()).unwrap().parse().unwrap();
            let q = Query::Path { src: 0, dest: set.dests()[row] };
            prop_assert_eq!(answer(mapped.answer(q, &mut scratch)), None, "{}", e);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Each targeted kind on its own is refused by `decode` and by the
/// mapped row, except class code 3, which reads as unrouted.
#[test]
fn each_targeted_kind_is_refused_or_read_as_unrouted() {
    let (topo, set) = graph();
    for kind in 0..4u8 {
        let writes = hostile(topo, set, kind, 17, 4321);
        let bytes = rewritten(set, &writes);
        let decoded = RouteTableSet::decode(&bytes);
        assert_eq!(
            decoded.is_ok(),
            kind == 3,
            "kind {kind}: {:?}",
            decoded.err()
        );
    }
}
