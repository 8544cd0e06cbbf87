//! Hostile rows, sections and exceptions are refused, not indexed. A row
//! whose cells were rewritten and whose checksums were resealed passes
//! every checksum; what stands between it and an out-of-list slot is the
//! slot check. Each such table must give `table corrupt` or a valid
//! answer — through the mapped file, the decoded in-memory set and
//! `whole-table`'s streamed summary alike — and never a panic:
//!
//! * a slot past its AS's list (an inline slot on a narrow transit AS);
//! * an escape on a narrow AS, which has no wide slot;
//! * an escaped wide AS whose wide slot is at or past its degree;
//! * a class code of 3 (unrouted) with other bits set;
//! * any word at all, in a cell or in the wide area.
//!
//! The sections a sink is derived from and the exception list are checked
//! whole when a table is opened, so a resealed table whose partition ends
//! are out of order or past the degree, or whose exception entries are
//! unsorted, repeated, out of range, name a transit AS or carry a slot
//! past the list, is refused by both opens, by `decode` and by the
//! summary.

use miro_bgp::solver::{pack_cell, ESCAPE, NO_SLOT};
use miro_eval::whole_table::summarize_file;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryError, QueryScratch};
use miro_serve::TableSource;
use miro_shard::format::{checksum, row_checksum, row_exceptions, Adjacency, Layout, RouteTableSet, CELL_BYTES, EXCEPTION_BYTES};
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
/// every checksum.
fn rewritten(set: &RouteTableSet, writes: &[(usize, usize, u16)]) -> Vec<u8> {
    let (l, mut bytes) = (set.layout(), set.encode());
    for &(i, r, word) in writes {
        bytes[l.row_at(i) + CELL_BYTES * r..][..CELL_BYTES].copy_from_slice(&word.to_le_bytes());
    }
    resealed(bytes)
}

/// `bytes` with every row checksum (over the row and its exceptions, as
/// the readers find them) and the whole-file checksum recomputed.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let l = Layout::parse(&bytes).unwrap();
    let end = bytes.len() - 8;
    let exceptions = bytes[l.exceptions_at()..end].to_vec();
    for i in 0..l.num_dests() as usize {
        let sum = row_checksum(&bytes[l.row_at(i)..l.row_at(i + 1)], row_exceptions(&exceptions, i));
        bytes[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
    }
    let total = checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&total.to_le_bytes());
    bytes
}

/// The graph's table with exceptions: in rows 0 to 2, two of the stubs
/// that buy from two providers take the route of the other one, which
/// the sink rule does not derive.
fn excepted() -> &'static RouteTableSet {
    static SET: OnceLock<RouteTableSet> = OnceLock::new();
    SET.get_or_init(|| {
        let (topo, set) = graph();
        let mut out = set.clone();
        let stubs: Vec<NodeId> = topo.nodes().filter(|&x| topo.providers(x).count() == 2 && topo.degree(x) == 2).collect();
        for i in 0..3 {
            let (mut next, mut hops, mut class) = set.row(i);
            for &s in &stubs[2 * i..2 * i + 2] {
                let Some(other) = topo.providers(s).find(|&p| p != next[s as usize] && hops[p as usize] < 62) else { continue };
                (next[s as usize], hops[s as usize], class[s as usize]) = (other, hops[other as usize] + 1, 2);
            }
            out.set_row(i, &next, &hops, &class);
        }
        assert!(out.layout().num_exceptions() >= 4, "{} exceptions", out.layout().num_exceptions());
        out
    })
}

/// One hostile write of kind `kind`, steered by `r` and `word`.
fn hostile(
    topo: &Topology,
    set: &RouteTableSet,
    kind: u8,
    r: u32,
    word: u16,
) -> Vec<(usize, usize, u16)> {
    let (adj, d) = (set.adjacency(), set.dests().len());
    let (t, cells) = (adj.num_transit(), adj.num_transit() + adj.wide().len());
    let i = r as usize % d;
    let narrow: Vec<NodeId> = adj.transit().filter(|&x| topo.degree(x) < 255).collect();
    let x = narrow[r as usize / d % narrow.len()];
    let rank = |x: NodeId| adj.rank(x as usize).unwrap();
    let (hops, class) = (1 + word % 63, (word % 3) as u8);
    let hub = adj.wide()[0];
    match kind {
        // A slot past a narrow AS's list.
        0 => {
            let deg = topo.degree(x) as u16;
            vec![(i, rank(x), pack_cell(deg + word % (ESCAPE - deg), hops, class))]
        }
        // An escape on a narrow AS.
        1 => vec![(i, rank(x), pack_cell(ESCAPE, hops, class))],
        // The wide AS escaped, its wide slot at or past its degree.
        2 => {
            let deg = topo.degree(hub) as u16;
            let slot = if word.is_multiple_of(4) {
                NO_SLOT
            } else {
                deg + word % (NO_SLOT - deg)
            };
            vec![(i, rank(hub), pack_cell(ESCAPE, hops, class)), (i, t, slot)]
        }
        // Class code 3 under other bits.
        3 => vec![(i, r as usize % t, 3 << 8 | (word & !(3 << 8)))],
        // Any word anywhere in the row.
        _ => vec![(i, r as usize % cells, word)],
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

/// Refused by both opens, by `decode` and by the summary, each naming
/// `names`.
fn refused_everywhere(tag: &str, what: &str, bytes: &[u8], names: &str) {
    let path = std::env::temp_dir().join(format!("miro_hostile_{tag}_{}.mirt", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let errs = [
        MappedTable::open(&path).err(),
        MappedTable::open_unverified(&path).err(),
        RouteTableSet::decode(bytes).err(),
        summarize_file(path.to_str().unwrap()).err(),
    ];
    std::fs::remove_file(&path).ok();
    for err in errs {
        let err = err.unwrap_or_else(|| panic!("{what}: accepted"));
        assert!(err.contains(names), "{what}: {err}");
    }
}

/// Partition ends out of order or past the degree are refused when the
/// sections are parsed: at open, not when a sink is derived.
#[test]
fn hostile_partition_ends_are_refused_at_open() {
    let (topo, set) = graph();
    let l = set.layout();
    let x = topo.nodes().find(|&x| topo.degree(x) == 2).unwrap() as usize;
    let cases = [
        ("a provider end past the sibling end", [2u16, 1, 2]),
        ("a sibling end past the customer end", [0, 2, 1]),
        ("past the degree", [0, 0, 3]),
        ("all past", [7, 8, 9]),
    ];
    for (what, ends) in cases {
        let mut bytes = set.encode();
        let at = l.ends_at() + 6 * x;
        bytes[at..at + 6].copy_from_slice(&ends.map(u16::to_le_bytes).concat());
        refused_everywhere("ends", what, &resealed(bytes), &format!("partition ends {ends:?} of AS node {x}"));
    }
}

/// Each hostile exception entry — unsorted, repeated, out of range, a
/// transit AS, a slot past the list — is refused at open, naming it.
#[test]
fn hostile_exception_entries_are_refused_at_open() {
    let (topo, _) = graph();
    let set = excepted();
    let (l, adj) = (set.layout(), set.adjacency());
    let entry = |k: usize| l.exceptions_at() + EXCEPTION_BYTES * k;
    let write = |k: usize, field: usize, value: &[u8]| {
        let mut bytes = set.encode();
        bytes[entry(k) + field..][..value.len()].copy_from_slice(value);
        resealed(bytes)
    };
    let first: [u8; EXCEPTION_BYTES] = set.as_bytes()[entry(0)..entry(1)].try_into().unwrap();
    let second: [u8; EXCEPTION_BYTES] = set.as_bytes()[entry(1)..entry(2)].try_into().unwrap();
    let stub = u32::from_le_bytes(first[4..8].try_into().unwrap());
    let degree = topo.degree(stub) as u16;
    let cases = [
        ("unsorted", write(0, 0, &[second, first].concat()), "exception 1"),
        ("repeated", write(1, 0, &first), "exception 1"),
        ("a row past the table", write(0, 0, &l.num_dests().to_le_bytes()), "exception 0"),
        ("an AS past the nodes", write(0, 4, &set.num_nodes().to_le_bytes()), "exception 0"),
        ("a transit AS", write(0, 4, &adj.transit().next().unwrap().to_le_bytes()), "a transit AS"),
        ("an inline slot past the list", write(0, 8, &pack_cell(degree, 3, 2).to_le_bytes()), "not among"),
        ("an escape with no slot", write(0, 8, &pack_cell(ESCAPE, 3, 2).to_le_bytes()), "not among"),
        ("an escaped slot past the list", write(0, 8, &[pack_cell(ESCAPE, 3, 2).to_le_bytes(), degree.to_le_bytes()].concat()), "not among"),
        ("a slot beside an inline cell", write(0, 10, &0u16.to_le_bytes()), "not among"),
    ];
    for (what, bytes, names) in cases {
        refused_everywhere("exceptions", what, &bytes, names);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any words in the partition ends (sibling ends included), the AS
    /// numbers and the exception list, resealed: a refused open, or
    /// answers that agree between the mapped and the decoded table —
    /// never a panic; and sections that rebuild a topology are that
    /// topology's image.
    #[test]
    fn hostile_sections_yield_a_refusal_or_agreeing_answers(
        writes in proptest::collection::vec((0u8..2, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let (topo, _) = graph();
        let set = excepted();
        let l = set.layout();
        let mut bytes = set.encode();
        for &(region, at, value) in &writes {
            let (start, len) = match region {
                0 => (l.ends_at(), l.sums_at() - l.ends_at()),
                _ => (l.exceptions_at(), EXCEPTION_BYTES * l.num_exceptions() as usize),
            };
            let at = start + (at as usize % (len / 2)) * 2;
            bytes[at..at + 2].copy_from_slice(&(value as u16).to_le_bytes());
        }
        let bytes = resealed(bytes);
        let path = std::env::temp_dir().join(format!("miro_hostile_soup_{}.mirt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let summary = summarize_file(path.to_str().unwrap());
        let decoded = RouteTableSet::decode(&bytes);
        if let Ok(mapped) = MappedTable::open_unverified(&path) {
            prop_assert!(summary.is_ok(), "{:?}", summary);
            if let Ok(rebuilt) = mapped.adjacency().topology() {
                prop_assert_eq!(&Adjacency::of(&rebuilt), mapped.adjacency());
            }
            let mut scratch = QueryScratch::new();
            // The topology is the table's only while the sections are.
            if let Ok(mapped) = Engine::new(mapped, topo.clone(), None) {
                let decoded = decoded.as_ref().ok().map(|s| Engine::new(s.clone(), topo.clone(), None).unwrap());
                for q in queries(topo, set) {
                    let from_map = answer(mapped.answer(q, &mut scratch));
                    if let Some(engine) = &decoded {
                        prop_assert_eq!(&answer(engine.answer(q, &mut scratch)), &from_map, "{:?}", q);
                    }
                }
            }
        } else {
            prop_assert!(decoded.is_err() && summary.is_err());
        }
        std::fs::remove_file(&path).ok();
    }
}
