//! The mmap reader must be *indistinguishable* from the in-memory
//! [`RouteTableSet`] it was encoded from — every row, every destination,
//! arbitrary topologies — and must reject every corruption a disk or a
//! buggy writer can produce.

use miro_serve::cache::ShardedCache;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Engine, Query, QueryScratch};
use miro_serve::{RowRead, TableSource};
use miro_shard::format::RouteTableSet;
use miro_shard::sample_dests;
use miro_topology::gen::GenParams;
use miro_topology::Topology;
use proptest::prelude::*;
use std::path::PathBuf;

/// Write table bytes to a unique temp file; caller removes it.
fn temp_table(tag: &str, bytes: &[u8]) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("miro_equiv_{tag}_{}_{n}.mirt", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn solved(seed: u64, sample: usize) -> (Topology, RouteTableSet) {
    let topo = GenParams::tiny(seed).generate();
    let dests = sample_dests(topo.num_nodes(), sample);
    let set = RouteTableSet::from_solves(&topo, &dests, 2);
    (topo, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cell-for-cell: the mapped view of the encoded file equals the
    /// in-memory set it came from.
    #[test]
    fn mmap_rows_equal_in_memory(seed in 0u64..1000, sample in 1usize..40) {
        let (_topo, set) = solved(seed, sample);
        let path = temp_table("rows", &set.encode());
        let mapped = MappedTable::open(&path).unwrap();

        prop_assert_eq!(TableSource::num_nodes(&mapped), set.num_nodes());
        prop_assert_eq!(TableSource::dests(&mapped), set.dests());
        let v = set.num_nodes() as usize;
        for i in 0..set.dests().len() {
            let (next, hops, class) = RouteTableSet::row(&set, i);
            let m = TableSource::row(&mapped, i).unwrap();
            for x in 0..v {
                prop_assert_eq!(m.next(x), next[x]);
                prop_assert_eq!(m.hops(x), hops[x]);
                prop_assert_eq!(m.class(x), class[x]);
            }
        }
        // Every row was touched, so every row is now verified.
        prop_assert_eq!(mapped.rows_verified(), set.dests().len() as u64);
        std::fs::remove_file(&path).ok();
    }

    /// Engine answers agree across the two sources for every query kind
    /// over every (src, dest) and a spread of avoid choices.
    #[test]
    fn engine_answers_equal_across_sources(seed in 0u64..1000) {
        let (topo, set) = solved(seed, 9);
        let path = temp_table("engine", &set.encode());
        let mapped = MappedTable::open(&path).unwrap();

        let mem = Engine::new(set, topo.clone(), None).unwrap();
        // The mmap side gets a deliberately tiny cache so hits, misses,
        // and evictions all occur *during* the comparison.
        let mm = Engine::new(mapped, topo.clone(), Some(ShardedCache::new(2, 4))).unwrap();
        let mut s1 = QueryScratch::new();
        let mut s2 = QueryScratch::new();
        let dests: Vec<u32> = mem.table().dests().to_vec();
        let n = topo.num_nodes() as u32;
        for &dest in &dests {
            for src in 0..n {
                let queries = [
                    Query::NextHop { src, dest },
                    Query::Path { src, dest },
                    Query::Alternate { src, dest, avoid: (src + 1) % n },
                    Query::Alternate { src, dest, avoid: dest },
                    Query::Alternate { src, dest, avoid: (src + n / 2) % n },
                ];
                for q in queries {
                    if matches!(q, Query::Alternate { src, avoid, .. } if avoid == src) {
                        continue;
                    }
                    prop_assert_eq!(mem.answer(q, &mut s1), mm.answer(q, &mut s2));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

// ------------------------------------------------------------ rejection

fn encoded(seed: u64) -> Vec<u8> {
    solved(seed, 6).1.encode()
}

fn open_err(tag: &str, bytes: &[u8]) -> String {
    let path = temp_table(tag, bytes);
    let err = match MappedTable::open(&path) {
        Err(e) => e,
        Ok(_) => panic!("{tag}: corrupt table opened successfully"),
    };
    std::fs::remove_file(&path).ok();
    err
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let bytes = encoded(1);
    // A spread of truncation points: inside the header, the dest index,
    // the checksum table, the rows, and just shy of the trailer.
    for cut in [0, 4, 10, 23, 24, 40, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
        let err = open_err("trunc", &bytes[..cut]);
        assert!(
            err.contains("too short") || err.contains("wrong length"),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let mut bytes = encoded(2);
    bytes[0] ^= 0xFF;
    assert!(open_err("magic", &bytes).contains("bad magic"));

    let mut bytes = encoded(2);
    bytes[4] = 99;
    // The version field participates in the whole-file checksum, so fix
    // the trailer up — the *version* check must fire, not the checksum.
    let sum = miro_shard::format::checksum(&bytes[..bytes.len() - 8]);
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&sum.to_le_bytes());
    assert!(open_err("version", &bytes).contains("format version 99"));
}

#[test]
fn zero_dest_and_empty_files_are_rejected() {
    let topo = GenParams::tiny(3).generate();
    let empty = RouteTableSet::from_solves(&topo, &[], 1).encode();
    assert!(open_err("zerodest", &empty).contains("zero destinations"));

    assert!(open_err("empty", b"").contains("too short"));
}

#[test]
fn flipped_row_byte_fails_whole_file_then_row_checksum() {
    let (topo, set) = solved(4, 6);
    let mut bytes = set.encode();
    // Poison one byte in the middle of row 2's cells.
    let d = set.dests().len();
    let layout = miro_shard::format::Layout::parse(&bytes).unwrap();
    let poison = layout.row_at(2) + 3;
    bytes[poison] ^= 0x40;

    // Full open: the whole-file pass catches it.
    assert!(open_err("flip", &bytes).contains("whole-file checksum mismatch"));

    // Unverified open succeeds — and the per-row checksum catches the
    // poisoned row on first touch while every other row still serves.
    let path = temp_table("flip_lazy", &bytes);
    let mapped = MappedTable::open_unverified(&path).unwrap();
    for i in 0..d {
        let r = TableSource::row(&mapped, i);
        if i == 2 {
            let err = r.err().expect("poisoned row must not serve");
            assert!(err.contains("checksum mismatch"), "{err}");
        } else {
            r.unwrap();
        }
    }
    // The same failure surfaces through the engine as a clean per-query
    // Corrupt error, not a panic and not a wrong answer.
    let poisoned_dest = set.dests()[2];
    let engine = Engine::new(
        MappedTable::open_unverified(&path).unwrap(),
        topo,
        None,
    )
    .unwrap();
    let mut scratch = QueryScratch::new();
    let res = engine.answer(Query::Path { src: 0, dest: poisoned_dest }, &mut scratch);
    let err = res.unwrap_err();
    assert!(err.to_string().contains("corrupt"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lying_checksum_table_fails_the_row_it_covers() {
    let (_topo, set) = solved(5, 6);
    let mut bytes = set.encode();
    // Corrupt row 1's *stored checksum* instead of its data.
    let sums_at = set.layout().sums_at();
    bytes[sums_at + 8 + 2] ^= 0x01;
    assert!(open_err("liar", &bytes).contains("whole-file checksum mismatch"));

    let path = temp_table("liar_lazy", &bytes);
    let mapped = MappedTable::open_unverified(&path).unwrap();
    assert!(TableSource::row(&mapped, 1).is_err());
    assert!(TableSource::row(&mapped, 0).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn length_field_lies_are_rejected() {
    let mut bytes = encoded(6);
    // Inflate the claimed destination count without growing the file.
    let d = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(d + 7).to_le_bytes());
    assert!(open_err("dlie", &bytes).contains("wrong length"));

    let mut bytes = encoded(6);
    // Zero the node count.
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(open_err("vzero", &bytes).contains("zero-node"));
}

/// A topology of the table's size whose neighbour lists differ is no
/// topology to serve it with: the engine names the first AS that differs.
#[test]
fn an_engine_refuses_a_same_size_topology_with_other_neighbours() {
    let (topo, set) = solved(7, 6);
    let other = GenParams::tiny(8).generate();
    assert_eq!(topo.num_nodes(), other.num_nodes());
    let first = set.adjacency().first_difference(&other).expect("the seeds differ");
    let err = Engine::new(set.clone(), other.clone(), None).err().expect("refused");
    assert!(err.contains(&format!("neighbour list of AS {} (node {first})", other.asn(first))), "{err}");
    assert!(Engine::new(set, topo, None).is_ok());
}
