//! What opening a table costs in memory, and that the streamed reader
//! refuses exactly what the in-memory decoder refuses.
//!
//! `MappedTable::open` checks the whole-file checksum and
//! `open_unverified` reads the header, both with positioned reads through
//! one bounded buffer: after either, no page of the mapping is resident
//! (the mapping's `Rss:` in `/proc/self/smaps` is 0 kB) until a query
//! touches a row. `miro-eval whole-table` streams the same way; every
//! flipped byte must fail it and the verified open with the text
//! `RouteTableSet::decode` gives, and its summary must equal the summary
//! of the decoded table. The three readers unpack a cell alike.

use miro_bgp::solver::{ESCAPE, MAX_HOPS, UNROUTED_CLASS, UNROUTED_HOPS, UNROUTED_NEXT};
use miro_eval::whole_table::{summarize, summarize_file};
use miro_serve::mmap::MappedTable;
use miro_serve::{RowRead, TableSource};
use miro_shard::format::{checksum, row_checksum, Layout, RouteTableSet, CELL_BYTES, EXCEPTION_BYTES};
use miro_topology::gen::{figure_1_1, GenParams};
use miro_topology::{AsId, Topology, TopologyBuilder};
use std::path::{Path, PathBuf};

/// A scratch table file, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str, bytes: &[u8]) -> Scratch {
        let path = std::env::temp_dir().join(format!("miro_footprint_{tag}_{}.mirt", std::process::id()));
        std::fs::write(&path, bytes).expect("write scratch table");
        Scratch(path)
    }

    fn str(&self) -> &str {
        self.0.to_str().expect("UTF-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The `Rss:` of this process's one mapping of `path`, in kB; `None`
/// where there is no `/proc/self/smaps`.
fn mapped_rss_kb(path: &Path) -> Option<u64> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let name = path.to_str().expect("UTF-8 temp path");
    let mut inside = false;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if !first.ends_with(':') {
            inside = line.ends_with(name); // a mapping's header line
        } else if inside && first == "Rss:" {
            return Some(line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("Rss: N kB"));
        }
    }
    panic!("{name} is not mapped");
}

/// `v` ASes (an even number) in sibling pairs: every AS is transit, so
/// every row holds a cell for each, and each destination's row routes
/// only itself and its sibling.
fn pairs(v: u32) -> Topology {
    let mut b = TopologyBuilder::new();
    for asn in 1..=v {
        b.intern_as(AsId(asn));
    }
    for asn in (1..=v).step_by(2) {
        b.sibling(AsId(asn), AsId(asn + 1));
    }
    b.build().expect("sibling pairs are a valid topology")
}

#[test]
fn opening_a_16_mb_table_makes_no_page_of_it_resident() {
    let (v, d) = (24_000u32, 360u32);
    let dests: Vec<u32> = (0..d).map(|i| i * (v / d)).collect();
    let bytes = RouteTableSet::from_solves(&pairs(v), &dests, 2).encode();
    assert!(bytes.len() >= 16 << 20, "{} bytes", bytes.len());
    let file = Scratch::new("big", &bytes);
    drop(bytes);
    type Open = fn(&Path) -> Result<MappedTable, String>;
    let opens: [(&str, Open); 2] = [("open", MappedTable::open), ("open_unverified", MappedTable::open_unverified)];
    for (how, open) in opens {
        let table = open(&file.0).unwrap_or_else(|e| panic!("{how}: {e}"));
        let Some(kb) = mapped_rss_kb(&file.0) else {
            eprintln!("skipped: no /proc/self/smaps on this system");
            return;
        };
        assert_eq!(kb, 0, "{how} left {kb} kB of the mapping resident");
        // The probe sees the mapping: serving a row makes it resident.
        table.row(d as usize / 2).unwrap_or_else(|e| panic!("{how}: {e}"));
        assert!(mapped_rss_kb(&file.0).unwrap() > 0, "{how}: a served row is resident");
    }
}

#[test]
fn a_flipped_byte_in_any_region_fails_both_readers_with_the_decoders_text() {
    let topo = GenParams::tiny(5).generate();
    let dests = miro_shard::sample_dests(topo.num_nodes(), 9);
    let bytes = RouteTableSet::from_solves(&topo, &dests, 2).encode();
    let layout = Layout::parse(&bytes).unwrap();
    let regions = [
        ("magic", 1),
        ("geometry", 8),
        ("a destination id", layout.adjacency_at() - 4 * 6 + 1),
        ("the adjacency", layout.adjacency_at() + 4 * 40 + 2),
        ("the partition ends", layout.ends_at() + 4 * 7 + 1),
        ("the AS numbers", layout.asns_at() + 4 * 7),
        ("the checksum table", layout.sums_at() + 8 * 2 + 5),
        ("a row", layout.row_at(4) + 11),
        ("the trailer", bytes.len() - 3),
    ];
    for (region, at) in regions {
        let mut bad = bytes.clone();
        bad[at] ^= 0x20;
        let file = Scratch::new("flip", &bad);
        let want = RouteTableSet::decode(&bad).expect_err(region);
        let open = MappedTable::open(&file.0).err();
        assert_eq!(open, Some(format!("table {:?}: {want}", file.0)), "{region}");
        assert_eq!(summarize_file(file.str()), Err(want), "{region}");
    }

    // A flipped row under a re-sealed trailer: only the row checksum
    // can tell, and it does — in the streamed pass, and on the first
    // touch of that row after an unverified open.
    let mut bad = bytes.clone();
    bad[layout.row_at(4) + 11] ^= 0x20;
    let end = bad.len() - 8;
    let total = checksum(&bad[..end]);
    bad[end..].copy_from_slice(&total.to_le_bytes());
    let file = Scratch::new("row", &bad);
    assert_eq!(RouteTableSet::decode(&bad), Err("row 4 checksum mismatch".to_string()));
    assert_eq!(summarize_file(file.str()), Err("row 4 checksum mismatch".to_string()));
    let table = MappedTable::open_unverified(&file.0).expect("the header is intact");
    assert!(table.row(3).is_ok());
    let err = table.row(4).err().expect("row 4 is refused on first touch");
    assert_eq!(err, format!("row 4 (destination {}) checksum mismatch — table corrupt on disk", dests[4]));
    assert_eq!(table.rows_verified(), 1);
}

#[test]
fn the_streamed_summary_equals_the_decoded_summary() {
    let (fig, _) = figure_1_1();
    let tiny = GenParams::tiny(7).generate();
    for (name, topo, d) in [("figure_1_1", &fig, 6), ("tiny", &tiny, 12)] {
        let dests = miro_shard::sample_dests(topo.num_nodes(), d);
        let bytes = RouteTableSet::from_solves(topo, &dests, 2).encode();
        let file = Scratch::new(name, &bytes);
        let streamed = summarize_file(file.str()).expect(name);
        assert_eq!(streamed, summarize(&RouteTableSet::decode(&bytes).unwrap()).unwrap(), "{name}");
        assert!(streamed.routed > 0, "{name}");
    }
}

/// Every class × hops {1, 63} × slot {0, 254, 255 (the first escaped),
/// the last} on 24 wide ASes, zero-hop and unrouted cells — the leaves
/// are sinks, so their unrouted cells are exceptions — and a cell whose
/// class bits are 3 but whose other bits are not all ones: the decoder,
/// the mapped row and the streamed summary read the same `(next, hops,
/// class)` from each, and the odd cell as unrouted.
#[test]
fn every_cell_field_extreme_reads_alike_through_all_three_readers() {
    // 24 hubs (nodes 0..24), each the provider of the same 300 leaves.
    let mut b = TopologyBuilder::new();
    for asn in 1..=324 {
        b.intern_as(AsId(asn));
    }
    for hub in 1..=24 {
        for leaf in 25..=324 {
            b.provider_customer(AsId(hub), AsId(leaf));
        }
    }
    let topo = b.build().expect("hubs over leaves");
    let v = topo.num_nodes();
    let unrouted = (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS);
    let (mut next, mut hops, mut class) = (vec![unrouted.0; v], vec![unrouted.1; v], vec![unrouted.2; v]);
    let mut hub = 0;
    for c in 0..3u8 {
        for h in [1, MAX_HOPS] {
            for slot in [0, ESCAPE as usize - 1, ESCAPE as usize, 299] {
                (next[hub], hops[hub], class[hub]) = (topo.slot_neighbors(hub as u32)[slot], h, c);
                hub += 1;
            }
        }
    }
    let (odd, dest) = (24, 25);
    (next[dest], hops[dest], class[dest]) = (dest as u32, 0, 0);
    let mut set = RouteTableSet::from_solves(&topo, &[dest as u32], 1);
    set.set_row(0, &next, &hops, &class);
    assert_eq!(set.row(0), (next.clone(), hops.clone(), class.clone()));
    let mut bytes = set.encode();

    // Class bits 3 over a routed-looking slot and hop count in the odd
    // leaf's exception (the first of the row's), resealed.
    let layout = Layout::parse(&bytes).unwrap();
    assert_eq!((layout.num_wide(), layout.num_exceptions()), (24, 299));
    let entry = layout.exceptions_at();
    assert_eq!(&bytes[entry + 4..entry + 8], &(odd as u32).to_le_bytes());
    let word = 3u16 << 8 | 9 << 10 | 17;
    bytes[entry + EXCEPTION_BYTES - 4..][..CELL_BYTES].copy_from_slice(&word.to_le_bytes());
    let exceptions = &bytes[entry..bytes.len() - 8];
    let row_sum = row_checksum(&bytes[layout.row_at(0)..layout.row_at(1)], exceptions);
    bytes[layout.sums_at()..][..8].copy_from_slice(&row_sum.to_le_bytes());
    let end = bytes.len() - 8;
    let total = checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&total.to_le_bytes());

    let decoded = RouteTableSet::decode(&bytes).expect("decodes");
    assert_eq!(decoded.row(0), set.row(0), "the odd cell decodes as the unrouted one it replaced");
    let file = Scratch::new("cells", &bytes);
    let mapped = MappedTable::open(&file.0).expect("verified open");
    let row = mapped.row(0).expect("row checksum and slots hold");
    for x in 0..v {
        let want = (next[x], hops[x], class[x]);
        assert_eq!((row.next(x), row.hops(x), row.class(x)), want, "cell {x}");
    }
    assert_eq!((row.next(odd), row.hops(odd), row.class(odd)), unrouted);

    let s = summarize_file(file.str()).expect("summarizes");
    assert_eq!(s, summarize(&set).unwrap());
    assert_eq!((s.routed, s.unrouted), (24, 299), "the destination's own cell is skipped");
    assert_eq!(s.class_mix, [8, 8, 8]);
    assert_eq!((s.hop_hist[1], s.hop_hist[63], s.max_hops), (12, 12, 63));
}
