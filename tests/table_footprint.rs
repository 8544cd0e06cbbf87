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
//! of the decoded table.

use miro_eval::whole_table::{summarize, summarize_file};
use miro_serve::mmap::MappedTable;
use miro_serve::TableSource;
use miro_shard::format::{checksum, Layout, RouteTableSet};
use miro_topology::gen::{figure_1_1, GenParams};
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

#[test]
fn opening_a_16_mb_table_makes_no_page_of_it_resident() {
    let (v, d) = (24_000u32, 100u32);
    let dests = (0..d).map(|i| i * (v / d)).collect();
    let bytes = RouteTableSet::with_dests(v, dests).encode();
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
        ("a destination id", 16 + 4 * 3 + 1),
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
