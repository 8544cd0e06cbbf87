//! Tier-1 smoke of the sharded table build: two in-process workers (the
//! real `miro_shard::worker::run` loop, over OS pipes) write their blocks
//! straight into the coordinator's pre-sized file, and what lands at
//! `out_path` must be byte for byte the single-process
//! `RouteTableSet::from_solves(..).encode()` — and a file the serving
//! plane's verified open accepts, but not once one byte of any layer is
//! flipped. (The fault-injection suites are in `crates/shard/tests`, which
//! only `cargo test --workspace` runs.)

use miro_serve::mmap::MappedTable;
use miro_serve::TableSource;
use miro_shard::coordinator::{self, Event, JobSpec, Spawner, WorkerLink};
use miro_shard::format::{Layout, RouteTableSet, TABLE_FORMAT_VERSION};
use miro_shard::protocol::{write_frame, Msg};
use miro_shard::worker::{self, WorkerConfig};
use miro_topology::{GenParams, NodeId, Topology};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

struct ThreadFleet {
    topo: Arc<Topology>,
    dests: Arc<Vec<NodeId>>,
}

/// Dropping the write end is the kill: the worker reads EOF and returns.
struct Link(Option<std::io::PipeWriter>);

impl WorkerLink for Link {
    fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        match self.0.as_mut() {
            Some(stdin) => write_frame(stdin, msg),
            None => Err(std::io::ErrorKind::BrokenPipe.into()),
        }
    }
    fn kill(&mut self) {
        self.0 = None;
    }
}

impl Spawner for ThreadFleet {
    fn spawn(&mut self, worker: u32, events: Sender<Event>) -> Result<Box<dyn WorkerLink>, String> {
        let (stdin_r, stdin_w) = std::io::pipe().map_err(|e| e.to_string())?;
        let (stdout_r, stdout_w) = std::io::pipe().map_err(|e| e.to_string())?;
        let (topo, dests) = (self.topo.clone(), self.dests.clone());
        let cfg = WorkerConfig { worker, threads: 1, heartbeat: Duration::from_millis(20) };
        std::thread::spawn(move || worker::run(&topo, &dests, cfg, stdin_r, stdout_w));
        std::thread::spawn(move || coordinator::pump_events(worker, stdout_r, &events));
        Ok(Box::new(Link(Some(stdin_w))))
    }
}

/// Run the two-worker job in a fresh directory (`out_path`'s parent);
/// also returns the in-process reference bytes.
fn two_worker_table(tag: &str) -> (JobSpec, coordinator::JobReport, Vec<u8>) {
    let topo = Arc::new(GenParams::tiny(20060911).generate());
    let dests = Arc::new(miro_shard::sample_dests(topo.num_nodes(), 40));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = std::env::temp_dir().join(format!("miro_tier1_shard_table_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let job = JobSpec {
        dests: dests.to_vec(),
        num_nodes: topo.num_nodes() as u32,
        num_edges: topo.num_edges() as u32,
        block_size: 7, // 6 blocks, the last one short
        block_order: Some(vec![5, 0, 3, 1, 4, 2]),
        workers: 2,
        state_dir: dir.join("state"),
        out_path: dir.join("table.mirt"),
        resume: false,
        heartbeat_deadline: Duration::from_secs(10),
        respawn_budget: 0,
        chaos_kill_after: None,
        chaos_stop_after: None,
        progress: None,
    };
    let mut fleet = ThreadFleet { topo: topo.clone(), dests: dests.clone() };
    let report = coordinator::run(&job, &mut fleet).expect("job finishes");
    (job, report, reference)
}

#[test]
fn two_workers_fill_one_file_equal_to_the_in_process_table() {
    let (job, report, reference) = two_worker_table("equal");
    let (dir, dests) = (job.out_path.parent().unwrap(), &job.dests);

    assert_eq!((report.blocks, report.dispatches, report.deaths, report.corrupt_events), (6, 6, 0, 0));
    assert_eq!(report.merged_bytes, reference.len());
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    // Nothing but the finished table and the resume journal is left.
    assert!(!dir.join("table.mirt.partial").exists());
    let state: Vec<_> = std::fs::read_dir(&job.state_dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(state, ["manifest.log"]);

    // The serving plane's verified open takes it, and every row passes
    // its own checksum on first touch.
    let mapped = MappedTable::open(&job.out_path).expect("verified open");
    assert_eq!(TableSource::dests(&mapped), &dests[..]);
    for i in 0..dests.len() {
        TableSource::row(&mapped, i).expect("row checksum holds");
    }
    assert_eq!(mapped.rows_verified(), dests.len() as u64);
    drop(mapped);
    let _ = std::fs::remove_dir_all(dir);
}

/// One flipped byte in any layer of the file is refused by the batch
/// decoder and by the daemon's verified open; a row-bearing flip poisons
/// only its own row under an unverified open.
#[test]
fn a_flipped_byte_in_any_layer_of_the_file_is_refused() {
    let (job, _, _) = two_worker_table("flip");
    let (dir, dests) = (job.out_path.parent().unwrap(), &job.dests);
    let bytes = std::fs::read(&job.out_path).unwrap();
    let layout = Layout::parse(&bytes).unwrap();
    let (d, mid) = (dests.len(), dests.len() / 2);
    let flips = [
        ("header", 9, None),
        ("destination ids", layout.adjacency_at() - 4 * (d - mid) + 1, None),
        ("adjacency", layout.adjacency_at() + 4 * (mid + 1) + 1, None),
        ("partition ends", layout.ends_at() + 6 * mid + 3, None),
        ("AS numbers", layout.asns_at() + 4 * mid + 1, None),
        ("checksum slice", layout.sums_at() + 8 * mid + 5, Some(mid)),
        ("first row", layout.row_at(0) + 2, Some(0)),
        ("middle row", layout.row_at(mid) + layout.row_bytes() / 2, Some(mid)),
        ("last row", layout.row_at(d) - 1, Some(d - 1)),
        ("trailer", bytes.len() - 3, None),
    ];
    let path = dir.join("bad.mirt");
    for (layer, at, row) in flips {
        let mut bad = bytes.clone();
        bad[at] ^= 0x20;
        assert!(RouteTableSet::decode(&bad).is_err(), "{layer}: decode took it");
        std::fs::write(&path, &bad).unwrap();
        assert!(MappedTable::open(&path).is_err(), "{layer}: verified open took it");
        let unverified = MappedTable::open_unverified(&path);
        match row {
            Some(row) => {
                let mapped = unverified.expect("rows are checked on first touch, not at open");
                TableSource::row(&mapped, (row + 1) % d).expect("an untouched row still serves");
                let err = TableSource::row(&mapped, row).err().expect("the flipped row is refused");
                assert!(err.contains("checksum mismatch"), "{layer}: {err}");
            }
            None if layer == "header" => assert!(unverified.is_err(), "the header is parsed at open"),
            // The destination index and the trailer are guarded by the
            // whole-file pass alone.
            None => {}
        }
    }

    // Stale files: a v1, a v2 (7-byte cells), a v3 (4-byte cells), a v4
    // (a cell for every AS) and a v5 (two partition ends per AS) stamp,
    // and a file sealed with FNV-1a as v1 was.
    let stamped = |version: u32| {
        let mut stale = bytes.clone();
        stale[4..8].copy_from_slice(&version.to_le_bytes());
        let want = format!("format version {version}, but this build reads version {TABLE_FORMAT_VERSION}");
        (stale, want)
    };
    let mut fnv_sealed = bytes.clone();
    let end = bytes.len() - 8;
    fnv_sealed[end..].copy_from_slice(&miro_shard::fnv1a(&bytes[..end]).to_le_bytes());
    assert_eq!(stamped(5).1, "format version 5, but this build reads version 6");
    let fnv = (fnv_sealed, "whole-file checksum mismatch".to_string());
    for (stale, want) in [stamped(1), stamped(2), stamped(3), stamped(4), stamped(5), fnv] {
        assert!(RouteTableSet::decode(&stale).unwrap_err().contains(&want), "decode: {want}");
        std::fs::write(&path, &stale).unwrap();
        let err = MappedTable::open(&path).err().expect("stale file refused");
        assert!(err.contains(&want), "{err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
