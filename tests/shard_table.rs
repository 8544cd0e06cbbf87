//! Tier-1 smoke of the sharded table build: two in-process workers (the
//! real `miro_shard::worker::run` loop, over OS pipes) write their blocks
//! straight into the coordinator's pre-sized file, and what lands at
//! `out_path` must be byte for byte the single-process
//! `RouteTableSet::from_solves(..).encode()` — and a file the serving
//! plane's verified open accepts. (The fault-injection suites are in
//! `crates/shard/tests`, which only `cargo test --workspace` runs.)

use miro_serve::mmap::MappedTable;
use miro_serve::TableSource;
use miro_shard::coordinator::{self, Event, JobSpec, Spawner, WorkerLink};
use miro_shard::format::RouteTableSet;
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

#[test]
fn two_workers_fill_one_file_equal_to_the_in_process_table() {
    let topo = Arc::new(GenParams::tiny(20060911).generate());
    let dests = Arc::new(miro_shard::sample_dests(topo.num_nodes(), 40));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = std::env::temp_dir().join(format!("miro_tier1_shard_table_{}", std::process::id()));
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
    let _ = std::fs::remove_dir_all(&dir);
}
