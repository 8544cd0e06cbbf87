//! Coordinator-level tests with an in-process worker fleet.
//!
//! The fleet runs the *real* [`miro_shard::worker::run`] loop over
//! in-memory byte pipes, wired into the coordinator through the same
//! [`Spawner`]/[`WorkerLink`] traits the subprocess spawner uses — so the
//! dispatch state machine, protocol, manifest, and the shared table file
//! are exercised end to end without any process spawning. Misbehaving
//! workers (mid-job death, hangs, garbage frames, lies about what they
//! wrote) are scripted doubles.
//!
//! The headline property (ISSUE 5 satellite): the finished table's bytes
//! are identical to a single-process `par_over_dests` reference no matter
//! how the destination space is blocked, how many workers run, or whether
//! one of them dies mid-job. The trust boundary (ISSUE 17): workers write
//! rows into the coordinator's file themselves, so the coordinator
//! believes a completion only after re-hashing the rows it names.

use miro_shard::coordinator::{self, Event, JobSpec, Spawner, WorkerLink};
use miro_bgp::engine::ScratchPool;
use miro_shard::format::{solve_rows, Adjacency, Layout, RouteTableSet, TABLE_FORMAT_VERSION};
use miro_shard::protocol::{encode_frame, read_frame, write_frame, Msg, PROTOCOL_VERSION};
use miro_shard::worker::{self, WorkerConfig};
use miro_shard::{manifest, sample_dests};
use miro_topology::{GenParams, NodeId, Rel, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- pipes

/// One half-duplex in-memory pipe: `Write` end feeds chunks to a `Read`
/// end over a channel; dropping the writer is EOF, dropping the reader
/// makes writes fail like a broken pipe (exactly what a killed process
/// does to whoever holds its stdin).
fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    (PipeWriter { tx }, PipeReader { rx, buf: Vec::new(), at: 0 })
}

struct PipeWriter {
    tx: Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "reader gone"))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    at: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.at == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.at = 0;
                }
                Err(_) => return Ok(0), // all writers dropped: EOF
            }
        }
        let n = (self.buf.len() - self.at).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

// ---------------------------------------------------------- worker fleet

/// What the n-th spawned worker does with its life.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Behavior {
    /// Run the real worker loop.
    Good,
    /// Solve N blocks correctly, then crash holding the next assignment
    /// (drop both pipes mid-block), forcing a reassignment.
    DieAfter(u32),
    /// Say hello, accept an assignment, then go silent — no result, no
    /// heartbeat. Only the deadline scan can clear this one.
    Hang,
    /// Say hello, then write garbage bytes instead of a frame.
    Garbage,
    /// Report the first block done, checksums and all, without writing it.
    Unwritten,
    /// Write half of the first block's bytes and report it done.
    HalfWritten,
    /// Write the first block, report one checksum too few.
    WrongLength,
    /// Go silent like `Hang`, but once killed still write the block and
    /// report it — a process racing its own SIGKILL while the replacement
    /// writes the same range.
    Straggler,
    /// Say the Hello of [`rewired`] — a topology of the same size whose
    /// sections carry other neighbour lists — then go silent like `Hang`;
    /// `late` holds the Hello back 100 ms.
    Foreign { late: bool },
    /// `Hang`, with the Hello held back 100 ms.
    Late,
    /// Say a protocol-4 Hello — sealed with FNV-1a as a protocol-4 build
    /// seals it when `fnv`, else with this build's frame sum — then go
    /// silent until killed.
    Protocol4 { fnv: bool },
    /// Say a Hello whose sections carry two partition ends per AS, as a
    /// protocol-5 build writes them, under the version `stamp`, then go
    /// silent until killed.
    Protocol5 { stamp: u32 },
}

struct LocalSpawner {
    topo: Arc<Topology>,
    dests: Arc<Vec<NodeId>>,
    /// Behavior per spawn order; spawns past the end are `Good`.
    behaviors: Vec<Behavior>,
    spawned: usize,
    /// Set once any `DieAfter` worker has been *sent* its fatal
    /// assignment — from then on a death is guaranteed observable (the
    /// job cannot finish without that block being reassigned), so tests
    /// can assert on `report.deaths` without racing the scheduler.
    victim_armed: Arc<std::sync::atomic::AtomicBool>,
}

impl LocalSpawner {
    fn new(topo: &Arc<Topology>, dests: &Arc<Vec<NodeId>>, behaviors: Vec<Behavior>) -> Self {
        LocalSpawner {
            topo: topo.clone(),
            dests: dests.clone(),
            behaviors,
            spawned: 0,
            victim_armed: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }
}

struct LocalLink {
    stdin: Option<PipeWriter>,
    /// `Some(counter)` for `DieAfter(n)` workers: flips `victim_armed`
    /// once the n+1-th assignment (the fatal one) has been sent.
    arm_after: Option<(u32, Arc<std::sync::atomic::AtomicBool>)>,
    assigns_sent: u32,
}

impl WorkerLink for LocalLink {
    fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        if matches!(msg, Msg::Assign { .. }) {
            self.assigns_sent += 1;
            if let Some((fatal, armed)) = &self.arm_after {
                if self.assigns_sent > *fatal {
                    armed.store(true, Ordering::SeqCst);
                }
            }
        }
        match self.stdin.as_mut() {
            Some(w) => write_frame(w, msg),
            None => Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stdin closed")),
        }
    }
    fn kill(&mut self) {
        self.stdin = None;
    }
}

/// The scripted worker: speaks the protocol like [`worker::run`] (minus
/// heartbeats) and misbehaves as `behavior` says.
fn double(
    topo: &Topology,
    dests: &[NodeId],
    worker: u32,
    behavior: Behavior,
    mut input: PipeReader,
    mut output: PipeWriter,
) {
    let adj = Adjacency::of(topo);
    let layout = Layout::of(&adj, dests.len() as u32).unwrap();
    let pool = ScratchPool::for_nodes(topo.num_nodes());
    let _ = write_frame(&mut output, &hello(topo, worker));
    let mut table = None;
    let mut done = 0;
    loop {
        match read_frame(&mut input) {
            Ok(Msg::Output { path }) => {
                table = Some(std::fs::OpenOptions::new().write(true).open(path).unwrap());
            }
            Ok(Msg::Assign { block, start, len }) => {
                match behavior {
                    // Crash with the assignment in flight: both pipes drop,
                    // the coordinator must requeue this block.
                    Behavior::DieAfter(n) if done == n => return,
                    Behavior::Hang => continue,
                    // Silent until the kill closes stdin.
                    Behavior::Straggler => while read_frame(&mut input).is_ok() {},
                    _ => {}
                }
                let (start, len) = (start as usize, len as usize);
                let rows = solve_rows(topo, &adj, &dests[start..start + len], 1, &pool);
                let bytes: Vec<u8> = rows.iter().flat_map(|(row, _)| row.iter().copied()).collect();
                let mut sums: Vec<u8> = rows.iter().flat_map(|(_, sum)| sum.to_le_bytes()).collect();
                let lying = done == 0;
                let write = match behavior {
                    Behavior::Unwritten if lying => 0,
                    Behavior::HalfWritten if lying => bytes.len() / 2,
                    _ => bytes.len(),
                };
                if behavior == Behavior::WrongLength && lying {
                    sums.truncate(sums.len() - 8);
                }
                let file = table.as_ref().expect("Output precedes Assign");
                file.write_all_at(&bytes[..write], layout.row_at(start) as u64).unwrap();
                if write_frame(&mut output, &Msg::BlockResult { block, table: sums }).is_err() {
                    return;
                }
                done += 1;
            }
            _ => return,
        }
    }
}

/// The Hello a worker over `topo` says.
fn hello(topo: &Topology, worker: u32) -> Msg {
    let mut adjacency = Vec::new();
    Adjacency::of(topo).write(&mut adjacency);
    Msg::Hello { protocol: PROTOCOL_VERSION, worker, adjacency }
}

fn garbage(topo: &Topology, worker: u32, mut input: PipeReader, mut output: PipeWriter) {
    let _ = write_frame(&mut output, &hello(topo, worker));
    let _ = output.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05]);
    loop {
        match read_frame(&mut input) {
            Err(_) => return,
            Ok(Msg::Shutdown) => return,
            Ok(_) => {}
        }
    }
}

fn protocol_4(topo: &Topology, worker: u32, fnv: bool, mut input: PipeReader, mut output: PipeWriter) {
    let Msg::Hello { adjacency, .. } = hello(topo, worker) else { unreachable!() };
    let mut frame = encode_frame(&Msg::Hello { protocol: 4, worker, adjacency });
    if fnv {
        let end = frame.len() - 8;
        let sum = miro_shard::fnv1a(&frame[4..end]);
        frame[end..].copy_from_slice(&sum.to_le_bytes());
    }
    let _ = output.write_all(&frame);
    while read_frame(&mut input).is_ok() {}
}

fn protocol_5(topo: &Topology, worker: u32, stamp: u32, mut input: PipeReader, mut output: PipeWriter) {
    let Msg::Hello { mut adjacency, .. } = hello(topo, worker) else { unreachable!() };
    let v = topo.num_nodes();
    let tail = adjacency.split_off(4 * (v + 1 + 2 * topo.num_edges()));
    let (ends, asns) = tail.split_at(6 * v);
    for e in ends.chunks_exact(6) {
        adjacency.extend([&e[..2], &e[4..]].concat()); // the sibling end dropped
    }
    adjacency.extend_from_slice(asns);
    let _ = write_frame(&mut output, &Msg::Hello { protocol: stamp, worker, adjacency });
    while read_frame(&mut input).is_ok() {}
}

impl Spawner for LocalSpawner {
    fn spawn(&mut self, worker: u32, events: Sender<Event>) -> Result<Box<dyn WorkerLink>, String> {
        let behavior = self.behaviors.get(self.spawned).copied().unwrap_or(Behavior::Good);
        self.spawned += 1;
        let (stdin_w, stdin_r) = pipe();
        let (stdout_w, stdout_r) = pipe();
        let topo = self.topo.clone();
        let dests = self.dests.clone();
        std::thread::spawn(move || match behavior {
            Behavior::Good => {
                let cfg =
                    WorkerConfig { worker, threads: 1, heartbeat: Duration::from_millis(20) };
                let _ = worker::run(&topo, &dests, cfg, stdin_r, stdout_w);
            }
            Behavior::Garbage => garbage(&topo, worker, stdin_r, stdout_w),
            Behavior::Protocol4 { fnv } => protocol_4(&topo, worker, fnv, stdin_r, stdout_w),
            Behavior::Protocol5 { stamp } => protocol_5(&topo, worker, stamp, stdin_r, stdout_w),
            Behavior::Foreign { late } => {
                std::thread::sleep(Duration::from_millis(if late { 100 } else { 0 }));
                double(&rewired(&topo), &dests, worker, Behavior::Hang, stdin_r, stdout_w);
            }
            Behavior::Late => {
                std::thread::sleep(Duration::from_millis(100));
                double(&topo, &dests, worker, Behavior::Hang, stdin_r, stdout_w);
            }
            other => double(&topo, &dests, worker, other, stdin_r, stdout_w),
        });
        std::thread::spawn(move || coordinator::pump_events(worker, stdout_r, &events));
        let arm_after = match behavior {
            Behavior::DieAfter(n) => Some((n, self.victim_armed.clone())),
            _ => None,
        };
        Ok(Box::new(LocalLink { stdin: Some(stdin_w), arm_after, assigns_sent: 0 }))
    }
}

// ------------------------------------------------------------- helpers

/// `topo` with one customer link moved: the first provider's first
/// customer becomes the first node it is not linked to. Same ASes, same
/// number of links, other neighbour lists.
fn rewired(topo: &Topology) -> Topology {
    let p = topo.nodes().find(|&x| topo.customers(x).next().is_some()).expect("a provider");
    let c = topo.customers(p).next().unwrap();
    let z = topo.nodes().find(|&z| z != p && topo.rel(p, z).is_none()).expect("a node p is not linked to");
    let mut b = TopologyBuilder::new();
    for x in topo.nodes() {
        b.intern_as(topo.asn(x));
    }
    for x in topo.nodes() {
        for &(y, rel) in topo.neighbors(x).iter().filter(|&&(y, _)| x < y) {
            let (u, v, rel) = if (x, y) == (p.min(c), p.max(c)) { (p, z, Rel::Customer) } else { (x, y, rel) };
            b.link(topo.asn(u), topo.asn(v), rel);
        }
    }
    let out = b.build().expect("a valid topology");
    assert_eq!((out.num_nodes(), out.num_edges()), (topo.num_nodes(), topo.num_edges()));
    out
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("miro_shard_test_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(dests: &[NodeId], topo: &Topology, block_size: usize, workers: usize, dir: &std::path::Path) -> JobSpec {
    JobSpec {
        dests: dests.to_vec(),
        num_nodes: topo.num_nodes() as u32,
        num_edges: topo.num_edges() as u32,
        block_size,
        block_order: None,
        workers,
        state_dir: dir.join("state"),
        out_path: dir.join("table.mirt"),
        resume: false,
        heartbeat_deadline: Duration::from_millis(400),
        respawn_budget: 4,
        chaos_kill_after: None,
        chaos_stop_after: None,
        progress: None,
    }
}

/// The `.partial` and any file besides the journal in the state dir: a
/// successful run leaves neither.
fn leftovers(job: &JobSpec) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(&job.state_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.ends_with("manifest.log"))
        .collect();
    found.extend(Some(partial_of(job)).filter(|p| p.exists()));
    found
}

fn partial_of(job: &JobSpec) -> PathBuf {
    let mut name = job.out_path.clone().into_os_string();
    name.push(".partial");
    name.into()
}

// --------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE 5 satellite (extended in ISSUE 6): sharded solves split into
    /// 1, 2, and 8 blocks — with varying fleet sizes, optionally one
    /// worker dying mid-job, and an arbitrary `block_order` dispatch
    /// permutation — produce byte-identical output to the unsharded
    /// reference. The fleet runs the real worker loop, so this also pins
    /// the pooled-scratch solve path ([`solve_rows`]).
    #[test]
    fn sharded_solve_bytes_match_unsharded_reference(
        nblocks in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
        workers in 1usize..4,
        death in any::<bool>(),
        seed in 0u64..4,
        order_seed in 0usize..4,
    ) {
        let topo = Arc::new(GenParams::tiny(seed).generate());
        let dests = Arc::new(sample_dests(topo.num_nodes(), 24));
        let reference =
            RouteTableSet::from_solves(&topo, &dests, 2).encode();

        let block_size = dests.len().div_ceil(nblocks);
        let dir = fresh_dir("prop");
        let mut job = spec(&dests, &topo, block_size, workers, &dir);
        // Dispatch in a scrambled (rotated, maybe reversed) block order:
        // scheduling must never leak into the merged bytes.
        let n = dests.len().div_ceil(block_size) as u32;
        let mut order: Vec<u32> = (0..n).map(|b| (b + order_seed as u32) % n).collect();
        if order_seed % 2 == 1 {
            order.reverse();
        }
        job.block_order = Some(order);
        // A death only demonstrates reassignment if someone else can pick
        // the block up (or a respawn can) — the budget covers both.
        let behaviors = if death {
            vec![Behavior::DieAfter(1)]
        } else {
            Vec::new()
        };
        // The single-worker + death case leans on the respawn budget.
        job.respawn_budget = 4;
        let mut spawner = LocalSpawner::new(&topo, &dests, behaviors);
        let report = coordinator::run(&job, &mut spawner).expect("job finishes");

        let merged = std::fs::read(&job.out_path).unwrap();
        prop_assert_eq!(&merged, &reference, "merged bytes differ from unsharded reference");
        prop_assert_eq!(report.merged_bytes, reference.len());
        prop_assert_eq!(leftovers(&job), Vec::<PathBuf>::new());
        prop_assert_eq!(report.blocks, dests.len().div_ceil(block_size));
        // If the victim was sent its fatal assignment, the job cannot have
        // finished without observing the crash and reassigning the block.
        if death && spawner.victim_armed.load(Ordering::SeqCst) {
            prop_assert!(report.deaths >= 1, "the scripted death was never observed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hung worker (no heartbeats, no result) is cleared by the deadline
/// scan and its block finishes elsewhere.
#[test]
fn hung_worker_is_deadline_killed_and_job_completes() {
    let topo = Arc::new(GenParams::tiny(11).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("hang");
    let mut job = spec(&dests, &topo, 4, 2, &dir);
    job.heartbeat_deadline = Duration::from_millis(150);
    let mut spawner = LocalSpawner::new(&topo, &dests, vec![Behavior::Hang]);
    let report = coordinator::run(&job, &mut spawner).expect("job survives the hang");

    assert!(report.deadline_kills >= 1, "deadline scan never fired: {report:?}");
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that emits garbage bytes is treated as crashed (corrupt
/// event), not trusted, and the job still completes correctly. One
/// worker at a time: the garbage worker holds a block before any good
/// worker exists, so no good worker can finish the job first.
#[test]
fn garbage_frames_mean_death_not_bad_data() {
    let topo = Arc::new(GenParams::tiny(13).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("garbage");
    let job = spec(&dests, &topo, 4, 1, &dir);
    let mut spawner = LocalSpawner::new(&topo, &dests, vec![Behavior::Garbage]);
    let report = coordinator::run(&job, &mut spawner).expect("job survives garbage");

    assert!(report.corrupt_events >= 1, "garbage went unnoticed: {report:?}");
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker of protocol 4 is buried before it is given any work,
/// whether its Hello fails this build's frame sum (FNV-1a) or names the
/// old version under the new sum; its replacement finishes the job.
#[test]
fn a_protocol_4_worker_is_buried_and_replaced() {
    let topo = Arc::new(GenParams::tiny(13).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();
    for fnv in [true, false] {
        let dir = fresh_dir(&format!("protocol4_{fnv}"));
        let job = spec(&dests, &topo, 4, 1, &dir);
        let mut spawner = LocalSpawner::new(&topo, &dests, vec![Behavior::Protocol4 { fnv }]);
        let report = coordinator::run(&job, &mut spawner).expect("job survives an old worker");
        assert_eq!(report.corrupt_events, 1, "fnv {fnv}: {report:?}");
        assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A worker of protocol 5 — two partition ends per AS in its Hello's
/// sections — is buried before it is given any work, whether it names
/// its own version or this build's; its replacement finishes the job.
#[test]
fn a_protocol_5_worker_is_buried_and_replaced() {
    let topo = Arc::new(GenParams::tiny(13).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();
    for stamp in [5, PROTOCOL_VERSION] {
        let dir = fresh_dir(&format!("protocol5_{stamp}"));
        let job = spec(&dests, &topo, 4, 1, &dir);
        let mut spawner = LocalSpawner::new(&topo, &dests, vec![Behavior::Protocol5 { stamp }]);
        let report = coordinator::run(&job, &mut spawner).expect("job survives an old worker");
        assert_eq!(report.corrupt_events, 1, "stamp {stamp}: {report:?}");
        assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoint/resume: abort mid-job via chaos_stop_after, then resume.
/// The resumed run must (a) skip every checkpointed block — proven by the
/// manifest's per-block dispatch counters not growing — and (b) produce
/// the same bytes as the unsharded reference.
#[test]
fn resume_skips_checkpointed_blocks() {
    let topo = Arc::new(GenParams::tiny(17).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 24));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("resume");
    let mut job = spec(&dests, &topo, 3, 1, &dir);
    job.chaos_stop_after = Some(3);
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let err = coordinator::run(&job, &mut spawner).expect_err("chaos stop aborts the run");
    assert!(err.contains("chaos-stop-after"), "{err}");

    let manifest_path = job.state_dir.join("manifest.log");
    let before = manifest::read(&manifest_path).expect("manifest readable after abort");
    let checkpointed: Vec<u32> = before.completed.keys().copied().collect();
    assert!(checkpointed.len() >= 3, "abort happened before 3 checkpoints: {before:?}");

    job.chaos_stop_after = None;
    job.resume = true;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let report = coordinator::run(&job, &mut spawner).expect("resume finishes");
    assert_eq!(report.resumed, checkpointed.len(), "resume trusted a different block set");

    let after = manifest::read(&manifest_path).unwrap();
    for b in &checkpointed {
        assert_eq!(
            after.dispatches.get(b),
            before.dispatches.get(b),
            "block {b} was re-dispatched after resume"
        );
    }
    assert_eq!(
        report.dispatches,
        report.blocks - checkpointed.len(),
        "resumed run dispatched more than the unfinished blocks"
    );
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `block_order` that is not a permutation of the job's blocks is
/// rejected up front, before any worker spawns.
#[test]
fn bad_block_order_is_rejected() {
    let topo = Arc::new(GenParams::tiny(23).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 12));
    let dir = fresh_dir("order");

    for (order, want) in [
        (vec![0u32, 1, 2], "not a permutation of the job's 4 block ids"),
        (vec![0, 1, 2, 9], "not a permutation"),
        (vec![0, 1, 2, 2], "not a permutation"),
    ] {
        // 12 dests / block_size 3 = 4 blocks.
        let mut job = spec(&dests, &topo, 3, 1, &dir);
        job.block_order = Some(order);
        let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
        let err = coordinator::run(&job, &mut spawner).expect_err("bad order rejected");
        assert!(err.contains(want), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume refuses a manifest from a different job (changed block size).
#[test]
fn resume_rejects_foreign_manifest() {
    let topo = Arc::new(GenParams::tiny(19).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 12));

    let dir = fresh_dir("foreign");
    let mut job = spec(&dests, &topo, 3, 1, &dir);
    job.chaos_stop_after = Some(1);
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let _ = coordinator::run(&job, &mut spawner).expect_err("chaos stop");

    job.chaos_stop_after = None;
    job.resume = true;
    job.block_size = 5; // different partition ⇒ different job
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let err = coordinator::run(&job, &mut spawner).expect_err("fingerprint mismatch");
    assert!(err.contains("different job"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal left by a build that wrote format-1 tables (`table_format` 1
/// on its `H` line) is refused by `--resume` before its `.partial` is
/// opened, and a fresh run trusts none of that file's blocks.
#[test]
fn resume_refuses_a_format_1_manifest_and_its_partial() {
    let topo = Arc::new(GenParams::tiny(43).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 12));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("format1");
    let mut job = spec(&dests, &topo, 3, 1, &dir);
    job.chaos_stop_after = Some(2);
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    coordinator::run(&job, &mut spawner).expect_err("chaos stop");
    let manifest_path = job.state_dir.join("manifest.log");
    let journal = std::fs::read_to_string(&manifest_path).unwrap();
    let (header, rest) = journal.split_once('\n').unwrap();
    let mut fields: Vec<&str> = header.split(' ').collect();
    assert_eq!(fields[2], TABLE_FORMAT_VERSION.to_string(), "H <manifest> <table_format> ...");
    fields[2] = "1";
    std::fs::write(&manifest_path, format!("{}\n{rest}", fields.join(" "))).unwrap();
    let partial = std::fs::read(partial_of(&job)).unwrap();

    job.chaos_stop_after = None;
    job.resume = true;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let err = coordinator::run(&job, &mut spawner).expect_err("format-1 journal refused");
    assert!(err.contains(&format!("table format is 1, this job has {TABLE_FORMAT_VERSION}")), "{err}");
    assert_eq!(std::fs::read(partial_of(&job)).unwrap(), partial, "the refused resume touched the partial");
    assert!(!job.out_path.exists());

    job.resume = false;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let report = coordinator::run(&job, &mut spawner).expect("fresh run");
    assert_eq!((report.resumed, report.dispatches), (0, report.blocks));
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trust boundary: a worker that reports a block it never wrote, wrote
/// half of, or reports with a wrong-length checksum table is caught by the
/// coordinator's own re-hash (or length check), counted, buried, and the
/// block is redone by its replacement.
#[test]
fn lying_and_torn_writers_are_caught_and_their_blocks_redone() {
    let topo = Arc::new(GenParams::tiny(29).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    for liar in [Behavior::Unwritten, Behavior::HalfWritten, Behavior::WrongLength] {
        let dir = fresh_dir("liar");
        // One worker at a time: the liar is certain to get the first block.
        let job = spec(&dests, &topo, 4, 1, &dir);
        let mut spawner = LocalSpawner::new(&topo, &dests, vec![liar]);
        let report = coordinator::run(&job, &mut spawner).expect("job survives the liar");

        assert_eq!((report.corrupt_events, report.deaths, report.respawns), (1, 1, 1), "{liar:?}");
        // The bad block runs twice — and so does the block the liar was
        // handed next, while its rows were still being re-hashed (the
        // length check needs no hashing, so it fires before that).
        let redone = if liar == Behavior::WrongLength { 1 } else { 2 };
        assert_eq!(report.dispatches, report.blocks + redone, "{liar:?}");
        assert_eq!(std::fs::read(&job.out_path).unwrap(), reference, "{liar:?}");
        assert_eq!(leftovers(&job), Vec::<PathBuf>::new(), "{liar:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A deadline-killed worker that still gets its write and report out
/// while the replacement writes the same range: both write the same
/// bytes, the straggler's report is ignored, the table is correct.
#[test]
fn kill_race_twins_leave_correct_bytes() {
    let topo = Arc::new(GenParams::tiny(31).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("twins");
    let mut job = spec(&dests, &topo, 4, 2, &dir);
    job.heartbeat_deadline = Duration::from_millis(150);
    let mut spawner = LocalSpawner::new(&topo, &dests, vec![Behavior::Straggler]);
    let report = coordinator::run(&job, &mut spawner).expect("job survives the race");

    assert!(report.deadline_kills >= 1, "{report:?}");
    assert_eq!(report.corrupt_events, 0, "a straggler's late report is not corruption");
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume trusts a `C` line only as far as the rows in `<out>.partial`
/// back it up: flip one byte inside a checkpointed block and exactly that
/// block is solved again.
#[test]
fn resume_reruns_a_block_corrupted_in_the_partial_table() {
    let topo = Arc::new(GenParams::tiny(37).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 24));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("rot");
    let mut job = spec(&dests, &topo, 3, 1, &dir);
    job.chaos_stop_after = Some(3);
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    coordinator::run(&job, &mut spawner).expect_err("chaos stop aborts the run");
    assert!(!job.out_path.exists(), "no table under its final name before the job completes");

    let manifest_path = job.state_dir.join("manifest.log");
    let before = manifest::read(&manifest_path).unwrap();
    assert_eq!(before.completed.len(), 3);
    let victim = *before.completed.keys().min().unwrap();
    let layout = Layout::of(&Adjacency::of(&topo), dests.len() as u32).unwrap();
    let partial = std::fs::OpenOptions::new().read(true).write(true).open(partial_of(&job)).unwrap();
    let at = layout.row_at(victim as usize * 3 + 1) as u64 + 5;
    let mut byte = [0u8];
    partial.read_exact_at(&mut byte, at).unwrap();
    partial.write_all_at(&[byte[0] ^ 0x10], at).unwrap();
    drop(partial);

    job.chaos_stop_after = None;
    job.resume = true;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let report = coordinator::run(&job, &mut spawner).expect("resume finishes");
    assert_eq!(report.resumed, 2, "the corrupted block must not be trusted");

    let after = manifest::read(&manifest_path).unwrap();
    for b in before.completed.keys() {
        let grew = after.dispatches[b] - before.dispatches[b];
        assert_eq!(grew, (*b == victim) as u32, "block {b}");
    }
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    assert_eq!(leftovers(&job), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the respawn budget runs out the job stops with its progress
/// checkpointed, and a resumed run with a healthy fleet finishes it. A
/// stale `.partial` is only ever reused by `--resume`.
#[test]
fn exhausted_respawn_budget_is_a_checkpointed_error() {
    let topo = Arc::new(GenParams::tiny(41).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let reference = RouteTableSet::from_solves(&topo, &dests, 2).encode();

    let dir = fresh_dir("budget");
    let mut job = spec(&dests, &topo, 4, 1, &dir);
    job.respawn_budget = 1;
    // One good block, then two workers in a row die on the next one.
    let behaviors = vec![Behavior::DieAfter(1), Behavior::DieAfter(0)];
    let mut spawner = LocalSpawner::new(&topo, &dests, behaviors);
    let err = coordinator::run(&job, &mut spawner).expect_err("nobody left to work");
    assert!(err.contains("respawn budget 1 exhausted") && err.contains("--resume"), "{err}");
    assert!(partial_of(&job).exists() && !job.out_path.exists());

    job.resume = true;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let report = coordinator::run(&job, &mut spawner).expect("resume finishes");
    assert_eq!((report.resumed, report.dispatches), (1, 3));
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);

    // Without --resume a leftover `.partial` (here: garbage of the right
    // size) is truncated, never trusted.
    std::fs::write(partial_of(&job), vec![0xAB; reference.len()]).unwrap();
    job.resume = false;
    let mut spawner = LocalSpawner::new(&topo, &dests, Vec::new());
    let report = coordinator::run(&job, &mut spawner).expect("fresh run");
    assert_eq!(report.resumed, 0);
    assert_eq!(std::fs::read(&job.out_path).unwrap(), reference);
    assert_eq!(leftovers(&job), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kept partial's header covers the adjacency: a `--resume` whose
/// workers build another topology of the same size (and link count, so
/// the manifest's fingerprint matches) re-solves every block.
#[test]
fn resume_over_another_topology_of_the_same_size_resolves_every_block() {
    let topo = Arc::new(GenParams::tiny(17).generate());
    let other = Arc::new(rewired(&topo));
    let dests = Arc::new(sample_dests(topo.num_nodes(), 24));
    let dir = fresh_dir("foreign_resume");
    let mut job = spec(&dests, &topo, 3, 1, &dir);
    job.chaos_stop_after = Some(3);
    coordinator::run(&job, &mut LocalSpawner::new(&topo, &dests, Vec::new())).expect_err("chaos stop");

    job.chaos_stop_after = None;
    job.resume = true;
    let report = coordinator::run(&job, &mut LocalSpawner::new(&other, &dests, Vec::new())).expect("resume finishes");
    assert_eq!((report.resumed, report.dispatches), (0, report.blocks));
    assert_eq!(std::fs::read(&job.out_path).unwrap(), RouteTableSet::from_solves(&other, &dests, 2).encode());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two workers whose Hellos carry different sections built two
/// topologies, and neither Hello says which one the job means: the job
/// ends at once with an error naming both workers and the first AS whose
/// sections differ — whether the foreign worker spoke first or second —
/// and no worker is buried on the other's word.
#[test]
fn a_worker_of_another_topology_ends_the_job_naming_both_workers() {
    let topo = Arc::new(GenParams::tiny(23).generate());
    let dests = Arc::new(sample_dests(topo.num_nodes(), 16));
    let x = Adjacency::of(&topo).first_difference_from(&Adjacency::of(&rewired(&topo))).expect("rewired differs");
    let foreign_first = vec![Behavior::Foreign { late: false }, Behavior::Late];
    let foreign_second = vec![Behavior::Hang, Behavior::Foreign { late: true }];
    for (order, behaviors) in [("foreign first", foreign_first), ("foreign second", foreign_second)] {
        let dir = fresh_dir("foreign_worker");
        let job = spec(&dests, &topo, 4, 2, &dir);
        let err = coordinator::run(&job, &mut LocalSpawner::new(&topo, &dests, behaviors)).expect_err(order);
        let want = format!("workers 0 and 1 built different topologies: their sections differ first at AS node {x}");
        assert!(err.starts_with(&want), "{order}: {err}");
        assert!(!job.out_path.exists(), "{order}: no table is finished");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
