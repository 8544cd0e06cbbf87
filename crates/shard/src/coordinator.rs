//! The shard coordinator: crash-tolerant block dispatch over a fleet of
//! workers filling one pre-sized table file in place, resumable.
//!
//! Written against two small traits ([`Spawner`], [`WorkerLink`]) rather
//! than `std::process`: production uses [`ProcessSpawner`] (subprocesses
//! over stdin/stdout pipes), tests use in-process workers with scripted
//! failures — same state machine and protocol, no process spawns.
//!
//! Per-worker lifecycle, as the dispatch loop sees it:
//!
//! ```text
//!             Hello (→ Output: the             Assign
//!   spawned ───────── table file's path) ► idle ─────────────► working
//!      ▲                                    ▲                     │
//!      │respawn         BlockResult (next   │                     │ EOF / corrupt frame /
//!      │(budget         Assign sent first,  │                     │ heartbeat deadline /
//!      │ permitting)    then rows re-hashed ┴─────────────────────┤ rows ≠ reported checksums /
//!      │                in the file, checksums                    │ not its block / wrong length
//!      │                stored, manifest C line)                  ▼
//!      └────────────────────────────────────────────────────────  dead
//!                      (in-flight block → front of queue, D line on redispatch)
//! ```
//!
//! The table embeds the topology's neighbour lists, partition ends and
//! AS numbers, which the coordinator does not hold: each worker's `Hello`
//! carries those sections. The first one lays out `<out>.partial` (and,
//! on `--resume`, decides which kept blocks survive — the kept header
//! must match, sections included). Two workers whose sections differ
//! built two topologies, and the coordinator cannot tell which one the
//! job means: it ends the job at once with an error naming both workers
//! and the first AS whose sections differ, whichever of them spoke
//! first, rather than bury either on the other's word.
//!
//! Row bytes live in one place: `<out>.partial`, created beside
//! `out_path` at its final size. A block's worker writes its rows into
//! the block's byte range and reports only their checksums; the
//! coordinator re-hashes the range through one bounded buffer, and only
//! rows that hash to the reported values get their checksums stored in
//! the file and a `C` line in the manifest — a manifest claim is never
//! ahead of the data. When every block is in, one sequential pass yields
//! the whole-file checksum and the file is renamed to `out_path`. Every
//! byte is a pure function of the job, so who produced which block, in
//! what order, after how many deaths, cannot affect the output.

use crate::format::{le_u64, Adjacency, Layout, TableReader, TABLE_FORMAT_VERSION};
use crate::manifest::{self, JobFingerprint, ManifestWriter};
use crate::protocol::{read_frame, write_frame, FrameError, Msg, PROTOCOL_VERSION};
use miro_bgp::engine::dest_blocks;
use miro_topology::NodeId;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// What a worker's event stream can deliver to the dispatch loop.
#[derive(Debug)]
pub enum EventKind {
    /// A well-formed frame.
    Frame(Msg),
    /// A frame that failed checksum/shape validation; the stream is
    /// unrecoverable past it.
    Corrupt(String),
    /// The stream ended (worker exited or was killed).
    Closed,
}

/// One event, tagged with the coordinator-side worker id.
#[derive(Debug)]
pub struct Event {
    pub worker: u32,
    pub kind: EventKind,
}

/// Coordinator's handle to one live worker.
pub trait WorkerLink: Send {
    /// Deliver a message to the worker's stdin.
    fn send(&mut self, msg: &Msg) -> std::io::Result<()>;
    /// Forcibly terminate the worker (SIGKILL for subprocesses). Must be
    /// safe to call more than once and on an already-dead worker.
    fn kill(&mut self);
}

/// Spawns workers and wires their output into the event channel.
pub trait Spawner {
    fn spawn(&mut self, worker: u32, events: Sender<Event>) -> Result<Box<dyn WorkerLink>, String>;
}

/// Pump one worker's output stream into the event channel until EOF or
/// corruption. Both the process spawner and test harnesses use this, so
/// "what counts as corrupt" is decided in exactly one place.
pub fn pump_events(worker: u32, mut stream: impl Read, events: &Sender<Event>) {
    loop {
        let kind = match read_frame(&mut stream) {
            Ok(msg) => EventKind::Frame(msg),
            Err(FrameError::Eof) => EventKind::Closed,
            Err(FrameError::Corrupt(why)) => EventKind::Corrupt(why),
            Err(FrameError::Io(e)) => EventKind::Corrupt(format!("read error: {e}")),
        };
        let stop = !matches!(kind, EventKind::Frame(_));
        if events.send(Event { worker, kind }).is_err() || stop {
            return;
        }
    }
}

/// Spawn real worker subprocesses: `program args.. --worker-id N` with
/// piped stdin/stdout (stderr passes through for diagnostics).
pub struct ProcessSpawner {
    pub program: PathBuf,
    pub args: Vec<String>,
}

struct ProcessLink {
    stdin: Option<std::process::ChildStdin>,
    child: std::process::Child,
}

impl WorkerLink for ProcessLink {
    fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        match self.stdin.as_mut() {
            Some(stdin) => write_frame(stdin, msg),
            None => Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stdin closed")),
        }
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        self.kill();
    }
}

impl Spawner for ProcessSpawner {
    fn spawn(&mut self, worker: u32, events: Sender<Event>) -> Result<Box<dyn WorkerLink>, String> {
        let mut child = std::process::Command::new(&self.program)
            .args(&self.args)
            .arg("--worker-id")
            .arg(worker.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {worker} ({:?}): {e}", self.program))?;
        let stdout = child.stdout.take().expect("piped stdout");
        std::thread::spawn(move || pump_events(worker, stdout, &events));
        Ok(Box::new(ProcessLink { stdin: child.stdin.take(), child }))
    }
}

/// Everything that defines one shard job.
pub struct JobSpec {
    /// Canonical destination list (see [`crate::sample_dests`]).
    pub dests: Vec<NodeId>,
    /// Topology shape, for the job fingerprint.
    pub num_nodes: u32,
    pub num_edges: u32,
    /// Destinations per dispatch block.
    pub block_size: usize,
    /// Dispatch order over block ids (e.g.
    /// [`miro_bgp::engine::heavy_blocks_first`], so the expensive blocks
    /// go out first); `None` dispatches in ascending order. Must be a
    /// permutation of the block ids. Purely a scheduling knob: a block's
    /// bytes and place in the file are fixed, whatever the order.
    pub block_order: Option<Vec<u32>>,
    /// Worker fleet size.
    pub workers: usize,
    /// Where the resume journal (`manifest.log`) lives.
    pub state_dir: PathBuf,
    /// Where the finished table lands (`<out_path>.partial` until then).
    pub out_path: PathBuf,
    /// Trust a pre-existing manifest and skip verified blocks.
    pub resume: bool,
    /// A worker silent for this long is declared hung and killed.
    pub heartbeat_deadline: Duration,
    /// How many replacement workers may be spawned over the job's life.
    pub respawn_budget: usize,
    /// Fault injection: SIGKILL the first-spawned worker right after its
    /// N-th completed block (exercises reassignment end to end).
    pub chaos_kill_after: Option<u32>,
    /// Fault injection: abort the coordinator (workers killed, state
    /// checkpointed, error return) once N blocks are done, to `--resume`.
    pub chaos_stop_after: Option<u32>,
    /// Progress hook, called with `(blocks_done, blocks_total)` once at
    /// startup and after every completed block.
    pub progress: Option<Box<dyn Fn(usize, usize)>>,
}

/// What a finished job looked like.
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    pub blocks: usize,
    /// Blocks skipped because a resumed manifest + partial table had them.
    pub resumed: usize,
    /// Assignments sent (= manifest `D` lines written by this run).
    pub dispatches: usize,
    pub deaths: usize,
    pub respawns: usize,
    pub deadline_kills: usize,
    pub corrupt_events: usize,
    /// Length of the finished table file.
    pub merged_bytes: usize,
    pub elapsed: Duration,
}

/// Open `<out>.partial` at `path`, pre-sized, header in place. With
/// `keep`, a file of this job's size and `header` survives (second return
/// value); else it is laid out afresh. It is never read whole.
fn open_partial(path: &str, layout: Layout, header: &[u8], keep: bool) -> std::io::Result<(TableReader, bool)> {
    let file = File::options().read(true).write(true).create(true).truncate(!keep).open(path)?;
    let mut have = vec![0u8; header.len()];
    let kept = keep
        && file.metadata()?.len() == layout.file_len() as u64
        && file.read_exact_at(&mut have, 0).is_ok()
        && have == header;
    if !kept {
        file.set_len(0)?;
        file.set_len(layout.file_len() as u64)?;
        file.write_all_at(header, 0)?;
    }
    Ok((TableReader::new(file, layout), kept))
}

/// Open `<out>.partial` at `path` for a table over `adj` and, when
/// `resuming`, keep each block whose `claims` entry the kept file backs
/// up — its checksum slice hashes to the `C` line and its rows to the
/// slice. Returns the file and which of `blocks` are done.
fn lay_out(
    spec: &JobSpec,
    adj: &Adjacency,
    path: &str,
    resuming: bool,
    claims: &HashMap<u32, (u64, u64)>,
    blocks: &[Range<usize>],
) -> Result<(TableReader, Vec<bool>), String> {
    let table_err = |e: std::io::Error| format!("table file {path:?}: {e}");
    let layout = Layout::of(adj, spec.dests.len() as u32)?;
    let header = layout.header(&spec.dests, adj);
    let (mut reader, kept) = open_partial(path, layout, &header, resuming).map_err(table_err)?;
    let mut done = vec![false; blocks.len()];
    for (&block, &(bytes, checksum)) in claims.iter().filter(|_| kept) {
        let Some(rows) = blocks.get(block as usize) else { continue };
        let at = layout.sums_at() + 8 * rows.start;
        let sums = reader.read(at..at + 8 * rows.len()).map_err(table_err)?;
        done[block as usize] = bytes == (rows.len() * layout.row_bytes()) as u64
            && crate::fnv1a(&sums) == checksum
            && rows_match(&mut reader, rows.clone(), &sums).map_err(table_err)?;
    }
    Ok((reader, done))
}

/// Do the bytes of `rows` in the file hash to `sums`, one `u64` per row?
fn rows_match(table: &mut TableReader, rows: Range<usize>, sums: &[u8]) -> std::io::Result<bool> {
    for (i, want) in rows.zip(sums.chunks_exact(8)) {
        if table.sum(table.layout().row_at(i)..table.layout().row_at(i + 1))? != le_u64(want) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Every block is in: whole-file checksum, trailer, rename into place.
fn seal(mut table: TableReader, path: &str, out: &Path) -> std::io::Result<()> {
    let end = table.layout().file_len() - 8;
    let total = table.sum(0..end)?;
    table.file.write_all_at(&total.to_le_bytes(), end as u64)?;
    std::fs::rename(path, out)
}

struct WorkerState {
    link: Box<dyn WorkerLink>,
    assigned: Option<u32>,
    last_seen: Instant,
    blocks_done: u32,
}

/// What the dispatch loop keeps between events.
struct Dispatch {
    blocks: Vec<Range<usize>>,
    pending: VecDeque<u32>,
    /// Keyed by worker id; ids count up from 0 and are never reused, so
    /// worker 0 — the chaos-kill victim — exists at most once.
    fleet: HashMap<u32, WorkerState>,
    next_worker_id: u32,
    writer: ManifestWriter,
    report: JobReport,
}

impl Dispatch {
    fn spawn(&mut self, spawner: &mut dyn Spawner, events: &Sender<Event>) -> Result<(), String> {
        let link = spawner.spawn(self.next_worker_id, events.clone())?;
        let st = WorkerState { link, assigned: None, last_seen: Instant::now(), blocks_done: 0 };
        self.fleet.insert(self.next_worker_id, st);
        self.next_worker_id += 1;
        Ok(())
    }

    /// One worker's death: kill it, requeue its block.
    fn bury(&mut self, worker: u32) {
        let Some(mut st) = self.fleet.remove(&worker) else { return };
        st.link.kill();
        self.report.deaths += 1;
        if let Some(block) = st.assigned {
            self.pending.push_front(block);
        }
    }

    /// A worker that broke the protocol or lied about its block dies too.
    fn corrupt(&mut self, worker: u32) {
        self.report.corrupt_events += 1;
        self.bury(worker);
    }

    /// Hand an idle worker the next pending block. Only a block's holder
    /// can complete it and a buried holder's events are dropped, so
    /// nothing in `pending` is ever already done.
    fn assign(&mut self, worker: u32) -> Result<(), String> {
        let Some(st) = self.fleet.get_mut(&worker).filter(|st| st.assigned.is_none()) else {
            return Ok(());
        };
        let Some(block) = self.pending.pop_front() else { return Ok(()) };
        self.writer.dispatch(block, worker).map_err(|e| format!("cannot append manifest: {e}"))?;
        self.report.dispatches += 1;
        st.assigned = Some(block);
        let rows = &self.blocks[block as usize];
        // The send can fail if the worker died between events; the reader
        // thread's Closed event will then requeue the block.
        let _ = st.link.send(&Msg::Assign { block, start: rows.start as u32, len: rows.len() as u32 });
        Ok(())
    }
}

/// Run a shard job to completion (or checkpointed abort). On success the
/// finished table file is at `spec.out_path`; the report says how rough
/// the ride was.
pub fn run(spec: &JobSpec, spawner: &mut dyn Spawner) -> Result<JobReport, String> {
    let t0 = Instant::now();
    if spec.workers == 0 {
        return Err("a shard job needs at least one worker".to_string());
    }
    if spec.dests.is_empty() {
        return Err("a shard job needs at least one destination".to_string());
    }
    std::fs::create_dir_all(&spec.state_dir)
        .map_err(|e| format!("cannot create state dir {:?}: {e}", spec.state_dir))?;

    let blocks: Vec<Range<usize>> = dest_blocks(spec.dests.len(), spec.block_size).collect();
    let nblocks = blocks.len();
    let order = spec.block_order.clone().unwrap_or_else(|| (0..nblocks as u32).collect());
    let mut sorted = order.clone();
    sorted.sort_unstable();
    if !sorted.into_iter().eq(0..nblocks as u32) {
        return Err(format!("block_order is not a permutation of the job's {nblocks} block ids"));
    }
    let dest_ids: Vec<u8> = spec.dests.iter().flat_map(|d| d.to_le_bytes()).collect();
    let fingerprint = JobFingerprint {
        table_format: TABLE_FORMAT_VERSION,
        num_nodes: spec.num_nodes,
        num_edges: spec.num_edges,
        num_dests: spec.dests.len() as u32,
        block_size: spec.block_size.max(1) as u32,
        dests_fnv: crate::fnv1a(&dest_ids),
    };

    // Resume: trust the manifest only as far as a kept partial table backs
    // it up — a claimed block's rows must hash to the file's checksum
    // slice, and that slice to the `C` line.
    let manifest_path = spec.state_dir.join("manifest.log");
    let resuming = spec.resume && manifest_path.exists();
    let claims = if resuming {
        let state = manifest::read(&manifest_path)?;
        fingerprint.ensure_matches(&state.job)?;
        state.completed
    } else {
        HashMap::new()
    };
    // `.partial` is appended, never swapped for the extension: `a.mirt` and
    // `a.json` must not share a temporary name.
    let out_path = spec.out_path.to_str().ok_or("the output path is not UTF-8")?;
    let table_path = format!("{out_path}.partial");
    let table_err = |e: std::io::Error| format!("table file {table_path:?}: {e}");
    let writer = ManifestWriter::open(&manifest_path, &fingerprint, resuming)
        .map_err(|e| format!("cannot open manifest {manifest_path:?}: {e}"))?;

    let mut job = Dispatch {
        pending: VecDeque::new(),
        blocks,
        fleet: HashMap::new(),
        next_worker_id: 0,
        writer,
        report: JobReport { blocks: nblocks, ..JobReport::default() },
    };
    // The table is laid out by the first Hello; until then nothing is
    // pending, and the fleet is sized to the blocks the manifest leaves.
    let mut table: Option<(TableReader, Vec<u8>, u32, Adjacency)> = None;
    let mut done_count = 0;
    let (tx, rx) = std::sync::mpsc::channel::<Event>();
    for _ in 0..spec.workers.min(nblocks.saturating_sub(claims.len())).max(1) {
        job.spawn(spawner, &tx)?;
    }
    let tick = (spec.heartbeat_deadline / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));

    while table.is_none() || done_count < nblocks {
        // Replace the fallen while the budget lasts. The fleet is sized to
        // the remaining work (pending + in flight), capped at the worker
        // count, so a short tail never burns respawn budget on idle workers.
        let in_flight = job.fleet.values().filter(|st| st.assigned.is_some()).count();
        let desired = spec.workers.min(job.pending.len() + in_flight).max(1);
        while job.fleet.len() < desired && job.report.respawns < spec.respawn_budget {
            job.spawn(spawner, &tx)?;
            job.report.respawns += 1;
        }
        if job.fleet.is_empty() {
            return Err(format!(
                "all workers dead with {} block(s) unfinished (respawn budget {} exhausted); \
                 state checkpointed in {:?} — re-run with --resume",
                nblocks - done_count,
                spec.respawn_budget,
                spec.state_dir
            ));
        }

        // Timeout is the only error: `tx` above keeps the channel open.
        let event = rx.recv_timeout(tick).ok();

        // Deadline scan runs every iteration, not just on timeouts — a
        // chatty healthy worker delivering events faster than the tick
        // must not keep the loop from noticing a silent one.
        let overdue: Vec<u32> = job
            .fleet
            .iter()
            .filter(|(_, st)| st.last_seen.elapsed() > spec.heartbeat_deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in overdue {
            job.report.deadline_kills += 1;
            job.bury(id);
        }

        let Some(Event { worker, kind }) = event else { continue };
        // Stragglers from already-buried workers are dropped here.
        let Some(st) = job.fleet.get_mut(&worker) else { continue };
        st.last_seen = Instant::now();
        match kind {
            EventKind::Frame(Msg::Hello { protocol, worker: claimed, adjacency })
                if protocol == PROTOCOL_VERSION && claimed == worker =>
            {
                let adj = match Adjacency::parse(spec.num_nodes, &adjacency) {
                    Ok(adj) if adj.entries() == 2 * spec.num_edges as usize => adj,
                    _ => {
                        job.corrupt(worker);
                        continue;
                    }
                };
                match &table {
                    Some((_, section, first, first_adj)) if *section != adjacency => {
                        let x = first_adj.first_difference_from(&adj).unwrap_or(0);
                        return Err(format!(
                            "workers {first} and {worker} built different topologies: their sections \
                             differ first at AS node {x}; every worker must build the job's topology"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        let (reader, done) = lay_out(spec, &adj, &table_path, resuming, &claims, &job.blocks)?;
                        job.pending = order.iter().copied().filter(|&b| !done[b as usize]).collect();
                        done_count = nblocks - job.pending.len();
                        job.report.resumed = done_count;
                        if let Some(progress) = &spec.progress {
                            progress(done_count, nblocks);
                        }
                        // Top the fleet up to the work the resume check left.
                        while job.fleet.len() < spec.workers.min(job.pending.len()) {
                            job.spawn(spawner, &tx)?;
                        }
                        table = Some((reader, adjacency, worker, adj));
                    }
                }
                // Like an assignment, this send may fail on a worker that
                // just died; its Closed event cleans up.
                if let Some(st) = job.fleet.get_mut(&worker) {
                    let _ = st.link.send(&Msg::Output { path: table_path.clone() });
                }
                job.assign(worker)?;
            }
            // An idle heartbeat is also a work request: a block requeued
            // by a deadline kill after this worker drained the queue would
            // otherwise never be dispatched again.
            EventKind::Frame(Msg::Heartbeat { .. }) => job.assign(worker)?,
            EventKind::Frame(Msg::BlockResult { block, table: sums }) => {
                // A worker completes only the block it holds, with one
                // checksum per row.
                let rows = match job.blocks.get(block as usize) {
                    Some(r) if st.assigned == Some(block) && sums.len() == 8 * r.len() => r.clone(),
                    _ => {
                        job.corrupt(worker);
                        continue;
                    }
                };
                st.assigned = None;
                st.blocks_done += 1;
                let kill_due = worker == 0 && spec.chaos_kill_after.is_some_and(|n| st.blocks_done >= n);
                let stop_due = spec
                    .chaos_stop_after
                    .filter(|&n| done_count + 1 >= n as usize && done_count + 1 < nblocks);
                if !kill_due && stop_due.is_none() {
                    // Next block first: the worker solves it while this
                    // one is verified.
                    job.assign(worker)?;
                }
                let (reader, ..) = table.as_mut().expect("a block is assigned once the table is laid out");
                if !rows_match(reader, rows.clone(), &sums).map_err(table_err)? {
                    // Never written, torn, or not what was reported.
                    job.corrupt(worker);
                    job.pending.push_front(block);
                    continue;
                }
                let at = reader.layout().sums_at() + 8 * rows.start;
                reader.file.write_all_at(&sums, at as u64).map_err(table_err)?;
                let bytes = rows.len() * reader.layout().row_bytes();
                job.writer
                    .complete(block, bytes as u64, crate::fnv1a(&sums))
                    .map_err(|e| format!("cannot append manifest: {e}"))?;
                done_count += 1;
                if let Some(progress) = &spec.progress {
                    progress(done_count, nblocks);
                }
                if kill_due {
                    job.bury(worker);
                } else if let Some(n) = stop_due {
                    for st in job.fleet.values_mut() {
                        st.link.kill();
                    }
                    return Err(format!(
                        "aborted by --chaos-stop-after {n}: {done_count}/{nblocks} \
                         blocks checkpointed in {:?}",
                        spec.state_dir
                    ));
                }
            }
            // Clean exits only happen after Shutdown, which is only sent
            // after all blocks are done.
            EventKind::Frame(Msg::Bye { .. }) => drop(job.fleet.remove(&worker)),
            EventKind::Closed => job.bury(worker),
            // A wrong Hello, a coordinator verb, or bytes that are no frame.
            EventKind::Frame(_) | EventKind::Corrupt(_) => job.corrupt(worker),
        }
    }

    for st in job.fleet.values_mut() {
        let _ = st.link.send(&Msg::Shutdown);
    }
    drop(job.fleet); // kills any worker that ignores the drain

    let (reader, ..) = table.expect("the loop runs until the table is laid out");
    job.report.merged_bytes = reader.layout().file_len();
    seal(reader, &table_path, &spec.out_path).map_err(table_err)?;
    job.report.elapsed = t0.elapsed();
    Ok(job.report)
}
