//! The shard worker: the subprocess end of the protocol.
//!
//! A worker rebuilds the job's topology from its argv spec, says
//! [`Msg::Hello`], is told the table file's path ([`Msg::Output`]), and
//! then loops: take a block assignment, solve and serialise its rows
//! ([`solve_rows`], against one [`ScratchPool`] held for the worker's
//! whole life, so after the first block it allocates no solve scratch),
//! write them straight into the block's slice of the table file, report
//! their checksums, repeat until [`Msg::Shutdown`] or the coordinator's
//! pipe closes. A background thread heartbeats the whole time — including
//! *during* a long solve — so the coordinator can tell "still grinding
//! block 17" from "hung". Both threads write frames through one mutex so
//! a heartbeat never tears another frame.

use crate::format::{solve_rows, Adjacency, Layout};
use crate::protocol::{read_frame, write_frame, FrameError, Msg, PROTOCOL_VERSION};
use miro_bgp::engine::ScratchPool;
use miro_topology::{NodeId, Topology};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Heartbeat block id meaning "idle".
pub const IDLE_BLOCK: u32 = u32::MAX;

/// Per-worker settings, fixed for the worker's lifetime.
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Id the coordinator assigned (echoed in every heartbeat).
    pub worker: u32,
    /// Solver threads inside this worker.
    pub threads: usize,
    /// Interval between heartbeats.
    pub heartbeat: Duration,
}

/// Open the coordinator's pre-sized table file for writing rows into.
fn open_table(path: &str, layout: &Layout) -> Result<std::fs::File, String> {
    let file = std::fs::OpenOptions::new().write(true).open(path).map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    if len != layout.file_len() as u64 {
        return Err(format!("{len} bytes, but this job's table is {}", layout.file_len()));
    }
    Ok(file)
}

/// Run the worker loop over `input`/`output` until shutdown or EOF.
/// `dests` is the job's canonical destination list — assignments index
/// into it, so it must match the coordinator's (both sides derive it with
/// [`crate::sample_dests`] from the same spec).
pub fn run<R, W>(
    topo: &Topology,
    dests: &[NodeId],
    cfg: WorkerConfig,
    mut input: R,
    output: W,
) -> Result<(), String>
where
    R: Read,
    W: Write + Send + 'static,
{
    let adj = Adjacency::of(topo);
    let layout = Layout::of(&adj, dests.len() as u32)?;
    let output = Mutex::new(output);
    let send = |msg: &Msg| write_frame(&mut *output.lock().expect("worker stdout mutex"), msg);
    let current = AtomicU32::new(IDLE_BLOCK);
    let stop = AtomicBool::new(false);
    let mut adjacency = Vec::new();
    adj.write(&mut adjacency);
    send(&Msg::Hello { protocol: PROTOCOL_VERSION, worker: cfg.worker, adjacency })
        .map_err(|e| format!("worker {}: cannot greet coordinator: {e}", cfg.worker))?;

    std::thread::scope(|scope| {
        let beat = scope.spawn(|| loop {
            // Parked, not asleep: unparked below when the main loop ends,
            // so a worker exits at once instead of one heartbeat late. The
            // Release store of `stop` pairs with this Acquire load.
            std::thread::park_timeout(cfg.heartbeat);
            let msg = Msg::Heartbeat { worker: cfg.worker, block: current.load(Ordering::Relaxed) };
            // A failed send: the coordinator is gone, the main loop will see EOF.
            if stop.load(Ordering::Acquire) || send(&msg).is_err() {
                break;
            }
        });

        let pool = ScratchPool::for_nodes(topo.num_nodes());
        let mut table = None;
        let mut blocks_done = 0u32;
        let mut serve = || loop {
            match read_frame(&mut input) {
                Ok(Msg::Output { path }) => {
                    let file = open_table(&path, &layout).map_err(|e| format!("table file {path:?}: {e}"))?;
                    table = Some(file);
                }
                Ok(Msg::Assign { block, start, len }) => {
                    let (start, len) = (start as usize, len as usize);
                    if start + len > dests.len() || len == 0 {
                        let end = start + len;
                        return Err(format!("assignment {block} covers {start}..{end} of {} dests", dests.len()));
                    }
                    let file = table.as_ref().ok_or(format!("assignment {block} before the table path"))?;
                    current.store(block, Ordering::Relaxed);
                    let rows = solve_rows(topo, &adj, &dests[start..start + len], cfg.threads, &pool);
                    let mut sums = Vec::with_capacity(8 * len);
                    for (j, (row, sum)) in rows.iter().enumerate() {
                        file.write_all_at(row, layout.row_at(start + j) as u64)
                            .map_err(|e| format!("cannot write block {block}: {e}"))?;
                        sums.extend_from_slice(&sum.to_le_bytes());
                    }
                    current.store(IDLE_BLOCK, Ordering::Relaxed);
                    send(&Msg::BlockResult { block, table: sums })
                        .map_err(|e| format!("cannot send block {block}: {e}"))?;
                    blocks_done += 1;
                }
                Ok(Msg::Shutdown) => {
                    let _ = send(&Msg::Bye { worker: cfg.worker, blocks_done });
                    return Ok(());
                }
                // Coordinator exited (cleanly or not): nothing left to do.
                Err(FrameError::Eof) => return Ok(()),
                Err(e) => return Err(e.to_string()),
                Ok(other) => return Err(format!("unexpected message {other:?}")),
            }
        };
        let result = serve().map_err(|e| format!("worker {}: {e}", cfg.worker));
        stop.store(true, Ordering::Release);
        beat.thread().unpark();
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::RouteTableSet;
    use miro_topology::GenParams;
    use std::sync::Arc;
    use std::time::Instant;

    /// A zeroed file of the job's size, as the coordinator pre-sizes it.
    fn presized(tag: &str, layout: &Layout) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("miro_shard_worker_{}_{tag}.partial", std::process::id()));
        std::fs::File::create(&path).unwrap().set_len(layout.file_len() as u64).unwrap();
        path
    }

    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Drive a worker end-to-end over in-memory byte streams.
    #[test]
    fn worker_solves_blocks_and_drains() {
        let topo = GenParams::tiny(5).generate();
        let dests = crate::sample_dests(topo.num_nodes(), 10);
        let adj = Adjacency::of(&topo);
        let layout = Layout::of(&adj, 10).unwrap();
        let path = presized("drains", &layout);
        let mut script = Vec::new();
        write_frame(&mut script, &Msg::Output { path: path.to_str().unwrap().to_string() }).unwrap();
        write_frame(&mut script, &Msg::Assign { block: 0, start: 0, len: 4 }).unwrap();
        write_frame(&mut script, &Msg::Assign { block: 1, start: 4, len: 6 }).unwrap();
        write_frame(&mut script, &Msg::Shutdown).unwrap();

        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let cfg = WorkerConfig { worker: 9, threads: 2, heartbeat: Duration::from_millis(5) };
        run(&topo, &dests, cfg, &script[..], Shared(out.clone())).expect("worker runs");

        let replies = out.lock().unwrap();
        let mut r = &replies[..];
        let mut results = Vec::new();
        let mut said_hello = false;
        let mut said_bye = false;
        loop {
            match read_frame(&mut r) {
                Ok(Msg::Hello { protocol, worker, adjacency }) => {
                    assert_eq!((protocol, worker), (PROTOCOL_VERSION, 9));
                    assert_eq!(adjacency, layout.header(&dests, &adj)[layout.adjacency_at()..]);
                    said_hello = true;
                }
                // Interval-dependent; zero heartbeats is legal on a fast machine.
                Ok(Msg::Heartbeat { worker, .. }) => assert_eq!(worker, 9),
                Ok(Msg::BlockResult { block, table }) => results.push((block, table)),
                Ok(Msg::Bye { worker, blocks_done }) => {
                    assert_eq!((worker, blocks_done), (9, 2));
                    said_bye = true;
                }
                Err(FrameError::Eof) => break,
                other => panic!("unexpected worker output: {other:?}"),
            }
        }
        assert!(said_hello && said_bye, "hello={said_hello} bye={said_bye}");
        assert_eq!(results.iter().map(|(b, t)| (*b, t.len())).collect::<Vec<_>>(), [(0, 32), (1, 48)]);

        // The rows and the reported checksums are the reference encoding's.
        let reference = RouteTableSet::from_solves(&topo, &dests, 1).encode();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file[layout.rows_at()..layout.row_at(10)], reference[layout.rows_at()..layout.row_at(10)]);
        let sums: Vec<u8> = results.into_iter().flat_map(|(_, t)| t).collect();
        assert_eq!(sums, reference[layout.sums_at()..layout.rows_at()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_or_premature_assignment_and_wrong_file_are_fatal() {
        let topo = GenParams::tiny(5).generate();
        let dests = crate::sample_dests(topo.num_nodes(), 4);
        let cfg = WorkerConfig { worker: 0, threads: 1, heartbeat: Duration::from_secs(10) };
        let fatal = |msg: &Msg| {
            let mut script = Vec::new();
            write_frame(&mut script, msg).unwrap();
            let t0 = Instant::now();
            let err = run(&topo, &dests, cfg, &script[..], Vec::new()).unwrap_err();
            assert!(t0.elapsed() < Duration::from_secs(5), "a fatal error waited out the heartbeat");
            err
        };
        let err = fatal(&Msg::Assign { block: 0, start: 2, len: 10 });
        assert!(err.contains("covers"), "{err}");
        let err = fatal(&Msg::Assign { block: 0, start: 0, len: 2 });
        assert!(err.contains("before the table path"), "{err}");
        let err = fatal(&Msg::Output { path: "/nonexistent/t.partial".to_string() });
        assert!(err.contains("table file"), "{err}");
        // A file of some other job's size is refused before any write.
        let path = presized("wrong", &Layout::of(&Adjacency::of(&topo), 5).unwrap());
        let err = fatal(&Msg::Output { path: path.to_str().unwrap().to_string() });
        assert!(err.contains("this job's table is"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// `run` used to join a heartbeat thread that was inside
    /// `thread::sleep(interval)`: a worker exited one heartbeat late.
    #[test]
    fn shutdown_does_not_wait_out_the_heartbeat() {
        let topo = GenParams::tiny(5).generate();
        let dests = crate::sample_dests(topo.num_nodes(), 4);
        let mut script = Vec::new();
        write_frame(&mut script, &Msg::Shutdown).unwrap();
        let cfg = WorkerConfig { worker: 0, threads: 1, heartbeat: Duration::from_secs(10) };
        let t0 = Instant::now();
        run(&topo, &dests, cfg, &script[..], Vec::new()).expect("clean shutdown");
        assert!(t0.elapsed() < Duration::from_millis(100), "took {:?}", t0.elapsed());
    }
}
