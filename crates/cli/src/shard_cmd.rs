//! `miro shard-solve` / `miro shard-worker` — the CLI face of the
//! sharded whole-table solve service ([`miro_shard`]).
//!
//! `shard-solve` runs the coordinator: it spawns `--workers` copies of
//! this same binary as `shard-worker` subprocesses (a hidden verb),
//! speaks the framed protocol over their stdin/stdout, and has them
//! write their blocks' rows straight into `<out>.partial` — the final
//! binary `RouteTableSet`, pre-sized — which it verifies block by block
//! (journal under `--state`) and renames to `--out` when complete. Kill
//! it mid-run and `shard-solve --resume` picks up where the journal and
//! the partial file left off.
//!
//! ```text
//! miro shard-solve --preset gao2005 --factor 0.5 --workers 4 \
//!     --dests 2048 --block-size 64 --out table.mirt --verify
//! ```

use crate::harness::{host_parallelism, Args, Cmd, Flag, Kind};
use miro_bgp::engine::heavy_blocks_first;
use miro_shard::coordinator::{self, JobSpec, ProcessSpawner};
use miro_shard::format::{RouteTableSet, CELL_BYTES, EXCEPTION_BYTES};
use miro_shard::worker::{self, WorkerConfig};
use miro_shard::{sample_dests, TopoSpec};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub static SOLVE: Cmd = Cmd {
    name: "shard-solve",
    positional: &[],
    flags: &[
        Flag { name: "--preset", kind: Kind::Str, default: "", help: "generated topology (default gao2005)" },
        Flag { name: "--factor", kind: Kind::F64, default: "", help: "multiple of the preset's node count (default 1)" },
        Flag { name: "--seed", kind: Kind::Num, default: "", help: "generation seed (default 42)" },
        Flag { name: "--cache", kind: Kind::Str, default: "", help: "a `miro ingest` cache instead of a preset" },
        Flag { name: "--dests", kind: Kind::Num, default: "0", help: "destinations to sample; 0 is all of them" },
        Flag { name: "--workers", kind: Kind::Num, default: "4", help: "worker subprocesses" },
        Flag { name: "--block-size", kind: Kind::Num, default: "64", help: "destinations per assignment" },
        Flag { name: "--threads", kind: Kind::Num, default: "0", help: "solver threads per worker; 0 divides the machine" },
        Flag { name: "--out", kind: Kind::Str, default: "shard_table.mirt", help: "the finished table (built as <out>.partial)" },
        Flag { name: "--state", kind: Kind::Str, default: "", help: "resume-journal directory (default <out>.state)" },
        Flag { name: "--resume", kind: Kind::Switch, default: "", help: "pick up from the manifest under --state" },
        Flag { name: "--heartbeat-ms", kind: Kind::Num, default: "250", help: "worker heartbeat period" },
        Flag { name: "--deadline-ms", kind: Kind::Num, default: "10000", help: "silence after which a worker is killed" },
        Flag { name: "--respawn", kind: Kind::Num, default: "", help: "worker respawn budget (default --workers)" },
        Flag { name: "--verify", kind: Kind::Switch, default: "", help: "compare the table's bytes to an in-process solve" },
        Flag { name: "--quiet", kind: Kind::Switch, default: "", help: "no per-block progress on stderr" },
        Flag { name: "--chaos-kill-after", kind: Kind::Num, default: "", help: "SIGKILL a worker after N blocks (fault drill)" },
        Flag { name: "--chaos-stop-after", kind: Kind::Num, default: "", help: "abort the coordinator after N blocks (fault drill)" },
    ],
};

pub static WORKER: Cmd = Cmd {
    name: "shard-worker",
    positional: &[],
    flags: &[
        Flag { name: "--preset", kind: Kind::Str, default: "", help: "as shard-solve" },
        Flag { name: "--factor", kind: Kind::F64, default: "", help: "as shard-solve" },
        Flag { name: "--seed", kind: Kind::Num, default: "", help: "as shard-solve" },
        Flag { name: "--cache", kind: Kind::Str, default: "", help: "as shard-solve" },
        Flag { name: "--dests", kind: Kind::Num, default: "0", help: "as shard-solve" },
        Flag { name: "--threads", kind: Kind::Num, default: "1", help: "solver threads" },
        Flag { name: "--heartbeat-ms", kind: Kind::Num, default: "250", help: "heartbeat period" },
        Flag { name: "--worker-id", kind: Kind::Num, default: "0", help: "id echoed in every frame" },
    ],
};

/// The topology `--preset/--factor/--seed` or `--cache` name — the flags
/// `shard-solve`, `shard-worker` and `serve` share, because all three
/// must rebuild exactly the same graph.
pub fn topo_spec(a: &Args) -> Result<TopoSpec, String> {
    let (preset, cache): (Option<String>, Option<String>) = (a.opt("--preset")?, a.opt("--cache")?);
    let (factor, seed): (Option<f64>, Option<u64>) = (a.opt("--factor")?, a.opt("--seed")?);
    Ok(match (cache, preset) {
        (Some(_), Some(_)) => return Err("--cache and --preset are mutually exclusive".into()),
        (Some(path), None) => {
            if factor.is_some() || seed.is_some() {
                return Err("--factor/--seed only apply to --preset topologies".into());
            }
            TopoSpec::Cache { path }
        }
        (None, preset) => TopoSpec::Preset {
            preset: preset.unwrap_or_else(|| "gao2005".into()),
            factor: factor.unwrap_or(1.0),
            seed: seed.unwrap_or(42),
        },
    })
}

/// [`topo_spec`], or `None` when no topology flag is given.
pub fn named_topology(a: &Args) -> Result<Option<TopoSpec>, String> {
    let named = ["--preset", "--factor", "--seed", "--cache"].iter().any(|flag| a.on(flag));
    named.then(|| topo_spec(a)).transpose()
}

/// A spawner of `shard-worker` copies of this binary over `source`,
/// spelled with the flags [`WORKER`] parses.
pub fn worker_spawner(
    source: &TopoSpec,
    sample: usize,
    threads: usize,
    heartbeat_ms: u64,
) -> Result<ProcessSpawner, String> {
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the miro binary for worker spawns: {e}"))?;
    let mut args = vec!["shard-worker".to_string()];
    args.extend(source.to_args());
    let tail = [("--dests", sample as u64), ("--threads", threads as u64), ("--heartbeat-ms", heartbeat_ms)];
    args.extend(tail.iter().flat_map(|(flag, value)| [flag.to_string(), value.to_string()]));
    Ok(ProcessSpawner { program, args })
}

/// Run the coordinator verb. Returns the human-readable report.
pub fn run_solve(args: &[String]) -> Result<String, String> {
    let a = SOLVE.parse(args)?;
    let (workers, block_size): (usize, usize) = (a.get("--workers")?, a.get("--block-size")?);
    let (heartbeat_ms, deadline_ms): (u64, u64) = (a.get("--heartbeat-ms")?, a.get("--deadline-ms")?);
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if block_size == 0 {
        return Err("--block-size must be at least 1".into());
    }
    if deadline_ms <= heartbeat_ms {
        return Err(format!(
            "--deadline-ms ({deadline_ms}) must exceed --heartbeat-ms ({heartbeat_ms}), \
             or every healthy worker looks hung"
        ));
    }
    let source = topo_spec(&a)?;
    let sample: usize = a.get("--dests")?;
    let out = PathBuf::from(a.get::<String>("--out")?);
    let state_dir =
        PathBuf::from(a.opt("--state")?.unwrap_or_else(|| format!("{}.state", out.display())));
    let respawn_budget = a.opt("--respawn")?.unwrap_or(workers);
    let (chaos_kill_after, chaos_stop_after) =
        (a.opt("--chaos-kill-after")?, a.opt("--chaos-stop-after")?);
    // Divide the machine between workers unless told otherwise.
    let threads = match a.get("--threads")? {
        0 => (host_parallelism() / workers).max(1),
        n => n,
    };

    let topo = source.build()?;
    let dests = sample_dests(topo.num_nodes(), sample);
    let mut spawner = worker_spawner(&source, sample, threads, heartbeat_ms)?;

    // Heavy blocks first: the expensive assignments go out early so the
    // job's tail drains over cheap ones (output bytes are unaffected).
    let block_order = Some(heavy_blocks_first(&topo, &dests, block_size));
    let spec = JobSpec {
        dests,
        num_nodes: topo.num_nodes() as u32,
        num_edges: topo.num_edges() as u32,
        block_size,
        block_order,
        workers,
        state_dir,
        out_path: out.clone(),
        resume: a.on("--resume"),
        heartbeat_deadline: Duration::from_millis(deadline_ms),
        respawn_budget,
        chaos_kill_after,
        chaos_stop_after,
        progress: if a.on("--quiet") {
            None
        } else {
            Some(Box::new(move |done, total| {
                eprintln!("shard-solve: {done}/{total} blocks");
            }))
        },
    };

    let report = coordinator::run(&spec, &mut spawner)?;
    let mut text = String::new();
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    let dests_done = spec.dests.len();
    text.push_str(&format!(
        "shard-solve: {} blocks ({} resumed) over {} workers in {:.2}s\n",
        report.blocks, report.resumed, workers, secs
    ));
    text.push_str(&format!(
        "  dests: {dests_done}  nodes: {}  throughput: {:.0} dests/s\n",
        spec.num_nodes,
        dests_done as f64 / secs
    ));
    text.push_str(&format!(
        "  dispatches: {}  deaths: {}  respawns: {}  deadline kills: {}  corrupt frames: {}\n",
        report.dispatches, report.deaths, report.respawns, report.deadline_kills, report.corrupt_events
    ));
    text.push_str(&format!("  merged: {} ({} bytes)\n", out.display(), report.merged_bytes));

    if a.on("--verify") {
        let reference = RouteTableSet::from_solves(&topo, &spec.dests, threads * workers);
        verify_table(&reference, &out).map_err(|e| format!("VERIFY FAILED: {e}"))?;
        text.push_str("  verify: merged table matches single-process solve\n");
    }
    Ok(text)
}

/// Compare the table file at `path` with `reference`'s image through
/// positioned reads of one bounded buffer, so neither side is copied
/// whole. The error names the first byte that differs by what it
/// belongs to: a row and its destination, or the region around the rows.
pub fn verify_table(reference: &RouteTableSet, path: &Path) -> Result<(), String> {
    const CHUNK: usize = 1 << 20;
    let cannot = |e: std::io::Error| format!("cannot re-read {path:?}: {e}");
    let want = reference.as_bytes();
    let file = File::open(path).map_err(cannot)?;
    let len = file.metadata().map_err(cannot)?.len();
    if len != want.len() as u64 {
        return Err(format!("merged table is {len} bytes, single-process solve {} bytes", want.len()));
    }
    let mut buf = vec![0u8; CHUNK.min(want.len())];
    for at in (0..want.len()).step_by(CHUNK) {
        let got = &mut buf[..CHUNK.min(want.len() - at)];
        file.read_exact_at(got, at as u64).map_err(cannot)?;
        if let Some(k) = got.iter().zip(&want[at..]).position(|(a, b)| a != b) {
            return Err(format!(
                "merged table differs from single-process solve at byte {}: {}",
                at + k,
                region(reference, at + k)
            ));
        }
    }
    Ok(())
}

/// What byte `at` of `table`'s file holds.
fn region(table: &RouteTableSet, at: usize) -> String {
    let (l, dests) = (table.layout(), table.dests());
    let ids_at = l.adjacency_at() - 4 * dests.len();
    if at < ids_at {
        "the header".to_string()
    } else if at < l.adjacency_at() {
        let i = (at - ids_at) / 4;
        format!("the id of row {i} (destination {})", dests[i])
    } else if at < l.sums_at() {
        "the adjacency sections".to_string()
    } else if at < l.rows_at() {
        let i = (at - l.sums_at()) / 8;
        format!("the checksum of row {i} (destination {})", dests[i])
    } else if at < l.exceptions_at() {
        let i = (at - l.rows_at()) / l.row_bytes();
        let (r, t) = ((at - l.row_at(i)) / CELL_BYTES, l.num_transit() as usize);
        let adj = table.adjacency();
        match r.checked_sub(t) {
            None => format!("row {i} (destination {}), the cell of AS node {}", dests[i], adj.transit().nth(r).expect("a rank")),
            Some(w) => format!("row {i} (destination {}), the wide slot of AS node {}", dests[i], adj.wide()[w]),
        }
    } else if at < l.file_len() - 8 {
        format!("exception entry {}", (at - l.exceptions_at()) / EXCEPTION_BYTES)
    } else {
        "the whole-file checksum".to_string()
    }
}

/// Run the hidden worker verb over this process's stdin/stdout (the
/// report is empty: stdout carries the protocol).
pub fn run_worker(args: &[String]) -> Result<String, String> {
    let a = WORKER.parse(args)?;
    let cfg = WorkerConfig {
        worker: a.get("--worker-id")?,
        threads: a.get::<usize>("--threads")?.max(1),
        heartbeat: Duration::from_millis(a.get::<u64>("--heartbeat-ms")?.max(1)),
    };
    let sample: usize = a.get("--dests")?;
    let graph = topo_spec(&a)?.build()?;
    let dest_list = sample_dests(graph.num_nodes(), sample);
    worker::run(&graph, &dest_list, cfg, std::io::stdin().lock(), std::io::stdout())?;
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn topology_flags_resolve_to_one_spec() {
        let spec = |args: &[&str]| topo_spec(&SOLVE.parse(&s(args)).unwrap());
        assert_eq!(
            spec(&[]).unwrap(),
            TopoSpec::Preset { preset: "gao2005".into(), factor: 1.0, seed: 42 }
        );
        assert_eq!(
            spec(&["--preset", "internet", "--factor", "0.05", "--seed", "7"]).unwrap(),
            TopoSpec::Preset { preset: "internet".into(), factor: 0.05, seed: 7 }
        );
        assert_eq!(spec(&["--cache", "x.json"]).unwrap(), TopoSpec::Cache { path: "x.json".into() });
        assert!(spec(&["--cache", "x.json", "--preset", "gao2005"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(spec(&["--cache", "x.json", "--factor", "2"]).unwrap_err().contains("only apply"));
        // The worker takes the same flags, so `TopoSpec::to_args` round-trips.
        let preset = TopoSpec::Preset { preset: "gao2003".into(), factor: 0.5, seed: 9 };
        assert_eq!(topo_spec(&WORKER.parse(&preset.to_args()).unwrap()).unwrap(), preset);
    }

    #[test]
    fn solve_validates_before_building_anything() {
        assert!(run_solve(&s(&["--workers", "0"])).unwrap_err().contains("--workers"));
        assert!(run_solve(&s(&["--block-size", "0"])).unwrap_err().contains("--block-size"));
        assert!(run_solve(&s(&["--heartbeat-ms", "500", "--deadline-ms", "100"]))
            .unwrap_err()
            .contains("must exceed"));
        assert!(run_solve(&s(&["--preset", "nosuch", "--factor", "0.01"]))
            .unwrap_err()
            .contains("unknown preset"));
    }
}
