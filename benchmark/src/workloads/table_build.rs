//! `table_build`: the ROADMAP chain, cold to first answer.
//!
//! `shard::coordinator::run` over two `miro shard-worker` processes ->
//! merged `RouteTableSet` file -> `miro serve` (verified open) -> port
//! file -> `Hello`/`Welcome` -> one `Path` query answered. The only
//! workload where the shard service (pipes, double FNV, spool + merge,
//! per-worker topology load) and the daemon's start own the time.

use crate::client::Client;
use crate::ctx::{timed, top_degree, Ctx, Inputs, Layers, Measured, Workload};
use crate::guard::spawn_daemon;
use crate::keys::Rng;
use crate::procfs::{self, Who};
use crate::stats::fast_cost;
use crate::trace::Tracer;
use crate::workloads::probes;
use miro_bgp::engine::heavy_blocks_first;
use miro_bgp::RoutingState;
use miro_serve::wire::WireMsg;
use miro_shard::coordinator::{self, JobReport, JobSpec, ProcessSpawner};
use miro_shard::format::RouteTableSet;
use miro_shard::protocol::{encode_frame, read_frame, Msg};
use miro_shard::sample_dests;
use miro_topology::NodeId;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;

pub struct TableBuild {
    inputs: Inputs,
    dests: Vec<NodeId>,
    /// The first query `(src, dest)` and its expected answer, as ASNs.
    probe: (u32, u32),
    expected_path: Vec<u32>,
    /// Oracle: a file holding what the merged file must hold, byte for
    /// byte. On disk so that this process, which is also the
    /// coordinator, has the coordinator's memory footprint.
    reference: Option<PathBuf>,
    table_path: PathBuf,
    reports: Vec<JobReport>,
    spool_bytes: u64,
}

impl TableBuild {
    /// One chain. Returns its wall time; the daemon is stopped and
    /// reaped before returning so its CPU is on this process's books.
    fn chain(
        &mut self,
        ctx: &Ctx,
        req: u64,
        tr: &mut Tracer,
    ) -> Result<(Duration, Vec<u32>), String> {
        let state_dir = ctx.run.fresh("shard.state")?;
        let _ = std::fs::remove_file(&self.table_path);
        let topo = &self.inputs.topo;
        let mut worker_args = vec!["shard-worker".to_string()];
        worker_args.extend(self.inputs.spec().to_args());
        worker_args.extend(
            [
                "--dests",
                &self.dests.len().to_string(),
                "--threads",
                "1",
                "--heartbeat-ms",
                "250",
            ]
            .map(String::from),
        );
        let mut spawner = ProcessSpawner {
            program: ctx.miro.clone(),
            args: worker_args,
        };
        let spec = JobSpec {
            dests: self.dests.clone(),
            num_nodes: topo.num_nodes() as u32,
            num_edges: topo.num_edges() as u32,
            block_size: ctx.scale.block,
            block_order: Some(heavy_blocks_first(topo, &self.dests, ctx.scale.block)),
            workers: WORKERS,
            state_dir: state_dir.clone(),
            out_path: self.table_path.clone(),
            resume: false,
            heartbeat_deadline: Duration::from_secs(10),
            respawn_budget: WORKERS,
            chaos_kill_after: None,
            chaos_stop_after: None,
            progress: None,
        };

        let start = Instant::now();
        let whole = tr.enter("table_build.chain", req);
        let report = tr.span("shard.coordinator.run", req, |_| {
            coordinator::run(&spec, &mut spawner)
        })?;
        let daemon = tr.span("serve.server.spawn", req, |_| {
            spawn_daemon(
                &ctx.miro,
                &self.table_path,
                &self.inputs.cache_path,
                ctx.run.path(),
            )
        })?;
        let mut client = tr.span("serve.server.connect", req, |_| {
            Client::connect(daemon.addr)
        })?;
        let (src, dest) = self.probe;
        let reply = tr.span("serve.query.first_path", req, |_| {
            client.call(&WireMsg::Path { id: req, src, dest })
        })?;
        tr.exit(whole);
        let wall = start.elapsed();

        drop(client);
        daemon.guard.stop();
        self.spool_bytes = dir_bytes(&state_dir) + report.merged_bytes as u64;
        self.reports.push(report);
        match reply {
            WireMsg::RPath { path, .. } => Ok((wall, path)),
            other => Err(format!("first query answered {other:?}, not a path")),
        }
    }

    /// Write the oracle file once, outside every timed region.
    fn reference(&mut self, ctx: &Ctx) -> Result<PathBuf, String> {
        if let Some(path) = &self.reference {
            return Ok(path.clone());
        }
        let path = ctx.run.path().join("reference.mirt");
        let bytes = RouteTableSet::from_solves(&self.inputs.topo, &self.dests, 2).encode();
        std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        self.reference = Some(path.clone());
        Ok(path)
    }
}

/// Are two files byte-identical? Streamed, so neither is held whole.
pub fn same_bytes(a: &Path, b: &Path) -> Result<bool, String> {
    let open = |p: &Path| std::fs::File::open(p).map_err(|e| format!("cannot open {p:?}: {e}"));
    let (mut fa, mut fb) = (open(a)?, open(b)?);
    let len = |f: &std::fs::File, p: &Path| {
        f.metadata()
            .map(|m| m.len())
            .map_err(|e| format!("{p:?}: {e}"))
    };
    if len(&fa, a)? != len(&fb, b)? {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = fa
            .read(&mut ba)
            .map_err(|e| format!("cannot read {a:?}: {e}"))?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])
            .map_err(|e| format!("cannot read {b:?}: {e}"))?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for TableBuild {
    const NAME: &'static str = "table_build";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<TableBuild, String> {
        let inputs = Inputs::prepare(ctx, tr)?;
        let topo = &inputs.topo;
        let dests = sample_dests(topo.num_nodes(), ctx.scale.build_dests);
        // The first query: a seeded pair of a busy source and a served
        // destination that has a route (not every pair is valley-free
        // connected).
        let mut rng = Rng::new(ctx.seed);
        let sources = top_degree(topo, 64);
        let (probe, expected_path) = loop {
            let (src, dest) = (
                sources[rng.below(sources.len())],
                dests[rng.below(dests.len())],
            );
            if let Some(hops) = RoutingState::solve(topo, dest)
                .path(src)
                .filter(|h| !h.is_empty())
            {
                let asn = |n: NodeId| topo.asn(n).0;
                break (
                    (asn(src), asn(dest)),
                    std::iter::once(src).chain(hops).map(asn).collect(),
                );
            }
        };
        let table_path = ctx.run.path().join("table.mirt");
        Ok(TableBuild {
            inputs,
            dests,
            probe,
            expected_path,
            reference: None,
            table_path,
            reports: Vec::new(),
            spool_bytes: 0,
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String> {
        let reference = self.reference(ctx)?;
        let dests = self.dests.len() as u64;
        let mut m = Measured::default();
        let start = Instant::now();
        // Fixed work per chain.
        while m.round_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let req = m.round_rates.len() as u64;
            let cpu0 = procfs::cpu_me_and_children();
            let (wall, path) = self.chain(ctx, req, tr)?;
            m.round(
                dests,
                wall.as_secs_f64(),
                procfs::cpu_me_and_children() - cpu0,
            );
            if tr.is_on() {
                m.unit_us.push(wall.as_secs_f64() * 1e6);
            }

            // Oracle, after the clock and the CPU reading stopped.
            m.attempted += dests + 1;
            m.failed += if same_bytes(&self.table_path, &reference)? {
                0
            } else {
                dests
            };
            m.failed += (path != self.expected_path) as u64;
        }
        m.peak_rss_kb = procfs::vm_hwm_kb(std::process::id())?
            .max(procfs::usage(Who::ReapedChildren).max_rss_kb);
        Ok(m)
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        _traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let topo = &self.inputs.topo;
        let run_s = fast_cost(&tr.all_secs("shard.coordinator.run"));
        out.insert("shard.coordinator.run_s", run_s);
        out.insert(
            "serve.server.spawn_ms",
            fast_cost(&tr.all_secs("serve.server.spawn")) * 1e3,
        );

        // The in-process reference on the same destinations, one thread:
        // solve, encode, write.
        let (set, from_solves_s) = probes::solver(topo, &self.dests, tr, out);
        let probe_file = ctx.run.path().join("probe.mirt");
        let (mut encode_s, mut encode_write_s) = (Vec::new(), Vec::new());
        let mut bytes = Vec::new();
        for _ in 0..probes::REFERENCE_REPS {
            let (encoded, e) = tr.span("shard.format.encode", 0, |_| timed(|| set.encode()));
            bytes = encoded;
            let (written, w) = timed(|| std::fs::write(&probe_file, &bytes));
            written.map_err(|e| format!("cannot write {probe_file:?}: {e}"))?;
            encode_s.push(e);
            encode_write_s.push(e + w);
        }
        let (decoded, decode_s) = tr.span("shard.format.decode", 0, |_| {
            timed(|| RouteTableSet::decode(&bytes))
        });
        if decoded? != set {
            return Err("RouteTableSet does not survive encode + decode".to_string());
        }
        let mb = bytes.len() as f64 / 1e6;
        out.insert("shard.format.from_solves_s", from_solves_s);
        out.insert("shard.format.encode_mb_per_s", mb / fast_cost(&encode_s));
        out.insert("shard.format.decode_mb_per_s", mb / decode_s);
        out.insert(
            "shard.format.bytes_per_dest",
            bytes.len() as f64 / self.dests.len() as f64,
        );
        out.insert(
            "shard.overhead_ratio",
            run_s / (from_solves_s + fast_cost(&encode_write_s)),
        );

        // One block-sized result through the worker -> coordinator codec.
        let block = RouteTableSet::from_solves(
            topo,
            &self.dests[..ctx.scale.block.min(self.dests.len())],
            1,
        )
        .encode();
        let block_mb = block.len() as f64 / 1e6;
        let msg = Msg::BlockResult {
            block: 0,
            table: block,
        };
        let (back, frame_s) = tr.span("shard.protocol.frame", 0, |_| {
            timed(|| read_frame(&mut std::io::Cursor::new(encode_frame(&msg))))
        });
        if back.map_err(|e| e.to_string())? != msg {
            return Err("BlockResult does not survive the frame codec".to_string());
        }
        out.insert("shard.protocol.frame_mb_per_s", block_mb / frame_s);
        let (sum, fnv_s) = tr.span("shard.fnv1a", 0, |_| timed(|| miro_shard::fnv1a(&bytes)));
        std::hint::black_box(sum);
        out.insert("shard.fnv1a_mb_per_s", mb / fnv_s);

        out.insert("shard.spool_bytes_written", self.spool_bytes as f64);
        let total = |f: fn(&JobReport) -> usize| self.reports.iter().map(f).sum::<usize>() as f64;
        out.insert("shard.coordinator.deaths", total(|r| r.deaths));
        out.insert("shard.coordinator.respawns", total(|r| r.respawns));
        out.insert(
            "shard.coordinator.corrupt_frames",
            total(|r| r.corrupt_events),
        );

        probes::mmap(&probe_file, tr, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_fails_the_table_oracle() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let topo = miro_topology::GenParams::tiny(7).generate();
        let dests = sample_dests(topo.num_nodes(), 16);
        let mut bytes = RouteTableSet::from_solves(&topo, &dests, 1).encode();
        let (good, twin, bad, short) = (dir.join("a"), dir.join("b"), dir.join("c"), dir.join("d"));
        std::fs::write(&good, &bytes).unwrap();
        std::fs::write(&twin, &bytes).unwrap();
        std::fs::write(&short, &bytes[..bytes.len() - 1]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&bad, &bytes).unwrap();
        assert!(same_bytes(&good, &twin).unwrap());
        assert!(!same_bytes(&good, &bad).unwrap());
        assert!(!same_bytes(&good, &short).unwrap());
        assert!(same_bytes(&good, &dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
