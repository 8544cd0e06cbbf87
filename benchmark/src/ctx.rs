//! What every workload shares: the run context, the input scale, the
//! generated topology, and the shape of a measurement.

use crate::guard::RunDir;
use crate::trace::Tracer;
use miro_shard::TopoSpec;
use miro_topology::gen::DatasetPreset;
use miro_topology::io::stream::{self, IngestCache};
use miro_topology::io::TopologyDoc;
use miro_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Input sizes. The host has two CPUs and a run a few seconds, so these
/// are the ROADMAP chain at `Gao2005` half scale with the fixed-work
/// parts cut to rounds of about a second.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `DatasetPreset::Gao2005` scale factor.
    pub factor: f64,
    /// Destinations in the table the query workloads serve.
    pub served_dests: usize,
    /// Destinations one `table_build` chain solves, and their block size.
    pub build_dests: usize,
    pub block: usize,
    /// Events in the churn trace one round replays.
    pub churn_events: usize,
    /// Destinations per `whatif_sweep` round and variants per destination.
    pub whatif_dests: usize,
    pub whatif_variants: usize,
    /// Destinations given a /20 in the packet workload's LPM.
    pub lpm_dests: usize,
    pub flows: usize,
    pub ring: usize,
    /// `query_hot` key space: sources x destinations x avoided ASes.
    pub hot_sources: usize,
    pub hot_dests: usize,
    pub hot_avoids: usize,
    /// Queries sent before timing starts.
    pub warmup_queries: usize,
    /// Depth-1 round trips sampled for the latency diagnostics.
    pub rtt_samples: usize,
}

pub const FULL: Scale = Scale {
    factor: 0.5,
    served_dests: 1024,
    build_dests: 256,
    block: 16,
    churn_events: 4000,
    whatif_dests: 256,
    whatif_variants: 1024,
    lpm_dests: 2048,
    flows: 4096,
    ring: 131_072,
    hot_sources: 64,
    hot_dests: 32,
    hot_avoids: 8,
    warmup_queries: 32_768,
    rtt_samples: 20_000,
};

/// `--smoke`: the same six workloads and checks on a 209-node graph.
pub const SMOKE: Scale = Scale {
    factor: 0.01,
    served_dests: 64,
    build_dests: 64,
    block: 16,
    churn_events: 600,
    whatif_dests: 32,
    whatif_variants: 128,
    lpm_dests: 0,
    flows: 256,
    ring: 8192,
    hot_sources: 16,
    hot_dests: 8,
    hot_avoids: 4,
    warmup_queries: 2048,
    rtt_samples: 1000,
};

/// Seed of the dataset: the topology, and which links the churn trace
/// flaps. Fixed, the way a benchmark ships a data file, because the
/// driver measures run-to-run spread across `--seed` values and the
/// shape of a graph moves every number by more than any bound here.
/// `--seed` drives what arrives at the system at run time: query keys,
/// event timing, failed links, flows.
pub const DATASET_SEED: u64 = 42;

pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    /// The `miro` binary under test.
    pub miro: PathBuf,
    pub run: RunDir,
}

/// The topology every workload runs on, as the programs under test see
/// it: generated from [`DATASET_SEED`], rendered to text, parsed back by the
/// streaming ingest path and written as an ingest cache. Node ids are
/// the cache's, so in-process oracles and the `miro` subprocesses (which
/// receive only the cache file) agree on them.
pub struct Inputs {
    pub topo: Topology,
    pub cache_path: PathBuf,
}

impl Inputs {
    pub fn prepare(ctx: &Ctx, tr: &mut Tracer) -> Result<Inputs, String> {
        let generated = tr.span("topology.gen.generate", 0, |_| {
            DatasetPreset::Gao2005
                .params(ctx.scale.factor, DATASET_SEED)
                .generate()
        });
        let text = tr.span("topology.io.to_text", 0, |_| {
            miro_topology::io::to_text(&generated)
        });
        tr.count("topology.io.text_bytes", text.len() as u64);
        let (parsed, stats) = tr
            .span("topology.io.parse", 0, |_| {
                stream::parse(std::io::Cursor::new(text.as_bytes()))
            })
            .map_err(|e| format!("generated topology does not parse: {e}"))?;
        let cache_path = ctx.run.path().join("topo.cache.json");
        tr.span("topology.io.cache_write", 0, |_| {
            let cache = IngestCache::new(
                "benchmark".into(),
                "generated".into(),
                stats,
                TopologyDoc::of(&parsed),
            );
            let json = serde_json::to_string(&cache).map_err(|e| e.to_string())?;
            std::fs::write(&cache_path, json)
                .map_err(|e| format!("cannot write {cache_path:?}: {e}"))
        })?;
        let topo = tr.span("topology.io.cache_load", 0, |_| {
            Inputs::spec_of(&cache_path).build()
        })?;
        Ok(Inputs { topo, cache_path })
    }

    fn spec_of(cache_path: &std::path::Path) -> TopoSpec {
        TopoSpec::Cache {
            path: cache_path.to_string_lossy().into_owned(),
        }
    }

    /// How a `miro` subprocess is told to load this topology.
    pub fn spec(&self) -> TopoSpec {
        Inputs::spec_of(&self.cache_path)
    }
}

/// The `count` highest-degree nodes, ties by lowest ASN: the "popular
/// prefixes" rule `churn::replay_delta` uses.
pub fn top_degree(topo: &Topology, count: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = topo.nodes().collect();
    nodes.sort_by_key(|&x| (std::cmp::Reverse(topo.degree(x)), topo.asn(x).0));
    nodes.truncate(count.max(1));
    nodes
}

/// One measured pass of a workload.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Operations per second, and CPU microseconds per operation, of
    /// each round; `stats::fast_rate` / `fast_cost` of them is reported.
    pub round_rates: Vec<f64>,
    pub round_cpu_us: Vec<f64>,
    /// Time of each timed unit (chain, window, batch, destination,
    /// burst), in microseconds. Kept under a live tracer only: the list
    /// grows with the rounds a pass completes, by a megabyte on the
    /// in-process workloads, and `peak_rss_mb` must not measure it.
    pub unit_us: Vec<f64>,
    /// Operations completed and the wall time they took.
    pub ops: u64,
    pub wall_s: f64,
    /// CPU seconds of the processes doing the work.
    pub cpu_s: f64,
    /// Peak resident set of the largest of them, KiB.
    pub peak_rss_kb: u64,
    /// Operations attempted, and those that failed, were refused, or
    /// disagreed with the oracle.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Book one finished round: `ops` operations in `wall_s` seconds
    /// that cost the processes doing the work `cpu_s` CPU seconds.
    pub fn round(&mut self, ops: u64, wall_s: f64, cpu_s: f64) {
        self.round_rates.push(ops as f64 / wall_s);
        self.round_cpu_us.push(cpu_s * 1e6 / ops as f64);
        self.ops += ops;
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
    }

    /// Append a later pass of the same workload.
    pub fn absorb(&mut self, later: Measured) {
        self.round_rates.extend(later.round_rates);
        self.round_cpu_us.extend(later.round_cpu_us);
        self.unit_us.extend(later.unit_us);
        self.ops += later.ops;
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.peak_rss_kb = self.peak_rss_kb.max(later.peak_rss_kb);
        self.attempted += later.attempted;
        self.failed += later.failed;
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A workload: set-up, a measured loop, and layer probes.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Build everything the measured loop needs. Timed as `setup_s`.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String>;

    /// Run the loop for about `seconds` (at least one round), checking
    /// outputs against the workload's oracle. A traced run calls this
    /// several times; what `probes` needs from the calls given a live
    /// tracer adds up across them.
    fn measure(&mut self, ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String>;

    /// Time the layers this workload exercises, one public function at
    /// a time, on the workload's own inputs.
    fn probes(
        &mut self,
        ctx: &Ctx,
        traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// Seconds `f` takes.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
