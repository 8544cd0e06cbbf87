//! `miro bench-solver` — whole-network solve timing across scales, from
//! the 209-node smoke graph up to the 70k-AS `internet` preset.
//!
//! For each scale, generates the preset topology and solves the
//! stable state for *every* destination twice:
//!
//! * **bucket** — the level-synchronous CSR kernel behind
//!   [`miro_bgp::engine::par_over_dests`] (the row keys keep the name
//!   of the bucket queue it replaced): per-thread scratch arenas,
//!   lock-free deterministic merge;
//! * **heap** — the retained [`miro_bgp::solver::reference`] engine,
//!   driven the way the pre-CSR code drove it: a fresh `BinaryHeap` and
//!   routing table allocated per destination, results pushed through a
//!   shared `Mutex<Vec>`, always at 1 thread (it is the fixed historical
//!   baseline, and may be stride-sampled — comparisons against it are
//!   per-destination-normalized and labeled `heap_sampled`).
//!
//! The bucket engine runs [`REPS`] times per entry in the `--threads`
//! list (default `1,2,4,8,16`), producing one thread-scaling row each:
//! `threads`, the fastest wall `ms` (also `min_ms`), `median_ms`,
//! `spread`, `speedup_vs_1t`, and parallel `efficiency`
//! (speedup over the thread count, capped at the machine's available
//! parallelism so a core-starved host isn't blamed for not scaling).
//! Beside them, `row_ms_per_dest` times the same destinations on one
//! thread as route-table rows ([`miro_bgp::engine::ScratchPool::over_rows`]:
//! the three sweeps without the pull pass, which a table leaves to its
//! readers), so the report shows where a full solve's time goes.
//! The bench asserts every engine/thread-count combination agrees before
//! reporting. Results are written to `BENCH_solver.json` (see `--out`)
//! so CI can track the perf trajectory; `--check-scaling F` turns the
//! multi-thread efficiency rows into a hard CI gate.
//!
//! The `delta` suite times the what-if workload on top: for each sampled
//! destination, one cached base solve plus N random single-link tree
//! failures answered via the incremental delta engine
//! ([`WhatIf::without_link`]), against the same failures
//! answered by full masked re-solves (`solve_without_link_into`, itself
//! allocation-free). Both paths answer the same query per event and the
//! bench asserts the answers agree. `--check-delta-speedup F` turns the
//! reported speedup into a hard gate for CI.

use crate::harness::{self, gate, host_parallelism, ms, Cmd, Flag, Kind, Reps, Rng, TempPath, SEED};
use miro_bgp::engine::{par_over_dests, ScratchPool, WhatIf};
use miro_bgp::solver::{reference, DeltaScratch, RoutingState, SolveScratch};
use miro_topology::{NodeId, Topology};
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub static CMD: Cmd = Cmd {
    name: "bench-solver",
    positional: &[],
    flags: &[
        Flag { name: "--scale", kind: Kind::Str, default: "all", help: "comma-separated scales; `all` is the CI-sized ones" },
        Flag { name: "--threads", kind: Kind::UsizeList, default: "1,2,4,8,16", help: "bucket-engine thread counts, one row each" },
        Flag { name: "--out", kind: Kind::Str, default: "BENCH_solver.json", help: "where the JSON lands" },
        Flag { name: "--check-delta-speedup", kind: Kind::F64, default: "", help: "fail under this incremental-vs-full speedup" },
        Flag { name: "--check-scaling", kind: Kind::F64, default: "", help: "fail under this multi-thread efficiency" },
        Flag { name: "--shard-workers", kind: Kind::Num, default: "0", help: "also time the sharded table build over N workers" },
        Flag { name: "--list", kind: Kind::Switch, default: "", help: "print scales, row schemas and flags; run nothing" },
    ],
};

/// What `bench-solver` adds to a [`harness::Scale`]. `internet` is run on
/// demand (`--scale internet`), not as part of `all` — a whole-network
/// bucket sweep over 70k destinations is minutes of work, not CI material.
#[derive(Debug)]
struct Scale {
    name: &'static str,
    /// Included in `--scale all`.
    in_all: bool,
    /// The heap baseline solves every `heap_stride`-th destination. 1
    /// means the full sweep; `internet` samples, because the per-solve
    /// allocating baseline would take roughly an hour there while the
    /// bucket engine finishes in minutes. Speedups are normalized
    /// per-destination, so sampled and full rows stay comparable.
    heap_stride: usize,
}

const SCALES: &[Scale] = &[
    Scale { name: "tiny", in_all: false, heap_stride: 1 },
    Scale { name: "small", in_all: true, heap_stride: 1 },
    Scale { name: "medium", in_all: true, heap_stride: 1 },
    Scale { name: "large", in_all: true, heap_stride: 1 },
    Scale { name: "internet", in_all: false, heap_stride: 64 },
];

/// Timing repetitions per row, at every scale: `ms` (= `min_ms`) is the
/// fastest, `median_ms` the median, `spread` (slowest − fastest) / median.
const REPS: usize = 3;

/// One bucket-engine timing at one thread count. `speedup_vs_1t` and
/// `efficiency` are `null` when the ladder had no 1-thread reference.
#[derive(Serialize)]
struct ThreadRow {
    threads: usize,
    ms: f64,
    min_ms: f64,
    median_ms: f64,
    spread: f64,
    speedup_vs_1t: Option<f64>,
    /// `speedup_vs_1t / min(threads, cores)`: the denominator is capped
    /// at the machine's available parallelism so rows measured on a
    /// core-starved host (or oversubscribed thread counts) are judged
    /// against what the hardware could ever deliver.
    efficiency: Option<f64>,
}

/// The 1-thread heap baseline; `sampled` when it was stride-sampled
/// rather than a full sweep (`dests` is how many it solved).
#[derive(Serialize)]
struct HeapRow {
    threads: usize,
    dests: usize,
    sampled: bool,
    ms: f64,
    min_ms: f64,
    median_ms: f64,
    spread: f64,
    ms_per_dest: f64,
}

#[derive(Serialize)]
struct ScaleRow {
    scale: &'static str,
    preset: &'static str,
    preset_scale: f64,
    nodes: usize,
    edges: usize,
    dests: usize,
    reps: usize,
    /// Thread-scaling rows, one per `--threads` entry, in list order.
    rows: Vec<ThreadRow>,
    heap: HeapRow,
    /// 1-thread bucket ms per destination (the single-solve latency the
    /// frontier packing attacks); the first row's when the ladder
    /// skipped 1 thread.
    bucket_ms_per_dest: f64,
    /// 1-thread ms per destination of the row solve (no pull pass), the
    /// fastest of [`REPS`].
    row_ms_per_dest: f64,
    heap_ms_per_dest: f64,
    /// The honest apples-to-apples figure whatever the sampling.
    speedup_per_dest: f64,
}

/// The what-if suite result for one scale.
#[derive(Serialize)]
struct DeltaRow {
    scale: &'static str,
    threads: usize,
    dests: usize,
    events: usize,
    /// Mean nodes re-routed per event.
    mean_cone: f64,
    incremental_ms: f64,
    full_ms: f64,
    delta_speedup: f64,
}

/// The sharded whole-table suite result for one scale (only with
/// `--shard-workers N`, which needs the real `miro` binary on argv[0]
/// so workers can be spawned — the default 0 skips it).
#[derive(Serialize)]
struct ShardRow {
    scale: &'static str,
    workers: usize,
    /// Solver threads each worker subprocess runs with (the thread
    /// budget split across workers).
    threads_per_worker: usize,
    dests: usize,
    blocks: usize,
    deaths: usize,
    table_bytes: usize,
    /// Fastest sharded wall (= `min_ms`) and in-process wall, each of
    /// [`REPS`] runs; `median_ms` and `spread` are the sharded walls'.
    sharded_ms: f64,
    min_ms: f64,
    median_ms: f64,
    spread: f64,
    single_ms: f64,
    shard_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    engine: &'static str,
    baseline: &'static str,
    seed: u64,
    scales: Vec<ScaleRow>,
    delta: Vec<DeltaRow>,
    shard: Vec<ShardRow>,
}

/// Hard cap on `--threads`: beyond this the run is certainly a typo, and
/// `std::thread::scope` would happily spawn them all.
const MAX_THREADS: usize = 1024;

/// Entry point for `miro bench-solver`. Returns the human-readable
/// report; the JSON lands in `--out`.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let out_path: String = a.get("--out")?;
    let (check_delta, check_scaling) = (a.opt("--check-delta-speedup")?, a.opt("--check-scaling")?);
    let shard_workers: usize = a.get("--shard-workers")?;
    let thread_counts = a.list("--threads")?;
    if let Some(t) = thread_counts.iter().find(|&&t| t > MAX_THREADS) {
        return Err(format!("--threads {t} is absurd (max {MAX_THREADS})"));
    }

    if a.on("--list") {
        let mut out = String::from("bench-solver scales:\n");
        for sc in SCALES {
            let _ = writeln!(
                out,
                "{} reps={REPS} in_all={} heap_stride={}",
                harness::scale(sc.name)?,
                sc.in_all,
                sc.heap_stride
            );
        }
        out.push_str("row schemas:\n");
        out.push_str(
            "  scales[]       = {scale, preset, preset_scale, nodes, edges, dests, reps, \
             rows[], heap{}, bucket_ms_per_dest, row_ms_per_dest, heap_ms_per_dest, speedup_per_dest}\n",
        );
        out.push_str(
            "  scales[].rows[] = {threads, ms, min_ms, median_ms, spread, speedup_vs_1t, efficiency}\n",
        );
        out.push_str(
            "  scales[].heap   = {threads, dests, sampled, ms, min_ms, median_ms, spread, ms_per_dest}\n",
        );
        out.push_str(
            "  delta[]        = {scale, threads, dests, events, mean_cone, incremental_ms, \
             full_ms, delta_speedup}\n",
        );
        out.push_str(
            "  shard[]        = {scale, workers, threads_per_worker, dests, blocks, deaths, \
             table_bytes, sharded_ms, min_ms, median_ms, spread, single_ms, shard_speedup}\n",
        );
        out.push_str(&CMD.usage());
        return Ok(out);
    }

    let selected = select_scales(&a.get::<String>("--scale")?)?;

    let mut report = format!(
        "bench-solver: whole-network solves, threads {}\n",
        thread_counts.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
    );
    let mut json = Report {
        bench: "solver-whole-network",
        engine: "csr-level-synchronous-sink-pull",
        baseline: "heap-per-solve-alloc (1 thread, stride-sampled)",
        seed: SEED,
        scales: Vec::new(),
        delta: Vec::new(),
        shard: Vec::new(),
    };
    for sc in selected {
        let base = harness::scale(sc.name)?;
        let topo = base.preset.params(base.factor, SEED).generate();
        let row = time_engines(sc, base, &topo, &thread_counts);
        let sampled = if row.heap.sampled {
            format!(" (heap sampled {} dests)", row.heap.dests)
        } else {
            String::new()
        };
        let _ = writeln!(
            report,
            "  {:<8} {:>6} nodes {:>6} links | heap(1t) {:>9.2} ms | {:.2}x per dest{}",
            row.scale, row.nodes, row.edges, row.heap.ms, row.speedup_per_dest, sampled
        );
        let _ = writeln!(
            report,
            "  {:<8}   per dest (1t) | full solve {:>7.1} us | row solve, no pull pass {:>7.1} us ({:.2}x)",
            row.scale,
            row.bucket_ms_per_dest * 1e3,
            row.row_ms_per_dest * 1e3,
            row.row_ms_per_dest / row.bucket_ms_per_dest.max(1e-12),
        );
        for tr in &row.rows {
            let vs = tr.speedup_vs_1t.map_or("     -".to_string(), |s| format!("{s:5.2}x"));
            let eff = tr.efficiency.map_or("   -".to_string(), |e| format!("{e:4.2}"));
            let _ = writeln!(
                report,
                "  {:<8}   bucket {:>2}t | {:>9.2} ms | vs 1t {vs} | eff {eff}",
                row.scale, tr.threads, tr.ms,
            );
        }
        json.scales.push(row);

        let drow = time_delta_suite(sc.name, &topo);
        let _ = writeln!(
            report,
            "  {:<8} delta: {} dests x {} failures | incremental {:>9.2} ms | full {:>9.2} ms | {:.2}x | mean cone {:.1}",
            drow.scale,
            drow.dests,
            drow.events / drow.dests.max(1),
            drow.incremental_ms,
            drow.full_ms,
            drow.delta_speedup,
            drow.mean_cone,
        );
        json.delta.push(drow);

        if shard_workers > 0 {
            let budget = thread_counts.iter().copied().max().unwrap_or(1);
            let srow = time_shard_suite(base, &topo, shard_workers, budget)?;
            let _ = writeln!(
                report,
                "  {:<8} shard: {} dests / {} blocks over {} workers | sharded {:>9.2} ms (median {:.2}, spread {:.2}) | single {:>9.2} ms | {:.2}x | deaths {}",
                srow.scale,
                srow.dests,
                srow.blocks,
                srow.workers,
                srow.sharded_ms,
                srow.median_ms,
                srow.spread,
                srow.single_ms,
                srow.shard_speedup,
                srow.deaths,
            );
            json.shard.push(srow);
        }
    }

    report.push_str(&harness::emit(&out_path, &json)?);

    for d in &json.delta {
        gate(&format!("scale {}: delta speedup", d.scale), d.delta_speedup, check_delta)?;
    }
    if check_scaling.is_some() {
        let mut gated = 0;
        for r in &json.scales {
            for tr in r.rows.iter().filter(|tr| tr.threads > 1) {
                gated += 1;
                let eff = tr.efficiency.ok_or(
                    "--check-scaling needs a 1-thread reference row (include 1 in --threads)",
                )?;
                let what = format!("scale {}, {} threads: parallel efficiency", r.scale, tr.threads);
                gate(&what, eff, check_scaling)?;
            }
        }
        if gated == 0 {
            return Err(
                "--check-scaling gated nothing: include a multi-thread count in --threads"
                    .to_string(),
            );
        }
    }
    Ok(report)
}

/// Resolve `--scale`: a comma-separated list of scale names, where `all`
/// expands to the CI-sized scales (`--scale all,internet` records
/// everything). Repeats are deduplicated — `all,internet,internet` runs
/// the internet row once — but an unknown name anywhere in the list is
/// still an error, even alongside valid ones.
fn select_scales(scale: &str) -> Result<Vec<&'static Scale>, String> {
    let mut selected: Vec<&'static Scale> = Vec::new();
    let mut push = |sc: &'static Scale| {
        if !selected.iter().any(|have| std::ptr::eq(*have, sc)) {
            selected.push(sc);
        }
    };
    for part in scale.split(',') {
        if part == "all" {
            SCALES.iter().filter(|sc| sc.in_all).for_each(&mut push);
        } else {
            harness::scale(part)?;
            push(SCALES.iter().find(|sc| sc.name == part).expect("every harness scale has a row"));
        }
    }
    Ok(selected)
}

/// Time the bucket engine once per thread count in `thread_counts`
/// (best of [`REPS`] each), plus the 1-thread heap baseline over every
/// `heap_stride`-th destination, and fold the timings into the scale's
/// JSON row: per-thread speedups against the 1-thread wall (if the ladder
/// had one) and the per-destination bucket-vs-heap figures. Panics if any
/// engine/thread-count combination disagrees with another on a
/// destination both solved.
fn time_engines(
    sc: &Scale,
    base: &harness::Scale,
    topo: &Topology,
    thread_counts: &[usize],
) -> ScaleRow {
    let dests: Vec<NodeId> = topo.nodes().collect();
    let stride = sc.heap_stride.max(1);
    let heap_dests: Vec<NodeId> = dests.iter().copied().step_by(stride).collect();

    let mut walls: Vec<(usize, Reps)> = Vec::with_capacity(thread_counts.len());
    let mut reference: Option<Vec<usize>> = None;
    for &threads in thread_counts {
        let (reps, fast) = Reps::time(REPS, || par_over_dests(topo, &dests, threads, |_, st| st.reachable_count()));
        let want = reference.get_or_insert_with(|| fast.clone());
        assert_eq!(&fast, want, "bucket engine at {threads} threads diverged from {} threads", thread_counts[0]);
        walls.push((threads, reps));
    }
    let fast = reference.expect("at least one thread count");

    let pool = ScratchPool::for_nodes(topo.num_nodes());
    let (row_solve, _) = Reps::time(REPS, || pool.over_rows(topo, &dests, 1, |i, st| st.cell(dests[i])));
    let (heap, slow) = Reps::time(REPS, || heap_whole_network(topo, &heap_dests, 1));
    for (i, s) in slow.iter().enumerate() {
        let full_idx = i * stride;
        assert_eq!(
            fast[full_idx], *s,
            "bucket and heap engines disagreed at destination index {full_idx}"
        );
    }

    let t1 = walls.iter().find(|(t, _)| *t == 1).map(|(_, w)| w.min.as_secs_f64());
    let cores = host_parallelism();
    let rows = walls
        .iter()
        .map(|(threads, wall)| {
            let speedup = t1.map(|t1| t1 / wall.min.as_secs_f64().max(1e-12));
            let ideal = (*threads).min(cores).max(1) as f64;
            ThreadRow {
                threads: *threads,
                ms: ms(wall.min),
                min_ms: ms(wall.min),
                median_ms: ms(wall.median),
                spread: wall.spread,
                speedup_vs_1t: speedup,
                efficiency: speedup.map(|s| s / ideal),
            }
        })
        .collect();
    let heap_ms_per_dest = ms(heap.min) / heap_dests.len().max(1) as f64;
    let bucket_wall = t1.unwrap_or_else(|| walls[0].1.min.as_secs_f64());
    let bucket_ms_per_dest = bucket_wall * 1e3 / dests.len().max(1) as f64;
    ScaleRow {
        scale: sc.name,
        preset: base.slug,
        preset_scale: base.factor,
        nodes: dests.len(),
        edges: topo.num_edges(),
        dests: dests.len(),
        reps: REPS,
        rows,
        heap: HeapRow {
            threads: 1,
            dests: heap_dests.len(),
            sampled: heap_dests.len() != dests.len(),
            ms: ms(heap.min),
            min_ms: ms(heap.min),
            median_ms: ms(heap.median),
            spread: heap.spread,
            ms_per_dest: heap_ms_per_dest,
        },
        bucket_ms_per_dest,
        row_ms_per_dest: ms(row_solve.min) / dests.len().max(1) as f64,
        heap_ms_per_dest,
        speedup_per_dest: heap_ms_per_dest / bucket_ms_per_dest.max(1e-12),
    }
}

/// The pre-CSR driver shape: heap solver, fresh allocations per solve,
/// results pushed through a shared mutex, sorted back into order.
fn heap_whole_network(topo: &Topology, dests: &[NodeId], threads: usize) -> Vec<usize> {
    let threads = threads.max(1).min(dests.len().max(1));
    let results: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::with_capacity(dests.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= dests.len() {
                    break;
                }
                let st = reference::solve(topo, dests[i]);
                let count = st.reachable_count();
                results.lock().expect("bench mutex").push((i, count));
            });
        }
    });
    let mut v = results.into_inner().expect("bench mutex");
    v.sort_unstable_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, c)| c).collect()
}

/// Failures per destination in the delta suite.
const DELTA_EVENTS: usize = 16;
/// Destinations sampled by the delta suite (fewer on tiny graphs).
const DELTA_DESTS: usize = 256;

/// One what-if query's answer, folded into a checksum so the compiler
/// cannot discard the work and the two paths can be compared.
fn query_sig(st: &RoutingState<'_>, v: NodeId) -> u64 {
    match st.best(v) {
        None => 0x9e37,
        Some(r) => ((r.class as u64) << 40) ^ ((r.len as u64) << 20) ^ r.next as u64,
    }
}

/// Time the what-if workload both ways. The planning pass (picking which
/// tree links to fail) and the equivalence spot-checks are untimed; the
/// incremental timing covers the per-destination base solve *plus* every
/// delta, since that base is the cache the approach has to pay for.
fn time_delta_suite(name: &'static str, topo: &Topology) -> DeltaRow {
    let n = topo.num_nodes();
    let stride = (n / DELTA_DESTS).max(1);
    let dests: Vec<NodeId> = (0..n as NodeId).step_by(stride).take(DELTA_DESTS).collect();

    // Plan: for each destination, up to DELTA_EVENTS links its routing
    // tree provably uses (node -> its next hop).
    let mut scratch = SolveScratch::new();
    let mut plan: Vec<(NodeId, Vec<(NodeId, NodeId)>)> = Vec::with_capacity(dests.len());
    for &d in &dests {
        let base = RoutingState::solve_into(topo, d, &mut scratch);
        let mut rng = Rng::new(SEED ^ (d as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut events = Vec::with_capacity(DELTA_EVENTS);
        let mut tries = 0;
        while events.len() < DELTA_EVENTS && tries < DELTA_EVENTS * 8 {
            tries += 1;
            let v = (rng.raw() % n as u64) as NodeId;
            if v == d {
                continue;
            }
            if let Some(b) = base.best(v) {
                events.push((v, b.next));
            }
        }
        base.recycle(&mut scratch);
        if !events.is_empty() {
            plan.push((d, events));
        }
    }
    let events: usize = plan.iter().map(|(_, e)| e.len()).sum();

    // Untimed equivalence spot-checks: delta answers == full answers.
    let mut delta = DeltaScratch::new();
    for (d, evs) in plan.iter().take(4) {
        let mut wi = WhatIf::new(RoutingState::solve_into(topo, *d, &mut scratch), &mut delta);
        let (a, b) = evs[0];
        let full = RoutingState::solve_without_link(topo, *d, a, b);
        wi.without_link(a, b, |failed| {
            for x in topo.nodes() {
                assert_eq!(failed.best(x), full.best(x), "delta diverged from full re-solve");
            }
        });
        wi.into_base().recycle(&mut scratch);
    }

    let mut incremental = Duration::MAX;
    let mut full = Duration::MAX;
    let mut recomputed = 0;
    let mut check: Option<(u64, u64)> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut inc_sig = 0u64;
        recomputed = 0;
        for (d, evs) in &plan {
            let mut wi = WhatIf::new(RoutingState::solve_into(topo, *d, &mut scratch), &mut delta);
            for &(a, b) in evs {
                inc_sig = inc_sig.wrapping_add(wi.without_link(a, b, |failed| query_sig(failed, a)));
            }
            recomputed += wi.stats().recomputed;
            wi.into_base().recycle(&mut scratch);
        }
        incremental = incremental.min(t0.elapsed());

        let t0 = Instant::now();
        let mut full_sig = 0u64;
        for (d, evs) in &plan {
            for &(a, b) in evs {
                let st = RoutingState::solve_without_link_into(topo, *d, a, b, &mut scratch);
                full_sig = full_sig.wrapping_add(query_sig(&st, a));
                st.recycle(&mut scratch);
            }
        }
        full = full.min(t0.elapsed());
        check = Some((inc_sig, full_sig));
    }
    let (inc_sig, full_sig) = check.expect("at least one rep");
    assert_eq!(inc_sig, full_sig, "incremental and full what-if answers disagreed");
    DeltaRow {
        scale: name,
        threads: 1,
        dests: plan.len(),
        events,
        mean_cone: recomputed as f64 / events.max(1) as f64,
        incremental_ms: ms(incremental),
        full_ms: ms(full),
        delta_speedup: full.as_secs_f64() / incremental.as_secs_f64().max(1e-12),
    }
}

/// Destinations the shard suite samples per scale (full table on graphs
/// at or under this size).
const SHARD_DESTS: usize = 512;

/// Run the whole-table workload [`REPS`] times through `miro
/// shard-solve`'s coordinator (spawning real `shard-worker` subprocesses
/// of this same binary, into a fresh directory each run) and [`REPS`]
/// times through one in-process `par_over_dests` reference, assert every
/// merged file is the reference's bytes, and report both walls. `deaths`
/// sums the runs'.
fn time_shard_suite(
    sc: &harness::Scale,
    topo: &Topology,
    workers: usize,
    threads: usize,
) -> Result<ShardRow, String> {
    use miro_shard::coordinator::{self, JobSpec};
    use miro_shard::format::RouteTableSet;

    let sample = SHARD_DESTS.min(topo.num_nodes());
    let dests = miro_shard::sample_dests(topo.num_nodes(), sample);
    let block_size = dests.len().div_ceil(workers * 4).max(1);
    let threads_per_worker = (threads / workers).max(1);
    let source = miro_shard::TopoSpec::Preset {
        preset: sc.preset.cli_name().to_string(),
        factor: sc.factor,
        seed: SEED,
    };
    let (single, reference) = Reps::time(REPS, || RouteTableSet::from_solves(topo, &dests, threads).encode());

    // Each run's directory (its table, and with it its disk space) lives
    // until the runs are compared, so the compare stays out of the walls;
    // dropped on every way out, errors included.
    let mut runs = Vec::with_capacity(REPS);
    let (sharded, blocks) = Reps::try_time(REPS, || {
        let dir = TempPath::new(&format!("shard_{}", sc.name), "");
        let job = JobSpec {
            dests: dests.clone(),
            num_nodes: topo.num_nodes() as u32,
            num_edges: topo.num_edges() as u32,
            block_size,
            block_order: Some(miro_bgp::engine::heavy_blocks_first(topo, &dests, block_size)),
            workers,
            state_dir: dir.0.join("state"),
            out_path: dir.0.join("table.mirt"),
            resume: false,
            heartbeat_deadline: Duration::from_millis(10_000),
            respawn_budget: workers,
            chaos_kill_after: None,
            chaos_stop_after: None,
            progress: None,
        };
        let mut spawner = crate::shard_cmd::worker_spawner(&source, sample, threads_per_worker, 250)?;
        let rep = coordinator::run(&job, &mut spawner)?;
        runs.push((dir, rep.deaths));
        Ok::<_, String>(rep.blocks)
    })?;
    for (dir, _) in &runs {
        let merged = std::fs::read(dir.0.join("table.mirt"))
            .map_err(|e| format!("cannot read merged shard table: {e}"))?;
        if merged != reference {
            return Err(format!(
                "shard suite: merged table ({} bytes) differs from in-process reference ({} bytes) at scale {:?}",
                merged.len(),
                reference.len(),
                sc.name
            ));
        }
    }
    let deaths = runs.iter().map(|(_, deaths)| deaths).sum();
    Ok(ShardRow {
        scale: sc.name,
        workers,
        threads_per_worker,
        dests: dests.len(),
        blocks,
        deaths,
        table_bytes: reference.len(),
        sharded_ms: ms(sharded.min),
        min_ms: ms(sharded.min),
        median_ms: ms(sharded.median),
        spread: sharded.spread,
        single_ms: ms(single.min),
        shard_speedup: single.min.as_secs_f64() / sharded.min.as_secs_f64().max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::JsonValue;

    /// Run the bench at `args` plus a scratch `--out`; the report or
    /// error, and the JSON if the run got as far as writing it.
    fn bench(args: &str) -> (Result<String, String>, Option<JsonValue>) {
        let out = TempPath::new("solver_test", ".json");
        let mut args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        args.extend(["--out".to_string(), out.0.display().to_string()]);
        let result = run(&args);
        let json = std::fs::read_to_string(&out.0).ok();
        (result, json.map(|j| serde_json::from_str(&j).expect("valid JSON")))
    }

    #[test]
    fn tiny_scale_end_to_end() {
        let (report, json) = bench("--scale tiny --threads 1,2");
        let report = report.expect("bench runs");
        assert!(report.contains("tiny"), "{report}");
        assert!(report.contains("delta:"), "{report}");
        assert!(report.contains("bucket  1t"), "{report}");
        assert!(report.contains("bucket  2t"), "{report}");
        let json = json.expect("json written");
        assert_eq!(json["bench"].as_str(), Some("solver-whole-network"));
        assert_eq!(json["seed"].as_f64(), Some(42.0));
        assert!(json["host_parallelism"].as_f64().unwrap() >= 1.0);
        // `threads` lives inside each suite's rows, not in the header.
        assert!(json["threads"].is_null());
        let scale = &json["scales"][0];
        assert_eq!(scale["scale"].as_str(), Some("tiny"));
        assert_eq!(scale["preset"].as_str(), Some("gao2005"));
        assert_eq!(scale["preset_scale"].as_f64(), Some(0.01));
        assert_eq!(scale["nodes"].as_f64(), Some(209.0));
        assert_eq!(scale["dests"].as_f64(), Some(209.0));
        let rows = scale["rows"].as_array().expect("thread rows");
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0]["threads"].as_f64(), rows[1]["threads"].as_f64()), (Some(1.0), Some(2.0)));
        assert_eq!(rows[0]["speedup_vs_1t"].as_f64(), Some(1.0));
        assert!(rows[1]["efficiency"].as_f64().unwrap() > 0.0);
        assert!(rows[1]["ms"].as_f64().unwrap() > 0.0);
        assert_eq!(scale["heap"]["sampled"].as_bool(), Some(false));
        assert_eq!(scale["heap"]["dests"].as_f64(), Some(209.0));
        for key in ["heap_ms_per_dest", "bucket_ms_per_dest", "speedup_per_dest"] {
            assert!(scale[key].as_f64().unwrap() > 0.0, "{key}");
        }
        let delta = &json["delta"][0];
        assert_eq!(delta["threads"].as_f64(), Some(1.0));
        assert!(delta["events"].as_f64().unwrap() > 0.0);
        assert!(delta["delta_speedup"].as_f64().unwrap() > 0.0);
        assert_eq!(json["shard"].as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn no_1t_row_reports_null_speedups() {
        let (report, json) = bench("--scale tiny --threads 2");
        report.expect("bench runs");
        let row = &json.expect("json written")["scales"][0]["rows"][0];
        assert_eq!(row["threads"].as_f64(), Some(2.0));
        assert!(row["speedup_vs_1t"].is_null() && row["efficiency"].is_null(), "{row:?}");
    }

    #[test]
    fn list_shows_every_scale_without_running() {
        let report = run(&["--list".into()]).expect("--list works");
        for sc in SCALES {
            assert!(report.contains(sc.name), "{report}");
        }
        assert!(report.contains("internet"), "{report}");
        assert!(report.contains("internet70k"), "{report}");
        assert!(report.contains("heap_stride=64"), "{report}");
        // The row schemas are part of the contract: CI greps for them.
        assert!(report.contains("row schemas:"), "{report}");
        assert!(report.contains("speedup_vs_1t"), "{report}");
        assert!(report.contains("efficiency"), "{report}");
        assert!(report.contains("threads_per_worker"), "{report}");
        assert!(report.contains("ms_per_dest"), "{report}");
        // The flag half comes from the table.
        assert!(report.ends_with(&CMD.usage()), "{report}");
    }

    #[test]
    fn unknown_scale_is_an_error() {
        let args: Vec<String> = vec!["--scale".into(), "galactic".into()];
        let err = run(&args).unwrap_err();
        assert!(err.contains("unknown scale"), "{err}");
    }

    #[test]
    fn scale_lists_dedupe_but_still_reject_unknown_names() {
        let names = |scales: Vec<&'static Scale>| -> Vec<&'static str> {
            scales.into_iter().map(|sc| sc.name).collect()
        };
        // `all` expands once; the explicit repeats of `internet` collapse.
        assert_eq!(
            names(select_scales("all,internet,internet").unwrap()),
            vec!["small", "medium", "large", "internet"]
        );
        // Repeats inside and across `all` collapse too.
        assert_eq!(names(select_scales("small,all,small").unwrap()), vec![
            "small", "medium", "large"
        ]);
        assert_eq!(names(select_scales("tiny,tiny").unwrap()), vec!["tiny"]);
        // An unknown name is an error even when valid names surround it.
        let err = select_scales("all,galactic,internet").unwrap_err();
        assert!(err.contains("galactic"), "{err}");
        // Every harness scale has its extra columns here.
        for sc in harness::SCALES {
            assert_eq!(names(select_scales(sc.name).unwrap()), vec![sc.name]);
        }
    }

    #[test]
    fn absurd_threads_is_an_error() {
        let (err, json) = bench("--scale tiny --threads 1,65536");
        assert!(err.unwrap_err().contains("absurd"));
        assert!(json.is_none(), "rejected before any work");
    }

    #[test]
    fn unreachable_delta_floor_fails_the_gate() {
        let (err, json) = bench("--scale tiny --threads 2 --check-delta-speedup 1e9");
        let err = err.unwrap_err();
        assert!(err.contains("scale tiny: delta speedup regression"), "{err}");
        assert!(json.is_some(), "the rows are written before the gate trips");
    }

    #[test]
    fn check_scaling_needs_a_1t_reference() {
        let (err, _) = bench("--scale tiny --threads 2,4 --check-scaling 0.0");
        assert!(err.unwrap_err().contains("1-thread reference"));
    }

    #[test]
    fn check_scaling_needs_a_parallel_row() {
        let (err, _) = bench("--scale tiny --threads 1 --check-scaling 0.0");
        assert!(err.unwrap_err().contains("gated nothing"));
    }

    #[test]
    fn unreachable_scaling_floor_fails_the_gate() {
        let (err, _) = bench("--scale tiny --threads 1,2 --check-scaling 1e9");
        let err = err.unwrap_err();
        assert!(err.contains("scale tiny, 2 threads: parallel efficiency regression"), "{err}");
    }

    /// Under `cargo test` argv[0] is the test harness, not `miro`: every
    /// spawned "worker" exits at once, the coordinator gives up, and the
    /// suite's scratch directory must not outlive that error.
    #[test]
    fn shard_suite_error_leaves_no_scratch_directory() {
        let theirs = |tag: &str| -> Vec<std::path::PathBuf> {
            let prefix = format!("miro_bench_{tag}_{}_", std::process::id());
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with(&prefix)))
                .collect()
        };
        let base = harness::scale("tiny").unwrap();
        let topo = base.preset.params(base.factor, SEED).generate();
        let err = time_shard_suite(base, &topo, 1, 1).map(|r| r.blocks).unwrap_err();
        assert!(!err.is_empty());
        assert_eq!(theirs("shard_tiny"), Vec::<std::path::PathBuf>::new());
    }
}
