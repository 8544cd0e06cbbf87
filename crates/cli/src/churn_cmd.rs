//! `miro churn` — generate, inspect, and replay churn traces — and
//! `miro bench-churn`, the batched-vs-serial delta replay benchmark.
//!
//! `miro churn gen` writes an `MCT1` trace over a generated preset (or
//! the Figure 1.1 gadget); `miro churn dump` prints a trace's vital
//! signs without replaying anything; `miro churn replay` pushes it
//! through the solver's delta path (serial or batched) or the
//! message-level simulator.
//!
//! `miro bench-churn` is the CI-gated measurement: the same trace is
//! replayed twice through [`miro_churn::replay::replay_delta`] — once
//! one-event-at-a-time, once with co-temporal batches coalesced — plus
//! once through the simulator for the convergence-lag distribution. The
//! two delta replays must agree on the final table digest (the
//! equivalence contract), their rate ratio is the batching speedup, and
//! `--check-events-rate` turns the batched events/sec into a hard floor.
//! Results land in `BENCH_churn.json`.

use crate::harness::{self, gate, Cmd, Flag, Kind, SEED};
use miro_churn::gen::{generate, GenConfig};
use miro_churn::replay::{replay_delta, replay_sim, BatchMode, DeltaReplayReport};
use miro_churn::trace::Trace;
use miro_topology::gen::DatasetPreset;
use serde::Serialize;
use std::fmt::Write as _;

pub static GEN: Cmd = Cmd {
    name: "churn gen",
    positional: &["out.mct"],
    flags: &[
        Flag { name: "--preset", kind: Kind::Str, default: "gao2005", help: "topology preset the trace runs over" },
        Flag { name: "--factor", kind: Kind::F64, default: "0.05", help: "multiple of the preset's node count" },
        Flag { name: "--fig1.1", kind: Kind::Switch, default: "", help: "use the Figure 1.1 gadget instead of a preset" },
        Flag { name: "--fig1-1", kind: Kind::Switch, default: "", help: "same as --fig1.1" },
        Flag { name: "--seed", kind: Kind::Num, default: "42", help: "topology and event-stream seed" },
        Flag { name: "--events", kind: Kind::Num, default: "", help: "events to generate" },
        Flag { name: "--mean-gap-ms", kind: Kind::Num, default: "", help: "mean inter-arrival gap" },
        Flag { name: "--burst", kind: Kind::F64, default: "", help: "share of events that land in a co-temporal burst" },
        Flag { name: "--flappers", kind: Kind::Num, default: "", help: "links that flap" },
        Flag { name: "--flap", kind: Kind::F64, default: "", help: "share of link events drawn from the flappers" },
        Flag { name: "--origin", kind: Kind::F64, default: "", help: "share of events that are origin announce/withdraws" },
    ],
};

pub static DUMP: Cmd = Cmd { name: "churn dump", positional: &["file.mct"], flags: &[] };

pub static REPLAY: Cmd = Cmd {
    name: "churn replay",
    positional: &["file.mct"],
    flags: &[
        Flag { name: "--mode", kind: Kind::Str, default: "batched", help: "serial | batched (delta engine) or sim (message-level simulator)" },
        Flag { name: "--dests", kind: Kind::Num, default: "4", help: "destinations the delta engine tracks" },
        Flag { name: "--seed", kind: Kind::Num, default: "42", help: "simulator activation-order seed" },
        Flag { name: "--step-budget", kind: Kind::Num, default: "1000000", help: "simulator activations per batch before it counts as diverged" },
    ],
};

/// Entry point for `miro churn`.
pub fn run_churn(args: &[String]) -> Result<String, String> {
    match args.split_first() {
        Some((cmd, rest)) if cmd == "gen" => churn_gen(rest),
        Some((cmd, rest)) if cmd == "dump" => churn_dump(rest),
        Some((cmd, rest)) if cmd == "replay" => churn_replay(rest),
        _ => Err([&GEN, &DUMP, &REPLAY].map(Cmd::usage).concat()),
    }
}

fn churn_gen(args: &[String]) -> Result<String, String> {
    let a = GEN.parse(args)?;
    let out_path = &a.positional[0];
    let defaults = GenConfig::default();
    let cfg = GenConfig {
        seed: a.get("--seed")?,
        events: a.opt("--events")?.unwrap_or(defaults.events),
        mean_gap_ms: a.opt("--mean-gap-ms")?.unwrap_or(defaults.mean_gap_ms),
        burst_fraction: a.opt("--burst")?.unwrap_or(defaults.burst_fraction),
        flappers: a.opt("--flappers")?.unwrap_or(defaults.flappers),
        flap_fraction: a.opt("--flap")?.unwrap_or(defaults.flap_fraction),
        origin_fraction: a.opt("--origin")?.unwrap_or(defaults.origin_fraction),
    };

    let topo = if a.on("--fig1.1") || a.on("--fig1-1") {
        miro_topology::gen::figure_1_1().0
    } else {
        let preset: DatasetPreset = a.get::<String>("--preset")?.parse()?;
        preset.params(a.get("--factor")?, cfg.seed).generate()
    };
    let trace = generate(&topo, &cfg);
    let bytes = trace.encode().map_err(|e| e.to_string())?;
    std::fs::write(out_path, &bytes).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    let (downs, ups, withdraws, announces) = trace.kind_counts();
    Ok(format!(
        "wrote {out_path}: {} events over {} ASes / {} links ({} bytes)\n  \
         {downs} downs, {ups} ups, {withdraws} withdraws, {announces} announces; \
         {} batches over {} ms\n",
        trace.events.len(),
        topo.num_nodes(),
        topo.num_edges(),
        bytes.len(),
        trace.batches().count(),
        trace.duration_ms(),
    ))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn churn_dump(args: &[String]) -> Result<String, String> {
    let path = &DUMP.parse(args)?.positional[0];
    let trace = load_trace(path)?;
    let topo = trace.topology().map_err(|e| e.to_string())?;
    let (downs, ups, withdraws, announces) = trace.kind_counts();
    let batches = trace.batches().count();
    let biggest = trace.batches().map(|b| b.len()).max().unwrap_or(0);
    let mut out = format!(
        "{path}: MCT1, {} events over {} ms\n",
        trace.events.len(),
        trace.duration_ms()
    );
    let _ = writeln!(
        out,
        "  topology: {} ASes, {} links",
        topo.num_nodes(),
        topo.num_edges()
    );
    let _ = writeln!(
        out,
        "  mix: {downs} downs, {ups} ups, {withdraws} withdraws, {announces} announces"
    );
    let _ = writeln!(
        out,
        "  batching: {batches} co-temporal batches (largest {biggest}, mean {:.2} events)",
        trace.events.len() as f64 / batches.max(1) as f64
    );
    Ok(out)
}

fn churn_replay(args: &[String]) -> Result<String, String> {
    let a = REPLAY.parse(args)?;
    let mode: String = a.get("--mode")?;
    let (dests, seed, step_budget) = (a.get("--dests")?, a.get("--seed")?, a.get("--step-budget")?);
    let trace = load_trace(&a.positional[0])?;

    match mode.as_str() {
        "serial" | "batched" => {
            let m = if mode == "serial" { BatchMode::Serial } else { BatchMode::Batched };
            let r = replay_delta(&trace, m, dests).map_err(|e| e.to_string())?;
            Ok(format_delta_report(&r))
        }
        "sim" => {
            let r = replay_sim(&trace, seed, step_budget).map_err(|e| e.to_string())?;
            Ok(format!(
                "sim replay: dest AS{}, {} events ({} applied, {} skipped), {} batches\n  \
                 convergence lag (activations): p50 {} / p95 {} / max {}; \
                 {} diverged\n  {:.0} events/s, {} ASes routed at the end\n",
                r.dest,
                r.events,
                r.applied_events,
                r.skipped_events,
                r.batches,
                r.lag_p50,
                r.lag_p95,
                r.lag_max,
                r.diverged_batches,
                r.events_per_sec,
                r.reachable,
            ))
        }
        other => Err(format!("unknown mode {other:?} (serial|batched|sim)")),
    }
}

fn format_delta_report(r: &DeltaReplayReport) -> String {
    let mut out = format!(
        "{} delta replay: {} events x {} dests, {} batches\n",
        r.mode.name(),
        r.events,
        r.dests.len(),
        r.batches
    );
    let _ = writeln!(
        out,
        "  {:.0} events/s ({:.2} ms total); net {} downs / {} ups, {} cancelled, {} ignored",
        r.events_per_sec,
        r.elapsed_ns as f64 / 1e6,
        r.downs,
        r.ups,
        r.cancelled,
        r.ignored
    );
    let _ = writeln!(
        out,
        "  recomputed {} entries ({} full re-solves); per-batch p50 {} / p95 {} / max {}",
        r.recomputed, r.full_resolves, r.recompute_p50, r.recompute_p95, r.recompute_max
    );
    let _ = writeln!(
        out,
        "  restoration rounds (deepest apply per batch): p50 {} / p95 {} / max {}",
        r.restore_rounds_p50, r.restore_rounds_p95, r.restore_rounds_max
    );
    let _ = writeln!(
        out,
        "  tunnels: {} teardowns, {} re-negotiations; table fnv {:#018x}",
        r.tunnel_teardowns, r.tunnel_renegotiations, r.table_fnv
    );
    out
}

// ---------------------------------------------------------------------
// miro bench-churn
// ---------------------------------------------------------------------

/// Trace size per bench scale (`large` and `internet` are not offered:
/// the simulator replay alone would run for hours). The bench's generator
/// settings are burst-heavy (RouteViews updates cluster inside MRAI
/// windows), which is exactly the workload batching exists for.
const EVENTS: &[(&str, usize)] = &[("tiny", 4_000), ("small", 20_000), ("medium", 60_000)];

/// Destinations the delta engines track.
const DESTS: usize = 4;

pub static BENCH: Cmd = Cmd {
    name: "bench-churn",
    positional: &[],
    flags: &[
        Flag { name: "--scale", kind: Kind::Str, default: "small", help: "topology and trace size: tiny|small|medium" },
        Flag { name: "--out", kind: Kind::Str, default: "BENCH_churn.json", help: "where the JSON lands" },
        Flag { name: "--check-events-rate", kind: Kind::F64, default: "", help: "fail under this many batched events/s" },
        Flag { name: "--check-speedup", kind: Kind::F64, default: "", help: "fail under this batched-vs-serial speedup" },
        Flag { name: "--list", kind: Kind::Switch, default: "", help: "print scales, row schemas and flags; run nothing" },
    ],
};

#[derive(Serialize)]
struct Quantiles {
    p50: u64,
    p95: u64,
    max: u64,
}

/// One delta replay (serial or batched).
#[derive(Serialize)]
struct ModeRow {
    mode: &'static str,
    events_per_sec: f64,
    elapsed_ms: f64,
    downs: usize,
    ups: usize,
    cancelled: usize,
    recomputed: usize,
    full_resolves: usize,
    restore_rounds: Quantiles,
    table_fnv: String,
}

#[derive(Serialize)]
struct SimRow {
    lag_p50: u64,
    lag_p95: u64,
    lag_max: u64,
    converged_batches: usize,
    diverged_batches: usize,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct Tunnels {
    teardowns: usize,
    renegotiations: usize,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    engine: &'static str,
    baseline: &'static str,
    seed: u64,
    scale: &'static str,
    nodes: usize,
    links: usize,
    events: usize,
    batches: usize,
    dests: usize,
    rows: Vec<ModeRow>,
    speedup: f64,
    sim: SimRow,
    tunnels: Tunnels,
}

/// Entry point for `miro bench-churn`.
pub fn run_bench(args: &[String]) -> Result<String, String> {
    let a = BENCH.parse(args)?;
    let out_path: String = a.get("--out")?;
    let (check_rate, check_speedup) = (a.opt("--check-events-rate")?, a.opt("--check-speedup")?);

    if a.on("--list") {
        let mut out = String::from("bench-churn scales:\n");
        for (name, events) in EVENTS {
            let _ = writeln!(out, "{} events={events}", harness::scale(name)?);
        }
        out.push_str("row schemas:\n");
        out.push_str(
            "  rows[] = {mode, events_per_sec, elapsed_ms, downs, ups, cancelled, \
             recomputed, full_resolves, restore_rounds{p50,p95,max}, table_fnv}\n",
        );
        out.push_str(
            "  sim    = {lag_p50, lag_p95, lag_max, converged_batches, diverged_batches, \
             events_per_sec}\n",
        );
        out.push_str("  tunnels = {teardowns, renegotiations}\n");
        out.push_str(&BENCH.usage());
        return Ok(out);
    }

    let scale: String = a.get("--scale")?;
    let &(_, events) = EVENTS
        .iter()
        .find(|(name, _)| *name == scale)
        .ok_or(format!("unknown scale {scale:?} (try --list)"))?;
    let sc = harness::scale(&scale)?;

    // ---- Workload ------------------------------------------------------
    let topo = sc.preset.params(sc.factor, SEED).generate();
    let cfg = GenConfig {
        seed: SEED,
        events,
        burst_fraction: 0.7,
        flap_fraction: 0.7,
        ..GenConfig::default()
    };
    let trace = generate(&topo, &cfg);
    let mut report = format!(
        "bench-churn: {} nodes, {} links, {} events in {} batches, {} dests\n",
        topo.num_nodes(),
        topo.num_edges(),
        trace.events.len(),
        trace.batches().count(),
        DESTS
    );

    // ---- Serial vs batched delta replay -------------------------------
    let serial = replay_delta(&trace, BatchMode::Serial, DESTS).map_err(|e| e.to_string())?;
    let batched = replay_delta(&trace, BatchMode::Batched, DESTS).map_err(|e| e.to_string())?;
    if serial.table_fnv != batched.table_fnv {
        return Err(format!(
            "equivalence contract broken: serial table {:#018x} != batched {:#018x}",
            serial.table_fnv, batched.table_fnv
        ));
    }
    let speedup = batched.events_per_sec / serial.events_per_sec.max(1e-9);
    for r in [&serial, &batched] {
        let _ = writeln!(
            report,
            "  {:<8} {:>10.0} events/s | {:>8.2} ms | {:>8} recomputed | {:>4} full re-solves \
             | restore rounds p50 {} / p95 {} / max {}",
            r.mode.name(),
            r.events_per_sec,
            r.elapsed_ns as f64 / 1e6,
            r.recomputed,
            r.full_resolves,
            r.restore_rounds_p50,
            r.restore_rounds_p95,
            r.restore_rounds_max
        );
    }
    let _ = writeln!(
        report,
        "  batched/serial speedup {speedup:.2}x; tables agree ({:#018x})",
        batched.table_fnv
    );
    let _ = writeln!(
        report,
        "  tunnels: {} teardowns, {} re-negotiations",
        batched.tunnel_teardowns, batched.tunnel_renegotiations
    );

    // ---- Simulator convergence lag ------------------------------------
    let sim = replay_sim(&trace, SEED, 2_000_000).map_err(|e| e.to_string())?;
    let _ = writeln!(
        report,
        "  sim lag (activations): p50 {} / p95 {} / max {}; {} of {} batches diverged",
        sim.lag_p50, sim.lag_p95, sim.lag_max, sim.diverged_batches, sim.batches
    );

    // ---- JSON + gates --------------------------------------------------
    let json = Report {
        bench: "churn-replay",
        engine: "batched-cone-delta",
        baseline: "serial-one-event-apply",
        seed: SEED,
        scale: sc.name,
        nodes: topo.num_nodes(),
        links: topo.num_edges(),
        events: trace.events.len(),
        batches: trace.batches().count(),
        dests: DESTS,
        rows: [&serial, &batched].map(mode_row).into(),
        speedup,
        sim: SimRow {
            lag_p50: sim.lag_p50,
            lag_p95: sim.lag_p95,
            lag_max: sim.lag_max,
            converged_batches: sim.converged_batches,
            diverged_batches: sim.diverged_batches,
            events_per_sec: sim.events_per_sec,
        },
        tunnels: Tunnels {
            teardowns: batched.tunnel_teardowns,
            renegotiations: batched.tunnel_renegotiations,
        },
    };
    report.push_str(&harness::emit(&out_path, &json)?);

    gate("churn rate (batched events/s)", batched.events_per_sec, check_rate)?;
    gate("batching speedup", speedup, check_speedup)?;
    Ok(report)
}

fn mode_row(r: &DeltaReplayReport) -> ModeRow {
    ModeRow {
        mode: r.mode.name(),
        events_per_sec: r.events_per_sec,
        elapsed_ms: r.elapsed_ns as f64 / 1e6,
        downs: r.downs,
        ups: r.ups,
        cancelled: r.cancelled,
        recomputed: r.recomputed,
        full_resolves: r.full_resolves,
        restore_rounds: Quantiles {
            p50: r.restore_rounds_p50,
            p95: r.restore_rounds_p95,
            max: r.restore_rounds_max,
        },
        table_fnv: format!("{:#018x}", r.table_fnv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arg(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    /// `bench-churn` at `args` plus a scratch `--out`, and what it wrote.
    fn bench(args: &str) -> (Result<String, String>, Option<serde_json::JsonValue>) {
        let out = harness::TempPath::new("churn_test", ".json");
        let result = run_bench(&arg(&format!("{args} --out {}", out.0.display())));
        let json = std::fs::read_to_string(&out.0).ok();
        (result, json.map(|j| serde_json::from_str(&j).expect("valid JSON")))
    }

    #[test]
    fn gen_dump_replay_round_trip() {
        let mct = tmp("miro_churn_cmd_test.mct");
        let out = run_churn(&arg(&format!(
            "gen {} --fig1.1 --seed 7 --events 500",
            mct.display()
        )))
        .unwrap();
        assert!(out.contains("500 events"), "{out}");

        let dump = run_churn(&arg(&format!("dump {}", mct.display()))).unwrap();
        assert!(dump.contains("MCT1, 500 events"), "{dump}");
        assert!(dump.contains("6 ASes, 8 links"), "{dump}");
        assert!(dump.contains("co-temporal batches"), "{dump}");

        let serial =
            run_churn(&arg(&format!("replay {} --mode serial", mct.display()))).unwrap();
        let batched =
            run_churn(&arg(&format!("replay {} --mode batched", mct.display()))).unwrap();
        let fnv = |s: &str| {
            s.lines().find_map(|l| l.split("table fnv ").nth(1).map(str::to_string))
        };
        assert_eq!(fnv(&serial).expect("serial fnv"), fnv(&batched).expect("batched fnv"));

        let sim = run_churn(&arg(&format!("replay {} --mode sim", mct.display()))).unwrap();
        assert!(sim.contains("convergence lag"), "{sim}");
        assert!(sim.contains("0 diverged"), "{sim}");
    }

    #[test]
    fn churn_usage_and_bad_args() {
        assert!(run_churn(&[]).unwrap_err().contains("usage:"));
        assert!(run_churn(&arg("frob")).unwrap_err().contains("usage:"));
        assert!(run_churn(&arg("gen")).unwrap_err().contains("usage:"));
        assert!(run_churn(&arg("gen x.mct --preset nosuch")).unwrap_err().contains("unknown preset"));
        assert!(run_churn(&arg("replay a.mct b.mct")).unwrap_err().contains("usage: miro churn replay"));
        assert!(run_churn(&arg("replay nosuchfile.mct")).unwrap_err().contains("cannot read"));
        assert!(run_churn(&arg("dump nosuchfile.mct")).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn replay_rejects_non_trace_files() {
        let p = tmp("miro_churn_cmd_not_a_trace.mct");
        std::fs::write(&p, b"1 2 c\n").unwrap();
        let err = run_churn(&arg(&format!("replay {}", p.display()))).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn bench_list_prints_schemas() {
        let out = run_bench(&arg("--list")).unwrap();
        assert!(out.contains("tiny"), "{out}");
        assert!(out.contains("medium"), "{out}");
        assert!(out.contains("rows[] = {mode, events_per_sec"), "{out}");
        assert!(out.contains("sim    = {lag_p50"), "{out}");
    }

    #[test]
    fn bench_rejects_scales_it_has_no_trace_size_for() {
        assert!(run_bench(&arg("--scale nosuch")).unwrap_err().contains("unknown scale"));
        assert!(run_bench(&arg("--scale internet")).unwrap_err().contains("unknown scale"));
    }

    #[test]
    fn tiny_bench_end_to_end() {
        let (report, json) = bench("--scale tiny");
        let report = report.unwrap();
        assert!(report.contains("serial"), "{report}");
        assert!(report.contains("batched"), "{report}");
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("tables agree"), "{report}");
        let v = json.expect("json written");
        assert_eq!(v["bench"].as_str(), Some("churn-replay"));
        assert_eq!(v["scale"].as_str(), Some("tiny"));
        assert_eq!((v["nodes"].as_f64(), v["events"].as_f64()), (Some(209.0), Some(4000.0)));
        assert_eq!(v["dests"].as_f64(), Some(4.0));
        assert!(v["host_parallelism"].as_f64().unwrap() >= 1.0);
        let rows = v["rows"].as_array().expect("rows array");
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0]["mode"].as_str(), rows[1]["mode"].as_str()), (Some("serial"), Some("batched")));
        for row in rows {
            assert!(row["events_per_sec"].as_f64().unwrap() > 0.0);
            assert!(row["restore_rounds"]["max"].as_f64().unwrap() >= row["restore_rounds"]["p50"].as_f64().unwrap());
        }
        // The two rows carry the same table digest — the bench hard-fails
        // before writing JSON otherwise, but pin it here too.
        let digest = rows[0]["table_fnv"].as_str().expect("fnv string");
        assert!(digest.starts_with("0x") && digest.len() == 18, "{digest}");
        assert_eq!(rows[1]["table_fnv"].as_str(), Some(digest));
        assert!(v["speedup"].as_f64().unwrap() > 0.0);
        assert!(v["sim"]["lag_max"].as_f64().unwrap() >= v["sim"]["lag_p50"].as_f64().unwrap());
        assert_eq!(v["sim"]["diverged_batches"].as_f64(), Some(0.0));
        assert!(v["tunnels"]["teardowns"].as_f64().is_some());
    }

    #[test]
    fn check_gates_fire_on_absurd_floors() {
        let (err, json) = bench("--scale tiny --check-events-rate 1e18");
        assert!(err.unwrap_err().contains("churn rate (batched events/s) regression"));
        assert!(json.is_some(), "the rows are written before the gate trips");
        let (err, _) = bench("--scale tiny --check-speedup 1e9");
        assert!(err.unwrap_err().contains("batching speedup regression"));
    }
}
