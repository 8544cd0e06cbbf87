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

use miro_churn::gen::{generate, GenConfig};
use miro_churn::replay::{replay_delta, replay_sim, BatchMode, DeltaReplayReport};
use miro_churn::trace::Trace;
use miro_topology::gen::DatasetPreset;
use std::fmt::Write as _;

/// Generation seed default: fixed so runs are comparable across PRs.
const SEED: u64 = 42;

const CHURN_USAGE: &str = "\
usage: miro churn <gen|dump|replay> ...
  gen <out.mct> [--preset P --factor F | --fig1.1] [--seed N] [--events N]
                [--mean-gap-ms N] [--burst F] [--flappers N] [--flap F] [--origin F]
  dump <file.mct>
  replay <file.mct> [--mode serial|batched|sim] [--dests N] [--seed N] [--step-budget N]";

/// Entry point for `miro churn`.
pub fn run_churn(args: &[String]) -> Result<String, String> {
    match args.split_first() {
        Some((cmd, rest)) if cmd == "gen" => churn_gen(rest),
        Some((cmd, rest)) if cmd == "dump" => churn_dump(rest),
        Some((cmd, rest)) if cmd == "replay" => churn_replay(rest),
        _ => Err(CHURN_USAGE.to_string()),
    }
}

fn parse_preset(name: &str) -> Result<DatasetPreset, String> {
    match name {
        "gao2000" => Ok(DatasetPreset::Gao2000),
        "gao2003" => Ok(DatasetPreset::Gao2003),
        "gao2005" => Ok(DatasetPreset::Gao2005),
        "agarwal2004" => Ok(DatasetPreset::Agarwal2004),
        "internet" => Ok(DatasetPreset::InternetScale),
        other => Err(format!("unknown preset {other:?}")),
    }
}

fn churn_gen(args: &[String]) -> Result<String, String> {
    let mut out_path: Option<String> = None;
    let mut preset = "gao2005".to_string();
    let mut factor = 0.05f64;
    let mut fig = false;
    let mut cfg = GenConfig { seed: SEED, ..GenConfig::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |n: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{n} needs a value"))
        };
        match arg.as_str() {
            "--preset" => preset = val("--preset")?,
            "--factor" => {
                factor = val("--factor")?.parse().map_err(|_| "bad --factor".to_string())?
            }
            "--fig1.1" | "--fig1-1" => fig = true,
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
            "--events" => {
                cfg.events = val("--events")?.parse().map_err(|_| "bad --events".to_string())?
            }
            "--mean-gap-ms" => {
                cfg.mean_gap_ms =
                    val("--mean-gap-ms")?.parse().map_err(|_| "bad --mean-gap-ms".to_string())?
            }
            "--burst" => {
                cfg.burst_fraction =
                    val("--burst")?.parse().map_err(|_| "bad --burst".to_string())?
            }
            "--flappers" => {
                cfg.flappers =
                    val("--flappers")?.parse().map_err(|_| "bad --flappers".to_string())?
            }
            "--flap" => {
                cfg.flap_fraction = val("--flap")?.parse().map_err(|_| "bad --flap".to_string())?
            }
            "--origin" => {
                cfg.origin_fraction =
                    val("--origin")?.parse().map_err(|_| "bad --origin".to_string())?
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n{CHURN_USAGE}"))
            }
            other => {
                if out_path.is_some() {
                    return Err(format!("more than one output file\n{CHURN_USAGE}"));
                }
                out_path = Some(other.to_string());
            }
        }
    }
    let out_path = out_path.ok_or(CHURN_USAGE.to_string())?;

    let topo = if fig {
        miro_topology::gen::figure_1_1().0
    } else {
        parse_preset(&preset)?.params(factor, cfg.seed).generate()
    };
    let trace = generate(&topo, &cfg);
    let bytes = trace.encode().map_err(|e| e.to_string())?;
    std::fs::write(&out_path, &bytes).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
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
    let [path] = args else { return Err(CHURN_USAGE.to_string()) };
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
    let mut path: Option<String> = None;
    let mut mode = "batched".to_string();
    let mut dests = 4usize;
    let mut seed = SEED;
    let mut step_budget = 1_000_000usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |n: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{n} needs a value"))
        };
        match arg.as_str() {
            "--mode" => mode = val("--mode")?,
            "--dests" => dests = val("--dests")?.parse().map_err(|_| "bad --dests".to_string())?,
            "--seed" => seed = val("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
            "--step-budget" => {
                step_budget =
                    val("--step-budget")?.parse().map_err(|_| "bad --step-budget".to_string())?
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n{CHURN_USAGE}"))
            }
            other => {
                if path.is_some() {
                    return Err(format!("more than one input file\n{CHURN_USAGE}"));
                }
                path = Some(other.to_string());
            }
        }
    }
    let path = path.ok_or(CHURN_USAGE.to_string())?;
    let trace = load_trace(&path)?;

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

/// Bench scales: preset factor plus trace size. The bench's generator
/// settings are burst-heavy (RouteViews updates cluster inside MRAI
/// windows), which is exactly the workload batching exists for.
struct Scale {
    name: &'static str,
    factor: f64,
    events: usize,
}

const SCALES: &[Scale] = &[
    Scale { name: "tiny", factor: 0.01, events: 4_000 },
    Scale { name: "small", factor: 0.05, events: 20_000 },
    Scale { name: "medium", factor: 0.5, events: 60_000 },
];

const BENCH_USAGE: &str = "\
usage: miro bench-churn [--scale tiny|small|medium] [--events N] [--dests N]
  [--seed N] [--burst F] [--out BENCH_churn.json] [--check-events-rate F]
  [--check-speedup F] [--list]";

/// Entry point for `miro bench-churn`.
pub fn run_bench(args: &[String]) -> Result<String, String> {
    let mut scale = "small".to_string();
    let mut events: Option<usize> = None;
    let mut dests = 4usize;
    let mut seed = SEED;
    let mut burst = 0.7f64;
    let mut out_path = "BENCH_churn.json".to_string();
    let mut check_rate: Option<f64> = None;
    let mut check_speedup: Option<f64> = None;
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |n: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{n} needs a value"))
        };
        match arg.as_str() {
            "--list" => list = true,
            "--scale" => scale = val("--scale")?,
            "--events" => {
                events = Some(val("--events")?.parse().map_err(|_| "bad --events".to_string())?)
            }
            "--dests" => dests = val("--dests")?.parse().map_err(|_| "bad --dests".to_string())?,
            "--seed" => seed = val("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
            "--burst" => {
                burst = val("--burst")?.parse().map_err(|_| "bad --burst".to_string())?
            }
            "--out" => out_path = val("--out")?,
            "--check-events-rate" => {
                check_rate = Some(
                    val("--check-events-rate")?
                        .parse()
                        .map_err(|_| "--check-events-rate needs a number".to_string())?,
                )
            }
            "--check-speedup" => {
                check_speedup = Some(
                    val("--check-speedup")?
                        .parse()
                        .map_err(|_| "--check-speedup needs a number".to_string())?,
                )
            }
            other => return Err(format!("unknown option {other:?}\n{BENCH_USAGE}")),
        }
    }

    if list {
        let mut out = String::from("bench-churn scales:\n");
        for sc in SCALES {
            let _ = writeln!(
                out,
                "  {:<8} gao2005 factor={} events={}",
                sc.name, sc.factor, sc.events
            );
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
        return Ok(out);
    }

    let sc = SCALES
        .iter()
        .find(|s| s.name == scale)
        .ok_or(format!("unknown scale {scale:?} (try --list)"))?;
    if dests == 0 {
        return Err("--dests must be at least 1".to_string());
    }

    // ---- Workload ------------------------------------------------------
    let topo = DatasetPreset::Gao2005.params(sc.factor, seed).generate();
    let cfg = GenConfig {
        seed,
        events: events.unwrap_or(sc.events),
        burst_fraction: burst,
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
        dests
    );

    // ---- Serial vs batched delta replay -------------------------------
    let serial = replay_delta(&trace, BatchMode::Serial, dests).map_err(|e| e.to_string())?;
    let batched = replay_delta(&trace, BatchMode::Batched, dests).map_err(|e| e.to_string())?;
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
    let sim = replay_sim(&trace, seed, 2_000_000).map_err(|e| e.to_string())?;
    let _ = writeln!(
        report,
        "  sim lag (activations): p50 {} / p95 {} / max {}; {} of {} batches diverged",
        sim.lag_p50, sim.lag_p95, sim.lag_max, sim.diverged_batches, sim.batches
    );

    // ---- JSON + gates --------------------------------------------------
    let json = to_json(sc, seed, &topo, &trace, dests, &serial, &batched, speedup, &sim);
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    let _ = writeln!(report, "wrote {out_path}");

    if let Some(floor) = check_rate {
        if batched.events_per_sec < floor {
            return Err(format!(
                "churn rate regression: batched {:.0} events/s < required {floor}",
                batched.events_per_sec
            ));
        }
    }
    if let Some(floor) = check_speedup {
        if speedup < floor {
            return Err(format!(
                "batching regression: {speedup:.2}x < required {floor}x"
            ));
        }
    }
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    sc: &Scale,
    seed: u64,
    topo: &miro_topology::Topology,
    trace: &Trace,
    dests: usize,
    serial: &DeltaReplayReport,
    batched: &DeltaReplayReport,
    speedup: f64,
    sim: &miro_churn::replay::SimReplayReport,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"churn-replay\",");
    let _ = writeln!(out, "  \"engine\": \"batched-cone-delta\",");
    let _ = writeln!(out, "  \"baseline\": \"serial-one-event-apply\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\", \"nodes\": {}, \"links\": {}, \"events\": {}, \
         \"batches\": {}, \"dests\": {},",
        sc.name,
        topo.num_nodes(),
        topo.num_edges(),
        trace.events.len(),
        trace.batches().count(),
        dests
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in [serial, batched].into_iter().enumerate() {
        let comma = if i == 0 { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"events_per_sec\": {:.1}, \"elapsed_ms\": {:.3}, \
             \"downs\": {}, \"ups\": {}, \"cancelled\": {}, \"recomputed\": {}, \
             \"full_resolves\": {}, \"restore_rounds\": {{\"p50\": {}, \"p95\": {}, \
             \"max\": {}}}, \"table_fnv\": \"{:#018x}\"}}{comma}",
            r.mode.name(),
            r.events_per_sec,
            r.elapsed_ns as f64 / 1e6,
            r.downs,
            r.ups,
            r.cancelled,
            r.recomputed,
            r.full_resolves,
            r.restore_rounds_p50,
            r.restore_rounds_p95,
            r.restore_rounds_max,
            r.table_fnv,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedup\": {speedup:.2},");
    let _ = writeln!(
        out,
        "  \"sim\": {{\"lag_p50\": {}, \"lag_p95\": {}, \"lag_max\": {}, \
         \"converged_batches\": {}, \"diverged_batches\": {}, \"events_per_sec\": {:.1}}},",
        sim.lag_p50,
        sim.lag_p95,
        sim.lag_max,
        sim.converged_batches,
        sim.diverged_batches,
        sim.events_per_sec
    );
    let _ = writeln!(
        out,
        "  \"tunnels\": {{\"teardowns\": {}, \"renegotiations\": {}}}",
        batched.tunnel_teardowns, batched.tunnel_renegotiations
    );
    out.push('}');
    out.push('\n');
    out
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
    fn bench_bad_args_are_rejected() {
        assert!(run_bench(&arg("--frob")).is_err());
        assert!(run_bench(&arg("--scale nosuch")).unwrap_err().contains("unknown scale"));
        assert!(run_bench(&arg("--dests 0")).unwrap_err().contains("--dests"));
        assert!(run_bench(&arg("--check-events-rate x")).is_err());
    }

    #[test]
    fn tiny_bench_end_to_end() {
        let out_path = tmp("miro_bench_churn_test.json");
        let report = run_bench(&arg(&format!(
            "--scale tiny --events 2000 --dests 2 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("serial"), "{report}");
        assert!(report.contains("batched"), "{report}");
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("tables agree"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        let serde_json::JsonValue::Obj(top) = &v else { panic!("top-level object") };
        let serde_json::JsonValue::Arr(rows) = &top["rows"] else { panic!("rows array") };
        assert_eq!(rows.len(), 2);
        let serde_json::JsonValue::Num(speedup) = top["speedup"] else { panic!("speedup") };
        assert!(speedup > 0.0);
        let serde_json::JsonValue::Obj(sim) = &top["sim"] else { panic!("sim object") };
        assert!(matches!(sim["lag_p50"], serde_json::JsonValue::Num(_)));
        // The two rows carry the same table digest — the bench hard-fails
        // before writing JSON otherwise, but pin it here too.
        let digests: Vec<String> = rows
            .iter()
            .map(|r| {
                let serde_json::JsonValue::Obj(row) = r else { panic!("row object") };
                let serde_json::JsonValue::Str(s) = &row["table_fnv"] else { panic!("fnv") };
                s.clone()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn check_rate_gate_fires_on_absurd_floor() {
        let out_path = tmp("miro_bench_churn_gate_test.json");
        let err = run_bench(&arg(&format!(
            "--scale tiny --events 1000 --dests 1 --out {} --check-events-rate 1e18",
            out_path.display()
        )))
        .unwrap_err();
        assert!(err.contains("churn rate regression"), "{err}");
    }
}
