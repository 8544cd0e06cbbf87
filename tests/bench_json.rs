//! The four `BENCH_*.json` writers and `RESILIENCE.json`, end to end at
//! their smallest: each verb runs through its public entry point into a
//! scratch directory, the file is parsed back, and every key that CI greps
//! for or that the verb's `--list` schema promises is looked up at its
//! place in the document — so a renamed, dropped or re-nested key fails
//! Tier-1 before it fails CI.

use miro_cli::harness::TempPath;
use serde_json::JsonValue;

/// Run `verb` at `args` with `--out` pointed into a scratch directory
/// (removed again on return) and parse what it wrote.
fn report(verb: fn(&[String]) -> Result<String, String>, args: &str) -> JsonValue {
    let dir = TempPath::new("json_test", "");
    std::fs::create_dir_all(&dir.0).expect("scratch dir");
    let out = dir.0.join("bench.json");
    let mut args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
    args.extend(["--out".to_string(), out.display().to_string()]);
    let report = verb(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert!(report.contains(&format!("wrote {}", out.display())), "{report}");
    let text = std::fs::read_to_string(&out).expect("report written");
    let v: JsonValue = serde_json::from_str(&text).expect("valid JSON");
    // The one emitter's stamp, first on every file.
    assert!(text.starts_with("{\"host_parallelism\":"), "{text}");
    assert!(v["host_parallelism"].as_f64().expect("host_parallelism") >= 1.0, "{text}");
    v
}

/// [`report`] for a bench verb: the header names the bench and its engine.
fn bench(verb: fn(&[String]) -> Result<String, String>, args: &str) -> JsonValue {
    let v = report(verb, args);
    assert!(v["bench"].as_str().is_some() && v["engine"].as_str().is_some(), "{v:?}");
    v
}

/// Every key in `keys` is present (and not `null`) in object `v`.
fn assert_keys(what: &str, v: &JsonValue, keys: &[&str]) {
    for key in keys {
        assert!(!v[*key].is_null(), "{what} has no {key:?}: {v:?}");
    }
}

#[test]
fn bench_solver_json_keeps_its_schema() {
    let v = bench(miro_cli::bench::run, "--scale tiny --threads 1,2");
    assert_keys("header", &v, &["baseline", "seed", "scales", "delta", "shard"]);
    let scale = &v["scales"][0];
    assert_keys("scales[]", scale, &[
        "scale", "preset", "preset_scale", "nodes", "edges", "dests", "reps", "rows", "heap",
        "bucket_ms_per_dest", "heap_ms_per_dest", "speedup_per_dest",
    ]);
    assert_eq!(scale["rows"].as_array().map(Vec::len), Some(2));
    assert_keys("scales[].rows[]", &scale["rows"][1], &[
        "threads", "ms", "min_ms", "median_ms", "spread", "speedup_vs_1t", "efficiency",
    ]);
    assert_keys("scales[].heap", &scale["heap"], &[
        "threads", "dests", "sampled", "ms", "min_ms", "median_ms", "spread", "ms_per_dest",
    ]);
    assert_eq!(scale["reps"].as_f64(), Some(3.0), "three repetitions at every scale");
    assert_keys("delta[]", &v["delta"][0], &[
        "scale", "threads", "dests", "events", "mean_cone", "incremental_ms", "full_ms",
        "delta_speedup",
    ]);
}

#[test]
fn bench_dataplane_json_keeps_its_schema() {
    let v = bench(
        miro_cli::bench_dataplane::run,
        "--scale tiny --flows 256 --packets 4000 --batch 4,32",
    );
    assert_keys("header", &v, &[
        "baseline", "seed", "reps", "scale", "nodes", "prefixes", "tunnels", "flows", "packets",
        "stages", "lookup",
    ]);
    assert_eq!(v["stages"].as_array().map(Vec::len), Some(4 * 3));
    assert_keys("stages[]", &v["stages"][0], &[
        "stage", "batch", "baseline", "ms", "median_ms", "spread", "mpps", "ns_per_pkt",
    ]);
    assert_keys("lookup", &v["lookup"], &[
        "packets", "trie_ms", "table_ms", "speedup", "spread", "table_bytes",
    ]);
}

#[test]
fn bench_query_json_keeps_its_schema() {
    let v = bench(miro_cli::bench_query::run, "--scale tiny --conns 2 --queries 400");
    assert_keys("header", &v, &[
        "mode", "scale", "nodes", "dests", "seed", "reps", "mix", "cache", "rows", "totals",
    ]);
    assert_keys("mix", &v["mix"], &["next_hop", "path", "alternate"]);
    assert_keys("cache", &v["cache"], &["stripes", "slots_per_stripe"]);
    assert_keys("rows[]", &v["rows"][0], &[
        "conns", "queries", "wall_ms", "qps", "p50_us", "p99_us", "hit_rate", "unrouted",
        "no_alternate", "median_wall_ms", "median_qps", "spread",
    ]);
    assert_keys("totals", &v["totals"], &["queries", "cache_hits", "cache_misses"]);
}

#[test]
fn bench_churn_json_keeps_its_schema() {
    let v = bench(miro_cli::churn_cmd::run_bench, "--scale tiny");
    // ci.yml's grep list: bench engine baseline rows speedup sim tunnels
    // table_fnv events_per_sec restore_rounds lag_p50 lag_p95
    // diverged_batches teardowns.
    assert_keys("header", &v, &[
        "baseline", "seed", "scale", "nodes", "links", "events", "batches", "dests", "rows",
        "speedup", "sim", "tunnels",
    ]);
    assert_eq!(v["rows"].as_array().map(Vec::len), Some(2));
    for row in v["rows"].as_array().unwrap() {
        assert_keys("rows[]", row, &[
            "mode", "events_per_sec", "elapsed_ms", "downs", "ups", "cancelled", "recomputed",
            "full_resolves", "restore_rounds", "table_fnv",
        ]);
        assert_keys("rows[].restore_rounds", &row["restore_rounds"], &["p50", "p95", "max"]);
    }
    assert_keys("sim", &v["sim"], &[
        "lag_p50", "lag_p95", "lag_max", "converged_batches", "diverged_batches", "events_per_sec",
    ]);
    assert_keys("tunnels", &v["tunnels"], &["teardowns", "renegotiations"]);
}

#[test]
fn resilience_json_keeps_its_schema() {
    let v = report(miro_eval::resilience::run, "--pairs 4 --seed 9");
    assert_keys("header", &v, &["seed", "scale", "nodes", "pairs", "outage_ticks", "points"]);
    assert_eq!(v["points"].as_array().map(Vec::len), Some(5));
    // ci.yml's grep list: outage_recovery outage_recovery_static
    // crash_recovery mean_recovery_ticks p95_recovery_ticks
    // orphaned_tunnels recovery_rate retry_attempts rto srtt_mean rto_peak.
    for point in v["points"].as_array().unwrap() {
        assert_keys("points[]", point, &["drop_permille", "success_rate", "rto"]);
        assert_keys("points[].rto", &point["rto"], &["srtt_mean", "rto_mean", "rto_peak"]);
        for scenario in RESILIENCE_SCENARIOS {
            assert_keys(scenario, &point[scenario], &[
                "episodes", "recovery_rate", "mean_recovery_ticks", "p95_recovery_ticks",
                "retry_attempts", "orphaned_tunnels",
            ]);
        }
    }
    // Same seed, same behaviour: every integer counter of every point, as
    // recorded at 814a12e (before the one-handshake refactor of
    // `miro-core`). A protocol change that moves one of these says so by
    // re-recording the row.
    let counters = |v: &JsonValue, keys: &[&str]| -> Vec<u64> {
        keys.iter().map(|k| v[*k].as_f64().unwrap_or_else(|| panic!("{k}")) as u64).collect()
    };
    for (i, (point, (handshake, scenarios))) in
        v["points"].as_array().unwrap().iter().zip(RESILIENCE_PAIRS4_SEED9).enumerate()
    {
        assert_eq!(counters(point, &RESILIENCE_POINT_COUNTERS), handshake, "points[{i}]");
        for (scenario, want) in RESILIENCE_SCENARIOS.iter().zip(scenarios) {
            let got = counters(&point[*scenario], &RESILIENCE_SCENARIO_COUNTERS);
            assert_eq!(got, want, "points[{i}].{scenario}");
        }
    }
}

const RESILIENCE_SCENARIOS: [&str; 3] =
    ["outage_recovery", "outage_recovery_static", "crash_recovery"];
const RESILIENCE_POINT_COUNTERS: [&str; 8] = [
    "attempted", "succeeded", "fallbacks", "double_established", "retransmits",
    "duplicates_suppressed", "settle_ticks", "tunnels_surviving",
];
const RESILIENCE_SCENARIO_COUNTERS: [&str; 5] =
    ["episodes", "recovered", "retry_attempts", "orphaned_tunnels", "quiesce_ticks"];
/// `resilience --pairs 4 --seed 9`, one row per sweep point: the point's
/// counters, then each scenario's, in the orders above.
const RESILIENCE_PAIRS4_SEED9: [([u64; 8], [[u64; 5]; 3]); 5] = [
    ([4, 4, 0, 0, 0, 0, 4, 4], [[16, 16, 16, 0, 30], [16, 16, 16, 0, 30], [8, 8, 8, 0, 14]]),
    ([4, 4, 0, 0, 0, 4, 7, 4], [[16, 16, 16, 0, 34], [16, 16, 16, 0, 34], [8, 8, 8, 0, 16]]),
    ([4, 4, 0, 0, 4, 7, 18, 4], [[16, 16, 16, 0, 27], [16, 16, 16, 0, 59], [8, 8, 8, 0, 15]]),
    ([4, 4, 0, 0, 0, 15, 8, 3], [[16, 16, 16, 0, 116], [16, 16, 16, 0, 219], [8, 8, 8, 0, 52]]),
    ([4, 4, 0, 0, 11, 22, 45, 4], [[15, 15, 16, 0, 672], [15, 15, 16, 0, 317], [8, 8, 8, 0, 375]]),
];
