//! End-to-end serving-plane smoke: the real `miro serve` daemon as a
//! subprocess, driven by the real `miro bench-query` client — the same
//! choreography CI's serve-smoke step runs, pinned here so a broken
//! handshake, port file, shutdown path, or bench schema fails `cargo
//! test` before it fails CI.

use miro_shard::format::RouteTableSet;
use miro_shard::{sample_dests, TopoSpec};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The topology both sides must agree on — the daemon re-derives it from
/// these flags, so the table is solved over exactly this spec.
const TOPO: &[&str] = &["--preset", "gao2005", "--factor", "0.01", "--seed", "42"];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("miro_serve_e2e_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Solve a small table over TOPO and write it where the daemon will map
/// it.
fn solve_table(dir: &std::path::Path) -> PathBuf {
    let topo = TopoSpec::Preset { preset: "gao2005".into(), factor: 0.01, seed: 42 }
        .build()
        .unwrap();
    let dests = sample_dests(topo.num_nodes(), 32);
    let set = RouteTableSet::from_solves(&topo, &dests, 2);
    let path = dir.join("table.mirt");
    std::fs::write(&path, set.encode()).unwrap();
    path
}

/// Spawn the daemon on an ephemeral port and wait for it to publish the
/// bound address via `--port-file`.
fn spawn_daemon(dir: &std::path::Path, table: &std::path::Path) -> (Child, String) {
    let port_file = dir.join("serve.port");
    let mut args: Vec<String> =
        vec!["serve".into(), table.to_str().unwrap().into()];
    args.extend(TOPO.iter().map(|s| s.to_string()));
    args.extend([
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--port-file".into(),
        port_file.to_str().unwrap().into(),
        "--quiet".into(),
    ]);
    let child = Command::new(env!("CARGO_BIN_EXE_miro"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn miro serve");

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote {port_file:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_miro"))
        .arg("bench-query")
        .args(args)
        .output()
        .expect("spawn miro bench-query")
}

#[test]
fn daemon_serves_bench_query_and_shuts_down_cleanly() {
    let dir = fresh_dir("smoke");
    let table = solve_table(&dir);
    let (mut daemon, addr) = spawn_daemon(&dir, &table);

    let out_json = dir.join("bench.json");
    let r = bench(&[
        "--addr", &addr,
        "--conns", "2",
        "--queries", "400",
        "--out", out_json.to_str().unwrap(),
        "--check-qps", "1",
        "--shutdown",
    ]);
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        r.status.success(),
        "bench exit {:?}\nstdout: {stdout}\nstderr: {}",
        r.status,
        String::from_utf8_lossy(&r.stderr)
    );
    assert!(stdout.contains("qps"), "{stdout}");

    // The bench's --shutdown must take the daemon down cleanly — a
    // normal exit, not a kill, within a generous window.
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            daemon.kill().ok();
            panic!("daemon did not exit after --shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon exit: {status:?}");

    // Its lifetime report counts the bench's connections (2 workers in
    // each of 3 rounds + 1 control connection) and a nonzero query total.
    let mut daemon_out = String::new();
    use std::io::Read as _;
    daemon.stdout.take().unwrap().read_to_string(&mut daemon_out).unwrap();
    assert!(daemon_out.contains("serve: done — 7 connections"), "{daemon_out}");

    // The lifetime report surfaces the ShardedCache counters. 400
    // queries over a 32-dest sample must both hit and miss: the first
    // touch of each (src, dest) pair misses, repeats hit.
    assert!(daemon_out.contains("cache:"), "{daemon_out}");
    assert!(daemon_out.contains("hits"), "{daemon_out}");
    assert!(daemon_out.contains("misses"), "{daemon_out}");
    assert!(daemon_out.contains("evictions"), "{daemon_out}");
    assert!(daemon_out.contains("% hit rate"), "{daemon_out}");
    assert!(!daemon_out.contains("cache: 0 hits"), "{daemon_out}");
    // And, where there is a `/proc`, ends with the daemon's peak RSS.
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(daemon_out.contains("hit rate); peak resident "), "{daemon_out}");
        assert!(daemon_out.trim_end().ends_with(" MB"), "{daemon_out}");
    }

    // The written report has the pinned schema.
    let json = std::fs::read_to_string(&out_json).unwrap();
    let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(v["bench"].as_str(), Some("query-serve"));
    assert_eq!(v["mode"].as_str(), Some("external"));
    assert_eq!(v["dests"].as_f64(), Some(32.0), "learned from the daemon's Universe reply");
    let rows = v["rows"].as_array().expect("rows array");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0]["conns"].as_f64(), Some(2.0));
    for key in ["qps", "hit_rate", "p50_us", "p99_us"] {
        assert!(rows[0][key].as_f64().is_some(), "missing {key} in {json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_wrong_geometry_topology() {
    // A table solved over a *different* topology than the daemon's flags
    // must be refused at startup, not served wrong.
    let dir = fresh_dir("geom");
    let table = solve_table(&dir);
    let r = Command::new(env!("CARGO_BIN_EXE_miro"))
        .args([
            "serve",
            table.to_str().unwrap(),
            "--preset", "gao2005",
            "--factor", "0.05", // bigger topology than the table's
            "--seed", "42",
            "--addr", "127.0.0.1:0",
            "--quiet",
        ])
        .output()
        .expect("spawn miro serve");
    assert!(!r.status.success(), "mismatched topology must fail");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("nodes"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_query_list_pins_the_scale_schema() {
    let r = bench(&["--list"]);
    assert!(r.status.success());
    let out = String::from_utf8_lossy(&r.stdout);
    for scale in ["tiny", "small", "medium", "large", "internet"] {
        assert!(out.contains(scale), "scale {scale} missing: {out}");
    }
    assert!(out.contains("--addr"), "{out}");
}
