//! End-to-end serving-plane smoke: the real `miro serve` daemon as a
//! subprocess, driven by the real `miro bench-query` client — the same
//! choreography CI's serve-smoke step runs, pinned here so a broken
//! handshake, port file, shutdown path, or bench schema fails `cargo
//! test` before it fails CI. A daemon given no topology flags serves the
//! topology its table carries: the same replies as one given the
//! matching `--cache`, and a refusal, naming the AS node, of sections
//! that are no topology's.

use miro_serve::wire::{read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION};
use miro_shard::format::{checksum, RouteTableSet};
use miro_shard::protocol::read_raw_frame;
use miro_shard::{sample_dests, TopoSpec};
use miro_topology::{NodeId, Topology};
use std::net::TcpStream;
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
    spawn_daemon_over(dir, table, TOPO)
}

/// [`spawn_daemon`] with the topology named by `topo` flags.
fn spawn_daemon_over(dir: &std::path::Path, table: &std::path::Path, topo: &[&str]) -> (Child, String) {
    let port_file = dir.join("serve.port");
    let mut args: Vec<String> =
        vec!["serve".into(), table.to_str().unwrap().into()];
    args.extend(topo.iter().map(|s| s.to_string()));
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

    // It counts exactly the queries the bench sent: 3 rounds of 400 (the
    // control connection's Universe and Stats are not queries), with no
    // corrupt connection among the 7.
    assert!(daemon_out.contains("(0 shed, 0 timed out, 0 idle, 0 corrupt), 1200 queries"), "{daemon_out}");
    // And, where there is a `/proc`, ends with the daemon's peak RSS.
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(daemon_out.contains(", 1200 queries; peak resident "), "{daemon_out}");
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

/// A `miro ingest` cache of Gao 2005 at 1% under `seed`, in `dir`.
fn ingested(dir: &std::path::Path, seed: u64) -> PathBuf {
    let text = dir.join(format!("gao_{seed}.txt"));
    let topo = miro_topology::DatasetPreset::Gao2005.params(0.01, seed).generate();
    std::fs::write(&text, miro_topology::io::to_text(&topo)).unwrap();
    let cache = dir.join(format!("gao_{seed}.json"));
    let r = Command::new(env!("CARGO_BIN_EXE_miro"))
        .args(["ingest", text.to_str().unwrap(), "--out", cache.to_str().unwrap()])
        .output()
        .expect("spawn miro ingest");
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    cache
}

/// The table carries its adjacency, so a cache of the same size but
/// another topology (another seed) is refused at startup, naming the
/// first AS whose neighbour list differs; the cache the table was solved
/// over serves.
#[test]
fn serve_refuses_a_same_size_cache_of_another_topology() {
    let dir = fresh_dir("cache");
    let (right, wrong) = (ingested(&dir, 42), ingested(&dir, 43));
    let spec = |path: &PathBuf| TopoSpec::Cache { path: path.to_str().unwrap().into() };
    let (topo, other) = (spec(&right).build().unwrap(), spec(&wrong).build().unwrap());
    assert_eq!(topo.num_nodes(), other.num_nodes(), "the two seeds must agree on the size");
    let set = RouteTableSet::from_solves(&topo, &sample_dests(topo.num_nodes(), 16), 2);
    let table = dir.join("table.mirt");
    std::fs::write(&table, set.encode()).unwrap();

    let r = Command::new(env!("CARGO_BIN_EXE_miro"))
        .args(["serve", table.to_str().unwrap(), "--cache", wrong.to_str().unwrap(), "--addr", "127.0.0.1:0", "--quiet"])
        .output()
        .expect("spawn miro serve");
    assert!(!r.status.success(), "a table served over another topology");
    let stderr = String::from_utf8_lossy(&r.stderr);
    let first = set.adjacency().first_difference(&other).expect("the seeds differ");
    let want = format!("neighbour list of AS {} (node {first})", other.asn(first));
    assert!(stderr.contains(&want), "{stderr}");

    let (mut daemon, addr) = spawn_daemon_over(&dir, &table, &["--cache", right.to_str().unwrap()]);
    let out = dir.join("bench.json");
    let r = bench(&["--addr", &addr, "--conns", "1", "--queries", "200", "--shutdown", "--out", out.to_str().unwrap()]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    assert!(daemon.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw reply frames `addr` sends to 200 queries of every kind toward
/// the table's destinations, then a shutdown.
fn replies(addr: &str, topo: &Topology, dests: &[NodeId]) -> Vec<Vec<u8>> {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_msg(&mut &stream, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
    assert!(matches!(read_msg(&mut &stream).unwrap(), WireMsg::Welcome { .. }));
    let n = topo.num_nodes() as u32;
    let asn = |x: u32| topo.asn(x).0;
    let mut out = Vec::new();
    for k in 0..200u32 {
        let (id, src, dest, avoid) = (u64::from(k), asn(k * 37 % n), asn(dests[k as usize % dests.len()]), asn((k * 11 + 5) % n));
        let query = match k % 3 {
            0 => WireMsg::NextHop { id, src, dest },
            1 => WireMsg::Path { id, src, dest },
            _ => WireMsg::Alternate { id, src, dest, avoid },
        };
        write_msg(&mut &stream, &query).unwrap();
        out.push(read_raw_frame(&mut &stream).expect("a reply frame"));
    }
    write_msg(&mut &stream, &WireMsg::Shutdown).unwrap();
    assert_eq!(read_msg(&mut &stream).unwrap(), WireMsg::RBye);
    out
}

/// A daemon given no topology flags rebuilds the topology from the table
/// and answers 200 queries byte for byte as one given the cache the table
/// was solved over.
#[test]
fn a_flagless_daemon_replies_as_one_given_the_matching_cache() {
    let dir = fresh_dir("flagless");
    let cache = ingested(&dir, 42);
    let topo = TopoSpec::Cache { path: cache.to_str().unwrap().into() }.build().unwrap();
    let dests = sample_dests(topo.num_nodes(), 24);
    let table = dir.join("table.mirt");
    std::fs::write(&table, RouteTableSet::from_solves(&topo, &dests, 2).encode()).unwrap();
    let mut answers = Vec::new();
    for flags in [&[][..], &["--cache", cache.to_str().unwrap()][..]] {
        let (mut daemon, addr) = spawn_daemon_over(&dir, &table, flags);
        answers.push(replies(&addr, &topo, &dests));
        assert!(daemon.wait().expect("daemon exits").success(), "{flags:?}");
        std::fs::remove_file(dir.join("serve.port")).unwrap();
    }
    assert_eq!(answers[0], answers[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` with `value` written at `at` and the whole-file checksum,
/// the one that covers the sections, recomputed.
fn resealed(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    let end = out.len() - 8;
    let total = checksum(&out[..end]);
    out[end..].copy_from_slice(&total.to_le_bytes());
    out
}

/// Hand-made sections under a resealed trailer — a list that names a
/// node that does not list it back, a link whose two ends disagree on
/// its class, an AS number given twice, partition ends out of order —
/// are refused by `Adjacency::topology` (the last already when the
/// sections are parsed) and by a daemon given no topology flags, each
/// naming the AS node.
#[test]
fn a_flagless_daemon_refuses_sections_that_are_no_topology() {
    let dir = fresh_dir("no_topology");
    let table = solve_table(&dir);
    let bytes = std::fs::read(&table).unwrap();
    let set = RouteTableSet::decode(&bytes).unwrap();
    let (l, adj) = (set.layout(), set.adjacency());
    let topo = adj.topology().unwrap();
    let n = topo.num_nodes() as NodeId;
    let off = |x: NodeId| u32::from_le_bytes(bytes[l.adjacency_at() + 4 * x as usize..][..4].try_into().unwrap()) as usize;
    let entry = |x: NodeId, slot: usize| l.adjacency_at() + 4 * (n as usize + 1 + off(x) + slot);
    let ends = |x: NodeId| l.ends_at() + 6 * x as usize;
    let ends_of = |x: NodeId| topo.slot_bounds(x)[1..4].iter().map(|&e| e as u16).collect::<Vec<_>>();
    let u16s = |words: &[u16]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();

    // y lists a lower neighbour x; y's entry becomes a higher node w that
    // does not list y.
    let (y, slot) = (0..n - 1)
        .rev()
        .find_map(|y| topo.slot_neighbors(y).iter().position(|&x| x < y).map(|slot| (y, slot)))
        .unwrap();
    let w = (y + 1..n).rev().find(|&w| topo.rel(y, w).is_none()).unwrap();
    let asymmetric = resealed(&bytes, entry(y, slot), &w.to_le_bytes());
    // A transit AS z whose last provider has a lower id: one provider end
    // less makes that provider a sibling on z's side only.
    let z = topo
        .nodes()
        .find(|&z| {
            let b = topo.slot_bounds(z);
            b[1] > 0 && b[1] < b[3] && topo.slot_neighbors(z)[b[1] - 1] < z
        })
        .unwrap();
    let mut class = ends_of(z);
    class[0] -= 1;
    let disagreement = resealed(&bytes, ends(z), &u16s(&class));
    let last = n - 1;
    let twice = resealed(&bytes, l.asns_at() + 4 * last as usize, &topo.asn(0).0.to_le_bytes());
    let mut order = ends_of(z);
    order.swap(0, 2);
    let out_of_order = resealed(&bytes, ends(z), &u16s(&order));

    let cases = [
        ("an asymmetric list", asymmetric, format!("AS node {y}'s list")),
        ("a class disagreement", disagreement, format!("AS node {z}'s list")),
        ("a repeated AS number", twice, format!("AS node {last} repeats the AS number {} of AS node 0", topo.asn(0).0)),
        ("ends out of order", out_of_order, format!("partition ends {order:?} of AS node {z}")),
    ];
    let path = dir.join("bad.mirt");
    for (what, bad, names) in cases {
        let refusal = match RouteTableSet::decode(&bad) {
            Ok(set) => set.adjacency().topology().err().unwrap_or_else(|| panic!("{what}: a topology")),
            Err(e) => e,
        };
        assert!(refusal.contains(&names), "{what}: {refusal}");
        std::fs::write(&path, &bad).unwrap();
        let r = Command::new(env!("CARGO_BIN_EXE_miro"))
            .args(["serve", path.to_str().unwrap(), "--addr", "127.0.0.1:0", "--quiet"])
            .output()
            .expect("spawn miro serve");
        assert!(!r.status.success(), "{what}: served");
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert!(stderr.contains(&names), "{what}: {stderr}");
    }
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
