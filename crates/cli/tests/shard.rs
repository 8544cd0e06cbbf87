//! End-to-end tests of `miro shard-solve` with real worker subprocesses.
//!
//! The determinism suite in `crates/shard` exercises the coordinator
//! against in-memory transports; these tests cover the part it cannot —
//! the actual `shard-worker` verb spawned via `std::process`, SIGKILL
//! delivery to a live PID, and checkpoint files surviving a coordinator
//! abort across process boundaries.

use miro_shard::format::RouteTableSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A small-but-not-trivial job: ~200-AS topology, 48 destinations in 6
/// blocks. Big enough that a mid-job worker death leaves work to
/// reassign, small enough for debug-build test time.
const TOPO: &[&str] = &["--preset", "gao2005", "--factor", "0.01", "--seed", "42", "--dests", "48"];

fn miro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_miro"))
        .args(args)
        .output()
        .expect("spawn miro")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("miro_shard_e2e_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn solve_args<'a>(dir: &'a Path, extra: &[&'a str]) -> (Vec<String>, PathBuf) {
    let out = dir.join("table.mirt");
    let state = dir.join("state");
    let mut args: Vec<String> = vec!["shard-solve".into()];
    args.extend(TOPO.iter().map(|s| s.to_string()));
    args.extend(
        [
            "--workers", "2", "--block-size", "8", "--threads", "1", "--quiet",
            "--heartbeat-ms", "50", "--deadline-ms", "2000",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    args.push("--out".into());
    args.push(out.to_str().unwrap().into());
    args.push("--state".into());
    args.push(state.to_str().unwrap().into());
    args.extend(extra.iter().map(|s| s.to_string()));
    (args, out)
}

fn run(args: &[String]) -> Output {
    miro(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>())
}

/// Pull `N` out of a report line like `  dispatches: 6  deaths: 1  ...`.
fn stat(stdout: &str, key: &str) -> u64 {
    let at = stdout.find(key).unwrap_or_else(|| panic!("{key:?} missing in {stdout:?}"));
    stdout[at + key.len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no number after {key:?} in {stdout:?}"))
}

#[test]
fn subprocess_solve_verifies_and_decodes() {
    let dir = fresh_dir("basic");
    let (args, out) = solve_args(&dir, &["--verify"]);
    let r = run(&args);
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        r.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        r.status,
        String::from_utf8_lossy(&r.stderr)
    );
    assert!(stdout.contains("verify: merged table matches single-process solve"), "{stdout}");
    assert!(stdout.contains("(0 resumed)"), "{stdout}");
    assert_eq!(stat(&stdout, "deaths:"), 0);

    // The merged file is a valid RouteTableSet with the job's geometry.
    let set = RouteTableSet::decode(&std::fs::read(&out).unwrap()).expect("valid table");
    assert_eq!(set.dests().len(), 48);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_worker_is_replaced_and_table_still_verifies() {
    let dir = fresh_dir("kill");
    let (args, _out) = solve_args(&dir, &["--chaos-kill-after", "1", "--verify"]);
    let r = run(&args);
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        r.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        r.status,
        String::from_utf8_lossy(&r.stderr)
    );
    // The chaos hook SIGKILLs the first worker after its first block:
    // exactly one death, at least one respawn to cover its blocks, and a
    // byte-identical table regardless.
    assert_eq!(stat(&stdout, "deaths:"), 1, "{stdout}");
    assert!(stat(&stdout, "respawns:") >= 1, "{stdout}");
    assert!(stdout.contains("verify: merged table matches single-process solve"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_coordinator_resumes_from_the_manifest() {
    let dir = fresh_dir("resume");

    // First run aborts (exit 2) after two blocks are checkpointed.
    let (args, out) = solve_args(&dir, &["--chaos-stop-after", "2"]);
    let r = run(&args);
    assert!(!r.status.success(), "chaos-stop run should fail");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("aborted by --chaos-stop-after"), "{stderr}");
    assert!(!out.exists(), "no merged table before the job completes");

    // Second run resumes: the checkpointed blocks are not re-solved and
    // the merged table still matches the single-process reference.
    let (args, out) = solve_args(&dir, &["--resume", "--verify"]);
    let r = run(&args);
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        r.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        r.status,
        String::from_utf8_lossy(&r.stderr)
    );
    let resumed = stat(&stdout, "blocks (");
    assert!(resumed >= 2, "expected >=2 resumed blocks: {stdout}");
    assert_eq!(stat(&stdout, "dispatches:") + resumed, stat(&stdout, "shard-solve:"));
    assert!(stdout.contains("verify: merged table matches single-process solve"), "{stdout}");
    assert!(out.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--verify`'s comparison names the first byte that differs by what it
/// belongs to — a flipped row byte by its row, destination and AS — and
/// a file of another length by both lengths.
#[test]
fn verify_names_the_first_differing_row_and_its_destination() {
    use miro_cli::shard_cmd::verify_table;
    let topo = miro_topology::DatasetPreset::Gao2005.params(0.01, 42).generate();
    let dests = miro_shard::sample_dests(topo.num_nodes(), 48);
    let reference = RouteTableSet::from_solves(&topo, &dests, 2);
    let layout = reference.layout();
    let dir = fresh_dir("verify");
    let path = dir.join("table.mirt");

    std::fs::write(&path, reference.as_bytes()).unwrap();
    assert_eq!(verify_table(&reference, &path), Ok(()));

    let mut bytes = reference.encode();
    let at = layout.row_at(37) + miro_shard::format::CELL_BYTES * 5 + 1;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let err = verify_table(&reference, &path).unwrap_err();
    let want = format!("at byte {at}: row 37 (destination {}), the cell of AS node 5", dests[37]);
    assert!(err.ends_with(&want), "{err}");

    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let err = verify_table(&reference, &path).unwrap_err();
    assert!(err.contains(&format!("{} bytes, single-process solve {} bytes", bytes.len() - 1, bytes.len())), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
