//! The whole benchmark in one go: every workload, timed passes then a
//! traced pass, each pass a child process of this program so that peak
//! memory and CPU accounting start clean. Writes one result file that
//! `compare` reads.

use crate::json::{self, obj};
use crate::spec::Spec;
use crate::stats::Band;
use serde_json::JsonValue;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Timed passes per workload; the smoke run makes one.
const TIMED_PASSES: usize = 3;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<std::path::PathBuf>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
fn host_stamp(seed: u64) -> JsonValue {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    obj([
        ("nproc", JsonValue::Num(nproc as f64)),
        (
            "available_parallelism",
            JsonValue::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("kernel", JsonValue::Str(kernel)),
        ("rustc", JsonValue::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", JsonValue::Num(seed as f64)),
        ("transport", JsonValue::Str("loopback".to_string())),
    ])
}

/// Run this program on one workload and parse the result object off the
/// last line of its output.
fn child(args: &SuiteArgs, workload: &str, traced: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's errors and warnings go to this program's stderr as
    // they happen; only its report is held back to split off the result.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    // Everything but the result object is for the reader.
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    serde_json::from_str(last).map_err(|e| format!("{workload} printed no result object: {e}"))
}

/// Fold passes of one workload into `{median, min, max, n, unit}` rows.
fn bands(passes: &[JsonValue]) -> Result<JsonValue, String> {
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for pass in passes {
        for (name, m) in json::map(pass, &["metrics"])? {
            values
                .entry(name.clone())
                .or_insert((Vec::new(), json::text(m, &["unit"])?))
                .0
                .push(json::num(m, &["value"])?);
        }
    }
    Ok(JsonValue::Obj(
        values
            .into_iter()
            .map(|(name, (v, unit))| {
                let b = Band::of(&v);
                let row = obj([
                    ("median", JsonValue::Num(b.median)),
                    ("min", JsonValue::Num(b.min)),
                    ("max", JsonValue::Num(b.max)),
                    ("n", JsonValue::Num(b.n as f64)),
                    ("unit", JsonValue::Str(unit)),
                ]);
                (name, row)
            })
            .collect(),
    ))
}

pub fn run(spec: &Spec, args: &SuiteArgs) -> Result<(), String> {
    let mut workloads = BTreeMap::new();
    let mut any_failed = false;
    for (name, why) in &spec.workloads {
        let passes = if args.smoke { 1 } else { TIMED_PASSES };
        let timed: Vec<JsonValue> = (0..passes)
            .map(|_| child(args, name, false))
            .collect::<Result<_, _>>()?;
        let traced = child(args, name, true)?;
        let (mut attempted, mut failed) = (0.0, 0.0);
        for pass in timed.iter().chain([&traced]) {
            attempted += json::num(pass, &["attempted"])?;
            failed += json::num(pass, &["failed"])?;
        }
        any_failed |= failed > 0.0;
        workloads.insert(
            name.clone(),
            obj([
                ("why", JsonValue::Str(why.clone())),
                ("attempted", JsonValue::Num(attempted)),
                ("failed", JsonValue::Num(failed)),
                ("fail_share", JsonValue::Num(failed / attempted)),
                ("end_to_end", bands(&timed)?),
                ("per_layer", bands(&[traced])?),
            ]),
        );
    }
    let doc = obj([
        ("host", host_stamp(args.seed)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("workloads", JsonValue::Obj(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    if let Some(path) = &args.out {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {}", path.display());
    }
    if any_failed {
        return Err("some operations failed or disagreed with their oracle".to_string());
    }
    Ok(())
}
