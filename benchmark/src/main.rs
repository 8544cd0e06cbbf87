//! The repo benchmark: six named workloads over the table, serve, churn
//! and packet planes, with a per-layer trace. See `README.md`.
//!
//! ```text
//! miro-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! miro-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//! miro-benchmark compare A.json B.json
//! ```
//!
//! Run through `benchmark/run.sh`, which builds `miro` and this program
//! first and says where they are.

mod client;
mod compare;
mod ctx;
mod guard;
mod json;
mod keys;
mod procfs;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use ctx::{Ctx, Workload, FULL, SMOKE};
use spec::Spec;
use std::path::PathBuf;
use workloads::churn_flap::ChurnFlap;
use workloads::packet_burst::PacketBurst;
use workloads::query::QueryLoad;
use workloads::table_build::TableBuild;
use workloads::whatif_sweep::WhatifSweep;

const USAGE: &str =
    "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--smoke] [--out FILE]
       run.sh compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |what: &str| format!("{arg}: {what}");
        match arg.as_str() {
            "--workload" => a.workload = Some(val()?.clone()),
            "--seed" => a.seed = val()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("must be above 0 and at most 60"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// A path `run.sh` exports, or its default relative to the repo root.
fn env_path(var: &str, default: &str) -> PathBuf {
    std::env::var_os(var).map_or_else(|| PathBuf::from(default), PathBuf::from)
}

fn single(spec: &Spec, a: &Args, name: &str) -> Result<(), String> {
    let why = &spec
        .workloads
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; BENCHMARK.json lists {:?}",
                spec::WORKLOADS
            )
        })?
        .1;
    let out_dir = env_path("MIRO_BENCH_OUT", "benchmark/out");
    let miro = env_path("MIRO_BIN", "target/release/miro");
    if !miro.is_file() {
        return Err(format!("{miro:?} is not built; run benchmark/run.sh"));
    }
    // Absolute, because worker and daemon arguments must not depend on
    // a child's working directory.
    let abs = |p: PathBuf| std::fs::canonicalize(&p).map_err(|e| format!("{p:?}: {e}"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let out_dir = abs(out_dir)?;
    let ctx = Ctx {
        seed: a.seed,
        scale: if a.smoke { SMOKE } else { FULL },
        miro: abs(miro)?,
        run: guard::RunDir::claim(&out_dir)?,
    };
    let seconds = a.seconds.unwrap_or(spec.run_seconds as f64);
    let out = match name {
        TableBuild::NAME => run::run::<TableBuild>(&ctx, seconds, a.trace, &out_dir),
        QueryLoad::<true>::NAME => run::run::<QueryLoad<true>>(&ctx, seconds, a.trace, &out_dir),
        QueryLoad::<false>::NAME => run::run::<QueryLoad<false>>(&ctx, seconds, a.trace, &out_dir),
        ChurnFlap::NAME => run::run::<ChurnFlap>(&ctx, seconds, a.trace, &out_dir),
        WhatifSweep::NAME => run::run::<WhatifSweep>(&ctx, seconds, a.trace, &out_dir),
        PacketBurst::NAME => run::run::<PacketBurst>(&ctx, seconds, a.trace, &out_dir),
        other => unreachable!("{other} passed the spec check"),
    }?;
    run::print(name, why, a.seed, a.trace, &out, spec);
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load(&env_path("MIRO_BENCH_SPEC", "BENCHMARK.json"))?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.to_string());
        };
        return compare::run(&spec, a, b);
    }
    let a = parse(&args)?;
    match &a.workload {
        Some(name) => single(&spec, &a, name).map(|()| true),
        None => {
            let seconds = a.seconds.unwrap_or(if a.smoke {
                1.0
            } else {
                spec.run_seconds as f64
            });
            let suite = suite::SuiteArgs {
                seed: a.seed,
                seconds,
                smoke: a.smoke,
                out: a.out.clone(),
            };
            suite::run(&spec, &suite).map(|()| true)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
