//! The `miro` binary: a thin stdin/stdout loop around [`miro_cli::Repl`],
//! plus one dispatch table for the verbs.
//!
//! Interactive: `miro`. Scripted: `miro scenario.txt` or `miro < script`.
//! Everything else is `miro <verb> [options]`; each verb's flags live in
//! its [`Cmd`](miro_cli::harness::Cmd) table, and `miro` with arguments it
//! cannot place prints the usage generated from them.

use miro_cli::harness::Verb;
use miro_cli::{bench, bench_dataplane, bench_query, churn_cmd, ingest, serve_cmd, shard_cmd};
use std::io::{BufRead, Write};

/// Every verb. `shard-worker` is the worker half of `shard-solve`,
/// spawned by the coordinator with the protocol on stdin/stdout;
/// `resilience` is `miro-eval`'s fault-injection sweep.
static VERBS: &[Verb] = &[
    Verb { name: "bench-solver", run: bench::run, exit_code: 2, cmds: &[&bench::CMD] },
    Verb { name: "bench-dataplane", run: bench_dataplane::run, exit_code: 2, cmds: &[&bench_dataplane::CMD] },
    Verb { name: "bench-query", run: bench_query::run, exit_code: 2, cmds: &[&bench_query::CMD] },
    Verb { name: "bench-churn", run: churn_cmd::run_bench, exit_code: 2, cmds: &[&churn_cmd::BENCH] },
    Verb { name: "churn", run: churn_cmd::run_churn, exit_code: 2, cmds: &[&churn_cmd::GEN, &churn_cmd::DUMP, &churn_cmd::REPLAY] },
    Verb { name: "ingest", run: ingest::run, exit_code: 2, cmds: &[&ingest::CMD] },
    Verb { name: "shard-solve", run: shard_cmd::run_solve, exit_code: 2, cmds: &[&shard_cmd::SOLVE] },
    Verb { name: "shard-worker", run: shard_cmd::run_worker, exit_code: 3, cmds: &[&shard_cmd::WORKER] },
    Verb { name: "serve", run: serve_cmd::run, exit_code: 2, cmds: &[&serve_cmd::CMD] },
    Verb { name: "resilience", run: miro_eval::resilience::run, exit_code: 2, cmds: &[&miro_eval::resilience::CMD] },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().and_then(|name| VERBS.iter().find(|v| v.name == name));
    match (verb, args.as_slice()) {
        (Some(verb), [_, rest @ ..]) => match (verb.run)(rest) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("{}: {e}", verb.name);
                std::process::exit(verb.exit_code);
            }
        },
        (_, []) => interactive(&mut miro_cli::Repl::new()),
        (_, [path]) => match std::fs::read_to_string(path) {
            Ok(script) => print!("{}", miro_cli::Repl::new().run_script(&script)),
            Err(e) => {
                eprintln!("cannot read {path:?}: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: miro [script-file]");
            for cmd in VERBS.iter().flat_map(|v| v.cmds) {
                eprint!("{}", cmd.usage());
            }
            std::process::exit(2);
        }
    }
}

fn interactive(repl: &mut miro_cli::Repl) {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("miro shell — `help` for commands, `quit` to leave");
    loop {
        print!("miro> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        match repl.exec(trimmed) {
            Ok(s) if s.is_empty() => {}
            Ok(s) => println!("{}", s.trim_end()),
            Err(e) => println!("error: {e}"),
        }
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_cli::harness::Kind;

    /// Every verb rejects a flag it does not have, a flag missing its
    /// value, a number that does not parse and a negative or non-finite
    /// share / floor / scale factor — each time naming the flag.
    #[test]
    fn every_verb_names_the_flag_it_rejects() {
        for verb in VERBS {
            assert!(!verb.cmds.is_empty(), "{} has no flag table", verb.name);
            for cmd in verb.cmds {
                // `miro churn gen <out.mct> ...`: the sub-verb and placeholders
                // for the positionals come before the probe.
                let sub = cmd.name.split(' ').skip(1).map(str::to_string);
                let placeholders = cmd.positional.iter().map(|p| format!("/nonexistent/{p}"));
                let prefix: Vec<String> = sub.chain(placeholders).collect();
                let numeric = cmd.flags.iter().find(|f| matches!(f.kind, Kind::Num | Kind::F64));
                let run = |probe: &[&str]| {
                    let mut args = prefix.clone();
                    args.extend(probe.iter().map(|s| s.to_string()));
                    (verb.run)(&args).expect_err(&format!("{} {args:?} must fail", verb.name))
                };
                let err = run(&["--no-such-flag"]);
                assert!(err.contains("--no-such-flag"), "{} {prefix:?}: {err}", verb.name);
                let Some(flag) = numeric.map(|f| f.name) else { continue };
                let err = run(&[flag]);
                assert!(err.contains(flag) && err.contains("needs a value"), "{}: {err}", verb.name);
                let err = run(&[flag, "12abc"]);
                assert!(err.contains(flag), "{} {prefix:?}: {err}", verb.name);
                for f in cmd.flags.iter().filter(|f| f.kind == Kind::F64) {
                    for bad in ["-1", "nan"] {
                        let err = run(&[f.name, bad]);
                        assert!(err.contains(f.name), "{} {prefix:?} {bad}: {err}", verb.name);
                    }
                }
            }
        }
    }
}
