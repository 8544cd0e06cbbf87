//! `miro serve` — the route-query daemon over a solved table.
//!
//! ```text
//! miro serve table.mirt --addr 127.0.0.1:0 --port-file serve.port
//! ```
//!
//! The table is memory-mapped ([`miro_serve::mmap::MappedTable`]) and
//! carries the topology it was solved over, which the daemon rebuilds
//! ([`miro_shard::format::Adjacency::topology`]) and answers from.
//! `--preset/--factor/--seed` or `--cache`, the flags `shard-solve`
//! took, are optional: a topology they name is built beside the open
//! and refused unless its neighbour lists, partition ends and AS numbers
//! are the table's. `--port-file` publishes the bound address (useful
//! with port 0) so scripts don't have to parse logs.
//!
//! The daemon answers every query from the table, with no answer cache in
//! front: a path costs a rank load and a 2-byte cell per hop, less than a
//! cache probe, and the wire `Stats` cache counters read 0.

use crate::harness::{Cmd, Flag, Kind};
use crate::shard_cmd::named_topology;
use miro_serve::mmap::MappedTable;
use miro_serve::query::Engine;
use miro_serve::server::Server;
use miro_serve::TableSource;

pub static CMD: Cmd = Cmd {
    name: "serve",
    positional: &["table.mirt"],
    flags: &[
        Flag { name: "--preset", kind: Kind::Str, default: "", help: "check the table was solved over this preset (default gao2005)" },
        Flag { name: "--factor", kind: Kind::F64, default: "", help: "multiple of the preset's node count (default 1)" },
        Flag { name: "--seed", kind: Kind::Num, default: "", help: "generation seed (default 42)" },
        Flag { name: "--cache", kind: Kind::Str, default: "", help: "check against a `miro ingest` cache instead of a preset" },
        // 4179: BGP's 179, one plane up.
        Flag { name: "--addr", kind: Kind::Str, default: "127.0.0.1:4179", help: "listen address; port 0 lets the kernel pick" },
        Flag { name: "--port-file", kind: Kind::Str, default: "", help: "publish the bound address here" },
        Flag { name: "--no-verify-file", kind: Kind::Switch, default: "", help: "skip the whole-file checksum at open (saves start time, not memory)" },
        Flag { name: "--quiet", kind: Kind::Switch, default: "", help: "no start-up line on stderr" },
    ],
};

/// Run the daemon until a wire `Shutdown` arrives. Returns the lifetime
/// report.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let path = std::path::Path::new(&a.positional[0]);
    let spec = named_topology(&a)?;
    let bind: String = a.get("--addr")?;
    let port_file: Option<String> = a.opt("--port-file")?;
    // A named topology shares nothing with the table: build it on a
    // second thread while this one maps and checksums the table. A bad
    // table is still the error reported first.
    let (table, named) = std::thread::scope(|scope| {
        let named = spec.map(|spec| scope.spawn(move || spec.build()));
        let table = if a.on("--no-verify-file") {
            MappedTable::open_unverified(path)
        } else {
            MappedTable::open(path)
        };
        (table, named.map(|topo| topo.join().expect("topology build panicked")))
    });
    let table = table?;
    let topo = named.unwrap_or_else(|| table.adjacency().topology().map_err(|e| format!("table {path:?}: {e}")))?;
    let bytes = table.file_bytes();
    let dests = table.dests().len();
    let engine = Engine::new(table, topo, None)?;
    let server = Server::bind(bind.as_str(), engine)
        .map_err(|e| format!("cannot bind {bind}: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write port file {path:?}: {e}"))?;
    }
    if !a.on("--quiet") {
        eprintln!(
            "serve: {} ({bytes} bytes, {dests} dests) on {addr}",
            path.display()
        );
    }
    let report = server.run().map_err(|e| format!("serve loop failed: {e}"))?;
    Ok(format!(
        "serve: done — {} connections ({} shed, {} timed out, {} idle, {} corrupt), {} queries{}\n",
        report.connections, report.shed, report.timed_out, report.idle_closed, report.corrupt,
        report.queries,
        peak_resident().unwrap_or_default()
    ))
}

/// `; peak resident N.N MB` (10^6 bytes) from `VmHWM`; `None` without `/proc`.
fn peak_resident() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(format!("; peak resident {:.1} MB", kib * 1024.0 / 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn bad_command_lines_are_rejected_before_the_table_is_opened() {
        assert_eq!(run(&s(&[])).unwrap_err(), CMD.usage(), "no table file");
        assert!(run(&s(&["t.mirt", "--cache", "c.json", "--preset", "gao2005"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(run(&s(&["t.mirt", "--cache", "c.json", "--seed", "7"]))
            .unwrap_err()
            .contains("only apply to --preset"));
    }

    #[test]
    fn missing_table_file_is_a_clean_error() {
        let err = run(&s(&["/nonexistent/t.mirt", "--preset", "gao2005", "--factor", "0.01"]))
            .unwrap_err();
        assert!(err.contains("cannot open table"), "{err}");
    }
}
