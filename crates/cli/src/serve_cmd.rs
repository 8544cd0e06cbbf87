//! `miro serve` — the route-query daemon over a solved table.
//!
//! ```text
//! miro serve table.mirt --preset gao2005 --factor 0.05 --seed 42 \
//!     --addr 127.0.0.1:0 --port-file serve.port
//! ```
//!
//! The table is memory-mapped ([`miro_serve::mmap::MappedTable`]) and
//! must have been solved over exactly the topology given by
//! `--preset/--factor/--seed` (or `--cache`) — the same flags
//! `shard-solve` took, because the daemon needs the adjacency and
//! business relationships to answer alternate-path queries, and the
//! table file stores only routes. `--port-file` publishes the bound
//! address (useful with port 0) so scripts don't have to parse logs.

use crate::harness::{Cmd, Flag, Kind};
use crate::shard_cmd::topo_spec;
use miro_serve::cache::ShardedCache;
use miro_serve::mmap::MappedTable;
use miro_serve::query::Engine;
use miro_serve::server::Server;

pub static CMD: Cmd = Cmd {
    name: "serve",
    positional: &["table.mirt"],
    flags: &[
        Flag { name: "--preset", kind: Kind::Str, default: "", help: "topology the table was solved over (default gao2005)" },
        Flag { name: "--factor", kind: Kind::F64, default: "", help: "multiple of the preset's node count (default 1)" },
        Flag { name: "--seed", kind: Kind::Num, default: "", help: "generation seed (default 42)" },
        Flag { name: "--cache", kind: Kind::Str, default: "", help: "a `miro ingest` cache instead of a preset" },
        // 4179: BGP's 179, one plane up.
        Flag { name: "--addr", kind: Kind::Str, default: "127.0.0.1:4179", help: "listen address; port 0 lets the kernel pick" },
        Flag { name: "--port-file", kind: Kind::Str, default: "", help: "publish the bound address here" },
        Flag { name: "--stripes", kind: Kind::Num, default: "16", help: "answer-cache stripes" },
        Flag { name: "--cache-slots", kind: Kind::Num, default: "1024", help: "answer-cache slots per stripe" },
        Flag { name: "--no-verify-file", kind: Kind::Switch, default: "", help: "skip the whole-file checksum at open (saves start time, not memory)" },
        Flag { name: "--quiet", kind: Kind::Switch, default: "", help: "no start-up line on stderr" },
    ],
};

/// Run the daemon until a wire `Shutdown` arrives. Returns the lifetime
/// report.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let path = std::path::Path::new(&a.positional[0]);
    let spec = topo_spec(&a)?;
    let bind: String = a.get("--addr")?;
    let port_file: Option<String> = a.opt("--port-file")?;
    let (stripes, cache_slots): (usize, usize) = (a.get("--stripes")?, a.get("--cache-slots")?);
    // The two halves of start-up share nothing: build the topology on a
    // second thread while this one maps and checksums the table. A bad
    // table is still the error reported first.
    let (table, topo) = std::thread::scope(|scope| {
        let topo = scope.spawn(|| spec.build());
        let table = if a.on("--no-verify-file") {
            MappedTable::open_unverified(path)
        } else {
            MappedTable::open(path)
        };
        (table, topo.join().expect("topology build panicked"))
    });
    let (table, topo) = (table?, topo?);
    let bytes = table.file_bytes();
    let dests = miro_serve::TableSource::dests(&table).len();
    let engine = Engine::new(table, topo, Some(ShardedCache::new(stripes, cache_slots)))?;
    let server = Server::bind(bind.as_str(), engine)
        .map_err(|e| format!("cannot bind {bind}: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write port file {path:?}: {e}"))?;
    }
    if !a.on("--quiet") {
        eprintln!(
            "serve: {} ({bytes} bytes, {dests} dests) on {addr}, cache {stripes}x{cache_slots} slots",
            path.display()
        );
    }
    let report = server.run().map_err(|e| format!("serve loop failed: {e}"))?;
    let lookups = report.cache_hits + report.cache_misses;
    let hit_pct = if lookups == 0 { 0.0 } else { report.cache_hits as f64 * 100.0 / lookups as f64 };
    Ok(format!(
        "serve: done — {} connections ({} shed, {} timed out, {} idle, {} corrupt), {} queries; \
         cache: {} hits, {} misses, {} evictions ({hit_pct:.1}% hit rate){}\n",
        report.connections, report.shed, report.timed_out, report.idle_closed, report.corrupt,
        report.queries,
        report.cache_hits, report.cache_misses, report.cache_evictions,
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
