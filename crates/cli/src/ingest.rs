//! `miro ingest <file>` — stream a real-world AS-relationship snapshot
//! into the JSON cache the evaluation harness consumes.
//!
//! The input is any file [`miro_topology::io::stream`] understands: the
//! repo's whitespace format or the CAIDA/RouteViews `as1|as2|rel` format,
//! with `#` comments, auto-detected per line. The parse is allocation-free
//! per line and single-pass; ASNs are remapped to dense node ids as they
//! are first seen. The output is an [`IngestCache`] JSON document —
//! topology plus provenance plus the [`stream::ParseStats`] counters — which
//! `miro-eval --cache` loads in place of a generated preset.
//!
//! `--check` parses and validates without writing anything, which is what
//! CI wants: prove the golden fixture still ingests cleanly, leave no
//! artifacts behind.
//!
//! `MCT1` churn traces are sniffed by magic: a trace embeds its topology
//! in the same text format, so `miro ingest trace.mct` decodes the trace
//! (checksums and all) and streams the embedded topology through the
//! exact same parser — one ingest verb for snapshots and churn workloads.

use crate::harness::{Cmd, Flag, Kind};
use miro_topology::io::stream::{self, IngestCache};
use miro_topology::io::TopologyDoc;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

pub static CMD: Cmd = Cmd {
    name: "ingest",
    positional: &["file"],
    flags: &[
        Flag { name: "--out", kind: Kind::Str, default: "", help: "cache to write (default <file>.cache.json)" },
        Flag { name: "--name", kind: Kind::Str, default: "", help: "dataset label (default the file's name)" },
        Flag { name: "--check", kind: Kind::Switch, default: "", help: "parse and validate, write nothing" },
    ],
};

/// Entry point for `miro ingest`. Returns the human-readable report.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let path = a.positional[0].clone();
    let (out_path, name): (Option<String>, Option<String>) = (a.opt("--out")?, a.opt("--name")?);

    // Sniff the churn-trace magic in the reader's first buffer: a trace is
    // read whole, everything else streams through the line-oriented parser.
    let file = std::fs::File::open(&path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let mut reader = BufReader::new(file);
    let head = reader.fill_buf().map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let trace_events = if head.starts_with(&miro_churn::MAGIC) {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        Some(miro_churn::Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?)
    } else {
        None
    };
    let (topo, stats) = match &trace_events {
        Some(trace) => stream::parse(BufReader::new(trace.topo_text.as_bytes()))
            .map_err(|e| format!("{path} (embedded topology): {e}"))?,
        None => stream::parse(reader).map_err(|e| format!("{path}: {e}"))?,
    };

    let census = miro_topology::stats::link_census(&topo);
    let mut report = match &trace_events {
        Some(trace) => format!(
            "ingested {path}: MCT1 churn trace, {} events over {} ms; embedded topology: \
             {} lines, {} bytes\n",
            trace.events.len(),
            trace.duration_ms(),
            stats.lines,
            stats.bytes
        ),
        None => format!(
            "ingested {path}: {} lines ({} comments/blanks), {} bytes\n",
            stats.lines, stats.comments, stats.bytes
        ),
    };
    let _ = writeln!(
        report,
        "  accepted {} edges over {} ASes; dropped {} duplicate(s), {} self-loop(s)",
        stats.edges, stats.nodes, stats.duplicate_edges, stats.self_loops
    );
    let _ = writeln!(
        report,
        "  link mix: {} P/C, {} peering, {} sibling; {} stubs ({} multi-homed)",
        census.pc_links,
        census.peering_links,
        census.sibling_links,
        census.stubs,
        census.multihomed_stubs
    );

    if a.on("--check") {
        let _ = writeln!(report, "check ok (no cache written)");
        return Ok(report);
    }

    let label = name.unwrap_or_else(|| {
        std::path::Path::new(&path)
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone())
    });
    let cache = IngestCache::new(label.clone(), path.clone(), stats, TopologyDoc::of(&topo));
    let json = serde_json::to_string_pretty(&cache)
        .map_err(|e| format!("cannot serialize cache: {e}"))?;
    let out_path = out_path.unwrap_or_else(|| format!("{path}.cache.json"));
    std::fs::write(&out_path, json)
        .map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    let _ = writeln!(report, "wrote {out_path} (dataset {label:?})");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, content: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(name);
        std::fs::write(&p, content).expect("tmp write");
        p
    }

    #[test]
    fn ingest_writes_a_loadable_cache() {
        let input = tmp("miro_ingest_test.txt", "# caida style\n1|2|-1\n2|3|-1\n1|3|0\n");
        let out = std::env::temp_dir().join("miro_ingest_test.cache.json");
        let args: Vec<String> = vec![
            input.display().to_string(),
            "--out".into(),
            out.display().to_string(),
            "--name".into(),
            "unit".into(),
        ];
        let report = run(&args).expect("ingest works");
        assert!(report.contains("accepted 3 edges over 3 ASes"), "{report}");
        let (cache, topo) = stream::load_cache(&out).expect("cache loads");
        assert_eq!(cache.format_version, stream::CACHE_FORMAT_VERSION);
        assert_eq!(cache.name, "unit");
        assert_eq!(cache.stats.edges, 3);
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.num_edges(), 3);
    }

    #[test]
    fn check_mode_writes_nothing() {
        let input = tmp("miro_ingest_check.txt", "1 2 c\n2 3 c\n");
        let out = format!("{}.cache.json", input.display());
        let _ = std::fs::remove_file(&out);
        let args: Vec<String> = vec![input.display().to_string(), "--check".into()];
        let report = run(&args).expect("check works");
        assert!(report.contains("check ok"), "{report}");
        assert!(!std::path::Path::new(&out).exists(), "no cache file in check mode");
    }

    #[test]
    fn parse_errors_carry_file_and_line() {
        let input = tmp("miro_ingest_bad.txt", "1 2 c\n1|2|7\n");
        let err = run(&[input.display().to_string()]).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("relationship code 7"), "{err}");
    }

    #[test]
    fn churn_traces_are_sniffed_and_their_topology_ingested() {
        let (topo, _) = miro_topology::gen::figure_1_1();
        let trace = miro_churn::gen::generate(
            &topo,
            &miro_churn::gen::GenConfig { seed: 3, events: 100, ..Default::default() },
        );
        let p = std::env::temp_dir().join("miro_ingest_trace.mct");
        std::fs::write(&p, trace.encode().unwrap()).expect("tmp write");
        let report =
            run(&[p.display().to_string(), "--check".into()]).expect("trace ingests");
        assert!(report.contains("MCT1 churn trace, 100 events"), "{report}");
        assert!(report.contains("accepted 8 edges over 6 ASes"), "{report}");
        assert!(report.contains("check ok"), "{report}");

        // A corrupt trace must fail the checksum, not parse as text.
        let mut bad = std::fs::read(&p).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&p, &bad).unwrap();
        let err = run(&[p.display().to_string(), "--check".into()]).unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("malformed") || err.contains("truncated"),
            "{err}"
        );
    }

    #[test]
    fn missing_file_and_bad_flags_are_errors() {
        assert_eq!(run(&[]).unwrap_err(), CMD.usage());
        assert_eq!(run(&["a.txt".into(), "b.txt".into()]).unwrap_err(), CMD.usage());
        assert!(run(&["/nonexistent/a.txt".into()]).unwrap_err().contains("cannot open"));
    }
}
