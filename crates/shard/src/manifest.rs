//! The append-only resume journal that makes a shard job resumable. It
//! holds no row data — that lives only in the table file
//! (`<out>.partial` until the job completes).
//!
//! The coordinator appends one line per event, flushing after each, so
//! the on-disk state is never more than one torn line behind reality:
//!
//! ```text
//! H <manifest_version> <table_format> <nodes> <edges> <dests> <block_size> <dests_fnv>
//! D <block> <worker>                  block dispatched to worker
//! C <block> <bytes> <checksum>        block's rows verified in the table file
//! ```
//!
//! `D` lines are the block-execution counters: a block dispatched twice
//! (worker death, deadline kill, corrupt result) has two `D` lines, and a
//! resumed run adds `D` lines only for blocks it actually re-runs — which
//! is how the resume tests *prove* finished work is skipped. A `C` line
//! (`bytes` of rows, `checksum` = FNV-1a of the block's slice of the
//! file's per-row checksum table) is written only after the coordinator
//! has re-hashed the block's rows in the file and stored their checksums
//! there; on resume every `C` claim is re-verified the same way — line
//! against checksum slice, slice against rows — before it is trusted.
//!
//! A torn final line (coordinator killed mid-append) is expected and
//! ignored; a malformed line anywhere *else* means the file is not a
//! manifest, and the job refuses to trust it.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Manifest schema revision.
pub const MANIFEST_VERSION: u32 = 2;

/// Everything that must match for a manifest to be resumable into a job:
/// the table format it writes, the topology's shape, and the exact
/// destination partition. `dests_fnv` fingerprints the canonical
/// destination list (ids in order), so a job resumed with a different
/// sample or block size is rejected instead of resumed wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobFingerprint {
    pub table_format: u32,
    pub num_nodes: u32,
    pub num_edges: u32,
    pub num_dests: u32,
    pub block_size: u32,
    pub dests_fnv: u64,
}

impl JobFingerprint {
    /// Explain the first mismatch between a manifest's job and this one.
    pub fn ensure_matches(&self, manifest: &JobFingerprint) -> Result<(), String> {
        let fields: [(&str, u64, u64); 6] = [
            ("table format", self.table_format as u64, manifest.table_format as u64),
            ("node count", self.num_nodes as u64, manifest.num_nodes as u64),
            ("edge count", self.num_edges as u64, manifest.num_edges as u64),
            ("destination count", self.num_dests as u64, manifest.num_dests as u64),
            ("block size", self.block_size as u64, manifest.block_size as u64),
            ("destination fingerprint", self.dests_fnv, manifest.dests_fnv),
        ];
        for (name, ours, theirs) in fields {
            if ours != theirs {
                return Err(format!(
                    "manifest belongs to a different job: {name} is {theirs}, this job has {ours}"
                ));
            }
        }
        Ok(())
    }
}

/// Append handle. Every event is flushed before the call returns.
pub struct ManifestWriter {
    file: File,
}

impl ManifestWriter {
    /// Reopen an existing manifest for appending when `resume`; else
    /// start a fresh one (truncating any previous) with `job`'s header line.
    pub fn open(path: &Path, job: &JobFingerprint, resume: bool) -> std::io::Result<ManifestWriter> {
        let mut file = File::options().create(!resume).append(resume).write(true).truncate(!resume).open(path)?;
        if !resume {
            writeln!(
                file,
                "H {MANIFEST_VERSION} {} {} {} {} {} {}",
                job.table_format, job.num_nodes, job.num_edges, job.num_dests, job.block_size, job.dests_fnv
            )?;
            file.flush()?;
        }
        Ok(ManifestWriter { file })
    }

    /// Record a block assignment — one execution attempt.
    pub fn dispatch(&mut self, block: u32, worker: u32) -> std::io::Result<()> {
        writeln!(self.file, "D {block} {worker}")?;
        self.file.flush()
    }

    /// Record a block whose rows and checksums are verified in the table file.
    pub fn complete(&mut self, block: u32, bytes: u64, checksum: u64) -> std::io::Result<()> {
        writeln!(self.file, "C {block} {bytes} {checksum}")?;
        self.file.flush()
    }
}

/// Parsed manifest contents.
#[derive(Clone, Debug)]
pub struct ManifestState {
    pub job: JobFingerprint,
    /// Execution attempts per block (count of `D` lines).
    pub dispatches: HashMap<u32, u32>,
    /// Completed blocks: `block → (row bytes, checksum of the row checksums)`.
    pub completed: HashMap<u32, (u64, u64)>,
    /// Whether a torn trailing line was discarded.
    pub torn_tail: bool,
}

/// Read and validate a manifest file.
pub fn read(path: &Path) -> Result<ManifestState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read manifest {path:?}: {e}"))?;
    let ends_clean = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut job = None;
    let mut dispatches: HashMap<u32, u32> = HashMap::new();
    let mut completed = HashMap::new();
    let mut torn_tail = false;

    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        match parse_line(line, i == 0) {
            Ok(Line::Header(fp)) => job = Some(fp),
            Ok(Line::Dispatch(block, _worker)) => *dispatches.entry(block).or_insert(0) += 1,
            Ok(Line::Complete(block, bytes, sum)) => {
                completed.insert(block, (bytes, sum));
            }
            Err(e) => {
                // Only the very last line may be torn, and only if the
                // file does not end with a newline (append died mid-line).
                if last && !ends_clean {
                    torn_tail = true;
                } else {
                    return Err(format!("manifest {path:?} line {}: {e}", i + 1));
                }
            }
        }
    }
    let job = job.ok_or_else(|| format!("manifest {path:?} has no header line"))?;
    Ok(ManifestState { job, dispatches, completed, torn_tail })
}

enum Line {
    Header(JobFingerprint),
    Dispatch(u32, u32),
    Complete(u32, u64, u64),
}

fn parse_line(line: &str, first: bool) -> Result<Line, String> {
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("not a number: {s:?}"))
    };
    match fields.as_slice() {
        ["H", ver, fmt, nodes, edges, dests, block, fp] => {
            if !first {
                return Err("header line after the first line".to_string());
            }
            let ver = num(ver)?;
            if ver != MANIFEST_VERSION as u64 {
                return Err(format!(
                    "manifest version {ver}, but this build reads version {MANIFEST_VERSION}"
                ));
            }
            Ok(Line::Header(JobFingerprint {
                table_format: num(fmt)? as u32,
                num_nodes: num(nodes)? as u32,
                num_edges: num(edges)? as u32,
                num_dests: num(dests)? as u32,
                block_size: num(block)? as u32,
                dests_fnv: num(fp)?,
            }))
        }
        ["D", block, worker] => Ok(Line::Dispatch(num(block)? as u32, num(worker)? as u32)),
        ["C", block, bytes, sum] => Ok(Line::Complete(num(block)? as u32, num(bytes)?, num(sum)?)),
        _ => Err(format!("unrecognized line {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> JobFingerprint {
        JobFingerprint {
            table_format: 1,
            num_nodes: 209,
            num_edges: 430,
            num_dests: 209,
            block_size: 16,
            dests_fnv: 0x1234_5678_9abc_def0,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn events_round_trip_with_attempt_counters() {
        let path = tmp("miro_shard_manifest_rt.log");
        let mut w = ManifestWriter::open(&path, &fp(), false).unwrap();
        w.dispatch(0, 0).unwrap();
        w.dispatch(1, 1).unwrap();
        w.complete(0, 100, 7).unwrap();
        // Worker 1 died; block 1 re-dispatched.
        w.dispatch(1, 2).unwrap();
        w.complete(1, 100, 8).unwrap();
        drop(w);
        // Appending after reopen (resume) keeps prior state.
        let mut w = ManifestWriter::open(&path, &fp(), true).unwrap();
        w.dispatch(2, 0).unwrap();
        w.complete(2, 90, 9).unwrap();
        drop(w);

        let st = read(&path).unwrap();
        assert_eq!(st.job, fp());
        assert!(!st.torn_tail);
        assert_eq!(st.dispatches[&0], 1);
        assert_eq!(st.dispatches[&1], 2, "death means two execution attempts");
        assert_eq!(st.dispatches[&2], 1);
        assert_eq!(st.completed[&1], (100, 8));
        assert_eq!(st.completed.len(), 3);
    }

    #[test]
    fn torn_tail_is_ignored_but_interior_garbage_is_not() {
        let path = tmp("miro_shard_manifest_torn.log");
        let mut w = ManifestWriter::open(&path, &fp(), false).unwrap();
        w.complete(0, 10, 1).unwrap();
        drop(w);
        // Simulate a coordinator killed mid-append: partial line, no newline.
        use std::io::Write as _;
        let mut f = File::options().append(true).open(&path).unwrap();
        f.write_all(b"C 1 55").unwrap();
        drop(f);
        let st = read(&path).unwrap();
        assert!(st.torn_tail);
        assert_eq!(st.completed.len(), 1, "torn completion is not trusted");

        // Garbage with more lines after it is corruption, not a torn tail.
        std::fs::write(&path, "H 2 1 209 430 209 16 5\nwhat even\nC 0 10 1\n").unwrap();
        let err = read(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        // A complete (newline-terminated) garbage last line is also corruption.
        std::fs::write(&path, "H 2 1 209 430 209 16 5\nC 0 10 1\nnope\n").unwrap();
        assert!(read(&path).is_err());
    }

    #[test]
    fn fingerprint_mismatches_are_named() {
        let ours = fp();
        let mut theirs = fp();
        theirs.block_size = 64;
        let err = ours.ensure_matches(&theirs).unwrap_err();
        assert!(err.contains("block size is 64"), "{err}");
        assert!(ours.ensure_matches(&fp()).is_ok());

        let path = tmp("miro_shard_manifest_ver.log");
        std::fs::write(&path, "H 9 1 209 430 209 16 5\n").unwrap();
        let err = read(&path).unwrap_err();
        assert!(err.contains("manifest version 9"), "{err}");
    }
}
