//! Sharded whole-table solve service.
//!
//! [`miro_bgp::engine::par_over_dests`] parallelizes a whole-network
//! solve *within* one process; this crate is the layer above it — the
//! batch service that turns "solve every destination of a 70k-AS graph"
//! into work a fleet of worker processes can chew through, survive
//! crashes during, and resume after a coordinator restart.
//!
//! The shape is deliberately boring: a coordinator partitions the
//! destination space into fixed-size blocks ([`miro_bgp::engine::dest_blocks`]),
//! spawns N worker subprocesses, and speaks a small length-prefixed
//! framed protocol ([`protocol`]) over each worker's stdin/stdout. Row
//! bytes never travel over it: the coordinator pre-sizes the final
//! [`format::RouteTableSet`] file as `<out>.partial`, a worker
//! writes its block's rows straight into the block's slice of it and
//! reports only their checksums, and the coordinator re-hashes the slice
//! before recording the block in the append-only [`manifest`]. The file's
//! bytes are identical whatever blocks, workers, or deaths the run saw.
//!
//! Robustness is first-class, not bolted on:
//!
//! * a worker that **crashes** (stdout EOF) gets its in-flight block
//!   pushed back to the front of the queue and is replaced while the
//!   respawn budget lasts;
//! * a worker that **hangs** past the heartbeat deadline is killed and
//!   treated as crashed;
//! * a worker that sends a **corrupt frame** or reports a block whose
//!   bytes in the file do not hash to the checksums it reported (never
//!   written, torn) is killed and treated as crashed;
//! * a coordinator that dies mid-run leaves a valid manifest behind —
//!   `--resume` re-verifies every checkpointed block inside
//!   `<out>.partial` and re-dispatches only what is missing.

pub mod coordinator;
pub mod format;
pub mod manifest;
pub mod protocol;
pub mod worker;

use miro_topology::gen::DatasetPreset;
use miro_topology::{NodeId, Topology};

/// 64-bit FNV-1a: the resume manifest's block and destination
/// fingerprints and the serving plane's cache keys — short inputs all;
/// table bytes use [`format::checksum`], wire frames
/// [`format::frame_sum`]. Not
/// cryptographic — it guards against truncation, bit rot, and torn
/// writes, which is what a batch service on one machine actually faces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The destination sample a job solves: every node when `sample == 0` or
/// `sample >= num_nodes`, otherwise `sample` destinations spread evenly
/// by stride. Coordinator and workers both derive the list from this one
/// function (it is part of the job fingerprint), so a block's
/// `(start, len)` indices mean the same destinations everywhere.
pub fn sample_dests(num_nodes: usize, sample: usize) -> Vec<NodeId> {
    if sample == 0 || sample >= num_nodes {
        return (0..num_nodes as NodeId).collect();
    }
    let stride = num_nodes / sample;
    (0..num_nodes as NodeId).step_by(stride.max(1)).take(sample).collect()
}

/// How a worker obtains the topology the coordinator is sharding: both
/// sides rebuild it independently (generation is deterministic and the
/// ingest cache is on shared disk), so the protocol moves only each
/// worker's adjacency sections, once, in its `Hello` — the table embeds
/// them, and the coordinator checks that every worker built the same
/// ones.
#[derive(Clone, Debug, PartialEq)]
pub enum TopoSpec {
    /// A generated preset — name as [`DatasetPreset`] parses it, i.e. as
    /// spelled on the `miro` command line — scale factor, and seed.
    Preset { preset: String, factor: f64, seed: u64 },
    /// A `miro ingest` JSON cache on disk.
    Cache { path: String },
}

impl TopoSpec {
    /// Build the topology this spec describes.
    pub fn build(&self) -> Result<Topology, String> {
        match self {
            TopoSpec::Preset { preset, factor, seed } => {
                Ok(preset.parse::<DatasetPreset>()?.params(*factor, *seed).generate())
            }
            TopoSpec::Cache { path } => {
                miro_topology::io::stream::load_cache(path).map(|(_, topo)| topo)
            }
        }
    }

    /// The argv fragment that makes `miro shard-worker` rebuild the same
    /// topology.
    pub fn to_args(&self) -> Vec<String> {
        match self {
            TopoSpec::Preset { preset, factor, seed } => vec![
                "--preset".into(),
                preset.clone(),
                "--factor".into(),
                factor.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
            TopoSpec::Cache { path } => vec!["--cache".into(), path.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Pinned: these values are baked into on-disk artifacts.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"miro"), 0xda5b_fba2_a79a_efc4);
        assert_ne!(fnv1a(b"miro"), fnv1a(b"mirp"));
    }

    #[test]
    fn sample_dests_covers_and_strides() {
        assert_eq!(sample_dests(5, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_dests(5, 9), vec![0, 1, 2, 3, 4]);
        let s = sample_dests(100, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 10);
    }

    #[test]
    fn preset_spec_round_trips_and_builds() {
        let spec =
            TopoSpec::Preset { preset: "gao2005".into(), factor: 0.01, seed: 42 };
        let t = spec.build().expect("preset builds");
        assert_eq!(t.num_nodes(), 209);
        assert_eq!(
            spec.to_args(),
            vec!["--preset", "gao2005", "--factor", "0.01", "--seed", "42"]
        );
        assert!(TopoSpec::Preset { preset: "nope".into(), factor: 1.0, seed: 1 }
            .build()
            .unwrap_err()
            .contains("unknown preset"));
    }
}
