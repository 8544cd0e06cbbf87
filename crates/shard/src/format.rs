//! `RouteTableSet` — the compact columnar binary format whole-table
//! results land in.
//!
//! One file holds, for a set of destinations, the full per-AS route row
//! of each: next-hop AS, business-class code, and AS-hop count (the
//! sentinels and class codes are [`miro_bgp::solver`]'s
//! `UNROUTED_*`/[`route_class_code`] contract). Layout, all
//! little-endian:
//!
//! ```text
//! 0        magic "MIRT"
//! 4        format version (u32)
//! 8        num_nodes V (u32)
//! 12       num_dests D (u32)
//! 16       destination ids          u32 × D
//! 16+4D    per-row checksums        u64 × D   (FNV-1a of each row's bytes)
//! 16+12D   rows, one per dest:      next u32 × V | hops u16 × V | class u8 × V
//! end-8    whole-file checksum      u64        (FNV-1a of everything above)
//! ```
//!
//! The checksum granularity is the *row* (one destination's columns), not
//! the dispatch block: dispatch blocking is a runtime knob, and the merged
//! file must be byte-identical whatever block size, worker count, or
//! failure history produced it. Rows are stored in the job's canonical
//! destination order, so [`RouteTableSet::merge`] is order-independent by
//! construction — it places each partial table's rows by destination id
//! and encodes once.

use crate::fnv1a;
use miro_bgp::engine::ScratchPool;
use miro_topology::{NodeId, Topology};

/// File magic: "MIRO Route Table".
pub const TABLE_MAGIC: [u8; 4] = *b"MIRT";
/// On-disk format version; bump on any layout or encoding change.
pub const TABLE_FORMAT_VERSION: u32 = 1;

/// Whole-table solve results for a set of destinations, columnar per
/// destination. Row `i` covers `dests[i]`; within a row, index `x` is the
/// route of AS `x` toward that destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTableSet {
    num_nodes: u32,
    dests: Vec<NodeId>,
    /// `dests.len() * num_nodes` entries each, row-major.
    next: Vec<u32>,
    hops: Vec<u16>,
    class: Vec<u8>,
}

impl RouteTableSet {
    /// An all-unrouted table over `dests`, ready to be filled row by row.
    pub fn with_dests(num_nodes: u32, dests: Vec<NodeId>) -> RouteTableSet {
        let cells = dests.len() * num_nodes as usize;
        RouteTableSet {
            num_nodes,
            dests,
            next: vec![miro_bgp::solver::UNROUTED_NEXT; cells],
            hops: vec![miro_bgp::solver::UNROUTED_HOPS; cells],
            class: vec![miro_bgp::solver::UNROUTED_CLASS; cells],
        }
    }

    /// Solve every destination and extract its row — the single-process
    /// reference the sharded service must reproduce byte for byte.
    pub fn from_solves(topo: &Topology, dests: &[NodeId], threads: usize) -> RouteTableSet {
        let pool = ScratchPool::for_nodes(topo.num_nodes());
        RouteTableSet::from_solves_pooled(topo, dests, threads, &pool)
    }

    /// [`RouteTableSet::from_solves`] drawing per-thread solve arenas
    /// from `pool` — the workhorse each shard worker runs on its blocks,
    /// where one pool spans every block of a job so the steady state
    /// allocates no scratch at all.
    pub fn from_solves_pooled(
        topo: &Topology,
        dests: &[NodeId],
        threads: usize,
        pool: &ScratchPool,
    ) -> RouteTableSet {
        let v = topo.num_nodes();
        let rows = pool.over_dests(topo, dests, threads, |_, wi| {
            let (mut next, mut hops, mut class) = (vec![0u32; v], vec![0u16; v], vec![0u8; v]);
            wi.base().write_table_row(&mut next, &mut hops, &mut class);
            (next, hops, class)
        });
        let mut set = RouteTableSet::with_dests(v as u32, dests.to_vec());
        for (i, (next, hops, class)) in rows.into_iter().enumerate() {
            set.set_row(i, &next, &hops, &class);
        }
        set
    }

    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    pub fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    /// Fill row `i` from extracted columns.
    pub fn set_row(&mut self, i: usize, next: &[u32], hops: &[u16], class: &[u8]) {
        let v = self.num_nodes as usize;
        self.next[i * v..(i + 1) * v].copy_from_slice(next);
        self.hops[i * v..(i + 1) * v].copy_from_slice(hops);
        self.class[i * v..(i + 1) * v].copy_from_slice(class);
    }

    /// Row `i`'s columns: `(next, hops, class)`, each `num_nodes` long.
    pub fn row(&self, i: usize) -> (&[u32], &[u16], &[u8]) {
        let v = self.num_nodes as usize;
        (&self.next[i * v..(i + 1) * v], &self.hops[i * v..(i + 1) * v], &self.class[i * v..(i + 1) * v])
    }

    /// Serialize. The output is a pure function of the logical content:
    /// same destinations + same rows ⇒ same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let v = self.num_nodes as usize;
        let d = self.dests.len();
        let row_bytes = 7 * v;
        let mut out = Vec::with_capacity(16 + 12 * d + d * row_bytes + 8);
        out.extend_from_slice(&TABLE_MAGIC);
        out.extend_from_slice(&TABLE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_nodes.to_le_bytes());
        out.extend_from_slice(&(d as u32).to_le_bytes());
        for &dest in &self.dests {
            out.extend_from_slice(&dest.to_le_bytes());
        }
        // Checksum table placeholder; filled after the rows are written.
        let sums_at = out.len();
        out.resize(out.len() + 8 * d, 0);
        for i in 0..d {
            let row_at = out.len();
            for x in i * v..(i + 1) * v {
                out.extend_from_slice(&self.next[x].to_le_bytes());
            }
            for x in i * v..(i + 1) * v {
                out.extend_from_slice(&self.hops[x].to_le_bytes());
            }
            out.extend_from_slice(&self.class[i * v..(i + 1) * v]);
            let sum = fnv1a(&out[row_at..]).to_le_bytes();
            out[sums_at + 8 * i..sums_at + 8 * (i + 1)].copy_from_slice(&sum);
        }
        let total = fnv1a(&out);
        out.extend_from_slice(&total.to_le_bytes());
        out
    }

    /// Parse and fully verify an encoded table: magic, version, geometry,
    /// the whole-file checksum, and every per-row checksum.
    pub fn decode(bytes: &[u8]) -> Result<RouteTableSet, String> {
        let rd = |at: usize, n: usize| -> Result<&[u8], String> {
            bytes.get(at..at + n).ok_or_else(|| format!("truncated at byte {at}"))
        };
        let u32_at = |at: usize| -> Result<u32, String> {
            Ok(u32::from_le_bytes(rd(at, 4)?.try_into().unwrap()))
        };
        if rd(0, 4)? != TABLE_MAGIC {
            return Err("bad magic (not a RouteTableSet)".to_string());
        }
        let version = u32_at(4)?;
        if version != TABLE_FORMAT_VERSION {
            return Err(format!(
                "table format version {version}, but this build reads version {TABLE_FORMAT_VERSION}"
            ));
        }
        let v = u32_at(8)? as usize;
        let d = u32_at(12)? as usize;
        let row_bytes = 7 * v;
        let expect = 16 + 12 * d + d * row_bytes + 8;
        if bytes.len() != expect {
            return Err(format!("wrong length: {} bytes, geometry says {expect}", bytes.len()));
        }
        let total = u64::from_le_bytes(bytes[expect - 8..].try_into().unwrap());
        if fnv1a(&bytes[..expect - 8]) != total {
            return Err("whole-file checksum mismatch".to_string());
        }
        let mut dests = Vec::with_capacity(d);
        for i in 0..d {
            dests.push(u32_at(16 + 4 * i)?);
        }
        let sums_at = 16 + 4 * d;
        let rows_at = 16 + 12 * d;
        let mut set = RouteTableSet::with_dests(v as u32, dests);
        for i in 0..d {
            let row = &bytes[rows_at + i * row_bytes..rows_at + (i + 1) * row_bytes];
            let want = u64::from_le_bytes(bytes[sums_at + 8 * i..sums_at + 8 * (i + 1)].try_into().unwrap());
            if fnv1a(row) != want {
                return Err(format!("row {i} checksum mismatch"));
            }
            for x in 0..v {
                set.next[i * v + x] = u32::from_le_bytes(row[4 * x..4 * x + 4].try_into().unwrap());
            }
            let hops_at = 4 * v;
            for x in 0..v {
                set.hops[i * v + x] =
                    u16::from_le_bytes(row[hops_at + 2 * x..hops_at + 2 * x + 2].try_into().unwrap());
            }
            set.class[i * v..(i + 1) * v].copy_from_slice(&row[6 * v..]);
        }
        Ok(set)
    }

    /// Assemble partial tables (one per completed dispatch block, in any
    /// order) into the full table over `dests`. Every destination must be
    /// covered exactly once and every partial must share `num_nodes`.
    pub fn merge(
        num_nodes: u32,
        dests: &[NodeId],
        parts: impl IntoIterator<Item = RouteTableSet>,
    ) -> Result<RouteTableSet, String> {
        let index: std::collections::HashMap<NodeId, usize> =
            dests.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut out = RouteTableSet::with_dests(num_nodes, dests.to_vec());
        let mut filled = vec![false; dests.len()];
        for part in parts {
            if part.num_nodes != num_nodes {
                return Err(format!(
                    "partial table solved over {} nodes, job has {num_nodes}",
                    part.num_nodes
                ));
            }
            for (j, &dest) in part.dests.iter().enumerate() {
                let &i = index
                    .get(&dest)
                    .ok_or_else(|| format!("partial table covers unknown destination {dest}"))?;
                if std::mem::replace(&mut filled[i], true) {
                    return Err(format!("destination {dest} covered twice"));
                }
                let (next, hops, class) = part.row(j);
                out.set_row(i, next, hops, class);
            }
        }
        if let Some(i) = filled.iter().position(|&f| !f) {
            return Err(format!("destination {} missing from every partial table", dests[i]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::RoutingState;
    use miro_topology::GenParams;

    fn sample() -> (Topology, RouteTableSet) {
        let t = GenParams::tiny(3).generate();
        let dests: Vec<NodeId> = crate::sample_dests(t.num_nodes(), 12);
        let set = RouteTableSet::from_solves(&t, &dests, 2);
        (t, set)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (_t, set) = sample();
        let bytes = set.encode();
        let back = RouteTableSet::decode(&bytes).expect("decodes");
        assert_eq!(back, set);
        // Encoding is deterministic.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn rows_match_direct_solves() {
        let (t, set) = sample();
        for (i, &d) in set.dests().iter().enumerate() {
            let st = RoutingState::solve(&t, d);
            let (next, hops, _class) = set.row(i);
            for x in t.nodes() {
                match st.best(x) {
                    Some(b) => {
                        assert_eq!(next[x as usize], b.next);
                        assert_eq!(hops[x as usize], b.len);
                    }
                    None => assert_eq!(next[x as usize], miro_bgp::solver::UNROUTED_NEXT),
                }
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let (_t, set) = sample();
        let bytes = set.encode();
        // Flip one byte in the middle of a row: row checksum catches it
        // (and the file checksum before that).
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x40;
        assert!(RouteTableSet::decode(&bad).is_err());
        // Truncation.
        assert!(RouteTableSet::decode(&bytes[..bytes.len() - 3]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(RouteTableSet::decode(&bad).unwrap_err().contains("magic"));
        // Future version.
        let mut bad = bytes;
        bad[4] = 0xEE;
        assert!(RouteTableSet::decode(&bad).unwrap_err().contains("version"));
    }

    #[test]
    fn merge_is_order_independent_and_strict() {
        let (t, whole) = sample();
        let dests = whole.dests().to_vec();
        let mk = |range: std::ops::Range<usize>| {
            RouteTableSet::from_solves(&t, &dests[range], 1)
        };
        let (a, b, c) = (mk(0..5), mk(5..6), mk(6..12));
        let v = t.num_nodes() as u32;
        let m1 = RouteTableSet::merge(v, &dests, [a.clone(), b.clone(), c.clone()]).unwrap();
        let m2 = RouteTableSet::merge(v, &dests, [c.clone(), a.clone(), b.clone()]).unwrap();
        assert_eq!(m1.encode(), whole.encode());
        assert_eq!(m2.encode(), whole.encode());

        let err = RouteTableSet::merge(v, &dests, [a.clone(), c.clone()]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let err = RouteTableSet::merge(v, &dests, [a.clone(), a.clone(), b, c]).unwrap_err();
        assert!(err.contains("covered twice"), "{err}");
        let err = RouteTableSet::merge(v + 1, &dests, [a]).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }
}
