//! `RouteTableSet` — the compact columnar binary format whole-table
//! results land in.
//!
//! One file holds, for a set of destinations, the full per-AS route row
//! of each: next-hop AS, business-class code, and AS-hop count (the
//! sentinels and class codes are [`miro_bgp::solver`]'s
//! `UNROUTED_*`/[`route_class_code`](miro_bgp::solver::route_class_code) contract). Layout, all
//! little-endian:
//!
//! ```text
//! 0        magic "MIRT"
//! 4        format version (u32)
//! 8        num_nodes V (u32)
//! 12       num_dests D (u32)
//! 16       destination ids          u32 × D
//! 16+4D    per-row checksums        u64 × D   (the table checksum of each row's bytes)
//! 16+12D   rows, one per dest:      next u32 × V | hops u16 × V | class u8 × V
//! end-8    whole-file checksum      u64        (the table checksum of everything above)
//! ```
//!
//! That arithmetic is [`Layout`], a row's bytes are [`encode_row`], the
//! table checksum is [`checksum`] / [`Checksum`] and a file on disk is read
//! by [`TableReader`]: the shard worker and coordinator, `miro-serve`'s
//! mmap reader and `miro-eval whole-table` all go through them.
//!
//! Table bytes are hashed on several passes, so the checksum runs at memory
//! speed: four `u64` lanes over 32-byte stripes, each word folded in by an
//! odd multiply (a bijection: a change within one 8-byte word always moves
//! the sum) and a rotate (so high-bit differences cannot cancel in a lane).
//! Frames, manifest fingerprints and cache keys keep byte-serial FNV-1a:
//! they are tens of bytes, where lanes gain nothing.
//!
//! The checksum granularity is the *row* (one destination's columns), not
//! the dispatch block: dispatch blocking is a runtime knob, and the
//! sharded file must be byte-identical whatever block size, worker count,
//! or failure history produced it. Rows sit in the job's canonical
//! destination order, so a dispatch block is one contiguous byte range.

use miro_bgp::engine::ScratchPool;
use miro_topology::{NodeId, Topology};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;

/// File magic: "MIRO Route Table".
pub const TABLE_MAGIC: [u8; 4] = *b"MIRT";
/// On-disk format version; bump on any layout or encoding change.
pub const TABLE_FORMAT_VERSION: u32 = 2;

/// The first 8 bytes of `bytes` as a little-endian `u64`.
pub fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// Odd, so `step` is a bijection of the lane for any word.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(31)
}

/// The table checksum of `bytes`; [`Checksum`] computes it streamed.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// The table checksum of everything passed to `update`, however split.
#[derive(Clone, Debug, Default)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The first `held` bytes of a stripe a later `update` completes.
    stripe: [u8; 32],
    held: usize,
    len: u64,
}

impl Checksum {
    pub fn new() -> Checksum {
        Checksum::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let (head, rest) = bytes.split_at(bytes.len().min((32 - self.held) % 32));
        let (whole, tail) = rest.split_at(rest.len() - rest.len() % 32);
        self.stripe[self.held..][..head.len()].copy_from_slice(head);
        self.held += head.len();
        if self.held == 32 {
            (self.held, self.lanes) = (0, fold(self.lanes, &self.stripe));
        }
        self.lanes = fold(self.lanes, whole);
        self.stripe[self.held..][..tail.len()].copy_from_slice(tail);
        self.held += tail.len();
    }

    /// Zero-pad the last stripe, fold the lanes and the length through
    /// `step`, avalanche: each stage is a bijection.
    pub fn finish(mut self) -> u64 {
        let len = self.len;
        self.update(&[0; 32][..(32 - self.held) % 32]);
        let h = self.lanes.into_iter().chain([len]).fold(K, step);
        let h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ h >> 33
    }
}

/// Whole 32-byte stripes, word `j` of each into lane `j`.
fn fold(mut lanes: [u64; 4], stripes: &[u8]) -> [u64; 4] {
    for stripe in stripes.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, le_u64(word));
        }
    }
    lanes
}

/// Where everything sits in a table file. Exists only for a geometry
/// whose file length fits `usize`, so the offset getters cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    num_nodes: u32,
    num_dests: u32,
}

impl Layout {
    pub fn new(num_nodes: u32, num_dests: u32) -> Result<Layout, String> {
        let (v, d) = (num_nodes as usize, num_dests as usize);
        v.checked_mul(7)
            .and_then(|row| row.checked_mul(d))
            .and_then(|rows| rows.checked_add(d.checked_mul(12)?))
            .and_then(|n| n.checked_add(24))
            .map(|_| Layout { num_nodes, num_dests })
            .ok_or_else(|| format!("geometry overflow: {num_nodes} nodes x {num_dests} destinations"))
    }

    /// Read magic, version and geometry off the front of a table file;
    /// the caller checks the length with [`Layout::check_len`].
    pub fn parse(bytes: &[u8]) -> Result<Layout, String> {
        if bytes.len() < 24 {
            return Err(format!("{} bytes is too short for even an empty RouteTableSet", bytes.len()));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"));
        if bytes[..4] != TABLE_MAGIC {
            return Err("bad magic (not a RouteTableSet)".to_string());
        }
        let version = u32_at(4);
        if version != TABLE_FORMAT_VERSION {
            return Err(format!(
                "format version {version}, but this build reads version {TABLE_FORMAT_VERSION}"
            ));
        }
        Layout::new(u32_at(8), u32_at(12))
    }

    pub fn check_len(&self, len: usize) -> Result<(), String> {
        let expect = self.file_len();
        if len != expect {
            return Err(format!("wrong length: {len} bytes, geometry says {expect}"));
        }
        Ok(())
    }

    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    pub fn num_dests(&self) -> u32 {
        self.num_dests
    }

    /// Offset of the per-row checksum table (the destination ids end here).
    pub fn sums_at(&self) -> usize {
        16 + 4 * self.num_dests as usize
    }

    pub fn rows_at(&self) -> usize {
        16 + 12 * self.num_dests as usize
    }

    pub fn row_bytes(&self) -> usize {
        7 * self.num_nodes as usize
    }

    /// Offset of row `i`; `row_at(num_dests)` is where the trailer starts.
    pub fn row_at(&self, i: usize) -> usize {
        self.rows_at() + i * self.row_bytes()
    }

    pub fn file_len(&self) -> usize {
        self.row_at(self.num_dests as usize) + 8
    }

    /// Everything before the checksum table, destination ids included.
    pub fn header(&self, dests: &[NodeId]) -> Vec<u8> {
        assert_eq!(dests.len(), self.num_dests as usize, "one id per row");
        let mut out = Vec::with_capacity(self.sums_at());
        out.extend_from_slice(&TABLE_MAGIC);
        for word in [TABLE_FORMAT_VERSION, self.num_nodes, self.num_dests].iter().chain(dests) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Largest read while streaming a table file (whole rows, at least one).
const HASH_BUF: usize = 1 << 20;

/// A table file read with positioned reads through one bounded buffer,
/// never mapped or read whole: how the shard coordinator, `miro-serve`'s
/// open and `miro-eval whole-table` check a file, whatever its size.
pub struct TableReader {
    pub file: File,
    /// Private: `buf` holds at least one of its rows.
    layout: Layout,
    buf: Vec<u8>,
}

impl TableReader {
    /// Parse magic, version and geometry off the front of `file`, `len`
    /// bytes long: the outer error is the read's, the inner the header's.
    /// The caller checks the length with [`Layout::check_len`].
    pub fn open(file: File, len: usize) -> io::Result<Result<TableReader, String>> {
        let mut front = vec![0u8; len.min(24)];
        file.read_exact_at(&mut front, 0)?;
        Ok(Layout::parse(&front).map(|layout| TableReader::new(file, layout)))
    }

    pub fn new(file: File, layout: Layout) -> TableReader {
        let row = layout.row_bytes().max(1);
        let buf = vec![0; (HASH_BUF.min(layout.file_len()) / row).max(1) * row];
        TableReader { file, layout, buf }
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Bytes `range` of the file: for the regions ahead of the rows.
    pub fn read(&self, range: Range<usize>) -> io::Result<Vec<u8>> {
        let mut out = vec![0u8; range.len()];
        self.file.read_exact_at(&mut out, range.start as u64).map(|()| out)
    }

    pub fn dests(&self) -> io::Result<Vec<NodeId>> {
        let ids = self.read(16..self.layout.sums_at())?;
        Ok(ids.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("four bytes"))).collect())
    }

    /// The table checksum of bytes `range` of the file.
    pub fn sum(&mut self, range: Range<usize>) -> io::Result<u64> {
        let mut sum = Checksum::new();
        for at in range.clone().step_by(self.buf.len()) {
            let n = self.buf.len().min(range.end - at);
            self.file.read_exact_at(&mut self.buf[..n], at as u64)?;
            sum.update(&self.buf[..n]);
        }
        Ok(sum.finish())
    }

    /// One pass in file order, whole rows per read: fold the whole-file
    /// checksum, check each row against its stored checksum if
    /// `check_rows`, and hand each row's bytes to `visit`. The verdict is
    /// [`RouteTableSet::decode`]'s: the whole-file checksum first, then the
    /// first bad row, then the first error `visit` returned.
    pub fn stream(
        &mut self,
        check_rows: bool,
        mut visit: impl FnMut(usize, &[u8]) -> Result<(), String>,
    ) -> io::Result<Result<(), String>> {
        let (l, rb, d) = (self.layout, self.layout.row_bytes(), self.layout.num_dests() as usize);
        let head = self.read(0..l.rows_at())?;
        let mut total = Checksum::new();
        total.update(&head);
        let (mut bad_row, mut bad_visit, per_read) = (None, None, self.buf.len() / rb.max(1));
        for first in (0..d).step_by(per_read) {
            let rows = &mut self.buf[..per_read.min(d - first) * rb];
            self.file.read_exact_at(rows, l.row_at(first) as u64)?;
            total.update(rows);
            for i in first..(first + per_read).min(d) {
                let row = &rows[(i - first) * rb..][..rb];
                if check_rows && bad_row.is_none() && checksum(row) != le_u64(&head[l.sums_at() + 8 * i..]) {
                    bad_row = Some(format!("row {i} checksum mismatch"));
                }
                if bad_row.is_none() && bad_visit.is_none() {
                    bad_visit = visit(i, row).err();
                }
            }
        }
        if total.finish() != le_u64(&self.read(l.file_len() - 8..l.file_len())?) {
            return Ok(Err("whole-file checksum mismatch".to_string()));
        }
        Ok(bad_row.or(bad_visit).map_or(Ok(()), Err))
    }
}

/// Serialise one row's columns into `out` (exactly `7 × next.len()`
/// bytes) and return the row's [`checksum`] — the one row serialiser.
pub fn encode_row(next: &[u32], hops: &[u16], class: &[u8], out: &mut [u8]) -> u64 {
    let v = next.len();
    assert!(hops.len() == v && class.len() == v && out.len() == 7 * v, "row columns sized alike");
    let (next_out, rest) = out.split_at_mut(4 * v);
    let (hops_out, class_out) = rest.split_at_mut(2 * v);
    for (cell, x) in next_out.chunks_exact_mut(4).zip(next) {
        cell.copy_from_slice(&x.to_le_bytes());
    }
    for (cell, x) in hops_out.chunks_exact_mut(2).zip(hops) {
        cell.copy_from_slice(&x.to_le_bytes());
    }
    class_out.copy_from_slice(class);
    checksum(out)
}

/// Solve `dests` and serialise each row once, straight from the solved
/// state's columns: `(row bytes, row checksum)` in order — a shard
/// worker's block, against one `pool` for the whole job.
pub fn solve_rows(
    topo: &Topology,
    dests: &[NodeId],
    threads: usize,
    pool: &ScratchPool,
) -> Vec<(Vec<u8>, u64)> {
    pool.over_dests(topo, dests, threads, |_, wi| {
        let (next, hops, class) = wi.base().columns();
        let mut row = vec![0u8; 7 * next.len()];
        let sum = encode_row(next, hops, class, &mut row);
        (row, sum)
    })
}

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
        let v = topo.num_nodes();
        let rows = ScratchPool::for_nodes(v).over_dests(topo, dests, threads, |_, wi| {
            let (next, hops, class) = wi.base().columns();
            (next.to_vec(), hops.to_vec(), class.to_vec())
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
        let layout = Layout::new(self.num_nodes, self.dests.len() as u32)
            .expect("a table held in memory has a geometry that fits");
        let mut out = layout.header(&self.dests);
        out.resize(layout.file_len(), 0);
        let (head, rows) = out.split_at_mut(layout.rows_at());
        for i in 0..self.dests.len() {
            let (next, hops, class) = self.row(i);
            let at = i * layout.row_bytes();
            let sum = encode_row(next, hops, class, &mut rows[at..at + layout.row_bytes()]);
            head[layout.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
        }
        let end = out.len() - 8;
        let total = checksum(&out[..end]);
        out[end..].copy_from_slice(&total.to_le_bytes());
        out
    }

    /// Parse and fully verify an encoded table: magic, version, geometry,
    /// the whole-file checksum, and every per-row checksum.
    pub fn decode(bytes: &[u8]) -> Result<RouteTableSet, String> {
        let layout = Layout::parse(bytes)?;
        layout.check_len(bytes.len())?;
        let end = bytes.len() - 8;
        if checksum(&bytes[..end]) != le_u64(&bytes[end..]) {
            return Err("whole-file checksum mismatch".to_string());
        }
        let u32_of = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("four bytes"));
        let v = layout.num_nodes() as usize;
        let dests = bytes[16..layout.sums_at()].chunks_exact(4).map(u32_of).collect();
        let mut set = RouteTableSet::with_dests(layout.num_nodes(), dests);
        for i in 0..set.dests.len() {
            let row = &bytes[layout.row_at(i)..layout.row_at(i + 1)];
            if checksum(row) != le_u64(&bytes[layout.sums_at() + 8 * i..]) {
                return Err(format!("row {i} checksum mismatch"));
            }
            for (cell, c) in set.next[i * v..(i + 1) * v].iter_mut().zip(row.chunks_exact(4)) {
                *cell = u32_of(c);
            }
            for (cell, c) in set.hops[i * v..(i + 1) * v].iter_mut().zip(row[4 * v..].chunks_exact(2)) {
                *cell = u16::from_le_bytes(c.try_into().expect("two bytes"));
            }
            set.class[i * v..(i + 1) * v].copy_from_slice(&row[6 * v..]);
        }
        Ok(set)
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

    /// `Layout` + `encode_row` + `solve_rows` rebuild `encode`'s bytes
    /// piece by piece — what the worker and coordinator do between them.
    #[test]
    fn layout_and_row_serialiser_reproduce_encode() {
        let (t, set) = sample();
        let bytes = set.encode();
        let layout = Layout::parse(&bytes).expect("header parses");
        assert_eq!(layout, Layout::new(set.num_nodes(), 12).unwrap());
        layout.check_len(bytes.len()).unwrap();
        assert!(layout.check_len(bytes.len() - 1).unwrap_err().contains("wrong length"));
        assert_eq!(&bytes[..layout.sums_at()], &layout.header(set.dests())[..]);
        assert_eq!(layout.row_at(12) + 8, layout.file_len());

        let pool = ScratchPool::for_nodes(t.num_nodes());
        for (i, (row, sum)) in solve_rows(&t, set.dests(), 2, &pool).iter().enumerate() {
            assert_eq!(&bytes[layout.row_at(i)..layout.row_at(i + 1)], &row[..]);
            assert_eq!(le_u64(&bytes[layout.sums_at() + 8 * i..]), *sum);
            assert_eq!(checksum(row), *sum);
        }
        // Geometry that cannot be a file is refused, not wrapped.
        assert!(Layout::new(u32::MAX, u32::MAX).unwrap_err().contains("overflow"));
        assert!(Layout::parse(&bytes[..20]).unwrap_err().contains("too short"));
    }

    /// Rows a third of the buffer wide (two per read, the last read
    /// short), rows of zero bytes, no rows: the reader visits every row
    /// once, in order, with `encode`'s bytes, and its `sum` and verdict
    /// are the in-memory ones.
    #[test]
    fn the_streamed_pass_visits_every_row_and_agrees_with_decode() {
        let path = std::env::temp_dir().join(format!("miro_stream_{}.mirt", std::process::id()));
        for (v, d) in [(50_000u32, 7u32), (0, 5), (9, 0)] {
            let mut set = RouteTableSet::with_dests(v, (0..d).collect());
            for i in 0..d as usize {
                let next: Vec<u32> = (0..v).map(|x| x ^ i as u32).collect();
                set.set_row(i, &next, &vec![i as u16; v as usize], &vec![1; v as usize]);
            }
            let bytes = set.encode();
            std::fs::write(&path, &bytes).unwrap();
            let file = File::open(&path).unwrap();
            let mut table = TableReader::open(file, bytes.len()).unwrap().unwrap();
            let l = table.layout;
            assert!(table.buf.len() <= HASH_BUF.max(l.row_bytes()), "{v} x {d}");
            assert_eq!(table.dests().unwrap(), set.dests());
            assert_eq!(table.sum(0..bytes.len() - 8).unwrap(), le_u64(&bytes[bytes.len() - 8..]));
            let mut seen = 0;
            let visit = |i: usize, row: &[u8]| {
                assert_eq!((i, row), (seen, &bytes[l.row_at(i)..l.row_at(i + 1)]));
                seen += 1;
                Ok(())
            };
            assert_eq!(table.stream(true, visit).unwrap(), Ok(()));
            assert_eq!(seen, d as usize);
            let stop = |i: usize, _: &[u8]| if i == 0 { Err("visit".to_string()) } else { Ok(()) };
            assert_eq!(table.stream(true, stop).unwrap().err(), (d > 0).then(|| "visit".to_string()));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// `len` bytes of xorshift noise.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn checksum_is_pinned() {
        // Pinned: these values are baked into every v2 table file.
        let ramp = |n: u8| (0..n).collect::<Vec<u8>>();
        let got = [b"".to_vec(), b"miro".to_vec(), ramp(31), ramp(32), ramp(33), ramp(64), ramp(65)].map(|b| checksum(&b));
        let want = [
            0x0c06_34ed_5ae3_c304,
            0xd02f_a451_00e4_2c96,
            0x67ba_69ad_409c_9fcf,
            0x26b0_d4bf_7f9c_8e76,
            0x17ce_b00c_cd80_bbaa,
            0xd7b8_267e_ad96_4a43,
            0x5d56_0e8e_f34d_bbfe,
        ];
        assert_eq!(got, want);
    }

    /// Every single-byte change to an input of up to three stripes is
    /// confined to one 8-byte word, so the sum must move.
    #[test]
    fn every_one_byte_flip_changes_the_sum() {
        for len in 0..=96 {
            let bytes = noise(len, len as u64);
            let sum = checksum(&bytes);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[at] ^= flip;
                    assert_ne!(checksum(&bad), sum, "len {len}, byte {at}, flip {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn length_order_and_paired_top_bits_move_the_sum() {
        let bytes = noise(160, 7);
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), checksum(&bytes));
        assert_ne!(checksum(&[0]), checksum(&[]));
        let mut swapped = bytes.clone();
        swapped[32..64].copy_from_slice(&bytes[96..128]);
        swapped[96..128].copy_from_slice(&bytes[32..64]);
        assert_ne!(checksum(&swapped), checksum(&bytes));
        // Bit 63 of words 0 and 4, one lane apart by a stripe: a plain
        // xor-multiply step would cancel the pair; the rotate must not.
        let mut pair = bytes.clone();
        (pair[7], pair[39]) = (pair[7] ^ 0x80, pair[39] ^ 0x80);
        assert_ne!(checksum(&pair), checksum(&bytes));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Streaming through any cuts — anywhere, at 1 MiB ± 1 (the
        /// coordinator's read buffer) or at row boundaries — is one-shot.
        #[test]
        fn any_split_streams_to_the_one_shot_sum(
            big in proptest::any::<bool>(),
            extra in 0usize..200,
            cuts in proptest::collection::vec((0usize..3, 0usize..1 << 21), 0..6),
            seed in proptest::any::<u64>(),
        ) {
            let len = if big { (1 << 20) + extra } else { extra };
            let bytes = noise(len, seed);
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => x,
                    1 => (1 << 20) - 1 + x % 3,
                    _ => 7 * 209 * (x % 800),
                }
                .min(len))
                .collect();
            at.sort_unstable();
            let (mut sum, mut from) = (Checksum::new(), 0);
            for cut in at.into_iter().chain([len]) {
                sum.update(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(sum.finish(), checksum(&bytes));
        }
    }
}
