//! `RouteTableSet` — the binary route-table format whole-table results
//! land in, held in memory as the file image itself.
//!
//! One file holds, for a set of destinations, the full per-AS route row
//! of each: next-hop AS, business-class code, and AS-hop count, packed
//! into one cell by [`miro_bgp::solver`]'s cell codec (re-exported here
//! as [`CELL_BYTES`] and [`MAX_NODES`]; the sentinels and class codes are
//! its `UNROUTED_*`/[`route_class_code`](miro_bgp::solver::route_class_code)
//! contract). The solver settles cells, so a row is a copy. Layout, all
//! little-endian:
//!
//! ```text
//! 0        magic "MIRT"
//! 4        format version (u32)
//! 8        num_nodes V (u32)
//! 12       num_dests D (u32)
//! 16       destination ids          u32 × D
//! 16+4D    per-row checksums        u64 × D   (the table checksum of each row's bytes)
//! 16+12D   rows, one per dest:      cell u32 × V
//! end-8    whole-file checksum      u64        (the table checksum of everything above)
//!
//! cell     bits 0–21 next-hop node id | bits 22–23 class code | bits 24–31 AS hops
//!          class bits 3 = unrouted (written as all ones; the other bits are not read)
//! ```
//!
//! That arithmetic is [`Layout`], a row's bytes are [`encode_row`] (the
//! solver's cells, little-endian), a cell is read by [`cell_at`], the table checksum is
//! [`checksum`] / [`Checksum`] and a file on disk is read by
//! [`TableReader`]: the shard worker and coordinator, `miro-serve`'s mmap
//! reader and `miro-eval whole-table` all go through them. The cell's
//! field widths bound what a table holds: [`MAX_NODES`] nodes, and routes
//! of at most [`MAX_HOPS`](miro_bgp::solver::MAX_HOPS) hops, which the
//! solver refuses to exceed.
//!
//! Table bytes are hashed on several passes, so the checksum runs at memory
//! speed: four `u64` lanes over 32-byte stripes, each word folded in by an
//! odd multiply (a bijection: a change within one 8-byte word always moves
//! the sum) and a rotate (so high-bit differences cannot cancel in a lane).
//! Frames, manifest fingerprints and cache keys keep byte-serial FNV-1a:
//! they are tens of bytes, where lanes gain nothing.
//!
//! The checksum granularity is the *row* (one destination's cells), not
//! the dispatch block: dispatch blocking is a runtime knob, and the
//! sharded file must be byte-identical whatever block size, worker count,
//! or failure history produced it. Rows sit in the job's canonical
//! destination order, so a dispatch block is one contiguous byte range.

use miro_bgp::engine::ScratchPool;
use miro_bgp::solver::{pack_cell, unpack_cell};
pub use miro_bgp::solver::{CELL_BYTES, MAX_NODES};
use miro_topology::{NodeId, Topology};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::Mutex;

/// File magic: "MIRO Route Table".
pub const TABLE_MAGIC: [u8; 4] = *b"MIRT";
/// On-disk format version; bump on any layout or encoding change.
pub const TABLE_FORMAT_VERSION: u32 = 3;

/// AS `x`'s `(next, hops, class)` in a row's bytes.
#[inline]
pub fn cell_at(row: &[u8], x: usize) -> (u32, u16, u8) {
    let at = CELL_BYTES * x;
    unpack_cell(u32::from_le_bytes(row[at..at + CELL_BYTES].try_into().expect("one cell")))
}

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
/// whose node ids fit a cell and whose file length fits `usize`, so the
/// offset getters cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    num_nodes: u32,
    num_dests: u32,
}

impl Layout {
    pub fn new(num_nodes: u32, num_dests: u32) -> Result<Layout, String> {
        if num_nodes > MAX_NODES {
            return Err(format!(
                "{num_nodes} nodes is more than the {MAX_NODES} (2^22) a table cell's next-hop field holds"
            ));
        }
        let (v, d) = (num_nodes as usize, num_dests as usize);
        v.checked_mul(CELL_BYTES)
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
        CELL_BYTES * self.num_nodes as usize
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

/// Write one row's cells into `out` (exactly `CELL_BYTES × cells.len()`
/// bytes) as little-endian words and return the row's [`checksum`] — the
/// one row serialiser.
pub fn encode_row(cells: &[u32], out: &mut [u8]) -> u64 {
    assert_eq!(out.len(), CELL_BYTES * cells.len(), "one cell per AS");
    for (bytes, cell) in out.chunks_exact_mut(CELL_BYTES).zip(cells) {
        bytes.copy_from_slice(&cell.to_le_bytes());
    }
    checksum(out)
}

/// Solve `dests` and serialise each row once, straight from the solved
/// state's cells: `(row bytes, row checksum)` in order — a shard
/// worker's block, against one `pool` for the whole job.
pub fn solve_rows(
    topo: &Topology,
    dests: &[NodeId],
    threads: usize,
    pool: &ScratchPool,
) -> Vec<(Vec<u8>, u64)> {
    pool.over_dests(topo, dests, threads, |_, wi| {
        let cells = wi.base().cells();
        let mut row = vec![0u8; CELL_BYTES * cells.len()];
        let sum = encode_row(cells, &mut row);
        (row, sum)
    })
}

/// Whole-table solve results for a set of destinations, held as their
/// file image: row `i` covers `dests[i]`, and within a row, cell `x` is
/// the route of AS `x` toward that destination. The image is always
/// sealed (every checksum current), so [`RouteTableSet::encode`] is one
/// copy and equality is equality of the file bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTableSet {
    layout: Layout,
    dests: Vec<NodeId>,
    image: Vec<u8>,
}

impl RouteTableSet {
    /// The image of a table over `dests`, header written, rows and
    /// checksums zero: sized once, filled slot by slot, then sealed.
    fn blank(num_nodes: u32, dests: Vec<NodeId>) -> RouteTableSet {
        let layout = Layout::new(num_nodes, dests.len() as u32)
            .expect("a table held in memory has a geometry that fits");
        let mut image = Vec::with_capacity(layout.file_len());
        image.extend_from_slice(&layout.header(&dests));
        image.resize(layout.file_len(), 0);
        RouteTableSet { layout, dests, image }
    }

    /// Write the whole-file checksum over everything above it.
    fn seal(&mut self) {
        let end = self.image.len() - 8;
        let total = checksum(&self.image[..end]);
        self.image[end..].copy_from_slice(&total.to_le_bytes());
    }

    /// Solve every destination straight into its row of the image — the
    /// single-process reference the sharded service must reproduce byte
    /// for byte. Each solving thread writes a row's cells and checksum
    /// into that row's slot; nothing is collected per row.
    pub fn from_solves(topo: &Topology, dests: &[NodeId], threads: usize) -> RouteTableSet {
        let v = topo.num_nodes();
        let mut set = RouteTableSet::blank(v as u32, dests.to_vec());
        let l = set.layout;
        let (head, rows) = set.image.split_at_mut(l.rows_at());
        // Each row's bytes and checksum slot (a solved row has at least
        // one cell); each index is claimed once, so no lock is contended.
        let rows = rows[..l.row_bytes() * dests.len()].chunks_exact_mut(l.row_bytes().max(1));
        let slots: Vec<_> = rows.zip(head[l.sums_at()..].chunks_exact_mut(8)).map(Mutex::new).collect();
        ScratchPool::for_nodes(v).over_dests(topo, dests, threads, |i, wi| {
            let (row, sum) = &mut *slots[i].lock().expect("slot poisoned");
            sum.copy_from_slice(&encode_row(wi.base().cells(), row).to_le_bytes());
        });
        set.seal();
        set
    }

    pub fn num_nodes(&self) -> u32 {
        self.layout.num_nodes()
    }

    pub fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The sealed file image: what [`RouteTableSet::encode`] copies.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Row `i`'s cells as file bytes, read with [`cell_at`].
    pub fn row_cells(&self, i: usize) -> &[u8] {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        &self.image[self.layout.row_at(i)..self.layout.row_at(i + 1)]
    }

    /// Row `i` unpacked: owned `(next, hops, class)` columns, each
    /// `num_nodes` long.
    pub fn row(&self, i: usize) -> (Vec<u32>, Vec<u16>, Vec<u8>) {
        let row = self.row_cells(i);
        let cells = (0..self.num_nodes() as usize).map(|x| cell_at(row, x));
        let (next, rest): (Vec<u32>, Vec<(u16, u8)>) = cells.map(|(n, h, c)| (n, (h, c))).unzip();
        let (hops, class) = rest.into_iter().unzip();
        (next, hops, class)
    }

    /// Overwrite row `i` from columns — packed into cells — and reseal
    /// its checksum and the file's.
    pub fn set_row(&mut self, i: usize, next: &[u32], hops: &[u16], class: &[u8]) {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        let (l, at) = (self.layout, self.layout.row_at(i));
        let v = l.num_nodes() as usize;
        assert!(next.len() == v && hops.len() == v && class.len() == v, "row columns sized alike");
        let cells: Vec<u32> = (0..v).map(|x| pack_cell(next[x], hops[x], class[x])).collect();
        let sum = encode_row(&cells, &mut self.image[at..at + l.row_bytes()]);
        self.image[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
        self.seal();
    }

    /// The file bytes: one copy of the image.
    pub fn encode(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Fully verify an encoded table — magic, version, geometry, the
    /// whole-file checksum, and every per-row checksum — then keep its
    /// bytes as the image.
    pub fn decode(bytes: &[u8]) -> Result<RouteTableSet, String> {
        let layout = Layout::parse(bytes)?;
        layout.check_len(bytes.len())?;
        let end = bytes.len() - 8;
        if checksum(&bytes[..end]) != le_u64(&bytes[end..]) {
            return Err("whole-file checksum mismatch".to_string());
        }
        for i in 0..layout.num_dests() as usize {
            if checksum(&bytes[layout.row_at(i)..layout.row_at(i + 1)]) != le_u64(&bytes[layout.sums_at() + 8 * i..]) {
                return Err(format!("row {i} checksum mismatch"));
            }
        }
        let u32_of = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("four bytes"));
        let dests = bytes[16..layout.sums_at()].chunks_exact(4).map(u32_of).collect();
        Ok(RouteTableSet { layout, dests, image: bytes.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::{RoutingState, MAX_HOPS, UNROUTED_CLASS, UNROUTED_HOPS, UNROUTED_NEXT};
    use miro_topology::GenParams;

    /// A table over `dests` whose row `i` holds the columns `row(i)`.
    fn table(num_nodes: u32, dests: Vec<NodeId>, row: impl Fn(usize) -> (Vec<u32>, Vec<u16>, Vec<u8>)) -> RouteTableSet {
        let mut set = RouteTableSet::blank(num_nodes, dests);
        for i in 0..set.dests.len() {
            let (next, hops, class) = row(i);
            set.set_row(i, &next, &hops, &class);
        }
        set.seal();
        set
    }

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

    /// Each thread writes a row into the slot of its position in `dests`:
    /// out of order, repeated, node 0, or no destination at all, at any
    /// thread count, the image's rows are `solve_rows`' bytes and each
    /// destination's own solve's cells, and the image is sealed.
    #[test]
    fn the_in_place_build_places_rows_by_position() {
        let t = GenParams::tiny(3).generate();
        let last = t.num_nodes() as NodeId - 1;
        let pool = ScratchPool::for_nodes(t.num_nodes());
        for dests in [vec![9, 0, last, 4, 9, 0, 9, 2], vec![0], vec![]] {
            for threads in [1, 2, 4] {
                let set = RouteTableSet::from_solves(&t, &dests, threads);
                let l = set.layout();
                assert_eq!(set.dests(), &dests[..]);
                assert_eq!(&set.as_bytes()[..l.sums_at()], &l.header(&dests)[..]);
                for (i, (row, sum)) in solve_rows(&t, &dests, threads, &pool).into_iter().enumerate() {
                    assert_eq!(set.row_cells(i), &row[..], "{dests:?} row {i}, {threads} threads");
                    assert_eq!(le_u64(&set.as_bytes()[l.sums_at() + 8 * i..]), sum);
                    let st = RoutingState::solve(&t, dests[i]);
                    let cells: Vec<u8> = st.cells().iter().flat_map(|c| c.to_le_bytes()).collect();
                    assert_eq!(set.row_cells(i), &cells[..], "{dests:?} row {i}, {threads} threads");
                }
                assert_eq!(RouteTableSet::decode(set.as_bytes()).as_ref(), Ok(&set), "{dests:?}, {threads} threads");
            }
        }
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
        // Node ids a cell cannot hold are refused; a geometry whose file
        // length overflows `usize` (a 32-bit target) is refused, not wrapped.
        assert!(Layout::new(MAX_NODES, 1).is_ok());
        assert!(Layout::new(u32::MAX, u32::MAX).unwrap_err().contains("(2^22)"));
        if usize::BITS == 32 {
            assert!(Layout::new(MAX_NODES, 1 << 12).unwrap_err().contains("overflow"));
        }
        assert!(Layout::parse(&bytes[..20]).unwrap_err().contains("too short"));
    }

    /// One row of every class × hops {0, 255} × next {0, 2^22 − 1}, then
    /// an unrouted cell.
    #[test]
    fn every_cell_field_extreme_round_trips_through_encode_row_and_decode() {
        let (mut next, mut hops, mut class) = (vec![], vec![], vec![]);
        for c in 0..3u8 {
            for h in [0, MAX_HOPS] {
                for n in [0, MAX_NODES - 1] {
                    next.push(n);
                    hops.push(h);
                    class.push(c);
                }
            }
        }
        next.push(UNROUTED_NEXT);
        hops.push(UNROUTED_HOPS);
        class.push(UNROUTED_CLASS);
        let cells: Vec<u32> = (0..next.len()).map(|x| pack_cell(next[x], hops[x], class[x])).collect();
        let mut row = vec![0u8; CELL_BYTES * next.len()];
        assert_eq!(encode_row(&cells, &mut row), checksum(&row));
        assert_eq!(&row[row.len() - CELL_BYTES..], &[0xff; CELL_BYTES], "unrouted is all ones");
        for x in 0..next.len() {
            assert_eq!(cell_at(&row, x), (next[x], hops[x], class[x]), "cell {x}");
        }
        let v = next.len();
        let unrouted = (vec![UNROUTED_NEXT; v], vec![UNROUTED_HOPS; v], vec![UNROUTED_CLASS; v]);
        let set = table(v as u32, vec![0, 5], |i| if i == 1 { (next.clone(), hops.clone(), class.clone()) } else { unrouted.clone() });
        assert_eq!(RouteTableSet::decode(&set.encode()).unwrap(), set);
        assert_eq!(set.row(1), (next, hops, class));
    }

    /// Class bits 3 mark the cell unrouted whatever its other bits hold.
    #[test]
    fn class_bits_three_read_as_unrouted_whatever_else_the_cell_holds() {
        let unrouted = (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS);
        for cell in [u32::MAX, 3 << 22, 0x7f << 24 | 3 << 22 | 12_345] {
            assert_eq!(unpack_cell(cell), unrouted, "{cell:#010x}");
        }
        let set = table(3, vec![1], |_| (vec![2, 1, 1], vec![1, 0, 2], vec![0, 0, 2]));
        let mut bytes = set.encode();
        let layout = Layout::parse(&bytes).unwrap();
        let odd = (3 << 22 | 7u32 << 24 | 2).to_le_bytes();
        bytes[layout.row_at(0) + CELL_BYTES..][..CELL_BYTES].copy_from_slice(&odd);
        let sum = checksum(&bytes[layout.row_at(0)..layout.row_at(1)]);
        bytes[layout.sums_at()..][..8].copy_from_slice(&sum.to_le_bytes());
        let end = bytes.len() - 8;
        let total = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&total.to_le_bytes());
        let back = RouteTableSet::decode(&bytes).unwrap();
        let (next, hops, class) = back.row(0);
        assert_eq!((next[1], hops[1], class[1]), unrouted);
        assert_eq!((next[0], next[2]), (2, 1), "its neighbours are untouched");
    }

    #[test]
    fn a_node_count_past_the_next_hop_field_is_refused_and_names_the_limit() {
        let err = Layout::new(MAX_NODES + 1, 1).unwrap_err();
        assert!(err.contains("4194305 nodes") && err.contains("4194304 (2^22)"), "{err}");
    }

    /// Rows a third of the buffer wide (two per read, the last read
    /// short), rows of zero bytes, no rows: the reader visits every row
    /// once, in order, with `encode`'s bytes, and its `sum` and verdict
    /// are the in-memory ones.
    #[test]
    fn the_streamed_pass_visits_every_row_and_agrees_with_decode() {
        let path = std::env::temp_dir().join(format!("miro_stream_{}.mirt", std::process::id()));
        for (v, d) in [(88_000u32, 7u32), (0, 5), (9, 0)] {
            let set = table(v, (0..d).collect(), |i| {
                ((0..v).map(|x| x ^ i as u32).collect(), vec![i as u16; v as usize], vec![1; v as usize])
            });
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
        // Pinned: these values are baked into every table file since v2.
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
                    _ => CELL_BYTES * 209 * (x % 800),
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
