//! `RouteTableSet` — the binary route-table format whole-table results
//! land in, held in memory as the file image itself.
//!
//! One file holds, for a set of destinations, the full per-AS route row
//! of each: the next hop's *slot* (its index in the AS's neighbour list),
//! business-class code, and AS-hop count, packed into one cell by
//! [`miro_bgp::solver`]'s cell codec (re-exported here as
//! [`CELL_BYTES`]; the sentinels and class codes are its
//! `UNROUTED_*`/[`route_class_code`](miro_bgp::solver::route_class_code)
//! contract). The neighbour lists themselves travel in the file
//! ([`Adjacency`]), so every reader resolves a slot without a topology.
//! The solver settles cells, so a row is a copy. Layout, all
//! little-endian:
//!
//! ```text
//! 0        magic "MIRT"
//! 4        format version (u32)
//! 8        num_nodes V (u32)
//! 12       num_dests D (u32)
//! 16       adjacency entries A (u32)  (the sum of the degrees)
//! 20       wide ASes W (u32)          (ASes of more than 255 neighbours)
//! 24       destination ids          u32 × D
//! 24+4D    adjacency offsets        u32 × (V+1)  (AS x's list is ids[off[x]..off[x+1]])
//!          neighbour ids            u32 × A      (each list in slot order)
//! sums     per-row checksums        u64 × D      (the table checksum of each row's bytes)
//! rows     rows, one per dest:      cell u16 × V, then wide slot u16 × W
//! end-8    whole-file checksum      u64          (the table checksum of everything above)
//!
//! cell     bits 0–7 slot | bits 8–9 class code | bits 10–15 AS hops
//!          class bits 3 = unrouted (written as all ones; the other bits are not read)
//!          hops 0 = the destination itself (the slot is not read)
//!          slot 0xFF = escaped: the slot is the row's wide-area entry of
//!          this AS, at its rank among the W wide ASes (0xFFFF for a
//!          wide AS whose cell is not escaped)
//! ```
//!
//! The slot order is [`Topology::slot_neighbors`]: the class partitions
//! Provider, Sibling, Customer, Peer, each sorted by node id. The kernel
//! settles slots in it, the file embeds it, and every reader resolves
//! through it. W is derived from the adjacency; the header's copy must
//! agree with it.
//!
//! That arithmetic is [`Layout`], a row's bytes are [`encode_row`] (the
//! solver's cells, little-endian, then the wide area), a cell is read by
//! [`cell_at`] and a next hop by [`Adjacency::next_hop`], a row's slots
//! are checked by [`Adjacency::check_row`], the table checksum is
//! [`checksum`] / [`Checksum`] and a file on disk is read by
//! [`TableReader`]: the shard worker and coordinator, `miro-serve`'s mmap
//! reader and `miro-eval whole-table` all go through them. The cell's
//! field widths bound what a table holds: routes of at most
//! [`MAX_HOPS`](miro_bgp::solver::MAX_HOPS) hops, which the solver
//! refuses to exceed, and ASes of at most
//! [`MAX_DEGREE`](miro_topology::MAX_DEGREE) neighbours, which the
//! topology refuses to exceed.
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
use miro_bgp::solver::{has_slot, is_wide, pack_cell, unpack_cell, RoutingState, ESCAPE, NO_SLOT, UNROUTED_CLASS, UNROUTED_NEXT};
pub use miro_bgp::solver::CELL_BYTES;
use miro_topology::{NodeId, Topology, MAX_DEGREE};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::Mutex;

/// File magic: "MIRO Route Table".
pub const TABLE_MAGIC: [u8; 4] = *b"MIRT";
/// On-disk format version; bump on any layout or encoding change.
pub const TABLE_FORMAT_VERSION: u32 = 4;
/// Bytes of the fixed header: magic, version and the four counts.
const HEAD: usize = 24;

/// [`Adjacency::next_hop`] of a cell whose slot names no neighbour of its
/// AS: above every node id, so a reader can tell it apart.
pub const BAD_SLOT: u32 = u32::MAX - 1;

/// AS `x`'s cell in a row's bytes.
#[inline]
fn cell_word(row: &[u8], x: usize) -> u16 {
    u16::from_le_bytes([row[CELL_BYTES * x], row[CELL_BYTES * x + 1]])
}

/// AS `x`'s `(slot field, hops, class)` in a row's bytes.
#[inline]
pub fn cell_at(row: &[u8], x: usize) -> (u16, u16, u8) {
    unpack_cell(cell_word(row, x))
}

/// The first 8 bytes of `bytes` as a little-endian `u64`.
pub fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("four bytes")))
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

/// The neighbour lists a table's slots index — every AS's list in slot
/// order — as embedded in the file, plus the ids of the wide ASes (more
/// than 255 neighbours) in ascending order: a wide AS's rank there is
/// its place in each row's wide area.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    off: Vec<u32>,
    ids: Vec<NodeId>,
    wide: Vec<NodeId>,
    /// Per AS, the first slot field that is not an inline slot of its
    /// list: its degree, or [`ESCAPE`] for a wide AS.
    inline: Vec<u16>,
}

impl Adjacency {
    /// `topo`'s lists in slot order.
    pub fn of(topo: &Topology) -> Adjacency {
        let mut off = Vec::with_capacity(topo.num_nodes() + 1);
        let mut ids = Vec::with_capacity(2 * topo.num_edges());
        off.push(0);
        for x in topo.nodes() {
            ids.extend_from_slice(topo.slot_neighbors(x));
            off.push(ids.len() as u32);
        }
        Adjacency::with_wide(off, ids)
    }

    fn with_wide(off: Vec<u32>, ids: Vec<NodeId>) -> Adjacency {
        let wide = (0..off.len().saturating_sub(1) as NodeId).filter(|&x| is_wide(degree(&off, x))).collect();
        let inline = off.windows(2).map(|w| (w[1] - w[0]).min(u32::from(ESCAPE)) as u16).collect();
        Adjacency { off, ids, wide, inline }
    }

    /// Parse an adjacency section over `num_nodes` nodes: offsets from 0
    /// up to the number of ids that follow them, no list longer than
    /// [`MAX_DEGREE`](miro_topology::MAX_DEGREE), every id a node.
    pub fn parse(num_nodes: u32, bytes: &[u8]) -> Result<Adjacency, String> {
        let v = num_nodes as usize;
        if !bytes.len().is_multiple_of(4) || bytes.len() / 4 <= v {
            return Err(format!("a {}-byte adjacency section cannot list {v} nodes", bytes.len()));
        }
        let (off, ids) = bytes.split_at(4 * (v + 1));
        let off: Vec<u32> = le_u32s(off).collect();
        let a = ids.len() / 4;
        if off[0] != 0 || off[v] as usize != a {
            return Err(format!("adjacency offsets run {}..{}, not 0..{a}", off[0], off[v]));
        }
        if let Some(x) = (0..v).find(|&x| off[x] > off[x + 1] || off[x + 1] - off[x] > MAX_DEGREE as u32) {
            return Err(format!("adjacency offsets of AS node {x} are not a list"));
        }
        let ids: Vec<NodeId> = le_u32s(ids).collect();
        if let Some(i) = ids.iter().position(|&y| y >= num_nodes) {
            return Err(format!("adjacency entry {i} names node {}, past the {v} nodes", ids[i]));
        }
        Ok(Adjacency::with_wide(off, ids))
    }

    /// [`Adjacency::parse`] of the section `layout` places at
    /// [`Layout::adjacency_at`], which must count the header's wide ASes.
    pub fn parse_in(layout: &Layout, bytes: &[u8]) -> Result<Adjacency, String> {
        let adj = Adjacency::parse(layout.num_nodes, bytes)?;
        if adj.wide.len() != layout.wide as usize {
            return Err(format!("the header counts {} wide ASes, the adjacency {}", layout.wide, adj.wide.len()));
        }
        Ok(adj)
    }

    /// The section's bytes: offsets, then ids.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend(self.off.iter().chain(&self.ids).flat_map(|w| w.to_le_bytes()));
    }

    pub fn num_nodes(&self) -> usize {
        self.off.len() - 1
    }

    /// The sum of the degrees (twice the links).
    pub fn entries(&self) -> usize {
        self.ids.len()
    }

    /// The wide ASes, ascending; rank `r` is wide-area entry `r`.
    pub fn wide(&self) -> &[NodeId] {
        &self.wide
    }

    /// AS `x`'s neighbours in slot order.
    pub fn neighbors(&self, x: NodeId) -> &[NodeId] {
        &self.ids[self.off[x as usize] as usize..self.off[x as usize + 1] as usize]
    }

    /// The first AS whose list differs from `topo`'s slot order (the
    /// first past the shorter one when the node counts differ).
    pub fn first_difference(&self, topo: &Topology) -> Option<NodeId> {
        let common = self.num_nodes().min(topo.num_nodes()) as NodeId;
        (0..common)
            .find(|&x| self.neighbors(x) != topo.slot_neighbors(x))
            .or((self.num_nodes() != topo.num_nodes()).then_some(common))
    }

    /// AS `x`'s next hop in `row`: a node id (the AS itself at zero
    /// hops), [`UNROUTED_NEXT`], or [`BAD_SLOT`] when an escaped slot
    /// names no neighbour. A row [`Adjacency::check_row`] accepted costs
    /// one adjacency load per call unless the cell is escaped.
    #[inline]
    pub fn next_hop(&self, row: &[u8], x: usize) -> u32 {
        let (slot, hops, class) = cell_at(row, x);
        if class == UNROUTED_CLASS {
            return UNROUTED_NEXT;
        }
        if hops == 0 {
            return x as u32;
        }
        if slot == ESCAPE {
            return self.escaped_next(row, x);
        }
        self.ids.get(self.off[x] as usize + slot as usize).copied().unwrap_or(BAD_SLOT)
    }

    /// [`Adjacency::next_hop`] of an escaped routed cell.
    #[cold]
    fn escaped_next(&self, row: &[u8], x: usize) -> u32 {
        let slot = self.escaped_slot(row, x) as usize;
        if slot < degree(&self.off, x as NodeId) {
            self.ids[self.off[x] as usize + slot]
        } else {
            BAD_SLOT
        }
    }

    /// The wide-area entry of AS `x` in `row`: its full slot, or
    /// [`NO_SLOT`] when `x` is not wide.
    fn escaped_slot(&self, row: &[u8], x: usize) -> u16 {
        match self.wide.binary_search(&(x as NodeId)) {
            Ok(rank) => cell_word(row, self.num_nodes() + rank),
            Err(_) => NO_SLOT,
        }
    }

    /// Does every routed cell of `row` (away from the destination) name a
    /// slot of its AS's list? Only the slot is checked: a class code of 3
    /// reads as unrouted whatever else the cell holds.
    pub fn check_row(&self, row: &[u8]) -> Result<(), String> {
        let cells = row[..CELL_BYTES * self.num_nodes()].chunks_exact(CELL_BYTES).map(|c| u16::from_le_bytes([c[0], c[1]]));
        // A routed cell away from the destination whose slot field is not
        // an inline slot of its list: one branch-free pass, then a second
        // look only at a row that has one (an escaped wide AS, or a bad
        // slot).
        let suspect = |cell: u16, inline: u16| has_slot(cell) & (cell & ESCAPE >= inline);
        if !cells.clone().zip(&self.inline).fold(false, |any, (cell, &inline)| any | suspect(cell, inline)) {
            return Ok(());
        }
        // On a narrow AS a suspect slot is bad; a wide AS's is an escape.
        for (x, (_, &inline)) in cells.zip(&self.inline).enumerate().filter(|&(_, (c, &i))| suspect(c, i)) {
            let degree = degree(&self.off, x as NodeId);
            if inline < ESCAPE || usize::from(self.escaped_slot(row, x)) >= degree {
                return Err(format!("AS node {x}'s next-hop slot is not among its {degree} neighbours"));
            }
        }
        Ok(())
    }

    /// AS `x`'s cell and wide-area entry for the route `(next, hops,
    /// class)`: a `next` that is no neighbour of `x` is written escaped
    /// with no wide slot, which every reader refuses.
    fn pack(&self, x: NodeId, next: u32, hops: u16, class: u8) -> (u16, u16) {
        if class == UNROUTED_CLASS || hops == 0 {
            return (pack_cell(0, hops, class), NO_SLOT);
        }
        match self.neighbors(x).iter().position(|&y| y == next) {
            Some(slot) if slot >= ESCAPE as usize => (pack_cell(ESCAPE, hops, class), slot as u16),
            Some(slot) => (pack_cell(slot as u16, hops, class), NO_SLOT),
            None => (pack_cell(ESCAPE, hops, class), NO_SLOT),
        }
    }
}

fn degree(off: &[u32], x: NodeId) -> usize {
    (off[x as usize + 1] - off[x as usize]) as usize
}

/// Where everything sits in a table file. Exists only for a geometry
/// whose file length fits `usize`, so the offset getters cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    num_nodes: u32,
    num_dests: u32,
    /// Adjacency entries A and wide ASes W.
    entries: u32,
    wide: u32,
}

impl Layout {
    pub fn new(num_nodes: u32, num_dests: u32, entries: u32, wide: u32) -> Result<Layout, String> {
        if num_nodes >= BAD_SLOT {
            return Err(format!("{num_nodes} nodes leaves no id for the next-hop sentinels"));
        }
        if wide > num_nodes {
            return Err(format!("{wide} wide ASes among {num_nodes} nodes"));
        }
        let (v, d, a, w) = (num_nodes as usize, num_dests as usize, entries as usize, wide as usize);
        v.checked_add(w)
            .and_then(|cells| cells.checked_mul(CELL_BYTES)?.checked_mul(d))
            .and_then(|rows| rows.checked_add(d.checked_mul(12)?))
            .and_then(|n| n.checked_add(v.checked_add(1)?.checked_add(a)?.checked_mul(4)?))
            .and_then(|n| n.checked_add(HEAD + 8))
            .map(|_| Layout { num_nodes, num_dests, entries, wide })
            .ok_or_else(|| format!("geometry overflow: {num_nodes} nodes x {num_dests} destinations"))
    }

    /// The layout of a table over `adj` with `num_dests` rows.
    pub fn of(adj: &Adjacency, num_dests: u32) -> Result<Layout, String> {
        let (v, a) = (adj.num_nodes(), adj.entries());
        let too_big = || format!("{v} nodes with {a} adjacency entries do not fit a table");
        Layout::new(v.try_into().map_err(|_| too_big())?, num_dests, a.try_into().map_err(|_| too_big())?, adj.wide.len() as u32)
    }

    /// Read magic, version and geometry off the front of a table file;
    /// the caller checks the length with [`Layout::check_len`].
    pub fn parse(bytes: &[u8]) -> Result<Layout, String> {
        if bytes.len() < HEAD {
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
        Layout::new(u32_at(8), u32_at(12), u32_at(16), u32_at(20))
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

    /// Wide ASes: the entries of each row's wide area.
    pub fn num_wide(&self) -> u32 {
        self.wide
    }

    /// Offset of the adjacency section (the destination ids end here).
    pub fn adjacency_at(&self) -> usize {
        HEAD + 4 * self.num_dests as usize
    }

    /// Offset of the per-row checksum table (the adjacency ends here).
    pub fn sums_at(&self) -> usize {
        self.adjacency_at() + 4 * (self.num_nodes as usize + 1 + self.entries as usize)
    }

    pub fn rows_at(&self) -> usize {
        self.sums_at() + 8 * self.num_dests as usize
    }

    pub fn row_bytes(&self) -> usize {
        CELL_BYTES * (self.num_nodes + self.wide) as usize
    }

    /// Offset of row `i`; `row_at(num_dests)` is where the trailer starts.
    pub fn row_at(&self, i: usize) -> usize {
        self.rows_at() + i * self.row_bytes()
    }

    pub fn file_len(&self) -> usize {
        self.row_at(self.num_dests as usize) + 8
    }

    /// Everything before the checksum table: the fixed header, the
    /// destination ids and `adj`, the adjacency this layout was made of.
    pub fn header(&self, dests: &[NodeId], adj: &Adjacency) -> Vec<u8> {
        assert_eq!(dests.len(), self.num_dests as usize, "one id per row");
        assert_eq!(Layout::of(adj, self.num_dests).as_ref(), Ok(self), "the layout of this adjacency");
        let mut out = Vec::with_capacity(self.sums_at());
        out.extend_from_slice(&TABLE_MAGIC);
        let counts = [TABLE_FORMAT_VERSION, self.num_nodes, self.num_dests, self.entries, self.wide];
        out.extend(counts.iter().chain(dests).flat_map(|w| w.to_le_bytes()));
        adj.write(&mut out);
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
        let mut front = vec![0u8; len.min(HEAD)];
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
        Ok(le_u32s(&self.read(HEAD..self.layout.adjacency_at())?).collect())
    }

    /// The embedded adjacency, parsed: the outer error is the read's.
    pub fn adjacency(&self) -> io::Result<Result<Adjacency, String>> {
        let bytes = self.read(self.layout.adjacency_at()..self.layout.sums_at())?;
        Ok(Adjacency::parse_in(&self.layout, &bytes))
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
    /// `check_rows`, and hand each row's bytes to `visit`. The verdict
    /// puts the whole-file checksum first, then the first bad row, then
    /// the first error `visit` returned — [`RouteTableSet::decode`]'s
    /// order, which checks slots where `visit` may check anything.
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

/// Write one solved row into `out` (exactly `CELL_BYTES × (V + W)`
/// bytes) — the state's cells as little-endian words, then the wide
/// area: [`RoutingState::wide_slot`] of each of `wide` — and return the
/// row's [`checksum`]: the one row serialiser.
pub fn encode_row(st: &RoutingState<'_>, wide: &[NodeId], out: &mut [u8]) -> u64 {
    let cells = st.cells();
    assert_eq!(out.len(), CELL_BYTES * (cells.len() + wide.len()), "one cell per AS, one slot per wide AS");
    let (head, tail) = out.split_at_mut(CELL_BYTES * cells.len());
    for (bytes, cell) in head.chunks_exact_mut(CELL_BYTES).zip(cells) {
        bytes.copy_from_slice(&cell.to_le_bytes());
    }
    for (bytes, &w) in tail.chunks_exact_mut(CELL_BYTES).zip(wide) {
        bytes.copy_from_slice(&st.wide_slot(w).to_le_bytes());
    }
    checksum(out)
}

/// Solve `dests` and serialise each row once, straight from the solved
/// state's cells: `(row bytes, row checksum)` in order — a shard
/// worker's block, against one `pool` for the whole job. `wide` is the
/// table's [`Adjacency::wide`].
pub fn solve_rows(
    topo: &Topology,
    wide: &[NodeId],
    dests: &[NodeId],
    threads: usize,
    pool: &ScratchPool,
) -> Vec<(Vec<u8>, u64)> {
    pool.over_dests(topo, dests, threads, |_, wi| {
        let mut row = vec![0u8; CELL_BYTES * (topo.num_nodes() + wide.len())];
        let sum = encode_row(wi.base(), wide, &mut row);
        (row, sum)
    })
}

/// Whole-table solve results for a set of destinations, held as their
/// file image: row `i` covers `dests[i]`, and within a row, cell `x` is
/// the route of AS `x` toward that destination. The image is always
/// sealed (every checksum current), so [`RouteTableSet::encode`] is one
/// copy and equality is equality of the file bytes; the adjacency is
/// also kept parsed, to resolve slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTableSet {
    layout: Layout,
    dests: Vec<NodeId>,
    adj: Adjacency,
    image: Vec<u8>,
}

impl RouteTableSet {
    /// The image of a table over `dests` and `adj`, header written, rows
    /// and checksums zero: sized once, filled slot by slot, then sealed.
    fn blank(adj: Adjacency, dests: Vec<NodeId>) -> RouteTableSet {
        let layout = Layout::of(&adj, dests.len() as u32).expect("a table held in memory has a geometry that fits");
        let mut image = Vec::with_capacity(layout.file_len());
        image.extend_from_slice(&layout.header(&dests, &adj));
        image.resize(layout.file_len(), 0);
        RouteTableSet { layout, dests, adj, image }
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
        let mut set = RouteTableSet::blank(Adjacency::of(topo), dests.to_vec());
        let (l, wide) = (set.layout, &set.adj.wide);
        let (head, rows) = set.image.split_at_mut(l.rows_at());
        // Each row's bytes and checksum slot (a solved row has at least
        // one cell); each index is claimed once, so no lock is contended.
        let rows = rows[..l.row_bytes() * dests.len()].chunks_exact_mut(l.row_bytes().max(1));
        let slots: Vec<_> = rows.zip(head[l.sums_at()..].chunks_exact_mut(8)).map(Mutex::new).collect();
        ScratchPool::for_nodes(topo.num_nodes()).over_dests(topo, dests, threads, |i, wi| {
            let (row, sum) = &mut *slots[i].lock().expect("slot poisoned");
            sum.copy_from_slice(&encode_row(wi.base(), wide, row).to_le_bytes());
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

    /// The embedded neighbour lists the rows' slots index.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adj
    }

    /// The sealed file image: what [`RouteTableSet::encode`] copies.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Row `i`'s bytes — cells, then the wide area — read with
    /// [`cell_at`] and [`Adjacency::next_hop`].
    pub fn row_cells(&self, i: usize) -> &[u8] {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        &self.image[self.layout.row_at(i)..self.layout.row_at(i + 1)]
    }

    /// Row `i` unpacked: owned `(next, hops, class)` columns, each
    /// `num_nodes` long, next hops resolved to node ids.
    pub fn row(&self, i: usize) -> (Vec<u32>, Vec<u16>, Vec<u8>) {
        let row = self.row_cells(i);
        let v = self.num_nodes() as usize;
        let next = (0..v).map(|x| self.adj.next_hop(row, x)).collect();
        let (hops, class) = (0..v).map(|x| cell_at(row, x)).map(|(_, h, c)| (h, c)).unzip();
        (next, hops, class)
    }

    /// Overwrite row `i` from columns — each next hop packed as its slot
    /// in the AS's list — and reseal its checksum and the file's. A next
    /// hop that is no neighbour of its AS is written as an escaped cell
    /// with no wide slot: every reader answers it as a corrupt table.
    pub fn set_row(&mut self, i: usize, next: &[u32], hops: &[u16], class: &[u8]) {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        let (l, at) = (self.layout, self.layout.row_at(i));
        let v = l.num_nodes() as usize;
        assert!(next.len() == v && hops.len() == v && class.len() == v, "row columns sized alike");
        let row = &mut self.image[at..at + l.row_bytes()];
        let mut wide = vec![NO_SLOT; self.adj.wide.len()];
        for x in 0..v {
            let (cell, slot) = self.adj.pack(x as NodeId, next[x], hops[x], class[x]);
            row[CELL_BYTES * x..][..CELL_BYTES].copy_from_slice(&cell.to_le_bytes());
            if let Ok(rank) = self.adj.wide.binary_search(&(x as NodeId)) {
                wide[rank] = slot;
            }
        }
        for (bytes, slot) in row[CELL_BYTES * v..].chunks_exact_mut(CELL_BYTES).zip(wide) {
            bytes.copy_from_slice(&slot.to_le_bytes());
        }
        let sum = checksum(row);
        self.image[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
        self.seal();
    }

    /// The file bytes: one copy of the image.
    pub fn encode(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Fully verify an encoded table — magic, version, geometry, the
    /// whole-file checksum, every per-row checksum, the adjacency and
    /// every row's slots — then keep its bytes as the image.
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
        let adj = Adjacency::parse_in(&layout, &bytes[layout.adjacency_at()..layout.sums_at()])?;
        let dests: Vec<NodeId> = le_u32s(&bytes[HEAD..layout.adjacency_at()]).collect();
        for (i, &d) in dests.iter().enumerate() {
            adj.check_row(&bytes[layout.row_at(i)..layout.row_at(i + 1)])
                .map_err(|e| format!("row {i} (destination {d}): {e}"))?;
        }
        Ok(RouteTableSet { layout, dests, adj, image: bytes.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::{RoutingState, MAX_HOPS, UNROUTED_HOPS};
    use miro_topology::{AsId, GenParams, TopologyBuilder};

    /// A table over `adj` and `dests` whose row `i` holds the columns `row(i)`.
    fn table(adj: Adjacency, dests: Vec<NodeId>, row: impl Fn(usize) -> (Vec<u32>, Vec<u16>, Vec<u8>)) -> RouteTableSet {
        let mut set = RouteTableSet::blank(adj, dests);
        for i in 0..set.dests.len() {
            let (next, hops, class) = row(i);
            set.set_row(i, &next, &hops, &class);
        }
        set.seal();
        set
    }

    /// `v` nodes and no link.
    fn isolated(v: usize) -> Adjacency {
        Adjacency::with_wide(vec![0; v + 1], Vec::new())
    }

    fn sample() -> (Topology, RouteTableSet) {
        let t = GenParams::tiny(3).generate();
        let dests: Vec<NodeId> = crate::sample_dests(t.num_nodes(), 12);
        let set = RouteTableSet::from_solves(&t, &dests, 2);
        (t, set)
    }

    /// A hub (node 0) over `leaves` customers (nodes 1..): wide from 256.
    fn hub(leaves: u32) -> Topology {
        let mut b = TopologyBuilder::new();
        for asn in 1..=leaves + 1 {
            b.intern_as(AsId(asn));
        }
        for leaf in 2..=leaves + 1 {
            b.provider_customer(AsId(1), AsId(leaf));
        }
        b.build().unwrap()
    }

    /// Overwrite row 0's bytes at `at` with `word` and reseal both
    /// checksums: a hostile row the checksums cannot tell.
    fn resealed(mut bytes: Vec<u8>, at: usize, word: u16) -> Vec<u8> {
        let layout = Layout::parse(&bytes).unwrap();
        bytes[at..at + CELL_BYTES].copy_from_slice(&word.to_le_bytes());
        let sum = checksum(&bytes[layout.row_at(0)..layout.row_at(1)]);
        bytes[layout.sums_at()..][..8].copy_from_slice(&sum.to_le_bytes());
        let end = bytes.len() - 8;
        let total = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&total.to_le_bytes());
        bytes
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
        let adj = Adjacency::of(&t);
        let last = t.num_nodes() as NodeId - 1;
        let pool = ScratchPool::for_nodes(t.num_nodes());
        for dests in [vec![9, 0, last, 4, 9, 0, 9, 2], vec![0], vec![]] {
            for threads in [1, 2, 4] {
                let set = RouteTableSet::from_solves(&t, &dests, threads);
                let l = set.layout();
                assert_eq!(set.dests(), &dests[..]);
                assert_eq!(&set.as_bytes()[..l.sums_at()], &l.header(&dests, &adj)[..]);
                for (i, (row, sum)) in solve_rows(&t, adj.wide(), &dests, threads, &pool).into_iter().enumerate() {
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
                    None => assert_eq!(next[x as usize], UNROUTED_NEXT),
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
        let adj = Adjacency::of(&t);
        let layout = Layout::parse(&bytes).expect("header parses");
        assert_eq!(layout, Layout::new(set.num_nodes(), 12, 2 * t.num_edges() as u32, 0).unwrap());
        assert_eq!(Layout::of(&adj, 12), Ok(layout));
        layout.check_len(bytes.len()).unwrap();
        assert!(layout.check_len(bytes.len() - 1).unwrap_err().contains("wrong length"));
        assert_eq!(&bytes[..layout.sums_at()], &layout.header(set.dests(), &adj)[..]);
        assert_eq!(layout.row_at(12) + 8, layout.file_len());
        assert_eq!(layout.row_bytes(), CELL_BYTES * t.num_nodes());

        let pool = ScratchPool::for_nodes(t.num_nodes());
        for (i, (row, sum)) in solve_rows(&t, adj.wide(), set.dests(), 2, &pool).iter().enumerate() {
            assert_eq!(&bytes[layout.row_at(i)..layout.row_at(i + 1)], &row[..]);
            assert_eq!(le_u64(&bytes[layout.sums_at() + 8 * i..]), *sum);
            assert_eq!(checksum(row), *sum);
        }
        // A geometry whose file length overflows `usize` (a 32-bit
        // target) is refused, not wrapped; so are more wide ASes than
        // nodes and node ids that would reach the next-hop sentinels.
        if usize::BITS == 32 {
            assert!(Layout::new(1 << 22, 1 << 12, 0, 0).unwrap_err().contains("overflow"));
        }
        assert!(Layout::new(5, 1, 0, 6).unwrap_err().contains("6 wide ASes"));
        assert!(Layout::new(BAD_SLOT, 1, 0, 0).unwrap_err().contains("sentinels"));
        assert!(Layout::parse(&bytes[..20]).unwrap_err().contains("too short"));
    }

    /// Every class × hops {1, 63} × slot {0, 254, 255, 299} of a 300-leaf
    /// hub, the hub's destination-itself cell, leaves routed through it
    /// and an unrouted leaf round-trip through `set_row`, `encode` and
    /// `decode`; slots from 255 up are escaped into the wide area.
    #[test]
    fn every_cell_field_extreme_round_trips_through_the_wide_area() {
        let topo = hub(300);
        let adj = Adjacency::of(&topo);
        assert_eq!(adj.wide(), &[0]);
        let mut rows = Vec::new();
        for c in 0..3u8 {
            for h in [1, MAX_HOPS] {
                for slot in [0, 254, 255, 299] {
                    let mut next: Vec<u32> = vec![0; 301];
                    let (mut hops, mut class) = (vec![h; 301], vec![c; 301]);
                    next[0] = topo.slot_neighbors(0)[slot];
                    (next[1], hops[1], class[1]) = (1, 0, 0);
                    (next[2], hops[2], class[2]) = (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS);
                    rows.push((next, hops, class));
                }
            }
        }
        let set = table(adj.clone(), vec![1; rows.len()], |i| rows[i].clone());
        let back = RouteTableSet::decode(&set.encode()).expect("decodes");
        assert_eq!(back, set);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&back.row(i), row, "row {i}");
            let bytes = back.row_cells(i);
            let escaped = [255, 299].contains(&adj.neighbors(0).iter().position(|&y| y == row.0[0]).unwrap());
            assert_eq!(cell_at(bytes, 0).0 == ESCAPE, escaped, "row {i}");
            let wide = u16::from_le_bytes([bytes[2 * 301], bytes[2 * 301 + 1]]);
            assert_eq!(wide != NO_SLOT, escaped, "row {i}: a wide slot only beside an escaped cell");
        }
    }

    /// Class bits 3 mark the cell unrouted whatever its other bits hold.
    #[test]
    fn class_bits_three_read_as_unrouted_whatever_else_the_cell_holds() {
        let unrouted = (NO_SLOT, UNROUTED_HOPS, UNROUTED_CLASS);
        for cell in [u16::MAX, 3 << 8, 0x3f << 10 | 3 << 8 | 0x7b] {
            assert_eq!(unpack_cell(cell), unrouted, "{cell:#06x}");
        }
        let topo = hub(2);
        let set = table(Adjacency::of(&topo), vec![1], |_| (vec![1, 1, 0], vec![1, 0, 2], vec![0, 0, 2]));
        let layout = set.layout();
        let bytes = resealed(set.encode(), layout.row_at(0) + CELL_BYTES, 3 << 8 | 7 << 10 | 2);
        let back = RouteTableSet::decode(&bytes).unwrap();
        let (next, hops, class) = back.row(0);
        assert_eq!((next[1], hops[1], class[1]), (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS));
        assert_eq!((next[0], next[2]), (1, 0), "its neighbours are untouched");
    }

    /// A slot past its AS's list — inline on a narrow AS, an escape on a
    /// narrow AS, a wide slot at or past the degree — is refused by
    /// `decode`, naming the row, destination and AS, and answered
    /// `BAD_SLOT` by `next_hop`; `set_row` writes a next hop that is no
    /// neighbour that way.
    #[test]
    fn a_slot_that_names_no_neighbour_is_refused() {
        let topo = hub(300);
        let adj = Adjacency::of(&topo);
        let set = RouteTableSet::from_solves(&topo, &[5], 1);
        let l = set.layout();
        let (hub_cell, leaf_cell) = (l.row_at(0), l.row_at(0) + CELL_BYTES * 7);
        let wide_at = l.row_at(0) + CELL_BYTES * 301;
        let provider_at = |slot: u16, hops: u16| pack_cell(slot, hops, 2);
        let cases = [
            ("narrow slot past the list", leaf_cell, provider_at(1, 2), None, "AS node 7"),
            ("escape on a narrow AS", leaf_cell, provider_at(ESCAPE, 2), None, "AS node 7"),
            ("wide slot at the degree", hub_cell, pack_cell(ESCAPE, 2, 0), Some(300), "AS node 0"),
            ("wide slot of none", hub_cell, pack_cell(ESCAPE, 2, 0), Some(NO_SLOT), "AS node 0"),
        ];
        for (what, at, word, wide, names) in cases {
            let mut bytes = resealed(set.encode(), at, word);
            if let Some(slot) = wide {
                bytes = resealed(bytes, wide_at, slot);
            }
            let err = RouteTableSet::decode(&bytes).unwrap_err();
            assert!(err.starts_with("row 0 (destination 5): ") && err.contains(names), "{what}: {err}");
            let row = &bytes[l.row_at(0)..l.row_at(1)];
            assert!(adj.check_row(row).is_err(), "{what}");
            if word & ESCAPE == ESCAPE {
                // An inline slot is trusted once `check_row` passed it.
                assert_eq!(adj.next_hop(row, (at - l.row_at(0)) / CELL_BYTES), BAD_SLOT, "{what}");
            }
        }
        // A wide slot below the degree is a path.
        let bytes = resealed(resealed(set.encode(), hub_cell, pack_cell(ESCAPE, 2, 0)), wide_at, 299);
        let back = RouteTableSet::decode(&bytes).expect("slot 299 of 300");
        assert_eq!(back.row(0).0[0], 300);
        // `set_row` with a next hop that is no neighbour.
        let mut bad = set.clone();
        let (mut next, hops, class) = set.row(0);
        next[7] = 9;
        bad.set_row(0, &next, &hops, &class);
        assert_eq!(bad.row(0).0[7], BAD_SLOT);
        assert!(RouteTableSet::decode(bad.as_bytes()).unwrap_err().contains("AS node 7"));
    }

    /// A malformed adjacency section is refused by name.
    #[test]
    fn a_malformed_adjacency_section_is_refused() {
        let mut good = Vec::new();
        Adjacency::of(&hub(3)).write(&mut good);
        assert_eq!(Adjacency::parse(4, &good).map(|a| a.entries()), Ok(6));
        assert!(Adjacency::parse(5, &good).is_err(), "too few offsets for 5 nodes");
        assert!(Adjacency::parse(4, &good[..good.len() - 1]).is_err(), "a torn id");
        let mut bad = good.clone();
        bad[4] = 9; // node 0's list ends past the ids
        assert!(Adjacency::parse(4, &bad).unwrap_err().contains("not a list"));
        let mut bad = good.clone();
        bad[4 * 5] = 7; // an id past the nodes
        assert!(Adjacency::parse(4, &bad).unwrap_err().contains("past the 4 nodes"));
        let mut bad = good;
        bad[4 * 4] = 5; // the last offset
        assert!(Adjacency::parse(4, &bad).unwrap_err().contains("not 0..6"));
    }

    /// Rows a third of the buffer wide (two per read, the last read
    /// short), rows of zero bytes, no rows: the reader visits every row
    /// once, in order, with `encode`'s bytes, and its `sum` and verdict
    /// are the in-memory ones.
    #[test]
    fn the_streamed_pass_visits_every_row_and_agrees_with_decode() {
        let path = std::env::temp_dir().join(format!("miro_stream_{}.mirt", std::process::id()));
        for (v, d) in [(176_000u32, 7u32), (0, 5), (9, 0)] {
            let set = table(isolated(v as usize), (0..d).collect(), |i| {
                ((0..v).collect(), vec![0; v as usize], vec![i as u8 % 3; v as usize])
            });
            let bytes = set.encode();
            std::fs::write(&path, &bytes).unwrap();
            let file = File::open(&path).unwrap();
            let mut table = TableReader::open(file, bytes.len()).unwrap().unwrap();
            let l = table.layout;
            assert!(table.buf.len() <= HASH_BUF.max(l.row_bytes()), "{v} x {d}");
            assert_eq!(table.dests().unwrap(), set.dests());
            assert_eq!(table.adjacency().unwrap().as_ref(), Ok(set.adjacency()));
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
                    _ => CELL_BYTES * 418 * (x % 800),
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
