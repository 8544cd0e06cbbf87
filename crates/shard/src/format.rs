//! `RouteTableSet` — the binary route-table format whole-table results
//! land in, held in memory as the file image itself.
//!
//! One file holds, for a set of destinations, one row each: the route of
//! every *transit* AS (one with a customer or a sibling) — the next hop's
//! *slot* (its index in the AS's neighbour list), business-class code,
//! and AS-hop count, packed into one cell by [`miro_bgp::solver`]'s cell
//! codec (re-exported here as [`CELL_BYTES`]; the sentinels and class
//! codes are its `UNROUTED_*`/[`route_class_code`]
//! contract). A *sink* (no customer, no sibling) passes no route on, so
//! its route is a function of its neighbours' routes: a row stores no
//! cell for it, and every reader derives it with
//! [`sink_rule`], the function the
//! solver's pull pass calls. The few sink cells the rule would not derive
//! — a row set from a masked solve, say — are kept in a table-level
//! exception list. The neighbour lists, class partitions and AS numbers
//! the rule reads, a whole topology, travel in the file ([`Adjacency`]),
//! so every reader works without one. Layout, all little-endian:
//!
//! ```text
//! 0        magic "MIRT"
//! 4        format version (u32)
//! 8        num_nodes V (u32)
//! 12       num_dests D (u32)
//! 16       adjacency entries A (u32)  (the sum of the degrees)
//! 20       wide transit ASes W (u32)  (transit ASes of more than 255 neighbours)
//! 24       transit ASes T (u32)
//! 28       exceptions E (u32)
//! 32       destination ids          u32 × D
//! 32+4D    adjacency offsets        u32 × (V+1)  (AS x's list is ids[off[x]..off[x+1]])
//!          neighbour ids            u32 × A      (each list in slot order)
//!          partition ends           (u16, u16, u16) × V  (each AS's provider, sibling and customer end)
//!          AS numbers               u32 × V
//! sums     per-row checksums        u64 × D      (the table checksum of each row's bytes,
//!                                                 then its exception entries)
//! rows     rows, one per dest:      cell u16 × T (transit ASes by id), then wide slot u16 × W
//! exc      exceptions               (row u32, AS u32, cell u16, wide slot u16) × E,
//!                                   sorted by (row, AS)
//! end-8    whole-file checksum      u64          (the table checksum of everything above)
//!
//! cell     bits 0–7 slot | bits 8–9 class code | bits 10–15 AS hops
//!          class bits 3 = unrouted (written as all ones; the other bits are not read)
//!          hops 0 = the destination itself (the slot is not read)
//!          slot 0xFF = escaped: the slot is the row's wide-area entry of
//!          this AS, at its rank among the W wide transit ASes (0xFFFF for
//!          a wide AS whose cell is not escaped); an exception carries
//!          its escaped slot in its own wide-slot field
//! ```
//!
//! The slot order is [`Topology::slot_neighbors`]: the class partitions
//! Provider, Sibling, Customer, Peer, each sorted by node id, so an AS is
//! a sink iff its provider end equals its customer end, and a sink's
//! list is its providers, then its peers. The kernel settles slots in
//! it, the file embeds it, and every reader resolves through it. T, W
//! and each AS's *transit rank* (its cell's index in a row) are derived
//! from the partition ends; the header's copies must agree. A derived
//! sink needs no escape: the rule yields its full slot.
//!
//! That arithmetic is [`Layout`], a row's bytes are [`encode_row`] (the
//! solver's transit cells, little-endian, then the wide area), one AS's
//! route in a row is [`RowView::route`], a row is checked by
//! [`RowView::check`] and the exception list by
//! [`Adjacency::check_exceptions`], the table checksum is [`checksum`] /
//! [`Checksum`] and a file on disk is read by [`TableReader`]: the shard
//! worker and coordinator, `miro-serve`'s mmap reader and `miro-eval
//! whole-table` all go through them. The cell's field widths bound what
//! a table holds: routes of at most [`MAX_HOPS`] hops, which the solver
//! refuses to exceed, and ASes of at most [`MAX_DEGREE`] neighbours,
//! which the topology refuses to exceed.
//!
//! Table bytes are hashed on several passes, so the checksum runs at memory
//! speed: four `u64` lanes over 32-byte stripes, each word folded in by an
//! odd multiply (a bijection: a change within one 8-byte word always moves
//! the sum) and a rotate (so high-bit differences cannot cancel in a lane).
//! Wire frames are tens of bytes, where four lanes' finish costs more than
//! the words, so [`frame_sum`] runs the same step on one lane. Manifest
//! fingerprints and cache keys keep byte-serial FNV-1a.
//!
//! The checksum granularity is the *row* (one destination's cells and
//! exceptions), not the dispatch block: dispatch blocking is a runtime
//! knob, and the sharded file must be byte-identical whatever block
//! size, worker count, or failure history produced it. Rows sit in the
//! job's canonical destination order, so a dispatch block is one
//! contiguous byte range; a solved row has no exceptions, so a sharded
//! file's size is known before any row is solved.

use miro_bgp::engine::ScratchPool;
use miro_bgp::solver::{
    has_slot, is_wide, pack_cell, route_class_code, sink_rule, unpack_cell, RowSolve, ESCAPE, HOPS_SHIFT, MAX_HOPS, NO_SLOT,
    ORIGIN_CELL, UNROUTED_CLASS, UNROUTED_HOPS, UNROUTED_NEXT,
};
pub use miro_bgp::solver::CELL_BYTES;
use miro_topology::{AsId, NodeId, RouteClass, Topology, TopologyBuilder, MAX_DEGREE, SLOT_ORDER};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::Mutex;

/// File magic: "MIRO Route Table".
pub const TABLE_MAGIC: [u8; 4] = *b"MIRT";
/// On-disk format version; bump on any layout or encoding change.
pub const TABLE_FORMAT_VERSION: u32 = 6;
/// Bytes of the fixed header: magic, version and the six counts.
const HEAD: usize = 32;
/// Bytes of one exception entry: row, AS, cell, wide slot.
pub const EXCEPTION_BYTES: usize = 12;

/// A next hop a cell cannot name — a slot past its AS's list, or a
/// derived route longer than a cell holds: above every node id, so a
/// reader can tell it apart.
pub const BAD_SLOT: u32 = u32::MAX - 1;

/// Cell `r` of a row's bytes (a transit rank, or a wide-area entry past
/// the cells).
#[inline]
fn cell_word(row: &[u8], r: usize) -> u16 {
    u16::from_le_bytes([row[CELL_BYTES * r], row[CELL_BYTES * r + 1]])
}

/// The first 8 bytes of `bytes` as a little-endian `u64`.
pub fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"))
}

fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(le_u32)
}

/// Odd, so `step` is a bijection of the lane for any word.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(31)
}

/// The final mix of [`checksum`] and [`frame_sum`]: a bijection that
/// spreads every input bit over the whole word.
fn avalanche(h: u64) -> u64 {
    let h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// The wire frames' sum: [`checksum`]'s step on a single lane over the
/// 8-byte words of `bytes`, the zero-padded tail word and the length,
/// then the avalanche. Each stage is a bijection of the lane, so any
/// change confined to one word moves the sum.
pub fn frame_sum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let rest = words.remainder();
    let mut lane = words.map(le_u64).fold(K, step);
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        lane = step(lane, u64::from_le_bytes(tail));
    }
    avalanche(step(lane, bytes.len() as u64))
}

/// The table checksum of `bytes`; [`Checksum`] computes it streamed.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// The checksum of a row: its bytes, then its exception entries. A row
/// without exceptions (every solved row) sums as its bytes alone.
pub fn row_checksum(row: &[u8], exceptions: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(row);
    sum.update(exceptions);
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
        avalanche(self.lanes.into_iter().chain([len]).fold(K, step))
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

/// The entries of row `i` in a sorted exception list: the indices of the
/// entries whose row field is `i`. Never a reversed range, whatever the
/// list holds.
fn row_entries(exceptions: &[u8], i: usize) -> Range<usize> {
    let row = |k: usize| le_u32(&exceptions[EXCEPTION_BYTES * k..]) as usize;
    let n = exceptions.len() / EXCEPTION_BYTES;
    let start = partition(0, n, |k| row(k) < i);
    start..partition(start, n, |k| row(k) <= i)
}

/// The first index of `lo..hi` where `below` is false, `below` assumed
/// true up to some point and false after it.
fn partition(mut lo: usize, mut hi: usize, below: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Row `i`'s exception entries, as bytes of `exceptions`.
#[inline]
pub fn row_exceptions(exceptions: &[u8], i: usize) -> &[u8] {
    if exceptions.is_empty() {
        return exceptions;
    }
    let r = row_entries(exceptions, i);
    &exceptions[EXCEPTION_BYTES * r.start..EXCEPTION_BYTES * r.end]
}

/// AS `x`'s provider, sibling and customer end in its slot order.
fn ends_of(topo: &Topology, x: NodeId) -> [u16; 3] {
    let b = topo.slot_bounds(x);
    [b[1], b[2], b[3]].map(|end| end as u16)
}

/// [`Adjacency`]'s mark of a transit AS.
const TRANSIT: u8 = 0x80;
/// A sink's provider end too large for its byte beside the mark.
const FAR_END: u8 = TRANSIT - 1;

/// The neighbour lists a table's slots index — every AS's list in slot
/// order — with each AS's class-partition ends and AS number, as
/// embedded in the file; plus what is derived from them: which ASes are
/// transit and each one's rank (its cell's index in a row), and the ids
/// of the wide transit ASes (more than 255 neighbours) in ascending
/// order — a wide AS's rank there is its place in each row's wide area.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    off: Vec<u32>,
    ids: Vec<NodeId>,
    /// Per AS, where its provider, sibling and customer partitions end
    /// (its peers follow).
    ends: Vec<[u16; 3]>,
    asns: Vec<u32>,
    /// One bit per AS, set for a transit AS.
    transit: Vec<u64>,
    /// Per word of `transit`, the transit ASes before it.
    rank_base: Vec<u32>,
    /// Per AS, [`TRANSIT`] for a transit AS, plus its rank among the
    /// transit ASes of its word: with `rank_base`, its rank in two loads.
    /// A sink's is its provider end, or [`FAR_END`] when that does not
    /// fit: the byte that says it is a sink mostly says where its peers
    /// start.
    local: Vec<u8>,
    /// Per transit rank, the first slot field that is not an inline slot
    /// of its list: its degree, or [`ESCAPE`] for a wide AS.
    inline: Vec<u16>,
    wide: Vec<NodeId>,
}

impl Adjacency {
    /// `topo`'s lists in slot order, partition ends and AS numbers.
    pub fn of(topo: &Topology) -> Adjacency {
        let mut off = Vec::with_capacity(topo.num_nodes() + 1);
        let mut ids = Vec::with_capacity(2 * topo.num_edges());
        off.push(0);
        for x in topo.nodes() {
            ids.extend_from_slice(topo.slot_neighbors(x));
            off.push(ids.len() as u32);
        }
        let ends = topo.nodes().map(|x| ends_of(topo, x)).collect();
        let asns = topo.nodes().map(|x| topo.asn(x).0).collect();
        Adjacency::index(off, ids, ends, asns)
    }

    /// Derive the transit ranks and the wide transit ASes.
    fn index(off: Vec<u32>, ids: Vec<NodeId>, ends: Vec<[u16; 3]>, asns: Vec<u32>) -> Adjacency {
        let mut transit = vec![0u64; ends.len().div_ceil(64)];
        for (x, _) in ends.iter().enumerate().filter(|(_, e)| e[0] < e[2]) {
            transit[x / 64] |= 1 << (x % 64);
        }
        let rank_base = transit
            .iter()
            .scan(0u32, |before, w| Some(std::mem::replace(before, *before + w.count_ones())))
            .collect();
        let local = (0..ends.len())
            .map(|x| match transit[x / 64] >> (x % 64) {
                bits if bits & 1 == 1 => TRANSIT | (transit[x / 64] & ((1u64 << (x % 64)) - 1)).count_ones() as u8,
                _ => ends[x][0].min(u16::from(FAR_END)) as u8,
            })
            .collect();
        let mut adj = Adjacency { off, ids, ends, asns, transit, rank_base, local, inline: Vec::new(), wide: Vec::new() };
        adj.inline = adj.transit().map(|x| adj.degree(x).min(usize::from(ESCAPE)) as u16).collect();
        adj.wide = adj.transit().filter(|&x| is_wide(adj.degree(x))).collect();
        adj
    }

    /// Parse the sections over `num_nodes` nodes: offsets from 0 up to
    /// the number of ids that follow them, no list longer than
    /// [`MAX_DEGREE`], every id a node, each
    /// AS's partition ends in order and within its list.
    pub fn parse(num_nodes: u32, bytes: &[u8]) -> Result<Adjacency, String> {
        let v = num_nodes as usize;
        let fixed = 14 * v + 4; // offsets, partition ends and AS numbers
        if bytes.len() < fixed || !(bytes.len() - fixed).is_multiple_of(4) {
            return Err(format!("a {}-byte adjacency section cannot list {v} nodes", bytes.len()));
        }
        let a = (bytes.len() - fixed) / 4;
        let (off, rest) = bytes.split_at(4 * (v + 1));
        let (ids, rest) = rest.split_at(4 * a);
        let (ends, asns) = rest.split_at(6 * v);
        let off: Vec<u32> = le_u32s(off).collect();
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
        let ends: Vec<[u16; 3]> = ends.chunks_exact(6).map(|e| [0, 2, 4].map(|k| u16::from_le_bytes([e[k], e[k + 1]]))).collect();
        let in_order = |x: usize, [p, s, c]: [u16; 3]| p <= s && s <= c && u32::from(c) <= off[x + 1] - off[x];
        if let Some(x) = (0..v).find(|&x| !in_order(x, ends[x])) {
            return Err(format!("partition ends {:?} of AS node {x} are not within its list in order", ends[x]));
        }
        Ok(Adjacency::index(off, ids, ends, le_u32s(asns).collect()))
    }

    /// [`Adjacency::parse`] of the sections `layout` places at
    /// [`Layout::adjacency_at`], which must count the header's transit
    /// and wide transit ASes.
    pub fn parse_in(layout: &Layout, bytes: &[u8]) -> Result<Adjacency, String> {
        let adj = Adjacency::parse(layout.num_nodes, bytes)?;
        let (t, w) = (adj.num_transit(), adj.wide.len());
        if (t, w) != (layout.transit as usize, layout.wide as usize) {
            return Err(format!(
                "the header counts {} transit and {} wide ASes, the adjacency {t} and {w}",
                layout.transit, layout.wide
            ));
        }
        Ok(adj)
    }

    /// The sections' bytes: offsets, ids, partition ends, AS numbers.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend(self.off.iter().chain(&self.ids).flat_map(|w| w.to_le_bytes()));
        out.extend(self.ends.iter().flatten().flat_map(|e| e.to_le_bytes()));
        out.extend(self.asns.iter().flat_map(|w| w.to_le_bytes()));
    }

    pub fn num_nodes(&self) -> usize {
        self.off.len() - 1
    }

    /// The sum of the degrees (twice the links).
    pub fn entries(&self) -> usize {
        self.ids.len()
    }

    /// Transit ASes: the cells of each row.
    pub fn num_transit(&self) -> usize {
        self.inline.len()
    }

    /// The wide transit ASes, ascending; rank `r` is wide-area entry `r`.
    pub fn wide(&self) -> &[NodeId] {
        &self.wide
    }

    /// The transit ASes in id order: rank `r` is a row's cell `r`.
    pub fn transit(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.transit.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |b| Some(b & (b - 1)).filter(|&b| b != 0))
                .map(move |b| (64 * w) as NodeId + b.trailing_zeros())
        })
    }

    /// AS `x`'s cell index in a row, or `None` for a sink.
    #[inline]
    pub fn rank(&self, x: usize) -> Option<usize> {
        let local = self.local[x];
        (local & TRANSIT != 0).then(|| self.rank_base[x / 64] as usize + usize::from(local & !TRANSIT))
    }

    /// AS `x`'s neighbours in slot order.
    #[inline]
    pub fn neighbors(&self, x: NodeId) -> &[NodeId] {
        &self.ids[self.off[x as usize] as usize..self.off[x as usize + 1] as usize]
    }

    fn degree(&self, x: NodeId) -> usize {
        (self.off[x as usize + 1] - self.off[x as usize]) as usize
    }

    /// AS `x`'s provider, sibling and customer end in its list.
    fn ends(&self, x: NodeId) -> [u16; 3] {
        self.ends[x as usize]
    }

    fn asn(&self, x: NodeId) -> u32 {
        self.asns[x as usize]
    }

    /// The first AS whose list, partition ends or AS number differs from
    /// `topo`'s (the first past the shorter one when the node counts
    /// differ).
    pub fn first_difference(&self, topo: &Topology) -> Option<NodeId> {
        self.first_difference_by(topo.num_nodes(), |x| (topo.slot_neighbors(x), ends_of(topo, x), topo.asn(x).0))
    }

    /// [`Adjacency::first_difference`] from another table's sections.
    pub fn first_difference_from(&self, other: &Adjacency) -> Option<NodeId> {
        self.first_difference_by(other.num_nodes(), |x| (other.neighbors(x), other.ends(x), other.asn(x)))
    }

    fn first_difference_by<'a>(
        &self,
        nodes: usize,
        theirs: impl Fn(NodeId) -> (&'a [NodeId], [u16; 3], u32),
    ) -> Option<NodeId> {
        let common = self.num_nodes().min(nodes) as NodeId;
        (0..common)
            .find(|&x| theirs(x) != (self.neighbors(x), self.ends(x), self.asn(x)))
            .or((self.num_nodes() != nodes).then_some(common))
    }

    /// The topology these sections are the image of: each AS number in
    /// id order, each link once from its lower end's list, in the class
    /// its partition there names. Refused, naming the AS node, for a
    /// repeated AS number or a list the links do not give back.
    pub fn topology(&self) -> Result<Topology, String> {
        let mut b = TopologyBuilder::with_capacity(self.entries() / 2);
        for (x, &asn) in self.asns.iter().enumerate() {
            let id = b.add_as(AsId(asn));
            if id as usize != x {
                return Err(format!("AS node {x} repeats the AS number {asn} of AS node {id}"));
            }
        }
        for x in 0..self.num_nodes() as NodeId {
            let ends = self.ends(x);
            for (slot, &y) in self.neighbors(x).iter().enumerate().filter(|&(_, &y)| x < y) {
                let class = ends.iter().filter(|&&end| usize::from(end) <= slot).count();
                b.link(AsId(self.asn(x)), AsId(self.asn(y)), SLOT_ORDER[class]);
            }
        }
        let topo = b.build().map_err(|e| format!("the sections are no topology: {e}"))?;
        match self.first_difference(&topo) {
            None => Ok(topo),
            Some(x) => Err(format!("AS node {x}'s list is not the one its links give")),
        }
    }

    /// The next hop at `slot` of AS `x`'s list, for a slot the row's
    /// check or the sink rule put within the list.
    #[inline]
    fn slot_next(&self, x: usize, slot: u16) -> u32 {
        self.ids.get(self.off[x] as usize + slot as usize).copied().unwrap_or(BAD_SLOT)
    }

    /// The next hop at `slot` of AS `x`'s list, or [`BAD_SLOT`] past it.
    #[cold]
    fn checked_next(&self, x: usize, slot: u16) -> u32 {
        if usize::from(slot) < self.degree(x as NodeId) {
            self.slot_next(x, slot)
        } else {
            BAD_SLOT
        }
    }

    /// The wide-area entry of transit AS `x` in `row`: its full slot, or
    /// [`NO_SLOT`] when `x` is not wide.
    fn escaped_slot(&self, row: &[u8], x: usize) -> u16 {
        match self.wide.binary_search(&(x as NodeId)) {
            Ok(w) => cell_word(row, self.num_transit() + w),
            Err(_) => NO_SLOT,
        }
    }

    /// [`sink_rule`] for sink `s` toward `dest` over `row`'s transit
    /// cells: a neighbour that is a sink holds the origin if it is the
    /// destination and no customer route otherwise, which is all the
    /// rule reads of it.
    #[inline]
    fn sink_route(&self, row: &[u8], dest: NodeId, s: NodeId) -> Option<(u16, u32, RouteClass)> {
        let cell = |q: NodeId| match self.rank(q as usize) {
            Some(r) => cell_word(row, r),
            None if q == dest => ORIGIN_CELL,
            None => u16::MAX,
        };
        let providers = match self.local[s as usize] {
            FAR_END => usize::from(self.ends[s as usize][0]),
            end => usize::from(end),
        };
        sink_rule(s, dest, self.neighbors(s), providers, cell, |q| self.asns[q as usize])
    }

    /// Sink `s`'s derived `(cell, wide slot)` in `row` — the form
    /// [`Adjacency::pack`] writes — or `None` when the derived route is
    /// longer than a cell holds.
    fn derive(&self, row: &[u8], dest: NodeId, s: NodeId) -> Option<(u16, u16)> {
        match self.sink_route(row, dest, s) {
            None => Some((pack_cell(0, 0, UNROUTED_CLASS), NO_SLOT)),
            Some((slot, hops, class)) if hops <= u32::from(MAX_HOPS) => {
                let wide = if slot >= ESCAPE && hops > 0 { slot } else { NO_SLOT };
                Some((pack_cell(slot, hops as u16, route_class_code(class)), wide))
            }
            Some(_) => None,
        }
    }

    /// Does every routed transit cell of `row` (away from the
    /// destination) name a slot of its AS's list? Only the slot is
    /// checked: a class code of 3 reads as unrouted whatever else the
    /// cell holds. Returns whether a routed cell sits at
    /// [`MAX_HOPS`], the one way a sink can
    /// derive a route past it.
    pub fn check_row(&self, row: &[u8]) -> Result<bool, String> {
        let cells = row[..CELL_BYTES * self.num_transit()].chunks_exact(CELL_BYTES).map(|c| u16::from_le_bytes([c[0], c[1]]));
        // A routed cell away from the destination whose slot field is not
        // an inline slot of its list: one branch-free pass, then a second
        // look only at a row that has one (an escaped wide AS, or a bad
        // slot). The same pass flags a cell at the hop bound (bit 1).
        let suspect = |cell: u16, inline: u16| has_slot(cell) & (cell & ESCAPE >= inline);
        let at_bound = |cell: u16| has_slot(cell) & (cell >> HOPS_SHIFT == MAX_HOPS);
        let flags = cells.clone().zip(&self.inline).fold(0u8, |flags, (cell, &inline)| {
            flags | u8::from(suspect(cell, inline)) | u8::from(at_bound(cell)) << 1
        });
        if flags & 1 != 0 {
            // On a narrow AS a suspect slot is bad; a wide AS's is an escape.
            for ((_, &inline), x) in cells.zip(&self.inline).zip(self.transit()).filter(|&((c, &i), _)| suspect(c, i)) {
                let degree = self.degree(x);
                if inline < ESCAPE || usize::from(self.escaped_slot(row, x as usize)) >= degree {
                    return Err(format!("AS node {x}'s next-hop slot is not among its {degree} neighbours"));
                }
            }
        }
        Ok(flags & 2 != 0)
    }

    /// Check an exception list against a table of `num_dests` rows:
    /// entries sorted by (row, AS) without repeats, each naming a row of
    /// the table and a sink, and each routed entry's slot within its
    /// AS's list. Readers derive only after this passed.
    pub fn check_exceptions(&self, exceptions: &[u8], num_dests: u32) -> Result<(), String> {
        let mut last = None;
        for (k, e) in exceptions.chunks_exact(EXCEPTION_BYTES).enumerate() {
            let (i, x) = (le_u32(e), le_u32(&e[4..]));
            let (cell, wide) = (u16::from_le_bytes([e[8], e[9]]), u16::from_le_bytes([e[10], e[11]]));
            let bad = |why: String| Err(format!("exception {k} (row {i}, AS node {x}): {why}"));
            if i >= num_dests || x as usize >= self.num_nodes() {
                return bad(format!("past the {num_dests} rows or the {} nodes", self.num_nodes()));
            }
            if last >= Some((i, x)) {
                return bad("not after the entry before it".to_string());
            }
            last = Some((i, x));
            if self.rank(x as usize).is_some() {
                return bad("a transit AS, whose cell the row holds".to_string());
            }
            let escaped = has_slot(cell) && cell & ESCAPE == ESCAPE;
            let slot = if escaped { wide } else { cell & ESCAPE };
            if (has_slot(cell) && usize::from(slot) >= self.degree(x)) || (!escaped && wide != NO_SLOT) {
                return bad(format!("its next-hop slot is not among its {} neighbours", self.degree(x)));
            }
        }
        Ok(())
    }

    /// AS `x`'s cell and wide slot for the route `(next, hops, class)`:
    /// a `next` that is no neighbour of `x` is written escaped with no
    /// wide slot, which every reader refuses.
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

/// One row as every reader sees it: the stored transit cells (then the
/// wide area), the row's exception entries, the table's sections and
/// the row's destination. A transit AS's route is its cell; a sink's is
/// its exception, or else [`sink_rule`] over the row's transit cells.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    pub cells: &'a [u8],
    pub exceptions: &'a [u8],
    pub adj: &'a Adjacency,
    pub dest: NodeId,
}

impl RowView<'_> {
    /// AS `x`'s `(next hop, hops, class)`: the next hop a node id (the AS
    /// itself at zero hops), [`UNROUTED_NEXT`], or [`BAD_SLOT`] when a
    /// slot names no neighbour or a derived route does not fit a cell.
    /// A transit AS costs a rank and a cell load, a sink one pass of the
    /// rule over its list.
    #[inline]
    pub fn route(&self, x: usize) -> (u32, u16, u8) {
        match self.adj.rank(x) {
            Some(r) => self.stored(x, cell_word(self.cells, r), None),
            None => self.sink(x),
        }
    }

    /// Does AS `x` hold a customer-class route? A sink derives one only
    /// as the destination itself, so no rule runs.
    #[inline]
    pub fn customer(&self, x: usize) -> bool {
        let cell = match self.adj.rank(x) {
            Some(r) => cell_word(self.cells, r),
            None => match self.exception(x) {
                Some(e) => u16::from_le_bytes([e[8], e[9]]),
                None => return x == self.dest as usize,
            },
        };
        unpack_cell(cell).2 == route_class_code(RouteClass::Customer)
    }

    /// The route of a stored cell of AS `x`: a transit cell's (`wide` is
    /// `None`, and an escaped slot is the row's wide-area entry), or an
    /// exception's (`wide` is its own slot field, and every slot is
    /// checked against the list, as a row `set_row` wrote is read
    /// unchecked).
    #[inline]
    fn stored(&self, x: usize, cell: u16, wide: Option<u16>) -> (u32, u16, u8) {
        let (field, hops, class) = unpack_cell(cell);
        let next = match field {
            _ if class == UNROUTED_CLASS => UNROUTED_NEXT,
            _ if hops == 0 => x as u32,
            ESCAPE => self.adj.checked_next(x, wide.unwrap_or_else(|| self.adj.escaped_slot(self.cells, x))),
            slot if wide.is_some() => self.adj.checked_next(x, slot),
            slot => self.adj.slot_next(x, slot),
        };
        (next, hops, class)
    }

    fn sink(&self, s: usize) -> (u32, u16, u8) {
        if let Some(e) = self.exception(s) {
            // An exception's escaped slot is its own, never the wide area's.
            return self.stored(s, u16::from_le_bytes([e[8], e[9]]), Some(u16::from_le_bytes([e[10], e[11]])));
        }
        match self.adj.sink_route(self.cells, self.dest, s as NodeId) {
            None => (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS),
            Some((_, 0, class)) => (s as u32, 0, route_class_code(class)),
            Some((slot, hops, class)) if hops <= u32::from(MAX_HOPS) => {
                (self.adj.neighbors(s as NodeId)[slot as usize], hops as u16, route_class_code(class))
            }
            Some((_, hops, class)) => (BAD_SLOT, hops as u16, route_class_code(class)),
        }
    }

    /// Check the row before it is served: [`Adjacency::check_row`] of its
    /// cells, and — only when a transit AS sits at the hop bound, the one
    /// way a sink can derive past it — no sink without an exception
    /// derives a route longer than a cell holds. The exceptions were
    /// checked with the table ([`Adjacency::check_exceptions`]).
    pub fn check(&self) -> Result<(), String> {
        if !self.adj.check_row(self.cells)? {
            return Ok(());
        }
        let sinks = (0..self.adj.num_nodes() as NodeId).filter(|&s| self.adj.rank(s as usize).is_none());
        match sinks.filter(|&s| self.exception(s as usize).is_none()).find(|&s| self.adj.derive(self.cells, self.dest, s).is_none()) {
            Some(s) => Err(format!("AS node {s}'s derived route is longer than the {MAX_HOPS} hops a cell holds")),
            None => Ok(()),
        }
    }

    /// Sink `s`'s exception entry in this row, if it has one.
    fn exception(&self, s: usize) -> Option<&[u8]> {
        if self.exceptions.is_empty() {
            return None;
        }
        let as_of = |k: usize| le_u32(&self.exceptions[EXCEPTION_BYTES * k + 4..]) as usize;
        let k = partition(0, self.exceptions.len() / EXCEPTION_BYTES, |k| as_of(k) < s);
        self.exceptions.chunks_exact(EXCEPTION_BYTES).nth(k).filter(|e| le_u32(&e[4..]) as usize == s)
    }
}

/// Where everything sits in a table file. Exists only for a geometry
/// whose file length fits `usize`, so the offset getters cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    num_nodes: u32,
    num_dests: u32,
    /// Adjacency entries A, transit ASes T, wide transit ASes W and
    /// exception entries E.
    entries: u32,
    transit: u32,
    wide: u32,
    exceptions: u32,
}

impl Layout {
    pub fn new(num_nodes: u32, num_dests: u32, entries: u32, transit: u32, wide: u32, exceptions: u32) -> Result<Layout, String> {
        if num_nodes >= BAD_SLOT {
            return Err(format!("{num_nodes} nodes leaves no id for the next-hop sentinels"));
        }
        if wide > transit {
            return Err(format!("{wide} wide among {transit} transit ASes"));
        }
        let (v, d, a) = (num_nodes as usize, num_dests as usize, entries as usize);
        let (t, w, e) = (transit as usize, wide as usize, exceptions as usize);
        t.checked_add(w)
            .and_then(|cells| cells.checked_mul(CELL_BYTES)?.checked_mul(d))
            .and_then(|rows| rows.checked_add(d.checked_mul(12)?))
            .and_then(|n| n.checked_add(v.checked_mul(2)?.checked_add(1)?.checked_add(a)?.checked_mul(4)?))
            .and_then(|n| n.checked_add(v.checked_mul(6)?))
            .and_then(|n| n.checked_add(e.checked_mul(EXCEPTION_BYTES)?))
            .and_then(|n| n.checked_add(HEAD + 8))
            .map(|_| Layout { num_nodes, num_dests, entries, transit, wide, exceptions })
            .ok_or_else(|| format!("geometry overflow: {num_nodes} nodes x {num_dests} destinations"))
    }

    /// The layout of a table over `adj` with `num_dests` rows and no
    /// exceptions.
    pub fn of(adj: &Adjacency, num_dests: u32) -> Result<Layout, String> {
        let (v, a) = (adj.num_nodes(), adj.entries());
        let too_big = || format!("{v} nodes with {a} adjacency entries do not fit a table");
        let (v, a) = (v.try_into().map_err(|_| too_big())?, a.try_into().map_err(|_| too_big())?);
        Layout::new(v, num_dests, a, adj.num_transit() as u32, adj.wide.len() as u32, 0)
    }

    /// Read magic, version and geometry off the front of a table file;
    /// the caller checks the length with [`Layout::check_len`].
    pub fn parse(bytes: &[u8]) -> Result<Layout, String> {
        if bytes.len() < HEAD {
            return Err(format!("{} bytes is too short for even an empty RouteTableSet", bytes.len()));
        }
        if bytes[..4] != TABLE_MAGIC {
            return Err("bad magic (not a RouteTableSet)".to_string());
        }
        let version = le_u32(&bytes[4..]);
        if version != TABLE_FORMAT_VERSION {
            return Err(format!(
                "format version {version}, but this build reads version {TABLE_FORMAT_VERSION}"
            ));
        }
        let u32_at = |at: usize| le_u32(&bytes[at..]);
        Layout::new(u32_at(8), u32_at(12), u32_at(16), u32_at(24), u32_at(20), u32_at(28))
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

    /// Transit ASes: the cells of each row.
    pub fn num_transit(&self) -> u32 {
        self.transit
    }

    /// Wide transit ASes: the entries of each row's wide area.
    pub fn num_wide(&self) -> u32 {
        self.wide
    }

    pub fn num_exceptions(&self) -> u32 {
        self.exceptions
    }

    /// Offset of the adjacency sections (the destination ids end here).
    pub fn adjacency_at(&self) -> usize {
        HEAD + 4 * self.num_dests as usize
    }

    /// Offset of the partition ends (the neighbour ids end here).
    pub fn ends_at(&self) -> usize {
        self.adjacency_at() + 4 * (self.num_nodes as usize + 1 + self.entries as usize)
    }

    /// Offset of the AS numbers (the partition ends end here).
    pub fn asns_at(&self) -> usize {
        self.ends_at() + 6 * self.num_nodes as usize
    }

    /// Offset of the per-row checksum table (the AS numbers end here).
    pub fn sums_at(&self) -> usize {
        self.asns_at() + 4 * self.num_nodes as usize
    }

    pub fn rows_at(&self) -> usize {
        self.sums_at() + 8 * self.num_dests as usize
    }

    pub fn row_bytes(&self) -> usize {
        CELL_BYTES * (self.transit + self.wide) as usize
    }

    /// Offset of row `i`; `row_at(num_dests)` is where the exceptions
    /// start.
    pub fn row_at(&self, i: usize) -> usize {
        self.rows_at() + i * self.row_bytes()
    }

    /// Offset of the exception list.
    pub fn exceptions_at(&self) -> usize {
        self.row_at(self.num_dests as usize)
    }

    pub fn file_len(&self) -> usize {
        self.exceptions_at() + EXCEPTION_BYTES * self.exceptions as usize + 8
    }

    /// Everything before the checksum table: the fixed header, the
    /// destination ids and `adj`, the adjacency this layout was made of.
    pub fn header(&self, dests: &[NodeId], adj: &Adjacency) -> Vec<u8> {
        assert_eq!(dests.len(), self.num_dests as usize, "one id per row");
        let fresh = Layout { exceptions: 0, ..*self };
        assert_eq!(Layout::of(adj, self.num_dests).as_ref(), Ok(&fresh), "the layout of this adjacency");
        let mut out = Vec::with_capacity(self.sums_at());
        out.extend_from_slice(&TABLE_MAGIC);
        let counts = [TABLE_FORMAT_VERSION, self.num_nodes, self.num_dests, self.entries, self.wide, self.transit, self.exceptions];
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
/// The exception list is the one region read whole; a solved table has
/// none.
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

    /// The embedded sections, parsed: the outer error is the read's.
    pub fn adjacency(&self) -> io::Result<Result<Adjacency, String>> {
        let bytes = self.read(self.layout.adjacency_at()..self.layout.sums_at())?;
        Ok(Adjacency::parse_in(&self.layout, &bytes))
    }

    /// The exception list, checked against `adj`: the outer error is the
    /// read's.
    pub fn exceptions(&self, adj: &Adjacency) -> io::Result<Result<Vec<u8>, String>> {
        let l = self.layout;
        let bytes = self.read(l.exceptions_at()..l.file_len() - 8)?;
        Ok(adj.check_exceptions(&bytes, l.num_dests()).map(|()| bytes))
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
    /// checksum, check each row (with its exceptions) against its stored
    /// checksum if `check_rows`, and hand each row's bytes and exception
    /// entries to `visit`. The verdict puts the whole-file checksum
    /// first, then the first bad row, then the first error `visit`
    /// returned — [`RouteTableSet::decode`]'s order, which checks slots
    /// where `visit` may check anything.
    pub fn stream(
        &mut self,
        check_rows: bool,
        mut visit: impl FnMut(usize, &[u8], &[u8]) -> Result<(), String>,
    ) -> io::Result<Result<(), String>> {
        let (l, rb, d) = (self.layout, self.layout.row_bytes(), self.layout.num_dests() as usize);
        let head = self.read(0..l.rows_at())?;
        let exceptions = self.read(l.exceptions_at()..l.file_len() - 8)?;
        let mut total = Checksum::new();
        total.update(&head);
        let (mut bad_row, mut bad_visit, per_read) = (None, None, self.buf.len() / rb.max(1));
        for first in (0..d).step_by(per_read) {
            let rows = &mut self.buf[..per_read.min(d - first) * rb];
            self.file.read_exact_at(rows, l.row_at(first) as u64)?;
            total.update(rows);
            for i in first..(first + per_read).min(d) {
                let (row, exc) = (&rows[(i - first) * rb..][..rb], row_exceptions(&exceptions, i));
                if check_rows && bad_row.is_none() && row_checksum(row, exc) != le_u64(&head[l.sums_at() + 8 * i..]) {
                    bad_row = Some(format!("row {i} checksum mismatch"));
                }
                if bad_row.is_none() && bad_visit.is_none() {
                    bad_visit = visit(i, row, exc).err();
                }
            }
        }
        total.update(&exceptions);
        if total.finish() != le_u64(&self.read(l.file_len() - 8..l.file_len())?) {
            return Ok(Err("whole-file checksum mismatch".to_string()));
        }
        Ok(bad_row.or(bad_visit).map_or(Ok(()), Err))
    }
}

/// Write one row-solved destination into `out` (exactly `CELL_BYTES ×
/// (T + W)` bytes) — the transit ASes' cells in id order as
/// little-endian words, then the wide area: [`RowSolve::wide_slot`] of
/// each wide transit AS — and return the row's [`checksum`]: the one row
/// serialiser.
pub fn encode_row(st: &RowSolve<'_>, adj: &Adjacency, out: &mut [u8]) -> u64 {
    assert_eq!(out.len(), CELL_BYTES * (adj.num_transit() + adj.wide.len()), "one cell per transit AS, one slot per wide one");
    let (head, tail) = out.split_at_mut(CELL_BYTES * adj.num_transit());
    for (bytes, x) in head.chunks_exact_mut(CELL_BYTES).zip(adj.transit()) {
        bytes.copy_from_slice(&st.cell(x).to_le_bytes());
    }
    for (bytes, &w) in tail.chunks_exact_mut(CELL_BYTES).zip(&adj.wide) {
        bytes.copy_from_slice(&st.wide_slot(w).to_le_bytes());
    }
    checksum(out)
}

/// Row-solve `dests` and serialise each row once, straight from the
/// solved cells: `(row bytes, row checksum)` in order — a shard worker's
/// block, against one `pool` for the whole job. `adj` is the table's.
pub fn solve_rows(
    topo: &Topology,
    adj: &Adjacency,
    dests: &[NodeId],
    threads: usize,
    pool: &ScratchPool,
) -> Vec<(Vec<u8>, u64)> {
    pool.over_rows(topo, dests, threads, |_, st| {
        let mut row = vec![0u8; CELL_BYTES * (adj.num_transit() + adj.wide.len())];
        let sum = encode_row(st, adj, &mut row);
        (row, sum)
    })
}

/// Whole-table solve results for a set of destinations, held as their
/// file image: row `i` covers `dests[i]`, and within a row, cell `r` is
/// the route of the transit AS of rank `r` toward that destination. The
/// image is always sealed (every checksum current), so
/// [`RouteTableSet::encode`] is one copy and equality is equality of the
/// file bytes; the sections are also kept parsed, to resolve slots and
/// derive sinks.
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

    /// Row-solve every destination straight into its row of the image —
    /// the single-process reference the sharded service must reproduce
    /// byte for byte. Each solving thread writes a row's cells and
    /// checksum into that row's slot; nothing is collected per row.
    pub fn from_solves(topo: &Topology, dests: &[NodeId], threads: usize) -> RouteTableSet {
        let mut set = RouteTableSet::blank(Adjacency::of(topo), dests.to_vec());
        let (l, adj) = (set.layout, &set.adj);
        let (head, mut rows) = set.image.split_at_mut(l.rows_at());
        // Each row's checksum slot and bytes (none on a graph without a
        // transit AS); each index is claimed once, so no lock is
        // contended.
        let mut slots = Vec::with_capacity(dests.len());
        for sum in head[l.sums_at()..].chunks_exact_mut(8) {
            let (row, rest) = std::mem::take(&mut rows).split_at_mut(l.row_bytes());
            slots.push(Mutex::new((sum, row)));
            rows = rest;
        }
        ScratchPool::for_nodes(topo.num_nodes()).over_rows(topo, dests, threads, |i, st| {
            let (sum, row) = &mut *slots[i].lock().expect("slot poisoned");
            sum.copy_from_slice(&encode_row(st, adj, row).to_le_bytes());
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

    /// The embedded sections the rows' slots index and sinks derive from.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adj
    }

    /// The sealed file image: what [`RouteTableSet::encode`] copies.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Row `i`'s bytes — transit cells, then the wide area.
    pub fn row_cells(&self, i: usize) -> &[u8] {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        &self.image[self.layout.row_at(i)..self.layout.row_at(i + 1)]
    }

    /// The whole exception list.
    fn exceptions(&self) -> &[u8] {
        &self.image[self.layout.exceptions_at()..self.image.len() - 8]
    }

    /// Row `i` as readers see it.
    pub fn view(&self, i: usize) -> RowView<'_> {
        let exceptions = row_exceptions(self.exceptions(), i);
        RowView { cells: self.row_cells(i), exceptions, adj: &self.adj, dest: self.dests[i] }
    }

    /// Row `i` unpacked: owned `(next, hops, class)` columns, each
    /// `num_nodes` long, next hops resolved to node ids and sinks
    /// derived.
    pub fn row(&self, i: usize) -> (Vec<u32>, Vec<u16>, Vec<u8>) {
        let view = self.view(i);
        let mut cols = (Vec::new(), Vec::new(), Vec::new());
        for x in 0..self.num_nodes() as usize {
            let (next, hops, class) = view.route(x);
            cols.0.push(next);
            cols.1.push(hops);
            cols.2.push(class);
        }
        cols
    }

    /// Overwrite row `i` from columns — each transit next hop packed as
    /// its slot in the AS's list, each sink whose columns the sink rule
    /// does not derive kept as an exception — and reseal its checksum
    /// and the file's. A next hop that is no neighbour of its AS is
    /// written as an escaped cell with no wide slot: every reader
    /// answers it as a corrupt table.
    pub fn set_row(&mut self, i: usize, next: &[u32], hops: &[u16], class: &[u8]) {
        assert!(i < self.dests.len(), "row {i} out of range ({} rows)", self.dests.len());
        let (l, adj, dest) = (self.layout, &self.adj, self.dests[i]);
        let v = l.num_nodes() as usize;
        assert!(next.len() == v && hops.len() == v && class.len() == v, "row columns sized alike");
        let mut row = vec![0u8; l.row_bytes()];
        let t = adj.num_transit();
        for (r, x) in adj.transit().enumerate() {
            let (cell, slot) = adj.pack(x, next[x as usize], hops[x as usize], class[x as usize]);
            row[CELL_BYTES * r..][..CELL_BYTES].copy_from_slice(&cell.to_le_bytes());
            if let Ok(w) = adj.wide.binary_search(&x) {
                row[CELL_BYTES * (t + w)..][..CELL_BYTES].copy_from_slice(&slot.to_le_bytes());
            }
        }
        let mut exceptions = Vec::new();
        for s in (0..v as NodeId).filter(|&s| adj.rank(s as usize).is_none()) {
            let (cell, slot) = adj.pack(s, next[s as usize], hops[s as usize], class[s as usize]);
            if adj.derive(&row, dest, s) != Some((cell, slot)) {
                exceptions.extend([(i as u32).to_le_bytes(), s.to_le_bytes()].concat());
                exceptions.extend([cell.to_le_bytes(), slot.to_le_bytes()].concat());
            }
        }
        let entries = row_entries(self.exceptions(), i);
        let e = l.num_exceptions() as usize - entries.len() + exceptions.len() / EXCEPTION_BYTES;
        let at = l.exceptions_at();
        self.image.splice(at + EXCEPTION_BYTES * entries.start..at + EXCEPTION_BYTES * entries.end, exceptions.iter().copied());
        self.layout = Layout::new(l.num_nodes, l.num_dests, l.entries, l.transit, l.wide, e as u32).expect("a geometry that fits");
        self.image[28..HEAD].copy_from_slice(&(e as u32).to_le_bytes()); // the header's E
        self.image[l.row_at(i)..l.row_at(i + 1)].copy_from_slice(&row);
        let sum = row_checksum(&row, &exceptions);
        self.image[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
        self.seal();
    }

    /// The file bytes: one copy of the image.
    pub fn encode(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Fully verify an encoded table — magic, version, geometry, the
    /// whole-file checksum, every per-row checksum, the sections, the
    /// exception list and every row's slots — then keep its bytes as the
    /// image.
    pub fn decode(bytes: &[u8]) -> Result<RouteTableSet, String> {
        let layout = Layout::parse(bytes)?;
        layout.check_len(bytes.len())?;
        let end = bytes.len() - 8;
        if checksum(&bytes[..end]) != le_u64(&bytes[end..]) {
            return Err("whole-file checksum mismatch".to_string());
        }
        let exceptions = &bytes[layout.exceptions_at()..end];
        for i in 0..layout.num_dests() as usize {
            let row = &bytes[layout.row_at(i)..layout.row_at(i + 1)];
            if row_checksum(row, row_exceptions(exceptions, i)) != le_u64(&bytes[layout.sums_at() + 8 * i..]) {
                return Err(format!("row {i} checksum mismatch"));
            }
        }
        let adj = Adjacency::parse_in(&layout, &bytes[layout.adjacency_at()..layout.sums_at()])?;
        adj.check_exceptions(exceptions, layout.num_dests())?;
        let dests: Vec<NodeId> = le_u32s(&bytes[HEAD..layout.adjacency_at()]).collect();
        for (i, &dest) in dests.iter().enumerate() {
            let cells = &bytes[layout.row_at(i)..layout.row_at(i + 1)];
            RowView { cells, exceptions: row_exceptions(exceptions, i), adj: &adj, dest }
                .check()
                .map_err(|e| format!("row {i} (destination {dest}): {e}"))?;
        }
        Ok(RouteTableSet { layout, dests, adj, image: bytes.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::{RoutingState, MAX_HOPS, UNROUTED_HOPS};
    use miro_topology::GenParams;

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

    /// `v` nodes (an even number) in sibling pairs: every AS transit.
    fn pairs(v: usize) -> Adjacency {
        let ids = (0..v as NodeId).map(|x| x ^ 1).collect();
        Adjacency::index((0..=v as u32).collect(), ids, vec![[0, 1, 1]; v], (1..=v as u32).collect())
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
        let exceptions = row_exceptions(&bytes[layout.exceptions_at()..bytes.len() - 8], 0).to_vec();
        let sum = row_checksum(&bytes[layout.row_at(0)..layout.row_at(1)], &exceptions);
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
                for (i, (row, sum)) in solve_rows(&t, &adj, &dests, threads, &pool).into_iter().enumerate() {
                    assert_eq!(set.row_cells(i), &row[..], "{dests:?} row {i}, {threads} threads");
                    assert_eq!(le_u64(&set.as_bytes()[l.sums_at() + 8 * i..]), sum);
                    // A row is the full solve's transit cells.
                    let st = RoutingState::solve(&t, dests[i]);
                    let cells: Vec<u8> = adj.transit().flat_map(|x| st.cells()[x as usize].to_le_bytes()).collect();
                    assert_eq!(set.row_cells(i), &cells[..], "{dests:?} row {i}, {threads} threads");
                }
                assert_eq!(l.num_exceptions(), 0, "a solved row needs no exception");
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
        let transit = (t.num_nodes() - t.sinks().len()) as u32;
        assert_eq!(layout, Layout::new(set.num_nodes(), 12, 2 * t.num_edges() as u32, transit, 0, 0).unwrap());
        assert_eq!(Layout::of(&adj, 12), Ok(layout));
        layout.check_len(bytes.len()).unwrap();
        assert!(layout.check_len(bytes.len() - 1).unwrap_err().contains("wrong length"));
        assert_eq!(&bytes[..layout.sums_at()], &layout.header(set.dests(), &adj)[..]);
        assert_eq!(layout.row_at(12) + 8, layout.file_len());
        assert_eq!(layout.row_bytes(), CELL_BYTES * transit as usize);

        let pool = ScratchPool::for_nodes(t.num_nodes());
        for (i, (row, sum)) in solve_rows(&t, &adj, set.dests(), 2, &pool).iter().enumerate() {
            assert_eq!(&bytes[layout.row_at(i)..layout.row_at(i + 1)], &row[..]);
            assert_eq!(le_u64(&bytes[layout.sums_at() + 8 * i..]), *sum);
            assert_eq!(checksum(row), *sum);
        }
        // A geometry whose file length overflows `usize` (a 32-bit
        // target) is refused, not wrapped; so are more wide ASes than
        // nodes and node ids that would reach the next-hop sentinels.
        if usize::BITS == 32 {
            assert!(Layout::new(1 << 22, 1 << 12, 0, 1 << 22, 0, 0).unwrap_err().contains("overflow"));
        }
        assert!(Layout::new(5, 1, 0, 5, 6, 0).unwrap_err().contains("6 wide among 5 transit"));
        assert!(Layout::new(BAD_SLOT, 1, 0, 0, 0, 0).unwrap_err().contains("sentinels"));
        assert!(Layout::parse(&bytes[..28]).unwrap_err().contains("too short"));
    }

    /// Every class × hops {1, 63} × slot {0, 254, 255, 299} of a 300-leaf
    /// hub, the destination leaf's own cell, leaves routed through the
    /// hub on a route the sink rule does not derive, and an unrouted
    /// leaf round-trip through `set_row`, `encode` and `decode`: the
    /// hub's slots from 255 up are escaped into the wide area, and the
    /// leaves become exceptions.
    #[test]
    fn every_cell_field_extreme_round_trips_through_the_wide_area() {
        let topo = hub(300);
        let adj = Adjacency::of(&topo);
        assert_eq!((adj.wide(), adj.num_transit()), (&[0][..], 1));
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
        assert_eq!(set.layout().num_exceptions() as usize, rows.len() * 299, "every leaf but the destination");
        let back = RouteTableSet::decode(&set.encode()).expect("decodes");
        assert_eq!(back, set);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&back.row(i), row, "row {i}");
            let bytes = back.row_cells(i);
            let escaped = [255, 299].contains(&adj.neighbors(0).iter().position(|&y| y == row.0[0]).unwrap());
            assert_eq!(unpack_cell(cell_word(bytes, 0)).0 == ESCAPE, escaped, "row {i}");
            let wide = u16::from_le_bytes([bytes[CELL_BYTES], bytes[CELL_BYTES + 1]]);
            assert_eq!(wide != NO_SLOT, escaped, "row {i}: a wide slot only beside an escaped cell");
        }
        // Rewriting a row with what the rule derives drops its exceptions.
        let mut fewer = set.clone();
        let derived = RouteTableSet::from_solves(&topo, &[1], 1).row(0);
        fewer.set_row(3, &derived.0, &derived.1, &derived.2);
        assert_eq!(fewer.layout().num_exceptions() as usize, (rows.len() - 1) * 299);
        assert_eq!(fewer.row(3), derived);
        assert_eq!((fewer.row(2), fewer.row(4)), (set.row(2), set.row(4)), "the other rows keep theirs");
        assert_eq!(RouteTableSet::decode(fewer.as_bytes()).as_ref(), Ok(&fewer));
    }

    /// Class bits 3 mark the cell unrouted whatever its other bits hold,
    /// and a sink that derives from it is unrouted too.
    #[test]
    fn class_bits_three_read_as_unrouted_whatever_else_the_cell_holds() {
        let unrouted = (NO_SLOT, UNROUTED_HOPS, UNROUTED_CLASS);
        for cell in [u16::MAX, 3 << 8, 0x3f << 10 | 3 << 8 | 0x7b] {
            assert_eq!(unpack_cell(cell), unrouted, "{cell:#06x}");
        }
        let topo = hub(2);
        let set = table(Adjacency::of(&topo), vec![1], |_| (vec![1, 1, 0], vec![1, 0, 2], vec![0, 0, 2]));
        assert_eq!(set.layout().num_exceptions(), 0, "leaf 2's provider route is the rule's");
        let bytes = resealed(set.encode(), set.layout().row_at(0), 3 << 8 | 7 << 10 | 2);
        let back = RouteTableSet::decode(&bytes).unwrap();
        let (next, hops, class) = back.row(0);
        let gone = (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS);
        assert_eq!((next[0], hops[0], class[0]), gone);
        assert_eq!((next[2], hops[2], class[2]), gone, "the leaf derives from the hub");
        assert_eq!((next[1], hops[1]), (1, 0), "the destination is untouched");
    }

    /// A slot past its AS's list — inline on a narrow transit AS, an
    /// escape on a narrow one, a wide slot at or past the degree — is
    /// refused by `decode`, naming the row, destination and AS, and
    /// answered `BAD_SLOT` by the row's reader; `set_row` writes a next
    /// hop that is no neighbour that way, as a sink's exception too.
    #[test]
    fn a_slot_that_names_no_neighbour_is_refused() {
        // The hub's leaf 7 sells transit to one more AS: a narrow transit AS.
        let mut b = TopologyBuilder::new();
        for asn in 1..=302 {
            b.intern_as(AsId(asn));
        }
        for leaf in 2..=301 {
            b.provider_customer(AsId(1), AsId(leaf));
        }
        b.provider_customer(AsId(8), AsId(302));
        let topo = b.build().unwrap();
        let adj = Adjacency::of(&topo);
        assert_eq!(adj.transit().collect::<Vec<_>>(), [0, 7]);
        let set = RouteTableSet::from_solves(&topo, &[5], 1);
        let l = set.layout();
        let (hub_cell, leaf_cell, wide_at) = (l.row_at(0), l.row_at(0) + CELL_BYTES, l.row_at(0) + 2 * CELL_BYTES);
        let provider_at = |slot: u16, hops: u16| pack_cell(slot, hops, 2);
        let cases = [
            ("narrow slot past the list", leaf_cell, provider_at(2, 2), None, "AS node 7"),
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
            let view = RowView { cells: row, exceptions: &[], adj: &adj, dest: 5 };
            assert!(view.check().is_err(), "{what}");
            if word & ESCAPE == ESCAPE {
                // An inline slot is trusted once `check_row` passed it.
                let x = if at == hub_cell { 0 } else { 7 };
                assert_eq!(view.route(x).0, BAD_SLOT, "{what}");
            }
        }
        // A wide slot below the degree is a path.
        let bytes = resealed(resealed(set.encode(), hub_cell, pack_cell(ESCAPE, 2, 0)), wide_at, 299);
        let back = RouteTableSet::decode(&bytes).expect("slot 299 of 300");
        assert_eq!(back.row(0).0[0], 300);
        // `set_row` with a next hop that is no neighbour, of a transit AS
        // and of a sink.
        for x in [7, 9] {
            let mut bad = set.clone();
            let (mut next, hops, class) = set.row(0);
            next[x] = 100;
            bad.set_row(0, &next, &hops, &class);
            assert_eq!(bad.row(0).0[x], BAD_SLOT);
            assert_eq!(bad.layout().num_exceptions(), u32::from(x == 9));
            let err = RouteTableSet::decode(bad.as_bytes()).unwrap_err();
            assert!(err.contains(&format!("AS node {x}")), "{err}");
        }
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
        let mut bad = good.clone();
        bad[4 * 4] = 5; // the last offset
        assert!(Adjacency::parse(4, &bad).unwrap_err().contains("not 0..6"));
        // Partition ends: the hub's (0, 0, 3) and each leaf's (1, 1, 1).
        let ends_at = 4 * (5 + 6);
        let cases = [
            ("out of order", ends_at, 4),
            ("a sibling end past the customer end", ends_at + 2, 4),
            ("past the degree", ends_at + 4, 4),
            ("a leaf's sibling end before its provider end", ends_at + 8, 0),
            ("a leaf's", ends_at + 6, 2),
        ];
        for (what, at, end) in cases {
            let mut bad = good.clone();
            bad[at..at + 2].copy_from_slice(&(end as u16).to_le_bytes());
            assert!(Adjacency::parse(4, &bad).unwrap_err().contains("partition ends"), "{what}");
        }
    }

    /// Rows a third of the buffer wide (two per read, the last read
    /// short), rows of zero bytes, no rows: the reader visits every row
    /// once, in order, with `encode`'s bytes, and its `sum` and verdict
    /// are the in-memory ones.
    #[test]
    fn the_streamed_pass_visits_every_row_and_agrees_with_decode() {
        let path = std::env::temp_dir().join(format!("miro_stream_{}.mirt", std::process::id()));
        for (v, d) in [(176_000u32, 7u32), (0, 5), (10, 0)] {
            let set = table(pairs(v as usize), (0..d).collect(), |i| {
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
            let visit = |i: usize, row: &[u8], exceptions: &[u8]| {
                assert_eq!((i, row, exceptions), (seen, &bytes[l.row_at(i)..l.row_at(i + 1)], &[][..]));
                seen += 1;
                Ok(())
            };
            assert_eq!(table.stream(true, visit).unwrap(), Ok(()));
            assert_eq!(seen, d as usize);
            let stop = |i: usize, _: &[u8], _: &[u8]| if i == 0 { Err("visit".to_string()) } else { Ok(()) };
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

    #[test]
    fn frame_sum_is_pinned() {
        // Pinned: every wire frame of shard protocol 6 and query protocol 2
        // carries this sum.
        let ramp = |n: u8| (0..n).collect::<Vec<u8>>();
        let got = [b"".to_vec(), b"miro".to_vec(), ramp(7), ramp(8), ramp(9), ramp(21), ramp(60)].map(|b| frame_sum(&b));
        let want = [
            0x238c_33e7_543f_0d51,
            0x9313_df3a_177e_98c8,
            0x5796_130a_9678_4262,
            0x423f_7dde_ef37_c52b,
            0xdbff_1886_7fb5_f6f4,
            0x7b19_912e_2e41_0bec,
            0x91fd_4ff9_bdd5_88d8,
        ];
        assert_eq!(got, want);
        assert_ne!(frame_sum(b"miro"), crate::fnv1a(b"miro"));
    }

    /// The frame sum is the step of the table checksum on one lane: a
    /// change confined to one word, the tail's zero padding or the
    /// length moves it.
    #[test]
    fn every_one_byte_flip_and_length_change_moves_the_frame_sum() {
        for len in 0..=40 {
            let bytes = noise(len, 3 * len as u64 + 1);
            let sum = frame_sum(&bytes);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[at] ^= flip;
                    assert_ne!(frame_sum(&bad), sum, "len {len}, byte {at}, flip {flip:#x}");
                }
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(frame_sum(&longer), sum, "len {len} + a zero byte");
        }
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
