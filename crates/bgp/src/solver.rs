//! Closed-form stable-state BGP solver.
//!
//! For one destination prefix, computes the route every AS converges to
//! under Gao-Rexford policies (Guideline A + conventional export rules),
//! along with the *candidate set* each AS learns from its neighbors — the
//! raw material MIRO negotiations draw on (section 3.4: "the existing BGP
//! protocol already provides many candidate routes, although the alternate
//! routes are not disseminated").
//!
//! The algorithm is the constructive core of the Gao-Rexford convergence
//! proof (restated as Lemma 1 in Chapter 7.2), run as three sweeps over
//! different edge sets:
//!
//! 1. **customer sweep** — climb provider and sibling links from the
//!    destination: every AS reached selects a customer-class route
//!    (Claims 1-2: these ASes are the "Phase-1 ASes");
//! 2. **peer sweep** — one peer hop off a Phase-1 AS, then sibling links;
//! 3. **provider sweep** — descend customer and sibling links from every
//!    routed AS (the "Phase-2" activation of the proof).
//!
//! Each sweep assigns `(class, length, next-hop)` with deterministic
//! tie-breaking (shortest path, then lowest next-hop AS number — the
//! AS-level abstraction of Table 2.1's lower steps).
//!
//! # Engine
//!
//! Each sweep is **level-synchronous**: it settles hop level `L+1` only
//! from what sits at level `L` — its own frontier (the nodes it settled at
//! `L`) and its seeds at `L` (routed nodes of earlier sweeps, or a delta's
//! boundary offers, taken in level order). An offer lands exactly one
//! level below its offerer, so a node is queued at most once per sweep, at
//! the level it settles at, and the heap's `(len, asn(next))` order
//! reduces to "within a level, the lowest-ASN offerer wins": bit-for-bit
//! the heap engine, property-tested against the retained
//! [`mod@reference`] implementation below.
//!
//! The offer is branch-free. One word per node says settled, pending at
//! this level (the level's tag) or free (any older tag); the pending
//! offer's `(ASN, next hop)` key folds by `min`, and queuing is a
//! conditional length bump of the pending list.
//!
//! Most ASes are **sinks** — no customers, no siblings
//! ([`Topology::sinks`]) — and pass no route on in any sweep. A full
//! solve's provider sweep walks [`Topology::transit_down_offers`] slices
//! only; then **the pull pass** settles each unrouted sink by
//! [`sink_rule`], a pure function of its neighbours' cells: a peer route
//! through the best customer-routed peer, else a provider route through
//! the best routed provider, by `(hops + 1, ASN)`, links down where
//! failed. A route table stores no sink cell, and every reader derives
//! one with the same function, so a row producer ([`RowSolve`]) runs the
//! three sweeps and leaves the pull pass — about half of a solve — out.
//!
//! The table is one column of route-table cells — the next hop's *slot*
//! (its index in the AS's [`Topology::slot_neighbors`] list), class code
//! and hops packed into a `u16` ([`pack_cell`]), all ones for an unrouted
//! AS — so a route-table row is a copy of the transit ASes' cells
//! ([`RowSolve::cell`]). A BGP
//! speaker only learns a route from a neighbour, so the slot is all a
//! cell needs: the offer key carries it (the topology stores each
//! offerer's slot beside every edge), and settling writes it. An AS with
//! more than 255 neighbours escapes slots from 255 up ([`ESCAPE`]) and
//! keeps them beside the cells ([`RoutingState::wide_slot`]). A route
//! longer than [`MAX_HOPS`] has no cell to live in and is refused with a
//! panic that names the limit.
//!
//! All per-solve state lives in a reusable [`SolveScratch`] arena: whole-
//! network solves reuse one scratch per worker thread via
//! [`RoutingState::solve_into`] / [`RoutingState::recycle`] and allocate
//! nothing in the steady state; [`SolveScratch::for_nodes`] presizes the
//! arena so even the first solve of a pooled worker thread allocates
//! nothing.
//!
//! # Delta engine
//!
//! A [`RoutingState`] also owns the set of administratively failed links
//! its table is solved without (empty for a plain solve), and changes
//! that set incrementally with one kernel — retire the routing subtrees
//! the change unsettles, re-drain the three sweeps inside the retired
//! set against the intact boundary — behind three crate-internal
//! methods: `fail` (what-if sweeps and churn downs), `restore` (churn
//! ups, see [`multi`]) and `revert` (undo the last `fail` from its log).
//! [`crate::engine::WhatIf`] is fail-one / look / revert;
//! [`multi::MultiFailState::apply`] is coalesce / fail / restore.
//!
//! A failure only removes offers, so no AS ends one with a better class
//! than it began it, and an AS's offers to its customers get shorter only
//! if its own route did: `fail` bounds its three scans by that, keyed on
//! each cone node's logged route. A restoration keeps the full scans.

use crate::route::{CandidateRoute, ExportScope};
use miro_topology::{NodeId, Rel, RouteClass, Topology, SLOT_ORDER};

pub mod multi;

/// The route an AS selected: class, hop count, and next-hop AS.
/// The full path is recovered by chasing next hops (paths are ~4 hops, so
/// this is cheap and keeps the per-destination state at one 2-byte cell
/// per AS, the next hop named by its slot in the AS's neighbour list).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BestRoute {
    /// Business class (determines local preference and export scope).
    pub class: RouteClass,
    /// AS hops to the destination (0 for the destination itself).
    pub len: u16,
    /// Next-hop AS (the destination points at itself).
    pub next: NodeId,
}

/// Next-hop sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_NEXT: u32 = u32::MAX;
/// Hop-count sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_HOPS: u16 = u16::MAX;
/// Class-code sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_CLASS: u8 = 0xFF;
/// The longest route a route table holds: the 6-bit hop field of a
/// cell.
pub const MAX_HOPS: u16 = 63;

/// Bytes per AS in a route-table row: one little-endian `u16` cell,
/// `slot | class << 8 | hops << 10`. The slot is the next hop's index in
/// the AS's neighbour list in [`Topology::slot_neighbors`] order.
pub const CELL_BYTES: usize = 2;
/// The slot field of a cell whose slot does not fit 8 bits: an AS with
/// more than 255 neighbours keeps that slot beside the cells (a row's
/// *wide area*, see [`RoutingState::wide_slot`]). The slot field is
/// 0xFF only for such an AS, so slot 255 is escaped too.
pub const ESCAPE: u16 = 0xFF;
/// A wide-area entry that holds no slot: that of an AS whose cell is not
/// escaped.
pub const NO_SLOT: u16 = u16::MAX;
const CLASS_SHIFT: u32 = 8;
/// Where a cell's hop field starts: `cell >> HOPS_SHIFT` is a routed
/// cell's hop count, for passes over whole rows that must not branch.
pub const HOPS_SHIFT: u32 = 10;
/// The class bits of an unrouted cell, which is written as all ones.
/// Routedness is read from these bits only.
const UNROUTED_CODE: u16 = 3;
const UNROUTED_CELL: u16 = u16::MAX;

/// Does an AS of `degree` neighbours keep some slots in the wide area?
#[inline]
pub fn is_wide(degree: usize) -> bool {
    degree > ESCAPE as usize
}

/// One AS's route as a cell — the slot field is `slot`, or [`ESCAPE`]
/// from 255 up — or all ones for class code [`UNROUTED_CLASS`]. Panics
/// on a hop count or class the cell cannot hold, which the hop bound
/// rules out for a solved table.
#[inline]
pub fn pack_cell(slot: u16, hops: u16, class: u8) -> u16 {
    if class == UNROUTED_CLASS {
        return UNROUTED_CELL;
    }
    assert!(
        hops <= MAX_HOPS && u16::from(class) < UNROUTED_CODE,
        "route (slot {slot}, hops {hops}, class {class}) does not fit a table cell"
    );
    cell_of(slot, hops, class)
}

/// The cell of a route already known to fit one.
#[inline]
fn cell_of(slot: u16, hops: u16, class: u8) -> u16 {
    slot.min(ESCAPE) | u16::from(class) << CLASS_SHIFT | hops << HOPS_SHIFT
}

/// A cell's `(slot field, hops, class)`: `(NO_SLOT, UNROUTED_HOPS,
/// UNROUTED_CLASS)` when its class bits are 3, whatever its other bits
/// hold.
#[inline]
pub fn unpack_cell(cell: u16) -> (u16, u16, u8) {
    if !is_routed(cell) {
        return (NO_SLOT, UNROUTED_HOPS, UNROUTED_CLASS);
    }
    (cell & ESCAPE, cell >> HOPS_SHIFT, (cell >> CLASS_SHIFT & 3) as u8)
}

#[inline]
fn is_routed(cell: u16) -> bool {
    cell >> CLASS_SHIFT & 3 != UNROUTED_CODE
}

/// Does `cell` name a next hop by its slot field (`cell & ESCAPE`): is it
/// routed, and not the destination's own (zero hops)? Branch-free, for
/// passes over whole rows.
#[inline]
pub fn has_slot(cell: u16) -> bool {
    is_routed(cell) & (cell >> HOPS_SHIFT != 0)
}

/// Stable single-byte encoding of a [`RouteClass`] for binary route
/// tables. The codes are part of the `RouteTableSet` on-disk format —
/// do not renumber without bumping that format's version.
pub fn route_class_code(c: RouteClass) -> u8 {
    match c {
        RouteClass::Customer => 0,
        RouteClass::Peer => 1,
        RouteClass::Provider => 2,
    }
}

/// Inverse of [`route_class_code`] for table readers: `None` for the
/// [`UNROUTED_CLASS`] sentinel or any byte outside the encoding.
pub fn route_class_from_code(code: u8) -> Option<RouteClass> {
    match code {
        0 => Some(RouteClass::Customer),
        1 => Some(RouteClass::Peer),
        2 => Some(RouteClass::Provider),
        _ => None,
    }
}

/// The cell of an AS's route to itself: zero hops, customer class.
pub const ORIGIN_CELL: u16 = 0;

/// The sink rule: the route a sink `s` (no customers, no siblings)
/// selects toward `dest`, as a pure function of its neighbours' cells —
/// the pull pass of every full solve, and how a table reader derives the
/// cells a row does not store.
///
/// `list` is `s`'s neighbour list in slot order, its first `providers`
/// entries its providers and the rest its peers; `cell(q)` is neighbour
/// `q`'s cell, or the unrouted cell when the link `s`–`q` is down; and
/// `asn(q)` its AS number. The answer is `(slot, hops, class)`, the slot
/// a full index into `list`:
///
/// * `s == dest`: the origin (slot 0, zero hops, customer class);
/// * else the peer `q` with the lowest `(hops(q) + 1, asn(q))` among
///   those holding a customer-class route — a peer route via `q`;
/// * else the routed provider `p` with the lowest `(hops(p) + 1,
///   asn(p))` — a provider route via `p`;
/// * else `None`: `s` is unrouted.
///
/// The hop count may exceed [`MAX_HOPS`] by one; the caller decides
/// whether that is a refusal (the solver) or a corrupt table (a reader).
#[inline]
pub fn sink_rule(
    s: NodeId,
    dest: NodeId,
    list: &[NodeId],
    providers: usize,
    cell: impl Fn(NodeId) -> u16,
    asn: impl Fn(NodeId) -> u32,
) -> Option<(u16, u32, RouteClass)> {
    if s == dest {
        return Some((0, 0, RouteClass::Customer));
    }
    let customer = |c: u16| c >> CLASS_SHIFT & 3 == 0;
    if let Some((slot, hops)) = lowest(list, providers..list.len(), &cell, &asn, customer) {
        return Some((slot, hops, RouteClass::Peer));
    }
    lowest(list, 0..providers, &cell, &asn, is_routed).map(|(slot, hops)| (slot, hops, RouteClass::Provider))
}

/// The slot and `hops + 1` of the lowest `(hops + 1, ASN)` over slots
/// `range` of `list` among the cells `take` accepts.
#[inline(always)]
fn lowest(
    list: &[NodeId],
    range: std::ops::Range<usize>,
    cell: &impl Fn(NodeId) -> u16,
    asn: &impl Fn(NodeId) -> u32,
    take: impl Fn(u16) -> bool,
) -> Option<(u16, u32)> {
    let (mut won, mut via) = (u64::MAX, 0);
    for (slot, &q) in list[range.clone()].iter().enumerate() {
        let c = cell(q);
        if take(c) {
            let k = u64::from(c >> HOPS_SHIFT) << 32 | u64::from(asn(q));
            if k < won {
                (won, via) = (k, range.start + slot);
            }
        }
    }
    (won != u64::MAX).then(|| (via as u16, (won >> 32) as u32 + 1))
}

/// A route of `len` hops, refused unless a table row can hold it.
#[inline]
fn bounded(len: u32) -> u16 {
    assert!(
        len <= MAX_HOPS as u32,
        "a route of {len} hops is longer than the {MAX_HOPS} hops a route table holds"
    );
    len as u16
}

/// A node's sweep word when routed; any smaller value is a level tag.
const SETTLED: u32 = u32::MAX;

/// "No next-hop slot": an unrouted node's, or the destination's.
const NO_VIA: u32 = u32::MAX;

/// One node's table entry as the change log keeps it: the cell and the
/// full slot (which an escaped cell keeps in the wide area).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Entry {
    cell: u16,
    slot: u16,
}

impl Entry {
    /// The logged route's class, if it had one.
    #[inline]
    fn class(self) -> Option<RouteClass> {
        route_class_from_code((self.cell >> CLASS_SHIFT & 3) as u8)
    }
}

/// Logged in place of a previous assignment for a node that had none when
/// it was retired; the restoration loop's "did this node's offers change"
/// comparison reads it as "yes".
const WAS_UNROUTED: Entry = Entry { cell: UNROUTED_CELL, slot: NO_SLOT };

/// One solved table: a route-table cell per node ([`pack_cell`]), the
/// full slots of escaped cells, and each node's sweep word — [`SETTLED`]
/// iff the node is routed, otherwise pending at the current level iff it
/// equals `tag`, free if older.
#[derive(Default)]
struct Table {
    cells: Vec<u16>,
    /// `(node, slot)` of every node whose last escaped cell took a slot
    /// from 255 up (an entry is stale once the node's cell is not
    /// escaped); a handful at most, and none on a graph without wide ASes.
    wide: Vec<(NodeId, u16)>,
    mark: Vec<u32>,
    tag: u32,
}

impl Table {
    /// Size to `n` nodes, all unrouted.
    fn reset(&mut self, n: usize) {
        self.cells.clear();
        self.cells.resize(n, UNROUTED_CELL);
        self.wide.clear();
        self.mark.clear();
        self.mark.resize(n, 0);
        self.tag = 0;
    }

    #[inline]
    fn routed(&self, x: NodeId) -> bool {
        is_routed(self.cells[x as usize])
    }

    /// The hop count of a routed `x`.
    #[inline]
    fn hops(&self, x: NodeId) -> u32 {
        u32::from(self.cells[x as usize] >> HOPS_SHIFT)
    }

    /// The full slot of `x`'s next hop, or [`NO_VIA`] when `x` is
    /// unrouted or the destination (zero hops).
    #[inline]
    fn via(&self, x: NodeId) -> u32 {
        let cell = self.cells[x as usize];
        match cell & ESCAPE {
            ESCAPE => self.escaped(x, cell),
            _ if cell >> HOPS_SHIFT == 0 => NO_VIA,
            slot => u32::from(slot),
        }
    }

    /// [`Table::via`] of a cell whose slot field is [`ESCAPE`]: all ones
    /// (unrouted) or a slot in the wide list.
    #[cold]
    fn escaped(&self, x: NodeId, cell: u16) -> u32 {
        if !is_routed(cell) {
            return NO_VIA;
        }
        let (_, slot) = self.wide.iter().find(|w| w.0 == x).expect("an escaped cell's slot is kept");
        u32::from(*slot)
    }

    #[inline]
    fn entry(&self, x: NodeId) -> Entry {
        Entry { cell: self.cells[x as usize], slot: self.via(x) as u16 }
    }

    /// `x`'s route with the next hop resolved through `topo`'s slot order.
    #[inline]
    fn best(&self, topo: &Topology, x: NodeId) -> Option<BestRoute> {
        let cell = self.cells[x as usize];
        let class = route_class_from_code((cell >> CLASS_SHIFT & 3) as u8)?;
        let len = cell >> HOPS_SHIFT;
        let next = match cell & ESCAPE {
            _ if len == 0 => x,
            ESCAPE => topo.slot_neighbor(x, self.escaped(x, cell) as usize),
            slot => topo.slot_neighbor(x, slot as usize),
        };
        Some(BestRoute { class, len, next })
    }

    /// `x`'s next hop, or [`UNROUTED_NEXT`]; the destination's is itself.
    #[inline]
    fn next(&self, topo: &Topology, x: NodeId) -> u32 {
        match self.via(x) {
            NO_VIA if self.routed(x) => x,
            NO_VIA => UNROUTED_NEXT,
            slot => topo.slot_neighbor(x, slot as usize),
        }
    }

    /// Settle `x` on the route through its neighbour at `slot`. The hop
    /// count fits a cell: [`bounded`] caps it.
    #[inline]
    fn set(&mut self, x: NodeId, slot: u16, len: u16, class: RouteClass) {
        debug_assert!(len <= MAX_HOPS, "{len} hops do not fit a cell");
        if slot >= ESCAPE {
            self.keep_wide(x, slot);
        }
        self.cells[x as usize] = cell_of(slot, len, route_class_code(class));
        self.mark[x as usize] = SETTLED;
    }

    #[cold]
    fn keep_wide(&mut self, x: NodeId, slot: u16) {
        match self.wide.iter_mut().find(|w| w.0 == x) {
            Some(w) => w.1 = slot,
            None => self.wide.push((x, slot)),
        }
    }

    /// Put back a logged entry.
    #[inline]
    fn restore(&mut self, x: NodeId, e: Entry) {
        if is_routed(e.cell) && e.cell & ESCAPE == ESCAPE {
            self.keep_wide(x, e.slot);
        }
        self.cells[x as usize] = e.cell;
        self.mark[x as usize] = if is_routed(e.cell) { SETTLED } else { 0 };
    }

    #[inline]
    fn unset(&mut self, x: NodeId) {
        (self.cells[x as usize], self.mark[x as usize]) = (UNROUTED_CELL, 0);
    }

    /// Open the next level: every pending mark goes stale at once. When
    /// the counter would reach [`SETTLED`], pay one O(V) clear first.
    fn next_tag(&mut self) {
        if self.tag == SETTLED - 1 {
            self.mark.iter_mut().filter(|m| **m != SETTLED).for_each(|m| *m = 0);
            self.tag = 0;
        }
        self.tag += 1;
    }
}

/// A `u -> v` offer's key: `u`'s ASN above `u`'s slot in `v`'s list
/// (`back`), so `min` keeps the lowest-ASN offerer and its low half is
/// the slot `v` settles on.
#[inline]
fn offer_key(topo: &Topology, u: NodeId, back: u16) -> u64 {
    (topo.asn(u).0 as u64) << 32 | u64::from(back)
}

/// An offer into a delta's retired set: offerer's level, target, key.
type Seed = (u32, NodeId, u64);

/// Does a settled AS holding a `held`-class route, `rel` to a retired
/// node, offer into it in the sweep that assigns `class`? Customer-routed
/// ASes climb provider links and offer one peer hop, every routed AS
/// offers to its customers, and a sibling link carries a route of the
/// sweep's own class.
#[inline]
fn offers_into(class: RouteClass, rel: Rel, held: RouteClass) -> bool {
    match (class, rel) {
        (_, Rel::Sibling) => held == class,
        (RouteClass::Customer, Rel::Customer) | (RouteClass::Peer, Rel::Peer) => {
            held == RouteClass::Customer
        }
        (RouteClass::Provider, Rel::Provider) => true,
        _ => false,
    }
}

/// Can a neighbour that is `rel` to a retired node offer into it, holding
/// some route, in the sweep that assigns `class`? ([`offers_into`]
/// without the held class.)
#[inline]
fn can_offer(class: RouteClass, rel: Rel) -> bool {
    [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider]
        .into_iter()
        .any(|held| offers_into(class, rel, held))
}

/// Reusable per-thread solve arena.
///
/// Holds the table storage a solve moves into its [`RoutingState`], the
/// per-node offer keys, and the pending and routed lists. A scratch can be
/// reused across any sequence of solves (it resizes itself when the
/// topology changes); reuse via [`RoutingState::solve_into`] +
/// [`RoutingState::recycle`] makes the steady-state cost of a solve
/// allocation-free.
#[derive(Default)]
pub struct SolveScratch {
    table: Table,
    /// The pending offer of each node queued at the current level.
    key: Vec<u64>,
    /// Nodes queued at the current level (one spare slot: a push that
    /// does not count still writes).
    pending: Vec<NodeId>,
    /// Nodes in assignment order: dest, then sweep-1, -2, -3 winners
    /// (sinks the pull pass settles are not listed).
    routed: Vec<NodeId>,
}

impl SolveScratch {
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Presized arena for an `n`-node topology: the first solve through
    /// this scratch already allocates nothing. Pooled whole-table workers
    /// build their per-thread scratches this way.
    pub fn for_nodes(n: usize) -> SolveScratch {
        let mut s = SolveScratch::new();
        s.table.reset(n);
        s.size(n);
        s.routed.reserve(n);
        s
    }

    /// Size the offer keys and the pending list for `n` nodes.
    fn size(&mut self, n: usize) {
        self.key.resize(n, 0);
        self.pending.resize(n + 1, 0);
    }
}

/// Scratch arena for the delta engine ([`crate::engine::WhatIf`],
/// [`multi::MultiFailState::apply`]).
///
/// Layers on [`SolveScratch`]: the inner scratch provides the offer keys
/// and the pending and routed lists (delta sweeps run against the table
/// owned by the state — the inner scratch's own stays empty), and the
/// change log records every retired or improved node's previous
/// assignment. After a `fail` that log is an undo log (`revert` replays
/// it in O(cone)); a restoration round reads it as the changed set.
/// Consecutive deltas reuse all storage and allocate nothing in the
/// steady state; one scratch serves any number of states, so the
/// per-node column is paid once.
pub struct DeltaScratch {
    /// `(node, previous assignment)` for every changed node: the cone in
    /// BFS order, then any downstream nodes the improvement wave reached.
    undo: Vec<(NodeId, Entry)>,
    /// `logged[v] == logged_gen` iff `v` is already in the undo log.
    logged: Vec<u32>,
    logged_gen: u32,
    inner: SolveScratch,
    /// One sweep's boundary offers, in level order.
    seeds: Vec<Seed>,
    /// Roots of the next retirement; the retirement consumes them, so
    /// this is empty between deltas.
    roots: Vec<NodeId>,
    /// [`multi::MultiFailState::apply`]'s coalescing lists — the batch's
    /// last state per link, its net failures and restorations — kept
    /// here so a steady-state `apply` allocates nothing.
    finals: Vec<((NodeId, NodeId), bool)>,
    net_downs: Vec<(NodeId, NodeId)>,
    net_ups: Vec<(NodeId, NodeId)>,
}

impl DeltaScratch {
    pub fn new() -> DeltaScratch {
        DeltaScratch {
            undo: Vec::new(),
            logged: Vec::new(),
            logged_gen: 0,
            inner: SolveScratch::new(),
            seeds: Vec::new(),
            roots: Vec::new(),
            finals: Vec::new(),
            net_downs: Vec::new(),
            net_ups: Vec::new(),
        }
    }

    /// Arena for an `n`-node topology with the change log presized.
    /// Delta sweeps borrow the table from the state; the first re-drain
    /// sizes the offer keys and pending list, so a pooled scratch that
    /// never runs a delta does not hold them.
    pub fn for_nodes(n: usize) -> DeltaScratch {
        let mut s = DeltaScratch::new();
        s.logged.resize(n, 0);
        s
    }

    /// Open a fresh (empty) change log sized for `n` nodes.
    #[inline]
    fn begin(&mut self, n: usize) {
        self.undo.clear();
        if self.logged.len() != n {
            self.logged.clear();
            self.logged.resize(n, 0);
            self.logged_gen = 0;
        }
        self.logged_gen = self.logged_gen.wrapping_add(1);
        if self.logged_gen == 0 {
            self.logged.fill(0);
            self.logged_gen = 1;
        }
        self.inner.routed.clear();
    }

    /// Record `v`'s pre-delta assignment (once).
    #[inline]
    fn log(&mut self, v: NodeId, old: Entry) {
        if self.logged[v as usize] != self.logged_gen {
            self.logged[v as usize] = self.logged_gen;
            self.undo.push((v, old));
        }
    }

    /// Entries the last delta changed: the retired cone plus any nodes
    /// the improvement wave reached. Zero when it touched no route.
    pub(crate) fn changed(&self) -> usize {
        self.undo.len()
    }
}

impl Default for DeltaScratch {
    fn default() -> DeltaScratch {
        DeltaScratch::new()
    }
}

/// Low-high normalized key of the link between `x` and `y`.
#[inline]
fn link_key(x: NodeId, y: NodeId) -> (NodeId, NodeId) {
    (x.min(y), x.max(y))
}

/// Is the link between `x` and `y` in the sorted, normalized `failed` set?
#[inline]
fn is_failed(failed: &[(NodeId, NodeId)], x: NodeId, y: NodeId) -> bool {
    !failed.is_empty() && failed.binary_search(&link_key(x, y)).is_ok()
}

/// Which CSR slice a sweep offers over (see [`Topology::up_offers`]
/// and friends).
#[derive(Clone, Copy)]
enum Edges {
    /// Providers + siblings: the customer-sweep climb.
    Up,
    /// Siblings only: peer-class propagation.
    Sibling,
    /// Siblings + customers: a delta's provider-sweep descent.
    Down,
    /// Peers only (seeding sweep 2).
    Peer,
    /// Siblings + customers that are not sinks: a full solve's descent.
    TransitDown,
    /// Customers that are not sinks (seeding a full solve's sweep 3).
    TransitCustomer,
}

impl Edges {
    /// `u`'s neighbours over these edges, and `u`'s slot in each one's
    /// list.
    #[inline]
    fn offers(self, topo: &Topology, u: NodeId) -> (&[NodeId], &[u16]) {
        match self {
            Edges::Up => topo.up_offers(u),
            Edges::Sibling => topo.sibling_offers(u),
            Edges::Down => topo.down_offers(u),
            Edges::Peer => topo.peer_offers(u),
            Edges::TransitDown => topo.transit_down_offers(u),
            Edges::TransitCustomer => {
                let ((ys, back), k) = (topo.transit_down_offers(u), topo.sibling_neighbors(u).len());
                (&ys[k..], &back[k..])
            }
        }
    }
}

/// One in-flight run of sweeps: a state's table and a scratch's lists,
/// borrowed disjointly (built only by [`RoutingState::sweep`]).
struct Sweep<'a> {
    topo: &'a Topology,
    failed: &'a [(NodeId, NodeId)],
    t: &'a mut Table,
    key: &'a mut [u64],
    pending: &'a mut [NodeId],
    /// How many of `pending` are queued at the current level.
    queued: usize,
    routed: &'a mut Vec<NodeId>,
    /// The deepest level any sweep settled.
    deepest: u32,
}

impl Sweep<'_> {
    /// Fold offer key `k` into `v` — branch-free: a settled `v` keeps its
    /// word and is not counted, a pending one keeps the lower key, a free
    /// one takes `k` and is queued.
    #[inline(always)]
    fn offer(&mut self, v: NodeId, k: u64) {
        let (vi, tag) = (v as usize, self.t.tag);
        let m = self.t.mark[vi];
        let free = m < tag;
        self.key[vi] = if free { k } else { self.key[vi].min(k) };
        self.t.mark[vi] = m.max(tag);
        self.pending[self.queued] = v;
        self.queued += free as usize;
    }

    /// Offer `u`'s route (extended by one hop) to its `edges` neighbors.
    /// With no link failed (every whole-table solve) the loop skips the
    /// failed test entirely.
    #[inline]
    fn offer_from(&mut self, u: NodeId, edges: Edges) {
        let (topo, failed, k) = (self.topo, self.failed, offer_key(self.topo, u, 0));
        let (ys, back) = edges.offers(topo, u);
        if failed.is_empty() {
            ys.iter().zip(back).for_each(|(&v, &b)| self.offer(v, k | u64::from(b)));
        } else {
            for (&v, &b) in ys.iter().zip(back).filter(|&(&v, _)| !is_failed(failed, u, v)) {
                self.offer(v, k | u64::from(b));
            }
        }
    }

    /// Offer over `edges` from every node of `routed[*at..end]` (a list in
    /// level order) at level `lvl`; returns the level of the next one.
    fn offer_routed(&mut self, at: &mut usize, end: usize, lvl: u32, edges: Edges) -> Option<u32> {
        let level =
            |sw: &Self, i: usize| (i < end).then(|| sw.t.hops(sw.routed[i]));
        while level(self, *at) == Some(lvl) {
            self.offer_from(self.routed[*at], edges);
            *at += 1;
        }
        level(self, *at)
    }

    /// Inject `seeds[*at..]` made from level `lvl`; returns the next level.
    fn offer_seeds(&mut self, seeds: &[Seed], at: &mut usize, lvl: u32) -> Option<u32> {
        while let Some(&(_, v, k)) = seeds.get(*at).filter(|s| s.0 == lvl) {
            self.offer(v, k);
            *at += 1;
        }
        seeds.get(*at).map(|s| s.0)
    }

    /// Settle level by level, assigning `class` and propagating over
    /// `edges`. `seeds(sw, lvl)` makes every seeded offer from level
    /// `lvl` and returns the next seeded level; `seeded` is the first.
    /// Each step offers from the frontier and the seeds at `lvl`, then
    /// settles every node queued at `lvl + 1` with the lowest-ASN offer
    /// folded into its key — the heap's `(len, asn(next))` order.
    fn drain(
        &mut self,
        class: RouteClass,
        edges: Edges,
        mut seeded: Option<u32>,
        mut seeds: impl FnMut(&mut Self, u32) -> Option<u32>,
    ) {
        let Some(mut lvl) = seeded else { return };
        let mut frontier = self.routed.len()..self.routed.len();
        loop {
            self.t.next_tag();
            self.queued = 0;
            for i in frontier.clone() {
                self.offer_from(self.routed[i], edges);
            }
            if seeded == Some(lvl) {
                seeded = seeds(self, lvl);
            }
            if self.queued == 0 {
                let Some(next) = seeded else { return };
                (lvl, frontier) = (next, self.routed.len()..self.routed.len());
                continue;
            }
            lvl += 1;
            let len = bounded(lvl);
            self.deepest = self.deepest.max(lvl);
            let start = self.routed.len();
            for i in 0..self.queued {
                let v = self.pending[i];
                self.t.set(v, self.key[v as usize] as u16, len, class);
                self.routed.push(v);
            }
            frontier = start..self.routed.len();
        }
    }

    /// The pull pass: settle every unrouted sink by [`sink_rule`] over
    /// its neighbours' cells, links down where failed. A sink passes
    /// nothing on, so this is the sweeps' last word on it. The peer sweep
    /// already settled every sink the rule routes through a peer, so the
    /// rule is handed the providers alone, which lead the slot order.
    fn settle_sinks(&mut self, dest: NodeId) {
        let (topo, failed) = (self.topo, self.failed);
        for &s in topo.sinks() {
            if self.t.routed(s) {
                continue;
            }
            let cells = &self.t.cells;
            let cell = |q: NodeId| if is_failed(failed, s, q) { UNROUTED_CELL } else { cells[q as usize] };
            let providers = topo.provider_neighbors(s);
            if let Some((slot, len, class)) = sink_rule(s, dest, providers, providers.len(), cell, |q| topo.asn(q).0) {
                self.t.set(s, slot, bounded(len), class);
            }
        }
    }
}

/// The converged routing state for a single destination prefix.
///
/// ```
/// use miro_bgp::solver::RoutingState;
/// use miro_topology::gen::figure_1_1;
///
/// // The paper's Figure 1.1 topology: A routes to F through B and E.
/// let (topo, [a, b, _c, _d, e, f]) = figure_1_1();
/// let st = RoutingState::solve(&topo, f);
/// assert_eq!(st.path(a), Some(vec![b, e, f]));
/// // ...and the alternate through D is in A's candidate set.
/// assert_eq!(st.candidates(a).len(), 2);
/// ```
pub struct RoutingState<'t> {
    topo: &'t Topology,
    dest: NodeId,
    t: Table,
    /// Administratively failed links this table is solved without —
    /// sorted, low-high normalized, empty for a plain solve. Candidates
    /// over them are suppressed too.
    failed: Vec<(NodeId, NodeId)>,
}

impl<'t> RoutingState<'t> {
    /// Solve the stable state for destination `dest`.
    pub fn solve(topo: &'t Topology, dest: NodeId) -> RoutingState<'t> {
        Self::solve_core(topo, dest, Vec::new(), &mut SolveScratch::new())
    }

    /// Solve reusing a scratch arena: the allocation-free fast path for
    /// whole-network solves. Return the state's storage with
    /// [`RoutingState::recycle`] when done querying it.
    pub fn solve_into(
        topo: &'t Topology,
        dest: NodeId,
        scratch: &mut SolveScratch,
    ) -> RoutingState<'t> {
        Self::solve_core(topo, dest, Vec::new(), scratch)
    }

    /// Solve as if the link between `a` and `b` had failed — the
    /// what-if the MIRO control plane runs when it observes a withdrawal
    /// and must decide which tunnels to tear down (section 4.3), without
    /// rebuilding the topology. The from-scratch oracle for the delta
    /// engine, which answers the same question in O(cone).
    pub fn solve_without_link(
        topo: &'t Topology,
        dest: NodeId,
        a: NodeId,
        b: NodeId,
    ) -> RoutingState<'t> {
        Self::solve_core(topo, dest, vec![link_key(a, b)], &mut SolveScratch::new())
    }

    /// Scratch-reusing variant of [`RoutingState::solve_without_link`].
    pub fn solve_without_link_into(
        topo: &'t Topology,
        dest: NodeId,
        a: NodeId,
        b: NodeId,
        scratch: &mut SolveScratch,
    ) -> RoutingState<'t> {
        Self::solve_core(topo, dest, vec![link_key(a, b)], scratch)
    }

    /// Give this state's table storage back to `scratch` so the next
    /// [`RoutingState::solve_into`] reuses it without reallocating.
    pub fn recycle(self, scratch: &mut SolveScratch) {
        scratch.table = self.t;
    }

    /// The three-sweep solve without the (sorted, normalized) `failed`
    /// links, taking the table storage out of `scratch`.
    fn solve_core(
        topo: &'t Topology,
        dest: NodeId,
        failed: Vec<(NodeId, NodeId)>,
        scratch: &mut SolveScratch,
    ) -> RoutingState<'t> {
        let mut st = RoutingState { topo, dest, t: std::mem::take(&mut scratch.table), failed };
        st.resolve(scratch);
        st
    }

    /// Borrow the table and `q`'s lists as one in-flight [`Sweep`].
    fn sweep<'a>(&'a mut self, q: &'a mut SolveScratch) -> Sweep<'a> {
        Sweep {
            topo: self.topo,
            failed: &self.failed,
            t: &mut self.t,
            key: &mut q.key,
            pending: &mut q.pending,
            queued: 0,
            routed: &mut q.routed,
            deepest: 0,
        }
    }

    /// Full solve under the current failed set, in place: the three
    /// sweeps, then the pull pass.
    fn resolve(&mut self, q: &mut SolveScratch) {
        self.sweeps(q);
        let dest = self.dest;
        self.sweep(q).settle_sinks(dest);
    }

    /// The three sweeps under the current failed set, in place; sinks
    /// routed through a peer are settled, the rest await the pull pass.
    /// Returns the deepest level settled.
    fn sweeps(&mut self, q: &mut SolveScratch) -> u32 {
        let (n, dest) = (self.topo.num_nodes(), self.dest);
        self.t.reset(n);
        q.size(n);
        self.t.set(dest, 0, 0, RouteClass::Customer);
        q.routed.clear();
        q.routed.push(dest);
        let mut sw = self.sweep(q);

        // --- Sweep 1: customer-class routes -----------------------------
        // Climb provider and sibling links from the destination.
        sw.drain(RouteClass::Customer, Edges::Up, Some(0), |sw, _| {
            sw.offer_from(dest, Edges::Up);
            None
        });
        let customer_routed = sw.routed.len();

        // --- Sweep 2: peer-class routes ---------------------------------
        // Seed: one peer hop off a customer-routed AS (peers export only
        // customer routes), then propagate along sibling links.
        let mut at = 0;
        sw.drain(RouteClass::Peer, Edges::Sibling, Some(0), |sw, lvl| {
            sw.offer_routed(&mut at, customer_routed, lvl, Edges::Peer)
        });
        let routed = sw.routed.len();

        // --- Sweep 3: provider-class routes -----------------------------
        // Seed: every routed AS offers its route to its customers
        // (everything is exportable to customers); then propagate down
        // customer links and across sibling links among the unrouted —
        // sinks aside, which then pull their best provider's offer.
        let (mut a, mut b) = (0, customer_routed);
        sw.drain(RouteClass::Provider, Edges::TransitDown, Some(0), |sw, lvl| {
            let x = sw.offer_routed(&mut a, customer_routed, lvl, Edges::TransitCustomer);
            let y = sw.offer_routed(&mut b, routed, lvl, Edges::TransitCustomer);
            x.zip(y).map(|(x, y)| x.min(y)).or(x).or(y)
        });
        sw.deepest
    }

    /// The destination this state routes toward.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// The links this table is solved without (sorted, low-high
    /// normalized; empty for a plain solve).
    pub fn failed_links(&self) -> &[(NodeId, NodeId)] {
        &self.failed
    }

    /// Is the link between `a` and `b` currently failed?
    #[inline]
    pub fn is_failed(&self, a: NodeId, b: NodeId) -> bool {
        is_failed(&self.failed, a, b)
    }

    /// The selected route of `x`, if `x` can reach the destination.
    #[inline]
    pub fn best(&self, x: NodeId) -> Option<BestRoute> {
        self.t.best(self.topo, x)
    }

    /// `x`'s next hop, or [`UNROUTED_NEXT`]; the destination's is itself.
    #[inline]
    fn next(&self, x: NodeId) -> u32 {
        self.t.next(self.topo, x)
    }

    /// The selected AS path of `x` (next hop first, destination last;
    /// empty for the destination itself). `None` if unreachable.
    pub fn path(&self, x: NodeId) -> Option<Vec<NodeId>> {
        let mut b = self.best(x)?;
        let mut out = Vec::with_capacity(b.len as usize);
        let mut at = x;
        while at != self.dest {
            at = b.next;
            out.push(at);
            b = self.best(at).expect("next hop of a routed AS is routed");
        }
        Some(out)
    }

    /// Does `x`'s selected path traverse `avoid`? (`false` if unreachable.)
    pub fn path_traverses(&self, x: NodeId, avoid: NodeId) -> bool {
        let mut at = x;
        while at != self.dest {
            let Some(b) = self.best(at) else { return false };
            at = b.next;
            if at == avoid {
                return true;
            }
        }
        false
    }

    /// Would neighbor `n` export its selected route to `x` under the
    /// conventional export rules, and is it loop-free at `x`?
    /// Returns the candidate as `x` would install it.
    pub fn learned_from(&self, x: NodeId, n: NodeId) -> Option<CandidateRoute> {
        if self.is_failed(x, n) {
            return None; // the session over a failed link is down
        }
        let bn = self.best(n)?;
        let rel_xn = self.topo.rel(n, x)?; // what x is to n: n's export decision
        if !ExportScope::allows(bn.class, rel_xn) {
            return None;
        }
        let mut path = Vec::with_capacity(bn.len as usize + 1);
        path.push(n);
        let mut at = n;
        while at != self.dest {
            let b = self.best(at).expect("routed chain");
            at = b.next;
            if at == x {
                return None; // loop: x already on n's path
            }
            path.push(at);
        }
        let rel_nx = self.topo.rel(x, n).expect("link exists both ways");
        let class = ExportScope::received_class(bn.class, rel_nx);
        Some(CandidateRoute { path, class })
    }

    /// All candidate routes `x` learns from its neighbors under normal BGP
    /// operation — the alternate-route pool a MIRO responding AS selects
    /// from (section 3.4).
    ///
    /// Sorted by [`crate::route::prefer`]: business class first
    /// (customer, then peer, then provider), then path length, then
    /// next-hop AS number — best first, so `candidates(x)[0]` always
    /// matches [`RoutingState::best`] when `x` is routed.
    pub fn candidates(&self, x: NodeId) -> Vec<CandidateRoute> {
        // At most one candidate per neighbor, so degree bounds the size.
        let mut out: Vec<CandidateRoute> = Vec::with_capacity(self.topo.degree(x));
        out.extend(
            self.topo
                .neighbors(x)
                .iter()
                .filter_map(|&(n, _)| self.learned_from(x, n)),
        );
        out.sort_by(|a, b| crate::route::prefer(self.topo, a, b));
        out
    }

    /// Number of ASes that can reach the destination.
    pub fn reachable_count(&self) -> usize {
        self.t.cells.iter().filter(|&&c| is_routed(c)).count()
    }

    /// This solve as one route-table row: for every AS `x`, the
    /// [`pack_cell`] of its route toward the destination — the column the
    /// table is kept in. An [`ESCAPE`]d cell's slot is
    /// [`RoutingState::wide_slot`].
    pub fn cells(&self) -> &[u16] {
        &self.t.cells
    }

    /// The wide-area entry of AS `x`: the full slot of its next hop when
    /// its cell is escaped, [`NO_SLOT`] otherwise.
    pub fn wide_slot(&self, x: NodeId) -> u16 {
        match self.t.cells[x as usize] {
            cell if is_routed(cell) && cell & ESCAPE == ESCAPE => self.t.via(x) as u16,
            _ => NO_SLOT,
        }
    }

    /// Unpack [`RoutingState::cells`] into three slices of `num_nodes`
    /// entries each — next hops as node ids — with the `UNROUTED_*`
    /// sentinels for unrouted ASes.
    pub fn write_table_row(&self, next: &mut [u32], hops: &mut [u16], class: &mut [u8]) {
        let n = self.topo.num_nodes();
        assert!(
            next.len() == n && hops.len() == n && class.len() == n,
            "row columns sized to the topology"
        );
        for (x, &cell) in self.t.cells.iter().enumerate() {
            let (_, len, code) = unpack_cell(cell);
            (next[x], hops[x], class[x]) = (self.t.next(self.topo, x as NodeId), len, code);
        }
    }
}

/// One destination solved for a route-table row: the three sweeps of a
/// full solve without its pull pass. A transit AS's cell is final; a
/// sink's is not settled, because a table stores none — its readers
/// derive it with [`sink_rule`], as the pull pass would have. The hop
/// bound still holds at solve time: when the sweeps reach [`MAX_HOPS`],
/// the pull pass runs after all, so a sink one hop past the bound is
/// refused as a full solve refuses it.
pub struct RowSolve<'t>(RoutingState<'t>);

impl<'t> RowSolve<'t> {
    /// Solve `dest` for its row, taking the table storage out of
    /// `scratch`; give it back with [`RowSolve::recycle`].
    pub fn solve_into(topo: &'t Topology, dest: NodeId, scratch: &mut SolveScratch) -> RowSolve<'t> {
        let mut st = RoutingState { topo, dest, t: std::mem::take(&mut scratch.table), failed: Vec::new() };
        if st.sweeps(scratch) >= MAX_HOPS as u32 {
            st.sweep(scratch).settle_sinks(dest);
        }
        RowSolve(st)
    }

    /// The cell of transit AS `x` ([`pack_cell`]'s layout).
    #[inline]
    pub fn cell(&self, x: NodeId) -> u16 {
        self.0.t.cells[x as usize]
    }

    /// [`RoutingState::wide_slot`] of transit AS `x`.
    pub fn wide_slot(&self, x: NodeId) -> u16 {
        self.0.wide_slot(x)
    }

    pub fn recycle(self, scratch: &mut SolveScratch) {
        self.0.recycle(scratch);
    }
}

/// The delta kernel: change the failed-link set of a solved table in
/// O(what moved) instead of re-running the three sweeps. Every entry
/// point leaves the table bit-for-bit equal to a from-scratch solve
/// without the failed set; [`multi`] holds the restoration half.
impl RoutingState<'_> {
    /// The one validation step for a link named from outside: its
    /// low-high normalized key, or `None` for a self-loop or an endpoint
    /// that is not a node of the topology.
    #[inline]
    pub(crate) fn link(&self, a: NodeId, b: NodeId) -> Option<(NodeId, NodeId)> {
        (a != b && (a.max(b) as usize) < self.topo.num_nodes()).then(|| link_key(a, b))
    }

    /// Take one (currently failed) link out of the failed set.
    #[inline]
    fn unfail(&mut self, key: (NodeId, NodeId)) {
        let at = self.failed.binary_search(&key).expect("un-failing a link that is up");
        self.failed.remove(at);
    }

    /// Fail `links` (validated keys, none failed yet): retire the routing
    /// subtrees hanging off them as one union cone, re-drain the three
    /// sweeps inside it against the intact boundary, then relax the
    /// provider-class improvement wave, each scanning only what a failure
    /// can change (module docs). Every change is logged to
    /// `scratch` ([`DeltaScratch::changed`] counts them), so until the
    /// scratch or the state is used again [`RoutingState::revert`] can
    /// undo the failure. Returns how many cone nodes lost reachability.
    ///
    /// A link off the routing tree costs two comparisons: the solution
    /// provably cannot change (non-winning offers have no side effects),
    /// and membership in the failed set suppresses candidates over the
    /// dead session, which is all a full solve without it would differ by.
    ///
    /// Co-temporal failures whose cones overlap are invalidated and
    /// re-drained **once**, where serial application would re-settle the
    /// shared subtree per link; disjoint cones degenerate to exactly the
    /// serial work (each seed only reaches its own cone).
    ///
    /// `#[inline]` (here, on `revert` and on `DeltaScratch::begin`) puts
    /// the off-tree path in the what-if closure's own frame; the three
    /// phases below stay calls.
    #[inline]
    pub(crate) fn fail(&mut self, links: &[(NodeId, NodeId)], scratch: &mut DeltaScratch) -> usize {
        scratch.begin(self.topo.num_nodes());
        for &(a, b) in links {
            let at = self.failed.binary_search(&(a, b)).expect_err("failing a link twice");
            self.failed.insert(at, (a, b));
            // The child endpoint of a dead link is the one routing
            // *through* it (at most one per link: the parent's own path
            // never descends back into the subtree).
            // A next hop is one hop nearer, so the hop counts rule most
            // links out before a slot is resolved.
            for (c, p) in [(a, b), (b, a)] {
                if self.t.hops(c) == self.t.hops(p) + 1 && self.next(c) == p {
                    scratch.roots.push(c);
                }
            }
        }
        if scratch.roots.is_empty() {
            return 0;
        }
        self.retire::<false>(scratch);
        let disconnected = self.redrain::<false>(scratch);
        self.improve_wave(scratch);
        disconnected
    }

    /// Undo the [`RoutingState::fail`] of `links` that `scratch` last
    /// logged: replay the log in O(cone), then un-fail the links. Only a
    /// pure failure can be reverted — a restoration's log is a changed
    /// set, not a history.
    #[inline]
    pub(crate) fn revert(&mut self, links: &[(NodeId, NodeId)], scratch: &mut DeltaScratch) {
        for &(v, old) in &scratch.undo {
            self.t.restore(v, old);
        }
        scratch.undo.clear();
        for &key in links {
            self.unfail(key);
        }
    }

    /// Retire the routing subtrees rooted at `scratch.roots` (consumed):
    /// a node loses its route iff its next-hop chain crosses a root. Walk
    /// parent pointers breadth-first (`v` joins iff its next hop already
    /// did), logging each assignment and un-assigning the node. The
    /// retired set is closed under "my next-hop chain crosses it", so
    /// every node left outside still holds a route whose whole chain is
    /// outside too.
    ///
    /// A failure (`RESTORE = false`) retires only routed nodes, and a
    /// node whose logged route is peer- or provider-class exported it to
    /// its siblings and customers alone, so only those can route through
    /// it: its walk scans [`Topology::down_offers`], not every slot.
    /// A restoration may root a retirement at an unrouted node and also
    /// pulls in every unrouted neighbor of a retired node, transitively,
    /// so it scans every slot: those neighbours have nothing to lose, and
    /// with them inside, a re-drain that hands a retired node a route it
    /// can now export never spills past the log.
    fn retire<const RESTORE: bool>(&mut self, scratch: &mut DeltaScratch) {
        for i in 0..scratch.roots.len() {
            let root = scratch.roots[i];
            scratch.log(root, self.t.entry(root));
            self.t.unset(root);
        }
        scratch.roots.clear();
        let mut head = 0;
        while head < scratch.undo.len() {
            let (x, old) = scratch.undo[head];
            head += 1;
            // `v` routes through `x` iff its slot is `x`'s slot in its list.
            let (vs, backs) = match RESTORE || old.class() == Some(RouteClass::Customer) {
                true => self.topo.slot_offers(x),
                false => self.topo.down_offers(x),
            };
            for (&v, &back) in vs.iter().zip(backs) {
                if self.t.via(v) == u32::from(back) {
                    scratch.log(v, self.t.entry(v));
                    self.t.unset(v);
                } else if RESTORE && !self.t.routed(v) {
                    scratch.log(v, WAS_UNROUTED); // no-op for one already retired
                }
            }
        }
    }

    /// Every offer a settled neighbor makes into a cone node still
    /// unrouted in the sweep that assigns `class`, in level order:
    /// exactly what the full run would deliver into the retired set. Cone
    /// nodes re-routed by an earlier delta sweep offer with their updated
    /// assignment.
    ///
    /// A failure (`RESTORE = false`) skips every cone node whose logged
    /// route is of a worse class than `class`: it ends the failure with no
    /// better class than it began it, so no offer of this sweep reaches
    /// it. Sweep 1 scans the nodes that held customer routes, sweep 2
    /// those that held customer or peer routes, sweep 3 all of them.
    fn boundary_seeds<const RESTORE: bool>(
        &self,
        cone: &[(NodeId, Entry)],
        class: RouteClass,
        out: &mut Vec<Seed>,
    ) {
        out.clear();
        let open = |&&(v, old): &&(NodeId, Entry)| {
            !self.t.routed(v) && (RESTORE || old.class().is_some_and(|held| held <= class))
        };
        for &(v, _) in cone.iter().filter(open) {
            let (us, bounds) = (self.topo.slot_neighbors(v), self.topo.slot_bounds(v));
            // Only the partitions whose neighbours can offer in this sweep.
            for (c, rel) in SLOT_ORDER.into_iter().enumerate().filter(|&(_, rel)| can_offer(class, rel)) {
                for (slot, &u) in us.iter().enumerate().take(bounds[c + 1]).skip(bounds[c]) {
                    let cell = self.t.cells[u as usize];
                    match route_class_from_code((cell >> CLASS_SHIFT & 3) as u8) {
                        Some(held) if offers_into(class, rel, held) && !self.is_failed(u, v) => {
                            out.push((self.t.hops(u), v, offer_key(self.topo, u, slot as u16)));
                        }
                        _ => {}
                    }
                }
            }
        }
        out.sort_unstable_by_key(|s| s.0);
    }

    /// Re-run the three sweeps restricted to the retired set (the log).
    /// Everything outside keeps its assignment and acts as the intact
    /// boundary; each sweep is seeded with its boundary offers, deferred
    /// to their level, so winners and tie-breaks come out bit-for-bit
    /// identical. Re-settled nodes land in `scratch.inner.routed`;
    /// returns how many retired nodes stayed unrouted. `RESTORE` passes
    /// on to `boundary_seeds`.
    fn redrain<const RESTORE: bool>(&mut self, scratch: &mut DeltaScratch) -> usize {
        let DeltaScratch { undo, inner, seeds, .. } = scratch;
        inner.size(self.topo.num_nodes());
        let sweeps = [
            (RouteClass::Customer, Edges::Up),
            (RouteClass::Peer, Edges::Sibling),
            (RouteClass::Provider, Edges::Down),
        ];
        for (class, edges) in sweeps {
            self.boundary_seeds::<RESTORE>(undo, class, seeds);
            let mut at = 0;
            let first = seeds.first().map(|s| s.0);
            self.sweep(inner)
                .drain(class, edges, first, |sw, lvl| sw.offer_seeds(seeds, &mut at, lvl));
        }
        undo.len() - inner.routed.len()
    }

    /// Relax provider-class improvements down customer/sibling links,
    /// starting from the re-settled cone nodes whose routes got shorter
    /// (a failure's log, read against the table).
    ///
    /// Losing a link can *shorten* routes outside the cone: a cone node
    /// demoted across sweeps (e.g. peer-class via the dead link to a
    /// shorter provider-class fallback) now delivers its sweep-3 offers
    /// at an earlier hop level, and nodes below it may switch to the
    /// better offer. Only sweep-3 deliveries can ever improve —
    /// customer-class levels are plain BFS distances over a shrinking
    /// edge set, and peer-class levels derive from them — so the wave is
    /// exactly a level-synchronous relaxation of provider-class routes
    /// down customer and sibling links, propagated from every node whose
    /// route got strictly shorter. The argument only uses that the edge
    /// set *shrank*, so it holds verbatim for a batch of simultaneous
    /// failures.
    ///
    /// Seeds are the deliveries the base solve did not already make as
    /// well: the re-drain weighed every offer into the cone, and outside
    /// it each node held a route no worse than its neighbours' pre-failure
    /// offers. A re-settled `v` offers its customers provider class
    /// whatever it holds, and its siblings its own class, which never
    /// improves; so only a `v` whose route got shorter seeds, and to its
    /// siblings only if its old route was provider class.
    fn improve_wave(&mut self, scratch: &mut DeltaScratch) {
        let DeltaScratch { undo, logged, logged_gen, inner, seeds, .. } = scratch;
        // A node can take a sweep-3 offer landing at `lvl` only if it
        // already holds a provider-class route no shorter than `lvl`.
        let provider = u32::from(route_class_code(RouteClass::Provider));
        let eligible = |t: &Table, x: NodeId, lvl: u32| {
            let cell = u32::from(t.cells[x as usize]);
            cell >> CLASS_SHIFT & 3 == provider && cell >> HOPS_SHIFT >= lvl
        };

        // Seeds: the sweep-3 deliveries the base solve did not make as well.
        seeds.clear();
        for &(v, old) in undo.iter() {
            let len = self.t.hops(v);
            if !self.t.routed(v) || len >= u32::from(old.cell >> HOPS_SHIFT) {
                continue;
            }
            let (xs, backs) = self.topo.down_offers(v);
            let provider_held = old.class() == Some(RouteClass::Provider);
            let from = if provider_held { 0 } else { self.topo.sibling_neighbors(v).len() };
            for (&x, &back) in xs[from..].iter().zip(&backs[from..]) {
                if !self.is_failed(v, x) && eligible(&self.t, x, len + 1) {
                    seeds.push((len, x, offer_key(self.topo, v, back)));
                }
            }
        }
        seeds.sort_unstable_by_key(|s| s.0);
        inner.routed.clear();

        let Some(&(mut lvl, _, _)) = seeds.first() else { return };
        let (mut at, mut frontier) = (0, 0..0);
        let mut sw = self.sweep(inner);
        loop {
            // The drain's offer, with an eligible (settled) target freed
            // for the step.
            sw.t.next_tag();
            sw.queued = 0;
            let offer = |sw: &mut Sweep<'_>, x: NodeId, k: u64| {
                if eligible(sw.t, x, lvl + 1) {
                    let m = &mut sw.t.mark[x as usize];
                    *m = if *m == SETTLED { 0 } else { *m };
                    sw.offer(x, k);
                }
            };
            for i in frontier.clone() {
                let u = sw.routed[i];
                let (topo, failed) = (sw.topo, sw.failed);
                let (ys, back) = topo.down_offers(u);
                for (&y, &b) in ys.iter().zip(back).filter(|&(&y, _)| !is_failed(failed, u, y)) {
                    offer(&mut sw, y, offer_key(topo, u, b));
                }
            }
            while let Some(&(_, x, k)) = seeds.get(at).filter(|s| s.0 == lvl) {
                offer(&mut sw, x, k);
                at += 1;
            }
            if sw.queued == 0 {
                let Some(&(next, _, _)) = seeds.get(at) else { return };
                (lvl, frontier) = (next, sw.routed.len()..sw.routed.len());
                continue;
            }
            lvl += 1;
            let start = sw.routed.len();
            for i in 0..sw.queued {
                let x = sw.pending[i];
                let held = sw.t.hops(x);
                sw.t.mark[x as usize] = SETTLED;
                // The lowest-ASN offerer (already folded into the key)
                // must also beat the incumbent route — which competes on
                // ASN when it has this exact length (the full run's level
                // would hold it too) and wins ties.
                let (asn, slot) = ((sw.key[x as usize] >> 32) as u32, sw.key[x as usize] as u16);
                if held == lvl && sw.topo.asn(sw.t.next(sw.topo, x)).0 <= asn {
                    continue;
                }
                if logged[x as usize] != *logged_gen {
                    logged[x as usize] = *logged_gen;
                    undo.push((x, sw.t.entry(x)));
                }
                sw.t.set(x, slot, lvl as u16, RouteClass::Provider);
                if held > lvl {
                    sw.routed.push(x);
                }
            }
            frontier = start..sw.routed.len();
        }
    }
}

/// The original heap-based solver, retained as the equivalence oracle for
/// the level-synchronous engine and the baseline `miro bench-solver` times.
pub mod reference {
    use super::{BestRoute, RoutingState, Table};
    use miro_topology::{NodeId, Rel, RouteClass, Topology};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Solve the stable state for destination `dest` with the heap engine.
    pub fn solve(topo: &Topology, dest: NodeId) -> RoutingState<'_> {
        solve_masked(topo, dest, None)
    }

    /// Heap-engine counterpart of [`RoutingState::solve_without_link`].
    pub fn solve_without_link(
        topo: &Topology,
        dest: NodeId,
        a: NodeId,
        b: NodeId,
    ) -> RoutingState<'_> {
        solve_masked(topo, dest, Some((a.min(b), a.max(b))))
    }

    fn solve_masked(
        topo: &Topology,
        dest: NodeId,
        banned: Option<(NodeId, NodeId)>,
    ) -> RoutingState<'_> {
        let n = topo.num_nodes();
        let mut best: Vec<Option<BestRoute>> = vec![None; n];
        best[dest as usize] =
            Some(BestRoute { class: RouteClass::Customer, len: 0, next: dest });

        // A sweep relaxes offers (len, next_asn, node, next) in order;
        // first assignment wins, implementing (shortest, lowest-ASN).
        type Offer = Reverse<(u16, u32, NodeId, NodeId)>;
        let mut heap: BinaryHeap<Offer> = BinaryHeap::new();

        // --- Sweep 1: customer-class routes -----------------------------
        let is_banned =
            move |x: NodeId, y: NodeId| banned == Some((x.min(y), x.max(y)));
        let offer_up = |heap: &mut BinaryHeap<Offer>,
                        topo: &Topology,
                        best: &[Option<BestRoute>],
                        u: NodeId| {
            let bu = best[u as usize].expect("offering node is routed");
            for &(v, rel) in topo.neighbors(u) {
                if (rel == Rel::Provider || rel == Rel::Sibling)
                    && best[v as usize].is_none()
                    && !is_banned(u, v)
                {
                    heap.push(Reverse((bu.len + 1, topo.asn(u).0, v, u)));
                }
            }
        };
        offer_up(&mut heap, topo, &best, dest);
        while let Some(Reverse((len, _asn, v, u))) = heap.pop() {
            if best[v as usize].is_some() {
                continue;
            }
            best[v as usize] = Some(BestRoute { class: RouteClass::Customer, len, next: u });
            offer_up(&mut heap, topo, &best, v);
        }

        // --- Sweep 2: peer-class routes ----------------------------------
        debug_assert!(heap.is_empty());
        let customer_routed: Vec<NodeId> = (0..n as NodeId)
            .filter(|&x| {
                matches!(best[x as usize], Some(b) if b.class == RouteClass::Customer)
            })
            .collect();
        for &p in &customer_routed {
            let bp = best[p as usize].expect("customer-routed");
            for &(v, rel) in topo.neighbors(p) {
                if rel == Rel::Peer && best[v as usize].is_none() && !is_banned(p, v) {
                    heap.push(Reverse((bp.len + 1, topo.asn(p).0, v, p)));
                }
            }
        }
        let offer_sib = |heap: &mut BinaryHeap<Offer>,
                         topo: &Topology,
                         best: &[Option<BestRoute>],
                         u: NodeId| {
            let bu = best[u as usize].expect("offering node is routed");
            for &(v, rel) in topo.neighbors(u) {
                if rel == Rel::Sibling && best[v as usize].is_none() && !is_banned(u, v) {
                    heap.push(Reverse((bu.len + 1, topo.asn(u).0, v, u)));
                }
            }
        };
        while let Some(Reverse((len, _asn, v, u))) = heap.pop() {
            if best[v as usize].is_some() {
                continue;
            }
            best[v as usize] = Some(BestRoute { class: RouteClass::Peer, len, next: u });
            offer_sib(&mut heap, topo, &best, v);
        }

        // --- Sweep 3: provider-class routes -------------------------------
        debug_assert!(heap.is_empty());
        for x in 0..n as NodeId {
            if best[x as usize].is_some() {
                let bx = best[x as usize].expect("routed");
                for &(v, rel) in topo.neighbors(x) {
                    if rel == Rel::Customer && best[v as usize].is_none() && !is_banned(x, v) {
                        heap.push(Reverse((bx.len + 1, topo.asn(x).0, v, x)));
                    }
                }
            }
        }
        let offer_down = |heap: &mut BinaryHeap<Offer>,
                          topo: &Topology,
                          best: &[Option<BestRoute>],
                          u: NodeId| {
            let bu = best[u as usize].expect("offering node is routed");
            for &(v, rel) in topo.neighbors(u) {
                if (rel == Rel::Customer || rel == Rel::Sibling)
                    && best[v as usize].is_none()
                    && !is_banned(u, v)
                {
                    heap.push(Reverse((bu.len + 1, topo.asn(u).0, v, u)));
                }
            }
        };
        while let Some(Reverse((len, _asn, v, u))) = heap.pop() {
            if best[v as usize].is_some() {
                continue;
            }
            best[v as usize] = Some(BestRoute { class: RouteClass::Provider, len, next: u });
            offer_down(&mut heap, topo, &best, v);
        }

        // Convert to cells: each next hop by its slot in the AS's list.
        let mut t = Table::default();
        t.reset(n);
        for (x, b) in best.into_iter().enumerate() {
            if let Some(b) = b {
                let slot = if b.len == 0 { 0 } else { topo.slot(x as NodeId, b.next).expect("a neighbour") };
                t.set(x as NodeId, slot, b.len, b.class);
            }
        }
        RoutingState { topo, dest, t, failed: banned.into_iter().collect() }
    }
}

/// Extract every AS's selected path toward every destination in `dests`,
/// as (source-first, destination-last) full paths *including* the source.
/// This is the "BGP table dump" used to feed the inference pipeline.
pub fn as_paths_to(topo: &Topology, dests: &[NodeId]) -> Vec<Vec<miro_topology::AsId>> {
    let mut out = Vec::new();
    let mut scratch = SolveScratch::new();
    for &d in dests {
        let st = RoutingState::solve_into(topo, d, &mut scratch);
        for x in topo.nodes() {
            if x == d {
                continue;
            }
            if let Some(p) = st.path(x) {
                let mut full = Vec::with_capacity(p.len() + 1);
                full.push(topo.asn(x));
                full.extend(p.iter().map(|&n| topo.asn(n)));
                out.push(full);
            }
        }
        st.recycle(&mut scratch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WhatIf;
    use miro_topology::gen::figure_1_1;
    use miro_topology::{AsId, GenParams, TopologyBuilder};

    #[test]
    fn figure_2_1_default_routes() {
        // The walk-through of Figure 2.1: F originates; C and E pick direct
        // customer routes; B picks BEF or BCF; A routes via B or D.
        let (t, [a, b, c, d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        assert_eq!(st.path(f), Some(vec![]));
        assert_eq!(st.path(c), Some(vec![f]));
        assert_eq!(st.path(e), Some(vec![f]));
        // B: customer route? F is not B's customer. B's candidates: via C
        // (peer, path CF) and via E (customer, path EF). E is B's customer,
        // so BEF is a customer route and wins — matching the paper's story
        // that B selects BEF.
        assert_eq!(st.path(b), Some(vec![e, f]));
        // D likewise selects DEF.
        assert_eq!(st.path(d), Some(vec![e, f]));
        // A is a customer of both B and D; both export; tie on class and
        // length; tie-break by lower AS number (B=AS2 < D=AS4).
        assert_eq!(st.path(a), Some(vec![b, e, f]));
        assert_eq!(st.reachable_count(), 6);
    }

    #[test]
    fn table_row_extraction_matches_best() {
        let t = GenParams::tiny(23).generate();
        let n = t.num_nodes();
        let d = t.nodes().nth(5).unwrap();
        // A masked solve so at least some ASes can be unrouted.
        let victim = t.nodes().find(|&v| v != d).unwrap();
        let hop = RoutingState::solve(&t, d).best(victim).unwrap().next;
        let st = RoutingState::solve_without_link(&t, d, victim, hop);
        let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
        st.write_table_row(&mut next, &mut hops, &mut class);
        for x in t.nodes() {
            match st.best(x) {
                Some(b) => {
                    assert_eq!(next[x as usize], b.next);
                    assert_eq!(hops[x as usize], b.len);
                    assert_eq!(class[x as usize], route_class_code(b.class));
                }
                None => {
                    assert_eq!(next[x as usize], UNROUTED_NEXT);
                    assert_eq!(hops[x as usize], UNROUTED_HOPS);
                    assert_eq!(class[x as usize], UNROUTED_CLASS);
                }
            }
        }
        assert_eq!(next[d as usize], d, "destination points at itself");
        assert_eq!(hops[d as usize], 0);
    }

    #[test]
    fn figure_2_1_candidate_sets() {
        let (t, [a, b, c, d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        // A learns candidates from both providers B and D.
        let cands = st.candidates(a);
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().any(|r| r.path == vec![b, e, f]));
        assert!(cands.iter().any(|r| r.path == vec![d, e, f]));
        // B learned BCF from its peer C (C's best is a customer route),
        // even though B selected BEF — the "hidden" alternate of Figure 1.1.
        let bc = st.candidates(b);
        assert!(bc.iter().any(|r| r.path == vec![c, f]));
        assert!(bc.iter().any(|r| r.path == vec![e, f]));
        let _ = d;
    }

    #[test]
    fn export_rules_suppress_peer_routes_to_peers() {
        // A - B peer, B - C peer, C originates. B's route to C is a
        // customer route? No: C is B's peer, so B's route has Peer class
        // and must not be exported to peer A.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3] {
            bld.add_as(AsId(n));
        }
        bld.peering(AsId(1), AsId(2));
        bld.peering(AsId(2), AsId(3));
        let t = bld.build().unwrap();
        let (a, b, c) = (
            t.node(AsId(1)).unwrap(),
            t.node(AsId(2)).unwrap(),
            t.node(AsId(3)).unwrap(),
        );
        let st = RoutingState::solve(&t, c);
        assert_eq!(st.path(b), Some(vec![c]));
        assert_eq!(st.path(a), None, "peer route must not be re-exported to a peer");
        assert_eq!(st.learned_from(a, b), None);
    }

    #[test]
    fn provider_routes_propagate_down() {
        // 9 - 1 peer; 9 originates; 1 gets peer route; 2 and 3 get provider
        // routes (everything is exportable to customers).
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3, 9] {
            bld.add_as(AsId(n));
        }
        bld.peering(AsId(9), AsId(1));
        bld.provider_customer(AsId(1), AsId(2));
        bld.provider_customer(AsId(2), AsId(3));
        let t = bld.build().unwrap();
        let (n1, n2, n3, n9) = (
            t.node(AsId(1)).unwrap(),
            t.node(AsId(2)).unwrap(),
            t.node(AsId(3)).unwrap(),
            t.node(AsId(9)).unwrap(),
        );
        let st = RoutingState::solve(&t, n9);
        assert_eq!(st.best(n1).unwrap().class, RouteClass::Peer);
        assert_eq!(st.best(n2).unwrap().class, RouteClass::Provider);
        assert_eq!(st.best(n3).unwrap().class, RouteClass::Provider);
        assert_eq!(st.path(n3), Some(vec![n2, n1, n9]));
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // x has: customer route of length 3, peer route of length 1.
        // Guideline A: the customer route wins despite being longer.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3, 4, 5] {
            bld.add_as(AsId(n));
        }
        // d=1. Chain: 2 provider-of 1, 3 provider-of 2, 4 provider-of 3.
        bld.provider_customer(AsId(2), AsId(1));
        bld.provider_customer(AsId(3), AsId(2));
        bld.provider_customer(AsId(4), AsId(3));
        // 5 also provides 1; 5 peers with 4.
        bld.provider_customer(AsId(5), AsId(1));
        bld.peering(AsId(4), AsId(5));
        let t = bld.build().unwrap();
        let d = t.node(AsId(1)).unwrap();
        let x = t.node(AsId(4)).unwrap();
        let st = RoutingState::solve(&t, d);
        let bx = st.best(x).unwrap();
        assert_eq!(bx.class, RouteClass::Customer);
        assert_eq!(bx.len, 3);
        // The shorter peer path is still in the candidate set.
        let cands = st.candidates(x);
        assert!(cands.iter().any(|r| r.class == RouteClass::Peer && r.len() == 2));
    }

    #[test]
    fn sibling_links_are_transparent_transit() {
        // d=1; 2 is 1's provider; 3 sibling of 2; 4 customer of 3.
        // 3 gets a customer-class route through its sibling; 4 gets a
        // provider route 3 hops long.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3, 4] {
            bld.add_as(AsId(n));
        }
        bld.provider_customer(AsId(2), AsId(1));
        bld.sibling(AsId(2), AsId(3));
        bld.provider_customer(AsId(3), AsId(4));
        let t = bld.build().unwrap();
        let d = t.node(AsId(1)).unwrap();
        let s = t.node(AsId(3)).unwrap();
        let c = t.node(AsId(4)).unwrap();
        let st = RoutingState::solve(&t, d);
        assert_eq!(st.best(s).unwrap().class, RouteClass::Customer);
        assert_eq!(st.best(c).unwrap().class, RouteClass::Provider);
        assert_eq!(st.path(c).unwrap().len(), 3);
    }

    #[test]
    fn peer_routes_cross_one_sibling_chain() {
        // d=1; 2 holds customer route (provides 1); 3 peers with 2;
        // 4 sibling of 3: 4's route class stays Peer through the sibling.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3, 4] {
            bld.add_as(AsId(n));
        }
        bld.provider_customer(AsId(2), AsId(1));
        bld.peering(AsId(2), AsId(3));
        bld.sibling(AsId(3), AsId(4));
        let t = bld.build().unwrap();
        let d = t.node(AsId(1)).unwrap();
        let n4 = t.node(AsId(4)).unwrap();
        let st = RoutingState::solve(&t, d);
        assert_eq!(st.best(n4).unwrap().class, RouteClass::Peer);
        assert_eq!(st.path(n4).unwrap().len(), 3);
    }

    #[test]
    fn unreachable_when_policy_blocks() {
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3] {
            bld.add_as(AsId(n));
        }
        bld.peering(AsId(1), AsId(2));
        let t = bld.build().unwrap();
        let d = t.node(AsId(1)).unwrap();
        let iso = t.node(AsId(3)).unwrap();
        let st = RoutingState::solve(&t, d);
        assert_eq!(st.path(iso), None);
        assert_eq!(st.best(iso), None);
        assert!(!st.path_traverses(iso, d));
    }

    #[test]
    fn all_selected_paths_are_valley_free() {
        let t = GenParams::tiny(21).generate();
        for d in t.nodes().step_by(7) {
            let st = RoutingState::solve(&t, d);
            for x in t.nodes() {
                if let Some(p) = st.path(x) {
                    let mut full = vec![x];
                    full.extend(&p);
                    assert!(
                        miro_topology::is_valley_free(&t, &full),
                        "selected path must be valley-free: {full:?} to {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_candidates_are_valley_free_and_loop_free() {
        let t = GenParams::tiny(22).generate();
        for d in t.nodes().step_by(11) {
            let st = RoutingState::solve(&t, d);
            for x in t.nodes() {
                for r in st.candidates(x) {
                    assert!(!r.traverses(x), "candidate must not loop through holder");
                    let mut full = vec![x];
                    full.extend(&r.path);
                    assert!(miro_topology::is_valley_free(&t, &full));
                    assert_eq!(*r.path.last().unwrap(), d);
                }
            }
        }
    }

    #[test]
    fn candidates_sorted_best_first() {
        let t = GenParams::tiny(23).generate();
        let d = t.nodes().next().unwrap();
        let st = RoutingState::solve(&t, d);
        for x in t.nodes() {
            let c = st.candidates(x);
            for w in c.windows(2) {
                assert_ne!(
                    crate::route::prefer(&t, &w[0], &w[1]),
                    std::cmp::Ordering::Greater
                );
            }
            // The selected route equals the top candidate (when any).
            if let (Some(top), Some(b)) = (c.first(), st.best(x)) {
                if x != d {
                    assert_eq!(top.class, b.class);
                    assert_eq!(top.len() as u16, b.len);
                }
            }
        }
    }

    #[test]
    fn connected_hierarchical_graph_is_fully_reachable() {
        let t = GenParams::tiny(24).generate();
        assert!(t.is_connected());
        for d in t.nodes().step_by(13) {
            let st = RoutingState::solve(&t, d);
            assert_eq!(
                st.reachable_count(),
                t.num_nodes(),
                "Gao-Rexford policies keep a connected hierarchy reachable"
            );
        }
    }

    #[test]
    fn as_path_extraction_includes_source() {
        let (t, [a, _b, _c, _d, _e, f]) = figure_1_1();
        let paths = as_paths_to(&t, &[f]);
        assert_eq!(paths.len(), 5);
        assert!(paths.iter().all(|p| *p.last().unwrap() == t.asn(f)));
        assert!(paths.iter().any(|p| p[0] == t.asn(a) && p.len() == 4));
    }

    #[test]
    fn kernel_matches_reference_on_generated_topologies() {
        // Exhaustive sweep on deterministic generated graphs, with one
        // scratch shared across every destination (exercises generation
        // stamping and arena reuse).
        for seed in [31, 32, 33] {
            let t = GenParams::tiny(seed).generate();
            let mut scratch = SolveScratch::new();
            for d in t.nodes() {
                let fast = RoutingState::solve_into(&t, d, &mut scratch);
                let slow = reference::solve(&t, d);
                for x in t.nodes() {
                    assert_eq!(fast.best(x), slow.best(x), "seed {seed} dest {d} node {x}");
                }
                fast.recycle(&mut scratch);
            }
        }
    }

    #[test]
    fn delta_reroutes_figure_2_1_after_tree_link_failure() {
        // Figure 2.1: A routes to F via B,E, so (B,E) is on the routing
        // tree. Failing it invalidates the subtree under B (B and A); E
        // keeps its direct customer route.
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, f), &mut delta);
        wi.without_link(b, e, |failed| {
            let full = RoutingState::solve_without_link(&t, f, b, e);
            assert!(failed.recomputed() >= 1);
            assert_eq!(failed.disconnected(), 0);
            assert_eq!(failed.failed_links(), full.failed_links());
            for x in t.nodes() {
                assert_eq!(failed.best(x), full.best(x), "node {x}");
            }
            // A now reaches F through D (B's path got longer, D wins ties
            // or B re-routes via its peer — either way paths agree).
            assert_eq!(failed.path(a), full.path(a));
            assert_eq!(failed.path(e), Some(vec![f]));
        });
        // The revert restored the base solve bit-for-bit.
        let fresh = RoutingState::solve(&t, f);
        for x in t.nodes() {
            assert_eq!(wi.base().best(x), fresh.best(x));
        }
        assert_eq!(wi.base().path(a), Some(vec![b, e, f]));
        assert!(wi.base().failed_links().is_empty());
    }

    #[test]
    fn delta_is_noop_for_links_off_the_routing_tree() {
        // (B,C) is a peering the base tree to F never uses: the delta must
        // recompute nothing, yet still suppress candidates over the dead
        // session exactly like the full masked solve.
        let (t, [_a, b, c, _d, _e, f]) = figure_1_1();
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, f), &mut delta);
        let base_candidates = wi.base().candidates(b);
        wi.without_link(b, c, |failed| {
            assert_eq!(failed.recomputed(), 0);
            let full = RoutingState::solve_without_link(&t, f, b, c);
            for x in t.nodes() {
                assert_eq!(failed.best(x), full.best(x));
                assert_eq!(failed.candidates(x), full.candidates(x));
            }
            assert_eq!(failed.candidates(b).len() + 1, base_candidates.len());
        });
        assert_eq!(wi.stats().skipped, 1);
        assert_eq!(wi.base().candidates(b), base_candidates, "the session is back up");
    }

    #[test]
    fn delta_cut_link_disconnects_the_subtree() {
        // Chain 3 -> 2 -> 1 (each provides the next): failing (1,2) cuts
        // both 2 and 3 off from destination 1.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3] {
            bld.add_as(AsId(n));
        }
        bld.provider_customer(AsId(2), AsId(1));
        bld.provider_customer(AsId(3), AsId(2));
        let t = bld.build().unwrap();
        let (n1, n2, n3) = (
            t.node(AsId(1)).unwrap(),
            t.node(AsId(2)).unwrap(),
            t.node(AsId(3)).unwrap(),
        );
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, n1), &mut delta);
        assert_eq!(wi.base().reachable_count(), 3);
        wi.without_link(n1, n2, |failed| {
            assert_eq!(failed.recomputed(), 2);
            assert_eq!(failed.disconnected(), 2);
            assert_eq!(failed.best(n2), None);
            assert_eq!(failed.best(n3), None);
            assert_eq!(failed.reachable_count(), 1);
        });
        assert_eq!(wi.base().reachable_count(), 3);
        assert_eq!(wi.base().path(n3), Some(vec![n2, n1]));
    }

    #[test]
    fn delta_matches_full_masked_solve_on_every_edge() {
        // Exhaustive deterministic sweep: every edge of a generated graph,
        // several destinations, one DeltaScratch shared throughout
        // (exercises allocation-free consecutive deltas against one base).
        let t = GenParams::tiny(31).generate();
        let mut scratch = SolveScratch::new();
        let mut full_scratch = SolveScratch::new();
        let mut delta = DeltaScratch::new();
        for d in t.nodes().step_by(9) {
            let mut wi = WhatIf::new(RoutingState::solve_into(&t, d, &mut scratch), &mut delta);
            for x in t.nodes() {
                for &(y, _) in t.neighbors(x) {
                    if x >= y {
                        continue; // each undirected edge once
                    }
                    let full =
                        RoutingState::solve_without_link_into(&t, d, x, y, &mut full_scratch);
                    wi.without_link(x, y, |failed| {
                        for v in t.nodes() {
                            assert_eq!(
                                failed.best(v),
                                full.best(v),
                                "dest {d} edge ({x},{y}) node {v}"
                            );
                        }
                    });
                    full.recycle(&mut full_scratch);
                }
            }
            wi.into_base().recycle(&mut scratch);
        }
    }

    /// A long-lived delta state runs out of level tags: the O(V) clear
    /// that restarts the counter must leave every answer exact.
    #[test]
    fn the_level_tag_wraps_without_leaking_a_pending_mark() {
        let t = GenParams::tiny(31).generate();
        let d = t.nodes().nth(3).unwrap();
        let mut base = RoutingState::solve(&t, d);
        base.t.tag = SETTLED - 4;
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(base, &mut delta);
        let route = |x: NodeId| Some((x, wi.base().best(x)?.next));
        let tree: Vec<(NodeId, NodeId)> = t.nodes().filter(|&x| x != d).filter_map(route).collect();
        for &(x, y) in tree.iter().take(12) {
            let full = RoutingState::solve_without_link(&t, d, x, y);
            wi.without_link(x, y, |failed| {
                for v in t.nodes() {
                    assert_eq!(failed.best(v), full.best(v), "link ({x},{y}) node {v}");
                }
            });
        }
        assert!(wi.base().t.tag < 1000, "the counter wrapped");
    }

    #[test]
    #[should_panic(expected = "unmasked base")]
    fn delta_rejects_masked_base() {
        let (t, [_a, b, _c, _d, e, f]) = figure_1_1();
        let mut delta = DeltaScratch::new();
        let _ = WhatIf::new(RoutingState::solve_without_link(&t, f, b, e), &mut delta);
    }

    #[test]
    fn delta_ignores_links_that_cannot_exist() {
        // A self-loop or an endpoint that is no node of the topology
        // fails nothing: the closure sees the base, counted as skipped.
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let n = t.num_nodes() as NodeId;
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, f), &mut delta);
        for (x, y) in [(e, e), (9999, 10000), (b, n), (n, b)] {
            wi.without_link(x, y, |failed| {
                assert_eq!((failed.recomputed(), failed.disconnected()), (0, 0));
                assert!(failed.failed_links().is_empty());
                assert_eq!(failed.path(a), Some(vec![b, e, f]));
            });
        }
        assert_eq!((wi.stats().what_ifs, wi.stats().skipped), (4, 4));
    }

    /// A hand-drawn topology from `(provider, customer)`, peer and
    /// sibling pairs, by ASN.
    fn drawn(pc: &[(u32, u32)], peers: &[(u32, u32)], sibs: &[(u32, u32)]) -> Topology {
        let mut b = TopologyBuilder::new();
        for &(x, y) in pc.iter().chain(peers).chain(sibs) {
            b.intern_as(AsId(x));
            b.intern_as(AsId(y));
        }
        for &(p, c) in pc {
            b.provider_customer(AsId(p), AsId(c));
        }
        for &(x, y) in peers {
            b.peering(AsId(x), AsId(y));
        }
        for &(x, y) in sibs {
            b.sibling(AsId(x), AsId(y));
        }
        b.build().unwrap()
    }

    fn route(st: &RoutingState<'_>, asn: u32) -> Option<(RouteClass, u16, u32)> {
        let t = st.topology();
        st.best(t.node(AsId(asn)).unwrap()).map(|b| (b.class, b.len, t.asn(b.next).0))
    }

    fn assert_is_reference(st: &RoutingState<'_>, slow: &RoutingState<'_>) {
        for x in st.topology().nodes() {
            assert_eq!(st.best(x), slow.best(x), "node {x}");
        }
    }

    #[test]
    fn a_sink_destination_routes_its_providers_and_peers() {
        use RouteClass::*;
        // 1 provides 2, 3 and 4; 2 peers with 3. Destination 2 is a sink.
        let t = drawn(&[(1, 2), (1, 3), (1, 4)], &[(2, 3)], &[]);
        let n = |asn: u32| t.node(AsId(asn)).unwrap();
        assert_eq!(t.sinks(), &[n(2), n(3), n(4)]);
        let st = RoutingState::solve(&t, n(2));
        assert_eq!(route(&st, 1), Some((Customer, 1, 2)));
        assert_eq!(route(&st, 3), Some((Peer, 1, 2)), "a peer route outranks the sink pass");
        assert_eq!(route(&st, 4), Some((Provider, 2, 1)), "settled by the sink pass");
        assert_is_reference(&st, &reference::solve(&t, n(2)));
    }

    #[test]
    fn a_sink_whose_only_provider_link_failed_stays_unrouted() {
        use RouteClass::*;
        // 1 provides 2, 3 and 5; 5 provides 3. Sinks 2 and 3.
        let t = drawn(&[(1, 2), (1, 3), (1, 5), (5, 3)], &[], &[]);
        let n = |asn: u32| t.node(AsId(asn)).unwrap();
        let st = RoutingState::solve_without_link(&t, n(1), n(1), n(2));
        assert_eq!(route(&st, 2), None);
        assert_is_reference(&st, &reference::solve_without_link(&t, n(1), n(1), n(2)));
        // With one of two provider links down, the other one serves.
        let st = RoutingState::solve_without_link(&t, n(1), n(3), n(1));
        assert_eq!(route(&st, 3), Some((Provider, 2, 5)));
        assert_is_reference(&st, &reference::solve_without_link(&t, n(1), n(1), n(3)));
    }

    #[test]
    fn a_stub_with_a_sibling_is_not_a_sink() {
        use RouteClass::*;
        // 1 provides 2; 2 and 3 are siblings; 3 has no customers.
        let t = drawn(&[(1, 2)], &[], &[(2, 3)]);
        let n = |asn: u32| t.node(AsId(asn)).unwrap();
        assert!(t.is_stub(n(3)) && !t.sinks().contains(&n(3)));
        assert_eq!(t.transit_down_offers(n(1)).0, &[n(2)]);
        let st = RoutingState::solve(&t, n(1));
        assert_eq!(route(&st, 3), Some((Provider, 2, 2)), "the route crosses the sibling link");
        assert_is_reference(&st, &reference::solve(&t, n(1)));
    }

    /// A provider route that a failure shortens must reach the sibling of
    /// the AS that holds it, though that AS held provider class before.
    #[test]
    fn the_improvement_wave_crosses_a_sibling_link() {
        use RouteClass::*;
        // Destination 1: 2 and 3 climb above it; 4 peers with 3 (peer@3)
        // and buys transit from 1; 5 is 4's customer and 6's sibling; 6
        // also hangs three provider hops below 1 through 7, 8, 9.
        let pc = [(2, 1), (3, 2), (1, 4), (4, 5), (1, 7), (7, 8), (8, 9), (9, 6)];
        let t = drawn(&pc, &[(4, 3)], &[(5, 6)]);
        let n = |asn: u32| t.node(AsId(asn)).unwrap();
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, n(1)), &mut delta);
        assert_eq!(route(wi.base(), 4), Some((Peer, 3, 3)));
        assert_eq!(route(wi.base(), 5), Some((Provider, 4, 4)));
        assert_eq!(route(wi.base(), 6), Some((Provider, 4, 9)));
        wi.without_link(n(4), n(3), |failed| {
            // 4 falls back to provider@1, so 5 gets provider@2, which 6,
            // outside the cone, takes over its sibling link.
            assert_eq!(route(failed, 5), Some((Provider, 2, 4)));
            assert_eq!(route(failed, 6), Some((Provider, 3, 5)));
            assert_eq!(failed.recomputed(), 3);
            assert_is_reference(failed, &reference::solve_without_link(&t, n(1), n(4), n(3)));
        });
    }

    #[test]
    fn scratch_survives_topology_size_change() {
        let small = GenParams::tiny(41).generate();
        let big = GenParams::tiny(42).generate();
        let mut scratch = SolveScratch::new();
        for t in [&small, &big, &small] {
            let d = t.nodes().next().unwrap();
            let fast = RoutingState::solve_into(t, d, &mut scratch);
            let slow = reference::solve(t, d);
            for x in t.nodes() {
                assert_eq!(fast.best(x), slow.best(x));
            }
            fast.recycle(&mut scratch);
        }
    }
}

/// Property-based equivalence: the level-synchronous kernel must be
/// bit-for-bit identical to the retained heap reference on arbitrary
/// relationship-annotated graphs, including masked (failed-link) solves
/// and the full learned-candidates surface.
#[cfg(test)]
mod equivalence {
    use super::*;
    use miro_topology::{AsId, Rel, TopologyBuilder};
    use proptest::prelude::*;

    const N: u32 = 24;

    fn build(edges: Vec<(u32, u32, u8)>) -> Topology {
        let mut b = TopologyBuilder::new();
        for n in 0..N {
            b.intern_as(AsId(100 + n));
        }
        let mut seen = std::collections::HashSet::new();
        for (x, y, r) in edges {
            if x == y || !seen.insert((x.min(y), x.max(y))) {
                continue;
            }
            let rel = match r {
                0 => Rel::Customer,
                1 => Rel::Provider,
                2 => Rel::Peer,
                _ => Rel::Sibling,
            };
            b.link(AsId(100 + x), AsId(100 + y), rel);
        }
        b.build().expect("constructed edges are consistent")
    }

    /// Hierarchy-biased edge lists: six core nodes linked at random, each
    /// other node buying transit from one or two of them, with an
    /// occasional peering or sibling link off a stub — so most nodes are
    /// sinks (no customers, no siblings), as in the AS graph.
    fn hierarchical() -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
        let core = proptest::collection::vec((0u32..6, 0u32..6, 0u8..4), 0..12);
        let stubs = proptest::collection::vec((6u32..N, 0u32..6, 0u8..16), 12..40);
        (core, stubs).prop_map(|(mut edges, stubs)| {
            edges.extend(stubs.into_iter().map(|(x, p, r)| match r {
                0 => (x, (x + p + 1) % N, 2),
                1 => (x, (x + p + 1) % N, 3),
                _ => (x, p, 1),
            }));
            edges
        })
    }

    /// Flat random graphs (few sinks) and hierarchical ones (mostly sinks).
    fn graphs() -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
        prop_oneof![proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90), hierarchical()]
    }

    #[test]
    fn the_hierarchical_generator_is_mostly_sinks() {
        let mut rng = proptest::test_rng("sink share");
        let (mut sinks, mut nodes) = (0, 0);
        for _ in 0..200 {
            let t = build(hierarchical().new_value(&mut rng));
            (sinks, nodes) = (sinks + t.sinks().len(), nodes + t.num_nodes());
        }
        let share = sinks as f64 / nodes as f64;
        assert!((0.6..0.8).contains(&share), "sink share {share}");
    }

    fn assert_identical(fast: &RoutingState<'_>, slow: &RoutingState<'_>) {
        for x in fast.topology().nodes() {
            assert_eq!(fast.best(x), slow.best(x), "best diverged at node {x}");
            assert_eq!(
                fast.candidates(x),
                slow.candidates(x),
                "candidates diverged at node {x}"
            );
        }
    }

    proptest! {
        // 128 full-table cases + the masked sub-case comfortably clears
        // the "≥100 random topologies" equivalence bar.
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Identical best tables and candidate sets on arbitrary graphs.
        #[test]
        fn kernel_matches_heap(
            edges in graphs(),
            dest_raw in 0u32..N,
            mask in (0u32..N, 0u32..N),
        ) {
            let t = build(edges);
            let dest = dest_raw % t.num_nodes() as u32;
            let fast = RoutingState::solve(&t, dest);
            let slow = reference::solve(&t, dest);
            assert_identical(&fast, &slow);

            // Masked solves (failed link) must agree too — the mask may or
            // may not name a real edge; both engines treat it uniformly.
            let (a, b) = mask;
            if a != b {
                let fast = RoutingState::solve_without_link(&t, dest, a, b);
                let slow = reference::solve_without_link(&t, dest, a, b);
                assert_identical(&fast, &slow);
            }
        }

        /// The incremental delta re-solve is bit-for-bit identical to the
        /// heap oracle *and* to the full masked kernel solve, on arbitrary
        /// graphs and arbitrary failed links — including cut links that
        /// disconnect the destination and links absent from the base
        /// routing tree (which must be recompute-free no-ops). Consecutive
        /// deltas share one base and one scratch; every revert must
        /// restore the base solve exactly.
        #[test]
        fn delta_matches_oracle_and_full_masked_solve(
            edges in graphs(),
            dest_raw in 0u32..N,
            links in proptest::collection::vec((0u32..N, 0u32..N), 1..6),
        ) {
            let t = build(edges);
            let dest = dest_raw % t.num_nodes() as u32;
            let mut scratch = SolveScratch::new();
            let mut delta = DeltaScratch::new();
            let base = RoutingState::solve_into(&t, dest, &mut scratch);
            let mut wi = crate::engine::WhatIf::new(base, &mut delta);
            for (a, b) in links {
                if a == b {
                    continue;
                }
                let on_tree = wi.base().best(a).is_some_and(|r| r.next == b)
                    || wi.base().best(b).is_some_and(|r| r.next == a);
                let recomputed = wi.without_link(a, b, |failed| {
                    let full = RoutingState::solve_without_link(&t, dest, a, b);
                    let slow = reference::solve_without_link(&t, dest, a, b);
                    assert_identical(failed, &full);
                    assert_identical(failed, &slow);
                    failed.recomputed()
                });
                prop_assert_eq!(recomputed == 0, !on_tree);
                // The revert restored the base bit-for-bit.
                let fresh = RoutingState::solve(&t, dest);
                assert_identical(wi.base(), &fresh);
            }
        }

        /// Reusing one scratch across consecutive solves never leaks state
        /// between destinations.
        #[test]
        fn scratch_reuse_is_stateless(
            edges in graphs(),
            dests in proptest::collection::vec(0u32..N, 1..6),
        ) {
            let t = build(edges);
            let mut scratch = SolveScratch::new();
            for d_raw in dests {
                let d = d_raw % t.num_nodes() as u32;
                let reused = RoutingState::solve_into(&t, d, &mut scratch);
                let fresh = RoutingState::solve(&t, d);
                assert_identical(&reused, &fresh);
                reused.recycle(&mut scratch);
            }
        }
    }
}
