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
//! The sweeps are run with an integer **bucket queue** (Dial's algorithm)
//! keyed by hop count rather than a binary heap: every offer generated
//! while settling hop level `L` lands at level `L+1`, so levels can be
//! processed strictly in order and each sweep is O(V + E) instead of
//! O(E log E). Within one level, the heap's `(len, asn, node, next)`
//! ordering reduces to "the offer with the lowest next-hop AS number wins"
//! — the bucket engine is bit-for-bit equivalent to the heap
//! (property-tested against the retained [`mod@reference`] implementation
//! below).
//!
//! The frontier is **packed**: a bucket holds one `u32` node id per
//! pending node, not one `(to, from)` pair per edge-offer. The winning
//! offerer is folded eagerly into a per-node slot table ([`Slot`]: level
//! tag, best offerer ASN, next hop, generation stamp — 16 bytes) at
//! offer-generation time, so a node a dozen neighbors race for costs one
//! bucket entry instead of twelve, the offerer's ASN is read once per
//! settled node instead of once per offer, and settling a bucket is a
//! single pass (the two-pass lowest-ASN scan disappears — the slot
//! already holds the winner). Co-locating the stamp with the pending
//! offer means the hot loop's per-neighbor probe ("settled? fold the
//! offer.") touches exactly one cache line per node, not two arrays.
//!
//! All per-solve state lives in a reusable [`SolveScratch`] arena:
//! assignment is generation-stamped, so starting the next destination is
//! O(1) rather than an O(V) clear, and the bucket storage keeps its
//! capacity across solves. Whole-network solves reuse one scratch per
//! worker thread via [`RoutingState::solve_into`] /
//! [`RoutingState::recycle`] and allocate nothing in the steady state;
//! [`SolveScratch::for_nodes`] presizes the arena so even the first
//! solve of a pooled worker thread allocates nothing.
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

use crate::route::{CandidateRoute, ExportScope};
use miro_topology::{NodeId, Rel, RouteClass, Topology};

pub mod multi;

/// The route an AS selected: class, hop count, and next-hop AS.
/// The full path is recovered by chasing next hops (paths are ~4 hops, so
/// this is cheap and keeps the per-destination state at 16 bytes per AS).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BestRoute {
    /// Business class (determines local preference and export scope).
    pub class: RouteClass,
    /// AS hops to the destination (0 for the destination itself).
    pub len: u16,
    /// Next-hop AS (the destination points at itself).
    pub next: NodeId,
}

/// Placeholder stored in unassigned `best` slots (never observable: reads
/// go through the generation stamp).
const UNROUTED: BestRoute = BestRoute { class: RouteClass::Customer, len: 0, next: 0 };

/// Next-hop sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_NEXT: u32 = u32::MAX;
/// Hop-count sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_HOPS: u16 = u16::MAX;
/// Class-code sentinel for an unrouted AS in an extracted route-table row.
pub const UNROUTED_CLASS: u8 = 0xFF;

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

/// Bits of a [`Slot`] tag reserved for the hop level. [`BestRoute::len`]
/// is a `u16`, so 16 bits cover every representable hop count; the
/// remaining 16 bits count sweep rounds, with an O(V) tag clear when the
/// round counter wraps (every ~65k sweeps — see [`next_round`]).
const LVL_BITS: u32 = 16;
const LVL_MASK: u32 = (1 << LVL_BITS) - 1;
const MAX_ROUND: u32 = u32::MAX >> LVL_BITS;

/// Per-node solver slot: the pending offer *and* the generation stamp,
/// co-located so the hot loop's per-neighbor probe is one cache line.
///
/// `tag` is `(round << LVL_BITS) | level`: a pending offer is live for
/// the current sweep iff `tag >> LVL_BITS` equals the sweep's round, and
/// the level part says which bucket holds the node. `asn`/`next` are the
/// lowest-ASN offerer seen so far at that level — the tie-break winner is
/// folded here at offer time, so a bucket stores each pending node once
/// and settling needs no second pass. `stamp` marks the node settled for
/// the owning state's generation (`best[x]` is assigned iff
/// `slots[x].stamp == gen`).
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    asn: u32,
    next: NodeId,
    stamp: u32,
}

/// Empty slot: round 0 never runs (rounds are pre-incremented), so a
/// zero tag can never match a live sweep; stamp 0 never matches a live
/// generation (generations are pre-incremented too).
const SLOT_EMPTY: Slot = Slot { tag: 0, asn: 0, next: 0, stamp: 0 };

/// A pending `u -> v` route candidate, pre-tagged by the offerer.
#[derive(Clone, Copy)]
struct Offer {
    tag: u32,
    asn: u32,
    next: NodeId,
}

/// Open the next sweep round: every live offer tag from earlier rounds
/// goes stale at once. When the 16-bit round counter would wrap, pay one
/// O(V) tag clear so a stale tag can never alias a future round.
#[inline]
fn next_round(round: &mut u32, slots: &mut [Slot]) -> u32 {
    *round += 1;
    if *round > MAX_ROUND {
        for s in slots.iter_mut() {
            s.tag = 0;
        }
        *round = 1;
    }
    *round
}

/// Open the next generation over `slots`: every assignment stamped under
/// an earlier one reads as unrouted at once. On `u32` wrap (after ~4e9
/// solves over one slot table) pay one O(V) stamp clear.
#[inline]
fn next_gen(gen: u32, slots: &mut [Slot]) -> u32 {
    let gen = gen.wrapping_add(1);
    if gen != 0 {
        return gen;
    }
    for s in slots.iter_mut() {
        s.stamp = 0;
    }
    1
}

/// Fold `offer` (a pre-tagged `u -> v` candidate) into `v`'s slot,
/// pushing `v` onto the frontier on first touch (per level). The caller
/// builds `offer.tag` once per offerer, so the level comparisons here
/// are plain tag comparisons: within one round a numerically larger tag
/// is a *worse* (deeper) level and is dropped (v settles sooner anyway);
/// an equal tag means the same level, where the lowest-ASN offerer wins;
/// a smaller tag is a *better* level — the slot is retagged and `v` is
/// pushed again, and the stale entry in the deeper bucket is skipped at
/// settle time.
#[inline]
fn push_offer(slots: &mut [Slot], buckets: &mut Vec<Vec<NodeId>>, live: &mut usize, v: NodeId, offer: Offer) {
    let vi = v as usize;
    let have = slots[vi].tag;
    if have >> LVL_BITS == offer.tag >> LVL_BITS {
        if offer.tag > have {
            return;
        }
        if offer.tag == have {
            if offer.asn < slots[vi].asn {
                slots[vi].asn = offer.asn;
                slots[vi].next = offer.next;
            }
            return;
        }
    }
    slots[vi].tag = offer.tag;
    slots[vi].asn = offer.asn;
    slots[vi].next = offer.next;
    let lvl = (offer.tag & LVL_MASK) as usize;
    if buckets.len() <= lvl {
        buckets.resize_with(lvl + 1, Vec::new);
    }
    buckets[lvl].push(v);
    *live += 1;
}

/// Reusable per-thread solve arena.
///
/// Holds the routing table, the per-node slot table (stamps + pending
/// offers), and the packed bucket queue. A scratch can be reused across
/// any sequence of solves (it resizes itself when the topology changes);
/// reuse via [`RoutingState::solve_into`] + [`RoutingState::recycle`]
/// makes the steady-state cost of a solve allocation-free and skips the
/// O(V) routing-table clear between destinations.
pub struct SolveScratch {
    best: Vec<BestRoute>,
    /// Per-node stamp + pending offer (see [`Slot`]).
    slots: Vec<Slot>,
    gen: u32,
    /// Nodes in assignment order: dest, then sweep-1, -2, -3 winners.
    routed: Vec<NodeId>,
    /// Packed bucket queue: `buckets[len]` holds each node with a live
    /// pending offer at hop `len` (once — the winner lives in its slot).
    buckets: Vec<Vec<NodeId>>,
    /// Sweep counter: bumped once per sweep so stale offer tags die
    /// without a clear. Travels with `slots` into the [`RoutingState`]
    /// (delta re-solves keep bumping it there) and is folded back by
    /// [`RoutingState::recycle`], so it never falls behind a tag in the
    /// slot table it is used with.
    round: u32,
}

impl SolveScratch {
    pub fn new() -> SolveScratch {
        SolveScratch {
            best: Vec::new(),
            slots: Vec::new(),
            gen: 0,
            routed: Vec::new(),
            buckets: Vec::new(),
            round: 0,
        }
    }

    /// Presized arena for an `n`-node topology: the first solve through
    /// this scratch already allocates nothing. Pooled whole-table workers
    /// build their per-thread scratches this way.
    pub fn for_nodes(n: usize) -> SolveScratch {
        let mut s = SolveScratch::new();
        s.best.resize(n, UNROUTED);
        s.slots.resize(n, SLOT_EMPTY);
        s
    }

    /// Resize to topology size `n` and open a fresh generation.
    fn begin(&mut self, n: usize) {
        if self.slots.len() != n {
            self.best.clear();
            self.best.resize(n, UNROUTED);
            self.slots.clear();
            self.slots.resize(n, SLOT_EMPTY);
            self.gen = 0;
        }
        self.gen = next_gen(self.gen, &mut self.slots);
    }
}

/// Scratch arena for the delta engine ([`crate::engine::WhatIf`],
/// [`multi::MultiFailState::apply`]).
///
/// Layers on [`SolveScratch`]: the inner scratch provides the bucket
/// queue and routed-order arena (delta sweeps run against the table and
/// slot table owned by the state — the inner scratch's own stay empty),
/// and the change log records every retired or improved node's previous
/// assignment. After a `fail` that log is an undo log (`revert` replays
/// it in O(cone)); a restoration round reads it as the changed set.
/// Consecutive deltas reuse all storage and allocate nothing in the
/// steady state; one scratch serves any number of states, so the
/// per-node column is paid once.
pub struct DeltaScratch {
    /// `(node, previous assignment)` for every changed node: the cone in
    /// BFS order, then any downstream nodes the improvement wave reached.
    undo: Vec<(NodeId, BestRoute)>,
    /// `logged[v] == logged_gen` iff `v` is already in the undo log.
    logged: Vec<u32>,
    logged_gen: u32,
    inner: SolveScratch,
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
            roots: Vec::new(),
            finals: Vec::new(),
            net_downs: Vec::new(),
            net_ups: Vec::new(),
        }
    }

    /// Presized arena for an `n`-node topology (see
    /// [`SolveScratch::for_nodes`]). Delta sweeps borrow the slot table
    /// from the state, so only the log-dedup column needs sizing.
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
    fn log(&mut self, v: NodeId, old: BestRoute) {
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

impl Default for SolveScratch {
    fn default() -> SolveScratch {
        SolveScratch::new()
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

/// Which CSR partition a sweep propagates over (see
/// [`Topology::up_neighbors`] and friends).
#[derive(Clone, Copy)]
enum Edges {
    /// Providers + siblings: the customer-sweep climb.
    Up,
    /// Siblings only: peer-class propagation.
    Sibling,
    /// Siblings + customers: the provider-sweep descent.
    Down,
    /// Peers only (seeding sweep 2).
    Peer,
    /// Customers only (seeding sweep 3).
    Customer,
}

impl Edges {
    #[inline]
    fn slice(self, topo: &Topology, u: NodeId) -> &[NodeId] {
        match self {
            Edges::Up => topo.up_neighbors(u),
            Edges::Sibling => topo.sibling_neighbors(u),
            Edges::Down => topo.down_neighbors(u),
            Edges::Peer => topo.peer_neighbors(u),
            Edges::Customer => topo.customer_neighbors(u),
        }
    }
}

/// One in-flight run of sweeps: a state's table and a scratch's queue,
/// borrowed disjointly (built only by [`RoutingState::sweep`]).
struct Sweep<'a> {
    topo: &'a Topology,
    failed: &'a [(NodeId, NodeId)],
    gen: u32,
    best: &'a mut [BestRoute],
    slots: &'a mut [Slot],
    routed: &'a mut Vec<NodeId>,
    buckets: &'a mut Vec<Vec<NodeId>>,
    live: usize,
    round: &'a mut u32,
}

impl Sweep<'_> {
    /// Open a fresh round: every live offer tag from earlier sweeps (or
    /// earlier solves sharing this slot table) goes stale at once.
    fn new_round(&mut self) {
        next_round(self.round, self.slots);
    }

    /// Offer `u`'s route (extended by one hop) to its `edges` neighbors
    /// that are still unrouted. The offerer's ASN is read once here, not
    /// once per offer at settle time; with no link failed (every
    /// whole-table solve) the inner loop skips the failed test entirely.
    fn offer_from(&mut self, u: NodeId, edges: Edges) {
        let lvl = self.best[u as usize].len as usize + 1;
        debug_assert!(lvl <= LVL_MASK as usize, "hop level exceeds the 16-bit tag field");
        let offer = Offer {
            tag: (*self.round << LVL_BITS) | lvl as u32,
            asn: self.topo.asn(u).0,
            next: u,
        };
        let neigh = edges.slice(self.topo, u);
        if self.failed.is_empty() {
            for &v in neigh {
                if self.slots[v as usize].stamp != self.gen {
                    push_offer(self.slots, self.buckets, &mut self.live, v, offer);
                }
            }
        } else {
            for &v in neigh {
                if self.slots[v as usize].stamp != self.gen && !is_failed(self.failed, u, v) {
                    push_offer(self.slots, self.buckets, &mut self.live, v, offer);
                }
            }
        }
    }

    /// Inject the boundary offers of one delta sweep: for every cone node
    /// `v` still unrouted, every settled neighbor `u` whose
    /// (relationship-of-`u`-to-`v`, class) passes `from` offers its route,
    /// at the same hop level `offer_from` would have used. Settled cone
    /// nodes re-routed by an earlier delta sweep participate with their
    /// updated assignment, matching what the full run would deliver.
    fn seed(&mut self, cone: &[(NodeId, BestRoute)], from: impl Fn(Rel, BestRoute) -> bool) {
        for &(v, _) in cone {
            if self.slots[v as usize].stamp == self.gen {
                continue; // re-settled by an earlier delta sweep
            }
            for &(u, rel) in self.topo.neighbors(v) {
                if self.slots[u as usize].stamp == self.gen
                    && from(rel, self.best[u as usize])
                    && !is_failed(self.failed, u, v)
                {
                    let lvl = self.best[u as usize].len as usize + 1;
                    let offer = Offer {
                        tag: (*self.round << LVL_BITS) | lvl as u32,
                        asn: self.topo.asn(u).0,
                        next: u,
                    };
                    push_offer(self.slots, self.buckets, &mut self.live, v, offer);
                }
            }
        }
    }

    /// Settle the frontier in hop order, assigning `class` and
    /// propagating over `edges`. Equivalent to popping a heap ordered by
    /// `(len, asn(next), node, next)`: buckets are settled in level order
    /// (offers from level `L` only ever land at `L+1`), and the winner
    /// for a node — its lowest-ASN offerer at its best pending level —
    /// was already folded into the node's slot at offer time, so settling
    /// is a single pass over each bucket.
    fn drain(&mut self, class: RouteClass, edges: Edges) {
        let round = *self.round;
        let mut lvl = 1;
        while self.live > 0 {
            debug_assert!(lvl < self.buckets.len(), "live offers beyond last bucket");
            if self.buckets[lvl].is_empty() {
                lvl += 1;
                continue;
            }
            let mut bucket = std::mem::take(&mut self.buckets[lvl]);
            self.live -= bucket.len();
            for &v in &bucket {
                let vi = v as usize;
                if self.slots[vi].stamp == self.gen {
                    continue; // settled at a shorter length (retagged entry)
                }
                debug_assert_eq!(
                    self.slots[vi].tag,
                    (round << LVL_BITS) | lvl as u32,
                    "frontier entry must carry a live tag for its bucket"
                );
                self.slots[vi].stamp = self.gen;
                self.best[vi] = BestRoute { class, len: lvl as u16, next: self.slots[vi].next };
                self.routed.push(v);
                self.offer_from(v, edges);
            }
            bucket.clear();
            self.buckets[lvl] = bucket; // return storage to the arena
            lvl += 1;
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
    best: Vec<BestRoute>,
    /// `best[x]` is assigned iff `slots[x].stamp == gen`.
    slots: Vec<Slot>,
    gen: u32,
    /// Sweep-round counter paired with `slots` (delta re-solves keep
    /// bumping it); folded back into the scratch by
    /// [`RoutingState::recycle`].
    round: u32,
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
        scratch.best = self.best;
        scratch.slots = self.slots;
        // The counters travel with the slot table: in-place re-solves
        // and delta sweeps bump the state's past the scratch's, and no
        // stamp or live tag may outrun the counter it is next used with.
        scratch.gen = self.gen;
        scratch.round = scratch.round.max(self.round);
    }

    /// The three-sweep solve without the (sorted, normalized) `failed`
    /// links, taking the table storage out of `scratch`.
    fn solve_core(
        topo: &'t Topology,
        dest: NodeId,
        failed: Vec<(NodeId, NodeId)>,
        scratch: &mut SolveScratch,
    ) -> RoutingState<'t> {
        scratch.begin(topo.num_nodes());
        let mut st = RoutingState {
            topo,
            dest,
            best: std::mem::take(&mut scratch.best),
            slots: std::mem::take(&mut scratch.slots),
            gen: scratch.gen,
            round: scratch.round,
            failed,
        };
        st.run_sweeps(scratch);
        st
    }

    /// Borrow the table and `q`'s queue as one in-flight [`Sweep`].
    fn sweep<'a>(&'a mut self, q: &'a mut SolveScratch) -> Sweep<'a> {
        Sweep {
            topo: self.topo,
            failed: &self.failed,
            gen: self.gen,
            best: &mut self.best,
            slots: &mut self.slots,
            routed: &mut q.routed,
            buckets: &mut q.buckets,
            live: 0,
            round: &mut self.round,
        }
    }

    /// Fill a table in which no node is assigned under `self.gen`: the
    /// full solve without the currently failed links.
    fn run_sweeps(&mut self, q: &mut SolveScratch) {
        let dest = self.dest;
        self.best[dest as usize] = BestRoute { class: RouteClass::Customer, len: 0, next: dest };
        self.slots[dest as usize].stamp = self.gen;
        q.routed.clear();
        q.routed.push(dest);
        let mut sw = self.sweep(q);

        // --- Sweep 1: customer-class routes -----------------------------
        // Climb provider and sibling links from the destination.
        sw.new_round();
        sw.offer_from(dest, Edges::Up);
        sw.drain(RouteClass::Customer, Edges::Up);
        let customer_routed = sw.routed.len();

        // --- Sweep 2: peer-class routes ---------------------------------
        // Seed: one peer hop off a customer-routed AS (peers export only
        // customer routes), then propagate along sibling links.
        debug_assert_eq!(sw.live, 0);
        sw.new_round();
        for i in 0..customer_routed {
            let p = sw.routed[i];
            sw.offer_from(p, Edges::Peer);
        }
        sw.drain(RouteClass::Peer, Edges::Sibling);
        let routed = sw.routed.len();

        // --- Sweep 3: provider-class routes -----------------------------
        // Seed: every routed AS offers its route to its customers
        // (everything is exportable to customers); then propagate down
        // customer links and across sibling links among the unrouted.
        debug_assert_eq!(sw.live, 0);
        sw.new_round();
        for i in 0..routed {
            let x = sw.routed[i];
            sw.offer_from(x, Edges::Customer);
        }
        sw.drain(RouteClass::Provider, Edges::Down);
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
        (self.slots[x as usize].stamp == self.gen).then(|| self.best[x as usize])
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
        self.slots.iter().filter(|s| s.stamp == self.gen).count()
    }

    /// Extract this solve as one route-table row: for every AS `x`, its
    /// next hop, business class code ([`route_class_code`]), and AS-hop
    /// count toward the destination. Unrouted ASes get the `UNROUTED_*`
    /// sentinels. The three slices must each hold `num_nodes` entries;
    /// sharded whole-table solves (`miro shard-solve`) call this per
    /// destination to fill the columnar [`RouteTableSet`] blocks.
    ///
    /// [`RouteTableSet`]: https://docs.rs/miro-shard
    pub fn write_table_row(&self, next: &mut [u32], hops: &mut [u16], class: &mut [u8]) {
        let n = self.topo.num_nodes();
        assert_eq!(next.len(), n, "next column sized to the topology");
        assert_eq!(hops.len(), n, "hops column sized to the topology");
        assert_eq!(class.len(), n, "class column sized to the topology");
        for x in 0..n {
            match self.best(x as NodeId) {
                Some(b) => {
                    next[x] = b.next;
                    hops[x] = b.len;
                    class[x] = route_class_code(b.class);
                }
                None => {
                    next[x] = UNROUTED_NEXT;
                    hops[x] = UNROUTED_HOPS;
                    class[x] = UNROUTED_CLASS;
                }
            }
        }
    }
}

/// Logged in place of a previous assignment for a node that had none when
/// it was retired. No real route is this long, so the restoration loop's
/// "did this node's offers change" comparison reads it as "yes".
const WAS_UNROUTED: BestRoute =
    BestRoute { class: RouteClass::Provider, len: UNROUTED_HOPS, next: UNROUTED_NEXT };

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
    /// provider-class improvement wave. Every change is logged to
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
            for (c, p) in [(a, b), (b, a)] {
                if self.best(c).is_some_and(|r| r.next == p) {
                    scratch.roots.push(c);
                }
            }
        }
        if scratch.roots.is_empty() {
            return 0;
        }
        self.retire::<false>(scratch);
        let disconnected = self.redrain(scratch);
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
            self.best[v as usize] = old;
            self.slots[v as usize].stamp = self.gen;
        }
        scratch.undo.clear();
        for &key in links {
            self.unfail(key);
        }
    }

    /// Full three-sweep re-solve under the current failed set, in place.
    fn resolve(&mut self, q: &mut SolveScratch) {
        self.gen = next_gen(self.gen, &mut self.slots);
        self.run_sweeps(q);
    }

    /// Retire the routing subtrees rooted at `scratch.roots` (consumed):
    /// a node loses its route iff its next-hop chain crosses a root. Walk
    /// parent pointers breadth-first (`v` joins iff its next hop already
    /// did), logging each assignment and un-assigning the node by aging
    /// its stamp (any value != gen reads as unrouted). The retired set is
    /// closed under "my next-hop chain crosses it", so every node left
    /// outside still holds a route whose whole chain is outside too.
    ///
    /// Failures retire only routed nodes (`ABSORB_UNROUTED = false`).
    /// Restorations may root a retirement at an unrouted node and also
    /// pull in every unrouted neighbor of a retired node, transitively:
    /// those have nothing to lose, and with them inside, a re-drain that
    /// hands a retired node a route it can now export never spills past
    /// the log.
    fn retire<const ABSORB_UNROUTED: bool>(&mut self, scratch: &mut DeltaScratch) {
        let (gen, dead) = (self.gen, self.gen.wrapping_sub(1));
        for i in 0..scratch.roots.len() {
            let root = scratch.roots[i];
            let ri = root as usize;
            let had = !ABSORB_UNROUTED || self.slots[ri].stamp == gen;
            scratch.log(root, if had { self.best[ri] } else { WAS_UNROUTED });
            self.slots[ri].stamp = dead;
        }
        scratch.roots.clear();
        let mut head = 0;
        while head < scratch.undo.len() {
            let (x, _) = scratch.undo[head];
            head += 1;
            for &(v, _) in self.topo.neighbors(x) {
                let vi = v as usize;
                if self.slots[vi].stamp == gen {
                    if self.best[vi].next == x {
                        scratch.log(v, self.best[vi]);
                        self.slots[vi].stamp = dead;
                    }
                } else if ABSORB_UNROUTED {
                    scratch.log(v, WAS_UNROUTED); // no-op for one already retired
                }
            }
        }
    }

    /// Re-run the three sweeps restricted to the retired set (the log).
    /// Everything outside keeps its assignment and acts as the intact
    /// boundary; each sweep is seeded with exactly the offers the full
    /// run would deliver into the set from settled nodes, so winners and
    /// tie-breaks come out bit-for-bit identical. Re-settled nodes land
    /// in `scratch.inner.routed`; returns how many retired nodes stayed
    /// unrouted.
    fn redrain(&mut self, scratch: &mut DeltaScratch) -> usize {
        let undo = &scratch.undo;
        let mut sw = self.sweep(&mut scratch.inner);

        // Sweep 1: every customer-routed AS climbs provider/sibling links,
        // so a settled u offers into cone node v iff u is v's customer or
        // sibling and holds a customer-class route.
        sw.new_round();
        sw.seed(undo, |rel, bu| {
            matches!(rel, Rel::Customer | Rel::Sibling) && bu.class == RouteClass::Customer
        });
        sw.drain(RouteClass::Customer, Edges::Up);

        // Sweep 2: customer-routed ASes offer one peer hop; peer-class
        // routes then propagate along sibling links.
        sw.new_round();
        sw.seed(undo, |rel, bu| match rel {
            Rel::Peer => bu.class == RouteClass::Customer,
            Rel::Sibling => bu.class == RouteClass::Peer,
            _ => false,
        });
        sw.drain(RouteClass::Peer, Edges::Sibling);

        // Sweep 3: every routed AS offers to its customers (any class);
        // provider-class routes then descend customer and sibling links.
        sw.new_round();
        sw.seed(undo, |rel, bu| match rel {
            Rel::Provider => true,
            Rel::Sibling => bu.class == RouteClass::Provider,
            _ => false,
        });
        sw.drain(RouteClass::Provider, Edges::Down);

        undo.len() - sw.routed.len()
    }

    /// Relax provider-class improvements down customer/sibling links,
    /// starting from the re-settled cone nodes (`scratch.inner.routed`).
    ///
    /// Losing a link can *shorten* routes outside the cone: a cone node
    /// demoted across sweeps (e.g. peer-class via the dead link to a
    /// shorter provider-class fallback) now delivers its sweep-3 offers
    /// at an earlier hop level, and nodes below it may switch to the
    /// better offer. Only sweep-3 deliveries can ever improve —
    /// customer-class levels are plain BFS distances over a shrinking
    /// edge set, and peer-class levels derive from them — so the wave is
    /// exactly a bucket-queue relaxation of provider-class routes down
    /// customer and sibling links, seeded by every re-settled cone node
    /// and propagated from every node whose route got strictly shorter.
    /// The argument only uses that the edge set *shrank*, so it holds
    /// verbatim for a batch of simultaneous failures.
    fn improve_wave(&mut self, scratch: &mut DeltaScratch) {
        let RoutingState { topo, best, slots, gen, round, failed, .. } = self;
        let (topo, gen) = (*topo, *gen);
        let DeltaScratch { undo, logged, logged_gen, inner, .. } = scratch;

        // A node can take a sweep-3 offer at level `lvl` only if it
        // already holds a provider-class route no shorter than `lvl`.
        let eligible = |best: &[BestRoute], slots: &[Slot], x: NodeId, lvl: usize| {
            slots[x as usize].stamp == gen
                && best[x as usize].class == RouteClass::Provider
                && best[x as usize].len as usize >= lvl
        };
        let round = next_round(round, slots);
        let mut live = 0usize;

        // Seeds: the sweep-3 deliveries of every re-settled cone node — to
        // its customers at any class, to its siblings when provider-class.
        // Deliveries identical to the base solve's are rejected by the
        // incumbent test at settle time, so seeding unconditionally is safe.
        for i in 0..inner.routed.len() {
            let v = inner.routed[i];
            let bv = best[v as usize];
            let lvl = bv.len as usize + 1;
            let asn_v = topo.asn(v).0;
            for &(x, rel) in topo.neighbors(v) {
                let delivers = match rel {
                    Rel::Customer => true, // x is v's customer
                    Rel::Sibling => bv.class == RouteClass::Provider,
                    _ => false,
                };
                if delivers && !is_failed(failed, v, x) && eligible(best, slots, x, lvl) {
                    let offer = Offer { tag: (round << LVL_BITS) | lvl as u32, asn: asn_v, next: v };
                    push_offer(slots, &mut inner.buckets, &mut live, x, offer);
                }
            }
        }

        let mut lvl = 1;
        while live > 0 {
            debug_assert!(lvl < inner.buckets.len(), "live offers beyond last bucket");
            if inner.buckets[lvl].is_empty() {
                lvl += 1;
                continue;
            }
            let mut bucket = std::mem::take(&mut inner.buckets[lvl]);
            live -= bucket.len();
            let tag = (round << LVL_BITS) | lvl as u32;
            for &x in &bucket {
                let xi = x as usize;
                if !eligible(best, slots, x, lvl) {
                    continue; // stale: x already improved past this level
                }
                if slots[xi].tag != tag {
                    continue; // superseded by an earlier-level entry
                }
                // The lowest-ASN offerer (already folded into the slot)
                // must also beat the incumbent route — which competes on ASN
                // when it has this exact length (the full run's bucket would
                // contain it too) and wins ties.
                let bx = best[xi];
                if bx.len as usize == lvl && topo.asn(bx.next).0 <= slots[xi].asn {
                    continue; // the incumbent won
                }
                if logged[xi] != *logged_gen {
                    logged[xi] = *logged_gen;
                    undo.push((x, bx));
                }
                let shortened = bx.len as usize > lvl;
                best[xi] = BestRoute {
                    class: RouteClass::Provider,
                    len: lvl as u16,
                    next: slots[xi].next,
                };
                if shortened {
                    let nxt = lvl + 1;
                    let offer = Offer {
                        tag: (round << LVL_BITS) | nxt as u32,
                        asn: topo.asn(x).0,
                        next: x,
                    };
                    for &(y, rel) in topo.neighbors(x) {
                        if matches!(rel, Rel::Customer | Rel::Sibling)
                            && !is_failed(failed, x, y)
                            && eligible(best, slots, y, nxt)
                        {
                            push_offer(slots, &mut inner.buckets, &mut live, y, offer);
                        }
                    }
                }
            }
            bucket.clear();
            inner.buckets[lvl] = bucket;
            lvl += 1;
        }
    }
}

/// The original heap-based solver, retained as the equivalence oracle for
/// the bucket-queue engine and the baseline `miro bench-solver` times.
pub mod reference {
    use super::{BestRoute, RoutingState, UNROUTED};
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

        // Convert to the stamped representation the queries read.
        let slots: Vec<super::Slot> = best
            .iter()
            .map(|b| super::Slot { stamp: u32::from(b.is_some()), ..super::SLOT_EMPTY })
            .collect();
        let best: Vec<BestRoute> = best.into_iter().map(|b| b.unwrap_or(UNROUTED)).collect();
        let failed = banned.into_iter().collect();
        RoutingState { topo, dest, best, slots, gen: 1, round: 0, failed }
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
    fn bucket_engine_matches_reference_on_generated_topologies() {
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

/// Property-based equivalence: the bucket-queue engine must be
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
        fn bucket_matches_heap(
            edges in proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90),
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
        /// heap oracle *and* to the full masked bucket solve, on arbitrary
        /// graphs and arbitrary failed links — including cut links that
        /// disconnect the destination and links absent from the base
        /// routing tree (which must be recompute-free no-ops). Consecutive
        /// deltas share one base and one scratch; every revert must
        /// restore the base solve exactly.
        #[test]
        fn delta_matches_oracle_and_full_masked_solve(
            edges in proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90),
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
            edges in proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90),
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
