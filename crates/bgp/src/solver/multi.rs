//! Churn replay over the delta engine: event batches and restorations.
//!
//! [`crate::engine::WhatIf`] fails one link, looks, and reverts; a churn
//! stream is the opposite shape: an open-ended sequence of link events
//! whose effects must *persist*, arriving in co-temporal bursts (a
//! router reboot takes every session on the box down in one tick; a flap
//! announces and withdraws faster than the control plane reacts).
//! [`MultiFailState`] is a [`RoutingState`] that applies whole event
//! batches to its failed-link set:
//!
//! * **Coalescing** — events are netted per link first, so a flap that
//!   cancels within a batch (down then up, or up then down on a dead
//!   link) costs nothing at all. This is where batching beats serial
//!   replay even before any cone overlap.
//! * **Batched failures** — all net link-downs are applied as one
//!   union-cone invalidation and a single boundary-seeded re-drain (the
//!   same `RoutingState::fail` a what-if runs with one link):
//!   overlapping cones are recomputed once instead of once per event,
//!   and disjoint cones degenerate to exactly the serial work.
//! * **Restorations** — a link coming back *up* is not a monotone
//!   improvement under Gao-Rexford preference: class outranks length,
//!   so an endpoint that upgrades (say peer@2 to customer@9) makes
//!   every route through it *longer* while better in class, worsening
//!   its customers' routes. A relaxation that only ever improves nodes
//!   is therefore unsound for restorations. The cone machinery does not
//!   need monotonicity, though, so an up costs what a down costs — a
//!   **retire-and-re-drain worklist**:
//!
//!   1. *Seed* with every restored-link endpoint that strictly prefers,
//!      under `(class, length, next-hop ASN)`, the offer now arriving
//!      over its link. The table was stable before the batch's ups, and
//!      the only new offers anywhere are the ones crossing the restored
//!      links, so these are exactly the unstable nodes.
//!   2. *Retire* the seeds' routing subtrees — the same parent-pointer
//!      BFS failures use; an unrouted seed is a subtree of one, and
//!      unrouted neighbors of a retired node ride along.
//!   3. *Re-drain* the three sweeps inside the retired set against the
//!      intact boundary. The restored edge is simply no longer failed,
//!      so its offers arrive by themselves.
//!   4. *Scan* the export edges of every re-settled node whose offers
//!      changed for a neighbor that is unrouted or strictly prefers the
//!      new offer; those neighbors seed the next round. The loop ends
//!      when a scan finds none. Several ups in a batch share one seed
//!      set and one re-drain, exactly as several downs do.
//!
//!   Three facts make every test in that loop O(1) per edge and the
//!   result exact:
//!
//!   * **Closed under subtree.** A node outside the retired set has its
//!     whole next-hop chain outside (its next hop would have dragged it
//!     in otherwise), so its current route is still on offer, unchanged.
//!     It moves only if a *changed* node's offer is strictly better.
//!   * **A looped offer is never strictly better.** Walking a selected
//!     path away from the destination, class never improves (a customer
//!     or peer edge only carries customer-class routes, a sibling edge
//!     keeps the class, a provider edge yields provider class). If `u`'s
//!     path runs through `y`, then `y`'s own route is a suffix of it:
//!     `u` holds a class no better than `y`'s, the class `u` delivers is
//!     no better than the class it holds, and the offer is at least two
//!     hops longer. So the comparison needs no path walk to reject
//!     loops — they lose on their own.
//!   * **Uniqueness.** When a scan comes back empty, every node holds a
//!     route that is exactly its next hop's offer and strictly prefers
//!     no neighbor's. Selection by class, then length, then ASN admits
//!     one such table (induct on length within each class: customer
//!     routes are BFS distances up from the destination, peer routes
//!     hang one peer hop off those, provider routes are BFS distances
//!     down from everything routed), and the masked full solve is one.
//!     The table *is* the full solve's, bit for bit.
//!
//!   Off-tree restorations — the overwhelming majority under random
//!   churn — seed nothing and cost two comparisons. **Work budget:**
//!   should the nodes retired within one `apply` sum to more than the
//!   node count, the engine stops iterating and re-solves the table in
//!   place ([`ApplyStats::full_resolve`]); that bounds any `apply` at
//!   about two full solves and guarantees termination.
//!
//! The equivalence contract (proptest-pinned below): after any sequence
//! of batches, the table is bit-for-bit identical to (a) applying the
//! same events one at a time, and (b) a from-scratch solve of a
//! topology rebuilt without the currently-failed links.

use super::{route_class_code, BestRoute, DeltaScratch, RoutingState, SolveScratch, CLASS_SHIFT};
use super::{UNROUTED_CLASS, UNROUTED_HOPS, UNROUTED_NEXT};
use crate::route::ExportScope;
use miro_topology::{NodeId, Rel, RouteClass, Topology};

/// One link-state transition in a churn stream. Endpoints are dense
/// node ids; order does not matter (links are normalized low-high).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkEvent {
    /// The link between the two ASes went down.
    Down(NodeId, NodeId),
    /// The link between the two ASes came back up.
    Up(NodeId, NodeId),
}

/// What one [`MultiFailState::apply`] call did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ApplyStats {
    /// Net link failures applied (after coalescing).
    pub downs: usize,
    /// Net link restorations applied (after coalescing).
    pub ups: usize,
    /// Links whose events netted out against the current state — flap
    /// pairs that cancel inside the batch, repeated downs of a dead
    /// link, ups of a live one. Skipped entirely.
    pub cancelled: usize,
    /// Events naming self-loops, endpoints that are not nodes, or links
    /// absent from the topology.
    pub ignored: usize,
    /// Table entries the engine retired and re-settled, summed over the
    /// failure phase (cone + improvement-wave nodes) and every
    /// restoration round, plus the whole table when the work budget
    /// forced a full re-solve. A node retired twice counts twice.
    pub recomputed: usize,
    /// Cone nodes that lost reachability in the failure phase (before
    /// any restoration processing).
    pub disconnected: usize,
    /// Retire-and-re-drain rounds the restorations took: 0 when no
    /// endpoint wanted its restored link, 1 when the shift stayed inside
    /// the retired subtrees, more when it rippled outward.
    pub restore_rounds: usize,
    /// Did the restoration worklist exhaust its budget (more nodes
    /// retired than the topology has) and fall back to one full
    /// re-solve?
    pub full_resolve: bool,
}

/// A route on offer, as its receiver would rank it: `(class, length,
/// next-hop ASN)`, lowest wins.
type OfferKey = (RouteClass, u16, u32);

/// What a sender holding `held` (and numbered `asn`) offers a neighbor to
/// whom it is `rel_from`; `None` when its export rules withhold the route.
#[inline]
fn exported(held: BestRoute, asn: u32, rel_from: Rel) -> Option<OfferKey> {
    // The export decision is keyed on what the receiver is to the sender.
    ExportScope::allows(held.class, rel_from.reverse())
        .then(|| (ExportScope::received_class(held.class, rel_from), held.len + 1, asn))
}

/// A persistent routing table for one destination under an evolving
/// failed-link set: a [`RoutingState`] (every read accessor, including
/// `failed_links` and `is_failed`, comes through `Deref`) that event
/// batches mutate in place. See the module docs for the batching
/// strategy and the equivalence contract.
pub struct MultiFailState<'t>(RoutingState<'t>);

impl<'t> std::ops::Deref for MultiFailState<'t> {
    type Target = RoutingState<'t>;

    fn deref(&self) -> &RoutingState<'t> {
        &self.0
    }
}

impl<'t> MultiFailState<'t> {
    /// Solve the all-links-up base state for `dest`, taking ownership of
    /// the table (the scratch is drained and will re-grow on next use).
    pub fn solve(topo: &'t Topology, dest: NodeId, scratch: &mut SolveScratch) -> Self {
        MultiFailState(RoutingState::solve_into(topo, dest, scratch))
    }

    /// Order-independent FNV-1a digest of the whole table (per-node
    /// class/hops/next-hop node id, unrouted as sentinels) — what the
    /// churn bench compares across serial and batched replays.
    pub fn table_fnv(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        };
        for x in self.topo.nodes() {
            let (next, hops, class) = match self.best(x) {
                Some(b) => (b.next, b.len, route_class_code(b.class)),
                None => (UNROUTED_NEXT, UNROUTED_HOPS, UNROUTED_CLASS),
            };
            eat(class);
            hops.to_le_bytes().into_iter().for_each(&mut eat);
            next.to_le_bytes().into_iter().for_each(&mut eat);
        }
        h
    }

    /// Apply one co-temporal batch of link events. Serial replay is the
    /// `events.len() == 1` special case; any grouping of the same event
    /// sequence into batches yields the identical table.
    pub fn apply(&mut self, events: &[LinkEvent], scratch: &mut DeltaScratch) -> ApplyStats {
        let mut stats = ApplyStats::default();

        // --- Net effect -------------------------------------------------
        // Last event per link wins within the batch; a final state equal
        // to the current one nets out and is skipped entirely.
        scratch.finals.clear();
        for &ev in events {
            let (a, b, down) = match ev {
                LinkEvent::Down(a, b) => (a, b, true),
                LinkEvent::Up(a, b) => (a, b, false),
            };
            let Some(key) = self.link(a, b).filter(|k| self.topo.rel(k.0, k.1).is_some()) else {
                stats.ignored += 1;
                continue;
            };
            match scratch.finals.iter_mut().find(|(k, _)| *k == key) {
                Some((_, d)) => *d = down,
                None => scratch.finals.push((key, down)),
            }
        }
        let mut downs = std::mem::take(&mut scratch.net_downs);
        let mut ups = std::mem::take(&mut scratch.net_ups);
        downs.clear();
        ups.clear();
        for &(key, down) in &scratch.finals {
            if down == self.is_failed(key.0, key.1) {
                stats.cancelled += 1;
            } else if down {
                downs.push(key);
            } else {
                ups.push(key);
            }
        }
        stats.downs = downs.len();
        stats.ups = ups.len();

        // --- Failures: one union-cone recomputation ---------------------
        if stats.downs > 0 {
            stats.disconnected = self.0.fail(&downs, scratch);
            stats.recomputed = scratch.changed();
        }
        // --- Restorations: retire, re-drain, rescan until stable --------
        if stats.ups > 0 {
            self.0.restore(&ups, scratch, &mut stats);
        }
        scratch.net_downs = downs;
        scratch.net_ups = ups;
        stats
    }
}

/// The restoration half of the delta kernel (module docs).
impl RoutingState<'_> {
    /// Restore `links` (validated keys, all currently failed), adding the
    /// rounds and re-settled nodes to `stats`.
    fn restore(
        &mut self,
        links: &[(NodeId, NodeId)],
        scratch: &mut DeltaScratch,
        stats: &mut ApplyStats,
    ) {
        let n = self.topo.num_nodes();
        // The table is stable under the old failed set, and the only new
        // offers are the ones crossing the restored links.
        for &(a, b) in links {
            self.unfail((a, b));
            let rel_b = self.topo.rel(a, b).expect("restored link is in the topology");
            for (x, from, rel_from) in [(a, b, rel_b), (b, a, rel_b.reverse())] {
                if self.offer(from, rel_from).is_some_and(|o| self.prefers(x, o)) {
                    scratch.roots.push(x);
                }
            }
        }
        while !scratch.roots.is_empty() {
            stats.restore_rounds += 1;
            scratch.begin(n);
            self.retire::<true>(scratch);
            stats.recomputed += scratch.changed();
            if stats.recomputed > n {
                // Work budget spent: settle it in one full solve.
                self.resolve(&mut scratch.inner);
                stats.recomputed += n;
                stats.full_resolve = true;
                break;
            }
            self.redrain::<true>(scratch);
            // Inside the retired set the drain left every node with its
            // best offer. Outside it, a node's own route still stands, so
            // only a re-settled node whose offers changed can unsettle a
            // neighbor.
            for &(v, old) in &scratch.undo {
                if self.t.cells[v as usize] >> CLASS_SHIFT == old.cell >> CLASS_SHIFT {
                    continue; // next hop aside, v offers what it always did
                }
                let Some(bv) = self.best(v) else { continue };
                let asn_v = self.topo.asn(v).0;
                for &(y, rel_y) in self.topo.neighbors(v) {
                    if exported(bv, asn_v, rel_y.reverse()).is_some_and(|o| self.prefers(y, o))
                        && !self.is_failed(v, y)
                    {
                        scratch.roots.push(y);
                    }
                }
            }
        }
    }

    /// The route `from` currently offers a neighbor to whom it is
    /// `rel_from`: `None` when `from` is unrouted or withholds it. The
    /// link's own state is the caller's business.
    #[inline]
    fn offer(&self, from: NodeId, rel_from: Rel) -> Option<OfferKey> {
        exported(self.best(from)?, self.topo.asn(from).0, rel_from)
    }

    /// Does `x` strictly prefer `offer` to the route it holds? O(1): an
    /// offer whose path loops back through `x` needs no rejecting, it
    /// is never strictly better (module docs).
    #[inline]
    fn prefers(&self, x: NodeId, offer: OfferKey) -> bool {
        let Some(b) = self.best(x) else { return true };
        let (class, len, asn) = offer;
        (class, len) < (b.class, b.len)
            || ((class, len) == (b.class, b.len) && asn < self.topo.asn(b.next).0)
    }
}

/// The selection rule spelled out — every neighbor, export scope, loop
/// rejection by path walk, class > length > lowest-ASN preference. The
/// engine's O(1) tests lean on lemmas instead; tests hold them to this.
#[cfg(test)]
impl MultiFailState<'_> {
    /// Does every node hold exactly the route it would select from its
    /// neighbors' current routes?
    fn is_stable(&self) -> bool {
        self.topo.nodes().all(|x| x == self.dest || self.best_candidate(x) == self.best(x))
    }

    /// The route `x` would select from its neighbors' current routes.
    fn best_candidate(&self, x: NodeId) -> Option<BestRoute> {
        let mut won: Option<(BestRoute, u32)> = None;
        for &(n, rel_nx) in self.topo.neighbors(x) {
            if self.is_failed(x, n) {
                continue; // session down
            }
            let Some(bn) = self.best(n) else { continue };
            // n's export decision is keyed on what *x* is to n.
            if !ExportScope::allows(bn.class, rel_nx.reverse()) {
                continue;
            }
            if self.chain_passes(n, x) {
                continue; // loop: x already on n's path
            }
            let cand = BestRoute {
                class: ExportScope::received_class(bn.class, rel_nx),
                len: bn.len + 1,
                next: n,
            };
            let asn = self.topo.asn(n).0;
            let better = won.is_none_or(|(w, wasn)| {
                (cand.class, cand.len, asn) < (w.class, w.len, wasn)
            });
            if better {
                won = Some((cand, asn));
            }
        }
        won.map(|(w, _)| w)
    }

    /// Does `n`'s selected next-hop chain pass through `x`?
    fn chain_passes(&self, n: NodeId, x: NodeId) -> bool {
        let mut at = n;
        while at != self.dest {
            at = self.next(at);
            if at == x {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::{gen::figure_1_1, AsId, Rel, TopologyBuilder};

    /// Down then up of an on-tree link inside one batch must cancel to a
    /// provable no-op, and the table must stay the base solve.
    #[test]
    fn intra_batch_flap_cancels() {
        let (topo, [a, b, _c, _d, e, f]) = figure_1_1();
        let mut st = MultiFailState::solve(&topo, f, &mut SolveScratch::new());
        let base = st.table_fnv();
        let mut scratch = DeltaScratch::new();
        let stats = st.apply(&[LinkEvent::Down(b, e), LinkEvent::Up(b, e)], &mut scratch);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.downs + stats.ups + stats.recomputed, 0);
        assert!(!stats.full_resolve);
        assert_eq!(st.table_fnv(), base);
        assert_eq!(st.path(a), Some(vec![b, e, f]));
    }

    /// A failure followed (in a later batch) by the restoration must
    /// return the table bit-for-bit to the base solve.
    #[test]
    fn down_then_up_round_trips() {
        let (topo, [a, b, c, _d, e, f]) = figure_1_1();
        let mut st = MultiFailState::solve(&topo, f, &mut SolveScratch::new());
        let base = st.table_fnv();
        let mut scratch = DeltaScratch::new();

        let stats = st.apply(&[LinkEvent::Down(b, e)], &mut scratch);
        assert_eq!(stats.downs, 1);
        assert!(stats.recomputed > 0, "an on-tree failure rewrites its cone");
        assert_eq!(st.failed_links(), &[(b.min(e), b.max(e))]);
        // B falls back to its peer route through C; A keeps B on the
        // lowest-ASN tie-break, so A now reaches F via B -> C.
        assert_eq!(st.path(a), Some(vec![b, c, f]));

        let stats = st.apply(&[LinkEvent::Up(b, e)], &mut scratch);
        assert_eq!(stats.ups, 1);
        // B wants its customer route back: one round retires B and A,
        // and nobody outside that subtree cares.
        assert_eq!((stats.restore_rounds, stats.recomputed), (1, 2));
        assert!(!stats.full_resolve, "a shifting restoration costs its cone, not a re-solve");
        assert!(st.failed_links().is_empty());
        assert_eq!(st.table_fnv(), base);
        assert_eq!(st.path(a), Some(vec![b, e, f]));
    }

    /// Off-tree events — and restorations no endpoint wants — are free.
    #[test]
    fn off_tree_events_are_noops() {
        // dest -- x (customer chain), plus a peer link x -- y where y has
        // its own customer path to dest: the peer link is never adopted.
        let mut b = TopologyBuilder::new();
        let (dest, x, y) = (AsId(1), AsId(2), AsId(3));
        b.intern_as(dest);
        b.intern_as(x);
        b.intern_as(y);
        b.link(dest, x, Rel::Provider); // x is dest's provider
        b.link(dest, y, Rel::Provider);
        b.link(x, y, Rel::Peer);
        let topo = b.build().unwrap();
        let d = topo.node(dest).unwrap();
        let (xn, yn) = (topo.node(x).unwrap(), topo.node(y).unwrap());

        let mut st = MultiFailState::solve(&topo, d, &mut SolveScratch::new());
        let base = st.table_fnv();
        let mut scratch = DeltaScratch::new();

        let stats = st.apply(&[LinkEvent::Down(xn, yn)], &mut scratch);
        assert_eq!((stats.downs, stats.recomputed), (1, 0));
        assert_eq!(st.table_fnv(), base, "off-tree failure leaves the table alone");

        let stats = st.apply(&[LinkEvent::Up(xn, yn)], &mut scratch);
        assert_eq!(stats.ups, 1);
        assert!(!stats.full_resolve, "unwanted restoration must not re-solve");
        assert_eq!(st.table_fnv(), base);
    }

    /// Self-loops, endpoints that are not nodes, and links absent from the
    /// topology are counted and skipped, never applied.
    #[test]
    fn bogus_events_are_ignored() {
        let (topo, [_a, b, _c, _d, e, f]) = figure_1_1();
        let n = topo.num_nodes() as NodeId;
        let mut st = MultiFailState::solve(&topo, f, &mut SolveScratch::new());
        let base = st.table_fnv();
        let mut scratch = DeltaScratch::new();
        let stats = st.apply(
            &[LinkEvent::Down(e, e), LinkEvent::Down(0, 5), LinkEvent::Up(1, 4)],
            &mut scratch,
        );
        // (e,e) is a self-loop, (0,5) = A--F does not exist in Figure
        // 1.1, and (1,4) = B--E exists but is already up (nets out).
        assert_eq!(stats.ignored, 2);
        assert_eq!(stats.cancelled, 1);
        assert!(st.failed_links().is_empty());

        // Both endpoints out of range, then one in and one out, both ways.
        let stats = st.apply(
            &[
                LinkEvent::Down(9999, 10000),
                LinkEvent::Up(10000, 9999),
                LinkEvent::Down(b, n),
                LinkEvent::Up(n, e),
                LinkEvent::Down(u32::MAX, b),
            ],
            &mut scratch,
        );
        assert_eq!(stats, ApplyStats { ignored: 5, ..ApplyStats::default() });
        assert!(st.failed_links().is_empty());
        assert_eq!(st.table_fnv(), base);
    }

    /// A hand-drawn topology from `(provider, customer)` and peer pairs,
    /// by ASN.
    fn draw(provider_customer: &[(u32, u32)], peers: &[(u32, u32)]) -> Topology {
        let mut b = TopologyBuilder::new();
        for &(x, y) in provider_customer.iter().chain(peers) {
            b.intern_as(AsId(x));
            b.intern_as(AsId(y));
        }
        for &(p, c) in provider_customer {
            b.provider_customer(AsId(p), AsId(c));
        }
        for &(x, y) in peers {
            b.peering(AsId(x), AsId(y));
        }
        b.build().unwrap()
    }

    /// `(class, hops, next-hop ASN)` of `asn`'s selected route.
    fn route(st: &MultiFailState<'_>, asn: u32) -> Option<(RouteClass, u16, u32)> {
        let x = st.topo.node(AsId(asn)).unwrap();
        st.best(x).map(|b| (b.class, b.len, st.topo.asn(b.next).0))
    }

    /// The table must be the full masked solve's and pass the spelled-out
    /// selection rule at every node.
    fn assert_is_masked_solve(st: &MultiFailState<'_>) {
        let masked = RoutingState::solve_core(
            st.topo,
            st.dest,
            st.failed_links().to_vec(),
            &mut SolveScratch::new(),
        );
        for x in st.topo.nodes() {
            assert_eq!(st.best(x), masked.best(x), "node AS{}", st.topo.asn(x).0);
        }
        assert!(st.is_stable());
    }

    /// The module docs' case: a restoration upgrades X from a short peer
    /// route to a long customer route. X's customers get *worse* (one
    /// finds a better provider elsewhere), while X's peer Q, outside the
    /// retired subtree, now hears a peer-class route it prefers — the
    /// second round.
    #[test]
    fn class_upgrade_that_lengthens_ripples_to_a_peer() {
        use RouteClass::*;
        // Dest 1. P=2 provides 1. X=10 peers with P and heads a customer
        // chain 10 > 11 > ... > 18 > 1 (nine hops). Y=20 buys from X and
        // from W=30, which sits four provider hops under P (2 > 31 > 32 >
        // 30). Z=21 buys from Y. Q=40 peers with X and buys from P; S=42
        // buys from Q.
        let mut pc = vec![(2, 1), (18, 1), (10, 20), (30, 20), (20, 21)];
        pc.extend((10..18).map(|a| (a, a + 1)));
        pc.extend([(2, 31), (31, 32), (32, 30), (2, 40), (40, 42)]);
        let topo = draw(&pc, &[(10, 2), (10, 40)]);
        let n = |asn: u32| topo.node(AsId(asn)).unwrap();
        let mut st = MultiFailState::solve(&topo, n(1), &mut SolveScratch::new());
        let mut scratch = DeltaScratch::new();

        st.apply(&[LinkEvent::Down(n(10), n(11))], &mut scratch);
        assert_eq!(route(&st, 10), Some((Peer, 2, 2)));
        assert_eq!(route(&st, 20), Some((Provider, 3, 10)));
        assert_eq!(route(&st, 21), Some((Provider, 4, 20)));
        assert_eq!(route(&st, 40), Some((Provider, 2, 2)));
        assert_eq!(route(&st, 42), Some((Provider, 3, 40)));

        let stats = st.apply(&[LinkEvent::Up(n(10), n(11))], &mut scratch);
        assert_eq!(route(&st, 10), Some((Customer, 9, 11)), "class outranks length");
        assert_eq!(route(&st, 20), Some((Provider, 5, 30)), "Y leaves the lengthened X for W");
        assert_eq!(route(&st, 21), Some((Provider, 6, 20)));
        assert_eq!(route(&st, 40), Some((Peer, 10, 10)), "X now exports to its peer");
        assert_eq!(route(&st, 42), Some((Provider, 11, 40)));
        assert_eq!(route(&st, 11), Some((Customer, 8, 12)), "the chain never moved");
        // Round 1 retires {X, Y, Z}; its scan finds Q; round 2 retires
        // {Q, S}.
        assert_eq!((stats.restore_rounds, stats.recomputed), (2, 5));
        assert!(!stats.full_resolve);
        assert_is_masked_solve(&st);
    }

    /// A restoration that reconnects a cut-off subtree: the endpoint is
    /// unrouted (a retired subtree of one), its unrouted neighbors ride
    /// along, and one round re-settles everything that can be reached —
    /// G, a provider the endpoint may not export to, stays dark.
    #[test]
    fn up_reconnects_a_disconnected_subtree() {
        use RouteClass::*;
        // 1 > 2 > {3 > 5, 4}, and 6 > 2 with no other customer.
        let topo = draw(&[(1, 2), (2, 3), (2, 4), (3, 5), (6, 2)], &[]);
        let n = |asn: u32| topo.node(AsId(asn)).unwrap();
        let mut st = MultiFailState::solve(&topo, n(1), &mut SolveScratch::new());
        let mut scratch = DeltaScratch::new();

        let stats = st.apply(&[LinkEvent::Down(n(1), n(2))], &mut scratch);
        assert_eq!((stats.recomputed, stats.disconnected), (4, 4));
        assert_eq!(st.reachable_count(), 1);

        let stats = st.apply(&[LinkEvent::Up(n(1), n(2))], &mut scratch);
        assert_eq!(route(&st, 2), Some((Provider, 1, 1)));
        assert_eq!(route(&st, 3), Some((Provider, 2, 2)));
        assert_eq!(route(&st, 4), Some((Provider, 2, 2)));
        assert_eq!(route(&st, 5), Some((Provider, 3, 3)));
        assert_eq!(route(&st, 6), None, "provider routes are not exported upward");
        assert_eq!((stats.restore_rounds, stats.recomputed), (1, 5));
        assert!(!stats.full_resolve);
        assert_is_masked_solve(&st);
    }

    /// One batch, a failure and a restoration whose cones overlap: the
    /// failure phase strands D, the restoration phase retires B's subtree
    /// and sweeps D up again as an unrouted neighbor.
    #[test]
    fn mixed_batch_with_overlapping_cones() {
        let (topo, [a, b, c, d, e, f]) = figure_1_1();
        let mut st = MultiFailState::solve(&topo, f, &mut SolveScratch::new());
        let mut scratch = DeltaScratch::new();
        st.apply(&[LinkEvent::Down(b, e)], &mut scratch);
        assert_eq!(st.path(a), Some(vec![b, c, f]));
        assert_eq!(st.path(d), Some(vec![e, f]));

        let stats = st.apply(&[LinkEvent::Up(b, e), LinkEvent::Down(d, e)], &mut scratch);
        assert_eq!((stats.downs, stats.ups, stats.disconnected), (1, 1, 1));
        assert_eq!(st.path(b), Some(vec![e, f]));
        assert_eq!(st.path(a), Some(vec![b, e, f]));
        assert_eq!(st.path(d), None, "A's provider route is not exported up to D");
        // Failure cone {D}; restoration retires {B, A} and absorbs D.
        assert_eq!((stats.restore_rounds, stats.recomputed), (1, 4));
        assert!(!stats.full_resolve);
        assert_is_masked_solve(&st);
    }

    /// The work budget: a batch whose failure cone and restoration
    /// subtree together outnumber the topology falls back to one full
    /// masked re-solve and says so.
    #[test]
    fn budget_fallback_resolves_in_full() {
        use RouteClass::*;
        // Dest 1 buys from 2 and 3; T=4 provides both and five stubs.
        let mut pc = vec![(2, 1), (3, 1), (4, 2), (4, 3)];
        pc.extend((5..10).map(|stub| (4, stub)));
        let topo = draw(&pc, &[]);
        let n = |asn: u32| topo.node(AsId(asn)).unwrap();
        let nodes = topo.num_nodes();
        let mut st = MultiFailState::solve(&topo, n(1), &mut SolveScratch::new());
        let mut scratch = DeltaScratch::new();
        st.apply(&[LinkEvent::Down(n(4), n(2))], &mut scratch);
        assert_eq!(route(&st, 4), Some((Customer, 2, 3)));

        // The failure strands T and its stubs (6 nodes); the restoration
        // retires the same 6: 12 > 9 nodes.
        let stats =
            st.apply(&[LinkEvent::Down(n(4), n(3)), LinkEvent::Up(n(4), n(2))], &mut scratch);
        assert!(stats.full_resolve);
        assert_eq!((stats.restore_rounds, stats.recomputed), (1, 6 + 6 + nodes));
        assert_eq!(route(&st, 4), Some((Customer, 2, 2)));
        assert_eq!(route(&st, 9), Some((Provider, 3, 4)));
        assert_is_masked_solve(&st);
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use miro_topology::{AsId, GenParams, Rel, TopologyBuilder};
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

    /// The strongest oracle: physically rebuild the topology without the
    /// failed links (same interning order, so node ids align) and solve
    /// from scratch.
    fn rebuilt_without(t: &Topology, failed: &[(NodeId, NodeId)]) -> Topology {
        let mut b = TopologyBuilder::new();
        for x in t.nodes() {
            b.intern_as(t.asn(x));
        }
        for x in t.nodes() {
            for &(y, rel) in t.neighbors(x) {
                if x < y && failed.binary_search(&(x, y)).is_err() {
                    b.link(t.asn(x), t.asn(y), rel);
                }
            }
        }
        b.build().expect("subgraph of a consistent topology")
    }

    fn assert_matches_oracles(st: &MultiFailState<'_>, t: &Topology, dest: NodeId) {
        // Oracle 1: from-scratch solve of the physically pruned graph.
        let pruned = rebuilt_without(t, st.failed_links());
        let oracle = RoutingState::solve(&pruned, dest);
        // Oracle 2: full solve of the original graph without the failed
        // set — pins the sweeps' failed-link test against the rebuild at
        // the same time.
        let masked =
            RoutingState::solve_core(t, dest, st.failed_links().to_vec(), &mut SolveScratch::new());
        for x in t.nodes() {
            assert_eq!(st.best(x), oracle.best(x), "pruned-rebuild diverged at node {x}");
            assert_eq!(st.best(x), masked.best(x), "masked solve diverged at node {x}");
        }
    }

    /// Replay `events` batched (chopped along `cuts`, cycling, so batch
    /// boundaries are arbitrary) and serially, holding the batched table
    /// to the whole contract after every batch.
    fn replay_and_check(t: &Topology, dest: NodeId, events: &[LinkEvent], cuts: &[u8]) {
        let n = t.num_nodes();
        let mut solve = SolveScratch::new();
        let mut batched = MultiFailState::solve(t, dest, &mut solve);
        let mut serial = MultiFailState::solve(t, dest, &mut solve);
        let (mut sb, mut ss) = (DeltaScratch::new(), DeltaScratch::new());
        let mut sizes = if cuts.is_empty() { &[3][..] } else { cuts }.iter().cycle();
        let mut rest = events;
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at((*sizes.next().unwrap() as usize).min(rest.len()));
            rest = tail;

            let stats = batched.apply(batch, &mut sb);
            // The full re-solve is the budget fallback and nothing else.
            assert_eq!(stats.full_resolve, stats.recomputed > 2 * n);
            assert!(stats.full_resolve || stats.recomputed <= n);
            for ev in batch {
                serial.apply(std::slice::from_ref(ev), &mut ss);
            }
            assert_eq!(batched.failed_links(), serial.failed_links());
            for x in t.nodes() {
                assert_eq!(batched.best(x), serial.best(x), "serial diverged at {x}");
            }
            assert_eq!(batched.table_fnv(), serial.table_fnv());
            assert!(batched.is_stable(), "a node prefers a neighbor's offer");
            assert_matches_oracles(&batched, t, dest);
        }
    }

    /// Strategy: a churn script over the node-pair space, plus how to
    /// chop it into co-temporal batches. Down/up pairs over the same
    /// links recur with high probability at this range, so cancelling
    /// flaps (the acceptance-criteria case) are exercised constantly.
    type ChurnScript = (Vec<(u32, u32, u8)>, u32, Vec<(u32, u32, u8)>, Vec<u8>);

    fn script() -> impl Strategy<Value = ChurnScript> {
        (
            proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90),
            0u32..N,
            proptest::collection::vec((0u32..N, 0u32..N, 0u8..2), 0..24),
            proptest::collection::vec(1u8..6, 0..12),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batched application over arbitrary event interleavings —
        /// including flap sequences that cancel out — is byte-identical
        /// to serial one-event-at-a-time application, to a from-scratch
        /// solve of the pruned topology, and to a full solve without the
        /// failed set, after every single batch.
        #[test]
        fn batched_equals_serial_and_oracles((edges, dest_raw, script, cuts) in script()) {
            let t = build(edges);
            let dest = dest_raw % t.num_nodes() as u32;
            let events: Vec<LinkEvent> = script
                .iter()
                .map(|&(a, b, down)| {
                    let (a, b) = (a % t.num_nodes() as u32, b % t.num_nodes() as u32);
                    if down == 1 { LinkEvent::Down(a, b) } else { LinkEvent::Up(a, b) }
                })
                .collect();

            replay_and_check(&t, dest, &events, &cuts);
        }

        /// The same contract where restorations bite: a generated
        /// hierarchy, a handful of flappers — half of them links of the
        /// destination's own routing tree, so their restorations shift an
        /// endpoint — and a long down/up script over just those links.
        #[test]
        fn long_flap_scripts_on_generated_hierarchies(
            (seed, dest_raw, picks, script, cuts) in (
                0u64..64,
                0u32..120,
                proptest::collection::vec(0u32..100_000, 2..8),
                proptest::collection::vec((0u8..8, 0u8..2), 100..400),
                proptest::collection::vec(1u8..6, 1..12),
            )
        ) {
            let t = GenParams::tiny(1_000 + seed).generate();
            let n = t.num_nodes();
            let dest = dest_raw % n as u32;
            let base = RoutingState::solve(&t, dest);
            let links: Vec<(NodeId, NodeId)> = t
                .nodes()
                .flat_map(|x| t.neighbors(x).iter().map(move |&(y, _)| (x, y)))
                .filter(|&(x, y)| x < y)
                .collect();
            let flappers: Vec<(NodeId, NodeId)> = picks
                .iter()
                .map(|&p| {
                    let x = (p / 2) % n as u32;
                    match base.best(x) {
                        Some(b) if p % 2 == 0 && x != dest => (x, b.next),
                        _ => links[(p / 2) as usize % links.len()],
                    }
                })
                .collect();
            let events: Vec<LinkEvent> = script
                .iter()
                .map(|&(which, down)| {
                    let (a, b) = flappers[which as usize % flappers.len()];
                    if down == 1 { LinkEvent::Down(a, b) } else { LinkEvent::Up(a, b) }
                })
                .collect();

            replay_and_check(&t, dest, &events, &cuts);
        }

        /// An explicit cancellation storm: every event is immediately
        /// contradicted inside the same batch, so whole batches must net
        /// to zero work and the base table must survive untouched.
        #[test]
        fn cancelling_flaps_are_free(
            edges in proptest::collection::vec((0u32..N, 0u32..N, 0u8..4), 0..90),
            dest_raw in 0u32..N,
            flaps in proptest::collection::vec((0u32..N, 0u32..N), 1..10),
        ) {
            let t = build(edges);
            let dest = dest_raw % t.num_nodes() as u32;
            let mut st = MultiFailState::solve(&t, dest, &mut SolveScratch::new());
            let base = st.table_fnv();
            let mut scratch = DeltaScratch::new();

            let mut batch = Vec::new();
            for &(a, b) in &flaps {
                batch.push(LinkEvent::Down(a, b));
                batch.push(LinkEvent::Up(a, b));
            }
            let stats = st.apply(&batch, &mut scratch);
            prop_assert_eq!(stats.downs + stats.ups + stats.recomputed, 0);
            prop_assert!(!stats.full_resolve);
            prop_assert_eq!(st.table_fnv(), base);
            prop_assert!(st.failed_links().is_empty());
        }
    }
}
