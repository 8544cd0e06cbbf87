//! Whole-network solve engine: shard destinations over scoped threads.
//!
//! Destinations are independent, so a whole-network solve is
//! embarrassingly parallel. The classic pitfall is making the workers
//! fight over a shared results vector; here each worker keeps a private
//! `(index, result)` buffer and the buffers are merged into destination
//! order after the scope joins, so the hot loop takes no locks at all.
//! Work is claimed one destination at a time off an atomic cursor, which
//! load-balances the skewed solve times of high-degree destinations.
//!
//! Dispatch is **degree-descending**: the claim schedule sorts
//! destination indices by descending degree (ties by index), so the
//! slow, high-degree destinations start first and the end of the run
//! drains over cheap stub ASes instead of stalling every thread behind
//! one late tier-1 solve. The merge is by original index, so the
//! schedule never changes the output — byte-identical to the 1-thread
//! path, which claims in slice order and is the determinism reference.
//!
//! There is one implementation, [`ScratchPool::over_dests`] (and
//! [`ScratchPool::over_rows`], its route-table-row shape, which solves
//! each destination without the pull pass). Each worker
//! draws one [`SolveScratch`] + [`DeltaScratch`] pair from the pool for
//! its whole run, so after the first destination a worker allocates
//! nothing per solve: the table cells, sweep words and pending lists
//! are recycled between destinations. A pool that outlives the call
//! extends that reuse across *calls*: shard workers solving many blocks
//! against one topology park their arenas between blocks instead of
//! reallocating them. [`par_over_dests_whatif`] and [`par_over_dests`] are its two
//! closure shapes over a pool built for the call.
//!
//! The per-destination closure gets a [`WhatIf`]: the destination's base
//! solve, plus failed-link variants answered through the delta engine
//! (fail one link, look, revert) instead of full re-solves.

use crate::solver::{DeltaScratch, RoutingState, RowSolve, SolveScratch};
use miro_topology::{NodeId, Topology};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counters for one destination's what-if sweep (see [`WhatIf`]).
#[derive(Clone, Copy, Default, Debug)]
pub struct WhatIfStats {
    /// What-if variants answered against this base solve.
    pub what_ifs: usize,
    /// Variants that moved no route — the link is one the base routing
    /// tree never used, or names no link at all — answered straight from
    /// the cached base with zero recomputation.
    pub skipped: usize,
    /// Total nodes recomputed across all variants.
    pub recomputed: usize,
}

/// What a [`WhatIf::without_link`] closure sees: the base state re-solved
/// without the link (through `Deref`), plus what the delta cost.
pub struct FailedLink<'a, 't> {
    st: &'a RoutingState<'t>,
    recomputed: usize,
    disconnected: usize,
}

impl<'t> std::ops::Deref for FailedLink<'_, 't> {
    type Target = RoutingState<'t>;

    fn deref(&self) -> &RoutingState<'t> {
        self.st
    }
}

impl FailedLink<'_, '_> {
    /// Nodes whose base route the failure changed: the invalidated cone
    /// plus any downstream nodes the improvement wave reached. Zero when
    /// the link was off the base routing tree — the skip case where the
    /// answer is served straight from the base solve.
    pub fn recomputed(&self) -> usize {
        self.recomputed
    }

    /// Cone nodes that lost reachability entirely under the failure.
    pub fn disconnected(&self) -> usize {
        self.disconnected
    }
}

/// The what-if cache: one unmasked base solve per destination, with every
/// failed-link variant answered by the delta engine — fail the link,
/// show the closure the re-solved state, revert. Variants whose link the
/// base solution never touches — the common case in Table 5.2-style
/// sweeps — cost O(1) beyond candidate suppression.
pub struct WhatIf<'s, 't> {
    base: RoutingState<'t>,
    delta: &'s mut DeltaScratch,
    stats: WhatIfStats,
}

impl<'s, 't> WhatIf<'s, 't> {
    /// Panics unless `base` is a solve with no link failed: a variant
    /// fails one link and un-fails it afterwards.
    pub fn new(base: RoutingState<'t>, delta: &'s mut DeltaScratch) -> WhatIf<'s, 't> {
        assert!(base.failed_links().is_empty(), "what-if requires an unmasked base solve");
        WhatIf { base, delta, stats: WhatIfStats::default() }
    }

    /// The cached unmasked solve.
    pub fn base(&self) -> &RoutingState<'t> {
        &self.base
    }

    /// Answer one failed-link variant: `f` sees the incrementally
    /// re-solved state (plus its cone statistics) and the base is
    /// restored, bit for bit, before this returns. A self-loop or an
    /// endpoint outside the topology fails nothing: `f` sees the base.
    pub fn without_link<R>(
        &mut self,
        a: NodeId,
        b: NodeId,
        f: impl FnOnce(&FailedLink<'_, 't>) -> R,
    ) -> R {
        let link = self.base.link(a, b);
        let disconnected = self.base.fail(link.as_slice(), self.delta);
        let recomputed = self.delta.changed();
        let out = f(&FailedLink { st: &self.base, recomputed, disconnected });
        self.base.revert(link.as_slice(), self.delta);
        self.stats.what_ifs += 1;
        self.stats.recomputed += recomputed;
        if recomputed == 0 {
            self.stats.skipped += 1;
        }
        out
    }

    /// Counters accumulated over every [`WhatIf::without_link`] call.
    pub fn stats(&self) -> WhatIfStats {
        self.stats
    }

    /// Take the base solve back (e.g. to recycle its storage).
    pub fn into_base(self) -> RoutingState<'t> {
        self.base
    }
}

/// Partition `num_dests` destinations into fixed-size contiguous blocks:
/// the dispatch unit of the sharded whole-table service (`miro
/// shard-solve`). Block `b` covers destination indices
/// `b*block_size .. min((b+1)*block_size, num_dests)`; the final block may
/// be short. Both the coordinator and its workers derive block extents
/// from this one function, so an `(block_id, start, len)` assignment means
/// the same destinations on both sides of the protocol.
pub fn dest_blocks(
    num_dests: usize,
    block_size: usize,
) -> impl ExactSizeIterator<Item = std::ops::Range<usize>> {
    let bs = block_size.max(1);
    let blocks = num_dests.div_ceil(bs);
    (0..blocks).map(move |b| (b * bs)..((b + 1) * bs).min(num_dests))
}

/// Block-granularity counterpart of the engine's claim schedule: the
/// [`dest_blocks`] ids reordered so the blocks with the most total
/// adjacency (the slow ones) dispatch first, ties by block id. Feeding
/// this to the shard coordinator keeps the last assignments of a job
/// cheap, so a straggling worker holds up the tail as little as
/// possible. Block *extents* are unchanged — only dispatch order moves —
/// so the assembled table is identical.
pub fn heavy_blocks_first(topo: &Topology, dests: &[NodeId], block_size: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..dest_blocks(dests.len(), block_size).len() as u32).collect();
    let weight: Vec<usize> = dest_blocks(dests.len(), block_size)
        .map(|r| r.map(|i| topo.degree(dests[i])).sum())
        .collect();
    ids.sort_by_key(|&b| (Reverse(weight[b as usize]), b));
    ids
}

/// The claim schedule: `schedule[k]` is the destination index the `k`-th
/// claim takes — high-degree (slow) destinations first, ties by index,
/// so the tail of the run never straggles behind one late-dispatched
/// tier-1 solve.
fn claim_schedule(topo: &Topology, dests: &[NodeId]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..dests.len() as u32).collect();
    idx.sort_by_key(|&i| (Reverse(topo.degree(dests[i as usize])), i));
    idx
}

/// Pool of per-thread solve arenas, and the engine that runs against it.
///
/// One [`ScratchPool::over_dests`] call reuses one scratch pair per
/// thread for its whole run; a pool kept across calls against the same
/// topology — a shard worker solving hundreds of blocks — parks the
/// arenas between them, so the steady state of a long job allocates
/// nothing at all. Arenas are presized to the topology
/// ([`SolveScratch::for_nodes`]), so even the pool's first use is
/// allocation-free inside the solve loop.
pub struct ScratchPool {
    nodes: usize,
    slots: Mutex<Vec<(SolveScratch, DeltaScratch)>>,
}

impl ScratchPool {
    /// An empty pool for an `n`-node topology.
    pub fn for_nodes(nodes: usize) -> ScratchPool {
        ScratchPool { nodes, slots: Mutex::new(Vec::new()) }
    }

    /// Arenas currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.slots.lock().expect("scratch pool poisoned").len()
    }

    fn take(&self) -> (SolveScratch, DeltaScratch) {
        if let Some(pair) = self.slots.lock().expect("scratch pool poisoned").pop() {
            return pair;
        }
        (SolveScratch::for_nodes(self.nodes), DeltaScratch::for_nodes(self.nodes))
    }

    fn give(&self, pair: (SolveScratch, DeltaScratch)) {
        self.slots.lock().expect("scratch pool poisoned").push(pair);
    }

    /// Solve each destination's routing state and map `f` over them, each
    /// worker thread drawing its arenas from (and returning them to) this
    /// pool; results come back in destination order regardless of thread
    /// count. `f` gets the destination's index in `dests` (a repeated
    /// destination is solved once per index) and a mutable [`WhatIf`]
    /// holding its base solve, and can answer any number of failed-link
    /// variants through the per-thread delta scratch.
    pub fn over_dests<T, F>(&self, topo: &Topology, dests: &[NodeId], threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut WhatIf<'_, '_>) -> T + Sync,
    {
        self.run(topo, dests, threads, |i, scratch, delta| {
            let mut wi = WhatIf::new(RoutingState::solve_into(topo, dests[i], scratch), delta);
            let out = f(i, &mut wi);
            wi.into_base().recycle(scratch);
            out
        })
    }

    /// [`ScratchPool::over_dests`] for route-table rows: each destination
    /// is a [`RowSolve`] (the sweeps without the pull pass), which is all
    /// a row stores.
    pub fn over_rows<T, F>(&self, topo: &Topology, dests: &[NodeId], threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &RowSolve<'_>) -> T + Sync,
    {
        self.run(topo, dests, threads, |i, scratch, _| {
            let row = RowSolve::solve_into(topo, dests[i], scratch);
            let out = f(i, &row);
            row.recycle(scratch);
            out
        })
    }

    /// Map `solve(i, scratch, delta)` over the indices of `dests`, each
    /// thread on one arena pair of the pool, results in index order.
    fn run<T, F>(&self, topo: &Topology, dests: &[NodeId], threads: usize, solve: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut SolveScratch, &mut DeltaScratch) -> T + Sync,
    {
        let threads = threads.max(1).min(dests.len().max(1));
        if threads == 1 {
            let (mut scratch, mut delta) = self.take();
            let out = (0..dests.len()).map(|i| solve(i, &mut scratch, &mut delta)).collect();
            self.give((scratch, delta));
            return out;
        }

        let schedule = claim_schedule(topo, dests);
        let next = AtomicUsize::new(0);
        let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        let (mut scratch, mut delta) = self.take();
                        while let Some(&i) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let i = i as usize;
                            local.push((i, solve(i, &mut scratch, &mut delta)));
                        }
                        self.give((scratch, delta));
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        // Deterministic merge: every index is produced exactly once,
        // regardless of which thread claimed it or in what order.
        let mut slots: Vec<Option<T>> = Vec::with_capacity(dests.len());
        slots.resize_with(dests.len(), || None);
        for buf in buffers {
            for (i, out) in buf {
                debug_assert!(slots[i].is_none(), "destination solved twice");
                slots[i] = Some(out);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every destination produced a result"))
            .collect()
    }
}

/// [`ScratchPool::over_dests`] against a pool built for this call.
pub fn par_over_dests_whatif<T, F>(
    topo: &Topology,
    dests: &[NodeId],
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(NodeId, &mut WhatIf<'_, '_>) -> T + Sync,
{
    ScratchPool::for_nodes(topo.num_nodes()).over_dests(topo, dests, threads, |i, wi| f(dests[i], wi))
}

/// [`par_over_dests_whatif`] for closures that only read the base solve.
pub fn par_over_dests<T, F>(topo: &Topology, dests: &[NodeId], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(NodeId, &RoutingState<'_>) -> T + Sync,
{
    par_over_dests_whatif(topo, dests, threads, |d, wi| f(d, wi.base()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::GenParams;

    #[test]
    fn thread_counts_agree_including_candidates() {
        let t = GenParams::tiny(7).generate();
        let dests: Vec<NodeId> = t.nodes().take(12).collect();
        // A closure exercising the learned-routes surface, not just best.
        let probe = |d: NodeId, st: &RoutingState<'_>| {
            let mut sig = Vec::new();
            for x in t.nodes().take(20) {
                sig.push((d, x, st.candidates(x).len(), st.path(x)));
            }
            sig
        };
        let base = par_over_dests(&t, &dests, 1, probe);
        assert_eq!(base.len(), dests.len());
        for (row, &d) in base.iter().zip(&dests) {
            assert_eq!(row[0].0, d, "results in destination order");
        }
        for threads in [2, 4, 8] {
            assert_eq!(
                par_over_dests(&t, &dests, threads, probe),
                base,
                "{threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn more_threads_than_dests_is_fine() {
        let t = GenParams::tiny(8).generate();
        let dests: Vec<NodeId> = t.nodes().take(3).collect();
        let out = par_over_dests(&t, &dests, 64, |d, st| (d, st.reachable_count()));
        assert_eq!(out.len(), 3);
        for (i, &(d, _)) in out.iter().enumerate() {
            assert_eq!(d, dests[i]);
        }
    }

    #[test]
    fn dest_blocks_tile_the_destination_space() {
        for (n, bs) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (12, 1), (7, 100)] {
            let blocks: Vec<_> = dest_blocks(n, bs).collect();
            assert_eq!(blocks.len(), n.div_ceil(bs.max(1)), "n={n} bs={bs}");
            let flat: Vec<usize> = blocks.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} bs={bs}");
            for r in &blocks[..blocks.len().saturating_sub(1)] {
                assert_eq!(r.len(), bs, "only the last block may be short");
            }
        }
        // A zero block size is clamped, not a divide-by-zero.
        assert_eq!(dest_blocks(3, 0).count(), 3);
    }

    #[test]
    fn empty_dest_list() {
        let t = GenParams::tiny(9).generate();
        let out = par_over_dests(&t, &[], 4, |d, _| d);
        assert!(out.is_empty());
    }

    #[test]
    fn whatif_variants_match_full_masked_solves() {
        let t = GenParams::tiny(11).generate();
        let dests: Vec<NodeId> = t.nodes().take(6).collect();
        // For each destination, fail the first hop of the three
        // highest-numbered routed nodes and record the rerouted paths.
        let probe = |d: NodeId, wi: &mut WhatIf<'_, '_>| {
            let mut victims: Vec<(NodeId, NodeId)> = t
                .nodes()
                .filter(|&v| v != d)
                .filter_map(|v| wi.base().best(v).map(|b| (v, b.next)))
                .collect();
            victims.truncate(3);
            let mut sig = Vec::new();
            for (v, hop) in victims {
                sig.push(wi.without_link(v, hop, |failed| {
                    (failed.recomputed(), failed.path(v), failed.reachable_count())
                }));
            }
            (sig, wi.stats().what_ifs)
        };
        let serial = par_over_dests_whatif(&t, &dests, 1, probe);
        assert_eq!(par_over_dests_whatif(&t, &dests, 4, probe), serial);

        // Spot-check against the full masked solve.
        let d = dests[0];
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve(&t, d), &mut delta);
        let v = t.nodes().find(|&v| v != d).unwrap();
        let hop = wi.base().best(v).unwrap().next;
        let full = RoutingState::solve_without_link(&t, d, v, hop);
        wi.without_link(v, hop, |failed| {
            for x in t.nodes() {
                assert_eq!(failed.best(x), full.best(x));
            }
        });
    }

    #[test]
    fn whatif_skips_links_off_the_base_tree() {
        let t = GenParams::tiny(12).generate();
        let d = t.nodes().next().unwrap();
        let out = par_over_dests_whatif(&t, &[d], 1, |d, wi| {
            // A link between two non-adjacent-to-the-tree... any edge
            // whose endpoints both route *around* it: pick a node pair
            // where neither routes via the other.
            let off = t
                .nodes()
                .flat_map(|x| t.neighbors(x).iter().map(move |&(y, _)| (x, y)))
                .find(|&(x, y)| {
                    x < y
                        && wi.base().best(x).is_some_and(|b| b.next != y)
                        && wi.base().best(y).is_some_and(|b| b.next != x)
                })
                .expect("some edge is off the routing tree");
            wi.without_link(off.0, off.1, |failed| assert_eq!(failed.recomputed(), 0));
            let _ = d;
            wi.stats()
        });
        assert_eq!(out[0].what_ifs, 1);
        assert_eq!(out[0].skipped, 1);
        assert_eq!(out[0].recomputed, 0);
    }

    /// The full route table for every destination: the byte-for-byte
    /// signature the schedule and the pool must never change.
    fn full_tables(
        t: &Topology,
        dests: &[NodeId],
        threads: usize,
        pool: Option<&ScratchPool>,
    ) -> Vec<Vec<Option<crate::solver::BestRoute>>> {
        let row = |wi: &mut WhatIf<'_, '_>| t.nodes().map(|x| wi.base().best(x)).collect();
        match pool {
            Some(pool) => pool.over_dests(t, dests, threads, |_, wi| row(wi)),
            None => par_over_dests_whatif(t, dests, threads, |_, wi| row(wi)),
        }
    }

    #[test]
    fn schedule_and_threads_never_change_the_table() {
        let t = GenParams::tiny(13).generate();
        let dests: Vec<NodeId> = t.nodes().take(24).collect();
        // One thread claims in slice order: the determinism reference.
        let base = full_tables(&t, &dests, 1, None);
        let pool = ScratchPool::for_nodes(t.num_nodes());
        for threads in [1, 2, 8] {
            assert_eq!(full_tables(&t, &dests, threads, None), base, "{threads} threads diverged");
            assert_eq!(
                full_tables(&t, &dests, threads, Some(&pool)),
                base,
                "{threads} threads (pooled) diverged"
            );
        }
        // The pool really parked scratch for reuse across those runs.
        assert!(pool.parked() >= 1, "pool never parked a scratch pair");
    }

    #[test]
    fn claim_schedule_is_a_permutation_by_degree() {
        let t = GenParams::tiny(14).generate();
        let dests: Vec<NodeId> = t.nodes().take(16).collect();
        let sched = claim_schedule(&t, &dests);
        let mut seen = sched.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..dests.len() as u32).collect::<Vec<_>>());
        for w in sched.windows(2) {
            let (a, b) = (dests[w[0] as usize], dests[w[1] as usize]);
            assert!(
                t.degree(a) > t.degree(b) || (t.degree(a) == t.degree(b) && w[0] < w[1]),
                "schedule not degree-descending with index tie-break"
            );
        }
    }

    #[test]
    fn heavy_blocks_first_is_a_weight_ordered_permutation() {
        let t = GenParams::tiny(15).generate();
        let dests: Vec<NodeId> = t.nodes().take(21).collect();
        let order = heavy_blocks_first(&t, &dests, 4);
        assert_eq!(order.len(), dest_blocks(dests.len(), 4).len());
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..order.len() as u32).collect::<Vec<_>>());
        let weight: Vec<usize> = dest_blocks(dests.len(), 4)
            .map(|r| r.map(|i| t.degree(dests[i])).sum())
            .collect();
        for w in order.windows(2) {
            let (a, b) = (weight[w[0] as usize], weight[w[1] as usize]);
            assert!(a > b || (a == b && w[0] < w[1]), "blocks not heaviest-first");
        }
    }
}
