//! `whatif_sweep`: the same delta kernel as `churn_flap`, used the other
//! way: failures only, RAII undo after every variant, never a
//! restoration, base solves amortised over many variants.
//!
//! `bgp::engine::par_over_dests_whatif` on two threads; per destination
//! the closure answers `whatif_variants` `WhatIf::without_link`
//! variants, alternating a link on the destination's routing tree and a
//! uniformly random link (the `miro-eval failures` pattern). One sweep
//! over the destination sample is one round of fixed work.

use crate::ctx::{Ctx, Inputs, Layers, Measured, Workload};
use crate::keys::Rng;
use crate::procfs::{self, Who};
use crate::trace::Tracer;
use crate::workloads::probes;
use miro_bgp::engine::{par_over_dests_whatif, WhatIf};
use miro_bgp::RoutingState;
use miro_shard::sample_dests;
use miro_topology::{NodeId, Topology};
use std::time::Instant;

const THREADS: usize = 2;
/// One variant in this many is re-solved from scratch and compared.
const CHECK_EVERY: usize = 4096;
/// Traced pass: one variant in this many is timed on its own.
const TIME_EVERY: usize = 16;

pub struct WhatifSweep {
    inputs: Inputs,
    dests: Vec<NodeId>,
    /// `(seconds, recomputed)` of the traced pass's sampled variants.
    sampled: Vec<(f64, usize)>,
    skipped: u64,
    recomputed: u64,
}

/// What one destination's closure hands back.
struct DestResult {
    start: Instant,
    end: Instant,
    what_ifs: usize,
    skipped: usize,
    recomputed: usize,
    /// Oracle disagreements: variants that differ from a from-scratch
    /// masked solve, plus a base row the undo failed to restore.
    wrong: usize,
    checked: usize,
    sampled: Vec<(f64, usize)>,
}

/// Cheap digest of a solved row, enough to notice one changed route.
fn row_digest(st: &RoutingState<'_>, n: usize) -> u64 {
    (0..n as NodeId).fold(0u64, |h, x| {
        let cell = match st.best(x) {
            Some(b) => ((b.next as u64) << 24) ^ ((b.len as u64) << 8) ^ b.class as u64,
            None => u64::MAX,
        };
        (h ^ cell)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23)
    })
}

/// Does the incremental view under a failed link equal a from-scratch
/// solve without it?
pub fn variant_matches_resolve(
    view: &RoutingState<'_>,
    topo: &Topology,
    a: NodeId,
    b: NodeId,
) -> bool {
    let fresh = RoutingState::solve_without_link(topo, view.dest(), a, b);
    topo.nodes().all(|x| view.best(x) == fresh.best(x))
}

fn sweep_dest(
    topo: &Topology,
    d: NodeId,
    wi: &mut WhatIf<'_, '_>,
    variants: usize,
    seed: u64,
    timed: bool,
) -> DestResult {
    let start = Instant::now();
    let n = topo.num_nodes();
    let mut rng = Rng::new(seed ^ ((d as u64) << 20));
    let before = row_digest(wi.base(), n);
    let routed: Vec<NodeId> = topo
        .nodes()
        .filter(|&v| v != d && wi.base().best(v).is_some())
        .collect();
    let (mut wrong, mut checked) = (0usize, 0usize);
    let mut sampled = Vec::new();
    for k in 0..variants {
        let (a, b) = if k % 2 == 0 && !routed.is_empty() {
            // A link the routing tree provably uses.
            let v = routed[rng.below(routed.len())];
            (v, wi.base().best(v).expect("filtered on routed").next)
        } else {
            // Any link of the graph.
            let v = rng.below(n) as NodeId;
            let nbrs = topo.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            (v, nbrs[rng.below(nbrs.len())].0)
        };
        let check = (d as usize + k).is_multiple_of(CHECK_EVERY);
        let t = (timed && k % TIME_EVERY < 2).then(Instant::now);
        let recomputed = wi.without_link(a, b, |f| {
            std::hint::black_box(f.disconnected());
            if check {
                checked += 1;
                wrong += !variant_matches_resolve(f, topo, a, b) as usize;
            }
            f.recomputed()
        });
        if let (Some(t), false) = (t, check) {
            sampled.push((t.elapsed().as_secs_f64(), recomputed));
        }
    }
    checked += 1;
    wrong += (row_digest(wi.base(), n) != before) as usize;
    let stats = wi.stats();
    DestResult {
        start,
        end: Instant::now(),
        what_ifs: stats.what_ifs,
        skipped: stats.skipped,
        recomputed: stats.recomputed,
        wrong,
        checked,
        sampled,
    }
}

impl Workload for WhatifSweep {
    const NAME: &'static str = "whatif_sweep";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<WhatifSweep, String> {
        let inputs = Inputs::prepare(ctx, tr)?;
        let dests = sample_dests(inputs.topo.num_nodes(), ctx.scale.whatif_dests);
        Ok(WhatifSweep {
            inputs,
            dests,
            sampled: Vec::new(),
            skipped: 0,
            recomputed: 0,
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String> {
        let topo = &self.inputs.topo;
        let (variants, seed, timed) = (ctx.scale.whatif_variants, ctx.seed, tr.is_on());
        let mut m = Measured::default();
        let mut sampled = Vec::new();
        let (mut skipped, mut recomputed) = (0u64, 0u64);
        procfs::reset_own_hwm();
        let start = Instant::now();
        while m.round_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = m.round_rates.len() as u64;
            let cpu0 = procfs::usage(Who::Me).cpu;
            let t0 = Instant::now();
            let whole = tr.enter("bgp.engine.par_over_dests_whatif", round);
            let results = par_over_dests_whatif(topo, &self.dests, THREADS, |d, wi| {
                sweep_dest(topo, d, wi, variants, seed, timed)
            });
            let wall = t0.elapsed().as_secs_f64();
            let cpu = (procfs::usage(Who::Me).cpu - cpu0).as_secs_f64();
            let mut ops = 0u64;
            for r in results {
                if tr.is_on() {
                    tr.record("whatif_sweep.dest_variants", round, r.start, r.end);
                    m.unit_us.push((r.end - r.start).as_secs_f64() * 1e6);
                }
                ops += r.what_ifs as u64;
                skipped += r.skipped as u64;
                recomputed += r.recomputed as u64;
                // A wrong sample stands for the variants it was drawn from.
                m.failed += (r.wrong as u64 * r.what_ifs as u64).div_ceil(r.checked as u64);
                sampled.extend(r.sampled);
            }
            tr.exit(whole);
            m.round(ops, wall, cpu);
            m.attempted += ops;
        }
        m.peak_rss_kb = procfs::vm_hwm_kb(std::process::id())?;
        if timed {
            self.sampled.extend(sampled);
            self.skipped += skipped;
            self.recomputed += recomputed;
        }
        Ok(m)
    }

    fn probes(
        &mut self,
        _ctx: &Ctx,
        traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let mean = |on_tree: bool| {
            let v: Vec<f64> = self
                .sampled
                .iter()
                .filter(|(_, r)| (*r > 0) == on_tree)
                .map(|(s, _)| *s)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        out.insert("bgp.solver.whatif_tree_us", mean(true) * 1e6);
        out.insert("bgp.solver.whatif_offtree_ns", mean(false) * 1e9);
        out.insert(
            "bgp.solver.whatif_skip_share",
            self.skipped as f64 / traced.ops as f64,
        );
        let tree = traced.ops - self.skipped;
        out.insert(
            "bgp.solver.whatif_mean_cone",
            self.recomputed as f64 / tree.max(1) as f64,
        );
        probes::solver(&self.inputs.topo, &self.dests, tr, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::{DeltaScratch, SolveScratch};

    #[test]
    fn a_view_of_the_wrong_link_fails_the_whatif_oracle() {
        let topo = miro_topology::GenParams::tiny(7).generate();
        let d: NodeId = 0;
        let mut scratch = SolveScratch::new();
        let mut delta = DeltaScratch::new();
        let mut wi = WhatIf::new(RoutingState::solve_into(&topo, d, &mut scratch), &mut delta);
        // Two different links of d's routing tree.
        let on_tree: Vec<(NodeId, NodeId)> = topo
            .nodes()
            .filter(|&v| v != d)
            .filter_map(|v| wi.base().best(v).map(|b| (v, b.next)))
            .collect();
        let ((a, b), (c, e)) = (
            on_tree[0],
            *on_tree.iter().find(|l| **l != on_tree[0]).unwrap(),
        );
        let before = row_digest(wi.base(), topo.num_nodes());
        assert!(wi.without_link(a, b, |f| variant_matches_resolve(f, &topo, a, b)));
        assert!(!wi.without_link(a, b, |f| variant_matches_resolve(f, &topo, c, e)));
        assert_eq!(
            row_digest(wi.base(), topo.num_nodes()),
            before,
            "the undo restores the base row"
        );
        let changed = wi.without_link(a, b, |f| row_digest(f, topo.num_nodes()));
        assert_ne!(changed, before, "the digest sees a failed tree link");
    }

    #[test]
    fn a_sweep_is_clean_and_counts_every_variant() {
        let topo = miro_topology::GenParams::tiny(7).generate();
        let dests: Vec<NodeId> = topo.nodes().take(6).collect();
        let results = par_over_dests_whatif(&topo, &dests, 2, |d, wi| {
            sweep_dest(&topo, d, wi, 64, 3, true)
        });
        for r in &results {
            assert_eq!(r.wrong, 0);
            assert!(r.checked >= 1 && r.what_ifs > 0 && r.what_ifs <= 64);
            assert!(r.skipped <= r.what_ifs && !r.sampled.is_empty());
        }
    }
}
