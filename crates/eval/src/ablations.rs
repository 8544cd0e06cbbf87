//! Design-choice ablations beyond the paper's own figures (indexed in
//! DESIGN.md):
//!
//! * **overlay baseline** — the section 2.1.3 comparison: overlay
//!   networks relay through intermediate hosts but cannot control the
//!   underlay, so avoidance works only when *both* underlay legs dodge
//!   the offender, and breaks silently when the underlay reroutes
//!   (Figure 2.3's case b);
//! * **multi-hop negotiation** — the section 3.3 extension where a
//!   responding AS queries its neighbors to satisfy a request;
//! * **targeting strategies** — on-path vs 1-hop vs combined success
//!   rates (their *cost* is measured by the `strategy` bench group);
//! * **prefix de-aggregation** — today's inbound-control hack the paper's
//!   footnote calls out ("announcing small subnets increases
//!   routing-table size without providing precise control"), quantified:
//!   global forwarding-state cost of subnet splitting vs one MIRO tunnel.

use crate::datasets::{Dataset, EvalConfig};
use crate::driver;
use miro_bgp::solver::{RoutingState, SolveScratch};
use miro_core::export::ResponderConfig;
use miro_core::strategy::{
    avoid_via_multihop_negotiation, avoid_via_negotiation, avoidable_ases, TargetStrategy,
};
use miro_topology::stats::top_degree_nodes;
use miro_topology::NodeId;
use serde::Serialize;

/// Success rates on the same avoid-AS triples for every architecture in
/// the extended comparison.
#[derive(Serialize, Clone, Debug)]
pub struct AblationRow {
    pub name: String,
    pub success_pct: f64,
}

/// Overlay-network avoidance: with relay nodes at the `k` highest-degree
/// ASes, a source avoids `avoid` iff some relay has both underlay legs
/// (src -> relay, relay -> dst) clean. `relay_states[i]` must be the
/// routing state toward `relays[i]`.
pub fn overlay_avoids(
    relays: &[NodeId],
    relay_states: &[RoutingState<'_>],
    dest_state: &RoutingState<'_>,
    src: NodeId,
    avoid: NodeId,
) -> bool {
    relays.iter().zip(relay_states).any(|(&r, rst)| {
        if r == src || r == avoid || r == dest_state.dest() {
            return false;
        }
        let leg1 = rst.path(src);
        let leg2 = dest_state.path(r);
        matches!((leg1, leg2), (Some(a), Some(b))
            if !a.contains(&avoid) && !b.contains(&avoid))
    })
}

/// Compare architectures on freshly sampled triples: single-path BGP,
/// overlay (k relays), MIRO direct (`/e`), MIRO multi-hop (`/e`), source
/// routing.
pub fn architecture_comparison(
    ds: &Dataset,
    cfg: &EvalConfig,
    relay_count: usize,
) -> Vec<AblationRow> {
    let relays = top_degree_nodes(&ds.topo, relay_count);
    let relay_states: Vec<RoutingState<'_>> =
        relays.iter().map(|&r| RoutingState::solve(&ds.topo, r)).collect();

    let dests = driver::sample_dests(&ds.topo, cfg.dest_samples, cfg.seed ^ 0xAB);
    let mut counts = [0usize; 6];
    let mut total = 0usize;
    // The relay states above must all stay alive at once, but the
    // per-destination state is transient — recycle its storage.
    let mut scratch = SolveScratch::new();
    for &d in &dests {
        let st = RoutingState::solve_into(&ds.topo, d, &mut scratch);
        let mut rng = driver::rng_for(cfg.seed, d, 0xAB1);
        for src in driver::sample_srcs(&ds.topo, d, cfg.src_samples / 2, cfg.seed ^ 0xAB2) {
            let eligible = avoidable_ases(&st, src);
            if eligible.is_empty() {
                continue;
            }
            use rand::Rng;
            let avoid = eligible[rng.gen_range(0..eligible.len())];
            total += 1;
            if st.candidates(src).iter().any(|c| !c.traverses(avoid)) {
                counts[0] += 1;
            }
            // NS-BGP defaults: richer rib-in, still no negotiation.
            if miro_bgp::ns::ns_single_path_avoids(&st, src, avoid) {
                counts[1] += 1;
            }
            if overlay_avoids(&relays, &relay_states, &st, src, avoid) {
                counts[2] += 1;
            }
            if avoid_via_negotiation(
                &st,
                src,
                avoid,
                &ResponderConfig::default(),
                TargetStrategy::OnPath,
                None,
            )
            .success
            {
                counts[3] += 1;
            }
            if avoid_via_multihop_negotiation(
                &st,
                src,
                avoid,
                &ResponderConfig::default(),
                TargetStrategy::OnPath,
                None,
            )
            .success
            {
                counts[4] += 1;
            }
            if ds.topo.reachable_avoiding(src, d, avoid) {
                counts[5] += 1;
            }
        }
        st.recycle(&mut scratch);
    }
    let names = [
        "single-path BGP",
        "NS-BGP defaults (no negotiation)",
        "overlay (relays at top-degree ASes)",
        "MIRO /e direct",
        "MIRO /e multi-hop",
        "source routing (upper bound)",
    ];
    names
        .iter()
        .zip(counts)
        .map(|(n, c)| AblationRow {
            name: n.to_string(),
            success_pct: 100.0 * c as f64 / total.max(1) as f64,
        })
        .collect()
}

/// Targeting-strategy ablation over pre-computed probes is not possible
/// (probes are on-path); this variant re-runs the negotiation per
/// strategy on sampled triples.
pub fn strategy_comparison(ds: &Dataset, cfg: &EvalConfig) -> Vec<AblationRow> {
    let dests = driver::sample_dests(&ds.topo, cfg.dest_samples, cfg.seed ^ 0xCD);
    let strategies = [
        TargetStrategy::OnPath,
        TargetStrategy::OneHop,
        TargetStrategy::OnPathThenNeighbors,
    ];
    let results = miro_bgp::engine::par_over_dests(&ds.topo, &dests, cfg.threads, |d, st| {
        let mut rng = driver::rng_for(cfg.seed, d, 0xCD1);
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for src in driver::sample_srcs(&ds.topo, d, cfg.src_samples / 2, cfg.seed ^ 0xCD2) {
            let eligible = avoidable_ases(st, src);
            if eligible.is_empty() {
                continue;
            }
            use rand::Rng;
            let avoid = eligible[rng.gen_range(0..eligible.len())];
            total += 1;
            for (i, &strat) in strategies.iter().enumerate() {
                if avoid_via_negotiation(
                    st,
                    src,
                    avoid,
                    &ResponderConfig::default(),
                    strat,
                    None,
                )
                .success
                {
                    counts[i] += 1;
                }
            }
        }
        (counts, total)
    });
    let mut counts = [0usize; 3];
    let mut total = 0usize;
    for (c, t) in results {
        for i in 0..3 {
            counts[i] += c[i];
        }
        total += t;
    }
    strategies
        .iter()
        .zip(counts)
        .map(|(s, c)| AblationRow {
            name: s.label().to_string(),
            success_pct: 100.0 * c as f64 / total.max(1) as f64,
        })
        .collect()
}

/// Prefix de-aggregation cost model (the section 1.2 footnote): a
/// multi-homed stub that splits its prefix into `2^k` subnets to steer
/// inbound traffic adds `2^k` extra routing-table entries at *every* AS
/// in the Internet; a MIRO negotiation adds tunnel state at exactly two
/// ASes. Returns (deagg_entries_global, miro_entries_global) for one
/// stub's steering action.
pub fn deaggregation_cost(topo: &miro_topology::Topology, split_bits: u32) -> (usize, usize) {
    let subnets = 1usize << split_bits;
    // Every AS holds every announced prefix: the whole table grows.
    let deagg = subnets * topo.num_nodes();
    // MIRO: one lease, state at the two endpoints.
    let miro = 2;
    (deagg, miro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::gen::DatasetPreset;

    fn ds_and_cfg() -> (Dataset, EvalConfig) {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build(DatasetPreset::Gao2005, &cfg);
        (ds, cfg)
    }

    #[test]
    fn architecture_ordering_holds() {
        let (ds, cfg) = ds_and_cfg();
        let rows = architecture_comparison(&ds, &cfg, 6);
        assert_eq!(rows.len(), 6);
        let v: Vec<f64> = rows.iter().map(|r| r.success_pct).collect();
        // single <= NS-BGP defaults <= source; single <= MIRO direct <=
        // MIRO multi-hop <= source routing.
        assert!(v[0] <= v[1] + 1e-9, "NS-BGP defaults can only add: {rows:?}");
        assert!(v[0] <= v[3] + 1e-9, "{rows:?}");
        assert!(v[3] <= v[4] + 1e-9, "{rows:?}");
        assert!(v[4] <= v[5] + 1e-9, "{rows:?}");
        // Overlay and NS-BGP stay below the source bound.
        assert!(v[1] <= v[5] + 1e-9, "{rows:?}");
        assert!(v[2] <= v[5] + 1e-9, "{rows:?}");
    }

    #[test]
    fn overlay_breaks_when_both_legs_cross_the_offender() {
        // Figure 2.3 case b, distilled: the only relay's leg crosses the
        // avoided AS, so the overlay cannot help even though a clean
        // underlay path exists for MIRO.
        let (ds, _) = ds_and_cfg();
        let relays = top_degree_nodes(&ds.topo, 1);
        let relay_states: Vec<_> =
            relays.iter().map(|&r| RoutingState::solve(&ds.topo, r)).collect();
        let d = ds.topo.nodes().last().unwrap();
        let st = RoutingState::solve(&ds.topo, d);
        // Avoiding the relay itself always defeats the overlay.
        for src in ds.topo.nodes().take(20) {
            assert!(!overlay_avoids(&relays, &relay_states, &st, src, relays[0]));
        }
    }

    #[test]
    fn strategy_comparison_shapes() {
        let (ds, cfg) = ds_and_cfg();
        let rows = strategy_comparison(&ds, &cfg);
        assert_eq!(rows.len(), 3);
        let on_path = rows[0].success_pct;
        let combined = rows[2].success_pct;
        assert!(combined >= on_path - 1e-9, "combined covers on-path: {rows:?}");
    }

    #[test]
    fn deaggregation_is_orders_of_magnitude_costlier() {
        let (ds, _) = ds_and_cfg();
        let (deagg, miro) = deaggregation_cost(&ds.topo, 2);
        assert_eq!(miro, 2);
        assert!(deagg >= ds.topo.num_nodes() * 4);
        assert!(deagg / miro > 100, "the footnote's point, quantified");
    }
}
