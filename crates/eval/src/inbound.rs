//! Figures 5.6/5.7: controlling incoming traffic at multi-homed stubs.
//!
//! A multi-homed stub wants to move load between its incoming provider
//! links. It finds a "power node" — an AS many sources route through —
//! and asks it to switch to an alternate route entering via a different
//! link (the downstream-initiated negotiation of section 3.3). Following
//! section 5.4 we assume every source AS offers one unit of traffic, and
//! evaluate two propagation models:
//!
//! * **convert_all** — everyone routing through the power node follows it
//!   to the new link (upper bound; the paper notes the power node can
//!   force this on customers with community values);
//! * **independent_selection** — every AS re-runs BGP selection with the
//!   power node's new choice in place and moves only if it now prefers a
//!   path entering elsewhere (lower bound; we re-run the event simulator
//!   with the power node's route pinned).

use crate::datasets::{Dataset, EvalConfig};
use crate::driver;
use miro_bgp::sim::{GaoRexford, RankPolicy, Sim};
use miro_bgp::solver::RoutingState;
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_topology::{NodeId, Topology};
use serde::Serialize;

/// `GaoRexford` with one node pinned to a chosen path (the negotiated
/// switch): the pinned path ranks above everything at that node.
struct Pinned<'a> {
    node: NodeId,
    path: &'a [NodeId],
}

impl RankPolicy for Pinned<'_> {
    fn rank(&self, topo: &Topology, node: NodeId, path: &[NodeId]) -> Option<u64> {
        if node == self.node && path == self.path {
            return Some(0);
        }
        GaoRexford.rank(topo, node, path).map(|r| r + 1)
    }

    fn export(&self, topo: &Topology, node: NodeId, to: NodeId, path: &[NodeId]) -> bool {
        GaoRexford.export(topo, node, to, path)
    }
}

/// Per-stub measurement: the best movable traffic fraction under each
/// (policy, model) combination, and where the best power node sat.
#[derive(Serialize, Clone, Debug)]
pub struct StubOutcome {
    pub stub: u32,
    pub total_sources: usize,
    /// Indexed [strict, flexible] x [convert_all, independent].
    pub best_moved: [[f64; 2]; 2],
    /// Degree and hop distance of the best (flexible/convert) power node.
    pub power_degree: usize,
    pub power_distance: usize,
}

/// The incoming link (provider in front of the stub) a path enters by.
fn entry_of(path: &[NodeId], src: NodeId) -> NodeId {
    if path.len() >= 2 {
        path[path.len() - 2]
    } else {
        src // direct neighbor: the source itself is the entry AS
    }
}

/// Load per entry AS and per-node through-traffic for destination `d`.
fn traffic_profile(
    topo: &Topology,
    st: &RoutingState<'_>,
    d: NodeId,
) -> (std::collections::HashMap<NodeId, usize>, Vec<usize>, usize) {
    let mut entry_load: std::collections::HashMap<NodeId, usize> =
        std::collections::HashMap::new();
    let mut through = vec![0usize; topo.num_nodes()];
    let mut total = 0;
    for s in topo.nodes() {
        if s == d {
            continue;
        }
        let Some(path) = st.path(s) else { continue };
        total += 1;
        *entry_load.entry(entry_of(&path, s)).or_insert(0) += 1;
        through[s as usize] += 1; // the source's own unit passes itself
        for &hop in &path {
            if hop != d {
                through[hop as usize] += 1;
            }
        }
    }
    (entry_load, through, total)
}

/// Evaluate one stub. `power_candidates` and `offers_per_node` bound the
/// search (the paper needs only *one* good power node per stub).
pub fn evaluate_stub(
    topo: &Topology,
    d: NodeId,
    power_candidates: usize,
    offers_per_node: usize,
    sim_budget: usize,
) -> Option<StubOutcome> {
    let st = RoutingState::solve(topo, d);
    let (entry_load, through, total) = traffic_profile(topo, &st, d);
    if total == 0 {
        return None;
    }
    // Rank candidate power nodes by through-traffic.
    let mut cands: Vec<NodeId> = topo.nodes().filter(|&x| x != d).collect();
    cands.sort_by_key(|&x| std::cmp::Reverse(through[x as usize]));
    cands.truncate(power_candidates);

    let levels = [ExportPolicy::Strict, ExportPolicy::Flexible]
        .map(|policy| ResponderConfig { policy, ..Default::default() });
    let mut best = [[0.0f64; 2]; 2];
    let mut best_power: Option<(NodeId, usize)> = None;
    for &p in &cands {
        if through[p as usize] == 0 {
            continue;
        }
        let Some(p_path) = st.path(p) else { continue };
        let e_old = entry_of(&p_path, p);
        for (pi, cfg) in levels.iter().enumerate() {
            // The stub asks p to switch among the routes it holds.
            let offers = cfg.offers(&st, d, p, true);
            for offer in offers
                .iter()
                .filter(|o| entry_of(&o.route.path, p) != e_old)
                .take(offers_per_node)
            {
                // convert_all: everything through p moves.
                let conv = through[p as usize] as f64 / total as f64;
                if conv > best[pi][0] {
                    best[pi][0] = conv;
                    if pi == 1 {
                        best_power = Some((p, p_path.len()));
                    }
                }
                // independent_selection: re-run BGP with p pinned.
                let mut sim = Sim::new(topo, Pinned { node: p, path: &offer.route.path }, d);
                if !sim.run(0xF1F6 ^ p as u64, sim_budget).converged() {
                    continue;
                }
                let mut new_old_link = 0usize;
                for s in topo.nodes() {
                    if s == d {
                        continue;
                    }
                    if let Some(path) = sim.selected(s) {
                        if entry_of(path, s) == e_old {
                            new_old_link += 1;
                        }
                    }
                }
                let old = *entry_load.get(&e_old).unwrap_or(&0);
                let moved = old.saturating_sub(new_old_link) as f64 / total as f64;
                if moved > best[pi][1] {
                    best[pi][1] = moved;
                }
            }
        }
    }
    let (pw, dist) = best_power.unwrap_or((d, 0));
    Some(StubOutcome {
        stub: d,
        total_sources: total,
        best_moved: best,
        power_degree: topo.degree(pw),
        power_distance: dist,
    })
}

/// The Figure 5.6/5.7 result: per-series CDF over stubs.
#[derive(Serialize, Clone, Debug)]
pub struct InboundResult {
    pub dataset: String,
    pub stubs_evaluated: usize,
    pub outcomes: Vec<StubOutcome>,
}

impl InboundResult {
    /// Fraction of stubs whose best power node moves at least `frac` of
    /// the incoming traffic, per series index `[policy][model]`.
    pub fn cdf_at(&self, policy: usize, model: usize, frac: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.best_moved[policy][model] >= frac)
            .count() as f64
            / self.outcomes.len() as f64
    }

    /// Power-node composition stats (the section 5.4 narrative): fraction
    /// of best power nodes that are immediate neighbors of the stub, and
    /// fraction exactly two hops away.
    pub fn power_distance_stats(&self) -> (f64, f64) {
        let with = self
            .outcomes
            .iter()
            .filter(|o| o.power_distance > 0)
            .collect::<Vec<_>>();
        if with.is_empty() {
            return (0.0, 0.0);
        }
        let n = with.len() as f64;
        let one = with.iter().filter(|o| o.power_distance == 1).count() as f64 / n;
        let two = with.iter().filter(|o| o.power_distance == 2).count() as f64 / n;
        (one, two)
    }
}

/// Run the experiment for one dataset.
pub fn fig5_6(ds: &Dataset, cfg: &EvalConfig) -> InboundResult {
    let mut stubs: Vec<NodeId> = ds
        .topo
        .nodes()
        .filter(|&x| ds.topo.is_multihomed_stub(x))
        .collect();
    // Deterministic sample.
    let mut rng = driver::rng_for(cfg.seed, 0, 0x56);
    use rand::seq::SliceRandom;
    stubs.shuffle(&mut rng);
    stubs.truncate(cfg.dest_samples);
    let sim_budget = 200 * ds.topo.num_nodes();
    let outcomes: Vec<Option<StubOutcome>> =
        miro_bgp::engine::par_over_dests(&ds.topo, &stubs, cfg.threads, |d, _st| {
            evaluate_stub(&ds.topo, d, 6, 2, sim_budget)
        });
    let outcomes: Vec<StubOutcome> = outcomes.into_iter().flatten().collect();
    InboundResult {
        dataset: ds.name().to_string(),
        stubs_evaluated: outcomes.len(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::gen::DatasetPreset;

    fn run() -> InboundResult {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build(DatasetPreset::Gao2005, &cfg);
        fig5_6(&ds, &cfg)
    }

    #[test]
    fn entry_detection() {
        assert_eq!(entry_of(&[3, 7, 9], 1), 7);
        assert_eq!(entry_of(&[9], 4), 4);
    }

    #[test]
    fn evaluates_a_reasonable_number_of_stubs() {
        let r = run();
        assert!(r.stubs_evaluated >= 10, "stubs: {}", r.stubs_evaluated);
    }

    #[test]
    fn flexible_dominates_strict_and_convert_dominates_independent() {
        let r = run();
        for o in &r.outcomes {
            // Flexible offers are a superset of strict offers.
            assert!(o.best_moved[1][0] >= o.best_moved[0][0] - 1e-9);
            // convert_all is the paper's upper bound.
            for pi in 0..2 {
                assert!(
                    o.best_moved[pi][0] >= o.best_moved[pi][1] - 1e-9,
                    "convert_all must bound independent: {:?}",
                    o.best_moved
                );
            }
        }
    }

    #[test]
    fn many_stubs_can_move_traffic() {
        // Paper shape: under flexible/convert_all, the vast majority of
        // stubs find a power node moving >= 10% of traffic.
        let r = run();
        assert!(
            r.cdf_at(1, 0, 0.10) > 0.6,
            "flexible/convert at 10%: {}",
            r.cdf_at(1, 0, 0.10)
        );
        // And the independent model still moves traffic for many stubs.
        assert!(
            r.cdf_at(1, 1, 0.05) > 0.2,
            "flexible/independent at 5%: {}",
            r.cdf_at(1, 1, 0.05)
        );
    }

    #[test]
    fn cdf_is_monotone_decreasing_in_threshold() {
        let r = run();
        for pi in 0..2 {
            for mi in 0..2 {
                let mut prev = f64::INFINITY;
                for t in [0.05, 0.1, 0.2, 0.3, 0.5] {
                    let v = r.cdf_at(pi, mi, t);
                    assert!(v <= prev + 1e-12);
                    prev = v;
                }
            }
        }
    }
}
