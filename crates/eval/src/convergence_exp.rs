//! Figures 7.1 and 7.2 as runnable experiments: the counter-example
//! gadgets executed under each guideline, reporting convergence outcome
//! and flap counts — plus a failure-event sweep (beyond the paper) that
//! measures, at dataset scale, how much of the network a single link
//! failure actually perturbs. The sweep runs on the incremental delta
//! engine, so each event costs only its re-routed cone.

use crate::datasets::{Dataset, EvalConfig};
use crate::driver;
use miro_convergence::gadgets::{fig7_1, fig7_2, fig7_2_guideline_d_config, sim_for};
use miro_convergence::{Guideline, SimOutcome};
use miro_topology::NodeId;
use rand::Rng;
use serde::Serialize;

/// One gadget-under-config run.
#[derive(Serialize, Clone, Debug)]
pub struct GadgetRun {
    pub config: String,
    pub converged: bool,
    pub rounds: usize,
    pub establishments: usize,
    pub teardowns: usize,
    pub tunnels_up: usize,
}

fn run_one(
    topo: &miro_topology::Topology,
    desires: &[miro_convergence::Desire],
    label: &str,
    config: miro_convergence::GuidelineConfig,
    rounds: usize,
) -> GadgetRun {
    let mut sim = sim_for(topo, desires, config);
    let out = sim.run(1, rounds);
    GadgetRun {
        config: label.to_string(),
        converged: out.converged(),
        rounds: match out {
            SimOutcome::Converged { rounds } | SimOutcome::Diverged { rounds } => rounds,
        },
        establishments: sim.establishments.iter().sum(),
        teardowns: sim.teardowns.iter().sum(),
        tunnels_up: sim.established_count(),
    }
}

/// Figure 7.1: the BAD-GADGET-style configuration, raw and under
/// Guidelines B and C.
pub fn run_fig7_1(budget_rounds: usize) -> Vec<GadgetRun> {
    let (t, _, desires) = fig7_1();
    vec![
        run_one(&t, &desires, "unrestricted", Guideline::Unrestricted.config(), budget_rounds),
        run_one(&t, &desires, "guideline B", Guideline::B.config(), budget_rounds),
        run_one(&t, &desires, "guideline C", Guideline::C.config(), budget_rounds),
    ]
}

/// Figure 7.2: the strict-policy counter-example, raw and under
/// Guidelines D and E.
pub fn run_fig7_2(budget_rounds: usize) -> Vec<GadgetRun> {
    let (t, nodes, desires) = fig7_2();
    let strict_effective = miro_convergence::GuidelineConfig {
        offer: miro_convergence::OfferRule::SameClassCandidates,
        transport: miro_convergence::TransportRule::Effective,
        gate: miro_convergence::PreferenceGate::Always,
        advertise_to_leaves: false,
    };
    vec![
        run_one(&t, &desires, "strict, no order (unrestricted)", strict_effective, budget_rounds),
        run_one(&t, &desires, "guideline D (partial order)", fig7_2_guideline_d_config(nodes), budget_rounds),
        run_one(&t, &desires, "guideline E (pinned BGP)", Guideline::E.config(), budget_rounds),
    ]
}

/// Aggregate outcome of a single-link failure sweep over one dataset.
#[derive(Serialize, Clone, Debug)]
pub struct FailureSweepRow {
    pub dataset: String,
    pub dests: usize,
    /// Failure events injected (per-destination what-ifs).
    pub events: usize,
    /// Events whose link carried the destination's routing tree — only
    /// these perturb anyone.
    pub tree_events: usize,
    /// Events the what-if cache answered with zero recomputation because
    /// the base solution never used the link.
    pub skipped: usize,
    /// Mean nodes re-routed per tree event (the failure "cone").
    pub mean_cone: f64,
    /// Largest single-event cone seen.
    pub max_cone: usize,
    /// Nodes left with no route at all, summed over tree events.
    pub disconnected: usize,
}

/// Inject `events_per_dest` single-link failures per sampled destination
/// and measure the blast radius of each. Events alternate between links
/// on the destination's routing tree (guaranteed to perturb someone) and
/// uniformly random links (mostly off-tree, exercising the cache's skip
/// path) — mirroring the event mix of a convergence experiment where most
/// failures happen far from any given destination's tree.
pub fn failure_sweep(
    ds: &Dataset,
    cfg: &EvalConfig,
    events_per_dest: usize,
) -> FailureSweepRow {
    let dests = driver::sample_dests(&ds.topo, cfg.dest_samples, cfg.seed);
    let per_dest = miro_bgp::engine::par_over_dests_whatif(&ds.topo, &dests, cfg.threads, |d, wi| {
        let mut rng = driver::rng_for(cfg.seed, d, 0xFA11);
        let routed: Vec<NodeId> = ds
            .topo
            .nodes()
            .filter(|&v| v != d && wi.base().best(v).is_some())
            .collect();
        let mut max_cone = 0usize;
        let mut disconnected = 0usize;
        for k in 0..events_per_dest {
            let (a, b) = if k % 2 == 0 && !routed.is_empty() {
                // A link the routing tree provably uses.
                let v = routed[rng.gen_range(0..routed.len())];
                (v, wi.base().best(v).unwrap().next)
            } else {
                // Any link of the graph.
                let v = rng.gen_range(0..ds.topo.num_nodes()) as NodeId;
                let nbrs = ds.topo.neighbors(v);
                if nbrs.is_empty() {
                    continue;
                }
                (v, nbrs[rng.gen_range(0..nbrs.len())].0)
            };
            let (cone, disc) =
                wi.without_link(a, b, |f| (f.recomputed(), f.disconnected()));
            max_cone = max_cone.max(cone);
            disconnected += disc;
        }
        (wi.stats(), max_cone, disconnected)
    });

    let mut events = 0;
    let mut skipped = 0;
    let mut recomputed = 0;
    let mut max_cone = 0;
    let mut disconnected = 0;
    for (stats, mc, disc) in per_dest {
        events += stats.what_ifs;
        skipped += stats.skipped;
        recomputed += stats.recomputed;
        max_cone = max_cone.max(mc);
        disconnected += disc;
    }
    let tree_events = events - skipped;
    FailureSweepRow {
        dataset: ds.name().to_string(),
        dests: dests.len(),
        events,
        tree_events,
        skipped,
        mean_cone: recomputed as f64 / tree_events.max(1) as f64,
        max_cone,
        disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_1_outcomes_match_the_paper() {
        let runs = run_fig7_1(200);
        assert!(!runs[0].converged, "unrestricted must oscillate");
        assert!(runs[1].converged, "guideline B must converge");
        assert!(runs[2].converged, "guideline C must converge");
        assert_eq!(runs[1].tunnels_up, 3);
    }

    #[test]
    fn fig7_2_outcomes_match_the_paper() {
        let runs = run_fig7_2(200);
        assert!(!runs[0].converged, "strict alone must oscillate");
        assert!(runs[1].converged, "guideline D must converge");
        assert!(runs[2].converged, "guideline E must converge");
        assert_eq!(runs[1].tunnels_up, 2, "the order forbids the cycle-closer");
        assert_eq!(runs[2].tunnels_up, 3, "pinned transport allows all three");
    }

    #[test]
    fn oscillation_flap_counts_scale_with_budget() {
        let short = run_fig7_1(50);
        let long = run_fig7_1(500);
        assert!(long[0].teardowns > short[0].teardowns * 5);
    }

    #[test]
    fn failure_sweep_counts_are_consistent() {
        use crate::datasets::{Dataset, EvalConfig};
        use miro_topology::gen::DatasetPreset;
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build(DatasetPreset::Gao2005, &cfg);
        let row = failure_sweep(&ds, &cfg, 6);
        assert!(row.events > 0);
        assert_eq!(row.events, row.tree_events + row.skipped);
        assert!(row.tree_events > 0, "the forced tree links must perturb someone");
        assert!(row.max_cone >= 1);
        assert!(row.mean_cone >= 1.0, "a tree event re-routes at least the child");
        assert!(
            (row.mean_cone as usize) <= row.max_cone,
            "mean cone cannot exceed the max"
        );

        // Deterministic across thread counts.
        let mut serial_cfg = cfg.clone();
        serial_cfg.threads = 1;
        let serial = failure_sweep(&ds, &serial_cfg, 6);
        assert_eq!(row.events, serial.events);
        assert_eq!(row.tree_events, serial.tree_events);
        assert_eq!(row.max_cone, serial.max_cone);
        assert_eq!(row.disconnected, serial.disconnected);
    }
}
