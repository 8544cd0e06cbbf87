//! Tier-1 smoke of the churn engine's equivalence contract: after every
//! batch of a random down/up script, `MultiFailState`'s table must be the
//! from-scratch solve of the topology with the failed links physically
//! removed — an oracle that shares no code with the delta engine. Half
//! the flapping links sit on the destination's routing tree, so their
//! restorations shift an endpoint and run the retire-and-re-drain loop.
//! (The exhaustive versions are the proptests in `miro_bgp::solver::multi`,
//! which only `cargo test --workspace` runs.) The second test holds the
//! what-if sweep and the churn replay to each other: they are one engine.

use miro_bgp::engine::WhatIf;
use miro_bgp::solver::multi::{LinkEvent, MultiFailState};
use miro_bgp::solver::{DeltaScratch, RoutingState, SolveScratch};
use miro_topology::{GenParams, NodeId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `topo` minus `failed`, interned in the same order so node ids align.
fn rebuilt_without(topo: &Topology, failed: &[(NodeId, NodeId)]) -> Topology {
    let mut b = TopologyBuilder::new();
    for x in topo.nodes() {
        b.intern_as(topo.asn(x));
    }
    for x in topo.nodes() {
        for &(y, rel) in topo.neighbors(x) {
            if x < y && !failed.contains(&(x, y)) {
                b.link(topo.asn(x), topo.asn(y), rel);
            }
        }
    }
    b.build().expect("subgraph of a consistent topology")
}

#[test]
fn table_equals_fresh_solve_after_every_batch() {
    let topo = GenParams::tiny(20060911).generate();
    let mut rng = StdRng::seed_from_u64(12);
    let mut solve = SolveScratch::new();
    let mut delta = DeltaScratch::new();
    let (mut shifting_restorations, mut full_resolves) = (0, 0);

    for dest in topo.nodes().step_by(17) {
        let mut st = MultiFailState::solve(&topo, dest, &mut solve);
        // Eight flappers: four tree links (a node and its next hop), four
        // links between random neighbors.
        let flappers: Vec<(NodeId, NodeId)> = (0..8)
            .map(|i| loop {
                let x = rng.gen_range(0..topo.num_nodes()) as NodeId;
                if i >= 4 {
                    break (x, topo.neighbors(x)[rng.gen_range(0..topo.degree(x))].0);
                }
                if let Some(b) = st.best(x).filter(|_| x != dest) {
                    break (x, b.next);
                }
            })
            .collect();

        for _ in 0..120 {
            let batch: Vec<LinkEvent> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let (a, b) = flappers[rng.gen_range(0..flappers.len())];
                    if rng.gen_bool(0.5) { LinkEvent::Down(a, b) } else { LinkEvent::Up(a, b) }
                })
                .collect();
            let stats = st.apply(&batch, &mut delta);
            shifting_restorations += (stats.restore_rounds > 0) as usize;
            full_resolves += stats.full_resolve as usize;

            let pruned = rebuilt_without(&topo, st.failed_links());
            let fresh = RoutingState::solve(&pruned, dest);
            for x in topo.nodes() {
                assert_eq!(st.best(x), fresh.best(x), "dest {dest} node {x} after {batch:?}");
            }
        }
    }
    // The script must actually exercise the restoration loop, and the
    // loop — not the budget fallback — must be what answers it.
    assert!(shifting_restorations >= 50, "only {shifting_restorations} shifting restorations");
    assert!(full_resolves * 10 <= shifting_restorations, "{full_resolves} fallbacks");
}

/// Every edge of a tiny graph, several destinations, one `DeltaScratch`
/// throughout: the what-if view of a failed link, the churn engine's table
/// after the same `Down`, and the from-scratch solve without the link are
/// one table; the what-if leaves its base untouched and the `Up` brings
/// the churn table back to it.
#[test]
fn whatif_view_equals_churn_table_equals_masked_solve() {
    let topo = GenParams::tiny(7).generate();
    let edges: Vec<(NodeId, NodeId)> = topo
        .nodes()
        .flat_map(|x| topo.neighbors(x).iter().map(move |&(y, _)| (x, y)))
        .filter(|&(x, y)| x < y)
        .collect();
    let mut solve = SolveScratch::new();
    let mut delta = DeltaScratch::new();
    let row = |st: &RoutingState<'_>| topo.nodes().map(|x| st.best(x)).collect::<Vec<_>>();

    for dest in topo.nodes().step_by(23) {
        let mut wi = WhatIf::new(RoutingState::solve_into(&topo, dest, &mut solve), &mut delta);
        let base = row(wi.base());
        let views: Vec<_> = edges
            .iter()
            .map(|&(x, y)| {
                let view = wi.without_link(x, y, |f| (row(f), f.recomputed()));
                assert_eq!(row(wi.base()), base, "dest {dest}: base after ({x},{y})");
                view
            })
            .collect();
        assert!(views.iter().any(|(_, recomputed)| *recomputed > 0), "no edge was on the tree");
        wi.into_base().recycle(&mut solve);

        let mut churn = MultiFailState::solve(&topo, dest, &mut solve);
        let base_fnv = churn.table_fnv();
        assert_eq!(row(&churn), base);
        for (&(x, y), (view, recomputed)) in edges.iter().zip(&views) {
            let oracle = row(&RoutingState::solve_without_link(&topo, dest, x, y));
            assert_eq!(*view, oracle, "dest {dest}: what-if view without ({x},{y})");
            let down = churn.apply(&[LinkEvent::Down(x, y)], &mut delta);
            assert_eq!(row(&churn), oracle, "dest {dest}: churn table without ({x},{y})");
            assert_eq!(down.recomputed, *recomputed, "one kernel, one cone");
            churn.apply(&[LinkEvent::Up(x, y)], &mut delta);
            assert_eq!(churn.table_fnv(), base_fnv, "dest {dest}: ({x},{y}) back up");
        }
    }
}
