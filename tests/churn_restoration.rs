//! Tier-1 smoke of the churn engine's equivalence contract: after every
//! batch of a random down/up script, `MultiFailState`'s table must be the
//! from-scratch solve of the topology with the failed links physically
//! removed — an oracle that shares no code with the delta engine. Half
//! the flapping links sit on the destination's routing tree, so their
//! restorations shift an endpoint and run the retire-and-re-drain loop.
//! (The exhaustive versions are the proptests in `miro_bgp::solver::multi`,
//! which only `cargo test --workspace` runs.)

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
