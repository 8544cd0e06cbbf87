//! Tier-1 rung of the failure half of the delta kernel on a generated
//! Gao 2005 hierarchy, siblings included. A failure only removes offers,
//! so the kernel bounds its scans by each cone node's route before the
//! failure: the retirement walk, the boundary seeds of each sweep and the
//! improvement wave's seeds all depend on the class a cone node held.
//! The links below are picked so that the failed link's child holds each
//! of the three classes, plus every sibling link on the chosen routing
//! trees. The oracles share no code with those bounds: a full solve
//! without the link, and a from-scratch solve of the topology with a
//! batch of failed links physically removed. (The exhaustive versions
//! are the proptests in `miro_bgp::solver`, which only `cargo test
//! --workspace` runs.)

use miro_bgp::engine::WhatIf;
use miro_bgp::solver::multi::{LinkEvent, MultiFailState};
use miro_bgp::solver::{route_class_code, DeltaScratch, RoutingState, SolveScratch};
use miro_topology::{AsId, DatasetPreset, NodeId, Rel, Topology, TopologyBuilder};

/// The hierarchy: 1,047 ASes, 34 sibling links.
fn hierarchy() -> Topology {
    DatasetPreset::Gao2005.params(0.05, 42).generate()
}

/// Every 61st AS, and AS 529 and AS 1282: of the million (destination,
/// tree link) pairs of this graph, about twenty have a failure shorten a
/// provider route whose holder's sibling, outside the cone, then takes
/// it; these two destinations hold such links.
fn dests(topo: &Topology) -> impl Iterator<Item = NodeId> + use<'_> {
    let wave = [529, 1282].map(|asn| topo.node(AsId(asn)).expect("the generator's AS numbers"));
    topo.nodes().step_by(61).chain(wave)
}

/// `topo` minus `failed` (low-high keys), interned in the same order so
/// node ids align.
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

/// Links of `base`'s routing tree as `(child, parent)`: the first three
/// whose child holds each class, and every sibling link.
fn picked_links(topo: &Topology, base: &RoutingState<'_>) -> Vec<(NodeId, NodeId)> {
    let mut per_class = [0; 3];
    let mut links = Vec::new();
    for x in topo.nodes() {
        let Some(r) = base.best(x).filter(|r| r.len > 0) else {
            continue;
        };
        let c = &mut per_class[usize::from(route_class_code(r.class))];
        if *c < 3 || topo.rel(x, r.next) == Some(Rel::Sibling) {
            *c += 1;
            links.push((x, r.next));
        }
    }
    links
}

#[test]
fn what_ifs_equal_full_solves_for_every_class_of_child() {
    let topo = hierarchy();
    let (mut solve, mut full, mut delta) = (
        SolveScratch::new(),
        SolveScratch::new(),
        DeltaScratch::new(),
    );
    // Links tested by the class their child held; sibling links; ASes
    // outside a cone whose route moved, and those of them that took a
    // sibling's route.
    let (mut by_class, mut siblings, mut waves, mut sibling_waves) = ([0; 3], 0, 0, 0);
    for dest in dests(&topo) {
        let base = RoutingState::solve_into(&topo, dest, &mut solve);
        let before: Vec<_> = topo.nodes().map(|v| base.best(v)).collect();
        let links = picked_links(&topo, &base);
        let mut wi = WhatIf::new(base, &mut delta);
        for &(a, b) in &links {
            by_class[usize::from(route_class_code(before[a as usize].unwrap().class))] += 1;
            siblings += usize::from(topo.rel(a, b) == Some(Rel::Sibling));
            let cone: Vec<bool> = topo
                .nodes()
                .map(|v| v == a || wi.base().path_traverses(v, a))
                .collect();
            let oracle = RoutingState::solve_without_link_into(&topo, dest, a, b, &mut full);
            wi.without_link(a, b, |failed| {
                for v in topo.nodes() {
                    assert_eq!(
                        failed.best(v),
                        oracle.best(v),
                        "dest {dest}, ({a},{b}) down: AS node {v}"
                    );
                }
                for v in topo
                    .nodes()
                    .filter(|&v| !cone[v as usize] && failed.best(v) != before[v as usize])
                {
                    waves += 1;
                    let next = failed
                        .best(v)
                        .expect("a route outside the cone only improves")
                        .next;
                    sibling_waves += usize::from(topo.rel(v, next) == Some(Rel::Sibling));
                }
            });
            oracle.recycle(&mut full);
        }
        wi.into_base().recycle(&mut solve);
    }
    assert!(
        by_class.iter().all(|&n| n > 0),
        "tested links by child class {by_class:?}"
    );
    assert!(siblings > 0, "no sibling link sat on a tested routing tree");
    assert!(waves > 0, "no failure moved a route outside its cone");
    assert!(
        sibling_waves > 0,
        "no failure moved a route across a sibling link outside its cone"
    );
}

#[test]
fn batched_tree_failures_equal_solves_without_the_links() {
    let topo = hierarchy();
    let mut delta = DeltaScratch::new();
    let mut batches = 0;
    for dest in dests(&topo) {
        let mut st = MultiFailState::solve(&topo, dest, &mut SolveScratch::new());
        let base_fnv = st.table_fnv();
        let links = picked_links(&topo, &st);
        // Batches of 2, 3, 4, 2, ... links, each failed at once and then
        // restored at once.
        let mut rest = &links[..];
        for size in [2, 3, 4].into_iter().cycle() {
            if rest.len() < size {
                break;
            }
            let (batch, tail) = rest.split_at(size);
            rest = tail;
            let downs: Vec<_> = batch.iter().map(|&(a, b)| LinkEvent::Down(a, b)).collect();
            let stats = st.apply(&downs, &mut delta);
            assert_eq!(stats.downs, size);
            let mut keys: Vec<_> = batch.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            keys.sort_unstable();
            let pruned = rebuilt_without(&topo, &keys);
            let oracle = MultiFailState::solve(&pruned, dest, &mut SolveScratch::new());
            assert_eq!(
                st.table_fnv(),
                oracle.table_fnv(),
                "dest {dest}, {batch:?} down"
            );
            for v in topo.nodes() {
                assert_eq!(
                    st.best(v),
                    oracle.best(v),
                    "dest {dest}, {batch:?} down: AS node {v}"
                );
            }
            let ups: Vec<_> = batch.iter().map(|&(a, b)| LinkEvent::Up(a, b)).collect();
            st.apply(&ups, &mut delta);
            assert_eq!(st.table_fnv(), base_fnv, "dest {dest}, {batch:?} restored");
            batches += 1;
        }
    }
    assert!(batches >= 3 * 20, "{batches} batches");
}
