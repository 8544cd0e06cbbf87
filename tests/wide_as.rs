//! Tier-1 coverage of the wide area, which the benchmark graph (maximum
//! degree 229) never reaches. One hub AS has 600 neighbours across all
//! four classes, so every next hop it takes from slot 255 up is escaped
//! into each row's wide area. On that graph:
//!
//! * the kernel equals the heap reference on every destination;
//! * a single-link what-if equals the masked full solve, over links of
//!   the hub at slots on both sides of the escape;
//! * the mapped table equals the decoded one, and both chase to
//!   `RoutingState::path` for every (source, destination).

use miro_bgp::engine::WhatIf;
use miro_bgp::solver::UNROUTED_NEXT;
use miro_bgp::solver::{reference, DeltaScratch, RoutingState, SolveScratch, ESCAPE};
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryScratch};
use miro_serve::{RowRead, TableSource};
use miro_shard::format::RouteTableSet;
use miro_topology::{AsId, NodeId, Rel, Topology, TopologyBuilder};

/// The hub (AS 1) buys from 10 providers that peer in a clique, has 4
/// siblings with one customer each, sells to 520 stubs (every third also
/// buys from a provider) and peers with 66 ASes that each buy from a
/// provider and sell to one stub: 600 neighbours, 671 ASes.
fn hub_graph() -> Topology {
    let mut b = TopologyBuilder::new();
    let mut next = 1;
    let mut fresh = |n: u32| {
        let ids: Vec<AsId> = (next..next + n).map(AsId).collect();
        next += n;
        ids
    };
    let hub = fresh(1)[0];
    let (providers, siblings, stubs, peers) = (fresh(10), fresh(4), fresh(520), fresh(66));
    let (sibling_stubs, peer_stubs) = (fresh(4), fresh(66));
    for &asn in [hub]
        .iter()
        .chain(&providers)
        .chain(&siblings)
        .chain(&stubs)
        .chain(&peers)
    {
        b.intern_as(asn);
    }
    for &asn in sibling_stubs.iter().chain(&peer_stubs) {
        b.intern_as(asn);
    }
    for (i, &p) in providers.iter().enumerate() {
        b.provider_customer(p, hub);
        for &q in &providers[i + 1..] {
            b.peering(p, q);
        }
    }
    for (&s, &c) in siblings.iter().zip(&sibling_stubs) {
        b.sibling(hub, s);
        b.provider_customer(s, c);
    }
    for (i, &c) in stubs.iter().enumerate() {
        b.provider_customer(hub, c);
        if i % 3 == 0 {
            b.provider_customer(providers[i % 10], c);
        }
    }
    for (i, (&e, &c)) in peers.iter().zip(&peer_stubs).enumerate() {
        b.peering(hub, e);
        b.provider_customer(providers[i % 10], e);
        b.provider_customer(e, c);
    }
    b.build_checked(true).expect("a hierarchy")
}

#[test]
fn a_600_neighbour_hub_routes_alike_through_every_reader() {
    let topo = hub_graph();
    let (n, hub) = (topo.num_nodes(), 0);
    assert_eq!((n, topo.degree(hub)), (671, 600));
    for rel in [Rel::Provider, Rel::Sibling, Rel::Customer, Rel::Peer] {
        assert!(
            topo.neighbors(hub).iter().any(|&(_, r)| r == rel),
            "{rel:?}"
        );
    }

    // Kernel ≡ heap reference; some destination makes the hub escape.
    let mut escaped = 0;
    for d in topo.nodes() {
        let (fast, slow) = (RoutingState::solve(&topo, d), reference::solve(&topo, d));
        for x in topo.nodes() {
            assert_eq!(fast.best(x), slow.best(x), "dest {d}, node {x}");
        }
        escaped +=
            (fast.cells()[hub as usize] & ESCAPE == ESCAPE && fast.best(hub).is_some()) as usize;
    }
    assert!(
        escaped > 300,
        "only {escaped} destinations escape the hub's slot"
    );

    // Single-link what-if ≡ masked full solve, on hub links at slots
    // below and above the escape, toward destinations on both sides.
    let (mut scratch, mut delta) = (SolveScratch::new(), DeltaScratch::new());
    let hub_links: Vec<NodeId> = topo
        .slot_neighbors(hub)
        .iter()
        .copied()
        .step_by(23)
        .collect();
    for d in topo.nodes().step_by(29) {
        let mut wi = WhatIf::new(RoutingState::solve_into(&topo, d, &mut scratch), &mut delta);
        for &y in &hub_links {
            let masked = RoutingState::solve_without_link(&topo, d, hub, y);
            wi.without_link(hub, y, |view| {
                for x in topo.nodes() {
                    assert_eq!(
                        view.best(x),
                        masked.best(x),
                        "dest {d} without {hub}-{y}, node {x}"
                    );
                }
            });
        }
        wi.into_base().recycle(&mut scratch);
    }

    // mmap ≡ in memory ≡ RoutingState::path, for every (src, dest).
    let dests: Vec<NodeId> = topo.nodes().collect();
    let set = RouteTableSet::from_solves(&topo, &dests, 2);
    assert_eq!(set.layout().num_wide(), 1);
    let decoded = RouteTableSet::decode(&set.encode()).expect("decodes");
    let path = std::env::temp_dir().join(format!("miro_wide_as_{}.mirt", std::process::id()));
    std::fs::write(&path, set.encode()).unwrap();
    let mapped = MappedTable::open(&path).expect("verified open");
    for (i, &d) in dests.iter().enumerate() {
        let st = RoutingState::solve(&topo, d);
        let (m, r) = (
            mapped.row(i).expect("row verifies"),
            TableSource::row(&decoded, i).expect("in range"),
        );
        for x in topo.nodes() {
            let (x_, want) = (x as usize, st.path(x));
            assert_eq!(
                (m.next(x_), m.hops(x_), m.class(x_)),
                (r.next(x_), r.hops(x_), r.class(x_)),
                "dest {d}, node {x}"
            );
            let mut chased = Vec::new();
            let mut at = x;
            while at != d && m.next(at as usize) != UNROUTED_NEXT {
                at = m.next(at as usize);
                chased.push(at);
            }
            assert_eq!((at == d).then_some(chased), want, "dest {d}, node {x}");
        }
    }

    // The engine answers over the map as over the decoded set.
    let (over_map, over_set) = (
        Engine::new(mapped, topo.clone(), None).unwrap(),
        Engine::new(decoded, topo.clone(), None).unwrap(),
    );
    let mut q = QueryScratch::new();
    for d in topo.nodes().step_by(7) {
        for src in topo.nodes().step_by(5) {
            let query = Query::Alternate {
                src,
                dest: d,
                avoid: hub,
            };
            let a = over_map.answer(query, &mut q);
            assert_eq!(a, over_set.answer(query, &mut q), "{query:?}");
            if let Ok(Answer::Alternate { path, .. }) = a {
                assert!(!path.contains(&hub), "{query:?}: {path:?}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
