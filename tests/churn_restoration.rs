//! Tier-1 smoke of the churn engine's equivalence contract: after every
//! batch of a random down/up script, `MultiFailState`'s table must be the
//! from-scratch solve of the topology with the failed links physically
//! removed — an oracle that shares no code with the delta engine. Half
//! the flapping links sit on the destination's routing tree, so their
//! restorations shift an endpoint and run the retire-and-re-drain loop.
//! (The exhaustive versions are the proptests in `miro_bgp::solver::multi`,
//! which only `cargo test --workspace` runs.) The second test holds the
//! what-if sweep and the churn replay to each other: they are one engine.
//!
//! The lease rung rides on the same engine: section 4.3's teardown rule,
//! `MiroNetwork::routes_changed`, is held to the live table the way `miro
//! churn replay` and the shell's `fail link` drive it — four hand-drawn
//! cases, then an independent reading of the rule after every batch of a
//! generated script, with two mutants of the rule that the reading must
//! catch. What the rung does *not* say: that the surviving leases equal a
//! fresh negotiation over the final state. They need not — a lease that
//! still stands is kept even where a fresh walk would now buy a better
//! alternate, or from a nearer responder — so ROADMAP's proposed "lease
//! set equals a fresh negotiation" is not an invariant of the mechanism.

use miro_bgp::engine::WhatIf;
use miro_bgp::solver::multi::{ApplyStats, LinkEvent, MultiFailState};
use miro_bgp::solver::{DeltaScratch, RoutingState, SolveScratch};
use miro_core::negotiate::{Constraint, Message};
use miro_core::node::{Lease, MiroNetwork};
use miro_core::strategy::{avoidable_ases, TargetStrategy};
use miro_core::tunnel::{TeardownReason, TunnelId};
use miro_topology::{AsId, GenParams, NodeId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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

/// `requester` asks the ASes on its default path short of `avoid`, nearest
/// first, for a way around `avoid` — the walk `miro churn replay` seeds and
/// re-asks with. Returns the new lease, if anyone sold one.
fn ask(
    net: &mut MiroNetwork<'_>,
    st: &RoutingState<'_>,
    requester: NodeId,
    avoid: NodeId,
) -> Option<Lease> {
    let sold = TargetStrategy::OnPath.targets(st, requester, Some(avoid)).into_iter().any(|r| {
        net.negotiate(st, requester, r, vec![Constraint::AvoidAs(avoid)], u32::MAX).is_ok()
    });
    sold.then(|| net.leases().last().expect("a sale is recorded").clone())
}

/// Figure 1.1 with two alternates at B and the avoided AS two hops from
/// the destination (`──` provider above or left of customer, `══` peers):
///
/// ```text
///        ┌── A ──┐            A buys transit from B and D
///        B       D            B and D both provide E
///      ╔═╪═╗     │
///      C │ K     │            B peers with C and with K
///      │ E ──────┘
///      │╱ ╲│                  E provides G and H
///      │G H│
///      │╲ ╱│
///      └ F ┘                  G, H, C and K all provide F
/// ```
///
/// A's default path is A B E G F (G beats H on ASN). B holds two ways
/// around E, B C F and B K F; both ride links no best path uses.
fn two_alternates() -> (Topology, [NodeId; 9]) {
    let mut bld = TopologyBuilder::new();
    for n in 1..=9 {
        bld.add_as(AsId(n));
    }
    for (provider, customer) in
        [(2, 1), (4, 1), (2, 5), (4, 5), (5, 7), (5, 8), (7, 6), (8, 6), (3, 6), (9, 6)]
    {
        bld.provider_customer(AsId(provider), AsId(customer));
    }
    bld.peering(AsId(2), AsId(3));
    bld.peering(AsId(2), AsId(9));
    let t = bld.build_checked(true).expect("valid hierarchy");
    let nodes = [1, 2, 3, 4, 5, 6, 7, 8, 9].map(|n| t.node(AsId(n)).expect("interned"));
    (t, nodes)
}

/// The four ways a link event meets one lease, each on the live engine.
#[test]
fn a_lease_lives_and_dies_by_the_two_routes_it_stands_on() {
    let (t, [a, b, c, d, e, f, g, h, k]) = two_alternates();
    let mut delta = DeltaScratch::new();
    let setup = || {
        let st = MultiFailState::solve(&t, f, &mut SolveScratch::new());
        let mut net = MiroNetwork::new(&t);
        let lease = ask(&mut net, &st, a, e).expect("B sells a way around E");
        assert_eq!(st.path(a), Some(vec![b, e, g, f]));
        assert_eq!((lease.downstream, &lease.path, &lease.upstream_path), (b, &vec![c, f], &vec![b]));
        (st, net, lease)
    };

    // (a) A link of the sold path fails: B sees BCF go, tells A, and A's
    // re-ask lands on B's other alternate.
    let (mut st, mut net, lease) = setup();
    st.apply(&[LinkEvent::Down(c, f)], &mut delta);
    assert_eq!(net.routes_changed(&st), std::slice::from_ref(&lease));
    assert_eq!(net.tunnels(b).torn_down, [(lease.id, TeardownReason::RouteChange)]);
    assert_eq!(net.tunnels(a).torn_down, [(lease.id, TeardownReason::PeerRequest)]);
    assert_eq!(net.log.last(), Some(&(b, a, Message::Teardown { tunnel: lease.id })));
    let second = ask(&mut net, &st, a, e).expect("BKF is still on offer");
    assert_eq!((second.downstream, &second.path, second.id), (b, &vec![k, f], TunnelId(1)));
    assert_eq!(net.leases(), [second]);

    // (b) A's path to B moves: A tears down, and D has nothing to sell.
    let (mut st, mut net, lease) = setup();
    st.apply(&[LinkEvent::Down(a, b)], &mut delta);
    assert_eq!(st.path(a), Some(vec![d, e, g, f]));
    assert_eq!(net.routes_changed(&st), std::slice::from_ref(&lease));
    assert_eq!(net.tunnels(a).torn_down, [(lease.id, TeardownReason::RouteChange)]);
    assert_eq!(net.tunnels(b).torn_down, [(lease.id, TeardownReason::PeerRequest)]);
    assert_eq!(net.log.last(), Some(&(a, b, Message::Teardown { tunnel: lease.id })));
    assert_eq!(ask(&mut net, &st, a, e), None);
    assert!(net.leases().is_empty() && net.tunnels(a).is_empty() && net.tunnels(b).is_empty());

    // (c) A flap off both paths, and a failure beyond the avoided AS that
    // moves A's default path: the lease, its id and both tables stand.
    let (mut st, mut net, lease) = setup();
    for events in [[LinkEvent::Down(d, e)], [LinkEvent::Up(d, e)], [LinkEvent::Down(g, f)]] {
        assert!(st.apply(&events, &mut delta).recomputed > 0, "{events:?} moves somebody's route");
        assert!(net.routes_changed(&st).is_empty(), "{events:?}");
    }
    assert_eq!(st.path(a), Some(vec![b, e, h, f]), "A's default path moved beyond E");
    assert_eq!(net.leases(), std::slice::from_ref(&lease));
    assert!(net.tunnels(a).get(b, lease.id).is_some() && net.tunnels(b).get(a, lease.id).is_some());

    // (d) B-C carries no best path, so its failure rewrites no table
    // entry — and still takes BCF, which B only ever held as an alternate.
    let (mut st, mut net, lease) = setup();
    let stats = st.apply(&[LinkEvent::Down(b, c)], &mut delta);
    assert_eq!((stats.downs, stats.recomputed), (1, 0), "an off-tree link");
    assert_eq!(net.routes_changed(&st), [lease]);
    assert_eq!(ask(&mut net, &st, a, e).map(|l| l.path), Some(vec![k, f]));
}

/// Three readings of section 4.3 judged by one oracle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Rule {
    /// What `routes_changed` did.
    Real,
    /// Mutant: sweep only after a batch that rewrote a table entry (the
    /// skip the default-path stand-in could afford).
    SweepOnlyWhenRecomputed,
    /// Mutant: compare the requester's whole default path, not the segment
    /// up to the responder (`upstream_path` as first written).
    WholeUpstreamPath,
}

/// Does `lease` still stand under `st`? Section 4.3 read straight off the
/// table: the downstream still holds the sold path among its candidates
/// and it still avoids what it was bought to avoid; the requester's path
/// still runs, unchanged, up to the downstream.
fn stands(st: &RoutingState<'_>, lease: &Lease) -> bool {
    let [Constraint::AvoidAs(avoid)] = lease.constraints[..] else { panic!("{lease:?}") };
    let sold = st.candidates(lease.downstream).iter().any(|c| c.path == lease.path);
    let to_downstream = lease.upstream_path.last() == Some(&lease.downstream)
        && st.path(lease.upstream).is_some_and(|p| p.starts_with(&lease.upstream_path));
    sold && !lease.path.contains(&avoid) && to_downstream
}

/// Per lease — (downstream, id) — the requester's whole default path when
/// it bought: what the `WholeUpstreamPath` mutant compares.
type WholePaths = HashMap<(NodeId, TunnelId), Vec<NodeId>>;

/// [`ask`], remembering the requester's whole path for the mutant.
fn buy(
    net: &mut MiroNetwork<'_>,
    st: &RoutingState<'_>,
    requester: NodeId,
    avoid: NodeId,
    whole_path: &mut WholePaths,
) -> Option<Lease> {
    let lease = ask(net, st, requester, avoid)?;
    whole_path.insert((lease.downstream, lease.id), st.path(requester).expect("routed"));
    Some(lease)
}

/// Drive eight standing avoid-AS requests per destination through a
/// generated down/up script the way the churn replay does — sweep after
/// every batch that toggled a link, each struck requester re-asks at once
/// — and after **every** batch judge each rule's verdict on every lease
/// that was live: keeping one that no longer stands is a stale lease,
/// striking one that does is a spurious teardown. Returns the batches
/// driven and each rule's violations.
fn drive_leases_through_churn() -> (usize, HashMap<Rule, Vec<String>>) {
    let topo = GenParams::tiny(20060911).generate();
    let mut rng = StdRng::seed_from_u64(24);
    let mut delta = DeltaScratch::new();
    let mut violations: HashMap<Rule, Vec<String>> = HashMap::new();
    let (mut batches, mut teardowns, mut renegotiations) = (0, 0, 0);

    for dest in topo.nodes().step_by(29) {
        let mut st = MultiFailState::solve(&topo, dest, &mut SolveScratch::new());
        let mut lease_free = MultiFailState::solve(&topo, dest, &mut SolveScratch::new());
        let mut net = MiroNetwork::new(&topo);
        let mut whole_path = WholePaths::new();
        let seeded: Vec<Lease> = topo
            .nodes()
            .filter_map(|x| {
                let eligible = avoidable_ases(&st, x);
                let avoid = *eligible.get(x as usize % eligible.len().max(1))?;
                buy(&mut net, &st, x, avoid, &mut whole_path)
            })
            .take(8)
            .collect();
        assert_eq!(seeded.len(), 8, "dest {dest}");

        // Flappers: per lease one link of the sold path and one of the
        // requester's default path, plus eight links anywhere.
        let mut flappers: Vec<(NodeId, NodeId)> = Vec::new();
        for lease in &seeded {
            let mut hops = vec![lease.downstream];
            hops.extend(&lease.path);
            let i = rng.gen_range(1..hops.len());
            flappers.push((hops[i - 1], hops[i]));
            let mut hops = vec![lease.upstream];
            hops.extend(&whole_path[&(lease.downstream, lease.id)]);
            let i = rng.gen_range(1..hops.len());
            flappers.push((hops[i - 1], hops[i]));
        }
        for _ in 0..8 {
            let x = rng.gen_range(0..topo.num_nodes()) as NodeId;
            flappers.push((x, topo.neighbors(x)[rng.gen_range(0..topo.degree(x))].0));
        }

        for _ in 0..100 {
            let batch: Vec<LinkEvent> = (0..rng.gen_range(1..4))
                .map(|_| {
                    let (a, b) = flappers[rng.gen_range(0..flappers.len())];
                    if rng.gen_bool(0.5) { LinkEvent::Down(a, b) } else { LinkEvent::Up(a, b) }
                })
                .collect();
            let before = net.leases().to_vec();
            let stats: ApplyStats = st.apply(&batch, &mut delta);
            let struck =
                if stats.downs + stats.ups > 0 { net.routes_changed(&st) } else { Vec::new() };
            batches += 1;
            teardowns += struck.len();

            for lease in &before {
                let really = struck.contains(lease);
                let moved = st.path(lease.upstream).as_ref()
                    != Some(&whole_path[&(lease.downstream, lease.id)]);
                let stands = stands(&st, lease);
                for (rule, strikes) in [
                    (Rule::Real, really),
                    (Rule::SweepOnlyWhenRecomputed, really && stats.recomputed > 0),
                    (Rule::WholeUpstreamPath, really || moved),
                ] {
                    if strikes == stands {
                        let what = if strikes { "spurious teardown" } else { "stale lease" };
                        violations.entry(rule).or_default().push(format!(
                            "dest {dest} batch {batches} {batch:?}: {what} {}->{} via {:?}",
                            lease.upstream, lease.downstream, lease.path
                        ));
                    }
                }
            }
            for lease in struck {
                let [Constraint::AvoidAs(avoid)] = lease.constraints[..] else { unreachable!() };
                let again = buy(&mut net, &st, lease.upstream, avoid, &mut whole_path);
                renegotiations += again.is_some() as usize;
            }

            // No orphan on either side: the two tunnel tables of every
            // lease hold it, and no table holds anything else.
            for l in net.leases() {
                let down = net.tunnels(l.downstream).get(l.upstream, l.id).expect("sold");
                let up = net.tunnels(l.upstream).get(l.downstream, l.id).expect("bought");
                assert_eq!((&down.path, &up.path, down.dest), (&l.path, &l.path, dest));
            }
            let held: usize = topo.nodes().map(|x| net.tunnels(x).len()).sum();
            assert_eq!(held, 2 * net.leases().len(), "dest {dest} batch {batches}");
            // And the lease layer only ever read the engine.
            lease_free.apply(&batch, &mut delta);
            assert_eq!(st.table_fnv(), lease_free.table_fnv());
        }
    }
    // The script must exercise the mechanism, not idle past it.
    assert!(teardowns >= 40 && renegotiations >= 10, "{teardowns} / {renegotiations}");
    (batches, violations)
}

#[test]
fn every_lease_stands_on_the_live_table_after_every_batch() {
    let (batches, violations) = drive_leases_through_churn();
    assert!(batches >= 200, "{batches} batches");
    assert_eq!(violations.get(&Rule::Real), None);
}

/// The invariants are an oracle: both mutants break them on this script.
#[test]
fn the_lease_invariants_catch_both_mutants() {
    let (_, violations) = drive_leases_through_churn();
    let lazy = violations
        .get(&Rule::SweepOnlyWhenRecomputed)
        .expect("skipping untouched-table batches goes unnoticed");
    assert!(lazy.iter().all(|v| v.contains("stale lease")), "{lazy:?}");
    let whole =
        violations.get(&Rule::WholeUpstreamPath).expect("whole-path comparison goes unnoticed");
    assert!(whole.iter().all(|v| v.contains("spurious teardown")), "{whole:?}");
}
