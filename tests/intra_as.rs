//! The router-level rung of the oracle chain: one section 4.1 fabric
//! ([`AsFabric`] under its [`Rcp`]) per AS of a solved topology must
//! agree with the AS-level solver — heap ≡ kernel ≡ delta ≡ wire
//! speakers ≡ router-level fabric — and a lease the control plane
//! negotiates must leave on the exit link the data plane installed.
//!
//! ```text
//!             R0                 internal: no eBGP, IGP cost 1 to every edge
//!          /   |   \
//!        R1    R2    R3 ..       border: one or two eBGP sessions each
//!   .....|.....|\....|........
//!        n0    n1 n2 n3 ..       external: x's neighbours, ascending ASN;
//!                                exit link k faces n_k
//! ```
//!
//! The wiring is the whole translation between the two models:
//!
//! * session k carries what neighbour n_k exports to x
//!   ([`RoutingState::learned_from`]) with LOCAL_PREF set to the class's
//!   conventional band (Guideline A);
//! * neighbours are attached in ascending-ASN order and IGP costs are
//!   equal, so decision steps 7 (egress router index) and 8 (session
//!   address) are the solver's lowest-next-hop-ASN tie-break.

use miro_bgp::solver::RoutingState;
use miro_core::negotiate::Constraint;
use miro_core::node::MiroNetwork;
use miro_dataplane::burst::{lpm_from, Engine, OneVerdict, TunnelSpec};
use miro_dataplane::classifier::{Action, Classifier, Match};
use miro_dataplane::encap;
use miro_dataplane::intra::{AsFabric, EbgpRoute, Forwarded, Router, Selected};
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_dataplane::lpm::Prefix;
use miro_dataplane::rcp::Rcp;
use miro_topology::gen::figure_1_1;
use miro_topology::{GenParams, NodeId, Topology};
use std::collections::HashMap;

/// How to derive an AS's routers from its relationships. `SOLVER` at one
/// or two sessions per edge router is the wiring under test; the other
/// two fields are the mutants that show the rung can fail.
#[derive(Clone, Copy)]
struct Wiring {
    sessions: usize,
    descending_neighbours: bool,
    flat_local_pref: bool,
}

const SOLVER: Wiring = Wiring { sessions: 1, descending_neighbours: false, flat_local_pref: false };
const WIDTHS: [Wiring; 2] = [SOLVER, Wiring { sessions: 2, ..SOLVER }];

/// The one prefix every destination originates.
fn prefix() -> Prefix {
    Prefix::new(Ipv4Addr4::new(10, 0, 0, 0), 8)
}

fn asns(topo: &Topology, path: &[NodeId]) -> Vec<u32> {
    path.iter().map(|&h| topo.asn(h).0).collect()
}

/// A packet toward the prefix; `tos` is what an upstream classifier keys on.
macro_rules! probe {
    ($tos:expr) => {{
        let mut h = Ipv4Header::new(Ipv4Addr4::new(192, 0, 2, 1), Ipv4Addr4::new(10, 1, 2, 3), 17, 5);
        h.dscp_ecn = $tos;
        h.emit_with_payload(b"probe")
    }};
}

/// AS `x` of a solved topology at router level, iBGP converged, plus the
/// neighbour each exit link faces.
fn as_fabric(st: &RoutingState<'_>, x: NodeId, wiring: Wiring) -> (AsFabric, Vec<NodeId>) {
    let topo = st.topology();
    let mut neighbours: Vec<NodeId> = topo.neighbors(x).iter().map(|&(n, _)| n).collect();
    neighbours.sort_by_key(|&n| topo.asn(n));
    if wiring.descending_neighbours {
        neighbours.reverse();
    }
    let router = |r: usize, ebgp| Router {
        addr: Ipv4Addr4::from_u32(0xac10_0000 + r as u32),
        ebgp,
        tunnel_table: HashMap::new(),
        selected: vec![],
    };
    let session = |k: usize| {
        let route = st.learned_from(x, neighbours[k])?;
        Some(EbgpRoute {
            prefix: prefix(),
            as_path: asns(topo, &route.path),
            local_pref: if wiring.flat_local_pref { 100 } else { route.class.local_pref() },
            med: 0,
            neighbor_as: topo.asn(neighbours[k]).0,
            peer_addr: Ipv4Addr4::from_u32(0xc0a8_0000 + k as u32),
            exit_link: k as u32,
        })
    };
    let mut routers = vec![router(0, vec![])];
    for first in (0..neighbours.len()).step_by(wiring.sessions) {
        let last = (first + wiring.sessions).min(neighbours.len());
        routers.push(router(routers.len(), (first..last).filter_map(session).collect()));
    }
    let star: Vec<(usize, usize, u32)> = (1..routers.len()).map(|r| (0, r, 1)).collect();
    let mut fabric = AsFabric::new(topo.asn(x).0, routers, &star);
    fabric.run_ibgp();
    (fabric, neighbours)
}

/// `Err` with the first disagreement unless the condition holds.
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// Check AS `x` against the solver: default egress and AS path at the
/// internal router, what every edge router stands by, the sellable path
/// set with and without ADD-PATH, and directed forwarding for every
/// candidate. `Ok` carries the number of router views classic iBGP left
/// short of the full set.
fn check(st: &RoutingState<'_>, x: NodeId, wiring: Wiring) -> Result<usize, String> {
    let topo = st.topology();
    let (mut fabric, neighbours) = as_fabric(st, x, wiring);
    let who = format!("AS{} toward AS{}, {} per router", topo.asn(x), topo.asn(st.dest()), wiring.sessions);
    let facing = |link: u32| neighbours[link as usize];
    let sel = |f: &AsFabric, r: usize| -> Option<Selected> {
        f.router(r).selected.iter().find(|(p, _)| *p == prefix()).map(|(_, s)| s.clone())
    };

    // Internal-router egress ≡ best(x).next, as installed and as forwarded.
    let Some(best) = st.best(x) else {
        ensure!(fabric.forward(0, probe!(0)) == Forwarded::NoRoute, "{who}: forwards without a route");
        ensure!(fabric.valid_as_paths(prefix()).is_empty(), "{who}: sells without a route");
        return Ok(0);
    };
    let want_path = asns(topo, &st.path(x).expect("routed"));
    let r0 = sel(&fabric, 0).ok_or(format!("{who}: R0 selected nothing"))?;
    ensure!(r0.as_path == want_path, "{who}: R0 holds {:?}, solver {want_path:?}", r0.as_path);
    match fabric.forward(0, probe!(0)) {
        Forwarded::Exit { link, via_routers, .. } => {
            ensure!(facing(link) == best.next, "{who}: exits toward AS{}, solver AS{}", topo.asn(facing(link)), topo.asn(best.next));
            ensure!(via_routers == [0, r0.egress_router], "{who}: rode the IGP via {via_routers:?}");
        }
        other => return Err(format!("{who}: default traffic {other:?}")),
    }

    // Every edge router follows R0 or stands by an equally good own route.
    for r in 1..fabric.num_routers() {
        let s = sel(&fabric, r).ok_or(format!("{who}: R{r} selected nothing"))?;
        let own = st.learned_from(x, facing(s.exit_link)).expect("a selected route was learned");
        let stands_by_equal = s.ebgp && (own.class, own.len()) == (best.class, best.len as usize);
        ensure!(
            (s.egress_router, &s.as_path) == (r0.egress_router, &r0.as_path) || stands_by_equal,
            "{who}: R{r} selected {:?} ({:?})", s.as_path, own.class
        );
    }

    // valid_as_paths ≡ candidates(x); per-router views ⊆ without ADD-PATH, ≡ with.
    let candidates = st.candidates(x);
    let mut want: Vec<Vec<u32>> = candidates.iter().map(|c| asns(topo, &c.path)).collect();
    want.sort();
    let valid = fabric.valid_as_paths(prefix());
    ensure!(valid == want, "{who}: fabric sells {valid:?}, solver {want:?}");
    let mut hidden = 0;
    for r in 0..fabric.num_routers() {
        let seen = fabric.candidates_at(r, prefix());
        ensure!(seen.iter().all(|p| valid.contains(p)), "{who}: R{r} sees {seen:?}");
        hidden += usize::from(seen.len() < valid.len());
    }
    fabric.enable_add_path();
    for r in 0..fabric.num_routers() {
        let seen = fabric.candidates_at(r, prefix());
        ensure!(seen == valid, "{who}: ADD-PATH leaves R{r} at {seen:?}");
    }

    // Every candidate is grantable, on the link facing its next hop.
    let mut rcp = Rcp::new(fabric);
    for c in &candidates {
        let tid = rcp
            .grant_tunnel(prefix(), &asns(topo, &c.path), 0)
            .map_err(|e| format!("{who}: {:?} not grantable: {e:?}", c.path))?;
        let (egress, link) = rcp.egress(tid).expect("just granted");
        ensure!(Some(facing(link)) == c.next_hop(), "{who}: {:?} installed on link {link}", c.path);
        let endpoint = rcp.fabric().router(egress).addr;
        let wire = encap::encapsulate(&probe!(0), Ipv4Addr4::new(192, 0, 2, 254), endpoint, tid).expect("fits");
        let got = rcp.fabric().forward(0, wire);
        let want = Forwarded::TunnelExit { link, inner: probe!(0), endpoint_router: egress };
        ensure!(got == want, "{who}: tunnel {tid} forwarded {got:?}");
    }
    Ok(hidden)
}

/// Every destination of a small graph, at least sixteen spread over the
/// tiers of a generated one (core first, stubs last).
fn dests(topo: &Topology) -> impl Iterator<Item = NodeId> + '_ {
    topo.nodes().step_by((topo.num_nodes() / 16).max(1))
}

/// Every AS but the destination, at both widths; returns (pairs checked
/// per width, views classic iBGP left short at each width).
#[track_caller]
fn assert_agrees(topo: &Topology, dests: impl Iterator<Item = NodeId>) -> (usize, [usize; 2]) {
    let (mut pairs, mut hidden) = (0, [0; 2]);
    for dest in dests {
        let st = RoutingState::solve(topo, dest);
        for x in topo.nodes().filter(|&x| x != dest) {
            for (w, &wiring) in WIDTHS.iter().enumerate() {
                hidden[w] += check(&st, x, wiring).unwrap_or_else(|diff| panic!("{diff}"));
            }
            pairs += 1;
        }
    }
    (pairs, hidden)
}

/// Figure 1.1 (A..F = AS 1..6), every destination, every AS.
///
/// ```text
///   provider -> customer        peer == peer
///   B -> A     D -> A           B == C
///   B -> E     D -> E           C == E
///   C -> F     E -> F
/// ```
#[test]
fn figure_1_1_routers_agree_with_the_solver() {
    let (topo, [a, b, c, _d, e, f]) = figure_1_1();
    assert_eq!(assert_agrees(&topo, dests(&topo)).0, 30);
    // The paper's running example at router level: B toward F holds the
    // customer route via E and the peer route via C on different edge
    // routers; the default leaves toward E, and BCF is there to be sold.
    let st = RoutingState::solve(&topo, f);
    let (fabric, neighbours) = as_fabric(&st, b, SOLVER);
    assert_eq!(neighbours, [a, c, e], "B's links 0, 1, 2 face A, C, E");
    assert_eq!(fabric.valid_as_paths(prefix()), [vec![3, 6], vec![5, 6]]);
    match fabric.forward(0, probe!(0)) {
        Forwarded::Exit { link: 2, via_routers, .. } => assert_eq!(via_routers, [0, 3]),
        other => panic!("B's default toward F: {other:?}"),
    }
}

#[test]
fn generated_topology_routers_agree_with_the_solver() {
    // Sibling links included: `learned_from` carries the inherited class,
    // which the wire-level rung's two-valued export flag cannot.
    let topo = GenParams::tiny(7).generate();
    let (pairs, hidden) = assert_agrees(&topo, dests(&topo));
    assert!(pairs >= 16 * (topo.num_nodes() - 1), "{pairs} (AS, destination) pairs");
    // ADD-PATH is observable: a router with two sessions advertises one
    // route over classic iBGP, a router with one has nothing to hide.
    assert_eq!(hidden[0], 0, "one session per router hides nothing");
    assert!(hidden[1] > 0, "no router view was short of the full set");
}

/// A lease from the real handshake, walked as packets: A's classifier
/// pushes one flow into the tunnel B's controller granted for the sold
/// path, and it leaves B toward C while A's default traffic leaves
/// toward E.
#[test]
fn a_negotiated_lease_leaves_on_the_link_the_data_plane_installed() {
    let (topo, [a, b, c, _d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let mut net = MiroNetwork::new(&topo);
    net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).expect("the paper's example succeeds");
    let lease = net.leases()[0].clone();
    assert_eq!((lease.downstream, lease.upstream, &lease.path), (b, a, &vec![c, f]));

    // Downstream: B's routers under its controller, the sold path granted.
    let (fabric, neighbours) = as_fabric(&st, b, SOLVER);
    let mut rcp = Rcp::new(fabric);
    let tid = rcp.grant_tunnel(prefix(), &asns(&topo, &lease.path), 0).expect("an edge router holds BCF");
    assert_eq!(tid, lease.id.0, "the controller's table is the control plane's: same allocator");
    let (egress, sold_link) = rcp.egress(tid).expect("just granted");
    let endpoint = rcp.fabric().router(egress).addr;
    let from_a = 1 + neighbours.iter().position(|&n| n == a).expect("A is B's neighbour");

    // Upstream: A is the burst engine; voice takes the tunnel.
    const TO_B: u32 = 7;
    let a_addr = Ipv4Addr4::new(192, 0, 2, 254);
    let upstream = Engine::new(
        a_addr,
        lpm_from(&[(prefix(), TO_B), (Prefix::new(endpoint, 32), TO_B)]),
        Classifier::new(vec![(Match { tos: Some(0xb8), ..Default::default() }, Action::Tunnel(tid))]),
        vec![TunnelSpec { id: tid, ingress: a_addr, endpoint }],
        vec![],
    );
    let send = |tos: u8| match upstream.forward_one(&probe!(tos)) {
        OneVerdict::Forward { next_hop: TO_B, packet } | OneVerdict::Encap { next_hop: TO_B, packet, .. } => {
            rcp.fabric().forward(from_a, packet)
        }
        other => panic!("A must hand the packet to B: {other:?}"),
    };

    let tunnelled = match send(0xb8) {
        Forwarded::TunnelExit { link, inner, endpoint_router } => {
            assert_eq!(endpoint_router, egress);
            let (h, payload) = Ipv4Header::parse(inner).expect("the inner packet survives");
            assert_eq!((h.dscp_ecn, h.ttl, &payload[..]), (0xb8, 63, &b"probe"[..]), "one hop: A");
            link
        }
        other => panic!("voice must take the tunnel: {other:?}"),
    };
    let default = match send(0) {
        Forwarded::Exit { link, packet, .. } => {
            assert_eq!(Ipv4Header::parse(packet).expect("intact").0.ttl, 62, "two hops: A, then B");
            link
        }
        other => panic!("best effort must take the default: {other:?}"),
    };
    assert_eq!(tunnelled, sold_link);
    assert_eq!(neighbours[tunnelled as usize], c, "the lease's path starts at C");
    assert_eq!(neighbours[default as usize], e, "the default is BEF");
    assert_ne!(tunnelled, default);
}

/// The rung is an oracle, not a tautology: break either half of the
/// wiring and some AS of either graph leaves on a link the solver would
/// not use.
#[test]
fn a_wrong_wiring_disagrees_with_the_solver() {
    let tiny = GenParams::tiny(7).generate();
    for (what, wiring) in [
        ("descending-ASN neighbour order", Wiring { descending_neighbours: true, ..SOLVER }),
        ("one LOCAL_PREF for every class", Wiring { flat_local_pref: true, ..SOLVER }),
    ] {
        for topo in [&figure_1_1().0, &tiny] {
            let caught = dests(topo).any(|dest| {
                let st = RoutingState::solve(topo, dest);
                topo.nodes().filter(|&x| x != dest).any(|x| check(&st, x, wiring).is_err())
            });
            assert!(caught, "{what} went unnoticed on {} ASes", topo.num_nodes());
        }
    }
}
