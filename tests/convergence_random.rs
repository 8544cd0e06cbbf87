//! Randomized versions of the Chapter 7 theorems: on random hierarchical
//! topologies with random tunnel desires, every safety guideline must
//! converge under every fair activation schedule we throw at it.
//! (The *unrestricted* configuration is allowed to diverge — that is the
//! point of the counter-examples — so no assertion is made there.)

use miro_bgp::route::ExportScope;
use miro_bgp::solver::RoutingState;
use miro_convergence::gadgets::{fig7_1, fig7_2};
use miro_convergence::{Desire, Guideline, OfferRule, TunnelSim};
use miro_core::export::{export_rel_toward, ExportPolicy, ResponderConfig};
use miro_topology::path::{classify_route, has_duplicates};
use miro_topology::{GenParams, NodeId, RouteClass, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Random desires: pick sources, walk their default paths, and ask an
/// on-path AS for one of its real candidates (what MIRO negotiations
/// actually produce).
fn random_desires(
    topo: &miro_topology::Topology,
    rng: &mut StdRng,
    count: usize,
) -> Vec<Desire> {
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let mut out = Vec::new();
    let mut guard = 0;
    while out.len() < count && guard < count * 200 {
        guard += 1;
        let dest = nodes[rng.gen_range(0..nodes.len())];
        let req = nodes[rng.gen_range(0..nodes.len())];
        if req == dest {
            continue;
        }
        let st = RoutingState::solve(topo, dest);
        let Some(path) = st.path(req) else { continue };
        if path.len() < 2 {
            continue;
        }
        let responder = path[rng.gen_range(0..path.len() - 1)];
        if responder == dest || responder == req {
            continue;
        }
        let cands = st.candidates(responder);
        if cands.is_empty() {
            continue;
        }
        let wanted = cands[rng.gen_range(0..cands.len())].path.clone();
        out.push(Desire { requester: req, responder, dest, wanted });
    }
    out
}

/// The random hierarchy of topology seed `seed`, its twelve desires and
/// the generator that drew them, to draw on from.
fn hierarchy(seed: u64) -> (Topology, Vec<Desire>, StdRng) {
    let topo = GenParams {
        name: "conv".into(),
        num_nodes: 90,
        target_pc_links: 150,
        target_peer_links: 14,
        target_sibling_links: 3,
        lowtier_peering: false,
        seed,
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
    let desires = random_desires(&topo, &mut rng, 12);
    (topo, desires, rng)
}

/// Every guideline must converge under three schedules; returns how many
/// leaf advertisements the converged states made. Only Guideline C makes
/// any, and each is a route its leaf could install: addressed to a leaf,
/// through the requester that holds the tunnel, loop-free, and a provider
/// route there — the class a leaf re-exports to nobody, which is why
/// Theorem 3 can add them to Guideline B.
fn run_guideline(seed: u64, guideline: Guideline) -> usize {
    let (topo, desires, mut rng) = hierarchy(seed);
    assert!(!desires.is_empty());
    let config = match guideline {
        Guideline::D => {
            // A random *total* order per requester over all ASes: total
            // orders are valid strict partial orders and exercise the gate.
            let mut orders: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            for d in &desires {
                orders.entry(d.requester).or_insert_with(|| {
                    let mut v: Vec<NodeId> = topo.nodes().collect();
                    // Deterministic shuffle.
                    for i in (1..v.len()).rev() {
                        v.swap(i, rng.gen_range(0..=i));
                    }
                    v
                });
            }
            Guideline::config_with_order(orders)
        }
        g => g.config(),
    };
    let mut advertised = 0;
    for sched_seed in 0..3u64 {
        let mut sim = TunnelSim::new(&topo, config.clone(), desires.clone());
        let out = sim.run(sched_seed ^ seed, 500);
        assert!(
            out.converged(),
            "{guideline:?} must converge (topo seed {seed}, sched {sched_seed})"
        );
        for (leaf, dest, path) in sim.leaf_advertisements() {
            let why = format!("{guideline:?}, topo seed {seed}: {path:?} to leaf {leaf}");
            assert_eq!(guideline, Guideline::C, "{why}");
            assert!(topo.is_leaf(leaf), "{why}");
            assert!(desires.iter().any(|d| d.requester == path[0] && d.dest == dest), "{why}");
            assert_eq!(path.last(), Some(&dest), "{why}");
            assert!(!path.contains(&leaf) && !has_duplicates(&path), "{why}");
            assert_eq!(classify_route(&topo, leaf, &path), Some(RouteClass::Provider), "{why}");
            advertised += 1;
        }
    }
    advertised
}

#[test]
fn guideline_b_always_converges() {
    for seed in 0..6 {
        assert_eq!(run_guideline(seed, Guideline::B), 0, "B never re-advertises a tunnel");
    }
}

#[test]
fn guideline_c_always_converges() {
    let advertised: usize = (0..6).map(|seed| run_guideline(seed, Guideline::C)).sum();
    assert!(advertised > 0, "no established tunnel had a leaf neighbour to tell");
}

#[test]
fn guideline_d_always_converges() {
    for seed in 0..6 {
        run_guideline(seed, Guideline::D);
    }
}

#[test]
fn guideline_e_always_converges() {
    for seed in 0..6 {
        run_guideline(seed, Guideline::E);
    }
}

/// Mixing guidelines (section 7.4): desires split between B-style and
/// E-style constraints still converge. We model the mix with the
/// strictest common transport (pinned BGP) and mixed offer rules by
/// running the two configurations on disjoint desire subsets over the
/// same topology — stability of each layer implies stability of the
/// union because pinned-BGP tunnels never interact.
#[test]
fn mixed_guidelines_converge() {
    let topo = GenParams::tiny(61).generate();
    let mut rng = StdRng::seed_from_u64(0xA1);
    let desires = random_desires(&topo, &mut rng, 16);
    let (left, right) = desires.split_at(desires.len() / 2);
    let mut sim_b = TunnelSim::new(&topo, Guideline::B.config(), left.to_vec());
    let mut sim_e = TunnelSim::new(&topo, Guideline::E.config(), right.to_vec());
    assert!(sim_b.run(1, 500).converged());
    assert!(sim_e.run(2, 500).converged());
}

/// Convergence is schedule-independent for the safe guidelines: the set
/// of established tunnels at quiescence is identical across schedules
/// (the stable state is unique, as the constructive proofs build it).
#[test]
fn guideline_e_stable_state_is_schedule_independent() {
    let topo = GenParams::tiny(62).generate();
    let mut rng = StdRng::seed_from_u64(0xB2);
    let desires = random_desires(&topo, &mut rng, 10);
    let mut reference: Option<Vec<bool>> = None;
    for sched in 0..8u64 {
        let mut sim = TunnelSim::new(&topo, Guideline::E.config(), desires.clone());
        assert!(sim.run(sched, 500).converged());
        let state: Vec<bool> =
            (0..desires.len()).map(|i| sim.is_established(i)).collect();
        match &reference {
            None => reference = Some(state),
            Some(r) => assert_eq!(&state, r, "schedule {sched} reached a different state"),
        }
    }
}

/// Guidelines D/E's "strict policy" (`OfferRule::SameClassCandidates`)
/// against Chapter 5's `/s` (`ResponderConfig::offers` under `Strict`),
/// desire by desire on the Figure 7.1 / 7.2 gadgets and the random
/// hierarchies above. The rule is read off the simulator itself: alone
/// under Guideline E (same-class offers, pinned-BGP transport, no gate), a
/// desire is established exactly when the rule offers its path and the
/// requester has a BGP route to the responder. `/s` never offers what the
/// rule refuses, and every desire only the rule offers is the responder's
/// own best path (which `/s` never offers), a same-class route outside the
/// requester's export scope, or both. DESIGN.md records the counts and a
/// worked example.
#[test]
fn same_class_candidates_differ_from_strict_offers_only_by_scope_and_best() {
    assert_eq!(Guideline::E.config().offer, OfferRule::SameClassCandidates);
    let strict = ResponderConfig { policy: ExportPolicy::Strict, ..Default::default() };
    let gadgets = [fig7_1(), fig7_2()].map(|(topo, _, desires)| (topo, desires));
    let hierarchies = (0..6).map(hierarchy).map(|(topo, desires, _)| (topo, desires));
    // Per desire set: both offer, both refuse, and the rule alone offers
    // the responder's best path / an out-of-scope route / both.
    let mut counts = Vec::new();
    for (topo, desires) in gadgets.into_iter().chain(hierarchies) {
        let mut n = [0usize; 5];
        for d in desires {
            let st = RoutingState::solve(&topo, d.dest);
            assert!(
                RoutingState::solve(&topo, d.responder).path(d.requester).is_some(),
                "{d:?}: the requester reaches the responder"
            );
            let mut alone = TunnelSim::new(&topo, Guideline::E.config(), vec![d.clone()]);
            assert!(alone.run(0, 10).converged());
            let rule = alone.is_established(0);
            let offered = (strict.offers(&st, d.requester, d.responder, false).iter())
                .any(|o| o.route.path == d.wanted);
            assert!(rule || !offered, "{d:?}: /s offers what the rule refuses");
            if rule == offered {
                n[usize::from(!rule)] += 1;
                continue;
            }
            let class = st.candidates(d.responder).into_iter().find(|c| c.path == d.wanted);
            let class = class.expect("the rule offers a candidate").class;
            let toward = export_rel_toward(&st, d.requester, d.responder);
            let best = st.path(d.responder).as_ref() == Some(&d.wanted);
            match (best, ExportScope::allows(class, toward)) {
                (true, true) => n[2] += 1,
                (false, false) => n[3] += 1,
                (true, false) => n[4] += 1,
                (false, true) => panic!("{d:?}: an in-scope same-class alternate /s hides"),
            }
        }
        counts.push(n);
    }
    // Figure 7.1: each AS wants its peer's provider route, its best and
    // not exported to a peer. Figure 7.2: D wants its provider B's best,
    // a peer route, which a customer may be sent.
    assert_eq!(counts[..2], [[0, 0, 0, 0, 3], [0, 0, 3, 0, 0]]);
    let total = counts.iter().fold([0; 5], |t, n| std::array::from_fn(|i| t[i] + n[i]));
    assert_eq!(total, [12, 18, 45, 0, 3], "per set: {counts:?}");
}
