//! Randomized versions of the Chapter 7 theorems: on random hierarchical
//! topologies with random tunnel desires, every safety guideline must
//! converge under every fair activation schedule we throw at it.
//! (The *unrestricted* configuration is allowed to diverge — that is the
//! point of the counter-examples — so no assertion is made there.)

use miro_bgp::solver::RoutingState;
use miro_convergence::{Desire, Guideline, TunnelSim};
use miro_topology::path::{classify_route, has_duplicates};
use miro_topology::{GenParams, NodeId, RouteClass};
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

/// Every guideline must converge under three schedules; returns how many
/// leaf advertisements the converged states made. Only Guideline C makes
/// any, and each is a route its leaf could install: addressed to a leaf,
/// through the requester that holds the tunnel, loop-free, and a provider
/// route there — the class a leaf re-exports to nobody, which is why
/// Theorem 3 can add them to Guideline B.
fn run_guideline(seed: u64, guideline: Guideline) -> usize {
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
