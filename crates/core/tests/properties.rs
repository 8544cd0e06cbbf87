//! Property-based tests for the MIRO core: export-policy lattice
//! invariants, negotiation outcomes, and tunnel-manager state machine
//! soundness under arbitrary operation sequences.

use miro_bgp::solver::RoutingState;
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_core::strategy::{avoid_via_negotiation, count_available_routes, TargetStrategy};
use miro_core::tunnel::{TeardownReason, TunnelManager};
use miro_topology::GenParams;
use proptest::prelude::*;

/// The default config at export level `policy`.
fn level(policy: ExportPolicy) -> ResponderConfig {
    ResponderConfig { policy, ..Default::default() }
}

proptest! {
    /// The export lattice /s ⊆ /e ⊆ /a holds for every responder, every
    /// destination, a spread of requesters and the switch scope, on
    /// arbitrary seeds.
    #[test]
    fn export_policies_form_a_lattice(seed in 0u64..150, dsel in 0usize..50) {
        let t = GenParams::tiny(seed).generate();
        let nodes: Vec<_> = t.nodes().collect();
        let d = nodes[dsel % nodes.len()];
        let st = RoutingState::solve(&t, d);
        for r in t.nodes().step_by(11) {
            let asks = t.nodes().step_by(9).filter(|&q| q != r).map(|q| (q, false));
            for (q, switch) in asks.chain([(d, true)]) {
                let [s, e, a] = ExportPolicy::ALL.map(|p| level(p).offers(&st, q, r, switch));
                for o in &s {
                    prop_assert!(e.contains(o));
                }
                for o in &e {
                    prop_assert!(a.contains(o));
                }
                // Offers never include the responder's own best path.
                if let Some(best) = st.path(r) {
                    for o in &a {
                        prop_assert_ne!(&o.route.path, &best);
                    }
                }
            }
        }
    }

    /// Negotiated avoid-AS routes actually avoid the AS, and outcome
    /// success is monotone in both policy strength and deployment.
    #[test]
    fn avoid_outcomes_are_sound_and_monotone(seed in 0u64..100, pick in 0usize..200) {
        let t = GenParams::tiny(seed).generate();
        let nodes: Vec<_> = t.nodes().collect();
        let d = nodes[pick % nodes.len()];
        let st = RoutingState::solve(&t, d);
        let src = nodes[(pick * 7 + 3) % nodes.len()];
        let Some(path) = st.path(src) else { return Ok(()) };
        if path.len() < 2 { return Ok(()); }
        let avoid = path[path.len() / 2];
        if avoid == d || avoid == src { return Ok(()); }
        let mut results = Vec::new();
        for policy in ExportPolicy::ALL {
            let out = avoid_via_negotiation(&st, src, avoid, &level(policy), TargetStrategy::OnPath, None);
            if let Some((_, route)) = &out.chosen {
                prop_assert!(!route.traverses(avoid), "chosen route violates constraint");
            }
            results.push(out.success);
        }
        prop_assert!(!results[0] || results[1], "strict ⊆ export success");
        prop_assert!(!results[1] || results[2], "export ⊆ flexible success");
        // Disabling everyone kills negotiated (non-single-path) success.
        let none = vec![false; t.num_nodes()];
        let dead = avoid_via_negotiation(
            &st, src, avoid, &level(ExportPolicy::Flexible), TargetStrategy::OnPath, Some(&none));
        prop_assert_eq!(dead.success, dead.single_path_success);
    }

    /// Route counts are monotone in policy and consistent across
    /// strategies: the combined strategy sees at least as many routes as
    /// either component.
    #[test]
    fn route_counts_monotone(seed in 0u64..100) {
        let t = GenParams::tiny(seed).generate();
        let d = t.nodes().last().expect("non-empty");
        let st = RoutingState::solve(&t, d);
        for src in t.nodes().step_by(13) {
            if src == d { continue; }
            let on = count_available_routes(&st, src, &level(ExportPolicy::Flexible), TargetStrategy::OnPath);
            let hop = count_available_routes(&st, src, &level(ExportPolicy::Flexible), TargetStrategy::OneHop);
            let both = count_available_routes(
                &st, src, &level(ExportPolicy::Flexible), TargetStrategy::OnPathThenNeighbors);
            prop_assert!(both >= on);
            prop_assert!(both >= hop);
            let s = count_available_routes(&st, src, &level(ExportPolicy::Strict), TargetStrategy::OnPath);
            prop_assert!(s <= on);
        }
    }

    /// Tunnel-manager state machine: after an arbitrary sequence of
    /// establish / keepalive / expire / teardown operations, the live set
    /// and the teardown history are consistent (no double-free, no lost
    /// tunnels, live + torn == established).
    #[test]
    fn tunnel_manager_state_machine(ops in proptest::collection::vec((0u8..4, 0u32..8, 0u64..100), 1..60)) {
        let mut m = TunnelManager::new();
        let mut established = 0usize;
        let mut ids = Vec::new();
        for (op, sel, time) in ops {
            match op {
                0 => {
                    let id = m.establish(1, 9, vec![2, 9], 0, time);
                    prop_assert!(!ids.contains(&id), "id reuse");
                    ids.push(id);
                    established += 1;
                }
                1 => {
                    if let Some(&id) = ids.get(sel as usize % ids.len().max(1)) {
                        let _ = m.keepalive(1, id, time);
                    }
                }
                2 => {
                    let _ = m.expire(time, 10);
                }
                _ => {
                    if let Some(&id) = ids.get(sel as usize % ids.len().max(1)) {
                        let _ = m.teardown(1, id, TeardownReason::PeerRequest);
                    }
                }
            }
            prop_assert_eq!(m.len() + m.torn_down.len(), established);
            // No tunnel is both live and torn down.
            for &(id, _) in &m.torn_down {
                prop_assert!(m.get(1, id).is_none());
            }
        }
    }
}
