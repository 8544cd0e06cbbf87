//! Property-based tests for the BGP substrate: the decision process is a
//! total preorder, and the solver's stable states satisfy the protocol
//! invariants on arbitrary generated topologies.

use miro_bgp::decision::{compare, select_best, Origin, RouteAttrs};
use miro_bgp::solver::RoutingState;
use miro_topology::{is_valley_free, GenParams, RouteClass};
use proptest::prelude::*;

fn arb_attrs() -> impl Strategy<Value = RouteAttrs> {
    (
        0u32..500,
        1u32..8,
        0u8..3,
        0u32..100,
        0u32..4,
        any::<bool>(),
        0u32..50,
        0u32..10,
        0u32..10,
    )
        .prop_map(
            |(lp, len, origin, med, nas, ebgp, igp, rid, addr)| RouteAttrs {
                local_pref: lp,
                as_path_len: len,
                origin: match origin {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                med,
                neighbor_as: nas,
                ebgp,
                igp_dist: igp,
                router_id: rid,
                peer_addr: addr,
            },
        )
}

proptest! {
    /// Antisymmetry: compare(a, b) is the inverse of compare(b, a).
    #[test]
    fn decision_is_antisymmetric(a in arb_attrs(), b in arb_attrs()) {
        let (ab, _) = compare(&a, &b);
        let (ba, _) = compare(&b, &a);
        prop_assert_eq!(ab, ba.reverse());
    }

    /// Reflexivity: every route ties with itself, decided by `Tie`.
    #[test]
    fn decision_is_reflexive(a in arb_attrs()) {
        let (ord, by) = compare(&a, &a);
        prop_assert_eq!(ord, std::cmp::Ordering::Equal);
        prop_assert_eq!(by, miro_bgp::decision::DecidedBy::Tie);
    }

    /// The MED step makes the relation non-transitive in full generality
    /// (a known BGP wart), but within a single neighbor AS the comparison
    /// IS transitive. Check transitivity on same-neighbor triples.
    #[test]
    fn decision_transitive_within_neighbor(
        mut a in arb_attrs(), mut b in arb_attrs(), mut c in arb_attrs()
    ) {
        a.neighbor_as = 1; b.neighbor_as = 1; c.neighbor_as = 1;
        use std::cmp::Ordering::Less;
        if compare(&a, &b).0 == Less && compare(&b, &c).0 == Less {
            prop_assert_eq!(compare(&a, &c).0, Less);
        }
    }

    /// `select_best` returns a route no other route strictly beats
    /// (restricted to same-neighbor sets where the order is total).
    #[test]
    fn select_best_is_undominated(mut routes in proptest::collection::vec(arb_attrs(), 1..12)) {
        for r in &mut routes {
            r.neighbor_as = 7;
        }
        let best = select_best(&routes).expect("non-empty");
        for r in &routes {
            prop_assert_ne!(
                compare(r, &routes[best]).0,
                std::cmp::Ordering::Less,
                "a route strictly beats the selected best"
            );
        }
    }

    /// Solver invariants on arbitrary generated topologies and
    /// destinations: every selected path is valley-free, loop-free, ends
    /// at the destination, and is at least as preferred as every
    /// candidate (class first, then length among same class via the
    /// chosen candidate ordering).
    #[test]
    fn solver_stable_state_invariants(seed in 0u64..300, dsel in 0usize..120) {
        let t = GenParams::tiny(seed).generate();
        let nodes: Vec<_> = t.nodes().collect();
        let d = nodes[dsel % nodes.len()];
        let st = RoutingState::solve(&t, d);
        for x in t.nodes() {
            let Some(best) = st.best(x) else { continue };
            let path = st.path(x).expect("routed");
            if x != d {
                prop_assert_eq!(*path.last().expect("non-empty"), d);
                let mut full = vec![x];
                full.extend(&path);
                prop_assert!(is_valley_free(&t, &full), "path {:?}", full);
            }
            // Candidate consistency: the best route's (class, len) is
            // minimal over the candidate set.
            for c in st.candidates(x) {
                prop_assert!(
                    (best.class, best.len as usize) <= (c.class, c.len()),
                    "candidate beats best at {}: {:?} vs {:?}",
                    x, (best.class, best.len), (c.class, c.len())
                );
            }
        }
    }

    /// Export-rule soundness: whenever the solver says `x` learned a
    /// route from `n`, that export was legal — peer/provider links only
    /// ever carry customer-class routes of the sender.
    #[test]
    fn candidates_respect_export_rules(seed in 0u64..200) {
        let t = GenParams::tiny(seed).generate();
        let d = t.nodes().next().expect("non-empty");
        let st = RoutingState::solve(&t, d);
        for x in t.nodes() {
            for &(n, _) in t.neighbors(x) {
                if let Some(c) = st.learned_from(x, n) {
                    let sender = st.best(n).expect("sender routed");
                    let rel_of_x_to_n = t.rel(n, x).expect("adjacent");
                    if matches!(rel_of_x_to_n, miro_topology::Rel::Peer | miro_topology::Rel::Provider) {
                        prop_assert_eq!(sender.class, RouteClass::Customer);
                    }
                    prop_assert!(!c.traverses(x), "loop in learned route");
                }
            }
        }
    }

    /// Parallel whole-table determinism: the merged table is
    /// byte-identical whatever the thread count (one thread claims in
    /// slice order, more claim degree-descending) and whether the arenas
    /// come from a pool kept across calls or one built for the call. This
    /// is the guardrail behind running the bench parallel-by-default.
    #[test]
    fn parallel_schedule_is_invisible_in_the_table(seed in 0u64..60, ndests in 1usize..24) {
        use miro_bgp::engine::{par_over_dests_whatif, ScratchPool, WhatIf};
        let t = GenParams::tiny(seed).generate();
        let dests: Vec<_> = t.nodes().take(ndests).collect();
        let tables = |threads: usize, pool: Option<&ScratchPool>| {
            let row = |wi: &mut WhatIf<'_, '_>| {
                t.nodes().map(|x| wi.base().best(x)).collect::<Vec<_>>()
            };
            match pool {
                Some(pool) => pool.over_dests(&t, &dests, threads, |_, wi| row(wi)),
                None => par_over_dests_whatif(&t, &dests, threads, |_, wi| row(wi)),
            }
        };
        let base = tables(1, None);
        let pool = ScratchPool::for_nodes(t.num_nodes());
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(&tables(threads, None), &base, "{} threads diverged", threads);
            prop_assert_eq!(
                &tables(threads, Some(&pool)), &base,
                "{} threads pooled diverged", threads
            );
        }
    }
}
