//! The requesting-AS side: whom to negotiate with, and the avoid-AS
//! application (sections 3.3, 5.3, 6.2.1).
//!
//! The paper's negotiation-targeting heuristic for a security policy like
//! "avoid AS 312" is: contact the ASes sitting on the default path between
//! the requester and the offending AS (section 6.2.1). The evaluation also
//! studies plain 1-hop negotiation with immediate neighbors
//! (Figures 5.2/5.3's "1-hop" vs "path" curves). Both are
//! [`TargetStrategy`] variants, and [`avoid_via_negotiation`] is the
//! search loop whose success rates and state counts become Tables 5.2/5.3.

use crate::export::{export_rel_toward, Offer, ResponderConfig};
use crate::negotiate::Constraint;
use miro_bgp::route::CandidateRoute;
use miro_bgp::solver::RoutingState;
use miro_topology::NodeId;

/// Whom the requesting AS contacts, in order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetStrategy {
    /// ASes on the requester's default path toward the destination,
    /// nearest first — stopping *before* the avoided AS when one is given
    /// (traffic must still reach the responder cleanly). The destination
    /// itself is never contacted (its alternate routes to itself are
    /// vacuous).
    OnPath,
    /// The requester's immediate neighbors, in AS-number order
    /// (Figures 5.2/5.3's "1-hop" scenario).
    OneHop,
    /// On-path ASes first, then any remaining immediate neighbors — the
    /// ablation strategy discussed in DESIGN.md.
    OnPathThenNeighbors,
}

impl TargetStrategy {
    /// Paper's curve label.
    pub fn label(self) -> &'static str {
        match self {
            TargetStrategy::OnPath => "path",
            TargetStrategy::OneHop => "1-hop",
            TargetStrategy::OnPathThenNeighbors => "path+1-hop",
        }
    }

    /// Ordered negotiation targets for `src` in routing state `st`.
    /// With `avoid = Some(a)`, on-path targets stop before `a`.
    pub fn targets(
        self,
        st: &RoutingState<'_>,
        src: NodeId,
        avoid: Option<NodeId>,
    ) -> Vec<NodeId> {
        let topo = st.topology();
        let on_path = || -> Vec<NodeId> {
            let Some(path) = st.path(src) else { return Vec::new() };
            let mut out = Vec::new();
            for &hop in &path {
                if Some(hop) == avoid || hop == st.dest() {
                    break;
                }
                out.push(hop);
            }
            out
        };
        let one_hop = || -> Vec<NodeId> {
            let mut ns: Vec<NodeId> = topo
                .neighbors(src)
                .iter()
                .map(|&(n, _)| n)
                .filter(|&n| Some(n) != avoid && n != st.dest())
                .collect();
            ns.sort_by_key(|&n| topo.asn(n));
            ns
        };
        match self {
            TargetStrategy::OnPath => on_path(),
            TargetStrategy::OneHop => one_hop(),
            TargetStrategy::OnPathThenNeighbors => {
                let mut v = on_path();
                for n in one_hop() {
                    if !v.contains(&n) {
                        v.push(n);
                    }
                }
                v
            }
        }
    }
}

/// The ASes `src` may ask to avoid on its way to `st.dest()` (section
/// 5.3's sampling rule): on its default path, not the destination, and not
/// one of its own neighbours — in path order. Empty when `src` is unrouted
/// or adjacent to everything on the path.
pub fn avoidable_ases(st: &RoutingState<'_>, src: NodeId) -> Vec<NodeId> {
    let mut path = st.path(src).unwrap_or_default();
    path.pop(); // the destination
    path.retain(|&x| st.topology().rel(src, x).is_none());
    path
}

/// Result of one avoid-AS attempt (one (src, dest, avoid) tuple of
/// section 5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvoidOutcome {
    /// Could the objective be met *without* MIRO: some ordinary BGP
    /// candidate at the source already avoids the AS (Table 5.2's
    /// "Single" column).
    pub single_path_success: bool,
    /// Did negotiation find an avoiding route (Table 5.2's "Multi"
    /// columns)? `true` whenever `single_path_success` is (no negotiation
    /// is needed then).
    pub success: bool,
    /// ASes contacted before success or exhaustion (Table 5.3 "AS#").
    pub ases_contacted: usize,
    /// Candidate paths received across those negotiations (Table 5.3
    /// "Path#").
    pub paths_received: usize,
    /// The responder and route finally chosen, when negotiation succeeded.
    pub chosen: Option<(NodeId, CandidateRoute)>,
}

/// Run the avoid-AS search: can `src` reach `st.dest()` while avoiding
/// `avoid`, when every responder answers under `cfg` and `src` contacts
/// them in `strategy`'s order? `enabled`, when given, marks which ASes
/// have deployed MIRO (the incremental-deployment experiment, section
/// 5.3.3); others cannot respond.
pub fn avoid_via_negotiation(
    st: &RoutingState<'_>,
    src: NodeId,
    avoid: NodeId,
    cfg: &ResponderConfig,
    strategy: TargetStrategy,
    enabled: Option<&[bool]>,
) -> AvoidOutcome {
    // Single-path check: does any ordinary BGP candidate at src avoid it?
    let single = st
        .candidates(src)
        .into_iter()
        .find(|c| !c.traverses(avoid));
    if let Some(route) = single {
        return AvoidOutcome {
            single_path_success: true,
            success: true,
            ases_contacted: 0,
            paths_received: 0,
            chosen: Some((src, route)),
        };
    }

    let mut contacted = 0;
    let mut received = 0;
    for responder in strategy.targets(st, src, Some(avoid)) {
        if let Some(mask) = enabled {
            if !mask[responder as usize] {
                continue; // not a MIRO speaker; cannot answer a pull request
            }
        }
        let offers = cfg.offers(st, src, responder, false);
        contacted += 1;
        received += offers.len();
        let constraint = Constraint::AvoidAs(avoid);
        if let Some(best) = offers
            .iter()
            .filter(|o| constraint.admits(o))
            .min_by_key(|o| (o.route.class, o.route.len(), o.price))
        {
            return AvoidOutcome {
                single_path_success: false,
                success: true,
                ases_contacted: contacted,
                paths_received: received,
                chosen: Some((responder, best.route.clone())),
            };
        }
    }
    AvoidOutcome {
        single_path_success: false,
        success: false,
        ases_contacted: contacted,
        paths_received: received,
        chosen: None,
    }
}

/// Multi-hop negotiation (section 3.3): "In responding to a request, an
/// AS may also contact one or more downstream ASes to provide additional
/// paths. For example, AS B may ask AS C to advertise alternate paths as
/// part of satisfying the request from AS A, if C is not already
/// announcing a path that avoids AS E."
///
/// Runs the ordinary [`avoid_via_negotiation`] search first; when it
/// fails, each contacted responder recursively queries the ASes on *its
/// own* default path before the offending AS and re-offers composed
/// paths (its default segment up to the sub-responder, then the
/// sub-responder's alternate). One level of recursion — the paper
/// expects "an end-to-end path typically includes at most one tunnel",
/// and concatenations to be "so rare they can be precluded" beyond this.
pub fn avoid_via_multihop_negotiation(
    st: &RoutingState<'_>,
    src: NodeId,
    avoid: NodeId,
    cfg: &ResponderConfig,
    strategy: TargetStrategy,
    enabled: Option<&[bool]>,
) -> AvoidOutcome {
    let direct = avoid_via_negotiation(st, src, avoid, cfg, strategy, enabled);
    if direct.success {
        return direct;
    }
    let topo = st.topology();
    let mut contacted = direct.ases_contacted;
    let mut received = direct.paths_received;
    let constraint = Constraint::AvoidAs(avoid);
    for responder in strategy.targets(st, src, Some(avoid)) {
        if let Some(mask) = enabled {
            if !mask[responder as usize] {
                continue;
            }
        }
        // The responder's own candidate set was exhausted by the direct
        // search; it now asks each of its *neighbors* for their
        // MIRO-only alternates (routes the neighbor holds but would never
        // export over plain BGP because they are not its best). Whether it
        // may re-offer a spliced route to `src` is its own export decision
        // toward `src`.
        let rel_src = export_rel_toward(st, src, responder);
        let responder_best = st.best(responder).map(|b| b.class);
        for &(sub, rel_of_sub) in topo.neighbors(responder) {
            if sub == src || sub == st.dest() || sub == avoid {
                continue;
            }
            if let Some(mask) = enabled {
                if !mask[sub as usize] {
                    continue;
                }
            }
            // The responder is the sub-responder's requester.
            let offers = cfg.offers(st, responder, sub, false);
            contacted += 1;
            received += offers.len();
            let composed_ok = |o: &Offer| {
                // Class of the composed route as the responder would hold
                // it: one hop to the neighbor, then the alternate.
                let class = miro_bgp::route::ExportScope::received_class(
                    o.route.class,
                    rel_of_sub,
                );
                constraint.admits(o) && cfg.policy.reveals(class, responder_best, rel_src)
            };
            if let Some(best) = offers
                .iter()
                .filter(|o| composed_ok(o))
                .min_by_key(|o| (o.route.class, o.route.len(), o.price))
            {
                let mut path = Vec::with_capacity(best.route.len() + 1);
                path.push(sub);
                path.extend(best.route.path.iter().copied());
                let class = miro_bgp::route::ExportScope::received_class(
                    best.route.class,
                    rel_of_sub,
                );
                return AvoidOutcome {
                    single_path_success: false,
                    success: true,
                    ases_contacted: contacted,
                    paths_received: received,
                    chosen: Some((responder, CandidateRoute { path, class })),
                };
            }
        }
    }
    AvoidOutcome {
        ases_contacted: contacted,
        paths_received: received,
        ..direct
    }
}

/// Count the alternate routes available to `src` toward `st.dest()` when
/// every responder answers under `cfg`: its ordinary BGP candidates plus
/// every alternate each of `strategy`'s targets would offer (the Figure
/// 5.2/5.3 metric).
pub fn count_available_routes(
    st: &RoutingState<'_>,
    src: NodeId,
    cfg: &ResponderConfig,
    strategy: TargetStrategy,
) -> usize {
    let base = st.candidates(src).len();
    let extra: usize = strategy
        .targets(st, src, None)
        .into_iter()
        .map(|r| cfg.offers(st, src, r, false).len())
        .sum();
    base + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::ExportPolicy;
    use miro_bgp::solver::RoutingState;
    use miro_topology::gen::figure_1_1;

    /// The default config at export level `policy`.
    fn level(policy: ExportPolicy) -> ResponderConfig {
        ResponderConfig { policy, ..Default::default() }
    }

    #[test]
    fn figure_1_1_avoid_e_succeeds_via_b() {
        // The paper's running example: A wants to reach F avoiding E.
        // Default path is ABEF; both of A's candidates traverse E, so
        // single-path fails; negotiating with B (on path, before E)
        // surfaces BCF.
        let (t, [a, b, c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let out = avoid_via_negotiation(
            &st,
            a,
            e,
            &level(ExportPolicy::RespectExport),
            TargetStrategy::OnPath,
            None,
        );
        assert!(!out.single_path_success);
        assert!(out.success);
        assert_eq!(out.ases_contacted, 1);
        assert_eq!(out.paths_received, 1);
        let (responder, route) = out.chosen.unwrap();
        assert_eq!(responder, b);
        assert_eq!(route.path, vec![c, f]);
    }

    #[test]
    fn figure_1_1_strict_policy_hides_the_alternate() {
        // B's best (BEF) is a customer route; BCF is a peer route, so the
        // strict policy keeps it hidden and A's avoid-E attempt fails.
        let (t, [a, _b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let out = avoid_via_negotiation(
            &st,
            a,
            e,
            &level(ExportPolicy::Strict),
            TargetStrategy::OnPath,
            None,
        );
        assert!(!out.success);
        assert_eq!(out.ases_contacted, 1);
        assert_eq!(out.paths_received, 0);
    }

    #[test]
    fn on_path_targets_stop_before_avoid_and_dest() {
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        // A's default path is B E F.
        assert_eq!(TargetStrategy::OnPath.targets(&st, a, Some(e)), vec![b]);
        assert_eq!(TargetStrategy::OnPath.targets(&st, a, None), vec![b, e]);
        let _ = t;
    }

    #[test]
    fn avoidable_ases_are_on_path_non_neighbours_short_of_the_destination() {
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        assert_eq!(avoidable_ases(&st, a), vec![e], "ABEF: B is a neighbour, F the destination");
        assert!(avoidable_ases(&st, b).is_empty(), "BEF: E is a neighbour");
        assert!(avoidable_ases(&st, f).is_empty());
    }

    #[test]
    fn one_hop_targets_are_sorted_neighbors() {
        let (t, [a, b, _c, d, _e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        assert_eq!(TargetStrategy::OneHop.targets(&st, a, None), vec![b, d]);
        let _ = t;
    }

    #[test]
    fn combined_strategy_deduplicates() {
        let (t, [a, b, _c, d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let ts = TargetStrategy::OnPathThenNeighbors.targets(&st, a, None);
        assert_eq!(ts, vec![b, e, d]);
        let _ = t;
    }

    #[test]
    fn incremental_mask_disables_responders() {
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let mut mask = vec![true; t.num_nodes()];
        mask[b as usize] = false; // B has not deployed MIRO
        let out = avoid_via_negotiation(
            &st,
            a,
            e,
            &level(ExportPolicy::Flexible),
            TargetStrategy::OnPath,
            Some(&mask),
        );
        assert!(!out.success, "the only useful responder is disabled");
        assert_eq!(out.ases_contacted, 0);
    }

    #[test]
    fn single_path_success_short_circuits() {
        // D's default to F is DEF; alternate candidate DABEF? A's best
        // traverses B,E... craft simpler: B avoiding C: B's own candidates
        // include BEF which avoids C already.
        let (t, [_a, b, c, _d, _e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let out = avoid_via_negotiation(
            &st,
            b,
            c,
            &level(ExportPolicy::Strict),
            TargetStrategy::OnPath,
            None,
        );
        assert!(out.single_path_success);
        assert!(out.success);
        assert_eq!(out.ases_contacted, 0);
    }

    /// Multi-hop topology: A-B-E-F is the default; B's only alternates
    /// also cross E; but B's customer C quietly holds C-G-F, which plain
    /// BGP never surfaces (it is not C's best). Multi-hop negotiation
    /// (B asks C) finds it.
    fn multihop_topology() -> miro_topology::Topology {
        let mut bld = miro_topology::TopologyBuilder::new();
        for n in 1..=6 {
            bld.add_as(miro_topology::AsId(n));
        }
        let id = miro_topology::AsId;
        bld.provider_customer(id(2), id(1)); // B provides A
        bld.provider_customer(id(2), id(4)); // B provides E
        bld.provider_customer(id(2), id(3)); // B provides C
        bld.provider_customer(id(3), id(4)); // C provides E
        bld.provider_customer(id(3), id(6)); // C provides G
        bld.provider_customer(id(4), id(5)); // E provides F
        bld.provider_customer(id(6), id(5)); // G provides F
        bld.build_checked(true).expect("valid hierarchy")
    }

    #[test]
    fn multihop_negotiation_finds_hidden_alternates() {
        let t = multihop_topology();
        let n = |x: u32| t.node(miro_topology::AsId(x)).unwrap();
        let (a, b, c, e, f, g) = (n(1), n(2), n(3), n(4), n(5), n(6));
        let st = RoutingState::solve(&t, f);
        assert_eq!(st.path(a), Some(vec![b, e, f]), "default crosses E");
        // Direct negotiation fails under every policy: B's whole candidate
        // set crosses E.
        for policy in ExportPolicy::ALL {
            let direct =
                avoid_via_negotiation(&st, a, e, &level(policy), TargetStrategy::OnPath, None);
            assert!(!direct.success, "{policy:?} direct must fail");
        }
        // Multi-hop succeeds: B asks its customer C, which reveals CGF.
        let out = avoid_via_multihop_negotiation(
            &st,
            a,
            e,
            &level(ExportPolicy::RespectExport),
            TargetStrategy::OnPath,
            None,
        );
        assert!(out.success);
        let (responder, route) = out.chosen.unwrap();
        assert_eq!(responder, b, "the tunnel is still with the on-path responder");
        assert_eq!(route.path, vec![c, g, f]);
        assert!(!route.traverses(e));
        assert!(out.ases_contacted >= 2, "direct contact plus sub-contact");
        // Strict also works here (the composed route is customer-class,
        // matching B's best class).
        let strict = avoid_via_multihop_negotiation(
            &st,
            a,
            e,
            &level(ExportPolicy::Strict),
            TargetStrategy::OnPath,
            None,
        );
        assert!(strict.success);
    }

    #[test]
    fn multihop_is_a_superset_of_direct() {
        let t = miro_topology::GenParams::tiny(47).generate();
        let d = t.nodes().next().unwrap();
        let st = RoutingState::solve(&t, d);
        for src in t.nodes().step_by(7) {
            let Some(path) = st.path(src) else { continue };
            if path.len() < 2 {
                continue;
            }
            let avoid = path[path.len() / 2];
            if avoid == d {
                continue;
            }
            for policy in ExportPolicy::ALL {
                let direct =
                    avoid_via_negotiation(&st, src, avoid, &level(policy), TargetStrategy::OnPath, None);
                let multi = avoid_via_multihop_negotiation(
                    &st,
                    src,
                    avoid,
                    &level(policy),
                    TargetStrategy::OnPath,
                    None,
                );
                assert!(
                    !direct.success || multi.success,
                    "multi-hop can only add successes"
                );
                if let Some((_, route)) = &multi.chosen {
                    assert!(!route.traverses(avoid));
                }
            }
        }
    }

    #[test]
    fn route_counts_monotone_in_policy() {
        let t = miro_topology::GenParams::tiny(41).generate();
        let d = t.nodes().last().unwrap();
        let st = RoutingState::solve(&t, d);
        for src in t.nodes().step_by(9) {
            if src == d {
                continue;
            }
            let s = count_available_routes(&st, src, &level(ExportPolicy::Strict), TargetStrategy::OnPath);
            let e = count_available_routes(
                &st,
                src,
                &level(ExportPolicy::RespectExport),
                TargetStrategy::OnPath,
            );
            let a =
                count_available_routes(&st, src, &level(ExportPolicy::Flexible), TargetStrategy::OnPath);
            assert!(s <= e && e <= a, "policy relaxation can only add routes");
        }
    }
}
