//! Selective export of alternate routes (section 3.4 / section 5.1).
//!
//! A MIRO responding AS does not dump its whole rib-in on a requester; it
//! applies policy. The evaluation studies three levels:
//!
//! * **Strict** (`/s`): only alternates with the *same local preference*
//!   (same business class) as the route it currently advertises, still
//!   subject to conventional export rules. This is the policy the
//!   convergence Guidelines D/E assume ("same-class routes", section 7.3.3).
//! * **RespectExport** (`/e`): every alternate the conventional export
//!   rules would allow toward this requester (e.g. everything to a
//!   customer, customer-learned routes to a peer).
//! * **Flexible** (`/a`): every alternate, relationships ignored — the
//!   paper's upper bound on exposable diversity.

use miro_bgp::route::{CandidateRoute, ExportScope};
use miro_bgp::solver::RoutingState;
use miro_topology::{NodeId, Rel, RouteClass};

/// The responding AS's alternate-route export policy.
///
/// ```
/// use miro_bgp::solver::RoutingState;
/// use miro_core::export::ExportPolicy;
/// use miro_topology::{gen::figure_1_1, Rel};
///
/// // In Figure 1.1, B selected BEF but also knows the peer route BCF.
/// let (topo, [_a, b, c, _d, _e, f]) = figure_1_1();
/// let st = RoutingState::solve(&topo, f);
/// // Strict export hides it (different class from B's best)...
/// assert!(ExportPolicy::Strict.offers(&st, b, Rel::Customer).is_empty());
/// // ...the conventional export policy reveals it to a customer.
/// let offers = ExportPolicy::RespectExport.offers(&st, b, Rel::Customer);
/// assert_eq!(offers[0].route.path, vec![c, f]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExportPolicy {
    /// `/s` — same class as the current best route, conventional export.
    Strict,
    /// `/e` — anything the conventional export rules allow.
    RespectExport,
    /// `/a` — everything (upper bound; "arguably unreasonable in practice").
    Flexible,
}

impl ExportPolicy {
    /// Paper's suffix label (`/s`, `/e`, `/a`).
    pub fn label(self) -> &'static str {
        match self {
            ExportPolicy::Strict => "/s",
            ExportPolicy::RespectExport => "/e",
            ExportPolicy::Flexible => "/a",
        }
    }

    /// All three, in the order the paper's tables list them.
    pub const ALL: [ExportPolicy; 3] =
        [ExportPolicy::Strict, ExportPolicy::RespectExport, ExportPolicy::Flexible];

    /// The alternates `responder` would reveal to a requester whose export
    /// relationship is `toward` (what the requester — or, for non-adjacent
    /// requesters, the AS the traffic would arrive through — *is to* the
    /// responder; see DESIGN.md on this documented choice).
    ///
    /// The responder's currently-selected route is excluded: the requester
    /// already sees its effects through the default path. Offers are
    /// priced by class via [`price_for_class`].
    pub fn offers(
        self,
        st: &RoutingState<'_>,
        responder: NodeId,
        toward: Rel,
    ) -> Vec<Offer> {
        let Some(best) = st.best(responder) else { return Vec::new() };
        let best_path = st.path(responder).expect("routed responder has a path");
        st.candidates(responder)
            .into_iter()
            .filter(|c| c.path != best_path && self.reveals(c.class, Some(best.class), toward))
            .map(|route| {
                let price = price_for_class(route.class);
                Offer { route, price }
            })
            .collect()
    }

    /// Does this policy reveal a route of `class` to a requester that is
    /// `toward` to the responder, whose own best route is of class `best`?
    /// `/s` keeps to `best`'s class, so a responder with no best route
    /// reveals nothing under it.
    pub(crate) fn reveals(self, class: RouteClass, best: Option<RouteClass>, toward: Rel) -> bool {
        match self {
            ExportPolicy::Flexible => true,
            ExportPolicy::RespectExport => ExportScope::allows(class, toward),
            ExportPolicy::Strict => best == Some(class) && ExportScope::allows(class, toward),
        }
    }
}

/// One alternate route offered during negotiation, with the price tag the
/// responding AS attached (section 3.4: "potentially tag these routes with
/// preference or pricing information"; section 6.2.2's worked example
/// prices customer routes below peer routes below provider routes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Offer {
    /// The alternate route, as the responder holds it.
    pub route: CandidateRoute,
    /// Asking price for carrying the requester's traffic on it.
    pub price: u32,
}

/// Default price schedule, mirroring the Chapter 6 example (customer routes
/// sell for less than peer routes; provider routes cost the responder real
/// money, so they are dearest).
pub fn price_for_class(class: RouteClass) -> u32 {
    match class {
        RouteClass::Customer => 120,
        RouteClass::Peer => 180,
        RouteClass::Provider => 250,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::RoutingState;
    use miro_topology::gen::figure_1_1;
    use miro_topology::{AsId, TopologyBuilder};

    /// In Figure 1.1, B selects BEF (customer) and also knows BCF (peer).
    #[test]
    fn figure_1_1_b_reveals_bcf_under_each_policy() {
        let (t, [a, b, c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        // A is B's customer: toward = Customer.
        let strict = ExportPolicy::Strict.offers(&st, b, Rel::Customer);
        let export = ExportPolicy::RespectExport.offers(&st, b, Rel::Customer);
        let flex = ExportPolicy::Flexible.offers(&st, b, Rel::Customer);
        // B's best is a customer route (BEF); the alternate BCF is a peer
        // route: strict (same class) hides it, /e and /a reveal it to a
        // customer.
        assert!(strict.is_empty(), "strict offers only same-class routes");
        assert_eq!(export.len(), 1);
        assert_eq!(export[0].route.path, vec![c, f]);
        assert_eq!(flex.len(), 1);
        assert_eq!(flex[0].route.path, vec![c, f]);
        let _ = (a, e);
    }

    #[test]
    fn peer_requester_gets_only_customer_alternates_under_e() {
        // Responder r: best = customer route; alternates: one customer
        // (via c2), one peer (via p). A peer requester sees only the
        // customer alternate under /e, both under /a.
        let mut bld = TopologyBuilder::new();
        for n in [1, 2, 3, 4, 5, 6] {
            bld.add_as(AsId(n));
        }
        // dest = 1. r = 4. c1 = 2, c2 = 3 both customers of 4, both
        // customers of... both provide routes to 1:
        bld.provider_customer(AsId(2), AsId(1)); // 2 provides 1
        bld.provider_customer(AsId(3), AsId(1)); // 3 provides 1
        bld.provider_customer(AsId(4), AsId(2)); // 4 provides 2
        bld.provider_customer(AsId(4), AsId(3)); // 4 provides 3
        bld.peering(AsId(4), AsId(5)); // 5 peer of 4
        bld.provider_customer(AsId(5), AsId(1)); // 5 provides 1 too
        bld.peering(AsId(4), AsId(6)); // 6: the peer requester
        let t = bld.build().unwrap();
        let n = |x: u32| t.node(AsId(x)).unwrap();
        let st = RoutingState::solve(&t, n(1));
        // r=4's candidates: via 2 (customer, len 2), via 3 (customer,
        // len 2), via 5 (peer, len 2). Best: via 2 (lower ASN).
        let offers_e = ExportPolicy::RespectExport.offers(&st, n(4), Rel::Peer);
        assert_eq!(offers_e.len(), 1);
        assert_eq!(offers_e[0].route.path, vec![n(3), n(1)]);
        let offers_a = ExportPolicy::Flexible.offers(&st, n(4), Rel::Peer);
        assert_eq!(offers_a.len(), 2);
        // Strict: same class (customer) + exportable to peer = via 3 only.
        let offers_s = ExportPolicy::Strict.offers(&st, n(4), Rel::Peer);
        assert_eq!(offers_s.len(), 1);
        assert_eq!(offers_s[0].route.path, vec![n(3), n(1)]);
    }

    #[test]
    fn strict_is_subset_of_export_is_subset_of_flexible() {
        let t = miro_topology::GenParams::tiny(31).generate();
        for d in t.nodes().step_by(23) {
            let st = RoutingState::solve(&t, d);
            for r in t.nodes().step_by(5) {
                for toward in [Rel::Customer, Rel::Peer, Rel::Provider, Rel::Sibling] {
                    let s = ExportPolicy::Strict.offers(&st, r, toward);
                    let e = ExportPolicy::RespectExport.offers(&st, r, toward);
                    let a = ExportPolicy::Flexible.offers(&st, r, toward);
                    assert!(s.len() <= e.len() && e.len() <= a.len());
                    for o in &s {
                        assert!(e.contains(o), "strict ⊆ export");
                    }
                    for o in &e {
                        assert!(a.contains(o), "export ⊆ flexible");
                    }
                }
            }
        }
    }

    #[test]
    fn offers_exclude_current_best() {
        let t = miro_topology::GenParams::tiny(32).generate();
        let d = t.nodes().next().unwrap();
        let st = RoutingState::solve(&t, d);
        for r in t.nodes() {
            let Some(best_path) = st.path(r) else { continue };
            for o in ExportPolicy::Flexible.offers(&st, r, Rel::Customer) {
                assert_ne!(o.route.path, best_path);
            }
        }
    }

    #[test]
    fn unrouted_responder_offers_nothing() {
        let mut bld = TopologyBuilder::new();
        bld.add_as(AsId(1));
        bld.add_as(AsId(2));
        let t = bld.build().unwrap();
        let st = RoutingState::solve(&t, t.node(AsId(1)).unwrap());
        let iso = t.node(AsId(2)).unwrap();
        assert!(ExportPolicy::Flexible.offers(&st, iso, Rel::Customer).is_empty());
    }

    #[test]
    fn strict_reveals_nothing_without_a_best_route() {
        use RouteClass::*;
        for class in [Customer, Peer, Provider] {
            assert!(!ExportPolicy::Strict.reveals(class, None, Rel::Customer));
            assert!(ExportPolicy::Strict.reveals(class, Some(class), Rel::Customer));
            assert!(ExportPolicy::Flexible.reveals(class, None, Rel::Provider));
        }
    }

    #[test]
    fn prices_follow_class_ordering() {
        assert!(price_for_class(RouteClass::Customer) < price_for_class(RouteClass::Peer));
        assert!(price_for_class(RouteClass::Peer) < price_for_class(RouteClass::Provider));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ExportPolicy::Strict.label(), "/s");
        assert_eq!(ExportPolicy::RespectExport.label(), "/e");
        assert_eq!(ExportPolicy::Flexible.label(), "/a");
    }
}
