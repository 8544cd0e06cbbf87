//! Selective export of alternate routes (section 3.4 / section 5.1), and
//! the responder configuration that decides every offer.
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
//!
//! [`ResponderConfig::offers`] is the one place that turns a level, a
//! requester and a price table into offers: the handshake, the avoid-AS
//! searches and every Chapter 5 experiment call it.

use miro_bgp::route::{CandidateRoute, ExportScope};
use miro_bgp::solver::RoutingState;
use miro_topology::{NodeId, Rel, RouteClass};

/// The responding AS's alternate-route export policy.
///
/// ```
/// use miro_bgp::solver::RoutingState;
/// use miro_core::export::{ExportPolicy, ResponderConfig};
/// use miro_topology::gen::figure_1_1;
///
/// // In Figure 1.1, B selected BEF but also knows the peer route BCF.
/// let (topo, [a, b, c, _d, _e, f]) = figure_1_1();
/// let st = RoutingState::solve(&topo, f);
/// let level = |policy| ResponderConfig { policy, ..Default::default() };
/// // Strict export hides it from B's customer A (different class from
/// // B's best)...
/// assert!(level(ExportPolicy::Strict).offers(&st, a, b, false).is_empty());
/// // ...the conventional export policy reveals it, at the peer price.
/// let offers = level(ExportPolicy::RespectExport).offers(&st, a, b, false);
/// assert_eq!((&offers[0].route.path, offers[0].price), (&vec![c, f], 180));
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

/// Responder-side configuration: section 6.2.1's negotiation rules and
/// section 6.2.2's price schedule, the one form every offer is decided
/// from. `miro_policy::bridge::responder` compiles the dialect's `accept
/// negotiation` / `negotiation filter` statements into it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponderConfig {
    /// Which alternates to reveal.
    pub policy: ExportPolicy,
    /// `when tunnel_number < N` admission gate (section 6.3 example: 1000).
    pub max_tunnels: usize,
    /// `accept negotiation from <asn>…`: only these requesters; `None` is
    /// `from any`.
    pub allow: Option<Vec<NodeId>>,
    /// Asking price per route class, indexed as [`RouteClass::ALL`]; `None`
    /// is not offered (section 6.3's FILTER-1 sells provider routes not at
    /// all). [`crate::node::MiroNetwork::reprice`] changes it: section
    /// 6.2.2's economic lifecycle.
    pub prices: [Option<u32>; 3],
}

impl Default for ResponderConfig {
    fn default() -> Self {
        ResponderConfig {
            policy: ExportPolicy::RespectExport,
            max_tunnels: 1000,
            allow: None,
            // The Chapter 6 example schedule: customer routes sell for
            // less than peer routes; provider routes cost the responder
            // real money, so they are dearest.
            prices: [Some(120), Some(180), Some(250)],
        }
    }
}

impl ResponderConfig {
    /// The alternates `responder` reveals to `requester` for `st.dest()`
    /// under `policy`, toward the requester's [`export_rel_toward`] scope,
    /// each at its class's price (`None`: not offered). Its current best
    /// route is excluded: the requester already sees it as its default. A
    /// `switch` (section 3.3) picks among routes the responder holds for
    /// its own use, so it takes customer scope, which is sent every class.
    pub fn offers(
        &self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        switch: bool,
    ) -> Vec<Offer> {
        let Some(best) = st.best(responder) else { return Vec::new() };
        let best_path = st.path(responder).expect("routed responder has a path");
        let toward = if switch { Rel::Customer } else { export_rel_toward(st, requester, responder) };
        st.candidates(responder)
            .into_iter()
            .filter(|c| c.path != best_path && self.policy.reveals(c.class, Some(best.class), toward))
            .filter_map(|route| Some(Offer { price: self.prices[route.class as usize]?, route }))
            .collect()
    }
}

/// The relationship that governs the responder's export decision toward a
/// (possibly non-adjacent) requester.
///
/// * Adjacent requester: the actual link relationship.
/// * Requester upstream on its own default path through the responder: the
///   relationship between the responder and its *upstream neighbor on that
///   path* — the AS the requester's traffic arrives through. (Documented
///   modeling choice; the paper leaves this open. See DESIGN.md.)
/// * Anything else: treated as a peer (a neutral, conservative default).
pub fn export_rel_toward(st: &RoutingState<'_>, requester: NodeId, responder: NodeId) -> Rel {
    let topo = st.topology();
    if let Some(rel) = topo.rel(responder, requester) {
        return rel; // what the requester is to the responder
    }
    if let Some(path) = st.path(requester) {
        if let Some(pos) = path.iter().position(|&h| h == responder) {
            let upstream = if pos == 0 { requester } else { path[pos - 1] };
            if let Some(rel) = topo.rel(responder, upstream) {
                return rel;
            }
        }
    }
    Rel::Peer
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

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::RoutingState;
    use miro_topology::gen::figure_1_1;
    use miro_topology::{AsId, TopologyBuilder};

    /// The default config at export level `policy`.
    fn level(policy: ExportPolicy) -> ResponderConfig {
        ResponderConfig { policy, ..Default::default() }
    }

    /// In Figure 1.1, B selects BEF (customer) and also knows BCF (peer).
    #[test]
    fn figure_1_1_b_reveals_bcf_under_each_policy() {
        let (t, [a, b, c, _d, _e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        // A is B's customer.
        let strict = level(ExportPolicy::Strict).offers(&st, a, b, false);
        let export = level(ExportPolicy::RespectExport).offers(&st, a, b, false);
        let flex = level(ExportPolicy::Flexible).offers(&st, a, b, false);
        // B's best is a customer route (BEF); the alternate BCF is a peer
        // route: strict (same class) hides it, /e and /a reveal it to a
        // customer.
        assert!(strict.is_empty(), "strict offers only same-class routes");
        assert_eq!(export.len(), 1);
        assert_eq!(export[0].route.path, vec![c, f]);
        assert_eq!(flex.len(), 1);
        assert_eq!(flex[0].route.path, vec![c, f]);
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
        let offers_e = level(ExportPolicy::RespectExport).offers(&st, n(6), n(4), false);
        assert_eq!(offers_e.len(), 1);
        assert_eq!(offers_e[0].route.path, vec![n(3), n(1)]);
        let offers_a = level(ExportPolicy::Flexible).offers(&st, n(6), n(4), false);
        assert_eq!(offers_a.len(), 2);
        // Strict: same class (customer) + exportable to peer = via 3 only.
        let offers_s = level(ExportPolicy::Strict).offers(&st, n(6), n(4), false);
        assert_eq!(offers_s.len(), 1);
        assert_eq!(offers_s[0].route.path, vec![n(3), n(1)]);
        // A switch takes customer scope: /e then offers the peer route too.
        let switch_e = level(ExportPolicy::RespectExport).offers(&st, n(6), n(4), true);
        assert_eq!(switch_e, offers_a);
    }

    #[test]
    fn strict_is_subset_of_export_is_subset_of_flexible() {
        let t = miro_topology::GenParams::tiny(31).generate();
        for d in t.nodes().step_by(23) {
            let st = RoutingState::solve(&t, d);
            for r in t.nodes().step_by(5) {
                for q in t.nodes().step_by(7).filter(|&q| q != r) {
                    for switch in [false, true] {
                        let [s, e, a] = ExportPolicy::ALL.map(|p| level(p).offers(&st, q, r, switch));
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
    }

    #[test]
    fn offers_exclude_current_best() {
        let t = miro_topology::GenParams::tiny(32).generate();
        let d = t.nodes().next().unwrap();
        let st = RoutingState::solve(&t, d);
        for r in t.nodes() {
            let Some(best_path) = st.path(r) else { continue };
            for o in level(ExportPolicy::Flexible).offers(&st, d, r, true) {
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
        let dest = t.node(AsId(1)).unwrap();
        let st = RoutingState::solve(&t, dest);
        let iso = t.node(AsId(2)).unwrap();
        assert!(level(ExportPolicy::Flexible).offers(&st, dest, iso, true).is_empty());
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
    fn default_prices_follow_class_ordering() {
        let [customer, peer, provider] = ResponderConfig::default().prices;
        assert!(customer.is_some() && customer < peer && peer < provider);
    }

    /// Each offer carries its class's price from the config; a class
    /// priced `None` is not offered.
    #[test]
    fn offers_are_priced_once_from_the_config() {
        let (t, [a, b, c, _d, _e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let mut cfg = ResponderConfig::default();
        cfg.prices[RouteClass::Peer as usize] = Some(7);
        let offers = cfg.offers(&st, a, b, false);
        assert_eq!((&offers[0].route.path, offers[0].price), (&vec![c, f], 7));
        cfg.prices[RouteClass::Peer as usize] = None;
        assert!(cfg.offers(&st, a, b, false).is_empty(), "BCF is a peer route");
    }

    #[test]
    fn export_rel_adjacent_and_on_path() {
        let (t, [a, b, c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        // A is B's customer (adjacent).
        assert_eq!(export_rel_toward(&st, a, b), Rel::Customer);
        // E is on A's path, upstream neighbor is B; B is E's provider.
        assert_eq!(export_rel_toward(&st, a, e), Rel::Provider);
        // C is not adjacent to A and not on A's path: conservative peer.
        assert_eq!(export_rel_toward(&st, a, c), Rel::Peer);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ExportPolicy::Strict.label(), "/s");
        assert_eq!(ExportPolicy::RespectExport.label(), "/e");
        assert_eq!(ExportPolicy::Flexible.label(), "/a");
    }
}
