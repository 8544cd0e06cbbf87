//! The router-level BGP best-path selection process of Table 2.1.
//!
//! The AS-level solver in this crate abstracts selection down to
//! (class, length, tie-break); real routers run the full eight-step
//! comparison, and MIRO's intra-AS story (section 4.1) hinges on steps 5-7:
//! two edge routers of the same AS can stick to *different* AS paths because
//! each prefers its own eBGP-learned route (step 5), and an internal router
//! picks between them by IGP distance (step 6). This module implements the
//! full process so `miro-dataplane` can reproduce the R1/R2/R3 example of
//! Figure 4.1 and the quickstart example can render Table 1.1.

/// Route origin attribute, ordered as BGP compares it (IGP < EGP <
/// Incomplete; lower wins in step 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Origin {
    /// Originated by an IGP (`i` in show output).
    Igp,
    /// Originated via EGP (`e`).
    Egp,
    /// Redistributed (`?`).
    Incomplete,
}

/// Attributes a route carries into the decision process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteAttrs {
    /// Step 1: higher wins.
    pub local_pref: u32,
    /// Step 2: shorter wins. (Number of ASes in AS_PATH.)
    pub as_path_len: u32,
    /// Step 3: lower origin type wins.
    pub origin: Origin,
    /// Step 4: lower Multi-Exit Discriminator wins, but only when compared
    /// against a route from the same neighboring AS.
    pub med: u32,
    /// The neighboring AS this route was learned from (scopes the MED
    /// comparison).
    pub neighbor_as: u32,
    /// Step 5: eBGP-learned beats iBGP-learned.
    pub ebgp: bool,
    /// Step 6: lower IGP distance to the egress point wins.
    pub igp_dist: u32,
    /// Step 7: lower advertising router id wins.
    pub router_id: u32,
    /// Step 8: lower neighbor interface address wins.
    pub peer_addr: u32,
}

/// Which step of Table 2.1 decided the comparison (for diagnostics, tests,
/// and the quickstart example's narration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecidedBy {
    LocalPref,
    AsPathLen,
    Origin,
    Med,
    EbgpOverIbgp,
    IgpDistance,
    RouterId,
    PeerAddr,
    /// All eight attributes tie (the routes are interchangeable; some
    /// routers would ECMP here, see section 2.2.2's Cisco multipath note).
    Tie,
}

/// Compare two routes with the eight-step process. Returns which route wins
/// (`Less` means `a` is better) and the step that decided.
pub fn compare(a: &RouteAttrs, b: &RouteAttrs) -> (std::cmp::Ordering, DecidedBy) {
    use std::cmp::Ordering::*;
    // 1. Higher local preference.
    match b.local_pref.cmp(&a.local_pref) {
        Equal => {}
        o => return (o, DecidedBy::LocalPref),
    }
    // 2. Shorter AS path.
    match a.as_path_len.cmp(&b.as_path_len) {
        Equal => {}
        o => return (o, DecidedBy::AsPathLen),
    }
    // 3. Lower origin type.
    match a.origin.cmp(&b.origin) {
        Equal => {}
        o => return (o, DecidedBy::Origin),
    }
    // 4. Lower MED, within the same next-hop AS only.
    if a.neighbor_as == b.neighbor_as {
        match a.med.cmp(&b.med) {
            Equal => {}
            o => return (o, DecidedBy::Med),
        }
    }
    // 5. eBGP over iBGP.
    match (a.ebgp, b.ebgp) {
        (true, false) => return (Less, DecidedBy::EbgpOverIbgp),
        (false, true) => return (Greater, DecidedBy::EbgpOverIbgp),
        _ => {}
    }
    // 6. Lower IGP distance to the egress point.
    match a.igp_dist.cmp(&b.igp_dist) {
        Equal => {}
        o => return (o, DecidedBy::IgpDistance),
    }
    // 7. Lower router id.
    match a.router_id.cmp(&b.router_id) {
        Equal => {}
        o => return (o, DecidedBy::RouterId),
    }
    // 8. Lower peer interface address.
    match a.peer_addr.cmp(&b.peer_addr) {
        Equal => {}
        o => return (o, DecidedBy::PeerAddr),
    }
    (Equal, DecidedBy::Tie)
}

/// Pick the single best route from `routes`, returning its index (BGP's
/// "only one best path" rule, section 2.2.2). `None` on an empty slice.
pub fn select_best(routes: &[RouteAttrs]) -> Option<usize> {
    let mut best = 0;
    if routes.is_empty() {
        return None;
    }
    for i in 1..routes.len() {
        if compare(&routes[i], &routes[best]).0 == std::cmp::Ordering::Less {
            best = i;
        }
    }
    Some(best)
}

impl Default for RouteAttrs {
    fn default() -> Self {
        RouteAttrs {
            local_pref: 100,
            as_path_len: 1,
            origin: Origin::Igp,
            med: 0,
            neighbor_as: 0,
            ebgp: true,
            igp_dist: 0,
            router_id: 0,
            peer_addr: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::*;

    fn base() -> RouteAttrs {
        RouteAttrs::default()
    }

    #[test]
    fn step1_local_pref_dominates_everything() {
        let a = RouteAttrs { local_pref: 200, as_path_len: 9, ..base() };
        let b = RouteAttrs { local_pref: 100, as_path_len: 1, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::LocalPref));
    }

    #[test]
    fn step2_shorter_path_wins() {
        let a = RouteAttrs { as_path_len: 2, origin: Origin::Incomplete, ..base() };
        let b = RouteAttrs { as_path_len: 3, origin: Origin::Igp, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::AsPathLen));
    }

    #[test]
    fn step3_origin_ordering() {
        let a = RouteAttrs { origin: Origin::Igp, ..base() };
        let b = RouteAttrs { origin: Origin::Egp, ..base() };
        let c = RouteAttrs { origin: Origin::Incomplete, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::Origin));
        assert_eq!(compare(&b, &c), (Less, DecidedBy::Origin));
    }

    #[test]
    fn step4_med_only_within_same_neighbor_as() {
        let a = RouteAttrs { med: 10, neighbor_as: 7, ..base() };
        let b = RouteAttrs { med: 20, neighbor_as: 7, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::Med));
        // Different neighbor AS: MED skipped, falls through to tie.
        let c = RouteAttrs { med: 99, neighbor_as: 8, ..base() };
        let (ord, by) = compare(&a, &c);
        assert_eq!(ord, Equal);
        assert_eq!(by, DecidedBy::Tie);
    }

    #[test]
    fn step5_ebgp_over_ibgp() {
        let a = RouteAttrs { ebgp: true, igp_dist: 100, ..base() };
        let b = RouteAttrs { ebgp: false, igp_dist: 1, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::EbgpOverIbgp));
    }

    #[test]
    fn step6_igp_distance() {
        let a = RouteAttrs { igp_dist: 5, router_id: 9, ..base() };
        let b = RouteAttrs { igp_dist: 6, router_id: 1, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::IgpDistance));
    }

    #[test]
    fn step7_router_id_then_step8_peer_addr() {
        let a = RouteAttrs { router_id: 1, ..base() };
        let b = RouteAttrs { router_id: 2, ..base() };
        assert_eq!(compare(&a, &b), (Less, DecidedBy::RouterId));
        let c = RouteAttrs { peer_addr: 1, ..base() };
        let d = RouteAttrs { peer_addr: 2, ..base() };
        assert_eq!(compare(&c, &d), (Less, DecidedBy::PeerAddr));
    }

    #[test]
    fn select_best_is_total() {
        let routes = vec![
            RouteAttrs { local_pref: 100, as_path_len: 3, ..base() },
            RouteAttrs { local_pref: 300, as_path_len: 5, ..base() },
            RouteAttrs { local_pref: 300, as_path_len: 4, ..base() },
        ];
        assert_eq!(select_best(&routes), Some(2));
        assert_eq!(select_best(&[]), None);
    }

    #[test]
    fn figure_4_1_intra_as_scenario() {
        // Router R1 holds (VU, via R2) and (WU, via R3) as iBGP routes,
        // equal through step 5; IGP distance decides (section 4.1).
        let via_r2 = RouteAttrs { ebgp: false, igp_dist: 10, router_id: 2, ..base() };
        let via_r3 = RouteAttrs { ebgp: false, igp_dist: 20, router_id: 3, ..base() };
        assert_eq!(compare(&via_r2, &via_r3), (Less, DecidedBy::IgpDistance));
        // Router R2 prefers its own eBGP route over R3's iBGP route
        // (step 5), which is why R2 and R3 stick to different AS paths.
        let own_ebgp = RouteAttrs { ebgp: true, igp_dist: 0, router_id: 2, ..base() };
        let other_ibgp = RouteAttrs { ebgp: false, igp_dist: 5, router_id: 3, ..base() };
        assert_eq!(compare(&own_ebgp, &other_ibgp), (Less, DecidedBy::EbgpOverIbgp));
    }
}
