//! The intra-AS architecture of section 4.1 (Figure 4.1).
//!
//! A real AS has many routers; edge routers learn routes over eBGP and
//! redistribute them over iBGP, and each router runs the full Table 2.1
//! decision process independently — so two edge routers can stand by
//! *different* AS paths (each prefers its own eBGP route at step 5), and
//! an internal router picks between them by IGP distance (step 6). MIRO
//! exploits exactly this: any valid AS path present at any edge router can
//! be sold as an alternate, with the tunnel ending at that edge router and
//! *directed forwarding* (tunnel id -> exit link) pushing decapsulated
//! packets out the non-default link.

use crate::burst::{Engine, OneVerdict};
use crate::classifier::Classifier;
use crate::encap::{self, EndpointScheme};
use crate::ipv4::{Ipv4Addr4, Ipv4Header, PROTO_MIRO};
use crate::lpm::{Prefix, PrefixTrie};
use bytes::Bytes;
use miro_bgp::decision::{select_best, Origin, RouteAttrs};
use std::collections::HashMap;

/// A route learned over an eBGP session at some edge router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EbgpRoute {
    pub prefix: Prefix,
    /// AS-level path as received (neighbor AS first).
    pub as_path: Vec<u32>,
    pub local_pref: u32,
    pub med: u32,
    /// The neighboring AS it came from.
    pub neighbor_as: u32,
    /// Address of the advertising interface (decision step 8).
    pub peer_addr: Ipv4Addr4,
    /// The exit link this route forwards onto.
    pub exit_link: u32,
}

/// A router's converged choice for one prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selected {
    pub as_path: Vec<u32>,
    /// The edge router owning the eBGP session (egress point).
    pub egress_router: usize,
    pub exit_link: u32,
    /// Whether this router learned it over eBGP itself.
    pub ebgp: bool,
}

/// One router.
pub struct Router {
    /// Loopback address (tunnel endpoint under the per-router scheme).
    pub addr: Ipv4Addr4,
    /// Routes learned over this router's own eBGP sessions.
    pub ebgp: Vec<EbgpRoute>,
    /// Directed forwarding state: tunnel id -> exit link (section 4.1's
    /// footnote: "this functionality ... is already implemented in some
    /// routers").
    pub tunnel_table: HashMap<u32, u32>,
    /// Converged selections, one per prefix.
    pub selected: Vec<(Prefix, Selected)>,
}

/// What happened to a packet injected into the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Forwarded {
    /// Left the AS on this exit link (with the packet as transmitted).
    Exit { link: u32, packet: Bytes, via_routers: Vec<usize> },
    /// Decapsulated at a tunnel endpoint and then directed out a link.
    TunnelExit { link: u32, inner: Bytes, endpoint_router: usize },
    /// No route (dropped).
    NoRoute,
}

/// An AS's internal fabric: routers, IGP costs, and the iBGP fixpoint.
pub struct AsFabric {
    pub asn: u32,
    routers: Vec<Router>,
    /// All-pairs IGP distances.
    igp: Vec<Vec<u32>>,
    /// BGP ADD-PATH capability (section 4.1: "The recently proposed BGP
    /// ADD-PATH capability can also be used to expose the additional
    /// paths to another BGP speaker"): when enabled, iBGP carries *every*
    /// eBGP route, not just each router's best, so any router can answer
    /// a MIRO alternate query locally.
    add_path: bool,
    /// Optional single-reserved-address tunnel endpoint scheme
    /// (section 4.2): ingress routers rewrite the reserved destination to
    /// a concrete egress router per tunnel id.
    endpoint_scheme: Option<EndpointScheme>,
    /// One forwarding engine per router, rebuilt by [`AsFabric::run_ibgp`]:
    /// `local` is the router's loopback and the LPM maps each selected
    /// prefix to its index in [`Router::selected`].
    engines: Vec<Engine>,
}

impl AsFabric {
    /// Build from routers and internal links `(a, b, igp_cost)`; distances
    /// come from Floyd-Warshall. Panics on out-of-range router indices.
    pub fn new(asn: u32, routers: Vec<Router>, links: &[(usize, usize, u32)]) -> AsFabric {
        let n = routers.len();
        const INF: u32 = u32::MAX / 4;
        let mut igp = vec![vec![INF; n]; n];
        for (i, row) in igp.iter_mut().enumerate() {
            row[i] = 0;
        }
        for &(a, b, c) in links {
            igp[a][b] = igp[a][b].min(c);
            igp[b][a] = igp[b][a].min(c);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = igp[i][k].saturating_add(igp[k][j]);
                    if via < igp[i][j] {
                        igp[i][j] = via;
                    }
                }
            }
        }
        AsFabric { asn, routers, igp, add_path: false, endpoint_scheme: None, engines: Vec::new() }
    }

    /// Negotiate the ADD-PATH capability on the iBGP mesh.
    pub fn enable_add_path(&mut self) {
        self.add_path = true;
    }

    /// Install the single-reserved-address endpoint scheme (section 4.2's
    /// third option); `None` reverts to per-router loopback endpoints.
    pub fn set_endpoint_scheme(&mut self, scheme: Option<EndpointScheme>) {
        self.endpoint_scheme = scheme;
    }

    /// The alternate AS paths *visible at one router* for MIRO queries:
    /// with ADD-PATH every eBGP route anywhere in the fabric is visible
    /// everywhere; without it a router only sees its own eBGP routes plus
    /// each other router's single best (the classic iBGP restriction the
    /// first option of section 4.1 works around with explicit requests).
    pub fn candidates_at(&self, router: usize, prefix: Prefix) -> Vec<Vec<u32>> {
        if self.add_path {
            return self.valid_as_paths(prefix);
        }
        let own = self.routers[router].ebgp.iter().filter(|e| e.prefix == prefix);
        // What iBGP carries: each router's best own-eBGP route (this
        // router's is already among `own`).
        let heard = self.routers.iter().filter_map(|r| own_best(r, prefix));
        let mut out: Vec<Vec<u32>> = own.chain(heard).map(|e| e.as_path.clone()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// IGP distance between two routers.
    pub fn igp_dist(&self, a: usize, b: usize) -> u32 {
        self.igp[a][b]
    }

    pub fn router(&self, i: usize) -> &Router {
        &self.routers[i]
    }

    pub fn router_mut(&mut self, i: usize) -> &mut Router {
        &mut self.routers[i]
    }

    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Run iBGP (full mesh) to a fixpoint: each router selects among its
    /// own eBGP routes and every other router's *eBGP-selected* route
    /// (standard full-mesh iBGP does not re-reflect iBGP-learned routes).
    pub fn run_ibgp(&mut self) {
        // Collect the prefix universe.
        let mut prefixes: Vec<Prefix> = self
            .routers
            .iter()
            .flat_map(|r| r.ebgp.iter().map(|e| e.prefix))
            .collect();
        prefixes.sort_by_key(|p| (p.addr.to_u32(), p.len));
        prefixes.dedup();

        for &prefix in &prefixes {
            // Step 1: each edge router picks its best own-eBGP route.
            let own_best: Vec<Option<EbgpRoute>> =
                self.routers.iter().map(|r| own_best(r, prefix).cloned()).collect();
            // Step 2: every router selects among its own eBGP best and the
            // other routers' eBGP bests (seen over iBGP with its own IGP
            // distance). One pass suffices in a full mesh: the candidate
            // set of every router is fixed by `own_best`.
            for r in 0..self.routers.len() {
                let mut attrs = Vec::new();
                let mut meta = Vec::new();
                for (egress, ob) in own_best.iter().enumerate() {
                    let Some(e) = ob else { continue };
                    let ebgp = egress == r;
                    let dist = if ebgp { 0 } else { self.igp[r][egress] };
                    attrs.push(attrs_of(e, ebgp, dist, egress as u32));
                    meta.push((egress, e));
                }
                let sel = select_best(&attrs).map(|i| {
                    let (egress, e) = meta[i];
                    Selected {
                        as_path: e.as_path.clone(),
                        egress_router: egress,
                        exit_link: e.exit_link,
                        ebgp: egress == r,
                    }
                });
                let router = &mut self.routers[r];
                router.selected.retain(|(p, _)| *p != prefix);
                if let Some(s) = sel {
                    router.selected.push((prefix, s));
                }
            }
        }
        let engine = |r: &Router| {
            let mut lpm = PrefixTrie::new();
            for (i, (p, _)) in r.selected.iter().enumerate() {
                lpm.insert(*p, i as u32);
            }
            Engine::new(r.addr, lpm, Classifier::new(vec![]), vec![], vec![])
        };
        self.engines = self.routers.iter().map(engine).collect();
    }

    /// Every distinct AS path present at any edge router for `prefix` —
    /// the alternates MIRO can sell beyond the per-router defaults
    /// (section 4.1: "an AS is allowed to advertise any valid AS paths on
    /// any of its edge routers").
    pub fn valid_as_paths(&self, prefix: Prefix) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = self
            .routers
            .iter()
            .flat_map(|r| r.ebgp.iter())
            .filter(|e| e.prefix == prefix)
            .map(|e| e.as_path.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Forward a packet injected at `ingress`: ride the IGP to the router
    /// it addresses (a loopback is a tunnel endpoint under the
    /// per-egress-router scheme; anything else is handled where it came
    /// in), run that router's [`Engine`] — TTL, checksum and malformed
    /// frames are the engine's — and, on a decapsulation, let directed
    /// forwarding pick the exit link. Needs [`AsFabric::run_ibgp`] first.
    pub fn forward(&self, ingress: usize, packet: Bytes) -> Forwarded {
        let Ok((outer, payload)) = Ipv4Header::parse_slice(&packet) else {
            return Forwarded::NoRoute;
        };
        // Single-reserved-address scheme (section 4.2's third option):
        // the ingress router rewrites the reserved destination to the
        // chosen egress router; the inner packet is untouched.
        let dst = match (&self.endpoint_scheme, encap::MiroShim::parse_slice(payload)) {
            (Some(scheme), Ok(shim)) if outer.protocol == PROTO_MIRO => {
                scheme.ingress_rewrite(outer.dst, shim.tunnel_id).unwrap_or(outer.dst)
            }
            _ => outer.dst,
        };
        let packet = if dst == outer.dst {
            packet
        } else {
            Ipv4Header { dst, ..outer }.emit_with_payload(payload)
        };
        let at = self.routers.iter().position(|r| r.addr == dst).unwrap_or(ingress);
        let router = &self.routers[at];
        match self.engines.get(at).map(|e| e.forward_one(&packet)) {
            // Directed forwarding: the tunnel id names the exit link,
            // overriding the default route.
            Some(OneVerdict::Decap { tunnel, packet: inner }) => match router.tunnel_table.get(&tunnel) {
                Some(&link) => Forwarded::TunnelExit { link, inner, endpoint_router: at },
                None => Forwarded::NoRoute,
            },
            // Destination-based forwarding, then the IGP to the egress.
            Some(OneVerdict::Forward { next_hop, packet }) => match router.selected.get(next_hop as usize) {
                Some((_, sel)) => Forwarded::Exit {
                    link: sel.exit_link,
                    packet,
                    via_routers: vec![ingress, sel.egress_router],
                },
                None => Forwarded::NoRoute,
            },
            _ => Forwarded::NoRoute,
        }
    }
}

/// A router's best route among its own eBGP sessions for `prefix`: what it
/// stands by at step 5 and all that classic iBGP tells the others.
fn own_best(router: &Router, prefix: Prefix) -> Option<&EbgpRoute> {
    let cands: Vec<&EbgpRoute> = router.ebgp.iter().filter(|e| e.prefix == prefix).collect();
    let attrs: Vec<RouteAttrs> = cands.iter().map(|e| attrs_of(e, true, 0, 0)).collect();
    select_best(&attrs).map(|i| cands[i])
}

fn attrs_of(e: &EbgpRoute, ebgp: bool, igp_dist: u32, router_id: u32) -> RouteAttrs {
    RouteAttrs {
        local_pref: e.local_pref,
        as_path_len: e.as_path.len() as u32,
        origin: Origin::Igp,
        med: e.med,
        neighbor_as: e.neighbor_as,
        ebgp,
        igp_dist,
        router_id,
        peer_addr: e.peer_addr.to_u32(),
    }
}

/// Build the Figure 4.1 fabric: AS X with internal router R1 and edge
/// routers R2 (sessions to V and W) and R3 (session to W), learning paths
/// VU and WU toward prefix `u_prefix`. Returns the fabric; exit links are
/// 20 (X->V at R2), 21 (X->W at R2), 22 (X->W at R3).
pub fn figure_4_1(u_prefix: Prefix) -> AsFabric {
    let vu = |peer: Ipv4Addr4, link| EbgpRoute {
        prefix: u_prefix,
        as_path: vec![500, 600], // V, U
        local_pref: 100,
        med: 0,
        neighbor_as: 500,
        peer_addr: peer,
        exit_link: link,
    };
    let wu = |peer: Ipv4Addr4, link| EbgpRoute {
        prefix: u_prefix,
        as_path: vec![700, 600], // W, U
        local_pref: 100,
        med: 0,
        neighbor_as: 700,
        peer_addr: peer,
        exit_link: link,
    };
    let r1 = Router {
        addr: Ipv4Addr4::new(12, 34, 56, 1),
        ebgp: vec![],
        tunnel_table: HashMap::new(),
        selected: vec![],
    };
    let r2 = Router {
        addr: Ipv4Addr4::new(12, 34, 56, 2),
        // V's interface has the lower address, so step 8 picks VU at R2.
        ebgp: vec![vu(Ipv4Addr4::new(10, 0, 0, 1), 20), wu(Ipv4Addr4::new(10, 0, 0, 9), 21)],
        tunnel_table: HashMap::new(),
        selected: vec![],
    };
    let r3 = Router {
        addr: Ipv4Addr4::new(12, 34, 56, 3),
        ebgp: vec![wu(Ipv4Addr4::new(10, 0, 1, 9), 22)],
        tunnel_table: HashMap::new(),
        selected: vec![],
    };
    // R1 is closer to R2 than to R3.
    let mut fabric = AsFabric::new(100, vec![r1, r2, r3], &[(0, 1, 5), (0, 2, 8), (1, 2, 10)]);
    fabric.run_ibgp();
    fabric
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Header;

    fn u_prefix() -> Prefix {
        Prefix::new(Ipv4Addr4::new(60, 0, 0, 0), 8)
    }

    fn fabric() -> AsFabric {
        figure_4_1(u_prefix())
    }

    fn sel(f: &AsFabric, r: usize) -> &Selected {
        &f.router(r).selected.iter().find(|(p, _)| *p == u_prefix()).unwrap().1
    }

    #[test]
    fn r2_and_r3_stand_by_different_paths() {
        // The section 4.1 walkthrough: R2 picks VU (its own eBGP, step 8
        // tie-break); R3 sticks to WU (its own eBGP beats R2's iBGP at
        // step 5) — two different AS paths live in one AS.
        let f = fabric();
        assert_eq!(sel(&f, 1).as_path, vec![500, 600], "R2 selects VU");
        assert!(sel(&f, 1).ebgp);
        assert_eq!(sel(&f, 2).as_path, vec![700, 600], "R3 selects WU");
        assert!(sel(&f, 2).ebgp);
    }

    #[test]
    fn r1_breaks_the_tie_by_igp_distance() {
        let f = fabric();
        // R1 hears (VU via R2, dist 5) and (WU via R3, dist 8): step 6.
        let s = sel(&f, 0);
        assert_eq!(s.as_path, vec![500, 600]);
        assert_eq!(s.egress_router, 1);
        assert!(!s.ebgp);
    }

    #[test]
    fn fabric_exposes_all_valid_paths_for_miro() {
        let f = fabric();
        let paths = f.valid_as_paths(u_prefix());
        assert_eq!(paths.len(), 2, "both VU and WU are sellable alternates");
        assert!(paths.contains(&vec![500, 600]));
        assert!(paths.contains(&vec![700, 600]));
    }

    #[test]
    fn default_forwarding_uses_lpm_and_egress() {
        let f = fabric();
        let pkt = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            0,
        )
        .emit_with_payload(b"");
        match f.forward(0, pkt) {
            Forwarded::Exit { link, via_routers, .. } => {
                assert_eq!(link, 20, "R1's choice exits via R2's link to V");
                assert_eq!(via_routers, vec![0, 1]);
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn directed_forwarding_overrides_the_default() {
        // The MIRO scenario: both R2/R3 would default via W, but tunnel 7
        // ends at R2 and is pinned to the V link — decapsulated packets
        // exit via XV regardless of the default (section 4.1).
        let mut f = fabric();
        f.router_mut(1).tunnel_table.insert(7, 20);
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            4,
        )
        .emit_with_payload(b"data");
        let endpoint = f.router(1).addr;
        let pkt = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), endpoint, 7).unwrap();
        match f.forward(0, pkt) {
            Forwarded::TunnelExit { link, inner: got, endpoint_router } => {
                assert_eq!(link, 20);
                assert_eq!(endpoint_router, 1);
                assert_eq!(got, inner, "original packet intact after decap");
            }
            other => panic!("expected tunnel exit, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tunnel_id_is_dropped() {
        let f = fabric();
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            0,
        )
        .emit_with_payload(b"");
        let pkt =
            encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), f.router(1).addr, 99).unwrap();
        assert_eq!(f.forward(0, pkt), Forwarded::NoRoute);
    }

    #[test]
    fn no_route_is_reported() {
        let f = fabric();
        let pkt = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(200, 0, 0, 1),
            6,
            0,
        )
        .emit_with_payload(b"");
        assert_eq!(f.forward(0, pkt), Forwarded::NoRoute);
    }

    #[test]
    fn ttl_is_decremented_and_expiry_is_a_drop() {
        // The fabric's routers are the burst engine: a hop costs one TTL
        // with the checksum rewritten, and a packet on its last hop goes
        // nowhere — the same verdicts `Engine::forward_one` gives.
        let f = fabric();
        let mut hdr =
            Ipv4Header::new(Ipv4Addr4::new(9, 9, 9, 9), Ipv4Addr4::new(60, 1, 2, 3), 6, 0);
        match f.forward(0, hdr.emit_with_payload(b"")) {
            Forwarded::Exit { link: 20, packet, .. } => {
                let (out, _) = Ipv4Header::parse(packet).expect("checksum follows the TTL");
                assert_eq!(out.ttl, 63, "one hop from the default 64");
            }
            other => panic!("expected exit on link 20, got {other:?}"),
        }
        hdr.ttl = 1;
        assert_eq!(f.forward(0, hdr.emit_with_payload(b"")), Forwarded::NoRoute);
    }

    #[test]
    fn med_prefers_lower_within_same_neighbor() {
        // Two sessions to the same neighbor AS with different MEDs: the
        // lower MED wins at step 4 even with a higher peer address.
        let mk = |med, peer, link| EbgpRoute {
            prefix: u_prefix(),
            as_path: vec![700, 600],
            local_pref: 100,
            med,
            neighbor_as: 700,
            peer_addr: Ipv4Addr4::new(10, 0, 0, peer),
            exit_link: link,
        };
        let r = Router {
            addr: Ipv4Addr4::new(1, 1, 1, 1),
            ebgp: vec![mk(20, 1, 30), mk(10, 9, 31)],
            tunnel_table: HashMap::new(),
            selected: vec![],
        };
        let mut f = AsFabric::new(100, vec![r], &[]);
        f.run_ibgp();
        assert_eq!(sel(&f, 0).exit_link, 31, "lower MED wins");
    }

    #[test]
    fn single_address_scheme_rewrites_then_directed_forwards() {
        // Section 4.2's third option, at forwarding level: the upstream
        // addresses packets to one reserved address; the ingress router
        // rewrites to the tunnel's egress router; directed forwarding
        // then picks the exit link. No internal topology was revealed.
        let mut f = fabric();
        let reserved = Ipv4Addr4::new(12, 34, 56, 100);
        f.router_mut(1).tunnel_table.insert(7, 20);
        f.set_endpoint_scheme(Some(crate::encap::EndpointScheme::SingleAddress {
            address: reserved,
            egress_map: vec![(7, vec![f.router(1).addr])],
        }));
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            4,
        )
        .emit_with_payload(b"data");
        // The upstream only ever learned the reserved address.
        let pkt = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), reserved, 7).unwrap();
        match f.forward(0, pkt) {
            Forwarded::TunnelExit { link, inner: got, endpoint_router } => {
                assert_eq!(link, 20);
                assert_eq!(endpoint_router, 1);
                assert_eq!(got, inner, "inner packet survives the rewrite");
            }
            other => panic!("expected tunnel exit, got {other:?}"),
        }
        // A tunnel id the map does not know keeps the reserved address
        // unrewritten and the packet goes nowhere.
        let pkt = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), reserved, 99).unwrap();
        assert_eq!(f.forward(0, pkt), Forwarded::NoRoute);
        // Without the scheme, the reserved address means nothing.
        f.set_endpoint_scheme(None);
        let pkt = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), reserved, 7).unwrap();
        assert_eq!(f.forward(0, pkt), Forwarded::NoRoute);
    }

    #[test]
    fn add_path_widens_visibility_at_every_router() {
        // Without ADD-PATH, R3 sees its own WU plus R2's single best (VU):
        // R2's second route (WU via R2) stays invisible over classic iBGP.
        // Enable ADD-PATH and every route is visible everywhere.
        let mut f = fabric();
        // Classic: R1 (no eBGP) sees each edge router's best only.
        let classic_r1 = f.candidates_at(0, u_prefix());
        assert_eq!(classic_r1.len(), 2); // VU (R2's best) + WU (R3's best)
        // R2 sees both its own routes plus R3's best = still {VU, WU}.
        let classic_r2 = f.candidates_at(1, u_prefix());
        assert_eq!(classic_r2.len(), 2);
        f.enable_add_path();
        for r in 0..f.num_routers() {
            assert_eq!(
                f.candidates_at(r, u_prefix()),
                f.valid_as_paths(u_prefix()),
                "ADD-PATH exposes the full path set at router {r}"
            );
        }
    }

    #[test]
    fn igp_distances_are_shortest_paths() {
        let f = fabric();
        assert_eq!(f.igp_dist(0, 1), 5);
        assert_eq!(f.igp_dist(0, 2), 8);
        assert_eq!(f.igp_dist(1, 2), 10);
        assert_eq!(f.igp_dist(2, 2), 0);
    }
}
