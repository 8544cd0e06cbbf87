//! An in-process control-plane harness: MIRO nodes exchanging the
//! Figure 4.2 message sequence over a virtual clock.
//!
//! `miro-eval` uses the pure functions in [`crate::strategy`] directly for
//! speed; this harness exists to exercise the *protocol* — admission
//! control, pricing, the four-message handshake, soft-state keepalives,
//! and teardown on route change — end to end, the way a deployment would
//! run it. The examples print its message log as a negotiation transcript.
//!
//! The handshake has two drivers over one [`NetState`] (state and the
//! transport-independent steps, [`crate::handshake`]): [`MiroNetwork`] here
//! resolves it synchronously — every message delivered instantly, exactly
//! once — and is the short reference; [`crate::reliable::ReliableNet`] is
//! the only message-level state machine and is tested against it.

use crate::export::Offer;
use crate::handshake::NetState;
use crate::negotiate::{Constraint, Message, NegotiationError};
use crate::tunnel::{TeardownReason, TunnelId};
use miro_bgp::solver::RoutingState;
use miro_topology::{NodeId, Topology};
use std::ops::{Deref, DerefMut};

/// A live lease in the network ledger: who sold what to whom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Id assigned by the downstream (responding) AS.
    pub id: TunnelId,
    /// The responding AS (tunnel egress; owns the id space).
    pub downstream: NodeId,
    /// The requesting AS (tunnel ingress).
    pub upstream: NodeId,
    /// Destination prefix served.
    pub dest: NodeId,
    /// The alternate path sold, as held by the downstream AS.
    pub path: Vec<NodeId>,
    /// The upstream's default path to the downstream at establishment
    /// time — its path toward `dest` up to and including the downstream,
    /// empty when the downstream is not on it; if this changes, the
    /// upstream tears the tunnel down (section 4.3).
    pub upstream_path: Vec<NodeId>,
    /// Agreed price.
    pub price: u32,
    /// The upstream's budget at negotiation time (for re-negotiation).
    pub budget: u32,
    /// The constraints the lease was negotiated under.
    pub constraints: Vec<Constraint>,
}

/// Requester-side choice, shared by both drivers: the best offer by
/// (class, length, price) that fits the budget *and* the requester's own
/// constraints — re-checked on receipt, since it need not trust the
/// responder to have filtered — as an index into `offers`.
pub fn choose_offer(offers: &[Offer], constraints: &[Constraint], max_price: u32) -> Option<usize> {
    offers
        .iter()
        .enumerate()
        .filter(|(_, o)| o.price <= max_price && constraints.iter().all(|c| c.admits(o)))
        .min_by_key(|(_, o)| (o.route.class, o.route.len(), o.price))
        .map(|(i, _)| i)
}

/// The whole-network control-plane harness: the synchronous reference
/// driver of the handshake.
pub struct MiroNetwork<'t>(NetState<'t>);

impl<'t> Deref for MiroNetwork<'t> {
    type Target = NetState<'t>;
    fn deref(&self) -> &NetState<'t> {
        &self.0
    }
}

impl DerefMut for MiroNetwork<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<'t> MiroNetwork<'t> {
    pub fn new(topo: &'t Topology) -> Self {
        MiroNetwork(NetState::new(topo))
    }

    /// Run one full negotiation (Figure 4.2) between `requester` and
    /// `responder` for destination `st.dest()`. On success the tunnel is
    /// installed on both sides and a [`Lease`] recorded.
    ///
    /// `max_price` is the requester's budget (section 6.3: "maximum cost
    /// 250"); offers above it are unacceptable even if they satisfy the
    /// constraints.
    pub fn negotiate(
        &mut self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        constraints: Vec<Constraint>,
        max_price: u32,
    ) -> Result<TunnelId, NegotiationError> {
        self.negotiate_with(st, requester, responder, constraints, max_price, false)
    }

    /// The downstream-initiated variant (section 3.3's reverse scenario /
    /// the inbound-traffic-control application of section 5.4): the
    /// requester — typically the *destination* — asks the responder to
    /// switch its own selected route, so the offer pool is the responder's
    /// full candidate set (class-restricted under the strict policy) rather
    /// than its export-filtered alternates.
    pub fn negotiate_switch(
        &mut self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        constraints: Vec<Constraint>,
        max_price: u32,
    ) -> Result<TunnelId, NegotiationError> {
        self.negotiate_with(st, requester, responder, constraints, max_price, true)
    }

    fn negotiate_with(
        &mut self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        constraints: Vec<Constraint>,
        max_price: u32,
        switch: bool,
    ) -> Result<TunnelId, NegotiationError> {
        let net = &mut self.0;
        net.check_pair(requester, responder, (!switch).then_some(st.dest()))?;
        let id = net.next_id();
        net.log.push((
            requester,
            responder,
            Message::Request { id, dest: st.dest(), constraints: constraints.clone() },
        ));

        // Responder decides: admission, then policy- and constraint-
        // filtered offers.
        let offers = match net.responder_offers(st, requester, responder, &constraints, switch) {
            Ok(offers) => offers,
            Err(reason) => {
                net.log.push((responder, requester, Message::Reject { id, reason }));
                return Err(NegotiationError::Rejected(reason));
            }
        };
        net.log.push((responder, requester, Message::Offers { id, offers: offers.clone() }));

        // Requester evaluates: best by (class, length, price), within budget.
        let Some(choice) = choose_offer(&offers, &constraints, max_price) else {
            return Err(NegotiationError::NoneAcceptable);
        };
        net.log.push((requester, responder, Message::Accept { id, choice }));

        // Handshake completes: downstream allocates the id, both install.
        let tid = net.establish(st, requester, responder, &offers[choice], max_price, constraints);
        let adopted = net.adopt(requester, responder, st.dest(), tid);
        debug_assert!(adopted);
        net.log.push((responder, requester, Message::Established { id, tunnel: tid }));
        Ok(tid)
    }

    /// Advance the virtual clock. Every live lease exchanges a keepalive
    /// (section 4.3's heartbeat), then both sides expire anything stale —
    /// so in the healthy case this is a no-op apart from time moving.
    pub fn tick(&mut self, dt: u64, keepalive_timeout: u64) {
        self.advance(dt, keepalive_timeout, None);
    }

    /// Simulate a silent upstream failure: the upstream stops sending
    /// keepalives for the lease `seller` sold as `lease_id` (ids are scoped
    /// to the seller); after `timeout` the downstream reaps the tunnel (the
    /// "idle tunnels in the downstream ASes" scenario of section 4.3 where
    /// the teardown message itself cannot be delivered).
    pub fn silence(&mut self, seller: NodeId, lease_id: TunnelId, dt: u64, keepalive_timeout: u64) {
        self.advance(dt, keepalive_timeout, Some((seller, lease_id)));
    }

    fn advance(&mut self, dt: u64, keepalive_timeout: u64, silent: Option<(NodeId, TunnelId)>) {
        let net = &mut self.0;
        net.clock += dt;
        let clock = net.clock;
        for lease in net.leases.iter().filter(|l| Some((l.downstream, l.id)) != silent) {
            // Upstream pings downstream; both refresh.
            net.log.push((lease.upstream, lease.downstream, Message::Keepalive {
                tunnel: lease.id,
            }));
            net.managers[lease.downstream as usize].keepalive(lease.upstream, lease.id, clock);
            net.managers[lease.upstream as usize].keepalive(lease.downstream, lease.id, clock);
        }
        for m in &mut net.managers {
            m.expire(clock, keepalive_timeout);
        }
        net.leases.retain(|l| net.managers[l.downstream as usize].get(l.upstream, l.id).is_some());
    }

    /// Active teardown of a lease already struck from the ledger: both
    /// tunnel tables drop it. `seen_by` is the end whose route changed —
    /// it records `RouteChange` and tells the other, which records
    /// `PeerRequest`; with `None` the downstream just asks.
    fn tear_down(&mut self, lease: &Lease, seen_by: Option<NodeId>) {
        let net = &mut self.0;
        let (mut from, mut to) = (lease.downstream, lease.upstream);
        if seen_by == Some(to) {
            std::mem::swap(&mut from, &mut to);
        }
        let saw = seen_by.map_or(TeardownReason::PeerRequest, |_| TeardownReason::RouteChange);
        net.managers[from as usize].teardown(to, lease.id, saw);
        net.managers[to as usize].teardown(from, lease.id, TeardownReason::PeerRequest);
        net.log.push((from, to, Message::Teardown { tunnel: lease.id }));
    }

    /// Routes changed (e.g. a link failed and BGP reconverged): re-check
    /// every lease for `st.dest()` against the new state and tear down
    /// invalidated tunnels on both sides (section 4.3). A lease survives
    /// only if the downstream still learns the sold path from its first
    /// hop *and* the upstream's default path still starts with the segment
    /// that led to the downstream. Returns the leases struck, in ledger
    /// order, so the caller can re-negotiate them.
    pub fn routes_changed(&mut self, st: &RoutingState<'_>) -> Vec<Lease> {
        // The end of `lease` that sees a route it stands on gone, if any.
        let seen_by = |lease: &Lease| {
            let sold = lease.path.first().and_then(|&n| st.learned_from(lease.downstream, n));
            if sold.is_none_or(|c| c.path != lease.path) {
                return Some(lease.downstream);
            }
            let mut at = lease.upstream;
            let rides = lease.upstream_path.iter().all(|&hop| {
                st.best(at).is_some_and(|b| {
                    at = b.next;
                    at == hop
                })
            });
            (!rides).then_some(lease.upstream)
        };
        let dead: Vec<(usize, NodeId)> = (self.leases.iter().enumerate())
            .filter(|(_, lease)| lease.dest == st.dest())
            .filter_map(|(i, lease)| Some((i, seen_by(lease)?)))
            .collect();
        let mut struck = Vec::with_capacity(dead.len());
        for (i, end) in dead {
            let lease = self.0.leases.remove(i - struck.len());
            self.tear_down(&lease, Some(end));
            struck.push(lease);
        }
        struck
    }

    /// The section 6.2.2 economic lifecycle ("whenever one of the parties
    /// is no longer satisfied with the price, the tunnel will be
    /// terminated, then the requesting AS will re-negotiate a new tunnel
    /// using a new price if needed"): `responder` installs a new price
    /// table. Every live lease it sold for `st.dest()` is re-quoted at the
    /// table's price for its route's class; a lease whose new price still
    /// fits the upstream's original budget is updated in place (the parties
    /// simply agree on the new number), otherwise — too dear, or its class
    /// no longer offered — the tunnel is torn down and the upstream
    /// immediately re-negotiates under the new schedule, which may land on
    /// a different (cheaper) alternate or fail, leaving it on the default
    /// path. Returns `(lease id, replacement id if any)` per torn lease.
    pub fn reprice(
        &mut self,
        st: &RoutingState<'_>,
        responder: NodeId,
        prices: [Option<u32>; 3],
    ) -> Vec<(TunnelId, Option<TunnelId>)> {
        self.0.configs[responder as usize].prices = prices;
        let affected: Vec<Lease> = self
            .leases
            .iter()
            .filter(|l| l.downstream == responder && l.dest == st.dest())
            .cloned()
            .collect();
        let mut out = Vec::new();
        for lease in affected {
            let sold = lease.path.first().and_then(|&n| st.learned_from(responder, n));
            if let Some(price) = sold.and_then(|r| prices[r.class as usize]).filter(|&p| p <= lease.budget) {
                // Both parties accept the adjustment; no teardown.
                let live = self.0.leases.iter_mut().find(|l| l.id == lease.id && l.downstream == responder);
                live.expect("re-quoted lease is live").price = price;
                continue;
            }
            // Dissatisfied party: terminate, then re-negotiate.
            self.0.leases.retain(|l| !(l.id == lease.id && l.downstream == responder));
            self.tear_down(&lease, None);
            let replacement = self
                .negotiate(st, lease.upstream, responder, lease.constraints.clone(), lease.budget)
                .ok();
            out.push((lease.id, replacement));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{ExportPolicy, ResponderConfig};
    use crate::negotiate::RejectReason;
    use miro_topology::gen::figure_1_1;
    use miro_topology::RouteClass;

    fn setup() -> (miro_topology::Topology, [NodeId; 6]) {
        figure_1_1()
    }

    #[test]
    fn full_handshake_installs_both_sides() {
        let (t, [a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net
            .negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250)
            .unwrap();
        // Ledger and both tunnel tables agree.
        assert_eq!(net.leases().len(), 1);
        let lease = &net.leases()[0];
        assert_eq!(lease.path, vec![c, f]);
        assert_eq!((lease.upstream, lease.downstream), (a, b));
        assert!(net.tunnels(a).get(b, tid).is_some());
        assert!(net.tunnels(b).get(a, tid).is_some());
        // Message sequence matches Figure 4.2.
        let kinds: Vec<&'static str> = net
            .log
            .iter()
            .map(|(_, _, m)| match m {
                Message::Request { .. } => "request",
                Message::Offers { .. } => "offers",
                Message::Accept { .. } => "accept",
                Message::Established { .. } => "established",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["request", "offers", "accept", "established"]);
    }

    #[test]
    fn admission_allow_list() {
        let (t, [a, b, _c, d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        *net.config_mut(b) = ResponderConfig { allow: Some(vec![d]), ..Default::default() };
        let err = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250);
        assert_eq!(err, Err(NegotiationError::Rejected(RejectReason::NotAllowed)));
        assert!(net.leases().is_empty());
    }

    #[test]
    fn tunnel_limit_rejects() {
        let (t, [a, b, _c, d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        net.config_mut(b).max_tunnels = 1;
        net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let err = net.negotiate(&st, d, b, vec![Constraint::AvoidAs(e)], 250);
        assert_eq!(err, Err(NegotiationError::Rejected(RejectReason::TunnelLimit)));
    }

    #[test]
    fn no_candidates_rejects() {
        let (t, [a, b, _c, _d, _e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        // Avoiding F itself is impossible: every route ends at F.
        let err = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(f)], 250);
        assert_eq!(err, Err(NegotiationError::Rejected(RejectReason::NoCandidates)));
    }

    #[test]
    fn budget_too_small_is_none_acceptable() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        // BCF is a peer route priced at 180; a budget of 150 can't buy it.
        let err = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 150);
        assert_eq!(err, Err(NegotiationError::NoneAcceptable));
        assert!(net.leases().is_empty());
    }

    #[test]
    fn keepalives_keep_tunnels_alive_and_silence_kills() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        for _ in 0..10 {
            net.tick(10, 30);
        }
        assert_eq!(net.leases().len(), 1, "healthy tunnel survives ticking");
        // Upstream goes silent for longer than the timeout.
        net.silence(b, tid, 31, 30);
        assert!(net.leases().is_empty(), "soft state must expire");
        assert!(net.tunnels(b).get(a, tid).is_none());
    }

    #[test]
    fn route_change_triggers_teardown() {
        let (t, [a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        // Unchanged state: nothing happens. Nor does another destination's
        // table, whatever it says about C and F, concern a lease toward F.
        assert!(net.routes_changed(&st).is_empty());
        assert!(net.routes_changed(&RoutingState::solve_without_link(&t, c, c, f)).is_empty());
        assert_eq!(net.leases().len(), 1);
        let lease = net.leases()[0].clone();
        // Now simulate the C-F link failing: recompute on a topology
        // without it; B no longer has the BCF candidate.
        let mut bld = miro_topology::TopologyBuilder::new();
        for n in 1..=6 {
            bld.add_as(miro_topology::AsId(n));
        }
        let id = miro_topology::AsId;
        bld.provider_customer(id(2), id(1));
        bld.provider_customer(id(4), id(1));
        bld.provider_customer(id(2), id(5));
        bld.provider_customer(id(4), id(5));
        bld.peering(id(2), id(3));
        bld.provider_customer(id(5), id(6));
        bld.peering(id(3), id(5)); // C-F link absent
        let t2 = bld.build().unwrap();
        let f2 = t2.node(id(6)).unwrap();
        let st2 = RoutingState::solve(&t2, f2);
        assert_eq!(net.routes_changed(&st2), vec![lease], "the struck lease is handed back");
        assert!(net.leases().is_empty());
        assert!(net.tunnels(a).get(b, tid).is_none());
        assert!(net.tunnels(b).get(a, tid).is_none());
        // B saw its path to F fail and told A.
        assert_eq!(net.tunnels(b).torn_down, [(tid, TeardownReason::RouteChange)]);
        assert_eq!(net.tunnels(a).torn_down, [(tid, TeardownReason::PeerRequest)]);
        assert_eq!(net.log.last(), Some(&(b, a, Message::Teardown { tunnel: tid })));
    }

    /// Figure 1.1 with the avoided AS two hops from the destination: E
    /// reaches F through its customers G (preferred, lower ASN) or H, so a
    /// failure of G-F moves every path through E *beyond* E. B provides A
    /// and E, D provides A and E, B peers with C, C provides F.
    fn stretched() -> (Topology, [NodeId; 8]) {
        let mut bld = miro_topology::TopologyBuilder::new();
        let id = miro_topology::AsId;
        for n in 1..=8 {
            bld.add_as(id(n));
        }
        for (provider, customer) in
            [(2, 1), (4, 1), (2, 5), (4, 5), (5, 7), (5, 8), (7, 6), (8, 6), (3, 6)]
        {
            bld.provider_customer(id(provider), id(customer));
        }
        bld.peering(id(2), id(3));
        let t = bld.build_checked(true).expect("valid hierarchy");
        let nodes = [1, 2, 3, 4, 5, 6, 7, 8].map(|n| t.node(id(n)).expect("interned"));
        (t, nodes)
    }

    /// Section 4.3: A tears down "if the path AB changes" — not if the part
    /// of its old default path that the tunnel bypasses does.
    #[test]
    fn a_change_beyond_the_avoided_as_is_not_a_route_change() {
        let (t, [a, b, c, _d, e, f, g, h]) = stretched();
        let st = RoutingState::solve(&t, f);
        assert_eq!(st.path(a), Some(vec![b, e, g, f]));
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let lease = net.leases()[0].clone();
        assert_eq!((&lease.path, &lease.upstream_path), (&vec![c, f], &vec![b]));

        let st2 = RoutingState::solve_without_link(&t, f, g, f);
        assert_eq!(st2.path(a), Some(vec![b, e, h, f]), "A's default path moved beyond E");
        assert!(net.routes_changed(&st2).is_empty(), "AB and BCF both stand");
        assert_eq!(net.leases(), [lease]);
        assert!(net.tunnels(a).get(b, tid).is_some() && net.tunnels(b).get(a, tid).is_some());
    }

    /// The end whose route moved records `RouteChange` and sends the
    /// `Teardown`; the end that is told records `PeerRequest`.
    #[test]
    fn the_upstream_tears_down_when_its_path_to_the_downstream_moves() {
        let (t, [a, b, _c, d, e, f, g, _h]) = stretched();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let st2 = RoutingState::solve_without_link(&t, f, a, b);
        assert_eq!(st2.path(a), Some(vec![d, e, g, f]));
        let struck = net.routes_changed(&st2);
        assert_eq!(struck.len(), 1);
        assert!(net.leases().is_empty() && net.tunnels(a).is_empty() && net.tunnels(b).is_empty());
        assert_eq!(net.tunnels(a).torn_down, [(tid, TeardownReason::RouteChange)]);
        assert_eq!(net.tunnels(b).torn_down, [(tid, TeardownReason::PeerRequest)]);
        assert_eq!(net.log.last(), Some(&(a, b, Message::Teardown { tunnel: tid })));
    }

    /// Tunnel ids are scoped to the seller: every responder's first sale is
    /// "tunnel 0", and a buyer of several holds them all.
    #[test]
    fn one_buyer_holds_the_same_id_from_several_sellers() {
        let (t, [a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        for seller in [b, c, e] {
            net.config_mut(seller).policy = ExportPolicy::Flexible;
            assert_eq!(net.negotiate(&st, a, seller, vec![], 250), Ok(TunnelId(0)));
        }
        assert_eq!((net.leases().len(), net.tunnels(a).len()), (3, 3));
        for lease in net.leases() {
            let held = net.tunnels(a).get(lease.downstream, lease.id).expect("adopted");
            assert_eq!(held.path, lease.path);
        }
    }

    /// Silencing the buyer's keepalives for one seller's tunnel 0 leaves
    /// the other two tunnel 0s it holds alive.
    #[test]
    fn silencing_one_lease_spares_the_same_id_from_other_sellers() {
        let (t, [a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        for seller in [b, c, e] {
            net.config_mut(seller).policy = ExportPolicy::Flexible;
            assert_eq!(net.negotiate(&st, a, seller, vec![], 250), Ok(TunnelId(0)));
        }
        net.silence(c, TunnelId(0), 31, 30);
        let sellers: Vec<NodeId> = net.leases().iter().map(|l| l.downstream).collect();
        assert_eq!(sellers, [b, e], "only C's tunnel 0 expired");
        assert!(net.tunnels(a).get(c, TunnelId(0)).is_none() && net.tunnels(c).is_empty());
        assert!(net.tunnels(a).get(b, TunnelId(0)).is_some() && net.tunnels(a).get(e, TunnelId(0)).is_some());
    }

    /// An AS that sells tunnel 0 and holds a tunnel 0 it bought keeps both,
    /// and tearing one down leaves the other's two ends in place.
    #[test]
    fn selling_and_buying_under_one_id_are_two_tunnels() {
        let (t, [a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        net.config_mut(c).policy = ExportPolicy::Flexible;
        // B buys C's alternate through E, then sells BCF to A.
        assert_eq!(net.negotiate(&st, b, c, vec![], 250), Ok(TunnelId(0)));
        assert_eq!(net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250), Ok(TunnelId(0)));
        assert_eq!(net.leases()[0].path, vec![e, f]);
        assert_eq!(net.tunnels(b).len(), 2, "the sale did not overwrite the purchase");

        // C-E fails: C loses the path it sold B; BCF and AB are untouched.
        let struck = net.routes_changed(&RoutingState::solve_without_link(&t, f, c, e));
        assert_eq!(struck.iter().map(|l| (l.upstream, l.downstream)).collect::<Vec<_>>(), [(b, c)]);
        assert_eq!(net.leases().len(), 1);
        let sold = net.tunnels(b).get(a, TunnelId(0)).expect("B's sale survives its purchase");
        assert_eq!((sold.path.clone(), net.tunnels(b).len()), (vec![c, f], 1));
        assert!(net.tunnels(a).get(b, TunnelId(0)).is_some() && net.tunnels(c).is_empty());
    }

    #[test]
    fn repricing_within_budget_updates_in_place() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        // BCF is a peer route: base price 180, budget 250.
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let outcomes = net.reprice(&st, b, [Some(120), Some(220), Some(250)]); // 220 <= 250
        assert!(outcomes.is_empty(), "no teardown needed");
        assert_eq!(net.leases()[0].id, tid);
        assert_eq!(net.leases()[0].price, 220);
        // Taking customer and provider routes off sale leaves the peer
        // route B sold at its own new price.
        assert!(net.reprice(&st, b, [None, Some(230), None]).is_empty());
        assert_eq!(net.leases()[0].price, 230);
    }

    /// A class taken off the table is a price no budget meets: the lease
    /// goes, and re-negotiation finds nothing for sale.
    #[test]
    fn repricing_a_class_off_the_table_tears_down() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        assert_eq!(net.reprice(&st, b, [Some(120), None, Some(250)]), vec![(tid, None)]);
        assert!(net.leases().is_empty() && net.tunnels(a).is_empty() && net.tunnels(b).is_empty());
        assert_eq!(net.config_mut(b).prices, [Some(120), None, Some(250)]);
    }

    #[test]
    fn repricing_beyond_budget_tears_down_and_renegotiates() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        // Peer routes at 280 > 250: the only admissible offer is now too
        // expensive even fresh, so re-negotiation fails and A falls back
        // to the default path.
        let outcomes = net.reprice(&st, b, [Some(120), Some(280), Some(250)]);
        assert_eq!(outcomes, vec![(tid, None)]);
        assert!(net.leases().is_empty());
        assert!(net.tunnels(a).get(b, tid).is_none());
        assert!(net.tunnels(b).get(a, tid).is_none());
        assert!(net.log.iter().any(|(_, _, m)| matches!(m, Message::Teardown { .. })));
        // Cooling the price back down lets A buy again (fresh negotiation).
        *net.config_mut(b) = ResponderConfig::default();
        assert!(net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).is_ok());
    }

    #[test]
    fn class_prices_flow_into_offers() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        net.config_mut(b).prices[RouteClass::Peer as usize] = Some(210);
        net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        assert_eq!(net.leases()[0].price, 210, "the peer route BCF at B's peer price");
        // Peer routes off the table: B has nothing left to offer.
        net.config_mut(b).prices[RouteClass::Peer as usize] = None;
        let err = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250);
        assert_eq!(err, Err(NegotiationError::Rejected(RejectReason::NoCandidates)));
    }

    #[test]
    fn self_negotiation_refused() {
        let (t, [a, b, ..]) = setup();
        let st = RoutingState::solve(&t, a);
        let mut net = MiroNetwork::new(&t);
        assert_eq!(
            net.negotiate(&st, a, a, vec![], 100),
            Err(NegotiationError::SelfNegotiation)
        );
        // Nor for another way to reach itself. (The destination asking an
        // upstream AS to *switch* is `negotiate_switch`, tested below.)
        assert_eq!(
            net.negotiate(&st, a, b, vec![], 100),
            Err(NegotiationError::SelfNegotiation)
        );
        assert!(net.log.is_empty() && net.leases().is_empty());
    }

    /// Ids the per-node tables cannot index are refused up front, on either
    /// side of the pair, instead of panicking on `configs[responder]`.
    #[test]
    fn unknown_node_refused() {
        let (t, [a, ..]) = setup();
        let st = RoutingState::solve(&t, a);
        let mut net = MiroNetwork::new(&t);
        let ghost = t.num_nodes() as NodeId;
        assert_eq!(
            net.negotiate(&st, a, ghost, vec![], 100),
            Err(NegotiationError::UnknownNode(ghost))
        );
        assert_eq!(
            net.negotiate_switch(&st, ghost + 7, a, vec![], 100),
            Err(NegotiationError::UnknownNode(ghost + 7))
        );
        assert!(net.log.is_empty() && net.leases().is_empty());
    }

    /// The requester need not trust the responder: an `Offers` whose best
    /// and cheapest entry runs through the avoided AS (a responder that did
    /// not filter) is passed over for the admissible one — or for nothing.
    #[test]
    fn choose_offer_rechecks_the_requesters_constraints() {
        use miro_bgp::route::CandidateRoute;
        let offer = |path: Vec<NodeId>, class, price| Offer {
            route: CandidateRoute { path, class },
            price,
        };
        let offers = vec![
            offer(vec![7, 9], RouteClass::Customer, 10), // through the avoided AS 7
            offer(vec![3, 4, 9], RouteClass::Peer, 180),
        ];
        let avoid = [Constraint::AvoidAs(7)];
        assert_eq!(choose_offer(&offers, &[], 250), Some(0), "unconstrained: best wins");
        assert_eq!(choose_offer(&offers, &avoid, 250), Some(1));
        assert_eq!(choose_offer(&offers, &avoid, 100), None, "never the inadmissible one");
        assert_eq!(choose_offer(&offers[..1], &avoid, 250), None);
        assert_eq!(choose_offer(&offers, &[Constraint::MaxPrice(50), Constraint::MaxLen(2)], 250), Some(0));
    }

    #[test]
    fn downstream_initiated_negotiation_for_inbound_control() {
        // Section 3.3's reverse scenario: F asks B to move traffic off the
        // EF link. Modeled as F requesting from B an alternate toward F
        // itself that avoids E.
        let (t, [_a, b, c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = MiroNetwork::new(&t);
        let tid = net.negotiate_switch(&st, f, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let lease = &net.leases()[0];
        assert_eq!(lease.upstream, f);
        assert_eq!(lease.downstream, b);
        assert_eq!(lease.path, vec![c, f]);
        let _ = tid;
    }
}
