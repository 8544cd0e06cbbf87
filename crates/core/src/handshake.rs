//! The Figure-4.2 handshake, declared once: the state every driver keeps
//! and the steps that do not depend on how messages travel.
//!
//! Two drivers run it. [`crate::node::MiroNetwork`] resolves a negotiation
//! synchronously — the short reference; [`crate::reliable::ReliableNet`]
//! runs the same steps message by message over a faulty channel. Both
//! deref to [`NetState`], so `config_mut` / `leases` / `tunnels` /
//! `topology`, the clock and the transcript read the same on either, and a
//! protocol fix made here reaches both.

use crate::export::{Offer, ResponderConfig};
use crate::negotiate::{
    admissible, Constraint, Message, NegotiationError, NegotiationId, RejectReason,
};
use crate::node::Lease;
use crate::tunnel::{Tunnel, TunnelId, TunnelManager};
use miro_bgp::solver::RoutingState;
use miro_topology::{NodeId, Topology};

/// Per-AS responder rules and tunnel tables, the lease ledger, the
/// negotiation-id allocator, the virtual clock and the message transcript.
pub struct NetState<'t> {
    topo: &'t Topology,
    /// Virtual clock, advanced by the driver's `tick`.
    pub clock: u64,
    pub(crate) configs: Vec<ResponderConfig>,
    pub(crate) managers: Vec<TunnelManager>,
    pub(crate) leases: Vec<Lease>,
    next_neg: u64,
    /// Transcript of every message sent: (from, to, message).
    pub log: Vec<(NodeId, NodeId, Message)>,
}

impl<'t> NetState<'t> {
    pub(crate) fn new(topo: &'t Topology) -> Self {
        let n = topo.num_nodes();
        NetState {
            topo,
            clock: 0,
            configs: vec![ResponderConfig::default(); n],
            managers: (0..n).map(|_| TunnelManager::new()).collect(),
            leases: Vec::new(),
            next_neg: 0,
            log: Vec::new(),
        }
    }

    /// One AS's responder configuration, to replace or adjust in place.
    pub fn config_mut(&mut self, node: NodeId) -> &mut ResponderConfig {
        &mut self.configs[node as usize]
    }

    /// The live leases ledger (establishment order).
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// A node's tunnel table.
    pub fn tunnels(&self, node: NodeId) -> &TunnelManager {
        &self.managers[node as usize]
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Refuse a pair no negotiation can run between: an id the per-node
    /// tables cannot index, an AS talking to itself, or — `toward` being
    /// the destination alternates are asked for, `None` for a switch
    /// request, which the destination itself sends — an AS asking for
    /// another way to reach itself.
    pub(crate) fn check_pair(
        &self,
        requester: NodeId,
        responder: NodeId,
        toward: Option<NodeId>,
    ) -> Result<(), NegotiationError> {
        let n = self.managers.len();
        if let Some(node) = [requester, responder].into_iter().find(|&x| x as usize >= n) {
            return Err(NegotiationError::UnknownNode(node));
        }
        if requester == responder || Some(requester) == toward {
            return Err(NegotiationError::SelfNegotiation);
        }
        Ok(())
    }

    pub(crate) fn next_id(&mut self) -> NegotiationId {
        let id = NegotiationId(self.next_neg);
        self.next_neg += 1;
        id
    }

    /// Responder-side decision (step 1 → 2): admission control (section
    /// 6.2.1), then the configured offers ([`ResponderConfig::offers`])
    /// that admit the requester's constraints (section 6.2.2).
    pub(crate) fn responder_offers(
        &self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        constraints: &[Constraint],
        switch: bool,
    ) -> Result<Vec<Offer>, RejectReason> {
        let cfg = &self.configs[responder as usize];
        if cfg.allow.as_ref().is_some_and(|allow| !allow.contains(&requester)) {
            return Err(RejectReason::NotAllowed);
        }
        // The `tunnel_number < N` gate counts the responder's live tunnels.
        if self.managers[responder as usize].len() >= cfg.max_tunnels {
            return Err(RejectReason::TunnelLimit);
        }
        let offers = admissible(&cfg.offers(st, requester, responder, switch), constraints);
        if offers.is_empty() {
            return Err(RejectReason::NoCandidates);
        }
        Ok(offers)
    }

    /// Responder half of step 4: the downstream AS allocates the tunnel id,
    /// installs its side and the lease is recorded. `budget` and
    /// `constraints` are the requester's, for re-negotiation — a responder
    /// that learns of them only by message passes none.
    pub(crate) fn establish(
        &mut self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        offer: &Offer,
        budget: u32,
        constraints: Vec<Constraint>,
    ) -> TunnelId {
        let (dest, path) = (st.dest(), offer.route.path.clone());
        let id = self.managers[responder as usize]
            .establish(requester, dest, path.clone(), offer.price, self.clock);
        // Only the segment the tunnel rides, up to the responder: what lies
        // beyond is what the lease bypasses. Empty for an off-path responder.
        let mut upstream_path = st.path(requester).unwrap_or_default();
        let reach = upstream_path.iter().position(|&hop| hop == responder);
        upstream_path.truncate(reach.map_or(0, |i| i + 1));
        self.leases.push(Lease {
            id,
            downstream: responder,
            upstream: requester,
            dest,
            path,
            upstream_path,
            price: offer.price,
            budget,
            constraints,
        });
        id
    }

    /// Requester half of step 4: install the tunnel under the id the
    /// responder allocated, with the path and price its lease records (no
    /// lease: the responder restarted since — adopt the id only). `false`
    /// when the requester already holds that id from this responder.
    pub(crate) fn adopt(
        &mut self,
        requester: NodeId,
        responder: NodeId,
        dest: NodeId,
        id: TunnelId,
    ) -> bool {
        let (path, price) = self
            .leases
            .iter()
            .find(|l| l.id == id && l.downstream == responder && l.upstream == requester)
            .map_or((Vec::new(), 0), |l| (l.path.clone(), l.price));
        let last_heartbeat = self.clock;
        self.managers[requester as usize]
            .adopt(Tunnel { id, peer: responder, dest, path, price, last_heartbeat })
    }

    /// Strike tunnel `id` between `a` and `b` (either way round) from the
    /// ledger.
    pub(crate) fn drop_lease(&mut self, id: TunnelId, a: NodeId, b: NodeId) {
        self.leases.retain(|l| {
            l.id != id || ![(a, b), (b, a)].contains(&(l.downstream, l.upstream))
        });
    }
}
