//! The bilateral negotiation protocol (sections 3.3, 4.3, Figure 4.2).
//!
//! Wire sequence between a requesting AS and a responding AS:
//!
//! ```text
//!   requester                                responder
//!      | -- Request(dest, constraints) --------> |   (1)
//!      | <-- Offers([route+price, ...]) --------- |   (2) policy-filtered
//!      | -- Accept(chosen offer) ---------------> |   (3) handshake
//!      | <-- Established(tunnel id) ------------- |   (4) data plane ready
//! ```
//!
//! plus `Reject`, `Keepalive` (soft state, section 4.3) and `Teardown`.
//! The message types are plain data so the same definitions drive both
//! handshake drivers ([`crate::node`], [`crate::reliable`]), the tests, and
//! the examples' printed transcripts.

use crate::export::Offer;
use miro_topology::NodeId;

/// Identifier of one negotiation session, unique per requester.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NegotiationId(pub u64);

/// Requirements the requester attaches to a request (section 6.2.2: "the
/// requesting AS can explicitly request 'only give me paths without AS
/// 312'"). The responder applies them before answering, the requester
/// re-checks on receipt (it need not trust the responder).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Constraint {
    /// Offered paths must not traverse this AS.
    AvoidAs(NodeId),
    /// Offered paths must be at most this many AS hops (responder-side
    /// length; the requester adds its own distance to the responder).
    MaxLen(usize),
    /// Offered paths must cost at most this much.
    MaxPrice(u32),
}

impl Constraint {
    /// Does `offer` satisfy this constraint?
    pub fn admits(&self, offer: &Offer) -> bool {
        match *self {
            Constraint::AvoidAs(x) => !offer.route.traverses(x),
            Constraint::MaxLen(l) => offer.route.len() <= l,
            Constraint::MaxPrice(p) => offer.price <= p,
        }
    }
}

/// Filter `offers` by all `constraints`.
pub fn admissible(offers: &[Offer], constraints: &[Constraint]) -> Vec<Offer> {
    offers
        .iter()
        .filter(|o| constraints.iter().all(|c| c.admits(o)))
        .cloned()
        .collect()
}

/// Control-plane messages (Figure 4.2). `from`/`to` routing is carried by
/// the harness envelope in [`crate::node`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// (1) Ask for alternates toward `dest` satisfying `constraints`.
    Request {
        id: NegotiationId,
        dest: NodeId,
        constraints: Vec<Constraint>,
    },
    /// (2) The policy-filtered candidate set.
    Offers { id: NegotiationId, offers: Vec<Offer> },
    /// (3) The requester picks one offer (by index into the offers list).
    Accept { id: NegotiationId, choice: usize },
    /// (4) Tunnel is live; the id is scoped to the responder (section 3.5:
    /// "this identifier does not need to be globally unique").
    Established {
        id: NegotiationId,
        tunnel: crate::tunnel::TunnelId,
    },
    /// Negotiation refused or failed.
    Reject { id: NegotiationId, reason: RejectReason },
    /// Soft-state heartbeat for a live tunnel (section 4.3).
    Keepalive { tunnel: crate::tunnel::TunnelId },
    /// Active teardown (route change, policy change, or lost interest).
    Teardown { tunnel: crate::tunnel::TunnelId },
    /// Requester's acknowledgment of `Established`, closing the handshake
    /// on an unreliable channel (the responder retransmits `Established`
    /// until it sees this; see [`crate::reliable`]). On a perfect channel
    /// it is pure bookkeeping.
    Ack { id: NegotiationId },
}

/// Why a negotiation was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Responder's tunnel budget is exhausted (section 6.2.1: "a limit for
    /// the total number of tunnels").
    TunnelLimit,
    /// Responder's admission policy refuses this requester.
    NotAllowed,
    /// No offer survived the constraints.
    NoCandidates,
    /// The `Accept` referenced an offer that was never made (stale or
    /// malformed choice).
    BadChoice,
}

/// Errors surfaced by the synchronous negotiation helpers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NegotiationError {
    /// The responder rejected, with its reason.
    Rejected(RejectReason),
    /// The requester found no acceptable offer (e.g. all too expensive).
    NoneAcceptable,
    /// Requester and responder are the same AS.
    SelfNegotiation,
    /// The requester or responder id names no node of the topology.
    UnknownNode(NodeId),
}

impl std::fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NegotiationError::Rejected(r) => write!(f, "responder rejected: {r:?}"),
            NegotiationError::NoneAcceptable => write!(f, "no acceptable offer"),
            NegotiationError::SelfNegotiation => write!(f, "cannot negotiate with self"),
            NegotiationError::UnknownNode(n) => write!(f, "node {n} is not in the topology"),
        }
    }
}

impl std::error::Error for NegotiationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::route::CandidateRoute;
    use miro_topology::RouteClass;

    fn offer(path: Vec<NodeId>, price: u32) -> Offer {
        Offer {
            route: CandidateRoute { path, class: RouteClass::Customer },
            price,
        }
    }

    #[test]
    fn avoid_constraint_filters_paths() {
        let c = Constraint::AvoidAs(7);
        assert!(c.admits(&offer(vec![1, 2, 3], 0)));
        assert!(!c.admits(&offer(vec![1, 7, 3], 0)));
    }

    #[test]
    fn max_len_and_price_constraints() {
        assert!(Constraint::MaxLen(2).admits(&offer(vec![1, 2], 0)));
        assert!(!Constraint::MaxLen(2).admits(&offer(vec![1, 2, 3], 0)));
        assert!(Constraint::MaxPrice(100).admits(&offer(vec![1], 100)));
        assert!(!Constraint::MaxPrice(100).admits(&offer(vec![1], 101)));
    }

    #[test]
    fn admissible_applies_all_constraints() {
        let offers = vec![
            offer(vec![1, 2], 50),
            offer(vec![1, 7], 50),
            offer(vec![1, 2, 3], 50),
            offer(vec![1, 2], 500),
        ];
        let got = admissible(
            &offers,
            &[Constraint::AvoidAs(7), Constraint::MaxLen(2), Constraint::MaxPrice(100)],
        );
        assert_eq!(got, vec![offer(vec![1, 2], 50)]);
    }

    #[test]
    fn empty_constraints_admit_everything() {
        let offers = vec![offer(vec![9], 1)];
        assert_eq!(admissible(&offers, &[]), offers);
    }
}
