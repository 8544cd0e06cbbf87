//! Soft-state tunnel management (sections 3.5 and 4.3).
//!
//! After a successful negotiation, the responding (downstream) AS assigns a
//! tunnel identifier — unique only within itself — and both sides install
//! state. A tunnel stays alive while keepalives flow; it is torn down
//! actively when either side's relevant route changes — "AS A will tear
//! down the tunnel if the path AB changes", "AS B will tear down the tunnel
//! if the path BCF to the destination prefix fails" (section 4.3) — or
//! passively when the heartbeat timer expires (the "idle tunnels in the
//! downstream ASes" problem of section 4.3).
//!
//! This module is the per-AS table only. Deciding *that* a route changed
//! takes the routing state of both ends, so the one route-change teardown
//! is [`crate::node::MiroNetwork::routes_changed`], which records
//! [`TeardownReason::RouteChange`] here at the side that saw it.
//!
//! Time is a virtual `u64` tick supplied by the caller, so the whole
//! control plane is deterministic and simulable.

use miro_topology::NodeId;
use std::collections::hash_map::{Entry, HashMap};

/// Downstream-scoped tunnel identifier (the "7" of Figures 3.1 and 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TunnelId(pub u32);

/// One endpoint's record of a live tunnel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tunnel {
    /// The id the downstream AS assigned.
    pub id: TunnelId,
    /// The AS at the other end of the tunnel.
    pub peer: NodeId,
    /// Destination prefix (AS-level) the tunnel serves.
    pub dest: NodeId,
    /// The negotiated path, *as held by the downstream AS* (next hop
    /// first, destination last).
    pub path: Vec<NodeId>,
    /// Agreed price per the negotiation.
    pub price: u32,
    /// Virtual time of the last keepalive seen (or establishment).
    pub last_heartbeat: u64,
}

/// Why a tunnel was torn down — reported so callers (and tests) can tell
/// active teardown from soft-state expiry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TeardownReason {
    /// Keepalives stopped arriving (section 4.3 soft state).
    Expired,
    /// The route underpinning the tunnel changed or failed.
    RouteChange,
    /// The peer asked for teardown.
    PeerRequest,
}

/// Tunnel table of one AS (either side of the relationship uses the same
/// structure; the downstream side is also the id allocator).
///
/// An id is scoped to the AS that sold it, so an entry is keyed by
/// `(peer, id)`: the tunnels an AS bought from several sellers may all be
/// "tunnel 0" and still be distinct, and none can shadow a tunnel the AS
/// sold itself. `(peer, id)` is also all a `Keepalive` or `Teardown`
/// message names, so [`TunnelManager::establish`] never issues an id it
/// already holds from that same peer.
///
/// ```
/// use miro_core::tunnel::TunnelManager;
///
/// let mut mgr = TunnelManager::new();
/// let id = mgr.establish(/*peer*/ 7, /*dest*/ 9, vec![3, 9], /*price*/ 180, /*now*/ 0);
/// mgr.keepalive(7, id, 25);
/// assert!(mgr.expire(/*now*/ 30, /*timeout*/ 10).is_empty(), "fresh heartbeat");
/// let dead = mgr.expire(/*now*/ 99, /*timeout*/ 10);
/// assert_eq!(dead, vec![id], "silence kills the soft state");
/// ```
#[derive(Default, Debug)]
pub struct TunnelManager {
    next: u32,
    live: HashMap<(NodeId, TunnelId), Tunnel>,
    /// History of (id, reason), for diagnostics and tests.
    pub torn_down: Vec<(TunnelId, TeardownReason)>,
}

impl TunnelManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Downstream side: allocate an id and install state.
    pub fn establish(
        &mut self,
        peer: NodeId,
        dest: NodeId,
        path: Vec<NodeId>,
        price: u32,
        now: u64,
    ) -> TunnelId {
        while self.live.contains_key(&(peer, TunnelId(self.next))) {
            self.next += 1; // bought from `peer` under that id
        }
        let id = TunnelId(self.next);
        self.next += 1;
        self.live.insert(
            (peer, id),
            Tunnel { id, peer, dest, path, price, last_heartbeat: now },
        );
        id
    }

    /// Upstream side: install state under the id the downstream
    /// (`tunnel.peer`) assigned. Returns `false` (and installs nothing) if
    /// a tunnel with that peer already has the id.
    pub fn adopt(&mut self, tunnel: Tunnel) -> bool {
        match self.live.entry((tunnel.peer, tunnel.id)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(tunnel);
                true
            }
        }
    }

    /// Record a heartbeat from `peer` for `id` at time `now`.
    pub fn keepalive(&mut self, peer: NodeId, id: TunnelId, now: u64) -> bool {
        match self.live.get_mut(&(peer, id)) {
            Some(t) => {
                t.last_heartbeat = now;
                true
            }
            None => false,
        }
    }

    /// Tear down every tunnel whose last heartbeat is older than
    /// `now - timeout`. Returns the expired ids.
    pub fn expire(&mut self, now: u64, timeout: u64) -> Vec<TunnelId> {
        let stale = |t: &Tunnel| now.saturating_sub(t.last_heartbeat) > timeout;
        let mut dead: Vec<TunnelId> =
            self.live.values().filter(|t| stale(t)).map(|t| t.id).collect();
        self.live.retain(|_, t| !stale(t));
        dead.sort_unstable();
        self.torn_down.extend(dead.iter().map(|&id| (id, TeardownReason::Expired)));
        dead
    }

    /// The process behind this table crashed: every live tunnel and the
    /// teardown history vanish without ceremony (soft state is exactly
    /// the state you are allowed to lose). The id allocator survives —
    /// it models a boot-epoch-prefixed id space, so a restarted
    /// responder never re-issues an id a peer may still be holding from
    /// before the crash. Returns the ids that were live, for callers
    /// that account for the wreckage.
    pub fn crash(&mut self) -> Vec<TunnelId> {
        let mut lost: Vec<TunnelId> = self.live.keys().map(|&(_, id)| id).collect();
        lost.sort_unstable();
        self.live.clear();
        self.torn_down.clear();
        lost
    }

    /// Active teardown of the tunnel shared with `peer`: `RouteChange` at
    /// the side whose route moved (section 4.3), `PeerRequest` at the side
    /// that is told.
    pub fn teardown(&mut self, peer: NodeId, id: TunnelId, reason: TeardownReason) -> bool {
        let known = self.live.remove(&(peer, id)).is_some();
        if known {
            self.torn_down.push((id, reason));
        }
        known
    }

    /// Look up the live tunnel shared with `peer` under `id`.
    pub fn get(&self, peer: NodeId, id: TunnelId) -> Option<&Tunnel> {
        self.live.get(&(peer, id))
    }

    /// Number of live tunnels (drives the `tunnel_number < N` admission
    /// rule of section 6.3).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate live tunnels in (id, peer) order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Tunnel> {
        let mut v: Vec<&Tunnel> = self.live.values().collect();
        v.sort_by_key(|t| (t.id, t.peer));
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr_with_two() -> TunnelManager {
        let mut m = TunnelManager::new();
        m.establish(1, 9, vec![2, 9], 120, 0);
        m.establish(1, 8, vec![3, 8], 180, 0);
        m
    }

    #[test]
    fn establish_allocates_fresh_ids() {
        let mut m = TunnelManager::new();
        let a = m.establish(1, 9, vec![9], 0, 0);
        let b = m.establish(2, 9, vec![9], 0, 0);
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1, a).unwrap().peer, 1);
        assert!(m.get(2, a).is_none(), "an id names a tunnel only together with its peer");
    }

    #[test]
    fn keepalive_refreshes_and_expire_reaps() {
        let mut m = mgr_with_two();
        let ids: Vec<TunnelId> = m.iter().map(|t| t.id).collect();
        assert!(m.keepalive(1, ids[0], 50));
        // Timeout 30 at t=60: tunnel 0 heartbeat at 50 (age 10, lives);
        // tunnel 1 heartbeat at 0 (age 60, dies).
        let dead = m.expire(60, 30);
        assert_eq!(dead, vec![ids[1]]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.torn_down, vec![(ids[1], TeardownReason::Expired)]);
        // Unknown id keepalive is reported.
        assert!(!m.keepalive(1, ids[1], 70));
    }

    #[test]
    fn explicit_teardown() {
        let mut m = mgr_with_two();
        let id = m.iter().next().unwrap().id;
        assert!(!m.teardown(2, id, TeardownReason::PeerRequest), "wrong peer");
        assert!(m.teardown(1, id, TeardownReason::PeerRequest));
        assert!(!m.teardown(1, id, TeardownReason::PeerRequest), "double teardown is reported");
        assert_eq!(m.torn_down.last(), Some(&(id, TeardownReason::PeerRequest)));
    }

    fn bought(peer: NodeId, id: u32) -> Tunnel {
        Tunnel { id: TunnelId(id), peer, dest: 9, path: vec![9], price: 0, last_heartbeat: 0 }
    }

    #[test]
    fn adopt_rejects_id_collisions() {
        let mut m = TunnelManager::new();
        assert!(m.adopt(bought(1, 7)));
        assert!(!m.adopt(bought(1, 7)));
        assert_eq!(m.len(), 1);
    }

    /// Ids are scoped to the seller: "tunnel 0" bought from four sellers is
    /// four tunnels, none of them the tunnel 0 this AS sold, and each is
    /// refreshed and torn down on its own.
    #[test]
    fn ids_from_different_sellers_do_not_collide() {
        let mut m = TunnelManager::new();
        for seller in 1..=4 {
            assert!(m.adopt(bought(seller, 0)), "seller {seller}");
        }
        let sold = m.establish(5, 8, vec![8], 0, 0);
        assert_eq!((sold, m.len()), (TunnelId(0), 5), "selling overwrites nothing");
        assert!(m.keepalive(3, TunnelId(0), 40));
        assert_eq!(m.expire(40, 30), vec![TunnelId(0); 4], "all but seller 3's");
        assert!(m.teardown(3, TunnelId(0), TeardownReason::RouteChange));
        assert!(m.is_empty());
    }

    /// A `Keepalive` between two ASes names only an id, so a seller skips
    /// an id it already holds from that buyer.
    #[test]
    fn a_seller_never_issues_an_id_it_holds_from_the_buyer() {
        let mut m = TunnelManager::new();
        assert!(m.adopt(bought(1, 0)));
        assert_eq!(m.establish(2, 9, vec![9], 0, 0), TunnelId(0), "another peer: no clash");
        assert!(m.adopt(bought(1, 1)));
        assert_eq!(m.establish(1, 9, vec![9], 0, 0), TunnelId(2));
        assert_eq!(m.get(1, TunnelId(0)), Some(&bought(1, 0)));
    }

    #[test]
    fn crash_wipes_state_but_not_the_id_allocator() {
        let mut m = mgr_with_two();
        let first = m.iter().next().unwrap().id;
        m.teardown(1, first, TeardownReason::PeerRequest);
        let lost = m.crash();
        assert_eq!(lost, vec![TunnelId(1)], "the surviving tunnel was lost");
        assert!(m.is_empty());
        assert!(m.torn_down.is_empty(), "a crash loses the history too");
        let id = m.establish(1, 9, vec![9], 0, 0);
        assert_eq!(id, TunnelId(2), "post-restart ids never collide with pre-crash ones");
    }

    #[test]
    fn iteration_is_id_ordered() {
        let m = mgr_with_two();
        let ids: Vec<u32> = m.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
