//! Valley-free path machinery and route classification.
//!
//! Gao's export rules (section 2.2.1) imply that every AS path visible in BGP
//! is *valley-free*: reading from the traffic source toward the
//! destination, it climbs zero or more customer-to-provider (or sibling)
//! links, optionally crosses one peer link, then descends zero or more
//! provider-to-customer (or sibling) links. Section 7.3.3's proof relies on
//! this shape, and the evaluation's route classes derive from it.

use crate::graph::{NodeId, Rel, Topology};

/// The business class of a route *as seen by the AS holding it*
/// (section 2.2.1). Ordering is by preference: customer routes are most
/// preferred, then peers, then providers (Guideline A).
///
/// Sibling routes are not a class of their own: per the paper's
/// approximation, a route whose first links are sibling links takes the
/// class of its first non-sibling link, and counts as a customer route if
/// every link is a sibling link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RouteClass {
    /// Learned (possibly through siblings) from a customer, or the AS's own
    /// prefix. Highest preference, exportable to everyone.
    Customer,
    /// Learned (possibly through siblings) from a peer. Exportable only to
    /// customers and siblings.
    Peer,
    /// Learned (possibly through siblings) from a provider. Lowest
    /// preference; exportable only to customers and siblings.
    Provider,
}

impl RouteClass {
    /// All three, in preference order — the order per-class tables (such
    /// as a responder's prices) are indexed in, by `class as usize`.
    pub const ALL: [RouteClass; 3] = [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider];

    /// Local-preference band conventionally assigned to this class
    /// (section 2.2.2 gives 400-500 / 200-300 / 50-100 as the worked example).
    pub fn local_pref(self) -> u32 {
        match self {
            RouteClass::Customer => 450,
            RouteClass::Peer => 250,
            RouteClass::Provider => 80,
        }
    }

    /// Inverse of [`RouteClass::local_pref`] banding: classify an arbitrary
    /// local-preference value back into a class.
    pub fn from_local_pref(lp: u32) -> RouteClass {
        if lp >= 400 {
            RouteClass::Customer
        } else if lp >= 200 {
            RouteClass::Peer
        } else {
            RouteClass::Provider
        }
    }
}

/// Classify the route `path` as held by `holder`, where `path[0]` is the
/// next-hop AS and `path.last()` the destination (the holder itself is not
/// on the path). Skips leading sibling links per the paper's sibling
/// approximation. An empty path (the AS's own prefix) is a customer route.
///
/// Returns `None` if some consecutive pair on the path is not actually
/// linked in the topology (a malformed path).
pub fn classify_route(topo: &Topology, holder: NodeId, path: &[NodeId]) -> Option<RouteClass> {
    let mut at = holder;
    for &next in path {
        match topo.rel(at, next)? {
            Rel::Sibling => at = next,
            Rel::Customer => return Some(RouteClass::Customer),
            Rel::Peer => return Some(RouteClass::Peer),
            Rel::Provider => return Some(RouteClass::Provider),
        }
    }
    // All-sibling (or empty) path: treated as a customer route.
    Some(RouteClass::Customer)
}

/// Phase of a valley-free walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Still climbing customer-to-provider (or sibling) links.
    Up,
    /// Crossed the single allowed peer link.
    AfterPeer,
    /// Descending provider-to-customer (or sibling) links.
    Down,
}

/// Check that `nodes` (a full AS path including both endpoints, read from
/// traffic source to destination) is valley-free in `topo`: (c2p | sibling)*
/// (peer)? (p2c | sibling)*. Also rejects paths with repeated ASes and
/// paths using non-existent links.
pub fn is_valley_free(topo: &Topology, nodes: &[NodeId]) -> bool {
    if nodes.is_empty() {
        return false;
    }
    if has_duplicates(nodes) {
        return false;
    }
    let mut phase = Phase::Up;
    for w in nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        // rel = what b is to a.
        let Some(rel) = topo.rel(a, b) else { return false };
        phase = match (phase, rel) {
            (p, Rel::Sibling) => p,
            (Phase::Up, Rel::Provider) => Phase::Up, // b is a's provider: climbing
            (Phase::Up, Rel::Peer) => Phase::AfterPeer,
            (Phase::Up, Rel::Customer) => Phase::Down, // b is a's customer: descending
            (Phase::AfterPeer | Phase::Down, Rel::Customer) => Phase::Down,
            // Second peer link or a climb after the apex: a valley.
            (Phase::AfterPeer | Phase::Down, Rel::Peer | Rel::Provider) => return false,
        };
    }
    true
}

/// Does the slice contain the same AS twice? AS paths are short (mean ~4),
/// so the quadratic scan beats hashing.
pub fn has_duplicates(nodes: &[NodeId]) -> bool {
    for (i, &a) in nodes.iter().enumerate() {
        if nodes[i + 1..].contains(&a) {
            return true;
        }
    }
    false
}

/// Does `path` (next-hop first, destination last) traverse `avoid`?
pub fn traverses(path: &[NodeId], avoid: NodeId) -> bool {
    path.contains(&avoid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsId, TopologyBuilder};

    /// Five-AS topology:
    ///   T1a -peer- T1b   (tier 1)
    ///    |          |
    ///   Mid        Mid2  (customers of tier 1)
    ///    |
    ///   Stub             (customer of Mid; sibling of Sib)
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        for n in [10, 11, 20, 21, 30, 31] {
            b.add_as(AsId(n));
        }
        b.peering(AsId(10), AsId(11));
        b.provider_customer(AsId(10), AsId(20));
        b.provider_customer(AsId(11), AsId(21));
        b.provider_customer(AsId(20), AsId(30));
        b.sibling(AsId(30), AsId(31));
        b.build_checked(true).unwrap()
    }

    fn n(t: &Topology, asn: u32) -> NodeId {
        t.node(AsId(asn)).unwrap()
    }

    #[test]
    fn up_peer_down_is_valley_free() {
        let t = topo();
        let p = [n(&t, 30), n(&t, 20), n(&t, 10), n(&t, 11), n(&t, 21)];
        assert!(is_valley_free(&t, &p));
    }

    #[test]
    fn pure_descent_is_valley_free() {
        let t = topo();
        assert!(is_valley_free(&t, &[n(&t, 10), n(&t, 20), n(&t, 30)]));
    }

    #[test]
    fn valley_is_rejected() {
        let t = topo();
        // Down to stub 30 then back up to 20 would revisit; craft a real
        // valley instead: 10 -> 20 (down) -> 30 (down) -> 31 (sibling) is
        // fine, but 20 -> 30 (down) -> ... there is no way back up without a
        // repeat, so test a peer-after-down valley on tier 1:
        // 20 -> 10 (up) -> 11 (peer) -> 10? repeats. Use: descent then peer.
        let p = [n(&t, 20), n(&t, 30), n(&t, 31)];
        assert!(is_valley_free(&t, &p)); // down + sibling ok
        let bad = [n(&t, 10), n(&t, 20), n(&t, 30), n(&t, 31), n(&t, 20)];
        assert!(!is_valley_free(&t, &bad)); // repeat + climb after descent
    }

    #[test]
    fn two_peer_links_rejected() {
        let mut b = TopologyBuilder::new();
        for x in [1, 2, 3] {
            b.add_as(AsId(x));
        }
        b.peering(AsId(1), AsId(2));
        b.peering(AsId(2), AsId(3));
        let t = b.build().unwrap();
        let p = [n(&t, 1), n(&t, 2), n(&t, 3)];
        assert!(!is_valley_free(&t, &p));
    }

    #[test]
    fn sibling_links_are_transparent() {
        let t = topo();
        // 31 -sib- 30 -up- 20 -up- 10: still "up" phase throughout.
        let p = [n(&t, 31), n(&t, 30), n(&t, 20), n(&t, 10)];
        assert!(is_valley_free(&t, &p));
    }

    #[test]
    fn nonexistent_link_rejected() {
        let t = topo();
        assert!(!is_valley_free(&t, &[n(&t, 30), n(&t, 10)]));
    }

    #[test]
    fn classify_direct_links() {
        let t = topo();
        // Held by 20: next hop 30 is a customer.
        assert_eq!(
            classify_route(&t, n(&t, 20), &[n(&t, 30)]),
            Some(RouteClass::Customer)
        );
        // Held by 20: next hop 10 is a provider.
        assert_eq!(
            classify_route(&t, n(&t, 20), &[n(&t, 10)]),
            Some(RouteClass::Provider)
        );
        // Held by 10: next hop 11 is a peer.
        assert_eq!(
            classify_route(&t, n(&t, 10), &[n(&t, 11), n(&t, 21)]),
            Some(RouteClass::Peer)
        );
    }

    #[test]
    fn classify_skips_leading_siblings() {
        let t = topo();
        // Held by 31: 30 is a sibling, then 20 is a provider of 30.
        assert_eq!(
            classify_route(&t, n(&t, 31), &[n(&t, 30), n(&t, 20)]),
            Some(RouteClass::Provider)
        );
    }

    #[test]
    fn classify_all_sibling_is_customer() {
        let t = topo();
        assert_eq!(
            classify_route(&t, n(&t, 31), &[n(&t, 30)]),
            Some(RouteClass::Customer)
        );
        // Own prefix (empty path) is also a customer route.
        assert_eq!(
            classify_route(&t, n(&t, 31), &[]),
            Some(RouteClass::Customer)
        );
    }

    #[test]
    fn classify_malformed_path_is_none() {
        let t = topo();
        assert_eq!(classify_route(&t, n(&t, 30), &[n(&t, 10)]), None);
    }

    #[test]
    fn class_preference_order() {
        assert!(RouteClass::Customer < RouteClass::Peer);
        assert!(RouteClass::Peer < RouteClass::Provider);
        assert!(RouteClass::Customer.local_pref() > RouteClass::Peer.local_pref());
        for c in [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider] {
            assert_eq!(RouteClass::from_local_pref(c.local_pref()), c);
        }
    }

    #[test]
    fn duplicate_detection() {
        assert!(has_duplicates(&[1, 2, 1]));
        assert!(!has_duplicates(&[1, 2, 3]));
        assert!(!has_duplicates(&[]));
    }
}
