//! A Routing Control Platform (RCP)-style controller for one AS
//! (section 4.1's second implementation option, plus the section 4.3
//! tunnel-health server).
//!
//! Instead of router-by-router iBGP coordination, "a separate service,
//! such as the Routing Control Platform, can manage the interdomain
//! routing information on behalf of the routers ... computes BGP paths on
//! behalf of the routers ... handles the requests from the customer's
//! routing control platform for alternate routes ... can also install the
//! data-plane state, such as tunneling tables or packet classifiers".
//! And for soft state: "these keep-alive messages can be directed to a
//! specialized central server in each AS; that server will monitor the
//! health for all tunnels and actively tear down unused ones".
//!
//! [`Rcp`] wraps an [`AsFabric`], centralizes route computation, answers
//! alternate-route queries and installs directed-forwarding state. The
//! soft state — ids, sold paths, heartbeats, the typed teardown history —
//! is the AS's [`TunnelManager`], the table the control plane keeps; the
//! controller adds only where each tunnel is installed.

use crate::intra::AsFabric;
use crate::lpm::Prefix;
use miro_core::tunnel::{TeardownReason, TunnelId, TunnelManager};
use std::collections::HashMap;

/// The peer every table entry is filed under: who buys is the
/// negotiation's business, and one AS that only sells needs no more.
const BUYER: u32 = 0;

/// Controller-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RcpError {
    /// No edge router holds the requested AS path for the prefix.
    NoSuchPath,
    /// Unknown tunnel id.
    UnknownTunnel,
}

/// The per-AS routing control platform.
pub struct Rcp {
    fabric: AsFabric,
    tunnels: TunnelManager,
    /// Tunnel id -> (egress router, exit link) installed for it.
    installed: HashMap<u32, (usize, u32)>,
}

impl Rcp {
    /// Take over a fabric: runs the centralized route computation
    /// immediately (the RCP "computes BGP paths on behalf of the
    /// routers").
    pub fn new(mut fabric: AsFabric) -> Rcp {
        fabric.run_ibgp();
        Rcp { fabric, tunnels: TunnelManager::new(), installed: HashMap::new() }
    }

    /// Read-only access to the managed fabric.
    pub fn fabric(&self) -> &AsFabric {
        &self.fabric
    }

    /// The AS's tunnel table: live tunnels with the paths they were sold
    /// on and their last heartbeats, and why each dead one was torn down.
    pub fn tunnels(&self) -> &TunnelManager {
        &self.tunnels
    }

    /// Where a live tunnel is installed: (egress router, exit link).
    pub fn egress(&self, tunnel_id: u32) -> Option<(usize, u32)> {
        self.installed.get(&tunnel_id).copied()
    }

    /// The MIRO alternate-route query (the RCP "handles the requests from
    /// the customer's routing control platform for alternate routes"):
    /// every valid AS path for the prefix present at any edge router,
    /// regardless of per-router best-path selection.
    pub fn alternates(&self, prefix: Prefix) -> Vec<Vec<u32>> {
        self.fabric.valid_as_paths(prefix)
    }

    /// Grant a tunnel on `as_path` for `prefix`: allocates the id, finds
    /// the edge router owning the path, and installs the directed-
    /// forwarding entry (the RCP "install\[s\] the data-plane state ... in
    /// the routers to direct traffic along the chosen paths"). Who buys
    /// and at what price is the negotiation's business: the table entry
    /// carries neither.
    pub fn grant_tunnel(
        &mut self,
        prefix: Prefix,
        as_path: &[u32],
        now: u64,
    ) -> Result<u32, RcpError> {
        // Locate an edge router holding this exact path.
        let holds = |r: usize| {
            let mut routes = self.fabric.router(r).ebgp.iter();
            let route = routes.find(|e| e.prefix == prefix && e.as_path == as_path)?;
            Some((r, route.exit_link))
        };
        let (egress_router, exit_link) =
            (0..self.fabric.num_routers()).find_map(holds).ok_or(RcpError::NoSuchPath)?;
        let dest = as_path.last().copied().unwrap_or(self.fabric.asn);
        let TunnelId(tunnel_id) = self.tunnels.establish(BUYER, dest, as_path.to_vec(), 0, now);
        self.fabric.router_mut(egress_router).tunnel_table.insert(tunnel_id, exit_link);
        self.installed.insert(tunnel_id, (egress_router, exit_link));
        Ok(tunnel_id)
    }

    /// Record an upstream keepalive for a tunnel (section 4.3's central
    /// health server).
    pub fn keepalive(&mut self, tunnel_id: u32, now: u64) -> Result<(), RcpError> {
        let known = self.tunnels.keepalive(BUYER, TunnelId(tunnel_id), now);
        known.then_some(()).ok_or(RcpError::UnknownTunnel)
    }

    /// Health sweep: tear down (and uninstall from the routers) every
    /// tunnel whose heartbeat is older than `timeout`. Returns reaped ids.
    pub fn health_sweep(&mut self, now: u64, timeout: u64) -> Vec<u32> {
        let dead: Vec<u32> = self.tunnels.expire(now, timeout).into_iter().map(|id| id.0).collect();
        for &id in &dead {
            self.uninstall(id);
        }
        dead
    }

    /// Explicit teardown (active, e.g. on a route change observed by the
    /// controller).
    pub fn teardown(&mut self, tunnel_id: u32) -> Result<(), RcpError> {
        let known =
            self.tunnels.teardown(BUYER, TunnelId(tunnel_id), TeardownReason::PeerRequest);
        self.uninstall(tunnel_id);
        known.then_some(()).ok_or(RcpError::UnknownTunnel)
    }

    /// Remove a dead tunnel's directed-forwarding entry from its router.
    fn uninstall(&mut self, tunnel_id: u32) {
        if let Some((egress_router, _)) = self.installed.remove(&tunnel_id) {
            self.fabric.router_mut(egress_router).tunnel_table.remove(&tunnel_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encap;
    use crate::intra::{figure_4_1, Forwarded};
    use crate::ipv4::{Ipv4Addr4, Ipv4Header};

    fn u_prefix() -> Prefix {
        Prefix::new(Ipv4Addr4::new(60, 0, 0, 0), 8)
    }

    fn rcp() -> Rcp {
        Rcp::new(figure_4_1(u_prefix()))
    }

    #[test]
    fn controller_answers_alternate_queries() {
        let r = rcp();
        let alts = r.alternates(u_prefix());
        assert_eq!(alts.len(), 2);
        assert!(alts.contains(&vec![500, 600]));
        assert!(alts.contains(&vec![700, 600]));
        assert!(r.alternates(Prefix::new(Ipv4Addr4::new(99, 0, 0, 0), 8)).is_empty());
    }

    #[test]
    fn grant_installs_directed_forwarding_end_to_end() {
        let mut r = rcp();
        let tid = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("path exists");
        assert_eq!(r.egress(tid), Some((1, 20)), "VU lives at R2, behind the V link");
        assert_eq!(r.tunnels().get(BUYER, TunnelId(tid)).expect("registered").path, [500, 600]);
        // A packet through the granted tunnel takes the V exit.
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            0,
        )
        .emit_with_payload(b"");
        let endpoint = r.fabric().router(1).addr;
        let wire =
            encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), endpoint, tid).expect("fits");
        match r.fabric().forward(0, wire) {
            Forwarded::TunnelExit { link, .. } => assert_eq!(link, 20),
            other => panic!("expected tunnel exit, got {other:?}"),
        }
    }

    #[test]
    fn grant_refuses_unknown_paths() {
        let mut r = rcp();
        assert_eq!(
            r.grant_tunnel(u_prefix(), &[999, 600], 0),
            Err(RcpError::NoSuchPath)
        );
        assert_eq!(r.tunnels().len(), 0);
    }

    #[test]
    fn health_monitor_reaps_silent_tunnels_and_uninstalls_state() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        let b = r.grant_tunnel(u_prefix(), &[700, 600], 0).expect("ok");
        r.keepalive(a, 50).expect("known");
        let dead = r.health_sweep(60, 30);
        assert_eq!(dead, vec![b], "only the silent tunnel dies");
        assert_eq!(r.tunnels().len(), 1);
        assert_eq!(r.tunnels().torn_down, [(TunnelId(b), TeardownReason::Expired)]);
        assert_eq!((r.egress(a), r.egress(b)), (Some((1, 20)), None));
        // The router state for b is gone: packets on it are dropped.
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            0,
        )
        .emit_with_payload(b"");
        let dead_endpoint = r.fabric().router(1).addr;
        let wire = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), dead_endpoint, b)
            .expect("fits");
        assert_eq!(r.fabric().forward(0, wire), Forwarded::NoRoute);
    }

    #[test]
    fn explicit_teardown_and_unknown_ids() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[700, 600], 0).expect("ok");
        assert_eq!(r.fabric().router(1).tunnel_table.get(&a), Some(&21), "WU first found at R2");
        assert_eq!(r.teardown(a), Ok(()));
        assert!(r.fabric().router(1).tunnel_table.is_empty(), "uninstalled at R2");
        assert_eq!(r.teardown(a), Err(RcpError::UnknownTunnel));
        assert_eq!(r.keepalive(a, 1), Err(RcpError::UnknownTunnel));
    }

    #[test]
    fn tunnel_ids_are_unique_and_monotone() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        let b = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        assert!(b > a, "ids never reused even for the same path");
        assert_eq!(r.tunnels().len(), 2);
    }
}
