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
//! alternate-route queries, installs directed-forwarding state, and runs
//! the tunnel-health monitor on a virtual clock.

use crate::intra::AsFabric;
use crate::lpm::Prefix;
use std::collections::HashMap;

/// A tunnel registered with the controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RcpTunnel {
    pub tunnel_id: u32,
    /// The AS path sold.
    pub as_path: Vec<u32>,
    /// Egress router index and exit link installed for it.
    pub egress_router: usize,
    pub exit_link: u32,
    /// Last heartbeat (virtual time).
    pub last_heartbeat: u64,
}

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
    tunnels: HashMap<u32, RcpTunnel>,
    next_id: u32,
    /// Tunnels reaped by the health monitor (id, expiry time).
    pub reaped: Vec<(u32, u64)>,
}

impl Rcp {
    /// Take over a fabric: runs the centralized route computation
    /// immediately (the RCP "computes BGP paths on behalf of the
    /// routers").
    pub fn new(mut fabric: AsFabric) -> Rcp {
        fabric.run_ibgp();
        Rcp { fabric, tunnels: HashMap::new(), next_id: 1, reaped: Vec::new() }
    }

    /// Read-only access to the managed fabric.
    pub fn fabric(&self) -> &AsFabric {
        &self.fabric
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
    /// the routers to direct traffic along the chosen paths").
    pub fn grant_tunnel(
        &mut self,
        prefix: Prefix,
        as_path: &[u32],
        now: u64,
    ) -> Result<u32, RcpError> {
        // Locate an edge router holding this exact path.
        let mut found: Option<(usize, u32)> = None;
        for r in 0..self.fabric.num_routers() {
            if let Some(e) = self
                .fabric
                .router(r)
                .ebgp
                .iter()
                .find(|e| e.prefix == prefix && e.as_path == as_path)
            {
                found = Some((r, e.exit_link));
                break;
            }
        }
        let (egress_router, exit_link) = found.ok_or(RcpError::NoSuchPath)?;
        let tunnel_id = self.next_id;
        self.next_id += 1;
        self.fabric
            .router_mut(egress_router)
            .tunnel_table
            .insert(tunnel_id, exit_link);
        self.tunnels.insert(
            tunnel_id,
            RcpTunnel {
                tunnel_id,
                as_path: as_path.to_vec(),
                egress_router,
                exit_link,
                last_heartbeat: now,
            },
        );
        Ok(tunnel_id)
    }

    /// Record an upstream keepalive for a tunnel (section 4.3's central
    /// health server).
    pub fn keepalive(&mut self, tunnel_id: u32, now: u64) -> Result<(), RcpError> {
        let t = self.tunnels.get_mut(&tunnel_id).ok_or(RcpError::UnknownTunnel)?;
        t.last_heartbeat = now;
        Ok(())
    }

    /// Health sweep: tear down (and uninstall from the routers) every
    /// tunnel whose heartbeat is older than `timeout`. Returns reaped ids.
    pub fn health_sweep(&mut self, now: u64, timeout: u64) -> Vec<u32> {
        let dead: Vec<u32> = self
            .tunnels
            .values()
            .filter(|t| now.saturating_sub(t.last_heartbeat) > timeout)
            .map(|t| t.tunnel_id)
            .collect();
        let mut dead = dead;
        dead.sort_unstable();
        for &id in &dead {
            let t = self.tunnels.remove(&id).expect("present");
            self.fabric.router_mut(t.egress_router).tunnel_table.remove(&id);
            self.reaped.push((id, now));
        }
        dead
    }

    /// Explicit teardown (active, e.g. on a route change observed by the
    /// controller).
    pub fn teardown(&mut self, tunnel_id: u32) -> Result<(), RcpError> {
        let t = self.tunnels.remove(&tunnel_id).ok_or(RcpError::UnknownTunnel)?;
        self.fabric.router_mut(t.egress_router).tunnel_table.remove(&tunnel_id);
        Ok(())
    }

    /// A registered tunnel.
    pub fn tunnel(&self, id: u32) -> Option<&RcpTunnel> {
        self.tunnels.get(&id)
    }

    /// Live tunnel count.
    pub fn live_tunnels(&self) -> usize {
        self.tunnels.len()
    }

    /// Packet entry point: forwarding is delegated to the fabric, whose
    /// tables this controller manages.
    pub fn forward(&self, ingress: usize, packet: bytes::Bytes) -> crate::intra::Forwarded {
        self.fabric.forward(ingress, packet)
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
        let t = r.tunnel(tid).expect("registered");
        assert_eq!(t.egress_router, 1, "VU lives at R2");
        assert_eq!(t.exit_link, 20);
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
        match r.forward(0, wire) {
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
        assert_eq!(r.live_tunnels(), 0);
    }

    #[test]
    fn health_monitor_reaps_silent_tunnels_and_uninstalls_state() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        let b = r.grant_tunnel(u_prefix(), &[700, 600], 0).expect("ok");
        r.keepalive(a, 50).expect("known");
        let dead = r.health_sweep(60, 30);
        assert_eq!(dead, vec![b], "only the silent tunnel dies");
        assert_eq!(r.live_tunnels(), 1);
        assert_eq!(r.reaped, vec![(b, 60)]);
        // The router state for b is gone: packets on it are dropped.
        let inner = Ipv4Header::new(
            Ipv4Addr4::new(9, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            6,
            0,
        )
        .emit_with_payload(b"");
        let egress = r.tunnel(a).expect("alive").egress_router;
        let _ = egress;
        let dead_endpoint = r.fabric().router(1).addr;
        let wire = encap::encapsulate(&inner, Ipv4Addr4::new(8, 8, 8, 8), dead_endpoint, b)
            .expect("fits");
        assert_eq!(r.forward(0, wire), Forwarded::NoRoute);
    }

    #[test]
    fn explicit_teardown_and_unknown_ids() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[700, 600], 0).expect("ok");
        assert_eq!(r.teardown(a), Ok(()));
        assert_eq!(r.teardown(a), Err(RcpError::UnknownTunnel));
        assert_eq!(r.keepalive(a, 1), Err(RcpError::UnknownTunnel));
    }

    #[test]
    fn tunnel_ids_are_unique_and_monotone() {
        let mut r = rcp();
        let a = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        let b = r.grant_tunnel(u_prefix(), &[500, 600], 0).expect("ok");
        assert!(b > a, "ids never reused even for the same path");
        assert_eq!(r.live_tunnels(), 2);
    }
}
