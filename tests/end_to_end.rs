//! End-to-end integration: control plane (negotiation) and data plane
//! (encapsulation + intra-AS forwarding) working together across crates,
//! on the paper's running example.

use miro_bgp::solver::RoutingState;
use miro_core::chan::FaultConfig;
use miro_core::negotiate::{Constraint, Message, NegotiationError};
use miro_core::node::{Lease, MiroNetwork};
use miro_core::reliable::{FailReason, ReliableNet};
use miro_core::tunnel::{TeardownReason, TunnelManager};
use miro_dataplane::encap;
use miro_dataplane::intra::{figure_4_1, Forwarded};
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_dataplane::lpm::Prefix;
use miro_topology::gen::{figure_1_1, GenParams};
use miro_topology::NodeId;
use std::collections::HashSet;

/// Negotiate the Figure 3.1 tunnel, then push a packet through the
/// negotiated path using the wire-format encapsulation: the decapsulated
/// bytes at the downstream AS must be the original packet, and the shim
/// must carry the leased tunnel id.
#[test]
fn negotiated_tunnel_carries_real_packets() {
    let (topo, [a, b, c, _d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let mut net = MiroNetwork::new(&topo);
    let tid = net
        .negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250)
        .expect("paper example succeeds");
    let lease = &net.leases()[0];
    assert_eq!(lease.path, vec![c, f], "the negotiated alternate is BCF");

    // Data plane: A encapsulates toward B's endpoint with the leased id.
    let payload = b"probe";
    let inner = Ipv4Header::new(
        Ipv4Addr4::new(10, 0, 0, 1),
        Ipv4Addr4::new(12, 34, 56, 78),
        17,
        payload.len() as u16,
    )
    .emit_with_payload(payload);
    let endpoint = Ipv4Addr4::new(20, 0, 0, 2);
    let wire = encap::encapsulate(&inner, Ipv4Addr4::new(10, 0, 0, 254), endpoint, tid.0)
        .expect("fits");
    let (outer, shim, revealed) = encap::decapsulate(wire).expect("well-formed");
    assert_eq!(outer.dst, endpoint);
    assert_eq!(shim.tunnel_id, tid.0);
    assert_eq!(revealed, inner);
}

/// The Figure 4.1 story joined up: the AS fabric's iBGP produces distinct
/// selections at distinct routers; MIRO sells the non-default path; the
/// tunnel ends at the right edge router; directed forwarding overrides
/// the default exit.
#[test]
fn intra_as_fabric_honors_miro_tunnel() {
    let u_prefix = Prefix::new(Ipv4Addr4::new(60, 0, 0, 0), 8);
    let mut fabric = figure_4_1(u_prefix);
    // The fabric knows both VU and WU even though each router selects one.
    let alternates = fabric.valid_as_paths(u_prefix);
    assert_eq!(alternates.len(), 2);

    // MIRO control plane decision (abstracted): the customer leased the
    // VU path with tunnel id 7; install directed forwarding at R2.
    fabric.router_mut(1).tunnel_table.insert(7, 20);

    let inner = Ipv4Header::new(
        Ipv4Addr4::new(10, 1, 1, 1),
        Ipv4Addr4::new(60, 1, 2, 3),
        6,
        3,
    )
    .emit_with_payload(b"abc");
    let wire = encap::encapsulate(
        &inner,
        Ipv4Addr4::new(10, 1, 1, 254),
        fabric.router(1).addr,
        7,
    )
    .expect("fits");
    match fabric.forward(0, wire) {
        Forwarded::TunnelExit { link, inner: got, endpoint_router } => {
            assert_eq!(link, 20, "directed forwarding picks the V exit link");
            assert_eq!(endpoint_router, 1);
            assert_eq!(got, inner);
        }
        other => panic!("expected tunnel exit, got {other:?}"),
    }

    // Non-tunneled traffic to the same prefix still follows the default.
    let plain = Ipv4Header::new(
        Ipv4Addr4::new(10, 1, 1, 1),
        Ipv4Addr4::new(60, 9, 9, 9),
        6,
        0,
    )
    .emit_with_payload(b"");
    match fabric.forward(0, plain) {
        Forwarded::Exit { link, .. } => assert_eq!(link, 20, "R1 defaults via R2 (IGP)"),
        other => panic!("expected plain exit, got {other:?}"),
    }
}

/// Keepalive lifecycle across the network harness: healthy tunnels
/// survive arbitrary ticking, silent peers expire, and the ledger and
/// per-node tables never disagree.
#[test]
fn tunnel_soft_state_is_consistent() {
    let (topo, [a, b, _c, d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let mut net = MiroNetwork::new(&topo);
    // D is neither adjacent to B nor on a default path through it, so the
    // conservative /e export would refuse it; B sells flexibly here.
    net.config_mut(b).policy = miro_core::export::ExportPolicy::Flexible;
    let t1 = net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).expect("ok");
    let t2 = net.negotiate(&st, d, b, vec![Constraint::AvoidAs(e)], 250).expect("ok");
    assert_ne!(t1, t2);
    for _ in 0..20 {
        net.tick(5, 30);
        for lease in net.leases() {
            assert!(net.tunnels(lease.downstream).get(lease.upstream, lease.id).is_some());
            assert!(net.tunnels(lease.upstream).get(lease.downstream, lease.id).is_some());
        }
    }
    assert_eq!(net.leases().len(), 2);
    // t1's upstream goes silent; only t1 dies.
    net.silence(b, t1, 31, 30);
    assert_eq!(net.leases().len(), 1);
    assert_eq!(net.leases()[0].id, t2);
    assert!(net.tunnels(a).get(b, t1).is_none());
    assert!(net.tunnels(b).get(a, t1).is_none());
}

/// The complete data-plane story across two ASes: the upstream AS is the
/// burst engine — its classifier (section 3.5) pushes the matching flows
/// into the downstream AS's RCP-granted tunnel (sections 4.1-4.3), packet
/// at a time and as a one-frame burst with the same bytes — and the
/// downstream fabric decapsulates and directed-forwards out the
/// negotiated exit link while default traffic keeps the default exit.
#[test]
fn cross_as_walk_classifier_tunnel_rcp() {
    use miro_dataplane::burst::{lpm_from, BurstScratch, Engine, OneVerdict, TunnelSpec, Verdict};
    use miro_dataplane::classifier::{Action, Classifier, Match};
    use miro_dataplane::rcp::Rcp;

    // Downstream AS X: the Figure 4.1 fabric under an RCP controller.
    let u_prefix = miro_dataplane::lpm::Prefix::new(Ipv4Addr4::new(60, 0, 0, 0), 8);
    let mut rcp = Rcp::new(figure_4_1(u_prefix));
    // The MIRO negotiation concluded on the VU path; the controller
    // grants the tunnel and installs directed forwarding.
    let tid = rcp.grant_tunnel(u_prefix, &[500, 600], 0).expect("VU is sellable");
    let endpoint = rcp.fabric().router(rcp.egress(tid).expect("live").0).addr;

    // Upstream AS Y: voice traffic takes the tunnel, the rest defaults;
    // both leave on Y's one link to X.
    const TO_X: u32 = 1;
    let ingress = Ipv4Addr4::new(10, 9, 9, 254);
    let upstream = Engine::new(
        ingress,
        lpm_from(&[(u_prefix, TO_X), (Prefix::new(endpoint, 32), TO_X)]),
        Classifier::new(vec![(Match { tos: Some(0xb8), ..Default::default() }, Action::Tunnel(tid))]),
        vec![TunnelSpec { id: tid, ingress, endpoint }],
        vec![],
    );

    let send = |tos: u8, rcp: &Rcp| {
        let mut hdr = Ipv4Header::new(
            Ipv4Addr4::new(10, 9, 9, 9),
            Ipv4Addr4::new(60, 1, 2, 3),
            17,
            5,
        );
        hdr.dscp_ecn = tos;
        let inner = hdr.emit_with_payload(b"voice");
        let wire = match upstream.forward_one(&inner) {
            OneVerdict::Encap { tunnel, next_hop: TO_X, packet } if tunnel == tid && tos == 0xb8 => packet,
            OneVerdict::Forward { next_hop: TO_X, packet } if tos != 0xb8 => packet,
            other => panic!("tos {tos:#x} left Y as {other:?}"),
        };
        let mut burst = BurstScratch::new();
        upstream.forward_burst(&[&inner[..]], &mut burst);
        match burst.verdicts()[0] {
            Verdict::Encap { out, .. } | Verdict::Forward { out, .. } => {
                assert_eq!(burst.out_bytes(out), &wire[..], "burst and packet-at-a-time agree")
            }
            other => panic!("tos {tos:#x} left Y's burst path as {other:?}"),
        }
        rcp.fabric().forward(0, wire)
    };

    // Voice flow: through the tunnel, out the V link (20).
    match send(0xb8, &rcp) {
        miro_dataplane::intra::Forwarded::TunnelExit { link, inner, .. } => {
            assert_eq!(link, 20, "negotiated exit");
            let (h, payload) = Ipv4Header::parse(inner).expect("intact");
            assert_eq!(h.dscp_ecn, 0xb8);
            assert_eq!(&payload[..], b"voice");
        }
        other => panic!("voice must take the tunnel: {other:?}"),
    }
    // Best-effort flow: destination-based forwarding on the default exit.
    match send(0, &rcp) {
        miro_dataplane::intra::Forwarded::Exit { link, .. } => {
            assert_eq!(link, 20, "R1 defaults via R2 (IGP tie-break)")
        }
        other => panic!("default traffic exits normally: {other:?}"),
    }

    // The controller's health monitor reaps the tunnel when keepalives
    // stop; tunneled packets then go nowhere while default traffic is
    // unaffected — the soft-state guarantee of section 4.3, at packet
    // granularity.
    rcp.health_sweep(100, 30);
    match send(0xb8, &rcp) {
        miro_dataplane::intra::Forwarded::NoRoute => {}
        other => panic!("expired tunnel must drop: {other:?}"),
    }
    match send(0, &rcp) {
        miro_dataplane::intra::Forwarded::Exit { .. } => {}
        other => panic!("default path unaffected by tunnel expiry: {other:?}"),
    }
}

/// Re-encode a transcript through the MIRO control codec and parse it back
/// — the byte stream a TCP deployment would see. Returns the message count.
fn wire_round_trip(log: &[(NodeId, NodeId, Message)]) -> usize {
    let mut stream = Vec::new();
    for (_, _, msg) in log {
        stream.extend(miro_core::wire::emit(msg).expect("every message encodes"));
    }
    let mut at = 0;
    let mut decoded = Vec::new();
    while at < stream.len() {
        let (msg, used) = miro_core::wire::parse(&stream[at..]).expect("parses");
        decoded.push(msg);
        at += used;
    }
    let originals: Vec<_> = log.iter().map(|(_, _, m)| m.clone()).collect();
    assert_eq!(decoded, originals);
    decoded.len()
}

/// Wire-format interop: a negotiation transcript captured from the
/// in-process harness round-trips through the control codec.
#[test]
fn negotiation_transcript_round_trips_on_the_wire() {
    let (topo, [a, b, _c, _d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let mut net = MiroNetwork::new(&topo);
    net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).expect("ok");
    net.tick(10, 30);
    let n = wire_round_trip(&net.log);
    assert!(n >= 5, "request, offers, accept, established, keepalive");
}

/// The reliable driver over a lossy transport: 30% of control messages
/// are dropped, yet the retransmit machinery still lands the tunnel (or
/// fails cleanly when the retries run out) — and the transcript, now with
/// `Ack`s, retransmissions, `Teardown`s and keepalives in it, is what the
/// wire codec carries.
#[test]
fn reliable_negotiation_survives_message_loss() {
    let (topo, [a, b, _c, _d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let fault = FaultConfig { drop_permille: 300, ..FaultConfig::PERFECT };
    let (mut successes, mut both_live, mut attempts) = (0, 0, 0);
    let (mut resent, mut kinds) = (0, [false; 3]);
    for seed in 0..20u64 {
        let mut net = ReliableNet::new(&topo, fault, seed);
        let id = net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).expect("distinct ASes");
        attempts += 1;
        while net.outcomes().is_empty() && net.clock < 2_000 {
            net.tick(&st);
        }
        let outcome = net.outcomes().first().expect("the requester reaches a typed outcome");
        assert_eq!(outcome.id, id);
        resent += outcome.retransmits;
        match outcome.result {
            // The tick the requester adopts, both tables agree on the id —
            // unless `Established` took so many resends to arrive that the
            // responder's unrefreshed soft state expired first (§4.3).
            Ok(tid) => {
                successes += 1;
                assert!(net.tunnels(a).get(b, tid).is_some(), "seed {seed}");
                let at_b = net.tunnels(b);
                let reaped = at_b.torn_down.contains(&(tid, TeardownReason::Expired));
                assert!(at_b.get(a, tid).is_some() || reaped, "seed {seed}");
                both_live += usize::from(!reaped);
            }
            // Clean, typed failure with the fallback on record: acceptable.
            Err(reason) => assert_eq!(net.fallbacks()[0].reason, reason, "seed {seed}"),
        }
        assert!(net.run_until_settled(&st, 2_000) < 2_000, "seed {seed}: the responder settles too");
        assert_eq!(net.double_establish_count(), 0, "seed {seed}");
        // Let the soft state live (and, after failures, die) a little so
        // the transcript holds every message kind, then put it on the wire.
        for _ in 0..60 {
            net.tick(&st);
        }
        for (_, _, m) in &net.log {
            kinds[0] |= matches!(m, Message::Ack { .. });
            kinds[1] |= matches!(m, Message::Keepalive { .. });
            kinds[2] |= matches!(m, Message::Teardown { .. });
        }
        assert!(wire_round_trip(&net.log) >= 5, "seed {seed}");
    }
    // With 5 retransmissions per stage against 30% loss, nearly all land,
    // and land on both sides at once.
    assert!(
        both_live * 10 >= attempts * 8,
        "only {both_live}/{attempts} negotiations ({successes} one-sided included) survived 30% loss"
    );
    assert!(resent > 0, "the retransmit timers did real work");
    assert_eq!(kinds, [true; 3], "Ack, Keepalive and Teardown all crossed the codec");
}

/// One handshake, two drivers: on a perfect channel `ReliableNet` lands
/// exactly what the synchronous reference lands — same tunnel id, path and
/// price, same refusals — pair after pair on a generated topology, with
/// both ledgers filling up in step.
#[test]
fn reliable_net_on_a_perfect_channel_equals_the_synchronous_reference() {
    let topo = GenParams::tiny(20060911).generate();
    let dest = (0..topo.num_nodes() as NodeId).max_by_key(|&n| topo.neighbors(n).len()).unwrap();
    let st = RoutingState::solve(&topo, dest);
    let mut sync_net = MiroNetwork::new(&topo);
    let mut net = ReliableNet::new(&topo, FaultConfig::PERFECT, 1);
    // Ask the first on-path AS to route around the hop after it. An AS
    // plays one role only: tunnel ids are scoped to the downstream AS, so
    // a table that both allocates and adopts could see one id twice.
    let (mut requesters, mut responders) = (HashSet::new(), HashSet::new());
    let (mut landed, mut refused) = (0, 0);
    for req in 0..topo.num_nodes() as NodeId {
        let Some(path) = st.path(req) else { continue };
        let [_, resp, avoid, ..] = path[..] else { continue };
        if responders.contains(&req) || requesters.contains(&resp) {
            continue;
        }
        requesters.insert(req);
        responders.insert(resp);
        let constraints = vec![Constraint::AvoidAs(avoid)];
        let want = sync_net.negotiate(&st, req, resp, constraints.clone(), 250);
        net.start(&st, req, resp, constraints, 250).expect("distinct, known ASes");
        assert!(net.run_until_settled(&st, 50) <= 6, "{req} -> {resp}");
        let got = net.outcomes().last().expect("settled").result;
        match (want, got) {
            (Ok(tid), Ok(got_tid)) => {
                landed += 1;
                assert_eq!(got_tid, tid, "{req} -> {resp}: same downstream allocation");
                let held = |t: &TunnelManager, peer| {
                    t.get(peer, tid).map(|t| (t.dest, t.path.clone(), t.price))
                };
                assert!(held(net.tunnels(req), resp).is_some(), "{req} -> {resp}");
                assert_eq!(held(net.tunnels(req), resp), held(sync_net.tunnels(req), resp), "{req} -> {resp}");
                assert_eq!(held(net.tunnels(resp), req), held(sync_net.tunnels(resp), req), "{req} -> {resp}");
            }
            (Err(NegotiationError::Rejected(r)), Err(FailReason::Rejected(got_r))) => {
                refused += 1;
                assert_eq!(got_r, r, "{req} -> {resp}");
            }
            (Err(NegotiationError::NoneAcceptable), Err(FailReason::NoneAcceptable)) => refused += 1,
            other => panic!("{req} -> {resp}: drivers disagree: {other:?}"),
        }
    }
    assert!(landed >= 5 && refused >= 1, "{landed} landed, {refused} refused");
    let sold = |l: &Lease| (l.id, l.downstream, l.upstream, l.path.clone(), l.price);
    assert_eq!(
        net.leases().iter().map(sold).collect::<Vec<_>>(),
        sync_net.leases().iter().map(sold).collect::<Vec<_>>()
    );
    assert_eq!((net.double_establish_count(), net.orphan_count()), (0, 0));
}
