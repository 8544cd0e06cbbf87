//! What the design ablations EXPERIMENTS.md quotes cost, one row each:
//! the two route engines per destination, the three tunnel endpoint
//! schemes per packet, the three negotiation targeting strategies per
//! search, and the two wire codecs per message plus a three-speaker
//! wire-level convergence. Every cell is the mean of a plain `Instant`
//! loop (0.3 s warm-up, then whole batches for at least 1 s).
//!
//! ```sh
//! cargo run --release --example ablation_costs
//! ```

use miro_bgp::sim::{GaoRexford, Sim};
use miro_bgp::solver::RoutingState;
use miro_bgp::speaker::{pump, PeerConfig, Speaker};
use miro_bgp::wire::{BgpMessage, PathAttributes, WirePrefix};
use miro_core::export::ResponderConfig;
use miro_core::negotiate::{Constraint, Message, NegotiationId};
use miro_core::strategy::{avoid_via_negotiation, TargetStrategy};
use miro_dataplane::encap::{decapsulate, encapsulate, EndpointScheme};
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_topology::GenParams;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean wall time of one call of `f`.
fn time<T>(mut f: impl FnMut() -> T) -> Duration {
    let (warm_up, mut batch) = (Instant::now(), 0u32);
    while warm_up.elapsed() < Duration::from_millis(300) {
        black_box(f());
        batch += 1;
    }
    let (start, mut calls) = (Instant::now(), 0u32);
    loop {
        for _ in 0..batch {
            black_box(f());
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_secs(1) {
            return elapsed / calls;
        }
    }
}

fn row(label: &str, per: &str, cells: &[(&str, Duration)]) {
    let cells: Vec<String> = cells.iter().map(|(name, d)| format!("{name} {d:.1?}")).collect();
    println!("{label:<24} {} {per}", cells.join(", "));
}

fn main() {
    let topo = GenParams {
        name: "ablation".into(),
        num_nodes: 400,
        target_pc_links: 720,
        target_peer_links: 60,
        target_sibling_links: 10,
        lowtier_peering: false,
        seed: 5,
    }
    .generate();
    let dest = topo.nodes().next().expect("non-empty");

    // Same topology, same destination, same answer (tests/pipeline.rs
    // asserts it) — very different costs.
    row("route engines", "per destination on 400 ASes", &[
        ("closed-form solver", time(|| RoutingState::solve(black_box(&topo), dest))),
        ("event simulator", time(|| Sim::new(black_box(&topo), GaoRexford, dest).run(1, 10_000_000))),
    ]);

    // Resolve the endpoint, encapsulate, ingress-rewrite, decapsulate.
    let inner = Ipv4Header::new(Ipv4Addr4::new(10, 0, 0, 1), Ipv4Addr4::new(12, 34, 56, 78), 6, 64)
        .emit_with_payload(&[0u8; 64]);
    let tunnel_packet = |scheme: &EndpointScheme| {
        let ep = scheme.advertised_endpoint(7, 1).expect("endpoint known");
        let wire = encapsulate(black_box(&inner), Ipv4Addr4::new(9, 9, 9, 9), ep, 7).expect("fits");
        black_box(scheme.ingress_rewrite(ep, 7).expect("resolvable"));
        decapsulate(wire).expect("valid")
    };
    let per_link = EndpointScheme::PerExitLink {
        links: (0..8).map(|i| (i, Ipv4Addr4::new(12, 34, 56, 100 + i as u8))).collect(),
    };
    let per_router = EndpointScheme::PerEgressRouter {
        routers: (0..4).map(|i| (i, Ipv4Addr4::new(12, 34, 56, 2 + i as u8))).collect(),
    };
    let single = EndpointScheme::SingleAddress {
        address: Ipv4Addr4::new(12, 34, 56, 100),
        egress_map: (0..32)
            .map(|t| (t, vec![Ipv4Addr4::new(12, 34, 56, 2), Ipv4Addr4::new(12, 34, 56, 3)]))
            .collect(),
    };
    row("tunnel endpoint schemes", "per packet", &[
        ("per-exit-link", time(|| tunnel_packet(&per_link))),
        ("per-egress-router", time(|| tunnel_packet(&per_router))),
        ("single-reserved-address", time(|| tunnel_packet(&single))),
    ]);

    // A source with a long default path makes the contrast visible.
    let st = RoutingState::solve(&topo, dest);
    let src = topo.nodes().filter(|&x| st.path(x).map_or(0, |p| p.len()) >= 3).last().expect("long path exists");
    let avoid = st.path(src).expect("routed")[1];
    let cfg = ResponderConfig::default();
    let search = |strategy| time(|| avoid_via_negotiation(black_box(&st), src, avoid, &cfg, strategy, None));
    row("targeting strategies", "per avoid-AS search", &[
        ("on-path", search(TargetStrategy::OnPath)),
        ("1-hop", search(TargetStrategy::OneHop)),
        ("combined", search(TargetStrategy::OnPathThenNeighbors)),
    ]);

    let update = BgpMessage::Update {
        withdrawn: vec![WirePrefix::new(0x0a000000, 8)],
        attrs: PathAttributes {
            origin: Some(0),
            as_path: vec![6509, 11537, 10466, 88],
            next_hop: Some(0x01020304),
            med: Some(10),
            local_pref: Some(250),
        },
        nlri: vec![WirePrefix::new(0x80700000, 16), WirePrefix::new(0x80710b00, 24)],
    };
    let update_bytes = update.emit().expect("encodes");
    let request = Message::Request {
        id: NegotiationId(42),
        dest: 7,
        constraints: vec![Constraint::AvoidAs(312), Constraint::MaxPrice(250)],
    };
    let request_bytes = miro_core::wire::emit(&request).expect("encodes");
    // Session bring-up, 16 prefixes originated at one end of a
    // three-AS line, UPDATEs pumped until every speaker is quiet.
    let line3 = || {
        let mut sp = vec![Speaker::new(65001, 1), Speaker::new(65002, 2), Speaker::new(65003, 3)];
        let p12 = sp[0].add_peer(PeerConfig::ebgp(65002, 80, false));
        let p21 = sp[1].add_peer(PeerConfig::ebgp(65001, 450, true));
        let p23 = sp[1].add_peer(PeerConfig::ebgp(65003, 450, true));
        let p32 = sp[2].add_peer(PeerConfig::ebgp(65002, 80, false));
        for i in 0..16u32 {
            sp[2].originate(WirePrefix::new(0x0a000000 + (i << 16), 16));
        }
        sp.iter_mut().for_each(Speaker::start);
        pump(&mut sp, &[(0, p12, 1, p21), (1, p23, 2, p32)]);
        sp[0].best_path(WirePrefix::new(0x0a000000, 16))
    };
    row("wire codecs", "per message / per run", &[
        ("UPDATE emit", time(|| update.emit().expect("ok"))),
        ("UPDATE parse", time(|| BgpMessage::parse(black_box(&update_bytes)).expect("ok"))),
        ("MIRO request emit", time(|| miro_core::wire::emit(black_box(&request)).expect("ok"))),
        ("MIRO request parse", time(|| miro_core::wire::parse(black_box(&request_bytes)).expect("ok"))),
        ("3-speaker convergence", time(line3)),
    ]);
}
