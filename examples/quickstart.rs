//! Quickstart: the paper's running example (Figures 1.1, 2.1, 3.1) end to
//! end — BGP default routes, a MIRO negotiation, and a packet actually
//! forwarded through the negotiated tunnel.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use miro_bgp::solver::RoutingState;
use miro_core::negotiate::{Constraint, Message};
use miro_core::node::MiroNetwork;
use miro_dataplane::encap;
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_topology::gen::figure_1_1;
use miro_topology::RouteClass;
use std::fmt::Write as _;

fn main() {
    let mut out = String::new();
    run(&mut out);
    print!("{out}");
}

/// The walkthrough; its text is pinned in `data/golden/quickstart.txt`.
pub fn run(out: &mut String) {
    // ---- The AS-level topology of Figure 1.1 -------------------------
    let (topo, [a, b, c, d, e, f]) = figure_1_1();
    let name = |n| match n {
        x if x == a => "A",
        x if x == b => "B",
        x if x == c => "C",
        x if x == d => "D",
        x if x == e => "E",
        _ => "F",
    };
    let show_path = |p: &[u32]| -> String {
        p.iter().map(|&h| name(h)).collect::<Vec<_>>().join(" ")
    };

    out.push_str("== 1. BGP default routes toward F (the Figure 2.1 walkthrough) ==\n\n");
    let st = RoutingState::solve(&topo, f);
    let _ = writeln!(out, "{:<4} {:<12} {:<10} all candidates (BGP rib-in)", "AS", "best path", "class");
    for x in [a, b, c, d, e] {
        let best = st.path(x).expect("connected");
        let class = st.best(x).expect("routed").class;
        let cands: Vec<String> = st
            .candidates(x)
            .iter()
            .map(|r| format!("{}{}", show_path(&r.path), if r.path == best { "*" } else { "" }))
            .collect();
        let _ = writeln!(
            out,
            "{:<4} {:<12} {:<10} {}",
            name(x),
            show_path(&best),
            format!("{class:?}"),
            cands.join(", ")
        );
    }
    out.push_str("\nA's default is A->B->E->F; BOTH its candidates traverse E.\n");
    out.push_str("B knows the alternate B->C->F but BGP never told A (section 1.1).\n\n");

    // ---- The MIRO negotiation of Figure 3.1 --------------------------
    out.push_str("== 2. A negotiates with B: \"alternates to F, avoiding E\" ==\n\n");
    let mut net = MiroNetwork::new(&topo);
    let tid = net
        .negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250)
        .expect("the paper's example succeeds");
    for (from, to, msg) in &net.log {
        let text = match msg {
            Message::Request { dest, constraints, .. } => format!(
                "Request(dest={}, constraints={})",
                name(*dest),
                constraints.len()
            ),
            Message::Offers { offers, .. } => format!(
                "Offers([{}])",
                offers
                    .iter()
                    .map(|o| format!("{} @ price {}", show_path(&o.route.path), o.price))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Message::Accept { choice, .. } => format!("Accept(choice #{choice})"),
            Message::Established { tunnel, .. } => format!("Established(tunnel id {})", tunnel.0),
            other => format!("{other:?}"),
        };
        let _ = writeln!(out, "  {} -> {}: {}", name(*from), name(*to), text);
    }
    let lease = &net.leases()[0];
    let _ = writeln!(
        out,
        "\nTunnel {} live: {} buys {} from {} (price {}).\n",
        tid.0,
        name(lease.upstream),
        show_path(&lease.path),
        name(lease.downstream),
        lease.price
    );

    // ---- The data plane of section 4.2 --------------------------------
    out.push_str("== 3. A data packet takes the tunnel ==\n\n");
    let payload = b"hello F";
    let inner = Ipv4Header::new(
        Ipv4Addr4::new(10, 0, 0, 1),            // a host in A
        Ipv4Addr4::new(12, 34, 56, 78),         // a host in F
        6,
        payload.len() as u16,
    )
    .emit_with_payload(payload);
    let endpoint = Ipv4Addr4::new(20, 0, 0, 2); // B's tunnel endpoint
    let wire = encap::encapsulate(&inner, Ipv4Addr4::new(10, 0, 0, 254), endpoint, tid.0)
        .expect("fits");
    let _ = writeln!(
        out,
        "  A encapsulates: outer dst {endpoint}, MIRO shim tunnel id {}, {} bytes on the wire",
        tid.0,
        wire.len()
    );
    let (outer, shim, revealed) = encap::decapsulate(wire).expect("valid");
    assert_eq!(revealed, inner);
    let _ = writeln!(
        out,
        "  B decapsulates at {} (tunnel {}), forwards the original packet via C to F.",
        outer.dst, shim.tunnel_id
    );
    let _ = writeln!(out, "  Inner packet intact: {} bytes, proto {}.\n", revealed.len(), {
        let (h, _) = Ipv4Header::parse(revealed.clone()).expect("parses");
        h.protocol
    });

    // ---- Lifecycle ----------------------------------------------------
    out.push_str("== 4. Soft state: keepalives, then a route change ==\n\n");
    net.tick(10, 30);
    let _ = writeln!(out, "  t={}: keepalive exchanged, {} tunnel(s) live.", net.clock, net.leases().len());
    // E-F fails; B loses BCF? No - C-F fails: B's alternate disappears.
    out.push_str("  ... later the C-F link fails; BGP reconverges; B can no longer honor the path.\n");
    let st2 = RoutingState::solve_without_link(&topo, f, c, f);
    net.routes_changed(&st2);
    let _ = writeln!(out, "  teardown delivered; {} tunnel(s) remain.", net.leases().len());
    assert!(net.leases().is_empty());

    let _ = writeln!(out, "\nDone. Classes seen above: {:?} > {:?} > {:?} (Guideline A preference).",
        RouteClass::Customer, RouteClass::Peer, RouteClass::Provider);
    let _ = d;
}
