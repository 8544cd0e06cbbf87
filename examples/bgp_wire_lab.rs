//! The BGP substrate at wire level: three speakers handshake with real
//! OPEN/KEEPALIVE messages, exchange real UPDATEs (hexdumped), converge,
//! and render their tables in the Table 1.1 format — then a session drops
//! and the withdraw propagates.
//!
//! ```sh
//! cargo run --example bgp_wire_lab
//! ```

use miro_bgp::speaker::{pump, PeerConfig, Speaker};
use miro_bgp::wire::{BgpMessage, WirePrefix};
use std::fmt::Write as _;

fn hexdump(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .chunks(16)
        .map(|c| c.join(" "))
        .collect::<Vec<_>>()
        .join("\n    ")
}

fn main() {
    let mut out = String::new();
    run(&mut out);
    print!("{out}");
}

/// The lab; its text is pinned in `data/golden/bgp_wire_lab.txt`.
pub fn run(out: &mut String) {
    out.push_str("== 1. The messages themselves ==\n\n");
    let open = BgpMessage::open(65001, 90, 0x0a000001);
    out.push_str("OPEN (AS 65001, hold 90):\n");
    let _ = writeln!(out, "    {}\n", hexdump(&open.emit().expect("encodes")));
    let update = BgpMessage::Update {
        withdrawn: vec![],
        attrs: miro_bgp::wire::PathAttributes {
            origin: Some(0),
            as_path: vec![6509, 11537, 10466, 88], // the Table 1.1 path
            next_hop: Some(0xcdbd202c),
            med: None,
            local_pref: None,
        },
        nlri: vec![WirePrefix::new(0x80700000, 16)], // 128.112.0.0/16
    };
    out.push_str("UPDATE (128.112.0.0/16 via 6509 11537 10466 88):\n");
    let _ = writeln!(out, "    {}\n", hexdump(&update.emit().expect("encodes")));

    out.push_str("== 2. Three speakers converge over the wire ==\n\n");
    // 65003 originates; 65002 provides transit; 65001 is a customer edge.
    let mut s1 = Speaker::new(65001, 1);
    let mut s2 = Speaker::new(65002, 2);
    let mut s3 = Speaker::new(65003, 3);
    let p12 = s1.add_peer(PeerConfig::ebgp(65002, 80, false));
    let p21 = s2.add_peer(PeerConfig::ebgp(65001, 450, true));
    let p23 = s2.add_peer(PeerConfig::ebgp(65003, 450, true));
    let p32 = s3.add_peer(PeerConfig::ebgp(65002, 80, false));
    let prefix = WirePrefix::new(0x0a030000, 16);
    s3.originate(prefix);
    for s in [&mut s1, &mut s2, &mut s3] {
        s.start();
    }
    let mut sp = vec![s1, s2, s3];
    let links = vec![(0usize, p12, 1usize, p21), (1, p23, 2, p32)];
    pump(&mut sp, &links);
    for s in sp.iter() {
        let _ = writeln!(
            out,
            "  AS{}: best path to 10.3.0.0/16 = {:?} (session {:?})",
            s.asn,
            s.best_path(prefix),
            s.session_state(0)
        );
    }

    out.push_str("\n== 3. The solver view, rendered like Table 1.1 ==\n\n");
    let (t, [a, _b, _c, _d, _e, f]) = miro_topology::gen::figure_1_1();
    let st = miro_bgp::solver::RoutingState::solve(&t, f);
    out.push_str(&miro_bgp::show::format_table(&miro_bgp::show::show_ip_bgp(&st, a)));

    out.push_str("\n== 4. Session failure: the withdraw ripples out ==\n\n");
    // Cut 65002 <-> 65003: after reconvergence nobody has the route.
    // (Modeled by discarding that link from the pump set and notifying
    // the session layer.)
    use miro_bgp::session::Event;
    // Reach into the test-visible API: drive the event via input of a
    // NOTIFICATION, which also resets the session.
    let notification = BgpMessage::Notification { code: 6, subcode: 0, data: vec![] }
        .emit()
        .expect("encodes");
    sp[1].input(p23, &notification);
    let _ = Event::TransportDown; // (the in-process equivalent)
    pump(&mut sp, &links[..1]);
    let _ = writeln!(
        out,
        "  after cutting AS65002-AS65003: AS65001 best = {:?}, AS65002 best = {:?}",
        sp[0].best_path(prefix),
        sp[1].best_path(prefix)
    );
    assert_eq!(sp[0].best_path(prefix), None);
    out.push_str("\nEvery byte above went through the RFC 4271 codecs.\n");
}
