//! A connection flood against the daemon's cap. Alone in its file: it
//! reads the process's thread count, which a neighbouring test's threads
//! would disturb.
#![cfg(target_os = "linux")]

use miro_serve::query::Engine;
use miro_serve::server::Server;
use miro_serve::wire::{read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION};
use miro_shard::format::RouteTableSet;
use miro_topology::gen::GenParams;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Connect and say hello; the daemon's first word back.
fn hello(addr: SocketAddr) -> (TcpStream, WireMsg) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_msg(&mut &stream, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
    let first = read_msg(&mut &stream).unwrap();
    (stream, first)
}

fn busy(msg: &WireMsg) -> bool {
    matches!(msg, WireMsg::RErr { id: 0, msg } if msg == "busy")
}

/// Connections are served up to the cap and the next one reads `busy`;
/// closing one frees its place; and when the flood hangs up the daemon
/// is back to the threads it started with.
#[test]
fn flood_is_shed_at_the_cap_and_leaves_no_threads_behind() {
    let topo = GenParams::tiny(31).generate();
    let table = RouteTableSet::from_solves(&topo, &[0, 1, 2], 1);
    let topo_asn = topo.asn(0).0;
    let server = Server::bind("127.0.0.1:0", Engine::new(table, topo, None).unwrap()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());
    let baseline = threads();

    let mut held = Vec::new();
    let cap = loop {
        let (stream, first) = hello(addr);
        if busy(&first) {
            break held.len();
        }
        assert!(matches!(first, WireMsg::Welcome { .. }), "{first:?}");
        held.push(stream);
        assert!(held.len() <= 4096, "no cap in sight");
    };
    assert!(cap >= 65, "a cap of {cap} is below what bench-query opens");
    assert_eq!(threads(), baseline + cap, "one thread per live connection, none for the refused");

    // One hangs up: its place is free as soon as its thread has ended.
    held.pop();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut shed = 1;
    let served = loop {
        let (stream, first) = hello(addr);
        if !busy(&first) {
            break stream;
        }
        shed += 1;
        assert!(Instant::now() < deadline, "the freed place was never given out");
        std::thread::sleep(Duration::from_millis(5));
    };
    write_msg(&mut &served, &WireMsg::Path { id: 9, src: topo_asn, dest: topo_asn }).unwrap();
    assert_eq!(read_msg(&mut &served).unwrap(), WireMsg::RPath { id: 9, path: vec![topo_asn] });

    // The flood hangs up: every connection thread ends.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != baseline + 1 {
        assert!(Instant::now() < deadline, "{} threads over baseline after the flood", threads() - baseline);
        std::thread::sleep(Duration::from_millis(10));
    }

    write_msg(&mut &served, &WireMsg::Shutdown).unwrap();
    assert_eq!(read_msg(&mut &served).unwrap(), WireMsg::RBye);
    let report = daemon.join().unwrap();
    assert_eq!((report.connections, report.shed), (cap as u64 + 1, shed));
}
