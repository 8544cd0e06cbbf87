//! Tier-1 smoke of the serving daemon's connection handling: answers
//! fetched from a live `miro_serve::server::Server` over TCP — pipelined
//! in one write, or one at a time — are the answers `Engine::answer`
//! gives in process; a client that never reads cannot hold up shutdown;
//! and the mmap reader counts each first-touch-verified row once. (The
//! full buffer-boundary, abuse and flood suites are in
//! `crates/serve/tests`, which only `cargo test --workspace` runs.)

use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryScratch};
use miro_serve::server::{ServeReport, Server};
use miro_serve::wire::{encode_payload, read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION};
use miro_serve::TableSource;
use miro_shard::format::RouteTableSet;
use miro_shard::protocol::{encode_raw_frame, read_raw_frame};
use miro_topology::{GenParams, Topology};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

/// A solved tiny table on disk, removed on drop.
struct TableFile(PathBuf);

impl TableFile {
    fn solved(tag: &str, seed: u64, dests: usize) -> (TableFile, Topology, RouteTableSet) {
        let topo = GenParams::tiny(seed).generate();
        let set = RouteTableSet::from_solves(&topo, &miro_shard::sample_dests(topo.num_nodes(), dests), 2);
        let path = std::env::temp_dir().join(format!("miro_tier1_serve_{tag}_{}.mirt", std::process::id()));
        std::fs::write(&path, set.encode()).unwrap();
        (TableFile(path), topo, set)
    }
}

impl Drop for TableFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The real serving stack: the table file mapped and served uncached, as
/// `miro serve` runs it.
fn serve(file: &TableFile, topo: Topology) -> (SocketAddr, JoinHandle<ServeReport>) {
    let table = MappedTable::open(&file.0).unwrap();
    let engine = Engine::new(table, topo, None).unwrap();
    let server = Server::bind("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_msg(&mut &stream, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
    assert!(matches!(read_msg(&mut &stream).unwrap(), WireMsg::Welcome { .. }));
    stream
}

/// The request a seeded draw makes, as the wire message and as the
/// in-process query it stands for.
fn request(topo: &Topology, dests: &[u32], id: u64, draw: u64) -> (WireMsg, Query) {
    let n = topo.num_nodes() as u64;
    let (src, dest, avoid) =
        ((draw % n) as u32, dests[(draw / n) as usize % dests.len()], (draw / 7 % n) as u32);
    let asn = |node| topo.asn(node).0;
    match id % 3 {
        0 => (WireMsg::NextHop { id, src: asn(src), dest: asn(dest) }, Query::NextHop { src, dest }),
        1 => (WireMsg::Path { id, src: asn(src), dest: asn(dest) }, Query::Path { src, dest }),
        _ => (
            WireMsg::Alternate { id, src: asn(src), dest: asn(dest), avoid: asn(avoid) },
            Query::Alternate { src, dest, avoid },
        ),
    }
}

/// An in-process answer as the reply the daemon owes for it.
fn reply(topo: &Topology, id: u64, answer: Result<Answer, miro_serve::query::QueryError>) -> WireMsg {
    let asn = |node| topo.asn(node).0;
    match answer {
        Err(e) => WireMsg::RErr { id, msg: e.to_string() },
        Ok(Answer::Unrouted) => WireMsg::RUnrouted { id },
        Ok(Answer::NoAlternate) => WireMsg::RNoAlternate { id },
        Ok(Answer::NextHop { next, hops, class }) => WireMsg::RNextHop { id, next: asn(next), hops, class },
        Ok(Answer::Path { path }) => WireMsg::RPath { id, path: path.into_iter().map(asn).collect() },
        Ok(Answer::Alternate { via, path }) => WireMsg::RAlternate {
            id,
            deviates: via.is_some(),
            splice_at: via.map_or(0, |(at, _)| asn(at)),
            via: via.map_or(0, |(_, next)| asn(next)),
            path: path.into_iter().map(asn).collect(),
        },
    }
}

#[test]
fn pipelined_equals_sequential_equals_in_process() {
    let (file, topo, set) = TableFile::solved("equiv", 20060911, 12);
    let (addr, daemon) = serve(&file, topo.clone());
    let oracle = Engine::new(set, topo.clone(), None).unwrap();
    let dests = oracle.table().dests().to_vec();

    let mut scratch = QueryScratch::new();
    let mut draw = 0x9E37_79B9_7F4A_7C15u64;
    let (mut window, mut want) = (Vec::new(), Vec::new());
    let requests: Vec<WireMsg> = (0..300)
        .map(|id| {
            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (msg, query) = request(&topo, &dests, id, draw >> 33);
            window.extend_from_slice(&encode_raw_frame(&encode_payload(&msg)));
            want.push(encode_payload(&reply(&topo, id, oracle.answer(query, &mut scratch))));
            msg
        })
        .collect();
    // An unknown AS is answered in its place in line, not dropped.
    let stray = WireMsg::Path { id: 300, src: 999_999_999, dest: topo.asn(dests[0]).0 };
    window.extend_from_slice(&encode_raw_frame(&encode_payload(&stray)));
    want.push(encode_payload(&WireMsg::RErr { id: 300, msg: "unknown source AS 999999999".into() }));

    let pipelined = connect(addr);
    (&pipelined).write_all(&window).unwrap();
    let mut reader = std::io::BufReader::new(&pipelined);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&read_raw_frame(&mut reader).unwrap(), want, "pipelined reply {i}");
    }

    let sequential = connect(addr);
    for (i, msg) in requests.iter().chain([&stray]).enumerate() {
        write_msg(&mut &sequential, msg).unwrap();
        assert_eq!(read_raw_frame(&mut &sequential).unwrap(), want[i], "sequential reply {i}: {msg:?}");
    }

    write_msg(&mut &sequential, &WireMsg::Shutdown).unwrap();
    assert_eq!(read_msg(&mut &sequential).unwrap(), WireMsg::RBye);
    let report = daemon.join().unwrap();
    assert_eq!((report.connections, report.queries, report.corrupt), (2, 600, 0));
}

/// A client pipelines megabytes of `Path` requests and never reads: the
/// daemon ends up blocked writing to it. Another client's `Shutdown`
/// must still bring `Server::run` home promptly.
#[test]
fn a_client_that_never_reads_does_not_wedge_shutdown() {
    let (file, topo, _set) = TableFile::solved("wedge", 7, 4);
    let asn = topo.asn(0).0;
    let (addr, daemon) = serve(&file, topo);

    let glutton = connect(addr);
    glutton.set_write_timeout(Some(Duration::from_millis(500))).unwrap();
    let window: Vec<u8> = (0..1024)
        .flat_map(|id| encode_raw_frame(&encode_payload(&WireMsg::Path { id, src: asn, dest: asn })))
        .collect();
    // Until a write stalls: every socket buffer between the two is full.
    while (&glutton).write_all(&window).is_ok() {}

    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || done.send(daemon.join().unwrap()));
    let other = connect(addr);
    write_msg(&mut &other, &WireMsg::Shutdown).unwrap();
    assert_eq!(read_msg(&mut &other).unwrap(), WireMsg::RBye);
    let report = joined.recv_timeout(Duration::from_secs(5)).expect("daemon wedged behind a client that reads nothing");
    assert_eq!(report.connections, 2);
}

/// Eight threads released together onto the same cold rows: each row is
/// verified at least once and counted exactly once.
#[test]
fn rows_verified_counts_each_row_once_under_concurrent_first_touch() {
    let (file, _topo, set) = TableFile::solved("rows", 11, 24);
    for _ in 0..20 {
        let table = MappedTable::open(&file.0).unwrap();
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..set.dests().len() {
                        table.row(i).unwrap();
                    }
                });
            }
        });
        assert_eq!(table.rows_verified(), set.dests().len() as u64);
    }
}
