//! The daemon's buffer boundary, through a real socket: however a
//! client's bytes are cut into `write`s — a thousand requests at once,
//! one byte at a time, a frame and a half — the replies are the ones an
//! in-process [`Engine`] gives, in request order, and bytes that fail
//! framing cost only the connection that sent them.

use miro_serve::cache::ShardedCache;
use miro_serve::query::{Answer, Engine, Query, QueryScratch};
use miro_serve::server::{ServeReport, Server};
use miro_serve::wire::{
    decode_payload, encode_payload, read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION,
};
use miro_shard::format::RouteTableSet;
use miro_shard::protocol::{encode_raw_frame, read_raw_frame};
use miro_shard::sample_dests;
use miro_topology::gen::GenParams;
use miro_topology::{AsId, Topology};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// A daemon over a tiny solved table (cache small enough to evict), and
/// a cache-less engine over the same table as the oracle.
fn start(seed: u64) -> (SocketAddr, JoinHandle<ServeReport>, Engine<RouteTableSet>) {
    let topo = GenParams::tiny(seed).generate();
    let dests = sample_dests(topo.num_nodes(), 16);
    let set = RouteTableSet::from_solves(&topo, &dests, 2);
    let oracle = Engine::new(set.clone(), topo.clone(), None).unwrap();
    let engine = Engine::new(set, topo, Some(ShardedCache::new(2, 16))).unwrap();
    let server = Server::bind("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run().unwrap()), oracle)
}

/// Connect and shake hands. Reads give up after 5 s, so a reply the
/// daemon sits on fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_msg(&mut &stream, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
    assert!(matches!(read_msg(&mut &stream).unwrap(), WireMsg::Welcome { .. }));
    stream
}

fn shutdown(addr: SocketAddr, daemon: JoinHandle<ServeReport>) -> ServeReport {
    let stream = connect(addr);
    write_msg(&mut &stream, &WireMsg::Shutdown).unwrap();
    assert_eq!(read_msg(&mut &stream).unwrap(), WireMsg::RBye);
    daemon.join().unwrap()
}

/// `count` seeded requests of every kind a client may pipeline: the
/// three queries, a `Universe` now and then (a reply far larger than the
/// rest), and unknown ASNs (error replies keep their place in line).
fn requests(topo: &Topology, dests: &[u32], count: usize, seed: u64) -> Vec<WireMsg> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n = topo.num_nodes() as u64;
    (0..count as u64)
        .map(|id| {
            let src = topo.asn((next() % n) as u32).0;
            let dest = topo.asn(dests[(next() % dests.len() as u64) as usize]).0;
            let avoid = topo.asn((next() % n) as u32).0;
            match id % 23 {
                7 => WireMsg::Universe { id },
                11 => WireMsg::NextHop { id, src: 999_999_999, dest },
                13 => WireMsg::Alternate { id, src, dest, avoid: 999_999_998 },
                k if k % 3 == 0 => WireMsg::NextHop { id, src, dest },
                k if k % 3 == 1 => WireMsg::Path { id, src, dest },
                _ => WireMsg::Alternate { id, src, dest, avoid },
            }
        })
        .collect()
}

/// What the daemon must reply: its ASN translation around
/// `Engine::answer`, done in process.
fn in_process(engine: &Engine<RouteTableSet>, scratch: &mut QueryScratch, msg: &WireMsg) -> WireMsg {
    let topo = engine.topology();
    let node = |asn: u32, what: &str| {
        topo.node(AsId(asn)).ok_or_else(|| format!("unknown {what} {asn}"))
    };
    let pair = |src, dest| Ok((node(src, "source AS")?, node(dest, "destination AS")?));
    let (id, q): (u64, Result<Query, String>) = match *msg {
        WireMsg::Universe { id } => {
            return WireMsg::RUniverse {
                id,
                src_asns: topo.nodes().map(|n| topo.asn(n).0).collect(),
                dest_asns: engine.table().dests().iter().map(|&d| topo.asn(d).0).collect(),
            }
        }
        WireMsg::NextHop { id, src, dest } => {
            (id, pair(src, dest).map(|(src, dest)| Query::NextHop { src, dest }))
        }
        WireMsg::Path { id, src, dest } => {
            (id, pair(src, dest).map(|(src, dest)| Query::Path { src, dest }))
        }
        WireMsg::Alternate { id, src, dest, avoid } => (
            id,
            pair(src, dest).and_then(|(src, dest)| {
                Ok(Query::Alternate { src, dest, avoid: node(avoid, "AS to avoid")? })
            }),
        ),
        ref other => panic!("not a request: {other:?}"),
    };
    let asn = |n| topo.asn(n).0;
    match q.and_then(|q| engine.answer(q, scratch).map_err(|e| e.to_string())) {
        Err(msg) => WireMsg::RErr { id, msg },
        Ok(Answer::Unrouted) => WireMsg::RUnrouted { id },
        Ok(Answer::NoAlternate) => WireMsg::RNoAlternate { id },
        Ok(Answer::NextHop { next, hops, class }) => {
            WireMsg::RNextHop { id, next: asn(next), hops, class }
        }
        Ok(Answer::Path { path }) => WireMsg::RPath { id, path: path.into_iter().map(asn).collect() },
        Ok(Answer::Alternate { via, path }) => WireMsg::RAlternate {
            id,
            deviates: via.is_some(),
            splice_at: via.map_or(0, |(v, _)| asn(v)),
            via: via.map_or(0, |(_, n)| asn(n)),
            path: path.into_iter().map(asn).collect(),
        },
    }
}

fn frames(msgs: &[WireMsg]) -> Vec<u8> {
    msgs.iter().flat_map(|m| encode_raw_frame(&encode_payload(m))).collect()
}

fn read_payloads(stream: &TcpStream, count: usize) -> Vec<Vec<u8>> {
    let mut reader = std::io::BufReader::new(stream);
    (0..count).map(|i| read_raw_frame(&mut reader).unwrap_or_else(|e| panic!("reply {i}: {e}"))).collect()
}

/// A thousand mixed requests (33 KB: frames straddle the daemon's read
/// buffer twice) in one `write_all` ≡ asked one at a time ≡ in process,
/// byte for byte and in order.
#[test]
fn pipelined_window_equals_sequential_equals_in_process() {
    let (addr, daemon, oracle) = start(21);
    let dests = oracle.table().dests().to_vec();
    let reqs = requests(oracle.topology(), &dests, 1000, 0xD1CE);
    let mut scratch = QueryScratch::new();
    let want: Vec<Vec<u8>> =
        reqs.iter().map(|m| encode_payload(&in_process(&oracle, &mut scratch, m))).collect();
    let kinds = |f: fn(&WireMsg) -> bool| want.iter().filter(|p| f(&decode_payload(p).unwrap())).count();
    assert!(kinds(|m| matches!(m, WireMsg::RErr { .. })) >= 80, "error replies in the mix");
    assert!(kinds(|m| matches!(m, WireMsg::RAlternate { deviates: true, .. })) > 0, "real alternates");

    let pipelined = connect(addr);
    (&pipelined).write_all(&frames(&reqs)).unwrap();
    let got = read_payloads(&pipelined, reqs.len());
    assert!(got == want, "pipelined replies differ from the in-process oracle");

    let sequential = connect(addr);
    for (i, req) in reqs.iter().enumerate() {
        write_msg(&mut &sequential, req).unwrap();
        assert_eq!(read_raw_frame(&mut &sequential).unwrap(), want[i], "request {i}: {req:?}");
    }
    let report = shutdown(addr, daemon);
    assert_eq!((report.connections, report.corrupt, report.timed_out, report.shed), (3, 0, 0, 0));
}

/// The same bytes one per `write`: every frame is reassembled across
/// every possible cut.
#[test]
fn dribbled_bytes_yield_the_same_replies() {
    let (addr, daemon, oracle) = start(22);
    let dests = oracle.table().dests().to_vec();
    let reqs = requests(oracle.topology(), &dests, 240, 0xBEAD);
    let mut scratch = QueryScratch::new();
    let want: Vec<Vec<u8>> =
        reqs.iter().map(|m| encode_payload(&in_process(&oracle, &mut scratch, m))).collect();

    let stream = connect(addr);
    for byte in frames(&reqs) {
        (&stream).write_all(&[byte]).unwrap();
    }
    assert!(read_payloads(&stream, reqs.len()) == want, "dribbled replies differ");
    shutdown(addr, daemon);
}

/// Flush-before-block: with a frame and a half received, reply 1 goes
/// out before the daemon waits for the other half.
#[test]
fn a_frame_and_a_half_still_gets_the_first_reply() {
    let (addr, daemon, oracle) = start(23);
    let dests = oracle.table().dests().to_vec();
    let reqs = requests(oracle.topology(), &dests, 2, 0xF00D);
    let mut scratch = QueryScratch::new();
    let bytes = frames(&reqs);
    let cut = bytes.len() * 3 / 4;

    let stream = connect(addr);
    (&stream).write_all(&bytes[..cut]).unwrap();
    assert_eq!(read_msg(&mut &stream).unwrap(), in_process(&oracle, &mut scratch, &reqs[0]));
    (&stream).write_all(&bytes[cut..]).unwrap();
    assert_eq!(read_msg(&mut &stream).unwrap(), in_process(&oracle, &mut scratch, &reqs[1]));
    shutdown(addr, daemon);
}

/// Whether the daemon closed the connection (EOF or reset) within the
/// read timeout, having sent nothing more.
fn closed(stream: &TcpStream) -> bool {
    let mut rest = Vec::new();
    match (&*stream).read_to_end(&mut rest) {
        Ok(_) => rest.is_empty(),
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    }
}

/// An oversize length prefix (refused on its four bytes, with no payload
/// ever sent), a flipped checksum byte and byte soup each close their
/// own connection; a neighbour is served before, between and after.
#[test]
fn bad_bytes_close_only_their_own_connection() {
    let (addr, daemon, oracle) = start(24);
    let dests = oracle.table().dests().to_vec();
    let reqs = requests(oracle.topology(), &dests, 8, 0xABBA);
    let mut scratch = QueryScratch::new();
    let neighbour = connect(addr);
    let mut neighbour_is_served = |i: usize| {
        write_msg(&mut &neighbour, &reqs[i]).unwrap();
        assert_eq!(read_msg(&mut &neighbour).unwrap(), in_process(&oracle, &mut scratch, &reqs[i]));
    };
    neighbour_is_served(0);

    // 16 MiB is a legal frame to `read_raw_frame`; the daemon refuses it
    // as a request before any of it arrives.
    let oversize = connect(addr);
    (&oversize).write_all(&(16u32 << 20).to_le_bytes()).unwrap();
    assert!(closed(&oversize), "oversize length prefix");
    neighbour_is_served(1);

    let flipped = connect(addr);
    let mut frame = frames(&reqs[2..3]);
    *frame.last_mut().unwrap() ^= 0x40;
    (&flipped).write_all(&frame).unwrap();
    assert!(closed(&flipped), "flipped checksum byte");
    neighbour_is_served(3);

    // Soup with a huge length prefix, with a zero one, and with a small
    // one (so the checksum is what fails); the last before any Hello.
    for (i, soup) in [&[0xFFu8; 40][..], &[0u8; 40][..], &[9u8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8][..]]
        .iter()
        .enumerate()
    {
        let stream = if i < 2 { connect(addr) } else { TcpStream::connect(addr).unwrap() };
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (&stream).write_all(soup).unwrap();
        assert!(closed(&stream), "soup {i}");
        neighbour_is_served(4 + i);
    }

    let report = shutdown(addr, daemon);
    assert_eq!((report.connections, report.corrupt), (7, 5));
}
