//! The TCP daemon behind `miro serve`: one thread per connection over a
//! shared [`Engine`], speaking the [`wire`](crate::wire) protocol.
//!
//! The engine (table + topology) is immutable after startup, so
//! connection threads share one `Arc` and contend on nothing but the
//! engine's relaxed counters; each owns its [`QueryScratch`], one fixed
//! read buffer and one reply buffer. `read` takes whatever the socket holds — one
//! request from a depth-1 client, a whole pipelined window from a
//! batching one. Every complete frame in the buffer is verified
//! ([`split_frame`]) and answered in order by [`answer_frame`], which
//! serialises the engine's reply straight into the reply buffer without
//! allocating. **The reply buffer is written immediately
//! before every socket read** (any of which may block), when it passes
//! `FLUSH_AT`, and when the connection ends. That one rule makes a
//! window of N requests cost one `read` and one `write`, serves a depth-1
//! client as an unbuffered loop would, and never leaves a client waiting
//! on bytes the daemon holds.
//!
//! What a client can make the daemon hold:
//!
//! | | bound |
//! |---|---|
//! | request bytes | `READ_BUF` per connection; a length prefix above [`MAX_REQUEST`] closes the connection before its payload is buffered |
//! | reply bytes | `FLUSH_AT` plus one reply per connection (the largest, `RUniverse`, is 4 bytes per AS) |
//! | threads | `MAX_CONNS` live connections; the next socket reads `RErr { id: 0, msg: "busy" }` and is closed |
//! | seconds | a frame left half-sent, or replies left unread, for `STALL` closes the connection; so does idling between frames for `IDLE` |
//!
//! Shutdown is cooperative: a stop flag that connection threads check
//! before each read and every `POLL` while blocked in a read or write,
//! and a blocking `accept` that whoever sets the flag wakes with a
//! loopback connect ([`StopHandle::stop`]): a wire `Shutdown` message,
//! or the embedding process via [`Server::stop_handle`].

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miro_shard::protocol::{encode_raw_frame, FrameError};
use miro_topology::{AsId, NodeId};

use crate::query::{Engine, Query, QueryScratch, Reply};
use crate::wire::{
    decode_payload, encode_payload, push_frame, push_msg, put_r_alternate, put_r_err, put_r_path, split_frame,
    WireMsg, MAX_REQUEST, QUERY_PROTOCOL_VERSION,
};
use crate::TableSource;

/// How long a connection blocks in a read or a write before it
/// re-checks the stop flag and its deadline.
const POLL: Duration = Duration::from_millis(250);

/// Per-connection read buffer: hundreds of pipelined requests per `read`.
const READ_BUF: usize = 16 << 10;

/// Pending replies are written once they pass this size, so a client
/// that pipelines without limit cannot grow the reply buffer.
const FLUSH_AT: usize = 64 << 10;

/// Live connections (and so connection threads) the daemon carries.
const MAX_CONNS: usize = 256;

/// How long a peer may leave a frame half-sent, or leave replies unread
/// with its receive window shut, before the connection is dropped.
const STALL: Duration = Duration::from_secs(10);

/// How long a connection may sit idle between frames before it is closed.
const IDLE: Duration = Duration::from_secs(120);

/// What the daemon did over its lifetime, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections refused with `busy` at the `MAX_CONNS` cap.
    pub shed: u64,
    /// Connections dropped because the peer stalled past `STALL`.
    pub timed_out: u64,
    /// Connections closed after idling between frames past `IDLE`.
    pub idle_closed: u64,
    /// Connections dropped for bytes that fail framing or decoding.
    pub corrupt: u64,
    /// Queries answered (successfully or as `RErr`), across connections.
    pub queries: u64,
}

/// Stops a running daemon: [`Server::stop_handle`].
#[derive(Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    /// The listener's address as a local client reaches it.
    wake: SocketAddr,
}

impl StopHandle {
    /// Set the stop flag, then connect to the listener so a loop blocked
    /// in `accept` returns and sees it (a failed connect found no listener).
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, 4 * POLL);
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

struct Shared<T: TableSource> {
    engine: Engine<T>,
    stop: StopHandle,
    /// `MAX_CONNS`, `STALL` and `IDLE`; fields so in-crate tests can
    /// shrink them.
    max_conns: usize,
    stall: Duration,
    idle: Duration,
    connections: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    idle_closed: AtomicU64,
    corrupt: AtomicU64,
}

/// A bound, not-yet-running query daemon.
pub struct Server<T: TableSource> {
    listener: TcpListener,
    shared: Arc<Shared<T>>,
}

impl<T: TableSource + Send + Sync + 'static> Server<T> {
    /// Bind the daemon. `addr` may use port 0; [`Server::local_addr`]
    /// reports the kernel's pick.
    pub fn bind<A: ToSocketAddrs>(addr: A, engine: Engine<T>) -> std::io::Result<Server<T>> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            let loopback = if wake.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
            wake.set_ip(loopback);
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine,
                stop: StopHandle { flag: Arc::new(AtomicBool::new(false)), wake },
                max_conns: MAX_CONNS,
                stall: STALL,
                idle: IDLE,
                connections: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
                idle_closed: AtomicU64::new(0),
                corrupt: AtomicU64::new(0),
            }),
        })
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle the embedding process can use to stop the daemon (the
    /// wire `Shutdown` message does the same).
    pub fn stop_handle(&self) -> StopHandle {
        self.shared.stop.clone()
    }

    /// Accept connections until the daemon is stopped, then join every
    /// connection thread and report.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let shared = &self.shared;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let accepting = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            // The stopper's wake-up connect, or a client that raced it.
            if shared.stop.is_set() {
                break Ok(());
            }
            // Reap: the threads still running are the live connections.
            handles.retain(|h| !h.is_finished());
            if handles.len() >= shared.max_conns {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                // A few bytes into a fresh socket's send buffer: cannot block.
                let _ = (&stream).write_all(&frame(&WireMsg::RErr { id: 0, msg: "busy".to_string() }));
                continue;
            }
            shared.connections.fetch_add(1, Ordering::Relaxed);
            let shared = self.shared.clone();
            handles.push(std::thread::spawn(move || {
                // A connection failing (broken pipe, corrupt frame,
                // stalled peer) must not take the daemon down.
                if let Err(FrameError::Corrupt(_)) = serve_connection(&stream, &shared) {
                    shared.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }));
        };
        // Set already unless `accept` failed: the threads must end either way.
        shared.stop.flag.store(true, Ordering::SeqCst);
        for h in handles {
            let _ = h.join();
        }
        accepting?;
        Ok(ServeReport {
            connections: shared.connections.load(Ordering::Relaxed),
            shed: shared.shed.load(Ordering::Relaxed),
            timed_out: shared.timed_out.load(Ordering::Relaxed),
            idle_closed: shared.idle_closed.load(Ordering::Relaxed),
            corrupt: shared.corrupt.load(Ordering::Relaxed),
            queries: shared.engine.stats.queries() + shared.engine.stats.errors.load(Ordering::Relaxed),
        })
    }
}

fn frame(msg: &WireMsg) -> Vec<u8> {
    encode_raw_frame(&encode_payload(msg))
}

/// Answer one request frame of a greeted connection: the connection
/// loop's per-frame step. A query is decoded, answered by
/// [`Engine::reply`] and its reply frame appended to `out`, allocating
/// nothing once `scratch` and `out` have grown to size; any other
/// message is handed back decoded, for the connection to handle.
pub fn answer_frame<T: TableSource>(
    engine: &Engine<T>,
    scratch: &mut QueryScratch,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<Option<WireMsg>, FrameError> {
    let topo = engine.topology();
    let node = |asn: u32, role: &'static str| topo.node(AsId(asn)).ok_or((role, asn));
    let pair = |src, dest| Ok((node(src, "source AS")?, node(dest, "destination AS")?));
    let (id, query) = match decode_payload(payload)? {
        WireMsg::NextHop { id, src, dest } => (id, pair(src, dest).map(|(src, dest)| Query::NextHop { src, dest })),
        WireMsg::Path { id, src, dest } => (id, pair(src, dest).map(|(src, dest)| Query::Path { src, dest })),
        WireMsg::Alternate { id, src, dest, avoid } => (id, pair(src, dest).and_then(|(src, dest)| {
            Ok(Query::Alternate { src, dest, avoid: node(avoid, "AS to avoid")? })
        })),
        other => return Ok(Some(other)),
    };
    let asn = |n: &NodeId| topo.asn(*n).0;
    match query.map(|q| engine.reply(q, scratch)) {
        Err((role, n)) => push_frame(out, |p| put_r_err(p, id, format_args!("unknown {role} {n}"))),
        Ok(Err(e)) => push_frame(out, |p| put_r_err(p, id, e)),
        Ok(Ok(Reply::Unrouted)) => push_msg(out, &WireMsg::RUnrouted { id }),
        Ok(Ok(Reply::NoAlternate)) => push_msg(out, &WireMsg::RNoAlternate { id }),
        Ok(Ok(Reply::NextHop { next, hops, class })) => {
            push_msg(out, &WireMsg::RNextHop { id, next: asn(&next), hops, class })
        }
        Ok(Ok(Reply::Path)) => push_frame(out, |p| put_r_path(p, id, scratch.path().iter().map(asn))),
        Ok(Ok(Reply::Alternate { via })) => {
            let (splice_at, next) = via.map_or((0, 0), |(v, n)| (asn(&v), asn(&n)));
            let path = scratch.path().iter().map(asn);
            push_frame(out, |p| put_r_alternate(p, id, via.is_some(), splice_at, next, path))
        }
    }
    Ok(None)
}

/// A read or write that timed out (both spellings) or was interrupted.
fn retry(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// One connection's state beyond its read buffer.
struct Conn<'a, T: TableSource> {
    stream: &'a TcpStream,
    shared: &'a Shared<T>,
    scratch: QueryScratch,
    /// Replies not yet written, as frames in request order.
    out: Vec<u8>,
    /// Whether a version-matching `Hello` has been answered.
    greeted: bool,
}

/// Serve one connection to completion. Any returned error just drops
/// the connection — the daemon keeps running.
fn serve_connection<T: TableSource>(
    stream: &TcpStream,
    shared: &Shared<T>,
) -> Result<(), FrameError> {
    stream.set_read_timeout(Some(POLL)).map_err(FrameError::Io)?;
    stream.set_write_timeout(Some(POLL)).map_err(FrameError::Io)?;
    stream.set_nodelay(true).ok();
    let mut conn =
        Conn { stream, shared, scratch: QueryScratch::new(), out: Vec::new(), greeted: false };
    let mut buf = vec![0u8; READ_BUF];
    // Received and not yet answered: `buf[..end]`.
    let mut end = 0;
    // When the frame at the head of the buffer was first seen incomplete,
    // and when a read first timed out with nothing buffered.
    let (mut partial_since, mut idle_since): (Option<Instant>, Option<Instant>) = (None, None);
    loop {
        let mut start = 0;
        while let Some((payload, used)) = split_frame(&buf[start..end], MAX_REQUEST)? {
            start += used;
            partial_since = None;
            let session = if conn.greeted {
                answer_frame(&shared.engine, &mut conn.scratch, payload, &mut conn.out)?
            } else {
                Some(decode_payload(payload)?)
            };
            if !session.map_or(Ok(true), |msg| conn.session(msg))? {
                return conn.flush();
            }
            if conn.out.len() >= FLUSH_AT {
                conn.flush()?;
            }
        }
        buf.copy_within(start..end, 0);
        end -= start;
        // The read below may block: nothing is held back across it.
        conn.flush()?;
        if shared.stop.is_set() {
            return Ok(());
        }
        if end > 0 && partial_since.get_or_insert_with(Instant::now).elapsed() > shared.stall {
            return Err(conn.stalled("frame left unfinished"));
        }
        match Read::read(&mut &*stream, &mut buf[end..]) {
            Ok(0) if end == 0 => return Ok(()), // client hung up cleanly
            Ok(0) => return Err(FrameError::Corrupt("stream ended mid-frame".to_string())),
            Ok(n) => (end, idle_since) = (end + n, None),
            Err(e) if retry(&e) => {
                if end == 0 && idle_since.get_or_insert_with(Instant::now).elapsed() > shared.idle {
                    shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

impl<T: TableSource> Conn<'_, T> {
    /// Count and name a peer being given up on after `STALL`.
    fn stalled(&self, what: &str) -> FrameError {
        self.shared.timed_out.fetch_add(1, Ordering::Relaxed);
        FrameError::Io(std::io::Error::new(ErrorKind::TimedOut, what.to_string()))
    }

    /// Write every pending reply. A peer that takes nothing for
    /// `STALL`, or at all once the daemon is stopping, is given up on.
    fn flush(&mut self) -> Result<(), FrameError> {
        let (mut at, mut stuck_since) = (0, None::<Instant>);
        while at < self.out.len() {
            match Write::write(&mut &*self.stream, &self.out[at..]) {
                Ok(0) => return Err(FrameError::Io(ErrorKind::WriteZero.into())),
                Ok(n) => (at, stuck_since) = (at + n, None),
                Err(e) if retry(&e) => {
                    if self.shared.stop.is_set() {
                        return Err(FrameError::Io(ErrorKind::ConnectionAborted.into()));
                    }
                    if stuck_since.get_or_insert_with(Instant::now).elapsed() > self.shared.stall {
                        return Err(self.stalled("replies left unread"));
                    }
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Append the reply to one message [`answer_frame`] handed back (or
    /// to any message before the handshake); `Ok(false)` ends the
    /// connection once the replies so far are written.
    fn session(&mut self, msg: WireMsg) -> Result<bool, FrameError> {
        let engine = &self.shared.engine;
        let reply = match msg {
            // Handshake: the first frame must be a version-matching Hello.
            WireMsg::Hello { protocol } if !self.greeted => {
                self.greeted = protocol == QUERY_PROTOCOL_VERSION;
                if !self.greeted {
                    // Version mismatch: refuse politely so old clients get
                    // a parseable goodbye instead of a dropped socket.
                    push_msg(&mut self.out, &WireMsg::RBye);
                    return Ok(false);
                }
                WireMsg::Welcome {
                    protocol: QUERY_PROTOCOL_VERSION,
                    num_nodes: engine.table().num_nodes(),
                    num_dests: engine.table().dests().len() as u32,
                }
            }
            _ if !self.greeted => return Err(FrameError::Corrupt("expected Hello".to_string())),
            WireMsg::Shutdown => {
                self.shared.stop.stop();
                push_msg(&mut self.out, &WireMsg::RBye);
                return Ok(false);
            }
            WireMsg::Universe { id } => {
                let topo = engine.topology();
                let src_asns = topo.nodes().map(|n| topo.asn(n).0).collect();
                let dest_asns = engine.table().dests().iter().map(|&d| topo.asn(d).0).collect();
                WireMsg::RUniverse { id, src_asns, dest_asns }
            }
            WireMsg::Stats { id } => {
                let cache = engine.cache();
                WireMsg::RStats {
                    id,
                    queries: engine.stats.queries(),
                    cache_hits: cache.map_or(0, |c| c.stats.hits.load(Ordering::Relaxed)),
                    cache_misses: cache.map_or(0, |c| c.stats.misses.load(Ordering::Relaxed)),
                    cache_evictions: cache.map_or(0, |c| c.stats.evictions.load(Ordering::Relaxed)),
                    rows_verified: engine.table().rows_verified(),
                    connections: self.shared.connections.load(Ordering::Relaxed),
                }
            }
            other => {
                // A reply kind (or second Hello) from a client is a
                // protocol violation; tell it and drop the connection.
                let msg = format!("unexpected message: {other:?}");
                push_msg(&mut self.out, &WireMsg::RErr { id: 0, msg });
                return Ok(false);
            }
        };
        push_msg(&mut self.out, &reply);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_msg, write_msg};
    use miro_shard::format::RouteTableSet;
    use miro_topology::GenParams;
    use std::net::TcpStream;

    /// End-to-end over a real socket: handshake, one of each query,
    /// stats, shutdown. The correctness torture lives in the crate's
    /// integration tests; this pins the protocol choreography.
    #[test]
    fn serves_queries_over_tcp_and_shuts_down() {
        let topo = GenParams::tiny(7).generate();
        let dests: Vec<u32> = (0..topo.num_nodes() as u32).collect();
        let table = RouteTableSet::from_solves(&topo, &dests, 2);
        let engine = Engine::new(table, topo.clone(), None).unwrap();
        let server = Server::bind("127.0.0.1:0", engine).unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = &stream;
        let mut r = &stream;
        write_msg(&mut w, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
        let WireMsg::Welcome { protocol, num_nodes, num_dests } = read_msg(&mut r).unwrap()
        else {
            panic!("expected Welcome")
        };
        assert_eq!(protocol, QUERY_PROTOCOL_VERSION);
        assert_eq!(num_nodes as usize, topo.num_nodes());
        assert_eq!(num_dests as usize, topo.num_nodes());

        // Universe gives us servable ASNs to query with.
        write_msg(&mut w, &WireMsg::Universe { id: 1 }).unwrap();
        let WireMsg::RUniverse { id: 1, src_asns, dest_asns } = read_msg(&mut r).unwrap()
        else {
            panic!("expected RUniverse")
        };
        let (src, dest) = (src_asns[0], dest_asns[dest_asns.len() / 2]);

        write_msg(&mut w, &WireMsg::Path { id: 2, src, dest }).unwrap();
        let path = match read_msg(&mut r).unwrap() {
            WireMsg::RPath { id: 2, path } => {
                assert_eq!(path.first(), Some(&src));
                assert_eq!(path.last(), Some(&dest));
                path
            }
            WireMsg::RUnrouted { id: 2 } => vec![],
            other => panic!("unexpected: {other:?}"),
        };

        write_msg(&mut w, &WireMsg::NextHop { id: 3, src, dest }).unwrap();
        match read_msg(&mut r).unwrap() {
            WireMsg::RNextHop { id: 3, next, .. } => {
                assert_eq!(Some(&next), path.get(1).or(Some(&src)));
            }
            WireMsg::RUnrouted { id: 3 } => assert!(path.is_empty()),
            other => panic!("unexpected: {other:?}"),
        }

        // Alternates and errors.
        if path.len() >= 3 {
            let avoid = path[1];
            write_msg(&mut w, &WireMsg::Alternate { id: 4, src, dest, avoid }).unwrap();
            match read_msg(&mut r).unwrap() {
                WireMsg::RAlternate { id: 4, deviates, path: alt, .. } => {
                    assert!(deviates);
                    assert!(!alt.contains(&avoid));
                    assert_eq!(alt.first(), Some(&src));
                    assert_eq!(alt.last(), Some(&dest));
                }
                WireMsg::RNoAlternate { id: 4 } => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        write_msg(&mut w, &WireMsg::NextHop { id: 5, src: 999_999_999, dest }).unwrap();
        let WireMsg::RErr { id: 5, msg } = read_msg(&mut r).unwrap() else {
            panic!("expected RErr for unknown source AS")
        };
        assert!(msg.contains("unknown source AS"), "{msg}");

        write_msg(&mut w, &WireMsg::Stats { id: 6 }).unwrap();
        let WireMsg::RStats { id: 6, queries, cache_hits, cache_misses, cache_evictions, connections, .. } =
            read_msg(&mut r).unwrap()
        else {
            panic!("expected RStats")
        };
        assert!(queries >= 2);
        assert_eq!((cache_hits, cache_misses, cache_evictions), (0, 0, 0), "the daemon runs uncached");
        assert_eq!(connections, 1);

        write_msg(&mut w, &WireMsg::Shutdown).unwrap();
        assert_eq!(read_msg(&mut r).unwrap(), WireMsg::RBye);
        let report = daemon.join().unwrap();
        assert_eq!(report.connections, 1);
    }

    /// A version-mismatched Hello — protocol 1's or one from the future —
    /// gets a polite RBye, not a dropped socket, and the daemon keeps
    /// serving afterwards. (A protocol-1 client seals its frames with
    /// FNV-1a, so the daemon reads its Hello as a checksum mismatch.)
    #[test]
    fn version_mismatch_is_refused_politely() {
        let topo = GenParams::tiny(8).generate();
        let dests: Vec<u32> = vec![0, 1, 2];
        let table = RouteTableSet::from_solves(&topo, &dests, 1);
        let engine = Engine::new(table, topo, None).unwrap();
        // Bound to the unspecified address: the stop handle must still
        // find a way in to wake the accept loop.
        let server = Server::bind("0.0.0.0:0", engine).unwrap();
        let addr = SocketAddr::from(([127, 0, 0, 1], server.local_addr().unwrap().port()));
        let stop = server.stop_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        for protocol in [1, 999] {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = &stream;
            let mut r = &stream;
            write_msg(&mut w, &WireMsg::Hello { protocol }).unwrap();
            assert_eq!(read_msg(&mut r).unwrap(), WireMsg::RBye, "protocol {protocol}");
            assert!(matches!(read_msg(&mut r), Err(FrameError::Eof)));
        }

        stop.stop();
        daemon.join().unwrap();
    }

    /// A daemon over three rows of a tiny table whose stall deadline is
    /// 300 ms instead of [`STALL`], and whose idle deadline is 1.5 s
    /// instead of [`IDLE`].
    fn impatient_daemon() -> (SocketAddr, std::thread::JoinHandle<ServeReport>, u32) {
        let topo = GenParams::tiny(9).generate();
        let asn = topo.asn(0).0;
        let table = RouteTableSet::from_solves(&topo, &[0, 1, 2], 1);
        let mut server = Server::bind("127.0.0.1:0", Engine::new(table, topo, None).unwrap()).unwrap();
        let shared = Arc::get_mut(&mut server.shared).unwrap();
        (shared.stall, shared.idle) = (Duration::from_millis(300), Duration::from_millis(1500));
        let addr = server.local_addr().unwrap();
        (addr, std::thread::spawn(move || server.run().unwrap()), asn)
    }

    fn greeted(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_msg(&mut &stream, &WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION }).unwrap();
        assert!(matches!(read_msg(&mut &stream).unwrap(), WireMsg::Welcome { .. }));
        stream
    }

    fn shut_down(addr: SocketAddr, daemon: std::thread::JoinHandle<ServeReport>) -> ServeReport {
        let stream = greeted(addr);
        write_msg(&mut &stream, &WireMsg::Shutdown).unwrap();
        assert_eq!(read_msg(&mut &stream).unwrap(), WireMsg::RBye);
        daemon.join().unwrap()
    }

    /// Slowloris: a frame left half-sent past the stall deadline closes
    /// the connection, however steadily its bytes dribble in. A
    /// connection idle *between* frames outlives that deadline, and is
    /// closed only once it has idled past the longer idle one.
    #[test]
    fn a_frame_left_unfinished_past_the_deadline_closes_the_connection() {
        let (addr, daemon, asn) = impatient_daemon();
        let idle = greeted(addr);
        let slow = greeted(addr);
        let request = frame(&WireMsg::Path { id: 1, src: asn, dest: asn });
        let started = Instant::now();
        let mut sent = 0;
        // A byte every 50 ms would finish the 33-byte frame in 1.6 s.
        while sent < request.len() && (&slow).write_all(&request[sent..sent + 1]).is_ok() {
            sent += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut rest = Vec::new();
        let end = (&slow).read_to_end(&mut rest);
        assert!(rest.is_empty() && !matches!(&end, Err(e) if retry(e)), "{end:?} {rest:?}");
        assert!(started.elapsed() < Duration::from_millis(1500), "closed at the deadline, not at the last byte");

        write_msg(&mut &idle, &WireMsg::Path { id: 2, src: asn, dest: asn }).unwrap();
        assert_eq!(read_msg(&mut &idle).unwrap(), WireMsg::RPath { id: 2, path: vec![asn] });

        // Now idle past 1.5 s: the daemon closes its end, cleanly.
        let quiet = Instant::now();
        let mut rest = Vec::new();
        let end = (&idle).read_to_end(&mut rest);
        assert!(rest.is_empty() && end.is_ok(), "{end:?} {rest:?}");
        let waited = quiet.elapsed();
        assert!(waited > Duration::from_millis(1400) && waited < Duration::from_secs(4), "{waited:?}");
        let report = shut_down(addr, daemon);
        assert_eq!((report.timed_out, report.idle_closed, report.corrupt), (1, 1, 0));
    }

    /// A client that pipelines requests and reads nothing is dropped once
    /// its unread replies have blocked the daemon's writes for the
    /// deadline, so it cannot hold a thread and a reply buffer for good.
    #[test]
    fn a_client_that_never_reads_is_dropped_at_the_deadline() {
        let (addr, daemon, asn) = impatient_daemon();
        let glutton = greeted(addr);
        glutton.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
        let window: Vec<u8> = (0..512).flat_map(|id| frame(&WireMsg::Path { id, src: asn, dest: asn })).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match (&glutton).write(&window) {
                Ok(_) => {}                // socket buffers still filling
                Err(e) if retry(&e) => {} // full both ways: the daemon is stuck in `write`
                Err(_) => break,           // reset: the daemon gave up on us
            }
            assert!(Instant::now() < deadline, "the daemon is still holding the connection");
        }
        let report = shut_down(addr, daemon);
        assert_eq!(report.timed_out, 1);
    }
}
