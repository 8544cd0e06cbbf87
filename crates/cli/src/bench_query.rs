//! `miro bench-query` — concurrent-client throughput/latency of the
//! query serving plane.
//!
//! Two modes:
//!
//! * **Self-hosted** (`--scale`): generate the preset topology, solve a
//!   destination sample into a real on-disk table, memory-map it, start
//!   an in-process [`miro_serve::server::Server`] on a loopback port,
//!   and drive it — the whole serving stack (mmap, first-touch
//!   checksums, wire codec, TCP) on one machine, uncached as `miro
//!   serve` runs.
//! * **External** (`--addr`): drive an already-running `miro serve`
//!   daemon. The client learns the servable ASNs from the wire
//!   `Universe` message, so it needs no topology flags. `--shutdown`
//!   sends the daemon a clean stop afterwards (the CI smoke uses this).
//!
//! Each round spawns `--conns` client connections; every connection
//! issues its share of `--queries` serially (request → response, like a
//! real resolver), drawing Zipf-skewed (src, dest) pairs and a fixed
//! 60/30/10 next-hop/path/alternate mix. Every `--conns` row is [`REPS`]
//! rounds of the same stream: `wall_ms`/`qps` are the fastest round,
//! `median_wall_ms`/`median_qps` the median and `spread` (slowest −
//! fastest) / median. Latency is measured per query and merged across
//! connections and rounds; the hit rate comes from differencing the
//! daemon's `Stats` cache counters before and after, and reads 0 against
//! a daemon that runs uncached, as `miro serve` does. Results land in
//! `BENCH_query.json`; `--check-qps F` turns the best row's throughput
//! into a hard CI gate.

use crate::harness::{self, gate, host_parallelism, Cmd, Flag, Kind, Rng, TempPath, Zipf, SEED};
use miro_churn::replay::percentile;
use miro_serve::wire::{read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION};
use miro_shard::format::RouteTableSet;
use miro_shard::sample_dests;
use serde::Serialize;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub static CMD: Cmd = Cmd {
    name: "bench-query",
    positional: &[],
    flags: &[
        Flag { name: "--scale", kind: Kind::Str, default: "small", help: "self-hosted: solve a sample at this scale and serve it in-process" },
        Flag { name: "--addr", kind: Kind::Str, default: "", help: "external: drive the `miro serve` daemon at HOST:PORT instead" },
        Flag { name: "--conns", kind: Kind::UsizeList, default: "4,16,64", help: "client connections, three timed rounds each" },
        Flag { name: "--queries", kind: Kind::Num, default: "20000", help: "queries per round, split across its connections" },
        Flag { name: "--out", kind: Kind::Str, default: "BENCH_query.json", help: "where the JSON lands" },
        Flag { name: "--check-qps", kind: Kind::F64, default: "", help: "fail if the best round is under this many queries/s" },
        Flag { name: "--shutdown", kind: Kind::Switch, default: "", help: "send the external daemon a clean stop afterwards" },
        Flag { name: "--list", kind: Kind::Switch, default: "", help: "print scales, modes, the row schema and flags; run nothing" },
    ],
};

/// Timed rounds per `--conns` row.
const REPS: usize = 3;

/// Destinations the self-hosted table is solved for.
const SAMPLE: usize = 256;

/// The self-hosted daemon's answer cache: none, as `miro serve` runs.
/// The JSON keeps its `cache` keys, at 0, while the cache type exists.
const CACHE: CacheShape = CacheShape { stripes: 0, slots_per_stripe: 0 };

/// Query mix per 10 queries: 6 next-hop, 3 path, 1 alternate.
const MIX: &[QueryKind] = &[
    QueryKind::NextHop,
    QueryKind::Path,
    QueryKind::NextHop,
    QueryKind::NextHop,
    QueryKind::Alternate,
    QueryKind::Path,
    QueryKind::NextHop,
    QueryKind::NextHop,
    QueryKind::Path,
    QueryKind::NextHop,
];

#[derive(Clone, Copy, PartialEq)]
enum QueryKind {
    NextHop,
    Path,
    Alternate,
}

/// One connection's take-home: latencies and answer-kind tallies.
#[derive(Default)]
struct ClientTally {
    latencies_us: Vec<u64>,
    unrouted: u64,
    no_alternate: u64,
    errors: u64,
}

/// One `--conns` row: [`REPS`] rounds merged.
#[derive(Serialize)]
struct Round {
    conns: usize,
    /// Per round.
    queries: usize,
    wall_ms: f64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    hit_rate: f64,
    /// Per round (every round draws the same stream).
    unrouted: u64,
    no_alternate: u64,
    median_wall_ms: f64,
    median_qps: f64,
    spread: f64,
}

#[derive(Serialize)]
struct Mix {
    next_hop: f64,
    path: f64,
    alternate: f64,
}

#[derive(Serialize)]
struct CacheShape {
    stripes: usize,
    slots_per_stripe: usize,
}

#[derive(Serialize)]
struct Totals {
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    engine: &'static str,
    mode: &'static str,
    scale: String,
    nodes: usize,
    dests: usize,
    seed: u64,
    reps: usize,
    mix: Mix,
    cache: CacheShape,
    rows: Vec<Round>,
    totals: Totals,
}

pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let scale: String = a.get("--scale")?;
    let queries: usize = a.get("--queries")?;
    let out_path: String = a.get("--out")?;
    let check_qps = a.opt("--check-qps")?;
    let conns_list = a.list("--conns")?;
    if a.on("--list") {
        let mut out = String::from("bench-query scales (self-hosted mode):\n");
        for sc in harness::SCALES {
            let _ = writeln!(out, "{sc}");
        }
        out.push_str("modes:\n");
        out.push_str("  --scale S   solve a sample, serve it in-process, drive loopback TCP\n");
        out.push_str("  --addr A    drive a running `miro serve` daemon (--shutdown stops it)\n");
        out.push_str("mix: 60% next-hop, 30% path, 10% alternate (Zipf-skewed src/dest)\n");
        out.push_str("row schema:\n");
        out.push_str(
            "  rows[] = {conns, queries, wall_ms, qps, p50_us, p99_us, hit_rate, \
             unrouted, no_alternate, median_wall_ms, median_qps, spread}\n",
        );
        out.push_str(&CMD.usage());
        return Ok(out);
    }
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }

    // ---- Get a server address: external, or spin up the full stack ----
    // `hosted` stops its daemon and removes its table file when dropped,
    // so every `?` below leaves nothing behind.
    let mut report;
    let addr: SocketAddr;
    let mut hosted: Option<HostedServer> = None;
    match a.opt::<String>("--addr")? {
        Some(s) => {
            addr = s
                .parse()
                .map_err(|_| format!("--addr: cannot parse {s:?} as host:port"))?;
            report = format!("bench-query: external daemon at {addr}\n");
        }
        None => {
            let sc = harness::scale(&scale)?;
            let h = HostedServer::start(sc)?;
            addr = h.addr;
            report = format!(
                "bench-query: {} ({} nodes, {} dests solved in {:.2}s, {} byte table) on {addr}\n",
                sc.name, h.nodes, h.dests, h.solve_secs, h.table_bytes
            );
            hosted = Some(h);
        }
    }

    // ---- Learn the query universe from the daemon itself --------------
    let mut control = Client::connect(addr)?;
    let (src_asns, dest_asns) = control.universe()?;
    if src_asns.is_empty() || dest_asns.is_empty() {
        return Err("daemon serves an empty universe".into());
    }

    // ---- Rounds -------------------------------------------------------
    let mut rounds: Vec<Round> = Vec::new();
    for &conns in &conns_list {
        let per_conn = (queries / conns).max(1);
        let total = per_conn * conns;
        let before = control.stats()?;
        let mut walls = Vec::with_capacity(REPS);
        let mut merged = ClientTally::default();
        let mut kinds = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let tallies: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..conns)
                    .map(|c| {
                        let (srcs, dests) = (&src_asns, &dest_asns);
                        let seed = SEED ^ (conns as u64) << 32 ^ c as u64;
                        scope.spawn(move || drive_connection(addr, srcs, dests, per_conn, seed))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect()
            });
            walls.push(start.elapsed().as_secs_f64());
            let (mut unrouted, mut no_alternate) = (0, 0);
            for t in tallies {
                let t = t?;
                merged.latencies_us.extend_from_slice(&t.latencies_us);
                (unrouted, no_alternate) = (unrouted + t.unrouted, no_alternate + t.no_alternate);
                merged.errors += t.errors;
            }
            if kinds.is_some_and(|k| k != (unrouted, no_alternate)) {
                return Err(format!("rounds of one stream disagree at {conns} conns"));
            }
            kinds = Some((unrouted, no_alternate));
        }
        let after = control.stats()?;
        if merged.errors > 0 {
            return Err(format!(
                "{} queries came back RErr — universe-sourced operands must all resolve",
                merged.errors
            ));
        }
        walls.sort_by(f64::total_cmp);
        let (fastest, median) = (walls[0].max(1e-9), walls[REPS / 2].max(1e-9));
        let (unrouted, no_alternate) = kinds.unwrap_or_default();
        let (dh, dm) = (after.0 - before.0, after.1 - before.1);
        let round = Round {
            conns,
            queries: total,
            wall_ms: fastest * 1e3,
            qps: total as f64 / fastest,
            p50_us: percentile(&merged.latencies_us, 50),
            p99_us: percentile(&merged.latencies_us, 99),
            hit_rate: if dh + dm == 0 { 0.0 } else { dh as f64 / (dh + dm) as f64 },
            unrouted,
            no_alternate,
            median_wall_ms: median * 1e3,
            median_qps: total as f64 / median,
            spread: (walls[REPS - 1] - walls[0]) / median,
        };
        let _ = writeln!(
            report,
            "  {:>3} conns | {:>7} q x{REPS} | {:>9.0} q/s (median {:>9.0}, spread {:>3.0}%) | \
             p50 {:>6} us | p99 {:>6} us | cache {:>4.0}% | {} unrouted",
            round.conns,
            round.queries,
            round.qps,
            round.median_qps,
            round.spread * 100.0,
            round.p50_us,
            round.p99_us,
            round.hit_rate * 100.0,
            round.unrouted,
        );
        rounds.push(round);
    }

    // ---- Wind down ----------------------------------------------------
    let (cache_hits, cache_misses, served) = control.stats()?;
    if a.on("--shutdown") || hosted.is_some() {
        control.shutdown()?;
    }
    drop(control);
    let (nodes, dests, scale, mode) = match hosted {
        Some(h) => {
            let (n, d) = (h.nodes, h.dests);
            h.finish()?;
            (n, d, scale, "self-hosted")
        }
        None => (0, dest_asns.len(), "external".to_string(), "external"),
    };

    let best = rounds.iter().map(|r| r.qps).fold(0.0f64, f64::max);
    let json = Report {
        bench: "query-serve",
        engine: "mmap-table-thread-per-conn",
        mode,
        scale,
        nodes,
        dests,
        seed: SEED,
        reps: REPS,
        mix: Mix { next_hop: 0.6, path: 0.3, alternate: 0.1 },
        cache: CACHE,
        rows: rounds,
        totals: Totals { queries: served, cache_hits, cache_misses },
    };
    report.push_str(&harness::emit(&out_path, &json)?);

    gate("qps (best round)", best, check_qps)?;
    if let Some(floor) = check_qps {
        let _ = writeln!(report, "check-qps: best {best:.0} >= {floor} ok");
    }
    Ok(report)
}

// ------------------------------------------------------------- clients

/// A blocking protocol client over one TCP connection.
struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut c = Client { stream, next_id: 0 };
        c.send(&WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION })?;
        match c.recv()? {
            WireMsg::Welcome { .. } => Ok(c),
            WireMsg::RBye => Err("daemon refused the connection (protocol mismatch)".into()),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), String> {
        write_msg(&mut self.stream, msg).map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<WireMsg, String> {
        read_msg(&mut self.stream).map_err(|e| format!("recv failed: {e:?}"))
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn universe(&mut self) -> Result<(Vec<u32>, Vec<u32>), String> {
        let id = self.id();
        self.send(&WireMsg::Universe { id })?;
        match self.recv()? {
            WireMsg::RUniverse { src_asns, dest_asns, .. } => Ok((src_asns, dest_asns)),
            other => Err(format!("expected RUniverse, got {other:?}")),
        }
    }

    /// (cache_hits, cache_misses, queries) snapshot.
    fn stats(&mut self) -> Result<(u64, u64, u64), String> {
        let id = self.id();
        self.send(&WireMsg::Stats { id })?;
        match self.recv()? {
            WireMsg::RStats { cache_hits, cache_misses, queries, .. } => {
                Ok((cache_hits, cache_misses, queries))
            }
            other => Err(format!("expected RStats, got {other:?}")),
        }
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.send(&WireMsg::Shutdown)?;
        match self.recv()? {
            WireMsg::RBye => Ok(()),
            other => Err(format!("expected RBye, got {other:?}")),
        }
    }
}

/// One benchmark connection: `count` serial queries, Zipf operands.
fn drive_connection(
    addr: SocketAddr,
    src_asns: &[u32],
    dest_asns: &[u32],
    count: usize,
    seed: u64,
) -> Result<ClientTally, String> {
    let mut c = Client::connect(addr)?;
    let mut rng = Rng::new(seed);
    let src_zipf = Zipf::new(src_asns.len());
    let dest_zipf = Zipf::new(dest_asns.len());
    let mut tally = ClientTally { latencies_us: Vec::with_capacity(count), ..Default::default() };
    for i in 0..count {
        let src = src_asns[src_zipf.sample(&mut rng)];
        let dest = dest_asns[dest_zipf.sample(&mut rng)];
        let id = c.id();
        let msg = match MIX[i % MIX.len()] {
            QueryKind::NextHop => WireMsg::NextHop { id, src, dest },
            QueryKind::Path => WireMsg::Path { id, src, dest },
            QueryKind::Alternate => {
                // Avoid a random AS that is not the source (avoiding the
                // source is a defined client error we don't want to time).
                let mut avoid = src_asns[src_zipf.sample(&mut rng)];
                while avoid == src {
                    avoid = src_asns[(rng.next_u64() as usize) % src_asns.len()];
                }
                WireMsg::Alternate { id, src, dest, avoid }
            }
        };
        let start = Instant::now();
        c.send(&msg)?;
        let reply = c.recv()?;
        tally.latencies_us.push(start.elapsed().as_micros() as u64);
        match reply {
            WireMsg::RNextHop { id: rid, .. }
            | WireMsg::RPath { id: rid, .. }
            | WireMsg::RAlternate { id: rid, .. } => {
                if rid != id {
                    return Err(format!("response id {rid} for request {id}"));
                }
            }
            WireMsg::RUnrouted { .. } => tally.unrouted += 1,
            WireMsg::RNoAlternate { .. } => tally.no_alternate += 1,
            WireMsg::RErr { .. } => tally.errors += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    Ok(tally)
}

// -------------------------------------------------- self-hosted server

/// The in-process serving stack: solved table on disk, mmap'd, served.
/// Dropping it stops and joins the daemon, then removes the table file.
struct HostedServer {
    addr: SocketAddr,
    nodes: usize,
    dests: usize,
    table_bytes: usize,
    solve_secs: f64,
    stop: miro_serve::server::StopHandle,
    daemon: Option<std::thread::JoinHandle<std::io::Result<miro_serve::server::ServeReport>>>,
    /// Declared last: the file outlives the daemon thread that maps it.
    _table: TempPath,
}

impl HostedServer {
    fn start(sc: &harness::Scale) -> Result<HostedServer, String> {
        use miro_serve::mmap::MappedTable;
        use miro_serve::query::Engine;
        use miro_serve::server::Server;

        let topo = sc.preset.params(sc.factor, SEED).generate();
        let nodes = topo.num_nodes();
        let dests = sample_dests(topo.num_nodes(), SAMPLE);
        let t0 = Instant::now();
        let set = RouteTableSet::from_solves(&topo, &dests, host_parallelism());
        let solve_secs = t0.elapsed().as_secs_f64();
        let table = TempPath::new(&format!("query_{}", sc.name), ".mirt");
        std::fs::write(&table.0, set.as_bytes()).map_err(|e| format!("cannot write {:?}: {e}", table.0))?;
        let table_bytes = set.as_bytes().len();
        drop(set);

        let mapped = MappedTable::open(&table.0)?;
        let engine = Engine::new(mapped, topo, None)?;
        let server = Server::bind("127.0.0.1:0", engine)
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.stop_handle();
        let daemon = Some(std::thread::spawn(move || server.run()));
        Ok(HostedServer {
            addr,
            nodes,
            dests: dests.len(),
            table_bytes,
            solve_secs,
            stop,
            daemon,
            _table: table,
        })
    }

    /// Join the daemon (a `Shutdown` must already have been sent) and
    /// report how it ended.
    fn finish(mut self) -> Result<(), String> {
        let daemon = self.daemon.take().expect("finish runs once");
        let report = daemon.join().map_err(|_| "daemon thread panicked".to_string())?;
        report.map(|_| ()).map_err(|e| format!("daemon failed: {e}"))
    }
}

impl Drop for HostedServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arg(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn list_prints_scales_modes_and_schema() {
        let out = run(&arg("--list")).unwrap();
        for sc in harness::SCALES {
            assert!(out.contains(sc.name), "{} in {out}", sc.name);
        }
        assert!(out.contains("--addr"), "{out}");
        assert!(out.contains(
            "rows[] = {conns, queries, wall_ms, qps, p50_us, p99_us, hit_rate"
        ));
        assert!(out.ends_with(&CMD.usage()), "{out}");
    }

    #[test]
    fn bad_values_are_rejected_before_any_work() {
        assert!(run(&arg("--scale nosuch")).unwrap_err().contains("unknown scale"));
        assert!(run(&arg("--conns 0")).unwrap_err().contains("--conns"));
        assert!(run(&arg("--queries 0")).unwrap_err().contains("--queries"));
        assert!(run(&arg("--addr notanaddr")).unwrap_err().contains("--addr"));
    }

    #[test]
    fn tiny_self_hosted_bench_end_to_end() {
        let out = TempPath::new("query_test", ".json");
        let report = run(&arg(&format!(
            "--scale tiny --conns 2,4 --queries 600 --out {}",
            out.0.display()
        )))
        .unwrap();
        assert!(report.contains("q/s"), "{report}");
        let json = std::fs::read_to_string(&out.0).unwrap();
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["bench"].as_str(), Some("query-serve"));
        assert_eq!(v["mode"].as_str(), Some("self-hosted"));
        assert_eq!(v["scale"].as_str(), Some("tiny"));
        assert_eq!((v["nodes"].as_f64(), v["dests"].as_f64()), (Some(209.0), Some(209.0)));
        assert_eq!(v["mix"]["next_hop"].as_f64(), Some(0.6));
        assert_eq!(v["cache"]["slots_per_stripe"].as_f64(), Some(0.0), "the hosted daemon runs uncached");
        let rows = v["rows"].as_array().expect("rows array");
        assert_eq!(rows.len(), 2);
        for (row, conns) in rows.iter().zip([2.0, 4.0]) {
            assert_eq!(row["conns"].as_f64(), Some(conns));
            assert_eq!(row["queries"].as_f64(), Some(600.0));
            assert!(row["qps"].as_f64().unwrap() > 0.0);
            assert!(row["p99_us"].as_f64().unwrap() >= row["p50_us"].as_f64().unwrap());
            assert_eq!(row["hit_rate"].as_f64(), Some(0.0));
        }
        // Two rows of REPS rounds of 600 plus nothing else: the control
        // connection's Universe/Stats traffic is not a query.
        assert_eq!(v["totals"]["queries"].as_f64(), Some((2 * REPS * 600) as f64));
        assert_eq!((v["totals"]["cache_hits"].as_f64(), v["totals"]["cache_misses"].as_f64()), (Some(0.0), Some(0.0)));
        assert_eq!(v["reps"].as_f64(), Some(REPS as f64));
    }

    /// What every `?` between `HostedServer::start` and `finish` does:
    /// drop the server with a client still connected and no wire
    /// `Shutdown` sent. The drop itself must stop the daemon thread and
    /// take the table file with it.
    #[test]
    fn dropping_a_hosted_server_stops_the_daemon_and_removes_the_table() {
        let hosted = HostedServer::start(harness::scale("tiny").unwrap()).unwrap();
        let (addr, table) = (hosted.addr, hosted._table.0.clone());
        assert!(table.exists());
        let mut control = Client::connect(addr).unwrap();
        control.stats().expect("daemon is serving");
        drop(hosted);
        assert!(!table.exists(), "table file removed on drop");
        assert!(Client::connect(addr).is_err(), "listener closed: the daemon thread ended");
    }
}
