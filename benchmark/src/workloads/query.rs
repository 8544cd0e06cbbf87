//! `query_hot` and `query_cold`: `miro serve` as a separate process,
//! driven closed-loop over one loopback connection in windows of 32
//! pipelined requests (one write, then 32 replies).
//!
//! The two share every line of code and differ only in their keys.
//! `query_hot` draws Zipf(1.0) keys from a space that fits the daemon's
//! answer cache, so `serve.wire`, `serve.server` and `serve.cache` do the
//! work and the table barely runs. `query_cold` draws uniform keys from
//! tens of millions of distinct pairs, so `serve.query` chases paths over
//! `serve.mmap` rows all over the map and the cache is pure overhead. A
//! gain for hits that costs misses shows as one going up and the other
//! down.

use crate::client::{self, Client, DaemonStats};
use crate::ctx::{timed, top_degree, Ctx, Inputs, Layers, Measured, Workload};
use crate::guard::{spawn_daemon, Daemon};
use crate::keys::{Rng, Zipf};
use crate::procfs::{self, Who};
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace::Tracer;
use crate::workloads::probes;
use miro_serve::cache::ShardedCache;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryScratch};
use miro_serve::wire::{decode_payload, encode_payload, WireMsg};
use miro_serve::TableSource;
use miro_shard::format::RouteTableSet;
use miro_shard::protocol::encode_raw_frame;
use miro_shard::sample_dests;
use miro_topology::{AsId, Topology};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Requests per window, and windows in flight: the next window is sent
/// before the previous one's replies are read, so the daemon always has
/// work queued and the result does not hinge on how fast an idle CPU
/// wakes up.
pub const WINDOW: usize = 32;
const IN_FLIGHT: usize = 2;
/// One window in this many is kept for the oracle (and traced).
const SAMPLE_EVERY: u64 = 64;
/// Rounds the measured time is cut into. Half a second at the default
/// length: long enough that the 10 ms ticks of `/proc/<pid>/stat` are 2%
/// of a round's daemon CPU.
const ROUNDS: usize = 20;
/// The daemon's default cache geometry, mirrored by the in-process replay.
const CACHE_STRIPES: usize = 16;
const CACHE_SLOTS: usize = 1024;
/// Queries the in-process replay times.
const REPLAY_QUERIES: usize = 200_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    NextHop,
    Path,
    Alternate,
}
use Kind::{Alternate as A, NextHop as N, Path as P};

/// 60/30/10 next-hop/path/alternate.
const HOT_MIX: [Kind; 10] = [N, P, N, N, A, P, N, N, P, N];
/// 20/40/40.
const COLD_MIX: [Kind; 10] = [N, P, A, P, A, N, P, A, P, A];

/// How an index into the first `n` entries of a list is drawn.
#[derive(Clone)]
enum Pick {
    Zipf(std::sync::Arc<Zipf>),
    Uniform(usize),
}

impl Pick {
    fn zipf(n: usize) -> Pick {
        Pick::Zipf(Zipf::new(n).into())
    }

    fn index(&self, rng: &mut Rng) -> usize {
        match self {
            Pick::Zipf(z) => z.sample(rng),
            Pick::Uniform(n) => rng.below(*n),
        }
    }
}

/// The seeded request stream. Cloning it replays the same requests.
#[derive(Clone)]
pub struct KeyGen {
    rng: Rng,
    mix: [Kind; 10],
    srcs: std::sync::Arc<Vec<u32>>,
    dests: std::sync::Arc<Vec<u32>>,
    src_pick: Pick,
    dest_pick: Pick,
    /// `avoid` is drawn from the head of the source list.
    avoid_pick: Pick,
    sent: u64,
}

impl KeyGen {
    /// `query_hot`: Zipf over the `sources` highest-degree ASes and
    /// `dests` of the served destinations, avoiding one of the `avoids`
    /// busiest. `sources * dests * (1 + avoids)` keys must fit the
    /// daemon's cache.
    pub fn hot(
        topo: &Topology,
        served: &[u32],
        sources: usize,
        dests: usize,
        avoids: usize,
        seed: u64,
    ) -> KeyGen {
        let mut rng = Rng::new(seed);
        let srcs: Vec<u32> = top_degree(topo, sources)
            .into_iter()
            .map(|n| topo.asn(n).0)
            .collect();
        let mut pool = served.to_vec();
        rng.shuffle(&mut pool);
        pool.truncate(dests.max(1));
        KeyGen {
            src_pick: Pick::zipf(srcs.len()),
            dest_pick: Pick::zipf(pool.len()),
            avoid_pick: Pick::zipf(avoids.clamp(2, srcs.len())),
            rng,
            mix: HOT_MIX,
            srcs: srcs.into(),
            dests: pool.into(),
            sent: 0,
        }
    }

    /// `query_cold`: uniform over every AS and every served destination.
    pub fn cold(topo: &Topology, served: &[u32], seed: u64) -> KeyGen {
        let srcs: Vec<u32> = topo.nodes().map(|n| topo.asn(n).0).collect();
        KeyGen {
            rng: Rng::new(seed),
            mix: COLD_MIX,
            src_pick: Pick::Uniform(srcs.len()),
            dest_pick: Pick::Uniform(served.len()),
            avoid_pick: Pick::Uniform(srcs.len()),
            srcs: srcs.into(),
            dests: served.to_vec().into(),
            sent: 0,
        }
    }

    pub fn next(&mut self) -> WireMsg {
        let id = self.sent;
        let kind = self.mix[(id % 10) as usize];
        self.sent += 1;
        let src = self.srcs[self.src_pick.index(&mut self.rng)];
        let dest = self.dests[self.dest_pick.index(&mut self.rng)];
        match kind {
            Kind::NextHop => WireMsg::NextHop { id, src, dest },
            Kind::Path => WireMsg::Path { id, src, dest },
            Kind::Alternate => {
                // Avoiding the source is a defined client error, not a
                // query; redraw.
                let mut avoid = src;
                while avoid == src {
                    avoid = self.srcs[self.avoid_pick.index(&mut self.rng)];
                }
                WireMsg::Alternate {
                    id,
                    src,
                    dest,
                    avoid,
                }
            }
        }
    }
}

/// A request's id and its operands as node ids; an unknown ASN is the
/// error the daemon would report.
pub fn to_query(topo: &Topology, msg: &WireMsg) -> Result<(u64, Query), (u64, String)> {
    let node = |asn: u32, what: &str| {
        topo.node(AsId(asn))
            .ok_or_else(|| format!("unknown {what} AS {asn}"))
    };
    let pair = |src, dest| Ok((node(src, "source")?, node(dest, "destination")?));
    let (id, query) = match *msg {
        WireMsg::NextHop { id, src, dest } => (
            id,
            pair(src, dest).map(|(src, dest)| Query::NextHop { src, dest }),
        ),
        WireMsg::Path { id, src, dest } => (
            id,
            pair(src, dest).map(|(src, dest)| Query::Path { src, dest }),
        ),
        WireMsg::Alternate {
            id,
            src,
            dest,
            avoid,
        } => (
            id,
            pair(src, dest).and_then(|(src, dest)| {
                Ok(Query::Alternate {
                    src,
                    dest,
                    avoid: node(avoid, "avoided")?,
                })
            }),
        ),
        ref other => (0, Err(format!("not a query: {other:?}"))),
    };
    query.map(|q| (id, q)).map_err(|e: String| (id, e))
}

/// What the daemon must reply to `msg`: the server's request handling
/// (`serve::server`'s ASN translation around `Engine::answer`) done in
/// process. With a cache-less engine this is the query workloads' oracle.
pub fn serve_in_process<T: TableSource>(
    engine: &Engine<T>,
    scratch: &mut QueryScratch,
    msg: &WireMsg,
) -> WireMsg {
    let topo = engine.topology();
    let (id, q) = match to_query(topo, msg) {
        Ok(x) => x,
        Err((id, msg)) => return WireMsg::RErr { id, msg },
    };
    let asn = |n| topo.asn(n).0;
    match engine.answer(q, scratch) {
        Err(e) => WireMsg::RErr {
            id,
            msg: e.to_string(),
        },
        Ok(Answer::Unrouted) => WireMsg::RUnrouted { id },
        Ok(Answer::NoAlternate) => WireMsg::RNoAlternate { id },
        Ok(Answer::NextHop { next, hops, class }) => WireMsg::RNextHop {
            id,
            next: asn(next),
            hops,
            class,
        },
        Ok(Answer::Path { path }) => WireMsg::RPath {
            id,
            path: path.into_iter().map(asn).collect(),
        },
        Ok(Answer::Alternate { via, path }) => {
            let path = path.into_iter().map(asn).collect();
            match via {
                Some((v, n)) => WireMsg::RAlternate {
                    id,
                    deviates: true,
                    splice_at: asn(v),
                    via: asn(n),
                    path,
                },
                None => WireMsg::RAlternate {
                    id,
                    deviates: false,
                    splice_at: 0,
                    via: 0,
                    path,
                },
            }
        }
    }
}

/// Replies that disagree with the oracle, or that the daemon refused.
pub fn count_disagreements<T: TableSource>(
    oracle: &Engine<T>,
    sampled: &[(WireMsg, WireMsg)],
) -> u64 {
    let mut scratch = QueryScratch::new();
    sampled
        .iter()
        .filter(|(request, reply)| serve_in_process(oracle, &mut scratch, request) != *reply)
        .count() as u64
}

/// What the traced slices saw beyond [`Measured`], summed, for the
/// layer probes.
#[derive(Default)]
struct TracedDetail {
    stats: DaemonStats,
    client_cpu_s: f64,
    unrouted: u64,
    no_alternate: u64,
    /// The stream as it stood when the first traced slice began.
    stream: Option<KeyGen>,
}

pub struct QueryLoad<const HOT: bool> {
    inputs: Inputs,
    table_path: PathBuf,
    daemon: Daemon,
    client: Client,
    keys: KeyGen,
    /// The solved table; becomes the oracle engine on first use.
    set: Option<RouteTableSet>,
    oracle: Option<Engine<RouteTableSet>>,
    detail: TracedDetail,
}

/// A window whose requests are sent and whose replies are not read yet.
struct InFlight {
    first_id: u64,
    encoded: Instant,
    sent: Instant,
    /// The requests, when this window is sampled for the oracle.
    requests: Option<Vec<WireMsg>>,
}

impl<const HOT: bool> QueryLoad<HOT> {
    /// Queue one window of requests and send it in one write.
    fn send_window(&mut self, sample: bool) -> Result<InFlight, String> {
        let first_id = self.keys.sent;
        let encoded = Instant::now();
        let mut requests = sample.then(|| Vec::with_capacity(WINDOW));
        for _ in 0..WINDOW {
            let msg = self.keys.next();
            self.client.queue(&msg);
            if let Some(r) = &mut requests {
                r.push(msg);
            }
        }
        let sent = Instant::now();
        self.client.flush()?;
        Ok(InFlight {
            first_id,
            encoded,
            sent,
            requests,
        })
    }

    /// Read one window's replies. A reply that is refused (`RErr`), is
    /// not an answer, or echoes the wrong id counts as failed.
    fn recv_window(
        &mut self,
        w: InFlight,
        sampled: &mut Vec<(WireMsg, WireMsg)>,
        m: &mut Measured,
        replies: &mut u64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        for k in 0..WINDOW {
            let reply = client::decode(&self.client.recv_payload()?)?;
            let id = match &reply {
                WireMsg::RNextHop { id, .. }
                | WireMsg::RPath { id, .. }
                | WireMsg::RAlternate { id, .. } => *id,
                WireMsg::RUnrouted { id } => {
                    self.detail.unrouted += tr.is_on() as u64;
                    *id
                }
                WireMsg::RNoAlternate { id } => {
                    self.detail.no_alternate += tr.is_on() as u64;
                    *id
                }
                _ => u64::MAX,
            };
            m.failed += (id != w.first_id + k as u64) as u64;
            if let Some(requests) = &w.requests {
                sampled.push((requests[k].clone(), reply));
            }
        }
        m.attempted += WINDOW as u64;
        *replies += WINDOW as u64;
        if tr.is_on() {
            let done = Instant::now();
            m.unit_us.push((done - w.sent).as_secs_f64() * 1e6);
            if w.requests.is_some() {
                let req = w.first_id / WINDOW as u64;
                tr.record("serve.wire.encode_requests", req, w.encoded, w.sent);
                tr.record("serve.server.window_round_trip", req, w.sent, done);
            }
        }
        Ok(())
    }
}

impl<const HOT: bool> Workload for QueryLoad<HOT> {
    const NAME: &'static str = if HOT { "query_hot" } else { "query_cold" };

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let inputs = Inputs::prepare(ctx, tr)?;
        let topo = &inputs.topo;
        let dests = sample_dests(topo.num_nodes(), ctx.scale.served_dests);
        let set = tr.span("shard.format.from_solves", 0, |_| {
            RouteTableSet::from_solves(topo, &dests, 2)
        });
        let table_path = ctx.run.path().join("served.mirt");
        tr.span("shard.format.encode_write", 0, |_| {
            std::fs::write(&table_path, set.encode())
                .map_err(|e| format!("cannot write {table_path:?}: {e}"))
        })?;
        let daemon = tr.span("serve.server.spawn", 0, |_| {
            spawn_daemon(&ctx.miro, &table_path, &inputs.cache_path, ctx.run.path())
        })?;
        let mut client = tr.span("serve.server.connect", 0, |_| Client::connect(daemon.addr))?;

        let served: Vec<u32> = dests.iter().map(|&d| topo.asn(d).0).collect();
        let mut keys = if HOT {
            KeyGen::hot(
                topo,
                &served,
                ctx.scale.hot_sources,
                ctx.scale.hot_dests,
                ctx.scale.hot_avoids,
                ctx.seed,
            )
        } else {
            KeyGen::cold(topo, &served, ctx.seed)
        };
        tr.span("loadgen.warmup", 0, |_| -> Result<(), String> {
            for _ in 0..ctx.scale.warmup_queries / WINDOW {
                for _ in 0..WINDOW {
                    client.queue(&keys.next());
                }
                client.flush()?;
                for _ in 0..WINDOW {
                    client.recv_payload()?;
                }
            }
            Ok(())
        })?;
        Ok(QueryLoad {
            inputs,
            table_path,
            daemon,
            client,
            keys,
            set: Some(set),
            oracle: None,
            detail: TracedDetail::default(),
        })
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String> {
        if self.oracle.is_none() {
            let set = self.set.take().expect("the table is solved in setup");
            self.oracle = Some(Engine::new(set, self.inputs.topo.clone(), None)?);
        }
        if tr.is_on() && self.detail.stream.is_none() {
            self.detail.stream = Some(self.keys.clone());
        }
        let pid = self.daemon.guard.pid();
        let mut m = Measured::default();
        let mut sampled: Vec<(WireMsg, WireMsg)> = Vec::new();
        let stats0 = self.client.stats()?;
        let me0 = procfs::usage(Who::Me).cpu;
        let start = Instant::now();
        let (mut windows, mut replies) = (0u64, 0u64);
        let mut in_flight = std::collections::VecDeque::with_capacity(IN_FLIGHT);
        for round in 1..=ROUNDS {
            let round_end = seconds * round as f64 / ROUNDS as f64;
            let (t0, cpu0, replies0) = (Instant::now(), procfs::cpu_of(pid)?, replies);
            while start.elapsed().as_secs_f64() < round_end {
                in_flight.push_back(self.send_window(windows % SAMPLE_EVERY == 0)?);
                windows += 1;
                if in_flight.len() == IN_FLIGHT {
                    let w = in_flight.pop_front().expect("just checked");
                    self.recv_window(w, &mut sampled, &mut m, &mut replies, tr)?;
                }
            }
            m.round(
                replies - replies0,
                t0.elapsed().as_secs_f64(),
                procfs::cpu_of(pid)? - cpu0,
            );
        }
        // Replies that arrive after the last round are checked, not timed.
        while let Some(w) = in_flight.pop_front() {
            self.recv_window(w, &mut sampled, &mut m, &mut replies, tr)?;
        }
        let client_cpu_s = (procfs::usage(Who::Me).cpu - me0).as_secs_f64();
        let stats1 = self.client.stats()?;
        if tr.is_on() {
            let d = &mut self.detail;
            d.client_cpu_s += client_cpu_s;
            d.stats.queries += stats1.queries - stats0.queries;
            d.stats.cache_hits += stats1.cache_hits - stats0.cache_hits;
            d.stats.cache_misses += stats1.cache_misses - stats0.cache_misses;
            d.stats.cache_evictions += stats1.cache_evictions - stats0.cache_evictions;
        }
        m.peak_rss_kb = procfs::vm_hwm_kb(pid)?;

        // Oracle: the sampled windows against a cache-less in-process
        // engine over the in-memory table.
        m.failed += count_disagreements(self.oracle.as_ref().expect("built above"), &sampled);
        if self.daemon.guard.exited() {
            return Err("miro serve died during the run".to_string());
        }
        Ok(m)
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let d = &self.detail;
        let lookups = (d.stats.cache_hits + d.stats.cache_misses).max(1) as f64;
        out.insert("serve.cache.hit_share", d.stats.cache_hits as f64 / lookups);
        out.insert("serve.cache.evictions", d.stats.cache_evictions as f64);
        out.insert(
            "serve.query.unrouted_share",
            d.unrouted as f64 / traced.ops as f64,
        );
        out.insert(
            "serve.query.no_alternate_share",
            d.no_alternate as f64 / traced.ops as f64,
        );
        out.insert("serve.server.busy_cores", traced.cpu_s / traced.wall_s);
        out.insert(
            "serve.loadgen.cpu_us_per_query",
            d.client_cpu_s * 1e6 / traced.ops as f64,
        );

        // Connection set-up, and depth-1 round trips: diagnostics.
        let addr = self.daemon.addr;
        let connects: Vec<f64> = (0..100)
            .map(|_| timed(|| Client::connect(addr)).1 * 1e6)
            .collect();
        out.insert("serve.server.connect_us", median(&connects));
        let mut rtts = Vec::with_capacity(ctx.scale.rtt_samples);
        tr.span("serve.server.ping_pong", 0, |_| -> Result<(), String> {
            for _ in 0..ctx.scale.rtt_samples {
                let msg = self.keys.next();
                let (reply, s) = timed(|| self.client.call(&msg));
                reply?;
                rtts.push(s * 1e6);
            }
            Ok(())
        })?;
        let rtts = sorted(rtts);
        out.insert("serve.server.rtt_p50_us", percentile_sorted(&rtts, 0.5));
        out.insert("serve.server.rtt_p99_us", percentile_sorted(&rtts, 0.99));

        // The traced pass's own request stream, replayed in process in
        // the server's order: same table file mapped, same cache shape.
        let topo = &self.inputs.topo;
        let mut stream = d.stream.clone().expect("measure ran first");
        let n = REPLAY_QUERIES.min(traced.ops as usize).max(WINDOW);
        let requests: Vec<WireMsg> = (0..n).map(|_| stream.next()).collect();
        let payloads: Vec<Vec<u8>> = requests.iter().map(encode_payload).collect();
        let open = |cache| -> Result<Engine<MappedTable>, String> {
            Engine::new(MappedTable::open(&self.table_path)?, topo.clone(), cache)
        };
        let cached = open(Some(ShardedCache::new(CACHE_STRIPES, CACHE_SLOTS)))?;
        let bare = open(None)?;
        let mut scratch = QueryScratch::new();
        let per = |s: f64, count: usize| s * 1e9 / count.max(1) as f64;

        // Warm both engines' rows and the cache as the daemon's were.
        for r in &requests {
            black_box(serve_in_process(&cached, &mut scratch, r));
            black_box(serve_in_process(&bare, &mut scratch, r));
        }
        let (_, whole_s) = tr.span("serve.query.replay", 0, |_| {
            timed(|| {
                for p in &payloads {
                    let request = decode_payload(p).expect("own encoding");
                    let reply = serve_in_process(&cached, &mut scratch, &request);
                    black_box(encode_raw_frame(&encode_payload(&reply)));
                }
            })
        });
        let service_us = whole_s * 1e6 / n as f64;
        out.insert("serve.query.inproc_qps", n as f64 / whole_s);
        out.insert(
            "serve.server.overhead_us_per_query",
            traced.cpu_s * 1e6 / traced.ops as f64 - service_us,
        );

        let (_, s) = tr.span("serve.wire.decode", 0, |_| {
            timed(|| {
                payloads
                    .iter()
                    .for_each(|p| drop(black_box(decode_payload(p))))
            })
        });
        out.insert("serve.wire.decode_ns", per(s, n));

        let queries: Vec<Query> = requests
            .iter()
            .map(|r| to_query(topo, r).map(|(_, q)| q).map_err(|(_, e)| e))
            .collect::<Result<_, _>>()?;
        for (name, span, want) in [
            ("serve.query.next_hop_ns", "serve.query.next_hop", N),
            ("serve.query.path_ns", "serve.query.path", P),
            ("serve.query.alternate_ns", "serve.query.alternate", A),
        ] {
            let of_kind: Vec<&WireMsg> = requests
                .iter()
                .filter(|r| match r {
                    WireMsg::NextHop { .. } => want == N,
                    WireMsg::Path { .. } => want == P,
                    _ => want == A,
                })
                .collect();
            let (_, s) = tr.span(span, 0, |_| {
                timed(|| {
                    of_kind
                        .iter()
                        .for_each(|r| drop(black_box(serve_in_process(&bare, &mut scratch, r))))
                })
            });
            out.insert(name, per(s, of_kind.len()));
        }

        let cache = cached.cache().expect("built with a cache");
        let cacheable: Vec<&Query> = queries
            .iter()
            .filter(|q| !matches!(q, Query::NextHop { .. }))
            .collect();
        let (answers, s) = tr.span("serve.cache.get", 0, |_| {
            timed(|| {
                cacheable
                    .iter()
                    .map(|q| cache.get(q))
                    .collect::<Vec<Option<Answer>>>()
            })
        });
        out.insert("serve.cache.get_ns", per(s, cacheable.len()));
        let held: Vec<(&Query, Answer)> = cacheable
            .iter()
            .zip(answers)
            .filter_map(|(q, a)| Some((*q, a?)))
            .collect();
        let (_, s) = tr.span("serve.cache.put", 0, |_| {
            timed(|| held.iter().for_each(|(q, a)| cache.put(q, a.clone())))
        });
        out.insert("serve.cache.put_ns", per(s, held.len()));

        let replies: Vec<WireMsg> = requests
            .iter()
            .map(|r| serve_in_process(&cached, &mut scratch, r))
            .collect();
        let (_, s) = tr.span("serve.wire.encode", 0, |_| {
            timed(|| {
                replies
                    .iter()
                    .for_each(|r| drop(black_box(encode_raw_frame(&encode_payload(r)))))
            })
        });
        out.insert("serve.wire.encode_ns", per(s, n));

        probes::mmap(&self.table_path, tr, out)?;
        let dests = cached.table().dests().to_vec();
        // On the first 256 served destinations, the size the other
        // workloads probe: at all 1,024, `from_solves` on two threads
        // sometimes spends seconds of system time in this process's aged
        // heap (3.8 s against 0.25 s), which says nothing about the solver.
        probes::solver(topo, &dests[..dests.len().min(256)], tr, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_bgp::solver::UNROUTED_NEXT;
    use miro_topology::GenParams;

    fn tiny() -> (Topology, RouteTableSet, Vec<u32>) {
        let topo = GenParams::tiny(7).generate();
        let dests: Vec<u32> = topo.nodes().collect();
        let set = RouteTableSet::from_solves(&topo, &dests, 1);
        let served = dests.iter().map(|&d| topo.asn(d).0).collect();
        (topo, set, served)
    }

    fn serve_all(engine: &Engine<RouteTableSet>, requests: &[WireMsg]) -> Vec<(WireMsg, WireMsg)> {
        let mut scratch = QueryScratch::new();
        requests
            .iter()
            .map(|r| (r.clone(), serve_in_process(engine, &mut scratch, r)))
            .collect()
    }

    #[test]
    fn one_flipped_table_cell_fails_the_query_oracle() {
        let (topo, set, served) = tiny();
        let oracle = Engine::new(set.clone(), topo.clone(), None).unwrap();

        // The served table: row 0 with one AS's next hop redirected
        // straight to the destination.
        let (next, hops, class) = set.row(0);
        let (mut next, hops, class) = (next.to_vec(), hops.to_vec(), class.to_vec());
        let dest = set.dests()[0];
        let x = (0..next.len())
            .find(|&x| next[x] != UNROUTED_NEXT && next[x] != dest && x as u32 != dest)
            .unwrap();
        next[x] = dest;
        let mut flipped = set.clone();
        flipped.set_row(0, &next, &hops, &class);

        let mut keys = KeyGen::cold(&topo, &served, 11);
        let mut requests: Vec<WireMsg> = (0..2000).map(|_| keys.next()).collect();
        requests.push(WireMsg::NextHop {
            id: 0,
            src: topo.asn(x as u32).0,
            dest: topo.asn(dest).0,
        });

        let honest = Engine::new(set, topo.clone(), Some(ShardedCache::new(4, 64))).unwrap();
        assert_eq!(
            count_disagreements(&oracle, &serve_all(&honest, &requests)),
            0
        );
        let corrupt = Engine::new(flipped, topo.clone(), None).unwrap();
        assert!(count_disagreements(&oracle, &serve_all(&corrupt, &requests)) >= 1);
    }

    #[test]
    fn refusals_are_disagreements_too() {
        let (topo, set, served) = tiny();
        let oracle = Engine::new(set, topo, None).unwrap();
        let request = WireMsg::Path {
            id: 3,
            src: served[1],
            dest: served[0],
        };
        let refused = WireMsg::RErr {
            id: 3,
            msg: "table corrupt".to_string(),
        };
        assert_eq!(count_disagreements(&oracle, &[(request, refused)]), 1);
    }

    #[test]
    fn key_streams_replay_and_stay_in_their_space() {
        let (topo, _, served) = tiny();
        let mut a = KeyGen::hot(&topo, &served, 8, 4, 2, 42);
        let mut b = a.clone();
        let first: Vec<WireMsg> = (0..500).map(|_| a.next()).collect();
        assert_eq!(first, (0..500).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(first, {
            let mut c = KeyGen::hot(&topo, &served, 8, 4, 2, 43);
            (0..500).map(|_| c.next()).collect::<Vec<_>>()
        });
        let (mut srcs, mut dests, mut alternates) = (
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
            0,
        );
        for (i, msg) in first.iter().enumerate() {
            match *msg {
                WireMsg::NextHop { id, src, dest } | WireMsg::Path { id, src, dest } => {
                    assert_eq!(id, i as u64);
                    srcs.insert(src);
                    dests.insert(dest);
                }
                WireMsg::Alternate {
                    src, dest, avoid, ..
                } => {
                    assert_ne!(src, avoid);
                    srcs.insert(src);
                    dests.insert(dest);
                    alternates += 1;
                }
                ref other => panic!("not a query: {other:?}"),
            }
        }
        assert!(srcs.len() <= 8 && dests.len() <= 4);
        assert_eq!(alternates, 50, "60/30/10 mix");
    }
}
