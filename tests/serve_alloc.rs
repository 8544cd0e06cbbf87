//! Tier-1 pin of the daemon's reply path: [`answer_frame`], the step the
//! connection loop runs for every request frame, allocates nothing once
//! warm, and every frame it writes is byte for byte the frame
//! `encode_raw_frame(&encode_payload(..))` makes of the owned answer
//! [`Engine::answer`] gives for the same request. Both hold for the
//! uncached engine `miro serve` runs and for one behind a
//! [`ShardedCache`].

use miro_serve::cache::ShardedCache;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, QueryScratch};
use miro_serve::server::answer_frame;
use miro_serve::wire::{decode_payload, encode_payload, split_frame, WireMsg};
use miro_serve::TableSource;
use miro_shard::format::RouteTableSet;
use miro_shard::protocol::encode_raw_frame;
use miro_topology::gen::figure_1_1;
use miro_topology::{AsId, GenParams, NodeId, Topology, TopologyBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Counts this thread's allocations, so tests running alongside on other
/// threads do not show up in the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A solved table written to disk and mapped, as the daemon serves it —
/// uncached, or behind the cache when `cached`; the file is removed on
/// drop.
struct Served {
    path: PathBuf,
    topo: Topology,
    engine: Engine<MappedTable>,
}

impl Served {
    fn new(tag: &str, topo: Topology, dests: &[NodeId], cached: bool) -> Served {
        let set = RouteTableSet::from_solves(&topo, dests, 1);
        let path = std::env::temp_dir().join(format!("miro_tier1_alloc_{tag}_{cached}_{}.mirt", std::process::id()));
        std::fs::write(&path, set.encode()).unwrap();
        let table = MappedTable::open(&path).unwrap();
        let cache = cached.then(|| ShardedCache::new(16, 1024));
        let engine = Engine::new(table, topo.clone(), cache).unwrap();
        Served { path, topo, engine }
    }

    fn asn(&self, n: NodeId) -> u32 {
        self.topo.asn(n).0
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// splitmix64: a seeded stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `count` request payloads cycling next-hop / path / alternate. Sources
/// and destinations are drawn from `pool` (every node for a cold mix, a
/// few for a hot one that fits the cache); one alternate in four avoids
/// the destination itself (no alternate).
fn mix(s: &Served, seed: u64, count: usize, pool: &[NodeId]) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let nodes = s.topo.num_nodes();
    (0..count as u64)
        .map(|id| {
            let src = s.asn(pool[rng.below(pool.len())]);
            let dest = s.asn(pool[rng.below(pool.len())]);
            let msg = match id % 3 {
                0 => WireMsg::NextHop { id, src, dest },
                1 => WireMsg::Path { id, src, dest },
                _ if id % 4 == 0 => WireMsg::Alternate { id, src, dest, avoid: dest },
                _ => WireMsg::Alternate { id, src, dest, avoid: s.asn(rng.below(nodes) as NodeId) },
            };
            encode_payload(&msg)
        })
        .collect()
}

/// Answer `requests` in windows of 32, as a connection does between
/// flushes, appending every reply frame to `sink` (which must already
/// have room). Returns the allocations made.
fn serve_windows(s: &Served, scratch: &mut QueryScratch, requests: &[Vec<u8>], out: &mut Vec<u8>, sink: &mut Vec<u8>) -> u64 {
    let before = allocations();
    for window in requests.chunks(32) {
        for payload in window {
            let handed_back = answer_frame(&s.engine, scratch, payload, out).unwrap();
            assert!(handed_back.is_none(), "a query is answered, not handed back");
        }
        sink.extend_from_slice(out);
        out.clear();
    }
    allocations() - before
}

/// The reply kinds in a run of frames, by name.
fn kinds(frames: &[u8]) -> Vec<&'static str> {
    let mut at = 0;
    let mut seen = Vec::new();
    while let Some((payload, used)) = split_frame(&frames[at..], usize::MAX).unwrap() {
        at += used;
        let kind = match decode_payload(payload).unwrap() {
            WireMsg::RNextHop { .. } => "next-hop",
            WireMsg::RPath { .. } => "path",
            WireMsg::RAlternate { .. } => "alternate",
            WireMsg::RUnrouted { .. } => "unrouted",
            WireMsg::RNoAlternate { .. } => "no-alternate",
            WireMsg::RErr { .. } => "error",
            other => panic!("not a query reply: {other:?}"),
        };
        if !seen.contains(&kind) {
            seen.push(kind);
        }
    }
    seen
}

/// `topo` plus one AS with no links (ASN 1, which generated graphs never
/// use): no route leads to or from it, so queries on it read unrouted.
fn with_a_stranded_as(topo: &Topology) -> Topology {
    let mut b = TopologyBuilder::new();
    for n in topo.nodes() {
        b.add_as(topo.asn(n));
    }
    for n in topo.nodes() {
        for &(m, rel) in topo.neighbors(n).iter().filter(|&&(m, _)| n < m) {
            b.link(topo.asn(n), topo.asn(m), rel);
        }
    }
    b.add_as(AsId(1));
    b.build().unwrap()
}

#[test]
fn a_warm_connection_answers_cold_and_hot_mixes_without_allocating() {
    let topo = with_a_stranded_as(&GenParams::tiny(7).generate());
    let all: Vec<NodeId> = topo.nodes().collect();
    for cached in [false, true] {
        warm_mixes_allocate_nothing(&Served::new("mix", topo.clone(), &all, cached));
    }
}

fn warm_mixes_allocate_nothing(s: &Served) {
    let cached = s.engine.cache().is_some();
    let dests: Vec<NodeId> = s.topo.nodes().collect();
    let cold = mix(s, 1, 10_000, &dests);
    // A dozen nodes, the stranded AS (the last) among them.
    let few: Vec<NodeId> = dests.iter().copied().rev().step_by(17).take(12).collect();
    let hot = mix(s, 2, 10_000, &few);

    let (mut scratch, mut out) = (QueryScratch::new(), Vec::new());
    let mut sink = Vec::with_capacity(4 << 20);
    // Warm-up: every row touched, scratch and reply buffer grown, the
    // cache (if any) filled with the hot keys.
    for requests in [mix(s, 3, 40_000, &dests), hot.clone()] {
        serve_windows(s, &mut scratch, &requests, &mut out, &mut sink);
        sink.clear();
    }

    for (name, requests) in [("cold", &cold), ("hot", &hot)] {
        let allocated = serve_windows(s, &mut scratch, requests, &mut out, &mut sink);
        assert_eq!(allocated, 0, "{name} mix (cached: {cached}) allocated {allocated} times in 10k queries");
        let seen = kinds(&sink);
        for kind in ["next-hop", "path", "alternate", "unrouted", "no-alternate"] {
            assert!(seen.contains(&kind), "{name} mix (cached: {cached}) has no {kind} reply: {seen:?}");
        }
        sink.clear();
    }
}

/// What the daemon must reply to `msg`, from the owned API: ASNs
/// translated around [`Engine::answer`] on a cache-less engine.
fn owned_reply<T: TableSource>(oracle: &Engine<T>, scratch: &mut QueryScratch, msg: &WireMsg) -> WireMsg {
    let topo = oracle.topology();
    let node = |asn: u32| topo.node(AsId(asn));
    let asn = |n: NodeId| topo.asn(n).0;
    let (id, q) = match *msg {
        WireMsg::NextHop { id, src, dest } => match (node(src), node(dest)) {
            (Some(src), Some(dest)) => (id, miro_serve::query::Query::NextHop { src, dest }),
            _ => return unknown(id, src, dest, None, topo),
        },
        WireMsg::Path { id, src, dest } => match (node(src), node(dest)) {
            (Some(src), Some(dest)) => (id, miro_serve::query::Query::Path { src, dest }),
            _ => return unknown(id, src, dest, None, topo),
        },
        WireMsg::Alternate { id, src, dest, avoid } => match (node(src), node(dest), node(avoid)) {
            (Some(src), Some(dest), Some(avoid)) => {
                (id, miro_serve::query::Query::Alternate { src, dest, avoid })
            }
            _ => return unknown(id, src, dest, Some(avoid), topo),
        },
        ref other => panic!("not a query: {other:?}"),
    };
    match oracle.answer(q, scratch) {
        Err(e) => WireMsg::RErr { id, msg: e.to_string() },
        Ok(Answer::Unrouted) => WireMsg::RUnrouted { id },
        Ok(Answer::NoAlternate) => WireMsg::RNoAlternate { id },
        Ok(Answer::NextHop { next, hops, class }) => WireMsg::RNextHop { id, next: asn(next), hops, class },
        Ok(Answer::Path { path }) => WireMsg::RPath { id, path: path.into_iter().map(asn).collect() },
        Ok(Answer::Alternate { via, path }) => {
            let (splice_at, next) = via.map_or((0, 0), |(v, n)| (asn(v), asn(n)));
            let path = path.into_iter().map(asn).collect();
            WireMsg::RAlternate { id, deviates: via.is_some(), splice_at, via: next, path }
        }
    }
}

/// The `RErr` for the first operand that names no AS.
fn unknown(id: u64, src: u32, dest: u32, avoid: Option<u32>, topo: &Topology) -> WireMsg {
    let missing = |asn: u32| topo.node(AsId(asn)).is_none();
    let msg = if missing(src) {
        format!("unknown source AS {src}")
    } else if missing(dest) {
        format!("unknown destination AS {dest}")
    } else {
        format!("unknown AS to avoid {}", avoid.unwrap())
    };
    WireMsg::RErr { id, msg }
}

/// Every request over `asns` (all pairs, each kind, every third AS
/// avoided), plus the `RErr` cases, answered twice through
/// [`answer_frame`] — the second pass from the cache, if the engine has
/// one — frame for frame against the owned encoding.
fn frames_equal_the_owned_encoding(s: &Served, oracle: &Engine<RouteTableSet>, asns: &[u32]) -> usize {
    let ghost = asns.iter().max().unwrap() + 1_000_000;
    let mut requests = Vec::new();
    let mut id = 0;
    let mut next_id = || {
        id += 1;
        id
    };
    for &src in asns {
        for &dest in asns {
            requests.push(WireMsg::NextHop { id: next_id(), src, dest });
            requests.push(WireMsg::Path { id: next_id(), src, dest });
            for &avoid in asns.iter().step_by(3).chain([&src, &dest]) {
                requests.push(WireMsg::Alternate { id: next_id(), src, dest, avoid });
            }
        }
    }
    let (a, b) = (asns[0], asns[asns.len() - 1]);
    requests.extend([
        WireMsg::NextHop { id: next_id(), src: ghost, dest: b },
        WireMsg::Path { id: next_id(), src: a, dest: ghost },
        WireMsg::Alternate { id: next_id(), src: a, dest: b, avoid: ghost },
    ]);

    let (mut scratch, mut oracle_scratch, mut out) = (QueryScratch::new(), QueryScratch::new(), Vec::new());
    for _pass in 0..2 {
        for msg in &requests {
            out.clear();
            assert!(answer_frame(&s.engine, &mut scratch, &encode_payload(msg), &mut out).unwrap().is_none());
            let owned = owned_reply(oracle, &mut oracle_scratch, msg);
            assert_eq!(out, encode_raw_frame(&encode_payload(&owned)), "{msg:?} -> {owned:?}");
        }
    }
    requests.len()
}

#[test]
fn every_reply_frame_is_the_owned_encoding_on_figure_1_1_and_tiny() {
    // Figure 1.1: all six ASes served.
    let (topo, _) = figure_1_1();
    let all: Vec<NodeId> = topo.nodes().collect();
    let oracle = Engine::new(RouteTableSet::from_solves(&topo, &all, 1), topo.clone(), None).unwrap();
    let asns: Vec<u32> = all.iter().map(|&n| topo.asn(n).0).collect();
    for cached in [false, true] {
        frames_equal_the_owned_encoding(&Served::new("fig", topo.clone(), &all, cached), &oracle, &asns);
    }

    // Tiny: every other node served, so half the destinations have no row.
    let topo = GenParams::tiny(11).generate();
    let served: Vec<NodeId> = topo.nodes().step_by(2).collect();
    let oracle = Engine::new(RouteTableSet::from_solves(&topo, &served, 1), topo.clone(), None).unwrap();
    let asns: Vec<u32> = topo.nodes().step_by(7).map(|n| topo.asn(n).0).collect();
    for cached in [false, true] {
        let n = frames_equal_the_owned_encoding(&Served::new("tiny", topo.clone(), &served, cached), &oracle, &asns);
        assert!(n > 1_000, "{n} requests");
    }

    // The error cases are all in there: check their texts once.
    let mut scratch = QueryScratch::new();
    let (a, b) = (asns[0], asns[1]);
    for (msg, says) in [
        (WireMsg::Path { id: 1, src: a, dest: 1 << 30 }, "unknown destination AS"),
        (WireMsg::Alternate { id: 2, src: a, dest: a, avoid: a }, "cannot avoid the source"),
        (WireMsg::NextHop { id: 3, src: a, dest: b }, "has no row"),
    ] {
        let WireMsg::RErr { msg, .. } = owned_reply(&oracle, &mut scratch, &msg) else {
            panic!("{msg:?} is not an error")
        };
        assert!(msg.contains(says), "{msg}");
    }
}
