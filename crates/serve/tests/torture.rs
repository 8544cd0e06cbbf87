//! Concurrent-read torture: 8 threads hammer one shared engine — mmap
//! reader, first-touch row verification, and a deliberately undersized
//! hot cache — and every thread's answers must be bit-identical to a
//! single-threaded, cache-free ground truth.
//!
//! This is the test that makes the "validate once, then borrow" design
//! honest: the atomic row-verified bitmap, the cache stripes, and the
//! per-thread scratch must not let interleaving change any answer.

use miro_serve::cache::ShardedCache;
use miro_serve::mmap::MappedTable;
use miro_serve::query::{Answer, Engine, Query, QueryError, QueryScratch};
use miro_shard::format::RouteTableSet;
use miro_shard::sample_dests;
use miro_topology::gen::GenParams;
use miro_topology::NodeId;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

/// xorshift64* — deterministic query traffic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A fixed, skewed query workload: heavy repetition of a few pairs (so
/// the cache is exercised) plus a uniform tail (so it keeps evicting).
fn workload(num_nodes: u32, dests: &[NodeId], count: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng(seed | 1);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        // Every 4th query draws from a hot set of 8 pairs.
        let (src, dest) = if i % 4 != 0 {
            let k = (rng.next() % 8) as u32;
            (k * 3 % num_nodes, dests[(k as usize) % dests.len()])
        } else {
            ((rng.next() % num_nodes as u64) as u32, dests[(rng.next() as usize) % dests.len()])
        };
        out.push(match i % 10 {
            0..=4 => Query::NextHop { src, dest },
            5..=7 => Query::Path { src, dest },
            _ => {
                let avoid = ((src as u64 + 1 + rng.next() % (num_nodes as u64 - 1))
                    % num_nodes as u64) as u32;
                Query::Alternate { src, dest, avoid }
            }
        });
    }
    out
}

#[test]
fn eight_threads_match_single_threaded_ground_truth() {
    const THREADS: usize = 8;
    const QUERIES: usize = 6_000;

    let topo = GenParams::tiny(11).generate();
    let dests = sample_dests(topo.num_nodes(), 24);
    let set = RouteTableSet::from_solves(&topo, &dests, 2);
    let path = std::env::temp_dir()
        .join(format!("miro_torture_{}.mirt", std::process::id()));
    std::fs::write(&path, set.encode()).unwrap();

    let queries = workload(topo.num_nodes() as u32, &dests, QUERIES, 0xBEEF);

    // Ground truth: in-memory table, no cache, one thread.
    let truth_engine = Engine::new(set, topo.clone(), None).unwrap();
    let mut scratch = QueryScratch::new();
    let truth: Vec<Result<Answer, QueryError>> =
        queries.iter().map(|&q| truth_engine.answer(q, &mut scratch)).collect();

    // Torture target: mmap'd table behind a cache far too small for the
    // working set (2 stripes x 8 slots vs ~thousands of distinct keys),
    // so hits, misses, and evictions all happen under contention.
    let mapped = MappedTable::open(&path).unwrap();
    let engine =
        Arc::new(Engine::new(mapped, topo, Some(ShardedCache::new(2, 8))).unwrap());

    // All eight threads leave the barrier together, so their first
    // touches of the 24 rows collide on purpose: `rows_verified` below
    // must count each row once however many threads verified it.
    let start = Barrier::new(THREADS);
    let results: Vec<Vec<Result<Answer, QueryError>>> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let engine = engine.clone();
                let (queries, start) = (&queries, &start);
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    start.wait();
                    // Each thread walks the same list from a different
                    // offset, maximizing cache interleaving; answers are
                    // collected back in list order for comparison.
                    let mut out = vec![None; queries.len()];
                    for i in 0..queries.len() {
                        let j = (i + t * queries.len() / THREADS) % queries.len();
                        out[j] = Some(engine.answer(queries[j], &mut scratch));
                    }
                    out.into_iter().map(Option::unwrap).collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    for (t, thread_answers) in results.iter().enumerate() {
        for (i, (got, want)) in thread_answers.iter().zip(&truth).enumerate() {
            assert_eq!(got, want, "thread {t}, query {i} ({:?})", queries[i]);
        }
    }

    // The run must actually have tortured what it claims to torture.
    let cache = engine.cache().unwrap();
    assert!(cache.stats.hits.load(Ordering::Relaxed) > 0, "no cache hits");
    assert!(cache.stats.evictions.load(Ordering::Relaxed) > 0, "no evictions");
    assert_eq!(
        engine.table().rows_verified(),
        dests.len() as u64,
        "every row should have been first-touch verified"
    );
    std::fs::remove_file(&path).ok();
}
