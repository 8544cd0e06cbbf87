//! The read-mostly hot cache in front of the mmap'd table.
//!
//! Query traffic is Zipf-skewed (a handful of popular (src, dest) pairs
//! dominate), so a small cache absorbs most path reconstructions and
//! alternate searches before they touch the map. The design goals are
//! *bounded memory* and *bounded contention*, not perfect hit rate:
//!
//! * **Striping** — the key hash picks one of N independently locked
//!   stripes, so 64 concurrent connections contend on a stripe each,
//!   not one global lock. Stripes use plain `Mutex`es: the critical
//!   section is a probe or a copy of a few-hop path, tens of
//!   nanoseconds, and a read-write lock's bookkeeping would cost more
//!   than it saves at that hold time.
//! * **Direct-mapped slots** — each stripe is a fixed slot array
//!   indexed by a second slice of the hash. A colliding insert simply
//!   replaces the slot (evicting whatever was there). No LRU lists, and
//!   a hot key can only be displaced by a hash-colliding key — which
//!   Zipf traffic makes rare for exactly the keys that matter.
//! * **Inline answers** — a slot holds the key, the reply head and up to
//!   [`SLOT_PATH`] path nodes by value, so a put copies in and a get
//!   copies out and neither allocates. An answer with a longer path is
//!   not cached (counted in [`CacheStats::too_long`]).
//!
//! Correctness does not depend on the cache: entries are pure function
//! values of (table, topology, query), inserted complete, and replaced
//! atomically under the stripe lock. The torture test hammers this from
//! 8 threads and asserts bit-identical answers with and without it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::query::{Answer, Query, Reply};
use miro_topology::NodeId;

/// Path nodes a slot holds inline; a longer answer is recomputed, not cached.
pub const SLOT_PATH: usize = 14;

/// One cached entry: the full query (the key — hash collisions must not
/// alias answers), the reply head and the path's first `len` nodes.
#[derive(Clone, Copy)]
struct Slot {
    key: Query,
    reply: Reply,
    len: u8,
    path: [NodeId; SLOT_PATH],
}

/// Monotonic cache counters (relaxed loads/stores: metrics only).
#[derive(Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    /// Puts refused because the path is longer than [`SLOT_PATH`].
    pub too_long: AtomicU64,
}

/// A striped, direct-mapped, bounded answer cache.
pub struct ShardedCache {
    stripes: Vec<Mutex<Box<[Option<Slot>]>>>,
    slots_per_stripe: usize,
    pub stats: CacheStats,
}

impl ShardedCache {
    /// `stripes` independently locked segments of `slots_per_stripe`
    /// direct-mapped slots each (total capacity = product). Both are
    /// clamped to at least 1.
    pub fn new(stripes: usize, slots_per_stripe: usize) -> ShardedCache {
        let stripes = stripes.max(1);
        let slots = slots_per_stripe.max(1);
        ShardedCache {
            stripes: (0..stripes).map(|_| Mutex::new(vec![None; slots].into())).collect(),
            slots_per_stripe: slots,
            stats: CacheStats::default(),
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.stripes.len() * self.slots_per_stripe
    }

    /// Stripe and slot for a key: low hash bits pick the slot, high bits
    /// the stripe, so the two indices stay decorrelated even when the
    /// stripe count and slot count share factors.
    fn place(&self, q: &Query) -> (usize, usize) {
        let h = q.cache_hash();
        let stripe = ((h >> 33) as usize) % self.stripes.len();
        let slot = (h as usize) % self.slots_per_stripe;
        (stripe, slot)
    }

    /// Probe: on a hit the reply head is returned and its path copied
    /// into `path`. A slot holding a different (colliding) key is a miss.
    pub fn get_into(&self, q: &Query, path: &mut Vec<NodeId>) -> Option<Reply> {
        let (stripe, slot) = self.place(q);
        let hit = self.stripes[stripe].lock().unwrap()[slot].filter(|s| s.key == *q);
        let counter = if hit.is_some() { &self.stats.hits } else { &self.stats.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let s = hit?;
        path.clear();
        path.extend_from_slice(&s.path[..s.len as usize]);
        Some(s.reply)
    }

    /// [`ShardedCache::get_into`] as an owned answer.
    pub fn get(&self, q: &Query) -> Option<Answer> {
        let mut path = Vec::new();
        self.get_into(q, &mut path).map(|r| r.to_answer(&path))
    }

    /// Insert by copy, replacing (and counting as an eviction) any
    /// different key occupying the slot. A path longer than
    /// [`SLOT_PATH`] is not cached.
    pub fn put_from(&self, q: &Query, reply: Reply, path: &[NodeId]) {
        if path.len() > SLOT_PATH {
            self.stats.too_long.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut entry = Slot { key: *q, reply, len: path.len() as u8, path: [0; SLOT_PATH] };
        entry.path[..path.len()].copy_from_slice(path);
        let (stripe, slot) = self.place(q);
        let mut guard = self.stripes[stripe].lock().unwrap();
        let evicted = matches!(&guard[slot], Some(s) if s.key != *q);
        guard[slot] = Some(entry);
        drop(guard);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`ShardedCache::put_from`] from an owned answer.
    pub fn put(&self, q: &Query, answer: Answer) {
        let (reply, path) = answer.parts();
        self.put_from(q, reply, path);
    }

    /// Hit fraction so far (0 when unqueried).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.stats.hits.load(Ordering::Relaxed) as f64;
        let misses = self.stats.misses.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_evict_accounting() {
        let c = ShardedCache::new(2, 4);
        assert_eq!(c.capacity(), 8);
        let q1 = Query::Path { src: 1, dest: 2 };
        assert_eq!(c.get(&q1), None);
        c.put(&q1, Answer::Unrouted);
        assert_eq!(c.get(&q1), Some(Answer::Unrouted));
        assert_eq!(c.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats.misses.load(Ordering::Relaxed), 1);
        // Re-inserting the same key is not an eviction.
        c.put(&q1, Answer::Unrouted);
        assert_eq!(c.stats.evictions.load(Ordering::Relaxed), 0);
        assert!(c.hit_rate() > 0.0);
    }

    #[test]
    fn colliding_keys_replace_but_never_alias() {
        // Tiny cache: one stripe, one slot — everything collides.
        let c = ShardedCache::new(1, 1);
        let q1 = Query::Path { src: 1, dest: 2 };
        let q2 = Query::Path { src: 3, dest: 4 };
        c.put(&q1, Answer::Path { path: vec![1, 2] });
        c.put(&q2, Answer::Path { path: vec![3, 4] });
        // q1 was evicted; the slot must answer only q2.
        assert_eq!(c.get(&q1), None);
        assert_eq!(c.get(&q2), Some(Answer::Path { path: vec![3, 4] }));
        assert_eq!(c.stats.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_path_longer_than_a_slot_is_counted_not_cached() {
        let c = ShardedCache::new(1, 4);
        let q = Query::Path { src: 0, dest: SLOT_PATH as NodeId };
        let fits: Vec<NodeId> = (1..=SLOT_PATH as NodeId).collect();
        c.put(&q, Answer::Path { path: fits.clone() });
        assert_eq!(c.get(&q), Some(Answer::Path { path: fits }));
        let long: Vec<NodeId> = (0..=SLOT_PATH as NodeId).collect();
        c.put(&q, Answer::Path { path: long });
        assert_eq!(c.stats.too_long.load(Ordering::Relaxed), 1);
        // The refused put left the slot as it was.
        assert_eq!(c.get(&q).map(|a| a.parts().1.len()), Some(SLOT_PATH));
    }
}
