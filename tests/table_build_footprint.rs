//! Tier-1 pin of what the in-process table build holds: a route is one
//! cell from solve to file image. `RouteTableSet::from_solves` writes
//! each solved row straight into its slot of one presized image, so its
//! peak live heap is the image plus each solving thread's arenas — not
//! per-row copies, and not a second table beside the file bytes.
//! `decode` verifies, then keeps one copy of the bytes — plus the
//! embedded sections parsed to resolve slots and derive sinks: the
//! file's adjacency sections and under two bytes per AS (a rank byte,
//! and a slot limit per transit AS), an index, not row data.
//!
//! Live heap is counted by a global allocator over every thread (the
//! build's workers allocate on their own), so this binary holds one test.

use miro_shard::format::RouteTableSet;
use miro_shard::sample_dests;
use miro_topology::DatasetPreset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the most heap it held live above what was live
/// when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// One thread's solve and delta arenas hold about 28 bytes per node
/// (cells, sweep words, offer keys, pending and routed lists, change-log
/// marks); 32 leaves room for the per-call lists.
const ARENA_BYTES_PER_NODE: usize = 32;

#[test]
fn the_in_process_build_holds_one_image_and_decode_one_copy() {
    let topo = DatasetPreset::Gao2005.params(0.05, 42).generate();
    let n = topo.num_nodes();
    let dests = sample_dests(n, 256);
    for threads in [1, 2, 4] {
        let (set, built) = peak_of(|| RouteTableSet::from_solves(&topo, &dests, threads));
        let file_len = set.as_bytes().len();
        let budget = file_len + file_len / 4 + threads * ARENA_BYTES_PER_NODE * n;
        assert!(
            built <= budget,
            "{threads} threads: from_solves peaked at {built} B live for a {file_len} B file (budget {budget} B)"
        );

        let bytes = set.encode();
        let (decoded, held) = peak_of(|| RouteTableSet::decode(&bytes));
        assert_eq!(decoded.as_ref(), Ok(&set));
        let adjacency = set.layout().sums_at() - set.layout().adjacency_at() + 2 * n;
        let budget = file_len + 4 * dests.len() + adjacency + 1024;
        assert!(
            held <= budget,
            "decode peaked at {held} B live for a {file_len} B file (budget {budget} B)"
        );
    }
}
