//! Golden churn-trace fixture pins: `data/churn_sample.mct` is a
//! committed MCT1 trace (gao2005 factor=0.01, seed=20060911, 2000
//! events). The pins below are exact — event mix, batching shape, the
//! delta-replay table digest, and the simulator's convergence-lag
//! distribution. If the trace format, the generator's stream, or the
//! solver's delta semantics drift, this fails before CI's churn smoke
//! does. Regenerate with:
//!
//! ```text
//! miro churn gen data/churn_sample.mct --preset gao2005 --factor 0.01 \
//!     --seed 20060911 --events 2000
//! ```
//!
//! and re-pin only when the change is intentional.

use miro_churn::replay::{replay_delta, replay_sim, BatchMode};
use miro_churn::trace::Trace;

fn golden() -> Trace {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/churn_sample.mct");
    let bytes = std::fs::read(path).expect("golden fixture data/churn_sample.mct");
    Trace::decode(&bytes).expect("golden fixture decodes")
}

#[test]
fn golden_trace_counts_are_pinned() {
    let trace = golden();
    assert_eq!(trace.events.len(), 2000);
    assert_eq!(trace.kind_counts(), (962, 734, 197, 107));
    assert_eq!(trace.batches().count(), 1291);
    assert_eq!(trace.duration_ms(), 88_822);
    let topo = trace.topology().expect("embedded topology parses");
    assert_eq!((topo.num_nodes(), topo.num_edges()), (209, 451));
}

#[test]
fn golden_trace_replay_is_pinned() {
    let trace = golden();
    let serial = replay_delta(&trace, BatchMode::Serial, 4).unwrap();
    let batched = replay_delta(&trace, BatchMode::Batched, 4).unwrap();
    // The equivalence contract, on the committed workload…
    assert_eq!(serial.table_fnv, batched.table_fnv);
    // …and the exact digest: trace bytes + delta semantics, jointly.
    assert_eq!(batched.table_fnv, 0x1ff2aa02af4153dc, "{:#018x}", batched.table_fnv);
    assert_eq!((batched.downs, batched.ups, batched.cancelled), (3696, 2784, 136));
    // Restorations retire and re-drain; the full masked re-solve is only
    // the work-budget fallback, which a 209-node graph with hub
    // destinations still trips a handful of times. (A batch's failure
    // cone counts against the same budget, hence one more when batched.)
    assert_eq!((serial.full_resolves, batched.full_resolves), (5, 6));
    assert_eq!((serial.recomputed, batched.recomputed), (62_256, 57_137));
    assert_eq!(
        (batched.restore_rounds_p50, batched.restore_rounds_p95, batched.restore_rounds_max),
        (0, 2, 3)
    );
    // The real handshake: 8 standing avoid-AS requests per destination,
    // `routes_changed` after every batch that toggled a link, each struck
    // requester re-asking at once. Leases are swept per batch against a
    // table both modes agree on, so the counts are equal.
    for r in [&serial, &batched] {
        assert_eq!((r.tunnel_teardowns, r.tunnel_renegotiations), (108, 76), "{}", r.mode.name());
    }
}

#[test]
fn golden_trace_convergence_is_pinned() {
    let trace = golden();
    // Seed 42 is the `miro churn replay --mode sim` default.
    let sim = replay_sim(&trace, 42, 2_000_000).unwrap();
    assert_eq!(sim.diverged_batches, 0, "every batch must reconverge");
    assert_eq!((sim.lag_p50, sim.lag_p95, sim.lag_max), (0, 8, 826));
    assert_eq!(sim.batches, 1291);
}
