//! Layer probes more than one workload's traced pass uses.

use crate::ctx::{timed, Layers};
use crate::stats::fast_cost;
use crate::trace::Tracer;
use miro_bgp::solver::SolveScratch;
use miro_bgp::RoutingState;
use miro_serve::mmap::MappedTable;
use miro_serve::{RowRead, TableSource};
use miro_shard::format::RouteTableSet;
use miro_topology::{NodeId, Topology};
use std::hint::black_box;
use std::path::Path;

/// `serve.mmap`: both ways of opening `table`, then every row touched
/// for the first time (checksummed) and again (borrowed).
pub fn mmap(table: &Path, tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let (opened, verified_s) = tr.span("serve.mmap.open_verified", 0, |_| {
        timed(|| MappedTable::open(table))
    });
    drop(opened?);
    let (opened, unverified_s) = tr.span("serve.mmap.open_unverified", 0, |_| {
        timed(|| MappedTable::open_unverified(table))
    });
    let map = opened?;
    let rows = map.dests().len();
    let touch_all = || -> Result<u32, String> {
        let mut acc = 0u32;
        for i in 0..rows {
            acc = acc.wrapping_add(map.row(i)?.next(0));
        }
        Ok(acc)
    };
    let (first, first_s) = tr.span("serve.mmap.row_first_touch", 0, |_| timed(touch_all));
    let (warm, warm_s) = tr.span("serve.mmap.row_warm", 0, |_| timed(touch_all));
    if black_box(first?) != black_box(warm?) {
        return Err("mapped rows changed between two reads".to_string());
    }
    out.insert("serve.mmap.open_verified_ms", verified_s * 1e3);
    out.insert("serve.mmap.open_unverified_ms", unverified_s * 1e3);
    out.insert("serve.mmap.row_first_touch_us", first_s * 1e6 / rows as f64);
    out.insert("serve.mmap.row_warm_ns", warm_s * 1e9 / rows as f64);
    Ok(())
}

/// Times each in-process reference is taken; the fastest is reported,
/// as a pass reports its rounds ([`fast_cost`]). One shot of a call this
/// short (tens of milliseconds) moved by 40% between two probes of the
/// same run, and a 19 MB file write between 12 and 81 ms.
pub const REFERENCE_REPS: usize = 3;

/// `bgp.solver` / `bgp.engine`: the per-destination solve + row
/// extraction on one thread, and what a second thread buys. Returns the
/// table of `dests` and the seconds `from_solves` takes on one thread.
pub fn solver(
    topo: &Topology,
    dests: &[NodeId],
    tr: &mut Tracer,
    out: &mut Layers,
) -> (RouteTableSet, f64) {
    let n = topo.num_nodes();
    let ((), solve_s) = tr.span("bgp.solver.solve_into", 0, |_| {
        timed(|| {
            let mut scratch = SolveScratch::for_nodes(n);
            let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
            for &d in dests {
                let st = RoutingState::solve_into(topo, d, &mut scratch);
                st.write_table_row(&mut next, &mut hops, &mut class);
                black_box((&next, &hops, &class));
                st.recycle(&mut scratch);
            }
        })
    });
    out.insert(
        "bgp.solver.solve_us_per_dest",
        solve_s * 1e6 / dests.len() as f64,
    );
    // Alternated, so a slow spell of the host falls on both.
    let (mut one_s, mut two_s) = (Vec::new(), Vec::new());
    let mut set = None;
    for _ in 0..REFERENCE_REPS {
        let (one, s) = tr.span("bgp.engine.from_solves_1t", 0, |_| {
            timed(|| RouteTableSet::from_solves(topo, dests, 1))
        });
        one_s.push(s);
        let (two, s) = tr.span("bgp.engine.from_solves_2t", 0, |_| {
            timed(|| RouteTableSet::from_solves(topo, dests, 2))
        });
        two_s.push(s);
        black_box(two);
        set = Some(one);
    }
    let one_s = fast_cost(&one_s);
    out.insert("bgp.engine.par_speedup_2t", one_s / fast_cost(&two_s));
    (set.expect("REFERENCE_REPS > 0"), one_s)
}
