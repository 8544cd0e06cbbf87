//! The served alternate is Chapter 5's `/a` on-path negotiation.
//!
//! `miro serve` answers "reach D while avoiding X" by splicing installed
//! routes out of table rows (`serve::query::Engine::alternate`); Chapter
//! 5 asks the same question through `ResponderConfig::offers`
//! (`eval::avoid::probe_triple`). On every (src, dst, X on src's default
//! path) of `figure_1_1`, every third destination of three
//! `GenParams::tiny` graphs, and a destination and source stride of Gao
//! 2005 at the evaluation's scale:
//!
//! * (a) the served `Alternate { via: Some(_) }` / `NoAlternate` is the
//!   probe's `/a` success bit;
//! * (b) the splice point is the source when an ordinary candidate
//!   already avoids X, else the first responder in contact order that
//!   succeeds under `/a`;
//! * (c) the served tail is one of that AS's `/a` offers (the source's
//!   own candidates at the source), and avoids X;
//! * (d) under every level, an on-path responder's admitted offer
//!   spliced after the source's default prefix repeats no AS — why
//!   neither side needs a loop check.
//!
//! The `/e` and `/s` disagreements are printed, not asserted: serving
//! answers under `/a`, the paper's upper bound over installed routes.

use miro_bgp::engine::{par_over_dests_whatif, WhatIf};
use miro_core::export::{ExportPolicy, Offer, ResponderConfig};
use miro_eval::avoid::probe_triple;
use miro_eval::datasets::{Dataset, EvalConfig};
use miro_serve::query::{Engine, Query, QueryScratch, Reply};
use miro_shard::format::RouteTableSet;
use miro_topology::gen::{figure_1_1, DatasetPreset, GenParams};
use miro_topology::{NodeId, Topology};

/// Triples checked, and how many disagree with the served answer under
/// `/s` and `/e`.
#[derive(Default)]
struct Tally {
    triples: usize,
    strict_differs: usize,
    export_differs: usize,
}

/// Check every triple toward one destination; `srcs` strides the sources.
fn check_dest(engine: &Engine<RouteTableSet>, wi: &mut WhatIf<'_, '_>, srcs: usize) -> Tally {
    let mut tally = Tally::default();
    let mut scratch = QueryScratch::new();
    let dest = wi.base().dest();
    let levels = ExportPolicy::ALL.map(|policy| ResponderConfig { policy, ..Default::default() });
    let topo = wi.base().topology();
    for src in topo.nodes().step_by(srcs).filter(|&s| s != dest) {
        let Some(default) = wi.base().path(src) else { continue };
        let avoidable = &default[..default.len() - 1];
        // Each on-path AS's offers to `src` under each level; the same
        // whichever AS further down is avoided.
        let offers: Vec<[Vec<Offer>; 3]> = avoidable
            .iter()
            .map(|&r| levels.each_ref().map(|cfg| cfg.offers(wi.base(), src, r, false)))
            .collect();
        // (d) An offer of the k-th on-path AS that avoids some AS after
        // it, spliced after `src`'s prefix, repeats no AS.
        for (k, level_offers) in offers.iter().enumerate() {
            for offer in level_offers.iter().flatten() {
                let path = &offer.route.path;
                if avoidable[k + 1..].iter().all(|x| path.contains(x)) {
                    continue;
                }
                let spliced: Vec<NodeId> =
                    [src].iter().chain(&default[..=k]).chain(path).copied().collect();
                let mut sorted = spliced.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), spliced.len(), "{src} -> {dest}: {spliced:?} loops");
            }
        }
        for &avoid in avoidable {
            let reply = engine.reply(Query::Alternate { src, dest, avoid }, &mut scratch);
            let served = match reply {
                Ok(Reply::Alternate { via: Some(via) }) => Some(via),
                Ok(Reply::NoAlternate) => None,
                other => panic!("{src} -> {dest} avoiding {avoid}: {other:?}"),
            };
            let probe = probe_triple(wi, src, avoid);
            let at = format!("{src} -> {dest} avoiding {avoid}");
            // (a)
            assert_eq!(served.is_some(), probe.success(2, None), "{at}");
            tally.triples += 1;
            tally.strict_differs += usize::from(served.is_some() != probe.success(0, None));
            tally.export_differs += usize::from(served.is_some() != probe.success(1, None));
            let Some((v, _)) = served else { continue };
            // (b)
            let first = if probe.single {
                src
            } else {
                probe.responders.iter().find(|r| r.success[2]).expect("a success").node
            };
            assert_eq!(v, first, "{at}");
            // (c)
            let path = scratch.path();
            let vi = path.iter().position(|&x| x == v).expect("the splice point is on the path");
            let tail = &path[vi + 1..];
            let held = if v == src {
                wi.base().candidates(src).iter().any(|c| c.path == tail)
            } else {
                offers[vi - 1][2].iter().any(|o| o.route.path == tail)
            };
            assert!(held, "{at}: served tail {tail:?} is not one of {v}'s routes");
            assert!(!tail.contains(&avoid), "{at}");
        }
    }
    tally
}

/// Every triple toward `dests` (every `srcs`-th source) of `topo`.
fn check(name: &str, topo: &Topology, dests: &[NodeId], srcs: usize) -> Tally {
    let set = RouteTableSet::from_solves(topo, dests, 2);
    let engine = Engine::new(set, topo.clone(), None).expect("the table's own topology");
    let per_dest = par_over_dests_whatif(topo, dests, 2, |_, wi| check_dest(&engine, wi, srcs));
    let mut tally = Tally::default();
    for t in per_dest {
        tally.triples += t.triples;
        tally.strict_differs += t.strict_differs;
        tally.export_differs += t.export_differs;
    }
    println!(
        "{name}: {} triples; served differs from /s on {}, from /e on {}",
        tally.triples, tally.strict_differs, tally.export_differs
    );
    tally
}

#[test]
fn served_alternate_is_chapter_5_flexible_on_path_answer() {
    let fig = figure_1_1().0;
    let all: Vec<NodeId> = fig.nodes().collect();
    assert!(check("figure_1_1", &fig, &all, 1).triples > 0);
    for seed in 1..=3 {
        let tiny = GenParams::tiny(seed).generate();
        let dests: Vec<NodeId> = tiny.nodes().step_by(3).collect();
        assert!(check(&format!("tiny({seed})"), &tiny, &dests, 1).triples > 1000);
    }
    let gao = Dataset::build(DatasetPreset::Gao2005, &EvalConfig::default()).topo;
    let dests: Vec<NodeId> = gao.nodes().step_by(47).collect();
    assert!(check("Gao 2005 5%", &gao, &dests, 11).triples > 1000);
}
