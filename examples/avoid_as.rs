//! The avoid-AS application (section 5.3) on a synthetic Internet:
//! find real (source, destination, offender) cases, compare single-path
//! BGP, MIRO under each export policy, and source routing — then show
//! what incremental deployment does to the same cases.
//!
//! ```sh
//! cargo run --release --example avoid_as
//! ```

use miro_bgp::solver::RoutingState;
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_core::strategy::{avoid_via_negotiation, avoidable_ases, TargetStrategy};
use miro_topology::gen::DatasetPreset;
use miro_topology::stats::top_degree_nodes;
use std::fmt::Write as _;

fn main() {
    let mut out = String::new();
    run(&mut out);
    print!("{out}");
}

/// The case study; its text is pinned in `data/golden/avoid_as.txt`.
pub fn run(out: &mut String) {
    let topo = DatasetPreset::Gao2005.params(0.03, 42).generate();
    let _ = writeln!(
        out,
        "Synthetic 'Gao 2005' at 3% scale: {} ASes, {} links.\n",
        topo.num_nodes(),
        topo.num_edges()
    );

    // Hunt for an interesting case: single-path fails, MIRO saves it.
    let mut case = None;
    'outer: for dest in topo.nodes().step_by(7) {
        let st = RoutingState::solve(&topo, dest);
        for src in topo.nodes().step_by(11) {
            for avoid in avoidable_ases(&st, src) {
                let single = st.candidates(src).iter().any(|c| !c.traverses(avoid));
                let multi = avoid_via_negotiation(
                    &st,
                    src,
                    avoid,
                    &ResponderConfig::default(),
                    TargetStrategy::OnPath,
                    None,
                );
                if !single && multi.success {
                    case = Some((dest, src, avoid));
                    break 'outer;
                }
            }
        }
    }
    let Some((dest, src, avoid)) = case else {
        out.push_str("no suitable case found at this scale/seed; try another seed\n");
        return;
    };

    let st = RoutingState::solve(&topo, dest);
    let asn = |n| topo.asn(n);
    let _ = writeln!(
        out,
        "Case: AS{} -> AS{} must avoid AS{} (on its default path {:?})\n",
        asn(src),
        asn(dest),
        asn(avoid),
        st.path(src)
            .expect("routed")
            .iter()
            .map(|&h| asn(h).0)
            .collect::<Vec<_>>()
    );

    let _ = writeln!(out, "{:<34} {:<9} {:>10} {:>12}", "architecture / policy", "success", "ASes asked", "paths seen");
    let single = st.candidates(src).iter().any(|c| !c.traverses(avoid));
    let _ = writeln!(out, "{:<34} {:<9} {:>10} {:>12}", "single-path BGP", single, "-", "-");
    for policy in ExportPolicy::ALL {
        let cfg = ResponderConfig { policy, ..Default::default() };
        let o = avoid_via_negotiation(&st, src, avoid, &cfg, TargetStrategy::OnPath, None);
        let _ = writeln!(
            out,
            "{:<34} {:<9} {:>10} {:>12}",
            format!("MIRO {} (on-path negotiation)", policy.label()),
            o.success,
            o.ases_contacted,
            o.paths_received
        );
        if let Some((responder, route)) = &o.chosen {
            let _ = writeln!(
                out,
                "     -> bought from AS{}: path {:?} ({:?})",
                asn(*responder),
                route.path.iter().map(|&h| asn(h).0).collect::<Vec<_>>(),
                route.class
            );
        }
    }
    let source_ok = topo.reachable_avoiding(src, dest, avoid);
    let _ = writeln!(out, "{:<34} {:<9} {:>10} {:>12}", "source routing (any graph path)", source_ok, "-", "-");

    // Incremental deployment: does this case survive when only the top-k%
    // highest-degree ASes speak MIRO?
    out.push_str("\nIncremental deployment (high-degree ASes adopt first):\n");
    for frac in [0.002, 0.01, 0.05, 0.25, 1.0] {
        let k = ((topo.num_nodes() as f64 * frac).ceil() as usize).max(1);
        let mut mask = vec![false; topo.num_nodes()];
        for n in top_degree_nodes(&topo, k) {
            mask[n as usize] = true;
        }
        let o = avoid_via_negotiation(
            &st,
            src,
            avoid,
            &ResponderConfig { policy: ExportPolicy::Flexible, ..Default::default() },
            TargetStrategy::OnPath,
            Some(&mask),
        );
        let _ = writeln!(
            out,
            "  {:>5.1}% of ASes deployed ({} ASes): negotiated success = {}",
            frac * 100.0,
            k,
            o.success
        );
    }
}
