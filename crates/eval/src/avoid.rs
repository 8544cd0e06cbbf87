//! The avoid-AS experiments: Table 5.2 (success rates) and Table 5.3
//! (negotiation state), plus the per-triple probes reused by the
//! incremental-deployment experiment (Figures 5.4/5.5).
//!
//! For every sampled (source, destination, AS-to-avoid) triple — where the
//! avoided AS sits on the source's default path, is not the destination,
//! and is not an immediate neighbor of the source (section 5.3's
//! exclusions) — we measure whether each routing architecture can meet the
//! objective:
//!
//! * **Single** — today's BGP: some ordinary candidate at the source
//!   already avoids the AS;
//! * **Multi `/s` `/e` `/a`** — MIRO: negotiate with on-path ASes before
//!   the offender under each export policy;
//! * **Source** — source routing: any path at all exists in the undirected
//!   graph once the offender is deleted (the paper's DFS feasibility test).

use crate::datasets::{Dataset, EvalConfig};
use crate::driver;
use miro_bgp::engine::WhatIf;
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_core::negotiate::Constraint;
use miro_core::strategy::{avoidable_ases, TargetStrategy};
use miro_topology::NodeId;
use rand::Rng;
use serde::Serialize;

/// Everything a deployment mask could need to know about one triple: the
/// ordered on-path responders with, per policy, whether that responder's
/// offers contain an avoiding route and how many offers it makes.
#[derive(Clone, Debug)]
pub struct TripleProbe {
    pub src: NodeId,
    pub dest: NodeId,
    pub avoid: NodeId,
    /// Ordinary BGP already avoids the AS.
    pub single: bool,
    /// Source routing (graph feasibility) succeeds.
    pub source: bool,
    /// After failing the link entering the offender on the source's
    /// default path, BGP's reconverged route still reaches the
    /// destination.
    pub reroute_reaches: bool,
    /// ...and that reconverged route also happens to avoid the AS — the
    /// "wait for a fault" baseline the negotiation columns are compared
    /// against.
    pub reroute_avoids: bool,
    /// On-path responders in contact order.
    pub responders: Vec<ResponderProbe>,
}

/// One on-path responder's answer, per export policy (indexed by
/// [`ExportPolicy::ALL`] order: `/s`, `/e`, `/a`).
#[derive(Clone, Debug)]
pub struct ResponderProbe {
    pub node: NodeId,
    /// Offers each policy would reveal.
    pub offers: [u32; 3],
    /// Whether any offer avoids the offending AS.
    pub success: [bool; 3],
}

impl TripleProbe {
    /// Negotiated success under policy `p` (index into
    /// [`ExportPolicy::ALL`]) when only `enabled` ASes speak MIRO
    /// (`None` = ubiquitous deployment). Single-path successes count as
    /// successes without negotiation.
    pub fn success(&self, p: usize, enabled: Option<&[bool]>) -> bool {
        if self.single {
            return true;
        }
        self.responders.iter().any(|r| {
            r.success[p]
                && enabled.is_none_or(|m| m[r.node as usize])
        })
    }

    /// (ASes contacted, paths received) under policy `p` with ubiquitous
    /// deployment — the Table 5.3 metrics. Contacts stop at the first
    /// success.
    pub fn negotiation_state(&self, p: usize) -> (usize, usize) {
        let mut contacted = 0;
        let mut received = 0;
        for r in &self.responders {
            contacted += 1;
            received += r.offers[p] as usize;
            if r.success[p] {
                break;
            }
        }
        (contacted, received)
    }
}

/// Probe one triple against a destination's what-if cache. All the
/// negotiation columns read the cached base solve; the reroute columns
/// fail the link entering the offender on `src`'s default path and read
/// the incrementally re-solved state.
pub fn probe_triple(
    wi: &mut WhatIf<'_, '_>,
    src: NodeId,
    avoid: NodeId,
) -> TripleProbe {
    let (dest, single, source, responders, failed_link) = {
        let st = wi.base();
        let topo = st.topology();
        let single = st.candidates(src).iter().any(|c| !c.traverses(avoid));
        let source = topo.reachable_avoiding(src, st.dest(), avoid);
        let levels = ExportPolicy::ALL.map(|policy| ResponderConfig { policy, ..Default::default() });
        let mut responders = Vec::new();
        for responder in TargetStrategy::OnPath.targets(st, src, Some(avoid)) {
            let constraint = Constraint::AvoidAs(avoid);
            let mut offers = [0u32; 3];
            let mut success = [false; 3];
            for (i, cfg) in levels.iter().enumerate() {
                let os = cfg.offers(st, src, responder, false);
                offers[i] = os.len() as u32;
                success[i] = os.iter().any(|o| constraint.admits(o));
            }
            responders.push(ResponderProbe { node: responder, offers, success });
        }
        // The link carrying the default path into the offender: the hop
        // before `avoid` on src's path (src itself if the offender is the
        // first hop).
        let failed_link = st.path(src).and_then(|path| {
            let i = path.iter().position(|&x| x == avoid)?;
            Some((if i == 0 { src } else { path[i - 1] }, avoid))
        });
        (st.dest(), single, source, responders, failed_link)
    };
    let (reroute_reaches, reroute_avoids) = match failed_link {
        // Offender not on the default path at all: nothing to fail, the
        // default route already satisfies both conditions.
        None => (true, true),
        Some((prev, next)) => wi.without_link(prev, next, |failed| {
            let reaches = failed.best(src).is_some();
            (reaches, reaches && !failed.path_traverses(src, avoid))
        }),
    };
    TripleProbe {
        src,
        dest,
        avoid,
        single,
        source,
        reroute_reaches,
        reroute_avoids,
        responders,
    }
}

/// Sample and probe triples for one dataset. Destinations shard across
/// threads; within a destination we sample sources and, for each, one
/// eligible AS to avoid.
pub fn sample_probes(ds: &Dataset, cfg: &EvalConfig) -> Vec<TripleProbe> {
    let dests = driver::sample_dests(&ds.topo, cfg.dest_samples, cfg.seed);
    let per_dest = miro_bgp::engine::par_over_dests_whatif(&ds.topo, &dests, cfg.threads, |d, wi| {
        let mut rng = driver::rng_for(cfg.seed, d, 0x5_301);
        let mut out = Vec::new();
        for src in driver::sample_srcs(&ds.topo, d, cfg.src_samples, cfg.seed ^ 0xabc) {
            let eligible = avoidable_ases(wi.base(), src);
            if eligible.is_empty() {
                continue; // no intermediate AS to avoid
            }
            let avoid = eligible[rng.gen_range(0..eligible.len())];
            out.push(probe_triple(wi, src, avoid));
        }
        out
    });
    per_dest.into_iter().flatten().collect()
}

/// One row of Table 5.2 (percentages).
#[derive(Serialize, Clone, Debug)]
pub struct Table52Row {
    pub name: String,
    pub triples: usize,
    pub single_pct: f64,
    pub multi_s_pct: f64,
    pub multi_e_pct: f64,
    pub multi_a_pct: f64,
    pub source_pct: f64,
    /// Fraction whose post-failure BGP reroute happens to avoid the AS —
    /// the passive "break the link and pray" baseline MIRO negotiation is
    /// measured against.
    pub reroute_pct: f64,
}

/// Compute the Table 5.2 row for one dataset from its probes.
pub fn table5_2_row(name: &str, probes: &[TripleProbe]) -> Table52Row {
    let n = probes.len().max(1) as f64;
    let pct = |c: usize| 100.0 * c as f64 / n;
    Table52Row {
        name: name.to_string(),
        triples: probes.len(),
        single_pct: pct(probes.iter().filter(|p| p.single).count()),
        multi_s_pct: pct(probes.iter().filter(|p| p.success(0, None)).count()),
        multi_e_pct: pct(probes.iter().filter(|p| p.success(1, None)).count()),
        multi_a_pct: pct(probes.iter().filter(|p| p.success(2, None)).count()),
        source_pct: pct(probes.iter().filter(|p| p.source).count()),
        reroute_pct: pct(probes.iter().filter(|p| p.reroute_avoids).count()),
    }
}

/// One row of Table 5.3 (per policy, within one dataset).
#[derive(Serialize, Clone, Debug)]
pub struct Table53Row {
    pub policy: String,
    /// Overall negotiated success rate (same population as Table 5.2).
    pub success_pct: f64,
    /// Mean ASes contacted per single-path-failing tuple.
    pub as_per_tuple: f64,
    /// Mean candidate paths received per single-path-failing tuple.
    pub path_per_tuple: f64,
}

/// Compute Table 5.3 for one dataset: negotiation state over the tuples
/// single-path routing cannot satisfy (the paper eliminates the cases
/// "where today's single-path routing can succeed").
pub fn table5_3_rows(probes: &[TripleProbe]) -> Vec<Table53Row> {
    let all = probes.len().max(1) as f64;
    let need: Vec<&TripleProbe> = probes.iter().filter(|p| !p.single).collect();
    let m = need.len().max(1) as f64;
    ExportPolicy::ALL
        .iter()
        .enumerate()
        .map(|(i, policy)| {
            let succ = probes.iter().filter(|p| p.success(i, None)).count();
            let (ases, paths) = need.iter().fold((0usize, 0usize), |(a, p), t| {
                let (ta, tp) = t.negotiation_state(i);
                (a + ta, p + tp)
            });
            Table53Row {
                policy: format!("{}{}", policy_name(i), policy.label()),
                success_pct: 100.0 * succ as f64 / all,
                as_per_tuple: ases as f64 / m,
                path_per_tuple: paths as f64 / m,
            }
        })
        .collect()
}

fn policy_name(i: usize) -> &'static str {
    ["strict", "export", "flexible"][i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::gen::DatasetPreset;

    fn small_probes() -> (Dataset, Vec<TripleProbe>) {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build(DatasetPreset::Gao2005, &cfg);
        let probes = sample_probes(&ds, &cfg);
        (ds, probes)
    }

    #[test]
    fn probes_respect_sampling_invariants() {
        let (ds, probes) = small_probes();
        assert!(probes.len() > 30, "enough triples sampled: {}", probes.len());
        for p in &probes {
            assert_ne!(p.avoid, p.dest);
            assert_ne!(p.avoid, p.src);
            assert!(
                ds.topo.rel(p.src, p.avoid).is_none(),
                "avoided AS must not neighbor the source"
            );
        }
    }

    #[test]
    fn policy_success_is_monotone() {
        let (_, probes) = small_probes();
        for p in &probes {
            let s = p.success(0, None);
            let e = p.success(1, None);
            let a = p.success(2, None);
            assert!(!s || e, "strict success implies export success");
            assert!(!e || a, "export success implies flexible success");
        }
    }

    #[test]
    fn multi_success_implies_source_success() {
        // Any negotiated path is a real path in the graph avoiding the AS,
        // so the graph-feasibility test must also pass.
        let (_, probes) = small_probes();
        for p in &probes {
            if p.success(2, None) {
                assert!(p.source, "negotiated success but graph says impossible?");
            }
        }
    }

    #[test]
    fn reroute_success_implies_source_success() {
        // A post-failure route that avoids the AS is a concrete path in
        // the graph avoiding the AS.
        let (_, probes) = small_probes();
        let mut rerouted = 0;
        for p in &probes {
            assert!(!p.reroute_avoids || p.reroute_reaches);
            if p.reroute_avoids {
                rerouted += 1;
                assert!(p.source, "reroute avoids the AS but graph says impossible?");
            }
        }
        assert!(rerouted > 0, "some probe must reroute around its offender");
    }

    #[test]
    fn passive_reroute_trails_negotiation() {
        // Failing one link only sometimes dodges the AS; negotiating for
        // an avoiding path under the flexible policy must do better.
        let (ds, probes) = small_probes();
        let row = table5_2_row(ds.name(), &probes);
        assert!(row.reroute_pct <= row.source_pct + 1e-9);
        assert!(
            row.reroute_pct < row.multi_a_pct,
            "reroute {} should trail multi/a {}",
            row.reroute_pct,
            row.multi_a_pct
        );
    }

    #[test]
    fn table_shape_matches_paper_ordering() {
        let (ds, probes) = small_probes();
        let row = table5_2_row(ds.name(), &probes);
        assert!(row.single_pct <= row.multi_s_pct);
        assert!(row.multi_s_pct <= row.multi_e_pct + 1e-9);
        assert!(row.multi_e_pct <= row.multi_a_pct + 1e-9);
        assert!(row.multi_a_pct <= row.source_pct + 1e-9);
        // The headline claim: MIRO at least doubles the single-path rate.
        assert!(
            row.multi_a_pct > 1.3 * row.single_pct,
            "multi {} vs single {}",
            row.multi_a_pct,
            row.single_pct
        );
    }

    #[test]
    fn table5_3_relaxation_lowers_contacts_raises_paths() {
        let (_, probes) = small_probes();
        let rows = table5_3_rows(&probes);
        assert_eq!(rows.len(), 3);
        // Looser policy => at most as many ASes contacted on average...
        assert!(rows[2].as_per_tuple <= rows[0].as_per_tuple + 0.2);
        // ...but more candidate paths shipped around.
        assert!(rows[2].path_per_tuple > rows[0].path_per_tuple);
        // Success rates increase with relaxation.
        assert!(rows[0].success_pct <= rows[1].success_pct + 1e-9);
        assert!(rows[1].success_pct <= rows[2].success_pct + 1e-9);
    }

    #[test]
    fn negotiation_state_stops_at_first_success() {
        let (_, probes) = small_probes();
        for p in probes.iter().filter(|p| !p.single) {
            let (contacted, _) = p.negotiation_state(2);
            assert!(contacted <= p.responders.len());
            if let Some(first) =
                p.responders.iter().position(|r| r.success[2])
            {
                assert_eq!(contacted, first + 1);
            }
        }
    }
}
