//! Figures 5.2/5.3: the number of available routes per (source,
//! destination) pair, under the three export policies and the two
//! negotiation scopes ("1-hop" with immediate neighbors, "path" with the
//! ASes on the default route).

use crate::datasets::{Dataset, EvalConfig};
use crate::driver;
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_core::strategy::{count_available_routes, TargetStrategy};
use serde::Serialize;

/// One CDF series: label (e.g. "path /e") and the sorted per-pair counts.
#[derive(Serialize, Clone, Debug)]
pub struct RouteSeries {
    pub label: String,
    /// Sorted ascending; one entry per sampled (src, dest) pair.
    pub counts: Vec<u32>,
}

impl RouteSeries {
    /// Fraction of pairs with **no alternate route at all** (count <= 1:
    /// just the single default, the paper's "(5%, 1) point").
    pub fn no_alternates_pct(&self) -> f64 {
        let n = self.counts.len().max(1) as f64;
        100.0 * self.counts.iter().filter(|&&c| c <= 1).count() as f64 / n
    }

    /// The p-th percentile count (p in 0..=100).
    pub fn percentile(&self, p: usize) -> u32 {
        if self.counts.is_empty() {
            return 0;
        }
        let idx = (p * (self.counts.len() - 1)) / 100;
        self.counts[idx]
    }
}

/// The full Figure 5.2/5.3 result for one dataset: six series
/// (2 scopes x 3 policies).
#[derive(Serialize, Clone, Debug)]
pub struct RoutesResult {
    pub dataset: String,
    pub series: Vec<RouteSeries>,
}

/// Run the experiment for one dataset.
pub fn fig5_2(ds: &Dataset, cfg: &EvalConfig) -> RoutesResult {
    let dests = driver::sample_dests(&ds.topo, cfg.dest_samples, cfg.seed ^ 0x52);
    let strategies = [TargetStrategy::OneHop, TargetStrategy::OnPath];
    let levels = ExportPolicy::ALL.map(|policy| ResponderConfig { policy, ..Default::default() });
    // counts[strategy][policy] accumulated across pairs.
    let per_dest = miro_bgp::engine::par_over_dests(&ds.topo, &dests, cfg.threads, |d, st| {
        let mut counts: Vec<Vec<u32>> = vec![Vec::new(); 6];
        for src in driver::sample_srcs(&ds.topo, d, cfg.src_samples, cfg.seed ^ 0x52a) {
            if st.path(src).is_none() {
                continue;
            }
            for (si, &strat) in strategies.iter().enumerate() {
                for (pi, cfg) in levels.iter().enumerate() {
                    let c = count_available_routes(st, src, cfg, strat);
                    counts[si * 3 + pi].push(c as u32);
                }
            }
        }
        counts
    });
    let mut merged: Vec<Vec<u32>> = vec![Vec::new(); 6];
    for dest_counts in per_dest {
        for (i, c) in dest_counts.into_iter().enumerate() {
            merged[i].extend(c);
        }
    }
    let series = merged
        .into_iter()
        .enumerate()
        .map(|(i, mut counts)| {
            counts.sort_unstable();
            RouteSeries {
                label: format!(
                    "{} {}",
                    strategies[i / 3].label(),
                    ExportPolicy::ALL[i % 3].label()
                ),
                counts,
            }
        })
        .collect();
    RoutesResult { dataset: ds.name().to_string(), series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::gen::DatasetPreset;

    fn result() -> RoutesResult {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build(DatasetPreset::Gao2005, &cfg);
        fig5_2(&ds, &cfg)
    }

    #[test]
    fn six_series_with_consistent_sizes() {
        let r = result();
        assert_eq!(r.series.len(), 6);
        let n = r.series[0].counts.len();
        assert!(n > 100, "enough pairs sampled: {n}");
        for s in &r.series {
            assert_eq!(s.counts.len(), n);
            assert!(s.counts.windows(2).all(|w| w[0] <= w[1]), "sorted");
        }
    }

    #[test]
    fn policy_relaxation_shifts_the_cdf_right() {
        let r = result();
        // Within each scope, medians grow with policy relaxation.
        for base in [0, 3] {
            let med: Vec<u32> =
                (0..3).map(|i| r.series[base + i].percentile(50)).collect();
            assert!(med[0] <= med[1] && med[1] <= med[2], "medians {med:?}");
        }
    }

    #[test]
    fn most_pairs_have_alternates() {
        // Paper: "only 5% have no alternate paths in the worst case"
        // (1-hop strict); and most pairs see many alternates under /e.
        let r = result();
        let worst = &r.series[0]; // 1-hop /s
        assert!(
            worst.no_alternates_pct() < 35.0,
            "worst-case no-alternate fraction: {}",
            worst.no_alternates_pct()
        );
        let e_path = &r.series[4]; // path /e
        assert!(
            e_path.percentile(50) >= 3,
            "median available routes under path/e: {}",
            e_path.percentile(50)
        );
    }

    #[test]
    fn path_scope_at_least_matches_one_hop_on_median() {
        let r = result();
        // Not pointwise (different responder sets), but distributionally
        // the path scope should not collapse below 1-hop by much.
        let one_hop = r.series[2].percentile(50); // 1-hop /a
        let path = r.series[5].percentile(50); // path /a
        assert!(path * 3 >= one_hop, "path {path} vs 1-hop {one_hop}");
    }
}
