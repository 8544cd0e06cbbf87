//! Dataset construction (Table 5.1) and the degree distribution
//! (Figure 5.1).

use miro_topology::gen::DatasetPreset;
use miro_topology::stats::{degree_ccdf, link_census, DegreePoint, LinkCensus};
use miro_topology::Topology;
use serde::Serialize;

/// Global experiment knobs shared by every subcommand.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Topology scale: 1.0 = the paper's node counts; default 0.05 keeps
    /// a full run laptop-sized.
    pub scale: f64,
    /// Master seed; every sampler derives from it deterministically.
    pub seed: u64,
    /// Number of sampled destinations per experiment.
    pub dest_samples: usize,
    /// Number of sampled sources per destination.
    pub src_samples: usize,
    /// Worker threads for per-destination sharding.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 0.05,
            seed: 20060911, // SIGCOMM 2006 week
            dest_samples: 120,
            src_samples: 60,
            threads: crate::harness::host_parallelism(),
        }
    }
}

impl EvalConfig {
    /// A very small configuration for unit tests.
    pub fn test_tiny() -> Self {
        EvalConfig {
            scale: 0.012,
            seed: 7,
            dest_samples: 25,
            src_samples: 20,
            threads: 2,
        }
    }
}

/// One dataset with its census: either generated from a Table 5.1 preset
/// or loaded from a `miro ingest` JSON cache of a real snapshot.
pub struct Dataset {
    name: String,
    pub topo: Topology,
    pub census: LinkCensus,
}

impl Dataset {
    /// The label experiments stamp on result tables: the preset name for
    /// generated datasets, the ingest label for cached ones.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generate one preset at the configured scale.
    pub fn build(preset: DatasetPreset, cfg: &EvalConfig) -> Dataset {
        let topo = preset.params(cfg.scale, cfg.seed).generate();
        Dataset::from_topology(preset.name(), topo)
    }

    /// All four Table 5.1 datasets.
    pub fn build_all(cfg: &EvalConfig) -> Vec<Dataset> {
        DatasetPreset::ALL.iter().map(|&p| Dataset::build(p, cfg)).collect()
    }

    /// Wrap an already-built topology (ingested or synthetic).
    pub fn from_topology(name: &str, topo: Topology) -> Dataset {
        let census = link_census(&topo);
        Dataset { name: name.to_string(), topo, census }
    }

    /// Load a `miro ingest` JSON cache. The experiments then run on the
    /// real snapshot instead of a generated stand-in.
    pub fn load_cache(path: &str) -> Result<Dataset, String> {
        let (cache, topo) = miro_topology::io::stream::load_cache(path)?;
        Ok(Dataset::from_topology(&cache.name, topo))
    }
}

/// One row of Table 5.1.
#[derive(Serialize, Clone, Debug)]
pub struct Table51Row {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub pc_links: usize,
    pub peering_links: usize,
    pub sibling_links: usize,
}

/// Regenerate Table 5.1 for the generated datasets.
pub fn table5_1(datasets: &[Dataset]) -> Vec<Table51Row> {
    datasets
        .iter()
        .map(|d| Table51Row {
            name: d.name().to_string(),
            nodes: d.census.nodes,
            edges: d.census.edges,
            pc_links: d.census.pc_links,
            peering_links: d.census.peering_links,
            sibling_links: d.census.sibling_links,
        })
        .collect()
}

/// One Figure 5.1 series (per dataset): the degree CCDF.
#[derive(Serialize, Clone, Debug)]
pub struct Fig51Series {
    pub name: String,
    pub points: Vec<(usize, usize)>, // (degree, #nodes with >= degree)
}

/// Regenerate Figure 5.1.
pub fn fig5_1(datasets: &[Dataset]) -> Vec<Fig51Series> {
    datasets
        .iter()
        .map(|d| Fig51Series {
            name: d.name().to_string(),
            points: degree_ccdf(&d.topo)
                .into_iter()
                .map(|DegreePoint { degree, count, .. }| (degree, count))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_1_counts_are_consistent() {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build_all(&cfg);
        let rows = table5_1(&ds);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.edges, r.pc_links + r.peering_links + r.sibling_links);
            assert!(r.pc_links > r.peering_links, "P/C links dominate");
            assert!(r.peering_links > r.sibling_links || r.sibling_links <= 3);
        }
        // Relative dataset sizes follow the paper: 2000 < 2003 < 2005.
        assert!(rows[0].nodes < rows[1].nodes);
        assert!(rows[1].nodes < rows[2].nodes);
    }

    #[test]
    fn fig5_1_is_heavy_tailed_for_every_dataset() {
        let cfg = EvalConfig::test_tiny();
        let ds = Dataset::build_all(&cfg);
        for s in fig5_1(&ds) {
            let max_deg = s.points.last().unwrap().0;
            let n = s.points[0].1;
            // A tiny fraction of nodes has a large fraction of the
            // maximum degree.
            let high = s
                .points
                .iter()
                .find(|&&(d, _)| d >= max_deg / 2)
                .map(|&(_, c)| c)
                .unwrap();
            assert!(
                high * 10 < n,
                "{}: nodes with degree >= {} must be rare ({high}/{n})",
                s.name,
                max_deg / 2
            );
        }
    }
}
