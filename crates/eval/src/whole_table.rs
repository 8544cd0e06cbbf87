//! Whole-table summary: stream a merged [`RouteTableSet`] file (the output
//! of `miro shard-solve`) and report aggregate routing statistics —
//! reachability, AS-hop path-length distribution, and the business-class
//! mix of the chosen routes.
//!
//! This closes the loop on the sharded solve service: the binary tables
//! it produces are not just an artifact to diff, they feed analysis. The
//! summary treats the file as ground truth — the streamed pass checks every
//! checksum [`RouteTableSet::decode`] does, holding one buffer of rows at a
//! time, so a summary is also an integrity check of the merge.

use miro_shard::format::{Adjacency, RouteTableSet, RowView, TableReader};

/// Aggregate statistics over every (source AS, destination) cell of a
/// route table set. The destination's own row entry (hops 0, pointing at
/// itself) is excluded so the numbers describe actual forwarding state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableSummary {
    pub num_nodes: u32,
    pub num_dests: usize,
    /// Off-destination cells with a route.
    pub routed: u64,
    /// Off-destination cells with no route (partition or policy).
    pub unrouted: u64,
    /// Routed cells per first-hop business class: `[customer, peer, provider]`.
    pub class_mix: [u64; 3],
    /// Routed cells per AS-hop count, `hop_hist[h]` = cells at `h` hops.
    pub hop_hist: Vec<u64>,
    pub mean_hops: f64,
    pub max_hops: u16,
}

impl TableSummary {
    pub fn reachable_frac(&self) -> f64 {
        let cells = self.routed + self.unrouted;
        if cells == 0 {
            return 0.0;
        }
        self.routed as f64 / cells as f64
    }

    /// Fold one destination's row: class and hops of each AS's route,
    /// a sink's derived as every reader derives it.
    fn add_row(&mut self, row: RowView<'_>) {
        for x in 0..self.num_nodes as usize {
            if x as u32 == row.dest {
                continue; // the destination's self-entry carries no route
            }
            let (_, h, c) = row.route(x);
            if c == miro_bgp::solver::UNROUTED_CLASS {
                self.unrouted += 1;
                continue;
            }
            self.routed += 1;
            if self.hop_hist.len() <= h as usize {
                self.hop_hist.resize(h as usize + 1, 0);
            }
            self.hop_hist[h as usize] += 1;
            self.max_hops = self.max_hops.max(h);
            self.class_mix[c as usize] += 1;
        }
    }

    fn finish(mut self) -> TableSummary {
        let hop_total: u64 = self.hop_hist.iter().enumerate().map(|(h, &n)| h as u64 * n).sum();
        if self.routed > 0 {
            self.mean_hops = hop_total as f64 / self.routed as f64;
        }
        self
    }
}

/// Scan every row of `set` and fold the per-cell statistics.
pub fn summarize(set: &RouteTableSet) -> Result<TableSummary, String> {
    let mut s = TableSummary { num_nodes: set.num_nodes(), num_dests: set.dests().len(), ..Default::default() };
    for i in 0..set.dests().len() {
        s.add_row(set.view(i));
    }
    Ok(s.finish())
}

/// [`summarize`] of the table at `path`, streamed: one bounded buffer of
/// rows at a time, every checksum checked as [`RouteTableSet::decode`] does.
pub fn summarize_file(path: &str) -> Result<TableSummary, String> {
    let cannot = |e: std::io::Error| format!("cannot read {path:?}: {e}");
    let file = std::fs::File::open(path).map_err(cannot)?;
    let len = file.metadata().map_err(cannot)?.len() as usize;
    let mut table = TableReader::open(file, len).map_err(cannot)??;
    table.layout().check_len(len)?;
    let dests = table.dests().map_err(cannot)?;
    // Sinks are derived from the sections, so they are parsed first; a
    // refusal there still reports the checksums first, as `decode` does.
    let adj = table
        .adjacency()
        .map_err(cannot)?
        .and_then(|adj| table.exceptions(&adj).map_err(cannot)?.map(|_| adj));
    let adj: Adjacency = match adj {
        Ok(adj) => adj,
        Err(e) => return Err(table.stream(true, |_, _, _| Ok(())).map_err(cannot)?.err().unwrap_or(e)),
    };
    let mut s = TableSummary { num_nodes: table.layout().num_nodes(), num_dests: dests.len(), ..Default::default() };
    let visit = |i: usize, cells: &[u8], exceptions: &[u8]| {
        s.add_row(RowView { cells, exceptions, adj: &adj, dest: dests[i] });
        Ok(())
    };
    table.stream(true, visit).map_err(cannot)??;
    Ok(s.finish())
}

/// Render a summary in the report style the other eval commands use.
pub fn render(s: &TableSummary) -> String {
    let mut out = String::new();
    out.push_str("Whole-table summary (merged RouteTableSet)\n\n");
    out.push_str(&format!(
        "  topology: {} ASes, {} destinations ({} route cells)\n",
        s.num_nodes,
        s.num_dests,
        s.routed + s.unrouted
    ));
    out.push_str(&format!(
        "  reachability: {:.2}% ({} routed, {} unrouted)\n",
        100.0 * s.reachable_frac(),
        s.routed,
        s.unrouted
    ));
    out.push_str(&format!(
        "  path length: mean {:.2} AS hops, max {}\n",
        s.mean_hops, s.max_hops
    ));
    let total = s.class_mix.iter().sum::<u64>().max(1) as f64;
    out.push_str(&format!(
        "  first-hop class mix: customer {:.1}% | peer {:.1}% | provider {:.1}%\n",
        100.0 * s.class_mix[0] as f64 / total,
        100.0 * s.class_mix[1] as f64 / total,
        100.0 * s.class_mix[2] as f64 / total,
    ));
    out.push_str("\n  hops  cells\n");
    for (h, &n) in s.hop_hist.iter().enumerate() {
        if n > 0 {
            out.push_str(&format!("  {h:>4}  {n}\n"));
        }
    }
    out
}

/// Stream the table at `path` and return the rendered summary.
pub fn run_file(path: &str) -> Result<String, String> {
    Ok(render(&summarize_file(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::GenParams;

    #[test]
    fn summary_matches_direct_solves() {
        let t = GenParams::tiny(7).generate();
        let dests = miro_shard::sample_dests(t.num_nodes(), 10);
        let set = RouteTableSet::from_solves(&t, &dests, 2);
        let s = summarize(&set).expect("valid table");

        assert_eq!(s.num_nodes, t.num_nodes() as u32);
        assert_eq!(s.num_dests, dests.len());
        // Every off-destination cell is counted exactly once.
        assert_eq!(
            s.routed + s.unrouted,
            dests.len() as u64 * (t.num_nodes() as u64 - 1)
        );
        // Gao-style generated graphs are connected enough that routes exist.
        assert!(s.routed > 0, "expected at least one routed pair");
        assert_eq!(s.class_mix.iter().sum::<u64>(), s.routed);
        assert_eq!(s.hop_hist.iter().sum::<u64>(), s.routed);
        // Cross-check the mean against the histogram.
        let total: u64 = s.hop_hist.iter().enumerate().map(|(h, &n)| h as u64 * n).sum();
        assert!((s.mean_hops - total as f64 / s.routed as f64).abs() < 1e-12);
        assert!(s.max_hops >= 1);
    }

    #[test]
    fn run_file_round_trips_through_disk() {
        let t = GenParams::tiny(3).generate();
        let dests = miro_shard::sample_dests(t.num_nodes(), 6);
        let set = RouteTableSet::from_solves(&t, &dests, 1);
        let path = std::env::temp_dir().join(format!("miro_wt_{}.mirt", std::process::id()));
        std::fs::write(&path, set.encode()).unwrap();
        let report = run_file(path.to_str().unwrap()).expect("summarizes");
        let _ = std::fs::remove_file(&path);
        assert!(report.contains("Whole-table summary"));
        assert!(report.contains(&format!("{} ASes", t.num_nodes())));
        assert!(report.contains("reachability:"));

        let err = run_file("/nonexistent/table.mirt").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
