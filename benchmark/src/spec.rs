//! `BENCHMARK.json` and the program's own metric tables, checked
//! against each other at start-up so the file and the program cannot
//! drift.

use crate::json::{list, num, text};
use serde_json::JsonValue;
use std::collections::BTreeMap;

/// The six workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 6] = [
    "table_build",
    "query_hot",
    "query_cold",
    "churn_flap",
    "whatif_sweep",
    "packet_burst",
];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one; a
/// layer the workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("bench.trace_overhead_share", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.fail_share", "ratio"),
    ("bench.unit_samples", "count"),
    ("bench.unit_p50_us", "us"),
    ("bench.unit_tail_pct", "%"),
    ("bench.unit_tail_us", "us"),
    ("topology.gen.generate_ms", "ms"),
    ("topology.io.parse_mb_per_s", "MB/s"),
    ("topology.io.cache_load_ms", "ms"),
    ("bgp.solver.solve_us_per_dest", "us"),
    ("bgp.engine.par_speedup_2t", "ratio"),
    ("bgp.solver.whatif_tree_us", "us"),
    ("bgp.solver.whatif_offtree_ns", "ns"),
    ("bgp.solver.whatif_skip_share", "ratio"),
    ("bgp.solver.whatif_mean_cone", "count"),
    ("bgp.multi.apply_cone_us", "us"),
    ("bgp.multi.apply_full_us", "us"),
    ("bgp.multi.full_share_of_time", "ratio"),
    ("bgp.multi.full_resolves", "count"),
    ("bgp.multi.recomputed_per_event", "count"),
    ("bgp.multi.cancelled_share", "ratio"),
    ("bgp.multi.downs", "count"),
    ("bgp.multi.ups", "count"),
    ("bgp.multi.base_solve_ms", "ms"),
    ("shard.coordinator.run_s", "s"),
    ("shard.format.from_solves_s", "s"),
    ("shard.overhead_ratio", "ratio"),
    ("shard.format.encode_mb_per_s", "MB/s"),
    ("shard.format.decode_mb_per_s", "MB/s"),
    ("shard.format.bytes_per_dest", "B"),
    ("shard.protocol.frame_mb_per_s", "MB/s"),
    ("shard.fnv1a_mb_per_s", "MB/s"),
    ("shard.spool_bytes_written", "B"),
    ("shard.coordinator.deaths", "count"),
    ("shard.coordinator.respawns", "count"),
    ("shard.coordinator.corrupt_frames", "count"),
    ("serve.mmap.open_verified_ms", "ms"),
    ("serve.mmap.open_unverified_ms", "ms"),
    ("serve.mmap.row_first_touch_us", "us"),
    ("serve.mmap.row_warm_ns", "ns"),
    ("serve.wire.decode_ns", "ns"),
    ("serve.cache.get_ns", "ns"),
    ("serve.query.next_hop_ns", "ns"),
    ("serve.query.path_ns", "ns"),
    ("serve.query.alternate_ns", "ns"),
    ("serve.cache.put_ns", "ns"),
    ("serve.wire.encode_ns", "ns"),
    ("serve.query.inproc_qps", "1/s"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.query.unrouted_share", "ratio"),
    ("serve.query.no_alternate_share", "ratio"),
    ("serve.server.spawn_ms", "ms"),
    ("serve.server.overhead_us_per_query", "us"),
    ("serve.server.busy_cores", "ratio"),
    ("serve.server.connect_us", "us"),
    ("serve.server.rtt_p50_us", "us"),
    ("serve.server.rtt_p99_us", "us"),
    ("serve.loadgen.cpu_us_per_query", "us"),
    ("churn.gen.generate_ms", "ms"),
    ("churn.trace.encode_mb_per_s", "MB/s"),
    ("churn.trace.decode_events_per_s", "1/s"),
    ("churn.replay.events_per_s", "1/s"),
    ("churn.replay.fleet_share", "ratio"),
    ("churn.replay.teardowns", "count"),
    ("churn.replay.renegotiations", "count"),
    ("dataplane.burst.preparse_ns_per_pkt", "ns"),
    ("dataplane.burst.lookup_ns_per_pkt", "ns"),
    ("dataplane.burst.decide_ns_per_pkt", "ns"),
    ("dataplane.burst.emit_ns_per_pkt", "ns"),
    ("dataplane.burst.forward_one_ns_per_pkt", "ns"),
    ("dataplane.burst.batch8_mpps", "Mpkt/s"),
    ("dataplane.burst.batch4096_mpps", "Mpkt/s"),
    ("dataplane.burst.goodput_gbps", "Gbit/s"),
    ("dataplane.burst.unique_flow_share", "ratio"),
    ("dataplane.burst.error_share", "ratio"),
    ("dataplane.lpm.reuse_share", "ratio"),
    ("dataplane.lpm.lookup_ns", "ns"),
    ("dataplane.encap.bytes_out_per_pkt", "B"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Spec {
    pub fn parse(json: &str) -> Result<Spec, String> {
        let doc: JsonValue = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let workloads = list(&doc, &["workloads"])?
            .iter()
            .map(|w| Ok((text(w, &["name"])?, text(w, &["why"])?)))
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = list(&doc, &["end_to_end"])?
            .iter()
            .map(|m| {
                let better = text(m, &["better"])?;
                Ok(EndToEnd {
                    name: text(m, &["name"])?,
                    unit: text(m, &["unit"])?,
                    higher_is_better: match better.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("\"better\" is {other:?}")),
                    },
                    bound: num(m, &["bound"])?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_layer = list(&doc, &["per_layer"])?
            .iter()
            .map(|m| Ok((text(m, &["name"])?, text(m, &["unit"])?)))
            .collect::<Result<Vec<_>, String>>()?;
        let spec = Spec {
            run_seconds: num(&doc, &["run_seconds"])? as u64,
            workloads,
            end_to_end,
            per_layer,
        };
        spec.check_against_program()?;
        Ok(spec)
    }

    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let json =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        Spec::parse(&json).map_err(|e| format!("{path:?}: {e}"))
    }

    /// The file must name exactly the workloads and metrics this program
    /// produces, with the same units.
    fn check_against_program(&self) -> Result<(), String> {
        let names = self
            .workloads
            .iter()
            .map(|(n, _)| n)
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|(n, _)| n));
        let mut seen = BTreeMap::new();
        for n in names {
            if !valid_name(n) {
                return Err(format!(
                    "name {n:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
                ));
            }
            if seen.insert(n.clone(), ()).is_some() {
                return Err(format!("name {n:?} is used twice"));
            }
        }
        let same = |file: Vec<(&str, &str)>, program: &[(&str, &str)], what: &str| {
            let (mut f, mut p) = (file, program.to_vec());
            f.sort_unstable();
            p.sort_unstable();
            if f == p {
                return Ok(());
            }
            let only_file: Vec<_> = f.iter().filter(|x| !p.contains(x)).collect();
            let only_program: Vec<_> = p.iter().filter(|x| !f.contains(x)).collect();
            Err(format!(
                "{what} drifted: only in BENCHMARK.json {only_file:?}, only in the program {only_program:?}"
            ))
        };
        let w: Vec<&str> = self.workloads.iter().map(|(n, _)| n.as_str()).collect();
        if w != WORKLOADS {
            return Err(format!(
                "workloads drifted: file {w:?}, program {WORKLOADS:?}"
            ));
        }
        same(
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect(),
            &END_TO_END,
            "end_to_end",
        )?;
        same(
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect(),
            &PER_LAYER,
            "per_layer",
        )
    }

    pub fn end_to_end(&self, name: &str) -> Option<&EndToEnd> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
    }

    #[test]
    fn committed_file_matches_the_program() {
        let spec = Spec::parse(&committed()).unwrap();
        assert_eq!(spec.workloads.len(), 6);
        assert!(spec
            .end_to_end("setup_s")
            .is_some_and(|m| !m.higher_is_better));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn drift_and_bad_names_are_refused() {
        let renamed = committed().replace("\"ops_per_s\"", "\"ops_per_sec\"");
        assert!(Spec::parse(&renamed)
            .unwrap_err()
            .contains("end_to_end drifted"));
        let bad = committed().replace("\"query_hot\"", "\"query hot\"");
        assert!(Spec::parse(&bad).unwrap_err().contains("does not match"));
        let unit = committed().replace("\"unit\": \"Gbit/s\"", "\"unit\": \"Mbit/s\"");
        assert!(Spec::parse(&unit)
            .unwrap_err()
            .contains("per_layer drifted"));
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("serve.cache.hit_share") && valid_name("2t"));
        assert!(
            !valid_name("")
                && !valid_name(".x")
                && !valid_name("a b")
                && !valid_name(&"x".repeat(65))
        );
    }
}
