//! `miro-eval`: regenerate every table and figure of the paper.
//!
//! ```text
//! miro-eval [OPTIONS] <COMMAND>
//!
//! Commands:
//!   table5-1   Dataset attributes (Table 5.1)
//!   fig5-1     Node degree distribution (Figure 5.1)
//!   fig5-2     Number of available routes (Figures 5.2/5.3)
//!   table5-2   Avoid-AS success rates (Table 5.2)
//!   table5-3   Negotiation state (Table 5.3)
//!   fig5-4     Incremental deployment (Figures 5.4/5.5)
//!   fig5-6     Inbound traffic control (Figures 5.6/5.7)
//!   fig7-1     Convergence gadget, Figure 7.1
//!   fig7-2     Convergence gadget, Figure 7.2
//!   failures   Single-link failure sweep (incremental delta engine)
//!   whole-table  Summarize a `miro shard-solve` result table (needs --table)
//!   all        Everything above
//!
//! Options:
//!   --scale F     Topology scale, 1.0 = paper size   [default: 0.05]
//!   --seed N      Master seed                        [default: 20060911]
//!   --dests N     Sampled destinations per dataset   [default: 120]
//!   --srcs N      Sampled sources per destination    [default: 60]
//!   --threads N   Worker threads                     [default: CPUs]
//!   --dataset S   Restrict to one dataset (gao2000|gao2003|gao2005|agarwal2004)
//!   --cache P     Run on a `miro ingest` JSON cache instead of generated presets
//!   --table P     RouteTableSet file for the `whole-table` command
//! ```

use miro_eval::datasets::{fig5_1, table5_1, Dataset, EvalConfig};
use miro_eval::{avoid, convergence_exp, deploy, inbound, report, routes};
use miro_topology::gen::DatasetPreset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `miro-eval help` for usage");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = EvalConfig::default();
    let mut command: Option<String> = None;
    let mut only: Option<DatasetPreset> = None;
    let mut cache: Option<String> = None;
    let mut table: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => cfg.scale = next("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed" => cfg.seed = next("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dests" => cfg.dest_samples = next("--dests")?.parse().map_err(|e| format!("--dests: {e}"))?,
            "--srcs" => cfg.src_samples = next("--srcs")?.parse().map_err(|e| format!("--srcs: {e}"))?,
            "--threads" => cfg.threads = next("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--dataset" => {
                only = Some(next("--dataset")?.parse().map_err(|e| format!("--dataset: {e}"))?)
            }
            "--cache" => cache = Some(next("--cache")?),
            "--table" => table = Some(next("--table")?),
            "--help" | "-h" => command = Some("help".to_string()),
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let command = command.unwrap_or_else(|| "help".to_string());
    let presets: Vec<DatasetPreset> =
        only.map(|p| vec![p]).unwrap_or_else(|| DatasetPreset::ALL.to_vec());

    // `--cache` swaps the generated presets for one ingested snapshot.
    let build = |presets: &[DatasetPreset]| -> Result<Vec<Dataset>, String> {
        match &cache {
            Some(path) => Ok(vec![Dataset::load_cache(path)?]),
            None => Ok(presets.iter().map(|&p| Dataset::build(p, &cfg)).collect()),
        }
    };

    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("miro-eval: regenerate the MIRO paper's tables and figures");
            println!("commands: table5-1 fig5-1 fig5-2 table5-2 table5-3 fig5-4 fig5-6 fig7-1 fig7-2 failures ablations dynamics whole-table all");
            println!("options: --scale F --seed N --dests N --srcs N --threads N --dataset S --cache P --table P");
        }
        "table5-1" => cmd_table5_1(&build(&presets)?),
        "fig5-1" => cmd_fig5_1(&build(&presets)?),
        "fig5-2" => cmd_fig5_2(&build(&presets)?, &cfg),
        "table5-2" => cmd_avoid(&build(&presets)?, &cfg, true, false, false),
        "table5-3" => cmd_avoid(&build(&presets)?, &cfg, false, true, false),
        "fig5-4" => cmd_avoid(&build(&presets)?, &cfg, false, false, true),
        "fig5-6" => cmd_fig5_6(&build(&presets)?, &cfg),
        "fig7-1" => cmd_fig7(1),
        "fig7-2" => cmd_fig7(2),
        "failures" => cmd_failures(&build(&presets)?, &cfg),
        "ablations" => cmd_ablations(&build(&presets)?, &cfg),
        "dynamics" => cmd_dynamics(&cfg, only.unwrap_or(DatasetPreset::Gao2005)),
        "whole-table" => {
            let path = table.ok_or("whole-table needs --table FILE (a `miro shard-solve` output)")?;
            print!("{}", miro_eval::whole_table::run_file(&path)?);
        }
        "all" => {
            let ds = build(&presets)?;
            cmd_table5_1(&ds);
            cmd_fig5_1(&ds);
            cmd_fig5_2(&ds, &cfg);
            cmd_avoid(&ds, &cfg, true, true, true);
            cmd_fig5_6(&ds, &cfg);
            cmd_fig7(1);
            cmd_fig7(2);
            cmd_ablations(&ds, &cfg);
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

fn cmd_table5_1(datasets: &[Dataset]) {
    let rows = table5_1(datasets);
    println!("Table 5.1: Attributes of the data sets (synthetic, scaled)\n");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.nodes.to_string(),
                r.edges.to_string(),
                r.pc_links.to_string(),
                r.peering_links.to_string(),
                r.sibling_links.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &["Name", "Nodes", "Edges", "P/C links", "Peering links", "Sibling links"],
            &body
        )
    );
    report::persist("table5-1", &rows);
    println!();
}

fn cmd_fig5_1(datasets: &[Dataset]) {
    let series = fig5_1(datasets);
    println!("Figure 5.1: Node degree distribution (CCDF)\n");
    for s in &series {
        let pick: Vec<String> = s
            .points
            .iter()
            .filter(|(d, _)| [1, 2, 5, 10, 20, 40, 100, 200].contains(d))
            .map(|(d, c)| format!("deg>={d}: {c}"))
            .collect();
        println!("{:<14} {}", s.name, pick.join("  "));
        if let Some((d, c)) = s.points.last() {
            println!("{:<14} max degree {d} held by {c} node(s)", "");
        }
    }
    report::persist("fig5-1", &series);
    println!();
}

fn cmd_fig5_2(datasets: &[Dataset], cfg: &EvalConfig) {
    println!("Figures 5.2/5.3: Number of available routes per (src, dst) pair\n");
    for ds in datasets {
        let r = routes::fig5_2(ds, cfg);
        println!("[{}]  ({} pairs per series)", r.dataset, r.series[0].counts.len());
        for s in &r.series {
            print!(
                "  {:<12} no-alternate {}  {}",
                s.label,
                report::pct(s.no_alternates_pct()),
                report::cdf_summary("routes", &s.counts)
            );
        }
        report::persist(&format!("fig5-2-{}", ds.name().replace(' ', "-")), &r);
        println!();
    }
}

fn cmd_avoid(datasets: &[Dataset], cfg: &EvalConfig, t52: bool, t53: bool, f54: bool) {
    for ds in datasets {
        let probes = avoid::sample_probes(ds, cfg);
        if t52 {
            let row = avoid::table5_2_row(ds.name(), &probes);
            println!(
                "Table 5.2 [{}] ({} triples): Single {}  Multi/s {}  Multi/e {}  Multi/a {}  Source {}  Reroute {}",
                row.name,
                row.triples,
                report::pct(row.single_pct),
                report::pct(row.multi_s_pct),
                report::pct(row.multi_e_pct),
                report::pct(row.multi_a_pct),
                report::pct(row.source_pct),
                report::pct(row.reroute_pct),
            );
            report::persist(&format!("table5-2-{}", ds.name().replace(' ', "-")), &row);
        }
        if t53 {
            let rows = avoid::table5_3_rows(&probes);
            println!("Table 5.3 [{}]:", ds.name());
            let body: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.clone(),
                        report::pct(r.success_pct),
                        format!("{:.2}", r.as_per_tuple),
                        format!("{:.1}", r.path_per_tuple),
                    ]
                })
                .collect();
            print!(
                "{}",
                report::table(&["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"], &body)
            );
            report::persist(&format!("table5-3-{}", ds.name().replace(' ', "-")), &rows);
        }
        if f54 {
            let r = deploy::fig5_4(ds, &probes);
            println!("Figures 5.4/5.5 [{}]: fraction of full /a gain vs adoption", r.dataset);
            for c in r.by_degree.iter().chain([&r.low_degree_first]) {
                print!("{}", report::curve(&c.label, &c.points));
            }
            report::persist(&format!("fig5-4-{}", ds.name().replace(' ', "-")), &r);
        }
        println!();
    }
}

fn cmd_fig5_6(datasets: &[Dataset], cfg: &EvalConfig) {
    println!("Figures 5.6/5.7: Multi-homed stub ASes with power nodes\n");
    for ds in datasets {
        let r = inbound::fig5_6(ds, cfg);
        println!("[{}]  ({} stubs evaluated)", r.dataset, r.stubs_evaluated);
        for (pi, pname) in ["strict", "flexible"].iter().enumerate() {
            for (mi, mname) in ["convert_all", "independent"].iter().enumerate() {
                let pts: Vec<(f64, f64)> = [0.05, 0.10, 0.15, 0.25, 0.35, 0.50]
                    .iter()
                    .map(|&t| (t, r.cdf_at(pi, mi, t)))
                    .collect();
                print!("{}", report::curve(&format!("  {pname}/{mname}: stubs with >= x moved"), &pts));
            }
        }
        let (one, two) = r.power_distance_stats();
        println!(
            "  power nodes: {:.0}% immediate neighbors, {:.0}% two hops away",
            one * 100.0,
            two * 100.0
        );
        report::persist(&format!("fig5-6-{}", ds.name().replace(' ', "-")), &r);
        println!();
    }
}

fn cmd_ablations(datasets: &[Dataset], cfg: &EvalConfig) {
    use miro_eval::ablations;
    println!("Ablations (DESIGN.md): architectures, strategies, state cost\n");
    for ds in datasets {
        println!("[{}]", ds.name());
        let arch = ablations::architecture_comparison(ds, cfg, 8);
        println!("  avoid-AS success by architecture (same triples):");
        for r in &arch {
            println!("    {:<38} {}", r.name, report::pct(r.success_pct));
        }
        let strats = ablations::strategy_comparison(ds, cfg);
        println!("  MIRO /e success by targeting strategy:");
        for r in &strats {
            println!("    {:<38} {}", r.name, report::pct(r.success_pct));
        }
        let (deagg, miro) = ablations::deaggregation_cost(&ds.topo, 2);
        println!(
            "  inbound steering state: subnet-splitting adds {deagg} global \
             table entries; one MIRO tunnel adds {miro}."
        );
        report::persist(
            &format!("ablations-{}", ds.name().replace(' ', "-")),
            &(arch, strats),
        );
        println!();
    }
}

fn cmd_failures(datasets: &[Dataset], cfg: &EvalConfig) {
    println!("Single-link failure sweep (incremental delta engine)\n");
    let rows: Vec<convergence_exp::FailureSweepRow> = datasets
        .iter()
        .map(|ds| convergence_exp::failure_sweep(ds, cfg, 16))
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.events.to_string(),
                r.tree_events.to_string(),
                r.skipped.to_string(),
                format!("{:.1}", r.mean_cone),
                r.max_cone.to_string(),
                r.disconnected.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &["Dataset", "Events", "On-tree", "Skipped", "Mean cone", "Max cone", "Disconnected"],
            &body
        )
    );
    report::persist("failures", &rows);
    println!();
}

fn cmd_dynamics(cfg: &EvalConfig, preset: DatasetPreset) {
    use miro_eval::dynamics;
    println!("Convergence dynamics (instrumentation beyond the paper)\n");
    let rows = dynamics::sweep(preset, cfg, &[cfg.scale / 4.0, cfg.scale / 2.0, cfg.scale]);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.nodes.to_string(),
                format!("{:.0}", r.bgp_activations_mean),
                r.tunnel_rounds_b.to_string(),
                r.tunnel_rounds_e.to_string(),
                r.tunnel_churn_e.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &["Dataset", "Nodes", "BGP activations", "Rounds (B)", "Rounds (E)", "Churn (E)"],
            &body
        )
    );
    report::persist("dynamics", &rows);
    println!();
}

fn cmd_fig7(which: u8) {
    let (title, runs) = if which == 1 {
        ("Figure 7.1: MIRO non-convergence gadget", convergence_exp::run_fig7_1(300))
    } else {
        ("Figure 7.2: strict-policy non-convergence gadget", convergence_exp::run_fig7_2(300))
    };
    println!("{title}\n");
    let body: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                if r.converged { "converged".into() } else { "OSCILLATES".into() },
                r.rounds.to_string(),
                r.establishments.to_string(),
                r.teardowns.to_string(),
                r.tunnels_up.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &["Configuration", "Outcome", "Rounds", "Establish", "Teardown", "Tunnels up"],
            &body
        )
    );
    report::persist(&format!("fig7-{which}"), &runs);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_paths_succeed() {
        assert!(run(&args("help")).is_ok());
        assert!(run(&args("--help")).is_ok());
        assert!(run(&[]).is_ok(), "no command shows help");
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run(&args("frobnicate")).unwrap_err().contains("unknown command"));
        assert!(run(&args("--bogus 3 help")).unwrap_err().contains("unknown argument"));
        assert!(run(&args("--scale")).unwrap_err().contains("needs a value"));
        assert!(run(&args("--scale xyz help")).unwrap_err().contains("--scale"));
        assert!(run(&args("--dataset mars help")).unwrap_err().contains("--dataset: unknown preset"));
    }

    #[test]
    fn small_real_run_works() {
        // A tiny but real experiment through the CLI path.
        assert!(run(&args(
            "--scale 0.008 --dests 10 --srcs 8 --threads 2 --dataset gao2000 table5-2"
        ))
        .is_ok());
        assert!(run(&args("fig7-1")).is_ok());
    }

    #[test]
    fn failure_sweep_runs_through_cli() {
        assert!(run(&args(
            "--scale 0.008 --dests 8 --srcs 4 --threads 2 --dataset gao2000 failures"
        ))
        .is_ok());
    }

    #[test]
    fn cache_option_runs_experiments_on_an_ingested_snapshot() {
        use miro_topology::io::stream::{IngestCache, ParseStats};
        use miro_topology::io::TopologyDoc;
        let topo = DatasetPreset::Gao2000.params(0.012, 7).generate();
        let cache = IngestCache::new(
            "unit-cache".into(),
            "test".into(),
            ParseStats::default(),
            TopologyDoc::of(&topo),
        );
        let path = std::env::temp_dir().join("miro_eval_cache_test.json");
        std::fs::write(&path, serde_json::to_string(&cache).unwrap()).unwrap();
        assert!(run(&args(&format!(
            "--cache {} --dests 8 --srcs 4 --threads 2 table5-1",
            path.display()
        )))
        .is_ok());
        assert!(run(&args("--cache /nonexistent.json table5-1"))
            .unwrap_err()
            .contains("cannot read cache"));
    }

    #[test]
    fn flag_order_is_free_and_dataset_restricts() {
        assert!(run(&args(
            "table5-1 --dataset gao2005 --scale 0.01 --seed 5"
        ))
        .is_ok());
    }
}
