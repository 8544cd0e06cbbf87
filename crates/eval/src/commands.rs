//! `miro-eval`'s commands: one flag table (`CMD`) and one command table
//! (`COMMANDS`); `miro-eval help` prints both, so neither is repeated
//! here. [`run`] returns the text the binary prints.

use crate::avoid::TripleProbe;
use crate::datasets::{fig5_1, table5_1, Dataset, EvalConfig};
use crate::harness::{Args, Cmd, Flag, Kind};
use crate::{avoid, convergence_exp, deploy, inbound, report, routes};
use miro_topology::gen::DatasetPreset;
use std::fmt::Write as _;

/// The options every command shares.
static CMD: Cmd = Cmd {
    name: "eval",
    positional: &["command"],
    flags: &[
        Flag { name: "--scale", kind: Kind::F64, default: "0.05", help: "topology scale, 1.0 = paper size" },
        Flag { name: "--seed", kind: Kind::Num, default: "20060911", help: "master seed" },
        Flag { name: "--dests", kind: Kind::Num, default: "120", help: "sampled destinations per dataset" },
        Flag { name: "--srcs", kind: Kind::Num, default: "60", help: "sampled sources per destination" },
        Flag { name: "--threads", kind: Kind::Num, default: "", help: "worker threads (default: the host's CPUs)" },
        Flag { name: "--dataset", kind: Kind::Str, default: "", help: "restrict to one dataset (gao2000|gao2003|gao2005|agarwal2004)" },
        Flag { name: "--cache", kind: Kind::Str, default: "", help: "run on a `miro ingest` JSON cache instead of generated presets" },
        Flag { name: "--table", kind: Kind::Str, default: "", help: "RouteTableSet file for `whole-table`" },
        Flag { name: "--help", kind: Kind::Switch, default: "", help: "print this text" },
    ],
};

/// How a command's entry point is fed. Each writes its section to `out`.
enum Entry {
    /// Runs over the run's datasets.
    Datasets(fn(&mut String, &[Dataset], &EvalConfig)),
    /// Prints one section per dataset from that dataset's avoid-AS probe
    /// sample. Adjacent rows share the sample and print together,
    /// dataset by dataset.
    Probes(fn(&mut String, &Dataset, &[TripleProbe])),
    /// Needs no dataset built for it: a gadget, its own scale ladder, a
    /// table file.
    Other(fn(&mut String, &Args) -> Result<(), String>),
}

/// One row of the command table.
struct Command {
    name: &'static str,
    help: &'static str,
    entry: Entry,
    /// Does `all` run it? In table order.
    in_all: bool,
}

static COMMANDS: &[Command] = &[
    Command { name: "table5-1", help: "Dataset attributes (Table 5.1)", entry: Entry::Datasets(cmd_table5_1), in_all: true },
    Command { name: "fig5-1", help: "Node degree distribution (Figure 5.1)", entry: Entry::Datasets(cmd_fig5_1), in_all: true },
    Command { name: "fig5-2", help: "Number of available routes (Figures 5.2/5.3)", entry: Entry::Datasets(cmd_fig5_2), in_all: true },
    Command { name: "table5-2", help: "Avoid-AS success rates (Table 5.2)", entry: Entry::Probes(cmd_table5_2), in_all: true },
    Command { name: "table5-3", help: "Negotiation state (Table 5.3)", entry: Entry::Probes(cmd_table5_3), in_all: true },
    Command { name: "fig5-4", help: "Incremental deployment (Figures 5.4/5.5)", entry: Entry::Probes(cmd_fig5_4), in_all: true },
    Command { name: "fig5-6", help: "Inbound traffic control (Figures 5.6/5.7)", entry: Entry::Datasets(cmd_fig5_6), in_all: true },
    Command { name: "fig7-1", help: "Convergence gadget, Figure 7.1", entry: Entry::Other(|out, _| cmd_fig7(out, 1)), in_all: true },
    Command { name: "fig7-2", help: "Convergence gadget, Figure 7.2", entry: Entry::Other(|out, _| cmd_fig7(out, 2)), in_all: true },
    Command { name: "ablations", help: "Architectures, targeting strategies, state cost (DESIGN.md)", entry: Entry::Datasets(cmd_ablations), in_all: true },
    Command { name: "failures", help: "Single-link failure sweep (incremental delta engine)", entry: Entry::Datasets(cmd_failures), in_all: false },
    Command { name: "dynamics", help: "Convergence dynamics at scale/4, scale/2, scale", entry: Entry::Other(cmd_dynamics), in_all: false },
    Command { name: "whole-table", help: "Summarize a `miro shard-solve` result table (needs --table)", entry: Entry::Other(cmd_whole_table), in_all: false },
];

/// `help` text, generated from the two tables.
fn usage() -> String {
    let mut out = String::from("miro-eval: regenerate the MIRO paper's tables and figures\nusage: miro-eval <command> [options]\n");
    let skipped: Vec<&str> = COMMANDS.iter().filter(|c| !c.in_all).map(|c| c.name).collect();
    let all = format!("Every command above except {}", skipped.join(", "));
    let rows = COMMANDS.iter().map(|c| (c.name, c.help));
    for (name, help) in rows.chain([("all", all.as_str()), ("help", "This text")]) {
        let _ = writeln!(out, "  {name:<24} {help}");
    }
    // The harness's own first line names a `miro` verb; the flag lines
    // under it are the ones wanted here.
    out + "options:\n" + CMD.usage().split_once('\n').map_or("", |(_, flags)| flags)
}

/// The rows `command` runs: its own, or under `all` every row flagged
/// for it.
fn select(command: &str) -> Result<Vec<&'static Command>, String> {
    let runs = |c: &&Command| c.name == command || (command == "all" && c.in_all);
    let rows: Vec<&Command> = COMMANDS.iter().filter(runs).collect();
    if rows.is_empty() {
        return Err(format!("unknown command {command:?}\n{}", usage()));
    }
    Ok(rows)
}

fn config(a: &Args) -> Result<EvalConfig, String> {
    Ok(EvalConfig {
        scale: a.get("--scale")?,
        seed: a.get("--seed")?,
        dest_samples: a.get("--dests")?,
        src_samples: a.get("--srcs")?,
        threads: a.opt("--threads")?.unwrap_or(EvalConfig::default().threads),
    })
}

fn only(a: &Args) -> Result<Option<DatasetPreset>, String> {
    let name: Option<String> = a.opt("--dataset")?;
    name.map(|s| s.parse().map_err(|e| format!("--dataset: {e}"))).transpose()
}

/// Entry point for `miro-eval`: the text of every section the command
/// prints, in order.
pub fn run(args: &[String]) -> Result<String, String> {
    // `miro-eval` and `miro-eval --help` name no command, so do not parse.
    let parsed = CMD.parse(args);
    let named_help = matches!(&parsed, Ok(a) if a.on("--help") || a.positional[0] == "help");
    if named_help || args.iter().all(|a| a == "--help" || a == "-h") {
        return Ok(usage());
    }
    let a = parsed.map_err(|e| e.replace(&CMD.usage(), &usage()))?;
    let (rows, cfg) = (select(&a.positional[0])?, config(&a)?);

    // Built once, and only if a row reads them; `--cache` swaps the
    // generated presets for one ingested snapshot.
    let needed = rows.iter().any(|r| !matches!(r.entry, Entry::Other(_)));
    let datasets = match (a.opt::<String>("--cache")?, only(&a)?) {
        _ if !needed => Vec::new(),
        (Some(path), _) => vec![Dataset::load_cache(&path)?],
        (None, Some(preset)) => vec![Dataset::build(preset, &cfg)],
        (None, None) => Dataset::build_all(&cfg),
    };
    let mut out = String::new();
    let both_probes = |a: &&Command, b: &&Command| matches!((&a.entry, &b.entry), (Entry::Probes(_), Entry::Probes(_)));
    for group in rows.chunk_by(both_probes) {
        match group[0].entry {
            Entry::Datasets(f) => f(&mut out, &datasets, &cfg),
            Entry::Other(f) => f(&mut out, &a)?,
            Entry::Probes(_) => {
                for ds in &datasets {
                    let probes = avoid::sample_probes(ds, &cfg);
                    for row in group {
                        if let Entry::Probes(f) = row.entry {
                            f(&mut out, ds, &probes);
                        }
                    }
                    out.push('\n');
                }
            }
        }
    }
    Ok(out)
}

fn cmd_table5_1(out: &mut String, datasets: &[Dataset], _: &EvalConfig) {
    let rows = table5_1(datasets);
    out.push_str("Table 5.1: Attributes of the data sets (synthetic, scaled)\n\n");
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
    out.push_str(&report::table(
        &["Name", "Nodes", "Edges", "P/C links", "Peering links", "Sibling links"],
        &body,
    ));
    report::persist("table5-1", &rows);
    out.push('\n');
}

fn cmd_fig5_1(out: &mut String, datasets: &[Dataset], _: &EvalConfig) {
    let series = fig5_1(datasets);
    out.push_str("Figure 5.1: Node degree distribution (CCDF)\n\n");
    for s in &series {
        let pick: Vec<String> = s
            .points
            .iter()
            .filter(|(d, _)| [1, 2, 5, 10, 20, 40, 100, 200].contains(d))
            .map(|(d, c)| format!("deg>={d}: {c}"))
            .collect();
        let _ = writeln!(out, "{:<14} {}", s.name, pick.join("  "));
        if let Some((d, c)) = s.points.last() {
            let _ = writeln!(out, "{:<14} max degree {d} held by {c} node(s)", "");
        }
    }
    report::persist("fig5-1", &series);
    out.push('\n');
}

fn cmd_fig5_2(out: &mut String, datasets: &[Dataset], cfg: &EvalConfig) {
    out.push_str("Figures 5.2/5.3: Number of available routes per (src, dst) pair\n\n");
    for ds in datasets {
        let r = routes::fig5_2(ds, cfg);
        let _ = writeln!(out, "[{}]  ({} pairs per series)", r.dataset, r.series[0].counts.len());
        for s in &r.series {
            let _ = write!(
                out,
                "  {:<12} no-alternate {}  {}",
                s.label,
                report::pct(s.no_alternates_pct()),
                report::cdf_summary("routes", &s.counts)
            );
        }
        report::persist(&format!("fig5-2-{}", ds.name().replace(' ', "-")), &r);
        out.push('\n');
    }
}

fn cmd_table5_2(out: &mut String, ds: &Dataset, probes: &[TripleProbe]) {
    let row = avoid::table5_2_row(ds.name(), probes);
    let _ = writeln!(
        out,
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

fn cmd_table5_3(out: &mut String, ds: &Dataset, probes: &[TripleProbe]) {
    let rows = avoid::table5_3_rows(probes);
    let _ = writeln!(out, "Table 5.3 [{}]:", ds.name());
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
    out.push_str(&report::table(&["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"], &body));
    report::persist(&format!("table5-3-{}", ds.name().replace(' ', "-")), &rows);
}

fn cmd_fig5_4(out: &mut String, ds: &Dataset, probes: &[TripleProbe]) {
    let r = deploy::fig5_4(ds, probes);
    let _ = writeln!(out, "Figures 5.4/5.5 [{}]: fraction of full /a gain vs adoption", r.dataset);
    for c in r.by_degree.iter().chain([&r.low_degree_first]) {
        out.push_str(&report::curve(&c.label, &c.points));
    }
    report::persist(&format!("fig5-4-{}", ds.name().replace(' ', "-")), &r);
}

fn cmd_fig5_6(out: &mut String, datasets: &[Dataset], cfg: &EvalConfig) {
    out.push_str("Figures 5.6/5.7: Multi-homed stub ASes with power nodes\n\n");
    for ds in datasets {
        let r = inbound::fig5_6(ds, cfg);
        let _ = writeln!(out, "[{}]  ({} stubs evaluated)", r.dataset, r.stubs_evaluated);
        for (pi, pname) in ["strict", "flexible"].iter().enumerate() {
            for (mi, mname) in ["convert_all", "independent"].iter().enumerate() {
                let pts: Vec<(f64, f64)> = [0.05, 0.10, 0.15, 0.25, 0.35, 0.50]
                    .iter()
                    .map(|&t| (t, r.cdf_at(pi, mi, t)))
                    .collect();
                out.push_str(&report::curve(&format!("  {pname}/{mname}: stubs with >= x moved"), &pts));
            }
        }
        let (one, two) = r.power_distance_stats();
        let _ = writeln!(
            out,
            "  power nodes: {:.0}% immediate neighbors, {:.0}% two hops away",
            one * 100.0,
            two * 100.0
        );
        report::persist(&format!("fig5-6-{}", ds.name().replace(' ', "-")), &r);
        out.push('\n');
    }
}

fn cmd_ablations(out: &mut String, datasets: &[Dataset], cfg: &EvalConfig) {
    use crate::ablations;
    out.push_str("Ablations (DESIGN.md): architectures, strategies, state cost\n\n");
    for ds in datasets {
        let _ = writeln!(out, "[{}]", ds.name());
        let arch = ablations::architecture_comparison(ds, cfg, 8);
        out.push_str("  avoid-AS success by architecture (same triples):\n");
        for r in &arch {
            let _ = writeln!(out, "    {:<38} {}", r.name, report::pct(r.success_pct));
        }
        let strats = ablations::strategy_comparison(ds, cfg);
        out.push_str("  MIRO /e success by targeting strategy:\n");
        for r in &strats {
            let _ = writeln!(out, "    {:<38} {}", r.name, report::pct(r.success_pct));
        }
        let (deagg, miro) = ablations::deaggregation_cost(&ds.topo, 2);
        let _ = writeln!(
            out,
            "  inbound steering state: subnet-splitting adds {deagg} global \
             table entries; one MIRO tunnel adds {miro}."
        );
        report::persist(
            &format!("ablations-{}", ds.name().replace(' ', "-")),
            &(arch, strats),
        );
        out.push('\n');
    }
}

fn cmd_failures(out: &mut String, datasets: &[Dataset], cfg: &EvalConfig) {
    out.push_str("Single-link failure sweep (incremental delta engine)\n\n");
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
    out.push_str(&report::table(
        &["Dataset", "Events", "On-tree", "Skipped", "Mean cone", "Max cone", "Disconnected"],
        &body,
    ));
    report::persist("failures", &rows);
    out.push('\n');
}

fn cmd_dynamics(out: &mut String, a: &Args) -> Result<(), String> {
    use crate::dynamics;
    out.push_str("Convergence dynamics (instrumentation beyond the paper)\n\n");
    let (cfg, preset) = (config(a)?, only(a)?.unwrap_or(DatasetPreset::Gao2005));
    let rows = dynamics::sweep(preset, &cfg, &[cfg.scale / 4.0, cfg.scale / 2.0, cfg.scale]);
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
    out.push_str(&report::table(
        &["Dataset", "Nodes", "BGP activations", "Rounds (B)", "Rounds (E)", "Churn (E)"],
        &body,
    ));
    report::persist("dynamics", &rows);
    out.push('\n');
    Ok(())
}

fn cmd_whole_table(out: &mut String, a: &Args) -> Result<(), String> {
    let path: String = a.opt("--table")?.ok_or("whole-table needs --table FILE (a `miro shard-solve` output)")?;
    out.push_str(&crate::whole_table::run_file(&path)?);
    Ok(())
}

fn cmd_fig7(out: &mut String, which: u8) -> Result<(), String> {
    let (title, runs) = if which == 1 {
        ("Figure 7.1: MIRO non-convergence gadget", convergence_exp::run_fig7_1(300))
    } else {
        ("Figure 7.2: strict-policy non-convergence gadget", convergence_exp::run_fig7_2(300))
    };
    let _ = writeln!(out, "{title}\n");
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
    out.push_str(&report::table(
        &["Configuration", "Outcome", "Rounds", "Establish", "Teardown", "Tunnels up"],
        &body,
    ));
    report::persist(&format!("fig7-{which}"), &runs);
    out.push('\n');
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TempPath;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_paths_succeed() {
        assert!(run(&args("help")).is_ok());
        assert!(run(&args("--help")).is_ok());
        assert!(run(&args("table5-1 --help")).is_ok());
        assert!(run(&[]).is_ok(), "no command shows help");
    }

    /// The command list is spelled once: usage, `all` and the error
    /// paths are all read off [`COMMANDS`] and [`CMD`].
    #[test]
    fn the_command_table_drives_help_all_and_errors() {
        let usage = usage();
        for name in COMMANDS.iter().map(|c| c.name).chain(["all", "help"]) {
            assert!(usage.lines().any(|l| l.trim_start().starts_with(name)), "{name} not in:\n{usage}");
            let err = run(&args(&format!("{name} --no-such-flag"))).unwrap_err();
            assert!(err.contains("--no-such-flag") && err.contains("usage: miro-eval <command>"), "{name}: {err}");
        }
        for flag in CMD.flags {
            assert!(usage.contains(flag.name), "{} not in:\n{usage}", flag.name);
        }
        // `all` is the set it has always been, and the usage says what
        // it leaves out.
        let names = |rows: Vec<&Command>| rows.iter().map(|c| c.name).collect::<Vec<_>>();
        assert_eq!(names(select("all").unwrap()), [
            "table5-1", "fig5-1", "fig5-2", "table5-2", "table5-3", "fig5-4", "fig5-6", "fig7-1",
            "fig7-2", "ablations",
        ]);
        assert!(usage.contains("Every command above except failures, dynamics, whole-table"), "{usage}");
        assert_eq!(names(select("failures").unwrap()), ["failures"]);
        // The table's defaults are `EvalConfig::default()`'s.
        let (cfg, d) = (config(&CMD.parse(&args("all")).unwrap()).unwrap(), EvalConfig::default());
        assert_eq!(
            (cfg.scale, cfg.seed, cfg.dest_samples, cfg.src_samples, cfg.threads),
            (d.scale, d.seed, d.dest_samples, d.src_samples, d.threads)
        );
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run(&args("frobnicate")).unwrap_err().contains("unknown command \"frobnicate\""));
        assert!(run(&args("--bogus 3 help")).unwrap_err().contains("unknown option \"--bogus\""));
        assert!(run(&args("table5-1 fig5-1")).unwrap_err().contains("usage: miro-eval"), "one command a run");
        assert!(run(&args("--scale")).unwrap_err().contains("--scale needs a value"));
        assert!(run(&args("--scale xyz help")).unwrap_err().contains("--scale"));
        // Scales the generator cannot honour once panicked inside it.
        for bad in ["nan", "-1", "inf"] {
            let err = run(&args(&format!("--scale {bad} --dataset gao2000 table5-1"))).unwrap_err();
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
        assert!(run(&args("--dataset mars table5-1")).unwrap_err().contains("--dataset: unknown preset"));
        assert!(run(&args("whole-table")).unwrap_err().contains("needs --table"));
    }

    #[test]
    fn small_real_run_works() {
        // The smallest graph the generator builds, where 4 nodes once
        // indexed out of bounds.
        assert!(run(&args("--scale 0.001 --dataset gao2000 table5-1")).is_ok());
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
        let path = TempPath::new("eval_cache_test", ".json");
        std::fs::write(&path.0, serde_json::to_string(&cache).unwrap()).unwrap();
        assert!(run(&args(&format!(
            "--cache {} --dests 8 --srcs 4 --threads 2 table5-1",
            path.0.display()
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
