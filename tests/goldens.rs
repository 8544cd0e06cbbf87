//! Every shipped output, byte for byte: each row of [`GOLDENS`]
//! regenerates one output in process and compares it with its file under
//! `data/golden/`.
//!
//! A missing file is written, and the test fails naming it: review it and
//! commit it. A file that differs fails with a line diff and is left as
//! it is. To re-bless an output, delete its file, re-run, and say in the
//! change why the output moved.
//!
//! Paths are relative to the repository root, the directory `cargo test`
//! runs this from and the one `miro data/demo.miro` is run from.

use std::time::Instant;

#[allow(dead_code)]
#[path = "../examples/quickstart.rs"]
mod quickstart;

#[allow(dead_code)]
#[path = "../examples/avoid_as.rs"]
mod avoid_as;

#[allow(dead_code)]
#[path = "../examples/bgp_wire_lab.rs"]
mod bgp_wire_lab;

/// What regenerates one golden file's text.
type Regenerate = fn() -> String;

/// Each golden file and what regenerates it.
const GOLDENS: &[(&str, Regenerate)] = &[
    ("demo.txt", || script("data/demo.miro")),
    ("policy_demo.txt", || script("data/policy_demo.miro")),
    ("quickstart.txt", || example(quickstart::run)),
    ("avoid_as.txt", || example(avoid_as::run)),
    ("bgp_wire_lab.txt", || example(bgp_wire_lab::run)),
    ("eval_all_tiny.txt", || eval("--scale 0.008 --dests 10 --srcs 8 all")),
    ("eval_table5-2_gao2005.txt", || eval("table5-2 --dataset gao2005")),
    ("resilience_pairs4_seed9.json", resilience),
    ("churn_sample.txt", churn),
];

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// `miro <path>`'s stdout.
fn script(path: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    miro_cli::Repl::new().run_script(&text)
}

/// `cargo run --example <name>`'s stdout.
fn example(run: fn(&mut String)) -> String {
    let mut out = String::new();
    run(&mut out);
    out
}

/// `miro-eval <flags> --threads 2`'s stdout.
fn eval(flags: &str) -> String {
    miro_eval::commands::run(&args(&format!("{flags} --threads 2"))).unwrap_or_else(|e| panic!("{flags}: {e}"))
}

/// The JSON `miro resilience --pairs 4 --seed 9` writes, without the
/// host's `"host_parallelism":N,` stamp.
fn resilience() -> String {
    let out = miro_cli::harness::TempPath::new("golden_resilience", ".json");
    let mut a = args("--pairs 4 --seed 9 --out");
    a.push(out.0.display().to_string());
    miro_eval::resilience::run(&a).expect("resilience sweep");
    let json = std::fs::read_to_string(&out.0).expect("RESILIENCE.json written");
    let (_, rest) = json.split_once(',').expect("host_parallelism comes first");
    format!("{{{rest}")
}

/// `miro churn dump` of the committed trace, then its replay in each
/// mode, with the two wall-clock figures masked.
fn churn() -> String {
    let runs = [
        "dump data/churn_sample.mct",
        "replay data/churn_sample.mct --mode serial",
        "replay data/churn_sample.mct --mode batched",
        "replay data/churn_sample.mct --mode sim --step-budget 2000000",
    ];
    let text: String = runs.iter().map(|r| miro_cli::churn_cmd::run_churn(&args(r)).expect(r)).collect();
    text.lines().map(mask_timings).collect()
}

/// `N events/s` and `(N ms total)` become `* events/s` and `(* ms total)`.
fn mask_timings(line: &str) -> String {
    let mut line = line.to_string();
    if let Some(end) = line.find(" events/s") {
        let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
        line.replace_range(start..end, "*");
    }
    if let Some(end) = line.find(" ms total)") {
        let start = line[..end].rfind('(').expect("the figure is parenthesised") + 1;
        line.replace_range(start..end, "*");
    }
    line + "\n"
}

/// The first 20 lines where `want` and `got` differ, numbered, both sides.
fn line_diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let diff: String = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .take(20)
        .map(|i| {
            let side = |v: &[&str]| v.get(i).map_or("<no line>".to_string(), |l| format!("{l:?}"));
            format!("  line {}:\n    golden: {}\n    output: {}\n", i + 1, side(&want), side(&got))
        })
        .collect();
    if diff.is_empty() { "  (only the line endings differ)\n".to_string() } else { diff }
}

#[test]
fn every_shipped_output_matches_its_golden() {
    let mut failures = Vec::new();
    for &(name, regenerate) in GOLDENS {
        let started = Instant::now();
        let got = regenerate();
        println!("{name}: {:.2} s", started.elapsed().as_secs_f64());
        let path = format!("data/golden/{name}");
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => failures.push(format!("{path} differs:\n{}", line_diff(&want, &got))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all("data/golden").expect("create data/golden");
                std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
                failures.push(format!("{path} was missing and is now written: review it, then commit it"));
            }
            Err(e) => panic!("read {path}: {e}"),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_mask_hides_only_timings_and_a_diff_names_its_lines() {
    let delta = "  494438 events/s (16.18 ms total); net 3848 downs";
    assert_eq!(mask_timings(delta), "  * events/s (* ms total); net 3848 downs\n");
    assert_eq!(mask_timings("  328659 events/s, 0 ASes"), "  * events/s, 0 ASes\n");
    let dump = "data/churn_sample.mct: MCT1, 2000 events over 88822 ms";
    assert_eq!(mask_timings(dump), format!("{dump}\n"));

    let diff = line_diff("a\nb\nc\n", "a\nB\nc\nd\n");
    assert_eq!(diff, "  line 2:\n    golden: \"b\"\n    output: \"B\"\n  line 4:\n    golden: <no line>\n    output: \"d\"\n");
    let long: String = (0..30).map(|i| format!("{i}\n")).collect();
    assert_eq!(line_diff(&long, "").matches("  line ").count(), 20, "the first 20 only");
}

/// The shipped figure_1_1.txt matches the programmatic figure_1_1().
#[test]
fn shipped_topology_file_matches_the_figure()  {
    let text = std::fs::read_to_string(
        concat!(env!("CARGO_MANIFEST_DIR"), "/data/figure_1_1.txt"),
    )
    .expect("data file ships with the repo");
    let from_file = miro_topology::io::from_text(&text).expect("parses");
    let (programmatic, _) = miro_topology::gen::figure_1_1();
    assert_eq!(
        miro_topology::io::to_text(&from_file),
        miro_topology::io::to_text(&programmatic),
        "data/figure_1_1.txt drifted from gen::figure_1_1()"
    );
}
