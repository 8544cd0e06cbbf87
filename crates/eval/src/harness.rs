//! The command harness every front end shares: each `miro` verb
//! (`miro-cli` re-exports this module), `miro-eval`, and
//! [`resilience`](crate::resilience).
//!
//! A verb keeps what is its own — timing loops, report text, row structs —
//! and takes the rest from here:
//!
//! * **flags as data**: one [`Flag`] table per command ([`Cmd`]) and one
//!   parser over it; usage text and the flag half of `--list` are
//!   generated from the table, so a flag is spelled in exactly one place;
//! * **samplers**: the seeded [`Rng`] (xorshift64\*) and [`Zipf`] every
//!   synthetic workload draws from;
//! * **scales**: the `tiny..internet` → preset + factor table ([`SCALES`]);
//! * **gates**: [`gate`], the one `--check-*` floor;
//! * **artefacts**: [`TempPath`], removed on drop whatever path the verb
//!   leaves by, and [`emit`], which writes every `BENCH_*.json` through the
//!   `serde_json` shim and stamps the host's parallelism into its header.

use miro_topology::gen::DatasetPreset;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

// --------------------------------------------------------------- flags

/// What a flag takes: nothing, or one value checked while parsing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    Switch,
    Str,
    /// An unsigned integer.
    Num,
    /// A finite, non-negative number: every one in tree is a share, a
    /// floor or a scale factor.
    F64,
    /// Comma-separated positive integers, deduplicated in order.
    UsizeList,
}

/// One `--flag`. An empty `default` means the flag is optional.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    pub default: &'static str,
    pub help: &'static str,
}

/// One command line: `miro <name> <positional>... [flags]`.
#[derive(Debug)]
pub struct Cmd {
    pub name: &'static str,
    /// Required positional arguments, by display name.
    pub positional: &'static [&'static str],
    pub flags: &'static [Flag],
}

/// A parsed command line. Accessors take the flag's name and panic on
/// one the table does not have — that is a bug in the verb, not input.
#[derive(Debug)]
pub struct Args {
    cmd: &'static Cmd,
    values: Vec<Option<String>>,
    pub positional: Vec<String>,
}

impl Cmd {
    /// Parse `args` against the table. Unknown flags, missing or
    /// malformed values and a wrong positional count are errors that
    /// name the offender; the first and last also carry the usage text.
    pub fn parse(&'static self, args: &[String]) -> Result<Args, String> {
        let mut values = vec![None; self.flags.len()];
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                positional.push(arg.clone());
                continue;
            }
            let i = self
                .flags
                .iter()
                .position(|f| f.name == arg)
                .ok_or_else(|| format!("unknown option {arg:?}\n{}", self.usage()))?;
            values[i] = Some(match self.flags[i].kind {
                Kind::Switch => String::new(),
                kind => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    match kind {
                        Kind::Num => parse_as::<u64>(arg, v).map(|_| ())?,
                        Kind::F64 => match parse_as::<f64>(arg, v)? {
                            x if x.is_finite() && x >= 0.0 => {}
                            _ => return Err(format!("{arg}: {v:?} is not a finite, non-negative number")),
                        },
                        Kind::UsizeList => parse_list(arg, v).map(|_| ())?,
                        Kind::Str | Kind::Switch => {}
                    }
                    v.clone()
                }
            });
        }
        if positional.len() != self.positional.len() {
            return Err(self.usage());
        }
        Ok(Args { cmd: self, values, positional })
    }

    /// The usage block: one line for the command, one per flag.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: miro {}", self.name);
        for p in self.positional {
            let _ = write!(out, " <{p}>");
        }
        out.push_str(" [options]\n");
        for f in self.flags {
            let metavar = match f.kind {
                Kind::Switch => "",
                Kind::Str => " S",
                Kind::Num => " N",
                Kind::F64 => " F",
                Kind::UsizeList => " LIST",
            };
            let _ = write!(out, "  {:<24} {}", format!("{}{metavar}", f.name), f.help);
            if !f.default.is_empty() {
                let _ = write!(out, " (default {})", f.default);
            }
            out.push('\n');
        }
        out
    }
}

fn parse_as<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn parse_list(flag: &str, v: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in v.split(',') {
        match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
            _ => return Err(format!("{flag}: {part:?} is not a positive integer")),
        }
    }
    Ok(out)
}

impl Args {
    /// The value given, else the table's default, else `None`.
    fn raw(&self, name: &str) -> Option<&str> {
        let i = self
            .cmd
            .flags
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the `{}` flag table", self.cmd.name));
        let default = self.cmd.flags[i].default;
        self.values[i].as_deref().or((!default.is_empty()).then_some(default))
    }

    /// Was the switch given?
    pub fn on(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// An optional flag's value.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.raw(name).map(|v| parse_as(name, v)).transpose()
    }

    /// A defaulted flag's value.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| format!("{name} needs a value"))
    }

    /// A [`Kind::UsizeList`] flag's value.
    pub fn list(&self, name: &str) -> Result<Vec<usize>, String> {
        self.raw(name).map_or(Ok(Vec::new()), |v| parse_list(name, v))
    }
}

/// One row of a dispatch table: a verb, its entry point, the exit code
/// of its errors, and the command lines it parses (for usage text).
pub struct Verb {
    pub name: &'static str,
    pub run: fn(&[String]) -> Result<String, String>,
    pub exit_code: i32,
    pub cmds: &'static [&'static Cmd],
}

// ------------------------------------------------------------ samplers

/// xorshift64\* — the repo's deterministic workload PRNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    /// Advance and return the raw xorshift64 state (`bench-solver`'s
    /// failure plan has always drawn from the unscrambled stream).
    pub fn raw(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn next_u64(&mut self) -> u64 {
        self.raw().wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Zipf(1.0) sampler over `n` ranks: weight 1/(rank+1), cumulative
/// table, binary search. Skew makes bursts carry duplicate flows and
/// query storms repeat keys, which is what the caches amortize.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / (i + 1) as f64;
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("nonempty");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

// -------------------------------------------------------------- scales

/// Generation seed of every bench: fixed so runs are comparable across
/// machines and PRs.
pub const SEED: u64 = 42;

/// One bench scale: a preset at a multiple of its calibrated node count.
#[derive(Debug)]
pub struct Scale {
    pub name: &'static str,
    pub preset: DatasetPreset,
    pub factor: f64,
    /// The `"preset"` value in `BENCH_solver.json`; differs from the
    /// preset's CLI name only for `internet`.
    pub slug: &'static str,
}

/// `tiny` exists so tests and smoke scripts run the full code path in
/// milliseconds; `internet` is the RouteViews-shaped 70k-AS graph.
pub const SCALES: &[Scale] = &[
    Scale { name: "tiny", preset: DatasetPreset::Gao2005, factor: 0.01, slug: "gao2005" },
    Scale { name: "small", preset: DatasetPreset::Gao2005, factor: 0.05, slug: "gao2005" },
    Scale { name: "medium", preset: DatasetPreset::Gao2005, factor: 0.5, slug: "gao2005" },
    Scale { name: "large", preset: DatasetPreset::Gao2005, factor: 1.0, slug: "gao2005" },
    Scale { name: "internet", preset: DatasetPreset::InternetScale, factor: 1.0, slug: "internet70k" },
];

/// Look a scale up by name.
pub fn scale(name: &str) -> Result<&'static Scale, String> {
    SCALES.iter().find(|sc| sc.name == name).ok_or_else(|| {
        let names: Vec<&str> = SCALES.iter().map(|sc| sc.name).collect();
        format!("unknown scale {name:?} (expected {})", names.join("|"))
    })
}

impl std::fmt::Display for Scale {
    /// The scale's `--list` line (verbs append their own columns).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "  {:<8} preset={:<12} factor={:<5}", self.name, self.slug, self.factor)
    }
}

// --------------------------------------------------- gates + artefacts

/// The one `--check-*` floor: an error if `observed` is under it.
pub fn gate(what: &str, observed: f64, floor: Option<f64>) -> Result<(), String> {
    match floor {
        Some(floor) if observed < floor => {
            Err(format!("{what} regression: {observed:.2} < required {floor}"))
        }
        _ => Ok(()),
    }
}

/// A duration in milliseconds, the unit of every `*_ms` JSON field.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One measurement repeated: a bench row's `ms` is the fastest wall,
/// `median_ms` the median, `spread` (slowest − fastest) / median.
pub struct Reps {
    pub min: std::time::Duration,
    pub median: std::time::Duration,
    pub spread: f64,
}

impl Reps {
    /// Run `f` `n` times (at least once); every run must return the same
    /// value, which is returned with the walls.
    pub fn time<T: PartialEq>(n: usize, mut f: impl FnMut() -> T) -> (Reps, T) {
        Reps::try_time(n, || Ok::<T, std::convert::Infallible>(f())).unwrap_or_else(|e| match e {})
    }

    /// [`Reps::time`] of a run that can fail: the first error ends it.
    pub fn try_time<T: PartialEq, E>(n: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(Reps, T), E> {
        let (mut walls, mut sink) = (Vec::with_capacity(n), None);
        for _ in 0..n.max(1) {
            let start = std::time::Instant::now();
            let s = f()?;
            walls.push(start.elapsed());
            assert!(sink.as_ref().is_none_or(|prev| *prev == s), "repetitions disagree");
            sink = Some(s);
        }
        walls.sort_unstable();
        let (min, median) = (walls[0], walls[walls.len() / 2]);
        let spread = (walls[walls.len() - 1] - min).as_secs_f64() / median.as_secs_f64().max(1e-12);
        Ok((Reps { min, median, spread }, sink.expect("at least one run")))
    }
}

/// What `std::thread::available_parallelism` reports (1 if it cannot).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch file or directory under `$TMPDIR`, named
/// `miro_bench_<tag>_<pid>_<n><suffix>` and removed on drop — so an
/// early `?` return cleans up exactly as the success path does.
pub struct TempPath(pub PathBuf);

impl TempPath {
    pub fn new(tag: &str, suffix: &str) -> TempPath {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("miro_bench_{tag}_{}_{n}{suffix}", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0).or_else(|_| std::fs::remove_file(&self.0));
    }
}

/// Write a bench report (a struct that serializes to a JSON object) to
/// `path`, with `host_parallelism` stamped in as its first key. Returns
/// the `wrote <path>` line for the verb's text report.
pub fn emit<T: serde::Serialize>(path: &str, report: &T) -> Result<String, String> {
    let body = serde_json::to_string(report).map_err(|e| e.to_string())?;
    let rest = body.strip_prefix('{').expect("bench reports are JSON objects");
    let json = format!("{{\"host_parallelism\":{},{rest}\n", host_parallelism());
    std::fs::write(path, json).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(format!("wrote {path}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Cmd = Cmd {
        name: "demo",
        positional: &["file"],
        flags: &[
            Flag { name: "--name", kind: Kind::Str, default: "", help: "a label" },
            Flag { name: "--count", kind: Kind::Num, default: "7", help: "how many" },
            Flag { name: "--floor", kind: Kind::F64, default: "", help: "a gate" },
            Flag { name: "--sizes", kind: Kind::UsizeList, default: "1,2", help: "sizes" },
            Flag { name: "--dry", kind: Kind::Switch, default: "", help: "do nothing" },
        ],
    };

    fn arg(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parser_applies_defaults_and_reads_every_kind() {
        let a = DEMO.parse(&arg("in.txt")).unwrap();
        assert_eq!(a.positional, ["in.txt"]);
        assert_eq!(a.get::<usize>("--count").unwrap(), 7);
        assert_eq!(a.opt::<String>("--name").unwrap(), None);
        assert_eq!(a.opt::<f64>("--floor").unwrap(), None);
        assert_eq!(a.list("--sizes").unwrap(), [1, 2]);
        assert!(!a.on("--dry"));

        let a = DEMO
            .parse(&arg("--dry --count 9 in.txt --name x --floor 1e3 --sizes 8,64,8,512 --count 11"))
            .unwrap();
        assert!(a.on("--dry"));
        assert_eq!(a.get::<u32>("--count").unwrap(), 11, "the last spelling wins");
        assert_eq!(a.opt::<String>("--name").unwrap().as_deref(), Some("x"));
        assert_eq!(a.opt::<f64>("--floor").unwrap(), Some(1000.0));
        // Repeats collapse, first occurrence keeps its position.
        assert_eq!(a.list("--sizes").unwrap(), [8, 64, 512]);
        // A value that fits the kind but not the caller's type is an
        // error naming the flag, not a truncation.
        assert!(a.get::<u8>("--count").is_ok());
        let big = DEMO.parse(&arg("f --count 300")).unwrap();
        assert!(big.get::<u8>("--count").unwrap_err().contains("--count"));
    }

    #[test]
    fn parser_errors_name_the_offender() {
        let err = DEMO.parse(&arg("f --bogus")).unwrap_err();
        assert!(err.contains("unknown option \"--bogus\"") && err.contains("usage: miro demo"), "{err}");
        assert_eq!(DEMO.parse(&arg("f --count")).unwrap_err(), "--count needs a value");
        assert!(DEMO.parse(&arg("f --count two")).unwrap_err().contains("--count: cannot parse \"two\""));
        assert!(DEMO.parse(&arg("f --count -1")).unwrap_err().contains("--count"));
        assert!(DEMO.parse(&arg("f --floor x")).unwrap_err().contains("--floor"));
        for bad in ["-1", "-0.5", "nan", "inf", "-inf"] {
            let err = DEMO.parse(&arg(&format!("f --floor {bad}"))).unwrap_err();
            assert!(err.contains("--floor") && err.contains(bad), "{err}");
        }
        // A bad list entry is an error even when valid ones surround it.
        for bad in ["1,0,2", "1,two", "8,,64", ""] {
            let err = DEMO.parse(&["f".into(), "--sizes".into(), bad.into()]).unwrap_err();
            assert!(err.contains("--sizes") && err.contains("not a positive integer"), "{err}");
        }
        assert_eq!(DEMO.parse(&arg(" 1 , 2 ")).unwrap_err(), DEMO.usage(), "two positionals");
        assert_eq!(DEMO.parse(&[]).unwrap_err(), DEMO.usage(), "no positional");
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let usage = DEMO.usage();
        assert!(usage.starts_with("usage: miro demo <file> [options]\n"), "{usage}");
        assert!(usage.contains("--count N"), "{usage}");
        assert!(usage.contains("how many (default 7)"), "{usage}");
        assert!(usage.contains("--sizes LIST"), "{usage}");
        assert_eq!(usage.lines().count(), 1 + DEMO.flags.len());
    }

    /// The streams every seeded workload is cut from, pinned to the
    /// values the per-verb copies of these samplers produced.
    #[test]
    fn rng_and_zipf_streams_are_pinned() {
        let mut rng = Rng::new(42);
        let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(got, [
            0xc3965a1c5c63fb9f, 0xbdad4075645ae0c6, 0xe53387cbbc064367, 0x9cd63d960f86c2b9,
            0xd7ecb68727dd3f2b, 0xd9ecc7a3056c5dda, 0xd936f81601ae825a, 0x7dc90cf308508223,
        ]);
        let (zipf, mut rng) = (Zipf::new(1000), Rng::new(42));
        let got: Vec<usize> = (0..8).map(|_| zipf.sample(&mut rng)).collect();
        assert_eq!(got, [170, 143, 456, 54, 309, 328, 321, 21]);
        // bench-solver's failure plan: the unscrambled xorshift64 state.
        let mut rng = Rng::new(42);
        let got: Vec<u64> = (0..4).map(|_| rng.raw()).collect();
        assert_eq!(got, [0x0000000ad5d36aeb, 0xb00aebfbf40316fe, 0x100dbdb3bf576f53, 0xdd6f7dfd0a82754d]);
    }

    #[test]
    fn scales_resolve_by_name() {
        assert_eq!(scale("tiny").unwrap().factor, 0.01);
        let internet = scale("internet").unwrap();
        assert_eq!((internet.slug, internet.preset.cli_name()), ("internet70k", "internet"));
        let err = scale("galactic").unwrap_err();
        assert!(err.contains("galactic") && err.contains("tiny|small|medium|large|internet"), "{err}");
    }

    #[test]
    fn gate_fires_only_under_the_floor() {
        assert!(gate("qps", 10.0, None).is_ok());
        assert!(gate("qps", 10.0, Some(10.0)).is_ok());
        let err = gate("qps", 9.5, Some(10.0)).unwrap_err();
        assert_eq!(err, "qps regression: 9.50 < required 10");
    }

    #[test]
    fn temp_paths_vanish_on_drop_and_never_collide() {
        let (file, dir) = (TempPath::new("harness_test", ".bin"), TempPath::new("harness_test", ""));
        assert_ne!(file.0, dir.0.with_extension("bin"), "same tag, distinct names");
        std::fs::write(&file.0, b"x").unwrap();
        std::fs::create_dir_all(dir.0.join("nested")).unwrap();
        std::fs::write(dir.0.join("nested/f"), b"x").unwrap();
        let (file_path, dir_path) = (file.0.clone(), dir.0.clone());
        drop((file, dir));
        assert!(!file_path.exists() && !dir_path.exists());
        drop(TempPath::new("harness_test", "")); // never created: dropping is quiet
    }

    #[test]
    fn emit_writes_the_report_with_the_host_stamp_first() {
        #[derive(serde::Serialize)]
        struct Row {
            name: &'static str,
            ms: f64,
            speedup: Option<f64>,
        }
        #[derive(serde::Serialize)]
        struct Doc {
            bench: &'static str,
            rows: Vec<Row>,
        }
        let out = TempPath::new("harness_emit", ".json");
        let path = out.0.to_str().unwrap();
        let doc = Doc { bench: "demo \"quoted\"", rows: vec![Row { name: "a", ms: 1.5, speedup: None }] };
        assert_eq!(emit(path, &doc).unwrap(), format!("wrote {path}\n"));
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("{\"host_parallelism\":") && text.ends_with("}\n"), "{text}");
        let v: serde_json::JsonValue = serde_json::from_str(&text).unwrap();
        assert_eq!(v["host_parallelism"].as_f64(), Some(host_parallelism() as f64));
        assert_eq!(v["bench"].as_str(), Some("demo \"quoted\""));
        assert_eq!(v["rows"][0]["ms"].as_f64(), Some(1.5));
        assert!(v["rows"][0]["speedup"].is_null());
        assert!(emit("/nonexistent-dir/x.json", &doc).unwrap_err().contains("cannot write"));
    }
}
