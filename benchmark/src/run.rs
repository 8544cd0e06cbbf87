//! One run of one workload: set-up, the measured loop, and in a traced
//! run the layer probes. Prints every metric by name with its unit and,
//! as the last line, the result object.

use crate::ctx::{Ctx, Layers, Measured, Workload};
use crate::json::obj;
use crate::spec::{Spec, END_TO_END, PER_LAYER};
use crate::stats::{fast_cost, fast_rate, percentile_sorted, sorted, supported_tail};
use crate::trace::{self, Tracer, NO_PARENT};
use serde_json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-up runs at least `SETUP_REPS` times in an untraced run, and on
/// until `SETUP_BUDGET_S` is spent or `SETUP_REPS_MAX` is reached, so a
/// set-up of tens of milliseconds gets the repetitions its noise needs;
/// `setup_s` is their [`fast_cost`]. Forty, because fifteen repetitions
/// of 35 ms end within half a second, and the host has slow spells that
/// long: one pass in six read 45 ms for 35.
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 40;
const SETUP_BUDGET_S: f64 = 1.5;
/// A traced run cuts its measured loop into this many pairs of an
/// untraced and a traced slice, and swaps which goes first from pair to
/// pair. Alternating puts the host's slow spells, which last seconds to
/// minutes here, on both sides of `bench.trace_overhead_share`: two
/// back-to-back passes read -0.10 to +0.20 on unchanged code, eight
/// interleaved pairs within 0.02 typically and 0.06 at worst.
const TRACED_PAIRS: usize = 8;
/// Share of `--seconds` the slices take together; the rest is left to
/// the layer probes.
const TRACED_LOOP_SHARE: f64 = 0.7;

/// What a run reports.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the spec's order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunOutput {
    /// The contract's result object.
    pub fn to_json(&self) -> JsonValue {
        let metrics: BTreeMap<String, JsonValue> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj([
                        ("value", JsonValue::Num(*value)),
                        ("unit", JsonValue::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", JsonValue::Bool(self.failed == 0)),
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

fn end_to_end(setup_s: f64, m: &Measured) -> Vec<(String, f64, String)> {
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "ops_per_s" => fast_rate(&m.round_rates),
        "cpu_us_per_op" => fast_cost(&m.round_cpu_us),
        "peak_rss_mb" => m.peak_rss_kb as f64 * 1024.0 / 1e6,
        other => unreachable!("END_TO_END names {other}"),
    };
    END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), value(name), unit.to_string()))
        .collect()
}

/// Share of the traced loop's wall its child spans account for: over
/// the root spans opened at or after `from`.
fn loop_coverage(tr: &Tracer, from: usize) -> f64 {
    let spans = tr.spans();
    let selfs = trace::self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate().skip(from) {
        if s.parent == NO_PARENT {
            total += s.end_ns - s.start_ns;
            own += selfs[i];
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

pub fn run<W: Workload>(
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunOutput, String> {
    if !traced {
        let timed_setup = || {
            let t = Instant::now();
            W::setup(ctx, &mut Tracer::off()).map(|w| (w, t.elapsed().as_secs_f64()))
        };
        let (mut workload, first) = timed_setup()?;
        let m = workload.measure(ctx, seconds, &mut Tracer::off())?;
        // The daemon goes before the next set-up spawns its own. The
        // repetitions come after the measured loop, so the loop (and the
        // peak memory it reads) never depends on how many there were.
        drop(workload);
        let mut setups = vec![first];
        while setups.len() < SETUP_REPS
            || (setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            setups.push(timed_setup()?.1);
        }
        return Ok(RunOutput {
            attempted: m.attempted,
            failed: m.failed,
            metrics: end_to_end(fast_cost(&setups), &m),
        });
    }

    let mut tr = Tracer::on();
    let mut workload = W::setup(ctx, &mut tr)?;
    let loop_from = tr.spans().len();
    let slice = seconds * TRACED_LOOP_SHARE / (2 * TRACED_PAIRS) as f64;
    let (mut plain, mut with_spans) = (Measured::default(), Measured::default());
    for pair in 0..TRACED_PAIRS {
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            if traced_turn {
                with_spans.absorb(workload.measure(ctx, slice, &mut tr)?);
            } else {
                plain.absorb(workload.measure(ctx, slice, &mut Tracer::off())?);
            }
        }
    }

    let mut layers = Layers::new();
    let (attempted, failed) = (
        plain.attempted + with_spans.attempted,
        plain.failed + with_spans.failed,
    );
    layers.insert(
        "bench.trace_overhead_share",
        1.0 - fast_rate(&with_spans.round_rates) / fast_rate(&plain.round_rates),
    );
    layers.insert("bench.span_coverage", loop_coverage(&tr, loop_from));
    layers.insert("bench.fail_share", failed as f64 / attempted as f64);
    let units = sorted(with_spans.unit_us.clone());
    layers.insert("bench.unit_samples", units.len() as f64);
    layers.insert("bench.unit_p50_us", percentile_sorted(&units, 0.5));
    if let Some((p, value)) = supported_tail(&units) {
        layers.insert("bench.unit_tail_pct", p * 100.0);
        layers.insert("bench.unit_tail_us", value);
    }
    layers.insert(
        "topology.gen.generate_ms",
        tr.secs("topology.gen.generate") * 1e3,
    );
    layers.insert(
        "topology.io.parse_mb_per_s",
        tr.counted("topology.io.text_bytes") as f64 / 1e6 / tr.secs("topology.io.parse"),
    );
    layers.insert(
        "topology.io.cache_load_ms",
        tr.secs("topology.io.cache_load") * 1e3,
    );
    workload.probes(ctx, &with_spans, &mut tr, &mut layers)?;
    drop(workload);

    tr.write(&out_dir.join(format!("trace.{}.json", W::NAME)), W::NAME)?;
    // Every per-layer metric is reported; a layer this workload never
    // entered did no work: 0.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                layers.remove(name).unwrap_or(0.0),
                unit.to_string(),
            )
        })
        .collect();
    if let Some(stray) = layers.keys().next() {
        return Err(format!(
            "{} produced {stray:?}, which PER_LAYER does not list",
            W::NAME
        ));
    }
    Ok(RunOutput {
        attempted,
        failed,
        metrics,
    })
}

/// Print a run for people, then the result object as the last line.
pub fn print(workload: &str, why: &str, seed: u64, traced: bool, out: &RunOutput, spec: &Spec) {
    println!(
        "workload {workload} (seed {seed}, {}): {why}",
        if traced { "traced pass" } else { "timed pass" }
    );
    println!("  traffic crosses the host loopback interface, never a real link");
    for (name, value, unit) in &out.metrics {
        let bound = spec.end_to_end(name).map_or(String::new(), |m| {
            format!(
                "  ({} is better, bound {:.0}%)",
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound * 100.0
            )
        });
        println!("  {name:<40} {value:>16.4} {unit}{bound}");
    }
    println!(
        "  failed {} of {} operations (fail_share {:.6})",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    );
    println!(
        "{}",
        serde_json::to_string(&out.to_json()).expect("the shim's to_string cannot fail")
    );
}
