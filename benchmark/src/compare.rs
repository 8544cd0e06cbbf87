//! `compare A.json B.json`: apply the bounds in `BENCHMARK.json` to two
//! suite result files, one row per (metric, workload).

use crate::json::num;
use crate::spec::{EndToEnd, Spec};
use crate::stats::Band;
use serde_json::JsonValue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound: the bound cannot
    /// be applied, which is not the same as "unchanged".
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `b` stands against baseline `a` under the metric's bound.
pub fn judge(metric: &EndToEnd, a: &Band, b: &Band) -> Verdict {
    if a.spread().max(b.spread()) > metric.bound {
        return Verdict::Unresolved;
    }
    let gain =
        (b.median - a.median) / a.median.abs() * if metric.higher_is_better { 1.0 } else { -1.0 };
    if gain < -metric.bound {
        Verdict::Worse
    } else if gain > metric.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn band(doc: &JsonValue, workload: &str, metric: &str) -> Result<Band, String> {
    let at = |field| num(doc, &["workloads", workload, "end_to_end", metric, field]);
    Ok(Band {
        median: at("median")?,
        min: at("min")?,
        max: at("max")?,
        n: at("n")? as usize,
    })
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// Print the table; `Ok(false)` when some row is worse or a workload's
/// `fail_share` rose.
pub fn run(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, _) in &spec.workloads {
        for metric in &spec.end_to_end {
            let (ba, bb) = (
                band(&a, workload, &metric.name)?,
                band(&b, workload, &metric.name)?,
            );
            let verdict = judge(metric, &ba, &bb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<16} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                ba.median,
                bb.median,
                (bb.median - ba.median) / ba.median.abs() * 100.0,
                metric.bound * 100.0,
                verdict.name()
            );
        }
        let share = |doc| num(doc, &["workloads", workload, "fail_share"]);
        let (fa, fb) = (share(&a)?, share(&b)?);
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        ok &= verdict != Verdict::Worse;
        println!(
            "{workload:<14} {:<16} {fa:>14.6} {fb:>14.6} {:>8} {:>6}  {}",
            "fail_share",
            "",
            "0",
            verdict.name()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> EndToEnd {
        EndToEnd {
            name: "m".into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    fn tight(median: f64) -> Band {
        Band {
            median,
            min: median * 0.99,
            max: median * 1.01,
            n: 3,
        }
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        assert_eq!(
            judge(&metric(true), &tight(100.0), &tight(95.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&metric(true), &tight(100.0), &tight(85.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(true), &tight(100.0), &tight(115.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(&metric(false), &tight(100.0), &tight(115.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(false), &tight(100.0), &tight(85.0)),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Band {
            median: 100.0,
            min: 90.0,
            max: 105.0,
            n: 3,
        };
        assert_eq!(
            judge(&metric(true), &noisy, &tight(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&metric(true), &tight(100.0), &noisy),
            Verdict::Unresolved
        );
    }
}
