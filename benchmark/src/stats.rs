//! Sample summaries: the percentile rule and the median/min/max band
//! every reported number carries.

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// The highest tail percentile with at least ten samples beyond it, as
/// `(p, value)`; `None` when the sample supports no tail (n < 100).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&p| !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= 10)
        .map(|&p| (p, percentile_sorted(sorted, p)))
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// What a pass reports for a rate measured once per round: the rate the
/// fastest tenth of the rounds reach.
///
/// A round is a fixed piece of work, and everything that disturbs it on
/// a shared two-CPU VM (other tenants, the hypervisor, writeback) only
/// ever slows it down, for seconds to minutes at a time. Measured on this
/// host with unchanged code, eight runs per workload: the median over
/// rounds moved by up to 19% (interquartile) between runs, the 90th
/// percentile by 3% on the in-process workloads and at most 10% on the
/// two-process ones.
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile_sorted(&sorted(rates.to_vec()), 0.9)
}

/// The same for a cost or a time: the 10th percentile.
pub fn fast_cost(costs: &[f64]) -> f64 {
    percentile_sorted(&sorted(costs.to_vec()), 0.1)
}

/// A metric over repetitions: its own noise band.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Band {
    pub fn of(v: &[f64]) -> Band {
        Band {
            median: median(v),
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: v.len(),
        }
    }

    /// Min-max spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=99).map(|x| x as f64).collect();
        assert_eq!(supported_tail(&s), None, "p90 of 99 has 9 beyond");
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(supported_tail(&s), Some((0.9, 90.0)));
        let s: Vec<f64> = (1..=999).map(|x| x as f64).collect();
        assert_eq!(
            supported_tail(&s).unwrap().0,
            0.9,
            "p99 of 999 has 9 beyond"
        );
        let s: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        assert_eq!(supported_tail(&s), Some((0.99, 990.0)));
        let s: Vec<f64> = (1..=100_000).map(|x| x as f64).collect();
        assert_eq!(supported_tail(&s), Some((0.9999, 99_990.0)));
    }

    #[test]
    fn fast_estimators_ignore_the_slow_rounds() {
        let mut rates: Vec<f64> = (1..=20).map(|x| 100.0 + x as f64).collect();
        assert_eq!(fast_rate(&rates), 118.0);
        // Half the rounds disturbed: the estimate does not move.
        rates.iter_mut().take(10).for_each(|r| *r /= 2.0);
        assert_eq!(fast_rate(&rates), 118.0);
        assert_eq!(fast_cost(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(fast_cost(&(1..=20).map(f64::from).collect::<Vec<_>>()), 2.0);
    }

    #[test]
    fn median_and_band() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let b = Band::of(&[10.0, 12.0, 11.0]);
        assert_eq!((b.median, b.min, b.max, b.n), (11.0, 10.0, 12.0, 3));
        assert!((b.spread() - 2.0 / 11.0).abs() < 1e-12);
    }
}
