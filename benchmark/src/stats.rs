//! The statistics every reported number goes through.
//!
//! * a throughput is the **median over segments**;
//! * a latency percentile is **exact**, read from the pooled per-operation
//!   samples (no histogram), and only reported as comparable when at least
//!   ten samples lie beyond it;
//! * run-to-run spread is the distance between the first and third
//!   quartile as a share of the median, computed the way Python's
//!   `statistics.quantiles(values, n=4)` computes it, because that is what
//!   the driver uses to accept or reject the benchmark.

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method).  Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Whether at least ten of `n` samples lie beyond quantile `q`, the rule
/// for a percentile that can be compared between runs.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// The highest percentile of the usual ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| tail_supported(n, q))
}

/// Pooled per-operation latency samples in whole nanoseconds.
pub struct Samples {
    sorted: Vec<u32>,
}

impl Samples {
    pub fn new(mut ns: Vec<u32>) -> Self {
        ns.sort_unstable();
        Samples { sorted: ns }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The exact `q` quantile (nearest rank: the smallest sample with at
    /// least `q·n` samples at or below it).
    ///
    /// The clock quantises to 1 ns, so on the sub-microsecond loops
    /// thousands of samples tie on the quantile's value `v`.  The result
    /// is placed inside `[v − 0.5, v + 0.5)` by the rank's position among
    /// the ties — the grouped-data quantile with 1 ns bins — so a shift of
    /// the distribution smaller than the quantum still shows.  Where
    /// nothing ties (any latency above a few microseconds) this moves the
    /// value by less than half a nanosecond.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of nothing");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let v = self.sorted[rank - 1];
        let below = self.sorted.partition_point(|&x| x < v);
        let tied = self.sorted.partition_point(|&x| x <= v) - below;
        v as f64 - 0.5 + (rank - below) as f64 / tied as f64
    }
}

/// `a / b` with its base spelled out: every ratio is given with its base.
pub fn ratio_with_base(a: f64, b: f64, unit: &str) -> String {
    if b == 0.0 {
        return format!("n/a ({} / 0 {unit})", sig(a));
    }
    format!("{:.3}x ({} / {} {unit})", a / b, sig(a), sig(b))
}

/// Six significant digits, plain notation: enough to tell runs apart
/// without printing clock noise.
pub fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_segments_odd_even_unsorted() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow segment out of nine does not move a median.
        let mut segs = vec![100.0; 8];
        segs.push(3.0);
        assert_eq!(median(&segs), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert_eq!((q1, q3), (0.5, 3.5));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(20, 0.5));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(250_000), Some(0.9999));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn exact_percentile_is_an_order_statistic() {
        // 1..=1000 distinct: p50 is the 500th, p99 the 990th sample.
        let s = Samples::new((1..=1000).rev().collect());
        assert_eq!(s.quantile(0.5), 500.5);
        assert_eq!(s.quantile(0.99), 990.5);
        assert_eq!(s.quantile(1.0), 1000.5);
    }

    #[test]
    fn tied_samples_interpolate_inside_the_quantum() {
        // 100 samples all reading 7 ns: the median sits mid-bin.
        let s = Samples::new(vec![7; 100]);
        assert_eq!(s.quantile(0.5), 7.0);
        // 40 below, 60 tied at 8: rank 50 is the 10th of 60 ties.
        let mut v = vec![5; 40];
        v.extend(vec![8; 60]);
        let s = Samples::new(v);
        assert!((s.quantile(0.5) - (7.5 + 10.0 / 60.0)).abs() < 1e-12);
    }

    #[test]
    fn ratio_names_its_base() {
        assert_eq!(
            ratio_with_base(150.0, 100.0, "ns"),
            "1.500x (150.000 / 100.000 ns)"
        );
        assert_eq!(ratio_with_base(1.0, 0.0, "ns"), "n/a (1.00000 / 0 ns)");
        assert_eq!(sig(1234567.891), "1234568");
        assert_eq!(sig(0.000123456789), "0.000123457");
    }
}
