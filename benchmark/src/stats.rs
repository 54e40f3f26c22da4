//! Exact-sample statistics: nearest-rank percentiles over every sample
//! (never histogram buckets), and the median and quartiles the run-to-run
//! comparison uses.

/// Samples of one latency population, in milliseconds. A request that was
/// shed or failed is `f64::INFINITY`: it misses every latency limit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with
    /// at least `p`% of the population at or below it. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(sorted[rank.min(sorted.len()) - 1])
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.values.iter().sum::<f64>() / self.len() as f64)
    }
}

/// Latency samples grouped into consecutive windows of their due time.
///
/// On a shared host, slow spells come and go over seconds and can cover
/// most of a run. Noise only ever adds latency, so a percentile taken in
/// each window and summarised by the lower quartile over the windows
/// reads the system's own latency at that load, while a percentile over
/// the whole run reads how much of it the host was slow for.
#[derive(Debug, Clone)]
pub struct Windowed {
    width: f64,
    windows: Vec<Samples>,
}

impl Windowed {
    pub fn new(width_ms: f64) -> Windowed {
        Windowed {
            width: width_ms,
            windows: Vec::new(),
        }
    }

    pub fn push(&mut self, due_ms: f64, latency_ms: f64) {
        let i = (due_ms / self.width) as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Samples::default);
        }
        self.windows[i].push(latency_ms);
    }

    /// The lower quartile (nearest rank) over the windows of each window's
    /// percentile `p`; `None` without samples.
    pub fn quiet_percentile(&self, p: f64) -> Option<f64> {
        let mut per_window = Samples::default();
        for w in &self.windows {
            if let Some(v) = w.percentile(p) {
                per_window.push(v);
            }
        }
        per_window.percentile(25.0)
    }
}

/// Median of a non-empty slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(v.len() >= 2, "quartiles need two values");
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_with_counts() {
        let s = samples(&(1..=200).map(f64::from).rev().collect::<Vec<_>>());
        assert_eq!(s.len(), 200);
        assert_eq!(s.percentile(50.0), Some(100.0));
        assert_eq!(s.percentile(95.0), Some(190.0));
        assert_eq!(s.percentile(99.0), Some(198.0));
        assert_eq!(s.percentile(100.0), Some(200.0));
        assert_eq!(samples(&[7.0]).percentile(99.0), Some(7.0));
        assert_eq!(Samples::default().percentile(50.0), None);
    }

    /// A shed request is an infinite latency: one in a hundred is enough
    /// to push p99 past any limit, and p50 ignores it.
    #[test]
    fn sheds_count_as_infinite_latency() {
        let mut v: Vec<f64> = vec![1.0; 98];
        v.push(f64::INFINITY);
        v.push(f64::INFINITY);
        let s = samples(&v);
        assert_eq!(s.percentile(50.0), Some(1.0));
        assert_eq!(s.percentile(99.0), Some(f64::INFINITY));
    }

    /// Six slow windows in ten: the run-wide median reads the slow spell,
    /// the windows' lower quartile reads the quiet windows.
    #[test]
    fn quiet_percentile_reads_the_quiet_windows() {
        let mut w = Windowed::new(1000.0);
        let mut pooled = Samples::default();
        for window in 0..10 {
            let slow = window % 5 < 3;
            for i in 0..100 {
                let latency = f64::from(i % 10 + 1) * if slow { 3.0 } else { 1.0 };
                w.push(f64::from(window * 1000 + i * 10), latency);
                pooled.push(latency);
            }
        }
        assert_eq!(w.quiet_percentile(50.0), Some(5.0));
        assert_eq!(w.quiet_percentile(99.0), Some(10.0));
        assert_eq!(pooled.percentile(50.0), Some(9.0));
        assert_eq!(Windowed::new(1.0).quiet_percentile(50.0), None);
    }

    /// Matches `statistics.quantiles(values, n=4)` in Python 3.
    #[test]
    fn quartiles_match_python() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        assert_eq!(median(&v), 5.5);
    }
}
