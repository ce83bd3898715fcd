//! The benchmark's own arithmetic: percentiles from raw samples, quartile
//! spreads, and span self time.

/// A closed time interval in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn new(start: u64, end: u64) -> Self {
        Interval { start, end: end.max(start) }
    }

    pub fn len(self) -> u64 {
        self.end - self.start
    }
}

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// One-based nearest rank of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q` quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Buckets per factor of ten in [`Histogram`]: adjacent bucket edges
/// differ by 0.23%, and a percentile is reported at its bucket's
/// geometric middle, so it is within 0.12% of the sample it stands for.
const PER_DECADE: f64 = 1000.0;
/// Lower edge of [`Histogram`]'s first bucket (µs); smaller values count
/// in it.
const HIST_MIN_US: f64 = 0.01;
/// Decades [`Histogram`] covers above `HIST_MIN_US` (up to 10 s); larger
/// values count in the last bucket.
const HIST_DECADES: usize = 9;

/// Latency counts in log-spaced buckets far finer than any bound, so a
/// window's calls can be pooled without keeping every sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; HIST_DECADES * PER_DECADE as usize], total: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, us: f64) {
        let i = ((us / HIST_MIN_US).log10() * PER_DECADE).max(0.0) as usize;
        let last = self.counts.len() - 1;
        self.counts[i.min(last)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> usize {
        self.total
    }

    /// The nearest-rank `q` quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || beyond(self.total, q) < MIN_BEYOND {
            return None;
        }
        let want = rank(self.total, q) as u64;
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen >= want
        })?;
        Some(HIST_MIN_US * 10f64.powf((i as f64 + 0.5) / PER_DECADE))
    }
}

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n as f64 + 1.0;
    let at = |i: usize| {
        // Python: j = i*m // 4, delta = i*m - j*4, clamped to [1, n-1].
        let j = ((i as f64 * m) / 4.0).floor() as usize;
        let j = j.clamp(1, n - 1);
        let delta = i as f64 * m - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Total length of the union of `intervals`, each clipped to `within`.
pub fn covered(within: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .filter_map(|iv| {
            let s = iv.start.max(within.start);
            let e = iv.end.min(within.end);
            (s < e).then_some(Interval { start: s, end: e })
        })
        .collect();
    clipped.sort_by_key(|iv| iv.start);
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for iv in clipped {
        match cur {
            Some(ref mut c) if iv.start <= c.end => c.end = c.end.max(iv.end),
            _ => {
                total += cur.map_or(0, Interval::len);
                cur = Some(iv);
            }
        }
    }
    total + cur.map_or(0, Interval::len)
}

/// A span's self time: its duration minus the part of it its children
/// cover (overlapping children count once).
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    span.len() - covered(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(1000.0));
        assert_eq!(percentile(&s, 0.99), Some(1980.0));
        assert_eq!(beyond(2000, 0.99), 20);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0), "exactly ten beyond");
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), None, "nine beyond is too few");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0; 25], 0.5), Some(3.0));
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_samples() {
        let samples: Vec<f64> = (1..=5000).map(|i| f64::from(i) * 0.7).collect();
        let mut h = Histogram::default();
        samples.iter().for_each(|&us| h.record(us));
        assert_eq!(h.count(), 5000);
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&samples, q).expect("enough samples");
            let got = h.percentile(q).expect("enough samples");
            assert!((got / exact - 1.0).abs() < 0.0012, "q={q}: {got} vs {exact}");
        }
        // Merging equals recording everything in one histogram.
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        samples[..1234].iter().for_each(|&us| a.record(us));
        samples[1234..].iter().for_each(|&us| b.record(us));
        a.merge(&b);
        assert_eq!(a.percentile(0.99), h.percentile(0.99));
        // Out-of-range values land in the end buckets.
        let mut edge = Histogram::default();
        (0..1000).for_each(|_| edge.record(0.0));
        assert!(edge.percentile(0.5).expect("enough samples") < 0.0101);
        assert_eq!(Histogram::default().percentile(0.5), None);
        let mut few = Histogram::default();
        (0..999).for_each(|i| few.record(f64::from(i)));
        assert_eq!(few.percentile(0.99), None, "nine beyond is too few");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two values clamp to the ends' interpolation:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let span = iv(100, 200);
        assert_eq!(self_time(span, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(span, &[iv(110, 120), iv(150, 170)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(self_time(span, &[iv(110, 140), iv(120, 130), iv(135, 150)]), 60);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time(span, &[iv(50, 110), iv(190, 300), iv(300, 400)]), 80);
        // A child covering everything leaves nothing.
        assert_eq!(self_time(span, &[iv(0, 1000)]), 0);
    }
}
