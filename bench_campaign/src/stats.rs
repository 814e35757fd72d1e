//! Order statistics for the benchmark's reports.
//!
//! Medians and quartiles summarise repeated runs (quartiles follow
//! Python's `statistics.quantiles(values, n=4)`, the default "exclusive"
//! method, so numbers here match a reader checking them in Python).
//! Per-layer span durations go into [`Histogram`], a log-linear histogram
//! whose tail is read at the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it.

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile reported as a tail.
pub const TAIL_MAX: f64 = 0.99;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` when empty.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some((data[0], data[0], data[0])),
        _ => {}
    }
    // Exclusive method: positions i * (ld + 1) / 4, interpolated, with
    // the index clamped to 1 ..= ld - 1.
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The tail percentile a sample of `n` supports: the highest percentile
/// with at least [`TAIL_MIN_BEYOND`] samples beyond it, capped at
/// [`TAIL_MAX`]. `None` when `n` is too small to have any.
pub fn tail_level(n: u64) -> Option<f64> {
    let beyond = TAIL_MIN_BEYOND as f64 / n as f64;
    (n as usize > TAIL_MIN_BEYOND).then(|| (1.0 - beyond).min(TAIL_MAX))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Buckets per power of two above the exact range.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this get one bucket each.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// Log-linear histogram of non-negative integer samples (nanoseconds):
/// one bucket per value below 64, then 32 buckets per power of two.
/// Quantiles interpolate by rank inside their bucket, taking a sample
/// `v` to stand for `[v, v + 1)`, so they read continuously rather than
/// in bucket steps and are within about 3% of the true sample value.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        if value < EXACT {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) & (SUB - 1);
        (EXACT + u64::from(exp - SUB_BITS - 1) * SUB + sub) as usize
    }

    /// The value range `[low, low + width)` bucket `index` covers.
    fn range(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < EXACT {
            return (index as f64, 1.0);
        }
        let shift = (index - EXACT) / SUB + 1;
        let sub = (index - EXACT) % SUB;
        (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q` quantile (`0 < q <= 1`), interpolated by rank
    /// within its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0;
        for (index, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (low, width) = Self::range(index);
                return low + width * ((rank - before) as f64 - 0.5) / c as f64;
            }
            before += c;
        }
        self.max as f64
    }

    /// The tail at [`tail_level`] of this histogram's count, or the
    /// largest sample when there are too few samples for any tail.
    pub fn tail(&self) -> f64 {
        match tail_level(self.count) {
            Some(level) => self.quantile(level),
            None => self.max as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates beyond two points.
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(10), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(1_000_000), Some(0.99));
    }

    #[test]
    fn histogram_interpolates_by_rank() {
        let mut h = Histogram::default();
        for v in 1..=20u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 20);
        assert_eq!(h.sum(), 210);
        // The 10th of 20 samples is the only one valued 10: the middle
        // of [10, 11).
        assert_eq!(h.quantile(0.5), 10.5);
        // 20 samples: the tail is p50.
        assert_eq!(h.tail(), 10.5);
        assert_eq!(h.quantile(1.0), 20.5);
        // Ranks spread evenly through a bucket holding several samples.
        let mut h = Histogram::default();
        for _ in 0..4 {
            h.record(7);
        }
        assert_eq!(h.quantile(0.25), 7.125);
        assert_eq!(h.quantile(1.0), 7.875);
    }

    #[test]
    fn histogram_buckets_stay_within_three_percent() {
        for v in [64u64, 65, 95, 96, 1_000, 65_535, 1 << 40, u64::MAX / 3] {
            let mut h = Histogram::default();
            h.record(v);
            h.record(v);
            let read = h.quantile(0.5);
            let err = (read - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 32.0, "{v} read back as {read}");
        }
    }

    #[test]
    fn histogram_tail_and_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..900u64 {
            a.record(100 + v % 10);
        }
        for _ in 0..100 {
            b.record(10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1_000);
        assert_eq!(a.max(), 10_000);
        // p99 of 1000 samples sits in the slow cluster; p50 in the fast.
        assert!((a.tail() - 10_000.0).abs() <= 10_000.0 / 32.0);
        assert!(a.quantile(0.5) < 120.0);
    }
}
