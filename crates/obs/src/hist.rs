//! Log-linear histograms with percentile queries.
//!
//! Values 0..15 are counted exactly; larger values land in log-linear
//! buckets (16 linear sub-buckets per power of two), bounding the relative
//! quantization error of percentile queries at 1/16 ≈ 6.3%.

const LINEAR_CUTOFF: u64 = 16;
const SUB_BUCKETS: usize = 16;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let major = 63 - v.leading_zeros() as usize; // >= 4
        let minor = ((v >> (major - 4)) & 0xF) as usize;
        LINEAR_CUTOFF as usize + (major - 4) * SUB_BUCKETS + minor
    }
}

/// Lower bound of the value range covered by `index`.
fn bucket_value(index: usize) -> u64 {
    if index < LINEAR_CUTOFF as usize {
        index as u64
    } else {
        let rest = index - LINEAR_CUTOFF as usize;
        let major = rest / SUB_BUCKETS + 4;
        let minor = (rest % SUB_BUCKETS) as u64;
        (16 + minor) << (major - 4)
    }
}

/// Histogram of `u64` samples with summary-statistic queries: plain
/// counters, recorded by one owner and added up with [`Self::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Grows to the highest bucket recorded: the samples are batch lengths,
    /// byte counts and percentages, a few dozen buckets of the 976.
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// 0 while empty.
    pub min: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += n;
        self.sum = self.sum.wrapping_add(v.saturating_mul(n));
    }

    /// Add `other`'s samples to this histogram. Bucket sums, `min` and `max`
    /// commute, so the result is the one recorder's whatever the split.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. `0.5` = median), resolved to
    /// the lower bound of the containing bucket (≤ 6.3% relative error).
    /// Reports 0 on an empty histogram; use [`Self::quantile_opt`] to
    /// distinguish "no samples" from a genuine zero-valued percentile.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_opt(q).unwrap_or(0)
    }

    /// Value at quantile `q`, or `None` when the histogram holds no
    /// samples (rather than the lowest bucket's bound).
    pub fn quantile_opt(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_value(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_is_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 5, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX / 2] {
            let idx = bucket_index(v);
            let lo = bucket_value(idx);
            assert!(lo <= v, "lower bound {lo} must not exceed {v}");
            assert!(idx >= last, "indices must be monotone in value");
            last = idx;
        }
        // Lower bound quantization error is below 1/16.
        for v in [100u64, 999, 12345, 1 << 30] {
            let lo = bucket_value(bucket_index(v));
            assert!((v - lo) as f64 / v as f64 <= 1.0 / 16.0 + 1e-9);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count, 16);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.p50(), 7); // 8th of 16 samples, 1-based rank ceil(0.5*16)=8 -> value 7
    }

    #[test]
    fn uniform_distribution_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 10_000);
        let tol = |exact: f64, got: u64| {
            let rel = (exact - got as f64).abs() / exact;
            assert!(rel <= 0.07, "exact {exact} got {got} (rel {rel})");
        };
        tol(5_000.0, h.p50());
        tol(9_500.0, h.p95());
        tol(9_900.0, h.p99());
        assert!((h.mean() - 5_000.5).abs() < 1e-6);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 10_000);
    }

    #[test]
    fn point_mass_distribution() {
        let mut h = Histogram::new();
        h.record_n(42, 1_000);
        // 42 = (16+5)<<1 is itself a bucket lower bound, so p50 is exact.
        assert_eq!(h.p50(), 42);
        assert_eq!(h.max, 42);
        assert_eq!(h.min, 42);
        assert_eq!(h.quantile(1.0), 42); // clamped to observed max
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn two_mass_distribution_hits_both_modes() {
        let mut h = Histogram::new();
        h.record_n(10, 90); // 90% of mass at 10
        h.record_n(1_000, 10); // 10% at 1000
        assert_eq!(h.p50(), 10);
        assert!(h.p95() >= 960 && h.p95() <= 1_000);
        assert!(h.p99() >= 960 && h.p99() <= 1_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn empty_histogram_percentiles_are_absent() {
        // `quantile_opt` distinguishes "no samples" from a real 0: the
        // plain accessors report 0, never the lowest bucket's bound.
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_opt(q), None);
            assert_eq!(h.quantile(q), 0);
        }
        // A genuine zero-valued sample is distinguishable.
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile_opt(0.5), Some(0));
        assert!(!h.is_empty());
    }

    #[test]
    fn bucket_boundary_values_are_pinned() {
        // Exact bucket lower bounds must be reported exactly: the first
        // sub-bucket boundaries after the linear range...
        for v in [16u64, 17, 31, 42, 64, 96, 1 << 20, (16 + 5) << 10] {
            assert_eq!(bucket_value(bucket_index(v)), v, "bound {v} not exact");
            let mut h = Histogram::new();
            h.record_n(v, 100);
            assert_eq!(h.p50(), v);
            assert_eq!(h.p99(), v);
        }
        // ...while interior values resolve to the bound below, clamped to
        // the observed min so point masses stay exact.
        assert_eq!(bucket_value(bucket_index(43)), 42);
        let mut h = Histogram::new();
        h.record_n(43, 10);
        assert_eq!(h.p50(), 43); // min-clamped, not 42
        let mut h = Histogram::new();
        h.record_n(43, 10);
        h.record(16); // min no longer clamps 43's bucket bound
        assert_eq!(h.p50(), 42);
    }
}
