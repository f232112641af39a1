//! Log2-bucketed value histograms: the plain, mergeable [`Histogram`]
//! (promoted from `dart-serve`'s shard internals, where it recorded
//! request latencies) and its lock-free twin [`AtomicHistogram`] for
//! concurrent recording without a mutex.
//!
//! Bucket `i` covers `[2^i, 2^(i+1))`, so percentiles are exact to within
//! ~1.5x at O(1) memory regardless of how many samples a long-running
//! process records. Values are unit-agnostic — the serve runtime uses
//! nanoseconds for latencies and plain counts for batch sizes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one per `u64` bit position.
pub const BUCKETS: usize = 64;

#[inline]
fn bucket_of(value: u64) -> usize {
    // A 0 sample counts into bucket 0 ([1, 2)) instead of underflowing
    // the bucket index.
    63 - value.max(1).leading_zeros() as usize
}

/// Fixed-size log2-bucketed histogram. Single-writer (or externally
/// synchronized) recording; cloneable snapshot semantics; mergeable.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. The sum saturates instead of wrapping so
    /// [`Self::mean`] stays an upper bound even after pathological
    /// (`u64::MAX`) samples.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Nearest-rank percentile (bucket midpoint); 0 when empty.
    ///
    /// `q` is clamped to `[0, 1]`: `q <= 0` is the minimum sample's
    /// bucket, `q >= 1` the maximum's, and NaN is treated as 0 — out of
    /// range quantiles used to fall through to bogus ranks (or the mean
    /// fallback) instead of an answer on the distribution.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let lo = 1u64 << i;
                return lo + lo / 2;
            }
        }
        self.sum / self.count
    }

    /// Exact mean (saturating sum over count); 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Index of the highest non-empty bucket, if any sample was recorded.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// Lock-free histogram for concurrent writers: identical bucketing to
/// [`Histogram`], recorded with relaxed atomic adds.
///
/// [`Self::snapshot`] derives the count from the bucket array itself, so a
/// snapshot taken mid-record is always *internally* consistent (count ==
/// sum of buckets) even though it may miss in-flight samples; the value
/// sum is tracked separately and is therefore approximate (within the
/// in-flight samples) relative to the buckets.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::default()
    }

    /// Record one sample; safe from any thread, no lock.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        // fetch_add wraps rather than saturates; one wrap needs count *
        // mean ~ 2^64 ns (= 584 years of summed latency), so plain add is
        // acceptable where a mutable histogram saturates.
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a batch of samples with one atomic add per touched bucket
    /// plus one for the sum, instead of two per sample: the form for
    /// per-request samples on a path that serves millions a second.
    pub fn record_many(&self, values: impl IntoIterator<Item = u64>) {
        let mut counts = [0u64; BUCKETS];
        let mut sum = 0u64;
        for value in values {
            counts[bucket_of(value)] += 1;
            sum = sum.wrapping_add(value);
        }
        for (cell, n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Materialize a plain [`Histogram`] view of the current state.
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        let mut count = 0u64;
        for (dst, src) in out.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
            count += *dst;
        }
        out.count = count;
        out.sum = self.sum.load(Ordering::Relaxed);
        out
    }

    /// Samples recorded so far (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn histogram_percentiles_are_monotone_and_bucketed() {
        let mut h = Histogram::new();
        for ns in [100u64, 200, 400, 800, 1600, 100_000] {
            h.record(ns);
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(p99 >= p50);
        // p99 lands in the bucket of the 100_000 ns outlier: [2^16, 2^17).
        assert!((65_536..131_072).contains(&p99), "p99 {p99}");
        assert_eq!(h.mean(), (100 + 200 + 400 + 800 + 1600 + 100_000) / 6);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.50), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_bucket(), None);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1_000);
        b.record(2_000);
        b.record(3_000);
        a.merge(&b);
        assert_eq!(a.mean(), 2_000);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_bucket_boundaries_zero_one_and_max() {
        // 0 is clamped into bucket 0 ([1, 2)) rather than underflowing
        // the bucket index; 1 is the true lower boundary of bucket 0.
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.percentile(0.5), 1, "bucket 0 midpoint");
        // Exact powers of two land in the bucket they open: 2^i is the
        // inclusive lower bound of bucket i.
        let mut p2 = Histogram::new();
        p2.record(1 << 10);
        let mid = (1u64 << 10) + (1 << 9);
        assert_eq!(p2.percentile(0.5), mid);
        let mut below = Histogram::new();
        below.record((1 << 10) - 1);
        assert!(below.percentile(0.5) < 1 << 10, "2^10 - 1 belongs to bucket 9");
        // u64::MAX lands in the top bucket and its reported midpoint does
        // not overflow.
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.percentile(0.99), (1u64 << 63) + (1 << 62));
        assert_eq!(top.max_bucket(), Some(63));
    }

    #[test]
    fn percentile_clamps_quantile_to_unit_interval() {
        // Regression: `percentile(1.5)` used to compute rank > count and
        // fall through every bucket to the mean fallback; negative/NaN `q`
        // produced bogus rank-1-ish answers by accident of float `max`.
        let mut h = Histogram::new();
        for ns in [10u64, 1_000, 100_000] {
            h.record(ns);
        }
        let lo = h.percentile(0.0); // minimum sample's bucket midpoint
        let hi = h.percentile(1.0); // maximum sample's bucket midpoint
        assert!((8..16).contains(&lo), "p0 must land in the 10 ns bucket, got {lo}");
        assert!((65_536..131_072).contains(&hi), "p100 must land in the 100 µs bucket, got {hi}");
        // Out-of-range and NaN quantiles clamp instead of misbehaving.
        assert_eq!(h.percentile(1.5), hi);
        assert_eq!(h.percentile(f64::INFINITY), hi);
        assert_eq!(h.percentile(-3.0), lo);
        assert_eq!(h.percentile(f64::NAN), lo);
        // Clamping does not disturb interior quantiles: rank 2 of 3 is the
        // 1000 ns sample, bucket [512, 1024) with midpoint 768.
        assert_eq!(h.percentile(0.5), 768);
        // Empty histograms still report 0 for any q.
        assert_eq!(Histogram::new().percentile(f64::NAN), 0);
        assert_eq!(Histogram::new().percentile(1.5), 0);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        // A wrapping sum would report a tiny mean; saturation keeps it at
        // the ceiling divided by the count.
        assert_eq!(h.mean(), u64::MAX / 2);
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.mean(), u64::MAX / 3);
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let values = [0u64, 1, 7, 1024, 1025, 1 << 40];
        let a = AtomicHistogram::new();
        let many = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in values {
            a.record(v);
            p.record(v);
        }
        many.record_many(values);
        for snap in [a.snapshot(), many.snapshot()] {
            assert_eq!(snap.buckets(), p.buckets());
            assert_eq!(snap.count(), p.count());
            assert_eq!(snap.sum(), p.sum());
            assert_eq!(snap.percentile(0.5), p.percentile(0.5));
        }
    }

    #[test]
    fn atomic_histogram_snapshot_is_internally_consistent_under_writers() {
        let h = Arc::new(AtomicHistogram::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(i * 37 + t);
                    }
                })
            })
            .collect();
        // Poll snapshots while writers run: count must always equal the
        // sum of buckets (it is derived from them) and never decrease.
        let mut last = 0u64;
        for _ in 0..50 {
            let snap = h.snapshot();
            let total: u64 = snap.buckets().iter().sum();
            assert_eq!(snap.count(), total);
            assert!(snap.count() >= last, "count went backwards");
            last = snap.count();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 20_000);
    }
}
