//! Log-linear HDR-style latency histogram.
//!
//! Values are bucketed with [`HdrHistogram::SUB_BUCKETS`] linear
//! sub-buckets per power-of-two octave: values below `SUB_BUCKETS` get a
//! bucket each (exact counts for low latencies), and every larger octave
//! `[2^k, 2^(k+1))` is split into `SUB_BUCKETS` equal-width sub-buckets,
//! bounding the relative quantization error by
//! [`HdrHistogram::REL_ERROR`] ≈ 3.1% at any magnitude. This replaces the
//! old power-of-two histogram whose p99 for a 100-cycle tail could only be
//! reported as "≤ 128".

use crate::json::{JsonValue, JsonWriter};

/// Log-linear histogram over `u64` values with bounded relative error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HdrHistogram {
    /// Bucket counts (see module docs for the index scheme).
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

const SUB_BITS: u32 = 5;

impl HdrHistogram {
    /// Linear sub-buckets per octave (values below this are exact).
    pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

    /// Worst-case relative quantization error of any reported quantile:
    /// one sub-bucket width over the octave's lower bound.
    pub const REL_ERROR: f64 = 1.0 / Self::SUB_BUCKETS as f64;

    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        // Octaves 2^SUB_BITS..2^64, SUB_BUCKETS buckets each, after the
        // SUB_BUCKETS exact unit buckets.
        let buckets = (Self::SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);
        HdrHistogram {
            counts: vec![0; buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < Self::SUB_BUCKETS {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let sub = (v >> (msb - SUB_BITS)) - Self::SUB_BUCKETS;
            (Self::SUB_BUCKETS as usize) * (msb - SUB_BITS + 1) as usize + sub as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        let sub = Self::SUB_BUCKETS as usize;
        if i < sub {
            i as u64
        } else {
            let octave = (i / sub - 1) as u32;
            let within = (i % sub) as u64;
            (Self::SUB_BUCKETS + within) << octave
        }
    }

    /// Width of bucket `i` in value units.
    fn bucket_width(i: usize) -> u64 {
        let sub = Self::SUB_BUCKETS as usize;
        if i < sub {
            1
        } else {
            1u64 << (i / sub - 1)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v` at once (bulk reconstruction from
    /// serialized bucket counts).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Rebuilds a histogram from serialized parts: `(value, count)` pairs
    /// (any representative value inside each bucket — [`iter_buckets`]'s
    /// lower bounds round-trip exactly) plus the exact recorded extremes,
    /// which bucket lower bounds alone cannot recover. `min`/`max` are
    /// ignored when `buckets` is empty.
    ///
    /// [`iter_buckets`]: HdrHistogram::iter_buckets
    pub fn from_parts(buckets: &[(u64, u64)], min: u64, max: u64) -> HdrHistogram {
        let mut h = HdrHistogram::new();
        for &(v, c) in buckets {
            h.record_n(v, c);
        }
        if h.total > 0 {
            debug_assert!(min <= max && Self::index(min) == Self::index(h.min));
            h.min = min;
            h.max = max;
        }
        h
    }

    /// Values recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Accumulates another histogram (same fixed bucket layout).
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate with within-bucket linear interpolation.
    ///
    /// `q` must be in `(0, 1]` — `q = 0` has no defined order statistic
    /// and is rejected. Returns NaN on an empty histogram. The estimate
    /// deviates from the exact order statistic by at most one sub-bucket
    /// width, i.e. a relative error of [`HdrHistogram::REL_ERROR`];
    /// values below [`HdrHistogram::SUB_BUCKETS`] are exact.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(
            q > 0.0 && q <= 1.0,
            "percentile q must be in (0, 1], got {q}"
        );
        if self.total == 0 {
            return f64::NAN;
        }
        if q == 1.0 {
            return self.max as f64;
        }
        let target = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lower = Self::bucket_lower(i);
                let width = Self::bucket_width(i);
                // Interpolate across the bucket's representable values
                // [lower, lower + width - 1]; unit-width buckets are exact.
                let frac = (target - seen) as f64 / c as f64;
                let v = lower as f64 + frac * (width - 1) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// `(q, estimate)` rows for a list of quantiles.
    pub fn percentile_table(&self, qs: &[f64]) -> Vec<(f64, f64)> {
        qs.iter().map(|&q| (q, self.percentile(q))).collect()
    }

    /// Non-empty buckets as `(lower, upper_exclusive, count)`, ascending.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lower = Self::bucket_lower(i);
                (lower, lower + Self::bucket_width(i), c)
            })
    }

    /// Writes the histogram as `{"min":..,"max":..,"buckets":[[lower,count],..]}`
    /// — exact extremes (`null` when empty) plus every non-empty bucket —
    /// the one encoding [`HdrHistogram::from_json`] reads back losslessly.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("min").opt_u64(self.min());
            w.key("max").opt_u64(self.max());
            w.key("buckets").arr(|w| {
                for (lower, _, count) in self.iter_buckets() {
                    w.u64s([lower, count]);
                }
            });
        });
    }

    /// Reads the encoding of [`HdrHistogram::write_json`].
    pub fn from_json(v: &JsonValue) -> Result<HdrHistogram, String> {
        let mut parts = Vec::new();
        for row in v.array_field("buckets")? {
            let [lower, count] = row.as_u64_array().ok_or("malformed histogram bucket")?;
            parts.push((lower, count));
        }
        let bound = |key| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(HdrHistogram::from_parts(&parts, bound("min"), bound("max")))
    }
}

/// The default quantile grid reported by summaries and exporters.
pub const DEFAULT_QUANTILES: [f64; 6] = [0.50, 0.90, 0.95, 0.99, 0.999, 1.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        let mut h = HdrHistogram::new();
        for v in [3u64, 3, 3, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 3.0);
        assert_eq!(h.percentile(0.8), 7.0);
        assert_eq!(h.percentile(1.0), 9.0);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn bucket_index_round_trips() {
        for v in (0..2048u64).chain([1u64 << 33, u64::MAX, 100, 1000, 65537]) {
            let i = HdrHistogram::index(v);
            let lower = HdrHistogram::bucket_lower(i);
            let width = HdrHistogram::bucket_width(i);
            assert!(
                lower <= v && (v - lower) < width,
                "v={v} i={i} lower={lower} width={width}"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = HdrHistogram::new();
        h.record(100);
        let p = h.percentile(0.99);
        assert!(
            (p - 100.0).abs() <= 100.0 * HdrHistogram::REL_ERROR,
            "p99 {p} for a lone 100"
        );
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut both = HdrHistogram::new();
        for v in 0..500u64 {
            let x = v * v % 9973;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_is_nan() {
        assert!(HdrHistogram::new().percentile(0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile q must be in (0, 1]")]
    fn zero_quantile_rejected() {
        HdrHistogram::new().percentile(0.0);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut h = HdrHistogram::new();
        for v in 0..4000u64 {
            h.record(v * v % 99_991);
        }
        let parts: Vec<(u64, u64)> = h.iter_buckets().map(|(lo, _, c)| (lo, c)).collect();
        let rebuilt = HdrHistogram::from_parts(&parts, h.min().unwrap_or(0), h.max().unwrap_or(0));
        // Structural equality: identical counts, total and exact extremes,
        // hence identical percentiles forever after.
        assert_eq!(rebuilt, h);
        assert!(HdrHistogram::from_parts(&[], 0, 0).min().is_none());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        for _ in 0..7 {
            a.record(123);
        }
        b.record_n(123, 7);
        b.record_n(999, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn bucket_iteration_covers_all_counts() {
        let mut h = HdrHistogram::new();
        for v in [1u64, 1, 40, 40, 40, 5000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.iter_buckets().collect();
        assert_eq!(buckets.iter().map(|b| b.2).sum::<u64>(), h.total());
        for (lower, upper, _) in buckets {
            assert!(lower < upper);
        }
    }

    #[test]
    fn percentile_is_exact_at_bucket_boundaries() {
        // Two unit-width buckets, 5 counts each: the quantile that lands
        // exactly on the first bucket's last sample must report the first
        // bucket, and the next representable quantile the second.
        let mut h = HdrHistogram::new();
        h.record_n(10, 5);
        h.record_n(20, 5);
        assert_eq!(h.percentile(0.5), 10.0);
        assert_eq!(h.percentile(0.500001), 20.0);
        assert_eq!(h.percentile(0.6), 20.0);
        assert_eq!(h.percentile(1.0), 20.0);
    }

    #[test]
    fn single_bucket_histogram_interpolates_within_width() {
        // 100 and 101 share the width-2 bucket [100, 102): the midpoint
        // quantile interpolates halfway across the representable values,
        // the top quantiles pin to the exact recorded maximum.
        let mut h = HdrHistogram::new();
        h.record(100);
        h.record(101);
        assert_eq!(h.percentile(0.5), 100.5);
        assert_eq!(h.percentile(0.75), 101.0);
        assert_eq!(h.percentile(1.0), 101.0);
    }

    #[test]
    fn single_value_histogram_is_exact_at_every_quantile() {
        // Interpolation across a wide bucket must clamp to the recorded
        // min/max, so a degenerate distribution reports its exact value.
        let mut h = HdrHistogram::new();
        h.record_n(100, 1000);
        for q in [0.001, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 100.0, "q={q}");
        }
    }

    #[test]
    fn octave_boundary_values_report_exactly() {
        // 63 is the last unit bucket; 64 opens the first width-2 octave;
        // 65 is the top of that bucket. Each alone must report itself.
        for v in [63u64, 64, 65] {
            let mut h = HdrHistogram::new();
            h.record(v);
            assert_eq!(h.percentile(0.5), v as f64, "value {v}");
            assert_eq!(h.percentile(1.0), v as f64, "value {v}");
        }
    }
}
