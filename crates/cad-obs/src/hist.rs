//! Log-bucketed (HDR-style) latency/value histograms.
//!
//! Two tiers:
//!
//! * [`Histogram`] — a plain value type with fixed log-spaced buckets.
//!   Recording and merging are deterministic: bucket counts are
//!   integers, and `sum`/`min`/`max` follow the same left-to-right
//!   contract as [`crate::Summary`], so merging per-item histograms in
//!   index order yields bit-identical results for any worker-thread
//!   count. This is the type that lands in the versioned
//!   [`crate::Report`].
//! * [`AtomicHistogram`] — the live-telemetry twin: lock-free recording
//!   from any thread into atomic buckets, backing the histogram cells of
//!   a [`crate::Registry`]. Bucket counts stay exact under racing
//!   (integer adds commute) and a snapshot's `count` is their sum; the
//!   f64 `sum` is CAS-folded in
//!   arrival order and therefore only reproducible for integer-valued
//!   samples — acceptable because the live sums are wall-times, the one
//!   sanctioned nondeterminism (see `crate::stats`).
//!
//! # Bucket layout
//!
//! Buckets are derived from the f64 bit pattern — no libm, fully
//! deterministic. Each power of two is split into [`SUB_BUCKETS`] = 4
//! sub-buckets using the top two mantissa bits, covering
//! `[2^-30, 2^11)` (≈ 0.93 ns to 2048 s when the unit is seconds):
//!
//! * bucket `0` — underflow: everything `≤ 2^-30` (incl. zero/negative),
//! * buckets `1 ..= 164` — `4 × 41` log-spaced buckets; bucket upper
//!   bounds are exact binary fractions `2^e · (1 + s/4)`,
//! * bucket `165` — overflow: everything `≥ 2^11`, upper bound `+Inf`.
//!
//! Quantiles ([`Histogram::quantile`]) report the upper bound of the
//! bucket containing the requested rank, clamped by the observed `max`
//! (so `p100 == max` exactly); with ~19% bucket width that bounds the
//! relative quantile error at the same ~19%.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (top two mantissa bits).
pub const SUB_BUCKETS: usize = 4;
/// Smallest resolved exponent: bucket 0 absorbs values `≤ 2^MIN_EXP`.
pub const MIN_EXP: i32 = -30;
/// One past the largest resolved exponent: values `≥ 2^MAX_EXP`
/// overflow into the last bucket.
pub const MAX_EXP: i32 = 11;
/// Total bucket count (underflow + log buckets + overflow).
pub const N_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS + 2;

const MIN_VALUE: f64 = 9.313225746154785e-10; // 2^-30
const MAX_VALUE: f64 = 2048.0; // 2^11

/// Bucket index for a sample (total over all f64, incl. NaN → 0).
///
/// Upper bounds are inclusive (Prometheus `le` semantics): a sample
/// exactly equal to a bucket's bound counts in that bucket, so
/// integer-valued series hitting exact powers of two (CG iteration
/// counts) land where their `le` label says they do.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= MIN_VALUE {
        // zero, negative, subnormal-small and NaN all land in underflow
        return 0;
    }
    if v > MAX_VALUE {
        return N_BUCKETS - 1;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> 50) & 0b11) as usize;
    let i = 1 + (exp - MIN_EXP) as usize * SUB_BUCKETS + sub;
    // A value sitting exactly on a bound (no mantissa bits below the
    // two sub-bucket bits) belongs to the bucket it bounds.
    if bits & ((1u64 << 50) - 1) == 0 {
        i - 1
    } else {
        i
    }
}

/// Inclusive upper bound of a bucket (`+Inf` for the overflow bucket).
///
/// Bounds are exact binary fractions, so they are bit-stable across
/// platforms and runs.
pub fn bucket_le(i: usize) -> f64 {
    if i == 0 {
        return MIN_VALUE;
    }
    if i >= N_BUCKETS - 1 {
        return f64::INFINITY;
    }
    let j = i - 1;
    let exp = MIN_EXP + (j / SUB_BUCKETS) as i32;
    let sub = (j % SUB_BUCKETS) as f64;
    2f64.powi(exp) * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

/// A deterministic log-bucketed histogram (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (left-to-right; deterministic when
    /// recorded/merged in a fixed order).
    pub sum: f64,
    /// Smallest recorded sample (`+inf` when empty).
    pub min: f64,
    /// Largest recorded sample (`-inf` when empty).
    pub max: f64,
    counts: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            counts: vec![0; N_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.counts[bucket_index(v)] += 1;
    }

    /// Fold another histogram into this one (call in a fixed order for
    /// deterministic sums — same contract as [`crate::Summary::merge`]).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Histogram of a series, recorded in order.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Arithmetic mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// All bucket counts, indexed by bucket (length [`N_BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Set the count of one bucket (report deserialization only; keeps
    /// `count` untouched, callers restore it from the document).
    pub fn set_bucket(&mut self, i: usize, c: u64) -> Result<(), String> {
        if i >= N_BUCKETS {
            return Err(format!("bucket index {i} out of range (< {N_BUCKETS})"));
        }
        self.counts[i] = c;
        Ok(())
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`): the upper bound of the bucket
    /// holding the sample of rank `⌈q·count⌉`, clamped by the observed
    /// `max` (so `quantile(1.0) == max`). `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_le(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Lock-free histogram for hot-path recording from any thread.
///
/// Const-constructible so it can back the [`crate::Registry`] cells.
/// Snapshotting produces a plain [`Histogram`] whose `count` is the sum
/// of the bucket counts it read, so a snapshot taken during concurrent
/// [`AtomicHistogram::observe`] calls always agrees with itself.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; N_BUCKETS],
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl AtomicHistogram {
    /// An empty histogram (const, for statics).
    pub const fn new() -> Self {
        AtomicHistogram {
            counts: [const { AtomicU64::new(0) }; N_BUCKETS],
            sum_bits: AtomicU64::new(0),                     // 0.0f64
            min_bits: AtomicU64::new(0x7ff0_0000_0000_0000), // +inf
            max_bits: AtomicU64::new(0xfff0_0000_0000_0000), // -inf
        }
    }

    /// Record one sample (lock-free; bucket counts exact under racing).
    pub fn observe(&self, v: f64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Point-in-time copy as a plain [`Histogram`]; `count` is derived
    /// from the buckets read.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (slot, src) in h.counts.iter_mut().zip(&self.counts) {
            *slot = src.load(Ordering::Relaxed);
        }
        h.count = h.counts.iter().sum();
        h.sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        h.min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        h.max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        h
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_total() {
        let mut prev = 0.0;
        for i in 0..N_BUCKETS {
            let le = bucket_le(i);
            assert!(le > prev || le.is_infinite(), "bucket {i}: {le} vs {prev}");
            if le.is_finite() {
                prev = le;
            }
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e12), N_BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), N_BUCKETS - 1);
    }

    #[test]
    fn samples_land_at_or_below_their_bound() {
        for v in [1e-9, 3.7e-6, 0.001, 0.5, 1.0, 1.5, 7.0, 100.0, 2000.0] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn bounds_are_inclusive() {
        // Exact bound values count in the bucket they bound.
        assert_eq!(bucket_le(bucket_index(1.0)), 1.0);
        assert_eq!(bucket_le(bucket_index(1.25)), 1.25);
        assert_eq!(bucket_le(bucket_index(2048.0)), 2048.0);
        assert_eq!(bucket_index(2048.0001), N_BUCKETS - 1);
        // Just above a bound opens the next bucket.
        let i = bucket_index(1.01);
        assert_eq!(bucket_le(i), 1.25);
        assert_eq!(bucket_index(1.24), i);
        assert_ne!(bucket_index(1.26), i);
    }

    #[test]
    fn records_and_quantiles() {
        let h = Histogram::of((1..=100).map(|i| i as f64 * 0.01));
        assert_eq!(h.count, 100);
        assert!((h.sum - 50.5).abs() < 1e-9);
        assert_eq!(h.max, 1.0);
        assert_eq!(h.quantile(1.0), 1.0, "p100 is exact max");
        // p50 ≈ 0.5 within one bucket width (~19%).
        assert!((h.p50() - 0.5).abs() <= 0.125, "{}", h.p50());
        assert!(h.p90() >= h.p50());
        assert!(h.p99() >= h.p90());
        assert_eq!(Histogram::new().p50(), 0.0);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let all: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let direct = Histogram::of(all.iter().copied());
        // Stripe by index across 4 parts, merge in index order.
        let mut parts = vec![Histogram::new(); 4];
        for (i, &v) in all.iter().enumerate() {
            parts[i % 4].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count, direct.count);
        assert_eq!(merged.bucket_counts(), direct.bucket_counts());
        assert_eq!(merged.min.to_bits(), direct.min.to_bits());
        assert_eq!(merged.max.to_bits(), direct.max.to_bits());
        // Sum differs by association but merging the same parts twice is
        // bit-identical.
        let mut again = Histogram::new();
        for p in &parts {
            again.merge(p);
        }
        assert_eq!(again.sum.to_bits(), merged.sum.to_bits());
        assert_eq!(
            again.quantile(0.9).to_bits(),
            merged.quantile(0.9).to_bits()
        );
    }

    #[test]
    fn atomic_histogram_concurrent_counts_exact() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        h.observe(0.001 * (1 + i % 7) as f64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.bucket_counts().iter().sum::<u64>(), 4000);
        assert_eq!(snap.min, 0.001);
        assert_eq!(snap.max, 0.007);
        assert!((snap.sum - snap.mean() * 4000.0).abs() < 1e-6);
    }

    #[test]
    fn well_known_histograms_have_stable_names() {
        let names: Vec<&str> = crate::Hist::ALL.iter().map(|h| h.name()).collect();
        assert_eq!(
            names,
            vec![
                "cg_iterations",
                "cg_residuals",
                "oracle_build_secs",
                "oracle_update_secs",
                "transition_score_secs",
                "pack_io_secs",
                "serve_push_secs",
                "serve_create_secs",
                "serve_admin_secs",
                "serve_queue_wait_secs",
                "journal_append_secs",
                "journal_fsync_secs"
            ]
        );
    }

    #[test]
    fn labeled_histograms_route_by_value_with_catch_all() {
        let r = crate::Registry::new();
        let fam = crate::LabeledHist::ServePushSecs;
        r.observe_labeled(fam, "exact", 0.5);
        r.observe_labeled(fam, "exact", 1.0);
        r.observe_labeled(fam, "unlisted-backend", 2.0);
        let snap = r.snapshot();
        let cells = &snap.labeled_histograms[fam as usize].cells;
        assert_eq!(cells[0].0, "exact");
        assert_eq!(cells[0].1.count, 2);
        assert_eq!(cells[1].1.count, 0);
        assert_eq!(cells.last().unwrap().0, "other");
        assert_eq!(cells.last().unwrap().1.count, 1);
    }

    #[test]
    fn set_bucket_bounds_checked() {
        let mut h = Histogram::new();
        assert!(h.set_bucket(0, 3).is_ok());
        assert!(h.set_bucket(N_BUCKETS, 1).is_err());
        assert_eq!(h.bucket_counts()[0], 3);
    }
}
