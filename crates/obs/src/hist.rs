//! Lock-free sharded streaming histogram.
//!
//! [`ShardedHist`] wraps the log-bucket layout from [`rvhpc_trace::hist`]
//! in per-shard `AtomicU64` count arrays so concurrent recorders touch
//! disjoint cache lines most of the time: a recording thread picks its
//! shard from [`rvhpc_trace::thread_ordinal`] and does two relaxed
//! fetch-adds plus a fetch-max — no locks. A shard allocates its bucket
//! array on its first sample, so only the shards of threads that actually
//! record cost memory.
//!
//! Reads *merge* the shards into a [`HistSnapshot`]. Because every
//! aggregate is either an integer (bucket counts, sample count,
//! nanosecond sum) or a monotone bit-comparable maximum, the merged
//! snapshot is **bit-deterministic**: the same multiset of recorded
//! samples produces the same snapshot no matter which threads recorded
//! which sample or in what order the shards are combined.

use rvhpc_trace::hist::{quantile_from_counts, N_BUCKETS};
use rvhpc_trace::thread_ordinal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Shards per histogram. Recording threads hash onto these by thread
/// ordinal; more shards trade memory for less false sharing.
pub const N_SHARDS: usize = 8;

struct Shard {
    counts: OnceLock<Box<[AtomicU64]>>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Bit pattern of the largest sample. Samples are non-negative, so
    /// the IEEE-754 bit pattern is monotone in the value and a plain
    /// integer `fetch_max` tracks the true maximum.
    max_bits: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: OnceLock::new(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }
}

/// A cumulative (since process start) sharded histogram of microsecond
/// samples.
pub struct ShardedHist {
    shards: Vec<Shard>,
}

impl Default for ShardedHist {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedHist {
    /// An empty histogram.
    pub fn new() -> ShardedHist {
        ShardedHist { shards: (0..N_SHARDS).map(|_| Shard::new()).collect() }
    }

    /// Record one sample (microseconds). Negative and NaN samples are
    /// counted in the underflow bucket and contribute zero to the sum.
    pub fn record_us(&self, v: f64) {
        let shard = &self.shards[(thread_ordinal() as usize) % N_SHARDS];
        let counts =
            shard.counts.get_or_init(|| (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect());
        counts[rvhpc_trace::hist::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        // Sum in integer nanoseconds so merged sums are deterministic
        // (integer addition commutes; f64 addition does not).
        let ns = if v.is_finite() && v > 0.0 { (v * 1000.0).round() as u64 } else { 0 };
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        let bits = if v.is_finite() && v > 0.0 { v.to_bits() } else { 0 };
        shard.max_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Merge all shards into one deterministic snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        for shard in &self.shards {
            let Some(counts) = shard.counts.get() else { continue };
            for (acc, c) in out.counts.iter_mut().zip(counts.iter()) {
                *acc += c.load(Ordering::Relaxed);
            }
            out.count += shard.count.load(Ordering::Relaxed);
            out.sum_ns += shard.sum_ns.load(Ordering::Relaxed);
            out.max_bits = out.max_bits.max(shard.max_bits.load(Ordering::Relaxed));
        }
        out
    }
}

/// A merged, immutable view of a histogram: plain integers, safe to
/// compare bit-for-bit across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (layout from [`rvhpc_trace::hist`]).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples in integer nanoseconds.
    pub sum_ns: u64,
    /// IEEE-754 bit pattern of the largest sample (0 when empty).
    pub max_bits: u64,
}

impl HistSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> HistSnapshot {
        HistSnapshot { counts: vec![0; N_BUCKETS], count: 0, sum_ns: 0, max_bits: 0 }
    }

    /// Add another snapshot into this one (integer adds — deterministic).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (acc, c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    /// Largest recorded sample in microseconds (0 when empty).
    pub fn max_us(&self) -> f64 {
        f64::from_bits(self.max_bits)
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / 1000.0 / self.count as f64
        }
    }

    /// The `q`-quantile in microseconds: the bucket upper bound clamped to
    /// the observed maximum, so a saturated overflow bucket reports the
    /// real max instead of `+inf` and a single-sample histogram reports
    /// the sample itself.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        quantile_from_counts(&self.counts, q).min(self.max_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_observations_are_all_zeros() {
        let h = ShardedHist::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum_ns, 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.max_us(), 0.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile_us(q), 0.0);
        }
    }

    #[test]
    fn only_recording_shards_allocate_bucket_arrays() {
        let h = ShardedHist::new();
        let allocated =
            |h: &ShardedHist| h.shards.iter().filter(|s| s.counts.get().is_some()).count();
        assert_eq!(allocated(&h), 0);
        h.record_us(1.0);
        h.record_us(2.0);
        assert_eq!(allocated(&h), 1, "one recording thread, one shard");
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn single_observation_reports_itself_at_every_quantile() {
        let h = ShardedHist::new();
        h.record_us(137.25);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_ns, 137_250);
        assert_eq!(s.max_us(), 137.25);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile_us(q), 137.25, "q={q}: clamped to the observed max");
        }
    }

    #[test]
    fn saturating_max_bucket_keeps_count_and_clamps_quantiles() {
        let h = ShardedHist::new();
        let huge = 3.0e30; // far beyond 2^OCTAVES µs
        h.record_us(huge);
        h.record_us(huge * 2.0);
        h.record_us(5.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[N_BUCKETS - 1], 2, "both giants saturate the final bucket");
        let p99 = s.quantile_us(0.99);
        assert!(p99.is_finite(), "overflow bucket must not leak +inf");
        assert_eq!(p99, huge * 2.0, "clamped to the true observed max");
    }

    #[test]
    fn nan_and_negative_samples_go_to_underflow_without_poisoning_sums() {
        let h = ShardedHist::new();
        h.record_us(f64::NAN);
        h.record_us(-7.0);
        h.record_us(2.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.sum_ns, 2000);
        assert_eq!(s.max_us(), 2.0);
    }

    #[test]
    fn concurrent_recording_from_std_threads_is_merge_deterministic() {
        // The same multiset of samples recorded under three different
        // thread layouts must merge to bit-identical snapshots.
        let samples: Vec<f64> = (0..4000).map(|i| 1.0 + (i as f64 * 17.31) % 90_000.0).collect();

        let serial = ShardedHist::new();
        for &v in &samples {
            serial.record_us(v);
        }
        let want = serial.snapshot();

        for n_threads in [2usize, 7] {
            let h = ShardedHist::new();
            std::thread::scope(|scope| {
                for t in 0..n_threads {
                    let h = &h;
                    let chunk: Vec<f64> =
                        samples.iter().copied().skip(t).step_by(n_threads).collect();
                    scope.spawn(move || {
                        for v in chunk {
                            h.record_us(v);
                        }
                    });
                }
            });
            let got = h.snapshot();
            assert_eq!(got, want, "{n_threads}-thread fan-in must merge bit-identically");
            assert_eq!(got.quantile_us(0.999).to_bits(), want.quantile_us(0.999).to_bits());
        }
    }
}
