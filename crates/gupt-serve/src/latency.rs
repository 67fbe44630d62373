//! The serve plane's request-latency record: a fixed log-bucket
//! histogram.
//!
//! Each request's service time (µs) is counted in one of a fixed set of
//! log-spaced buckets with a relaxed atomic add. Memory never grows
//! with the request count, and a `stats` call reads the counts instead
//! of copying and sorting every sample ever taken. The layout is the
//! HDR-histogram one with 16 sub-buckets per power of two: values below
//! 32 µs have a bucket each, and a larger value's bucket is at most
//! 1/16 of its lower bound wide, so a reported percentile is within
//! 1/16 of the exact one.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values `0..SUB` get a bucket each; each power of two from
/// `2^SUB_BITS` up to `2^63` gets `SUB` more.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket of `v`.
fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) as usize & (SUB - 1);
    (msb - SUB_BITS + 1) as usize * SUB + sub
}

/// The largest value bucket `b` holds.
fn highest_in(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let shift = (b / SUB - 1) as u32;
    let lowest = ((SUB + b % SUB) as u64) << shift;
    lowest + ((1u64 << shift) - 1)
}

/// Fixed-size, lock-free latency histogram.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Counts one request that took `us` microseconds.
    pub(crate) fn record(&self, us: u64) {
        self.counts[bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank percentiles `pcts` (each in `[0, 100]`) of the
    /// recorded values, all read from one pass over the counts. Each is
    /// the largest value of the bucket the exact percentile falls in;
    /// 0 while nothing is recorded.
    pub(crate) fn percentiles<const N: usize>(&self, pcts: [f64; N]) -> [u64; N] {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        pcts.map(|pct| {
            if total == 0 {
                return 0;
            }
            let rank = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (b, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return highest_in(b);
                }
            }
            highest_in(BUCKETS - 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(31), 31, "values below 32 are exact");
        assert_eq!(highest_in(31), 31);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(highest_in(BUCKETS - 1), u64::MAX);
        for b in 1..BUCKETS {
            // Each bucket starts right after the previous one ends, and
            // is at most 1/16 of its lowest value wide.
            let lowest = highest_in(b - 1) + 1;
            assert_eq!(bucket(lowest), b);
            assert_eq!(bucket(highest_in(b)), b);
            assert!(highest_in(b) - lowest <= lowest / 16, "bucket {b}");
        }
    }

    #[test]
    fn percentiles_stay_within_a_bucket_of_nearest_rank() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.percentiles([50.0, 99.0]), [0, 0]);
        let size = std::mem::size_of_val(&hist);
        // A million latencies spread over six decades (splitmix64).
        let mut state = 0x5EED_u64;
        let mut samples: Vec<u64> = (0..1_000_000)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 44) >> (z % 20)
            })
            .collect();
        for &us in &samples {
            hist.record(us);
        }
        assert_eq!(std::mem::size_of_val(&hist), size, "no growth per sample");
        samples.sort_unstable();
        let pcts = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        for (pct, got) in pcts.into_iter().zip(hist.percentiles(pcts)) {
            let rank = ((pct / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
            let exact = samples[rank - 1];
            assert!(
                bucket(got).abs_diff(bucket(exact)) <= 1,
                "p{pct}: {got} vs exact {exact}"
            );
            assert!(
                got >= exact && got - exact <= exact / 16,
                "p{pct}: {got} vs {exact}"
            );
        }
    }
}
