//! Order statistics and process counters.
//!
//! Process CPU time and peak resident memory come from `/proc/self`, so
//! the benchmark needs Linux; elsewhere both read as zero.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule;
/// 0 for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Relative width of a [`Histogram`] bucket.
const GROWTH: f64 = 1.001;
/// Buckets from 1 ns up to about 1000 s.
const BUCKETS: usize = 27_650;

/// Latencies in log-spaced buckets 0.1 % wide, so a run's memory does
/// not grow with the number of ops it makes (peak RSS must measure the
/// server, not the harness).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        let i = ((ns.max(1) as f64).ln() / GROWTH.ln()) as usize;
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile by the nearest-rank rule, in nanoseconds, as the
    /// geometric middle of its bucket; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return GROWTH.powf(i as f64 + 0.5);
            }
        }
        GROWTH.powf(BUCKETS as f64)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Median of an unsorted sample of floats; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the spreads printed here match the ones
/// Python computes from the same values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// User plus system CPU time of the whole process (every thread, live
/// or exited), in clock ticks of 10 ms.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis(10 * (ticks(11) + ticks(12)))
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn histogram_quantiles_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.002, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }
}
