//! Fixed-size log-linear latency histogram: values below 64 are counted
//! exactly, and every power of two above is split into 32 equal buckets,
//! so none is wider than 1/32 of its lower edge. 1920 counters (15 KiB)
//! cover all of `u64`; a serve worker records every answer in one without
//! it growing, and histograms merge by adding counters.

const SUB_BITS: u32 = 5;
const BUCKETS: usize = (65 - SUB_BITS as usize) << SUB_BITS;

fn bucket(v: u64) -> usize {
    let shift = (63 - (v | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// Largest value that lands in bucket `i`.
fn upper_edge(i: usize) -> u64 {
    let shift = ((i >> SUB_BITS) as u32).saturating_sub(1);
    let lower = ((i - ((shift as usize) << SUB_BITS)) as u64) << shift;
    lower + ((1 << shift) - 1)
}

/// Latency counts in fixed log-linear buckets, plus the exact extremes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Count one sample.
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile, ceil convention: the sample at 0-based rank
    /// `ceil((n − 1)·q)`, so p99 of 100 samples is the max. Reported as
    /// the upper edge of that sample's bucket clamped to `[min, max]`:
    /// never below the exact value, at most 1/32 above it. 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = (((n - 1) as f64 * q).ceil() as u64).min(n - 1);
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen > rank
        });
        upper_edge(i.expect("rank is below the sample count")).clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QS: [f64; 5] = [0.0, 0.5, 0.95, 0.99, 1.0];

    fn histogram(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    /// Seeded sets of 1, 2, 100 and 10⁵ samples. Each opens with the edge
    /// values (rotated, so the small sets cover all of them); the rest are
    /// LCG draws spread log-uniformly over the `u64` range.
    fn sample_sets() -> Vec<Vec<u64>> {
        let edges = [0, 31, 32, 33, 1 << 63, u64::MAX];
        let mut sets = Vec::new();
        for n in [1usize, 2, 100, 100_000] {
            for k in 0..edges.len() {
                let mut x = 0x2545_f491_4f6c_dd1d ^ (n as u64) ^ ((k as u64) << 32);
                let mut set: Vec<u64> = (0..n.min(6)).map(|i| edges[(i + k) % 6]).collect();
                set.extend((6..n).map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    x >> (x >> 58)
                }));
                sets.push(set);
            }
        }
        sets
    }

    #[test]
    fn quantiles_stay_within_one_32nd_above_nearest_rank() {
        for samples in sample_sets() {
            let h = histogram(&samples);
            let mut sorted = samples.clone();
            sorted.sort();
            for q in QS {
                let rank = ((sorted.len() - 1) as f64 * q).ceil() as usize;
                let exact = u128::from(sorted[rank]);
                let got = u128::from(h.quantile(q));
                assert!(
                    exact <= got && got <= exact + exact / 32,
                    "n={} q={q}: reported {got}, exact {exact}",
                    samples.len()
                );
            }
        }
    }

    #[test]
    fn merged_shards_equal_one_histogram() {
        for samples in sample_sets() {
            let mut merged = LatencyHistogram::default();
            for shard in 0..3 {
                let part: Vec<u64> = samples.iter().skip(shard).step_by(3).copied().collect();
                merged.merge(&histogram(&part));
            }
            assert_eq!(merged, histogram(&samples));
        }
        let empty = LatencyHistogram::default();
        assert!(QS.iter().all(|&q| empty.quantile(q) == 0));
    }

    #[test]
    fn quantile_is_ceil_based_nearest_rank() {
        // p99 of 100 evenly spread samples must be the max — a `.round()`
        // convention reports index 98 (it rounds 98.01 down).
        let hundred = histogram(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(hundred.quantile(0.99), 100);
        assert_eq!(hundred.quantile(0.50), 51); // ceil(49.5) = 50
        assert_eq!(hundred.quantile(0.0), 1);
        assert_eq!(hundred.quantile(1.0), 100);
        // Small distributions: every quantile lands on a real sample, and
        // the rank never rounds below the mass it must cover.
        let five = histogram(&[10, 20, 30, 40, 50]);
        assert_eq!(five.quantile(0.50), 30);
        assert_eq!(five.quantile(0.75), 40);
        assert_eq!(five.quantile(0.99), 50);
        assert_eq!(histogram(&[7]).quantile(0.99), 7);
        assert_eq!(histogram(&[]).quantile(0.5), 0);
    }
}
