//! Latency recorder with bounded relative error.
//!
//! Log-linear buckets: values below 128 ns are exact; above, each power of
//! two is split into 128 equal sub-buckets. A quantile interpolates by rank
//! inside its bucket, so it stays within one bucket width (1/128 = 0.78%)
//! of the exact order statistic — fine enough to show a 2% change, where a
//! log2 histogram hides a 1.9x one.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Fixed-memory latency histogram over nanosecond samples.
#[derive(Clone)]
pub struct Recorder {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + mantissa) as usize
}

/// Lower bound and width of bucket `i` (width 1 below `SUB`: exact).
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    (((i % SUB + SUB) << shift) as f64, (1u64 << shift) as f64)
}

impl Recorder {
    /// Record one sample, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold another recorder into this one.
    pub fn merge(&mut self, o: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lower, width) = bounds(i);
                if width == 1.0 {
                    return lower;
                }
                // Spread the bucket's samples evenly over its width.
                return lower + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }

    /// Quantile `q` in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_match_an_exact_sort_within_one_percent() {
        // A known sample spanning six decades: a log-uniform body plus a
        // far tail, the shape of the latencies this benchmark records.
        let mut rng = gfsl_rng::SplitMix64::new(7);
        let mut sample: Vec<u64> = (0..200_000)
            .map(|_| (10f64.powf(1.0 + 5.0 * rng.unit_f64())) as u64)
            .collect();
        sample.extend((0..500).map(|i| 50_000_000 + i * 997));
        let mut r = Recorder::default();
        for &v in &sample {
            r.record(v);
        }
        sample.sort_unstable();
        assert_eq!(r.count(), sample.len() as u64);
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let want = exact(&sample, q);
            let got = r.quantile_ns(q);
            let err = (got - want).abs() / want;
            assert!(err <= 0.01, "q={q}: got {got}, exact {want}, err {err}");
        }
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        for v in 0..100 {
            a.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.quantile_ns(0.5), 49.0);
        assert_eq!(a.quantile_ns(1.0), 99.0);
        assert_eq!(Recorder::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn a_two_percent_shift_moves_the_median() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        for v in 0..10_000u64 {
            a.record(300_000 + v);
            b.record((300_000 + v) * 102 / 100);
        }
        let ratio = b.quantile_ns(0.5) / a.quantile_ns(0.5);
        assert!((ratio - 1.02).abs() < 0.005, "ratio {ratio}");
    }
}
