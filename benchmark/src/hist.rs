//! Preallocated log-linear latency histogram: 128 linear sub-buckets
//! per power of two, so a bucket is at most 1/128 (< 1 %) wide relative
//! to its lower edge. Recording is an index computation and one add.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (((shift + 1) as u64) << SUB_BITS | ((v >> shift) & (SUB - 1))) as usize
}

/// Lower edge and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let (row, sub) = ((i as u64) >> SUB_BITS, (i as u64) & (SUB - 1));
    if row == 0 {
        (sub, 1)
    } else {
        ((SUB | sub) << (row - 1), 1 << (row - 1))
    }
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, interpolated by rank inside its bucket (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let frac = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * frac;
            }
            before += c;
        }
        unreachable!("rank never exceeds the total count")
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_within_one_percent() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1000, 123_456, u64::MAX] {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, +{width})");
            assert!(width == 1 || (width as f64) / (lo as f64) <= 1.0 / 128.0);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got}");
        }
    }
}
