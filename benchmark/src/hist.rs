//! Log-bucket latency histogram: 64 sub-buckets per power of two (1.6 % bucket width),
//! fixed size, no allocation when recording.  Quantiles interpolate inside the bucket, so
//! two runs do not collapse onto the same bucket edge.

use crate::json::Json;

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 39;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("samples", &self.total).finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = (b / SUB) as u32 - 1;
    ((((SUB + b % SUB) as u64) << shift) as f64, (1u64 << shift) as f64)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }

    #[inline(always)]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value below which a share `q` of the samples fall; 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c as f64 >= target {
                let (lo, width) = bucket_range(b);
                return lo + width * ((target - below) / c as f64);
            }
            below += c as f64;
        }
        unreachable!("the counts sum to the total");
    }

    /// Sparse form for the child → parent result lines: `[[bucket, count], …]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| Json::Arr(vec![Json::Num(b as f64), Json::Num(c as f64)]))
                .collect(),
        )
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let mut h = Histogram::new();
        for pair in j.as_arr()? {
            let pair = pair.as_arr()?;
            let (b, c) = (pair.first()?.as_f64()? as usize, pair.get(1)?.as_f64()? as u64);
            *h.counts.get_mut(b)? += c;
            h.total += c;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Rng;

    #[test]
    fn bucket_edges_are_contiguous() {
        let mut edge = 0.0;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, edge, "bucket {b}");
            assert_eq!(bucket_of(lo as u64), b);
            assert_eq!(bucket_of((lo + width) as u64 - 1), b);
            edge = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Quantiles stay within 2 % of the exact order statistic on synthetic data: a
    /// log-uniform spread over 50 ns – 5 ms, and a bimodal fast/slow mix.
    #[test]
    fn quantiles_are_within_two_percent_of_exact() {
        let mut rng = Rng::new(7);
        let log_uniform: Vec<u64> = (0..200_000)
            .map(|_| (50.0 * 100_000f64.powf(rng.next_u64() as f64 / u64::MAX as f64)) as u64)
            .collect();
        let bimodal: Vec<u64> = (0..200_000)
            .map(|i| if i % 50 == 0 { 40_000 + rng.below(20_000) } else { 150 + rng.below(100) })
            .collect();
        for mut data in [log_uniform, bimodal] {
            let mut h = Histogram::new();
            data.iter().for_each(|&v| h.record(v));
            data.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = data[((q * data.len() as f64) as usize).min(data.len() - 1)] as f64;
                let got = h.quantile(q);
                assert!((got - exact).abs() <= 0.02 * exact, "q{q}: {got} vs exact {exact}");
            }
        }
    }

    #[test]
    fn merge_and_json_keep_every_sample() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        (0..1000).for_each(|v| a.record(v * 3));
        (0..500).for_each(|v| b.record(v * 1000));
        a.merge(&b);
        assert_eq!(a.count(), 1500);
        let back = Histogram::from_json(&Json::parse(&a.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.count(), 1500);
        assert_eq!(back.quantile(0.99), a.quantile(0.99));
        assert_eq!(Histogram::new().quantile(0.99), 0.0);
    }
}
