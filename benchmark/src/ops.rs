//! Seeded operation streams.  The program under test never sees the generator: each
//! worker draws `(kind, key)` here and calls the structure's public API with the key.

/// SplitMix64: one add and three xor-shift-multiplies per draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` for `n < 2^32` (multiply-shift on the high word).
    #[inline(always)]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert = 0,
    Remove = 1,
    Search = 2,
}

pub const KIND_NAMES: [&str; 3] = ["insert", "remove", "search"];

/// Percentages of inserts and removes; the rest are searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub insert_pct: u64,
    pub remove_pct: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

/// One worker's operation stream: a function of `(seed, tid)` and nothing else.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    key_range: u64,
}

impl OpStream {
    pub fn new(seed: u64, tid: usize, mix: Mix, key_range: u64) -> Self {
        assert!(mix.insert_pct + mix.remove_pct <= 100 && (1..1 << 32).contains(&key_range));
        // Decorrelate the per-thread streams of one seed through the generator itself.
        let mut seeder = Rng::new(seed ^ (tid as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        OpStream { rng: Rng::new(seeder.next_u64()), mix, key_range }
    }

    #[inline(always)]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        // Low word picks the kind, high word the key: independent bits of one draw.
        let pct = ((r & 0xFFFF_FFFF) * 100) >> 32;
        let kind = if pct < self.mix.insert_pct {
            OpKind::Insert
        } else if pct < self.mix.insert_pct + self.mix.remove_pct {
            OpKind::Remove
        } else {
            OpKind::Search
        };
        Op { kind, key: ((r >> 32) * self.key_range) >> 32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix { insert_pct: 5, remove_pct: 5 };

    fn take(seed: u64, tid: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, tid, MIX, 1 << 17);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        for tid in 0..2 {
            assert_eq!(take(42, tid, 10_000), take(42, tid, 10_000));
            assert_ne!(take(42, tid, 10_000), take(43, tid, 10_000));
        }
        assert_ne!(take(42, 0, 10_000), take(42, 1, 10_000), "threads draw distinct streams");
    }

    #[test]
    fn stream_follows_the_mix_and_the_key_range() {
        let ops = take(1, 0, 200_000);
        let share = |k| ops.iter().filter(|o| o.kind == k).count() as f64 / ops.len() as f64;
        assert!((share(OpKind::Insert) - 0.05).abs() < 0.005);
        assert!((share(OpKind::Remove) - 0.05).abs() < 0.005);
        assert!(ops.iter().all(|o| o.key < 1 << 17));
        let mean = ops.iter().map(|o| o.key as f64).sum::<f64>() / ops.len() as f64;
        assert!((mean / (1u64 << 16) as f64 - 1.0).abs() < 0.01, "keys are uniform: mean {mean}");
    }
}
