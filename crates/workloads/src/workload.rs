//! Operation mixes and key generation.

use rand::distributions::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::experiments::AllocatorKind;

/// An operation mix, written the way the paper writes it: `xi-yd` means x% inserts,
/// y% deletes and the remainder searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationMix {
    /// Percentage of insert operations (0–100).
    pub insert_pct: u8,
    /// Percentage of delete operations (0–100).
    pub delete_pct: u8,
}

impl OperationMix {
    /// The paper's update-heavy mix: 50% inserts, 50% deletes.
    pub const UPDATE_HEAVY: OperationMix = OperationMix { insert_pct: 50, delete_pct: 50 };
    /// The paper's mixed workload: 25% inserts, 25% deletes, 50% searches.
    pub const MIXED: OperationMix = OperationMix { insert_pct: 25, delete_pct: 25 };
    /// A read-dominated mix (not in the paper's figures, used by extra ablations).
    pub const READ_MOSTLY: OperationMix = OperationMix { insert_pct: 5, delete_pct: 5 };

    /// Percentage of search operations.
    pub fn search_pct(&self) -> u8 {
        100 - self.insert_pct - self.delete_pct
    }

    /// The paper's label for this mix, e.g. `"50i-50d"`.
    pub fn label(&self) -> String {
        format!("{}i-{}d", self.insert_pct, self.delete_pct)
    }
}

/// How keys are drawn from `0..key_range`.
///
/// The paper's figures use uniform keys throughout; the Zipfian option adds the hot-key
/// contention regime (a few keys receive most operations) under which retired-but-
/// unreclaimable garbage piles up on the contended chains — the workload shape that
/// separates reclamation schemes in the hash-table literature.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KeyDistribution {
    /// Every key equally likely (the paper's setting).
    #[default]
    Uniform,
    /// Zipfian: key popularity follows rank^(-theta).  Hot ranks are scrambled across the
    /// key space (as in YCSB's scrambled-Zipfian generator) so that hot keys do not
    /// cluster in adjacent buckets or tree paths.
    Zipf {
        /// The skew exponent; YCSB's default is 0.99 (≈ hottest key takes ~10% of ops at
        /// `key_range` = 1000).
        theta: f64,
    },
}

impl KeyDistribution {
    /// The YCSB-default Zipfian skew.
    pub const ZIPF_DEFAULT: KeyDistribution = KeyDistribution::Zipf { theta: 0.99 };

    /// Short label used in experiment tables (e.g. `"uniform"`, `"zipf0.99"`).
    pub fn label(&self) -> String {
        match self {
            KeyDistribution::Uniform => "uniform".to_string(),
            KeyDistribution::Zipf { theta } => format!("zipf{theta}"),
        }
    }
}

/// One benchmark configuration (the knobs the paper sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Keys are drawn from `0..key_range` according to `distribution`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: OperationMix,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
    /// Trial duration in milliseconds.
    pub duration_ms: u64,
    /// Whether to prefill the structure to half the key range before timing.
    pub prefill: bool,
    /// Memory configuration (allocator + pool) the Record Manager is composed with.
    pub allocator: AllocatorKind,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 4,
            key_range: 10_000,
            mix: OperationMix::UPDATE_HEAVY,
            distribution: KeyDistribution::Uniform,
            duration_ms: 200,
            prefill: true,
            allocator: AllocatorKind::BumpWithPool,
        }
    }
}

/// A single operation chosen by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Insert `key`.
    Insert(u64),
    /// Delete `key`.
    Delete(u64),
    /// Search for `key`.
    Search(u64),
}

/// The concrete key sampler backing a [`KeyDistribution`].
#[derive(Debug)]
enum KeySampler {
    Uniform,
    Zipf(Zipf),
}

/// The splitmix64 finalizer: a fixed bijection on `u64` used to scramble Zipf ranks
/// across the key space (YCSB's "scrambled Zipfian").
#[inline]
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-thread deterministic operation generator (seeded per thread id so trials are
/// reproducible).
#[derive(Debug)]
pub struct OperationGenerator {
    rng: SmallRng,
    key_range: u64,
    mix: OperationMix,
    sampler: KeySampler,
}

impl OperationGenerator {
    /// Creates a generator for worker `tid` under `cfg`.
    pub fn new(cfg: &WorkloadConfig, tid: usize, seed: u64) -> Self {
        let sampler = match cfg.distribution {
            KeyDistribution::Uniform => KeySampler::Uniform,
            KeyDistribution::Zipf { theta } => KeySampler::Zipf(Zipf::new(cfg.key_range, theta)),
        };
        OperationGenerator {
            rng: SmallRng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            key_range: cfg.key_range,
            mix: cfg.mix,
            sampler,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Operation {
        let key = self.next_key();
        let p: u8 = self.rng.gen_range(0..100);
        if p < self.mix.insert_pct {
            Operation::Insert(key)
        } else if p < self.mix.insert_pct + self.mix.delete_pct {
            Operation::Delete(key)
        } else {
            Operation::Search(key)
        }
    }

    /// Draws a random key following the configured distribution.
    pub fn next_key(&mut self) -> u64 {
        match &self.sampler {
            KeySampler::Uniform => self.rng.gen_range(0..self.key_range),
            // Rank 1 is the hottest; scramble spreads the hot ranks over the key space so
            // they do not land in adjacent buckets / tree paths.
            KeySampler::Zipf(zipf) => scramble(zipf.sample(&mut self.rng) - 1) % self.key_range,
        }
    }

    /// Draws a uniformly random key regardless of the configured distribution (used for
    /// prefilling, which targets a structure *size*, not a popularity profile).
    pub fn next_uniform_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.key_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_labels_match_the_paper() {
        assert_eq!(OperationMix::UPDATE_HEAVY.label(), "50i-50d");
        assert_eq!(OperationMix::MIXED.label(), "25i-25d");
        assert_eq!(OperationMix::MIXED.search_pct(), 50);
        assert_eq!(OperationMix::UPDATE_HEAVY.search_pct(), 0);
    }

    #[test]
    fn generator_respects_mix_proportions() {
        let cfg =
            WorkloadConfig { mix: OperationMix::MIXED, key_range: 1000, ..Default::default() };
        let mut g = OperationGenerator::new(&cfg, 0, 42);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            match g.next_op() {
                Operation::Insert(k) => {
                    assert!(k < 1000);
                    counts[0] += 1;
                }
                Operation::Delete(_) => counts[1] += 1,
                Operation::Search(_) => counts[2] += 1,
            }
        }
        // 25/25/50 within a small tolerance.
        assert!((23_000..27_000).contains(&counts[0]), "{counts:?}");
        assert!((23_000..27_000).contains(&counts[1]), "{counts:?}");
        assert!((48_000..52_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn generator_zipf_concentrates_mass_on_few_keys() {
        let uniform_cfg = WorkloadConfig {
            key_range: 10_000,
            distribution: KeyDistribution::Uniform,
            ..Default::default()
        };
        let zipf_cfg = WorkloadConfig {
            key_range: 10_000,
            distribution: KeyDistribution::ZIPF_DEFAULT,
            ..Default::default()
        };
        let top_share = |cfg: &WorkloadConfig| {
            let mut g = OperationGenerator::new(cfg, 0, 99);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..50_000u32 {
                *counts.entry(g.next_key()).or_insert(0u32) += 1;
            }
            let mut freqs: Vec<u32> = counts.values().copied().collect();
            freqs.sort_unstable_by(|a, b| b.cmp(a));
            freqs.iter().take(10).sum::<u32>() as f64 / 50_000.0
        };
        let uniform_top = top_share(&uniform_cfg);
        let zipf_top = top_share(&zipf_cfg);
        assert!(uniform_top < 0.02, "uniform top-10 share was {uniform_top}");
        assert!(zipf_top > 0.20, "zipf top-10 share was {zipf_top}");
        // Prefill keys stay uniform even under a Zipfian operation distribution.
        let mut g = OperationGenerator::new(&zipf_cfg, 0, 99);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000u32 {
            seen.insert(g.next_uniform_key());
        }
        assert!(seen.len() > 3_000, "uniform prefill keys should rarely repeat");
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_tid() {
        let cfg = WorkloadConfig::default();
        let a: Vec<_> = {
            let mut g = OperationGenerator::new(&cfg, 3, 7);
            (0..100).map(|_| g.next_op()).collect()
        };
        let b: Vec<_> = {
            let mut g = OperationGenerator::new(&cfg, 3, 7);
            (0..100).map(|_| g.next_op()).collect()
        };
        let c: Vec<_> = {
            let mut g = OperationGenerator::new(&cfg, 4, 7);
            (0..100).map(|_| g.next_op()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
