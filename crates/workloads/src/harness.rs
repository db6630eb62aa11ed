//! The generic timed-trial driver.
//!
//! The driver is split in two layers on purpose:
//!
//! * [`run_trial`] — the public, generic entry point, parameterized by the concrete map
//!   type.  It is a thin adapter: a handful of `#[inline]` wrapper calls per combination.
//! * `run_trial_erased` — the actual trial body (prefill, thread spawning, timing,
//!   operation loop), which works through the object-safe [`BenchHandle`] and therefore
//!   **compiles exactly once** instead of once per (structure × reclaimer × pool ×
//!   allocator) combination of the experiment dispatch tree (87 of them, see
//!   `DESIGN.md` §3).
//!
//! The per-operation virtual call this introduces is one predictable indirect branch per
//! map operation (each of which is itself tens to hundreds of instructions plus cache
//! misses); the map operations themselves stay fully monomorphized.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use debra_repro::debra::{PoolStats, ReclaimerStats};
use debra_repro::lockfree_ds::ConcurrentMap;

use crate::workload::{Operation, OperationGenerator, WorkloadConfig};

/// The outcome of one timed trial, in the units the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrialResult {
    /// Total completed operations.
    pub operations: u64,
    /// Throughput in million operations per second (the y-axis of Figures 8–10).
    pub throughput_mops: f64,
    /// Wall-clock duration of the timed phase.
    pub duration_secs: f64,
    /// Reclaimer statistics at the end of the trial.
    pub reclaimer: ReclaimerStats,
    /// Total bytes of record memory requested from the allocator (bump-pointer distance;
    /// the metric of Figure 9 right).
    pub allocated_bytes: u64,
    /// Total records requested from the allocator.
    pub allocated_records: u64,
    /// Allocation-pipeline statistics (magazine hits/misses, page store gauges) at the
    /// end of the trial; all-zero for pools that keep no counters.
    pub pool: PoolStats,
}

/// Object-safe per-thread view of a map under test: one registered worker handle bound to
/// its map.  This is what lets the trial body be compiled once for every combination of
/// the dispatch macro (see the module docs).
pub trait BenchHandle {
    /// Inserts `key -> value`; returns `true` if the key was not present.
    fn insert(&mut self, key: u64, value: u64) -> bool;
    /// Removes `key`; returns `true` if it was present.
    fn remove(&mut self, key: u64) -> bool;
    /// Returns `true` if `key` is present.
    fn contains(&mut self, key: u64) -> bool;
}

/// The blanket [`BenchHandle`] adapter: a map reference plus its registered handle.
struct MapHandle<'m, M: ConcurrentMap<u64, u64>> {
    map: &'m M,
    handle: M::Handle,
}

impl<'m, M: ConcurrentMap<u64, u64>> BenchHandle for MapHandle<'m, M> {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.map.insert(&mut self.handle, key, value)
    }

    #[inline]
    fn remove(&mut self, key: u64) -> bool {
        self.map.remove(&mut self.handle, &key)
    }

    #[inline]
    fn contains(&mut self, key: u64) -> bool {
        self.map.contains(&mut self.handle, &key)
    }
}

/// Runs one timed trial of `cfg` against `map`, following the paper's methodology
/// (optional prefill to half the key range, then timed random operations on every thread).
///
/// `reclaimer_stats` and `allocator_stats` are read at the end of the trial; they are
/// closures so the harness stays independent of the concrete Record Manager composition.
pub fn run_trial<'m, M>(
    map: &'m M,
    cfg: &WorkloadConfig,
    seed: u64,
    reclaimer_stats: impl Fn() -> ReclaimerStats,
    allocator_stats: impl Fn() -> (u64, u64),
    pool_stats: impl Fn() -> PoolStats,
) -> TrialResult
where
    M: ConcurrentMap<u64, u64>,
    M::Handle: 'm,
{
    // Everything below this adapter is monomorphization-free (see the module docs).
    // The `tid` parameter only seeds each worker's operation generator; thread slots are
    // leased automatically through each structure's `Domain`.
    let factory = |_tid: usize| -> Box<dyn BenchHandle + 'm> {
        Box::new(MapHandle { map, handle: map.register().expect("register worker thread") })
    };
    run_trial_erased(&factory, cfg, seed, &reclaimer_stats, &allocator_stats, &pool_stats)
}

/// The type-erased trial body; compiled once (see the module docs for why).
fn run_trial_erased<'m>(
    factory: &(dyn Fn(usize) -> Box<dyn BenchHandle + 'm> + Sync),
    cfg: &WorkloadConfig,
    seed: u64,
    reclaimer_stats: &dyn Fn() -> ReclaimerStats,
    allocator_stats: &dyn Fn() -> (u64, u64),
    pool_stats: &dyn Fn() -> PoolStats,
) -> TrialResult {
    assert!(cfg.threads >= 1, "at least one worker thread is required");

    // Prefill to half of the key range (performed on the calling thread, like the paper).
    // Prefill keys are always drawn uniformly — the prefill targets a structure *size*;
    // only the timed phase follows `cfg.distribution`.  Dropping the handle afterwards
    // matters: safe-layer structures lease thread slots through their `Domain`, and the
    // drop releases the calling thread's lease so the worker threads can use all
    // `cfg.threads` slots (raw-handle structures deregister their `tid` the same way).
    if cfg.prefill {
        let mut handle = factory(0);
        let mut gen = OperationGenerator::new(cfg, 0, seed ^ 0xBEEF);
        let target = (cfg.key_range / 2) as usize;
        let mut inserted = 0usize;
        let mut attempts = 0u64;
        while inserted < target && attempts < cfg.key_range * 8 {
            if handle.insert(gen.next_uniform_key(), attempts) {
                inserted += 1;
            }
            attempts += 1;
        }
        drop(handle);
    }

    let stop = AtomicBool::new(false);
    let started = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let start_gate = AtomicBool::new(false);

    let timed = std::thread::scope(|scope| {
        for tid in 0..cfg.threads {
            let stop = &stop;
            let started = &started;
            let total_ops = &total_ops;
            let start_gate = &start_gate;
            let cfg = *cfg;
            scope.spawn(move || {
                let mut handle = factory(tid);
                let mut gen = OperationGenerator::new(&cfg, tid, seed);
                started.fetch_add(1, Ordering::SeqCst);
                while !start_gate.load(Ordering::Acquire) {
                    // Yield, don't just spin: with more workers than cores (always, on the
                    // single-core CI container) a bare spin burns whole scheduling quanta
                    // while the main thread is waiting to flip the gate.
                    std::thread::yield_now();
                }
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match gen.next_op() {
                        Operation::Insert(k) => {
                            handle.insert(k, k);
                        }
                        Operation::Delete(k) => {
                            handle.remove(k);
                        }
                        Operation::Search(k) => {
                            handle.contains(k);
                        }
                    }
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::SeqCst);
            });
        }

        // Wait for all workers to have registered, then time the run.
        while started.load(Ordering::SeqCst) < cfg.threads as u64 {
            std::thread::yield_now();
        }
        let begin = Instant::now();
        start_gate.store(true, Ordering::Release);
        std::thread::sleep(Duration::from_millis(cfg.duration_ms));
        stop.store(true, Ordering::SeqCst);
        begin.elapsed()
        // scope joins all workers here
    });

    let operations = total_ops.load(Ordering::SeqCst);
    let duration_secs = timed.as_secs_f64();
    let (allocated_bytes, allocated_records) = allocator_stats();
    TrialResult {
        operations,
        throughput_mops: operations as f64 / duration_secs / 1.0e6,
        duration_secs,
        reclaimer: reclaimer_stats(),
        allocated_bytes,
        allocated_records,
        pool: pool_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDistribution, OperationMix};
    use debra_repro::debra::{Debra, Reclaimer, RecordManager};
    use debra_repro::lockfree_ds::{HarrisMichaelList, ListNode};
    use debra_repro::smr_alloc::{SystemAllocator, ThreadPool};
    use std::sync::Arc;

    type Node = ListNode<u64, u64>;
    type List = HarrisMichaelList<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;

    #[test]
    fn trial_produces_sensible_numbers() {
        let manager = Arc::new(RecordManager::new(3));
        let list: List = HarrisMichaelList::new(Arc::clone(&manager));
        let cfg = WorkloadConfig {
            threads: 2,
            key_range: 256,
            mix: OperationMix::UPDATE_HEAVY,
            distribution: KeyDistribution::Uniform,
            duration_ms: 50,
            prefill: true,
            allocator: crate::experiments::AllocatorKind::SystemWithPool,
        };
        // Worker threads use tids 0..threads; prefill reuses tid 0 before workers start.
        let result = run_trial(
            &list,
            &cfg,
            1,
            || manager.reclaimer().stats(),
            || {
                use debra_repro::debra::Allocator;
                (manager.allocator().allocated_bytes(), manager.allocator().allocated_records())
            },
            || {
                use debra_repro::debra::Pool;
                manager.pool().stats()
            },
        );
        assert!(result.operations > 0);
        assert!(result.throughput_mops > 0.0);
        assert!(result.duration_secs > 0.04);
        assert!(result.allocated_records > 0);
        assert!(result.reclaimer.operations > 0);
    }

    #[test]
    fn trial_runs_under_a_zipfian_distribution() {
        let manager = Arc::new(RecordManager::new(3));
        let list: List = HarrisMichaelList::new(Arc::clone(&manager));
        let cfg = WorkloadConfig {
            threads: 2,
            key_range: 128,
            mix: OperationMix::UPDATE_HEAVY,
            distribution: KeyDistribution::ZIPF_DEFAULT,
            duration_ms: 40,
            prefill: true,
            allocator: crate::experiments::AllocatorKind::SystemWithPool,
        };
        let result = run_trial(
            &list,
            &cfg,
            2,
            || manager.reclaimer().stats(),
            || {
                use debra_repro::debra::Allocator;
                (manager.allocator().allocated_bytes(), manager.allocator().allocated_records())
            },
            || {
                use debra_repro::debra::Pool;
                manager.pool().stats()
            },
        );
        assert!(result.operations > 0);
        assert!(result.reclaimer.retired > 0, "hot-key churn must retire records");
    }
}
