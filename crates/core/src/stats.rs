//! Per-thread and aggregated reclamation statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread statistic counters, kept cache-padded in the reclaimer's
/// [`ThreadTable`](crate::ThreadTable) and written (with relaxed ordering) only by the
/// owning thread.
#[derive(Debug, Default)]
pub struct ThreadStatsSlot {
    /// Records handed to [`retire`](crate::ReclaimerThread::retire).
    pub retired: AtomicU64,
    /// Records handed to the reclaim sink (safe to reuse or free).
    pub reclaimed: AtomicU64,
    /// Records currently sitting in this thread's limbo bags.
    pub pending: AtomicU64,
    /// Number of successful epoch advances performed by this thread.
    pub epochs_advanced: AtomicU64,
    /// Number of neutralization signals this thread has sent to others (DEBRA+ only).
    pub signals_sent: AtomicU64,
    /// Number of data structure operations started (calls to `leave_qstate`).
    pub operations: AtomicU64,
    /// Bytes of record memory currently sitting in this thread's limbo bags
    /// (`pending × size_of::<T>()`; see
    /// [`ThreadTable::publish_limbo`](crate::ThreadTable::publish_limbo)).
    pub limbo_bytes: AtomicU64,
    /// High watermark of [`limbo_bytes`](Self::limbo_bytes) over the thread's lifetime —
    /// the assertable bounded-garbage metric.
    pub limbo_bytes_hwm: AtomicU64,
    /// Times this thread observed another thread blocking epoch/era progress (an
    /// announcement scan that could not advance past a laggard).  Always 0 for schemes
    /// without a global epoch (HP, ThreadScan, None).
    pub epoch_stalls: AtomicU64,
}

/// Aggregated statistics across all threads of a reclaimer instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReclaimerStats {
    /// Total records retired.
    pub retired: u64,
    /// Total records reclaimed (handed to the pool / allocator).
    pub reclaimed: u64,
    /// Records currently waiting in limbo bags (retired but not reclaimed).
    pub pending: u64,
    /// Total epoch advances.
    pub epochs_advanced: u64,
    /// Total neutralization signals sent.
    pub signals_sent: u64,
    /// Total data structure operations started.
    pub operations: u64,
    /// Total neutralization signals handled: signals whose handler found the target
    /// inside an operation and made it quiescent (DEBRA+ only).
    pub neutralized: u64,
    /// Current bytes of record memory in limbo, summed over threads.
    pub limbo_bytes: u64,
    /// Sum of the per-thread limbo-bytes high watermarks.  Per-thread watermarks need
    /// not be simultaneous, so this is an *upper bound* on the true process-wide peak —
    /// the safe direction for asserting bounded-garbage claims (`hwm < B` implies the
    /// real peak was below `B` too).
    pub limbo_bytes_hwm: u64,
    /// Total epoch-stall observations (see [`ThreadStatsSlot::epoch_stalls`]).
    pub epoch_stalls: u64,
}

impl ThreadStatsSlot {
    /// Adds `n` to one of a slot's counters with a plain load and store instead of a
    /// lock-prefixed read-modify-write.  Correct only under the single-writer contract
    /// stated on [`ThreadStatsSlot`]: call it from the owning thread alone.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.store(counter.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Adds this thread's counters into an aggregate snapshot (see
    /// [`ThreadTable::snapshot`](crate::ThreadTable::snapshot)).
    pub fn snapshot_into(&self, agg: &mut ReclaimerStats) {
        agg.retired += self.retired.load(Ordering::Relaxed);
        agg.reclaimed += self.reclaimed.load(Ordering::Relaxed);
        agg.pending += self.pending.load(Ordering::Relaxed);
        agg.epochs_advanced += self.epochs_advanced.load(Ordering::Relaxed);
        agg.signals_sent += self.signals_sent.load(Ordering::Relaxed);
        agg.operations += self.operations.load(Ordering::Relaxed);
        agg.limbo_bytes += self.limbo_bytes.load(Ordering::Relaxed);
        agg.limbo_bytes_hwm += self.limbo_bytes_hwm.load(Ordering::Relaxed);
        agg.epoch_stalls += self.epoch_stalls.load(Ordering::Relaxed);
    }
}

/// Aggregated allocation-pipeline statistics of a [`Pool`](crate::Pool) instance.
///
/// The counters describe the retire→free pipeline below the reclaimer: how often an
/// allocation was served from the per-thread magazine versus falling through to the
/// allocator, and — for page-backed pools ([`smr-pagepool`]) — how much page memory the
/// backing store has mapped.  Pools without counters report the all-zero default.
///
/// The gauges (`pages_mapped`, `slots_live`, `slots_free`) are *approximate*: free-slot
/// accounting happens at block granularity (the hot paths must not touch shared
/// counters), so slots cached in per-thread magazines and allocator-local blocks count
/// as live.
///
/// [`smr-pagepool`]: https://docs.rs/smr-pagepool
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Allocations served by a per-thread magazine (or a refill from the shared
    /// overflow pool) without touching the allocator.
    pub magazine_hits: u64,
    /// Allocations that fell through to the allocator because no recycled record was
    /// available.
    pub magazine_misses: u64,
    /// Pages the backing page store has mapped so far (never unmapped; 0 for pools
    /// without a page store).
    pub pages_mapped: u64,
    /// Carved slots currently in circulation: handed out, cached in a magazine, or
    /// parked in an allocator thread's local block.
    pub slots_live: u64,
    /// Carved slots sitting in the page store's global free list.
    pub slots_free: u64,
}

impl PoolStats {
    /// Magazine hit rate in percent (`NaN`-free: returns 0 when nothing was allocated).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.magazine_hits + self.magazine_misses;
        if total == 0 {
            0.0
        } else {
            self.magazine_hits as f64 * 100.0 / total as f64
        }
    }

    /// Adds another snapshot's counters into this one, where both snapshots describe
    /// pools of the **same process** (used when summarizing an in-process sweep's rows).
    pub fn merge(&mut self, other: &PoolStats) {
        self.magazine_hits += other.magazine_hits;
        self.magazine_misses += other.magazine_misses;
        // The gauges describe one shared page store; keep the maximum rather than
        // summing the same store's figure once per row.
        self.pages_mapped = self.pages_mapped.max(other.pages_mapped);
        self.slots_live = self.slots_live.max(other.slots_live);
        self.slots_free = self.slots_free.max(other.slots_free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::ThreadTable;

    #[test]
    fn aggregation_sums_all_threads() {
        let table: ThreadTable<u64> = ThreadTable::new(4);
        for i in 0..4u64 {
            let s = table.stats(i as usize);
            s.retired.store(i + 1, Ordering::Relaxed);
            s.reclaimed.store(i, Ordering::Relaxed);
            s.operations.store(10 * (i + 1), Ordering::Relaxed);
        }
        let agg = table.snapshot();
        assert_eq!(agg.retired, 1 + 2 + 3 + 4);
        assert_eq!(agg.reclaimed, 1 + 2 + 3);
        assert_eq!(agg.operations, 10 + 20 + 30 + 40);
        assert_eq!(agg.pending, 0);
    }

    #[test]
    fn publish_limbo_tracks_bytes_and_watermark() {
        // 64-byte records: the table derives the bytes from the record type.
        let table: ThreadTable<[u8; 64]> = ThreadTable::new(1);
        let s = table.stats(0);
        table.publish_limbo(0, 10);
        assert_eq!(s.pending.load(Ordering::Relaxed), 10);
        assert_eq!(s.limbo_bytes.load(Ordering::Relaxed), 640);
        assert_eq!(s.limbo_bytes_hwm.load(Ordering::Relaxed), 640);
        // Reclaiming shrinks the gauge but the watermark stays.
        table.publish_limbo(0, 2);
        assert_eq!(s.limbo_bytes.load(Ordering::Relaxed), 128);
        assert_eq!(s.limbo_bytes_hwm.load(Ordering::Relaxed), 640);
        // A new peak raises it.
        table.publish_limbo(0, 100);
        assert_eq!(s.limbo_bytes_hwm.load(Ordering::Relaxed), 6400);

        let mut agg = ReclaimerStats::default();
        s.snapshot_into(&mut agg);
        assert_eq!(agg.limbo_bytes, 6400);
        assert_eq!(agg.limbo_bytes_hwm, 6400);
    }

    #[test]
    fn pool_merge_sums_counters_but_maxes_gauges() {
        let a = PoolStats {
            magazine_hits: 10,
            magazine_misses: 2,
            pages_mapped: 5,
            slots_live: 100,
            slots_free: 20,
        };
        let b = PoolStats {
            magazine_hits: 1,
            magazine_misses: 1,
            pages_mapped: 3,
            slots_live: 200,
            slots_free: 10,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.magazine_hits, 11);
        assert_eq!(merged.magazine_misses, 3);
        assert_eq!(merged.pages_mapped, 5, "one store: snapshots overlap, keep the max");
        assert_eq!(merged.slots_live, 200);
        assert_eq!(merged.slots_free, 20);
    }
}
