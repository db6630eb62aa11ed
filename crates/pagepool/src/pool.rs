//! The [`Pool`] face: per-thread magazines of recycled records with a lock-free global
//! overflow pool.

use std::fmt;
use std::mem;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockbag::{Block, SharedBlockBag, DEFAULT_BLOCK_CAPACITY};
use crossbeam_utils::CachePadded;
use debra::{AllocatorThread, Pool, PoolStats, PoolThread, ReclaimSink};

use crate::store::{store_for, PageStore};

#[derive(Debug, Default)]
struct MagazineCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A bounded two-magazine record pool (Bonwick's magazine design) over the type-stable
/// page store.
///
/// Each thread holds at most two magazines ([`DEFAULT_BLOCK_CAPACITY`] records each) of
/// *recycled records* — records a reclaimer has proven unreachable, values still in
/// place.  Allocation pops the primary magazine; reclamation pushes it.  When both
/// magazines fill, the older one moves to the lock-free global overflow pool in one O(1)
/// block operation, so a thread that retires more than it allocates (a consumer in a
/// producer/consumer workload) cannot hoard records: the surplus flows to the threads
/// that allocate.
///
/// The pool only ever *caches* records; it neither allocates nor frees pages itself.
/// Records that fall through (magazines and overflow empty) are allocated fresh by the
/// configured [`Allocator`](debra::Allocator) — compose with
/// [`PageAllocator`](crate::PageAllocator) to keep that path off malloc too.
pub struct PagePool<T> {
    /// Full magazines spilled by threads whose local bound was hit.
    overflow: SharedBlockBag<T>,
    counters: Box<[CachePadded<MagazineCounters>]>,
    /// Kept so [`Pool::stats`] can report page/slot gauges alongside magazine counters.
    store: Arc<PageStore<T>>,
}

impl<T: Send + 'static> Pool<T> for PagePool<T> {
    type Thread = PagePoolThread<T>;

    fn new(max_threads: usize) -> Self {
        PagePool {
            overflow: SharedBlockBag::new(),
            counters: (0..max_threads.max(1))
                .map(|_| CachePadded::new(MagazineCounters::default()))
                .collect(),
            store: store_for::<T>(),
        }
    }

    fn register(this: &Arc<Self>, tid: usize) -> Self::Thread {
        PagePoolThread {
            global: Arc::clone(this),
            tid,
            primary: Block::with_capacity(DEFAULT_BLOCK_CAPACITY),
            previous: None,
            spare: None,
            hits: 0,
            misses: 0,
        }
    }

    fn name() -> &'static str {
        "page-magazine"
    }

    fn drain_shared(&self) -> Vec<NonNull<T>> {
        let mut out = Vec::new();
        for mut block in self.overflow.pop_all() {
            while let Some(record) = block.pop() {
                out.push(record);
            }
        }
        out
    }

    fn stats(&self) -> PoolStats {
        let mut stats = PoolStats::default();
        for c in self.counters.iter() {
            stats.magazine_hits += c.hits.load(Ordering::Relaxed);
            stats.magazine_misses += c.misses.load(Ordering::Relaxed);
        }
        stats.pages_mapped = self.store.pages_mapped();
        stats.slots_free = self.store.slots_free();
        stats.slots_live = self.store.slots_total().saturating_sub(stats.slots_free);
        stats
    }
}

impl<T> PagePool<T> {
    fn counter(&self, tid: usize) -> &MagazineCounters {
        &self.counters[tid.min(self.counters.len() - 1)]
    }
}

impl<T> fmt::Debug for PagePool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagePool").field("threads", &self.counters.len()).finish()
    }
}

/// Per-thread handle of [`PagePool`]: two bounded magazines plus an empty spare.
pub struct PagePoolThread<T> {
    global: Arc<PagePool<T>>,
    tid: usize,
    /// The magazine served by `try_take`/`accept` (hot path: single `Vec` push/pop).
    primary: Box<Block<T>>,
    /// The other magazine; full (rotated out by `accept`) or a refill in waiting.
    previous: Option<Box<Block<T>>>,
    /// An empty magazine kept to avoid re-allocating magazine storage on rotation.
    spare: Option<Box<Block<T>>>,
    /// Local counters published to the shared slots only on cold paths, keeping the hot
    /// path free of atomics.
    hits: u64,
    misses: u64,
}

impl<T: Send + 'static> PagePoolThread<T> {
    fn take_spare(&mut self) -> Box<Block<T>> {
        self.spare.take().unwrap_or_else(|| Block::with_capacity(DEFAULT_BLOCK_CAPACITY))
    }

    fn stash_spare(&mut self, block: Box<Block<T>>) {
        debug_assert!(block.is_empty());
        if self.spare.is_none() {
            self.spare = Some(block);
        }
    }

    #[cold]
    #[inline(never)]
    fn publish_stats(&mut self) {
        if self.hits == 0 && self.misses == 0 {
            return;
        }
        let c = self.global.counter(self.tid);
        c.hits.fetch_add(self.hits, Ordering::Relaxed);
        c.misses.fetch_add(self.misses, Ordering::Relaxed);
        self.hits = 0;
        self.misses = 0;
    }

    fn flush_magazines(&mut self) {
        if let Some(prev) = self.previous.take() {
            if prev.is_empty() {
                self.stash_spare(prev);
            } else {
                self.global.overflow.push_block(prev);
            }
        }
        if !self.primary.is_empty() {
            let fresh = self.take_spare();
            let full = mem::replace(&mut self.primary, fresh);
            self.global.overflow.push_block(full);
        }
        self.publish_stats();
    }
}

impl<T: Send + 'static> PoolThread<T> for PagePoolThread<T> {
    fn try_take(&mut self) -> Option<NonNull<T>> {
        if let Some(record) = self.primary.pop() {
            self.hits += 1;
            return Some(record);
        }
        // Primary is empty: rotate `previous` in if it has records.  Publish here too,
        // once per magazine: a thread fed whole blocks by its reclaimer (`accept_block`
        // parks each in `previous`) may never spill or refill, so without this its
        // counters would stay local until the handle drops.
        if let Some(prev) = self.previous.take() {
            if !prev.is_empty() {
                let empty = mem::replace(&mut self.primary, prev);
                self.stash_spare(empty);
                self.hits += 1;
                self.publish_stats();
                return self.primary.pop();
            }
            self.stash_spare(prev);
        }
        // Both magazines empty: refill from the global overflow pool (records another
        // thread spilled), one whole magazine at a time.
        if let Some(block) = self.global.overflow.pop_block() {
            let empty = mem::replace(&mut self.primary, block);
            self.stash_spare(empty);
            self.hits += 1;
            self.publish_stats();
            return self.primary.pop();
        }
        self.misses += 1;
        None
    }

    unsafe fn deallocate<A: AllocatorThread<T>>(&mut self, record: NonNull<T>, _alloc: &mut A) {
        // Recycle instead of freeing: the record keeps its (stale) value and waits in a
        // magazine for the next allocation, which overwrites it in place.
        self.accept(record);
    }

    fn cached(&self) -> usize {
        self.primary.len() + self.previous.as_ref().map_or(0, |b| b.len())
    }

    fn flush_to_shared(&mut self) {
        self.flush_magazines();
    }
}

impl<T: Send + 'static> ReclaimSink<T> for PagePoolThread<T> {
    fn accept(&mut self, record: NonNull<T>) {
        if self.primary.push(record) {
            return;
        }
        // Primary full: rotate it out.  If `previous` is already full too, spill the
        // older magazine to the global overflow pool — this is the bound that stops a
        // retire-heavy thread from hoarding records.
        let fresh = self.take_spare();
        let full = mem::replace(&mut self.primary, fresh);
        if let Some(older) = self.previous.replace(full) {
            self.global.overflow.push_block(older);
            self.publish_stats();
        }
        let pushed = self.primary.push(record);
        debug_assert!(pushed, "fresh magazine must accept a record");
    }

    fn accept_block(&mut self, mut block: Box<Block<T>>) {
        if block.is_empty() {
            self.stash_spare(block);
            return;
        }
        if block.is_full() && self.previous.is_none() {
            self.previous = Some(block);
            return;
        }
        if block.is_full() {
            self.global.overflow.push_block(block);
            self.publish_stats();
            return;
        }
        while let Some(record) = block.pop() {
            self.accept(record);
        }
        self.stash_spare(block);
    }
}

impl<T> Drop for PagePoolThread<T> {
    fn drop(&mut self) {
        // Trait bounds aren't available in Drop, so inline the flush: cached records go
        // to the global overflow pool (not back to pages — they still hold live values,
        // which `drain_shared`-driven teardown will drop via the allocator).
        if let Some(prev) = self.previous.take() {
            if !prev.is_empty() {
                self.global.overflow.push_block(prev);
            }
        }
        if !self.primary.is_empty() {
            let fresh = Block::with_capacity(1);
            let full = mem::replace(&mut self.primary, fresh);
            self.global.overflow.push_block(full);
        }
        if self.hits != 0 || self.misses != 0 {
            let c = self.global.counter(self.tid);
            c.hits.fetch_add(self.hits, Ordering::Relaxed);
            c.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
    }
}

impl<T> fmt::Debug for PagePoolThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagePoolThread")
            .field("tid", &self.tid)
            .field("primary", &self.primary.len())
            .field("previous", &self.previous.as_ref().map(|b| b.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PoolProbe(#[allow(dead_code)] u64);

    fn fake(v: usize) -> NonNull<PoolProbe> {
        // Aligned, never dereferenced: these tests exercise pointer plumbing only.
        NonNull::new((v * mem::align_of::<PoolProbe>().max(8)) as *mut PoolProbe).unwrap()
    }

    #[test]
    fn take_returns_most_recently_accepted() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(1));
        let mut t = PagePool::register(&pool, 0);
        assert_eq!(t.try_take(), None);
        t.accept(fake(1));
        t.accept(fake(2));
        assert_eq!(t.cached(), 2);
        assert_eq!(t.try_take(), Some(fake(2)));
        assert_eq!(t.try_take(), Some(fake(1)));
        assert_eq!(t.try_take(), None);
    }

    #[test]
    fn overflow_past_two_magazines_reaches_the_global_pool() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(2));
        let mut t = PagePool::register(&pool, 0);
        // Fill both magazines and one record more: the oldest magazine spills.
        for i in 1..=(2 * DEFAULT_BLOCK_CAPACITY + 1) {
            t.accept(fake(i));
        }
        assert_eq!(t.cached(), DEFAULT_BLOCK_CAPACITY + 1, "local cache stays bounded");
        // Another thread handle refills from the spilled magazine.
        let mut other = PagePool::register(&pool, 1);
        assert!(other.try_take().is_some(), "spilled records flow cross-thread");
        let stats = pool.stats();
        assert!(stats.magazine_hits >= 1);
    }

    #[test]
    fn blocks_fed_by_a_reclaimer_publish_hits_while_the_handle_lives() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(1));
        let mut t = PagePool::register(&pool, 0);
        // A reclaimer hands over one full block per scan; it lands in `previous` and is
        // consumed through `try_take` without ever spilling to the overflow pool.
        for round in 0..3 {
            let mut block: Box<Block<PoolProbe>> = Block::with_capacity(DEFAULT_BLOCK_CAPACITY);
            for i in 1..=DEFAULT_BLOCK_CAPACITY {
                block.push(fake(round * DEFAULT_BLOCK_CAPACITY + i));
            }
            t.accept_block(block);
            for _ in 0..DEFAULT_BLOCK_CAPACITY {
                assert!(t.try_take().is_some());
            }
        }
        assert!(pool.drain_shared().is_empty(), "nothing spilled");
        assert!(pool.stats().magazine_hits > 0, "hits are published before the handle drops");
        drop(t);
    }

    #[test]
    fn drain_shared_empties_the_overflow_pool() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(1));
        let mut t = PagePool::register(&pool, 0);
        for i in 1..=(2 * DEFAULT_BLOCK_CAPACITY + 1) {
            t.accept(fake(i));
        }
        let drained = pool.drain_shared();
        assert_eq!(drained.len(), DEFAULT_BLOCK_CAPACITY);
        assert!(pool.drain_shared().is_empty());
    }

    #[test]
    fn flush_to_shared_moves_cached_records_to_overflow() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(1));
        let mut t = PagePool::register(&pool, 0);
        for i in 1..=5 {
            t.accept(fake(i));
        }
        t.flush_to_shared();
        assert_eq!(t.cached(), 0);
        assert_eq!(pool.drain_shared().len(), 5);
    }

    #[test]
    fn dropped_handle_flushes_to_overflow_and_stats() {
        let pool: Arc<PagePool<PoolProbe>> = Arc::new(PagePool::new(1));
        let mut t = PagePool::register(&pool, 0);
        t.accept(fake(1));
        let _ = t.try_take();
        t.accept(fake(2));
        drop(t);
        assert_eq!(pool.drain_shared().len(), 1);
        assert_eq!(pool.stats().magazine_hits, 1);
    }
}
