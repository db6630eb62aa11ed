//! A per-thread bump ("arena") allocator.

use std::fmt;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use debra::{Allocator, AllocatorThread, Headed};

/// Approximate number of bytes per arena chunk.
const CHUNK_BYTES: usize = 1 << 20; // 1 MiB

/// One contiguous slab of uninitialized record slots (header + value each).
struct Chunk<T> {
    storage: Box<[MaybeUninit<Headed<T>>]>,
    used: usize,
}

impl<T> Chunk<T> {
    fn new(records: usize) -> Self {
        let mut v = Vec::with_capacity(records);
        // SAFETY: MaybeUninit slots need no initialization; set_len within capacity.
        unsafe { v.set_len(records) };
        Chunk { storage: v.into_boxed_slice(), used: 0 }
    }

    fn is_full(&self) -> bool {
        self.used == self.storage.len()
    }

    fn bump(&mut self, value: T) -> Option<NonNull<T>> {
        if self.is_full() {
            return None;
        }
        let slot = self.storage[self.used].as_mut_ptr();
        self.used += 1;
        // SAFETY: the slot is in bounds, unused, and lives as long as the chunk.
        unsafe {
            slot.write(Headed::new(value));
            Some(Headed::value_ptr(NonNull::new_unchecked(slot)))
        }
    }
}

/// An [`Allocator`] in which each thread requests large regions of memory and then carves
/// records out of them in sequence (the paper's "Bump Allocator", used in Experiments 1
/// and 2).
///
/// * Allocation is a pointer bump — no lock, no `malloc` on the hot path.
/// * [`deallocate`](AllocatorThread::deallocate) drops the record's value but does **not**
///   return its memory (a bump allocator cannot free individual records).  Memory is
///   reclaimed wholesale when the `BumpAllocator` itself is dropped.  This is exactly how
///   the paper uses it: either records are never reused (Experiment 1) or they are recycled
///   through the Pool (Experiment 2) — and the total distance the bump pointers moved is
///   the "memory allocated for records" metric of Figure 9 (right).
/// * Arena chunks filled by a thread are handed to the shared state when the thread's
///   handle is dropped, so record memory remains valid until the `BumpAllocator` global is
///   dropped (which must happen only after no record can be referenced anymore — the
///   `RecordManager` guarantees this ordering).
pub struct BumpAllocator<T> {
    per_thread: Box<[CachePadded<Counters>]>,
    /// Chunks retired by exited thread handles; kept alive until the global is dropped.
    parked_chunks: std::sync::Mutex<Vec<Chunk<T>>>,
    records_per_chunk: usize,
}

#[derive(Debug, Default)]
struct Counters {
    bytes: AtomicU64,
    records: AtomicU64,
}

impl<T> BumpAllocator<T> {
    fn counters(&self, tid: usize) -> &Counters {
        &self.per_thread[tid.min(self.per_thread.len() - 1)]
    }
}

impl<T: Send + 'static> Allocator<T> for BumpAllocator<T> {
    type Thread = BumpAllocatorThread<T>;

    fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0);
        let record_size = std::mem::size_of::<Headed<T>>();
        BumpAllocator {
            per_thread: (0..max_threads).map(|_| CachePadded::new(Counters::default())).collect(),
            parked_chunks: std::sync::Mutex::new(Vec::new()),
            records_per_chunk: (CHUNK_BYTES / record_size).max(1),
        }
    }

    fn register(this: &Arc<Self>, tid: usize) -> Self::Thread {
        BumpAllocatorThread { global: Arc::clone(this), tid, chunks: Vec::new() }
    }

    fn name() -> &'static str {
        "bump"
    }

    fn allocated_bytes(&self) -> u64 {
        self.per_thread.iter().map(|c| c.bytes.load(Ordering::Relaxed)).sum()
    }

    fn allocated_records(&self) -> u64 {
        self.per_thread.iter().map(|c| c.records.load(Ordering::Relaxed)).sum()
    }
}

impl<T> fmt::Debug for BumpAllocator<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BumpAllocator")
            .field("threads", &self.per_thread.len())
            .field("records_per_chunk", &self.records_per_chunk)
            .finish()
    }
}

// SAFETY: the parked chunks are only accessed under the mutex, and `T: Send`.
unsafe impl<T: Send> Send for BumpAllocator<T> {}
unsafe impl<T: Send> Sync for BumpAllocator<T> {}

/// Per-thread handle of [`BumpAllocator`]: owns the arena chunks it is currently filling.
pub struct BumpAllocatorThread<T> {
    global: Arc<BumpAllocator<T>>,
    tid: usize,
    chunks: Vec<Chunk<T>>,
}

impl<T: Send + 'static> AllocatorThread<T> for BumpAllocatorThread<T> {
    fn allocate(&mut self, value: T) -> NonNull<T> {
        let counters = self.global.counters(self.tid);
        counters.bytes.fetch_add(std::mem::size_of::<T>() as u64, Ordering::Relaxed);
        counters.records.fetch_add(1, Ordering::Relaxed);

        if self.chunks.last().is_none_or(Chunk::is_full) {
            self.grow();
        }
        let chunk = self.chunks.last_mut().expect("a non-full chunk exists after grow");
        chunk.bump(value).expect("fresh chunk has capacity")
    }

    unsafe fn deallocate(&mut self, record: NonNull<T>) {
        // A bump allocator cannot return individual records to the operating system; drop
        // the value (so owned resources are released) and leave the memory to the arena.
        // SAFETY: exclusive access per the trait contract; memory stays valid (arena-owned).
        unsafe { std::ptr::drop_in_place(record.as_ptr()) };
    }
}

impl<T: Send + 'static> BumpAllocatorThread<T> {
    #[cold]
    fn grow(&mut self) {
        self.chunks.push(Chunk::new(self.global.records_per_chunk));
    }

    /// Number of chunks this thread has filled or is filling.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<T> Drop for BumpAllocatorThread<T> {
    fn drop(&mut self) {
        // Records carved from these chunks may still be referenced (in the data structure,
        // in limbo bags, in pools), so the memory must stay alive: park the chunks in the
        // global allocator, which frees them when it is dropped.
        let mut parked = self.global.parked_chunks.lock().expect("parked chunks poisoned");
        parked.append(&mut self.chunks);
    }
}

impl<T> fmt::Debug for BumpAllocatorThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BumpAllocatorThread")
            .field("tid", &self.tid)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocations_are_distinct_and_valid() {
        let global: Arc<BumpAllocator<u64>> = Arc::new(BumpAllocator::new(1));
        let mut t = BumpAllocator::register(&global, 0);
        let ptrs: Vec<NonNull<u64>> = (0..10_000u64).map(|i| t.allocate(i)).collect();
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(unsafe { *p.as_ref() }, i as u64);
        }
        let unique: std::collections::HashSet<_> =
            ptrs.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(unique.len(), ptrs.len());
        assert_eq!(global.allocated_records(), 10_000);
        assert_eq!(global.allocated_bytes(), 10_000 * 8);
    }

    #[test]
    fn memory_outlives_thread_handle() {
        let global: Arc<BumpAllocator<u64>> = Arc::new(BumpAllocator::new(1));
        let p = {
            let mut t = BumpAllocator::register(&global, 0);
            t.allocate(42)
        };
        // The thread handle is gone but its chunks were parked in the global allocator, so
        // the record is still readable.
        assert_eq!(unsafe { *p.as_ref() }, 42);
    }

    #[test]
    fn deallocate_drops_the_value() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }

        let global: Arc<BumpAllocator<Probe>> = Arc::new(BumpAllocator::new(1));
        let mut t = BumpAllocator::register(&global, 0);
        let p = t.allocate(Probe);
        assert_eq!(DROPS.load(Ordering::Relaxed), 0);
        unsafe { t.deallocate(p) };
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multiple_chunks_are_created_for_large_demand() {
        let global: Arc<BumpAllocator<[u8; 4096]>> = Arc::new(BumpAllocator::new(1));
        let mut t = BumpAllocator::register(&global, 0);
        for _ in 0..600 {
            let _ = t.allocate([0u8; 4096]);
        }
        assert!(t.chunk_count() >= 2, "600 * 4 KiB must span multiple 1 MiB chunks");
    }
}
