//! The system ("malloc") allocator.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use debra::{Allocator, AllocatorThread, Headed};

/// An [`Allocator`] that obtains every record with an individual heap allocation
/// (`Box::new`) and frees it with an individual deallocation — the configuration of the
/// paper's Experiment 3, where the cost of `malloc` dominates and compresses the relative
/// differences between reclamation schemes.
///
/// Each allocation is a [`Headed<T>`]: the record header, then the value; the pointer
/// handed out is the value's.
pub struct SystemAllocator<T> {
    per_thread: Box<[CachePadded<Counters>]>,
    _marker: std::marker::PhantomData<fn(T)>,
}

#[derive(Debug, Default)]
struct Counters {
    bytes: AtomicU64,
    records: AtomicU64,
}

impl<T> SystemAllocator<T> {
    fn counters(&self, tid: usize) -> &Counters {
        &self.per_thread[tid.min(self.per_thread.len() - 1)]
    }
}

impl<T: Send + 'static> Allocator<T> for SystemAllocator<T> {
    type Thread = SystemAllocatorThread<T>;

    fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0);
        SystemAllocator {
            per_thread: (0..max_threads).map(|_| CachePadded::new(Counters::default())).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    fn register(this: &Arc<Self>, tid: usize) -> Self::Thread {
        SystemAllocatorThread { global: Arc::clone(this), tid }
    }

    fn name() -> &'static str {
        "system"
    }

    fn allocated_bytes(&self) -> u64 {
        self.per_thread.iter().map(|c| c.bytes.load(Ordering::Relaxed)).sum()
    }

    fn allocated_records(&self) -> u64 {
        self.per_thread.iter().map(|c| c.records.load(Ordering::Relaxed)).sum()
    }
}

impl<T> fmt::Debug for SystemAllocator<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemAllocator").field("threads", &self.per_thread.len()).finish()
    }
}

/// Per-thread handle of [`SystemAllocator`].
pub struct SystemAllocatorThread<T> {
    global: Arc<SystemAllocator<T>>,
    tid: usize,
}

impl<T: Send + 'static> AllocatorThread<T> for SystemAllocatorThread<T> {
    fn allocate(&mut self, value: T) -> NonNull<T> {
        let counters = self.global.counters(self.tid);
        counters.bytes.fetch_add(std::mem::size_of::<T>() as u64, Ordering::Relaxed);
        counters.records.fetch_add(1, Ordering::Relaxed);
        Headed::boxed(value)
    }

    unsafe fn deallocate(&mut self, record: NonNull<T>) {
        // SAFETY: per the trait contract the record was allocated by `allocate` above
        // (a leaked headed box), is exclusively owned, and is not used again.
        unsafe { Headed::drop_boxed(record) };
    }
}

impl<T> fmt::Debug for SystemAllocatorThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemAllocatorThread").field("tid", &self.tid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_deallocate_roundtrip_and_accounting() {
        let global: Arc<SystemAllocator<String>> = Arc::new(SystemAllocator::new(2));
        let mut t0 = SystemAllocator::register(&global, 0);
        let mut t1 = SystemAllocator::register(&global, 1);

        let a = t0.allocate("hello".to_string());
        let b = t1.allocate("world".to_string());
        assert_eq!(unsafe { a.as_ref() }, "hello");
        assert_eq!(unsafe { b.as_ref() }, "world");
        assert_eq!(global.allocated_records(), 2);
        assert_eq!(global.allocated_bytes(), 2 * std::mem::size_of::<String>() as u64);

        unsafe {
            t0.deallocate(a);
            t1.deallocate(b);
        }
        // Deallocation does not reduce the "allocated" metric: it measures total demand,
        // like the paper's bump pointer distance.
        assert_eq!(global.allocated_records(), 2);
    }

    #[test]
    fn out_of_range_tid_is_clamped() {
        let global: Arc<SystemAllocator<u64>> = Arc::new(SystemAllocator::new(1));
        let mut t = SystemAllocator::register(&global, 99);
        let r = t.allocate(7);
        unsafe { t.deallocate(r) };
        assert_eq!(global.allocated_records(), 1);
    }
}
