//! Per-thread announcement slots, shared by hazard pointers and ThreadScan-lite.

use std::collections::HashSet;
use std::sync::atomic::{AtomicPtr, Ordering};

use crossbeam_utils::CachePadded;

/// Most slots one thread may announce in: sixteen pointers fill one 128-byte padded line.
const MAX_SLOTS: usize = 16;

/// Every thread's announcement slots (one writer each, read by every scanning thread).
///
/// A thread's slots sit inline in their own padded line, so no two threads ever announce
/// into the same cache line.
pub(crate) struct AnnounceSlots {
    lines: Box<[CachePadded<[AtomicPtr<u8>; MAX_SLOTS]>]>,
    per_thread: usize,
}

impl AnnounceSlots {
    /// Empty slots, `per_thread` of them for each of `max_threads` threads.
    ///
    /// # Panics
    ///
    /// Unless `1 <= per_thread <= 16`.
    pub(crate) fn new(max_threads: usize, per_thread: usize) -> Self {
        assert!(
            (1..=MAX_SLOTS).contains(&per_thread),
            "slots_per_thread must be between 1 and {MAX_SLOTS}, got {per_thread}"
        );
        let empty = || std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut()));
        AnnounceSlots {
            lines: (0..max_threads).map(|_| CachePadded::new(empty())).collect(),
            per_thread,
        }
    }

    /// Thread `tid`'s slots.
    #[inline]
    pub(crate) fn of(&self, tid: usize) -> &[AtomicPtr<u8>] {
        &self.lines[tid][..self.per_thread]
    }

    /// Empties thread `tid`'s non-empty slots with `order` (only that thread may call it).
    pub(crate) fn clear(&self, tid: usize, order: Ordering) {
        for s in self.of(tid) {
            if !s.load(Ordering::Relaxed).is_null() {
                s.store(std::ptr::null_mut(), order);
            }
        }
    }

    /// `true` if thread `tid` announces `addr` (only that thread may call it).
    pub(crate) fn holds(&self, tid: usize, addr: *mut u8) -> bool {
        self.of(tid).iter().any(|s| s.load(Ordering::Relaxed) == addr)
    }

    fn all(&self) -> impl Iterator<Item = *mut u8> + '_ {
        (0..self.lines.len()).flat_map(|tid| self.of(tid).iter().map(|s| s.load(Ordering::SeqCst)))
    }

    /// Every announced address.
    pub(crate) fn collect(&self) -> HashSet<usize> {
        let mut set = HashSet::with_capacity(self.lines.len() * self.per_thread);
        set.extend(self.all().filter(|p| !p.is_null()).map(|p| p as usize));
        set
    }

    /// `true` if some thread announces `addr`.
    pub(crate) fn announced(&self, addr: *mut u8) -> bool {
        self.all().any(|p| p == addr)
    }
}
