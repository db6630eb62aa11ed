//! Per-thread announcement slots: the one table behind hazard pointers, ThreadScan's
//! reference slots and DEBRA+'s restricted hazard pointers (`RProtect`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicPtr, Ordering};

use crossbeam_utils::CachePadded;

/// Most slots one thread may announce in: sixteen pointers fill one 128-byte padded line.
const MAX_SLOTS: usize = 16;

/// Every thread's announcement slots (one writer each, read by every scanning thread).
///
/// A thread's slots sit inline in their own padded line, so no two threads ever announce
/// into the same cache line.  The owning thread writes its slots (a scheme decides which
/// slot and with what ordering); any thread reads them all with [`collect_into`]
/// or [`announced`] before it frees a record.
///
/// [`collect_into`]: Self::collect_into
/// [`announced`]: Self::announced
pub struct AnnounceSlots {
    lines: Box<[CachePadded<[AtomicPtr<u8>; MAX_SLOTS]>]>,
    per_thread: usize,
}

impl AnnounceSlots {
    /// Empty slots, `per_thread` of them for each of `max_threads` threads.
    ///
    /// # Panics
    ///
    /// Unless `1 <= per_thread <= 16`.
    pub fn new(max_threads: usize, per_thread: usize) -> Self {
        assert!(
            (1..=MAX_SLOTS).contains(&per_thread),
            "slots per thread must be between 1 and {MAX_SLOTS}, got {per_thread}"
        );
        let empty = || std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut()));
        AnnounceSlots {
            lines: (0..max_threads).map(|_| CachePadded::new(empty())).collect(),
            per_thread,
        }
    }

    /// Thread `tid`'s slots.
    #[inline]
    pub fn of(&self, tid: usize) -> &[AtomicPtr<u8>] {
        &self.lines[tid][..self.per_thread]
    }

    /// Empties thread `tid`'s non-empty slots with `order` (only that thread may call it).
    pub fn clear(&self, tid: usize, order: Ordering) {
        for s in self.of(tid) {
            if !s.load(Ordering::Relaxed).is_null() {
                s.store(std::ptr::null_mut(), order);
            }
        }
    }

    /// `true` if thread `tid` announces `addr` (only that thread may call it).
    pub fn holds(&self, tid: usize, addr: *mut u8) -> bool {
        self.of(tid).iter().any(|s| s.load(Ordering::Relaxed) == addr)
    }

    fn all(&self) -> impl Iterator<Item = *mut u8> + '_ {
        (0..self.lines.len()).flat_map(|tid| self.of(tid).iter().map(|s| s.load(Ordering::SeqCst)))
    }

    /// Replaces the contents of `set` with every announced address.  A caller that keeps
    /// `set` across scans, sized for every slot, never allocates here.
    pub fn collect_into(&self, set: &mut HashSet<usize>) {
        set.clear();
        set.extend(self.all().filter(|p| !p.is_null()).map(|p| p as usize));
    }

    /// Number of slots over all threads (the most addresses a scan can find).
    pub fn capacity(&self) -> usize {
        self.lines.len() * self.per_thread
    }

    /// `true` if some thread announces `addr`.
    pub fn announced(&self, addr: *mut u8) -> bool {
        self.all().any(|p| p == addr)
    }
}

impl std::fmt::Debug for AnnounceSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnnounceSlots")
            .field("max_threads", &self.lines.len())
            .field("per_thread", &self.per_thread)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: usize) -> *mut u8 {
        (v * 8 + 8) as *mut u8
    }

    #[test]
    fn each_threads_slots_sit_on_a_line_of_their_own() {
        let slots = AnnounceSlots::new(3, 16);
        let mut lines = HashSet::new();
        for tid in 0..3 {
            let start = slots.of(tid).as_ptr() as usize;
            assert_eq!(start % 128, 0, "a thread's slots start a line");
            assert_eq!(std::mem::size_of_val(slots.of(tid)), 128, "and fill exactly that line");
            assert!(lines.insert(start / 128), "no line holds two threads' slots");
        }
    }

    #[test]
    fn collect_into_reports_every_announced_record_and_reuses_the_set() {
        let slots = AnnounceSlots::new(2, 8);
        for i in 0..5 {
            slots.of(i % 2)[i / 2].store(addr(i), Ordering::SeqCst);
        }
        let mut set = HashSet::with_capacity(slots.capacity());
        let cap = set.capacity();
        slots.collect_into(&mut set);
        assert_eq!(set, (0..5).map(|i| addr(i) as usize).collect());
        assert!(slots.holds(1, addr(3)) && !slots.holds(0, addr(3)));
        assert!(slots.announced(addr(4)) && !slots.announced(addr(5)));

        slots.clear(0, Ordering::SeqCst);
        slots.collect_into(&mut set);
        assert_eq!(set, [1, 3].map(|i| addr(i) as usize).into());
        assert_eq!(set.capacity(), cap, "collecting into a sized set does not reallocate");
    }
}
