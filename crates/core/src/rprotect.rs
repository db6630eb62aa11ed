//! Restricted hazard pointers used by DEBRA+ recovery code.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Restricted hazard pointers per cache line of slot storage (a `CachePadded` line is
/// 128 bytes).
const SLOTS_PER_LINE: usize = 128 / std::mem::size_of::<AtomicPtr<()>>();

/// A fixed-capacity, single-writer multi-reader array of *restricted hazard pointers*
/// (the paper's `RProtected[pid]` "arraystack").
///
/// DEBRA+ uses hazard pointers in a very limited way: before an operation's `help`
/// procedure runs, the operation `RProtect`s the descriptor and every record `help` will
/// access, so that a *neutralized* thread can still safely execute `help` from its recovery
/// code while it is quiescent.  `RProtect` and `RUnprotectAll` are O(1); other threads scan
/// the array when deciding which records in their limbo bags can be moved to the pool.
///
/// The array is written only by its owning thread (and by the owning thread's signal
/// handler context, which never touches it), and read by all threads, so plain atomic
/// loads/stores suffice.
///
/// The owner writes `len` and the slots on every `RProtect`/`RUnprotectAll` (four protects
/// and one release per BST update), so both live on cache lines no other thread's array
/// shares: `len` is padded, and the slots are stored in whole, line-aligned lines.
pub struct RProtectArray<T> {
    lines: Box<[CachePadded<[AtomicPtr<T>; SLOTS_PER_LINE]>]>,
    capacity: usize,
    /// Number of occupied slots (single-writer; readers may observe a stale value, which is
    /// safe because they also see the non-null pointers in the occupied prefix).
    len: CachePadded<AtomicUsize>,
}

impl<T> RProtectArray<T> {
    /// Creates an array with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        RProtectArray {
            lines: (0..capacity.div_ceil(SLOTS_PER_LINE))
                .map(|_| {
                    CachePadded::new(std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())))
                })
                .collect(),
            capacity,
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// The first `n` slots, in index order.
    fn slots(&self, n: usize) -> impl Iterator<Item = &AtomicPtr<T>> + '_ {
        self.lines.iter().flat_map(|line| line.iter()).take(n)
    }

    /// Maximum number of simultaneously protected records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently protected records.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.capacity)
    }

    /// Returns `true` if no records are currently protected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Announces a restricted hazard pointer to `record` (the paper's `RProtect`).
    ///
    /// Idempotent and reentrant: protecting a record that is already protected is a no-op,
    /// which matters because a thread can be neutralized in the middle of announcing and
    /// will re-run the announcement in its next attempt.
    ///
    /// # Panics
    ///
    /// Panics if the array is full (the data structure asked for more `RProtect` slots than
    /// were configured).
    pub fn protect(&self, record: NonNull<T>) {
        if self.contains(record) {
            return;
        }
        let idx = self.len.load(Ordering::Relaxed);
        assert!(
            idx < self.capacity,
            "RProtect capacity exceeded ({} slots); increase DebraPlusConfig::rprotect_slots",
            self.capacity
        );
        self.lines[idx / SLOTS_PER_LINE][idx % SLOTS_PER_LINE]
            .store(record.as_ptr(), Ordering::SeqCst);
        self.len.store(idx + 1, Ordering::SeqCst);
    }

    /// Releases every restricted hazard pointer (the paper's `RUnprotectAll`); O(#protected).
    pub fn unprotect_all(&self) {
        let n = self.len.load(Ordering::Relaxed).min(self.capacity);
        for slot in self.slots(n) {
            slot.store(std::ptr::null_mut(), Ordering::SeqCst);
        }
        self.len.store(0, Ordering::SeqCst);
    }

    /// Returns `true` if `record` is currently protected by this array
    /// (the paper's `isRProtected`).
    pub fn contains(&self, record: NonNull<T>) -> bool {
        let n = self.len.load(Ordering::Acquire).min(self.capacity);
        self.slots(n).any(|s| s.load(Ordering::Acquire) == record.as_ptr())
    }

    /// Iterates over the currently protected records (used when other threads scan all
    /// restricted hazard pointers before reclaiming their limbo bags).
    pub fn iter(&self) -> impl Iterator<Item = NonNull<T>> + '_ {
        // Read the full array rather than only the announced prefix: a concurrent writer
        // may have stored a pointer but not yet published the new length, and it is always
        // safe to over-approximate the protected set.
        self.slots(self.capacity).filter_map(|s| NonNull::new(s.load(Ordering::Acquire)))
    }
}

impl<T> fmt::Debug for RProtectArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RProtectArray")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

// SAFETY: only raw pointers are stored, never dereferenced by this type.
unsafe impl<T: Send> Send for RProtectArray<T> {}
unsafe impl<T: Send> Sync for RProtectArray<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(v: usize) -> NonNull<u64> {
        NonNull::new((v * 8 + 8) as *mut u64).unwrap()
    }

    #[test]
    fn protect_contains_unprotect() {
        let a: RProtectArray<u64> = RProtectArray::new(4);
        assert!(a.is_empty());
        a.protect(ptr(1));
        a.protect(ptr(2));
        assert!(a.contains(ptr(1)));
        assert!(a.contains(ptr(2)));
        assert!(!a.contains(ptr(3)));
        assert_eq!(a.len(), 2);
        a.unprotect_all();
        assert!(a.is_empty());
        assert!(!a.contains(ptr(1)));
    }

    #[test]
    fn protect_is_idempotent() {
        let a: RProtectArray<u64> = RProtectArray::new(2);
        a.protect(ptr(1));
        a.protect(ptr(1));
        a.protect(ptr(1));
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "RProtect capacity exceeded")]
    fn overflow_panics() {
        let a: RProtectArray<u64> = RProtectArray::new(2);
        a.protect(ptr(1));
        a.protect(ptr(2));
        a.protect(ptr(3));
    }

    #[test]
    fn each_threads_len_and_slots_sit_on_their_own_cache_lines() {
        // As `DebraPlus` stores them: one array per thread, side by side.
        let arrays: Box<[RProtectArray<u64>]> = (0..2).map(|_| RProtectArray::new(20)).collect();
        let line = |p: usize| p / 128;
        let mut written_lines = Vec::new();
        for a in arrays.iter() {
            assert_eq!(a.capacity(), 20);
            written_lines.push(line(&*a.len as *const AtomicUsize as usize));
            for l in a.lines.iter() {
                assert_eq!(l.as_ptr() as usize % 128, 0, "slot storage is line-aligned");
                written_lines.push(line(l.as_ptr() as usize));
            }
        }
        let distinct: std::collections::HashSet<_> = written_lines.iter().collect();
        assert_eq!(distinct.len(), written_lines.len(), "no written line is shared");
        // More slots than one line holds still behave as one array.
        for i in 0..20 {
            arrays[0].protect(ptr(i));
        }
        assert_eq!(arrays[0].len(), 20);
        assert!(arrays[0].contains(ptr(19)) && !arrays[1].contains(ptr(19)));
        assert_eq!(arrays[0].iter().count(), 20);
        arrays[0].unprotect_all();
        assert_eq!(arrays[0].iter().count(), 0);
    }

    #[test]
    fn iter_reports_protected_records() {
        let a: RProtectArray<u64> = RProtectArray::new(8);
        for i in 0..5 {
            a.protect(ptr(i));
        }
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected.len(), 5);
    }
}
