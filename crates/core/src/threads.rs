//! The per-thread bookkeeping every reclaimer shares: slot leases, statistics slots and
//! the orphan list.
//!
//! The paper's Record Manager (Section 6) separates what every scheme must do from what
//! makes a scheme different.  A [`ThreadTable`] is the first half for the reclaimer
//! layer.  It provides which thread slots are leased, each thread's [`ThreadStatsSlot`]
//! with its limbo gauge ([`publish_limbo`](ThreadTable::publish_limbo) takes a record
//! count and derives the bytes from `T`), and the records exited threads left behind.
//! [`Reclaimer`](crate::Reclaimer) reads `max_threads`, `stats` and `drain_orphans` off
//! the table, so no scheme writes them.
//!
//! A scheme writes only what makes it different: its announcement (an epoch word, an
//! interval, or per-record slots in the shared [`AnnounceSlots`](crate::AnnounceSlots)),
//! its limbo (the epoch schemes share [`LimboBags`](crate::LimboBags)), its own counters
//! in its stats slot, and its scan, which hands every record it proves free to the sink
//! through [`to_sink`](crate::to_sink).

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam_utils::CachePadded;

use crate::stats::{ReclaimerStats, ThreadStatsSlot};
use crate::traits::RegistrationError;

/// Slot leases, per-thread statistics and the orphan list of one reclaimer instance.
///
/// A scheme's `register` calls [`claim`](Self::claim) before it touches its own per-slot
/// state; its handle's `Drop` withdraws the thread's announcement, hands the limbo it
/// still holds to [`orphan`](Self::orphan), and calls [`release`](Self::release) last.
///
/// [`Reclaimer::threads`](crate::Reclaimer::threads) is public, so anyone holding a
/// reclaimer can reach its table.  The two calls that would let safe code break a scheme
/// are `unsafe`: `orphan` (the Record Manager frees whatever the list holds at teardown)
/// and `release` (a second `register` of a slot still in use would share its per-thread
/// announcement).  Safe code cannot inject a record into the orphan list:
///
/// ```compile_fail,E0133
/// use std::ptr::NonNull;
/// let table: debra::ThreadTable<u64> = debra::ThreadTable::new(1);
/// table.orphan(0, [NonNull::dangling()]);
/// ```
///
/// nor free a slot it did not lease:
///
/// ```compile_fail,E0133
/// let table: debra::ThreadTable<u64> = debra::ThreadTable::new(1);
/// table.release(0);
/// ```
pub struct ThreadTable<T> {
    claimed: Box<[AtomicBool]>,
    stats: Box<[CachePadded<ThreadStatsSlot>]>,
    /// Retired records handed back by exited threads: locked on thread exit and by
    /// `drain_orphans` only, never on an operation's path.
    orphans: std::sync::Mutex<Vec<NonNull<T>>>,
}

// SAFETY: the only field that is neither `Send` nor `Sync` on its own is the orphan list
// of raw record pointers.  It sits behind a mutex, the table never dereferences them, and
// each record is owned by exactly one party at a time (the retiring thread, then the list,
// then whoever drains it); `T: Send` lets that ownership move between threads.
unsafe impl<T: Send> Send for ThreadTable<T> {}
unsafe impl<T: Send> Sync for ThreadTable<T> {}

impl<T> ThreadTable<T> {
    /// A table of `max_threads` free slots.
    ///
    /// # Panics
    ///
    /// If `max_threads` is zero.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "max_threads must be positive");
        ThreadTable {
            claimed: (0..max_threads).map(|_| AtomicBool::new(false)).collect(),
            stats: (0..max_threads).map(|_| CachePadded::new(ThreadStatsSlot::default())).collect(),
            orphans: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Number of thread slots.
    pub fn max_threads(&self) -> usize {
        self.claimed.len()
    }

    /// Leases slot `tid`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::ThreadIdOutOfRange`] if `tid >= max_threads`, and
    /// [`RegistrationError::AlreadyRegistered`] if the slot is leased.
    pub fn claim(&self, tid: usize) -> Result<(), RegistrationError> {
        let Some(flag) = self.claimed.get(tid) else {
            return Err(RegistrationError::ThreadIdOutOfRange {
                tid,
                max_threads: self.max_threads(),
            });
        };
        flag.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .map(drop)
            .map_err(|_| RegistrationError::AlreadyRegistered { tid })
    }

    /// `true` while slot `tid` is leased.
    pub fn is_claimed(&self, tid: usize) -> bool {
        self.claimed[tid].load(Ordering::SeqCst)
    }

    /// Thread `tid`'s statistics slot (written by that thread alone).
    #[inline]
    pub fn stats(&self, tid: usize) -> &ThreadStatsSlot {
        &self.stats[tid]
    }

    /// Publishes thread `tid`'s limbo backlog of `pending` records (only that thread may
    /// call it).  Schemes call this wherever the population changes (retire, reclaim),
    /// passing the recomputed count, so the gauge cannot drift; the bytes are
    /// `pending × size_of::<T>()`, and the watermark only rises.
    #[inline]
    pub fn publish_limbo(&self, tid: usize, pending: u64) {
        let s = &self.stats[tid];
        let bytes = pending.saturating_mul(std::mem::size_of::<T>() as u64);
        s.pending.store(pending, Ordering::Relaxed);
        s.limbo_bytes.store(bytes, Ordering::Relaxed);
        if bytes > s.limbo_bytes_hwm.load(Ordering::Relaxed) {
            s.limbo_bytes_hwm.store(bytes, Ordering::Relaxed);
        }
    }

    /// Every thread's counters summed into one snapshot.
    pub fn snapshot(&self) -> ReclaimerStats {
        let mut agg = ReclaimerStats::default();
        for s in self.stats.iter() {
            s.snapshot_into(&mut agg);
        }
        agg
    }

    /// Hands the records exiting thread `tid` still holds to the orphan list and zeroes
    /// its limbo gauge (`pending`, `limbo_bytes`; the watermark stays).
    ///
    /// # Safety
    ///
    /// The caller is the handle that leased `tid`, and every record in `limbo` is one it
    /// retired through this table's reclaimer and still owns exclusively: no other party
    /// will free it, because whoever drains the list (the Record Manager at teardown)
    /// deallocates each record.
    pub unsafe fn orphan(&self, tid: usize, limbo: impl IntoIterator<Item = NonNull<T>>) {
        let mut limbo = limbo.into_iter().peekable();
        if limbo.peek().is_some() {
            self.orphans.lock().expect("orphan list poisoned").extend(limbo);
        }
        self.publish_limbo(tid, 0);
    }

    /// Frees slot `tid` for the next [`claim`](Self::claim).
    ///
    /// # Safety
    ///
    /// The caller is the handle that leased `tid`, and it has stopped using that slot's
    /// per-thread state (announcement, reservation or hazard slots) for good: the next
    /// `register(tid)` hands that state to a new handle.
    pub unsafe fn release(&self, tid: usize) {
        self.claimed[tid].store(false, Ordering::SeqCst);
    }

    /// Takes every orphaned record.  Called at teardown, when no thread can reach them.
    pub fn drain_orphans(&self) -> Vec<NonNull<T>> {
        std::mem::take(&mut *self.orphans.lock().expect("orphan list poisoned"))
    }
}

impl<T> std::fmt::Debug for ThreadTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTable").field("max_threads", &self.max_threads()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(v: u64) -> NonNull<u64> {
        NonNull::from(Box::leak(Box::new(v)))
    }

    #[test]
    fn claim_checks_range_and_lease_and_release_frees_the_slot() {
        let table: ThreadTable<u64> = ThreadTable::new(2);
        assert_eq!(table.max_threads(), 2);
        assert_eq!(
            table.claim(2),
            Err(RegistrationError::ThreadIdOutOfRange { tid: 2, max_threads: 2 })
        );
        assert_eq!(table.claim(1), Ok(()));
        assert!(table.is_claimed(1) && !table.is_claimed(0));
        assert_eq!(table.claim(1), Err(RegistrationError::AlreadyRegistered { tid: 1 }));
        // SAFETY: this test leased slot 1 and holds no per-thread state in it.
        unsafe { table.release(1) };
        assert!(!table.is_claimed(1));
        assert_eq!(table.claim(1), Ok(()));
    }

    #[test]
    fn orphan_zeroes_the_gauge_and_drain_returns_each_record_once() {
        let table: ThreadTable<u64> = ThreadTable::new(2);
        let records: Vec<NonNull<u64>> = (0..3).map(leak).collect();
        table.publish_limbo(0, 3);
        table.publish_limbo(1, 1);

        // SAFETY: the records are leaked above and owned by this test alone; the table
        // never dereferences them, and they are freed below after the drain.
        unsafe {
            table.orphan(0, records.iter().copied());
            table.orphan(1, std::iter::empty());
        }
        let stats = table.snapshot();
        assert_eq!((stats.pending, stats.limbo_bytes), (0, 0));
        assert_eq!(stats.limbo_bytes_hwm, 3 * 8 + 8, "the watermark survives the exit");

        let drained = table.drain_orphans();
        assert_eq!(drained, records);
        assert!(table.drain_orphans().is_empty(), "a second drain finds nothing");
        for r in drained {
            // SAFETY: leaked above, drained exactly once.
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }
}
