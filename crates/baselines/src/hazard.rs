//! Michael-style hazard pointers.

use std::collections::HashSet;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use blockbag::BlockBag;
use debra::{
    to_sink, AnnounceSlots, CodeModifications, ReclaimSink, Reclaimer, ReclaimerThread,
    RegistrationError, SchemeProperties, Termination, ThreadStatsSlot, ThreadTable,
    TimingAssumptions,
};

/// Configuration for [`HazardPointers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpConfig {
    /// Hazard pointer slots per thread (`k` in the paper's analysis), at most 16.
    /// Lock-free lists and trees typically need 2–3; the default leaves headroom.
    pub slots_per_thread: usize,
    /// Extra retired records accumulated beyond `n*k` before a scan is triggered
    /// (the paper's Ω(nk) term; a larger value trades memory for fewer scans).
    pub scan_slack: usize,
    /// Block capacity of the per-thread retired bags.
    pub block_capacity: usize,
}

impl Default for HpConfig {
    fn default() -> Self {
        HpConfig { slots_per_thread: 8, scan_slack: 256, block_capacity: 64 }
    }
}

/// Michael's hazard pointers (the paper's "HP" baseline), tuned for throughput the same way
/// the paper tunes it: each process accumulates a large buffer of retired records before
/// scanning, so the amortized cost of retiring a record is O(1).
///
/// Before reading a record's fields the data structure must [`protect`] it and re-validate
/// that it is still reachable; a memory fence is issued as part of the SeqCst announcement
/// store (this per-access fence is precisely the overhead DEBRA avoids).  As discussed at
/// length in Section 3 of the paper, structures in which operations traverse pointers from
/// retired records cannot use HP without giving up lock-freedom; the `lockfree-ds` crate
/// follows the paper's experimental choice of restarting such operations.
///
/// [`protect`]: ReclaimerThread::protect
pub struct HazardPointers<T> {
    hp: AnnounceSlots,
    threads: ThreadTable<T>,
    config: HpConfig,
}

impl<T: Send + 'static> HazardPointers<T> {
    /// Creates shared hazard pointer state with a custom configuration.
    pub fn with_config(max_threads: usize, config: HpConfig) -> Self {
        HazardPointers {
            threads: ThreadTable::new(max_threads),
            hp: AnnounceSlots::new(max_threads, config.slots_per_thread),
            config,
        }
    }

    /// Returns `true` if any thread currently announces a hazard pointer to `record`.
    pub fn is_protected_by_any(&self, record: NonNull<T>) -> bool {
        self.hp.announced(record.as_ptr() as *mut u8)
    }
}

impl<T: Send + 'static> Reclaimer<T> for HazardPointers<T> {
    type Thread = HazardPointersThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, HpConfig::default())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.threads.claim(tid)?;
        Ok(HazardPointersThread {
            global: Arc::clone(this),
            tid,
            retired: BlockBag::with_block_capacity(this.config.block_capacity),
            hazards: HashSet::with_capacity(this.hp.capacity()),
            quiescent: true,
        })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "HP"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "HP",
            code_modifications: CodeModifications {
                per_accessed_record: true,
                per_operation: false,
                per_retired_record: true,
                other: "write recovery code for when a process fails to acquire a HP",
            },
            timing_assumptions: TimingAssumptions::None,
            fault_tolerant: true,
            termination: Termination::WaitFree,
            can_traverse_retired_to_retired: false,
        }
    }
}

impl<T> fmt::Debug for HazardPointers<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardPointers")
            .field("max_threads", &self.threads.max_threads())
            .field("config", &self.config)
            .finish()
    }
}

/// Per-thread handle of [`HazardPointers`].
pub struct HazardPointersThread<T: Send + 'static> {
    global: Arc<HazardPointers<T>>,
    tid: usize,
    retired: BlockBag<T>,
    /// Scratch for the hazard pointers a scan gathers, sized at registration for every
    /// thread's slots so that gathering never allocates.
    hazards: HashSet<usize>,
    quiescent: bool,
}

impl<T: Send + 'static> HazardPointersThread<T> {
    fn scan_threshold(&self) -> usize {
        let nk = self.global.threads.max_threads() * self.global.config.slots_per_thread;
        nk + nk.max(self.global.config.scan_slack)
    }

    /// Scans all hazard pointers and hands every unprotected retired record to the sink
    /// (the amortized-O(1) bulk scan described in the paper's related-work section).
    fn scan<S: ReclaimSink<T>>(&mut self, sink: &mut S) {
        let HazardPointersThread { global, tid, retired, hazards, .. } = self;
        global.hp.collect_into(hazards);
        let reclaimed = retired
            .partition_and_hand_over(|p| hazards.contains(&(p.as_ptr() as usize)), to_sink(sink));
        let threads = &global.threads;
        ThreadStatsSlot::bump(&threads.stats(*tid).reclaimed, reclaimed as u64);
        threads.publish_limbo(*tid, retired.len() as u64);
    }

    fn my_slots(&self) -> &[AtomicPtr<u8>] {
        self.global.hp.of(self.tid)
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for HazardPointersThread<T> {
    fn leave_qstate<S: ReclaimSink<T>>(&mut self, _sink: &mut S) -> bool {
        self.quiescent = false;
        ThreadStatsSlot::bump(&self.global.threads.stats(self.tid).operations, 1);
        false
    }

    fn enter_qstate(&mut self) {
        // Release every hazard pointer held by this thread.
        self.global.hp.clear(self.tid, Ordering::Release);
        self.quiescent = true;
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, sink: &mut S) {
        self.retired.push(record);
        let threads = &self.global.threads;
        ThreadStatsSlot::bump(&threads.stats(self.tid).retired, 1);
        threads.publish_limbo(self.tid, self.retired.len() as u64);
        if self.retired.len() >= self.scan_threshold() {
            self.scan(sink);
        }
    }

    fn protect<F: FnMut() -> bool>(
        &mut self,
        slot: usize,
        record: NonNull<T>,
        mut validate: F,
    ) -> bool {
        let slots = self.my_slots();
        assert!(slot < slots.len(), "hazard pointer slot {slot} out of range");
        // SeqCst store doubles as the memory fence the paper requires after each HP
        // announcement, so that a concurrent scanner cannot miss it.
        slots[slot].store(record.as_ptr() as *mut u8, Ordering::SeqCst);
        if validate() {
            true
        } else {
            slots[slot].store(std::ptr::null_mut(), Ordering::SeqCst);
            false
        }
    }

    fn unprotect(&mut self, slot: usize) {
        let slots = self.my_slots();
        assert!(slot < slots.len(), "hazard pointer slot {slot} out of range");
        slots[slot].store(std::ptr::null_mut(), Ordering::Release);
    }

    fn is_protected(&self, record: NonNull<T>) -> bool {
        self.global.hp.holds(self.tid, record.as_ptr() as *mut u8)
    }
}

impl<T: Send + 'static> Drop for HazardPointersThread<T> {
    fn drop(&mut self) {
        self.global.hp.clear(self.tid, Ordering::SeqCst);
        let threads = &self.global.threads;
        // SAFETY: the slot and the records are this handle's; its announcement is withdrawn.
        unsafe {
            threads.orphan(self.tid, self.retired.drain());
            threads.release(self.tid);
        }
    }
}

impl<T: Send + 'static> fmt::Debug for HazardPointersThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardPointersThread")
            .field("tid", &self.tid)
            .field("retired", &self.retired.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::CountingSink;

    fn leak(v: u64) -> NonNull<u64> {
        NonNull::from(Box::leak(Box::new(v)))
    }

    struct FreeingSink {
        freed: Vec<usize>,
    }
    impl ReclaimSink<u64> for FreeingSink {
        fn accept(&mut self, record: NonNull<u64>) {
            self.freed.push(record.as_ptr() as usize);
            // SAFETY: test records are leaked boxes reclaimed exactly once.
            unsafe { drop(Box::from_raw(record.as_ptr())) };
        }
    }

    fn small_config() -> HpConfig {
        HpConfig { slots_per_thread: 2, scan_slack: 8, block_capacity: 4 }
    }

    #[test]
    fn protect_validate_and_release() {
        let hp: Arc<HazardPointers<u64>> = Arc::new(HazardPointers::with_config(2, small_config()));
        let mut t = HazardPointers::register(&hp, 0).unwrap();
        let mut sink = CountingSink::default();
        let r = leak(1);

        let _ = t.leave_qstate(&mut sink);
        assert!(t.protect(0, r, || true));
        assert!(t.is_protected(r));
        assert!(hp.is_protected_by_any(r));

        // Failed validation clears the announcement.
        let r2 = leak(2);
        assert!(!t.protect(1, r2, || false));
        assert!(!t.is_protected(r2));

        t.enter_qstate();
        assert!(!t.is_protected(r), "enter_qstate releases all hazard pointers");

        unsafe {
            drop(Box::from_raw(r.as_ptr()));
            drop(Box::from_raw(r2.as_ptr()));
        }
    }

    #[test]
    fn protected_records_are_not_reclaimed_by_scan() {
        let hp: Arc<HazardPointers<u64>> = Arc::new(HazardPointers::with_config(2, small_config()));
        let mut victim_owner = HazardPointers::register(&hp, 0).unwrap();
        let mut reader = HazardPointers::register(&hp, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut reader_sink = CountingSink::default();

        let protected = leak(42);
        let _ = reader.leave_qstate(&mut reader_sink);
        assert!(reader.protect(0, protected, || true));

        let _ = victim_owner.leave_qstate(&mut sink);
        unsafe { victim_owner.retire(protected, &mut sink) };
        // Retire plenty more records to force several scans.
        for i in 0..200u64 {
            unsafe { victim_owner.retire(leak(i), &mut sink) };
        }
        victim_owner.enter_qstate();

        assert!(!sink.freed.is_empty(), "scans must reclaim unprotected records");
        assert!(
            !sink.freed.contains(&(protected.as_ptr() as usize)),
            "a record protected by another thread must not be reclaimed"
        );

        // Once the reader releases its hazard pointer, the record becomes reclaimable.
        reader.enter_qstate();
        let _ = victim_owner.leave_qstate(&mut sink);
        for i in 0..200u64 {
            unsafe { victim_owner.retire(leak(i), &mut sink) };
        }
        victim_owner.enter_qstate();
        assert!(sink.freed.contains(&(protected.as_ptr() as usize)));

        drop(victim_owner);
        drop(reader);
        for r in hp.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn scan_is_amortized() {
        // With n*k = 4 and slack 8, scans should happen roughly once every >= 12 retires,
        // not on every retire.
        let hp: Arc<HazardPointers<u64>> = Arc::new(HazardPointers::with_config(2, small_config()));
        let mut t = HazardPointers::register(&hp, 0).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let _ = t.leave_qstate(&mut sink);
        for i in 0..11u64 {
            unsafe { t.retire(leak(i), &mut sink) };
        }
        assert!(sink.freed.is_empty(), "no scan before the threshold");
        for i in 0..10u64 {
            unsafe { t.retire(leak(100 + i), &mut sink) };
        }
        assert!(!sink.freed.is_empty(), "a scan must have been triggered past the threshold");
        t.enter_qstate();

        drop(t);
        for r in hp.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn protecting_into_invalid_slot_panics() {
        let hp: Arc<HazardPointers<u64>> = Arc::new(HazardPointers::with_config(1, small_config()));
        let mut t = HazardPointers::register(&hp, 0).unwrap();
        let mut b = Box::new(7u64);
        let _ = t.protect(99, NonNull::from(&mut *b), || true);
    }
}
