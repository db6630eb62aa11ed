//! ThreadScan-lite: a fence-free hazard-pointer variant with signal-assisted scanning.

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
use neutralize::{NeutralizeSlot, SignalDriver, ThreadRegistration};
use parking_lot::Mutex as ReclaimLock;

/// Configuration for [`ThreadScanLite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadScanConfig {
    /// Reference slots per thread, at most 16 (the explicit stand-in for ThreadScan's
    /// private-memory scan; see the crate docs).
    pub slots_per_thread: usize,
    /// Retired records a thread accumulates before it starts a reclamation pass.
    pub scan_threshold: usize,
    /// Block capacity of the per-thread delete buffers.
    pub block_capacity: usize,
}

impl Default for ThreadScanConfig {
    fn default() -> Self {
        ThreadScanConfig { slots_per_thread: 8, scan_threshold: 512, block_capacity: 64 }
    }
}

/// A simplified ThreadScan (Alistarh et al., SPAA'15): local references are announced like
/// hazard pointers but **without a memory fence per announcement**; a thread that wants to
/// reclaim takes a global reclamation lock, signals every registered thread, waits for each
/// to acknowledge (the signal handler's atomic counter doubles as the missing fence), and
/// then frees every retired record not referenced by anyone.
///
/// Like the original ThreadScan it is *not* fault tolerant (the reclaimer waits for
/// acknowledgements and holds a global lock), and it must not be used with data structures
/// where operations traverse pointers from retired records to other retired records.
/// `DESIGN.md` describes how this stand-in differs from the original (which scans raw
/// stacks and registers instead of explicit slots).
pub struct ThreadScanLite<T> {
    refs: AnnounceSlots,
    slots: Box<[Arc<NeutralizeSlot>]>,
    threads: ThreadTable<T>,
    reclaim_lock: ReclaimLock<()>,
    driver: SignalDriver,
    config: ThreadScanConfig,
}

impl<T: Send + 'static> ThreadScanLite<T> {
    /// Creates shared state with a custom configuration and signal driver.
    pub fn with_config(max_threads: usize, config: ThreadScanConfig, driver: SignalDriver) -> Self {
        ThreadScanLite {
            threads: ThreadTable::new(max_threads),
            refs: AnnounceSlots::new(max_threads, config.slots_per_thread),
            slots: (0..max_threads).map(|_| Arc::new(NeutralizeSlot::new())).collect(),
            reclaim_lock: ReclaimLock::new(()),
            driver,
            config,
        }
    }

    /// Signals every other registered thread and waits for each to acknowledge.
    fn signal_and_await(&self, my_tid: usize) {
        let before: Vec<u64> = self.slots.iter().map(|s| s.stats().signals_received).collect();
        for (tid, slot) in self.slots.iter().enumerate() {
            if tid == my_tid || !self.threads.is_claimed(tid) {
                continue;
            }
            if !self.driver.neutralize(slot) {
                continue; // not registered with the driver (e.g. already exiting)
            }
            // ThreadScan's blocking wait: until the target has run its handler (its ack
            // counter advanced) we cannot be sure its reference announcements are visible.
            // Yield on every check: the target can only run its handler if it gets CPU
            // time, and on a single-core host a spinning waiter would deny it exactly that
            // for a whole scheduling quantum.
            while self.threads.is_claimed(tid) && slot.stats().signals_received <= before[tid] {
                std::thread::yield_now();
            }
        }
    }
}

impl<T: Send + 'static> Reclaimer<T> for ThreadScanLite<T> {
    type Thread = ThreadScanLiteThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, ThreadScanConfig::default(), SignalDriver::best_available())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.threads.claim(tid)?;
        let registration = this.driver.register_current_thread(Arc::clone(&this.slots[tid]));
        Ok(ThreadScanLiteThread {
            global: Arc::clone(this),
            tid,
            retired: BlockBag::with_block_capacity(this.config.block_capacity),
            referenced: HashSet::with_capacity(this.refs.capacity()),
            quiescent: true,
            _registration: registration,
        })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "ThreadScan"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "ThreadScan (lite)",
            code_modifications: CodeModifications {
                per_accessed_record: true,
                per_operation: false,
                per_retired_record: true,
                other: "",
            },
            timing_assumptions: TimingAssumptions::ForProgress,
            fault_tolerant: false,
            termination: Termination::Blocking,
            can_traverse_retired_to_retired: false,
        }
    }
}

impl<T> fmt::Debug for ThreadScanLite<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadScanLite")
            .field("max_threads", &self.threads.max_threads())
            .field("config", &self.config)
            .finish()
    }
}

/// Per-thread handle of [`ThreadScanLite`].
pub struct ThreadScanLiteThread<T: Send + 'static> {
    global: Arc<ThreadScanLite<T>>,
    tid: usize,
    retired: BlockBag<T>,
    /// Scratch for the references a scan gathers, sized at registration for every
    /// thread's slots so that gathering never allocates.
    referenced: HashSet<usize>,
    quiescent: bool,
    _registration: ThreadRegistration,
}

impl<T: Send + 'static> ThreadScanLiteThread<T> {
    fn my_slots(&self) -> &[AtomicPtr<u8>] {
        self.global.refs.of(self.tid)
    }

    fn scan<S: ReclaimSink<T>>(&mut self, sink: &mut S) {
        let ThreadScanLiteThread { global, tid, retired, referenced, .. } = self;
        // Only one thread reclaims at a time (ThreadScan's global reclamation lock).
        let _guard = global.reclaim_lock.lock();
        global.signal_and_await(*tid);
        global.refs.collect_into(referenced);
        let reclaimed = retired.partition_and_hand_over(
            |p| referenced.contains(&(p.as_ptr() as usize)),
            to_sink(sink),
        );
        let threads = &global.threads;
        ThreadStatsSlot::bump(&threads.stats(*tid).reclaimed, reclaimed as u64);
        threads.publish_limbo(*tid, retired.len() as u64);
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for ThreadScanLiteThread<T> {
    fn leave_qstate<S: ReclaimSink<T>>(&mut self, _sink: &mut S) -> bool {
        self.quiescent = false;
        ThreadStatsSlot::bump(&self.global.threads.stats(self.tid).operations, 1);
        false
    }

    fn enter_qstate(&mut self) {
        self.global.refs.clear(self.tid, Ordering::Relaxed);
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
        if self.retired.len() >= self.global.config.scan_threshold {
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
        assert!(slot < slots.len(), "reference slot {slot} out of range");
        // The whole point of ThreadScan: no fence here (Relaxed store).  Visibility to a
        // reclaimer is established by the signal/acknowledgement handshake during scans.
        slots[slot].store(record.as_ptr() as *mut u8, Ordering::Relaxed);
        if validate() {
            true
        } else {
            slots[slot].store(std::ptr::null_mut(), Ordering::Relaxed);
            false
        }
    }

    fn unprotect(&mut self, slot: usize) {
        let slots = self.my_slots();
        assert!(slot < slots.len(), "reference slot {slot} out of range");
        slots[slot].store(std::ptr::null_mut(), Ordering::Relaxed);
    }

    fn is_protected(&self, record: NonNull<T>) -> bool {
        self.global.refs.holds(self.tid, record.as_ptr() as *mut u8)
    }
}

impl<T: Send + 'static> Drop for ThreadScanLiteThread<T> {
    fn drop(&mut self) {
        self.global.refs.clear(self.tid, Ordering::SeqCst);
        let threads = &self.global.threads;
        // SAFETY: the slot and the records are this handle's; its announcement is withdrawn.
        unsafe {
            threads.orphan(self.tid, self.retired.drain());
            threads.release(self.tid);
        }
    }
}

impl<T: Send + 'static> fmt::Debug for ThreadScanLiteThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadScanLiteThread")
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
            unsafe { drop(Box::from_raw(record.as_ptr())) };
        }
    }

    fn tiny() -> ThreadScanConfig {
        ThreadScanConfig { slots_per_thread: 2, scan_threshold: 16, block_capacity: 4 }
    }

    #[test]
    fn reclaims_unreferenced_records_and_keeps_referenced_ones() {
        let ts: Arc<ThreadScanLite<u64>> =
            Arc::new(ThreadScanLite::with_config(2, tiny(), SignalDriver::simulated()));
        let mut a = ThreadScanLite::register(&ts, 0).unwrap();
        let mut b = ThreadScanLite::register(&ts, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        let held = leak(999);
        let _ = b.leave_qstate(&mut b_sink);
        assert!(b.protect(0, held, || true));

        let _ = a.leave_qstate(&mut sink);
        unsafe { a.retire(held, &mut sink) };
        for i in 0..200u64 {
            unsafe { a.retire(leak(i), &mut sink) };
        }
        a.enter_qstate();

        assert!(!sink.freed.is_empty());
        assert!(!sink.freed.contains(&(held.as_ptr() as usize)));
        assert!(ts.stats().reclaimed > 0);

        b.enter_qstate();
        let _ = a.leave_qstate(&mut sink);
        for i in 0..100u64 {
            unsafe { a.retire(leak(1000 + i), &mut sink) };
        }
        a.enter_qstate();
        assert!(sink.freed.contains(&(held.as_ptr() as usize)));

        drop(a);
        drop(b);
        for r in ts.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }
}
