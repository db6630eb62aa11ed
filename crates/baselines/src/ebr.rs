//! Classical epoch based reclamation (Fraser-style), as characterized in the paper.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use debra::{
    CodeModifications, LimboBags, ReadProtection, ReclaimSink, Reclaimer, ReclaimerThread,
    RegistrationError, SchemeProperties, Termination, ThreadStatsSlot, ThreadTable,
    TimingAssumptions,
};

/// Announcement value of a thread that has never executed an operation.
const IDLE: u64 = u64::MAX;

/// Configuration for [`ClassicEbr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EbrConfig {
    /// Block capacity of the per-thread limbo bags.
    pub block_capacity: usize,
}

impl Default for EbrConfig {
    fn default() -> Self {
        EbrConfig { block_capacity: blockbag::DEFAULT_BLOCK_CAPACITY }
    }
}

/// Classical epoch based reclamation, implemented the way the paper describes it
/// (Section 3, "Epochs") so DEBRA's improvements can be measured against it:
///
/// * every `leave_qstate` reads **all** announcements (Θ(n) per operation, versus DEBRA's
///   amortized O(1) incremental scan);
/// * a thread's announcement persists *between* operations, so a thread that is parked
///   after finishing an operation still prevents every other thread from reclaiming
///   (DEBRA's quiescent bit removes exactly this failure mode);
/// * not fault tolerant: a thread that stalls inside an operation blocks reclamation
///   forever.
///
/// One simplification relative to Fraser's original is noted in `DESIGN.md`: limbo bags are
/// per-thread rather than shared, which only changes constant factors (it strictly favours
/// classic EBR, making the measured DEBRA advantage conservative).
pub struct ClassicEbr<T> {
    epoch: CachePadded<AtomicU64>,
    announce: Box<[CachePadded<AtomicU64>]>,
    threads: ThreadTable<T>,
    config: EbrConfig,
}

impl<T: Send + 'static> ClassicEbr<T> {
    /// Creates shared state with a custom configuration.
    pub fn with_config(max_threads: usize, config: EbrConfig) -> Self {
        ClassicEbr {
            epoch: CachePadded::new(AtomicU64::new(0)),
            threads: ThreadTable::new(max_threads),
            announce: (0..max_threads).map(|_| CachePadded::new(AtomicU64::new(IDLE))).collect(),
            config,
        }
    }

    /// Current global epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

impl<T: Send + 'static> Reclaimer<T> for ClassicEbr<T> {
    type Thread = ClassicEbrThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, EbrConfig::default())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.threads.claim(tid)?;
        this.announce[tid].store(IDLE, Ordering::SeqCst);
        Ok(ClassicEbrThread {
            global: Arc::clone(this),
            tid,
            limbo: LimboBags::new(this.config.block_capacity),
            last_seen_epoch: None,
            quiescent: true,
        })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "EBR"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "EBR",
            code_modifications: CodeModifications {
                per_accessed_record: false,
                per_operation: true,
                per_retired_record: true,
                other: "",
            },
            timing_assumptions: TimingAssumptions::None,
            fault_tolerant: false,
            termination: Termination::WaitFree,
            can_traverse_retired_to_retired: true,
        }
    }
}

impl<T> fmt::Debug for ClassicEbr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassicEbr")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("max_threads", &self.threads.max_threads())
            .finish()
    }
}

/// Per-thread handle of [`ClassicEbr`].
pub struct ClassicEbrThread<T: Send + 'static> {
    global: Arc<ClassicEbr<T>>,
    tid: usize,
    limbo: LimboBags<T>,
    last_seen_epoch: Option<u64>,
    quiescent: bool,
}

impl<T: Send + 'static> ReclaimerThread<T> for ClassicEbrThread<T> {
    // Epoch-style: records retired after an operation begins outlive the operation, so
    // unvalidated traversal (and therefore helping) is sound.
    const READ_PROTECTION: ReadProtection = ReadProtection::Pin;

    fn leave_qstate<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> bool {
        self.quiescent = false;
        let epoch = self.global.epoch.load(Ordering::SeqCst);
        self.global.announce[self.tid].store(epoch, Ordering::SeqCst);

        let global: &ClassicEbr<T> = &self.global;
        let stats = global.threads.stats(self.tid);
        let rotated = self.last_seen_epoch != Some(epoch);
        if rotated {
            self.last_seen_epoch = Some(epoch);
            let reclaimed = self.limbo.rotate_and_reclaim(sink);
            // A rotation that freed nothing leaves the counters and the gauge as they are.
            if reclaimed > 0 {
                ThreadStatsSlot::bump(&stats.reclaimed, reclaimed);
                global.threads.publish_limbo(self.tid, self.limbo.len() as u64);
            }
        }

        // Classic EBR: scan *every* announcement on every operation.
        let all_announced = global.announce.iter().all(|a| {
            let v = a.load(Ordering::SeqCst);
            v == epoch || v == IDLE
        });
        if all_announced {
            if global
                .epoch
                .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                ThreadStatsSlot::bump(&stats.epochs_advanced, 1);
            }
        } else {
            // Classic EBR's weakness: one thread parked on an old announcement (even
            // between operations — see `enter_qstate`) stalls everyone's epoch.
            ThreadStatsSlot::bump(&stats.epoch_stalls, 1);
        }
        ThreadStatsSlot::bump(&stats.operations, 1);
        rotated
    }

    fn enter_qstate(&mut self) {
        // Deliberately leaves the announcement in place: in classic EBR a thread parked
        // between operations still holds back the epoch (the behaviour DEBRA fixes).
        self.quiescent = true;
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, _sink: &mut S) {
        self.limbo.push(record);
        let threads = &self.global.threads;
        ThreadStatsSlot::bump(&threads.stats(self.tid).retired, 1);
        threads.publish_limbo(self.tid, self.limbo.len() as u64);
    }
}

impl<T: Send + 'static> Drop for ClassicEbrThread<T> {
    fn drop(&mut self) {
        // An exited thread no longer holds back the epoch.
        self.global.announce[self.tid].store(IDLE, Ordering::SeqCst);
        let threads = &self.global.threads;
        // SAFETY: the slot and the records are this handle's; its announcement is withdrawn.
        unsafe {
            threads.orphan(self.tid, self.limbo.drain());
            threads.release(self.tid);
        }
    }
}

impl<T: Send + 'static> fmt::Debug for ClassicEbrThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassicEbrThread")
            .field("tid", &self.tid)
            .field("pending", &self.limbo.len())
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
        freed: usize,
    }
    impl ReclaimSink<u64> for FreeingSink {
        fn accept(&mut self, record: NonNull<u64>) {
            unsafe { drop(Box::from_raw(record.as_ptr())) };
            self.freed += 1;
        }
    }

    fn tiny() -> EbrConfig {
        EbrConfig { block_capacity: 1 }
    }

    #[test]
    fn single_thread_reclaims() {
        let ebr: Arc<ClassicEbr<u64>> = Arc::new(ClassicEbr::with_config(1, tiny()));
        let mut t = ClassicEbr::register(&ebr, 0).unwrap();
        let mut sink = FreeingSink { freed: 0 };
        for i in 0..100u64 {
            let _ = t.leave_qstate(&mut sink);
            unsafe { t.retire(leak(i), &mut sink) };
            t.enter_qstate();
        }
        assert!(sink.freed > 0);
        let stats = ebr.stats();
        assert_eq!(stats.retired, 100);
        assert!(stats.epochs_advanced > 0);
        drop(t);
        for r in ebr.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn rotations_that_free_nothing_keep_the_limbo_gauge() {
        // One thread rotates on every pin.  A rotation onto an empty bag hands nothing over,
        // and the gauge published by the retires must still read right; the bag holding
        // the records is emptied two rotations later.
        let ebr: Arc<ClassicEbr<u64>> = Arc::new(ClassicEbr::new(1));
        let mut t = ClassicEbr::register(&ebr, 0).unwrap();
        let mut sink = FreeingSink { freed: 0 };
        let _ = t.leave_qstate(&mut sink);
        for i in 0..3u64 {
            unsafe { t.retire(leak(i), &mut sink) };
        }
        t.enter_qstate();
        let record = std::mem::size_of::<u64>() as u64;
        for _ in 0..2 {
            assert!(t.leave_qstate(&mut sink), "a lone thread advances and rotates every pin");
            t.enter_qstate();
            let stats = ebr.stats();
            assert_eq!(sink.freed, 0);
            assert_eq!((stats.retired, stats.reclaimed, stats.pending), (3, 0, 3));
            assert_eq!(stats.limbo_bytes, 3 * record);
        }
        assert!(t.leave_qstate(&mut sink));
        t.enter_qstate();
        let stats = ebr.stats();
        assert_eq!(sink.freed, 3, "fewer records than a block are handed over all the same");
        assert_eq!((stats.retired, stats.reclaimed, stats.pending), (3, 3, 0));
        assert_eq!(stats.limbo_bytes, 0);
        drop(t);
        assert!(ebr.drain_orphans().is_empty());
    }

    #[test]
    fn a_lone_thread_keeps_at_most_three_records_in_limbo() {
        // One retire per operation and a rotation on every pin: each bag holds one epoch's
        // single record, and a rotation hands it over whole, not only once a block fills.
        let ebr: Arc<ClassicEbr<u64>> = Arc::new(ClassicEbr::new(1));
        let mut t = ClassicEbr::register(&ebr, 0).unwrap();
        let mut sink = FreeingSink { freed: 0 };
        for i in 0..600u64 {
            let _ = t.leave_qstate(&mut sink);
            unsafe { t.retire(leak(i), &mut sink) };
            t.enter_qstate();
            assert!(ebr.stats().pending <= 3, "pending {} after {i} ops", ebr.stats().pending);
        }
        assert_eq!(sink.freed as u64 + ebr.stats().pending, 600);
        drop(t);
        for r in ebr.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn idle_thread_between_operations_blocks_reclamation() {
        // This is exactly the weakness DEBRA fixes: a thread that has *finished* its
        // operation but does not start a new one still pins the epoch.
        let ebr: Arc<ClassicEbr<u64>> = Arc::new(ClassicEbr::with_config(2, tiny()));
        let mut a = ClassicEbr::register(&ebr, 0).unwrap();
        let mut b = ClassicEbr::register(&ebr, 1).unwrap();
        let mut sink = CountingSink::default();

        // B performs one full operation, then goes idle (announcement sticks around).
        let _ = b.leave_qstate(&mut sink);
        b.enter_qstate();
        let b_epoch_at_idle = ebr.current_epoch();

        let mut retired = Vec::new();
        for i in 0..300u64 {
            let _ = a.leave_qstate(&mut sink);
            let r = leak(i);
            retired.push(r);
            unsafe { a.retire(r, &mut sink) };
            a.enter_qstate();
        }
        // The epoch can advance at most twice past B's announcement (it then waits for B),
        // so essentially nothing can be reclaimed.
        assert!(ebr.current_epoch() <= b_epoch_at_idle + 2);
        assert!(
            sink.accepted <= 2,
            "an idle thread should stall classic EBR (got {} reclamations)",
            sink.accepted
        );

        drop(a);
        drop(b);
        for r in ebr.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
        // Free whatever the counting sink "reclaimed" (it does not own memory): nothing to
        // do — records were either freed via orphans above or counted-but-leaked (<= 2).
        let _ = retired;
    }

    #[test]
    fn grace_period_respected_across_threads() {
        let ebr: Arc<ClassicEbr<u64>> = Arc::new(ClassicEbr::with_config(2, tiny()));
        let mut a = ClassicEbr::register(&ebr, 0).unwrap();
        let mut b = ClassicEbr::register(&ebr, 1).unwrap();
        let mut sink = CountingSink::default();

        // B is inside an operation; A retires a record.
        let _ = b.leave_qstate(&mut sink);
        let _ = a.leave_qstate(&mut sink);
        let r = leak(1);
        unsafe { a.retire(r, &mut sink) };
        a.enter_qstate();

        for _ in 0..50 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert_eq!(sink.accepted, 0, "record must not be reclaimed while B is stuck in its op");

        // B keeps performing operations, so its announcement keeps up and epochs advance.
        for _ in 0..50 {
            let _ = b.leave_qstate(&mut sink);
            b.enter_qstate();
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert!(sink.accepted >= 1);

        unsafe { drop(Box::from_raw(r.as_ptr())) };
        drop(a);
        drop(b);
        for o in ebr.drain_orphans() {
            unsafe { drop(Box::from_raw(o.as_ptr())) };
        }
    }
}
