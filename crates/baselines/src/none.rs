//! The "no reclamation" baseline.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use debra::{
    CodeModifications, ReadProtection, ReclaimSink, Reclaimer, ReclaimerThread, RegistrationError,
    SchemeProperties, Termination, ThreadStatsSlot, ThreadTable, TimingAssumptions,
};

/// The paper's "None" baseline: retired records are simply abandoned.
///
/// Used as the throughput upper bound in every experiment (a data structure that performs
/// no reclamation pays no overhead but its memory footprint grows without bound).  Records
/// are released only when the backing allocator is torn down (e.g. the bump arena) or when
/// the data structure is dropped.
pub struct NoReclaim<T> {
    threads: ThreadTable<T>,
}

impl<T: Send + 'static> Reclaimer<T> for NoReclaim<T> {
    type Thread = NoReclaimThread<T>;

    fn new(max_threads: usize) -> Self {
        NoReclaim { threads: ThreadTable::new(max_threads) }
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.threads.claim(tid)?;
        Ok(NoReclaimThread { global: Arc::clone(this), tid, quiescent: true })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "None"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "None",
            code_modifications: CodeModifications {
                per_accessed_record: false,
                per_operation: false,
                per_retired_record: false,
                other: "memory footprint grows without bound",
            },
            timing_assumptions: TimingAssumptions::None,
            fault_tolerant: true, // vacuously: nothing is ever reclaimed
            termination: Termination::WaitFree,
            can_traverse_retired_to_retired: true,
        }
    }
}

impl<T> fmt::Debug for NoReclaim<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NoReclaim").field("max_threads", &self.threads.max_threads()).finish()
    }
}

/// Per-thread handle of [`NoReclaim`].
pub struct NoReclaimThread<T> {
    global: Arc<NoReclaim<T>>,
    tid: usize,
    quiescent: bool,
}

impl<T: Send + 'static> ReclaimerThread<T> for NoReclaimThread<T> {
    // Nothing is ever freed, so any traversal is trivially sound.
    const READ_PROTECTION: ReadProtection = ReadProtection::Pin;

    fn leave_qstate<S: ReclaimSink<T>>(&mut self, _sink: &mut S) -> bool {
        self.quiescent = false;
        ThreadStatsSlot::bump(&self.global.threads.stats(self.tid).operations, 1);
        false
    }

    fn enter_qstate(&mut self) {
        self.quiescent = true;
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, _record: NonNull<T>, _sink: &mut S) {
        // Abandon the record: the whole point of this baseline.  The limbo gauge only
        // ever grows — the unbounded-garbage contrast every bounded scheme is measured
        // against.
        let threads = &self.global.threads;
        let stats = threads.stats(self.tid);
        ThreadStatsSlot::bump(&stats.retired, 1);
        threads.publish_limbo(self.tid, stats.pending.load(Ordering::Relaxed) + 1);
    }
}

impl<T> Drop for NoReclaimThread<T> {
    fn drop(&mut self) {
        // Nothing is orphaned: the abandoned records stay counted in the limbo gauge.
        // SAFETY: this handle leased `tid` and keeps no per-thread state in the slot.
        unsafe { self.global.threads.release(self.tid) };
    }
}

impl<T> fmt::Debug for NoReclaimThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NoReclaimThread").field("tid", &self.tid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::CountingSink;

    #[test]
    fn retire_abandons_records() {
        let none: Arc<NoReclaim<u64>> = Arc::new(NoReclaim::new(1));
        let mut t = NoReclaim::register(&none, 0).unwrap();
        let mut sink = CountingSink::default();
        let mut boxes: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        let _ = t.leave_qstate(&mut sink);
        for b in &mut boxes {
            unsafe { t.retire(NonNull::from(&mut **b), &mut sink) };
        }
        t.enter_qstate();
        assert_eq!(sink.accepted, 0, "None must never reclaim");
        let stats = none.stats();
        assert_eq!(stats.retired, 10);
        assert_eq!(stats.pending, 10);
        assert_eq!(stats.reclaimed, 0);
    }

    #[test]
    fn registration_lifecycle() {
        let none: Arc<NoReclaim<u64>> = Arc::new(NoReclaim::new(2));
        let t0 = NoReclaim::register(&none, 0).unwrap();
        assert!(NoReclaim::register(&none, 0).is_err());
        drop(t0);
        assert!(NoReclaim::register(&none, 0).is_ok());
        assert!(NoReclaim::register(&none, 7).is_err());
    }

    #[test]
    fn properties_reflect_no_reclamation() {
        let p = <NoReclaim<u64> as Reclaimer<u64>>::properties();
        assert!(!p.code_modifications.per_retired_record);
        assert!(p.can_traverse_retired_to_retired);
    }
}
