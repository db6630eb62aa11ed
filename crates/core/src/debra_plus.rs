//! DEBRA+: fault tolerant distributed epoch based reclamation (paper, Section 5).

use std::collections::HashSet;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use neutralize::{Neutralized, SignalDriver, ThreadRegistration};

use crate::announce::AnnounceSlots;
use crate::config::DebraPlusConfig;
use crate::debra::{Debra, DebraThread};
use crate::properties::SchemeProperties;
use crate::stats::{ReclaimerStats, ThreadStatsSlot};
use crate::threads::ThreadTable;
use crate::traits::{ReadProtection, ReclaimSink, Reclaimer, ReclaimerThread, RegistrationError};

/// Shared state of the DEBRA+ reclaimer.
///
/// DEBRA+ extends [`Debra`] with *neutralization*, making it the first fault tolerant epoch
/// based reclamation scheme:
///
/// * When a thread `p` notices that some thread `q` has neither announced the current epoch
///   nor become quiescent, and `p`'s current limbo bag has grown beyond a threshold, `p`
///   **neutralizes** `q` by sending it an OS signal
///   ([`suspect_neutralized`](crate::DebraPlusConfig::suspect_threshold_blocks)).  From that
///   moment until `q`'s announcement changes, `p` may treat `q` as quiescent without
///   signalling it again, so a crashed or descheduled thread can delay
///   reclamation only briefly: at any time O(mn²) records are waiting to be freed, where
///   `m` is the largest number of records retired by one operation.
/// * A neutralized thread runs *recovery code* while quiescent.  So that the recovery code
///   can safely access its operation descriptor (and the records the descriptor refers
///   to), DEBRA+ provides **restricted hazard pointers**
///   ([`r_protect`](ReclaimerThread::r_protect)); reclamation skips records that are
///   R-protected by any thread.
///
/// # Neutralization model in this reproduction
///
/// The paper's signal handler performs a `siglongjmp` straight into the recovery code.
/// Jumping out of arbitrary Rust frames from a signal handler is unsound, so this
/// implementation uses *checked neutralization*: the handler (see the `neutralize` crate)
/// sets the thread's quiescent bit and a `neutralized` flag, and the operation body
/// observes the flag at its next checkpoint ([`check`](ReclaimerThread::check)) — every
/// record access and CAS in the data structures of the `lockfree-ds` crate is preceded by
/// such a checkpoint — and unwinds to the recovery code by returning
/// [`Neutralized`].  Records reclaimed by other threads while a neutralized thread is still
/// running toward its next checkpoint are recycled through the Record Manager's pool
/// (type-stable memory), so a stale access reads a valid record of the right type; see
/// `DESIGN.md` for the full discussion of this substitution.
pub struct DebraPlus<T> {
    base: Arc<Debra<T>>,
    /// Every thread's restricted hazard pointers (the paper's `RProtected[pid]`): the
    /// owner fills its line from the front and empties it at `RUnprotectAll`; a rotation
    /// scans every line before freeing.
    rprotected: AnnounceSlots,
    driver: SignalDriver,
    config: DebraPlusConfig,
}

impl<T: Send + 'static> DebraPlus<T> {
    /// Creates DEBRA+ shared state with a custom configuration and signal driver.
    ///
    /// Use [`SignalDriver::best_available`] for real POSIX-signal neutralization, or
    /// [`SignalDriver::simulated`] for deterministic tests / non-Unix platforms.
    ///
    /// # Panics
    ///
    /// Unless `1 <= config.rprotect_slots <= 16`.
    pub fn with_config(max_threads: usize, config: DebraPlusConfig, driver: SignalDriver) -> Self {
        DebraPlus {
            base: Arc::new(Debra::with_config(max_threads, config.debra)),
            rprotected: AnnounceSlots::new(max_threads, config.rprotect_slots),
            driver,
            config,
        }
    }

    /// The underlying DEBRA instance (epoch, announcements, limbo bag bookkeeping).
    pub fn base(&self) -> &Arc<Debra<T>> {
        &self.base
    }

    /// The signal driver used for neutralization.
    pub fn driver(&self) -> &SignalDriver {
        &self.driver
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> &DebraPlusConfig {
        &self.config
    }

    /// Total number of neutralizations observed by all threads' signal handlers.
    pub fn neutralizations(&self) -> u64 {
        (0..self.base.max_threads()).map(|tid| self.base.slot(tid).stats().neutralizations).sum()
    }
}

impl<T: Send + 'static> Reclaimer<T> for DebraPlus<T> {
    type Thread = DebraPlusThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, DebraPlusConfig::default(), SignalDriver::best_available())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.base.do_register(tid)?;
        let inner = DebraThread::new(Arc::clone(&this.base), tid);
        // Register the *calling* thread as the target of neutralization signals for `tid`.
        // (A DEBRA+ thread handle must therefore be created on the thread that will use it.)
        let registration = this.driver.register_current_thread(this.base.slot_arc(tid));
        Ok(DebraPlusThread {
            inner,
            plus: Arc::clone(this),
            r_len: 0,
            protected: HashSet::with_capacity(this.rprotected.capacity()),
            signalled: vec![NOT_SIGNALLED; this.base.max_threads()].into_boxed_slice(),
            _registration: registration,
        })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.base.threads
    }

    fn name() -> &'static str {
        "DEBRA+"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties::debra_plus()
    }

    fn stats(&self) -> ReclaimerStats {
        let mut stats = self.base.stats();
        stats.neutralized = self.neutralizations();
        stats
    }

    fn is_thread_neutralized(&self, tid: usize) -> bool {
        self.base.slot(tid).is_neutralized()
    }
}

impl<T> fmt::Debug for DebraPlus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebraPlus")
            .field("config", &self.config)
            .field("driver", &self.driver)
            .finish()
    }
}

/// `signalled` entry of a thread not yet neutralized: the quiescent bit is set, and only
/// non-quiescent words are compared with it, so it matches none.
const NOT_SIGNALLED: u64 = u64::MAX;

/// Per-thread handle of [`DebraPlus`].
///
/// Must be created (via [`Reclaimer::register`]) on the thread that will use it, because
/// registration also installs the neutralization signal target for the calling OS thread.
pub struct DebraPlusThread<T: Send + 'static> {
    inner: DebraThread<T>,
    plus: Arc<DebraPlus<T>>,
    /// How many of this thread's `RProtect` slots are filled (it is their only writer).
    r_len: usize,
    /// Scratch for the R-protected set gathered at a rotation, sized at registration for
    /// every thread's slots so that gathering never allocates.
    protected: HashSet<usize>,
    /// `signalled[q]`: the announcement word thread `q` had when this thread last
    /// neutralized it.  While `q`'s word still reads the same, `q` has neither run the
    /// handler nor started another operation (either one changes the word, and no thread
    /// can announce an epoch the global epoch has passed), so the signal still holds it
    /// and it counts as quiescent without another one.
    signalled: Box<[u64]>,
    _registration: ThreadRegistration,
}

impl<T: Send + 'static> DebraPlusThread<T> {
    /// The shared DEBRA+ instance this handle belongs to.
    pub fn global(&self) -> &Arc<DebraPlus<T>> {
        &self.plus
    }

    /// Total number of records currently waiting in this thread's limbo bags.
    pub fn limbo_len(&self) -> usize {
        self.inner.limbo_len()
    }

    /// `true` if this thread has been neutralized and has not yet begun recovery.
    fn is_neutralized(&self) -> bool {
        self.inner.slot().is_neutralized()
    }

    /// This thread's filled `RProtect` slots.
    fn r_protected(&self) -> &[AtomicPtr<u8>] {
        &self.plus.rprotected.of(self.inner.tid())[..self.r_len]
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for DebraPlusThread<T> {
    const SUPPORTS_CRASH_RECOVERY: bool = true;
    // Epoch-style (see `DebraThread`): unvalidated traversal and helping are sound.
    const READ_PROTECTION: ReadProtection = ReadProtection::Pin;

    fn leave_qstate<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> bool {
        let DebraPlusThread { inner, plus, protected, signalled, .. } = self;
        let plus: &DebraPlus<T> = plus;
        let tid = inner.tid();
        // Starting a new operation (or retrying after recovery): any pending neutralization
        // has served its purpose (the thread is provably at a quiescent point right now).
        inner.slot().clear_neutralized();

        let scan_threshold = plus.config.scan_threshold_blocks;
        let suspect_threshold = plus.config.suspect_threshold_blocks;

        inner.leave_qstate_impl(
            sink,
            true,
            |limbo, sink| {
                if limbo.oldest_bag_blocks() < scan_threshold {
                    // Nothing worth scanning: rotate without freeing (the records will be
                    // examined once the bag has grown past the threshold).
                    limbo.rotate();
                    return 0;
                }
                // Reclaim only records not protected by any restricted hazard pointer.
                // With no such pointer announced (always, for structures that never
                // `RProtect`) the filter keeps nothing, and partitioning the bag record by
                // record would hand over exactly what DEBRA's rotation does, in the same
                // order, at O(1) per full block — so take that path.  Gathering runs only
                // once a bag has grown past the scan threshold: expected amortized O(1)
                // per record.
                plus.rprotected.collect_into(protected);
                if protected.is_empty() {
                    limbo.rotate_and_reclaim(sink)
                } else {
                    limbo.rotate_and_reclaim_filtered(sink, |p| {
                        protected.contains(&(p.as_ptr() as usize))
                    })
                }
            },
            |limbo, other, word| {
                // `other` is non-quiescent and has not announced the current epoch.  If it
                // has not moved since we neutralized it, it still counts as quiescent: a
                // thread descheduled across several epochs costs one suspicion, not one
                // per epoch.  Otherwise, if our limbo bag is getting large, suspect it of
                // having crashed and neutralize it (the paper's `suspectNeutralized`).
                if signalled[other] == word {
                    return true;
                }
                if limbo.current_bag_blocks() < suspect_threshold {
                    return false;
                }
                let sent = plus.driver.neutralize(plus.base.slot(other));
                if sent {
                    signalled[other] = word;
                    ThreadStatsSlot::bump(&plus.base.threads.stats(tid).signals_sent, 1);
                }
                sent
            },
        )
    }

    fn enter_qstate(&mut self) {
        self.inner.enter_qstate_impl();
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent_impl()
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, _sink: &mut S) {
        self.inner.retire_impl(record);
    }

    /// Idempotent: a thread neutralized while announcing re-runs the announcement in its
    /// next attempt.
    ///
    /// # Panics
    ///
    /// If all `rprotect_slots` slots are filled with other records.
    fn r_protect(&mut self, record: NonNull<T>) {
        if self.is_r_protected(record) {
            return;
        }
        let slots = self.plus.rprotected.of(self.inner.tid());
        assert!(
            self.r_len < slots.len(),
            "RProtect capacity exceeded ({} slots); increase DebraPlusConfig::rprotect_slots",
            slots.len()
        );
        slots[self.r_len].store(record.as_ptr().cast(), Ordering::SeqCst);
        self.r_len += 1;
    }

    fn r_unprotect_all(&mut self) {
        for slot in self.r_protected() {
            slot.store(std::ptr::null_mut(), Ordering::SeqCst);
        }
        self.r_len = 0;
    }

    fn is_r_protected(&self, record: NonNull<T>) -> bool {
        self.r_protected().iter().any(|s| s.load(Ordering::Relaxed) == record.as_ptr().cast())
    }

    fn check(&self) -> Result<(), Neutralized> {
        if self.is_neutralized() {
            Err(Neutralized)
        } else {
            Ok(())
        }
    }

    fn begin_recovery(&mut self) {
        if self.is_neutralized() {
            self.inner.slot().clear_neutralized();
        }
        // The thread stays quiescent (the handler already set the quiescent bit); recovery
        // code may access only R-protected records until the next `leave_qstate`.
    }
}

impl<T: Send + 'static> Drop for DebraPlusThread<T> {
    fn drop(&mut self) {
        self.r_unprotect_all();
        // `inner`'s Drop withdraws the announcement, orphans the remaining limbo records
        // and releases the slot; `_registration`'s Drop detaches the signal target.
    }
}

impl<T: Send + 'static> fmt::Debug for DebraPlusThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebraPlusThread")
            .field("tid", &self.inner.tid())
            .field("limbo_len", &self.inner.limbo_len())
            .field("neutralized", &self.is_neutralized())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DebraConfig;
    use crate::traits::CountingSink;
    use std::sync::atomic::Ordering;

    fn tiny_config() -> DebraPlusConfig {
        DebraPlusConfig {
            debra: DebraConfig { check_threshold: 1, increment_threshold: 1, block_capacity: 4 },
            suspect_threshold_blocks: 1,
            scan_threshold_blocks: 1,
            rprotect_slots: 8,
        }
    }

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

    fn drain_leaked(plus: &Arc<DebraPlus<u64>>) {
        for r in plus.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn stalled_thread_is_neutralized_and_reclamation_continues() {
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, tiny_config(), SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        // B starts an operation and stalls (never calls enter_qstate).
        let _ = b.leave_qstate(&mut b_sink);
        assert!(!b.is_quiescent());

        // A keeps retiring records; with DEBRA this would block reclamation forever, but
        // DEBRA+ neutralizes B once A's limbo bag exceeds the suspect threshold.
        for i in 0..2_000u64 {
            let _ = a.leave_qstate(&mut sink);
            unsafe { a.retire(leak(i), &mut sink) };
            a.enter_qstate();
        }
        assert!(!sink.freed.is_empty(), "reclamation must continue despite the stalled thread");
        let stats = plus.stats();
        assert!(stats.signals_sent > 0, "a neutralization signal must have been sent");
        assert!(plus.neutralizations() > 0);

        // The stalled thread observes its neutralization at its next checkpoint.
        assert!(b.is_neutralized());
        assert_eq!(b.check(), Err(Neutralized));
        assert!(b.is_quiescent(), "the handler made the stalled thread quiescent");

        // Recovery: acknowledge, then resume normal operation.
        b.begin_recovery();
        assert!(!b.is_neutralized());
        assert!(b.check().is_ok());
        let _ = b.leave_qstate(&mut b_sink);
        b.enter_qstate();

        drop(a);
        drop(b);
        drain_leaked(&plus);
    }

    #[test]
    fn a_neutralized_thread_that_has_not_moved_is_not_suspected_again() {
        // A real signal reaches a descheduled thread only once it runs again; until then
        // its announcement keeps the word it had when it was signalled.  The simulated
        // driver runs the handler at once, so the test puts that word back.
        let config = DebraPlusConfig { suspect_threshold_blocks: 2, ..tiny_config() };
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, config, SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();
        let b_slot = plus.base.slot(1);
        let op = |a: &mut DebraPlusThread<u64>, sink: &mut FreeingSink, i: u64| {
            let _ = a.leave_qstate(sink);
            unsafe { a.retire(leak(i), sink) };
            a.enter_qstate();
        };

        let _ = b.leave_qstate(&mut b_sink);
        let stalled_word = b_slot.load_announce(Ordering::SeqCst);
        let mut i = 0u64;
        while plus.stats().signals_sent == 0 {
            op(&mut a, &mut sink, i);
            i += 1;
            assert!(i < 100, "B was never suspected");
        }
        b_slot.store_announce(stalled_word, Ordering::SeqCst);

        // Many epochs go by: A frees as it goes and never needs to suspect B again.
        let freed_before = sink.freed.len();
        for _ in 0..200 {
            op(&mut a, &mut sink, i);
            i += 1;
        }
        assert_eq!(plus.stats().signals_sent, 1, "B was signalled again without moving");
        assert!(sink.freed.len() >= freed_before + 150, "reclamation kept pace");
        assert!(plus.stats().pending < 16, "pending {}", plus.stats().pending);

        // Once B has recovered and stalls again, it is a new suspect.
        b.begin_recovery();
        let _ = b.leave_qstate(&mut b_sink);
        while plus.stats().signals_sent == 1 {
            op(&mut a, &mut sink, i);
            i += 1;
            assert!(i < 400, "B's new stall was never suspected");
        }

        drop(a);
        drop(b);
        drain_leaked(&plus);
    }

    #[test]
    fn checks_a_laggard_blocked_count_toward_the_increment_threshold() {
        // DEBRA's `epoch_advance_cadence_with_default_config` under DEBRA+: the same pins
        // until the laggard finishes, and then one pin instead of DEBRA's 99, because the
        // checks it blocked count.
        let plus: Arc<DebraPlus<u64>> = Arc::new(DebraPlus::with_config(
            2,
            DebraPlusConfig::default(),
            SignalDriver::simulated(),
        ));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        let mut sink = CountingSink::default();
        let pins_until_epoch_moves = |t: &mut DebraPlusThread<u64>, sink: &mut CountingSink| {
            let before = plus.base.current_epoch();
            let mut pins = 0;
            while plus.base.current_epoch() == before {
                assert!(pins < 10_000, "the epoch never advanced");
                let _ = t.leave_qstate(sink);
                t.enter_qstate();
                pins += 1;
            }
            pins
        };

        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 100);
        let _ = b.leave_qstate(&mut sink);
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 100);
        let stuck_at = plus.base.current_epoch();
        for _ in 0..500 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert_eq!(plus.base.current_epoch(), stuck_at, "B on the old epoch blocks the advance");
        assert_eq!(plus.stats().signals_sent, 0, "nothing was retired, so B is not suspected");
        b.enter_qstate();
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 1);

        drop(a);
        drop(b);
        drain_leaked(&plus);
    }

    #[test]
    fn bounded_garbage_under_stalled_thread() {
        // The paper's bound: with neutralization, the number of records waiting to be freed
        // stays bounded (O(c + nm) per thread) even though one thread never finishes its
        // operation.
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, tiny_config(), SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();
        let _ = b.leave_qstate(&mut b_sink);

        let mut max_pending = 0u64;
        for i in 0..20_000u64 {
            let _ = a.leave_qstate(&mut sink);
            unsafe { a.retire(leak(i), &mut sink) };
            a.enter_qstate();
            max_pending = max_pending.max(plus.stats().pending);
        }
        // With block_capacity = 4 and the tiny thresholds the bound is a few dozen records;
        // use a generous constant that would still catch unbounded growth (which would reach
        // ~20k here).
        assert!(
            max_pending < 500,
            "pending records should stay bounded under neutralization, got {max_pending}"
        );

        drop(a);
        drop(b);
        drain_leaked(&plus);
    }

    #[test]
    fn a_lone_thread_keeps_at_most_three_records_in_limbo() {
        // As for DEBRA, with DEBRA+'s own thresholds at their defaults: every rotation
        // scans, finds nothing R-protected and hands the whole bag over.
        let config = DebraPlusConfig {
            debra: DebraConfig { increment_threshold: 1, ..DebraConfig::default() },
            ..DebraPlusConfig::default()
        };
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(1, config, SignalDriver::simulated()));
        let mut t = DebraPlus::register(&plus, 0).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        for i in 0..600u64 {
            let _ = t.leave_qstate(&mut sink);
            unsafe { t.retire(leak(i), &mut sink) };
            t.enter_qstate();
        }
        let stats = plus.stats();
        assert!(stats.pending <= 3, "pending {}", stats.pending);
        assert_eq!(sink.freed.len() as u64 + stats.pending, 600);
        drop(t);
        drain_leaked(&plus);
    }

    #[test]
    fn rprotected_records_survive_reclamation() {
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, tiny_config(), SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut next = 0u64;

        // Alternate between a non-empty R-protected set (the filtered rotation) and an
        // empty one (the whole-block rotation).  In round 0 B protects the record before A
        // retires it, as recovery code would for its descriptor; in round 1 the protection
        // appears between two of A's rotations, after rotations that saw an empty set.
        for round in 0..2 {
            let target = leak(4242);
            let addr = target.as_ptr() as usize;
            if round == 0 {
                b.r_protect(target);
            }
            let _ = a.leave_qstate(&mut sink);
            unsafe { a.retire(target, &mut sink) };
            a.enter_qstate();
            if round == 1 {
                let _ = a.leave_qstate(&mut sink);
                a.enter_qstate();
                assert!(!sink.freed.contains(&addr), "one rotation cannot free the record");
                b.r_protect(target);
            }
            assert!(b.is_r_protected(target));

            // Drive A until plenty of reclamation has happened.
            let freed_before = sink.freed.len();
            for _ in 0..2_000 {
                let _ = a.leave_qstate(&mut sink);
                unsafe { a.retire(leak(next), &mut sink) };
                next += 1;
                a.enter_qstate();
            }
            assert!(sink.freed.len() > freed_before);
            assert!(!sink.freed.contains(&addr), "an R-protected record must never be reclaimed");

            // Once unprotected (the set is empty again), the record is eventually reclaimed.
            b.r_unprotect_all();
            assert!(!b.is_r_protected(target));
            for _ in 0..2_000 {
                let _ = a.leave_qstate(&mut sink);
                unsafe { a.retire(leak(next), &mut sink) };
                next += 1;
                a.enter_qstate();
            }
            assert!(
                sink.freed.contains(&addr),
                "after RUnprotectAll the record becomes reclaimable"
            );
            // Forget the address: the allocator may hand it out again in the next round.
            sink.freed.clear();
        }

        drop(a);
        drop(b);
        drain_leaked(&plus);
    }

    #[test]
    fn empty_rprotected_set_rotation_matches_the_filtered_rotation() {
        // Two instances fed the same retire sequence.  In `filtered`, the second thread
        // holds a restricted hazard pointer to a record that is never retired, so every
        // rotation partitions its bag against a non-empty set that keeps nothing; in
        // `fast` the set is empty and rotations move whole blocks.  Records carry their
        // sequence number, so "the same records" is checked by value.
        struct ValueSink {
            freed: Vec<u64>,
        }
        impl ReclaimSink<u64> for ValueSink {
            fn accept(&mut self, record: NonNull<u64>) {
                // SAFETY: test records are leaked boxes reclaimed exactly once.
                self.freed.push(*unsafe { Box::from_raw(record.as_ptr()) });
            }
        }

        let config = DebraPlusConfig {
            debra: DebraConfig { check_threshold: 1, increment_threshold: 3, block_capacity: 4 },
            ..tiny_config()
        };
        let fast: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, config, SignalDriver::simulated()));
        let filtered: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, config, SignalDriver::simulated()));
        let mut fast_a = DebraPlus::register(&fast, 0).unwrap();
        let mut filtered_a = DebraPlus::register(&filtered, 0).unwrap();
        let mut filtered_b = DebraPlus::register(&filtered, 1).unwrap();
        let bystander = leak(u64::MAX);
        filtered_b.r_protect(bystander);

        let mut fast_sink = ValueSink { freed: Vec::new() };
        let mut filtered_sink = ValueSink { freed: Vec::new() };
        for i in 0..3_000u64 {
            for (t, sink) in [(&mut fast_a, &mut fast_sink), (&mut filtered_a, &mut filtered_sink)]
            {
                let _ = t.leave_qstate(sink);
                // A varying number of retires per operation, so bags rotate with zero,
                // some and only full blocks.
                for k in 0..(i % 4) {
                    unsafe { t.retire(leak(i * 4 + k), sink) };
                }
                t.enter_qstate();
            }
            assert_eq!(fast_sink.freed, filtered_sink.freed, "same records, in the same order");
            let (f, g) = (fast.stats(), filtered.stats());
            assert_eq!((f.retired, f.reclaimed, f.pending), (g.retired, g.reclaimed, g.pending));
            assert_eq!(f.reclaimed, fast_sink.freed.len() as u64);
            assert_eq!(f.retired - f.reclaimed, f.pending);
        }
        assert!(fast_sink.freed.len() > 2_000, "both paths must actually reclaim");

        drop((fast_a, filtered_a, filtered_b));
        drain_leaked(&fast);
        drain_leaked(&filtered);
        unsafe { drop(Box::from_raw(bystander.as_ptr())) };
    }

    fn addr(v: usize) -> NonNull<u64> {
        NonNull::new((v * 8 + 8) as *mut u64).unwrap()
    }

    #[test]
    fn r_protect_is_idempotent() {
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(1, tiny_config(), SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        for _ in 0..3 {
            a.r_protect(addr(1));
        }
        assert_eq!(a.r_len, 1, "re-announcing a record takes no second slot");
        a.r_protect(addr(2));
        a.r_protect(addr(1));
        assert_eq!(a.r_len, 2);
        plus.rprotected.collect_into(&mut a.protected);
        assert_eq!(a.protected, [1, 2].map(|v| addr(v).as_ptr() as usize).into());
    }

    #[test]
    fn r_protect_contains_unprotect_and_the_rotation_sees_every_announcement() {
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, tiny_config(), SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut b = DebraPlus::register(&plus, 1).unwrap();
        a.r_protect(addr(1));
        a.r_protect(addr(2));
        b.r_protect(addr(3));
        assert_eq!(a.r_len, 2);
        assert!(a.is_r_protected(addr(1)) && a.is_r_protected(addr(2)));
        assert!(!a.is_r_protected(addr(3)) && b.is_r_protected(addr(3)));

        // What a rotation gathers: every thread's announcements, into a scratch set that
        // was sized at registration.
        let cap = a.protected.capacity();
        plus.rprotected.collect_into(&mut a.protected);
        assert_eq!(a.protected, [1, 2, 3].map(|v| addr(v).as_ptr() as usize).into());
        assert_eq!(a.protected.capacity(), cap, "gathering does not allocate");

        a.r_unprotect_all();
        assert!(!a.is_r_protected(addr(1)) && a.r_len == 0);
        plus.rprotected.collect_into(&mut a.protected);
        assert_eq!(a.protected, [addr(3).as_ptr() as usize].into());
        drop(b);
        plus.rprotected.collect_into(&mut a.protected);
        assert!(a.protected.is_empty(), "an exiting thread withdraws its announcements");
    }

    #[test]
    #[should_panic(expected = "RProtect capacity exceeded (2 slots)")]
    fn r_protect_overflow_panics() {
        let config = DebraPlusConfig { rprotect_slots: 2, ..tiny_config() };
        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(1, config, SignalDriver::simulated()));
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        a.r_protect(addr(1));
        a.r_protect(addr(2));
        a.r_protect(addr(2));
        a.r_protect(addr(3));
    }

    #[test]
    #[should_panic(expected = "between 1 and 16, got 17")]
    fn more_rprotect_slots_than_one_line_holds_are_refused() {
        let config = DebraPlusConfig { rprotect_slots: 17, ..tiny_config() };
        let _ = DebraPlus::<u64>::with_config(1, config, SignalDriver::simulated());
    }

    #[cfg(unix)]
    #[test]
    fn posix_neutralization_end_to_end() {
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

        let plus: Arc<DebraPlus<u64>> =
            Arc::new(DebraPlus::with_config(2, tiny_config(), SignalDriver::best_available()));
        let stop = Arc::new(AtomicBool::new(false));
        let worker_started = Arc::new(AtomicBool::new(false));
        let worker_recovered = Arc::new(AtomicBool::new(false));

        // Worker: starts an operation and spins inside it, checking its neutralization flag
        // like a data structure operation body would, and recovering when it fires.
        let worker = {
            let plus = Arc::clone(&plus);
            let stop = Arc::clone(&stop);
            let worker_started = Arc::clone(&worker_started);
            let worker_recovered = Arc::clone(&worker_recovered);
            std::thread::spawn(move || {
                let mut t = DebraPlus::register(&plus, 1).unwrap();
                let mut sink = CountingSink::default();
                let _ = t.leave_qstate(&mut sink);
                worker_started.store(true, AtomicOrdering::Release);
                while !stop.load(AtomicOrdering::Acquire) {
                    if t.check().is_err() {
                        t.begin_recovery();
                        worker_recovered.store(true, AtomicOrdering::Release);
                        let _ = t.leave_qstate(&mut sink);
                    }
                    // Yield, don't just spin: on a single-core host a bare spin would
                    // starve the retiring thread for a whole scheduling quantum.
                    std::thread::yield_now();
                }
                t.enter_qstate();
            })
        };

        // Wait until the worker is provably inside its (never-ending) operation, so that
        // reclamation below can only proceed by neutralizing it.
        while !worker_started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        // Main thread: retire records until reclamation proceeds (which requires the worker
        // to have been neutralized at least once, because it never becomes quiescent on its
        // own while spinning).
        let mut a = DebraPlus::register(&plus, 0).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut i = 0u64;
        // Keep retiring until the worker has also *observed* its neutralization: treating
        // the worker as quiescent only requires `pthread_kill` to succeed, so reclamation
        // can finish long before the worker's signal handler has even run.
        while (sink.freed.len() < 100 || !worker_recovered.load(Ordering::Acquire))
            && std::time::Instant::now() < deadline
        {
            let _ = a.leave_qstate(&mut sink);
            unsafe { a.retire(leak(i), &mut sink) };
            a.enter_qstate();
            i += 1;
        }
        stop.store(true, Ordering::Release);
        worker.join().unwrap();

        assert!(sink.freed.len() >= 100, "reclamation should proceed under POSIX neutralization");
        assert!(plus.stats().signals_sent > 0);
        assert!(worker_recovered.load(Ordering::Acquire), "the worker should observe and recover");

        drop(a);
        drain_leaked(&plus);
    }
}
